//! Compressed sparse row storage for pruned weight matrices.

use mdl_tensor::Matrix;

/// A CSR (compressed sparse row) matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values`, length `rows + 1`.
    row_ptr: Vec<u32>,
    /// Column index of each stored value.
    col_idx: Vec<u32>,
    /// The non-zero values.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Reconstructs the dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                out[(r, self.col_idx[k] as usize)] = self.values[k];
            }
        }
        out
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(rows, cols)` of the logical matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Fraction of entries that are zero.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / (self.rows * self.cols).max(1) as f64
    }

    /// Storage footprint in bytes (4 B value + 4 B column + row pointers).
    pub fn storage_bytes(&self) -> u64 {
        (4 * self.values.len() + 4 * self.col_idx.len() + 4 * self.row_ptr.len()) as u64
    }

    /// Computes `x · selfᵀ`-style product used by dense layers: for input
    /// `x: n × rows` (weights are `in × out`, so `self` is interpreted as the
    /// weight matrix and this computes `x · W`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows`.
    pub fn matmul_into(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.rows, "spmv shape mismatch");
        let mut out = Matrix::zeros(x.rows(), self.cols);
        for n in 0..x.rows() {
            let x_row = x.row(n);
            let out_row = out.row_mut(n);
            for (r, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                for k in self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize {
                    out_row[self.col_idx[k] as usize] += xv * self.values[k];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[0.0, 3.0, 0.0]])
    }

    #[test]
    fn round_trip() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.to_dense(), d);
        assert!((csr.sparsity() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = sample();
        let csr = CsrMatrix::from_dense(&d);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 0.0]]);
        let expect = x.matmul(&d);
        assert!(csr.matmul_into(&x).approx_eq(&expect, 1e-6));
    }

    #[test]
    fn empty_matrix() {
        let d = Matrix::zeros(4, 5);
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.sparsity(), 1.0);
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn storage_shrinks_for_sparse() {
        let mut d = Matrix::zeros(100, 100);
        d[(3, 7)] = 1.0;
        let csr = CsrMatrix::from_dense(&d);
        assert!(csr.storage_bytes() < 4 * 100 * 100 / 10);
    }
}
