//! Dense row-major matrices over `f32`.
//!
//! [`Matrix`] is the workhorse of the whole stack: layers, optimizers,
//! compression codecs and classical baselines all operate on it. The design
//! favours predictable, allocation-explicit APIs over operator overloading
//! magic: shape mismatches are programming errors and panic with a clear
//! message rather than being silently broadcast.

use crate::kernel::{self, Trans};
use std::fmt;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use mdl_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of length {} cannot form a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} but expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 × n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column index {c} out of bounds for {} columns", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns a new matrix consisting of the given rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack requires equal row counts");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// Dispatches to the blocked, panel-packed kernel in [`crate::kernel`];
    /// results are bit-identical regardless of the kernel thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `out = self · other`, reshaping `out`'s buffer without reallocating
    /// when capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_to(self.rows, other.cols);
        kernel::gemm(
            Trans::N,
            Trans::N,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
        );
    }

    /// `out = selfᵀ · other` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_to(self.cols, other.cols);
        kernel::gemm(
            Trans::T,
            Trans::N,
            self.cols,
            other.cols,
            self.rows,
            &self.data,
            &other.data,
            &mut out.data,
            false,
        );
    }

    /// `out = self · otherᵀ` without materialising the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize_to(self.rows, other.rows);
        kernel::gemm(
            Trans::N,
            Trans::T,
            self.rows,
            other.rows,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
        );
    }

    /// `out += self · other` (accumulating; `out` keeps its contents).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul_acc inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_acc output shape mismatch");
        kernel::gemm(
            Trans::N,
            Trans::N,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            true,
        );
    }

    /// `out += selfᵀ · other` (accumulating gradient form).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn matmul_tn_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn_acc inner dimension mismatch");
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn_acc output shape mismatch");
        kernel::gemm(
            Trans::T,
            Trans::N,
            self.cols,
            other.cols,
            self.rows,
            &self.data,
            &other.data,
            &mut out.data,
            true,
        );
    }

    /// `out += self · otherᵀ` (accumulating).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn matmul_nt_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt_acc inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_nt_acc output shape mismatch");
        kernel::gemm(
            Trans::N,
            Trans::T,
            self.rows,
            other.rows,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            true,
        );
    }

    /// Fused dense layer: `out = self · other + bias` with the `1 × n`
    /// bias broadcast over rows, without any intermediate allocation.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn matmul_bias_into(&self, other: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul_bias inner dimension mismatch");
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, other.cols, "bias width mismatch");
        out.resize_to(self.rows, other.cols);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&bias.data);
        }
        kernel::gemm(
            Trans::N,
            Trans::N,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            true,
        );
    }

    /// Reference `self · other` using the naive triple-loop kernel; kept
    /// for benchmarking against the blocked path.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernel::gemm_naive(
            Trans::N,
            Trans::N,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            &mut out.data,
            false,
        );
        out
    }

    /// Element-wise sum, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Applies `f` element-wise over paired entries of two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "element-wise op requires equal shapes");
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place element-wise `self *= other` (Hadamard product).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard_assign requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled requires equal shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sets every element to `value` without reallocating.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Reshapes `self` to `rows × cols`, reusing the existing buffer when
    /// its capacity suffices. Element values are unspecified afterwards —
    /// this is a workspace primitive for `_into` targets, not a resize
    /// that preserves contents.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a same-shaped copy of `other`, reusing the buffer.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// In-place row broadcast: adds the `1 × cols` vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
    }

    /// Accumulates the row-sum of `self` into the `1 × cols` vector `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `1 × self.cols()`.
    pub fn sum_rows_acc(&self, out: &mut Matrix) {
        assert_eq!(out.rows, 1, "sum_rows_acc target must be a row vector");
        assert_eq!(out.cols, self.cols, "sum_rows_acc width mismatch");
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
    }

    /// Returns `self` scaled by a constant.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// In-place scaling by a constant.
    pub fn scale_mut(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies `f` to each element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` to each element in place.
    pub fn map_mut(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `row` (a `1 × cols` matrix) to every row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(row.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Sums over rows, producing a `1 × cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm (`sqrt` of the sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element per row (first occurrence wins).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Near-equality check with an absolute tolerance.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(other.data.iter()).all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural starting state for scratch
    /// buffers later shaped by `resize_to`/`_into` calls.
    fn default() -> Self {
        Self { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full_identity() {
        assert_eq!(Matrix::zeros(2, 3).sum(), 0.0);
        assert_eq!(Matrix::ones(2, 3).sum(), 6.0);
        assert_eq!(Matrix::full(2, 2, 2.5).sum(), 10.0);
        let i = Matrix::identity(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "cannot form")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 1.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.25);
        let expect = a.transpose().matmul(&b);
        assert!(a.matmul_tn(&b).approx_eq(&expect, 1e-5));

        let b2 = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.1);
        let expect2 = a.matmul(&b2.transpose());
        assert!(a.matmul_nt(&b2).approx_eq(&expect2, 1e-5));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(a.add(&b).sum(), 110.0);
        assert_eq!(b.sub(&a).sum(), 90.0);
        assert_eq!(a.hadamard(&b)[(1, 1)], 160.0);
        let mut c = a.clone();
        c.add_scaled(2.0, &b);
        assert_eq!(c[(0, 0)], 21.0);
    }

    #[test]
    fn broadcast_and_row_reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bias = Matrix::row_vector(&[10.0, 20.0]);
        let shifted = m.add_row_broadcast(&bias);
        assert_eq!(shifted[(1, 1)], 24.0);
        assert_eq!(m.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn stack_and_select() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (2, 2));
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
        let sel = v.select_rows(&[1, 0, 1]);
        assert_eq!(sel.row(0), &[3.0, 4.0]);
        assert_eq!(sel.rows(), 3);
    }

    #[test]
    fn argmax_and_norms() {
        let m = Matrix::from_rows(&[&[0.1, 0.9, 0.0], &[0.5, 0.2, 0.3]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
        let n = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((n.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(n.max_abs(), 4.0);
    }

    #[test]
    fn finiteness_check() {
        let mut m = Matrix::ones(2, 2);
        assert!(m.all_finite());
        m[(0, 0)] = f32::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let a = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32 * 0.3 - 2.0);
        let b = Matrix::from_fn(7, 4, |r, c| (r as f32 - c as f32) * 0.7);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // reuse the same target with new shapes
        a.matmul_nt_into(&a, &mut out);
        assert_eq!(out, a.matmul_nt(&a));
        a.matmul_tn_into(&a, &mut out);
        assert_eq!(out, a.matmul_tn(&a));
    }

    #[test]
    fn acc_variants_accumulate() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let mut out = Matrix::ones(3, 2);
        a.matmul_acc(&b, &mut out);
        let expect = a.matmul(&b).add(&Matrix::ones(3, 2));
        assert!(out.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn matmul_bias_fuses_broadcast() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1);
        let w = Matrix::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.2);
        let bias = Matrix::row_vector(&[1.0, -2.0, 3.0, -4.0, 5.0]);
        let mut out = Matrix::default();
        a.matmul_bias_into(&w, &bias, &mut out);
        assert!(out.approx_eq(&a.matmul(&w).add_row_broadcast(&bias), 1e-6));
    }

    #[test]
    fn blocked_matmul_matches_naive_bitwise() {
        let a = Matrix::from_fn(33, 19, |r, c| ((r * 19 + c) as f32).sin());
        let b = Matrix::from_fn(19, 21, |r, c| ((r * 21 + c) as f32).cos());
        let fast = a.matmul(&b);
        let slow = a.matmul_naive(&b);
        assert!(fast
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn in_place_helpers() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        let mut c = b.clone();
        c.sub_assign(&a);
        assert_eq!(c, b.sub(&a));
        let mut d = a.clone();
        d.hadamard_assign(&b);
        assert_eq!(d, a.hadamard(&b));
        d.fill(7.0);
        assert_eq!(d.sum(), 28.0);
        let mut e = Matrix::default();
        e.copy_from(&a);
        assert_eq!(e, a);
        e.resize_to(1, 2);
        assert_eq!(e.shape(), (1, 2));
        let mut f = a.clone();
        f.add_row_broadcast_assign(&Matrix::row_vector(&[10.0, 20.0]));
        assert_eq!(f, a.add_row_broadcast(&Matrix::row_vector(&[10.0, 20.0])));
        let mut s = Matrix::zeros(1, 2);
        a.sum_rows_acc(&mut s);
        assert_eq!(s, a.sum_rows());
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::from_fn(3, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let repr = format!("{m:?}");
        assert!(repr.contains("Matrix 3x4"));
    }
}
