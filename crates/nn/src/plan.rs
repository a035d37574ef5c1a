//! Shape-specialized execution plans: compile once, run many.
//!
//! On a serving hot path the same model runs the same batch shape
//! thousands of times, so every shape check, buffer size and layer
//! downcast is invariant. A [`Plan`] hoists that work to *compile* time,
//! once per `(model, rows, width, precision)`:
//!
//! - the layer walk is specialized into a flat op list (one downcast per
//!   op per run, no virtual dispatch through `Box<dyn Layer>`);
//! - every inter-layer activation is laid into a shared
//!   [`mdl_tensor::Arena`] by buffer liveness (first-fit with reuse), so
//!   steady-state runs perform **zero heap allocation**;
//! - a Dense op is one GEMM with its epilogue fused: f32 applies bias and
//!   activation inside [`mdl_tensor::kernel::gemm_bias_act`]'s drain;
//!   int8 runs one full-batch [`mdl_tensor::quant::Int8Matrix::gemm_into`]
//!   into the op's `rows × out` `i32` accumulator, then one drain pass
//!   that folds the bias, dequantizes, applies the activation and tracks
//!   the max-abs the next layer's requantization needs;
//! - a GRU or an LSTM is one *recurrent* op in either precision: it scans
//!   through a plan-owned pre-sliced workspace, and the cell is the
//!   layer's own business (its scan is monomorphised per cell in f32 and
//!   matches on the cell once in int8);
//! - any other f32 layer kind (BiGru, the conv family, a nested
//!   `Sequential`, a custom layer) is one *generic* op: its input span is
//!   staged into a plan-owned matrix, the layer's own `forward_eval` runs
//!   once, and its checked result is copied on. Only that op may allocate.
//!
//! The f32 op kinds are thus `Dense`, `Recurrent`, `Generic` and `Copy`
//! (a trailing eval-mode dropout); the int8 kinds are `Dense` and
//! `Recurrent`.
//!
//! The plan is the only evaluator for both precisions:
//! [`QuantizedModel::forward_eval`] and [`Sequential::forward_eval`]
//! compile a plan for their input's shape and run it once, and an f32
//! plan covers any layer range ([`Plan::compile_range`]: the device-side
//! trunk `..k`, the server-side resume `k..`). Dense/GRU/LSTM ops call the
//! slice-level routines those layers' `forward_eval` calls, so a plan is
//! bit-identical to folding `Layer::forward_eval` over its range.
//!
//! # Examples
//!
//! ```
//! use mdl_nn::{Activation, Dense, Layer, Sequential};
//! use mdl_nn::plan::{Plan, PlanModel, PlanOptions};
//! use mdl_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(6, 16, Activation::Relu, &mut rng));
//! net.push(Dense::new(16, 3, Activation::Identity, &mut rng));
//!
//! let x = Matrix::ones(4, 6);
//! let mut plan = Plan::compile(PlanModel::F32(&net), 4, 6, PlanOptions::default()).unwrap();
//! let mut out = Matrix::default();
//! plan.run(PlanModel::F32(&net), &x, &mut out);
//! assert_eq!(out, net.forward_eval(&x));
//! ```

use crate::dense::{Dense, Dropout};
use crate::layer::LayerInfo;
use crate::quantized::{Out, QLayer, QRecurrentWs, QuantizedModel};
use crate::recurrent::{as_recurrent, Cache};
use crate::sequential::Sequential;
use mdl_tensor::quant::{quantize_value, symmetric_scale};
use mdl_tensor::{Arena, ArenaBuilder, BufferId, Matrix};
use std::any::Any;

/// A borrowed model to compile against or execute with. The plan never
/// owns the weights: the same plan serves every clone of a model version
/// as long as the architecture matches what it was compiled from.
#[derive(Clone, Copy)]
pub enum PlanModel<'a> {
    /// The f32 eval path over a [`Sequential`].
    F32(&'a Sequential),
    /// The int8 quantized path over a [`QuantizedModel`].
    Int8(&'a QuantizedModel),
}

impl PlanModel<'_> {
    /// Layers in the model.
    fn len(self) -> usize {
        match self {
            PlanModel::F32(seq) => seq.layers().len(),
            PlanModel::Int8(q) => q.layers().len(),
        }
    }

    /// Layer `layer`'s structural description.
    fn info(self, layer: usize) -> LayerInfo {
        match self {
            PlanModel::F32(seq) => seq.layers()[layer].info(),
            PlanModel::Int8(q) => q.layers()[layer].info(),
        }
    }
}

/// Compile-time knobs — none today. The type (and [`Plan::compile`]'s
/// fourth parameter) stays because `benchmark/src/probes.rs` names it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions {}

/// Why a plan can't be compiled: there is nothing to run or the widths
/// don't chain — never the kind of a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The model (or the requested layer range) has no layers.
    Empty,
    /// A layer's expected input width doesn't match what the previous
    /// layer produces (or the requested input width).
    Shape {
        /// Index of the offending layer.
        layer: usize,
        /// Width the layer expects.
        expected: usize,
        /// Width the plan would feed it.
        got: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "cannot plan an empty model"),
            PlanError::Shape { layer, expected, got } => {
                write!(f, "layer {layer} expects width {expected}, plan feeds {got}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Compile-time facts about a plan, surfaced to observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// Dense ops, each one GEMM with a fused epilogue.
    pub fused_ops: usize,
    /// Bytes of shared arena backing all inter-layer activations.
    pub arena_bytes: usize,
}

/// Where an op reads from / writes to.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// The caller's input matrix (first op only — never copied).
    Input,
    /// A span in the shared arena.
    Buf(BufferId),
    /// The caller's output matrix (last op only).
    Output,
}

/// One op: layer `layer` of the model applied from `src` to `dst`, with
/// the precision's per-kind state in `kind`.
struct Op<K> {
    layer: usize,
    src: Loc,
    dst: Loc,
    kind: K,
}

enum KindF32 {
    /// `dst = act(src · W + b)`, one GEMM with the epilogue fused.
    Dense,
    /// Whole-sequence GRU or LSTM scan through a plan-owned cache.
    Recurrent(Cache),
    /// Any other kind: `src` is staged into this plan-owned matrix and the
    /// layer's own `forward_eval` runs on it (and may allocate).
    Generic(Matrix),
    /// Plain copy (a trailing eval-mode dropout is the identity).
    Copy,
}

enum KindI8 {
    /// One int8 GEMM into the `rows × out` accumulator `acc`, with the
    /// accumulator-domain bias `bq` refilled each run from the input
    /// scale. The drain writes `values` (requantized into `dst`), or the
    /// f32 output directly when `dst` is [`Loc::Output`].
    Dense { bq: Vec<i32>, acc: Vec<i32>, values: Vec<f32> },
    /// Quantized GRU or LSTM scan through a plan-owned workspace.
    Recurrent(QRecurrentWs),
}

/// An int8 body's `scales[i]` is op `i`'s input scale: the prelude's
/// dynamic input quantization writes `scales[0]`, op `i` writes
/// `scales[i + 1]`.
enum Body {
    F32 { ops: Vec<Op<KindF32>>, arena: Arena<f32> },
    Int8 { ops: Vec<Op<KindI8>>, arena: Arena<i8>, scales: Vec<f32> },
}

/// A compiled, shape-specialized execution plan. See the module docs.
///
/// A plan is tied to the architecture and shape it was compiled from:
/// [`Plan::run`] panics if handed a model of a different structure or an
/// input of a different shape (callers key plan caches by model version
/// and batch shape, so a mismatch is a caller bug, not a data error).
pub struct Plan {
    rows: usize,
    in_cols: usize,
    out_cols: usize,
    body: Body,
    stats: PlanStats,
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("rows", &self.rows)
            .field("in_cols", &self.in_cols)
            .field("out_cols", &self.out_cols)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Plan {
    /// Compiles a plan for `rows × cols` inputs against the whole `model`;
    /// see [`Plan::compile_range`].
    pub fn compile(
        model: PlanModel<'_>,
        rows: usize,
        cols: usize,
        _opts: PlanOptions,
    ) -> Result<Plan, PlanError> {
        Self::compile_range(model, 0..model.len(), rows, cols)
    }

    /// Compiles a plan that feeds `rows × cols` inputs to layer
    /// `layers.start` and stops after layer `layers.end - 1`.
    ///
    /// Walks the range once — never calling a layer's `forward_eval` —
    /// checks shapes, sizes every recurrent workspace, and lays all
    /// inter-layer activations into one shared arena by liveness. Every
    /// f32 layer kind compiles (see the module docs). An int8 model has no
    /// f32 activation at a layer boundary, so it plans whole or panics.
    pub fn compile_range(
        model: PlanModel<'_>,
        layers: std::ops::Range<usize>,
        rows: usize,
        cols: usize,
    ) -> Result<Plan, PlanError> {
        assert!(rows > 0 && cols > 0, "plan shape must be non-empty");
        match model {
            PlanModel::F32(seq) => Self::compile_f32(seq, layers, rows, cols),
            PlanModel::Int8(q) => {
                assert_eq!(layers, 0..q.layers().len(), "an int8 model plans whole");
                Self::compile_i8(q, rows, cols)
            }
        }
    }

    /// One-shot evaluation, the whole of both models' `forward_eval`: compiles
    /// a plan over `layers` for `x`'s shape and runs it once. A plan's shape
    /// is never empty, so the two edges are answered here: an empty range is
    /// the identity and a zero-row `x` yields `0 × out_dim`.
    pub(crate) fn run_once(
        model: PlanModel<'_>,
        layers: std::ops::Range<usize>,
        x: &Matrix,
    ) -> Result<Matrix, PlanError> {
        if layers.is_empty() {
            return Ok(x.clone());
        }
        if x.rows() == 0 {
            return Ok(Matrix::zeros(0, model.info(layers.end - 1).out_dim));
        }
        let mut plan = Self::compile_range(model, layers, x.rows(), x.cols())?;
        let mut out = Matrix::default();
        plan.run(model, x, &mut out);
        Ok(out)
    }

    fn compile_f32(
        seq: &Sequential,
        range: std::ops::Range<usize>,
        rows: usize,
        cols: usize,
    ) -> Result<Plan, PlanError> {
        let mut b = ArenaBuilder::new();
        let (mut ops, cur, out_cols) =
            lay_out(PlanModel::F32(seq), range.clone(), rows, cols, &mut b, Loc::Input, |i| {
                let layer = &seq.layers()[i];
                let any = layer.as_any();
                if any.is_some_and(|a| a.is::<Dropout>()) {
                    // eval-mode identity: alias the location, no op recorded
                    return None;
                }
                Some(if any.is_some_and(|a| a.is::<Dense>()) {
                    KindF32::Dense
                } else if let Some(r) = any.and_then(as_recurrent) {
                    KindF32::Recurrent(r.plan_cache(rows))
                } else {
                    KindF32::Generic(Matrix::zeros(rows, layer.info().in_dim))
                })
            })?;
        // a trailing (or sole) dropout leaves the chain short of Output
        if !matches!(cur, Loc::Output) {
            let layer = range.end - 1;
            ops.push(Op { layer, src: cur, dst: Loc::Output, kind: KindF32::Copy });
        }
        let fused_ops = ops.iter().filter(|op| matches!(op.kind, KindF32::Dense)).count();
        let arena = b.build::<f32>();
        let stats = PlanStats { fused_ops, arena_bytes: arena.size_bytes() };
        Ok(Plan { rows, in_cols: cols, out_cols, body: Body::F32 { ops, arena }, stats })
    }

    fn compile_i8(q: &QuantizedModel, rows: usize, cols: usize) -> Result<Plan, PlanError> {
        let n = q.layers().len();
        let mut b = ArenaBuilder::new();
        // the prelude quantizes the caller's input into the first buffer
        let input = Loc::Buf(b.alloc(rows * cols));
        let (ops, _, out_cols) =
            lay_out(PlanModel::Int8(q), 0..n, rows, cols, &mut b, input, |i| {
                let layer = &q.layers()[i];
                Some(match layer {
                    QLayer::Dense(_) => {
                        let out = layer.info().out_dim;
                        // the last layer drains straight into the f32 output
                        let values = if i + 1 == n { Vec::new() } else { vec![0.0; rows * out] };
                        KindI8::Dense { bq: vec![0; out], acc: vec![0; rows * out], values }
                    }
                    QLayer::Recurrent(r) => KindI8::Recurrent(r.make_ws(rows)),
                })
            })?;
        let fused_ops = ops.iter().filter(|op| matches!(op.kind, KindI8::Dense { .. })).count();
        let arena = b.build::<i8>();
        let stats = PlanStats { fused_ops, arena_bytes: arena.size_bytes() };
        let scales = vec![0.0; ops.len() + 1];
        Ok(Plan { rows, in_cols: cols, out_cols, body: Body::Int8 { ops, arena, scales }, stats })
    }

    /// Rows (batch size / sequence length) the plan was compiled for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input width the plan was compiled for.
    pub fn in_cols(&self) -> usize {
        self.in_cols
    }

    /// Output width the plan produces.
    pub fn out_cols(&self) -> usize {
        self.out_cols
    }

    /// Compile-time stats (fused-op count, arena footprint).
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Executes the plan: `out` becomes exactly what folding
    /// `Layer::forward_eval` over the compiled layers returns for `x`, bit
    /// for bit. Steady-state calls perform no heap allocation (`out` is
    /// resized on first use and reused after) unless the plan holds a
    /// generic op, which allocates whatever its layer's `forward_eval`
    /// does. A model's [`crate::LayerProfiler`] is ticked once per op.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not the compiled `rows × in_cols` shape, if the
    /// model's precision doesn't match the compiled body, or if the
    /// layer stack differs structurally from compile time.
    pub fn run(&mut self, model: PlanModel<'_>, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.shape(),
            (self.rows, self.in_cols),
            "plan compiled for a different input shape"
        );
        out.resize_to(self.rows, self.out_cols);
        match (&mut self.body, model) {
            (Body::F32 { ops, arena }, PlanModel::F32(seq)) => {
                run_f32(ops, arena, seq, self.rows, x, out);
            }
            (Body::Int8 { ops, arena, scales }, PlanModel::Int8(q)) => {
                run_i8(ops, arena, scales, q, self.rows, x, out);
            }
            _ => panic!("plan precision does not match the model"),
        }
    }
}

/// The one chain walk both precisions compile through: starting from
/// `first`, lays layer `i` of `range` out as an op of kind `kind(i)`
/// (`None`: no op, the location aliases on). Per op it checks the input
/// width, allocates `dst` in `b` unless the layer is last, pushes the op
/// and releases `src`. Returns the ops, the chain's final location and
/// its width.
fn lay_out<K>(
    model: PlanModel<'_>,
    range: std::ops::Range<usize>,
    rows: usize,
    cols: usize,
    b: &mut ArenaBuilder,
    first: Loc,
    mut kind: impl FnMut(usize) -> Option<K>,
) -> Result<(Vec<Op<K>>, Loc, usize), PlanError> {
    if range.is_empty() {
        return Err(PlanError::Empty);
    }
    let mut ops = Vec::new();
    let (mut cur, mut cur_cols) = (first, cols);
    for i in range.clone() {
        let Some(kind) = kind(i) else { continue };
        let info = model.info(i);
        if info.in_dim != cur_cols {
            return Err(PlanError::Shape { layer: i, expected: info.in_dim, got: cur_cols });
        }
        let last = i + 1 == range.end;
        let dst = if last { Loc::Output } else { Loc::Buf(b.alloc(rows * info.out_dim)) };
        ops.push(Op { layer: i, src: cur, dst, kind });
        if let Loc::Buf(id) = cur {
            b.release(id);
        }
        cur = dst;
        cur_cols = info.out_dim;
    }
    Ok((ops, cur, cur_cols))
}

/// Resolves an op's read/write pair against the arena and the caller's
/// input/output buffers.
fn rw<'a>(
    arena: &'a mut Arena<f32>,
    x: &'a [f32],
    out: &'a mut [f32],
    src: Loc,
    dst: Loc,
) -> (&'a [f32], &'a mut [f32]) {
    match (src, dst) {
        (Loc::Input, Loc::Buf(d)) => (x, arena.slice_mut(d)),
        (Loc::Input, Loc::Output) => (x, out),
        (Loc::Buf(s), Loc::Buf(d)) => arena.read_write(s, d),
        (Loc::Buf(s), Loc::Output) => (arena.slice(s), out),
        _ => unreachable!("plan op reads Output or writes Input"),
    }
}

/// Layer `idx` of `seq` as the kind its op was compiled for, through `cast`.
fn expect_layer<'a, T: ?Sized>(
    seq: &'a Sequential,
    idx: usize,
    kind: &str,
    cast: impl FnOnce(&'a dyn Any) -> Option<&'a T>,
) -> &'a T {
    seq.layers()[idx]
        .as_any()
        .and_then(cast)
        .unwrap_or_else(|| panic!("plan expects layer {idx} to be {kind}"))
}

fn run_f32(
    ops: &mut [Op<KindF32>],
    arena: &mut Arena<f32>,
    seq: &Sequential,
    rows: usize,
    x: &Matrix,
    out: &mut Matrix,
) {
    let profiled = seq.profiler.as_ref();
    for op in ops.iter_mut() {
        let t0 = profiled.map_or(0, |p| p.profiler.now_ns());
        let (xs, os) = rw(arena, x.as_slice(), out.as_mut_slice(), op.src, op.dst);
        match &mut op.kind {
            KindF32::Dense => {
                let dense = expect_layer(seq, op.layer, "dense", |a| a.downcast_ref::<Dense>());
                dense.eval_slice_into(rows, xs, os);
            }
            KindF32::Recurrent(cache) => {
                expect_layer(seq, op.layer, "recurrent", as_recurrent)
                    .scan_slice_into(rows, xs, cache);
                os.copy_from_slice(cache.states());
            }
            KindF32::Generic(staged) => {
                staged.as_mut_slice().copy_from_slice(xs);
                let y = seq.layers()[op.layer].forward_eval(staged);
                let promised = (rows, os.len() / rows);
                assert_eq!(y.shape(), promised, "layer {} disagrees with its info()", op.layer);
                os.copy_from_slice(y.as_slice());
            }
            KindF32::Copy => os.copy_from_slice(xs),
        }
        if let Some(p) = profiled {
            p.handles[op.layer].record_fwd(rows, p.profiler.now_ns().saturating_sub(t0));
        }
    }
}

fn run_i8(
    ops: &mut [Op<KindI8>],
    arena: &mut Arena<i8>,
    scales: &mut [f32],
    q: &QuantizedModel,
    rows: usize,
    x: &Matrix,
    out: &mut Matrix,
) {
    // prelude: dynamic-scale input quantization into the first buffer
    let Loc::Buf(input) = ops[0].src else { unreachable!("an int8 plan reads the arena") };
    scales[0] = symmetric_scale(x.max_abs());
    for (b, &v) in arena.slice_mut(input).iter_mut().zip(x.as_slice()) {
        *b = quantize_value(v, scales[0]);
    }
    for (i, op) in ops.iter_mut().enumerate() {
        let Loc::Buf(src) = op.src else { unreachable!("an int8 plan reads the arena") };
        let (xs, dst) = match op.dst {
            Loc::Buf(d) => {
                let (xs, os) = arena.read_write(src, d);
                (xs, Out::Int8(os))
            }
            _ => (arena.slice(src), Out::F32(out.as_mut_slice())),
        };
        scales[i + 1] = match (&mut op.kind, &q.layers()[op.layer]) {
            (KindI8::Dense { bq, acc, values }, QLayer::Dense(d)) => {
                d.eval_into(xs, scales[i], bq, acc, values, dst)
            }
            (KindI8::Recurrent(ws), QLayer::Recurrent(r)) => r.scan(rows, xs, scales[i], ws, dst),
            _ => panic!("plan expects layer {} to be of its compiled kind", op.layer),
        };
    }
}

/// What a [`PlanCache`] lookup did, so callers can account cache
/// hits/misses without re-deriving them.
#[derive(Debug, Clone, Copy)]
pub enum PlanLookup {
    /// Ran on an already-cached plan.
    Hit,
    /// Compiled, cached and ran a fresh plan for this key.
    Compiled(PlanStats),
}

/// A capped cache of compiled [`Plan`]s keyed by
/// `(model version, entry layer, rows, cols)`; a plan runs from its entry
/// layer to the end of the model.
///
/// When the cache is full, the caller-supplied retain predicate decides
/// which versions survive (serving keeps the current and pinned-rollback
/// versions); per-version keying means a hot swap invalidates exactly the
/// swapped version's plans and nothing else. If every entry survives, the
/// cache starts over: the plans still in use recompile on demand.
#[derive(Debug, Default)]
pub struct PlanCache {
    cap: usize,
    plans: std::collections::HashMap<(u64, usize, usize, usize), Plan>,
}

impl PlanCache {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self { cap: cap.max(1), plans: std::collections::HashMap::new() }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Whether a plan is cached for this key.
    pub fn contains(&self, version: u64, entry: usize, rows: usize, cols: usize) -> bool {
        self.plans.contains_key(&(version, entry, rows, cols))
    }

    /// Runs `x` through the cached plan for `(version, entry, x.shape())`
    /// — layers `entry..` of `model` — compiling one on first sight, and
    /// returns which of the two happened. `retain` is consulted only on
    /// eviction: entries whose version it rejects are dropped to make room.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`] text if the plan can't be compiled:
    /// callers check the entry layer's width before batching.
    pub fn run(
        &mut self,
        version: u64,
        model: PlanModel<'_>,
        entry: usize,
        x: &Matrix,
        out: &mut Matrix,
        retain: impl Fn(u64) -> bool,
    ) -> PlanLookup {
        let key = (version, entry, x.rows(), x.cols());
        if let Some(plan) = self.plans.get_mut(&key) {
            plan.run(model, x, out);
            return PlanLookup::Hit;
        }
        if self.plans.len() >= self.cap {
            self.plans.retain(|&(v, ..), _| v == version || retain(v));
            if self.plans.len() >= self.cap {
                self.plans.clear();
            }
        }
        let plan = Plan::compile_range(model, entry..model.len(), x.rows(), x.cols())
            .unwrap_or_else(|e| panic!("{e}"));
        let plan = self.plans.entry(key).or_insert(plan);
        plan.run(model, x, out);
        PlanLookup::Compiled(plan.stats())
    }
}
