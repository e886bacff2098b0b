//! Tape-based reverse-mode automatic differentiation, split into a
//! structural **plan** and a reusable **workspace**.
//!
//! The tape records a flat arena of nodes. The *plan* ([`TapePlan`]) is the
//! structural half: the op sequence with its operand dependencies. The
//! *workspace* ([`TapeWorkspace`]) is the buffer half: one value tensor per
//! node plus the backward gradient slots. Forward values are computed
//! eagerly as the graph is built — each op writes into its workspace buffer
//! via the `_into` tensor kernels instead of allocating a fresh tensor —
//! and [`Tape::backward`] then walks the plan in reverse, accumulating
//! gradients for every node and depositing parameter gradients into a
//! [`GradStore`] aligned with the [`ParamStore`].
//!
//! [`Tape::new`] owns a private workspace (the drop-in behavior);
//! [`Tape::with_workspace`] borrows a caller-owned [`TapeWorkspace`] whose
//! buffers are `reset()` between forwards instead of freed, so steady-state
//! graph construction performs no tensor allocations once the arena has
//! warmed up to the graph's shapes. One workspace serves any sequence of
//! graphs — shapes may differ between forwards; buffers grow to the
//! high-water mark and stay.
//!
//! This is the substrate that makes *differentiable progressive sampling*
//! possible in Rust: the UAE query loss (paper Alg. 2) is an `n`-step chain
//! of model forwards, masked softmaxes and Gumbel-Softmax samples, all of
//! which are ordinary nodes on this tape.

use std::sync::Arc;

use crate::tensor::{
    add_bias_into, log_softmax_in_place, map_into, matmul_into, softmax_in_place, zip_into, Tensor,
};

/// Identifier of a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a trainable parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(u32);

impl ParamId {
    /// Position of the parameter inside its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Trainable parameters, owned outside any tape so they persist across
/// training steps.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len() as u32);
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Value of a parameter.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.index()]
    }

    /// Mutable value of a parameter (used by optimizers).
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.index()]
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.index()]
    }

    /// Number of parameters tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len() as u32).map(ParamId)
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Estimated size in bytes when stored as `f32`.
    pub fn size_bytes(&self) -> usize {
        self.num_scalars() * std::mem::size_of::<f32>()
    }
}

/// Gradient accumulators aligned with a [`ParamStore`].
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    grads: Vec<Tensor>,
}

impl GradStore {
    /// Zero-initialized gradients matching `store`'s shapes.
    pub fn zeros_like(store: &ParamStore) -> Self {
        GradStore {
            grads: store.values.iter().map(|t| Tensor::zeros(t.rows(), t.cols())).collect(),
        }
    }

    /// Gradient of one parameter.
    #[inline]
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.grads[id.index()]
    }

    /// Mutable gradient of one parameter.
    #[inline]
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.index()]
    }

    /// Reset all gradients to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm across all gradients, accumulated in `f64`.
    ///
    /// `f32` accumulation loses precision on large parameter counts (a few
    /// dominant squared terms absorb the long tail of small ones), and this
    /// norm feeds the clip and divergence guards — a silently low norm can
    /// skip a clip that was needed. The squares and the running sum are
    /// therefore carried in `f64` end to end; use this form wherever the
    /// norm feeds a guard.
    pub fn l2_norm_f64(&self) -> f64 {
        self.grads
            .iter()
            .flat_map(|g| g.data().iter())
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Global L2 norm as `f32` (computed in `f64`, rounded once at the end).
    pub fn l2_norm(&self) -> f32 {
        self.l2_norm_f64() as f32
    }

    /// Scale every gradient by `s` (used for gradient clipping).
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.grads {
            for x in g.data_mut() {
                *x *= s;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Constant leaf (no gradient).
    Input,
    /// Trainable leaf; gradient goes to the [`GradStore`].
    Param(ParamId),
    /// `a @ b`.
    MatMul(NodeId, NodeId),
    /// `a @ (b ⊙ mask)` — masked linear layer (MADE).
    MatMulMasked(NodeId, NodeId, Arc<Tensor>),
    /// `x + bias`, bias broadcast over rows (`1 x c`).
    AddBias(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Div(NodeId, NodeId),
    MulScalar(NodeId, f32),
    Relu(NodeId),
    Sigmoid(NodeId),
    Exp(NodeId),
    Ln(NodeId),
    ClampMin(NodeId, f32),
    SliceCols(NodeId, usize, usize),
    ConcatCols(Vec<NodeId>),
    /// Row-wise softmax.
    Softmax(NodeId),
    /// Row-wise log-softmax.
    LogSoftmax(NodeId),
    /// Sum across columns → `r x 1`.
    RowSum(NodeId),
    /// Per-row column gather → `r x 1`.
    GatherCols(NodeId, Arc<Vec<u32>>),
    /// Elementwise max with subgradient to the larger branch (ties → first).
    Maximum(NodeId, NodeId),
    /// Mean of all elements → `1 x 1`.
    MeanAll(NodeId),
    /// Sum of all elements → `1 x 1`.
    SumAll(NodeId),
    /// `(r x c) ⊙ broadcast(r x 1)`.
    MulColBroadcast(NodeId, NodeId),
    /// Average groups of `group` consecutive rows → `(r / group) x c`.
    MeanRowGroups(NodeId, usize),
    /// Row lookup: `out[r] = table[idx[r]]` (`u32::MAX` → zero row).
    /// Backward scatter-adds into the table's gradient — the embedding
    /// lookup of §4.6's learnable tuple encodings.
    EmbedRows(NodeId, Arc<Vec<u32>>),
}

/// The structural half of a tape: the op sequence with its operand
/// dependencies. One entry per node; values live in the paired
/// [`TapeWorkspace`] arena at the same index. The backing `Vec` is cleared
/// (not freed) between forwards, so op records reuse their storage.
#[derive(Debug, Default)]
pub struct TapePlan {
    ops: Vec<Op>,
}

impl TapePlan {
    /// Number of recorded ops (== node count of the current graph).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops are recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The buffer half of a tape: an arena of node value tensors, the backward
/// gradient slots, and a scratch tensor for ops that need a temporary
/// (masked matmul). Buffers are *reset* between forwards — logically
/// cleared, never freed — so a warmed workspace builds graphs with zero
/// tensor allocations.
///
/// Ownership rules (see DESIGN.md §5d):
/// * Exactly one [`Tape`] may borrow a workspace at a time (enforced by
///   `&mut`). Values read through [`Tape::value`] borrow the workspace and
///   die with the tape.
/// * `reset()` is legal only when no tape borrows the workspace; it
///   invalidates all `NodeId`s minted since the previous reset.
///   [`Tape::with_workspace`] resets implicitly.
/// * A workspace may outlive any number of tapes and may be moved between
///   owners (it holds no references), but must not be shared across threads
///   concurrently.
#[derive(Debug, Default)]
pub struct TapeWorkspace {
    plan: TapePlan,
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    scratch: Tensor,
}

impl TapeWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logically clear the recorded plan, keeping every buffer allocation
    /// for the next forward. Invalidates outstanding [`NodeId`]s.
    pub fn reset(&mut self) {
        self.plan.ops.clear();
    }

    /// The structural plan of the most recent graph.
    pub fn plan(&self) -> &TapePlan {
        &self.plan
    }

    /// Number of value buffers held in the arena (the high-water node
    /// count across all graphs built on this workspace).
    pub fn num_value_buffers(&self) -> usize {
        self.values.len()
    }
}

/// Owned-or-borrowed workspace slot, so `Tape::new` stays drop-in while
/// `Tape::with_workspace` reuses caller-owned buffers.
enum WsSlot<'w> {
    Owned(Box<TapeWorkspace>),
    Borrowed(&'w mut TapeWorkspace),
}

impl WsSlot<'_> {
    #[inline]
    fn get(&self) -> &TapeWorkspace {
        match self {
            WsSlot::Owned(ws) => ws,
            WsSlot::Borrowed(ws) => ws,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut TapeWorkspace {
        match self {
            WsSlot::Owned(ws) => ws,
            WsSlot::Borrowed(ws) => ws,
        }
    }
}

/// A single forward/backward computation graph.
///
/// Parameters are read from a borrowed [`ParamStore`]; gradients are written
/// to a caller-owned [`GradStore`], so one store can back many tapes — and
/// one [`TapeWorkspace`] can back many consecutive tapes without
/// reallocating node buffers.
///
/// ```
/// use uae_tensor::{GradStore, ParamStore, Tape, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::scalar(2.0));
/// let mut grads = GradStore::zeros_like(&store);
///
/// let mut tape = Tape::new(&store);
/// let wn = tape.param(w);
/// let sq = tape.mul(wn, wn);       // w^2
/// let loss = tape.mean_all(sq);
/// tape.backward(loss, &mut grads); // d(w^2)/dw = 2w = 4
/// assert_eq!(grads.get(w).scalar_value(), 4.0);
/// ```
pub struct Tape<'a> {
    store: &'a ParamStore,
    ws: WsSlot<'a>,
}

impl<'a> Tape<'a> {
    /// A fresh tape over a parameter store, with a private workspace.
    pub fn new(store: &'a ParamStore) -> Self {
        Tape { store, ws: WsSlot::Owned(Box::new(TapeWorkspace::new())) }
    }

    /// A tape reusing a caller-owned workspace. The workspace is `reset()`
    /// first (plan cleared, buffers kept), so a warmed workspace builds the
    /// graph without tensor allocations.
    pub fn with_workspace(store: &'a ParamStore, ws: &'a mut TapeWorkspace) -> Self {
        ws.reset();
        Tape { store, ws: WsSlot::Borrowed(ws) }
    }

    /// Reserve (or reuse) the value buffer of the next node, resized to
    /// `rows x cols`, returning it alongside the values of all existing
    /// nodes. Buffer contents are unspecified; the caller writes every
    /// element (or zero-fills for accumulation ops).
    fn begin(&mut self, rows: usize, cols: usize) -> (&[Tensor], &mut Tensor) {
        let ws = self.ws.get_mut();
        let n = ws.plan.ops.len();
        if ws.values.len() <= n {
            ws.values.push(Tensor::default());
        }
        let (prev, rest) = ws.values.split_at_mut(n);
        let out = &mut rest[0];
        out.resize(rows, cols);
        (prev, out)
    }

    /// Record the op that produced the buffer reserved by `begin`.
    fn commit(&mut self, op: Op) -> NodeId {
        let ws = self.ws.get_mut();
        let id = NodeId(ws.plan.ops.len() as u32);
        ws.plan.ops.push(op);
        id
    }

    /// Forward value of a node.
    #[inline]
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.ws.get().values[id.index()]
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.ws.get().plan.ops.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ws.get().plan.ops.is_empty()
    }

    // ---- graph builders -------------------------------------------------

    /// Constant leaf. The value is copied into the workspace arena; prefer
    /// [`Tape::input_ref`] / [`Tape::input_with`] when the caller keeps (or
    /// can build in place) the tensor, to avoid the intermediate
    /// allocation.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.input_ref(&value)
    }

    /// Constant leaf copied from a borrowed tensor.
    pub fn input_ref(&mut self, value: &Tensor) -> NodeId {
        {
            let (_, out) = self.begin(value.rows(), value.cols());
            out.data_mut().copy_from_slice(value.data());
        }
        self.commit(Op::Input)
    }

    /// All-zero constant leaf, written directly into the arena.
    pub fn input_zeros(&mut self, rows: usize, cols: usize) -> NodeId {
        {
            let (_, out) = self.begin(rows, cols);
            out.fill_zero();
        }
        self.commit(Op::Input)
    }

    /// Constant-filled leaf, written directly into the arena.
    pub fn input_full(&mut self, rows: usize, cols: usize, v: f32) -> NodeId {
        {
            let (_, out) = self.begin(rows, cols);
            out.data_mut().fill(v);
        }
        self.commit(Op::Input)
    }

    /// Constant leaf whose contents are produced by `fill` writing into the
    /// arena buffer (pre-sized to `rows x cols`, contents unspecified —
    /// `fill` must write every element).
    pub fn input_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Tensor),
    ) -> NodeId {
        {
            let (_, out) = self.begin(rows, cols);
            fill(out);
            debug_assert_eq!(out.shape(), (rows, cols), "input_with must keep the shape");
        }
        self.commit(Op::Input)
    }

    /// Trainable parameter leaf.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let store = self.store;
        {
            let p = store.get(id);
            let (rows, cols) = p.shape();
            let (_, out) = self.begin(rows, cols);
            out.data_mut().copy_from_slice(p.data());
        }
        self.commit(Op::Param(id))
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let rows = self.value(a).rows();
        let cols = self.value(b).cols();
        {
            let (prev, out) = self.begin(rows, cols);
            matmul_into(&prev[a.index()], &prev[b.index()], out, false);
        }
        self.commit(Op::MatMul(a, b))
    }

    /// `a @ (b ⊙ mask)` — the masked linear layer used by MADE. `mask` has
    /// `b`'s shape and is treated as a constant.
    pub fn matmul_masked(&mut self, a: NodeId, b: NodeId, mask: Arc<Tensor>) -> NodeId {
        assert_eq!(self.value(b).shape(), mask.shape(), "mask shape mismatch");
        let rows = self.value(a).rows();
        let cols = self.value(b).cols();
        {
            let ws = self.ws.get_mut();
            let n = ws.plan.ops.len();
            if ws.values.len() <= n {
                ws.values.push(Tensor::default());
            }
            let TapeWorkspace { values, scratch, .. } = ws;
            let (prev, rest) = values.split_at_mut(n);
            let out = &mut rest[0];
            out.resize(rows, cols);
            zip_into(&prev[b.index()], &mask, scratch, |w, m| w * m);
            matmul_into(&prev[a.index()], scratch, out, false);
        }
        self.commit(Op::MatMulMasked(a, b, mask))
    }

    /// `x + bias` with `bias` shaped `1 x c` broadcast over rows.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (xr, xc) = self.value(x).shape();
        assert_eq!(self.value(bias).shape(), (1, xc), "bias shape mismatch");
        {
            let (prev, out) = self.begin(xr, xc);
            add_bias_into(&prev[x.index()], &prev[bias.index()], out);
        }
        self.commit(Op::AddBias(x, bias))
    }

    fn zip_op(&mut self, a: NodeId, b: NodeId, op: Op, f: impl Fn(f32, f32) -> f32) -> NodeId {
        let (rows, cols) = self.value(a).shape();
        {
            let (prev, out) = self.begin(rows, cols);
            zip_into(&prev[a.index()], &prev[b.index()], out, f);
        }
        self.commit(op)
    }

    fn map_op(&mut self, x: NodeId, op: Op, f: impl Fn(f32) -> f32) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        {
            let (prev, out) = self.begin(rows, cols);
            map_into(&prev[x.index()], out, f);
        }
        self.commit(op)
    }

    /// Elementwise `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_op(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_op(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_op(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Elementwise `a / b`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_op(a, b, Op::Div(a, b), |x, y| x / y)
    }

    /// `x * c`.
    pub fn mul_scalar(&mut self, x: NodeId, c: f32) -> NodeId {
        self.map_op(x, Op::MulScalar(x, c), |v| v * c)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        self.map_op(x, Op::Relu(x), |v| v.max(0.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.map_op(x, Op::Sigmoid(x), |v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise `exp`.
    pub fn exp(&mut self, x: NodeId) -> NodeId {
        self.map_op(x, Op::Exp(x), f32::exp)
    }

    /// Elementwise natural log; the caller must guarantee positivity
    /// (compose with [`Tape::clamp_min`] when in doubt).
    pub fn ln(&mut self, x: NodeId) -> NodeId {
        self.map_op(x, Op::Ln(x), f32::ln)
    }

    /// `max(x, c)` with pass-through gradient where `x > c`.
    pub fn clamp_min(&mut self, x: NodeId, c: f32) -> NodeId {
        self.map_op(x, Op::ClampMin(x, c), |v| v.max(c))
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        assert!(start <= end && end <= cols, "slice_cols out of range");
        {
            let (prev, out) = self.begin(rows, end - start);
            let xv = &prev[x.index()];
            for r in 0..rows {
                out.row_mut(r).copy_from_slice(&xv.row(r)[start..end]);
            }
        }
        self.commit(Op::SliceCols(x, start, end))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = self.value(parts[0]).rows();
        let cols: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        {
            let (prev, out) = self.begin(rows, cols);
            for r in 0..rows {
                let orow = out.row_mut(r);
                let mut off = 0;
                for &p in parts {
                    let pv = &prev[p.index()];
                    assert_eq!(pv.rows(), rows, "concat_cols row mismatch");
                    orow[off..off + pv.cols()].copy_from_slice(pv.row(r));
                    off += pv.cols();
                }
            }
        }
        self.commit(Op::ConcatCols(parts.to_vec()))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        {
            let (prev, out) = self.begin(rows, cols);
            out.data_mut().copy_from_slice(prev[x.index()].data());
            for r in 0..rows {
                softmax_in_place(out.row_mut(r));
            }
        }
        self.commit(Op::Softmax(x))
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        {
            let (prev, out) = self.begin(rows, cols);
            out.data_mut().copy_from_slice(prev[x.index()].data());
            for r in 0..rows {
                log_softmax_in_place(out.row_mut(r));
            }
        }
        self.commit(Op::LogSoftmax(x))
    }

    /// Sum across columns → `r x 1`.
    pub fn row_sum(&mut self, x: NodeId) -> NodeId {
        let rows = self.value(x).rows();
        {
            let (prev, out) = self.begin(rows, 1);
            let xv = &prev[x.index()];
            for r in 0..rows {
                out.data_mut()[r] = xv.row(r).iter().sum();
            }
        }
        self.commit(Op::RowSum(x))
    }

    /// Per-row gather: `out[r] = x[r, idx[r]]` → `r x 1`.
    pub fn gather_cols(&mut self, x: NodeId, idx: Arc<Vec<u32>>) -> NodeId {
        let rows = self.value(x).rows();
        assert_eq!(rows, idx.len(), "gather index length mismatch");
        {
            let (prev, out) = self.begin(rows, 1);
            let xv = &prev[x.index()];
            for r in 0..rows {
                out.data_mut()[r] = xv.at(r, idx[r] as usize);
            }
        }
        self.commit(Op::GatherCols(x, idx))
    }

    /// Elementwise maximum; the subgradient follows the larger input
    /// (ties go to `a`).
    pub fn maximum(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_op(a, b, Op::Maximum(a, b), f32::max)
    }

    /// Mean over all elements → scalar node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        {
            let (prev, out) = self.begin(1, 1);
            out.data_mut()[0] = prev[x.index()].mean();
        }
        self.commit(Op::MeanAll(x))
    }

    /// Sum over all elements → scalar node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        {
            let (prev, out) = self.begin(1, 1);
            out.data_mut()[0] = prev[x.index()].sum();
        }
        self.commit(Op::SumAll(x))
    }

    /// `(r x c) ⊙ broadcast(v: r x 1)` — scales each row by a scalar.
    pub fn mul_col_broadcast(&mut self, x: NodeId, v: NodeId) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        let vv = self.value(v);
        assert_eq!(vv.cols(), 1, "broadcast vector must be r x 1");
        assert_eq!(vv.rows(), rows, "broadcast row mismatch");
        {
            let (prev, out) = self.begin(rows, cols);
            let xv = &prev[x.index()];
            let vv = &prev[v.index()];
            for r in 0..rows {
                let s = vv.at(r, 0);
                for (o, &xval) in out.row_mut(r).iter_mut().zip(xv.row(r)) {
                    *o = xval * s;
                }
            }
        }
        self.commit(Op::MulColBroadcast(x, v))
    }

    /// Embedding lookup: `out[r] = table[idx[r]]`, with the sentinel
    /// `u32::MAX` producing a zero row (the wildcard token for learnable
    /// encodings). Gradients scatter-add into `table`.
    pub fn embed_rows(&mut self, table: NodeId, idx: Arc<Vec<u32>>) -> NodeId {
        let cols = self.value(table).cols();
        {
            let (prev, out) = self.begin(idx.len(), cols);
            out.fill_zero();
            let t = &prev[table.index()];
            for (r, &i) in idx.iter().enumerate() {
                if i != u32::MAX {
                    debug_assert!((i as usize) < t.rows(), "embedding index out of range");
                    out.row_mut(r).copy_from_slice(t.row(i as usize));
                }
            }
        }
        self.commit(Op::EmbedRows(table, idx))
    }

    /// Average each group of `group` consecutive rows → `(r/group) x c`.
    ///
    /// Used by differentiable progressive sampling to average the density
    /// estimates of the `S` samples belonging to the same query.
    pub fn mean_row_groups(&mut self, x: NodeId, group: usize) -> NodeId {
        let (rows, cols) = self.value(x).shape();
        assert!(group > 0 && rows.is_multiple_of(group), "row count not divisible by group");
        let out_rows = rows / group;
        {
            let (prev, out) = self.begin(out_rows, cols);
            out.fill_zero();
            let t = &prev[x.index()];
            for r in 0..rows {
                let orow = r / group;
                for c in 0..cols {
                    let v = t.at(r, c) / group as f32;
                    out.set(orow, c, out.at(orow, c) + v);
                }
            }
        }
        self.commit(Op::MeanRowGroups(x, group))
    }

    // ---- backward --------------------------------------------------------

    /// Reverse-mode differentiation from `loss` (must be `1 x 1`),
    /// accumulating parameter gradients into `grads`. The per-node gradient
    /// slots live in the workspace, so their backbone is reused across
    /// backwards on the same workspace.
    pub fn backward(&mut self, loss: NodeId, grads: &mut GradStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let ws = self.ws.get_mut();
        let n = ws.plan.ops.len();
        if ws.grads.len() < n {
            ws.grads.resize_with(n, || None);
        }
        for g in &mut ws.grads[..n] {
            *g = None;
        }
        let TapeWorkspace { plan, values, grads: node_grads, scratch } = ws;
        node_grads[loss.index()] = Some(Tensor::scalar(1.0));

        for idx in (0..=loss.index()).rev() {
            let Some(gy) = node_grads[idx].take() else { continue };
            match &plan.ops[idx] {
                Op::Input => {}
                Op::Param(pid) => {
                    grads.get_mut(*pid).add_assign(&gy);
                }
                Op::MatMul(a, b) => {
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    accumulate(node_grads, *a, gy.matmul_t(bv));
                    accumulate(node_grads, *b, av.t_matmul(&gy));
                }
                Op::MatMulMasked(a, b, mask) => {
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    zip_into(bv, mask, scratch, |w, m| w * m);
                    accumulate(node_grads, *a, gy.matmul_t(scratch));
                    let gb = av.t_matmul(&gy).zip(mask, |g, m| g * m);
                    accumulate(node_grads, *b, gb);
                }
                Op::AddBias(x, bias) => {
                    let mut gb = Tensor::zeros(1, gy.cols());
                    for r in 0..gy.rows() {
                        for (o, g) in gb.row_mut(0).iter_mut().zip(gy.row(r)) {
                            *o += g;
                        }
                    }
                    accumulate(node_grads, *x, gy);
                    accumulate(node_grads, *bias, gb);
                }
                Op::Add(a, b) => {
                    accumulate(node_grads, *a, gy.clone());
                    accumulate(node_grads, *b, gy);
                }
                Op::Sub(a, b) => {
                    accumulate(node_grads, *a, gy.clone());
                    accumulate(node_grads, *b, gy.map(|g| -g));
                }
                Op::Mul(a, b) => {
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    accumulate(node_grads, *a, gy.zip(bv, |g, y| g * y));
                    accumulate(node_grads, *b, gy.zip(av, |g, x| g * x));
                }
                Op::Div(a, b) => {
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    accumulate(node_grads, *a, gy.zip(bv, |g, y| g / y));
                    let mut gb = gy.zip(av, |g, x| g * x);
                    gb = gb.zip(bv, |g, y| -g / (y * y));
                    accumulate(node_grads, *b, gb);
                }
                Op::MulScalar(x, c) => {
                    accumulate(node_grads, *x, gy.map(|g| g * c));
                }
                Op::Relu(x) => {
                    let xv = &values[x.index()];
                    accumulate(node_grads, *x, gy.zip(xv, |g, v| if v > 0.0 { g } else { 0.0 }));
                }
                Op::Sigmoid(x) => {
                    let s = &values[idx];
                    accumulate(node_grads, *x, gy.zip(s, |g, s| g * s * (1.0 - s)));
                }
                Op::Exp(x) => {
                    let y = &values[idx];
                    accumulate(node_grads, *x, gy.zip(y, |g, y| g * y));
                }
                Op::Ln(x) => {
                    let xv = &values[x.index()];
                    accumulate(node_grads, *x, gy.zip(xv, |g, v| g / v));
                }
                Op::ClampMin(x, c) => {
                    let xv = &values[x.index()];
                    let c = *c;
                    accumulate(node_grads, *x, gy.zip(xv, |g, v| if v > c { g } else { 0.0 }));
                }
                Op::SliceCols(x, start, _end) => {
                    let xv = &values[x.index()];
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for r in 0..gy.rows() {
                        for c in 0..gy.cols() {
                            gx.set(r, start + c, gy.at(r, c));
                        }
                    }
                    accumulate(node_grads, *x, gx);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = values[p.index()].cols();
                        accumulate(node_grads, p, gy.slice_cols(off, off + w));
                        off += w;
                    }
                }
                Op::Softmax(x) => {
                    let s = &values[idx];
                    let mut gx = Tensor::zeros(s.rows(), s.cols());
                    for r in 0..s.rows() {
                        let srow = s.row(r);
                        let grow = gy.row(r);
                        let dot: f32 = srow.iter().zip(grow).map(|(a, b)| a * b).sum();
                        for (o, (sv, gv)) in gx.row_mut(r).iter_mut().zip(srow.iter().zip(grow)) {
                            *o = sv * (gv - dot);
                        }
                    }
                    accumulate(node_grads, *x, gx);
                }
                Op::LogSoftmax(x) => {
                    let ls = &values[idx];
                    let mut gx = Tensor::zeros(ls.rows(), ls.cols());
                    for r in 0..ls.rows() {
                        let grow = gy.row(r);
                        let gsum: f32 = grow.iter().sum();
                        let lsrow = ls.row(r);
                        for (o, (lsv, gv)) in gx.row_mut(r).iter_mut().zip(lsrow.iter().zip(grow)) {
                            *o = gv - lsv.exp() * gsum;
                        }
                    }
                    accumulate(node_grads, *x, gx);
                }
                Op::RowSum(x) => {
                    let xv = &values[x.index()];
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        let g = gy.at(r, 0);
                        for o in gx.row_mut(r) {
                            *o = g;
                        }
                    }
                    accumulate(node_grads, *x, gx);
                }
                Op::GatherCols(x, idxs) => {
                    let xv = &values[x.index()];
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        gx.set(r, idxs[r] as usize, gy.at(r, 0));
                    }
                    accumulate(node_grads, *x, gx);
                }
                Op::Maximum(a, b) => {
                    let av = &values[a.index()];
                    let bv = &values[b.index()];
                    let mut ga = Tensor::zeros(gy.rows(), gy.cols());
                    let mut gb = Tensor::zeros(gy.rows(), gy.cols());
                    for i in 0..gy.len() {
                        let g = gy.data()[i];
                        if av.data()[i] >= bv.data()[i] {
                            ga.data_mut()[i] = g;
                        } else {
                            gb.data_mut()[i] = g;
                        }
                    }
                    accumulate(node_grads, *a, ga);
                    accumulate(node_grads, *b, gb);
                }
                Op::MeanAll(x) => {
                    let xv = &values[x.index()];
                    let g = gy.scalar_value() / xv.len() as f32;
                    accumulate(node_grads, *x, Tensor::full(xv.rows(), xv.cols(), g));
                }
                Op::SumAll(x) => {
                    let xv = &values[x.index()];
                    let g = gy.scalar_value();
                    accumulate(node_grads, *x, Tensor::full(xv.rows(), xv.cols(), g));
                }
                Op::MulColBroadcast(x, v) => {
                    let xv = &values[x.index()];
                    let vv = &values[v.index()];
                    let mut gx = gy.clone();
                    let mut gv = Tensor::zeros(vv.rows(), 1);
                    for r in 0..gy.rows() {
                        let s = vv.at(r, 0);
                        let mut acc = 0.0f32;
                        for c in 0..gy.cols() {
                            acc += gy.at(r, c) * xv.at(r, c);
                        }
                        gv.set(r, 0, acc);
                        for o in gx.row_mut(r) {
                            *o *= s;
                        }
                    }
                    accumulate(node_grads, *x, gx);
                    accumulate(node_grads, *v, gv);
                }
                Op::EmbedRows(table, idx) => {
                    let tv = &values[table.index()];
                    let mut gt = Tensor::zeros(tv.rows(), tv.cols());
                    for (r, &i) in idx.iter().enumerate() {
                        if i != u32::MAX {
                            let src = gy.row(r);
                            for (o, g) in gt.row_mut(i as usize).iter_mut().zip(src) {
                                *o += g;
                            }
                        }
                    }
                    accumulate(node_grads, *table, gt);
                }
                Op::MeanRowGroups(x, group) => {
                    let xv = &values[x.index()];
                    let mut gx = Tensor::zeros(xv.rows(), xv.cols());
                    let inv = 1.0 / *group as f32;
                    for r in 0..xv.rows() {
                        let orow = r / group;
                        for c in 0..xv.cols() {
                            gx.set(r, c, gy.at(orow, c) * inv);
                        }
                    }
                    accumulate(node_grads, *x, gx);
                }
            }
        }
    }
}

fn accumulate(node_grads: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
    match &mut node_grads[id.index()] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::thread_alloc_count;

    fn store_with(values: &[(&str, Tensor)]) -> (ParamStore, Vec<ParamId>) {
        let mut s = ParamStore::new();
        let ids = values.iter().map(|(n, t)| s.add(*n, t.clone())).collect();
        (s, ids)
    }

    #[test]
    fn linear_regression_gradient() {
        // loss = mean((x @ w - y)^2); check dL/dw analytically.
        let (store, ids) = store_with(&[("w", Tensor::from_vec(2, 1, vec![0.5, -0.25]))]);
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::from_vec(3, 2, vec![1.0, 2.0, 0.0, 1.0, -1.0, 0.5]));
        let y = tape.input(Tensor::from_vec(3, 1, vec![1.0, 0.0, -1.0]));
        let w = tape.param(ids[0]);
        let pred = tape.matmul(x, w);
        let err = tape.sub(pred, y);
        let sq = tape.mul(err, err);
        let loss = tape.mean_all(sq);

        let mut grads = GradStore::zeros_like(&store);
        tape.backward(loss, &mut grads);

        // Analytic gradient: (2/n) * X^T (Xw - y)
        let xv = Tensor::from_vec(3, 2, vec![1.0, 2.0, 0.0, 1.0, -1.0, 0.5]);
        let wv = Tensor::from_vec(2, 1, vec![0.5, -0.25]);
        let yv = Tensor::from_vec(3, 1, vec![1.0, 0.0, -1.0]);
        let resid = xv.matmul(&wv).zip(&yv, |p, t| p - t);
        let expect = xv.t_matmul(&resid).map(|v| v * 2.0 / 3.0);
        assert!(grads.get(ids[0]).max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn param_used_twice_accumulates() {
        let (store, ids) = store_with(&[("w", Tensor::scalar(3.0))]);
        let mut tape = Tape::new(&store);
        let w1 = tape.param(ids[0]);
        let w2 = tape.param(ids[0]);
        let prod = tape.mul(w1, w2); // w^2 → d/dw = 2w = 6
        let loss = tape.mean_all(prod);
        let mut grads = GradStore::zeros_like(&store);
        tape.backward(loss, &mut grads);
        assert!((grads.get(ids[0]).scalar_value() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn maximum_routes_gradient() {
        let (store, ids) = store_with(&[
            ("a", Tensor::from_vec(1, 2, vec![2.0, -1.0])),
            ("b", Tensor::from_vec(1, 2, vec![1.0, 5.0])),
        ]);
        let mut tape = Tape::new(&store);
        let a = tape.param(ids[0]);
        let b = tape.param(ids[1]);
        let m = tape.maximum(a, b);
        let loss = tape.sum_all(m);
        let mut grads = GradStore::zeros_like(&store);
        tape.backward(loss, &mut grads);
        assert_eq!(grads.get(ids[0]).data(), &[1.0, 0.0]);
        assert_eq!(grads.get(ids[1]).data(), &[0.0, 1.0]);
    }

    #[test]
    fn softmax_gradient_sums_to_zero() {
        // d(softmax)/dx rows always sum to 0 when upstream grad is one-hot.
        let (store, ids) = store_with(&[("x", Tensor::from_vec(1, 4, vec![0.1, 0.9, -0.4, 2.0]))]);
        let mut tape = Tape::new(&store);
        let x = tape.param(ids[0]);
        let s = tape.softmax(x);
        let g = tape.gather_cols(s, Arc::new(vec![2]));
        let loss = tape.sum_all(g);
        let mut grads = GradStore::zeros_like(&store);
        tape.backward(loss, &mut grads);
        let total: f32 = grads.get(ids[0]).data().iter().sum();
        assert!(total.abs() < 1e-6, "softmax grad rows must sum to 0, got {total}");
    }

    #[test]
    fn embed_rows_looks_up_and_scatter_adds() {
        let (store, ids) =
            store_with(&[("emb", Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))]);
        let mut tape = Tape::new(&store);
        let e = tape.param(ids[0]);
        // Rows 2, 0, 0, wildcard.
        let out = tape.embed_rows(e, Arc::new(vec![2, 0, 0, u32::MAX]));
        assert_eq!(tape.value(out).data(), &[5.0, 6.0, 1.0, 2.0, 1.0, 2.0, 0.0, 0.0]);
        let loss = tape.sum_all(out);
        let mut grads = GradStore::zeros_like(&store);
        tape.backward(loss, &mut grads);
        // Row 0 used twice → gradient 2; row 1 unused → 0; row 2 once → 1.
        assert_eq!(grads.get(ids[0]).data(), &[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn mean_row_groups_averages() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::from_vec(4, 1, vec![1.0, 3.0, 10.0, 20.0]));
        let m = tape.mean_row_groups(x, 2);
        assert_eq!(tape.value(m).data(), &[2.0, 15.0]);
    }

    #[test]
    fn grad_store_clipping() {
        let (store, ids) = store_with(&[("w", Tensor::from_vec(1, 2, vec![3.0, 4.0]))]);
        let mut grads = GradStore::zeros_like(&store);
        grads.get_mut(ids[0]).data_mut().copy_from_slice(&[3.0, 4.0]);
        assert!((grads.l2_norm() - 5.0).abs() < 1e-6);
        grads.scale(0.5);
        assert_eq!(grads.get(ids[0]).data(), &[1.5, 2.0]);
    }

    #[test]
    fn l2_norm_accumulates_in_f64() {
        // One dominant squared term (1e8) plus 10k unit terms: f32
        // accumulation would absorb every +1.0 into the 1e8 (1e8 + 1 == 1e8
        // in f32), reporting sqrt(1e8) = 10000 exactly. The f64 path keeps
        // the tail: sqrt(1e8 + 1e4) ≈ 10000.49998.
        let n = 10_001;
        let mut data = vec![1.0f32; n];
        data[0] = 1.0e4;
        let (store, ids) = store_with(&[("w", Tensor::from_vec(1, n, data))]);
        let mut grads = GradStore::zeros_like(&store);
        grads.get_mut(ids[0]).data_mut().copy_from_slice(store.get(ids[0]).data());
        let norm = grads.l2_norm_f64();
        let expect = (1.0e8f64 + 1.0e4).sqrt();
        assert!((norm - expect).abs() < 1e-6, "f64 norm {norm} vs {expect}");
        assert!(norm > 10000.4, "f32 accumulation would have collapsed to 10000");
    }

    /// The same graph builder used for the reuse tests below.
    fn build_graph(tape: &mut Tape<'_>, ids: &[ParamId], x: &Tensor, mask: &Arc<Tensor>) -> NodeId {
        let xn = tape.input_ref(x);
        let w = tape.param(ids[0]);
        let b = tape.param(ids[1]);
        let h = tape.matmul_masked(xn, w, Arc::clone(mask));
        let h = tape.add_bias(h, b);
        let h = tape.relu(h);
        let s = tape.softmax(h);
        let l = tape.ln(s);
        tape.mean_all(l)
    }

    #[test]
    fn workspace_reuse_is_bit_exact() {
        let (store, ids) = store_with(&[
            ("w", Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.17 - 0.9).collect())),
            ("b", Tensor::from_vec(1, 4, vec![0.1, -0.2, 0.0, 0.3])),
        ]);
        let x = Tensor::from_vec(2, 3, vec![1.0, -0.5, 2.0, 0.0, 0.25, -1.5]);
        let mask = Arc::new(Tensor::from_vec(3, 4, vec![1.0; 12]).map(|_| 1.0));

        // Reference: fresh owned-workspace tape.
        let mut ref_tape = Tape::new(&store);
        let ref_loss = build_graph(&mut ref_tape, &ids, &x, &mask);
        let ref_val = ref_tape.value(ref_loss).clone();
        let mut ref_grads = GradStore::zeros_like(&store);
        ref_tape.backward(ref_loss, &mut ref_grads);

        // Same graph three times over one reused workspace.
        let mut ws = TapeWorkspace::new();
        for round in 0..3 {
            let mut tape = Tape::with_workspace(&store, &mut ws);
            let loss = build_graph(&mut tape, &ids, &x, &mask);
            assert_eq!(
                tape.value(loss).data(),
                ref_val.data(),
                "round {round}: forward must be bit-exact"
            );
            let mut grads = GradStore::zeros_like(&store);
            tape.backward(loss, &mut grads);
            for &id in &ids {
                assert_eq!(
                    grads.get(id).data(),
                    ref_grads.get(id).data(),
                    "round {round}: grads must be bit-exact"
                );
            }
        }
    }

    #[test]
    fn warmed_workspace_forward_allocates_nothing() {
        let (store, ids) = store_with(&[
            ("w", Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.17 - 0.9).collect())),
            ("b", Tensor::from_vec(1, 4, vec![0.1, -0.2, 0.0, 0.3])),
        ]);
        let x = Tensor::from_vec(2, 3, vec![1.0, -0.5, 2.0, 0.0, 0.25, -1.5]);
        let mask = Arc::new(Tensor::full(3, 4, 1.0));
        let mut ws = TapeWorkspace::new();
        // Warm up: first build allocates the arena buffers.
        {
            let mut tape = Tape::with_workspace(&store, &mut ws);
            build_graph(&mut tape, &ids, &x, &mask);
        }
        let warmed = ws.num_value_buffers();
        let before = thread_alloc_count();
        for _ in 0..5 {
            let mut tape = Tape::with_workspace(&store, &mut ws);
            build_graph(&mut tape, &ids, &x, &mask);
        }
        assert_eq!(
            thread_alloc_count(),
            before,
            "steady-state forwards on a warmed workspace must not allocate tensors"
        );
        assert_eq!(ws.num_value_buffers(), warmed, "arena must not grow");
    }

    #[test]
    fn workspace_survives_shape_changes() {
        let (store, ids) = store_with(&[("w", Tensor::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]))]);
        let mut ws = TapeWorkspace::new();
        for rows in [1usize, 4, 2, 8, 3] {
            let x = Tensor::full(rows, 2, 0.5);
            let mut tape = Tape::with_workspace(&store, &mut ws);
            let xn = tape.input_ref(&x);
            let w = tape.param(ids[0]);
            let y = tape.matmul(xn, w);
            let loss = tape.mean_all(y);
            // Oracle on a fresh tape.
            let mut fresh = Tape::new(&store);
            let xf = fresh.input_ref(&x);
            let wf = fresh.param(ids[0]);
            let yf = fresh.matmul(xf, wf);
            let lf = fresh.mean_all(yf);
            assert_eq!(tape.value(loss).data(), fresh.value(lf).data());
            let (mut g1, mut g2) = (GradStore::zeros_like(&store), GradStore::zeros_like(&store));
            tape.backward(loss, &mut g1);
            fresh.backward(lf, &mut g2);
            assert_eq!(g1.get(ids[0]).data(), g2.get(ids[0]).data());
        }
    }

    #[test]
    fn input_builders_match_input() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let z = tape.input_zeros(2, 3);
        assert_eq!(tape.value(z), &Tensor::zeros(2, 3));
        let f = tape.input_full(2, 2, 1.5);
        assert_eq!(tape.value(f), &Tensor::full(2, 2, 1.5));
        let w = tape.input_with(1, 3, |t| t.data_mut().copy_from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(tape.value(w).data(), &[1.0, 2.0, 3.0]);
    }
}
