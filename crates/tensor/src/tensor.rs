//! Dense, row-major, two-dimensional `f32` tensors.
//!
//! Everything in the UAE model operates on batches of encoded rows, so a
//! two-dimensional tensor (`rows x cols`) is the only shape the engine needs.
//! Vectors are represented as `1 x c` or `r x 1` tensors, scalars as `1 x 1`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pool;
use crate::simd;

/// Number of tensor-buffer heap allocations performed since process start
/// (fresh buffers and capacity growth; buffer reuse via [`Tensor::resize`]
/// within capacity does not count). Used by the zero-allocation regression
/// tests: after warm-up, steady-state inference must not move this counter.
static TENSOR_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the tensor-layer allocation counter.
pub fn tensor_alloc_count() -> u64 {
    TENSOR_ALLOCS.load(Ordering::Relaxed)
}

#[inline]
fn note_alloc(elems: usize) {
    if elems > 0 {
        TENSOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

#[cfg(test)]
thread_local! {
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The calling thread's share of [`tensor_alloc_count`]. Unit tests in this
/// crate run concurrently in one process, so their allocation checks must
/// not see each other's tensors.
#[cfg(test)]
pub(crate) fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(|n| n.get())
}

/// A dense row-major matrix of `f32` values.
#[derive(PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        note_alloc(self.data.len());
        Tensor { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }
}

/// The empty `0 x 0` tensor — no heap allocation. Lets buffers be
/// `std::mem::take`n out of pools and scratch structs.
impl Default for Tensor {
    fn default() -> Self {
        Tensor { rows: 0, cols: 0, data: Vec::new() }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        note_alloc(rows * cols);
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        note_alloc(rows * cols);
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        note_alloc(data.len());
        Tensor { rows, cols, data }
    }

    /// Reshape in place, reusing the existing buffer. Grows the buffer only
    /// when the new element count exceeds its capacity; existing element
    /// contents are **unspecified** afterwards — callers must overwrite
    /// every element (or call [`Tensor::fill_zero`]).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if n > self.data.capacity() {
            note_alloc(n);
        }
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Become a shape-matched copy of `src`, reusing the existing buffer
    /// when capacity allows.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// A `1 x 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// A `r x 1` column vector.
    pub fn col_vec(values: &[f32]) -> Self {
        Tensor::from_vec(values.len(), 1, values.to_vec())
    }

    /// A `1 x c` row vector.
    pub fn row_vec(values: &[f32]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value of a `1 x 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 x 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on non-scalar tensor");
        self.data[0]
    }

    /// Matrix product `self @ other`.
    ///
    /// Uses an `i-k-j` loop order so the innermost loop streams contiguous
    /// memory from both the output row and `other`'s row, which the compiler
    /// auto-vectorizes well.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_into(self, other, &mut out, false);
        out
    }

    /// `self^T @ other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul shape mismatch: ({}x{})^T @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let flops = 2 * self.rows * self.cols * other.cols;
        if flops >= PAR_FLOP_THRESHOLD && self.rows >= 2 {
            // Parallel over row chunks. Each shard writes its partial into a
            // disjoint slice of one flat buffer (no per-shard Tensor
            // ownership or clones), reduced in chunk order at the end so the
            // summation order matches the serial path chunk-for-chunk.
            let threads = pool::pool_threads();
            let chunk = self.rows.div_ceil(threads);
            let n_chunks = self.rows.div_ceil(chunk);
            let out_len = self.cols * other.cols;
            let mut partials = vec![0.0f32; n_chunks * out_len];
            let base = pool::SendPtr(partials.as_mut_ptr());
            pool::parallel_for(n_chunks, |ci| {
                // Rebind deliberately: capture the whole `SendPtr`, not `base.0`.
                #[allow(clippy::redundant_locals)]
                let base = base;
                let start = ci * chunk;
                let end = (start + chunk).min(self.rows);
                // SAFETY: each pool index writes exactly one disjoint
                // `out_len` slice, and `partials` outlives the blocking
                // `parallel_for` call.
                let slice =
                    unsafe { std::slice::from_raw_parts_mut(base.0.add(ci * out_len), out_len) };
                self.t_matmul_range_into(other, start, end, slice);
            });
            let mut out = Tensor::zeros(self.cols, other.cols);
            for p in partials.chunks(out_len) {
                for (o, &v) in out.data.iter_mut().zip(p) {
                    *o += v;
                }
            }
            return out;
        }
        self.t_matmul_range(other, 0, self.rows)
    }

    fn t_matmul_range(&self, other: &Tensor, start: usize, end: usize) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.t_matmul_range_into(other, start, end, &mut out.data);
        out
    }

    /// `out[i][j] += sum_{r in start..end} self[r][i] * other[r][j]`, with
    /// `out` a zeroed `cols x other.cols` row-major slice. The slice form
    /// lets pool shards target disjoint regions of one caller-owned buffer.
    fn t_matmul_range_into(&self, other: &Tensor, start: usize, end: usize, out: &mut [f32]) {
        let ocols = other.cols;
        for r in start..end {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let o = &mut out[i * ocols..(i + 1) * ocols];
                for (oj, &b) in o.iter_mut().zip(b_row) {
                    *oj += a * b;
                }
            }
        }
    }

    /// `self @ other^T` without materializing the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t shape mismatch: {}x{} @ ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.rows);
        let flops = 2 * self.rows * self.cols * other.rows;
        if flops >= PAR_FLOP_THRESHOLD && self.rows >= 2 {
            let threads = pool::pool_threads();
            let chunk = self.rows.div_ceil(threads);
            let a = self;
            let ocols = other.rows;
            let n_chunks = self.rows.div_ceil(chunk);
            let base = pool::SendPtr(out.data.as_mut_ptr());
            pool::parallel_for(n_chunks, |ci| {
                // Rebind deliberately: without it the 2021-edition closure
                // captures the raw `base.0` field (not `Send`) instead of
                // the whole `SendPtr`.
                #[allow(clippy::redundant_locals)]
                // Rebind deliberately: capture the whole `SendPtr`, not `base.0`.
                #[allow(clippy::redundant_locals)]
                let base = base;
                let row_start = ci * chunk;
                let row_end = (row_start + chunk).min(a.rows);
                // SAFETY: chunks are disjoint row ranges of `out`, each
                // written by exactly one pool index, and `out` outlives the
                // blocking `parallel_for` call.
                let orows = unsafe {
                    std::slice::from_raw_parts_mut(
                        base.0.add(row_start * ocols),
                        (row_end - row_start) * ocols,
                    )
                };
                for (local_r, orow) in orows.chunks_mut(ocols).enumerate() {
                    a.matmul_t_row(other, row_start + local_r, orow);
                }
            });
            return out;
        }
        let ocols = other.rows;
        for r in 0..self.rows {
            let orow = &mut out.data[r * ocols..(r + 1) * ocols];
            self.matmul_t_row(other, r, orow);
        }
        out
    }

    fn matmul_t_row(&self, other: &Tensor, r: usize, orow: &mut [f32]) {
        let a_row = self.row(r);
        for (c, oc) in orow.iter_mut().enumerate() {
            let b_row = other.row(c);
            let mut acc = 0.0f32;
            for (a, b) in a_row.iter().zip(b_row) {
                acc += a * b;
            }
            *oc = acc;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.at(r, c));
            }
        }
        out
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        note_alloc(self.data.len());
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Elementwise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip into a new tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        note_alloc(self.data.len());
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Copy of columns `start..end`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let w = end - start;
        let mut out = Tensor::zeros(self.rows, w);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Horizontal concatenation of tensors sharing a row count.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                orow[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// Row-wise numerically stable softmax, in place (no allocation).
    pub fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            softmax_in_place(self.row_mut(r));
        }
    }

    /// Copy of rows `start..end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        note_alloc((end - start) * self.cols);
        Tensor {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// New tensor whose row `i` is `self.row(idx[i])`. Used by the batched
    /// inference engine to broadcast deduplicated forward results back to
    /// their sample rows and to compact away dead samples.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(idx.len(), self.cols);
        for (o, &src) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(src));
        }
        out
    }

    /// Row-wise numerically stable log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            log_softmax_in_place(out.row_mut(r));
        }
        out
    }

    /// Sum across columns, producing an `r x 1` tensor.
    pub fn row_sums(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.row(r).iter().sum();
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element in each row.
    pub fn row_argmax(&self) -> Vec<usize> {
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

    /// Largest absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

/// FLOP count above which matmuls split across pool workers. Dispatching a
/// job onto the persistent pool costs a queue push plus a condvar wake
/// (single-digit microseconds) instead of the tens of microseconds the old
/// per-call `std::thread::scope` spawns paid, so the break-even point sits
/// much lower than the seed's 4M-FLOP threshold.
const PAR_FLOP_THRESHOLD: usize = 500_000;

/// `out (+)= a @ b`.
///
/// `accumulate` contract: when **false**, `out` is resized to
/// `a.rows x b.cols` (reusing its buffer), zeroed, and overwritten with the
/// product. When **true**, `out` must *already* be exactly
/// `a.rows x b.cols` with every element initialized — the product is added
/// on top, and nothing else about `out` changes. Callers may not rely on
/// accumulation into a stale-shaped or uninitialized buffer.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor, accumulate: bool) {
    matmul_masked_into(a, b, None, a.cols, out, accumulate)
}

/// `out (+)= a[:, ..k_limit] @ b[..k_limit, :]`, with `b` additionally
/// treated as zero left of `starts[k]` on row `k` when `starts` is given.
///
/// This is the mask-aware product behind the packed ResMADE forward:
/// `uae-core` permutes hidden units by MADE degree at snapshot time so each
/// masked weight row is zero on a contiguous column *prefix* (encoded in
/// `starts`) and each output head touches only a contiguous row prefix of
/// the hidden state (encoded by slicing `a`'s columns via `k_limit`). The
/// inner loops then run dense over the live panel instead of testing a
/// per-element zero-skip. Same `accumulate` contract as [`matmul_into`].
pub fn matmul_masked_into(
    a: &Tensor,
    b: &Tensor,
    starts: Option<&[u32]>,
    k_limit: usize,
    out: &mut Tensor,
    accumulate: bool,
) {
    assert_eq!(a.cols, b.rows);
    assert!(k_limit <= a.cols);
    if let Some(st) = starts {
        assert!(st.len() >= k_limit);
    }
    if accumulate {
        assert_eq!(out.rows, a.rows);
        assert_eq!(out.cols, b.cols);
    } else {
        out.resize(a.rows, b.cols);
        out.fill_zero();
    }
    let flops = 2 * a.rows * k_limit * b.cols;
    if flops >= PAR_FLOP_THRESHOLD && a.rows >= 2 {
        let threads = pool::pool_threads();
        let chunk = a.rows.div_ceil(threads);
        let bcols = b.cols;
        let n_chunks = a.rows.div_ceil(chunk);
        let base = pool::SendPtr(out.data.as_mut_ptr());
        pool::parallel_for(n_chunks, |ci| {
            // Rebind deliberately: capture the whole `SendPtr`, not `base.0`.
            #[allow(clippy::redundant_locals)]
            let base = base;
            let row_start = ci * chunk;
            let row_end = (row_start + chunk).min(a.rows);
            // SAFETY: chunks are disjoint row ranges of `out`, each written
            // by exactly one pool index, and `out` outlives the blocking
            // `parallel_for` call.
            let orows = unsafe {
                std::slice::from_raw_parts_mut(
                    base.0.add(row_start * bcols),
                    (row_end - row_start) * bcols,
                )
            };
            matmul_rows(a, b, starts, k_limit, row_start, orows);
        });
        return;
    }
    let orows = &mut out.data[..];
    matmul_rows(a, b, starts, k_limit, 0, orows);
}

fn matmul_rows(
    a: &Tensor,
    b: &Tensor,
    starts: Option<&[u32]>,
    k_limit: usize,
    row_start: usize,
    out_rows: &mut [f32],
) {
    let be = simd::backend();
    let bcols = b.cols;
    for (local_i, out_row) in out_rows.chunks_mut(bcols).enumerate() {
        let a_row = &a.row(row_start + local_i)[..k_limit];
        simd::matmul_row_with(be, a_row, &b.data, bcols, starts, out_row);
    }
}

/// `out = x + bias`, with `bias` shaped `1 x c` broadcast over rows.
pub fn add_bias_into(x: &Tensor, bias: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(bias.rows(), 1);
    debug_assert_eq!(bias.cols(), x.cols());
    out.resize(x.rows, x.cols);
    let be = simd::backend();
    let b = bias.row(0);
    for r in 0..x.rows {
        simd::add_bias_into_row_with(be, x.row(r), b, out.row_mut(r));
    }
}

/// In-place `t += bias`, with `bias` shaped `1 x c` broadcast over rows.
pub fn add_bias_assign(t: &mut Tensor, bias: &Tensor) {
    debug_assert_eq!(bias.rows(), 1);
    debug_assert_eq!(bias.cols(), t.cols());
    let be = simd::backend();
    for r in 0..t.rows {
        simd::add_bias_row_with(be, t.row_mut(r), bias.row(0));
    }
}

/// In-place fused `t = relu(t + bias)` — the hidden-layer epilogue.
pub fn add_bias_relu_assign(t: &mut Tensor, bias: &Tensor) {
    debug_assert_eq!(bias.rows(), 1);
    debug_assert_eq!(bias.cols(), t.cols());
    let be = simd::backend();
    for r in 0..t.rows {
        simd::add_bias_relu_row_with(be, t.row_mut(r), bias.row(0));
    }
}

/// `out = relu(x)`.
pub fn relu_into(x: &Tensor, out: &mut Tensor) {
    map_into(x, out, |v| v.max(0.0));
}

/// `out = softmax_rows(x)`: a single fused max/exp/normalize pass per row,
/// computed directly into `out` (no `copy_from` + in-place second pass).
/// Bit-identical to [`Tensor::softmax_rows`] on every backend — both
/// dispatch to the same per-row kernel.
pub fn softmax_rows_into(x: &Tensor, out: &mut Tensor) {
    out.resize(x.rows, x.cols);
    let be = simd::backend();
    for r in 0..x.rows {
        simd::softmax_into_with(be, x.row(r), out.row_mut(r));
    }
}

/// `out = f(x)` elementwise, reusing `out`'s buffer. Unrolled 4-wide so the
/// closure call chain exposes independent element work to the scheduler;
/// per-element arithmetic is unchanged.
pub fn map_into(x: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    out.resize(x.rows, x.cols);
    let mut oc = out.data.chunks_exact_mut(4);
    let mut xc = x.data.chunks_exact(4);
    for (os, xs) in (&mut oc).zip(&mut xc) {
        os[0] = f(xs[0]);
        os[1] = f(xs[1]);
        os[2] = f(xs[2]);
        os[3] = f(xs[3]);
    }
    for (o, &v) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o = f(v);
    }
}

/// `out = f(a, b)` elementwise, reusing `out`'s buffer. Unrolled like
/// [`map_into`].
///
/// # Panics
/// Panics on shape mismatch.
pub fn zip_into(a: &Tensor, b: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "zip_into shape mismatch");
    out.resize(a.rows, a.cols);
    let mut oc = out.data.chunks_exact_mut(4);
    let mut ac = a.data.chunks_exact(4);
    let mut bc = b.data.chunks_exact(4);
    for ((os, xs), ys) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        os[0] = f(xs[0], ys[0]);
        os[1] = f(xs[1], ys[1]);
        os[2] = f(xs[2], ys[2]);
        os[3] = f(xs[3], ys[3]);
    }
    for ((o, &x), &y) in oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o = f(x, y);
    }
}

/// Numerically stable in-place softmax of a single slice. A fully `-inf`
/// row becomes uniform (callers treat it as an impossible region).
pub fn softmax_in_place(xs: &mut [f32]) {
    simd::softmax_slice(xs);
}

/// Numerically stable in-place log-softmax of a single slice.
pub fn log_softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter() {
        sum += (*x - max).exp();
    }
    let log_z = max + sum.ln();
    for x in xs.iter_mut() {
        *x -= log_z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut eye = Tensor::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1.0);
        }
        let a = Tensor::from_vec(3, 3, (0..9).map(|x| x as f32).collect());
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|x| x as f32 * 0.5).collect());
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.25 - 1.0).collect());
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
            assert!(s.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_handles_large_negative_mask() {
        let t = Tensor::from_vec(1, 3, vec![0.0, f32::NEG_INFINITY, 0.0]);
        let s = t.softmax_rows();
        assert!((s.at(0, 0) - 0.5).abs() < 1e-6);
        assert_eq!(s.at(0, 1), 0.0);
    }

    #[test]
    fn softmax_fully_masked_row_is_uniform() {
        let t = Tensor::full(1, 4, f32::NEG_INFINITY);
        let s = t.softmax_rows();
        for c in 0..4 {
            assert!((s.at(0, c) - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::from_vec(1, 4, vec![0.3, -1.2, 2.0, 0.0]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows();
        for c in 0..4 {
            assert!((ls.at(0, c) - s.at(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let t = Tensor::from_vec(2, 5, (0..10).map(|x| x as f32).collect());
        let a = t.slice_cols(0, 2);
        let b = t.slice_cols(2, 5);
        let back = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(back, t);
    }

    #[test]
    fn row_argmax_picks_first_max() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 5.0, 5.0, -1.0, -2.0, -0.5]);
        assert_eq!(t.row_argmax(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let x = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.3 - 1.5).collect());
        let bias = Tensor::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.0]);
        let mut out = Tensor::default();

        add_bias_into(&x, &bias, &mut out);
        let mut expect = x.clone();
        add_bias_assign(&mut expect, &bias);
        assert_eq!(out, expect);

        relu_into(&x, &mut out);
        assert_eq!(out, x.map(|v| v.max(0.0)));

        softmax_rows_into(&x, &mut out);
        assert_eq!(out, x.softmax_rows());

        zip_into(&x, &expect, &mut out, |a, b| a * b - 0.5);
        assert_eq!(out, x.zip(&expect, |a, b| a * b - 0.5));
    }

    #[test]
    fn resize_within_capacity_does_not_allocate() {
        let mut t = Tensor::zeros(8, 8);
        let before = thread_alloc_count();
        t.resize(4, 4); // shrink: reuse
        t.resize(8, 8); // regrow within capacity: reuse
        t.resize(2, 16); // reshape, same element count: reuse
        assert_eq!(thread_alloc_count(), before, "capacity reuse must not allocate");
        t.resize(16, 16); // genuine growth
        assert_eq!(thread_alloc_count(), before + 1);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let mut dst = Tensor::zeros(4, 4);
        let before = thread_alloc_count();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(thread_alloc_count(), before, "copy_from within capacity must reuse");
    }
}
