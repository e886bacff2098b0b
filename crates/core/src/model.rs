//! ResMADE — the masked autoregressive MLP used by UAE (paper §4.2,
//! architecture from Nash & Durkan's Autoregressive Energy Machines).
//!
//! Masks enforce the autoregressive property: the logits of virtual column
//! `i` depend only on the *input blocks* of columns `< i` (left-to-right
//! order, which the paper adopts). Hidden units carry a degree
//! `m ∈ [1, n-1]`; connections are allowed from degree `a` to degree `b`
//! when `a <= b` between hidden layers, `deg(input) <= m` into the first
//! layer, and `m < deg(output)` into the output layer. Residual blocks
//! reuse one degree assignment, so identity skips are mask-consistent.

use std::sync::Arc;

use uae_tensor::rng::he_uniform;
use uae_tensor::simd;
use uae_tensor::tensor::{add_bias_assign, matmul_masked_into};
use uae_tensor::{NodeId, ParamId, ParamStore, Tape, Tensor};

use crate::encoding::{EncodingMode, VirtualSchema};

/// Hyper-parameters of the ResMADE network.
#[derive(Debug, Clone)]
pub struct ResMadeConfig {
    /// Hidden width (the paper uses 128).
    pub hidden: usize,
    /// Number of residual blocks (the paper's "2 hidden layers" ≈ 1 block
    /// plus the input layer).
    pub blocks: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for ResMadeConfig {
    fn default() -> Self {
        ResMadeConfig { hidden: 128, blocks: 1, seed: 0x5eed }
    }
}

/// The masked autoregressive network. Parameters live in a [`ParamStore`];
/// the struct itself holds ids, masks and shape metadata only.
#[derive(Debug, Clone)]
pub struct ResMade {
    input_width: usize,
    logit_width: usize,
    hidden: usize,
    w_in: ParamId,
    b_in: ParamId,
    blocks: Vec<BlockParams>,
    w_out: ParamId,
    b_out: ParamId,
    mask_in: Arc<Tensor>,
    mask_hidden: Arc<Tensor>,
    mask_out: Arc<Tensor>,
    /// Per-virtual-column logit slices, copied from the schema.
    logit_slices: Vec<(usize, usize)>,
    /// Per-virtual-column input encoding tables (`E_v` with
    /// `E_v[code] = encoded input block`): constant binary matrices or
    /// learnable embeddings (§4.6).
    enc: Vec<EncTable>,
}

#[derive(Debug, Clone)]
enum EncTable {
    /// Fixed binary encoding matrix.
    Const(Arc<Tensor>),
    /// Learnable embedding parameter.
    Learned(ParamId),
}

#[derive(Debug, Clone)]
struct BlockParams {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

impl ResMade {
    /// Create the network for `schema`, registering parameters in `store`.
    pub fn new(store: &mut ParamStore, schema: &VirtualSchema, cfg: &ResMadeConfig) -> Self {
        let (input_deg, logit_deg) = schema.degrees();
        let input_width = schema.input_width();
        let logit_width = schema.logit_width();
        let n = schema.num_virtual();
        let hidden = cfg.hidden;

        // Hidden degrees cycle over 1..=n-1 (or all 0 for a 1-column table,
        // where the single output must connect to nothing).
        let hidden_deg: Vec<usize> =
            (0..hidden).map(|h| if n > 1 { (h % (n - 1)) + 1 } else { 0 }).collect();

        let mask_in = {
            let mut m = Tensor::zeros(input_width, hidden);
            for (i, &di) in input_deg.iter().enumerate() {
                for (h, &mh) in hidden_deg.iter().enumerate() {
                    if di <= mh {
                        m.set(i, h, 1.0);
                    }
                }
            }
            Arc::new(m)
        };
        let mask_hidden = {
            let mut m = Tensor::zeros(hidden, hidden);
            for (a, &ma) in hidden_deg.iter().enumerate() {
                for (b, &mb) in hidden_deg.iter().enumerate() {
                    if ma <= mb {
                        m.set(a, b, 1.0);
                    }
                }
            }
            Arc::new(m)
        };
        let mask_out = {
            let mut m = Tensor::zeros(hidden, logit_width);
            for (h, &mh) in hidden_deg.iter().enumerate() {
                for (o, &dout) in logit_deg.iter().enumerate() {
                    if mh < dout {
                        m.set(h, o, 1.0);
                    }
                }
            }
            Arc::new(m)
        };

        let mut rng = uae_tensor::rng::seeded_rng(cfg.seed);
        let w_in = store.add("w_in", he_uniform(&mut rng, input_width, hidden));
        let b_in = store.add("b_in", Tensor::zeros(1, hidden));
        let blocks = (0..cfg.blocks)
            .map(|i| BlockParams {
                w1: store.add(format!("blk{i}.w1"), he_uniform(&mut rng, hidden, hidden)),
                b1: store.add(format!("blk{i}.b1"), Tensor::zeros(1, hidden)),
                w2: store.add(format!("blk{i}.w2"), he_uniform(&mut rng, hidden, hidden)),
                b2: store.add(format!("blk{i}.b2"), Tensor::zeros(1, hidden)),
            })
            .collect();
        let w_out = store.add("w_out", he_uniform(&mut rng, hidden, logit_width));
        let b_out = store.add("b_out", Tensor::zeros(1, logit_width));

        let logit_slices = (0..n).map(|v| schema.logit_slice(v)).collect();

        let enc = (0..n)
            .map(|v| match schema.mode() {
                EncodingMode::Binary => EncTable::Const(Arc::new(schema.codec(v).soft_matrix())),
                EncodingMode::Embedding { dim } => {
                    let domain = schema.codec(v).domain();
                    EncTable::Learned(
                        store.add(format!("emb{v}"), he_uniform(&mut rng, domain, dim)),
                    )
                }
            })
            .collect();

        ResMade {
            input_width,
            logit_width,
            hidden,
            w_in,
            b_in,
            blocks,
            w_out,
            b_out,
            mask_in,
            mask_hidden,
            mask_out,
            logit_slices,
            enc,
        }
    }

    /// Build the model-input node for a batch of virtual-code rows:
    /// constant binary encodings, or tape-level embedding lookups whose
    /// gradients train the embedding tables.
    pub fn input_node(
        &self,
        tape: &mut Tape<'_>,
        schema: &VirtualSchema,
        rows: &[Vec<u32>],
        wildcards: Option<&[Vec<bool>]>,
    ) -> NodeId {
        match schema.mode() {
            EncodingMode::Binary => tape.input(schema.encode_batch(rows, wildcards)),
            EncodingMode::Embedding { .. } => {
                let blocks: Vec<NodeId> = (0..schema.num_virtual())
                    .map(|v| {
                        let idx: Arc<Vec<u32>> = Arc::new(
                            rows.iter()
                                .enumerate()
                                .map(|(r, codes)| {
                                    if wildcards.is_some_and(|w| w[r][v]) {
                                        u32::MAX
                                    } else {
                                        codes[v]
                                    }
                                })
                                .collect(),
                        );
                        let table = self.enc_node(tape, v);
                        tape.embed_rows(table, idx)
                    })
                    .collect();
                tape.concat_cols(&blocks)
            }
        }
    }

    /// Embed a *soft* one-hot sample into input space: `y @ E_v`
    /// (differentiable both through `y` and, for learnable encodings,
    /// through `E_v`).
    pub fn soft_block(&self, tape: &mut Tape<'_>, v: usize, y: NodeId) -> NodeId {
        let e = self.enc_node(tape, v);
        tape.matmul(y, e)
    }

    fn enc_node(&self, tape: &mut Tape<'_>, v: usize) -> NodeId {
        match &self.enc[v] {
            EncTable::Const(t) => tape.input((**t).clone()),
            EncTable::Learned(id) => tape.param(*id),
        }
    }

    /// Model input dimension.
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Model output (logit) dimension.
    pub fn logit_width(&self) -> usize {
        self.logit_width
    }

    /// Hidden layer width.
    pub fn hidden_width(&self) -> usize {
        self.hidden
    }

    /// Logit slice of a virtual column.
    pub fn logit_slice(&self, v: usize) -> (usize, usize) {
        self.logit_slices[v]
    }

    /// Hidden representation on a tape (shared by all logit heads).
    pub fn hidden_tape(&self, tape: &mut Tape<'_>, x: NodeId) -> NodeId {
        let w = tape.param(self.w_in);
        let b = tape.param(self.b_in);
        let h = tape.matmul_masked(x, w, Arc::clone(&self.mask_in));
        let h = tape.add_bias(h, b);
        let mut h = tape.relu(h);
        for blk in &self.blocks {
            let w1 = tape.param(blk.w1);
            let b1 = tape.param(blk.b1);
            let w2 = tape.param(blk.w2);
            let b2 = tape.param(blk.b2);
            let t = tape.matmul_masked(h, w1, Arc::clone(&self.mask_hidden));
            let t = tape.add_bias(t, b1);
            let t = tape.relu(t);
            let t = tape.matmul_masked(t, w2, Arc::clone(&self.mask_hidden));
            let t = tape.add_bias(t, b2);
            h = tape.add(h, t);
        }
        tape.relu(h)
    }

    /// Full logits on a tape (used by the data loss).
    pub fn forward_tape(&self, tape: &mut Tape<'_>, x: NodeId) -> NodeId {
        let h = self.hidden_tape(tape, x);
        let w = tape.param(self.w_out);
        let b = tape.param(self.b_out);
        let y = tape.matmul_masked(h, w, Arc::clone(&self.mask_out));
        tape.add_bias(y, b)
    }

    /// Logits of a single virtual column on a tape (used by DPS, which
    /// never needs the full output layer at once).
    pub fn logits_col_tape(&self, tape: &mut Tape<'_>, hidden: NodeId, v: usize) -> NodeId {
        let (s, e) = self.logit_slices[v];
        let w = tape.param(self.w_out);
        let wv = tape.slice_cols(w, s, e);
        let b = tape.param(self.b_out);
        let bv = tape.slice_cols(b, s, e);
        let mask = Arc::new(self.mask_out.slice_cols(s, e));
        let y = tape.matmul_masked(hidden, wv, mask);
        tape.add_bias(y, bv)
    }

    /// Pre-masked weight snapshot for fast tape-free inference
    /// (progressive sampling runs many forwards per query).
    ///
    /// The snapshot stores weights in the **packed** layout, on every
    /// backend: hidden units are permuted by ascending MADE degree, which
    /// turns every masked weight row into a dense panel behind a contiguous
    /// zero prefix (recorded in per-row `starts`) and every output head into
    /// a contiguous *row prefix* of the hidden state (recorded in
    /// `head_rows`). The forward then never multiplies structurally-masked
    /// weights at all. The permutation only reorders the hidden basis
    /// consistently across layers, but it also reorders f32 accumulation,
    /// so logits differ from an unpermuted forward in low bits.
    pub fn snapshot(&self, store: &ParamStore) -> RawModel {
        let n = self.logit_slices.len();
        let hidden_deg: Vec<usize> =
            (0..self.hidden).map(|h| if n > 1 { (h % (n - 1)) + 1 } else { 0 }).collect();
        // Stable sort: uniform degrees keep the identity permutation.
        let mut perm: Vec<usize> = (0..self.hidden).collect();
        perm.sort_by_key(|&h| hidden_deg[h]);

        let masked = |w: ParamId, m: &Tensor| store.get(w).zip(m, |a, b| a * b);
        let square =
            |w: ParamId| permute_cols(&permute_rows(&masked(w, &self.mask_hidden), &perm), &perm);
        let w_in = permute_cols(&masked(self.w_in, &self.mask_in), &perm);
        let b_in = permute_cols(store.get(self.b_in), &perm);
        let blocks: Vec<RawBlock> = self
            .blocks
            .iter()
            .map(|blk| RawBlock {
                w1: square(blk.w1),
                b1: permute_cols(store.get(blk.b1), &perm),
                w2: square(blk.w2),
                b2: permute_cols(store.get(blk.b2), &perm),
            })
            .collect();
        let w_out = permute_rows(&masked(self.w_out, &self.mask_out), &perm);
        let b_out = store.get(self.b_out).clone();

        // Suffix starts come from the masks (not the weights, which can
        // be zero by coincidence): permuted-ascending degrees make each
        // mask row `0…0 1…1`.
        let start_in: Vec<u32> = (0..self.input_width)
            .map(|i| suffix_start(&perm, |h| self.mask_in.at(i, h) != 0.0))
            .collect();
        let start_h: Vec<u32> = perm
            .iter()
            .map(|&a| suffix_start(&perm, |b| self.mask_hidden.at(a, b) != 0.0))
            .collect();
        // Heads see a row *prefix*: hidden degrees strictly below the
        // column's output degree sort first. All logits of one virtual
        // column share a degree, so one count per head suffices.
        let head_rows: Vec<usize> = self
            .logit_slices
            .iter()
            .map(|&(s, e)| {
                let live = perm.iter().filter(|&&h| self.mask_out.at(h, s) != 0.0).count();
                debug_assert!(
                    (s..e).all(|o| {
                        perm[..live].iter().all(|&h| self.mask_out.at(h, o) != 0.0)
                            && perm[live..].iter().all(|&h| self.mask_out.at(h, o) == 0.0)
                    }),
                    "head rows must be a shared prefix"
                );
                live
            })
            .collect();

        // Pre-slice the per-column output heads once per snapshot, so
        // `logits_col_into` never slices in the per-round hot loop.
        let w_out_cols: Vec<Tensor> =
            self.logit_slices.iter().map(|&(s, e)| w_out.slice_cols(s, e)).collect();
        let b_out_cols = self.logit_slices.iter().map(|&(s, e)| b_out.slice_cols(s, e)).collect();

        let mut raw = RawModel {
            zero_row: Tensor::zeros(1, self.input_width),
            w_in,
            b_in,
            blocks,
            w_out,
            b_out,
            w_out_cols,
            b_out_cols,
            enc: self
                .enc
                .iter()
                .map(|e| match e {
                    EncTable::Const(t) => (**t).clone(),
                    EncTable::Learned(id) => store.get(*id).clone(),
                })
                .collect(),
            start_in,
            start_h,
            head_rows,
            first_step: Vec::new(),
        };
        let h = raw.hidden(&raw.zero_row);
        raw.first_step = (0..n)
            .map(|v| {
                let mut logits = raw.logits_col(&h, v);
                logits.softmax_rows_in_place();
                logits.row(0).to_vec()
            })
            .collect();
        raw
    }
}

/// `out[:, j] = t[:, perm[j]]`.
fn permute_cols(t: &Tensor, perm: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(t.rows(), t.cols());
    for r in 0..t.rows() {
        let src = t.row(r);
        for (j, &p) in perm.iter().enumerate() {
            out.set(r, j, src[p]);
        }
    }
    out
}

/// `out[i, :] = t[perm[i], :]`.
fn permute_rows(t: &Tensor, perm: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(t.rows(), t.cols());
    for (i, &p) in perm.iter().enumerate() {
        out.row_mut(i).copy_from_slice(t.row(p));
    }
    out
}

/// First position in permuted order where `live` holds, as a dense-suffix
/// start offset (`len` when the whole row is masked out).
fn suffix_start(perm: &[usize], live: impl Fn(usize) -> bool) -> u32 {
    let first = perm.iter().position(|&h| live(h)).unwrap_or(perm.len());
    debug_assert!(
        perm[first..].iter().all(|&h| live(h)),
        "mask must be a contiguous suffix after degree sort"
    );
    first as u32
}

/// Caller-owned forward buffers for [`RawModel::hidden_into`] /
/// [`RawModel::logits_col_into`]. Holding one per serving thread (the
/// estimator keeps one inside its inference cache) makes steady-state
/// forwards allocation-free: buffers grow to the largest batch seen and are
/// reused across rounds, queries, and batches.
#[derive(Debug, Default)]
pub struct ModelScratch {
    /// Hidden activations of the current batch (`rows x hidden`).
    pub(crate) h: Tensor,
    /// Residual-block temporaries.
    t: Tensor,
    t2: Tensor,
    /// Per-column logits (softmaxed in place by the inference drivers).
    pub(crate) logits: Tensor,
}

impl ModelScratch {
    /// Fresh, empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pre-masked weights for tape-free forwards.
#[derive(Debug, Clone)]
pub struct RawModel {
    /// The all-wildcard (all-zero) model input row, built once per snapshot
    /// so round-0 sampling never re-allocates it.
    zero_row: Tensor,
    w_in: Tensor,
    b_in: Tensor,
    blocks: Vec<RawBlock>,
    w_out: Tensor,
    b_out: Tensor,
    /// Per-virtual-column slices of `w_out`/`b_out`, pre-cut once per
    /// snapshot so the per-round head matmul works on contiguous weights
    /// without slicing.
    w_out_cols: Vec<Tensor>,
    b_out_cols: Vec<Tensor>,
    /// Materialized per-column input encodings (`enc[v].row(code)`).
    enc: Vec<Tensor>,
    /// Packed layout (see [`ResMade::snapshot`]): per input row, the first
    /// live (non-masked) hidden column of `w_in`.
    start_in: Vec<u32>,
    /// Per hidden row: first live hidden column of each block matmul.
    start_h: Vec<u32>,
    /// Per virtual column: number of leading hidden rows its head reads.
    head_rows: Vec<usize>,
    /// First-step distributions, one per virtual column: the first
    /// constrained column of every query sees the all-wildcard (all-zero)
    /// input, so its softmaxed logits are identical across all sample rows
    /// and across queries. Built with the snapshot, so weight changes
    /// refresh them — the estimator drops its snapshot on every training
    /// step and weight load.
    first_step: Vec<Vec<f32>>,
}

#[derive(Debug, Clone)]
struct RawBlock {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

impl RawModel {
    /// Hidden representation of a batch (rows = samples). Allocating
    /// convenience wrapper around [`RawModel::hidden_into`]; serving paths
    /// hold a [`ModelScratch`] instead.
    pub fn hidden(&self, x: &Tensor) -> Tensor {
        let mut s = ModelScratch::new();
        self.hidden_into(x, &mut s);
        s.h
    }

    /// Hidden representation written into `s.h`, reusing every buffer in
    /// `s`. Bit-exact with [`RawModel::hidden`].
    pub fn hidden_into(&self, x: &Tensor, s: &mut ModelScratch) {
        self.hidden_prefix_into(x, self.hidden_width(), s)
    }

    /// The hidden units column `v`'s head reads, written into
    /// `s.h[:, ..self.head_rows(v)]`; the progressive sampler's per-round
    /// forward. Those units, and the logits [`RawModel::logits_col_into`]
    /// computes from them, are bit-identical to a full
    /// [`RawModel::hidden_into`]; units at or past the limit are left stale.
    ///
    /// Exactness rests on the packed layout. Hidden units are sorted by MADE
    /// degree and the head of `v` reads exactly the units below its output
    /// degree, a prefix. Hidden-to-hidden weights only run from degree `a`
    /// to degree `b >= a`, so units below the limit read only units below
    /// it; and every input row of a column `>= v` starts at or past the
    /// limit, so the kernel skips it.
    pub(crate) fn hidden_for_col_into(&self, x: &Tensor, v: usize, s: &mut ModelScratch) {
        self.hidden_prefix_into(x, self.head_rows(v), s)
    }

    /// The one hidden forward, over units `..units` (a degree-closed
    /// prefix: the full width or a head's `head_rows`).
    fn hidden_prefix_into(&self, x: &Tensor, units: usize, s: &mut ModelScratch) {
        let (si, sh) = (Some(&self.start_in[..]), Some(&self.start_h[..]));
        let ModelScratch { h, t, t2, .. } = s;
        matmul_masked_into(x, &self.w_in, si, x.cols(), units, h, false);
        let be = simd::backend();
        let b_in = &self.b_in.row(0)[..units];
        for r in 0..h.rows() {
            simd::add_bias_relu_row_with(be, &mut h.row_mut(r)[..units], b_in);
        }
        for blk in &self.blocks {
            let (b1, b2) = (&blk.b1.row(0)[..units], &blk.b2.row(0)[..units]);
            matmul_masked_into(h, &blk.w1, sh, units, units, t, false);
            for r in 0..t.rows() {
                simd::add_bias_relu_row_with(be, &mut t.row_mut(r)[..units], b1);
            }
            matmul_masked_into(t, &blk.w2, sh, units, units, t2, false);
            for r in 0..h.rows() {
                let t2r = &mut t2.row_mut(r)[..units];
                simd::add_bias_row_with(be, t2r, b2);
                for (hv, &tv) in h.row_mut(r)[..units].iter_mut().zip(t2r.iter()) {
                    *hv += tv;
                }
            }
        }
        for r in 0..h.rows() {
            for hv in &mut h.row_mut(r)[..units] {
                *hv = hv.max(0.0);
            }
        }
    }

    /// Logits of one virtual column given hidden states. Allocating
    /// convenience wrapper around [`RawModel::logits_col_into`].
    pub fn logits_col(&self, hidden: &Tensor, v: usize) -> Tensor {
        let mut y = hidden.matmul(&self.w_out_cols[v]);
        add_bias_assign(&mut y, &self.b_out_cols[v]);
        y
    }

    /// Logits of virtual column `v` for the hidden states in `s.h`,
    /// written into `s.logits`. Uses the pre-sliced per-column head and
    /// only the prefix of hidden rows the head's MADE degree can legally
    /// read, so no slicing, no allocation, and no structurally-zero
    /// multiplies happen per call.
    pub fn logits_col_into(&self, v: usize, s: &mut ModelScratch) {
        let k_limit = self.head_rows(v);
        let ModelScratch { h, logits, .. } = s;
        let w = &self.w_out_cols[v];
        matmul_masked_into(h, w, None, k_limit, w.cols(), logits, false);
        add_bias_assign(logits, &self.b_out_cols[v]);
    }

    /// Model input dimension.
    pub fn input_width(&self) -> usize {
        self.w_in.rows()
    }

    /// Hidden layer width.
    pub(crate) fn hidden_width(&self) -> usize {
        self.b_in.cols()
    }

    /// Number of leading hidden units column `v`'s logit head reads: the
    /// packed layout's degree prefix.
    pub(crate) fn head_rows(&self, v: usize) -> usize {
        self.head_rows[v]
    }

    /// The cached all-wildcard (all-zero) input row.
    pub fn zero_row(&self) -> &Tensor {
        &self.zero_row
    }

    /// Write the encoded input block of `code` on column `v` into `out`
    /// (a slice of a model-input row).
    pub fn encode_into(&self, v: usize, code: u32, out: &mut [f32]) {
        out.copy_from_slice(self.enc[v].row(code as usize));
    }

    /// Softmaxed distribution of virtual column `v` under the all-wildcard
    /// input — the distribution every query sees at its *first* constrained
    /// column, where nothing has been sampled yet and the model input is
    /// all zeros. The result is row-constant across any sample batch, so
    /// [`ResMade::snapshot`] computes it once per column.
    pub fn first_step_probs(&self, v: usize) -> &[f32] {
        &self.first_step[v]
    }

    /// Full logits (all columns).
    pub fn logits(&self, x: &Tensor) -> Tensor {
        let h = self.hidden(x);
        let mut y = h.matmul(&self.w_out);
        add_bias_assign(&mut y, &self.b_out);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{Table, Value};

    fn schema(domains: &[usize]) -> (Table, VirtualSchema) {
        let rows = 16;
        let cols = domains
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let vals: Vec<Value> =
                    (0..rows).map(|r| Value::Int(((r + j) % d) as i64)).collect();
                (format!("c{j}"), vals)
            })
            .collect();
        let t = Table::from_columns("t", cols);
        let s = VirtualSchema::build(&t, usize::MAX);
        (t, s)
    }

    /// The defining MADE property: logits of column `i` must not change when
    /// inputs of columns `>= i` change.
    #[test]
    fn autoregressive_property_holds() {
        let (_, s) = schema(&[4, 5, 3]);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 32, blocks: 2, seed: 1 });
        let raw = model.snapshot(&store);

        let base_rows = vec![vec![1u32, 2, 0]];
        let x0 = s.encode_batch(&base_rows, None);
        let y0 = raw.logits(&x0);

        // Perturb column 1 and 2 inputs; column 0's and column 1's logits
        // must be unaffected by changes at or after their own position.
        let pert_rows = vec![vec![1u32, 4, 2]];
        let x1 = s.encode_batch(&pert_rows, None);
        let y1 = raw.logits(&x1);

        let (s0, e0) = s.logit_slice(0);
        for c in s0..e0 {
            assert!((y0.at(0, c) - y1.at(0, c)).abs() < 1e-6, "col 0 logits leaked");
        }
        let (s1, e1) = s.logit_slice(1);
        for c in s1..e1 {
            assert!((y0.at(0, c) - y1.at(0, c)).abs() < 1e-6, "col 1 logits must ignore col >= 1");
        }
        // Column 2's logits SHOULD change when column 1 changes.
        let (s2, e2) = s.logit_slice(2);
        let changed = (s2..e2).any(|c| (y0.at(0, c) - y1.at(0, c)).abs() > 1e-6);
        assert!(changed, "col 2 logits must depend on col 1");
    }

    #[test]
    fn first_column_depends_on_nothing() {
        let (_, s) = schema(&[7, 3]);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 16, blocks: 1, seed: 2 });
        let raw = model.snapshot(&store);
        let a = raw.logits(&s.encode_batch(&[vec![0, 0]], None));
        let b = raw.logits(&s.encode_batch(&[vec![6, 2]], None));
        let (s0, e0) = s.logit_slice(0);
        for c in s0..e0 {
            assert!((a.at(0, c) - b.at(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn tape_and_raw_forwards_agree() {
        let (_, s) = schema(&[4, 6, 3, 5]);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 24, blocks: 2, seed: 3 });
        let raw = model.snapshot(&store);
        let x = s.encode_batch(&[vec![1, 5, 2, 0], vec![3, 0, 1, 4]], None);

        let mut tape = Tape::new(&store);
        let xn = tape.input(x.clone());
        let yn = model.forward_tape(&mut tape, xn);
        let y_tape = tape.value(yn).clone();
        let y_raw = raw.logits(&x);
        assert!(y_tape.max_abs_diff(&y_raw) < 1e-5);

        // Per-column head matches the slice of the full forward.
        let mut tape2 = Tape::new(&store);
        let xn2 = tape2.input(x.clone());
        let h = model.hidden_tape(&mut tape2, xn2);
        let l2 = model.logits_col_tape(&mut tape2, h, 2);
        let (s2, e2) = s.logit_slice(2);
        assert!(tape2.value(l2).max_abs_diff(&y_raw.slice_cols(s2, e2)) < 1e-5);

        let h_raw = raw.hidden(&x);
        assert!(raw.logits_col(&h_raw, 2).max_abs_diff(&y_raw.slice_cols(s2, e2)) < 1e-5);
    }

    #[test]
    fn wildcard_input_changes_later_logits_only() {
        let (_, s) = schema(&[4, 5, 3]);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 32, blocks: 1, seed: 4 });
        let raw = model.snapshot(&store);
        let full = s.encode_batch(&[vec![1, 2, 0]], None);
        let wild = s.encode_batch(&[vec![1, 2, 0]], Some(&[vec![false, true, false]]));
        let yf = raw.logits(&full);
        let yw = raw.logits(&wild);
        // Columns 0 and 1 unchanged (they don't see col 1's input).
        let (s0, e1) = (s.logit_slice(0).0, s.logit_slice(1).1);
        for c in s0..e1 {
            assert!((yf.at(0, c) - yw.at(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn embedding_mode_keeps_autoregressive_property() {
        use crate::encoding::EncodingMode;
        let rows = 16;
        let cols = [4usize, 5, 3]
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let vals: Vec<Value> =
                    (0..rows).map(|r| Value::Int(((r + j) % d) as i64)).collect();
                (format!("c{j}"), vals)
            })
            .collect();
        let t = Table::from_columns("t", cols);
        let s = VirtualSchema::build_with_mode(&t, usize::MAX, EncodingMode::Embedding { dim: 6 });
        assert_eq!(s.input_width(), 3 * 6);
        let mut store = ParamStore::new();
        let model =
            ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 24, blocks: 1, seed: 13 });

        // Tape-level embedding inputs: logits of column v ignore inputs >= v.
        let mut tape = Tape::new(&store);
        let x0 = model.input_node(&mut tape, &s, &[vec![1, 2, 0]], None);
        let y0 = model.forward_tape(&mut tape, x0);
        let y0 = tape.value(y0).clone();
        let mut tape2 = Tape::new(&store);
        let x1 = model.input_node(&mut tape2, &s, &[vec![1, 4, 2]], None);
        let y1 = model.forward_tape(&mut tape2, x1);
        let y1 = tape2.value(y1).clone();
        let (s0, e1) = (s.logit_slice(0).0, s.logit_slice(1).1);
        for c in s0..e1 {
            assert!(
                (y0.at(0, c) - y1.at(0, c)).abs() < 1e-6,
                "embedding inputs leaked future columns"
            );
        }

        // The raw snapshot agrees with the tape forward.
        let raw = model.snapshot(&store);
        let mut xraw = Tensor::zeros(1, s.input_width());
        for v in 0..3 {
            let (bs, be) = s.input_slice(v);
            raw.encode_into(v, [1u32, 2, 0][v], &mut xraw.row_mut(0)[bs..be]);
        }
        assert!(raw.logits(&xraw).max_abs_diff(&y0) < 1e-5);
    }

    /// The sampler's per-round forward computes only the hidden units
    /// column `v`'s head reads; with the head on top it must reproduce the
    /// full forward's logits bit for bit. Every scratch buffer starts as
    /// NaN and the units past the limit are re-poisoned before the head
    /// runs, so any read beyond the prefix shows up as a NaN logit.
    #[test]
    fn head_prefix_forward_matches_full_forward() {
        use crate::encoding::EncodingMode;
        let cases: [(&[usize], EncodingMode, usize, usize); 6] = [
            (&[4, 5, 3, 6], EncodingMode::Binary, 16, 1),
            (&[4, 5, 3, 6], EncodingMode::Binary, 22, 2),
            (&[7, 2, 9, 3, 5], EncodingMode::Binary, 13, 2),
            (&[4, 5, 3, 6], EncodingMode::Embedding { dim: 5 }, 22, 1),
            (&[6, 3, 8], EncodingMode::Embedding { dim: 4 }, 17, 2),
            (&[9], EncodingMode::Binary, 8, 2),
        ];
        for (ci, &(domains, mode, hidden, blocks)) in cases.iter().enumerate() {
            let rows = 16;
            let cols = domains
                .iter()
                .enumerate()
                .map(|(j, &d)| {
                    let vals: Vec<Value> =
                        (0..rows).map(|r| Value::Int(((r * 3 + j) % d) as i64)).collect();
                    (format!("c{j}"), vals)
                })
                .collect();
            let t = Table::from_columns("t", cols);
            let s = VirtualSchema::build_with_mode(&t, usize::MAX, mode);
            let n = s.num_virtual();
            let mut store = ParamStore::new();
            let cfg = ResMadeConfig { hidden, blocks, seed: 20 + ci as u64 };
            let model = ResMade::new(&mut store, &s, &cfg);
            // Non-zero biases, so every epilogue does real work.
            let ids: Vec<ParamId> = store.ids().collect();
            for id in ids {
                let b = store.get_mut(id);
                if b.rows() == 1 {
                    for (j, x) in b.row_mut(0).iter_mut().enumerate() {
                        *x = ((j * 7 + ci) % 11) as f32 * 0.05 - 0.25;
                    }
                }
            }
            let raw = model.snapshot(&store);
            assert_eq!(raw.hidden_width(), hidden);
            // Every head but the last column's reads a strict prefix.
            assert!((0..n - 1).all(|v| raw.head_rows(v) < hidden), "case {ci}: no prefix");

            // Sampler-shaped inputs: column prefixes encoded, the rest
            // wildcard zeros, plus one fully encoded row.
            let mut x = Tensor::zeros(n + 1, s.input_width());
            for r in 0..=n {
                for v in 0..r.min(n) {
                    let (bs, be) = s.input_slice(v);
                    let code = ((r + 2 * v) % s.codec(v).domain()) as u32;
                    raw.encode_into(v, code, &mut x.row_mut(r)[bs..be]);
                }
            }

            let poisoned = || Tensor::from_vec(n + 1, hidden, vec![f32::NAN; (n + 1) * hidden]);
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut full = ModelScratch::new();
            raw.hidden_into(&x, &mut full);
            for v in 0..n {
                raw.logits_col_into(v, &mut full);
                let limit = raw.head_rows(v);
                assert!(limit <= hidden);

                let mut pre = ModelScratch::new();
                (pre.h, pre.t, pre.t2) = (poisoned(), poisoned(), poisoned());
                raw.hidden_for_col_into(&x, v, &mut pre);
                for r in 0..=n {
                    assert_eq!(
                        &pre.h.row(r)[..limit],
                        &full.h.row(r)[..limit],
                        "case {ci} col {v} row {r}: prefix units differ"
                    );
                    pre.h.row_mut(r)[limit..].fill(f32::NAN);
                }
                raw.logits_col_into(v, &mut pre);
                assert_eq!(bits(&pre.logits), bits(&full.logits), "case {ci} col {v}: logits");
            }
        }
    }

    #[test]
    fn single_column_table_is_marginal_only() {
        let (_, s) = schema(&[9]);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &s, &ResMadeConfig { hidden: 8, blocks: 1, seed: 5 });
        let raw = model.snapshot(&store);
        let a = raw.logits(&s.encode_batch(&[vec![0]], None));
        let b = raw.logits(&s.encode_batch(&[vec![8]], None));
        assert!(a.max_abs_diff(&b) < 1e-6, "single column logits must be constant");
    }
}
