//! Cross-query batched progressive sampling — the serving fast path.
//!
//! [`progressive_sample`](crate::infer::progressive_sample) walks one query
//! at a time: every constrained column costs a full `S`-row forward pass,
//! even though (a) the first constrained column's input is the all-wildcard
//! zero row — identical for every sample of every query — and (b) after
//! sampling column `v`, many of the `S` rows share the same sampled code
//! and therefore the same model input.
//!
//! [`progressive_sample_batch`] removes both redundancies while producing
//! **bit-identical estimates** to the sequential walk under matched
//! per-query RNG seeds:
//!
//! * **Column rounds.** All queries advance in lock-step over virtual
//!   columns. At round `v`, every not-yet-finished query whose step `v` is
//!   constrained participates; queries with a wildcard at `v` skip the
//!   round entirely (per-query wildcard skipping, §4.6). Participants share
//!   one stacked `hidden()` forward and one `logits_col(v)` projection, so
//!   the `w_out` column slice and the weight traversals are paid once per
//!   round instead of once per query.
//! * **First-step memoization.** A query that has not sampled anything yet
//!   feeds the all-zero input, whose softmaxed logits are row-constant.
//!   Those queries read [`RawModel::first_step_probs`] — computed once per
//!   weight snapshot — and contribute **zero** rows to the stacked forward.
//! * **Prefix deduplication + dead-sample compaction.** Per query, sample
//!   rows are represented by an interned *prefix id* (the tuple of codes
//!   sampled so far). The forward at round `v` runs over distinct live
//!   prefixes only; rows sharing a prefix share one computed distribution.
//!   The prefix table is rebuilt from the pairs drawn each round, so
//!   prefixes referenced only by dead rows vanish. Correctness rests on the
//!   model's forward being row-independent: `hidden()` and `logits_col()`
//!   compute each output row from its input row alone, so deduplicating
//!   identical rows cannot change any value.
//!
//! * **Query sharding.** Queries never interact: each has its own RNG and
//!   the forward is row-independent. A batch of `n` queries is therefore
//!   split into `k` interleaved shards (query `i` → shard `i mod k`), each
//!   walked in lock-step on its own scratch and run across the
//!   `uae_tensor::pool` workers, so the per-query region-mass/sample/dedup
//!   loop, the stacking and the softmax stop running on one core. The
//!   shard count is `min(2 × pool_threads(), n / MIN_SHARD_QUERIES)`; at
//!   `k ≤ 1` (a pool of width 1, or fewer than `2 × MIN_SHARD_QUERIES`
//!   queries) the batch is one walk, as before sharding existed.
//!
//! Equivalence with the sequential walk holds because each query draws from
//! its own seeded RNG, and within a query the draw order is identical:
//! ascending constrained column, then ascending row index over live rows.
//! The same argument makes every shard count give the same bits: a query's
//! estimate depends only on (snapshot, query, `s`, seed), never on which
//! other queries share its walk.
//!
//! All tensor traffic — the stacked forward, the per-round probability
//! matrix, and every query's prefix table — lives in a caller-owned
//! [`BatchScratch`] (one walk scratch per shard), so a warmed scratch
//! serves batches with zero tensor allocations.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_tensor::Tensor;

use crate::encoding::VirtualSchema;
use crate::infer::sample_in_region;
use crate::model::{ModelScratch, RawModel};
use crate::vquery::{StepRegion, VirtualQuery};

/// Queries per shard below which a batch is not split further: a shard
/// needs enough queries that its stacked forwards still amortize the
/// weight traversals, and the handoff to a pool worker (a few µs) stays
/// small next to a shard's walk.
pub const MIN_SHARD_QUERIES: usize = 8;

/// Caller-owned buffers for [`progressive_sample_batch_with`]: one walk
/// scratch for unsharded batches plus one per query shard, all surviving
/// across batches. Buffers grow to the largest batch seen and are reused.
#[derive(Debug, Default)]
pub struct BatchScratch {
    walk: WalkScratch,
    /// One persistent scratch per shard, grown to the largest shard count
    /// used. The locks are never contended: each shard index is claimed by
    /// exactly one pool thread per batch.
    shards: Vec<Mutex<WalkScratch>>,
}

impl BatchScratch {
    /// Fresh, empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Numeric mode of the model forward pass driven through this scratch
    /// and its shard scratches. Must match the mode the [`RawModel`]
    /// snapshot was built with.
    pub fn set_quant_mode(&mut self, mode: uae_tensor::QuantMode) {
        self.walk.model.set_quant_mode(mode);
        for shard in &mut self.shards {
            shard.get_mut().model.set_quant_mode(mode);
        }
    }
}

/// Buffers of one lock-step walk: the model forward scratch, the stacked
/// per-round input matrix, the prefix-table rebuild buffer, and a pool of
/// per-query prefix tensors.
#[derive(Debug, Default)]
struct WalkScratch {
    model: ModelScratch,
    /// Stacked distinct-prefix rows of every non-virgin round participant.
    stacked: Tensor,
    /// Rebuild target for prefix tables; swapped with each query's
    /// `prefix_rows` after a round, so the displaced buffer is recycled.
    spare: Tensor,
    /// Per-query-slot prefix tensors, taken at batch start and returned at
    /// batch end.
    prefix_pool: Vec<Tensor>,
    /// Query indices participating in the current round.
    round: Vec<usize>,
    /// Stacked-row offset per query (`usize::MAX` = not stacked).
    offsets: Vec<usize>,
    /// Prefix-id interner buffers, cleared per (query, round).
    intern: HashMap<(usize, u32), usize>,
    created: Vec<(usize, u32)>,
}

/// Per-query sampler state between column rounds.
struct QueryState<'a> {
    vq: &'a VirtualQuery,
    rng: StdRng,
    last: usize,
    /// Distinct live sampled-prefix input rows (model-input encoding);
    /// borrowed from the scratch pool for the duration of the batch.
    prefix_rows: Tensor,
    /// Prefix id of each sample row; only meaningful while the row lives.
    row_prefix: Vec<usize>,
    p_hat: Vec<f64>,
    alive: Vec<bool>,
    /// Sampled hard codes per virtual column (split lo-steps look these up).
    sampled: Vec<Option<Vec<u32>>>,
    /// No code sampled yet: inputs are the all-wildcard zeros, so the
    /// memoized first-step distribution applies.
    virgin: bool,
    done: bool,
}

/// Estimate the selectivities of a batch of translated queries with `s`
/// progressive samples each, one RNG seed per query. Returns one value in
/// `[0, 1]` per query, bit-identical to running
/// [`crate::infer::progressive_sample`] per query with
/// `StdRng::seed_from_u64(seeds[i])`.
pub fn progressive_sample_batch(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
) -> Vec<f64> {
    let mut scratch = BatchScratch::new();
    progressive_sample_batch_with(raw, schema, vqs, s, seeds, &mut scratch)
}

/// [`progressive_sample_batch`] writing all tensor traffic into a
/// caller-owned [`BatchScratch`]. Bit-exact with the allocating path.
/// Large batches are sharded across the kernel pool (see the module docs).
pub fn progressive_sample_batch_with(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
    scratch: &mut BatchScratch,
) -> Vec<f64> {
    let shards = shard_count(vqs.len(), uae_tensor::pool::pool_threads());
    progressive_sample_batch_sharded(raw, schema, vqs, s, seeds, shards, scratch)
}

/// How many interleaved shards a batch of `n` queries is split into on a
/// pool of `threads` threads. Two shards per thread let the pool balance
/// queries of uneven cost; `1` means one unsharded walk.
fn shard_count(n: usize, threads: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    (2 * threads).min(n / MIN_SHARD_QUERIES).max(1)
}

/// [`progressive_sample_batch_with`] with an explicit shard count instead
/// of one derived from the pool width, so tests can pin the sharding
/// independently of the host. Every shard count returns the same bits.
#[doc(hidden)]
pub fn progressive_sample_batch_sharded(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    s: usize,
    seeds: &[u64],
    shards: usize,
    scratch: &mut BatchScratch,
) -> Vec<f64> {
    assert_eq!(vqs.len(), seeds.len(), "one seed per query");
    let k = shards.min(vqs.len()).max(1);
    if k == 1 {
        return walk(raw, schema, vqs, seeds, s, 0, 1, &mut scratch.walk);
    }
    let mode = scratch.walk.model.quant_mode();
    if scratch.shards.len() < k {
        scratch.shards.resize_with(k, || {
            let mut shard = WalkScratch::default();
            shard.model.set_quant_mode(mode);
            Mutex::new(shard)
        });
    }
    let shard_scratch = &scratch.shards;
    // A panicking shard re-raises here, after every other shard finished.
    let parts = uae_tensor::pool::parallel_map(k, |shard| {
        walk(raw, schema, vqs, seeds, s, shard, k, &mut shard_scratch[shard].lock())
    });
    let mut results = vec![0.0f64; vqs.len()];
    for (shard, part) in parts.into_iter().enumerate() {
        for (j, sel) in part.into_iter().enumerate() {
            results[shard + j * k] = sel;
        }
    }
    results
}

/// Walk the queries `shard, shard + k, shard + 2k, …` of the batch in
/// lock-step column rounds; returns their estimates in that order.
#[allow(clippy::too_many_arguments)]
fn walk(
    raw: &RawModel,
    schema: &VirtualSchema,
    vqs: &[VirtualQuery],
    seeds: &[u64],
    s: usize,
    shard: usize,
    k: usize,
    scratch: &mut WalkScratch,
) -> Vec<f64> {
    let s = s.max(1);
    let width = schema.input_width();
    let WalkScratch { model, stacked, spare, prefix_pool, round, offsets, intern, created } =
        scratch;
    let members = || vqs.iter().zip(seeds).skip(shard).step_by(k);
    let n = members().len();
    if prefix_pool.len() < n {
        prefix_pool.resize_with(n, Tensor::default);
    }
    let mut results = vec![0.0f64; n];
    let mut states: Vec<Option<QueryState<'_>>> = Vec::with_capacity(n);
    let mut max_last = 0usize;
    for (i, (vq, &seed)) in members().enumerate() {
        if vq.is_empty() {
            states.push(None);
            continue;
        }
        let Some(last) = vq.last_constrained() else {
            results[i] = 1.0; // no predicates
            states.push(None);
            continue;
        };
        max_last = max_last.max(last);
        let mut prefix_rows = std::mem::take(&mut prefix_pool[i]);
        prefix_rows.resize(1, width);
        prefix_rows.fill_zero();
        states.push(Some(QueryState {
            vq,
            rng: StdRng::seed_from_u64(seed),
            last,
            prefix_rows,
            row_prefix: vec![0; s],
            p_hat: vec![1.0; s],
            alive: vec![true; s],
            sampled: vec![None; schema.num_virtual()],
            virgin: true,
            done: false,
        }));
    }

    for v in 0..=max_last {
        if states.iter().all(Option::is_none) {
            break;
        }
        round.clear();
        round.extend(states.iter().enumerate().filter_map(|(i, st)| {
            let st = st.as_ref()?;
            (!st.done && v <= st.last && st.vq.step(v).is_constrained()).then_some(i)
        }));
        if round.is_empty() {
            continue;
        }

        // One stacked forward over the distinct live prefixes of every
        // non-virgin participant.
        offsets.clear();
        offsets.resize(states.len(), usize::MAX);
        let mut total_rows = 0usize;
        let mut any_virgin = false;
        for &i in round.iter() {
            let st = states[i].as_ref().expect("round member");
            if st.virgin {
                any_virgin = true;
                continue;
            }
            offsets[i] = total_rows;
            total_rows += st.prefix_rows.rows();
        }
        if total_rows > 0 {
            stacked.resize(total_rows, width);
            for &i in round.iter() {
                let st = states[i].as_ref().expect("round member");
                if st.virgin {
                    continue;
                }
                let dst_start = offsets[i] * width;
                let dst = &mut stacked.data_mut()[dst_start..dst_start + st.prefix_rows.len()];
                dst.copy_from_slice(st.prefix_rows.data());
            }
            raw.hidden_into(stacked, model);
            raw.logits_col_into(v, model);
            model.logits.softmax_rows_in_place();
        }
        let probs: Option<&Tensor> = (total_rows > 0).then_some(&model.logits);
        // Virgin participants all see the same memoized distribution.
        let first: Option<Arc<Vec<f32>>> = any_virgin.then(|| raw.first_step_probs(v));

        for &i in round.iter() {
            let st = states[i].as_mut().expect("round member");
            let offset = (offsets[i] != usize::MAX).then_some(offsets[i]);
            let first_row = first.as_ref().map(|a| a.as_slice());
            advance_query(raw, schema, st, v, probs, offset, first_row, spare, intern, created);
            if st.done {
                results[i] = st.p_hat.iter().sum::<f64>() / s as f64;
            }
        }
    }

    // Return the prefix tensors to the pool for the next batch.
    for (i, st) in states.into_iter().enumerate() {
        if let Some(st) = st {
            prefix_pool[i] = st.prefix_rows;
        }
    }
    results
}

/// Run one column round for one query, mirroring the per-step logic of
/// `progressive_sample` exactly (same kills, same p-hat updates, same RNG
/// consumption over live rows in ascending order).
#[allow(clippy::too_many_arguments)]
fn advance_query(
    raw: &RawModel,
    schema: &VirtualSchema,
    st: &mut QueryState<'_>,
    v: usize,
    probs: Option<&Tensor>,
    offset: Option<usize>,
    first: Option<&[f32]>,
    spare: &mut Tensor,
    intern: &mut HashMap<(usize, u32), usize>,
    created: &mut Vec<(usize, u32)>,
) {
    let s = st.p_hat.len();
    let domain = schema.codec(v).domain() as u32;
    let need_sample = v < st.last;
    let virgin = st.virgin;
    // Prefix-id interner for the codes drawn this round.
    intern.clear();
    created.clear();
    let mut codes = vec![0u32; s];

    let step = st.vq.step(v);
    if let StepRegion::Weighted(w) = step {
        // Fanout scaling: multiply by E[w(v) | z_<v] and importance-sample
        // from the reweighted conditional.
        // Range loop: `r` walks five parallel per-sample arrays at once.
        #[allow(clippy::needless_range_loop)]
        for r in 0..s {
            if !st.alive[r] {
                continue;
            }
            let row: &[f32] = if virgin {
                first.expect("first-step probs for virgin query")
            } else {
                let p = probs.expect("stacked probs for sampled query");
                p.row(offset.expect("stack offset") + st.row_prefix[r])
            };
            let p_w: f64 = row.iter().zip(w.iter()).map(|(&p, &wv)| p as f64 * wv).sum();
            if p_w <= 0.0 {
                st.p_hat[r] = 0.0;
                st.alive[r] = false;
                continue;
            }
            st.p_hat[r] *= p_w;
            if need_sample {
                let target: f64 = st.rng.random::<f64>() * p_w;
                let mut acc = 0.0f64;
                let mut code = domain - 1;
                for (c, (&p, &wv)) in row.iter().zip(w.iter()).enumerate() {
                    acc += p as f64 * wv;
                    if acc >= target {
                        code = c as u32;
                        break;
                    }
                }
                codes[r] = code;
                st.row_prefix[r] = intern_pair(intern, created, (st.row_prefix[r], code));
            }
        }
    } else {
        // Fixed regions are shared by every row; borrow them once instead
        // of cloning per row (split lo-regions depend on the sampled hi
        // code and stay per-row).
        let fixed_region = match step {
            StepRegion::Fixed(region) => Some(region),
            _ => None,
        };
        // Range loop: `r` walks five parallel per-sample arrays at once.
        #[allow(clippy::needless_range_loop)]
        for r in 0..s {
            if !st.alive[r] {
                continue;
            }
            let lo_region;
            let region = match (fixed_region, step) {
                (Some(region), _) => region,
                (None, StepRegion::LoOfSplit { hi_vcol, .. }) => {
                    let hi_code = st.sampled[*hi_vcol].as_ref().expect("hi sampled before lo")[r];
                    lo_region = st.vq.lo_region(v, hi_code, domain);
                    &lo_region
                }
                _ => unreachable!(),
            };
            let row: &[f32] = if virgin {
                first.expect("first-step probs for virgin query")
            } else {
                let p = probs.expect("stacked probs for sampled query");
                p.row(offset.expect("stack offset") + st.row_prefix[r])
            };
            let p_in: f64 = region.iter_codes().map(|c| row[c as usize] as f64).sum();
            if p_in <= 0.0 || region.is_empty() {
                st.p_hat[r] = 0.0;
                st.alive[r] = false;
                continue;
            }
            st.p_hat[r] *= p_in.min(1.0);
            if need_sample {
                let code = sample_in_region(row, region, p_in, &mut st.rng);
                codes[r] = code;
                st.row_prefix[r] = intern_pair(intern, created, (st.row_prefix[r], code));
            }
        }
    }

    if !need_sample {
        st.done = true; // v == last: the walk (and the estimate) is complete
        return;
    }
    st.sampled[v] = Some(codes);
    // Rebuild the prefix table from the pairs drawn this round into the
    // shared spare buffer, then swap it in. Prefixes referenced only by
    // dead rows are never interned, so they vanish here (dead-sample
    // compaction); the displaced buffer becomes the next rebuild target.
    let (bs, be) = schema.input_slice(v);
    spare.resize(created.len(), schema.input_width());
    for (id, &(parent, code)) in created.iter().enumerate() {
        let dst = spare.row_mut(id);
        dst.copy_from_slice(st.prefix_rows.row(parent));
        raw.encode_into(v, code, &mut dst[bs..be]);
    }
    std::mem::swap(&mut st.prefix_rows, spare);
    st.virgin = false;
    if created.is_empty() {
        // Every sample died; all later rounds would be no-ops with p̂ = 0.
        st.done = true;
    }
}

fn intern_pair(
    intern: &mut HashMap<(usize, u32), usize>,
    created: &mut Vec<(usize, u32)>,
    key: (usize, u32),
) -> usize {
    *intern.entry(key).or_insert_with(|| {
        created.push(key);
        created.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rule() {
        // A pool of width 1 never shards.
        assert_eq!(shard_count(64, 1), 1);
        // Fewer than two shards' worth of queries stays one walk.
        assert_eq!(shard_count(0, 2), 1);
        assert_eq!(shard_count(15, 2), 1);
        assert_eq!(shard_count(16, 2), 2);
        assert_eq!(shard_count(31, 2), 3);
        // At most two shards per pool thread.
        assert_eq!(shard_count(64, 2), 4);
        assert_eq!(shard_count(64, 4), 8);
        assert_eq!(shard_count(1000, 8), 16);
    }
}
