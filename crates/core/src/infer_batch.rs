//! Cross-query batched progressive sampling — the one §4.2 engine every
//! estimate runs through. A single estimate is a batch of one.
//!
//! The reference oracle
//! [`progressive_sample`](crate::infer::progressive_sample) walks one query
//! at a time: every constrained column costs a full `S`-row forward pass,
//! even though (a) the first constrained column's input is the all-wildcard
//! zero row — identical for every sample of every query — and (b) after
//! sampling column `v`, many of the `S` rows share the same sampled code
//! and therefore the same model input.
//!
//! [`progressive_sample_batch`] removes both redundancies while producing
//! **bit-identical estimates** to the oracle under matched per-query RNG
//! seeds:
//!
//! * **Column rounds.** All queries advance in lock-step over virtual
//!   columns. At round `v`, every not-yet-finished query whose step `v` is
//!   constrained participates; queries with a wildcard at `v` skip the
//!   round entirely (per-query wildcard skipping, §4.6). Participants share
//!   one stacked hidden forward and one `logits_col(v)` projection, so
//!   the `w_out` column slice and the weight traversals are paid once per
//!   round instead of once per query.
//! * **Head-prefix forward.** Round `v` needs only column `v`'s
//!   conditional, and in the packed layout that head reads a degree-sorted
//!   prefix of the hidden units. The stacked forward computes just that
//!   prefix in every layer (`RawModel::hidden_for_col_into`), with the
//!   same bits as the full-width forward on the units the head reads.
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
//! * **Per-prefix region mass.** Rows sharing a prefix share its
//!   conditional, and with it the step's support (a split column's
//!   lo-region depends only on the hi code, which is part of the prefix).
//!   So each round computes a prefix's in-support mass once (on its first
//!   live row, in the oracle's summation order), then walks the rows in
//!   ascending order applying the kill rule, the p̂ update and the draw
//!   `target = u · mass`, bucketing each survivor under its prefix. A
//!   prefix pass builds each prefix's cumulative distribution once, in one
//!   reusable buffer, and resolves every bucketed row by binary search
//!   over its finite, non-decreasing leading part (the linear rule takes
//!   over past it, so NaN entries and negative weights pick exactly what
//!   the oracle's scan picks). Child prefix ids come from a domain-sized
//!   stamp table. All three step kinds (`Fixed`, `LoOfSplit`, `Weighted`)
//!   share this one path, and its buffers are O(S + domain + prefixes).
//!
//!   Child ids are numbered parent by parent. Any numbering is exact: a
//!   prefix id only picks a row of the stacked input, and the forward and
//!   the softmax compute each row from that row alone.
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
//! Equivalence with the oracle holds because each query draws from
//! its own seeded RNG, and within a query the draw order is identical:
//! ascending constrained column, then ascending row index over live rows.
//! The same argument makes every shard count give the same bits: a query's
//! estimate depends only on (snapshot, query, `s`, seed), never on which
//! other queries share its walk.
//!
//! All tensor traffic — the stacked forward, the per-round probability
//! matrix, and every query's prefix table — lives in a caller-owned
//! [`BatchScratch`] (one walk scratch per shard), so a warmed scratch
//! serves batches with zero tensor allocations. A query never has more
//! distinct live prefixes than samples, so each walk reserves `s` rows
//! for every prefix table, the spare it swaps with, and the stacked input:
//! a warm batch of one allocates nothing whatever its seeds.

use std::cmp::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use uae_tensor::Tensor;

use crate::encoding::VirtualSchema;
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
    /// Per-prefix mass, sampling and interning buffers of one
    /// (query, round).
    prefix: RoundScratch,
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
    if scratch.shards.len() < k {
        scratch.shards.resize_with(k, Mutex::default);
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
    let WalkScratch { model, stacked, spare, prefix_pool, round, offsets, prefix } = scratch;
    let members = || vqs.iter().zip(seeds).skip(shard).step_by(k);
    let n = members().len();
    if prefix_pool.len() < n {
        prefix_pool.resize_with(n, Tensor::default);
    }
    // `s` rows bound every prefix table, the spare and a batch of one's
    // stacked input, so reserving them stops high-water creep (module docs).
    let bound = s * width;
    spare.reserve(bound);
    stacked.reserve(bound);
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
        prefix_rows.reserve(bound);
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
        // Finished queries keep their state (`done`), so stop once no
        // query is still walking: a batch whose samples all died builds no
        // further rounds.
        if states.iter().flatten().all(|st| st.done) {
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
            raw.hidden_for_col_into(stacked, v, model);
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
            advance_query(raw, schema, st, v, probs, offset, first_row, spare, prefix);
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
/// consumption over live rows in ascending order), with every per-prefix
/// quantity computed once per distinct prefix instead of once per row.
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
    rs: &mut RoundScratch,
) {
    let s = st.p_hat.len();
    let domain = schema.codec(v).domain() as u32;
    let need_sample = v < st.last;
    let vq = st.vq;
    let step = vq.step(v);
    let weighted = matches!(step, StepRegion::Weighted(_));
    // A virgin query has one prefix (the all-wildcard row) and reads the
    // memoized first-step distribution; otherwise prefix `p` is stacked
    // row `offset + p`.
    let prefixes = st.prefix_rows.rows();
    let virgin = st.virgin;
    let prow = |p: usize| -> &[f32] {
        if virgin {
            first.expect("first-step probs for virgin query")
        } else {
            probs.expect("stacked probs for sampled query").row(offset.expect("stack offset") + p)
        }
    };
    rs.start(prefixes, s, domain as usize);

    // Row pass, ascending: the prefix's mass on first sight, then the kill
    // rule and p̂ update, then the draw target. Kills consume no RNG, so the
    // draw order is the oracle's.
    let mut codes = vec![0u32; s];
    for r in 0..s {
        if !st.alive[r] {
            continue;
        }
        let p = st.row_prefix[r];
        if rs.rep[p] == NO_ROW {
            rs.rep[p] = r as u32;
            rs.mass[p] = support(step, &st.sampled, r, domain, &mut rs.ranges).mass(prow(p));
        }
        let mass = rs.mass[p];
        if mass <= 0.0 {
            st.p_hat[r] = 0.0;
            st.alive[r] = false;
            continue;
        }
        // Fanout weights scale by E[w(v) | z_<v] unclamped; a 0/1 region's
        // mass is a probability, clamped against rounding above 1.
        st.p_hat[r] *= if weighted { mass } else { mass.min(1.0) };
        if need_sample {
            rs.target[r] = st.rng.random::<f64>() * mass;
            rs.push(p, r);
        }
    }
    if !need_sample {
        st.done = true; // v == last: the walk (and the estimate) is complete
        return;
    }

    // Prefix pass: one cumulative distribution per prefix, every bucketed
    // row resolved against it, child prefix ids interned per parent.
    for p in 0..prefixes {
        let mut r = rs.head[p];
        if r == NO_ROW {
            continue;
        }
        let sup = support(step, &st.sampled, rs.rep[p] as usize, domain, &mut rs.ranges);
        let fallback = sup.fallback(domain);
        let mono = sup.fill_cdf(prow(p), &mut rs.cdf, &mut rs.cdf_codes);
        let gen = rs.next_generation();
        while r != NO_ROW {
            let row = r as usize;
            let code = resolve(&rs.cdf, &rs.cdf_codes, mono, rs.target[row], fallback);
            let c = code as usize;
            if rs.stamp[c] != gen {
                rs.stamp[c] = gen;
                rs.child[c] = rs.created.len() as u32;
                rs.created.push((p, code));
            }
            codes[row] = code;
            st.row_prefix[row] = rs.child[c] as usize;
            r = rs.next[row];
        }
    }
    st.sampled[v] = Some(codes);
    // Rebuild the prefix table from the pairs drawn this round into the
    // shared spare buffer, then swap it in. Prefixes referenced only by
    // dead rows are never interned, so they vanish here (dead-sample
    // compaction); the displaced buffer becomes the next rebuild target.
    let (bs, be) = schema.input_slice(v);
    spare.resize(rs.created.len(), schema.input_width());
    for (id, &(parent, code)) in rs.created.iter().enumerate() {
        let dst = spare.row_mut(id);
        dst.copy_from_slice(st.prefix_rows.row(parent));
        raw.encode_into(v, code, &mut dst[bs..be]);
    }
    std::mem::swap(&mut st.prefix_rows, spare);
    st.virgin = false;
    if rs.created.is_empty() {
        // Every sample died; all later rounds would be no-ops with p̂ = 0.
        st.done = true;
    }
}

/// "No row" in the `u32` row links of [`RoundScratch`].
const NO_ROW: u32 = u32::MAX;

/// Buffers of one (query, round) of [`advance_query`], reused across
/// rounds and batches. Sized O(S + domain + prefixes): nothing grows with
/// prefixes × region size.
#[derive(Debug, Default)]
struct RoundScratch {
    /// Per prefix: in-support mass, first live row (`NO_ROW` until seen),
    /// and the first and last rows of its bucket of rows to sample.
    mass: Vec<f64>,
    rep: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per row: the next row in its prefix's bucket, and its draw target
    /// `u · mass`.
    next: Vec<u32>,
    target: Vec<f64>,
    /// One prefix's lo-region ranges on a split column.
    ranges: Vec<(u32, u32)>,
    /// One prefix's cumulative in-support distribution and each entry's code.
    cdf: Vec<f64>,
    cdf_codes: Vec<u32>,
    /// Child-prefix interner: `stamp[code] == generation` marks a code
    /// already drawn under the current parent prefix, with id `child[code]`.
    stamp: Vec<u32>,
    child: Vec<u32>,
    generation: u32,
    /// (parent prefix, code) of each child prefix, in child-id order.
    created: Vec<(usize, u32)>,
}

impl RoundScratch {
    /// Reset the per-prefix and per-row state for a round over `prefixes`
    /// prefixes, `s` rows and a `domain`-code column.
    fn start(&mut self, prefixes: usize, s: usize, domain: usize) {
        for buf in [&mut self.rep, &mut self.head, &mut self.tail] {
            buf.clear();
            buf.resize(prefixes, NO_ROW);
        }
        self.mass.clear();
        self.mass.resize(prefixes, 0.0);
        self.next.resize(s, NO_ROW);
        self.target.resize(s, 0.0);
        if self.stamp.len() < domain {
            // Fresh entries hold 0, which no live generation uses.
            self.stamp.resize(domain, 0);
            self.child.resize(domain, 0);
        }
        self.created.clear();
    }

    /// Append row `r` to prefix `p`'s bucket (rows arrive in ascending order).
    fn push(&mut self, p: usize, r: usize) {
        self.next[r] = NO_ROW;
        match self.tail[p] {
            NO_ROW => self.head[p] = r as u32,
            t => self.next[t as usize] = r as u32,
        }
        self.tail[p] = r as u32;
    }

    /// A generation no stamp holds yet; the stamps are cleared on wrap.
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.generation
    }
}

/// The codes one prefix's conditional is restricted to at one step, with
/// their weights: a 0/1 region (a fixed region, or a split column's
/// lo-region given the prefix's hi code) or a `Weighted` step's importance
/// weights over the whole domain.
#[derive(Debug, Clone, Copy)]
enum Support<'a> {
    Region(&'a [(u32, u32)]),
    Weighted(&'a [f64]),
}

/// The support of step `step` for the prefix of sample row `row`. A split
/// lo-region depends only on the hi code, which is part of the prefix, so
/// any row of the prefix yields the same ranges (built into `lo`).
fn support<'b>(
    step: &'b StepRegion,
    sampled: &[Option<Vec<u32>>],
    row: usize,
    domain: u32,
    lo: &'b mut Vec<(u32, u32)>,
) -> Support<'b> {
    match step {
        StepRegion::Fixed(region) => Support::Region(region.ranges()),
        StepRegion::LoOfSplit { original, lo_bits, hi_vcol } => {
            let hi = sampled[*hi_vcol].as_ref().expect("hi sampled before lo")[row];
            VirtualSchema::lo_ranges_given_hi(original, *lo_bits, hi, domain, lo);
            Support::Region(lo)
        }
        StepRegion::Weighted(w) => Support::Weighted(w),
        StepRegion::Wildcard => unreachable!("wildcard steps skip the round"),
    }
}

impl Support<'_> {
    /// In-support mass of a softmaxed row: `Σ p` over the region, or
    /// `Σ p·w` for weights, summed exactly as the oracle sums it.
    fn mass(self, row: &[f32]) -> f64 {
        match self {
            Support::Region(ranges) => {
                ranges.iter().flat_map(|&(lo, hi)| lo..hi).map(|c| row[c as usize] as f64).sum()
            }
            Support::Weighted(w) => row.iter().zip(w.iter()).map(|(&p, &wv)| p as f64 * wv).sum(),
        }
    }

    /// The code the oracle's linear scan returns when no cumulative entry
    /// reaches the target: the region's last code, or the domain's last
    /// code for weights. Only asked of supports with positive mass, so a
    /// region is never empty here.
    fn fallback(self, domain: u32) -> u32 {
        match self {
            Support::Region(ranges) => ranges.last().map_or(0, |&(_, hi)| hi - 1),
            Support::Weighted(_) => domain - 1,
        }
    }

    /// Write the cumulative distribution of `row` over the support into
    /// `cdf` (accumulated exactly as the oracle's scan accumulates) and each
    /// entry's code into `codes`. Returns the length of the leading part
    /// that is finite and non-decreasing, where [`resolve`] may bisect.
    fn fill_cdf(self, row: &[f32], cdf: &mut Vec<f64>, codes: &mut Vec<u32>) -> usize {
        cdf.clear();
        codes.clear();
        let mut acc = 0.0f64;
        let mut mono = 0usize;
        let mut push = |acc: f64, code: u32| {
            if mono == cdf.len() && acc.is_finite() && cdf.last().is_none_or(|&prev| acc >= prev) {
                mono += 1;
            }
            cdf.push(acc);
            codes.push(code);
        };
        match self {
            Support::Region(ranges) => {
                for c in ranges.iter().flat_map(|&(lo, hi)| lo..hi) {
                    acc += row[c as usize] as f64;
                    push(acc, c);
                }
            }
            Support::Weighted(w) => {
                for (c, (&p, &wv)) in row.iter().zip(w.iter()).enumerate() {
                    acc += p as f64 * wv;
                    push(acc, c as u32);
                }
            }
        }
        mono
    }
}

/// The oracle's inverse-CDF rule — the first code whose cumulative entry is
/// `>= target`, else `fallback` — by binary search over the finite,
/// non-decreasing leading `mono` entries (where "`>= target`" flips at most
/// once, whatever the target, NaN included), then the linear scan over the
/// rest (NaN entries, or a decrease from a negative weight).
fn resolve(cdf: &[f64], codes: &[u32], mono: usize, target: f64, fallback: u32) -> u32 {
    // "Not `>= target`": below it, or incomparable with a NaN target.
    let i = cdf[..mono].partition_point(|&c| c.partial_cmp(&target).is_none_or(Ordering::is_lt));
    if i < mono {
        return codes[i];
    }
    cdf[mono..].iter().position(|&c| c >= target).map_or(fallback, |j| codes[mono + j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::sample_in_region;
    use proptest::prelude::*;
    use uae_query::Region;

    /// The oracle's linear inverse-CDF scan over a region with an explicit
    /// target (`sample_in_region` after its draw).
    fn linear_region(row: &[f32], region: &Region, target: f64) -> u32 {
        let mut acc = 0.0f64;
        let mut last = 0u32;
        for c in region.iter_codes() {
            acc += row[c as usize] as f64;
            last = c;
            if acc >= target {
                return c;
            }
        }
        last
    }

    /// The oracle's weighted linear scan (`progressive_sample`'s
    /// `Weighted` branch) with an explicit target.
    fn linear_weighted(row: &[f32], w: &[f64], target: f64) -> u32 {
        let mut acc = 0.0f64;
        for (c, (&p, &wv)) in row.iter().zip(w).enumerate() {
            acc += p as f64 * wv;
            if acc >= target {
                return c as u32;
            }
        }
        row.len() as u32 - 1
    }

    fn cdf_of(sup: Support<'_>, row: &[f32]) -> (Vec<f64>, Vec<u32>, usize) {
        let (mut cdf, mut codes) = (Vec::new(), Vec::new());
        let mono = sup.fill_cdf(row, &mut cdf, &mut codes);
        (cdf, codes, mono)
    }

    /// Per-prefix mass equals the oracle's region sum bit for bit, and the
    /// bisecting search returns the code of the oracle's linear scan, both
    /// for an explicit `u` and for `sample_in_region`'s own draw.
    fn check_region(row: &[f32], region: &Region, u: f64, seed: u64) {
        let sup = Support::Region(region.ranges());
        let oracle_mass: f64 = region.iter_codes().map(|c| row[c as usize] as f64).sum();
        prop_assert_eq!(sup.mass(row).to_bits(), oracle_mass.to_bits(), "region {:?}", region);
        let (cdf, codes, mono) = cdf_of(sup, row);
        let fallback = sup.fallback(region.domain());
        let target = u * oracle_mass;
        prop_assert_eq!(
            resolve(&cdf, &codes, mono, target, fallback),
            linear_region(row, region, target),
            "region {:?}, u {}",
            region,
            u
        );
        let drawn = StdRng::seed_from_u64(seed).random::<f64>() * oracle_mass;
        prop_assert_eq!(
            resolve(&cdf, &codes, mono, drawn, fallback),
            sample_in_region(row, region, oracle_mass, &mut StdRng::seed_from_u64(seed)),
            "region {:?}, seed {}",
            region,
            seed
        );
    }

    /// Softmax-like rows with zero plateaus and tiny masses, and optionally
    /// one NaN entry.
    fn arb_row() -> impl Strategy<Value = Vec<f32>> {
        let entry = (0u32..9, 0.0f32..1.0).prop_map(|(kind, x)| match kind {
            0..=2 => 0.0,
            3 => 1e-30,
            _ => x,
        });
        (proptest::collection::vec(entry, 1..=40), 0usize..160).prop_map(|(mut row, nan)| {
            // One case in four carries a NaN entry.
            if nan < 40 {
                let n = row.len();
                row[nan % n] = f32::NAN;
            }
            row
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_prefix_sampling_matches_the_oracle_scan(
            row in arb_row(),
            mask in proptest::collection::vec(any::<bool>(), 40),
            picks in (0u32..40, 0u32..40, 0u32..40),
            lo in (1usize..=3, 1u32..=8),
            weights in proptest::collection::vec(
                (0u32..6, -1.5f64..3.0).prop_map(|(kind, w)| if kind < 2 { 0.0 } else { w }),
                40,
            ),
            u in (0u32..6, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
                0 => 1.0 - f64::EPSILON,
                1 => 0.0,
                _ => u,
            }),
            seed in any::<u64>(),
        ) {
            let d = row.len() as u32;
            let (a, b, c) = (picks.0 % d, picks.1 % d, picks.2 % d);
            let codes: Vec<u32> = (0..d).filter(|&c| mask[c as usize]).collect();
            let regions = [
                Region::from_codes(d, codes),                  // IN: many ranges
                Region::range(d, c, c + 1).complement(),       // !=: two ranges
                Region::range(d, a.min(b), a.max(b) + 1),      // a range
                Region::range(d, c, c + 1),                    // a single code
                Region::all(d),
                Region::empty(d),                              // zero mass
            ];
            for region in &regions {
                check_region(&row, region, u, seed);
            }

            // A split column's lo-region given a hi code: the ranges the
            // engine builds without allocating hold the oracle's codes, also
            // where the lo domain cuts the hi code's block short.
            let lo_bits = lo.0;
            let lo_domain = lo.1.min(1 << lo_bits).min(d);
            let hi = c >> lo_bits;
            let mut ranges = Vec::new();
            for original in &regions {
                VirtualSchema::lo_ranges_given_hi(original, lo_bits, hi, lo_domain, &mut ranges);
                let lo = VirtualSchema::lo_region_given_hi(original, lo_bits, hi, lo_domain);
                prop_assert_eq!(&ranges[..], lo.ranges());
                check_region(&row[..lo_domain as usize], &lo, u, seed);
            }

            // Fanout weights: zero and negative weights, NaN rows.
            let w = &weights[..row.len()];
            let sup = Support::Weighted(w);
            let oracle_mass: f64 = row.iter().zip(w).map(|(&p, &wv)| p as f64 * wv).sum();
            prop_assert_eq!(sup.mass(&row).to_bits(), oracle_mass.to_bits());
            let (cdf, codes, mono) = cdf_of(sup, &row);
            let target = u * oracle_mass;
            prop_assert_eq!(
                resolve(&cdf, &codes, mono, target, sup.fallback(d)),
                linear_weighted(&row, w, target),
                "weights {:?}, u {}", w, u
            );
        }
    }

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
