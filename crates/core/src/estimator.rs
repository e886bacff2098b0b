//! The public UAE estimator: construction, the three training modes
//! (UAE-D ≡ Naru, UAE-Q, hybrid UAE), incremental ingestion (§4.5), and
//! progressive-sampling estimation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice;
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use uae_data::Table;
use uae_estimators::HistogramEstimator;
use uae_query::{CardEstimator, EstimatorFamily, LabeledQuery, Query};
use uae_tensor::{Adam, AdamState, GradStore, Optimizer, ParamStore, Tape, TapeWorkspace};

use crate::encoding::VirtualSchema;
use crate::infer_batch::{progressive_sample_batch_with, BatchScratch};
use crate::model::{RawModel, ResMade, ResMadeConfig};
use crate::serialize::{CheckpointError, CheckpointState, LoadError};
use crate::serve::{
    healthy, retry_seed, Estimate, EstimateError, EstimateSource, ServeConfig, Validation,
    FALLBACK_BUCKETS, RETRY_BOOST,
};
use crate::telemetry::{EpochMetrics, Event, ServeStats, Sink, TrainStats};
use crate::train::{data_loss, query_loss, TrainConfig, TrainQuery};
use crate::vquery::VirtualQuery;

/// Full configuration of a UAE estimator.
#[derive(Debug, Clone)]
pub struct UaeConfig {
    /// Network architecture.
    pub model: ResMadeConfig,
    /// Factorize columns with more distinct values than this (§4.6;
    /// `usize::MAX` disables factorization — the single-table default).
    pub factor_threshold: usize,
    /// Autoregressive column ordering (§4.2; the paper uses the natural
    /// left-to-right order).
    pub order: crate::ordering::ColumnOrder,
    /// Input encoding: binary bits (paper default) or learnable embeddings
    /// for very large NDVs (§4.6).
    pub encoding: crate::encoding::EncodingMode,
    /// Training hyper-parameters (λ, τ, S, …).
    pub train: TrainConfig,
    /// Progressive samples used at estimation time (paper: 200–1000).
    pub estimate_samples: usize,
    /// Serving-robustness configuration: validation, the retry → baseline
    /// fallback cascade, and deterministic fault injection.
    pub serve: ServeConfig,
}

impl Default for UaeConfig {
    fn default() -> Self {
        UaeConfig {
            model: ResMadeConfig::default(),
            factor_threshold: usize::MAX,
            order: crate::ordering::ColumnOrder::Natural,
            encoding: crate::encoding::EncodingMode::Binary,
            train: TrainConfig::default(),
            estimate_samples: 200,
            serve: ServeConfig::default(),
        }
    }
}

struct EstCache {
    raw: Option<RawModel>,
    rng: StdRng,
    /// Reusable buffers of the batched sampler. Training invalidates `raw`
    /// but keeps these warm — their shapes depend only on the schema and
    /// sample count, not on the weights.
    batch: BatchScratch,
    serve: ServeState,
}

/// Serving-side runtime state: degradation counters, the serving-index
/// cursor fault plans key on, the lazily built always-available baseline,
/// and the estimator's one event sink (train and serve events). Lives
/// inside the `est` mutex because every estimate entry point takes
/// `&self`; the train loop reaches it through `Mutex::get_mut`.
#[derive(Default)]
struct ServeState {
    stats: ServeStats,
    /// The histogram baseline, built on first fallback and invalidated by
    /// data ingestion.
    fallback: Option<HistogramEstimator>,
    sink: Option<Box<dyn Sink>>,
}

impl ServeState {
    fn emit(&mut self, event: Event) {
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(&event);
        }
    }
}

/// The last state proven healthy (finite losses throughout an epoch) —
/// the rollback target when training diverges.
struct GoodState {
    store: ParamStore,
    adam: AdamState,
}

/// Tracks consecutive poisoned steps and holds the rollback snapshot.
#[derive(Default)]
struct DivergenceGuard {
    bad_streak: u32,
    snapshot: Option<GoodState>,
}

/// Multiplier applied to the learning rate on every rollback.
const LR_BACKOFF: f32 = 0.5;

/// Outcome of one optimizer step.
enum StepOutcome {
    /// No batch contributed a loss (e.g. training an empty table).
    Empty,
    /// Non-finite loss or gradient: the update was not applied.
    Skipped { loss: f32 },
    /// The update was applied.
    Applied {
        loss: f32,
        data_loss: Option<f32>,
        query_loss: Option<f32>,
        grad_norm: f32,
        clipped: bool,
    },
}

/// Global gradient-norm bound applied to every training step.
const GRAD_CLIP: f32 = 8.0;

/// Scale factor bringing a gradient of norm `norm` inside `GRAD_CLIP`,
/// or `None` when no clipping applies. Non-finite norms never clip: the
/// `norm > clip` comparison is `false` for NaN, which previously let NaN
/// gradients through *unscaled* — they are instead rejected wholesale by
/// the divergence guard before this is consulted.
fn clip_scale(norm: f32) -> Option<f32> {
    (norm.is_finite() && norm > GRAD_CLIP).then(|| GRAD_CLIP / norm)
}

/// Shuffled full-pass cycling over training-query indices. Algorithm 3
/// consumes query *minibatches*; drawing them uniformly with replacement
/// (the previous behavior) silently starves a fraction of the workload
/// every epoch. A reshuffled cursor visits every query exactly once per
/// pass while staying seeded-deterministic.
struct QueryCycler {
    order: Vec<usize>,
    cursor: usize,
}

impl QueryCycler {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, rng);
        QueryCycler { order, cursor: 0 }
    }

    /// The next `k` indices, reshuffling whenever a pass is exhausted.
    fn next_batch(&mut self, k: usize, rng: &mut StdRng) -> Vec<usize> {
        (0..k)
            .map(|_| {
                if self.cursor == self.order.len() {
                    shuffle(&mut self.order, rng);
                    self.cursor = 0;
                }
                let i = self.order[self.cursor];
                self.cursor += 1;
                i
            })
            .collect()
    }
}

/// The unified deep autoregressive estimator.
///
/// * `train_data` alone reproduces **Naru / UAE-D**;
/// * `train_queries` alone is **UAE-Q** (the first supervised deep
///   *generative* cardinality estimator);
/// * `train_hybrid` is the full **UAE** of Algorithm 3.
pub struct Uae {
    name: String,
    /// The (possibly column-permuted) training table.
    table: Table,
    /// `col_remap[original column] = position in `table``.
    col_remap: Vec<usize>,
    schema: VirtualSchema,
    model: ResMade,
    store: ParamStore,
    /// Virtual codes of the training rows (row-major).
    rows: Vec<Vec<u32>>,
    cfg: UaeConfig,
    opt: Adam,
    rng: StdRng,
    est: Mutex<EstCache>,
    stats: TrainStats,
    guard: DivergenceGuard,
}

impl Uae {
    /// Build an untrained estimator over a table.
    pub fn new(table: &Table, cfg: UaeConfig) -> Self {
        let perm = crate::ordering::compute_order(table, cfg.order);
        let mut col_remap = vec![0usize; table.num_cols()];
        for (pos, &orig) in perm.iter().enumerate() {
            col_remap[orig] = pos;
        }
        let table = table.select_columns(&perm);
        let schema = VirtualSchema::build_with_mode(&table, cfg.factor_threshold, cfg.encoding);
        let mut store = ParamStore::new();
        let model = ResMade::new(&mut store, &schema, &cfg.model);
        let rows =
            (0..table.num_rows()).map(|r| schema.to_virtual_codes(&table.row_codes(r))).collect();
        let seed = cfg.train.seed;
        Uae {
            name: "UAE".to_owned(),
            table,
            col_remap,
            schema,
            model,
            store,
            rows,
            opt: Adam::new(cfg.train.lr),
            rng: StdRng::seed_from_u64(seed),
            cfg,
            est: Mutex::new(EstCache {
                raw: None,
                rng: StdRng::seed_from_u64(seed ^ 0xe57),
                batch: BatchScratch::new(),
                serve: ServeState::default(),
            }),
            stats: TrainStats::default(),
            guard: DivergenceGuard::default(),
        }
    }

    /// Rename (for result tables: "Naru", "UAE-Q", …).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The virtual schema (for inspection and tests).
    pub fn schema(&self) -> &VirtualSchema {
        &self.schema
    }

    /// The training table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Mutable training configuration (λ, τ, S, …) — hyper-parameter
    /// studies adjust these between training phases (Figure 4).
    pub fn train_config_mut(&mut self) -> &mut TrainConfig {
        &mut self.cfg.train
    }

    /// The configured per-query progressive-sample budget. The serving
    /// front-end's degradation ladder shrinks *from* this value (via
    /// [`Uae::try_estimate_cards_with`]).
    pub fn estimate_samples(&self) -> usize {
        self.cfg.estimate_samples
    }

    /// Change the optimizer learning rate (e.g. a smaller rate for
    /// incremental refinement than for initial training).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.cfg.train.lr = lr;
        self.opt.set_lr(lr);
    }

    /// Translate labeled queries into training queries.
    pub fn prepare_queries(&self, workload: &[LabeledQuery]) -> Vec<TrainQuery> {
        workload
            .iter()
            .map(|lq| TrainQuery { vquery: self.translate(&lq.query), selectivity: lq.selectivity })
            .collect()
    }

    /// Unsupervised training on data only (UAE-D / Naru). Returns the mean
    /// data loss of each epoch.
    pub fn train_data(&mut self, epochs: usize) -> Vec<f32> {
        (0..epochs).map(|_| self.epoch(true, None)).collect()
    }

    /// Supervised training on queries only (UAE-Q). Returns the mean query
    /// loss of each epoch.
    pub fn train_queries(&mut self, workload: &[LabeledQuery], epochs: usize) -> Vec<f32> {
        let tqs = self.prepare_queries(workload);
        (0..epochs).map(|_| self.epoch(false, Some(&tqs))).collect()
    }

    /// Hybrid training (Algorithm 3): each step minimizes
    /// `L = L_data + λ·L_query` (Eq. 11). Returns per-epoch mean loss.
    pub fn train_hybrid(&mut self, workload: &[LabeledQuery], epochs: usize) -> Vec<f32> {
        let tqs = self.prepare_queries(workload);
        (0..epochs).map(|_| self.epoch(true, Some(&tqs))).collect()
    }

    /// Query-only training from pre-translated queries (used by the join
    /// estimator, whose queries carry fanout-scaling weights that a plain
    /// [`Query`] cannot express).
    pub fn train_queries_prepared(&mut self, queries: &[TrainQuery], epochs: usize) -> Vec<f32> {
        (0..epochs).map(|_| self.epoch(false, Some(queries))).collect()
    }

    /// Hybrid training from pre-translated queries.
    pub fn train_hybrid_prepared(&mut self, queries: &[TrainQuery], epochs: usize) -> Vec<f32> {
        (0..epochs).map(|_| self.epoch(true, Some(queries))).collect()
    }

    /// Translate a query (in *original* column indices) against this
    /// estimator's — possibly column-reordered — table and schema.
    pub fn translate(&self, query: &Query) -> VirtualQuery {
        let remapped = self.remap_query(query);
        VirtualQuery::build(&self.table, &self.schema, &remapped)
    }

    fn remap_query(&self, query: &Query) -> Query {
        if self.col_remap.iter().enumerate().all(|(i, &p)| i == p) {
            return query.clone();
        }
        Query::new(
            query
                .predicates
                .iter()
                .map(|p| {
                    let mut p = p.clone();
                    p.column = self.col_remap[p.column];
                    p
                })
                .collect(),
        )
    }

    /// Open one estimate call over `n` queries: build the inference
    /// snapshot if needed (mask packing happens here — once per weight
    /// version, never per query), draw one seed per query from the
    /// estimator's stream and reserve `n` serving indices.
    /// Every query takes a seed and an index, sampled or not, so answers do
    /// not depend on how a query stream is split into calls. Returns the
    /// seeds and the first serving index.
    fn open_call(&self, est: &mut EstCache, n: usize) -> (Vec<u64>, u64) {
        if est.raw.is_none() {
            est.raw = Some(self.model.snapshot(&self.store));
        }
        let seeds = (0..n).map(|_| est.rng.next_u64()).collect();
        let base = est.serve.stats.served;
        est.serve.stats.served += n as u64;
        (seeds, base)
    }

    /// One batched sampler attempt over `vqs` (seed `seeds[k]` and serving
    /// index `ids[k]` per query) under `catch_unwind`. When an attempt over
    /// several queries panics, each query re-runs as a batch of one on its
    /// own seed: a query's estimate depends only on (snapshot, query,
    /// budget, seed), never on which queries share its walk, so healthy
    /// queries stay bit-identical while the poisoned one panics again
    /// alone. An attempt over one query is its own isolation. `None` marks
    /// a query whose own attempt panicked.
    fn attempt(
        &self,
        est: &mut EstCache,
        vqs: &[VirtualQuery],
        seeds: &[u64],
        ids: &[u64],
        samples: usize,
    ) -> Vec<Option<f64>> {
        let EstCache { raw, batch, serve, .. } = &mut *est;
        let raw = raw.as_ref().expect("snapshot built by open_call");
        let fault = &self.cfg.serve.fault;
        let run = catch_unwind(AssertUnwindSafe(|| {
            if let Some(idx) = ids.iter().find(|&&i| fault.panics(i)) {
                panic!("uae-serve: fault-plan panic (query {idx})");
            }
            progressive_sample_batch_with(raw, &self.schema, vqs, samples, seeds, batch)
        }));
        if let Ok(sels) = run {
            return sels.into_iter().map(Some).collect();
        }
        serve.stats.panics_isolated += 1;
        let single = (vqs.len() == 1).then(|| ids[0]);
        serve.emit(Event::PanicIsolated { index: single });
        if single.is_some() {
            return vec![None];
        }
        (0..vqs.len())
            .flat_map(|k| {
                let one = k..k + 1;
                self.attempt(est, &vqs[one.clone()], &seeds[one.clone()], &ids[one], samples)
            })
            .collect()
    }

    /// The model tier of the cascade for one sampled query: its first
    /// attempt (`None` when that panicked), then — when `accept` rejects
    /// the value — one retry on the derived seed [`retry_seed`] with a
    /// [`RETRY_BOOST`]× budget, run as a batch of one
    /// through [`Uae::attempt`]. Returns the accepted selectivity, or
    /// `None` after recording a fallback (the caller picks what answers
    /// instead), and whether the retry ran.
    #[allow(clippy::too_many_arguments)]
    fn model_tier(
        &self,
        est: &mut EstCache,
        vq: &VirtualQuery,
        qseed: u64,
        idx: u64,
        first: Option<f64>,
        samples: usize,
        accept: fn(f64) -> bool,
    ) -> (Option<f64>, bool) {
        let fault = &self.cfg.serve.fault;
        // A NaN fault models logits going non-finite mid-walk; a panicked
        // attempt enters the cascade the same way.
        let mut sel = first.filter(|_| !fault.nan_hits(idx, 0)).unwrap_or(f64::NAN);
        let retried = !accept(sel);
        if retried {
            est.serve.stats.retries += 1;
            est.serve.emit(Event::Retry { index: idx, value: sel });
            let boosted = samples.max(1) * RETRY_BOOST;
            let again =
                self.attempt(est, slice::from_ref(vq), &[retry_seed(qseed)], &[idx], boosted);
            sel = again[0].filter(|_| !fault.nan_hits(idx, 1)).unwrap_or(f64::NAN);
        }
        if accept(sel) {
            return (Some(sel), retried);
        }
        est.serve.stats.fallbacks += 1;
        est.serve.emit(Event::Fallback { index: idx, value: sel });
        (None, retried)
    }

    /// Estimate the selectivity of a pre-translated query (supports
    /// [`crate::vquery::StepRegion::Weighted`] fanout scaling): a batch of
    /// one through [`Uae::estimate_vquery_batch`].
    pub fn estimate_vquery(&self, vq: &VirtualQuery) -> f64 {
        self.estimate_vquery_batch(slice::from_ref(vq))[0]
    }

    /// Estimate the selectivities of a batch of pre-translated queries via
    /// the cross-query batched sampler ([`crate::infer_batch`]): queries
    /// advance in lock-step column rounds sharing stacked forwards, the
    /// first-step distribution is memoized per weight snapshot, and sample
    /// rows with identical sampled prefixes share one forward row.
    ///
    /// Each query runs on a private RNG seeded from the estimator's stream,
    /// so any split of a query sequence into calls returns bit-identical
    /// estimates. Panics are isolated per query and a non-finite answer is
    /// retried once, as in [`Uae::try_estimate_cards`]. Fanout-weighted
    /// vqueries have no histogram analogue, and join estimates may
    /// legitimately exceed selectivity 1, so neither the baseline tier nor
    /// the upper clamp applies: a query the retry cannot mend answers `0`.
    pub fn estimate_vquery_batch(&self, vqs: &[VirtualQuery]) -> Vec<f64> {
        let mut est = self.est.lock();
        let est = &mut *est;
        let (seeds, base) = self.open_call(est, vqs.len());
        let ids: Vec<u64> = (base..base + vqs.len() as u64).collect();
        let samples = self.cfg.estimate_samples;
        let firsts = self.attempt(est, vqs, &seeds, &ids, samples);
        vqs.iter()
            .zip(firsts)
            .enumerate()
            .map(|(k, (vq, first))| {
                let (sel, _) =
                    self.model_tier(est, vq, seeds[k], ids[k], first, samples, f64::is_finite);
                sel.map_or(0.0, |s| s.max(0.0))
            })
            .collect()
    }

    /// Estimated selectivities of a batch of queries through the hardened
    /// cascade (the batched counterpart of [`Uae::estimate_selectivity`];
    /// identical estimates under a matched RNG state, computed with far
    /// fewer forward passes). Rejected queries degrade to `0`; use
    /// [`Uae::try_estimate_cards`] for typed errors and provenance.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        self.try_estimate_cards(queries)
            .into_iter()
            .map(|r| r.map_or(0.0, |e| e.selectivity))
            .collect()
    }

    /// Bounds-check a query's columns, remap it into this estimator's
    /// column order, and classify it.
    fn validate(&self, query: &Query) -> Result<(Query, Validation), EstimateError> {
        crate::serve::check_columns(&self.table, query)?;
        let remapped = self.remap_query(query);
        let verdict = crate::serve::classify(&self.table, &remapped);
        Ok((remapped, verdict))
    }

    /// Clamp a final selectivity into `[0, 1]` (a non-finite value, which
    /// can only come from the baseline tier misbehaving, becomes `0`) and
    /// package the estimate.
    fn finish(
        &self,
        idx: u64,
        sel: f64,
        source: EstimateSource,
        retried: bool,
        serve: &mut ServeState,
    ) -> Estimate {
        let (clamped_sel, clamped) = if sel.is_finite() {
            (sel.clamp(0.0, 1.0), !(0.0..=1.0).contains(&sel))
        } else {
            (0.0, true)
        };
        if clamped {
            serve.stats.clamped += 1;
            serve.emit(Event::Clamped { index: idx, raw: sel });
        }
        Estimate {
            selectivity: clamped_sel,
            card: clamped_sel * self.table.num_rows() as f64,
            source,
            retried,
            clamped,
        }
    }

    /// Estimate one query through the hardened serving cascade. Unknown
    /// columns are the only error; every `Ok` estimate is finite with a
    /// cardinality in `[0, N]` and carries its degradation provenance.
    ///
    /// Healthy queries consume the estimator's RNG stream exactly as
    /// [`Uae::estimate_selectivity`] always has (one `u64` per query —
    /// drawn even for rejected and shortcut queries), so a sequence of
    /// calls stays bit-identical to one [`Uae::try_estimate_cards`] call
    /// over the same queries.
    pub fn try_estimate_card(&self, query: &Query) -> Result<Estimate, EstimateError> {
        self.try_estimate_cards_with(slice::from_ref(query), None)
            .pop()
            .expect("one result per query")
    }

    /// Estimate a batch of queries through the hardened serving cascade:
    /// validation (typed rejection, exact empty/trivial shortcuts), one
    /// batched sampler attempt over the remaining queries, per-query panic
    /// isolation, a retry on a derived seed for unhealthy answers, the
    /// histogram baseline, and a final clamp to `[0, N]`.
    ///
    /// A panic anywhere in the batch attempt is isolated by re-running
    /// every sampled query as its own single-query batch on its original
    /// seed: the batched sampler's per-query results do not depend on
    /// which other queries share the batch (matmul rows, softmax rows and
    /// prefix-dedup shares are all row-local), so healthy queries return
    /// results bit-identical to the undisturbed batch while the poisoned
    /// query panics again in isolation and degrades through the cascade.
    pub fn try_estimate_cards(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        self.try_estimate_cards_with(queries, None)
    }

    /// [`Uae::try_estimate_cards`] with an optional per-call progressive-
    /// sample budget override — the entry point the concurrent serving
    /// front-end drives: each micro-batch picks its budget from the
    /// degradation ladder at flush time and the whole batch runs under it.
    /// A budget **below** the configured `estimate_samples` marks sampled
    /// estimates as SLO-degraded ([`EstimateSource::ModelDegraded`],
    /// counted in [`ServeStats::degraded`]); a retry boosts the shrunken
    /// budget. Seed-stream parity with the undegraded paths is preserved
    /// (one `u64` per query, budget-independent).
    pub fn try_estimate_cards_with(
        &self,
        queries: &[Query],
        samples_override: Option<usize>,
    ) -> Vec<Result<Estimate, EstimateError>> {
        let checked: Vec<Result<(Query, Validation), EstimateError>> =
            queries.iter().map(|q| self.validate(q)).collect();
        let mut est = self.est.lock();
        let est = &mut *est;
        let (seeds, base) = self.open_call(est, queries.len());
        // The sampler only sees queries that actually need sampling.
        let (mut vqs, mut sub_seeds, mut ids) = (Vec::new(), Vec::new(), Vec::new());
        for (i, c) in checked.iter().enumerate() {
            if let Ok((remapped, Validation::Sample)) = c {
                vqs.push(VirtualQuery::build(&self.table, &self.schema, remapped));
                sub_seeds.push(seeds[i]);
                ids.push(base + i as u64);
            }
        }
        let samples = samples_override.unwrap_or(self.cfg.estimate_samples).max(1);
        let degraded = samples < self.cfg.estimate_samples;
        let firsts = self.attempt(est, &vqs, &sub_seeds, &ids, samples);
        let mut sampled = vqs.iter().zip(firsts);
        checked
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let idx = base + i as u64;
                let serve = &mut est.serve;
                let remapped = match c {
                    Err(e) => {
                        serve.stats.rejected += 1;
                        serve.emit(Event::QueryRejected { index: idx, error: e.to_string() });
                        return Err(e);
                    }
                    Ok((_, Validation::Empty)) => {
                        serve.stats.validated_empty += 1;
                        serve.emit(Event::ValidationShortcut { index: idx, empty: true });
                        return Ok(self.finish(idx, 0.0, EstimateSource::Validation, false, serve));
                    }
                    Ok((_, Validation::Trivial)) => {
                        serve.stats.validated_trivial += 1;
                        serve.emit(Event::ValidationShortcut { index: idx, empty: false });
                        return Ok(self.finish(idx, 1.0, EstimateSource::Validation, false, serve));
                    }
                    Ok((remapped, Validation::Sample)) => remapped,
                };
                if degraded {
                    serve.stats.degraded += 1;
                    let configured = self.cfg.estimate_samples;
                    serve.emit(Event::Degraded { index: idx, samples, configured });
                }
                let (vq, first) = sampled.next().expect("one attempt per sampled query");
                let (sel, retried) =
                    self.model_tier(est, vq, seeds[i], idx, first, samples, healthy);
                let (sel, source) = match sel {
                    Some(sel) if degraded => (sel, EstimateSource::ModelDegraded),
                    Some(sel) => (sel, EstimateSource::Model),
                    None => {
                        let hist = est.serve.fallback.get_or_insert_with(|| {
                            HistogramEstimator::new(&self.table, FALLBACK_BUCKETS)
                        });
                        (hist.estimate_selectivity(&remapped), EstimateSource::Baseline)
                    }
                };
                Ok(self.finish(idx, sel, source, retried, &mut est.serve))
            })
            .collect()
    }

    /// Snapshot of the cumulative serving counters (validation shortcuts,
    /// retries, fallbacks, isolated panics, clamps).
    pub fn serve_stats(&self) -> ServeStats {
        self.est.lock().serve.stats.clone()
    }

    /// Mutable serving configuration (the fault plan).
    pub fn serve_config_mut(&mut self) -> &mut ServeConfig {
        &mut self.cfg.serve
    }

    /// Attach (or replace) the sink receiving this estimator's [`Event`]s:
    /// the train loop's (per-epoch metrics, skipped steps, rollbacks) and
    /// the estimate paths'. Takes `&self` because serving does.
    pub fn set_sink(&self, sink: Box<dyn Sink>) {
        self.est.lock().serve.sink = Some(sink);
    }

    /// Deterministic fault injection for the online-loop drills: poison
    /// every parameter scalar with NaN and invalidate the inference
    /// snapshot — the shape of a diverged training epoch (the online
    /// analogue of [`crate::train::TrainConfig::inject_nan_steps`]).
    ///
    /// Note the serving cascade does **not** fall back on this fault:
    /// the softmax kernels sanitize non-finite logits to a uniform
    /// distribution, so a diverged model keeps answering with finite
    /// (garbage) estimates. Detecting divergence is the job of
    /// [`Uae::weights_finite`], which the online shadow gate checks
    /// before any promotion.
    pub fn inject_weight_nan(&mut self) {
        let ids: Vec<_> = self.store.ids().collect();
        for id in ids {
            self.store.get_mut(id).data_mut().fill(f32::NAN);
        }
        self.est.lock().raw = None;
    }

    /// Whether every parameter scalar is finite. A `false` here is the
    /// definitive signature of a diverged training epoch: the serving
    /// cascade's uniform-softmax sanitization keeps such a model
    /// *answering*, so q-error margins alone cannot be relied on to
    /// catch it. The online shadow gate rejects any candidate that
    /// fails this check.
    pub fn weights_finite(&self) -> bool {
        self.store.ids().all(|id| self.store.get(id).data().iter().all(|w| w.is_finite()))
    }

    /// Ingest new rows (incremental data, §4.5): append and refine with the
    /// unsupervised loss only.
    pub fn ingest_data(&mut self, new_rows: &Table, epochs: usize) -> Vec<f32> {
        // New rows arrive in *original* column order; apply this model's
        // column permutation before appending.
        let perm: Vec<usize> = {
            let mut inv = vec![0usize; self.col_remap.len()];
            for (orig, &pos) in self.col_remap.iter().enumerate() {
                inv[pos] = orig;
            }
            inv
        };
        let new_rows = new_rows.select_columns(&perm);
        self.table.append(&new_rows);
        for r in 0..new_rows.num_rows() {
            self.rows.push(self.schema.to_virtual_codes(&new_rows.row_codes(r)));
        }
        // The appended rows invalidate the histogram baseline.
        self.est.lock().serve.fallback = None;
        self.train_data(epochs)
    }

    /// Ingest a new query workload (incremental queries, §4.5): refine with
    /// the supervised loss only. The paper finds 10–20 epochs suffice
    /// without catastrophic forgetting.
    pub fn ingest_workload(&mut self, workload: &[LabeledQuery], epochs: usize) -> Vec<f32> {
        self.train_queries(workload, epochs)
    }

    /// One epoch over the data (and/or workload). Returns the mean loss of
    /// the *executed* steps (skipped and empty steps contribute neither
    /// loss nor weight — counting them would deflate the reported loss).
    fn epoch(&mut self, use_data: bool, queries: Option<&[TrainQuery]>) -> f32 {
        let t0 = Instant::now();
        let tc = self.cfg.train.clone();
        let epoch_idx = self.stats.epochs;
        let steps = if use_data {
            self.rows.len().div_ceil(tc.batch_size).max(1)
        } else {
            queries.map_or(1, |q| q.len().div_ceil(tc.query_batch).max(1))
        };
        // The rollback target: on the first epoch of a run the entry state
        // is the last trusted one; it is then refreshed after every clean
        // epoch.
        if self.guard.snapshot.is_none() {
            self.guard.snapshot =
                Some(GoodState { store: self.store.clone(), adam: self.opt.state() });
        }
        // Shuffled row order for data batches.
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        if use_data {
            shuffle(&mut order, &mut self.rng);
        }
        // Shuffled full pass over the training queries (Alg. 3 minibatch
        // semantics — every query participates each epoch).
        let mut cycler = match queries {
            Some(tqs) if !tqs.is_empty() => Some(QueryCycler::new(tqs.len(), &mut self.rng)),
            _ => None,
        };
        let (mut total, mut data_total, mut query_total, mut norm_total) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut executed, mut data_steps, mut query_steps) = (0u64, 0u64, 0u64);
        let (mut skipped, mut clipped, mut rollbacks) = (0u64, 0u64, 0u64);
        // One tape workspace serves every step of the epoch: node buffers
        // are reset (not freed) between steps, so after the first step the
        // graph build allocates no tensors for recurring batch shapes.
        let mut ws = TapeWorkspace::new();
        for step in 0..steps {
            let data_batch: Option<Vec<Vec<u32>>> = if use_data && !self.rows.is_empty() {
                let lo = (step * tc.batch_size) % self.rows.len();
                let hi = (lo + tc.batch_size).min(self.rows.len());
                Some(order[lo..hi].iter().map(|&r| self.rows[r].clone()).collect())
            } else {
                None
            };
            let query_batch: Option<Vec<TrainQuery>> = match (&mut cycler, queries) {
                (Some(c), Some(tqs)) => {
                    let k = tc.query_batch.min(tqs.len());
                    Some(
                        c.next_batch(k, &mut self.rng)
                            .into_iter()
                            .map(|i| tqs[i].clone())
                            .collect(),
                    )
                }
                _ => None,
            };
            let global_step = self.stats.steps;
            match self.step(data_batch.as_deref(), query_batch.as_deref(), &tc, &mut ws) {
                StepOutcome::Empty => {}
                StepOutcome::Skipped { loss } => {
                    skipped += 1;
                    self.stats.skipped_steps += 1;
                    self.guard.bad_streak += 1;
                    self.emit(Event::StepSkipped { epoch: epoch_idx, step: global_step, loss });
                    if tc.max_bad_steps > 0 && self.guard.bad_streak >= tc.max_bad_steps {
                        self.rollback();
                        rollbacks += 1;
                        self.emit(Event::Rollback {
                            epoch: epoch_idx,
                            step: global_step,
                            lr: self.cfg.train.lr,
                        });
                    }
                }
                StepOutcome::Applied { loss, data_loss, query_loss, grad_norm, clipped: clip } => {
                    executed += 1;
                    self.stats.executed_steps += 1;
                    self.guard.bad_streak = 0;
                    total += loss as f64;
                    if let Some(dl) = data_loss {
                        data_total += dl as f64;
                        data_steps += 1;
                    }
                    if let Some(ql) = query_loss {
                        query_total += ql as f64;
                        query_steps += 1;
                    }
                    norm_total += grad_norm as f64;
                    if clip {
                        clipped += 1;
                        self.stats.clipped_steps += 1;
                    }
                }
            }
        }
        self.est.lock().raw = None; // invalidate inference snapshot
        self.stats.epochs += 1;
        let mean = if executed > 0 { (total / executed as f64) as f32 } else { 0.0 };
        self.emit(Event::Epoch(EpochMetrics {
            epoch: epoch_idx,
            steps: steps as u64,
            executed_steps: executed,
            skipped_steps: skipped,
            clipped_steps: clipped,
            rollbacks,
            loss: mean,
            data_loss: (data_steps > 0).then(|| (data_total / data_steps as f64) as f32),
            query_loss: (query_steps > 0).then(|| (query_total / query_steps as f64) as f32),
            grad_norm: if executed > 0 { (norm_total / executed as f64) as f32 } else { 0.0 },
            lr: self.cfg.train.lr,
            wall_s: t0.elapsed().as_secs_f64(),
        }));
        // A clean epoch becomes the new rollback target.
        if executed > 0 && skipped == 0 && mean.is_finite() {
            self.guard.snapshot =
                Some(GoodState { store: self.store.clone(), adam: self.opt.state() });
        }
        mean
    }

    /// One SGD step; either loss may be absent. Non-finite losses or
    /// gradients never reach the weights: the update is skipped and the
    /// divergence guard notified via the return value.
    fn step(
        &mut self,
        data_batch: Option<&[Vec<u32>]>,
        query_batch: Option<&[TrainQuery]>,
        tc: &TrainConfig,
        ws: &mut TapeWorkspace,
    ) -> StepOutcome {
        let global_step = self.stats.steps;
        self.stats.steps += 1;
        let mut grads = GradStore::zeros_like(&self.store);
        let loss_value;
        let mut data_value = None;
        let mut query_value = None;
        {
            let mut tape = Tape::with_workspace(&self.store, ws);
            let mut loss = None;
            if let Some(rows) = data_batch {
                if !rows.is_empty() {
                    let ld = data_loss(
                        &mut tape,
                        &self.model,
                        &self.schema,
                        rows,
                        tc.wildcard_prob,
                        &mut self.rng,
                    );
                    data_value = Some(tape.value(ld).scalar_value());
                    loss = Some(ld);
                }
            }
            if let Some(batch) = query_batch {
                if !batch.is_empty() {
                    let ql = query_loss(
                        &mut tape,
                        &self.model,
                        &self.schema,
                        batch,
                        &tc.dps,
                        &mut self.rng,
                    );
                    query_value = Some(tape.value(ql).scalar_value());
                    loss = Some(match loss {
                        // Hybrid: L_data + λ L_query (Eq. 11).
                        Some(ld) => {
                            let scaled = tape.mul_scalar(ql, tc.lambda);
                            tape.add(ld, scaled)
                        }
                        // Query-only training (UAE-Q) uses the raw query loss.
                        None => ql,
                    });
                }
            }
            let Some(loss) = loss else { return StepOutcome::Empty };
            loss_value = tape.value(loss).scalar_value();
            tape.backward(loss, &mut grads);
        }
        let loss_value =
            if tc.inject_nan_steps.contains(&global_step) { f32::NAN } else { loss_value };
        let norm = grads.l2_norm();
        if !loss_value.is_finite() || !norm.is_finite() {
            return StepOutcome::Skipped { loss: loss_value };
        }
        let clipped = match clip_scale(norm) {
            Some(scale) => {
                grads.scale(scale);
                true
            }
            None => false,
        };
        self.opt.step(&mut self.store, &grads);
        StepOutcome::Applied {
            loss: loss_value,
            data_loss: data_value,
            query_loss: query_value,
            grad_norm: norm,
            clipped,
        }
    }

    /// Restore the last known-good weights and optimizer state, then back
    /// the learning rate off by [`LR_BACKOFF`] — the escape hatch when
    /// successive steps keep producing non-finite losses.
    fn rollback(&mut self) {
        if let Some(snap) = &self.guard.snapshot {
            self.store = snap.store.clone();
            self.opt.restore(snap.adam.clone());
        }
        let lr = self.cfg.train.lr * LR_BACKOFF;
        self.cfg.train.lr = lr;
        self.opt.set_lr(lr);
        self.guard.bad_streak = 0;
        self.stats.rollbacks += 1;
    }

    /// Forward a train-loop event to the attached sink, if any.
    fn emit(&mut self, event: Event) {
        self.est.get_mut().serve.emit(event);
    }

    /// Serialize the trained weights (format: `UAEW`, see
    /// [`crate::serialize`]).
    pub fn save_weights(&self) -> Vec<u8> {
        crate::serialize::save_params(&self.store)
    }

    /// Load weights produced by [`Uae::save_weights`] from an estimator
    /// with the identical architecture.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), LoadError> {
        crate::serialize::load_params(&mut self.store, bytes)?;
        // The loaded weights are the new trusted state; stale rollback
        // snapshots must not resurrect the previous ones.
        self.guard = DivergenceGuard::default();
        self.est.lock().raw = None;
        Ok(())
    }

    /// Serialize the **full trainer state** (format `UAEC`, see
    /// [`crate::serialize`]): weights, Adam moments and step count, both
    /// RNG streams, the current learning rate, and the epoch/step cursor.
    /// Restoring into a freshly constructed estimator (same table, same
    /// [`UaeConfig`]) and continuing training is bit-identical to never
    /// having stopped — weights persisted alone ([`Uae::save_weights`])
    /// cannot give that guarantee, because the optimizer re-warms its
    /// moments from zero and the RNG streams restart.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let adam = self.opt.state();
        let mut bytes = crate::serialize::save_checkpoint(&CheckpointState {
            weights: crate::serialize::save_params(&self.store),
            adam_t: adam.t,
            adam_m: adam.m,
            adam_v: adam.v,
            lr: self.opt.lr(),
            rng: self.rng.state(),
            est_rng: self.est.lock().rng.state(),
            stats: self.stats.clone(),
        });
        // Deterministic fault injection: XOR one byte of the serialized
        // blob so reload exercises the typed corruption errors end to end.
        if let Some((offset, mask)) = self.cfg.serve.fault.corrupt_checkpoint {
            if mask != 0 && !bytes.is_empty() {
                let off = offset % bytes.len();
                bytes[off] ^= mask;
            }
        }
        bytes
    }

    /// Restore a checkpoint produced by [`Uae::save_checkpoint`] into an
    /// estimator constructed with the identical table and configuration.
    /// Every section is validated (magic, version, weight names/shapes,
    /// Adam moment shapes) before any state is touched.
    pub fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), LoadError> {
        let ck = crate::serialize::load_checkpoint(bytes)?;
        // Validate the moments against the architecture up front — the
        // weight load below validates the weights the same way.
        if !ck.adam_m.is_empty() {
            if ck.adam_m.len() != self.store.len() {
                return Err(LoadError::ShapeMismatch(format!(
                    "checkpoint has {} Adam moments, model has {} parameters",
                    ck.adam_m.len(),
                    self.store.len()
                )));
            }
            for (id, m) in self.store.ids().zip(&ck.adam_m) {
                if m.shape() != self.store.get(id).shape() {
                    return Err(LoadError::ShapeMismatch(format!(
                        "Adam moment for `{}`: checkpoint {:?}, model {:?}",
                        self.store.name(id),
                        m.shape(),
                        self.store.get(id).shape()
                    )));
                }
            }
        }
        crate::serialize::load_params(&mut self.store, &ck.weights)?;
        self.opt.restore(AdamState { t: ck.adam_t, m: ck.adam_m, v: ck.adam_v });
        self.opt.set_lr(ck.lr);
        self.cfg.train.lr = ck.lr;
        self.rng = StdRng::from_state(ck.rng);
        self.stats = ck.stats;
        self.guard = DivergenceGuard::default();
        let mut est = self.est.lock();
        est.raw = None;
        est.rng = StdRng::from_state(ck.est_rng);
        Ok(())
    }

    /// Atomically persist a checkpoint to `path`: write + fsync a sibling
    /// temp file, rename, fsync the parent directory. A crash mid-write
    /// leaves the previous checkpoint intact, never a truncated file.
    pub fn write_checkpoint_file(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::persist::PersistError> {
        crate::persist::persist_bytes(path, &self.save_checkpoint(), None)
    }

    /// Restore from a file written by [`Uae::write_checkpoint_file`].
    pub fn load_checkpoint_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.load_checkpoint(&bytes)?;
        Ok(())
    }

    /// Cumulative training counters: the epoch/step cursor plus executed /
    /// clipped / skipped / rollback tallies. Carried through checkpoints.
    pub fn train_stats(&self) -> &TrainStats {
        &self.stats
    }

    /// Estimated selectivity of a query, through the hardened cascade
    /// (validation shortcuts, retry, baseline fallback, clamping).
    /// Rejected queries degrade to `0`; use [`Uae::try_estimate_card`] for
    /// the typed error and degradation provenance.
    pub fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.try_estimate_card(query).map_or(0.0, |e| e.selectivity)
    }

    /// Estimated selectivity of a **disjunction** of conjunctive queries
    /// via inclusion-exclusion (paper §3): `P(∪ q_i) = Σ_{S≠∅} (-1)^{|S|+1}
    /// P(∧_{i∈S} q_i)`. Exponential in the number of disjuncts; intended
    /// for the small `OR` lists real predicates produce (≤ ~6).
    pub fn estimate_disjunction_selectivity(&self, disjuncts: &[Query]) -> f64 {
        assert!(!disjuncts.is_empty(), "empty disjunction");
        assert!(disjuncts.len() <= 12, "inclusion-exclusion over too many disjuncts");
        let mut total = 0.0f64;
        for mask in 1u32..(1 << disjuncts.len()) {
            let mut conj = Query::default();
            for (i, q) in disjuncts.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    conj = conj.and(q);
                }
            }
            let sign = if mask.count_ones() % 2 == 1 { 1.0 } else { -1.0 };
            total += sign * self.estimate_selectivity(&conj);
        }
        total.clamp(0.0, 1.0)
    }

    /// Estimated cardinality of a disjunction of conjunctive queries.
    pub fn estimate_disjunction_card(&self, disjuncts: &[Query]) -> f64 {
        self.estimate_disjunction_selectivity(disjuncts) * self.table.num_rows() as f64
    }
}

impl Clone for Uae {
    /// Deep copy: the clone trains and estimates independently (fresh
    /// inference cache). Used by the hyper-parameter studies to branch
    /// several refinements off one pretrained model.
    fn clone(&self) -> Self {
        Uae {
            name: self.name.clone(),
            table: self.table.clone(),
            col_remap: self.col_remap.clone(),
            schema: self.schema.clone(),
            model: self.model.clone(),
            store: self.store.clone(),
            rows: self.rows.clone(),
            cfg: self.cfg.clone(),
            opt: self.opt.clone(),
            // StdRng is not `Clone` in this rand version; reseed
            // deterministically instead — the clone is used to branch
            // *independent* refinements, not to replay streams.
            rng: StdRng::seed_from_u64(self.cfg.train.seed ^ 0xb4a),
            est: Mutex::new(EstCache {
                raw: None,
                rng: StdRng::seed_from_u64(self.cfg.train.seed ^ 0xc10e),
                batch: BatchScratch::new(),
                // Serving counters, baseline and sink are per-run
                // concerns too; the clone starts a fresh serving history
                // (its fault plan, part of `cfg`, is inherited).
                serve: ServeState::default(),
            }),
            stats: self.stats.clone(),
            // Divergence snapshots are per-run concerns; a branched
            // refinement starts with a clean guard.
            guard: DivergenceGuard::default(),
        }
    }
}

fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

impl CardEstimator for Uae {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_rows(&self) -> f64 {
        self.table.num_rows() as f64
    }

    /// Routes through the hardened serving cascade (validation, retry,
    /// baseline fallback, clamping) — same as the inherent
    /// [`Uae::estimate_selectivity`].
    fn estimate_selectivity(&self, query: &Query) -> f64 {
        self.try_estimate_card(query).map_or(0.0, |e| e.selectivity)
    }

    fn estimate_card(&self, query: &Query) -> f64 {
        self.try_estimate_card(query).map_or(0.0, |e| e.card)
    }

    fn estimate_cards(&self, queries: &[Query]) -> Vec<f64> {
        self.try_estimate_cards(queries).into_iter().map(|r| r.map_or(0.0, |e| e.card)).collect()
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    fn family(&self) -> EstimatorFamily {
        EstimatorFamily::Autoregressive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uae_data::census_like;
    use uae_query::{evaluate, generate_workload, WorkloadSpec};

    fn quick_cfg() -> UaeConfig {
        UaeConfig {
            model: ResMadeConfig { hidden: 32, blocks: 1, seed: 5 },
            factor_threshold: usize::MAX,
            order: crate::ordering::ColumnOrder::Natural,
            encoding: crate::encoding::EncodingMode::Binary,
            train: TrainConfig {
                batch_size: 128,
                query_batch: 8,
                dps: crate::dps::DpsConfig { tau: 1.0, samples: 8 },
                ..TrainConfig::default()
            },
            estimate_samples: 100,
            serve: ServeConfig::default(),
        }
    }

    #[test]
    fn clip_scale_guards_non_finite_norms() {
        // The original predicate `norm > clip` is false for NaN, which
        // applied NaN gradients *unclipped*; the guard must refuse them.
        assert_eq!(clip_scale(f32::NAN), None);
        assert_eq!(clip_scale(f32::INFINITY), None);
        assert_eq!(clip_scale(f32::NEG_INFINITY), None);
        // Finite norms clip exactly as before (GRAD_CLIP = 8).
        assert_eq!(clip_scale(16.0), Some(0.5));
        assert_eq!(clip_scale(4.0), None);
        assert_eq!(clip_scale(8.0), None);
    }

    #[test]
    fn query_cycler_covers_every_query_each_pass() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 23;
        let batch = 4;
        let mut c = QueryCycler::new(n, &mut rng);
        // One full pass (⌈n/batch⌉ batches) must visit every index at
        // least once — with-replacement draws routinely miss ~35% of them.
        let mut seen = HashSet::new();
        let mut first_pass = Vec::new();
        for _ in 0..n.div_ceil(batch) {
            for i in c.next_batch(batch, &mut rng) {
                seen.insert(i);
                first_pass.push(i);
            }
        }
        assert_eq!(seen.len(), n, "a pass must cover all {n} queries");
        // Before a reshuffle kicks in (the first n draws), no duplicates.
        let prefix: HashSet<usize> = first_pass[..n].iter().copied().collect();
        assert_eq!(prefix.len(), n, "within a pass every query appears exactly once");
        // Seeded determinism: an identical cycler replays the same batches.
        let mut rng2 = StdRng::seed_from_u64(9);
        let mut c2 = QueryCycler::new(n, &mut rng2);
        let mut replay = Vec::new();
        for _ in 0..n.div_ceil(batch) {
            replay.extend(c2.next_batch(batch, &mut rng2));
        }
        assert_eq!(first_pass, replay);
    }

    #[test]
    fn uae_d_learns_a_small_table() {
        let t = census_like(1500, 3);
        let mut uae = Uae::new(&t, quick_cfg()).with_name("Naru");
        let losses = uae.train_data(4);
        assert!(losses.last().unwrap() < &(losses[0] * 0.9), "data loss should drop: {losses:?}");
        let w = generate_workload(&t, &WorkloadSpec::random(25, 7), &HashSet::new());
        let ev = evaluate(&uae, &w);
        assert!(ev.errors.median < 4.0, "median q-error {}", ev.errors.median);
        assert_eq!(ev.name, "Naru");
        assert!(uae.size_bytes() > 1000);
    }

    #[test]
    fn hybrid_training_improves_in_workload_accuracy() {
        let t = census_like(1500, 4);
        let col = uae_query::default_bounded_column(&t);
        let train_w =
            generate_workload(&t, &WorkloadSpec::in_workload(col, 60, 11), &HashSet::new());
        let excl = uae_query::fingerprints(&train_w);
        let test_w = generate_workload(&t, &WorkloadSpec::in_workload(col, 20, 12), &excl);

        let mut uae = Uae::new(&t, quick_cfg());
        uae.train_hybrid(&train_w, 3);
        let ev = evaluate(&uae, &test_w);
        // An untrained model is off by orders of magnitude; a briefly
        // hybrid-trained one should already be in a sane band.
        assert!(ev.errors.median < 8.0, "median q-error {}", ev.errors.median);
    }

    #[test]
    fn uae_q_trains_from_queries_alone() {
        let t = census_like(1200, 5);
        let col = uae_query::default_bounded_column(&t);
        let w = generate_workload(&t, &WorkloadSpec::in_workload(col, 40, 21), &HashSet::new());
        let mut uae = Uae::new(&t, quick_cfg()).with_name("UAE-Q");
        let losses = uae.train_queries(&w, 4);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "query loss should drop: {losses:?}"
        );
    }

    #[test]
    fn ingest_data_extends_table() {
        let t = census_like(600, 6);
        let extra = t.take_rows(&(0..100).collect::<Vec<_>>());
        let mut uae = Uae::new(&t, quick_cfg());
        uae.train_data(1);
        uae.ingest_data(&extra, 1);
        assert_eq!(uae.table().num_rows(), 700);
    }

    #[test]
    fn estimates_are_nonnegative_and_bounded() {
        let t = census_like(800, 8);
        let uae = Uae::new(&t, quick_cfg());
        let w = generate_workload(&t, &WorkloadSpec::random(10, 3), &HashSet::new());
        for lq in &w {
            let card = uae.estimate_card(&lq.query);
            assert!(card >= 0.0 && card <= t.num_rows() as f64 + 1e-6, "card {card}");
        }
    }
}
