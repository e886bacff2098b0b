//! Telemetry: one [`Event`] stream for every loop — training (Alg. 3),
//! serving, online learning (§4.5) and cold-start recovery — consumed
//! through one [`Sink`] trait: [`MemorySink`] for tests, [`JsonlSink`] for
//! offline analysis (`--metrics-out` in the bench binaries and drills).
//! Hybrid training runs for hours at paper scale and serving must explain
//! every degraded answer, so both report without a debugger attached.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Cumulative counters over the lifetime of one trainer (checkpointed, so
/// a resumed run continues the same step/epoch cursor).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Completed epochs.
    pub epochs: u64,
    /// Attempted optimizer steps (including skipped and empty ones) — the
    /// global step cursor.
    pub steps: u64,
    /// Steps whose update was actually applied.
    pub executed_steps: u64,
    /// Executed steps whose gradient was norm-clipped.
    pub clipped_steps: u64,
    /// Steps skipped because the loss or gradient was non-finite.
    pub skipped_steps: u64,
    /// Divergence rollbacks (restore last-good snapshot + LR backoff).
    pub rollbacks: u64,
}

/// Everything one epoch reports.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMetrics {
    /// Global 0-based epoch index (survives checkpoint/resume).
    pub epoch: u64,
    /// Steps attempted this epoch.
    pub steps: u64,
    /// Steps whose update was applied this epoch.
    pub executed_steps: u64,
    /// Steps skipped this epoch (non-finite loss/gradient).
    pub skipped_steps: u64,
    /// Executed steps that were gradient-clipped this epoch.
    pub clipped_steps: u64,
    /// Rollbacks triggered this epoch.
    pub rollbacks: u64,
    /// Mean combined loss over *executed* steps (`L_data + λ·L_query`).
    pub loss: f32,
    /// Mean unsupervised data loss over executed data steps, when data
    /// training is active.
    pub data_loss: Option<f32>,
    /// Mean supervised query loss (unscaled by λ) over executed query
    /// steps, when query training is active.
    pub query_loss: Option<f32>,
    /// Mean pre-clip gradient L2 norm over executed steps.
    pub grad_norm: f32,
    /// Learning rate at epoch end (backoff may lower it mid-epoch).
    pub lr: f32,
    /// Wall-clock seconds spent in the epoch.
    pub wall_s: f64,
}

/// Cumulative serving-side counters: every validation shortcut, retry,
/// baseline fallback, isolated panic and clamp over the lifetime of one
/// estimator. The serving analogue of [`TrainStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries served (every entry through the cascade, including
    /// rejected ones) — the serving-index cursor fault plans key on.
    pub served: u64,
    /// Queries rejected with a typed error (unknown column).
    pub rejected: u64,
    /// Validation shortcuts to an exact `0` (empty region).
    pub validated_empty: u64,
    /// Validation shortcuts to an exact `1` (trivial/full-wildcard).
    pub validated_trivial: u64,
    /// Unhealthy first attempts retried on a derived RNG substream.
    pub retries: u64,
    /// Queries degraded to the histogram baseline (or to `0` on the
    /// vquery paths, which have no baseline).
    pub fallbacks: u64,
    /// Panics caught and isolated (batch attempts plus per-query reruns).
    pub panics_isolated: u64,
    /// Final selectivities that had to be clamped into `[0, 1]` (or
    /// replaced because they were non-finite).
    pub clamped: u64,
    /// Sampled queries answered under a shrunken progressive-sample budget
    /// (latency-SLO degradation: the serving front-end trades accuracy for
    /// queue drain under load; results carry
    /// [`crate::serve::EstimateSource::ModelDegraded`]).
    pub degraded: u64,
}

/// Why the serving front-end closed a micro-batch and handed it to an
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The pending batch reached `max_batch`.
    Size,
    /// The oldest pending request reached `max_delay`.
    Deadline,
    /// The lane had no batch in flight, so its executor would otherwise
    /// sit idle (work-conserving batching).
    Idle,
    /// The server is shutting down and drained whatever was pending.
    Drain,
}

impl FlushReason {
    /// Stable lowercase label (used in JSONL telemetry and stats keys).
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Idle => "idle",
            FlushReason::Drain => "drain",
        }
    }
}

impl std::fmt::Display for FlushReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One telemetry event. Each variant is named after the `"event"` tag of
/// its JSONL line. Model serving events carry `index`, the query's serving
/// index — the value of the model's served-query counter when the query
/// arrived; front-end events (`Routed`, `RequestServed`) carry the
/// server-wide request id instead. Online events carry `t_ns`, the loop's nanosecond clock
/// supplied by the caller of [`crate::online::OnlineTrainer::round`], so
/// tests drive it from a mock clock and replays stamp identical times.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An epoch finished.
    Epoch(EpochMetrics),
    /// A step produced a non-finite loss or gradient and was skipped
    /// (weights untouched).
    StepSkipped {
        /// Global epoch index.
        epoch: u64,
        /// Global step cursor of the skipped step.
        step: u64,
        /// The offending loss value (NaN/∞, or finite when only the
        /// gradient norm overflowed).
        loss: f32,
    },
    /// Too many consecutive bad steps: weights and optimizer state were
    /// restored from the last known-good snapshot and the learning rate
    /// backed off.
    Rollback {
        /// Global epoch index.
        epoch: u64,
        /// Global step cursor at the rollback.
        step: u64,
        /// Learning rate after backoff.
        lr: f32,
    },
    /// A query was rejected before any model work.
    QueryRejected {
        /// Serving index of the rejected query.
        index: u64,
        /// Rendered [`crate::serve::EstimateError`].
        error: String,
    },
    /// Validation answered exactly without sampling.
    ValidationShortcut {
        /// Serving index.
        index: u64,
        /// `true` for an empty region (→ 0), `false` for a trivial one
        /// (→ 1).
        empty: bool,
    },
    /// The first attempt was unhealthy; a retry ran on a derived
    /// substream with a boosted sample budget.
    Retry {
        /// Serving index.
        index: u64,
        /// The unhealthy value that triggered the retry (NaN for a
        /// panicked attempt).
        value: f64,
    },
    /// A sampling panic was caught. `index` is `None` when a whole batch
    /// attempt panicked (before the culprit was identified by per-query
    /// reruns).
    PanicIsolated {
        /// Serving index of the panicking query, when known.
        index: Option<u64>,
    },
    /// The retry was still unhealthy; the baseline answered.
    Fallback {
        /// Serving index.
        index: u64,
        /// The unhealthy value being replaced.
        value: f64,
    },
    /// The final selectivity was clamped into `[0, 1]`.
    Clamped {
        /// Serving index.
        index: u64,
        /// The raw pre-clamp value.
        raw: f64,
    },
    /// A sampled query ran under a shrunken sample budget (latency-SLO
    /// degradation requested by the serving front-end).
    Degraded {
        /// Serving index.
        index: u64,
        /// The shrunken per-query sample budget actually used.
        samples: usize,
        /// The configured (undegraded) budget.
        configured: usize,
    },
    /// The concurrent front-end closed a micro-batch and handed it to an
    /// executor.
    BatchFlushed {
        /// Monotonic batch sequence number (per server).
        batch: u64,
        /// Tenant the batch belongs to.
        tenant: String,
        /// Number of requests in the batch.
        size: usize,
        /// What closed the batch.
        reason: FlushReason,
        /// Requests still queued (submitted, not yet executed) at flush.
        queue_depth: usize,
    },
    /// A fleet backend, chosen by the tenant's routing policy, answered
    /// the request instead of the deep model. Emitted only by the serving
    /// front-end, and only for backend-served replies (never for a
    /// validation shortcut).
    Routed {
        /// Server-wide request sequence number (the request's
        /// `Ticket::id`).
        index: u64,
        /// Name of the backend that answered (e.g. `"DeepDB"`).
        backend: String,
        /// Stable family label of the backend (e.g. `"spn"`).
        family: &'static str,
        /// Discretized query-shape class id the decision keyed on.
        class: u16,
    },
    /// One request finished its trip through the concurrent front-end.
    RequestServed {
        /// Server-wide request sequence number.
        index: u64,
        /// Tenant that served it.
        tenant: String,
        /// Milliseconds spent queued and in a forming batch.
        queue_ms: f64,
        /// Milliseconds the executor spent on the batch containing it.
        execute_ms: f64,
    },
    /// An online training round ran incremental epochs on the private
    /// branch.
    OnlineTrained {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// Labeled queries drained into supervised epochs.
        queries: usize,
        /// Staged drift rows ingested into unsupervised epochs.
        rows: usize,
    },
    /// The shadow gate scored a candidate against the live model.
    OnlineGated {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// Holdout queries both models were scored on.
        evaluated: usize,
        /// Candidate median q-error on the holdout.
        candidate_median: f64,
        /// Candidate p95 q-error on the holdout.
        candidate_p95: f64,
        /// Baseline fallbacks the candidate's shadow clone needed (any
        /// fallback marks the candidate unhealthy).
        candidate_fallbacks: u64,
        /// Live-model median q-error on the same holdout.
        live_median: f64,
        /// Live-model p95 q-error on the same holdout.
        live_p95: f64,
        /// Verdict (stable label of [`crate::online::GateDecision`]).
        decision: String,
    },
    /// The gate passed: a new model version is ready to swap in.
    OnlinePromoted {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// Version the candidate was published as.
        version: u64,
        /// Size of the versioned `UAEC` checkpoint.
        checkpoint_bytes: usize,
    },
    /// The gate failed: the candidate was discarded and the branch
    /// restored to its last promoted state.
    OnlineRejected {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// Verdict (stable label of [`crate::online::GateDecision`]).
        decision: String,
    },
    /// Post-promotion regression: the previously live version was
    /// republished.
    OnlineRolledBack {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// Version the rollback was published as.
        version: u64,
        /// The version whose model was restored.
        restored_version: u64,
    },
    /// The gate passed but the write-ahead persistence sequence (intent →
    /// checkpoint → commit) failed, so the promotion was withheld: a
    /// version the journal cannot prove committed would silently vanish
    /// on recovery.
    OnlinePersistFailed {
        /// Round counter.
        round: u64,
        /// Loop clock at the round.
        t_ns: u64,
        /// The version that failed to persist (not published).
        version: u64,
        /// Rendered [`crate::persist::PersistError`].
        error: String,
    },
    /// Cold-start recovery (the `uae-server` recovery module) began
    /// scanning a state directory.
    RecoveryStarted {
        /// The state directory being recovered.
        dir: String,
    },
    /// A corrupt or untrusted artifact was renamed aside (never deleted).
    RecoveryQuarantined {
        /// The quarantined file's *new* path.
        path: String,
        /// Why it was distrusted (torn journal tail, checksum mismatch,
        /// uncommitted intent, ...).
        reason: String,
    },
    /// One tenant's last provably-good version was republished.
    RecoveryTenant {
        /// The tenant.
        tenant: String,
        /// The version restored.
        version: u64,
        /// Where the version was proven: `journal`, `manifest`, or `seed`
        /// (nothing recoverable — fresh model at version 0).
        source: String,
        /// Artifacts quarantined while walking this tenant's candidates.
        quarantined: usize,
    },
    /// Recovery finished and the manifest was rewritten.
    RecoveryFinished {
        /// Tenants republished.
        tenants: usize,
        /// Total artifacts quarantined.
        quarantined: usize,
        /// Whether the journal had a torn tail.
        journal_torn: bool,
        /// Wall-clock recovery time (the unavailability window), measured
        /// by the recovery driver.
        ms: f64,
    },
}

/// A JSON value in a rendered event line.
enum Value<'a> {
    Int(u64),
    /// Rendered as `null` when non-finite (raw JSON has no NaN or ∞).
    Float(f64),
    Str(&'a str),
    Bool(bool),
    Null,
}

impl Event {
    /// The `"event"` tag of the event's JSONL line: its variant name in
    /// snake_case.
    fn kind(&self) -> &'static str {
        match self {
            Event::Epoch(_) => "epoch",
            Event::StepSkipped { .. } => "step_skipped",
            Event::Rollback { .. } => "rollback",
            Event::QueryRejected { .. } => "query_rejected",
            Event::ValidationShortcut { .. } => "validation_shortcut",
            Event::Retry { .. } => "retry",
            Event::PanicIsolated { .. } => "panic_isolated",
            Event::Fallback { .. } => "fallback",
            Event::Clamped { .. } => "clamped",
            Event::Degraded { .. } => "degraded",
            Event::BatchFlushed { .. } => "batch_flushed",
            Event::Routed { .. } => "routed",
            Event::RequestServed { .. } => "request_served",
            Event::OnlineTrained { .. } => "online_trained",
            Event::OnlineGated { .. } => "online_gated",
            Event::OnlinePromoted { .. } => "online_promoted",
            Event::OnlineRejected { .. } => "online_rejected",
            Event::OnlineRolledBack { .. } => "online_rolled_back",
            Event::OnlinePersistFailed { .. } => "online_persist_failed",
            Event::RecoveryStarted { .. } => "recovery_started",
            Event::RecoveryQuarantined { .. } => "recovery_quarantined",
            Event::RecoveryTenant { .. } => "recovery_tenant",
            Event::RecoveryFinished { .. } => "recovery_finished",
        }
    }

    /// The event's fields in line order, after the leading `"event"` and
    /// `"model"` keys. `f32` fields widen to `f64`.
    fn fields(&self) -> Vec<(&'static str, Value<'_>)> {
        use Value::{Bool, Float, Int, Null, Str};
        let n = |x: usize| Int(x as u64);
        match self {
            Event::Epoch(m) => vec![
                ("epoch", Int(m.epoch)),
                ("steps", Int(m.steps)),
                ("executed_steps", Int(m.executed_steps)),
                ("skipped_steps", Int(m.skipped_steps)),
                ("clipped_steps", Int(m.clipped_steps)),
                ("rollbacks", Int(m.rollbacks)),
                ("loss", Float(m.loss as f64)),
                ("data_loss", m.data_loss.map_or(Null, |x| Float(x as f64))),
                ("query_loss", m.query_loss.map_or(Null, |x| Float(x as f64))),
                ("grad_norm", Float(m.grad_norm as f64)),
                ("lr", Float(m.lr as f64)),
                ("wall_s", Float(m.wall_s)),
            ],
            Event::StepSkipped { epoch, step, loss } => {
                vec![("epoch", Int(*epoch)), ("step", Int(*step)), ("loss", Float(*loss as f64))]
            }
            Event::Rollback { epoch, step, lr } => {
                vec![("epoch", Int(*epoch)), ("step", Int(*step)), ("lr", Float(*lr as f64))]
            }
            Event::QueryRejected { index, error } => {
                vec![("query", Int(*index)), ("error", Str(error))]
            }
            Event::ValidationShortcut { index, empty } => {
                vec![("query", Int(*index)), ("empty", Bool(*empty))]
            }
            Event::Retry { index, value } => vec![("query", Int(*index)), ("value", Float(*value))],
            Event::PanicIsolated { index } => vec![("query", index.map_or(Null, Int))],
            Event::Fallback { index, value } => {
                vec![("query", Int(*index)), ("value", Float(*value))]
            }
            Event::Clamped { index, raw } => vec![("query", Int(*index)), ("raw", Float(*raw))],
            Event::Degraded { index, samples, configured } => vec![
                ("query", Int(*index)),
                ("samples", n(*samples)),
                ("configured", n(*configured)),
            ],
            Event::BatchFlushed { batch, tenant, size, reason, queue_depth } => vec![
                ("batch", Int(*batch)),
                ("tenant", Str(tenant)),
                ("size", n(*size)),
                ("reason", Str(reason.label())),
                ("queue_depth", n(*queue_depth)),
            ],
            Event::Routed { index, backend, family, class } => vec![
                ("query", Int(*index)),
                ("backend", Str(backend)),
                ("family", Str(family)),
                ("class", Int(u64::from(*class))),
            ],
            Event::RequestServed { index, tenant, queue_ms, execute_ms } => vec![
                ("request", Int(*index)),
                ("tenant", Str(tenant)),
                ("queue_ms", Float(*queue_ms)),
                ("execute_ms", Float(*execute_ms)),
            ],
            Event::OnlineTrained { round, t_ns, queries, rows } => vec![
                ("round", Int(*round)),
                ("t_ns", Int(*t_ns)),
                ("queries", n(*queries)),
                ("rows", n(*rows)),
            ],
            Event::OnlineGated {
                round,
                t_ns,
                evaluated,
                candidate_median,
                candidate_p95,
                candidate_fallbacks,
                live_median,
                live_p95,
                decision,
            } => vec![
                ("round", Int(*round)),
                ("t_ns", Int(*t_ns)),
                ("evaluated", n(*evaluated)),
                ("candidate_median", Float(*candidate_median)),
                ("candidate_p95", Float(*candidate_p95)),
                ("candidate_fallbacks", Int(*candidate_fallbacks)),
                ("live_median", Float(*live_median)),
                ("live_p95", Float(*live_p95)),
                ("decision", Str(decision)),
            ],
            Event::OnlinePromoted { round, t_ns, version, checkpoint_bytes } => vec![
                ("round", Int(*round)),
                ("t_ns", Int(*t_ns)),
                ("version", Int(*version)),
                ("checkpoint_bytes", n(*checkpoint_bytes)),
            ],
            Event::OnlineRejected { round, t_ns, decision } => {
                vec![("round", Int(*round)), ("t_ns", Int(*t_ns)), ("decision", Str(decision))]
            }
            Event::OnlineRolledBack { round, t_ns, version, restored_version } => vec![
                ("round", Int(*round)),
                ("t_ns", Int(*t_ns)),
                ("version", Int(*version)),
                ("restored_version", Int(*restored_version)),
            ],
            Event::OnlinePersistFailed { round, t_ns, version, error } => vec![
                ("round", Int(*round)),
                ("t_ns", Int(*t_ns)),
                ("version", Int(*version)),
                ("error", Str(error)),
            ],
            Event::RecoveryStarted { dir } => vec![("dir", Str(dir))],
            Event::RecoveryQuarantined { path, reason } => {
                vec![("path", Str(path)), ("reason", Str(reason))]
            }
            Event::RecoveryTenant { tenant, version, source, quarantined } => vec![
                ("tenant", Str(tenant)),
                ("version", Int(*version)),
                ("source", Str(source)),
                ("quarantined", n(*quarantined)),
            ],
            Event::RecoveryFinished { tenants, quarantined, journal_torn, ms } => vec![
                ("tenants", n(*tenants)),
                ("quarantined", n(*quarantined)),
                ("journal_torn", Bool(*journal_torn)),
                ("recover_ms", Float(*ms)),
            ],
        }
    }
}

/// Consumer of [`Event`]s. Sinks must be `Send` so emitters carrying one
/// (estimators, trainers, servers) can still move across threads.
pub trait Sink: Send {
    /// Called synchronously by the emitter for every event.
    fn emit(&mut self, event: &Event);
}

/// In-memory sink capturing every event — for tests and programmatic
/// inspection. The event log is shared, so callers keep a handle while the
/// sink itself is owned by the emitter.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// The captured events, in emission order.
    pub events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A fresh sink plus the shared handle to its event log.
    pub fn new() -> (Self, Arc<Mutex<Vec<Event>>>) {
        let sink = MemorySink::default();
        let handle = Arc::clone(&sink.events);
        (sink, handle)
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events.lock().expect("event log poisoned").push(event.clone());
    }
}

/// JSONL sink: one JSON object per event, tagged with a model label so
/// several emitters can share one metrics file.
pub struct JsonlSink {
    label: String,
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Create (truncate) `path` and tag events with `label`.
    pub fn create(path: impl AsRef<Path>, label: impl Into<String>) -> std::io::Result<Self> {
        Ok(JsonlSink { label: label.into(), out: BufWriter::new(File::create(path)?) })
    }

    /// Append to `path` (creating it if absent) — the bench binaries use
    /// this so every model trained in one run lands in the same file.
    pub fn append(path: impl AsRef<Path>, label: impl Into<String>) -> std::io::Result<Self> {
        let f = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink { label: label.into(), out: BufWriter::new(f) })
    }
}

/// Append `s` to `line` as a JSON string literal.
fn push_json_str(line: &mut String, s: &str) {
    line.push('"');
    for c in s.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => line.push_str(&format!("\\u{:04x}", c as u32)),
            c => line.push(c),
        }
    }
    line.push('"');
}

/// One event as one JSON object: `"event"`, `"model"`, then its fields.
fn render(label: &str, event: &Event) -> String {
    let mut line = format!("{{\"event\":\"{}\",\"model\":", event.kind());
    push_json_str(&mut line, label);
    for (key, value) in event.fields() {
        line.push_str(&format!(",\"{key}\":"));
        match value {
            Value::Int(x) => line.push_str(&x.to_string()),
            Value::Float(x) if x.is_finite() => line.push_str(&x.to_string()),
            Value::Float(_) | Value::Null => line.push_str("null"),
            Value::Bool(b) => line.push_str(&b.to_string()),
            Value::Str(s) => push_json_str(&mut line, s),
        }
    }
    line.push('}');
    line
}

impl Sink for JsonlSink {
    fn emit(&mut self, event: &Event) {
        // Telemetry must never take its emitter down: swallow I/O errors.
        let _ = writeln!(self.out, "{}", render(&self.label, event));
        // Every event but the high-rate front-end ones is rare and worth
        // keeping on disk even if the process dies mid-run, so flush it.
        if !matches!(
            event,
            Event::RequestServed { .. } | Event::BatchFlushed { .. } | Event::Routed { .. }
        ) {
            let _ = self.out.flush();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uae_telemetry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// One line per variant (and both `PanicIsolated` shapes), as the four
    /// per-stream renderers this one replaced wrote them, byte for byte:
    /// key order, escaping, `null` for non-finite floats and the
    /// `f32 → f64` widening.
    const GOLDEN: &str = r#"{"event":"epoch","model":"m","epoch":3,"steps":40,"executed_steps":37,"skipped_steps":2,"clipped_steps":5,"rollbacks":1,"loss":1.5,"data_loss":0.10000000149011612,"query_loss":null,"grad_norm":null,"lr":0.0020000000949949026,"wall_s":0.25}
{"event":"step_skipped","model":"m","epoch":1,"step":17,"loss":null}
{"event":"rollback","model":"m","epoch":2,"step":99,"lr":0.0010000000474974513}
{"event":"query_rejected","model":"m","query":0,"error":"unknown column \"9\"\\\r\n\t\u0001é"}
{"event":"validation_shortcut","model":"m","query":1,"empty":true}
{"event":"retry","model":"m","query":2,"value":null}
{"event":"panic_isolated","model":"m","query":null}
{"event":"panic_isolated","model":"m","query":3}
{"event":"fallback","model":"m","query":4,"value":null}
{"event":"clamped","model":"m","query":5,"raw":1.25}
{"event":"degraded","model":"m","query":6,"samples":50,"configured":1000}
{"event":"batch_flushed","model":"m","batch":7,"tenant":"census","size":16,"reason":"deadline","queue_depth":3}
{"event":"routed","model":"m","query":8,"backend":"DeepDB","family":"spn","class":12}
{"event":"request_served","model":"m","request":9,"tenant":"dmv","queue_ms":0.1,"execute_ms":2}
{"event":"online_trained","model":"m","round":1,"t_ns":1000,"queries":64,"rows":0}
{"event":"online_gated","model":"m","round":1,"t_ns":2000,"evaluated":32,"candidate_median":1.5,"candidate_p95":null,"candidate_fallbacks":0,"live_median":2,"live_p95":7.25,"decision":"promote"}
{"event":"online_promoted","model":"m","round":1,"t_ns":3000,"version":2,"checkpoint_bytes":4096}
{"event":"online_rejected","model":"m","round":2,"t_ns":4000,"decision":"worse"}
{"event":"online_rolled_back","model":"m","round":3,"t_ns":5000,"version":4,"restored_version":1}
{"event":"online_persist_failed","model":"m","round":4,"t_ns":6000,"version":5,"error":"disk full"}
{"event":"recovery_started","model":"m","dir":"/tmp/state dir"}
{"event":"recovery_quarantined","model":"m","path":"a/b.quarantined","reason":"checksum mismatch"}
{"event":"recovery_tenant","model":"m","tenant":"census","version":3,"source":"journal","quarantined":1}
{"event":"recovery_finished","model":"m","tenants":2,"quarantined":1,"journal_torn":false,"recover_ms":12.5}
"#;

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let s = |x: &str| x.to_owned();
        let events = [
            Event::Epoch(EpochMetrics {
                epoch: 3,
                steps: 40,
                executed_steps: 37,
                skipped_steps: 2,
                clipped_steps: 5,
                rollbacks: 1,
                loss: 1.5,
                data_loss: Some(0.1),
                query_loss: None,
                grad_norm: f32::INFINITY,
                lr: 2e-3,
                wall_s: 0.25,
            }),
            Event::StepSkipped { epoch: 1, step: 17, loss: f32::NAN },
            Event::Rollback { epoch: 2, step: 99, lr: 1e-3 },
            Event::QueryRejected { index: 0, error: s("unknown column \"9\"\\\r\n\t\u{1}é") },
            Event::ValidationShortcut { index: 1, empty: true },
            Event::Retry { index: 2, value: f64::NAN },
            Event::PanicIsolated { index: None },
            Event::PanicIsolated { index: Some(3) },
            Event::Fallback { index: 4, value: f64::NEG_INFINITY },
            Event::Clamped { index: 5, raw: 1.25 },
            Event::Degraded { index: 6, samples: 50, configured: 1000 },
            Event::BatchFlushed {
                batch: 7,
                tenant: s("census"),
                size: 16,
                reason: FlushReason::Deadline,
                queue_depth: 3,
            },
            Event::Routed { index: 8, backend: s("DeepDB"), family: "spn", class: 12 },
            Event::RequestServed { index: 9, tenant: s("dmv"), queue_ms: 0.1, execute_ms: 2.0 },
            Event::OnlineTrained { round: 1, t_ns: 1_000, queries: 64, rows: 0 },
            Event::OnlineGated {
                round: 1,
                t_ns: 2_000,
                evaluated: 32,
                candidate_median: 1.5,
                candidate_p95: f64::NAN,
                candidate_fallbacks: 0,
                live_median: 2.0,
                live_p95: 7.25,
                decision: s("promote"),
            },
            Event::OnlinePromoted { round: 1, t_ns: 3_000, version: 2, checkpoint_bytes: 4096 },
            Event::OnlineRejected { round: 2, t_ns: 4_000, decision: s("worse") },
            Event::OnlineRolledBack { round: 3, t_ns: 5_000, version: 4, restored_version: 1 },
            Event::OnlinePersistFailed { round: 4, t_ns: 6_000, version: 5, error: s("disk full") },
            Event::RecoveryStarted { dir: s("/tmp/state dir") },
            Event::RecoveryQuarantined {
                path: s("a/b.quarantined"),
                reason: s("checksum mismatch"),
            },
            Event::RecoveryTenant {
                tenant: s("census"),
                version: 3,
                source: s("journal"),
                quarantined: 1,
            },
            Event::RecoveryFinished { tenants: 2, quarantined: 1, journal_torn: false, ms: 12.5 },
        ];
        let path = temp_path("golden.jsonl");
        {
            let mut sink = JsonlSink::create(&path, "m").unwrap();
            events.iter().for_each(|e| sink.emit(e));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for ((line, want), event) in text.lines().zip(GOLDEN.lines()).zip(&events) {
            assert_eq!(line, want, "{event:?}");
        }
        assert_eq!(text, GOLDEN, "one line per event, nothing else");
        // The label is escaped like every other string.
        assert_eq!(
            render("te\"st", &Event::PanicIsolated { index: None }),
            r#"{"event":"panic_isolated","model":"te\"st","query":null}"#
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_buffers_only_high_rate_front_end_events() {
        let path = temp_path("flush.jsonl");
        let mut sink = JsonlSink::create(&path, "m").unwrap();
        let lines = || std::fs::read_to_string(&path).unwrap().lines().count();
        sink.emit(&Event::Routed { index: 0, backend: "b".into(), family: "spn", class: 1 });
        sink.emit(&Event::RequestServed {
            index: 0,
            tenant: "t".into(),
            queue_ms: 0.0,
            execute_ms: 0.0,
        });
        assert_eq!(lines(), 0, "high-rate events stay buffered");
        sink.emit(&Event::Rollback { epoch: 0, step: 1, lr: 1e-3 });
        assert_eq!(lines(), 3, "any other event flushes everything before it");
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    /// The serving events land in a shared metrics file as valid JSON
    /// objects, one per line, with non-finite values written as `null`.
    #[test]
    fn serve_jsonl_lines_are_valid_shape() {
        let path = temp_path("serve.jsonl");
        {
            let mut sink = JsonlSink::create(&path, "serve").unwrap();
            sink.emit(&Event::QueryRejected { index: 0, error: "unknown column 9".into() });
            sink.emit(&Event::ValidationShortcut { index: 1, empty: true });
            sink.emit(&Event::Retry { index: 2, value: f64::NAN });
            sink.emit(&Event::PanicIsolated { index: None });
            sink.emit(&Event::PanicIsolated { index: Some(3) });
            sink.emit(&Event::Fallback { index: 2, value: 0.0 });
            sink.emit(&Event::Clamped { index: 4, raw: 1.25 });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"event\":\"query_rejected\""));
        assert!(lines[0].contains("\"error\":\"unknown column 9\""));
        assert!(lines[1].contains("\"empty\":true"));
        // NaN serializes as null, keeping the line valid JSON.
        assert!(lines[2].contains("\"event\":\"retry\"") && lines[2].contains("\"value\":null"));
        assert!(lines[3].contains("\"query\":null"));
        assert!(lines[4].contains("\"query\":3"));
        assert!(lines[5].contains("\"event\":\"fallback\""));
        assert!(lines[6].contains("\"raw\":1.25"));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        std::fs::remove_file(&path).ok();
    }

    /// A serving event reaches a [`MemorySink`] intact.
    #[test]
    fn serve_memory_observer_captures_events() {
        let (mut sink, log) = MemorySink::new();
        sink.emit(&Event::Fallback { index: 5, value: f64::NAN });
        let events = log.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Fallback { index: 5, .. }));
    }

    /// A training event reaches a [`MemorySink`] intact.
    #[test]
    fn memory_observer_captures_events() {
        let (mut sink, log) = MemorySink::new();
        sink.emit(&Event::Rollback { epoch: 1, step: 7, lr: 5e-4 });
        let events = log.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], Event::Rollback { epoch: 1, step: 7, .. }));
    }

    /// A `Uae` has one sink for both of its loops: training events first,
    /// then the serving events of the estimates that follow.
    #[test]
    fn one_sink_on_a_uae_sees_train_then_serve_events() {
        let table = uae_data::census_like(300, 2);
        let cfg = crate::UaeConfig {
            model: crate::ResMadeConfig { hidden: 16, blocks: 1, seed: 3 },
            estimate_samples: 16,
            ..crate::UaeConfig::default()
        };
        let mut uae = crate::Uae::new(&table, cfg);
        let (sink, log) = MemorySink::new();
        uae.set_sink(Box::new(sink));
        uae.train_data(2);
        // An unconstrained query is trivial: answered by validation.
        assert_eq!(uae.try_estimate_card(&uae_query::Query::new(vec![])).unwrap().selectivity, 1.0);
        let events = log.lock().unwrap();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(matches!(events[0], Event::Epoch(EpochMetrics { epoch: 0, .. })));
        assert!(matches!(events[1], Event::Epoch(EpochMetrics { epoch: 1, .. })));
        assert!(matches!(events[2], Event::ValidationShortcut { index: 0, empty: false }));
    }
}
