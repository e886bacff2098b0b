//! # uae-core — the UAE unified deep autoregressive cardinality estimator
//!
//! A from-scratch Rust implementation of *"A Unified Deep Model of Learning
//! from both Data and Queries for Cardinality Estimation"* (Wu & Cong,
//! SIGMOD 2021):
//!
//! * [`encoding`] — binary tuple encoding with presence-bit wildcards and
//!   column factorization for large NDVs (§4.2, §4.6);
//! * [`model`] — ResMADE, the masked autoregressive MLP (§4.2);
//! * [`vquery`] — query regions translated to virtual columns;
//! * [`infer_batch`] — progressive sampling for range queries (§4.2), the
//!   one engine every estimate runs through; [`infer`] holds its scalar
//!   reference oracle;
//! * [`dps`] — **differentiable progressive sampling** via the
//!   Gumbel-Softmax trick (§4.3, Algorithms 1–2) — the paper's core
//!   contribution, enabling query-supervised training of an
//!   autoregressive density model;
//! * [`train`] — the data loss (Eq. 2), the Q-error query loss (Eq. 5–6)
//!   and hybrid training (Eq. 11, Algorithm 3);
//! * [`estimator`] — the public [`Uae`] type: UAE-D (≡ Naru), UAE-Q, full
//!   hybrid UAE, and incremental data/workload ingestion (§4.5);
//! * [`serve`] — the hardened serving layer: typed query validation, the
//!   retry → histogram-baseline fallback cascade, and deterministic fault
//!   injection ([`FaultPlan`]).
//!
//! ```no_run
//! use uae_core::{Uae, UaeConfig};
//! use uae_query::{generate_workload, WorkloadSpec, CardEstimator};
//! use std::collections::HashSet;
//!
//! let table = uae_data::census_like(10_000, 42);
//! let workload = generate_workload(
//!     &table,
//!     &WorkloadSpec::in_workload(0, 500, 1),
//!     &HashSet::new(),
//! );
//! let mut uae = Uae::new(&table, UaeConfig::default());
//! uae.train_hybrid(&workload, 10);
//! let card = uae.estimate_card(&workload[0].query);
//! ```

pub mod dps;
pub mod encoding;
pub mod estimator;
pub mod infer;
pub mod infer_batch;
pub mod model;
pub mod online;
pub mod ordering;
pub mod persist;
pub mod route;
pub mod serialize;
pub mod serve;
pub mod sf;
pub mod telemetry;
pub mod train;
pub mod vquery;

pub use dps::DpsConfig;
pub use encoding::VirtualSchema;
pub use estimator::{Uae, UaeConfig};
pub use infer_batch::BatchScratch;
pub use model::{ModelScratch, ResMade, ResMadeConfig};
pub use online::{
    shadow_score, GateConfig, GateDecision, OnlineConfig, OnlineFaultPlan, OnlineTrainer,
    PoolStats, QueryPool, RoundOutcome, RoundReport, ShadowScore,
};
pub use ordering::ColumnOrder;
pub use persist::{
    append_bytes, persist_bytes, quarantine, DiskFaultKind, DiskFaultPlan, DiskFaults, Journal,
    JournalRecord, JournalReplay, PersistError, JOURNAL_FILE,
};
pub use route::{
    serve_batch, BackendChoice, QueryShape, RouteConfig, RouteDecision, RouteFeaturizer,
    RoutePolicy, RoutedReply, Router, SelClass,
};
pub use serialize::{CheckpointError, LoadError};
pub use serve::{
    validate_query, Estimate, EstimateError, EstimateSource, FaultPlan, ServeConfig, Validation,
};
pub use telemetry::{
    EpochMetrics, Event, FlushReason, JsonlSink, MemorySink, ServeStats, Sink, TrainStats,
};
pub use train::{TrainConfig, TrainQuery};
pub use vquery::VirtualQuery;
