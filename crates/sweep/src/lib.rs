//! # joss-sweep — declarative campaign sweeps
//!
//! The paper's evaluation is a grid — {21 benchmark instances} × {6
//! schedulers} × {knob ablations, speedup constraints, seeds} — and every
//! interesting new scenario is another point set in that space. This crate
//! makes the whole grid one data structure away:
//!
//! * [`spec`] — [`RunSpec`] (workload × scheduler × engine config × seed)
//!   and the cartesian [`SpecGrid`] builder;
//! * [`scheduler`] — [`SchedulerKind`], the canonical scheduler factory
//!   (every paper policy plus the pinned-config instrument), with stable
//!   `Display` names and a `FromStr` CLI syntax;
//! * [`campaign`] — [`Campaign`], the executor: fans specs out across OS
//!   threads on crossbeam work-stealing deques, sharing the one-time
//!   [`ExperimentContext`] across workers;
//! * [`pool`] — [`ordered_parallel_map`] and the streaming
//!   [`ordered_parallel_stream`], the underlying deterministic ordered
//!   fan-out, reused by the non-engine experiments too;
//! * [`record`] — the uniform [`RunRecord`] artifact with JSONL/CSV
//!   writers;
//! * [`json`] — the shared hand-rolled JSON machinery (escaping for the
//!   writers, a parser for the wire protocol; the vendored `serde` is a
//!   no-op, so this is the one place JSON is spelled out);
//! * [`desc`] — [`GridDesc`], the round-trippable wire description of a
//!   grid (canonical JSON, `spec_hash`, optional shard range), used by the
//!   `joss-serve` daemon and the `joss-fleet` coordinator;
//! * [`shard`] — [`ShardPlan`], the contiguous cost-balanced partition of
//!   a grid's spec-index space behind `joss_sweep --shard i/n` and fleet
//!   dispatch: shard outputs concatenate byte-identically into the
//!   unsharded JSONL;
//! * [`sink`] — the [`RecordSink`] abstraction and buffered streaming file
//!   sinks ([`JsonlSink`], [`CsvSink`]) pairing with
//!   [`Campaign::run_streaming`]/[`Campaign::run_to_sink`], so large grids
//!   write to disk (or a network stream) with a flat memory footprint;
//! * [`agg`] — post-processing: grouping, baseline normalization,
//!   geometric means.
//!
//! Results are **deterministic and thread-count invariant**: each run owns
//! its seeded RNG, and records are ordered by spec index, not completion
//! order — `Campaign::with_threads(1)` and `::with_threads(n)` produce
//! byte-identical record files.
//!
//! ```
//! use joss_sweep::{Campaign, ExperimentContext, SchedulerKind, SpecGrid, Workload};
//! use joss_workloads::Scale;
//!
//! let ctx = ExperimentContext::with_reps(42, 1); // fast doctest training
//! let specs = SpecGrid::new()
//!     .workload(Workload::new(joss_workloads::matmul::matmul(256, 4, Scale::Divided(400))))
//!     .schedulers([SchedulerKind::Grws, SchedulerKind::Joss])
//!     .seeds([42])
//!     .build();
//! let records = Campaign::with_threads(2).run(&ctx, specs);
//! assert_eq!(records.len(), 2);
//! assert!(records[1].report.total_j() <= records[0].report.total_j());
//! ```

pub mod agg;
pub mod campaign;
pub mod context;
pub mod desc;
pub mod json;
pub mod pool;
pub mod record;
pub mod scheduler;
pub mod shard;
pub mod sink;
pub mod spec;

pub use agg::{
    geo_mean, geo_means_per_scheduler, group_by_workload, normalize_points, normalize_to_baseline,
    MetricPoint, NormalizedRow,
};
pub use campaign::{records_per_workload, rows_by_workload, run_spec, Campaign};
pub use context::ExperimentContext;
pub use desc::{GridDesc, DEFAULT_SCALE};
pub use pool::{default_threads, ordered_parallel_map, ordered_parallel_stream};
pub use record::{to_csv, to_jsonl, RunRecord, RECORD_SCHEMA};
pub use scheduler::{run_one, SchedulerKind};
pub use shard::{grid_costs, plan_grid, ShardPlan, SpecRange};
pub use sink::{CsvSink, JsonlSink, RecordSink};
pub use spec::{EngineSpec, RunSpec, SpecGrid, Workload, DEFAULT_SEED};
