//! # joss-fleet — sharded campaign execution across serve backends
//!
//! One `joss-serve` daemon is bounded by one machine; the paper's
//! evaluation grid — and every what-if sweep built on it — is
//! embarrassingly parallel at the *grid* level, because each spec
//! (workload × scheduler × DVFS config × seed) is an independent,
//! deterministic simulation. This crate is the distribution layer on top
//! of PR 4's wire protocol: a coordinator that takes **one**
//! [`joss_sweep::GridDesc`], cuts it into cost-balanced contiguous shards
//! ([`joss_sweep::ShardPlan`]), fans the sub-grids out to N backends over
//! the existing serve client, and merges the streamed record lines back
//! into **global spec order** as they arrive.
//!
//! * [`backend`] — health probing and compatibility checks: a backend's
//!   `/healthz` carries its train seed/reps and record schema, and the
//!   coordinator refuses to merge records from mismatched backends;
//! * [`merge`] — [`OrderedMerger`], the reorder buffer that turns
//!   out-of-order shard streams into one in-order JSONL stream;
//! * [`coordinator`] — [`run_fleet`]: the shared micro-range work queue,
//!   per-backend fetch workers, **work stealing** (an idle worker
//!   re-issues the undelivered tail of a straggler's in-flight range),
//!   and the failover policy (retry a failed range on surviving
//!   backends, excluding the one that failed, resuming mid-range);
//! * [`local`] — boot N in-process daemons for single-machine scale-out
//!   (`joss_fleet --spawn N`) and tests;
//! * [`throttle`] — [`ThrottleProxy`], a rate-limiting TCP proxy that
//!   manufactures stragglers for steal tests and CI.
//!
//! The invariant everything hangs off, extending the serve layer's:
//! **fleet-merged bytes are identical to a single-node
//! [`joss_sweep::Campaign::run_streaming`] → [`joss_sweep::JsonlSink`]
//! run of the whole grid** with the same training parameters — for any
//! shard count, any backend count, any steal schedule, and any backend
//! failure the retries can absorb. Determinism is what makes both
//! mid-stream failover and stealing cheap: a retried range reproduces
//! the exact bytes the dead backend already sent (the coordinator skips
//! the merged prefix and splices the rest), and a stolen tail that the
//! victim races into anyway yields duplicate global indices the
//! [`OrderedMerger`] drops for free.
//! `crates/fleet/tests/fleet.rs` kills a backend mid-stream and `cmp`s;
//! the CI `fleet-smoke` job does the same over real processes.
//! Topology and semantics: `docs/FLEET.md`.

pub mod backend;
pub mod coordinator;
pub mod local;
pub mod merge;
pub mod throttle;

pub use backend::{
    fetch_progress, is_alive, probe, verify_compatible, BackendInfo, CampaignProgress,
};
pub use coordinator::{run_fleet, FleetConfig, FleetError, FleetReport, FleetSession};
pub use local::spawn_local_backends;
pub use merge::OrderedMerger;
pub use throttle::ThrottleProxy;
