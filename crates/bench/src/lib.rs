//! # joss-bench — Criterion benchmark harness
//!
//! One bench group per paper artifact plus design ablations:
//!
//! * `paper_experiments` — regenerates Table 1 and Figs. 1/2/5/8/9/10 at
//!   reduced scale and asserts their headline shapes;
//! * `search_overhead` — §7.4: steepest-descent vs exhaustive search;
//! * `ablations` — frequency-coordination heuristics (§5.3) and task
//!   coarsening thresholds;
//! * `engine_throughput` — discrete-event engine event rate;
//! * `equeue_vs_heap` — the calendar event queue against a binary heap;
//! * `sweep_throughput` — campaign executor throughput and thread scaling;
//! * `telemetry_overhead` — telemetry recording cost, and the engine with
//!   telemetry enabled vs runtime-disabled.
//!
//! Shared fixtures live here in the library crate.

use joss_experiments::ExperimentContext;
use std::sync::OnceLock;

/// A shared, lazily built experiment context so every bench reuses one
/// platform characterization (training is the expensive one-time step).
pub fn shared_context() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_reps(42, 3))
}
