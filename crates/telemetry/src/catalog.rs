//! The static metric catalog: every well-known series in the stack,
//! declared here so a scrape renders the complete set (zeros included)
//! from the first request, and so recording sites are plain static
//! references — no registry lookup, no first-use registration race.
//!
//! Naming follows Prometheus conventions: `joss_<layer>_<what>_total`
//! for counters, `_seconds`/`_us` units spelled out, gauges unsuffixed.
//! All of these are **process-global**: a process hosting several
//! in-process serve backends (the fleet `--spawn` topology, the test
//! suites) accumulates across them, while each backend's `/stats` stays
//! per-instance. `docs/OBSERVABILITY.md` is the human-facing catalog.

use crate::metrics::{Counter, CounterVec, Gauge, Histogram};
use crate::{counter, counter_vec, gauge, histogram};

// --- serve: request plumbing -----------------------------------------------

counter!(pub static SERVE_REQUESTS: "joss_serve_requests_total",
    "HTTP requests whose head parsed (any method or path)");
counter!(pub static SERVE_CONNECTIONS: "joss_serve_connections_total",
    "TCP connections accepted");
counter!(pub static SERVE_BAD_REQUESTS: "joss_serve_bad_requests_total",
    "requests answered 4xx (framing errors included)");
counter!(pub static SERVE_IO_ERRORS: "joss_serve_io_errors_total",
    "connections dropped on transport errors or blown deadlines");
counter!(pub static SERVE_HANDLER_PANICS: "joss_serve_handler_panics_total",
    "handler panics contained by the executor pool");

// --- serve: the campaign endpoint ------------------------------------------
// The scrape-consistency identity, asserted by tests and the CI gate:
// campaign_requests_total == campaign_hits_total + campaigns_admitted_total
//                            + rejected_503_total + campaign_errors_total
// ("admitted" counts at job push, so the identity holds whenever the
// daemon is quiescent; mid-run the right side may trail the left by the
// requests still being routed).

counter!(pub static SERVE_CAMPAIGN_REQUESTS: "joss_serve_campaign_requests_total",
    "POST /v1/campaign requests routed");
counter!(pub static SERVE_CAMPAIGN_HITS: "joss_serve_campaign_hits_total",
    "campaign requests served from memory (raw memo, cache, shard slice, or store)");
counter!(pub static SERVE_CAMPAIGNS_ADMITTED: "joss_serve_campaigns_admitted_total",
    "campaign misses admitted and handed to the executor pool");
counter!(pub static SERVE_REJECTED_503: "joss_serve_rejected_503_total",
    "campaign requests shed with 503 + Retry-After");
counter!(pub static SERVE_CAMPAIGN_ERRORS: "joss_serve_campaign_errors_total",
    "campaign requests answered 4xx before admission");
counter!(pub static SERVE_CACHE_HITS: "joss_serve_cache_hits_total",
    "campaign requests served from the results cache");
counter!(pub static SERVE_STORE_HITS: "joss_serve_store_hits_total",
    "campaign requests assembled whole from the per-spec store");
counter!(pub static SERVE_STORE_SPEC_HITS: "joss_serve_store_spec_hits_total",
    "individual specs spliced in from the store instead of re-simulated");
counter!(pub static SERVE_CAMPAIGNS_EXECUTED: "joss_serve_campaigns_executed_total",
    "campaigns actually simulated by the executor pool");
counter!(pub static SERVE_RECORDS_STREAMED: "joss_serve_records_streamed_total",
    "record lines streamed by executed campaigns");
gauge!(pub static SERVE_EXECUTOR_QUEUE_DEPTH: "joss_serve_executor_queue_depth",
    "admitted jobs waiting for an executor (sampled at scrape)");
gauge!(pub static SERVE_ACTIVE_CAMPAIGNS: "joss_serve_active_campaigns",
    "campaigns currently streaming records (sampled at scrape)");
histogram!(pub static SERVE_MISS_SECONDS: "joss_serve_campaign_miss_duration",
    "wall-clock microseconds an admitted campaign spent in run_job");

// --- engine profiling hooks -------------------------------------------------
// Flushed once per engine run from local tallies (never per-event
// atomics), gated on `crate::enabled()` — the golden fixture and the
// throughput bench see identical behavior either way.

counter!(pub static ENGINE_RUNS: "joss_engine_runs_total",
    "discrete-event engine runs completed");
counter!(pub static ENGINE_EVENTS: "joss_engine_events_total",
    "events popped from the calendar queue");
counter!(pub static ENGINE_DISPATCHES: "joss_engine_dispatches_total",
    "dispatch attempts (core wakes that scanned for work)");
counter!(pub static ENGINE_STEAL_ATTEMPTS: "joss_engine_steal_attempts_total",
    "dispatches that fell through to the steal scan");
counter!(pub static ENGINE_STEALS: "joss_engine_steals_total",
    "tasks obtained by stealing from another core's queue");
counter!(pub static ENGINE_ARENA_RECYCLES: "joss_engine_arena_recycles_total",
    "core vectors recycled through the arena free list");
counter!(pub static ENGINE_TASKS: "joss_engine_tasks_total",
    "tasks completed across all runs");
gauge!(pub static ENGINE_EVENT_QUEUE_PEAK: "joss_engine_event_queue_peak",
    "high-water mark of the calendar event queue (across runs)");

// --- sweep / campaign executor ----------------------------------------------

counter!(pub static SWEEP_CAMPAIGNS: "joss_sweep_campaigns_total",
    "campaign executions started (any entry point)");
counter!(pub static SWEEP_SPECS: "joss_sweep_specs_total",
    "specs executed by campaign workers");
histogram!(pub static SWEEP_SPEC_SECONDS: "joss_sweep_spec_duration",
    "wall-clock microseconds one spec took to simulate");

// --- fleet coordinator -------------------------------------------------------

counter!(pub static FLEET_RUNS: "joss_fleet_runs_total",
    "fleet campaigns dispatched");
counter!(pub static FLEET_SHARDS_PLANNED: "joss_fleet_shards_planned_total",
    "ranges cut by fleet shard plans");
counter!(pub static FLEET_TASKS_COMPLETED: "joss_fleet_tasks_completed_total",
    "range tasks completed across all backends");
counter!(pub static FLEET_STEAL_ATTEMPTS: "joss_fleet_steal_attempts_total",
    "steal candidates polled (victim /v1/progress fetched)");
counter!(pub static FLEET_STEALS_COMMITTED: "joss_fleet_steals_committed_total",
    "steals committed: straggler tails re-issued to idle backends");
counter!(pub static FLEET_STEALS_INVALIDATED: "joss_fleet_steals_invalidated_total",
    "steals justified by the poll but invalidated at commit (attempt concluded or raced)");
counter!(pub static FLEET_STOLEN_SPECS: "joss_fleet_stolen_specs_total",
    "specs moved by committed steals");
counter!(pub static FLEET_FAILOVERS: "joss_fleet_failovers_total",
    "range attempts that failed over to another backend");
counter!(pub static FLEET_SHEDS: "joss_fleet_sheds_total",
    "503 sheds absorbed (each waited out a Retry-After)");
counter_vec!(pub static FLEET_BACKEND_TASKS: "joss_fleet_backend_tasks_total", "backend",
    "range tasks completed per backend");

/// Every catalog counter, in render order.
pub fn counters() -> &'static [&'static Counter] {
    static COUNTERS: [&Counter; 33] = [
        &SERVE_REQUESTS,
        &SERVE_CONNECTIONS,
        &SERVE_BAD_REQUESTS,
        &SERVE_IO_ERRORS,
        &SERVE_HANDLER_PANICS,
        &SERVE_CAMPAIGN_REQUESTS,
        &SERVE_CAMPAIGN_HITS,
        &SERVE_CAMPAIGNS_ADMITTED,
        &SERVE_REJECTED_503,
        &SERVE_CAMPAIGN_ERRORS,
        &SERVE_CACHE_HITS,
        &SERVE_STORE_HITS,
        &SERVE_STORE_SPEC_HITS,
        &SERVE_CAMPAIGNS_EXECUTED,
        &SERVE_RECORDS_STREAMED,
        &ENGINE_RUNS,
        &ENGINE_EVENTS,
        &ENGINE_DISPATCHES,
        &ENGINE_STEAL_ATTEMPTS,
        &ENGINE_STEALS,
        &ENGINE_ARENA_RECYCLES,
        &ENGINE_TASKS,
        &SWEEP_CAMPAIGNS,
        &SWEEP_SPECS,
        &FLEET_RUNS,
        &FLEET_SHARDS_PLANNED,
        &FLEET_TASKS_COMPLETED,
        &FLEET_STEAL_ATTEMPTS,
        &FLEET_STEALS_COMMITTED,
        &FLEET_STEALS_INVALIDATED,
        &FLEET_STOLEN_SPECS,
        &FLEET_FAILOVERS,
        &FLEET_SHEDS,
    ];
    &COUNTERS
}

/// Every catalog gauge, in render order.
pub fn gauges() -> &'static [&'static Gauge] {
    static GAUGES: [&Gauge; 3] = [
        &SERVE_EXECUTOR_QUEUE_DEPTH,
        &SERVE_ACTIVE_CAMPAIGNS,
        &ENGINE_EVENT_QUEUE_PEAK,
    ];
    &GAUGES
}

/// Every catalog histogram, in render order.
pub fn histograms() -> &'static [&'static Histogram] {
    static HISTOGRAMS: [&Histogram; 2] = [&SERVE_MISS_SECONDS, &SWEEP_SPEC_SECONDS];
    &HISTOGRAMS
}

/// Every catalog labeled counter family, in render order.
pub fn counter_vecs() -> &'static [&'static CounterVec] {
    static COUNTER_VECS: [&CounterVec; 1] = [&FLEET_BACKEND_TASKS];
    &COUNTER_VECS
}
