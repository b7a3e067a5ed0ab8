//! The per-layer metric table and the in-process engine probes of a traced
//! run. Each probe times calls into one crate's public API on the inputs
//! the traced workload itself used.

use crate::median;
use crate::trace::Tracer;
use joss_models::{steepest_descent_search, EnergyEstimator, Objective};
use joss_platform::{CoreType, ExecContext, TaskShape};
use joss_sweep::{run_spec, ExperimentContext, RunSpec, SchedulerKind};
use joss_telemetry::catalog as tm;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. "(replay)" marks calls the benchmark repeats in
/// its own process on the inputs the daemon or coordinator saw.
pub const TABLE: [(&str, &str, &str); 42] = [
    ("models.train_ms", "ms", "setup_s, all workloads"),
    (
        "workloads.build_ms",
        "ms",
        "setup_s, serve_reuse and fleet_cold",
    ),
    ("platform.execute_ns", "ns", "cpu_us_per_spec, fleet_cold"),
    ("models.search_ns", "ns", "cpu_us_per_spec, fleet_cold"),
    ("core.spec_ms.grws", "ms", "specs_per_s, fleet_cold"),
    ("core.spec_ms.joss", "ms", "specs_per_s, fleet_cold"),
    (
        "core.events_per_task",
        "count",
        "cpu_us_per_spec, fleet_cold",
    ),
    (
        "core.dispatches_per_task",
        "count",
        "cpu_us_per_spec, fleet_cold",
    ),
    (
        "core.steal_attempts_per_task",
        "count",
        "cpu_us_per_spec, fleet_cold",
    ),
    ("sweep.pool_busy_frac", "ratio", "setup_s, serve_reuse"),
    ("sweep.encode_us", "us", "cpu_us_per_spec, fleet_cold"),
    (
        "sweep.parse_us",
        "us",
        "latency_ms_p50, serve_reuse (replay)",
    ),
    (
        "sweep.canonical_us",
        "us",
        "latency_ms_p50, serve_reuse (replay)",
    ),
    ("sweep.plan_us", "us", "latency_ms_p50, fleet_cold (replay)"),
    (
        "sweep.shard_resolve_ms",
        "ms",
        "latency_ms_p50, fleet_cold (replay)",
    ),
    (
        "serve.hit_us.raw",
        "us",
        "latency_ms_p50/p90 and specs_per_s, serve_reuse",
    ),
    (
        "serve.hit_us.canonical",
        "us",
        "latency_ms_p50/p90 and specs_per_s, serve_reuse",
    ),
    (
        "serve.hit_us.slice",
        "us",
        "latency_ms_p50/p90 and specs_per_s, serve_reuse",
    ),
    (
        "serve.hit_us.store",
        "us",
        "latency_ms_p50/p90 and specs_per_s, serve_reuse",
    ),
    (
        "serve.cache_get_ns",
        "ns",
        "latency_ms_p50, serve_reuse (replay)",
    ),
    (
        "serve.store_assemble_us",
        "us",
        "latency_ms_p50, serve_reuse (replay)",
    ),
    ("serve.cache_hits", "count", "specs_per_s, serve_reuse"),
    ("serve.store_hits", "count", "specs_per_s, serve_reuse"),
    (
        "serve.campaigns_executed",
        "count",
        "specs_per_s, serve_reuse",
    ),
    ("serve.store_lines", "count", "rss_peak_mb, serve_reuse"),
    ("serve.cached_grids", "count", "rss_peak_mb, serve_reuse"),
    ("serve.rss_primed_mb", "MB", "rss_peak_mb, serve_reuse"),
    ("serve.busy_frac", "ratio", "specs_per_s, fleet_cold"),
    ("serve.store_spec_hits", "count", "specs_per_s, fleet_cold"),
    (
        "serve.rejected_503",
        "count",
        "failed ops, serve_reuse and fleet_cold",
    ),
    (
        "serve.io_errors",
        "count",
        "failed ops, serve_reuse and fleet_cold",
    ),
    ("fleet.connect_ms", "ms", "setup_s, fleet_cold"),
    ("fleet.first_record_ms", "ms", "latency_ms_p50, fleet_cold"),
    (
        "fleet.steals_per_campaign",
        "count",
        "latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.stolen_specs_per_campaign",
        "count",
        "latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.steal_commit_frac",
        "ratio",
        "latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.sim_amplification",
        "ratio",
        "cpu_us_per_spec, fleet_cold",
    ),
    (
        "fleet.task_imbalance",
        "ratio",
        "latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.merge_buffer_peak",
        "lines",
        "latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.failovers",
        "count",
        "failed ops and latency_ms_p90, fleet_cold",
    ),
    (
        "fleet.sheds",
        "count",
        "failed ops and latency_ms_p90, fleet_cold",
    ),
    ("bench.trace_overhead", "ratio", "reported per workload"),
];

/// Median over `batches` of the mean time of one `f()` call, in ns.
pub fn per_call_ns(batches: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Mean of `values`, or `None` when there are none.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Result of the serial engine pass of a traced `sweep_fig8` run.
pub struct Serial {
    /// JSONL of every spec run serially, for comparison with the campaign.
    pub bytes: Vec<u8>,
    /// Sum of the serial spec times, seconds.
    pub total_s: f64,
    pub layers: Vec<(&'static str, Option<f64>)>,
}

/// Run every spec serially on this thread (`run_spec`, then
/// `RunRecord::to_json`), reading engine counters around the pass, and
/// time the platform oracle and the model search on fixed inputs.
pub fn engine_layers(
    ctx: &ExperimentContext,
    specs: &[RunSpec],
    tracer: &mut Tracer,
    op: u64,
) -> Serial {
    let span = tracer.begin("probe.serial_pass", None, op);
    let counters = || {
        [
            tm::ENGINE_EVENTS.get(),
            tm::ENGINE_DISPATCHES.get(),
            tm::ENGINE_STEAL_ATTEMPTS.get(),
            tm::ENGINE_TASKS.get(),
        ]
    };
    let before = counters();
    let mut bytes = Vec::with_capacity(1 << 18);
    let (mut total_s, mut grws, mut joss, mut encode) = (0.0, Vec::new(), Vec::new(), Vec::new());
    for (index, spec) in specs.iter().enumerate() {
        let s = tracer.begin("core.run_spec", span, op);
        let t = Instant::now();
        let record = run_spec(ctx, index, spec);
        let secs = t.elapsed().as_secs_f64();
        tracer.end(s);
        total_s += secs;
        match spec.scheduler {
            SchedulerKind::Grws => grws.push(secs * 1e3),
            SchedulerKind::Joss => joss.push(secs * 1e3),
            _ => {}
        }
        let s = tracer.begin("sweep.to_json", span, op);
        let t = Instant::now();
        let json = record.to_json();
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(s);
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(b'\n');
    }
    let after = counters();
    tracer.end(span);
    let per_task = |i: usize| {
        let tasks = after[3] - before[3];
        (tasks > 0).then(|| (after[i] - before[i]) as f64 / tasks as f64)
    };

    let span = tracer.begin("probe.platform_execute", None, op);
    let shape = TaskShape::new(0.02, 0.02);
    let alone = ExecContext::alone();
    let (fc, fm) = (ctx.models.fc_ref_ghz(), ctx.models.fm_ref_ghz());
    let execute_ns = per_call_ns(7, 100_000, || {
        black_box(ctx.machine.execute(
            black_box(&shape),
            CoreType::Big,
            2,
            fc,
            fm,
            &alone,
            &[7, 11],
        ));
    });
    tracer.end(span);

    let span = tracer.begin("probe.model_search", None, op);
    let search_ns = search_ns(ctx);
    tracer.end(span);

    Serial {
        bytes,
        total_s,
        layers: vec![
            ("platform.execute_ns", Some(execute_ns)),
            ("models.search_ns", Some(search_ns)),
            ("core.spec_ms.grws", mean(&grws)),
            ("core.spec_ms.joss", mean(&joss)),
            ("core.events_per_task", per_task(0)),
            ("core.dispatches_per_task", per_task(1)),
            ("core.steal_attempts_per_task", per_task(2)),
            ("sweep.encode_us", mean(&encode)),
        ],
    }
}

/// One `steepest_descent_search` on the `search_overhead` bench fixture: a
/// balanced kernel (0.02 GOP, 0.02 GB) profiled at the reference and
/// alternate CPU frequencies, total-energy objective.
fn search_ns(ctx: &ExperimentContext) -> f64 {
    let shape = TaskShape::new(0.02, 0.02);
    let alone = ExecContext::alone();
    let samples: Vec<Option<(f64, f64)>> = ctx
        .models
        .indexer()
        .iter()
        .map(|(tc, nc)| {
            let width = ctx.space.nc_count(tc, nc);
            let time_at = |fc| {
                ctx.machine
                    .clean_time_s(&shape, tc, width, fc, ctx.models.fm_ref_ghz(), &alone)
            };
            Some((
                time_at(ctx.models.fc_ref_ghz()),
                time_at(ctx.models.fc_alt_ghz()),
            ))
        })
        .collect();
    let tables = ctx.models.build_kernel_tables(&samples);
    let est = EnergyEstimator {
        space: &ctx.space,
        tables: &tables,
        idle: &ctx.models.idle,
        objective: Objective::TotalEnergy,
        concurrency: 2.0,
        max_width: usize::MAX,
    };
    per_call_ns(7, 2_000, || {
        black_box(steepest_descent_search(black_box(&est), true));
    })
}
