//! Machine-readable engine perf snapshot: the hot-path benchmark numbers
//! as one JSON artifact.
//!
//! ```text
//! joss_bench_json [--out FILE.json] [--runs N] [--search-iters N]
//! ```
//!
//! Measures the two benchmarks the engine optimizations are judged by —
//! `engine_throughput` (simulated tasks per second of host time under the
//! GRWS baseline) and `search_overhead` (configuration-search evaluations
//! per second) — and writes a `BENCH_engine.json` snapshot (schema
//! documented in `docs/PERF.md`). CI's telemetry overhead A/B compares two
//! snapshots of the same code, one built with `--features telemetry-off`.
//! Timings are host-dependent; compare only numbers recorded on the same
//! machine. Serve and fleet are measured end to end by `perfbench/`.

use joss_bench::shared_context;
use joss_core::engine::{EngineConfig, SimEngine};
use joss_core::sched::GrwsSched;
use joss_dag::{generators, KernelSpec};
use joss_models::{
    exhaustive_search, steepest_descent_search, EnergyEstimator, Objective, SearchOutcome,
};
use joss_platform::{ExecContext, TaskShape};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct Entry {
    name: &'static str,
    unit: &'static str,
    /// Primary rate metric (tasks/s or evals/s), median across runs.
    rate: f64,
    /// Wall-time spread of one run/iteration across runs, nanoseconds.
    /// The median is the headline; min (the quietest run — closest to the
    /// code's true cost on a noisy host) and max (the worst outlier) bound
    /// how much to trust it.
    stats: Stats,
}

/// Min / median / max of a sample set, nanoseconds.
#[derive(Clone, Copy)]
struct Stats {
    min_ns: f64,
    median_ns: f64,
    max_ns: f64,
}

fn stats(mut v: Vec<f64>) -> Stats {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Stats {
        min_ns: v[0],
        median_ns: v[v.len() / 2],
        max_ns: v[v.len() - 1],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = String::from("BENCH_engine.json");
    let mut runs = 5usize;
    let mut search_iters = 20_000usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--runs" => {
                i += 1;
                runs = args.get(i).and_then(|s| s.parse().ok()).expect("--runs N");
            }
            "--search-iters" => {
                i += 1;
                search_iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--search-iters N");
            }
            other => {
                eprintln!("usage: joss_bench_json [--out FILE.json] [--runs N] [--search-iters N]");
                panic!("unknown argument {other:?}");
            }
        }
        i += 1;
    }
    assert!(runs >= 1 && search_iters >= 1);

    eprintln!("[joss_bench_json] building shared context...");
    let ctx = shared_context();
    let mut entries: Vec<Entry> = Vec::new();

    // Engine throughput: same graphs as the `engine_throughput` criterion
    // bench, median of `runs` full simulations each.
    for (name, n) in [
        ("engine_throughput/grws_1000_tasks", 1_000usize),
        ("engine_throughput/grws_10000_tasks", 10_000usize),
    ] {
        let graph = generators::chain_bundle(
            "bag",
            KernelSpec::new("k", TaskShape::new(0.005, 0.002)),
            n,
            16,
        );
        // One unrecorded warm-up run first (criterion does the same): the
        // first simulation pays one-time costs — lazy thread-local init,
        // cold caches — that no steady-state run repeats.
        let mut samples = Vec::with_capacity(runs);
        for it in 0..=runs {
            let mut sched = GrwsSched::new();
            let t0 = Instant::now();
            let report = SimEngine::run(&ctx.machine, &graph, &mut sched, EngineConfig::default());
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(report.tasks, n);
            black_box(report);
            if it > 0 {
                samples.push(ns);
            }
        }
        let st = stats(samples);
        entries.push(Entry {
            name,
            unit: "tasks_per_sec",
            rate: n as f64 / (st.median_ns / 1e9),
            stats: st,
        });
        eprintln!(
            "[joss_bench_json] {name}: {:.3} ms/run (min {:.3})",
            st.median_ns / 1e6,
            st.min_ns / 1e6
        );
    }

    // Search overhead: same estimator fixture as the `search_overhead`
    // criterion bench; the rate is objective *evaluations* per second.
    let shape = TaskShape::new(0.02, 0.02);
    let ectx = ExecContext::alone();
    let samples: Vec<Option<(f64, f64)>> = ctx
        .models
        .indexer()
        .iter()
        .map(|(tc, nc)| {
            let w = ctx.space.nc_count(tc, nc);
            Some((
                ctx.machine.clean_time_s(
                    &shape,
                    tc,
                    w,
                    ctx.models.fc_ref_ghz(),
                    ctx.models.fm_ref_ghz(),
                    &ectx,
                ),
                ctx.machine.clean_time_s(
                    &shape,
                    tc,
                    w,
                    ctx.models.fc_alt_ghz(),
                    ctx.models.fm_ref_ghz(),
                    &ectx,
                ),
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
    let mut search_bench = |name: &'static str, f: &dyn Fn() -> SearchOutcome| {
        let evals_per_search = f().stats.evaluations as f64;
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t0 = Instant::now();
            for _ in 0..search_iters {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / search_iters as f64);
        }
        let st = stats(samples);
        entries.push(Entry {
            name,
            unit: "evals_per_sec",
            rate: evals_per_search / (st.median_ns / 1e9),
            stats: st,
        });
        eprintln!(
            "[joss_bench_json] {name}: {:.0} ns/search ({evals_per_search} evals)",
            st.median_ns
        );
    };
    search_bench("search_overhead/exhaustive", &|| {
        exhaustive_search(&est, true)
    });
    search_bench("search_overhead/steepest_descent", &|| {
        steepest_descent_search(&est, true)
    });

    write_snapshot(&out_path, runs, &entries);
}

/// Hand-rolled JSON (the vendored serde is a no-op): stable key order, one
/// bench object per line.
fn write_snapshot(out_path: &str, runs: usize, entries: &[Entry]) {
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"schema\": \"joss-bench-engine/v2\",");
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(json, "  \"runs_per_bench\": {runs},");
    json.push_str("  \"benches\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"rate\": {:.0}, \
             \"min_ns\": {:.0}, \"median_ns\": {:.0}, \"max_ns\": {:.0}}}",
            e.name, e.unit, e.rate, e.stats.min_ns, e.stats.median_ns, e.stats.max_ns
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write bench artifact");
    eprintln!("[joss_bench_json] wrote {out_path}");
    print!("{json}");
}
