//! Run an arbitrary sweep campaign from the command line.
//!
//! ```text
//! joss_sweep [--workloads L1,L2|all] [--schedulers S1,S2] [--seeds N1,N2]
//!            [--threads N] [--scale D|full] [--reps R] [--train-seed S]
//!            [--out FILE.jsonl] [--csv FILE.csv] [--record-trace]
//!            [--shard I/N] [--list]
//! ```
//!
//! Workload labels are the Fig. 8 suite labels (`--list` prints them);
//! scheduler syntax is `SchedulerKind::parse_help()`. The flags describe a
//! `GridDesc`, so only the named workloads are built, each once. Records
//! **stream** to the JSONL/CSV files in spec order as workers finish —
//! full records (reports, opted-in traces) are never held for the whole
//! grid. Only one slim `MetricPoint` per record (two labels + one float)
//! survives for the normalized table printed at the end, so memory grows
//! with the spec count but not with task counts or traces.
//!
//! `--shard I/N` (0-based) runs only shard `I` of the cost-balanced
//! `ShardPlan` that `plan_grid` splits the grid into: `N` contiguous spec
//! ranges, cut by the planner and cost model a `joss_fleet` coordinator
//! uses.
//! Records carry their **global** spec indices, so concatenating the N
//! shard outputs in shard order is byte-identical to the unsharded
//! `--out` file — the property the `joss_fleet` merge relies on, asserted
//! in `crates/sweep/tests/shard_plan.rs` and by the CI campaign smoke.
//! Sharded runs skip the summary table (one shard may hold a partial
//! workload row).

use joss_sweep::agg::{normalize_points, MetricPoint};
use joss_sweep::{
    default_threads, geo_means_per_scheduler, plan_grid, Campaign, CsvSink, ExperimentContext,
    GridDesc, JsonlSink, SchedulerKind,
};
use joss_workloads::{fig8_labels, Scale};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: joss_sweep [--workloads L1,L2|all] [--schedulers S1,S2] [--seeds N1,N2]\n\
         \u{20}                 [--threads N] [--scale D|full] [--reps R] [--train-seed S]\n\
         \u{20}                 [--out FILE.jsonl] [--csv FILE.csv] [--record-trace]\n\
         \u{20}                 [--telemetry-out FILE.jsonl] [--shard I/N] [--list]\n\
         schedulers: {}",
        SchedulerKind::parse_help()
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut workload_filter: Option<Vec<String>> = None;
    let mut schedulers: Option<Vec<SchedulerKind>> = None;
    let mut seeds: Vec<u64> = Vec::new();
    let mut threads = default_threads();
    let mut scale = Scale::Divided(100);
    let mut reps = 3u32;
    let mut train_seed = 42u64;
    let mut out_jsonl: Option<String> = None;
    let mut out_csv: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut record_trace = false;
    let mut shard: Option<(usize, usize)> = None;
    let mut list = false;

    let mut i = 1;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                let v = next(&mut i);
                if v != "all" {
                    workload_filter = Some(v.split(',').map(str::to_string).collect());
                }
            }
            "--schedulers" => {
                let parsed: Result<Vec<SchedulerKind>, String> =
                    next(&mut i).split(',').map(str::parse).collect();
                schedulers = Some(parsed.unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage()
                }));
            }
            "--seeds" => {
                seeds = next(&mut i)
                    .split(',')
                    .map(|s| s.parse().expect("seed must be an integer"))
                    .collect();
            }
            "--threads" => threads = next(&mut i).parse().expect("thread count"),
            "--scale" => {
                let v = next(&mut i);
                scale = match v.as_str() {
                    "full" => Scale::Full,
                    d => match d.parse() {
                        Ok(d) if d > 0 => Scale::Divided(d),
                        _ => {
                            eprintln!("error: --scale wants full or a divisor >= 1, got {d:?}");
                            usage()
                        }
                    },
                };
            }
            "--reps" => reps = next(&mut i).parse().expect("training reps"),
            "--train-seed" => train_seed = next(&mut i).parse().expect("train seed"),
            "--out" => out_jsonl = Some(next(&mut i)),
            "--csv" => out_csv = Some(next(&mut i)),
            "--telemetry-out" => telemetry_out = Some(next(&mut i)),
            "--record-trace" => record_trace = true,
            "--shard" => {
                let v = next(&mut i);
                let (idx, n) = v.split_once('/').unwrap_or_else(|| {
                    eprintln!("error: --shard wants I/N (e.g. 0/4), got {v:?}");
                    usage()
                });
                let idx: usize = idx.parse().expect("shard index");
                let n: usize = n.parse().expect("shard count");
                if n == 0 || idx >= n {
                    eprintln!("error: --shard index {idx} out of range for {n} shards");
                    usage();
                }
                shard = Some((idx, n));
            }
            "--list" => list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    if list {
        let labels = fig8_labels();
        println!("available workloads ({}):", labels.len());
        for label in &labels {
            println!("  {label}");
        }
        return;
    }

    // Scaled-down runs have short makespans; shrink Aequitas' slice
    // proportionally so its time-slicing still engages.
    let slice = match scale {
        Scale::Full => 1.0,
        Scale::Divided(d) => (1.0 / d as f64).max(0.005),
    };
    if seeds.is_empty() {
        seeds.push(42);
    }
    let desc = GridDesc {
        workloads: workload_filter.unwrap_or_else(fig8_labels),
        schedulers: schedulers.unwrap_or_else(|| SchedulerKind::fig8_set(slice)),
        seeds,
        scale,
        record_trace,
        shard: None,
    };
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        exit(2);
    };
    eprintln!(
        "[joss_sweep] grid has {} specs ({} workloads x {} schedulers x {} seeds)",
        desc.spec_count(),
        desc.workloads.len(),
        desc.schedulers.len(),
        desc.seeds.len(),
    );

    // --shard I/N: run only one range of the cost-balanced plan, with
    // global record indices, so the N outputs concatenate into the
    // unsharded file. `plan_grid` is the planner a fleet uses for the same
    // grid, so both agree on the boundaries.
    let (index_base, specs) = match shard {
        None => desc.resolve_specs().unwrap_or_else(|e| fail(e)),
        Some((idx, n)) => {
            let plan = plan_grid(&desc, n).unwrap_or_else(|e| fail(e));
            if idx >= plan.len() {
                // More shards requested than specs: trailing shards are
                // empty, and an empty output still concatenates cleanly.
                eprintln!(
                    "[joss_sweep] shard {idx}/{n} is empty ({} specs fill only {} shards)",
                    desc.spec_count(),
                    plan.len()
                );
                (0, Vec::new())
            } else {
                let range = plan.shard(idx);
                eprintln!(
                    "[joss_sweep] shard {idx}/{n}: specs {range} of {}",
                    desc.spec_count()
                );
                desc.with_shard(range)
                    .resolve_specs()
                    .unwrap_or_else(|e| fail(e))
            }
        }
    };

    eprintln!("[joss_sweep] characterizing platform + training models (reps={reps})...");
    let ctx = ExperimentContext::with_reps(train_seed, reps);
    eprintln!(
        "[joss_sweep] running {} specs on {} threads...",
        specs.len(),
        threads
    );
    let mut jsonl_sink = out_jsonl
        .as_ref()
        .map(|p| JsonlSink::create(p).expect("create JSONL file"));
    let mut csv_sink = out_csv
        .as_ref()
        .map(|p| CsvSink::create(p).expect("create CSV file"));
    // Stream: each record is serialized to the sinks and reduced to one
    // summary point the moment it flushes out of the reorder window, then
    // dropped — the full grid (reports, opted-in traces) never accumulates.
    let mut points: Vec<MetricPoint> = Vec::with_capacity(specs.len());
    // Tag the campaign's spec spans with one fresh trace id, so a
    // --telemetry-out snapshot groups into a single trace.
    joss_telemetry::trace::set_current(joss_telemetry::trace::new_trace_id());
    Campaign::with_threads(threads).run_streaming_indexed(&ctx, index_base, specs, |record| {
        if let Some(sink) = &mut jsonl_sink {
            sink.write(&record).expect("write JSONL record");
        }
        if let Some(sink) = &mut csv_sink {
            sink.write(&record).expect("write CSV record");
        }
        points.push(MetricPoint::from_record(&record, |r| r.report.total_j()));
    });
    if let (Some(sink), Some(path)) = (jsonl_sink, &out_jsonl) {
        let n = sink.finish().expect("flush JSONL");
        eprintln!("[joss_sweep] wrote {n} records to {path}");
    }
    if let (Some(sink), Some(path)) = (csv_sink, &out_csv) {
        let n = sink.finish().expect("flush CSV");
        eprintln!("[joss_sweep] wrote {n} records to {path}");
    }
    if let Some(path) = &telemetry_out {
        std::fs::write(path, joss_telemetry::snapshot_jsonl()).expect("write telemetry snapshot");
        eprintln!("[joss_sweep] wrote telemetry snapshot to {path}");
    }

    // Summary: total energy normalized to the first scheduler column. A
    // shard may cut a workload's scheduler row in half, so sharded runs
    // skip the table — the merged file is the unit that gets summarized.
    if shard.is_some() {
        eprintln!("[joss_sweep] sharded run: summary table skipped (concatenate shards first)");
        return;
    }
    let baseline = points[0].scheduler.clone();
    let rows = normalize_points(&points, &baseline);
    println!("# campaign summary — total energy normalized to {baseline}");
    print!("{:<18}", "workload");
    for (name, _) in &rows[0].values {
        print!(" {name:>15}");
    }
    println!();
    for row in &rows {
        print!("{:<18}", row.workload);
        for (_, v) in &row.values {
            print!(" {v:>15.3}");
        }
        println!();
    }
    print!("{:<18}", "Geo.Mean");
    for (_, g) in geo_means_per_scheduler(&rows) {
        print!(" {g:>15.3}");
    }
    println!();
}
