//! `sweep_fig8`: the paper's Fig. 8 evaluation — all 21 Table-1 workloads
//! × the six Fig. 8 schedulers at full scale — run in this process the way
//! `joss_sweep` runs it: one two-thread `Campaign::run_streaming` into a
//! `JsonlSink` per op. Nearly all of its time is in the engine, platform
//! and model crates; serve and fleet are never touched. It runs only
//! inside traced runs, as the source of the engine layers.

use crate::trace::Tracer;
use crate::{fnv1a, median, train_context, Cfg, Outcome, SETUP_REPS};
use joss_sweep::{to_jsonl, Campaign, GridDesc, JsonlSink, SchedulerKind};
use joss_workloads::{fig8_labels, Scale};
use std::io;
use std::time::Instant;

/// The seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a 64 of the grid's JSONL at [`DEFAULT_SEED`], as produced by an
/// offline `Campaign::run_streaming` into a `JsonlSink` (training seed 42,
/// 3 reps). Other seeds are checked against a reference computed after
/// the timed phase.
const DEFAULT_DIGEST: u64 = 0xd73adcde08e0a044;

const THREADS: usize = 2;

/// The full-scale Fig. 8 grid, one engine seed taken from the benchmark
/// seed.
pub fn grid(seed: u64) -> GridDesc {
    GridDesc {
        workloads: fig8_labels(),
        schedulers: SchedulerKind::fig8_set(1.0),
        seeds: vec![seed],
        scale: Scale::Full,
        record_trace: false,
        shard: None,
    }
}

pub fn run(cfg: &Cfg, seconds: f64, tracer: &mut Tracer) -> io::Result<Outcome> {
    let desc = grid(cfg.seed);
    let mut out = Outcome::default();

    // Set-up: context training and grid build, repeated.
    let (mut trains, mut builds) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let ctx = train_context();
        let t1 = Instant::now();
        let (_, specs) = desc.resolve_specs().map_err(io::Error::other)?;
        trains.push((t1 - t0).as_secs_f64() * 1e3);
        builds.push(t1.elapsed().as_secs_f64() * 1e3);
        prepared = Some((ctx, specs));
    }
    let (ctx, specs) = prepared.expect("at least one set-up");

    // Timed phase: back-to-back sweeps, at least one untraced and one
    // traced, alternating so their rates give the tracing overhead.
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    let t0 = Instant::now();
    let mut op = 0u64;
    while op < 2 || cfg.more(op, t0, seconds) {
        let on = op % 2 == 1;
        tracer.set_on(on);
        let span = tracer.begin("sweep", None, op);
        let started = Instant::now();
        let run_span = tracer.begin("sweep.run_streaming", span, op);
        let mut sink = JsonlSink::new(Vec::with_capacity(1 << 18));
        let mut records = 0u64;
        Campaign::with_threads(THREADS).run_streaming(&ctx, specs.clone(), |record| {
            let write = tracer.begin("sweep.sink_write", run_span, op);
            sink.write(&record).expect("in-memory sink");
            tracer.end(write);
            records += 1;
        });
        let bytes = sink.into_inner()?;
        tracer.end(run_span);
        tracer.end(span);
        out.push_op(
            t0.elapsed().as_secs_f64(),
            started.elapsed().as_secs_f64(),
            records,
            on,
        );
        outputs.push(bytes);
        op += 1;
    }
    tracer.set_on(true);

    // Check every sweep after the timed phase: against the kept digest for
    // the default seed, else byte for byte against an offline reference
    // built through the batch path (`Campaign::run` + `to_jsonl`).
    let reference: Option<Vec<u8>> = (cfg.seed != DEFAULT_SEED)
        .then(|| to_jsonl(&Campaign::with_threads(THREADS).run(&ctx, specs.clone())).into_bytes());
    for (op, bytes) in outputs.iter().enumerate() {
        let span = tracer.begin("verify", None, op as u64);
        let seen = cfg.seen(op as u64, bytes);
        let ok = match &reference {
            Some(want) => *seen == **want,
            None => fnv1a(&seen) == DEFAULT_DIGEST,
        };
        tracer.end(span);
        if !ok {
            out.fail_op(op);
        }
    }
    let walls: Vec<f64> = out.ops.iter().map(|o| o.ms / 1e3).collect();

    let serial = crate::layers::engine_layers(&ctx, &specs, tracer, op);
    if serial.bytes != *outputs.last().expect("at least one sweep") {
        eprintln!("perfbench: serial run_spec output differs from the campaign's");
        out.failed += 1;
    }
    out.layers = vec![
        ("models.train_ms", Some(median(&trains))),
        ("workloads.build_ms", Some(median(&builds))),
        (
            "sweep.pool_busy_frac",
            Some(serial.total_s / (THREADS as f64 * median(&walls))),
        ),
    ];
    out.layers.extend(serial.layers);
    Ok(out)
}
