//! `fleet_cold`: two `joss_serve` daemons, one campaign thread each,
//! behind one in-process `FleetSession` with the default configuration
//! (stealing on, automatic micro-plan). Every campaign is the cheap
//! six-workload grid × {grws, joss} × fresh seeds, so every range is a
//! simulated miss on the backend that runs it: this is the only workload
//! that exercises the coordinator (plan, claim queue, steal polling,
//! ordered merge) and the daemons' miss path.

use crate::serve::{cheap_grid, record_energy, reference_context, Energy};
use crate::sys::{self, stat_delta, Daemon};
use crate::trace::Tracer;
use crate::{
    energy_ratio, fnv1a, fnv1a_extend, layers::mean, median, quantile, Cfg, Outcome, Rng,
    SETUP_REPS,
};
use joss_fleet::{FleetConfig, FleetReport, FleetSession};
use joss_sweep::json::Value;
use joss_sweep::{grid_costs, Campaign, GridDesc, JsonlSink, ShardPlan};
use joss_telemetry::catalog as tm;
use std::borrow::Cow;
use std::io::{self, Write};
use std::time::{Duration, Instant};

const SEEDS_PER_CAMPAIGN: usize = 4;
const WARMUP_CAMPAIGNS: usize = 8;
/// Peak RSS is read right after this many timed campaigns, which every
/// run completes (a 15 s run completes 450-700 on two vCPUs). Each miss
/// adds its lines to a daemon's store, so a peak read at the end of the
/// timed phase would grow with throughput.
const RSS_CAMPAIGNS: u64 = 250;
const BACKENDS: usize = 2;
/// `--campaign-threads 1` per daemon: the split `joss_fleet --spawn`
/// makes of two cores.
const CAMPAIGN_THREADS: usize = 1;

/// Merge output that notes when its first byte arrived and digests the
/// stream, so the check after the timed phase needs no stored bodies (which
/// would grow the coordinator's peak RSS with its throughput).
struct Timed {
    started: Instant,
    first: Option<Duration>,
    digest: u64,
    /// Self-test hook: flip one byte of this response.
    flip: bool,
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.first.get_or_insert_with(|| self.started.elapsed());
        let mut seen = Cow::Borrowed(buf);
        if std::mem::take(&mut self.flip) {
            seen.to_mut()[0] ^= 0x20;
        }
        self.digest = fnv1a_extend(self.digest, &seen);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A completed timed campaign, checked after the timed phase.
struct Campaigned {
    /// Index of its op in the outcome.
    op: usize,
    desc: GridDesc,
    digest: u64,
}

/// A campaign grid with seeds never used before in this run.
fn fresh_grid(rng: &mut Rng) -> GridDesc {
    cheap_grid((0..SEEDS_PER_CAMPAIGN).map(|_| rng.engine_seed()).collect())
}

fn fleet_error(e: joss_fleet::FleetError) -> io::Error {
    io::Error::other(e.to_string())
}

pub fn run(cfg: &Cfg, seconds: f64, tracer: &mut Tracer) -> io::Result<Outcome> {
    let exe = sys::daemon_exe()?;
    let mut warmup_rng = Rng::new(cfg.seed ^ 0xf1ee_7000);
    let (mut setups, mut connects) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let daemons = (0..BACKENDS)
            .map(|_| Daemon::launch(&exe, CAMPAIGN_THREADS))
            .collect::<io::Result<Vec<_>>>()?;
        for daemon in &daemons {
            daemon.wait_healthy(Duration::from_secs(120))?;
        }
        let config = FleetConfig::new(daemons.iter().map(|d| d.addr.clone()).collect());
        let t1 = Instant::now();
        let session = FleetSession::connect(&config).map_err(fleet_error)?;
        connects.push(t1.elapsed().as_secs_f64() * 1e3);
        for _ in 0..WARMUP_CAMPAIGNS {
            session
                .run(&fresh_grid(&mut warmup_rng), &mut io::sink())
                .map_err(fleet_error)?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            let mut out = timed(cfg, seconds, tracer, &daemons, &session)?;
            out.setup_s = median(&setups);
            if tracer.enabled() {
                out.layers
                    .push(("fleet.connect_ms", Some(median(&connects))));
            }
            return Ok(out);
        }
    }
    unreachable!("SETUP_REPS >= 1")
}

fn timed(
    cfg: &Cfg,
    seconds: f64,
    tracer: &mut Tracer,
    daemons: &[Daemon],
    session: &FleetSession,
) -> io::Result<Outcome> {
    let traced = tracer.enabled();
    let mut rng = Rng::new(cfg.seed ^ 0xca4b_a160);
    let mut out = Outcome::default();
    let mut campaigns: Vec<Campaigned> = Vec::new();
    let mut reports: Vec<FleetReport> = Vec::new();
    let mut first_ms = Vec::new();

    let stats0: Vec<Value> = daemons
        .iter()
        .map(Daemon::stats)
        .collect::<io::Result<_>>()?;
    let steals0 = (
        tm::FLEET_STEALS_COMMITTED.get(),
        tm::FLEET_STEAL_ATTEMPTS.get(),
    );
    let daemon_cpu = || daemons.iter().map(Daemon::cpu_s).sum::<f64>();
    let rss_peak = || {
        daemons
            .iter()
            .map(|d| sys::status_mb(Some(d.pid()), "VmHWM"))
            .sum::<f64>()
            + sys::status_mb(None, "VmHWM")
    };
    let (daemon_cpu0, self_cpu0) = (daemon_cpu(), sys::self_cpu_s());
    let t0 = Instant::now();
    let mut op = 0u64;
    while cfg.more(op, t0, seconds) {
        let desc = fresh_grid(&mut rng);
        let on = traced && op % 2 == 1;
        tracer.set_on(on);
        let span = tracer.begin("campaign", None, op);
        let run = tracer.begin("fleet.run", span, op);
        let mut sink = Timed {
            started: Instant::now(),
            first: None,
            digest: fnv1a(b""),
            flip: cfg.flip == Some(op),
        };
        let result = session.run(&desc, &mut sink);
        let elapsed = sink.started.elapsed();
        tracer.end(run);
        tracer.end(span);
        let end_s = t0.elapsed().as_secs_f64();
        let records = if result.is_ok() { desc.spec_count() } else { 0 };
        out.push_op(end_s, elapsed.as_secs_f64(), records as u64, on);
        match result {
            Ok(report) => {
                first_ms.extend(sink.first.map(|d| d.as_secs_f64() * 1e3));
                campaigns.push(Campaigned {
                    op: out.ops.len() - 1,
                    desc,
                    digest: sink.digest,
                });
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: fleet campaign {op} failed: {e}");
                out.failed += 1;
            }
        }
        op += 1;
        if op == RSS_CAMPAIGNS {
            out.rss_peak_mb = rss_peak();
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    let daemon_cpu_s = daemon_cpu() - daemon_cpu0;
    out.cpu_s = daemon_cpu_s + sys::self_cpu_s() - self_cpu0;
    if op < RSS_CAMPAIGNS {
        // Only the brief fleet run of a traced run, which reports no RSS,
        // is expected to end this early.
        if !traced {
            eprintln!("perfbench: only {op} timed campaigns; peak RSS read at the end");
        }
        out.rss_peak_mb = rss_peak();
    }
    tracer.set_on(traced);
    let steals1 = (
        tm::FLEET_STEALS_COMMITTED.get(),
        tm::FLEET_STEAL_ATTEMPTS.get(),
    );
    let stats1: Vec<Value> = daemons
        .iter()
        .map(Daemon::stats)
        .collect::<io::Result<_>>()?;

    // Byte check against offline references, outside the timed phase.
    let ctx = reference_context();
    let mut energy: Vec<Energy> = Vec::new();
    for (i, c) in campaigns.iter().enumerate() {
        let span = tracer.begin("verify", None, i as u64);
        let (_, specs) = c.desc.resolve_specs().map_err(io::Error::other)?;
        let mut reference = JsonlSink::new(Vec::with_capacity(32 * 1024));
        Campaign::with_threads(2).run_streaming(ctx, specs, |record| {
            reference.write(&record).expect("in-memory sink");
            energy.extend(record_energy(&record));
        });
        if c.digest != fnv1a(&reference.into_inner()?) {
            out.fail_op(c.op);
        }
        tracer.end(span);
    }
    out.energy_ratio = energy_ratio(energy.iter().map(|(w, joss, j)| (w.as_str(), *joss, *j)));

    if traced {
        out.layers = fleet_layers(
            &campaigns,
            &reports,
            &mut first_ms,
            [&stats0, &stats1],
            (steals1.0 - steals0.0, steals1.1 - steals0.1),
            tracer,
        );
        let threads = (daemons.len() * CAMPAIGN_THREADS) as f64;
        out.layers.push((
            "serve.busy_frac",
            Some(daemon_cpu_s / (out.wall_s * threads)),
        ));
    }
    Ok(out)
}

fn fleet_layers(
    campaigns: &[Campaigned],
    reports: &[FleetReport],
    first_ms: &mut [f64],
    [stats0, stats1]: [&Vec<Value>; 2],
    (committed, polled): (u64, u64),
    tracer: &mut Tracer,
) -> Vec<(&'static str, Option<f64>)> {
    let n = reports.len().max(1) as f64;
    let sum = |f: fn(&FleetReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
    let delivered: f64 = sum(|r| r.records);
    let per_backend_delta = |key: &str| -> Option<f64> {
        stats0
            .iter()
            .zip(stats1.iter())
            .map(|(a, b)| stat_delta(a, b, key))
            .sum::<Option<f64>>()
    };
    let amplification = match (
        per_backend_delta("records_streamed"),
        per_backend_delta("store_spec_hits"),
    ) {
        (Some(streamed), Some(spliced)) if delivered > 0.0 => {
            Some((streamed - spliced) / delivered)
        }
        _ => None,
    };
    let mut totals = vec![0usize; reports.first().map_or(0, |r| r.completed_per_backend.len())];
    for report in reports {
        for (slot, (_, done)) in totals.iter_mut().zip(&report.completed_per_backend) {
            *slot += done;
        }
    }
    let imbalance = match (totals.iter().max(), totals.iter().min()) {
        (Some(&max), Some(&min)) if min > 0 => Some(max as f64 / min as f64),
        _ => None,
    };

    // Replays of the coordinator's planning on the same grids.
    let span = tracer.begin("replay.plan", None, campaigns.len() as u64);
    let backends = reports
        .first()
        .map_or(BACKENDS, |r| r.completed_per_backend.len());
    let (mut plan_us, mut resolve_ms) = (Vec::new(), Vec::new());
    for Campaigned { desc, .. } in campaigns.iter().take(200) {
        let t = Instant::now();
        let costs = grid_costs(desc).expect("campaign grids resolve");
        let plan = ShardPlan::weighted(&costs, backends * ShardPlan::MICRO_FACTOR);
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let specs = desc.with_shard(plan.shard(0)).resolve_specs();
        resolve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(specs.expect("micro-range resolves"));
    }
    tracer.end(span);

    vec![
        (
            "fleet.first_record_ms",
            (!first_ms.is_empty()).then(|| quantile(first_ms, 0.5)),
        ),
        ("fleet.steals_per_campaign", Some(sum(|r| r.steals) / n)),
        (
            "fleet.stolen_specs_per_campaign",
            Some(sum(|r| r.stolen_specs) / n),
        ),
        (
            "fleet.steal_commit_frac",
            Some(if polled > 0 {
                committed as f64 / polled as f64
            } else {
                0.0
            }),
        ),
        ("fleet.sim_amplification", amplification),
        ("fleet.task_imbalance", imbalance),
        (
            "fleet.merge_buffer_peak",
            reports
                .iter()
                .map(|r| r.max_buffered_lines as f64)
                .reduce(f64::max),
        ),
        ("fleet.failovers", Some(sum(|r| r.failovers))),
        ("fleet.sheds", Some(sum(|r| r.sheds))),
        (
            "serve.store_spec_hits",
            per_backend_delta("store_spec_hits"),
        ),
        ("serve.rejected_503", per_backend_delta("rejected_503")),
        ("serve.io_errors", per_backend_delta("io_errors")),
        ("sweep.plan_us", mean(&plan_us)),
        ("sweep.shard_resolve_ms", mean(&resolve_ms)),
    ]
}
