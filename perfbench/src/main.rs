//! End-to-end and per-layer benchmark of the JOSS stack.
//!
//! ```text
//! perfbench --workload <serve_reuse|fleet_cold> [--seed N]
//!           [--seconds S] [--trace 0|1] [--ops N] [--flip-byte OP]
//! perfbench --self-test
//! ```
//!
//! Untraced runs (`--trace 0`) measure one workload and print its
//! end-to-end metrics. A traced run (`--trace 1`) measures the named
//! workload for `--seconds`, then the other workload and the offline
//! Fig. 8 sweep (`sweep_fig8`, the source of the engine layers) briefly,
//! records benchmark spans around every layer call, writes them to
//! `perfbench/out/`, and prints every per-layer metric. The last stdout
//! line is always one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Any failed op (transport error, non-200, not a cache hit
//! where one is due, or a byte that differs from the offline reference)
//! makes the exit code non-zero.

mod fleet;
mod layers;
mod serve;
mod sweep;
mod sys;
mod trace;

use joss_serve::ServeConfig;
use joss_sweep::ExperimentContext;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::exit;
use trace::Tracer;

/// A context trained with a default daemon's training seed and profiling
/// repetitions, so in-process records match the daemon's byte for byte.
pub fn train_context() -> ExperimentContext {
    let defaults = ServeConfig::default();
    ExperimentContext::with_reps(defaults.train_seed, defaults.reps)
}

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 5;

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf29ce484222325, bytes)
}

/// Continue an FNV-1a 64 digest over more bytes.
pub fn fnv1a_extend(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Settings shared by every workload of one invocation.
pub struct Cfg {
    pub seed: u64,
    /// Stop the timed phase after this many ops instead of on time.
    pub max_ops: Option<u64>,
    /// Flip one byte of this op's response before checking it (self-test).
    pub flip: Option<u64>,
}

impl Cfg {
    /// The bytes op `op` delivered, as the check sees them: the self-test
    /// hook corrupts one op's copy.
    pub fn seen<'a>(&self, op: u64, got: &'a [u8]) -> Cow<'a, [u8]> {
        if self.flip == Some(op) && !got.is_empty() {
            let mut bad = got.to_vec();
            bad[got.len() / 2] ^= 0x20;
            Cow::Owned(bad)
        } else {
            Cow::Borrowed(got)
        }
    }

    /// Whether the timed phase should start another op.
    pub fn more(&self, ops: u64, started: std::time::Instant, seconds: f64) -> bool {
        match self.max_ops {
            Some(n) => ops < n,
            None => ops == 0 || started.elapsed().as_secs_f64() < seconds,
        }
    }
}

/// One timed op: when it ended (seconds into the timed phase), how long
/// it took, and the verified records it delivered (0 when it failed).
pub struct Op {
    pub end_s: f64,
    pub ms: f64,
    pub records: u64,
    pub traced: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub failed: u64,
    pub ops: Vec<Op>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// CPU of the system under test over the timed phase.
    pub cpu_s: f64,
    pub rss_peak_mb: f64,
    pub energy_ratio: f64,
    /// Per-layer values (traced runs only); `None` = not reported by this
    /// program version.
    pub layers: Vec<(&'static str, Option<f64>)>,
}

/// Ops per group when a run is summarized group by group.
const GROUP_OPS: usize = 100;
const MAX_GROUPS: usize = 10;

impl Outcome {
    pub fn push_op(&mut self, end_s: f64, secs: f64, records: u64, traced: bool) {
        self.ops.push(Op {
            end_s,
            ms: secs * 1e3,
            records,
            traced,
        });
    }

    /// Count op `index` as failed: it delivered no verified records.
    pub fn fail_op(&mut self, index: usize) {
        self.ops[index].records = 0;
        self.failed += 1;
    }

    pub fn records(&self) -> u64 {
        self.ops.iter().map(|o| o.records).sum()
    }

    /// Traced ÷ untraced delivery rate − 1, over the ops of each kind.
    fn trace_overhead(&self) -> Option<f64> {
        let rate = |traced: bool| {
            let ops = self.ops.iter().filter(|o| o.traced == traced);
            let (records, ms) = ops.fold((0, 0.0), |(r, t), o| (r + o.records, t + o.ms));
            (ms > 0.0).then(|| records as f64 / ms)
        };
        Some(rate(true)? / rate(false)? - 1.0)
    }

    /// `(specs_per_s, latency_ms_p50, latency_ms_p90)`. The ops are cut
    /// into up to ten consecutive groups of at least 100 ops (one group
    /// when there are fewer), and each figure is the median over groups of
    /// the group's value, so a burst of host noise moves at most a few
    /// groups.
    fn summary(&mut self) -> (f64, f64, f64) {
        self.ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let groups = (self.ops.len() / GROUP_OPS).clamp(1, MAX_GROUPS);
        let n = self.ops.len();
        let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
        let mut start_s = 0.0;
        for k in 0..groups {
            let group = &self.ops[k * n / groups..(k + 1) * n / groups];
            let end_s = group.last().expect("non-empty group").end_s;
            let records: u64 = group.iter().map(|o| o.records).sum();
            rates.push(records as f64 / (end_s - start_s));
            start_s = end_s;
            let mut ms: Vec<f64> = group.iter().map(|o| o.ms).collect();
            p50s.push(quantile(&mut ms, 0.5));
            p90s.push(quantile(&mut ms, 0.9));
        }
        eprintln!("perfbench: per-group specs/s {rates:.0?}");
        (median(&rates), median(&p50s), median(&p90s))
    }
}

/// SplitMix64: the one generator every seeded input comes from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An engine seed small enough to read comfortably in a JSON body.
    pub fn engine_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// Linear-interpolated quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Geometric mean over workloads of JOSS ÷ GRWS total energy, from
/// `(workload, is_joss, joules)` triples of distinct records. Workloads
/// lacking either scheduler are skipped.
pub fn energy_ratio<'a>(records: impl IntoIterator<Item = (&'a str, bool, f64)>) -> f64 {
    let mut sums: BTreeMap<&str, [f64; 2]> = BTreeMap::new();
    for (workload, joss, joules) in records {
        sums.entry(workload).or_default()[joss as usize] += joules;
    }
    let logs: Vec<f64> = sums
        .values()
        .filter(|s| s[0] > 0.0 && s[1] > 0.0)
        .map(|s| (s[1] / s[0]).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// The workloads `--workload` accepts.
pub const WORKLOADS: [&str; 2] = ["serve_reuse", "fleet_cold"];

/// The offline Fig. 8 sweep: run only inside traced runs, for the engine
/// layers.
const SWEEP: &str = "sweep_fig8";

fn run_workload(name: &str, cfg: &Cfg, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let result = match name {
        SWEEP => sweep::run(cfg, seconds, tracer),
        "serve_reuse" => serve::run(cfg, seconds, tracer),
        "fleet_cold" => fleet::run(cfg, seconds, tracer),
        _ => unreachable!("workload names are validated at parse time"),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {name} failed: {e}");
        exit(1);
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_ops: Option<u64>,
    flip: Option<u64>,
    self_test: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \u{20}                [--ops N] [--flip-byte OP]\n\
         \u{20}      perfbench --self-test",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: sweep::DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        max_ops: None,
        flip: None,
        self_test: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--ops" => args.max_ops = Some(value().parse().unwrap_or_else(|_| usage())),
            "--flip-byte" => args.flip = Some(value().parse().unwrap_or_else(|_| usage())),
            "--self-test" => args.self_test = true,
            _ => usage(),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

/// Untraced run: the end-to-end metrics of one workload.
fn end_to_end(args: &Args, cfg: &Cfg) -> bool {
    let mut off = Tracer::new(false);
    let mut o = run_workload(&args.workload, cfg, args.seconds, &mut off);
    let (specs_per_s, p50, p90) = o.summary();
    let records = o.records();
    let attempted = o.ops.len() as u64;
    let rows: [(&str, f64, &str); 7] = [
        ("setup_s", o.setup_s, "s"),
        ("specs_per_s", specs_per_s, "1/s"),
        ("latency_ms_p50", p50, "ms"),
        ("latency_ms_p90", p90, "ms"),
        (
            "cpu_us_per_spec",
            o.cpu_s * 1e6 / records.max(1) as f64,
            "us",
        ),
        ("rss_peak_mb", o.rss_peak_mb, "MB"),
        ("joss_energy_vs_grws", o.energy_ratio, "ratio"),
    ];
    println!(
        "# {} seed={} ops={} failed={} records={records} timed={:.3}s",
        args.workload, cfg.seed, attempted, o.failed, o.wall_s
    );
    let mut metrics = String::from("{");
    for (name, value, unit) in rows {
        println!("{name:<22} {value:>14.6} {unit}");
        metric_json(&mut metrics, name, value, unit);
    }
    metrics.push('}');
    let correct = o.failed == 0 && records > 0;
    println!("{}", result_line(correct, attempted, o.failed, &metrics));
    correct
}

/// Traced run: the named workload for the full time, the other workload
/// and the sweep briefly, every per-layer metric, and the spans written
/// out per workload.
fn per_layer(args: &Args, cfg: &Cfg) -> bool {
    let brief = (args.seconds / 4.0).max(1.0);
    let order = std::iter::once(args.workload.as_str())
        .chain(WORKLOADS.into_iter().filter(|w| *w != args.workload))
        .chain([SWEEP]);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut attempted, mut failed, mut overhead) = (0, 0, None);
    for name in order {
        let primary = name == args.workload;
        let mut tracer = Tracer::new(true);
        let o = run_workload(
            name,
            cfg,
            if primary { args.seconds } else { brief },
            &mut tracer,
        );
        let path = format!(
            "perfbench/out/{}-seed{}-spans-{name}.jsonl",
            args.workload, cfg.seed
        );
        match tracer.write(std::path::Path::new(&path), name) {
            Ok(()) => println!("# {name}: {} spans written to {path}", tracer.len()),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
        match o.trace_overhead() {
            Some(v) => println!("# {name}: bench.trace_overhead {v:+.4}"),
            None => println!("# {name}: bench.trace_overhead n/a (needs traced and untraced ops)"),
        }
        if primary {
            overhead = o.trace_overhead();
        }
        attempted += o.ops.len() as u64;
        failed += o.failed;
        // The named workload's value wins; the brief runs fill the rest.
        for (metric, value) in o.layers {
            if let Some(v) = value.filter(|v| v.is_finite()) {
                values.entry(metric).or_insert(v);
            }
        }
    }
    if let Some(v) = overhead.filter(|v| v.is_finite()) {
        values.insert("bench.trace_overhead", v);
    }

    println!(
        "{:<34} {:>14}  {:<6} should move",
        "metric", "value", "unit"
    );
    let mut metrics = String::from("{");
    for (name, unit, moves) in layers::TABLE {
        match values.get(name) {
            Some(&v) => {
                println!("{name:<34} {v:>14.4}  {unit:<6} {moves}");
                metric_json(&mut metrics, name, v, unit);
            }
            None => println!("{name:<34} {:>14}  {unit:<6} {moves}", "absent"),
        }
    }
    metrics.push('}');
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    correct
}

/// Confirms that the same seed replays the same `serve_reuse` schedule
/// with identical `/stats` reuse counts, and that one flipped response
/// byte fails the run with a non-zero exit.
fn self_test(args: &Args) -> bool {
    let cfg = Cfg {
        seed: args.seed,
        max_ops: Some(2000),
        flip: None,
    };
    let a = serve::replay_counts(&cfg);
    let b = serve::replay_counts(&cfg);
    let replay_ok = matches!((&a, &b), (Ok(x), Ok(y)) if x == y);
    println!(
        "self-test replay: first {a:?}, second {b:?}: {}",
        verdict(replay_ok)
    );

    let exe = std::env::current_exe().expect("own executable");
    let child = std::process::Command::new(exe)
        .args(["--workload", "serve_reuse", "--trace", "0", "--ops", "500"])
        .args(["--seed", &args.seed.to_string(), "--flip-byte", "137"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn flipped run");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let flip_ok = !child.status.success()
        && last.contains("\"correct\":false")
        && last.contains("\"failed\":1,");
    println!(
        "self-test flipped byte: exit {:?}, result {last}: {}",
        child.status.code(),
        verdict(flip_ok)
    );
    replay_ok && flip_ok
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAILED"
    }
}

fn main() {
    let args = parse_args();
    let ok = if args.self_test {
        self_test(&args)
    } else {
        let cfg = Cfg {
            seed: args.seed,
            max_ops: args.max_ops,
            flip: args.flip,
        };
        if args.trace {
            per_layer(&args, &cfg)
        } else {
            end_to_end(&args, &cfg)
        }
    };
    exit(if ok { 0 } else { 1 });
}
