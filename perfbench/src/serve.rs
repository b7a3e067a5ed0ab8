//! `serve_reuse`: one `joss_serve` daemon answering a seeded schedule over
//! one keep-alive connection, in which every request takes a known reuse
//! tier and nothing is simulated. The four tiers take equal shares, the
//! one split that assumes no traffic data:
//!
//! * `raw` — a byte-identical replay (raw-body memo);
//! * `canonical` — a never-seen re-spelling of a cached grid (parse, then
//!   canonical cache);
//! * `slice` — a never-seen shard of a grid cached whole (parent slice);
//! * `store` — a never-seen range of a grid primed only as pieces, or
//!   whose whole body was evicted (store assembly).
//!
//! The schedule is generated against an exact model of the daemon's LRU
//! cache, so each request's tier follows from the schedule alone. The
//! working set's records fit in the default store while its bodies
//! outnumber the default cache, so eviction and store fall-through happen
//! during the timed phase. A shard or range is drawn uniformly from all
//! `start < end` pairs of its grid's lines, also an assumption.

use crate::sys::{self, stat, stat_delta, Daemon};
use crate::trace::Tracer;
use crate::{energy_ratio, median, train_context, Cfg, Outcome, Rng, SETUP_REPS};
use joss_serve::cache::CachedBody;
use joss_serve::client::Conn;
use joss_serve::{RangeStore, Response, ResultsCache, ServeConfig};
use joss_sweep::json::{quote, Value};
use joss_sweep::{Campaign, ExperimentContext, GridDesc, SchedulerKind, SpecRange};
use joss_workloads::Scale;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Cheap Fig. 8 workloads shared by `serve_reuse` and `fleet_cold`.
pub const CHEAP: [&str; 6] = [
    "DP",
    "FB",
    "MM_256_dop4",
    "HT_Small",
    "MC_4096_dop4",
    "ST_512_dop4",
];
pub const SCALE: Scale = Scale::Divided(100);
const SEEDS_PER_GRID: usize = 10;
/// Grids primed whole (parent-slice sources) and as two pieces (store
/// sources).
const WHOLE_GRIDS: usize = 12;
const PIECE_GRIDS: usize = 12;
/// Tier of each slot in a block of four requests, shuffled per block.
const BLOCK: [Tier; 4] = [Tier::Raw, Tier::Canonical, Tier::Slice, Tier::Store];
/// Requests generated per second of timed phase; the phase ends early if
/// the daemon outruns them.
const SCHEDULE_RATE: f64 = 20_000.0;
const CAMPAIGN_THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Raw,
    Canonical,
    Slice,
    Store,
    Miss,
}

pub fn cheap_grid(seeds: Vec<u64>) -> GridDesc {
    GridDesc {
        workloads: CHEAP.iter().map(|w| w.to_string()).collect(),
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds,
        scale: SCALE,
        record_trace: false,
        shard: None,
    }
}

/// `(workload, is_joss, total joules)` of the GRWS and JOSS records.
pub type Energy = (String, bool, f64);

pub fn record_energy(record: &joss_sweep::RunRecord) -> Option<Energy> {
    let joss = match record.kind {
        SchedulerKind::Grws => false,
        SchedulerKind::Joss => true,
        _ => return None,
    };
    Some((record.workload.clone(), joss, record.report.total_j()))
}

/// One base grid of the working set and its offline reference body.
struct Grid {
    desc: GridDesc,
    reference: Vec<u8>,
    /// Byte offset of each line start, plus the end.
    offsets: Vec<usize>,
    energy: Vec<Option<Energy>>,
    /// Never-requested ranges, in seeded order.
    fresh: Vec<(usize, usize)>,
}

impl Grid {
    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    fn bytes(&self, start: usize, end: usize) -> &[u8] {
        &self.reference[self.offsets[start]..self.offsets[end]]
    }
}

/// What a request asks for: lines `start..end` of grid `grid`, as a shard
/// or as the whole grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Target {
    grid: usize,
    start: usize,
    end: usize,
    sharded: bool,
}

struct Request {
    body: usize,
    target: Target,
    tier: Tier,
}

/// Exact model of `ResultsCache` recency over interned canonical ids:
/// every `get_raw`, `get`, `memo_raw` and `insert` takes one tick, and
/// eviction drops the least recently used entry (ticks are unique, so
/// eviction order is exact). Ordered maps keep candidate picks
/// deterministic.
struct CacheModel {
    capacity: usize,
    tick: u64,
    /// canonical id → last use.
    entries: BTreeMap<usize, u64>,
    /// body id → (canonical id, last use).
    memo: BTreeMap<usize, (usize, u64)>,
}

impl CacheModel {
    fn new(capacity: usize) -> CacheModel {
        CacheModel {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            memo: BTreeMap::new(),
        }
    }

    fn insert(&mut self, canonical: usize) {
        self.tick += 1;
        self.entries.insert(canonical, self.tick);
        while self.entries.len() > self.capacity {
            let oldest = self.entries.iter().min_by_key(|e| e.1).map(|e| *e.0);
            self.entries.remove(&oldest.expect("over-capacity cache"));
        }
    }

    fn memo_raw(&mut self, body: usize, canonical: usize) {
        self.tick += 1;
        self.memo.insert(body, (canonical, self.tick));
        while self.memo.len() > self.capacity * 4 {
            let oldest = self.memo.iter().min_by_key(|e| e.1 .1).map(|e| *e.0);
            self.memo.remove(&oldest.expect("over-capacity memo"));
        }
    }

    fn get(&mut self, canonical: usize) -> bool {
        self.tick += 1;
        match self.entries.get_mut(&canonical) {
            Some(used) => {
                *used = self.tick;
                true
            }
            None => false,
        }
    }

    /// The reactor's lookup order for one request (`reactor::campaign`):
    /// raw memo, canonical, parent slice, store (`stored` says whether it
    /// covers the range), else a miss that the executor then caches.
    fn request(
        &mut self,
        body: usize,
        canonical: usize,
        parent: Option<usize>,
        stored: bool,
    ) -> Tier {
        self.tick += 1;
        if let Some((memo_canonical, used)) = self.memo.get_mut(&body) {
            if let Some(entry) = self.entries.get_mut(memo_canonical) {
                *used = self.tick;
                *entry = self.tick;
                return Tier::Raw;
            }
            self.memo.remove(&body);
        }
        if self.get(canonical) {
            self.memo_raw(body, canonical);
            return Tier::Canonical;
        }
        let tier = match parent {
            Some(parent) if self.get(parent) => Tier::Slice,
            _ if stored => Tier::Store,
            _ => Tier::Miss,
        };
        self.insert(canonical);
        self.memo_raw(body, canonical);
        tier
    }
}

/// The working set, the priming requests and the timed schedule, all from
/// one seed.
struct Plan {
    grids: Vec<Grid>,
    /// Interned canonical JSON: targets by id, ids by target.
    targets: Vec<Target>,
    ids: HashMap<Target, usize>,
    /// Request bodies and the canonical id each one parses to.
    bodies: Vec<Vec<u8>>,
    body_target: Vec<usize>,
    priming: Vec<Request>,
    schedule: Vec<Request>,
    spellings: u64,
}

/// A never-seen spelling of `desc`: members in a seeded order, led by a
/// whitespace run that encodes `counter` (so no two spellings collide).
fn spell(desc: &GridDesc, counter: u64, rng: &mut Rng) -> Vec<u8> {
    let list = |items: Vec<String>| format!("[{}]", items.join(", "));
    let mut members = vec![
        format!(
            "\"workloads\": {}",
            list(desc.workloads.iter().map(|w| quote(w)).collect())
        ),
        format!(
            "\"schedulers\":{}",
            list(
                desc.schedulers
                    .iter()
                    .map(|s| quote(&s.to_cli_string()))
                    .collect()
            )
        ),
        format!(
            "\"seeds\" :{}",
            list(desc.seeds.iter().map(u64::to_string).collect())
        ),
        match desc.scale {
            Scale::Full => "\"scale\":\"full\"".to_string(),
            Scale::Divided(d) => format!("\"scale\": {d}"),
        },
        format!("\"record_trace\":{}", desc.record_trace),
    ];
    if let Some(r) = desc.shard {
        members.push(format!("\"shard\":[{},{}]", r.start, r.end));
    }
    rng.shuffle(&mut members);
    let mut ws = String::from(" ");
    let mut digits = Vec::new();
    let mut rest = counter;
    while rest > 0 {
        digits.push([' ', '\t', '\n', '\r'][(rest % 4) as usize]);
        rest /= 4;
    }
    ws.extend(digits.iter().rev());
    format!("{{{ws}{}}}", members.join(",\n")).into_bytes()
}

impl Plan {
    fn new(seed: u64, ctx: &ExperimentContext, ops: usize) -> io::Result<Plan> {
        let mut rng = Rng::new(seed ^ 0x5e17_e5e1);
        let mut grids = Vec::with_capacity(WHOLE_GRIDS + PIECE_GRIDS);
        for _ in 0..WHOLE_GRIDS + PIECE_GRIDS {
            let desc = cheap_grid((0..SEEDS_PER_GRID).map(|_| rng.engine_seed()).collect());
            let (_, specs) = desc.resolve_specs().map_err(io::Error::other)?;
            let records = Campaign::with_threads(2).run(ctx, specs);
            let mut reference = Vec::new();
            let mut offsets = vec![0];
            for record in &records {
                reference.extend_from_slice(record.to_json().as_bytes());
                reference.push(b'\n');
                offsets.push(reference.len());
            }
            let n = records.len();
            let mut fresh: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (a + 1..=n).map(move |b| (a, b)))
                .collect();
            rng.shuffle(&mut fresh);
            grids.push(Grid {
                desc,
                reference,
                offsets,
                energy: records.iter().map(record_energy).collect(),
                fresh,
            });
        }

        let mut model = CacheModel::new(ServeConfig::default().cache_entries);
        let mut plan = Plan {
            grids,
            targets: Vec::new(),
            ids: HashMap::new(),
            bodies: Vec::new(),
            body_target: Vec::new(),
            priming: Vec::new(),
            schedule: Vec::with_capacity(ops),
            spellings: 0,
        };
        // Priming: whole grids, then the piece grids as two halves each,
        // requested in canonical form.
        for grid in 0..plan.grids.len() {
            let n = plan.grids[grid].n();
            let pieces = if grid < WHOLE_GRIDS {
                vec![(0, n, false)]
            } else {
                vec![(0, n / 2, true), (n / 2, n, true)]
            };
            for (start, end, sharded) in pieces {
                plan.grids[grid].fresh.retain(|&r| r != (start, end));
                let target = Target {
                    grid,
                    start,
                    end,
                    sharded,
                };
                let body = plan.desc(target).to_canonical_json().into_bytes();
                let body = plan.add_body(body, target);
                let req = plan.model_request(&mut model, body, false);
                plan.priming.push(req);
            }
        }

        let mut block = BLOCK;
        while plan.schedule.len() < ops {
            let slot = plan.schedule.len() % BLOCK.len();
            if slot == 0 {
                rng.shuffle(&mut block);
            }
            let Some(body) = plan.pick(&model, &mut rng, block[slot]) else {
                break;
            };
            let req = plan.model_request(&mut model, body, true);
            plan.schedule.push(req);
        }
        Ok(plan)
    }

    fn desc(&self, target: Target) -> GridDesc {
        let mut desc = self.grids[target.grid].desc.clone();
        if target.sharded {
            desc.shard = Some(SpecRange::new(target.start, target.end));
        }
        desc
    }

    fn intern(&mut self, target: Target) -> usize {
        let next = self.targets.len();
        let id = *self.ids.entry(target).or_insert(next);
        if id == next {
            self.targets.push(target);
        }
        id
    }

    fn whole(&mut self, grid: usize) -> usize {
        let n = self.grids[grid].n();
        self.intern(Target {
            grid,
            start: 0,
            end: n,
            sharded: false,
        })
    }

    fn add_body(&mut self, body: Vec<u8>, target: Target) -> usize {
        let id = self.intern(target);
        self.bodies.push(body);
        self.body_target.push(id);
        self.bodies.len() - 1
    }

    /// Run one request through the cache model.
    fn model_request(&mut self, model: &mut CacheModel, body: usize, stored: bool) -> Request {
        let canonical = self.body_target[body];
        let target = self.targets[canonical];
        let parent = target.sharded.then(|| self.whole(target.grid));
        let tier = model.request(body, canonical, parent, stored);
        Request { body, target, tier }
    }

    fn fresh_spelling(&mut self, target: Target, rng: &mut Rng) -> usize {
        self.spellings += 1;
        let body = spell(&self.desc(target), self.spellings, rng);
        self.add_body(body, target)
    }

    /// A request body of the wanted tier, or of the next tier that has a
    /// candidate.
    fn pick(&mut self, model: &CacheModel, rng: &mut Rng, want: Tier) -> Option<usize> {
        let tiers = [Tier::Raw, Tier::Canonical, Tier::Slice, Tier::Store];
        let first = tiers.iter().position(|t| *t == want).expect("timed tier");
        (0..tiers.len()).find_map(|i| self.pick_tier(model, rng, tiers[(first + i) % tiers.len()]))
    }

    fn pick_tier(&mut self, model: &CacheModel, rng: &mut Rng, tier: Tier) -> Option<usize> {
        match tier {
            Tier::Raw => {
                let live: Vec<usize> = model
                    .memo
                    .iter()
                    .filter(|(_, (canonical, _))| model.entries.contains_key(canonical))
                    .map(|(body, _)| *body)
                    .collect();
                (!live.is_empty()).then(|| live[rng.below(live.len())])
            }
            Tier::Canonical => {
                let cached: Vec<usize> = model.entries.keys().copied().collect();
                let canonical = *cached.get(rng.below(cached.len().max(1)))?;
                Some(self.fresh_spelling(self.targets[canonical], rng))
            }
            Tier::Slice | Tier::Store => {
                // Last use of each grid's whole body, if it is cached.
                let wholes: Vec<Option<u64>> = (0..self.grids.len())
                    .map(|g| model.entries.get(&self.whole(g)).copied())
                    .collect();
                let open = |g: &usize| !self.grids[*g].fresh.is_empty();
                let grid = if tier == Tier::Slice {
                    // The parent used longest ago: taking the parents in
                    // turn keeps them cached, so the slice tier does not
                    // run out of parents and keeps its share.
                    (0..self.grids.len())
                        .filter(open)
                        .filter_map(|g| Some((wholes[g]?, g)))
                        .min()?
                        .1
                } else {
                    let grids: Vec<usize> = (0..self.grids.len())
                        .filter(|g| wholes[*g].is_none() && open(g))
                        .collect();
                    *grids.get(rng.below(grids.len().max(1)))?
                };
                let (start, end) = self.grids[grid].fresh.pop().expect("non-empty pool");
                let target = Target {
                    grid,
                    start,
                    end,
                    sharded: true,
                };
                Some(self.fresh_spelling(target, rng))
            }
            Tier::Miss => None,
        }
    }

    fn expected(&self, target: Target) -> &[u8] {
        self.grids[target.grid].bytes(target.start, target.end)
    }
}

/// In-process context for references, trained once per process.
pub fn reference_context() -> &'static ExperimentContext {
    static CTX: std::sync::OnceLock<ExperimentContext> = std::sync::OnceLock::new();
    CTX.get_or_init(train_context)
}

/// Pass/fail from the status, `X-Joss-Cache` and the bytes only.
fn ok_hit(resp: &io::Result<Response>, want: &[u8], cfg: &Cfg, op: u64) -> bool {
    resp.as_ref().is_ok_and(|r| {
        r.status == 200
            && r.header("x-joss-cache") == Some("hit")
            && *cfg.seen(op, &r.body) == *want
    })
}

/// Launch a daemon and prime it with the plan's working set, checking
/// every primed byte. Returns the daemon and its VmRSS after priming.
fn set_up(plan: &Plan) -> io::Result<(Daemon, f64)> {
    let daemon = Daemon::launch(&sys::daemon_exe()?, CAMPAIGN_THREADS)?;
    daemon.wait_healthy(Duration::from_secs(120))?;
    let mut conn = Conn::connect(&daemon.addr, Duration::from_secs(120))?;
    for (i, req) in plan.priming.iter().enumerate() {
        let resp = conn.post("/v1/campaign", &plan.bodies[req.body])?;
        if resp.status != 200 || resp.body != plan.expected(req.target) {
            return Err(io::Error::other(format!(
                "priming request {i} answered {} with unexpected bytes",
                resp.status
            )));
        }
        // The executor caches a miss just after streaming it; wait for
        // that so the daemon's recency order is the model's.
        while stat(&daemon.stats()?, "cached_grids").is_some_and(|c| c < (i + 1) as f64) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let rss = sys::status_mb(Some(daemon.pid()), "VmRSS");
    Ok((daemon, rss))
}

/// `(schedule digest, /stats cache_hits delta, /stats store_hits delta)`.
pub type Counts = (u64, Option<f64>, Option<f64>);

pub fn run(cfg: &Cfg, seconds: f64, tracer: &mut Tracer) -> io::Result<Outcome> {
    run_counted(cfg, seconds, tracer).map(|(out, _)| out)
}

/// Reuse counts of a fixed-length untraced run: the self-test's replay
/// check.
pub fn replay_counts(cfg: &Cfg) -> io::Result<Counts> {
    run_counted(cfg, f64::MAX, &mut Tracer::new(false)).map(|(_, counts)| counts)
}

fn run_counted(cfg: &Cfg, seconds: f64, tracer: &mut Tracer) -> io::Result<(Outcome, Counts)> {
    let traced = tracer.enabled();
    let ops = cfg
        .max_ops
        .unwrap_or((seconds * SCHEDULE_RATE).ceil() as u64) as usize;
    let plan = Plan::new(cfg.seed, reference_context(), ops)?;
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut primed = None;
    for _ in 0..SETUP_REPS {
        drop(primed.take());
        let t0 = Instant::now();
        primed = Some(set_up(&plan)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (daemon, rss_primed) = primed.expect("at least one set-up");
    out.setup_s = median(&setups);

    let mut conn = Conn::connect(&daemon.addr, Duration::from_secs(30))?;
    let stats0 = daemon.stats()?;
    let cpu0 = daemon.cpu_s();
    let t0 = Instant::now();
    let mut op = 0u64;
    while cfg.more(op, t0, seconds) && (op as usize) < plan.schedule.len() {
        let req = &plan.schedule[op as usize];
        let on = traced && op % 2 == 1;
        tracer.set_on(on);
        let span = tracer.begin("request", None, op);
        let post = tracer.begin("serve.post", span, op);
        let started = Instant::now();
        let resp = conn.post("/v1/campaign", &plan.bodies[req.body]);
        let secs = started.elapsed().as_secs_f64();
        tracer.end(post);
        let verify = tracer.begin("verify", span, op);
        let ok = ok_hit(&resp, plan.expected(req.target), cfg, op);
        tracer.end(verify);
        tracer.end(span);
        let lines = if ok {
            (req.target.end - req.target.start) as u64
        } else {
            0
        };
        out.push_op(t0.elapsed().as_secs_f64(), secs, lines, on);
        if !ok {
            out.failed += 1;
            if resp.is_err() || !conn.is_reusable() {
                conn = Conn::connect(&daemon.addr, Duration::from_secs(30))?;
            }
        }
        op += 1;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = daemon.cpu_s() - cpu0;
    out.rss_peak_mb = sys::status_mb(Some(daemon.pid()), "VmHWM");
    tracer.set_on(traced);
    let stats1 = daemon.stats()?;
    drop(conn);
    drop(daemon);

    let executed = &plan.schedule[..op as usize];
    let count = |tier: Tier| executed.iter().filter(|r| r.tier == tier).count() as f64;
    let [raw, canonical, slice, store] =
        [Tier::Raw, Tier::Canonical, Tier::Slice, Tier::Store].map(count);
    println!("# serve_reuse tiers: raw {raw} canonical {canonical} slice {slice} store {store}");
    // A daemon that follows the cache model reports these /stats deltas.
    // Where a key is present and disagrees, the request tiers are unknown,
    // so no latency is credited to any tier.
    let cache_hits = stat_delta(&stats0, &stats1, "cache_hits");
    let store_hits = stat_delta(&stats0, &stats1, "store_hits");
    let executed_campaigns = stat_delta(&stats0, &stats1, "campaigns_executed");
    let model_holds = cache_hits.is_none_or(|c| c == raw + canonical + slice)
        && store_hits.is_none_or(|s| s == store)
        && executed_campaigns.is_none_or(|e| e == 0.0);
    if !model_holds {
        eprintln!(
            "perfbench: /stats cache/store hits and executed campaigns \
             {cache_hits:?}/{store_hits:?}/{executed_campaigns:?} differ from the schedule's \
             {}/{store}/0; per-tier latency is not reported",
            raw + canonical + slice
        );
    }

    // Distinct records delivered, and hit latency per tier.
    let mut delivered: Vec<Vec<bool>> = plan.grids.iter().map(|g| vec![false; g.n()]).collect();
    let mut tier_us: [Vec<f64>; 4] = Default::default();
    for (req, done) in executed.iter().zip(&out.ops) {
        if done.records > 0 {
            delivered[req.target.grid][req.target.start..req.target.end].fill(true);
            if model_holds {
                tier_us[req.tier as usize].push(done.ms * 1e3);
            }
        }
    }
    let energy = plan.grids.iter().zip(&delivered).flat_map(|(grid, seen)| {
        grid.energy
            .iter()
            .zip(seen)
            .filter_map(|(e, &seen)| e.as_ref().filter(|_| seen))
    });
    out.energy_ratio = energy_ratio(energy.map(|(w, joss, j)| (w.as_str(), *joss, *j)));

    let digest = plan.priming.iter().chain(executed).fold(0u64, |h, r| {
        h.rotate_left(5) ^ crate::fnv1a(&plan.bodies[r.body])
    });
    if traced {
        out.layers = serve_layers(
            &plan,
            executed,
            &tier_us,
            [&stats0, &stats1],
            rss_primed,
            tracer,
        );
    }
    Ok((out, (digest, cache_hits, store_hits)))
}

/// Per-layer metrics of a traced `serve_reuse` run: client-observed hit
/// latency per tier, `/stats` deltas, and replays of the parse,
/// canonicalization, cache-lookup and store-assembly steps on
/// benchmark-owned instances filled the way the daemon's were.
fn serve_layers(
    plan: &Plan,
    executed: &[Request],
    tier_us: &[Vec<f64>; 4],
    [stats0, stats1]: [&Value; 2],
    rss_primed: f64,
    tracer: &mut Tracer,
) -> Vec<(&'static str, Option<f64>)> {
    let replay_op = executed.len() as u64;
    let span = tracer.begin("replay.parse_canonical", None, replay_op);
    let parsed: Vec<&str> = executed
        .iter()
        .filter(|r| r.tier != Tier::Raw)
        .take(20_000)
        .map(|r| std::str::from_utf8(&plan.bodies[r.body]).expect("generated bodies are UTF-8"))
        .collect();
    let (mut parse_ns, mut canonical_ns) = (0.0, 0.0);
    for text in &parsed {
        let t = Instant::now();
        let desc = GridDesc::from_json(black_box(text)).expect("generated bodies parse");
        let t1 = Instant::now();
        black_box((desc.to_canonical_json(), desc.spec_hash()));
        canonical_ns += t1.elapsed().as_nanos() as f64;
        parse_ns += (t1 - t).as_nanos() as f64;
    }
    tracer.end(span);

    let span = tracer.begin("replay.cache_store", None, replay_op);
    let (cache_get_ns, store_us) = replay_lookups(plan, executed);
    tracer.end(span);

    let n = parsed.len().max(1) as f64;
    let mut layers = vec![
        ("sweep.parse_us", Some(parse_ns / n / 1e3)),
        ("sweep.canonical_us", Some(canonical_ns / n / 1e3)),
        ("serve.cache_get_ns", cache_get_ns),
        ("serve.store_assemble_us", store_us),
        ("serve.rss_primed_mb", Some(rss_primed)),
        ("serve.store_lines", stat(stats1, "store_lines")),
        ("serve.cached_grids", stat(stats1, "cached_grids")),
    ];
    let tiers = [
        "serve.hit_us.raw",
        "serve.hit_us.canonical",
        "serve.hit_us.slice",
        "serve.hit_us.store",
    ];
    for (name, samples) in tiers.into_iter().zip(tier_us) {
        layers.push((name, (!samples.is_empty()).then(|| median(samples))));
    }
    for (name, key) in [
        ("serve.cache_hits", "cache_hits"),
        ("serve.store_hits", "store_hits"),
        ("serve.campaigns_executed", "campaigns_executed"),
        ("serve.rejected_503", "rejected_503"),
        ("serve.io_errors", "io_errors"),
    ] {
        layers.push((name, stat_delta(stats0, stats1, key)));
    }
    layers
}

/// Replay the daemon's lookups on a real `ResultsCache` and `RangeStore`
/// filled by the same priming and schedule, timing the `get_raw`/`get`
/// hits and the store's range lookup plus line join.
fn replay_lookups(plan: &Plan, executed: &[Request]) -> (Option<f64>, Option<f64>) {
    let defaults = ServeConfig::default();
    let cache = ResultsCache::new(defaults.cache_entries);
    let store = RangeStore::new(defaults.store_specs);
    let (mut get_ns, mut gets, mut store_ns, mut stores) = (0.0, 0u64, 0.0, 0u64);
    for req in plan.priming.iter().chain(executed) {
        let grid = &plan.grids[req.target.grid];
        let desc = plan.desc(req.target);
        let canonical = desc.to_canonical_json();
        let parent = grid.desc.to_canonical_json();
        let raw = &plan.bodies[req.body];
        let hash = format!("{:016x}", desc.spec_hash());
        let t = Instant::now();
        let raw_hit = black_box(cache.get_raw(raw)).is_some();
        if req.tier == Tier::Raw {
            get_ns += t.elapsed().as_nanos() as f64;
            gets += 1;
            assert!(raw_hit, "replayed cache disagrees with the schedule model");
            continue;
        }
        let t = Instant::now();
        let hit = black_box(cache.get(&canonical)).is_some();
        if req.tier == Tier::Canonical {
            get_ns += t.elapsed().as_nanos() as f64;
            gets += 1;
            assert!(hit, "replayed cache disagrees with the schedule model");
            cache.memo_raw(raw.clone(), canonical, &hash);
            continue;
        }
        let parent_body = if req.target.sharded {
            cache.get(&parent)
        } else {
            None
        };
        let body = match (req.tier, parent_body) {
            (Tier::Slice, Some(parent_body)) => parent_body
                .slice_lines(req.target.start, req.target.end)
                .expect("slice within the parent"),
            (Tier::Store, None) => {
                let t = Instant::now();
                let lines = store
                    .lookup_range(&parent, req.target.start, req.target.end)
                    .expect("store covers the range");
                let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
                for line in &lines {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.push(b'\n');
                }
                store_ns += t.elapsed().as_nanos() as f64;
                stores += 1;
                CachedBody::new(black_box(bytes))
            }
            (Tier::Miss, None) => {
                let bytes = grid.bytes(req.target.start, req.target.end);
                let lines = bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty());
                for (i, line) in lines.enumerate() {
                    let line = std::str::from_utf8(line).expect("records are UTF-8");
                    store.insert_line(&parent, req.target.start + i, line);
                }
                CachedBody::new(bytes.to_vec())
            }
            _ => panic!("replayed cache disagrees with the schedule model"),
        };
        cache.insert(canonical.clone(), body);
        cache.memo_raw(raw.clone(), canonical, &hash);
    }
    (
        (gets > 0).then(|| get_ns / gets as f64),
        (stores > 0).then(|| store_ns / stores as f64 / 1e3),
    )
}
