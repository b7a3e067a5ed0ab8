//! The daemon: a readiness-driven reactor thread plus a campaign executor
//! pool.
//!
//! Architecture (event loop + blocking simulation workers — the vendored
//! dependency set has no async runtime, and simulations are CPU-bound
//! anyway):
//!
//! ```text
//! reactor thread (epoll over nonblocking sockets; crate::reactor)
//!   ├─ accept / read / parse HTTP/1.1 (keep-alive, pipelined)
//!   ├─ in-line: health, stats, 4xx, 503 shed, zero-copy cache hits
//!   │    hit = one owned head + one Arc'd body segment → writev
//!   └─ miss ──► job queue ──► N executor threads
//!                                  │ validate, resolve, then
//!                                  │ Campaign::run_streaming (sweep pool,
//!                                  │ shared lazily-trained context)
//!                                  ▼
//!                    chunk frames → per-connection Outbound queue
//!                    (bounded: a slow client blocks only its own stream)
//!                                  │ poller.notify()
//!                                  ▼
//!                    reactor drains queue as the socket accepts bytes
//! ```
//!
//! Connections are persistent: HTTP/1.1 keep-alive by default, with
//! `Connection: close` (and HTTP/1.0) honored. Cache hits and error
//! responses are `Content-Length`-framed; executed campaigns stream with
//! `Transfer-Encoding: chunked` so the connection survives a
//! length-unknown body. The expensive per-process state is shared: **one**
//! [`ExperimentContext`] trained on first use serves every request, and
//! finished campaign bodies land in the [`ResultsCache`] keyed by the
//! grid's canonical JSON — with their raw request bytes memoized, so a
//! repeated query re-simulates nothing and re-parses nothing.

use crate::admission::{Admission, Permit};
use crate::cache::{CachedBody, ResultsCache};
use crate::http;
use crate::reactor::{self, Outbound, Seg};
use joss_sweep::{Campaign, ExperimentContext, GridDesc};
use polling::Poller;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Daemon configuration; [`ServeConfig::default`] matches the CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Campaign executor threads. Only admitted cache misses occupy one;
    /// health, stats, and cache-hit traffic is answered by the reactor and
    /// never waits behind a simulation.
    pub workers: usize,
    /// Concurrent in-flight campaigns admitted before 503s (see
    /// [`Admission`]).
    pub max_inflight: usize,
    /// Results-cache capacity in campaign bodies (0 disables).
    pub cache_entries: usize,
    /// Worker threads per admitted campaign (the sweep pool's fan-out).
    pub campaign_threads: usize,
    /// Largest accepted grid, in specs.
    pub max_specs: usize,
    /// Capacity of the content-addressed per-spec result store, in record
    /// lines across all grids (0 disables). Unlike `cache_entries` (whole
    /// response bodies keyed by exact range), the store serves *overlapping*
    /// ranges of a grid: any sub-range cut differently than before — a
    /// fleet's re-issued stolen range, a second campaign over part of the
    /// same grid — reuses whatever specs are already stored and simulates
    /// only the gaps.
    pub store_specs: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Training seed for the shared context (must match an offline run for
    /// byte-identical records).
    pub train_seed: u64,
    /// Profiling repetitions for the one-time characterization.
    pub reps: u32,
    /// How long a half-received request may sit before the connection is
    /// dropped.
    pub read_timeout: Duration,
    /// How long queued response bytes may make zero progress (client not
    /// reading) before the connection is dropped.
    pub write_timeout: Duration,
    /// How long an idle keep-alive connection is kept before being reaped.
    pub idle_timeout: Duration,
    /// Directory flight-recorder artifacts are written to (`--flight-dir`).
    /// `None` disables persistence; `GET /debug/flight` still answers with
    /// the artifact inline.
    pub flight_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".into(),
            workers: 8,
            max_inflight: 2,
            cache_entries: 64,
            campaign_threads: joss_sweep::default_threads(),
            max_specs: 4096,
            store_specs: 16 * 1024,
            max_body: 64 * 1024,
            train_seed: 42,
            reps: 3,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
            flight_dir: None,
        }
    }
}

/// Monotonic service counters, exposed at `GET /stats`.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests whose head parsed (any method/path).
    pub requests: AtomicU64,
    /// Connections accepted (a keep-alive connection counts once however
    /// many requests it carries).
    pub connections: AtomicU64,
    /// Campaigns actually simulated (== cache misses that were admitted).
    pub campaigns_executed: AtomicU64,
    /// Campaign requests served straight from the results cache.
    pub cache_hits: AtomicU64,
    /// Campaign requests shed with 503.
    pub rejected_503: AtomicU64,
    /// Requests answered 4xx.
    pub bad_requests: AtomicU64,
    /// Records streamed by executed campaigns.
    pub records_streamed: AtomicU64,
    /// Connections dropped on transport errors or blown deadlines.
    pub io_errors: AtomicU64,
    /// Handler panics contained by the executor pool (each one is a bug —
    /// the count is surfaced so it cannot hide).
    pub handler_panics: AtomicU64,
    /// Campaign requests whose whole range was assembled from the per-spec
    /// result store without touching an executor.
    pub store_hits: AtomicU64,
    /// Individual specs an executed campaign spliced in from the store
    /// instead of re-simulating (partial-overlap reuse).
    pub store_spec_hits: AtomicU64,
}

impl Stats {
    /// Bump a per-instance `/stats` counter and its process-global
    /// catalog twin in one call. Call sites name both, so the instance
    /// view (one daemon) and the telemetry view (whole process — a fleet
    /// `--spawn` topology hosts several daemons) stay in lockstep.
    pub(crate) fn bump(counter: &AtomicU64, global: &joss_telemetry::Counter) {
        counter.fetch_add(1, Ordering::Relaxed);
        global.inc();
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// An admitted campaign miss, queued from the reactor to the executors.
pub(crate) struct Job {
    /// Reactor key of the owning connection (for wakes).
    pub(crate) key: usize,
    pub(crate) out: Arc<Outbound>,
    pub(crate) desc: GridDesc,
    pub(crate) canonical: String,
    /// Request body bytes, memoized alongside the cache entry on success.
    pub(crate) raw_body: Vec<u8>,
    /// Formatted spec hash for the response head.
    pub(crate) hash: String,
    pub(crate) run_count: usize,
    /// Response should carry `Connection: close`.
    pub(crate) close_after: bool,
    /// Request id echoed on the response head and logged if the handler
    /// panics (satellite: panics are attributable to a request).
    pub(crate) request_id: String,
    /// Trace id adopted from `X-Joss-Trace` (0 = client sent none);
    /// installed as the executor thread's current trace for the job.
    pub(crate) trace: u64,
    /// Request carried `X-Joss-Debug-Panic`: panic at the top of the
    /// handler. The deterministic trigger the flight-recorder smoke tests
    /// (and CI's forced-dump step) use — never set by real traffic.
    pub(crate) debug_panic: bool,
    /// Admission slot, held from reactor-side admission until the job is
    /// done (dropped here even on panic, via the permit's RAII release).
    pub(crate) permit: Permit,
}

/// Blocking MPMC job queue feeding the executor pool.
#[derive(Default)]
pub(crate) struct JobQueue {
    queue: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    pub(crate) fn push(&self, job: Job) {
        self.queue.lock().expect("job queue").0.push_back(job);
        self.ready.notify_one();
    }

    /// Jobs admitted but not yet claimed by an executor (a `/stats`
    /// gauge: nonzero means every executor is busy and work is piling up).
    pub(crate) fn len(&self) -> usize {
        self.queue.lock().expect("job queue").0.len()
    }

    /// Next job, or `None` once the queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut guard = self.queue.lock().expect("job queue");
        loop {
            if let Some(job) = guard.0.pop_front() {
                return Some(job);
            }
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("job queue");
        }
    }

    fn close(&self) {
        self.queue.lock().expect("job queue").1 = true;
        self.ready.notify_all();
    }
}

/// Live progress of one executing campaign, registered for the duration
/// of its `run_job` and exposed in `GET /v1/progress` as `active` — the
/// per-campaign specs-completed / specs-total signal an elastic fleet
/// coordinator reads before stealing part of a straggler's range.
pub(crate) struct ActiveCampaign {
    /// Formatted spec hash of the (possibly sharded) request.
    pub(crate) hash: String,
    /// Specs this campaign will emit.
    pub(crate) total: usize,
    /// Specs emitted so far (monotonic, ends at `total`). Every completed
    /// spec is exactly one streamed record line, so this doubles as the
    /// campaign's records-streamed count.
    pub(crate) completed: AtomicUsize,
    /// Specs of this range spliced in from the per-spec store instead of
    /// simulated (set once the store has been consulted).
    pub(crate) store_spliced: AtomicUsize,
    /// When the executor picked the campaign up — the base of the
    /// `/v1/progress` rate and ETA derivation.
    pub(crate) started: Instant,
}

/// Shared per-process serving state.
pub(crate) struct State {
    pub(crate) config: ServeConfig,
    pub(crate) cache: ResultsCache,
    /// Content-addressed per-spec result store (see [`crate::store`]).
    pub(crate) store: crate::store::RangeStore,
    pub(crate) admission: Arc<Admission>,
    ctx: OnceLock<ExperimentContext>,
    pub(crate) stats: Stats,
    pub(crate) shutdown: AtomicBool,
    /// The reactor's poller; executors use it to wake the event loop.
    pub(crate) poller: Poller,
    pub(crate) jobs: JobQueue,
    /// Jobs admitted but not yet finished (keeps shutdown honest).
    pub(crate) active_jobs: AtomicUsize,
    /// Campaigns currently streaming records, for `/v1/progress`.
    pub(crate) active_campaigns: Mutex<Vec<Arc<ActiveCampaign>>>,
    /// Connection keys with executor-side progress to flush.
    pub(crate) wakes: Mutex<Vec<usize>>,
    /// Request ids of the most recent contained handler panics (capped),
    /// surfaced in `/stats` so a panic is attributable to its request.
    pub(crate) recent_panics: Mutex<VecDeque<String>>,
    /// Request ids of the most recent routed requests (capped), dumped by
    /// the flight recorder so a post-mortem sees what the daemon was
    /// serving in the moments before an incident.
    pub(crate) recent_requests: Mutex<VecDeque<String>>,
    /// When the daemon bound its listener (`uptime_secs` everywhere).
    pub(crate) started: Instant,
}

/// How many panic request ids `/stats` retains.
const RECENT_PANICS_CAP: usize = 8;

/// How many routed request ids the flight recorder retains.
const RECENT_REQUESTS_CAP: usize = 32;

/// RAII registration of an [`ActiveCampaign`]: deregisters on drop, so a
/// panicking handler cannot leave a ghost entry in `/v1/progress`.
struct ProgressGuard<'a> {
    state: &'a State,
    entry: Arc<ActiveCampaign>,
}

impl Drop for ProgressGuard<'_> {
    fn drop(&mut self) {
        self.state
            .active_campaigns
            .lock()
            .expect("active campaigns")
            .retain(|e| !Arc::ptr_eq(e, &self.entry));
    }
}

impl State {
    /// The shared experiment context, trained on first use (the paper's
    /// install-time characterization). Concurrent first requests block
    /// here until the one training finishes, then all share it.
    fn ctx(&self) -> &ExperimentContext {
        self.ctx
            .get_or_init(|| ExperimentContext::with_reps(self.config.train_seed, self.config.reps))
    }

    /// Ask the reactor to service connection `key` (executor-side progress:
    /// queued chunks or a finished stream).
    pub(crate) fn wake(&self, key: usize) {
        self.wakes.lock().expect("wake list").push(key);
        let _ = self.poller.notify();
    }

    /// Remember a routed request id in the flight recorder's capped window.
    pub(crate) fn note_request(&self, request_id: &str) {
        let mut recent = self.recent_requests.lock().expect("recent requests");
        if recent.len() >= RECENT_REQUESTS_CAP {
            recent.pop_front();
        }
        recent.push_back(request_id.to_string());
    }

    /// Whole seconds since the listener bound.
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The `GET /v1/progress` body: per-campaign live state with a rate
    /// and ETA derived from elapsed wall time, plus the cumulative totals
    /// an operator reads next to them. `eta_ms` is `null` until the first
    /// spec completes (no observed rate to extrapolate from).
    pub(crate) fn progress_json(&self) -> String {
        use std::fmt::Write as _;
        let mut active = String::from("[");
        for (i, entry) in self
            .active_campaigns
            .lock()
            .expect("active campaigns")
            .iter()
            .enumerate()
        {
            if i > 0 {
                active.push(',');
            }
            let completed = entry.completed.load(Ordering::Relaxed);
            let elapsed = entry.started.elapsed();
            let elapsed_ms = elapsed.as_millis().min(u64::MAX as u128) as u64;
            let secs = elapsed.as_secs_f64();
            let per_sec = if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            };
            let eta_ms = if completed > 0 && per_sec > 0.0 {
                let remaining = entry.total.saturating_sub(completed);
                format!("{}", (remaining as f64 / per_sec * 1e3) as u64)
            } else {
                "null".into()
            };
            let _ = write!(
                active,
                "{{\"hash\":{},\"completed\":{},\"total\":{},\"records_streamed\":{},\
                 \"store_spliced\":{},\"elapsed_ms\":{},\"specs_per_sec\":{:.3},\"eta_ms\":{}}}",
                joss_sweep::json::quote(&entry.hash),
                completed,
                entry.total,
                completed,
                entry.store_spliced.load(Ordering::Relaxed),
                elapsed_ms,
                per_sec,
                eta_ms,
            );
        }
        active.push(']');
        format!(
            "{{\"progress_schema\":1,\"uptime_secs\":{},\"executor_queue_depth\":{},\
             \"active\":{active},\
             \"totals\":{{\"campaigns_executed\":{},\"cache_hits\":{},\"store_hits\":{},\
             \"store_spec_hits\":{},\"records_streamed\":{},\"handler_panics\":{}}}}}",
            self.uptime_secs(),
            self.jobs.len(),
            Stats::get(&self.stats.campaigns_executed),
            Stats::get(&self.stats.cache_hits),
            Stats::get(&self.stats.store_hits),
            Stats::get(&self.stats.store_spec_hits),
            Stats::get(&self.stats.records_streamed),
            Stats::get(&self.stats.handler_panics),
        )
    }

    pub(crate) fn stats_json(&self) -> String {
        // Recent panic request ids, oldest first.
        let mut panics = String::from("[");
        for (i, rid) in self
            .recent_panics
            .lock()
            .expect("recent panics")
            .iter()
            .enumerate()
        {
            if i > 0 {
                panics.push(',');
            }
            panics.push_str(&joss_sweep::json::quote(rid));
        }
        panics.push(']');
        // The fleet coordinator's steal bookkeeping, read from the
        // process-global telemetry catalog. Meaningful when the
        // coordinator shares this process (the `joss_fleet --spawn`
        // topology); all zeros when it runs elsewhere.
        let fleet = {
            use joss_telemetry::catalog as tm;
            let mut backends = String::from("[");
            for (i, (backend, tasks)) in tm::FLEET_BACKEND_TASKS.cells().iter().enumerate() {
                if i > 0 {
                    backends.push(',');
                }
                let _ = std::fmt::Write::write_fmt(
                    &mut backends,
                    format_args!(
                        "{{\"backend\":{},\"tasks\":{}}}",
                        joss_sweep::json::quote(backend),
                        tasks
                    ),
                );
            }
            backends.push(']');
            format!(
                "{{\"steal_attempts\":{},\"steals_committed\":{},\"steals_invalidated\":{},\
                 \"stolen_specs\":{},\"failovers\":{},\"sheds\":{},\"shards_planned\":{},\
                 \"tasks_completed\":{},\"backend_tasks\":{}}}",
                tm::FLEET_STEAL_ATTEMPTS.get(),
                tm::FLEET_STEALS_COMMITTED.get(),
                tm::FLEET_STEALS_INVALIDATED.get(),
                tm::FLEET_STOLEN_SPECS.get(),
                tm::FLEET_FAILOVERS.get(),
                tm::FLEET_SHEDS.get(),
                tm::FLEET_SHARDS_PLANNED.get(),
                tm::FLEET_TASKS_COMPLETED.get(),
                backends,
            )
        };
        format!(
            "{{\"stats_schema\":4,\"uptime_secs\":{},\
             \"requests\":{},\"connections\":{},\"campaigns_executed\":{},\"cache_hits\":{},\
             \"rejected_503\":{},\"bad_requests\":{},\"records_streamed\":{},\
             \"io_errors\":{},\"handler_panics\":{},\"store_hits\":{},\"store_spec_hits\":{},\
             \"store_lines\":{},\"executor_queue_depth\":{},\
             \"cached_grids\":{},\"trained\":{},\
             \"max_inflight\":{},\"available_permits\":{},\"train_seed\":{},\"reps\":{},\
             \"recent_panic_request_ids\":{panics},\"fleet\":{fleet},\
             \"schema\":{}}}",
            self.uptime_secs(),
            Stats::get(&self.stats.requests),
            Stats::get(&self.stats.connections),
            Stats::get(&self.stats.campaigns_executed),
            Stats::get(&self.stats.cache_hits),
            Stats::get(&self.stats.rejected_503),
            Stats::get(&self.stats.bad_requests),
            Stats::get(&self.stats.records_streamed),
            Stats::get(&self.stats.io_errors),
            Stats::get(&self.stats.handler_panics),
            Stats::get(&self.stats.store_hits),
            Stats::get(&self.stats.store_spec_hits),
            self.store.lines(),
            self.jobs.len(),
            self.cache.len(),
            self.ctx.get().is_some(),
            self.admission.limit(),
            self.admission.available(),
            self.config.train_seed,
            self.config.reps,
            joss_sweep::json::quote(joss_sweep::RECORD_SCHEMA),
        )
    }

    pub(crate) fn health_json(&self) -> String {
        // `telemetry` distinguishes a quiet backend ("on", nothing
        // happening) from a blind one ("compiled-out" build or runtime
        // "disabled") — `joss_top` shows it per backend.
        let telemetry = if joss_telemetry::COMPILED_OUT {
            "compiled-out"
        } else if joss_telemetry::enabled() {
            "on"
        } else {
            "disabled"
        };
        format!(
            "{{\"status\":\"ok\",\"trained\":{},\"train_seed\":{},\"reps\":{},\
             \"schema\":{},\"version\":{},\"uptime_secs\":{},\"telemetry\":\"{telemetry}\"}}",
            self.ctx.get().is_some(),
            self.config.train_seed,
            self.config.reps,
            joss_sweep::json::quote(joss_sweep::RECORD_SCHEMA),
            joss_sweep::json::quote(env!("CARGO_PKG_VERSION")),
            self.uptime_secs(),
        )
    }
}

/// A bound daemon, ready to [`Server::run`] or [`Server::spawn`].
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind the listener (does not accept yet, and does not train).
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(State {
            cache: ResultsCache::new(config.cache_entries),
            store: crate::store::RangeStore::new(config.store_specs),
            admission: Arc::new(Admission::new(config.max_inflight)),
            ctx: OnceLock::new(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            poller: Poller::new()?,
            jobs: JobQueue::default(),
            active_jobs: AtomicUsize::new(0),
            active_campaigns: Mutex::new(Vec::new()),
            wakes: Mutex::new(Vec::new()),
            recent_panics: Mutex::new(VecDeque::new()),
            recent_requests: Mutex::new(VecDeque::new()),
            started: Instant::now(),
            config,
        });
        // Feed the time-series ring for `/v1/timeseries` (idempotent; a
        // no-op thread under `telemetry-off`).
        joss_telemetry::timeseries::start_sampler(joss_telemetry::timeseries::DEFAULT_INTERVAL);
        Ok(Server { listener, state })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Train the shared context now instead of on the first campaign
    /// (`joss_serve --train-eager`): connections accepted after this
    /// returns never pay the characterization latency.
    pub fn train(&self) {
        let _ = self.state.ctx();
    }

    /// Serve until [`ServerHandle::stop`] (or a poller error). Blocks the
    /// calling thread — it becomes the reactor — and runs the executor
    /// pool on scoped threads; use [`Server::spawn`] for an owned
    /// background daemon.
    pub fn run(self) -> io::Result<()> {
        let workers = self.state.config.workers.max(1);
        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                let state = Arc::clone(&self.state);
                scope.spawn(move || executor_loop(&state));
            }
            let result = reactor::run(self.listener, Arc::clone(&self.state));
            // The reactor only exits on shutdown (or a fatal poller
            // error): release the executors.
            self.state.shutdown.store(true, Ordering::Release);
            self.state.jobs.close();
            result
        });
        result
    }

    /// Run on a background thread, returning a stop/join handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flag shutdown, wake the reactor, and join. In-flight campaign
    /// streams finish and every connection is flushed and closed; no new
    /// connections are accepted.
    pub fn stop(self) -> io::Result<()> {
        self.state.shutdown.store(true, Ordering::Release);
        let _ = self.state.poller.notify();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Executor thread: drain admitted campaign jobs until the queue closes.
fn executor_loop(state: &Arc<State>) {
    while let Some(job) = state.jobs.pop() {
        let key = job.key;
        let out = Arc::clone(&job.out);
        let request_id = job.request_id.clone();
        // Kept out of the job so the flight recorder can dump the
        // offending grid even after the handler consumed (and panicked
        // over) the job itself.
        let canonical = job.canonical.clone();
        // The job's trace becomes this thread's current trace for the
        // duration of the run, so campaign/spec spans recorded anywhere
        // below tag themselves with it; restored even on panic.
        let prev_trace = joss_telemetry::trace::set_current(job.trace);
        // Contain handler panics: the daemon must not lose an executor
        // (and eventually its whole pool) to one bad request. The
        // connection is torn down; the client sees a reset, the counter
        // sees a bug. The job's permit releases on unwind.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(state, job)));
        joss_telemetry::trace::set_current(prev_trace);
        if outcome.is_err() {
            Stats::bump(
                &state.stats.handler_panics,
                &joss_telemetry::catalog::SERVE_HANDLER_PANICS,
            );
            // Attribute the panic to its request: log the id, keep it in
            // the capped /stats window, and mark the trace.
            eprintln!("[joss_serve] handler panic; request id {request_id}");
            joss_telemetry::trace::event("handler_panic", request_id.clone());
            let mut recent = state.recent_panics.lock().expect("recent panics");
            if recent.len() >= RECENT_PANICS_CAP {
                recent.pop_front();
            }
            recent.push_back(request_id.clone());
            drop(recent);
            // The post-mortem artifact: trace tail, metrics, recent
            // request ids, and the grid that blew up, dumped while the
            // evidence is still in the rings.
            crate::flight::record(state, "panic", &request_id, Some(&canonical));
            out.close();
        }
        state.active_jobs.fetch_sub(1, Ordering::AcqRel);
        state.wake(key);
    }
}

/// Simulate one admitted campaign, streaming chunk-framed records into the
/// connection's outbound queue and (when enabled) into the results cache.
fn run_job(state: &Arc<State>, job: Job) {
    let Job {
        key,
        out,
        desc,
        canonical,
        raw_body,
        hash,
        run_count,
        close_after,
        request_id,
        trace,
        debug_panic,
        permit: _permit,
    } = job;
    if debug_panic {
        panic!("debug panic requested by {request_id}");
    }
    let span = joss_telemetry::Span::with_trace(trace, "campaign_miss", request_id.clone());

    // Train-once (first admitted campaign pays it), then validate against
    // the serving platform and resolve. Both must precede the 200 head: an
    // out-of-range `fixed:` knob index or unknown workload label is a
    // client fault, not a half-streamed response.
    let ctx = state.ctx();
    if let Err(e) = desc
        .schedulers
        .iter()
        .try_for_each(|s| s.validate(&ctx.space))
    {
        Stats::bump(
            &state.stats.bad_requests,
            &joss_telemetry::catalog::SERVE_BAD_REQUESTS,
        );
        out.push_blocking(Seg::Owned(http::json_response_with(
            400,
            &reactor::error_json(&e),
            close_after,
            &[("X-Joss-Request-Id", &request_id)],
        )));
        out.finish_stream();
        return;
    }
    // Shard-aware resolution: a sharded description builds only the
    // workloads its spec range touches and streams records carrying global
    // spec indices.
    let (index_base, specs) = match desc.resolve_specs() {
        Ok(resolved) => resolved,
        Err(e) => {
            Stats::bump(
                &state.stats.bad_requests,
                &joss_telemetry::catalog::SERVE_BAD_REQUESTS,
            );
            out.push_blocking(Seg::Owned(http::json_response_with(
                400,
                &reactor::error_json(&e),
                close_after,
                &[("X-Joss-Request-Id", &request_id)],
            )));
            out.finish_stream();
            return;
        }
    };

    let records_header = run_count.to_string();
    let mut head = Vec::with_capacity(256);
    http::head_bytes(
        &mut head,
        200,
        &[
            ("Content-Type", "application/x-ndjson"),
            ("X-Joss-Spec-Hash", &hash),
            ("X-Joss-Cache", "miss"),
            ("X-Joss-Records", &records_header),
            ("X-Joss-Request-Id", &request_id),
            ("Transfer-Encoding", "chunked"),
        ],
        close_after,
    );
    // `aborted` means the connection died: stop producing output but keep
    // simulating — the completed body still becomes the cache entry.
    let mut aborted = !out.push_blocking(Seg::Owned(head));
    if !aborted {
        state.wake(key);
    }

    // Register live progress for `/v1/progress` (the fleet's steal signal);
    // deregistered on every exit path, including panics, by the guard.
    let progress = Arc::new(ActiveCampaign {
        hash: hash.clone(),
        total: run_count,
        completed: AtomicUsize::new(0),
        store_spliced: AtomicUsize::new(0),
        started: Instant::now(),
    });
    state
        .active_campaigns
        .lock()
        .expect("active campaigns")
        .push(Arc::clone(&progress));
    let _progress_guard = ProgressGuard {
        state,
        entry: Arc::clone(&progress),
    };

    // Consult the content-addressed per-spec store: any of this range's
    // records deposited by an earlier campaign over the same base grid —
    // however its ranges were cut — are spliced in instead of
    // re-simulated. `stored[offset]` is the record line for global index
    // `index_base + offset`, when present.
    let base_canonical = desc.to_base_canonical_json();
    let stored: Vec<Option<std::sync::Arc<str>>> = state
        .store
        .snapshot_range(&base_canonical, index_base, index_base + run_count)
        .unwrap_or_else(|| vec![None; run_count]);
    let stored_hits = stored.iter().filter(|line| line.is_some()).count() as u64;
    progress
        .store_spliced
        .store(stored_hits as usize, Ordering::Relaxed);
    if stored_hits > 0 {
        state
            .stats
            .store_spec_hits
            .fetch_add(stored_hits, Ordering::Relaxed);
        joss_telemetry::catalog::SERVE_STORE_SPEC_HITS.add(stored_hits);
    }
    let mut missing_indices = Vec::with_capacity(run_count);
    let mut missing_specs = Vec::with_capacity(run_count);
    for (offset, spec) in specs.into_iter().enumerate() {
        if stored[offset].is_none() {
            missing_indices.push(index_base + offset);
            missing_specs.push(spec);
        }
    }

    // Records accumulate in `body`; `sent` marks the prefix already
    // chunk-framed into the queue. With the cache disabled
    // (`--cache-entries 0`) flushed bytes are dropped, keeping the
    // flat-memory streaming property. Sharded requests flush every record
    // (not every 16 KiB): shards are the fleet's unit of work, and the
    // coordinator's delivery frontier — its steal signal — is only as
    // fresh as our flushes. Whole-grid clients keep the batched framing.
    let caching = state.cache.enabled();
    let flush_threshold = if desc.shard.is_some() { 1 } else { 16 * 1024 };
    let mut body: Vec<u8> = Vec::with_capacity(if caching { run_count * 192 } else { 32 * 1024 });
    let mut sent = 0usize;
    let mut append_line = |line: &str| {
        body.extend_from_slice(line.as_bytes());
        body.push(b'\n');
        progress.completed.fetch_add(1, Ordering::Relaxed);
        if !aborted && body.len() - sent >= flush_threshold {
            let mut frame = Vec::with_capacity(body.len() - sent + 16);
            http::encode_chunk(&body[sent..], &mut frame);
            sent = body.len();
            if out.push_blocking(Seg::Owned(frame)) {
                state.wake(key);
            } else {
                aborted = true;
            }
        }
        if !caching && (aborted || sent == body.len()) {
            body.clear();
            sent = 0;
        }
    };
    // Fresh records stream back in ascending global-index order, so a
    // cursor over grid offsets interleaves stored lines exactly: every
    // offset below the next fresh record is a store hit by construction.
    let mut next_offset = 0usize;
    Campaign::with_threads(state.config.campaign_threads).run_streaming_at(
        ctx,
        &missing_indices,
        missing_specs,
        |record| {
            let offset = record.index - index_base;
            while next_offset < offset {
                let line = stored[next_offset]
                    .as_ref()
                    .expect("offset below a missing index is stored");
                append_line(line);
                next_offset += 1;
            }
            let json = record.to_json();
            state
                .store
                .insert_line(&base_canonical, record.index, &json);
            append_line(&json);
            next_offset += 1;
        },
    );
    for stored_line in &stored[next_offset..run_count] {
        let line = stored_line.as_ref().expect("trailing offsets are stored");
        append_line(line);
    }
    if !aborted {
        let mut tail = Vec::with_capacity(body.len() - sent + 16);
        http::encode_chunk(&body[sent..], &mut tail);
        tail.extend_from_slice(http::CHUNK_TERMINATOR);
        out.push_blocking(Seg::Owned(tail));
    }
    Stats::bump(
        &state.stats.campaigns_executed,
        &joss_telemetry::catalog::SERVE_CAMPAIGNS_EXECUTED,
    );
    state
        .stats
        .records_streamed
        .fetch_add(run_count as u64, Ordering::Relaxed);
    joss_telemetry::catalog::SERVE_RECORDS_STREAMED.add(run_count as u64);
    if caching {
        state.cache.insert(canonical.clone(), CachedBody::new(body));
        state.cache.memo_raw(raw_body, canonical, &hash);
    }
    joss_telemetry::catalog::SERVE_MISS_SECONDS.record_duration(span.elapsed());
    out.finish_stream();
}
