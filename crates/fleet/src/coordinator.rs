//! The fleet coordinator: micro-range plan → shared work queue →
//! per-backend fetch workers → ordered merge, with health-checked
//! failover and **work stealing** from stragglers.
//!
//! ```text
//!                ┌── worker(backend 0) ── POST range k ──► joss-serve #0
//!  GridDesc ──►  │                                             │ JSONL
//!  micro plan ──►│   shared range queue                        ▼
//!  (cost-        │   (retry requeues; an idle        (global index, line)
//!   balanced,    │    worker STEALS the undelivered            │
//!   ~4×backends) │    tail of a straggler's range)             ▼
//!                └── worker(backend N-1) ──────────► OrderedMerger ──► out
//! ```
//!
//! One fetch worker per backend, each running at most one range request
//! at a time (backends parallelize *inside* a campaign; the fleet
//! parallelizes across backends). Each worker holds **one persistent
//! keep-alive connection** to its backend and streams every range down
//! it; a connection the backend closed between ranges (idle reap,
//! restart) is redialed transparently — only a failure that cost record
//! lines counts as a range failure.
//!
//! **Elastic stealing** (on by default, [`FleetConfig::steal`]): the grid
//! is cut into micro-ranges — [`ShardPlan::MICRO_FACTOR`] per backend —
//! so the queue always has spare work, and when it runs dry an idle
//! worker picks the in-flight range with the most undelivered lines,
//! polls the victim backend's `/v1/progress` (reachability + live
//! specs-completed progress — the informed-steal signal), atomically
//! shrinks the victim's **effective end** to the midpoint of its
//! undelivered tail, and re-issues the tail as a fresh queue task. The
//! victim's stream stops at the new effective end
//! ([`StreamOutcome::Stopped`]) and still counts as completed. Records
//! are deterministic and carry global spec indices, so any overlap
//! between a victim racing past its shrunk end and the thief's re-issued
//! tail is de-duplicated for free by the [`OrderedMerger`]; byte
//! identity with the single-node run holds for every steal schedule.
//!
//! Failure policy, in order:
//!
//! * **503 shed** — the backend is alive but saturated; honour
//!   `Retry-After` on the same backend, bounded by `max_shed_retries`.
//! * **4xx** — a description fault (unknown workload, out-of-range knob);
//!   retrying elsewhere cannot help, the run aborts with the body.
//! * **transport error / truncated stream** — the range (shrunk to its
//!   current effective end — stolen tails are already someone else's
//!   problem) is requeued for any *other* backend, resuming after the
//!   lines that already reached the merge (byte-determinism makes the
//!   retry's prefix identical, so skipping it is sound). The failed
//!   backend is re-probed: if its health check fails too it is marked
//!   dead, its worker exits, and the resharding is bounded — remaining
//!   ranges drain onto survivors, and the run aborts once a range has no
//!   untried live backend left or exceeds `max_attempts`.

use crate::backend::{self, BackendInfo};
use crate::merge::OrderedMerger;
use joss_serve::client::{Conn, StreamOutcome};
use joss_sweep::shard::{grid_costs, ShardPlan};
use joss_sweep::{GridDesc, SpecRange};
use joss_telemetry::catalog as tm;
use joss_telemetry::trace;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long an in-flight range may run before an idle worker will steal
/// from it even when its production keeps pace with its delivery (the
/// compute-bound straggler shape). Far above a healthy micro-range's
/// lifetime, far below a straggler's.
const STEAL_PATIENCE: Duration = Duration::from_millis(500);

/// Minimum age of an attempt before the *inactive-campaign* poll answer
/// justifies a steal. A healthy range is often briefly "produced but not
/// yet fully forwarded" (its final lines are in flight, the worker thread
/// merely unscheduled); within this grace it always drains, and the
/// commit-time re-validation would only be racing scheduler noise.
const STEAL_GRACE: Duration = Duration::from_millis(25);

/// The idle worker's tick while another backend still holds an
/// in-flight range. Much shorter than the ordinary 50ms queue wait: a
/// candidate is often an age gate a few milliseconds from expiring, and
/// a coarse wait would sleep straight through the window where stealing
/// still saves wall-clock. Each tick only inspects the registry under
/// the lock — the expensive progress poll happens once a candidate is
/// actually old enough ([`pick_victim`]).
const STEAL_RETRY: Duration = Duration::from_millis(10);

/// Fleet topology, steal policy, and retry policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend addresses (`host:port`), one fetch worker each.
    pub backends: Vec<String>,
    /// Ranges to cut the grid into; 0 = auto
    /// ([`ShardPlan::MICRO_FACTOR`] per backend when stealing — spare
    /// ranges are what idle workers drain before resorting to steals —
    /// two per backend under `steal: false`, the historical static plan).
    pub shards: usize,
    /// Steal the undelivered tail of a straggler's in-flight range when
    /// the queue runs dry (default true). `false` restores the static
    /// plan: every range finishes on the backend that claimed it.
    pub steal: bool,
    /// Smallest undelivered tail worth stealing, in specs (default 2).
    /// Below this, re-issuing costs more (an HTTP exchange, a likely
    /// duplicate simulation) than letting the victim finish.
    pub min_steal: usize,
    /// Per-exchange socket timeout.
    pub timeout: Duration,
    /// How long to wait for each backend's first health probe.
    pub ready_timeout: Duration,
    /// Most failed tries per range before the run aborts; 0 = one try
    /// per backend.
    pub max_attempts: usize,
    /// Most 503 sheds tolerated per range attempt (each waits out the
    /// backend's `Retry-After`).
    pub max_shed_retries: usize,
    /// Training seed every backend must report (None = follow the first
    /// backend).
    pub expect_train_seed: Option<u64>,
    /// Training reps every backend must report (None = follow the first
    /// backend).
    pub expect_reps: Option<u32>,
}

impl FleetConfig {
    /// Defaults for a given backend list.
    pub fn new(backends: Vec<String>) -> Self {
        FleetConfig {
            backends,
            shards: 0,
            steal: true,
            min_steal: 2,
            timeout: Duration::from_secs(120),
            ready_timeout: Duration::from_secs(30),
            max_attempts: 0,
            max_shed_retries: 30,
            expect_train_seed: None,
            expect_reps: None,
        }
    }

    fn effective_shards(&self, run_count: usize) -> usize {
        let per_backend = if self.steal {
            ShardPlan::MICRO_FACTOR
        } else {
            2
        };
        let auto = self.backends.len().max(1) * per_backend;
        (if self.shards == 0 { auto } else { self.shards }).clamp(1, run_count)
    }

    fn effective_max_attempts(&self) -> usize {
        if self.max_attempts == 0 {
            self.backends.len().max(1)
        } else {
            self.max_attempts
        }
    }

    fn effective_min_steal(&self) -> usize {
        self.min_steal.max(1)
    }
}

/// Why a fleet run could not produce the merged grid.
#[derive(Debug)]
pub enum FleetError {
    /// The coordinator was given no backends.
    NoBackends,
    /// A backend never answered its health probe, or answered garbage.
    Probe(String),
    /// Backends disagree on training parameters or record schema.
    Incompatible(String),
    /// The grid description itself is unusable (already sharded, unknown
    /// workloads, ...).
    Grid(String),
    /// A backend rejected the sub-grid with a client-fault status; the
    /// same description would fail everywhere.
    Rejected {
        /// Backend that answered.
        addr: String,
        /// Its HTTP status.
        status: u16,
        /// Its error body.
        body: String,
    },
    /// A range ran out of live, untried backends (or attempts).
    Exhausted {
        /// Plan index of the range.
        shard: usize,
        /// What the attempts saw.
        detail: String,
    },
    /// The merge output failed to write.
    Io(io::Error),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoBackends => write!(f, "fleet has no backends"),
            FleetError::Probe(msg) | FleetError::Incompatible(msg) | FleetError::Grid(msg) => {
                write!(f, "{msg}")
            }
            FleetError::Rejected { addr, status, body } => {
                write!(f, "backend {addr} rejected the grid with {status}: {body}")
            }
            FleetError::Exhausted { shard, detail } => {
                write!(f, "shard {shard} ran out of backends: {detail}")
            }
            FleetError::Io(e) => write!(f, "merge output failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// What a completed fleet run did.
#[derive(Debug)]
pub struct FleetReport {
    /// Ranges the plan cut the grid into (steals add tasks beyond this).
    pub shards: usize,
    /// Records merged (== the grid's spec count on success).
    pub records: usize,
    /// Range attempts that failed over to another backend.
    pub failovers: usize,
    /// 503 sheds absorbed (each waited out a `Retry-After`).
    pub sheds: usize,
    /// Steals committed: undelivered tails of in-flight ranges re-issued
    /// to idle backends.
    pub steals: usize,
    /// Specs moved by those steals.
    pub stolen_specs: usize,
    /// Tasks completed per backend, in [`FleetConfig::backends`] order
    /// (sums to `shards + steals` on a fully successful run).
    pub completed_per_backend: Vec<(String, usize)>,
    /// Backends whose post-failure health re-probe also failed.
    pub dead_backends: Vec<String>,
    /// High-water mark of the merge reorder buffer, in lines.
    pub max_buffered_lines: usize,
}

impl FleetReport {
    /// One-line human summary (the `joss_fleet` CLI footer).
    pub fn summary(&self) -> String {
        let per_backend: Vec<String> = self
            .completed_per_backend
            .iter()
            .map(|(addr, n)| format!("{addr}={n}"))
            .collect();
        format!(
            "{} records over {} shards | steals {} ({} specs) | failovers {} | sheds {} | \
             dead {:?} | tasks per backend: {} | merge buffer peak {} lines",
            self.records,
            self.shards,
            self.steals,
            self.stolen_specs,
            self.failovers,
            self.sheds,
            self.dead_backends,
            per_backend.join(" "),
            self.max_buffered_lines,
        )
    }
}

/// One range's place in the retry state machine.
struct ShardTask {
    /// Plan index of the range this task descends from (stable across
    /// retries and steals; used in errors/logs).
    shard: usize,
    /// Global spec range.
    range: SpecRange,
    /// Backends (by index) that already failed this task.
    excluded: Vec<usize>,
    /// Failed tries so far.
    attempts: usize,
    /// Lines of this range already delivered to the merge — a retry
    /// skips this many lines and splices the rest.
    lines_done: usize,
}

/// Shared mutable face of one in-flight range attempt: written by the
/// victim's stream callback (delivery progress), shrunk by thieves (the
/// effective end). Lock-free because the victim reads it per line.
struct TaskCtl {
    /// Lines forwarded to the merge by the current attempt (excludes the
    /// resume-skip prefix).
    forwarded: AtomicUsize,
    /// One past the last global index this attempt must deliver. Starts
    /// at the range's end; each committed steal moves it down, never
    /// below the delivery frontier at commit time.
    effective_end: AtomicUsize,
}

/// Registry entry for one in-flight range (what thieves inspect).
struct InFlight {
    shard: usize,
    range: SpecRange,
    /// Resume skip of the running attempt (`lines_done` at claim).
    skip: usize,
    /// Formatted spec hash of the running sub-request, for matching the
    /// victim backend's `/v1/progress` `active` feed.
    sub_hash: String,
    /// When this attempt was claimed (the compute-bound-straggler clock).
    claimed_at: Instant,
    ctl: Arc<TaskCtl>,
}

impl InFlight {
    /// Global index one past the last line the current attempt has
    /// pushed into the merge.
    fn delivery_frontier(&self) -> usize {
        self.range.start + self.skip + self.ctl.forwarded.load(Ordering::Relaxed)
    }

    /// Undelivered lines this attempt still owes, under the current
    /// effective end.
    fn undelivered(&self) -> usize {
        self.ctl
            .effective_end
            .load(Ordering::Relaxed)
            .saturating_sub(self.delivery_frontier())
    }
}

/// Queue + liveness state shared by the fetch workers.
struct Shared {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    pending: VecDeque<ShardTask>,
    /// Per-backend in-flight registry: `Some` while that backend's worker
    /// is running a range attempt. Entries are created at claim and
    /// removed at conclusion under this same lock, so a steal can never
    /// target an already-concluded attempt.
    in_flight: Vec<Option<InFlight>>,
    dead: Vec<bool>,
    fatal: Option<FleetError>,
    failovers: usize,
    sheds: usize,
    steals: usize,
    stolen_specs: usize,
    completed: Vec<usize>,
}

impl QueueState {
    fn in_flight_count(&self) -> usize {
        self.in_flight.iter().filter(|e| e.is_some()).count()
    }
}

impl Shared {
    fn with<R>(&self, f: impl FnOnce(&mut QueueState) -> R) -> R {
        let mut st = self.state.lock().expect("fleet queue lock");
        let r = f(&mut st);
        self.ready.notify_all();
        r
    }
}

/// Live backends that have not yet failed this task.
fn candidates(st: &QueueState, task: &ShardTask, n_backends: usize) -> usize {
    (0..n_backends)
        .filter(|b| !st.dead[*b] && !task.excluded.contains(b))
        .count()
}

/// Execute `desc` across the fleet, writing the merged JSONL (global spec
/// order, byte-identical to a single-node run) to `out`. `out` is written
/// incrementally; hand it a buffered writer. On error the stream may be
/// truncated — a failed fleet run is not a usable record file.
///
/// One-shot form: probes, verifies, runs, tears down. A dispatcher
/// running many campaigns against the same fleet should hold a
/// [`FleetSession`] instead and pay the setup once.
pub fn run_fleet(
    config: &FleetConfig,
    desc: &GridDesc,
    out: &mut impl Write,
) -> Result<FleetReport, FleetError> {
    FleetSession::connect(config)?.run(desc, out)
}

/// A connected fleet: probed, compatibility-verified, holding one pooled
/// keep-alive connection slot per backend. [`FleetSession::run`] executes
/// campaigns over the session; the setup — the concurrent probe round and
/// the worker dials — is paid once at [`FleetSession::connect`], not per
/// campaign, and worker connections persist across runs (a backend that
/// reaped an idle connection between campaigns costs one silent redial in
/// the worker, nothing more).
pub struct FleetSession<'a> {
    config: &'a FleetConfig,
    infos: Vec<BackendInfo>,
    conns: Mutex<Vec<Option<Conn>>>,
}

impl<'a> FleetSession<'a> {
    /// Probe every backend, verify the fleet could merge, and pre-dial
    /// one campaign connection per backend.
    pub fn connect(config: &'a FleetConfig) -> Result<Self, FleetError> {
        if config.backends.is_empty() {
            return Err(FleetError::NoBackends);
        }
        // Health + compatibility gate: refuse to dispatch anything to a
        // fleet whose records could not merge. Probes run concurrently —
        // a fleet's pre-dispatch latency is one probe round-trip, not one
        // per backend. Each probe thread also pre-dials its worker's
        // campaign connection: connection setup is one concurrent round
        // for any fleet size instead of a serial lazy dial on every
        // worker's first claim. A failed dial is not an error here — the
        // worker redials lazily and the failover path owns genuinely
        // unreachable backends.
        let dialed: Vec<(BackendInfo, Option<Conn>)> = std::thread::scope(|scope| {
            let probes: Vec<_> = config
                .backends
                .iter()
                .map(|addr| {
                    scope.spawn(move || {
                        let info = backend::probe(addr, config.ready_timeout)?;
                        let conn = Conn::connect(addr, config.timeout).ok();
                        Ok((info, conn))
                    })
                })
                .collect();
            probes
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect::<Result<_, _>>()
                .map_err(FleetError::Probe)
        })?;
        let (infos, conns): (Vec<BackendInfo>, Vec<Option<Conn>>) = dialed.into_iter().unzip();
        backend::verify_compatible(&infos, config.expect_train_seed, config.expect_reps)
            .map_err(FleetError::Incompatible)?;
        Ok(FleetSession {
            config,
            infos,
            conns: Mutex::new(conns),
        })
    }

    /// The probed `/healthz` snapshots, in `config.backends` order.
    pub fn backends(&self) -> &[BackendInfo] {
        &self.infos
    }

    /// Execute one campaign across the session's fleet (see [`run_fleet`]
    /// for the merge contract).
    pub fn run(&self, desc: &GridDesc, out: &mut impl Write) -> Result<FleetReport, FleetError> {
        let config = self.config;
        if desc.shard.is_some() {
            return Err(FleetError::Grid(
                "the fleet shards grids itself; submit an unsharded description".into(),
            ));
        }
        // Cost-balanced contiguous micro-plan (same cost model as
        // `joss_sweep --shard`, cut finer so the queue outlives stragglers).
        // An empty grid or unknown label fails here, before any dispatch.
        let costs = grid_costs(desc).map_err(FleetError::Grid)?;
        let run_count = costs.len();
        let plan = ShardPlan::weighted(&costs, config.effective_shards(run_count));

        let n_backends = config.backends.len();
        tm::FLEET_RUNS.inc();
        tm::FLEET_SHARDS_PLANNED.add(plan.len() as u64);
        // One trace id per fleet run: workers adopt it (their spans and
        // steal/requeue events share it) and send it to every backend as
        // `X-Joss-Trace`, so the backends' request spans stitch into the
        // same distributed trace.
        let fleet_tid = trace::new_trace_id();
        trace::set_current(fleet_tid);
        trace::event(
            "fleet_run",
            format!("shards={} backends={n_backends}", plan.len()),
        );
        let shared = Shared {
            state: Mutex::new(QueueState {
                pending: plan
                    .ranges()
                    .iter()
                    .enumerate()
                    .map(|(shard, &range)| ShardTask {
                        shard,
                        range,
                        excluded: Vec::new(),
                        attempts: 0,
                        lines_done: 0,
                    })
                    .collect(),
                in_flight: (0..n_backends).map(|_| None).collect(),
                dead: vec![false; n_backends],
                fatal: None,
                failovers: 0,
                sheds: 0,
                steals: 0,
                stolen_specs: 0,
                completed: vec![0; n_backends],
            }),
            ready: Condvar::new(),
        };

        // Workers borrow the session's pooled connections for the duration
        // of the run; whatever survives (keep-alive held, no transport
        // failure) goes back in the pool for the next campaign.
        let conns: Vec<Option<Conn>> = {
            let mut pool = self.conns.lock().expect("fleet conn pool lock");
            pool.iter_mut().map(|slot| slot.take()).collect()
        };
        let (tx, rx) = mpsc::channel::<(usize, String)>();
        let mut merger = OrderedMerger::new(out, 0, run_count);

        let returned: Vec<Option<Conn>> = std::thread::scope(|scope| {
            let workers: Vec<_> = config
                .backends
                .iter()
                .enumerate()
                .zip(conns)
                .map(|((b, addr), conn)| {
                    let tx = tx.clone();
                    let shared = &shared;
                    scope.spawn(move || {
                        trace::set_current(fleet_tid);
                        fetch_worker(b, addr, desc, config, shared, conn, tx)
                    })
                })
                .collect();
            drop(tx);
            // The merge runs on the coordinating thread: restore global order
            // and stream to the caller's writer as lines arrive.
            for (index, line) in rx {
                if let Err(e) = merger.push(index, &line) {
                    shared.with(|st| {
                        if st.fatal.is_none() {
                            st.fatal = Some(FleetError::Io(e));
                        }
                    });
                    break; // dropping rx unblocks nothing (sends just fail)
                }
            }
            workers
                .into_iter()
                .map(|h| h.join().expect("fetch worker panicked"))
                .collect()
        });
        {
            let mut pool = self.conns.lock().expect("fleet conn pool lock");
            for (slot, conn) in pool.iter_mut().zip(returned) {
                if slot.is_none() {
                    *slot = conn;
                }
            }
        }

        let (fatal, failovers, sheds, steals, stolen_specs, dead, completed) = {
            let mut st = shared.state.lock().expect("fleet queue lock");
            (
                st.fatal.take(),
                st.failovers,
                st.sheds,
                st.steals,
                st.stolen_specs,
                st.dead.clone(),
                st.completed.clone(),
            )
        };
        if let Some(error) = fatal {
            return Err(error);
        }
        if !merger.is_complete() {
            // Unreachable by construction (every range either completed or
            // flagged fatal) — but a truncated merge must never pass silently.
            return Err(FleetError::Exhausted {
                shard: usize::MAX,
                detail: format!(
                    "merge stalled at record {} of {run_count}",
                    merger.frontier()
                ),
            });
        }
        let max_buffered_lines = merger.max_buffered();
        merger.finish().map_err(FleetError::Io)?;
        Ok(FleetReport {
            shards: plan.len(),
            records: run_count,
            failovers,
            sheds,
            steals,
            stolen_specs,
            completed_per_backend: config.backends.iter().cloned().zip(completed).collect(),
            dead_backends: config
                .backends
                .iter()
                .zip(&dead)
                .filter(|(_, &d)| d)
                .map(|(a, _)| a.clone())
                .collect(),
            max_buffered_lines,
        })
    }
}

/// How one range attempt ended (worker-internal).
enum Attempt {
    Done,
    Failed(String),
    Fatal(FleetError),
}

/// A steal candidate snapshotted under the queue lock: enough to poll the
/// victim's backend without the lock and re-validate at commit.
struct StealPlan {
    victim: usize,
    sub_hash: String,
    skip: usize,
    claimed_at: Instant,
    ctl: Arc<TaskCtl>,
}

/// Pick the in-flight range (on any backend but `thief`) with the most
/// undelivered lines, if that tail is worth stealing. Ranges younger
/// than [`STEAL_GRACE`] are not candidates at all — no poll answer
/// could justify stealing one yet, and on a busy host the poll itself
/// taxes the very backend suspected of lagging.
fn pick_victim(st: &QueueState, thief: usize, config: &FleetConfig) -> Option<StealPlan> {
    st.in_flight
        .iter()
        .enumerate()
        .filter(|(v, _)| *v != thief)
        .filter_map(|(v, entry)| entry.as_ref().map(|f| (v, f)))
        .filter(|(_, f)| f.claimed_at.elapsed() >= STEAL_GRACE)
        .map(|(v, f)| (v, f, f.undelivered()))
        .filter(|(_, _, undelivered)| *undelivered >= config.effective_min_steal())
        .max_by_key(|(_, _, undelivered)| *undelivered)
        .map(|(victim, f, _)| StealPlan {
            victim,
            sub_hash: f.sub_hash.clone(),
            skip: f.skip,
            claimed_at: f.claimed_at,
            ctl: Arc::clone(&f.ctl),
        })
}

/// The informed-steal gate, fed by the victim backend's `/v1/progress`
/// poll.
/// A healthy range delivers as fast as it produces, so its production
/// lead stays near zero and stealing it would only duplicate simulation;
/// steal only from ranges that are **delivery-bound** (produced at least
/// `min_steal` specs beyond what reached the merge — a throttled or
/// congested pipe), **done producing but still undelivered** (no longer
/// in the active feed), or **simply old** (compute-bound straggler,
/// [`STEAL_PATIENCE`]).
fn steal_justified(
    poll: &Result<Option<backend::CampaignProgress>, String>,
    plan: &StealPlan,
    config: &FleetConfig,
) -> bool {
    match poll {
        // Unreachable victim: its own worker is about to see a transport
        // failure; stealing now would only double the mess.
        Err(_) => false,
        // Answered, but the range is not actively executing there:
        // production finished (or was cache-served) and the bytes are
        // still in flight — delivery-bound, once past the grace period
        // that separates a throttled pipe from mere scheduler lag.
        Ok(None) => plan.claimed_at.elapsed() >= STEAL_GRACE,
        Ok(Some(progress)) => {
            let delivered = plan.skip + plan.ctl.forwarded.load(Ordering::Relaxed);
            let lead = (progress.completed as usize).saturating_sub(delivered);
            lead >= config.effective_min_steal() || plan.claimed_at.elapsed() >= STEAL_PATIENCE
        }
    }
}

/// Commit a steal against a re-validated victim: halve the undelivered
/// tail, shrink the victim's effective end to the split, and queue the
/// tail as a fresh task (front of the queue — the thief claims it next).
/// Returns false when the moment passed (attempt concluded, another thief
/// got there first, or the tail shrank below `min_steal`).
fn try_commit_steal(st: &mut QueueState, plan: &StealPlan, config: &FleetConfig) -> bool {
    let Some(f) = st.in_flight[plan.victim].as_ref() else {
        return false;
    };
    // Same Arc ⇒ same attempt: the registry entry was neither concluded
    // nor replaced by a later claim while the lock was dropped.
    if !Arc::ptr_eq(&f.ctl, &plan.ctl) {
        return false;
    }
    let undelivered = f.undelivered();
    if undelivered < config.effective_min_steal() {
        return false;
    }
    let frontier = f.delivery_frontier();
    let eff_end = f.ctl.effective_end.load(Ordering::Relaxed);
    // The victim already proved it is behind: leave it only the quarter
    // of the undelivered tail nearest its frontier and move the rest.
    // `max(1)` keeps the split strictly above the frontier so the victim
    // always has something left to conclude with.
    let split = frontier + (undelivered / 4).max(1);
    if split >= eff_end {
        return false;
    }
    f.ctl.effective_end.store(split, Ordering::Relaxed);
    let stolen = SpecRange::new(split, eff_end);
    let shard = f.shard;
    st.steals += 1;
    st.stolen_specs += stolen.len();
    tm::FLEET_STEALS_COMMITTED.inc();
    tm::FLEET_STOLEN_SPECS.add(stolen.len() as u64);
    trace::event(
        "fleet_steal",
        format!(
            "victim={} shard={shard} range={}..{}",
            plan.victim, stolen.start, stolen.end
        ),
    );
    st.pending.push_front(ShardTask {
        shard,
        range: stolen,
        excluded: Vec::new(),
        attempts: 0,
        lines_done: 0,
    });
    true
}

/// The `X-Joss-Trace` value this worker thread should send with every
/// campaign request: the fleet run's trace id (adopted via
/// [`trace::set_current`] at worker spawn), or nothing when tracing is
/// off / no run-level id was minted.
fn trace_header() -> Option<String> {
    match trace::current() {
        0 => None,
        id => Some(trace::format_id(id)),
    }
}

/// One backend's fetch loop: claim ranges this backend has not failed,
/// stream them into the merge, requeue on failure — and when the queue
/// runs dry, steal the undelivered tail of the worst straggler.
fn fetch_worker(
    b: usize,
    addr: &str,
    desc: &GridDesc,
    config: &FleetConfig,
    shared: &Shared,
    // The worker's persistent connection: pre-dialed alongside the probe,
    // kept across ranges, dropped (and lazily redialed) after any
    // transport failure or steal-abort.
    mut conn: Option<Conn>,
    tx: mpsc::Sender<(usize, String)>,
) -> Option<Conn> {
    let n_backends = config.backends.len();
    if let Some(c) = conn.as_mut() {
        c.set_trace(trace_header());
    }
    loop {
        // Claim the next range not excluded for this backend; steal when
        // the queue is dry; exit when everything has drained / the run
        // went fatal / this backend was declared dead.
        let mut st = shared.state.lock().expect("fleet queue lock");
        // One steal attempt per wakeup: after a declined attempt the
        // exit/claim conditions must be re-checked (the fleet may have
        // drained while the poll ran unlocked — its notify is already
        // spent) before this worker commits to a timed wait.
        let mut may_steal = config.steal;
        let (task, ctl) = loop {
            if st.fatal.is_some() || st.dead[b] {
                return conn;
            }
            if st.pending.is_empty() && st.in_flight_count() == 0 {
                return conn;
            }
            if let Some(pos) = st.pending.iter().position(|t| !t.excluded.contains(&b)) {
                let task = st.pending.remove(pos).expect("position just found");
                let ctl = Arc::new(TaskCtl {
                    forwarded: AtomicUsize::new(0),
                    effective_end: AtomicUsize::new(task.range.end),
                });
                st.in_flight[b] = Some(InFlight {
                    shard: task.shard,
                    range: task.range,
                    skip: task.lines_done,
                    sub_hash: format!("{:016x}", desc.with_shard(task.range).spec_hash()),
                    claimed_at: Instant::now(),
                    ctl: Arc::clone(&ctl),
                });
                trace::event(
                    "fleet_dispatch",
                    format!(
                        "backend={b} shard={} range={}..{}",
                        task.shard, task.range.start, task.range.end
                    ),
                );
                break (task, ctl);
            }
            if may_steal {
                if let Some(plan) = pick_victim(&st, b, config) {
                    // Poll the victim backend's /v1/progress without the lock,
                    // then gate on what it says (see [`steal_justified`]):
                    // only genuinely lagging ranges are worth re-issuing.
                    drop(st);
                    tm::FLEET_STEAL_ATTEMPTS.inc();
                    let poll = backend::fetch_progress(
                        &config.backends[plan.victim],
                        &plan.sub_hash,
                        Duration::from_secs(2),
                    );
                    // The steal decision's input, in the trace ring: what
                    // the victim reported (or that it didn't), next to the
                    // dispatch/commit events it explains.
                    trace::event(
                        "fleet_steal_poll",
                        match &poll {
                            Ok(Some(p)) => format!(
                                "victim={} hash={} completed={}/{} queue={}",
                                plan.victim, plan.sub_hash, p.completed, p.total, p.queue_depth
                            ),
                            Ok(None) => {
                                format!("victim={} hash={} not-running", plan.victim, plan.sub_hash)
                            }
                            Err(e) => {
                                format!("victim={} hash={} error={e}", plan.victim, plan.sub_hash)
                            }
                        },
                    );
                    st = shared.state.lock().expect("fleet queue lock");
                    if steal_justified(&poll, &plan, config) {
                        if try_commit_steal(&mut st, &plan, config) {
                            shared.ready.notify_all();
                            continue; // the stolen tail is at the queue front
                        }
                        // Justified by the poll, but the moment passed
                        // while the lock was dropped (attempt concluded,
                        // another thief won, tail shrank).
                        tm::FLEET_STEALS_INVALIDATED.inc();
                    }
                    // Steal declined (victim healthy, finished, raced, or
                    // unreachable): loop once more to re-check the exit
                    // and claim conditions before waiting — the fleet may
                    // have drained while the poll ran unlocked.
                    may_steal = false;
                    continue;
                }
            }
            // While another backend holds an in-flight range, tick on the
            // short steal cadence (checking the registry is just a lock;
            // the expensive progress poll is age-gated in [`pick_victim`]).
            // Otherwise a lazy wait — completion notifies.
            let wait = if config.steal
                && st
                    .in_flight
                    .iter()
                    .enumerate()
                    .any(|(v, entry)| v != b && entry.is_some())
            {
                STEAL_RETRY
            } else {
                Duration::from_millis(50)
            };
            let (next, _) = shared
                .ready
                .wait_timeout(st, wait)
                .expect("fleet queue lock");
            st = next;
            may_steal = config.steal;
        };
        drop(st);

        let (outcome, forwarded) =
            run_shard(addr, desc, config, &task, &ctl, shared, &tx, &mut conn);
        match outcome {
            Attempt::Done => {
                tm::FLEET_TASKS_COMPLETED.inc();
                tm::FLEET_BACKEND_TASKS.add(addr, 1);
                shared.with(|st| {
                    st.in_flight[b] = None;
                    st.completed[b] += 1;
                });
                // A completed range is news a sleeping worker may be
                // waiting on: the fleet may have drained (exit now, not
                // a timeout tick later), or the cleared in-flight slot
                // changes what is worth stealing.
                shared.ready.notify_all();
            }
            Attempt::Fatal(error) => {
                shared.with(|st| {
                    st.in_flight[b] = None;
                    if st.fatal.is_none() {
                        st.fatal = Some(error);
                    }
                });
                shared.ready.notify_all();
                return conn;
            }
            Attempt::Failed(why) => {
                // Distinguish "that backend is gone" from "that exchange
                // failed": a dead backend is excluded from everything and
                // its worker exits; a live one only loses this range.
                let alive = backend::is_alive(addr, Duration::from_secs(2));
                let mut task = task;
                task.lines_done += forwarded;
                task.attempts += 1;
                task.excluded.push(b);
                // Tails stolen while this attempt ran are other tasks
                // now: the retry owes only up to the current effective
                // end.
                let eff_end = ctl.effective_end.load(Ordering::Relaxed);
                if eff_end < task.range.end {
                    task.range = SpecRange::new(task.range.start, eff_end);
                }
                let exit = shared.with(|st| {
                    st.in_flight[b] = None;
                    st.failovers += 1;
                    if !alive {
                        st.dead[b] = true;
                    }
                    let detail = format!(
                        "attempt {} on backend {addr} failed ({why}); \
                         {} of {} lines salvaged",
                        task.attempts,
                        task.lines_done,
                        task.range.len()
                    );
                    if task.lines_done >= task.range.len() {
                        // The failure struck after every line this task
                        // still owed (post-steal) was delivered: it is
                        // complete, not failed.
                        st.completed[b] += 1;
                        st.failovers -= 1;
                        tm::FLEET_TASKS_COMPLETED.inc();
                        tm::FLEET_BACKEND_TASKS.add(addr, 1);
                    } else if candidates(st, &task, n_backends) == 0
                        || task.attempts >= config.effective_max_attempts()
                    {
                        tm::FLEET_FAILOVERS.inc();
                        let shard = task.shard;
                        if st.fatal.is_none() {
                            st.fatal = Some(FleetError::Exhausted { shard, detail });
                        }
                    } else {
                        tm::FLEET_FAILOVERS.inc();
                        trace::event(
                            "fleet_requeue",
                            format!(
                                "backend={b} shard={} range={}..{} attempt={}",
                                task.shard, task.range.start, task.range.end, task.attempts
                            ),
                        );
                        st.pending.push_back(task);
                        // A newly dead backend may have stranded *other*
                        // queued ranges that already excluded every
                        // survivor.
                        if st.dead[b] {
                            if let Some(stranded) = st
                                .pending
                                .iter()
                                .find(|t| candidates(st, t, n_backends) == 0)
                            {
                                let shard = stranded.shard;
                                if st.fatal.is_none() {
                                    st.fatal = Some(FleetError::Exhausted {
                                        shard,
                                        detail: format!("no live backend left after {addr} died"),
                                    });
                                }
                            }
                        }
                    }
                    st.dead[b] || st.fatal.is_some()
                });
                // Requeued range / new fatal / newly dead backend: all
                // news worth waking sleepers for.
                shared.ready.notify_all();
                if exit {
                    return conn;
                }
            }
        }
    }
}

/// Run one range exchange against one backend over the worker's
/// persistent connection (dialing if needed), forwarding new lines (past
/// the task's resume point) to the merge — and stopping early if a thief
/// shrinks this attempt's effective end. Returns the outcome and how
/// many *new* lines made it out.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    addr: &str,
    desc: &GridDesc,
    config: &FleetConfig,
    task: &ShardTask,
    ctl: &TaskCtl,
    shared: &Shared,
    tx: &mpsc::Sender<(usize, String)>,
    conn: &mut Option<Conn>,
) -> (Attempt, usize) {
    let sub = desc.with_shard(task.range);
    let skip = task.lines_done;
    let start = task.range.start;
    let expected = task.range.len();
    let mut forwarded = 0usize;
    let mut sheds_seen = 0usize;
    let mut stale_retry_used = false;
    loop {
        let reused = conn.as_ref().is_some_and(|c| c.is_reusable());
        if !reused {
            *conn = match Conn::connect(addr, config.timeout) {
                Ok(mut c) => {
                    c.set_trace(trace_header());
                    Some(c)
                }
                Err(e) => return (Attempt::Failed(e.to_string()), forwarded),
            };
        }
        let forwarded_before = forwarded;
        let result = conn
            .as_mut()
            .expect("connection just ensured")
            .stream_campaign_ctl(&sub, |i, line| {
                // Resume semantics: the first `skip` lines were already
                // merged by a previous attempt; determinism makes this
                // attempt's prefix byte-identical, so it is skipped, not
                // re-verified. The upper bound matters just as much: a
                // garbled backend streaming MORE lines than the range holds
                // must not leak indices into a neighbouring range — the
                // merger would take them as that range's records and
                // silently drop the legitimate ones as duplicates.
                if i >= skip && i < expected {
                    let _ = tx.send((start + i, line.to_string()));
                    ctl.forwarded.fetch_add(1, Ordering::Relaxed);
                    forwarded += 1;
                }
                // Steal-abort: once a thief owns everything from the
                // effective end on, reading further only drains bytes the
                // merger would drop as duplicates. Only an actual steal
                // (effective end below the requested range end) aborts —
                // a full read must reach its natural end so the chunked
                // terminator is consumed and the connection stays
                // reusable.
                let eff_end = ctl.effective_end.load(Ordering::Relaxed);
                !(eff_end < task.range.end && start + i + 1 >= eff_end)
            });
        if result.is_err() {
            // The stream died: this connection's framing state is gone.
            *conn = None;
            // A *reused* connection failing before any line made it out is
            // most likely the backend having reaped it as idle between
            // ranges — redial once before charging a range failure.
            if reused && forwarded == forwarded_before && !stale_retry_used {
                stale_retry_used = true;
                continue;
            }
        }
        match result {
            Ok(StreamOutcome::Done { lines }) if lines == expected => {
                return (Attempt::Done, forwarded);
            }
            Ok(StreamOutcome::Stopped { .. }) => {
                // The callback stopped the read at the (stolen-down)
                // effective end. The stop condition fires only once the
                // delivery frontier reached the effective end, and steals
                // never move the end below the frontier, so everything
                // this attempt still owed has been merged: a completion.
                return (Attempt::Done, forwarded);
            }
            Ok(StreamOutcome::Done { lines }) => {
                // A clean close with too few (or too many) lines is a
                // truncated/garbled stream, not success.
                return (
                    Attempt::Failed(format!("stream closed after {lines}/{expected} lines")),
                    forwarded,
                );
            }
            Ok(StreamOutcome::Rejected {
                status: 503,
                headers,
                ..
            }) => {
                shared.with(|st| st.sheds += 1);
                tm::FLEET_SHEDS.inc();
                trace::event("fleet_shed", format!("backend={addr}"));
                sheds_seen += 1;
                if sheds_seen > config.max_shed_retries {
                    return (
                        Attempt::Failed(format!("shed {sheds_seen} times in a row")),
                        forwarded,
                    );
                }
                let wait = headers
                    .iter()
                    .find(|(k, _)| k == "retry-after")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(1);
                // saturating: Retry-After is backend-controlled input.
                std::thread::sleep(Duration::from_millis(
                    wait.saturating_mul(1000).clamp(100, 10_000),
                ));
            }
            Ok(StreamOutcome::Rejected { status, body, .. }) => {
                return (
                    Attempt::Fatal(FleetError::Rejected {
                        addr: addr.to_string(),
                        status,
                        body,
                    }),
                    forwarded,
                );
            }
            Err(e) => return (Attempt::Failed(e.to_string()), forwarded),
        }
    }
}
