//! Fleet-boundary tests: real sockets, in-process backends, injected
//! failures.
//!
//! The load-bearing assertion extends the serve layer's: for any shard
//! count, backend count, and mid-stream backend death the retries can
//! absorb, the fleet's merged JSONL is **byte-identical** to a
//! single-node `Campaign::run_streaming` → `JsonlSink` run of the whole
//! grid with the same training parameters.

use joss_fleet::{run_fleet, spawn_local_backends, FleetConfig, FleetError};
use joss_serve::ServeConfig;
use joss_sweep::{Campaign, ExperimentContext, GridDesc, JsonlSink, SchedulerKind};
use joss_workloads::Scale;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Offline reference context — same (seed, reps) the test backends use.
fn offline_ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_reps(42, 1))
}

fn grid() -> GridDesc {
    GridDesc {
        workloads: vec!["DP".into(), "MM_256_dop4".into(), "FB".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![42, 7],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    }
}

/// The offline JSONL bytes for a description, single-threaded.
fn offline_jsonl(desc: &GridDesc) -> Vec<u8> {
    let specs = desc.resolve().expect("resolvable grid").build();
    let mut sink = JsonlSink::new(Vec::new());
    Campaign::with_threads(1).run_streaming(offline_ctx(), specs, |record| {
        sink.write(&record).expect("in-memory write");
    });
    sink.into_inner().expect("flush")
}

fn backend_template() -> ServeConfig {
    ServeConfig {
        reps: 1,
        workers: 4,
        campaign_threads: 2,
        ..ServeConfig::default()
    }
}

fn fleet_config(backends: Vec<String>) -> FleetConfig {
    FleetConfig {
        expect_train_seed: Some(42),
        expect_reps: Some(1),
        ..FleetConfig::new(backends)
    }
}

#[test]
fn merged_output_is_byte_identical_across_shard_and_backend_counts() {
    let desc = grid();
    let reference = offline_jsonl(&desc);
    let handles = spawn_local_backends(3, &backend_template()).expect("spawn backends");
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    for (n_backends, shards) in [(1, 1), (2, 2), (2, 5), (3, 0), (3, 12)] {
        let config = FleetConfig {
            shards,
            ..fleet_config(addrs[..n_backends].to_vec())
        };
        let mut merged = Vec::new();
        let report = run_fleet(&config, &desc, &mut merged)
            .unwrap_or_else(|e| panic!("fleet run ({n_backends} backends, {shards} shards): {e}"));
        assert_eq!(
            merged, reference,
            "merged bytes diverged at {n_backends} backends / {shards} shards"
        );
        assert_eq!(report.records, desc.spec_count());
        assert_eq!(report.failovers, 0);
        assert!(report.dead_backends.is_empty());
        let completed: usize = report.completed_per_backend.iter().map(|(_, n)| n).sum();
        // Every plan range plus every stolen tail concludes as a task.
        assert_eq!(completed, report.shards + report.steals);
    }
    for h in handles {
        h.stop().expect("clean backend shutdown");
    }
}

/// Sum of one `/stats` counter over every backend.
fn stats_total(addrs: &[String], key: &str) -> u64 {
    addrs
        .iter()
        .map(|addr| {
            let stats = joss_serve::client::get(addr, "/stats", Duration::from_secs(10))
                .expect("stats request");
            joss_sweep::json::parse(&stats.body_text())
                .expect("stats JSON")
                .get(key)
                .and_then(joss_sweep::json::Value::as_u64)
                .unwrap_or_else(|| panic!("stats missing {key}"))
        })
        .sum()
}

#[test]
fn a_session_reuses_its_fleet_across_campaigns_byte_identically() {
    let handles = spawn_local_backends(2, &backend_template()).expect("spawn backends");
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    let config = fleet_config(addrs.clone());
    let session = joss_fleet::FleetSession::connect(&config).expect("session connect");
    // Repeated campaigns over one session: probe and dials were paid at
    // connect, worker connections persist in the pool between runs, and
    // every run must still merge to the reference bytes. Each lap takes
    // fresh seeds, so no backend has its ranges cached and every lap runs
    // the daemons' miss path, where the labels and scale repeat and the
    // graphs come from each daemon's graph memo.
    let lap_grid = |lap: u64| GridDesc {
        seeds: vec![42 + lap, 7 + lap],
        ..grid()
    };
    for lap in 0..3 {
        let desc = lap_grid(lap);
        let executed = stats_total(&addrs, "campaigns_executed");
        let cache_hits = stats_total(&addrs, "cache_hits");
        let mut merged = Vec::new();
        let report = session
            .run(&desc, &mut merged)
            .unwrap_or_else(|e| panic!("session run {lap}: {e}"));
        assert_eq!(merged, offline_jsonl(&desc), "session run {lap} diverged");
        assert_eq!(report.records, desc.spec_count());
        assert_eq!(report.failovers, 0);
        assert!(
            stats_total(&addrs, "campaigns_executed") > executed,
            "session run {lap} simulated nothing"
        );
        assert_eq!(
            stats_total(&addrs, "cache_hits"),
            cache_hits,
            "session run {lap} was not cold"
        );
    }
    // The first grid again, now answered from what the laps left behind.
    let mut merged = Vec::new();
    session
        .run(&lap_grid(0), &mut merged)
        .expect("session run, repeated grid");
    assert_eq!(
        merged,
        offline_jsonl(&lap_grid(0)),
        "repeated grid diverged"
    );
    // A different grid through the same session.
    let small = GridDesc {
        workloads: vec!["DP".into(), "FB".into()],
        seeds: vec![42],
        ..grid()
    };
    let mut merged = Vec::new();
    session
        .run(&small, &mut merged)
        .expect("session run, second grid");
    assert_eq!(merged, offline_jsonl(&small), "second grid diverged");
    // A grid with nothing to run is refused before any dispatch.
    let empty = GridDesc {
        workloads: Vec::new(),
        ..grid()
    };
    assert!(matches!(
        session.run(&empty, &mut Vec::new()),
        Err(FleetError::Grid(_))
    ));

    for h in handles {
        h.stop().expect("clean backend shutdown");
    }
}

#[test]
fn an_idle_backend_steals_from_a_throttled_straggler_byte_identically() {
    // Grid big enough that the straggler always holds a multi-spec
    // undelivered tail while the fast backend drains the rest of the
    // queue and goes idle.
    let desc = GridDesc {
        seeds: vec![42, 7, 13, 99],
        ..grid()
    };
    let reference = offline_jsonl(&desc);
    let handles = spawn_local_backends(2, &backend_template()).expect("spawn backends");
    // 600 B/s: a multi-spec range takes whole seconds to trickle through
    // the proxy, while /healthz probes and /v1/progress steal polls (a few
    // hundred bytes) still land inside their 2s read timeouts.
    let proxy =
        joss_fleet::ThrottleProxy::spawn(&handles[1].addr().to_string(), 600).expect("proxy spawn");
    let config = fleet_config(vec![
        handles[0].addr().to_string(),
        proxy.addr().to_string(),
    ]);

    let mut merged = Vec::new();
    let report = run_fleet(&config, &desc, &mut merged).expect("elastic fleet run");

    assert_eq!(merged, reference, "steals must not change a single byte");
    assert!(
        report.steals >= 1,
        "no steal despite a heavily throttled straggler: {report:?}"
    );
    assert!(
        report.stolen_specs >= 1,
        "steals without moved specs: {report:?}"
    );
    assert_eq!(
        report.failovers, 0,
        "throttling is not a failure: {report:?}"
    );
    assert!(report.dead_backends.is_empty(), "{report:?}");
    let completed: usize = report.completed_per_backend.iter().map(|(_, n)| n).sum();
    assert_eq!(completed, report.shards + report.steals);

    for h in handles {
        h.stop().expect("clean backend shutdown");
    }
}

#[test]
fn coordinator_refuses_backends_with_mismatched_training() {
    let a = spawn_local_backends(1, &backend_template()).expect("backend a");
    let b = spawn_local_backends(
        1,
        &ServeConfig {
            train_seed: 7, // trained differently: records would not merge
            ..backend_template()
        },
    )
    .expect("backend b");
    let config = FleetConfig {
        expect_train_seed: None,
        expect_reps: None,
        ..FleetConfig::new(vec![a[0].addr().to_string(), b[0].addr().to_string()])
    };
    let err = run_fleet(&config, &grid(), &mut Vec::new())
        .expect_err("mismatched training must be refused");
    match err {
        FleetError::Incompatible(msg) => {
            assert!(
                msg.contains("train_seed") && msg.contains("refusing"),
                "{msg}"
            );
        }
        other => panic!("expected Incompatible, got {other}"),
    }
    // The explicit expectation is also enforced.
    let config = fleet_config(vec![b[0].addr().to_string()]);
    assert!(matches!(
        run_fleet(&config, &grid(), &mut Vec::new()),
        Err(FleetError::Incompatible(_))
    ));
    for h in a.into_iter().chain(b) {
        h.stop().expect("clean backend shutdown");
    }
}

/// A sabotaging TCP proxy in front of a healthy backend: it forwards
/// whole exchanges until armed, then truncates the next streamed campaign
/// response mid-line and **drops dead** — every later connection is
/// refused. From the coordinator's side this is a backend that crashed
/// while streaming a shard.
struct FlakyProxy {
    addr: String,
    died: Arc<AtomicBool>,
    campaigns_started: Arc<AtomicUsize>,
}

impl FlakyProxy {
    /// Proxy for `upstream` that kills the connection after `cut_bytes`
    /// of the first campaign response body.
    fn spawn(upstream: String, cut_bytes: usize) -> FlakyProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let died = Arc::new(AtomicBool::new(false));
        let campaigns_started = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&died);
        let counter = Arc::clone(&campaigns_started);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut client) = conn else { break };
                if flag.load(Ordering::Acquire) {
                    // Dead: refuse by closing immediately.
                    continue;
                }
                // Read the request head+body (requests are small and
                // self-delimited by Content-Length; a crude full read
                // with a short timeout is enough for a test double).
                let mut request = Vec::new();
                let _ = client.set_read_timeout(Some(Duration::from_millis(300)));
                let mut chunk = [0u8; 4096];
                loop {
                    match client.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => {
                            request.extend_from_slice(&chunk[..n]);
                            if request_complete(&request) {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let is_campaign = request.starts_with(b"POST /v1/campaign");
                let Ok(mut up) = TcpStream::connect(&upstream) else {
                    break;
                };
                if up.write_all(&request).is_err() {
                    continue;
                }
                if is_campaign {
                    counter.fetch_add(1, Ordering::AcqRel);
                    // Forward the streamed response up to the cut, then
                    // die mid-line.
                    let mut forwarded = 0usize;
                    loop {
                        match up.read(&mut chunk) {
                            Ok(0) => break,
                            Ok(n) => {
                                let allowed = n.min(cut_bytes.saturating_sub(forwarded));
                                if client.write_all(&chunk[..allowed]).is_err() {
                                    break;
                                }
                                forwarded += allowed;
                                if forwarded >= cut_bytes {
                                    flag.store(true, Ordering::Release);
                                    break; // sockets drop here: mid-stream death
                                }
                            }
                            Err(_) => break,
                        }
                    }
                } else {
                    // Health probes pass through untouched.
                    let mut response = Vec::new();
                    let _ = up.read_to_end(&mut response);
                    let _ = client.write_all(&response);
                }
            }
        });
        FlakyProxy {
            addr,
            died,
            campaigns_started,
        }
    }
}

/// A request is complete once its head has arrived and the body matches
/// Content-Length (0 when absent).
fn request_complete(raw: &[u8]) -> bool {
    let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_string)
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    raw.len() >= head_end + 4 + length
}

#[test]
fn mid_stream_backend_death_fails_over_and_keeps_bytes_identical() {
    let desc = grid();
    let reference = offline_jsonl(&desc);
    let handles = spawn_local_backends(2, &backend_template()).expect("spawn backends");
    let survivor = handles[0].addr().to_string();
    // Cut after ~2.5 record lines of the first campaign response (past
    // the HTTP head), so the death lands mid-line, mid-shard.
    let proxy = FlakyProxy::spawn(handles[1].addr().to_string(), 700);

    let config = FleetConfig {
        shards: 4,
        // Stealing off: this test pins down the *failover* path, and its
        // per-backend completion assertions assume no tails move around.
        steal: false,
        ..fleet_config(vec![survivor.clone(), proxy.addr.clone()])
    };
    let mut merged = Vec::new();
    let report = run_fleet(&config, &desc, &mut merged).expect("fleet must absorb the death");

    assert_eq!(
        merged, reference,
        "merged bytes diverged after mid-stream backend death"
    );
    assert!(proxy.died.load(Ordering::Acquire), "the proxy never died");
    assert!(
        proxy.campaigns_started.load(Ordering::Acquire) >= 1,
        "the flaky backend never got a shard — the failure was not exercised"
    );
    assert!(report.failovers >= 1, "no failover recorded: {report:?}");
    assert_eq!(
        report.dead_backends,
        vec![proxy.addr.clone()],
        "the dead backend must be detected as dead"
    );
    // Exclusion: after death every shard (including the retried one) must
    // have completed on the survivor — the dead backend completed none.
    let proxy_completed = report
        .completed_per_backend
        .iter()
        .find(|(addr, _)| *addr == proxy.addr)
        .map(|(_, n)| *n)
        .expect("proxy in report");
    assert_eq!(proxy_completed, 0, "a dead backend cannot complete shards");
    let survivor_completed = report
        .completed_per_backend
        .iter()
        .find(|(addr, _)| *addr == survivor)
        .map(|(_, n)| *n)
        .expect("survivor in report");
    assert_eq!(survivor_completed, report.shards);

    for h in handles {
        h.stop().expect("clean backend shutdown");
    }
}

#[test]
fn a_dead_only_fleet_reports_exhaustion_not_a_hang() {
    // One backend that dies on its first campaign and a grid with one
    // shard: the retry has nowhere to go and must fail cleanly.
    let handles = spawn_local_backends(1, &backend_template()).expect("spawn backend");
    let proxy = FlakyProxy::spawn(handles[0].addr().to_string(), 300);
    let config = FleetConfig {
        shards: 1,
        ..fleet_config(vec![proxy.addr.clone()])
    };
    let err = run_fleet(&config, &grid(), &mut Vec::new())
        .expect_err("a fleet with no survivors cannot succeed");
    assert!(
        matches!(err, FleetError::Exhausted { .. }),
        "expected Exhausted, got {err}"
    );
    for h in handles {
        h.stop().expect("clean backend shutdown");
    }
}
