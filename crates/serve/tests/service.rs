//! Service-boundary tests: boot the daemon on an ephemeral port and drive
//! it over real sockets.
//!
//! The load-bearing assertion is **byte identity across the network hop**:
//! for the same grid description and training parameters, the JSONL a
//! client receives equals `Campaign::run_streaming` → `JsonlSink` run
//! offline, regardless of how many threads either side used.

use joss_serve::{client, loadgen, LoadgenConfig, ServeConfig, Server, ServerHandle};
use joss_sweep::{Campaign, ExperimentContext, GridDesc, JsonlSink, SchedulerKind};
use joss_workloads::Scale;
use std::sync::OnceLock;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);

/// Offline reference context — same (seed, reps) the test servers use.
fn offline_ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_reps(42, 1))
}

fn tiny_desc() -> GridDesc {
    GridDesc {
        workloads: vec!["DP".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![42],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    }
}

fn boot(configure: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        reps: 1,
        workers: 4,
        campaign_threads: 2,
        ..ServeConfig::default()
    };
    configure(&mut config);
    Server::bind(config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
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

#[test]
fn streamed_body_is_byte_identical_to_offline_campaign() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();

    for desc in [
        tiny_desc(),
        GridDesc {
            workloads: vec!["DP".into(), "MM_256_dop4".into()],
            schedulers: vec![
                SchedulerKind::Grws,
                SchedulerKind::Aequitas(0.005),
                SchedulerKind::Joss,
            ],
            seeds: vec![42, 7],
            scale: Scale::Divided(400),
            record_trace: false,
            shard: None,
        },
    ] {
        let response = client::run_campaign(&addr, &desc, TIMEOUT).expect("campaign request");
        assert_eq!(response.status, 200, "{}", response.body_text());
        assert_eq!(response.header("x-joss-cache"), Some("miss"));
        assert_eq!(
            response.header("x-joss-records"),
            Some(desc.spec_count().to_string().as_str())
        );
        assert_eq!(
            response.header("x-joss-spec-hash"),
            Some(format!("{:016x}", desc.spec_hash()).as_str())
        );
        assert_eq!(
            client::verify_body(&desc, &response.body),
            Ok(desc.spec_count())
        );
        // Determinism must survive the network hop: the daemon simulated
        // this on 2 worker threads, the reference on 1.
        assert_eq!(
            response.body,
            offline_jsonl(&desc),
            "served JSONL diverged from the offline campaign"
        );
    }
    handle.stop().expect("clean shutdown");
}

#[test]
fn health_reports_training_identity_for_fleet_compatibility() {
    let handle = boot(|c| c.train_seed = 42);
    let addr = handle.addr().to_string();
    let health = client::get(&addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let parsed = joss_sweep::json::parse(&health.body_text()).expect("health JSON");
    assert_eq!(
        parsed
            .get("train_seed")
            .and_then(joss_sweep::json::Value::as_u64),
        Some(42)
    );
    assert_eq!(
        parsed.get("reps").and_then(joss_sweep::json::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        parsed
            .get("schema")
            .and_then(joss_sweep::json::Value::as_str),
        Some(joss_sweep::RECORD_SCHEMA)
    );
    assert!(
        parsed
            .get("version")
            .and_then(joss_sweep::json::Value::as_str)
            .is_some(),
        "{}",
        health.body_text()
    );
    // /stats mirrors the identity fields.
    let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
    let parsed = joss_sweep::json::parse(&stats.body_text()).expect("stats JSON");
    assert_eq!(
        parsed
            .get("train_seed")
            .and_then(joss_sweep::json::Value::as_u64),
        Some(42)
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn sharded_requests_stream_the_slice_with_global_indices() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let desc = GridDesc {
        workloads: vec!["DP".into(), "MM_256_dop4".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![42],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    };
    let full = client::run_campaign(&addr, &desc, TIMEOUT).expect("full grid");
    assert_eq!(full.status, 200);
    let full_lines: Vec<&str> = std::str::from_utf8(&full.body).unwrap().lines().collect();
    assert_eq!(full_lines.len(), 4);

    // A mid-grid shard: record count reflects the slice, indices are
    // global, and the bytes are exactly the full body's middle lines.
    let sharded = desc.with_shard(joss_sweep::SpecRange::new(1, 3));
    let resp = client::run_campaign(&addr, &sharded, TIMEOUT).expect("sharded request");
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-joss-records"), Some("2"));
    assert_eq!(client::verify_body(&sharded, &resp.body), Ok(2));
    let expected = format!("{}\n{}\n", full_lines[1], full_lines[2]);
    assert_eq!(
        resp.body,
        expected.as_bytes(),
        "shard bytes must be the grid's slice"
    );

    // The shard is its own cache entry, replayed byte-identically.
    let again = client::run_campaign(&addr, &sharded, TIMEOUT).expect("repeat");
    assert_eq!(again.header("x-joss-cache"), Some("hit"));
    assert_eq!(again.body, resp.body);

    // Out-of-range and empty shards are client faults.
    for bad in [(2usize, 9usize), (3, 3)] {
        let body = format!(
            "{{\"workloads\":[\"DP\",\"MM_256_dop4\"],\"schedulers\":[\"grws\",\"joss\"],\
             \"seeds\":[42],\"scale\":400,\"record_trace\":false,\"shard\":[{},{}]}}",
            bad.0, bad.1
        );
        let r = client::post(&addr, "/v1/campaign", body.as_bytes(), TIMEOUT).unwrap();
        assert_eq!(r.status, 400, "shard {bad:?} must be rejected");
    }

    // The spec cap gates the *run* size, so one shard of a grid larger
    // than max_specs still serves — that is how a fleet feeds big grids
    // through small daemons.
    handle.stop().expect("clean shutdown");
    let handle = boot(|c| c.max_specs = 2);
    let addr = handle.addr().to_string();
    let r = client::run_campaign(&addr, &desc, TIMEOUT).unwrap();
    assert_eq!(r.status, 400, "4-spec grid is over the 2-spec cap");
    let r = client::run_campaign(
        &addr,
        &desc.with_shard(joss_sweep::SpecRange::new(1, 3)),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.body, expected.as_bytes());
    handle.stop().expect("clean shutdown");
}

#[test]
fn repeated_request_is_served_from_cache_without_resimulating() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let desc = tiny_desc();

    let first = client::run_campaign(&addr, &desc, TIMEOUT).expect("first request");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-joss-cache"), Some("miss"));

    // Same grid, reformatted body (different key order + whitespace): the
    // canonical form must hit the same cache entry.
    let scrambled =
        "{ \"seeds\": [42],\n  \"scale\": 400, \"schedulers\": [\"grws\",\"joss\"],\n  \
         \"workloads\": [\"DP\"] }";
    let second =
        client::post(&addr, "/v1/campaign", scrambled.as_bytes(), TIMEOUT).expect("second request");
    assert_eq!(second.status, 200, "{}", second.body_text());
    assert_eq!(second.header("x-joss-cache"), Some("hit"));
    assert_eq!(second.body, first.body, "cache must replay identical bytes");

    let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
    let parsed = joss_sweep::json::parse(&stats.body_text()).expect("stats JSON");
    let count = |key: &str| {
        parsed
            .get(key)
            .and_then(joss_sweep::json::Value::as_u64)
            .unwrap_or_else(|| panic!("stats missing {key}"))
    };
    assert_eq!(
        count("campaigns_executed"),
        1,
        "the repeat must not re-simulate"
    );
    assert_eq!(count("cache_hits"), 1);
    assert_eq!(count("cached_grids"), 1);
    handle.stop().expect("clean shutdown");
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    // max_inflight = 0: every campaign is shed — the deterministic way to
    // exercise the overload path.
    let handle = boot(|c| c.max_inflight = 0);
    let addr = handle.addr().to_string();

    let response = client::run_campaign(&addr, &tiny_desc(), TIMEOUT).expect("request");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert!(response.body_text().contains("saturated"));

    // Degrading gracefully means everything that needs no simulation slot
    // still answers.
    let health = client::get(&addr, "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
    assert!(stats.body_text().contains("\"rejected_503\":1"));
    handle.stop().expect("clean shutdown");
}

#[test]
fn shed_requests_succeed_once_capacity_returns() {
    // One slot, several clients racing distinct grids: the loadgen's
    // retry-on-503 must land every request eventually.
    let handle = boot(|c| c.max_inflight = 1);
    let addr = handle.addr().to_string();
    let mut config = LoadgenConfig::new(addr, tiny_desc());
    config.clients = 3;
    config.requests_per_client = 2;
    config.vary_seeds = true; // distinct grids: no cache shortcuts
    let report = loadgen::run(&config);
    assert_eq!(report.ok, 6, "every request must eventually succeed");
    assert_eq!(report.malformed, 0, "{:?}", report.first_malformation);
    assert_eq!(report.errors, 0);
    assert_eq!(report.cache_hits, 0);
    handle.stop().expect("clean shutdown");
}

#[test]
fn protocol_errors_are_client_faults_not_crashes() {
    let handle = boot(|c| c.max_specs = 8);
    let addr = handle.addr().to_string();

    // Malformed JSON.
    let r = client::post(&addr, "/v1/campaign", b"{not json", TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    // Unknown workload label.
    let bad = "{\"workloads\":[\"NOPE\"],\"schedulers\":[\"joss\"]}";
    let r = client::post(&addr, "/v1/campaign", bad.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("NOPE"), "{}", r.body_text());
    // Unknown scheduler.
    let bad = "{\"workloads\":[\"DP\"],\"schedulers\":[\"frobnicate\"]}";
    let r = client::post(&addr, "/v1/campaign", bad.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    // Well-formed but out-of-range fixed knob indices: must be a client
    // fault, never an engine panic that kills a worker.
    let bad = "{\"workloads\":[\"DP\"],\"schedulers\":[\"fixed:big:99:99:99\"]}";
    let r = client::post(&addr, "/v1/campaign", bad.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("out of range"), "{}", r.body_text());
    // Grid above the daemon's spec cap.
    let mut big = tiny_desc();
    big.seeds = (0..9).collect(); // 1 workload x 2 schedulers x 9 seeds = 18 > 8
    let r = client::run_campaign(&addr, &big, TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("limit"), "{}", r.body_text());
    // Wrong method / path.
    let r = client::get(&addr, "/v1/campaign", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    let r = client::get(&addr, "/v1/nope", TIMEOUT).unwrap();
    assert_eq!(r.status, 404);
    // Oversized body.
    let huge = vec![b' '; 80 * 1024];
    let r = client::post(&addr, "/v1/campaign", &huge, TIMEOUT).unwrap();
    assert_eq!(r.status, 413);

    // After all that abuse the daemon still serves.
    let ok = client::run_campaign(&addr, &tiny_desc(), TIMEOUT).unwrap();
    assert_eq!(ok.status, 200);
    handle.stop().expect("clean shutdown");
}

#[test]
fn eight_concurrent_clients_stream_verified_records() {
    let handle = boot(|c| {
        c.workers = 12;
        c.max_inflight = 8;
    });
    let addr = handle.addr().to_string();
    let desc = tiny_desc();
    let per_request = desc.spec_count();

    let mut config = LoadgenConfig::new(addr.clone(), desc);
    config.clients = 8;
    config.requests_per_client = 3;
    let report = loadgen::run(&config);

    assert_eq!(
        report.ok, 24,
        "errors={} shed={}",
        report.errors, report.shed_503
    );
    assert_eq!(report.malformed, 0, "{:?}", report.first_malformation);
    assert_eq!(report.errors, 0);
    assert_eq!(report.records, 24 * per_request);
    assert!(
        report.cache_hits >= 16,
        "identical grids after the first must mostly hit the cache (got {})",
        report.cache_hits
    );
    assert_eq!(report.latencies.len(), 24);
    assert!(report.throughput_rps() > 0.0);

    // The saved body diffs clean against the offline reference too.
    let body = report.first_body.expect("a saved body");
    assert_eq!(body, offline_jsonl(&tiny_desc()));
    handle.stop().expect("clean shutdown");
}

#[test]
fn open_loop_pacing_spreads_request_starts() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let mut config = LoadgenConfig::new(addr, tiny_desc());
    config.clients = 2;
    config.requests_per_client = 3;
    config.target_rate = Some(50.0); // 6 request slots, 20 ms apart
    let report = loadgen::run(&config);
    assert_eq!(report.ok, 6);
    assert_eq!(report.malformed, 0);
    // 6 slots at 50 req/s put the last start at >= 100 ms.
    assert!(
        report.elapsed >= Duration::from_millis(100),
        "open loop finished too fast: {:?}",
        report.elapsed
    );
    handle.stop().expect("clean shutdown");
}

// ---------------------------------------------------------------------------
// Keep-alive, pipelining, and deadline tests (the nonblocking serve path)
// ---------------------------------------------------------------------------

/// A grid big enough that its JSONL body (~1 MB) cannot fit in the capped
/// loopback socket buffers — the lever for the write-stall test.
fn big_desc() -> GridDesc {
    GridDesc {
        workloads: vec!["DP".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: (0..1500).collect(),
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    }
}

#[test]
fn kept_alive_connection_serves_byte_identical_bodies() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let reference = offline_jsonl(&tiny_desc());

    // One TCP session, many exchanges: miss (chunked), hits
    // (Content-Length), health and stats interleaved.
    let mut conn = client::Conn::connect(&addr, TIMEOUT).expect("dial");
    let first = conn.run_campaign(&tiny_desc()).expect("first exchange");
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(first.header("x-joss-cache"), Some("miss"));
    assert_eq!(first.body, reference, "miss over keep-alive diverged");

    let health = conn.get("/healthz").expect("health on same conn");
    assert_eq!(health.status, 200);

    for round in 0..3 {
        let again = conn.run_campaign(&tiny_desc()).expect("hit exchange");
        assert_eq!(again.header("x-joss-cache"), Some("hit"), "round {round}");
        assert_eq!(again.body, reference, "hit over keep-alive diverged");
    }
    assert!(
        conn.is_reusable(),
        "daemon must not close a keep-alive conn"
    );

    // The daemon saw exactly one connection for all six exchanges.
    let stats = conn.get("/stats").expect("stats on same conn");
    let parsed = joss_sweep::json::parse(&stats.body_text()).expect("stats JSON");
    assert_eq!(
        parsed
            .get("connections")
            .and_then(joss_sweep::json::Value::as_u64),
        Some(1),
        "{}",
        stats.body_text()
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn pipelined_requests_drain_in_order() {
    use std::io::{BufReader, Write};
    let handle = boot(|_| {});
    let addr = handle.addr();
    let desc = tiny_desc();
    let body = desc.to_canonical_json();

    // Three requests written back-to-back before reading anything: a
    // campaign miss (streams chunked), the same campaign again, and a
    // health probe. The daemon must answer them strictly in order — the
    // second and third parse only after the first stream completes.
    let mut socket = std::net::TcpStream::connect(addr).expect("connect");
    socket
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    let campaign = format!(
        "POST /v1/campaign HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut burst = Vec::new();
    burst.extend_from_slice(campaign.as_bytes());
    burst.extend_from_slice(campaign.as_bytes());
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    socket.write_all(&burst).expect("pipelined burst");

    let mut reader = BufReader::new(socket);
    let first = joss_serve::http::read_response(&mut reader).expect("first response");
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(first.header("x-joss-cache"), Some("miss"));
    let second = joss_serve::http::read_response(&mut reader).expect("second response");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-joss-cache"), Some("hit"));
    assert_eq!(
        second.body, first.body,
        "pipelined repeat must replay identical bytes"
    );
    let third = joss_serve::http::read_response(&mut reader).expect("third response");
    assert_eq!(third.status, 200);
    assert!(third.body_text().contains("\"status\":\"ok\""));
    assert_eq!(first.body, offline_jsonl(&desc));
    handle.stop().expect("clean shutdown");
}

/// Shrink a socket's receive buffer so the peer's writes hit backpressure
/// after a few KB instead of a few hundred.
#[cfg(target_os = "linux")]
fn shrink_recv_buffer(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let val: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &val as *const i32 as *const u8,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(target_os = "linux")]
#[test]
fn stalled_reader_is_reaped_without_wedging_the_event_loop() {
    use std::io::{Read, Write};
    let handle = boot(|c| {
        c.write_timeout = Duration::from_millis(500);
    });
    let addr = handle.addr().to_string();

    // Prime the cache with a body far larger than the socket buffers the
    // stalled connection can absorb.
    let big = big_desc();
    let primed = client::run_campaign(&addr, &big, TIMEOUT).expect("prime cache");
    assert_eq!(primed.status, 200, "{}", primed.body_text());
    let full_len = primed.body.len();
    assert!(full_len > 500 * 1024, "body too small to stall: {full_len}");

    // The stalled client: request the cached body, then read nothing.
    let mut stalled = std::net::TcpStream::connect(&addr).expect("connect");
    shrink_recv_buffer(&stalled);
    stalled
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let body = big.to_canonical_json();
    let request = format!(
        "POST /v1/campaign HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stalled.write_all(request.as_bytes()).expect("send request");

    // While the stalled connection sits on a full outbound queue, the
    // event loop keeps serving everyone else promptly.
    let t0 = std::time::Instant::now();
    let live = client::run_campaign(&addr, &tiny_desc(), TIMEOUT).expect("live client");
    assert_eq!(live.status, 200);
    let health = client::get(&addr, "/healthz", TIMEOUT).expect("health");
    assert_eq!(health.status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "event loop wedged behind a stalled reader: {:?}",
        t0.elapsed()
    );

    // The write deadline (500 ms of zero progress) must kill the stalled
    // connection; io_errors records the reap.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
        let parsed = joss_sweep::json::parse(&stats.body_text()).expect("stats JSON");
        let reaped = parsed
            .get("io_errors")
            .and_then(joss_sweep::json::Value::as_u64)
            .unwrap_or(0);
        if reaped >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled connection never reaped: {}",
            stats.body_text()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Draining the stalled socket now ends early: the daemon dropped the
    // connection mid-body, so the client cannot receive the full response.
    let mut received = 0usize;
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => received += n,
        }
    }
    assert!(
        received < full_len,
        "expected a truncated body after the reap, got {received} of {full_len}"
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn half_sent_request_hits_the_read_deadline() {
    use std::io::{Read, Write};
    let handle = boot(|c| {
        c.read_timeout = Duration::from_millis(300);
    });
    let addr = handle.addr().to_string();

    // Send half a request head and go silent.
    let mut dribbler = std::net::TcpStream::connect(&addr).expect("connect");
    dribbler
        .write_all(b"POST /v1/campaign HTTP/1.1\r\nContent-Le")
        .expect("partial head");
    dribbler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    // Others are unaffected while the dribbler's deadline runs.
    let health = client::get(&addr, "/healthz", TIMEOUT).expect("health");
    assert_eq!(health.status, 200);

    // The daemon drops the connection once the read deadline passes.
    let mut buf = [0u8; 256];
    match dribbler.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected the connection to close, got {n} bytes"),
    }

    // An idle keep-alive connection with NO partial request is governed by
    // the (long) idle timeout, not the read deadline: it survives this.
    let mut conn = client::Conn::connect(&addr, TIMEOUT).expect("dial");
    conn.get("/healthz").expect("first exchange");
    std::thread::sleep(Duration::from_millis(600));
    let again = conn.get("/healthz").expect("idle conn still serves");
    assert_eq!(again.status, 200);
    handle.stop().expect("clean shutdown");
}

#[test]
fn loadgen_reuses_connections_and_close_mode_dials_per_request() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();

    // Keep-alive (default): one dial per client.
    let mut config = LoadgenConfig::new(addr.clone(), tiny_desc());
    config.clients = 2;
    config.requests_per_client = 3;
    let report = loadgen::run(&config);
    assert_eq!(report.ok, 6);
    assert_eq!(report.errors, 0);
    assert_eq!(report.connections, 2, "one dial per keep-alive client");

    // Recycling every 2 exchanges: ceil(3/2) = 2 dials per client.
    config.requests_per_conn = 2;
    let report = loadgen::run(&config);
    assert_eq!(report.ok, 6);
    assert_eq!(report.connections, 4, "recycle after 2 exchanges");

    // Close-per-request A/B mode: one dial per request.
    config.requests_per_conn = 0;
    config.keep_alive = false;
    let report = loadgen::run(&config);
    assert_eq!(report.ok, 6);
    assert_eq!(report.connections, 6, "close mode dials per request");
    handle.stop().expect("clean shutdown");
}

#[test]
fn connection_close_requests_are_honored() {
    // The legacy one-shot client sends `Connection: close`; the daemon
    // must close-delimit the session (HTTP/1.0-era peers and proxies that
    // read to EOF depend on it).
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let response = client::run_campaign(&addr, &tiny_desc(), TIMEOUT).expect("one-shot");
    assert_eq!(response.status, 200);
    assert_eq!(client::verify_body(&tiny_desc(), &response.body), Ok(2));

    // Raw probe: the response must carry `Connection: close` and the
    // socket must actually reach EOF afterwards.
    use std::io::{Read, Write};
    let mut socket = std::net::TcpStream::connect(&addr).expect("connect");
    socket
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    socket
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut raw = Vec::new();
    socket.read_to_end(&mut raw).expect("read to daemon close");
    let text = String::from_utf8_lossy(&raw).to_lowercase();
    assert!(
        text.contains("connection: close"),
        "close request must be acknowledged: {text}"
    );
    handle.stop().expect("clean shutdown");
}

#[test]
fn spec_store_serves_overlapping_shards_without_resimulating() {
    let handle = boot(|_| {});
    let addr = handle.addr().to_string();
    let desc = GridDesc {
        workloads: vec!["DP".into(), "MM_256_dop4".into(), "FB".into()],
        schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
        seeds: vec![42],
        scale: Scale::Divided(400),
        record_trace: false,
        shard: None,
    };
    let reference = offline_jsonl(&desc);
    let ref_lines: Vec<&str> = std::str::from_utf8(&reference).unwrap().lines().collect();
    let shard = |s, e| desc.with_shard(joss_sweep::SpecRange::new(s, e));
    let slice = |s: usize, e: usize| -> Vec<u8> {
        ref_lines[s..e]
            .iter()
            .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
            .collect()
    };

    // Cold shard [0,4): simulates four specs and fills the store.
    let first = client::run_campaign(&addr, &shard(0, 4), TIMEOUT).expect("cold shard");
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(first.header("x-joss-cache"), Some("miss"));
    assert_eq!(first.body, slice(0, 4));

    // Overlapping shard [2,6): specs 2..4 splice from the store, only
    // 4..6 simulate — and the bytes must not betray the difference.
    let second = client::run_campaign(&addr, &shard(2, 6), TIMEOUT).expect("overlapping shard");
    assert_eq!(second.status, 200, "{}", second.body_text());
    assert_eq!(second.body, slice(2, 6), "store splice changed bytes");

    // Shard [1,3) is now fully covered: answered from the store in the
    // reactor without touching the executor at all.
    let third = client::run_campaign(&addr, &shard(1, 3), TIMEOUT).expect("covered shard");
    assert_eq!(third.status, 200, "{}", third.body_text());
    assert_eq!(third.body, slice(1, 3), "store assembly changed bytes");

    let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
    let parsed = joss_sweep::json::parse(&stats.body_text()).expect("stats JSON");
    let count = |key: &str| {
        parsed
            .get(key)
            .and_then(joss_sweep::json::Value::as_u64)
            .unwrap_or_else(|| panic!("stats missing {key}: {}", stats.body_text()))
    };
    assert_eq!(count("campaigns_executed"), 2, "[1,3) must not execute");
    assert_eq!(count("store_spec_hits"), 2, "specs 2 and 3 were stored");
    assert_eq!(count("store_hits"), 1, "[1,3) was fully covered");
    assert_eq!(count("store_lines"), 6, "every spec of the grid is stored");
    assert_eq!(count("executor_queue_depth"), 0);
    handle.stop().expect("clean shutdown");
}

#[test]
fn store_can_be_disabled_without_changing_bytes() {
    let handle = boot(|c| c.store_specs = 0);
    let addr = handle.addr().to_string();
    let desc = tiny_desc();
    let reference = offline_jsonl(&desc);
    let shard = desc.with_shard(joss_sweep::SpecRange::new(0, 2));

    let first = client::run_campaign(&addr, &shard, TIMEOUT).expect("first");
    let second = client::run_campaign(
        &addr,
        &desc.with_shard(joss_sweep::SpecRange::new(1, 2)),
        TIMEOUT,
    )
    .expect("second");
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.body, reference);
    assert_eq!(
        second.body,
        reference[reference.len() - second.body.len()..]
    );

    let stats = client::get(&addr, "/stats", TIMEOUT).expect("stats");
    let text = stats.body_text();
    assert!(
        text.contains("\"store_lines\":0") && text.contains("\"store_hits\":0"),
        "a disabled store must stay empty: {text}"
    );
    handle.stop().expect("clean shutdown");
}
