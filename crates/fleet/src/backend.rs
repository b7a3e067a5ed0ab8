//! Backend health probing and compatibility checking.
//!
//! The byte-identity invariant only holds across backends that trained
//! their model set identically (same seed, same reps) and speak the same
//! record schema — merging anything else would silently interleave
//! records from *different experiments*. `joss-serve` surfaces those
//! parameters in `/healthz`; [`probe`] reads them and
//! [`verify_compatible`] refuses a mixed fleet with a clear error
//! instead.

use joss_serve::client;
use joss_sweep::json::{self, Value};
use std::time::Duration;

/// What one backend's `/healthz` reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    /// The probed `host:port`.
    pub addr: String,
    /// Whether the shared context is already trained.
    pub trained: bool,
    /// Training seed of the backend's (lazily trained) context.
    pub train_seed: u64,
    /// Profiling repetitions of the one-time characterization.
    pub reps: u32,
    /// Record wire-schema tag ([`joss_sweep::RECORD_SCHEMA`]).
    pub schema: String,
    /// Backend build version (informational; not gated).
    pub version: String,
}

/// Probe one backend: wait for `/healthz` (up to `wait`), then parse its
/// identity fields. A daemon that answers but omits the fields (a
/// pre-fleet `joss-serve`) is an error: its records cannot be trusted to
/// merge.
pub fn probe(addr: &str, wait: Duration) -> Result<BackendInfo, String> {
    let response = client::wait_ready(addr, wait)
        .map_err(|e| format!("backend {addr} failed its health probe: {e}"))?;
    let text = String::from_utf8_lossy(&response.body).into_owned();
    parse_health(addr, &text)
}

fn parse_health(addr: &str, body: &str) -> Result<BackendInfo, String> {
    let parsed = json::parse(body)
        .map_err(|e| format!("backend {addr} sent unparseable health JSON: {e}"))?;
    let field = |key: &str| -> Result<&Value, String> {
        parsed.get(key).ok_or_else(|| {
            format!(
                "backend {addr} health response is missing {key:?} \
                 (is it running a pre-fleet joss-serve?)"
            )
        })
    };
    let as_u64 = |key: &str| -> Result<u64, String> {
        field(key)?
            .as_u64()
            .ok_or_else(|| format!("backend {addr} health field {key:?} is not an unsigned int"))
    };
    let as_str = |key: &str| -> Result<String, String> {
        field(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("backend {addr} health field {key:?} is not a string"))
    };
    Ok(BackendInfo {
        addr: addr.to_string(),
        trained: field("trained")?.as_bool().unwrap_or(false),
        train_seed: as_u64("train_seed")?,
        reps: u32::try_from(as_u64("reps")?)
            .map_err(|_| format!("backend {addr} reports an out-of-range reps"))?,
        schema: as_str("schema")?,
        version: as_str("version")?,
    })
}

/// Quick liveness re-check, used after a mid-stream failure to decide
/// between "that backend is dead" and "that exchange failed".
pub fn is_alive(addr: &str, timeout: Duration) -> bool {
    client::get(addr, "/healthz", timeout).is_ok_and(|r| r.status == 200)
}

/// Live progress of one campaign on one backend, read from
/// `GET /v1/progress`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProgress {
    /// Specs the backend has emitted for this campaign so far.
    pub completed: u64,
    /// Specs the campaign will emit in total.
    pub total: u64,
    /// Backend-wide executor queue depth (jobs admitted, not yet started).
    pub queue_depth: u64,
}

/// Poll a backend's `GET /v1/progress` for the campaign whose formatted
/// spec hash is `hash` (the `X-Joss-Spec-Hash` spelling).
///
/// `Ok(Some(_))` — the campaign is actively executing there;
/// `Ok(None)` — the backend answered but is not currently executing that
/// campaign (finished, still queued, or served from cache);
/// `Err(_)` — the backend did not answer, answered with a non-200 status,
/// or sent a body without an `active` array.
///
/// This is the coordinator's steal-side sanity check: before re-issuing
/// part of an in-flight range elsewhere, it confirms the victim backend
/// is reachable and sees how far the campaign actually got.
pub fn fetch_progress(
    addr: &str,
    hash: &str,
    timeout: Duration,
) -> Result<Option<CampaignProgress>, String> {
    let response = client::get(addr, "/v1/progress", timeout)
        .map_err(|e| format!("backend {addr} failed its progress probe: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "backend {addr} answered /v1/progress with {}",
            response.status
        ));
    }
    parse_progress(&String::from_utf8_lossy(&response.body), hash)
        .map_err(|e| format!("backend {addr} sent a bad /v1/progress body: {e}"))
}

/// Find `hash` in a `/v1/progress` document's `active` array.
fn parse_progress(body: &str, hash: &str) -> Result<Option<CampaignProgress>, String> {
    let parsed = json::parse(body)?;
    let active = parsed
        .get("active")
        .and_then(Value::as_array)
        .ok_or("no \"active\" array")?;
    let queue_depth = parsed
        .get("executor_queue_depth")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    Ok(active
        .iter()
        .find(|entry| entry.get("hash").and_then(Value::as_str) == Some(hash))
        .map(|entry| CampaignProgress {
            completed: entry.get("completed").and_then(Value::as_u64).unwrap_or(0),
            total: entry.get("total").and_then(Value::as_u64).unwrap_or(0),
            queue_depth,
        }))
}

/// Refuse a fleet whose backends would produce unmergeable records:
/// every backend must agree on train seed, reps, and record schema (with
/// each other, and with the caller's expectation when given). Build
/// versions may differ — the schema tag is the compatibility contract —
/// but skew is *logged*, because a version spread is the first thing to
/// check when one backend misbehaves during a rolling upgrade.
pub fn verify_compatible(
    infos: &[BackendInfo],
    expect_train_seed: Option<u64>,
    expect_reps: Option<u32>,
) -> Result<(), String> {
    let Some(first) = infos.first() else {
        return Err("fleet has no backends".to_string());
    };
    let want_seed = expect_train_seed.unwrap_or(first.train_seed);
    let want_reps = expect_reps.unwrap_or(first.reps);
    if first.schema != joss_sweep::RECORD_SCHEMA {
        return Err(format!(
            "backend {} speaks record schema {:?}, this coordinator speaks {:?}",
            first.addr,
            first.schema,
            joss_sweep::RECORD_SCHEMA
        ));
    }
    for info in infos {
        if info.train_seed != want_seed || info.reps != want_reps || info.schema != first.schema {
            return Err(format!(
                "incompatible backend {}: train_seed={} reps={} schema={:?}, \
                 expected train_seed={} reps={} schema={:?} — records from mismatched \
                 training would not merge byte-identically, refusing",
                info.addr,
                info.train_seed,
                info.reps,
                info.schema,
                want_seed,
                want_reps,
                first.schema
            ));
        }
    }
    for info in infos {
        if info.version != first.version {
            eprintln!(
                "[joss_fleet] version skew: backend {} runs {} while {} runs {} \
                 (schemas match, proceeding)",
                info.addr, info.version, first.addr, first.version
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(addr: &str, seed: u64, reps: u32, schema: &str) -> BackendInfo {
        BackendInfo {
            addr: addr.into(),
            trained: false,
            train_seed: seed,
            reps,
            schema: schema.into(),
            version: "0.1.0".into(),
        }
    }

    #[test]
    fn parses_a_modern_health_response() {
        let body = format!(
            "{{\"status\":\"ok\",\"trained\":true,\"train_seed\":42,\"reps\":3,\
             \"schema\":\"{}\",\"version\":\"0.1.0\"}}",
            joss_sweep::RECORD_SCHEMA
        );
        let info = parse_health("x:1", &body).unwrap();
        assert!(info.trained);
        assert_eq!(info.train_seed, 42);
        assert_eq!(info.reps, 3);
        assert_eq!(info.schema, joss_sweep::RECORD_SCHEMA);
    }

    #[test]
    fn pre_fleet_daemons_are_rejected_with_a_hint() {
        let err = parse_health("x:1", "{\"status\":\"ok\",\"trained\":false}").unwrap_err();
        assert!(
            err.contains("train_seed") && err.contains("pre-fleet"),
            "{err}"
        );
    }

    /// A `/v1/progress` document as `joss-serve` renders it.
    const PROGRESS: &str = "{\"progress_schema\":1,\"uptime_secs\":3,\
        \"executor_queue_depth\":2,\"active\":[{\"hash\":\"00000000000000aa\",\
        \"completed\":5,\"total\":12,\"records_streamed\":5,\"store_spliced\":0,\
        \"elapsed_ms\":40,\"specs_per_sec\":125.000,\"eta_ms\":56}],\
        \"totals\":{\"campaigns_executed\":1,\"cache_hits\":0,\"store_hits\":0,\
        \"store_spec_hits\":0,\"records_streamed\":5,\"handler_panics\":0}}";

    #[test]
    fn progress_parse_finds_live_campaigns_only() {
        assert_eq!(
            parse_progress(PROGRESS, "00000000000000aa"),
            Ok(Some(CampaignProgress {
                completed: 5,
                total: 12,
                queue_depth: 2,
            }))
        );
        assert_eq!(parse_progress(PROGRESS, "00000000000000bb"), Ok(None));
    }

    #[test]
    fn progress_parse_rejects_bodies_without_an_active_array() {
        // A `/stats` body carries no `active` array: there is no fallback.
        let stats = "{\"stats_schema\":3,\"executor_queue_depth\":0,\
            \"active_campaigns\":[{\"hash\":\"00000000000000aa\",\"completed\":5,\"total\":12}]}";
        for body in [stats, "{\"progress_schema\":1}", "not json"] {
            assert!(parse_progress(body, "00000000000000aa").is_err(), "{body}");
        }
    }

    #[test]
    fn compatibility_requires_matching_training_and_schema() {
        let s = joss_sweep::RECORD_SCHEMA;
        let ok = [info("a:1", 42, 3, s), info("b:1", 42, 3, s)];
        verify_compatible(&ok, None, None).unwrap();
        verify_compatible(&ok, Some(42), Some(3)).unwrap();

        let err = verify_compatible(&ok, Some(7), None).unwrap_err();
        assert!(err.contains("a:1") && err.contains("train_seed"), "{err}");

        let mixed = [info("a:1", 42, 3, s), info("b:1", 43, 3, s)];
        let err = verify_compatible(&mixed, None, None).unwrap_err();
        assert!(err.contains("b:1") && err.contains("refusing"), "{err}");

        let old = [info("a:1", 42, 3, "joss-run-record/v0")];
        let err = verify_compatible(&old, None, None).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        assert!(verify_compatible(&[], None, None).is_err());
    }
}
