//! Process-level probes and daemon lifecycle, all at sub-millisecond
//! resolution: CPU time comes from `clock_gettime` (this process) or
//! `/proc/<pid>/task/*/schedstat` (daemons), never from the 10 ms ticks of
//! `/proc/<pid>/stat`; memory peaks come from `VmHWM`.

use joss_serve::client::Conn;
use joss_sweep::json::{self, Value};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, live or
/// exited, in seconds.
pub fn self_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is always supported there.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// On-CPU time of every live thread of `pid`, in seconds (first field of
/// each `/proc/<pid>/task/<tid>/schedstat`, nanoseconds).
pub fn task_cpu_s(pid: u32) -> io::Result<f64> {
    let mut ns: u64 = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            ns += text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(ns as f64 * 1e-9)
}

/// A `/proc/<pid>/status` memory field (`VmHWM`, `VmRSS`) in MiB.
pub fn status_mb(pid: Option<u32>, field: &str) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `joss_serve` executable built next to this benchmark.
pub fn daemon_exe() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?.with_file_name("joss_serve");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(io::Error::other(format!(
            "{} not found; build with perfbench/run.sh",
            exe.display()
        )))
    }
}

/// One `joss_serve` process, launched with default capacities. Killed and
/// reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Launch on an ephemeral port with `--train-eager`, passing only the
    /// flags the serving interface keeps stable. Returns once the daemon
    /// has bound its listener (it reports the address on stderr).
    pub fn launch(exe: &Path, campaign_threads: usize) -> io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--train-eager",
                "--campaign-threads",
            ])
            .arg(campaign_threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("joss_serve exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Keep draining so a chatty daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("{line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Block until `/healthz` answers 200 with a trained context. The
    /// listener is bound before training starts, so one request queued on
    /// it is answered the instant the event loop starts; only a refused or
    /// reset connection is retried, every 0.5 ms.
    pub fn wait_healthy(&self, limit: Duration) -> io::Result<()> {
        let deadline = Instant::now() + limit;
        loop {
            let answer = Conn::connect(&self.addr, limit).and_then(|mut c| c.get("/healthz"));
            match answer {
                Ok(resp) if resp.status == 200 && resp.body_text().contains("\"trained\":true") => {
                    return Ok(())
                }
                Ok(resp) if Instant::now() >= deadline => {
                    return Err(io::Error::other(format!(
                        "/healthz answered {}",
                        resp.status
                    )))
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                _ => std::thread::sleep(Duration::from_micros(500)),
            }
        }
    }

    /// `GET /stats`, parsed.
    pub fn stats(&self) -> io::Result<Value> {
        let resp = Conn::connect(&self.addr, Duration::from_secs(10))?.get("/stats")?;
        json::parse(&resp.body_text()).map_err(io::Error::other)
    }

    pub fn cpu_s(&self) -> f64 {
        task_cpu_s(self.pid()).unwrap_or(0.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A numeric `/stats` key, or `None` when this daemon version lacks it.
pub fn stat(stats: &Value, key: &str) -> Option<f64> {
    stats.get(key).and_then(Value::as_f64)
}

/// `after - before` for a counter present in both snapshots.
pub fn stat_delta(before: &Value, after: &Value, key: &str) -> Option<f64> {
    Some(stat(after, key)? - stat(before, key)?)
}
