//! A rate-limiting TCP proxy: the fleet's straggler simulator.
//!
//! [`ThrottleProxy`] forwards every byte faithfully in both directions but
//! meters the **upstream → client** direction to a byte rate, turning a
//! healthy backend into a straggler without touching its simulation —
//! exactly the failure shape elastic rebalancing exists for (the backend
//! computes at full speed; its records just trickle out). Used by the
//! fleet steal tests and — via the `joss_throttle_proxy` binary — the CI
//! slow-backend scenario.
//!
//! The proxy is protocol-agnostic (a dumb splice), so it also carries
//! `/healthz` probes and `/v1/progress` polls; those are small and pay at
//! most a few chunk delays.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bytes copied per metering step. Small enough that a record line spans
/// multiple steps at test rates (delivery is visibly gradual), large
/// enough that syscall overhead stays irrelevant.
const CHUNK: usize = 1024;

/// A live throttling proxy; dropping the handle (or calling
/// [`ThrottleProxy::stop`]) shuts it down.
pub struct ThrottleProxy {
    addr: String,
    shutdown: Arc<AtomicBool>,
}

impl ThrottleProxy {
    /// Start a proxy on an ephemeral local port, forwarding to `upstream`
    /// and limiting upstream→client delivery to `bytes_per_sec`.
    pub fn spawn(upstream: &str, bytes_per_sec: u64) -> std::io::Result<ThrottleProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let upstream = upstream.to_string();
        std::thread::spawn(move || accept_loop(listener, &upstream, bytes_per_sec, &flag));
        Ok(ThrottleProxy { addr, shutdown })
    }

    /// The proxy's listen address (dial this instead of the upstream).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting connections. In-flight splices run to their
    /// sockets' natural end.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(&self.addr);
    }
}

impl Drop for ThrottleProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept until shutdown; each connection gets its own splice pair.
/// Public so the `joss_throttle_proxy` binary can run it on a fixed
/// listener forever.
pub fn accept_loop(
    listener: TcpListener,
    upstream: &str,
    bytes_per_sec: u64,
    shutdown: &AtomicBool,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(client) = conn else { continue };
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        // Requests upstream run at full speed; responses are metered.
        std::thread::spawn(move || splice(client_r, server, None));
        std::thread::spawn(move || splice(server_r, client, Some(bytes_per_sec)));
    }
}

/// Copy `from` to `to` until EOF or error, sleeping `len/rate` per chunk
/// when a rate is set, then propagate the EOF with a write-side shutdown
/// (so `Connection: close` responses still terminate for the client).
fn splice(mut from: TcpStream, mut to: TcpStream, bytes_per_sec: Option<u64>) {
    let mut buf = [0u8; CHUNK];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        if let Some(rate) = bytes_per_sec {
            if rate > 0 {
                std::thread::sleep(Duration::from_secs_f64(n as f64 / rate as f64));
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}
