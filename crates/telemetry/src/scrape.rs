//! A tiny blocking Prometheus scrape endpoint.
//!
//! `sd serve` needs its metrics pullable while the packet loop runs, but
//! the workspace deliberately has no HTTP dependency — so this is the
//! smallest thing that a Prometheus scraper (or `curl`) accepts: a
//! [`std::net::TcpListener`] accept loop on its own thread, answering
//! `GET /metrics` with the most recently *published* exposition-format
//! snapshot and everything else with `404`.
//!
//! The split between publishing and serving is deliberate: the packet
//! loop owns its counters (single-writer, no atomics — the crate-wide
//! design), builds a [`crate::Registry`] from them and renders it with
//! [`crate::to_prometheus`] at its own cadence, and hands the finished
//! string to [`ScrapeServer::publish`]. The listener thread only ever
//! touches that string snapshot, so a slow or hostile scraper can never
//! stall packet processing, and the counters need no locking. Scrapes between publishes see the previous snapshot
//! — the same staleness contract a push-gateway has.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the request head we read before answering. Anything a scraper
/// legitimately sends fits; anything longer is cut off and answered from
/// what arrived.
const MAX_REQUEST_BYTES: usize = 4096;

/// Per-connection socket timeout so one wedged client cannot pin the
/// accept loop forever.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// The published-snapshot scrape server. See the module docs.
pub struct ScrapeServer {
    addr: SocketAddr,
    snapshot: Arc<Mutex<String>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start the accept loop. The error is the bind failure, verbatim.
    pub fn bind(addr: &str) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let snapshot = Arc::new(Mutex::new(String::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_snapshot = Arc::clone(&snapshot);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sd-scrape".to_string())
            .spawn(move || accept_loop(listener, thread_snapshot, thread_stop))?;
        Ok(ScrapeServer {
            addr,
            snapshot,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replace the snapshot served at `/metrics`. Callers render their
    /// registry themselves (typically [`crate::to_prometheus`]) so the
    /// cost of exporting is paid on the publisher's schedule, never per
    /// scrape.
    pub fn publish(&self, text: String) {
        *self.snapshot.lock().expect("snapshot lock poisoned") = text;
    }

    /// Stop the accept loop and join its thread. Idempotent; also run by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(); a self-connection wakes
        // it to observe the flag. A failure here means the listener is
        // already gone, which is what we wanted.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, snapshot: Arc<Mutex<String>>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = conn else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
        let body = {
            // Render the response while holding the lock only long enough
            // to clone; the publisher never waits on a slow client.
            let snap = snapshot.lock().expect("snapshot lock poisoned");
            snap.clone()
        };
        let _ = handle_client(&mut stream, &body);
    }
}

/// Read the request head, answer `GET /metrics` with the snapshot. Any
/// parse or io failure just drops the connection — a scrape endpoint has
/// nobody to report errors to but its own counters.
fn handle_client(stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
    let mut head = [0u8; MAX_REQUEST_BYTES];
    let mut filled = 0;
    // Read until the blank line ending the request head (or the cap).
    loop {
        if filled == head.len() {
            break;
        }
        let n = stream.read(&mut head[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
        if head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head[..filled]);
    let mut parts = request.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && path == "/metrics" {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let msg = "not found\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            msg.len(),
            msg
        )
    };
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain-socket GET against the server; returns the raw response.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        buf
    }

    #[test]
    fn serves_published_snapshot_at_metrics() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        server.publish("# HELP sd_up Up\n# TYPE sd_up gauge\nsd_up 1\n".to_string());
        let resp = get(server.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.contains("sd_up 1"), "{resp}");
    }

    #[test]
    fn republish_replaces_the_snapshot() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        server.publish("sd_seq 1\n".to_string());
        assert!(get(server.addr(), "/metrics").contains("sd_seq 1"));
        server.publish("sd_seq 2\n".to_string());
        let resp = get(server.addr(), "/metrics");
        assert!(resp.contains("sd_seq 2") && !resp.contains("sd_seq 1"));
    }

    #[test]
    fn unknown_path_is_404() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        let resp = get(server.addr(), "/other");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    }

    #[test]
    fn shutdown_joins_and_is_idempotent() {
        let mut server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        let addr = server.addr();
        server.publish("x 1\n".to_string());
        assert!(get(addr, "/metrics").contains("x 1"));
        server.shutdown();
        server.shutdown();
        // The port no longer answers.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Accepted by a racing reuse of the port is possible but the
                // old server must not: a request should fail or hang up.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                s.read_to_string(&mut buf).is_err() || buf.is_empty()
            }
        );
    }

    #[test]
    fn registry_snapshot_round_trips_through_the_endpoint() {
        let mut reg = crate::Registry::new();
        reg.counter("sd_serve_reloads_total", "Rule reloads applied", 3);
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        server.publish(crate::to_prometheus(&reg));
        let resp = get(server.addr(), "/metrics");
        let body = resp.split("\r\n\r\n").nth(1).unwrap();
        crate::promcheck::validate(body).unwrap();
        assert!(body.contains("sd_serve_reloads_total 3"));
    }
}
