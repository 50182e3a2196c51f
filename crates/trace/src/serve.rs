//! Std-only HTTP scrape endpoint for the metrics registry.
//!
//! A deliberately tiny blocking HTTP/1.1 server — no async runtime, no
//! HTTP crate, nothing beyond `std::net` (the workspace is offline and
//! vendors every dependency). One background thread accepts connections
//! serially and answers three routes:
//!
//! * `GET /metrics` — Prometheus text exposition format 0.0.4
//!   ([`MetricsSnapshot::to_prometheus`]);
//! * `GET /status` — a JSON [`StatusDoc`] (uptime + the full snapshot),
//!   the payload behind `escli top`;
//! * `GET /timeline` — the last published run timeline as JSON (`{}`
//!   until a run with sampling enabled publishes one);
//! * `GET /attribution` — the last published wait-attribution profile
//!   as JSON (`{}` until a run with attribution enabled publishes one);
//! * `GET /` — a one-line index pointing at the others.
//!
//! Serial accept is a feature, not a shortcut: the consumers are a
//! scrape loop and a human running `escli top`, both of which issue one
//! short request at a time, and a serial loop cannot be used to pile
//! concurrent load onto the process being measured.
//!
//! Shutdown is cooperative: dropping the [`MetricsServer`] sets a stop
//! flag, pokes the listener with a local connect so `accept` returns,
//! and joins the thread.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// The `/status` JSON payload: process-relative uptime plus the full
/// registry snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusDoc {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Registry snapshot at response time.
    pub snapshot: MetricsSnapshot,
}

impl StatusDoc {
    /// Parse a `/status` response body (the counterpart of the server's
    /// serialization, for `escli top` and test clients).
    pub fn parse(body: &str) -> Result<StatusDoc, String> {
        serde_json::from_str(body).map_err(|e| format!("malformed /status JSON: {e:?}"))
    }
}

/// Handle to a running scrape endpoint. Dropping it shuts the listener
/// down and joins the serving thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9200`, port `0` for ephemeral) and
    /// start serving `registry` on a background thread.
    pub fn start(addr: &str, registry: Arc<MetricsRegistry>) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("metrics-serve".to_string())
            .spawn(move || serve_loop(listener, registry, stop_flag, started))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke accept() awake; a failed connect means it already woke.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
    started: Instant,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A misbehaving client must not wedge the endpoint.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle_conn(stream, &registry, started);
    }
}

fn handle_conn(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    started: Instant,
) -> io::Result<()> {
    let request_line = read_request_line(&mut stream)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    // Ignore any query string: `/metrics?x=1` scrapes fine.
    let path = target.split('?').next().unwrap_or("/");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // Exposition format 0.0.4 content type.
                "text/plain; version=0.0.4; charset=utf-8",
                registry.snapshot().to_prometheus(),
            ),
            "/status" => {
                let doc = StatusDoc {
                    uptime_secs: started.elapsed().as_secs_f64(),
                    snapshot: registry.snapshot(),
                };
                let body = serde_json::to_string(&doc)
                    .unwrap_or_else(|e| format!("{{\"error\":\"serialize: {e:?}\"}}"));
                ("200 OK", "application/json; charset=utf-8", body)
            }
            "/timeline" => (
                "200 OK",
                "application/json; charset=utf-8",
                registry
                    .doc("timeline")
                    .unwrap_or_else(|| "{}".to_string()),
            ),
            "/attribution" => (
                "200 OK",
                "application/json; charset=utf-8",
                registry
                    .doc("attribution")
                    .unwrap_or_else(|| "{}".to_string()),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "elastisched metrics endpoint: GET /metrics (Prometheus), /status (JSON), /timeline (JSON) or /attribution (JSON)\n"
                    .to_string(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no such route {path}; try /metrics, /status, /timeline or /attribution\n"),
            ),
        }
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and return the request line.
fn read_request_line(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    Ok(head.lines().next().unwrap_or("").to_string())
}

/// Minimal blocking HTTP GET against a metrics endpoint: returns the
/// status code and body. Shared by `escli top`, the CI smoke step, and
/// the integration tests — all the "curl via `std::net::TcpStream`"
/// consumers.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{keys, MetricsRegistry};

    fn server_with_data() -> MetricsServer {
        let registry = Arc::new(MetricsRegistry::standard());
        registry.counter_add(keys::RUNS_TOTAL, 5);
        registry.set_label("campaign", "serve-test");
        MetricsServer::start("127.0.0.1:0", registry).expect("bind ephemeral port")
    }

    #[test]
    fn serves_prometheus_text_on_metrics() {
        let server = server_with_data();
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("# TYPE elastisched_runs_total counter"));
        assert!(body.contains("elastisched_runs_total 5"));
    }

    #[test]
    fn serves_json_status_with_uptime() {
        let server = server_with_data();
        let addr = server.addr().to_string();
        let (code, body) = http_get(&addr, "/status", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        let doc: StatusDoc = serde_json::from_str(&body).expect("valid status JSON");
        assert!(doc.uptime_secs >= 0.0);
        assert_eq!(doc.snapshot.counter("elastisched_runs_total"), Some(5));
        assert!(doc
            .snapshot
            .labels
            .iter()
            .any(|l| l.key == "campaign" && l.value == "serve-test"));
    }

    #[test]
    fn timeline_route_serves_published_doc_or_empty_object() {
        let registry = Arc::new(MetricsRegistry::standard());
        let server =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).expect("bind ephemeral");
        let addr = server.addr().to_string();

        // Before any publication the route answers with an empty object.
        let (code, body) = http_get(&addr, "/timeline", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{}");

        // A published doc is served verbatim; re-publication replaces it.
        registry.publish_doc("timeline", "{\"samples\":1}".to_string());
        registry.publish_doc("timeline", "{\"samples\":2}".to_string());
        let (code, body) = http_get(&addr, "/timeline", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{\"samples\":2}");
    }

    #[test]
    fn attribution_route_serves_published_doc_or_empty_object() {
        let registry = Arc::new(MetricsRegistry::standard());
        let server =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).expect("bind ephemeral");
        let addr = server.addr().to_string();

        let (code, body) = http_get(&addr, "/attribution", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{}");

        registry.publish_doc("attribution", "{\"jobs\":3}".to_string());
        let (code, body) = http_get(&addr, "/attribution", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{\"jobs\":3}");
    }

    #[test]
    fn unknown_route_is_404_and_server_survives() {
        let server = server_with_data();
        let addr = server.addr().to_string();
        let (code, _) = http_get(&addr, "/nope", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 404);
        // The endpoint still answers after a 404.
        let (code, _) = http_get(&addr, "/metrics", Duration::from_secs(2)).unwrap();
        assert_eq!(code, 200);
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let server = server_with_data();
        let addr = server.addr().to_string();
        drop(server); // joins the serving thread
                      // Connecting may briefly succeed while the OS drains the backlog,
                      // but a request must not be answered.
        if let Ok((code, _)) = http_get(&addr, "/metrics", Duration::from_millis(500)) {
            panic!("server answered after shutdown: {code}");
        }
    }
}
