//! The live ops plane: [`ObsServer`], a std-only HTTP/1.1 exporter over a
//! `TcpListener` and two accept threads (no async runtime, no
//! external dependencies — requests are parsed and responses written by
//! hand) serving the four read-only routes of a running [`Telemetry`]:
//!
//! | route          | payload                                            |
//! |----------------|----------------------------------------------------|
//! | `/metrics`     | Prometheus text, incl. per-worker labeled families |
//! | `/healthz`     | liveness + last-epoch staleness JSON               |
//! | `/trace.json`  | Chrome trace of recent spans (non-destructive)     |
//! | `/epochs.json` | the bounded [`EpochJournal`] time series           |
//!
//! Since PR 9 the server is route-agnostic: it owns the transport
//! (sockets, timeouts, request-head limits, the 405/400/431 mapping) and
//! dispatches every well-formed GET through a [`Router`]. The four
//! telemetry routes above are themselves registrations (see
//! [`telemetry_router`]), and [`ObsServer::bind_with_router`] mounts any
//! additional routes — e.g. the `ebv-serve` query plane — on the same
//! listener.
//!
//! [`EpochJournal`]: crate::EpochJournal

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::router::{Request, Response, Router};
use crate::trace::Telemetry;

/// Accept/handler threads of every [`ObsServer`]; each accepts and serves
/// one connection at a time.
const ACCEPT_THREADS: usize = 2;

/// Tuning knobs of an [`ObsServer`].
#[derive(Debug, Clone)]
pub struct ObsServerConfig {
    /// `/healthz` reports `503 stale` when the last journal record is
    /// older than this.
    pub staleness_threshold: Duration,
    /// Per-connection socket read/write timeout.
    pub read_timeout: Duration,
    /// Connections whose request head exceeds this many bytes get
    /// `431 Request Header Fields Too Large`.
    pub max_request_bytes: usize,
}

impl Default for ObsServerConfig {
    fn default() -> Self {
        ObsServerConfig {
            staleness_threshold: Duration::from_secs(60),
            read_timeout: Duration::from_secs(2),
            max_request_bytes: 8192,
        }
    }
}

/// A running observability server: a handle owning the accept threads.
///
/// Dropping the handle (or calling [`shutdown`](ObsServer::shutdown))
/// stops the listeners gracefully: the shutdown flag is raised, each
/// accept thread is woken with a loopback connection, and all threads are
/// joined — no detached threads outlive the handle.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    handles: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9808"`, port 0 for an ephemeral
    /// port) and starts serving `telemetry`'s four routes on two accept
    /// threads.
    ///
    /// Equivalent to [`bind_with_router`](ObsServer::bind_with_router) over
    /// [`telemetry_router`]; use that pair to mount additional routes on
    /// the same listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        telemetry: Arc<Telemetry>,
        config: ObsServerConfig,
    ) -> io::Result<ObsServer> {
        let router = telemetry_router(telemetry, &config);
        ObsServer::bind_with_router(addr, router, config)
    }

    /// Binds `addr` and serves whatever routes `router` registers.
    pub fn bind_with_router(
        addr: impl ToSocketAddrs,
        router: Router,
        config: ObsServerConfig,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let router = Arc::new(router);
        let mut handles = Vec::with_capacity(ACCEPT_THREADS);
        for worker in 0..ACCEPT_THREADS {
            let listener = listener.try_clone()?;
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            let requests = Arc::clone(&requests);
            let config = config.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ebv-obs-{worker}"))
                    .spawn(move || {
                        accept_loop(&listener, &router, &shutdown, &requests, &config);
                    })?,
            );
        }
        Ok(ObsServer {
            addr,
            shutdown,
            requests,
            handles,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests accepted so far (including malformed ones).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stops accepting, wakes the accept threads and joins them.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each accept thread is parked in `accept`; one loopback connection
        // per thread unblocks them all to observe the flag.
        for _ in 0..self.handles.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Registers the four telemetry routes on a fresh [`Router`]: `/metrics`,
/// `/healthz` (staleness threshold taken from `config`), `/trace.json` and
/// `/epochs.json`. The returned router is open — mount more routes on it,
/// then pass it to [`ObsServer::bind_with_router`].
pub fn telemetry_router(telemetry: Arc<Telemetry>, config: &ObsServerConfig) -> Router {
    let mut router = Router::new();
    let t = Arc::clone(&telemetry);
    router.route("/metrics", move |_req: &Request<'_>| {
        Response::ok("text/plain; version=0.0.4; charset=utf-8", t.prometheus())
    });
    let t = Arc::clone(&telemetry);
    let staleness_threshold = config.staleness_threshold;
    router.route("/healthz", move |_req: &Request<'_>| {
        let (status, body) = healthz(&t, staleness_threshold);
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            body,
            extra_headers: Vec::new(),
        }
    });
    let t = Arc::clone(&telemetry);
    router.route("/trace.json", move |_req: &Request<'_>| {
        Response::json(t.chrome_trace())
    });
    router.route("/epochs.json", move |_req: &Request<'_>| {
        Response::json(telemetry.journal().to_json())
    });
    router
}

fn accept_loop(
    listener: &TcpListener,
    router: &Router,
    shutdown: &AtomicBool,
    requests: &AtomicU64,
    config: &ObsServerConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        requests.fetch_add(1, Ordering::Relaxed);
        // A handler panic (it cannot: handle_connection is infallible by
        // construction) or I/O error must never take down the listener —
        // errors are per-connection and the loop continues.
        let _ = handle_connection(stream, router, config);
    }
}

/// Reads the request head (up to the blank line), routes it, and writes
/// exactly one response. Every malformed input maps to a clean 4xx.
fn handle_connection(
    mut stream: TcpStream,
    router: &Router,
    config: &ObsServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.read_timeout))?;
    let head = match read_request_head(&mut stream, config.max_request_bytes) {
        Ok(head) => head,
        Err(HeadError::TooLarge) => {
            respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                "text/plain; charset=utf-8",
                "request head too large\n",
                &[],
            )?;
            // The client may still be mid-send: closing now, with unread
            // bytes queued, would RST the connection and can destroy the
            // response in flight. Half-close and drain to EOF (bounded by
            // the read timeout) so the 431 is delivered.
            stream.shutdown(std::net::Shutdown::Write)?;
            let mut sink = [0u8; 1024];
            while let Ok(read) = stream.read(&mut sink) {
                if read == 0 {
                    break;
                }
            }
            return Ok(());
        }
        Err(HeadError::Closed) => return Ok(()), // shutdown wake / probe
        Err(HeadError::Truncated) => {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "truncated request\n",
                &[],
            );
        }
        Err(HeadError::Io(err)) => return Err(err),
    };

    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return respond(
            &mut stream,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
            &[],
        );
    };
    if !version.starts_with("HTTP/") {
        return respond(
            &mut stream,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
            &[],
        );
    }
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
            &["Allow: GET"],
        );
    }

    let request = Request::parse(method, target);
    let response = router.dispatch(&request);
    respond(
        &mut stream,
        response.status,
        response.content_type,
        &response.body,
        &response.extra_headers,
    )
}

/// Liveness JSON: `ok` while epochs keep landing (or none has yet),
/// `stale` (HTTP 503) once the newest journal record is older than the
/// configured threshold. When the process runs with a durable state plane
/// (`ebv-state` registers its metrics in the global
/// [`MetricsRegistry`](crate::MetricsRegistry)), a `durability` object
/// reports the checkpoint/WAL position; otherwise `durability` is `null`.
fn healthz(telemetry: &Telemetry, staleness_threshold: Duration) -> (&'static str, String) {
    let last_age = telemetry
        .journal()
        .last_at_seconds()
        .map(|at| (telemetry.elapsed_seconds() - at).max(0.0));
    let stale = last_age.is_some_and(|age| age > staleness_threshold.as_secs_f64());
    let status = if stale {
        "503 Service Unavailable"
    } else {
        "200 OK"
    };
    let body = format!(
        "{{\"status\": \"{}\", \"epochs_recorded\": {}, \"last_epoch_age_seconds\": {}, \
         \"staleness_threshold_seconds\": {:.3}, \"spans_dropped\": {}, \"durability\": {}}}\n",
        if stale { "stale" } else { "ok" },
        telemetry.journal().recorded_total(),
        match last_age {
            Some(age) => format!("{age:.3}"),
            None => "null".to_string(),
        },
        staleness_threshold.as_secs_f64(),
        telemetry.dropped(),
        durability_json(),
    );
    (status, body)
}

/// The `durability` section of `/healthz`, read from the global metrics
/// registry where the durable state plane publishes its position. `null`
/// until `ebv_checkpoint_epoch` has been registered (durability off).
fn durability_json() -> String {
    let snapshot = crate::MetricsRegistry::global().snapshot();
    let gauge = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    let Some(checkpoint_epoch) = gauge("ebv_checkpoint_epoch") else {
        return "null".to_string();
    };
    let wal_bytes = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "ebv_wal_bytes_total")
        .map(|&(_, v)| v)
        .unwrap_or(0);
    let replayed = gauge("ebv_recovery_replayed_epochs").unwrap_or(0.0);
    format!(
        "{{\"checkpoint_epoch\": {}, \"wal_bytes_total\": {}, \
         \"recovery_replayed_epochs\": {}}}",
        checkpoint_epoch as u64, wal_bytes, replayed as u64
    )
}

enum HeadError {
    /// Peer closed before sending any byte (e.g. the shutdown wake-up).
    Closed,
    /// Peer closed (or timed out) mid-head.
    Truncated,
    /// Head exceeded the configured byte cap.
    TooLarge,
    Io(io::Error),
}

/// Reads until the `\r\n\r\n` (or `\n\n`) head terminator, EOF, or the
/// byte cap.
fn read_request_head(stream: &mut TcpStream, max_bytes: usize) -> Result<String, HeadError> {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let read = match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    HeadError::Closed
                } else {
                    HeadError::Truncated
                });
            }
            Ok(read) => read,
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(HeadError::Truncated);
            }
            Err(err) => return Err(HeadError::Io(err)),
        };
        head.extend_from_slice(&chunk[..read]);
        if head.len() > max_bytes {
            return Err(HeadError::TooLarge);
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            return Ok(String::from_utf8_lossy(&head).into_owned());
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[&str],
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n",
        body.len(),
    );
    for header in extra_headers {
        response.push_str(header);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EpochMark;
    use crate::recorder::{Phase, Recorder, SpanCtx};
    use std::time::Instant;

    fn serve_test_telemetry() -> (ObsServer, Arc<Telemetry>) {
        let telemetry = Arc::new(Telemetry::isolated());
        // One compute span and one applied epoch so every route has data.
        let started = Instant::now().checked_sub(Duration::from_millis(5));
        telemetry.span(
            started,
            SpanCtx {
                epoch: 1,
                superstep: 0,
                worker: 2,
            },
            Phase::Compute,
        );
        telemetry.counter_add("ebv_bsp_messages_total", 7);
        telemetry.epoch_applied(&EpochMark {
            epoch: 1,
            live_edges: 10,
            ..EpochMark::default()
        });
        let server = ObsServer::bind(
            "127.0.0.1:0",
            Arc::clone(&telemetry),
            ObsServerConfig::default(),
        )
        .expect("bind an ephemeral port");
        (server, telemetry)
    }

    /// Sends raw bytes and returns the full response as a string.
    fn roundtrip(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        roundtrip(
            addr,
            format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
        )
    }

    #[test]
    fn all_four_routes_serve_wellformed_payloads() {
        let (server, _telemetry) = serve_test_telemetry();
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("# TYPE ebv_bsp_messages_total counter"));
        assert!(metrics.contains("ebv_worker_phase_seconds{worker=\"2\",phase=\"compute\"}"));

        let healthz = get(addr, "/healthz");
        assert!(healthz.starts_with("HTTP/1.1 200 OK"));
        assert!(healthz.contains("\"status\": \"ok\""));
        assert!(healthz.contains("\"epochs_recorded\": 1"));

        let epochs = get(addr, "/epochs.json");
        assert!(epochs.starts_with("HTTP/1.1 200 OK"));
        assert!(epochs.contains("\"epoch\": 1"));
        assert!(epochs.contains("\"phase_seconds\": {"));

        // The trace route is non-destructive: two scrapes agree.
        let first = get(addr, "/trace.json");
        let second = get(addr, "/trace.json");
        assert!(first.starts_with("HTTP/1.1 200 OK"));
        assert!(first.contains("\"traceEvents\":["));
        assert_eq!(
            first.lines().skip(1).collect::<Vec<_>>(),
            second.lines().skip(1).collect::<Vec<_>>(),
        );

        // Query strings are ignored for routing.
        assert!(get(addr, "/metrics?x=1").starts_with("HTTP/1.1 200 OK"));

        assert!(server.requests_served() >= 6);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_clean_errors_and_never_wedge_the_listener() {
        let (server, _telemetry) = serve_test_telemetry();
        let addr = server.local_addr();

        // Unknown path.
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        // Bad method.
        let post = roundtrip(addr, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"));
        assert!(post.contains("Allow: GET"));
        // Garbage request line.
        assert!(roundtrip(addr, b"garbage\r\n\r\n").starts_with("HTTP/1.1 400"));
        // Not HTTP at all.
        assert!(roundtrip(addr, b"GET /metrics SMTP\r\n\r\n").starts_with("HTTP/1.1 400"));
        // Truncated head: bytes sent, then the client half-closes.
        let mut truncated = TcpStream::connect(addr).expect("connect");
        truncated.write_all(b"GET /metrics HT").expect("send");
        truncated
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        truncated.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"));
        // Oversized head.
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(16 * 1024)
        );
        assert!(roundtrip(addr, huge.as_bytes()).starts_with("HTTP/1.1 431"));

        // After all of the above the listener still serves.
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
        server.shutdown();
    }

    #[test]
    fn default_404_body_is_unchanged_and_extra_routes_mount_on_one_listener() {
        let telemetry = Arc::new(Telemetry::isolated());
        let config = ObsServerConfig::default();
        // The telemetry router alone reproduces the PR 7 404 byte for byte.
        let server =
            ObsServer::bind("127.0.0.1:0", Arc::clone(&telemetry), config.clone()).expect("bind");
        let response = get(server.local_addr(), "/nope");
        assert!(response.starts_with("HTTP/1.1 404"));
        assert!(
            response.ends_with("unknown route; try /metrics /healthz /trace.json /epochs.json\n")
        );
        server.shutdown();

        // A custom route registered on top shares the listener with the
        // telemetry routes; the 404 listing grows to include it.
        let mut router = crate::serve::telemetry_router(telemetry, &config);
        router.route("/custom", |req: &crate::router::Request<'_>| {
            crate::router::Response::ok(
                "text/plain; charset=utf-8",
                format!("param={}\n", req.query_param("x").unwrap_or("none")),
            )
        });
        let server = ObsServer::bind_with_router("127.0.0.1:0", router, config).expect("bind");
        let addr = server.local_addr();
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200 OK"));
        let custom = get(addr, "/custom?x=7");
        assert!(custom.starts_with("HTTP/1.1 200 OK"));
        assert!(custom.ends_with("param=7\n"));
        assert!(get(addr, "/nope")
            .ends_with("unknown route; try /metrics /healthz /trace.json /epochs.json /custom\n"));
        server.shutdown();
    }

    #[test]
    fn a_full_span_ring_reports_its_evictions_in_healthz_and_the_journal() {
        let telemetry = Arc::new(Telemetry::with_capacity(crate::MetricsRegistry::new(), 4));
        for superstep in 0..7 {
            let ctx = SpanCtx {
                epoch: 1,
                superstep,
                worker: 0,
            };
            telemetry.span(telemetry.start(), ctx, Phase::Scatter);
        }
        telemetry.epoch_applied(&EpochMark {
            epoch: 1,
            ..EpochMark::default()
        });
        assert_eq!(telemetry.spans().len(), 4);
        assert_eq!(telemetry.dropped(), 3);
        let journaled = telemetry.journal().last().expect("one epoch recorded");
        assert_eq!(journaled.spans_dropped, 3);

        let server = ObsServer::bind(
            "127.0.0.1:0",
            Arc::clone(&telemetry),
            ObsServerConfig::default(),
        )
        .expect("bind");
        let addr = server.local_addr();
        assert!(get(addr, "/healthz").contains("\"spans_dropped\": 3,"));
        assert!(get(addr, "/epochs.json").contains("\"spans_dropped\": 3,"));
        server.shutdown();
    }

    #[test]
    fn healthz_reports_stale_epochs_with_503() {
        let telemetry = Arc::new(Telemetry::isolated());
        telemetry.epoch_applied(&EpochMark::default());
        let server = ObsServer::bind(
            "127.0.0.1:0",
            Arc::clone(&telemetry),
            ObsServerConfig {
                staleness_threshold: Duration::from_millis(1),
                ..ObsServerConfig::default()
            },
        )
        .expect("bind");
        std::thread::sleep(Duration::from_millis(10));
        let healthz = get(server.local_addr(), "/healthz");
        assert!(healthz.starts_with("HTTP/1.1 503"));
        assert!(healthz.contains("\"status\": \"stale\""));
        server.shutdown();

        // With no epochs recorded there is nothing to be stale against.
        let idle = Arc::new(Telemetry::isolated());
        let server = ObsServer::bind(
            "127.0.0.1:0",
            idle,
            ObsServerConfig {
                staleness_threshold: Duration::from_millis(1),
                ..ObsServerConfig::default()
            },
        )
        .expect("bind");
        let healthz = get(server.local_addr(), "/healthz");
        assert!(healthz.starts_with("HTTP/1.1 200 OK"));
        assert!(healthz.contains("\"last_epoch_age_seconds\": null"));
        server.shutdown();
    }

    #[test]
    fn healthz_reports_the_durable_state_plane_once_registered() {
        let telemetry = Arc::new(Telemetry::isolated());
        let server =
            ObsServer::bind("127.0.0.1:0", telemetry, ObsServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        // No durable state plane in this process yet: explicit null.
        assert!(get(addr, "/healthz").contains("\"durability\": null"));

        // The moment a store registers its metrics (this test is the only
        // one in the crate touching these names), the section goes live.
        crate::MetricsRegistry::global()
            .gauge("ebv_checkpoint_epoch")
            .set(24.0);
        crate::MetricsRegistry::global()
            .gauge("ebv_recovery_replayed_epochs")
            .set(3.0);
        crate::MetricsRegistry::global()
            .counter("ebv_wal_bytes_total")
            .add(4096);
        let healthz = get(addr, "/healthz");
        assert!(healthz.contains(
            "\"durability\": {\"checkpoint_epoch\": 24, \"wal_bytes_total\": 4096, \
             \"recovery_replayed_epochs\": 3}"
        ));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads_and_frees_the_port() {
        let telemetry = Arc::new(Telemetry::isolated());
        let server =
            ObsServer::bind("127.0.0.1:0", telemetry, ObsServerConfig::default()).expect("bind");
        let addr = server.local_addr();
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        server.shutdown();
        // The port is released: rebinding the exact address succeeds.
        let rebound = TcpListener::bind(addr).expect("rebind after shutdown");
        drop(rebound);
    }
}
