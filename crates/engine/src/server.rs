//! Hardened network query frontend.
//!
//! [`QueryServer`] puts a thread-per-connection TCP/HTTP listener in
//! front of a [`QueryService`], built so that *hostile clients are
//! survived by construction* rather than by luck:
//!
//! * **Connection hygiene.** Every connection gets a bounded request
//!   head ([`ServerConfig::max_header_bytes`], answered `431` when
//!   exceeded), a bounded body ([`ServerConfig::max_body_bytes`] →
//!   `413`), a whole-head deadline that defeats byte-dribbling
//!   slow-loris clients (each read's socket timeout is the *remaining*
//!   deadline), body-read and response-write timeouts, and a hard cap
//!   on concurrent connections (extras are refused inline with `503`).
//!   One request per connection (`Connection: close`): no parser state
//!   survives a hostile peer.
//! * **Sessions and per-tenant quotas.** The `X-Tenant` header resolves
//!   to [`TenantQuotas`](crate::session::TenantQuotas) through a
//!   [`SessionManager`]; rate, concurrency, and reservation-share gates
//!   run *before* service admission and refuse with the stable
//!   `XQRG0009` code and a `Retry-After` hint. Permits are RAII — a
//!   client that disconnects mid-query cannot leak quota.
//! * **Structured error mapping.** Service errors map to HTTP statuses
//!   with the stable `XQR*` code in a JSON body: `XQRG0007` shed →
//!   `429` + `Retry-After`, `XQRG0008` breaker → `503`, governor trips
//!   → `408`/`413`, syntax/dynamic → `400`, faults → `500`. A client
//!   never sees a raw panic or a hung socket.
//! * **Stuck-query watchdog.** A background thread samples
//!   [`QueryService::inflight`] once per period (a condvar wait that
//!   [`QueryServer::stop`] cuts short) and escalates queries running past
//!   their deadline whose governor liveness counter
//!   ([`xqr_xml::CancellationToken::progress`]) has stopped advancing —
//!   cancellation via the query's own token, an escalation counter per
//!   plan shape (served at `/server.json`), and a breaker failure
//!   record, so a plan shape that repeatedly wedges starts fast-failing.
//! * **Graceful drain.** [`QueryServer::stop`] stops accepting (waking the
//!   blocked `accept()` with a connection to the listener's own address),
//!   lets in-flight connections finish under
//!   [`ServerConfig::drain_deadline`], then drains the service itself
//!   ([`QueryService::drain`]): queued queries shed with `XQRG0007`
//!   (`shutdown` reason), survivors are cancelled through their tokens.
//!
//! Chaos hooks: the `server::accept`, `server::read`, and
//! `server::write` failpoints inject connection-path faults, and
//! `watchdog::escalate` suppresses (and counts) escalations, so the
//! stress suite can prove the listener survives every failure mode.
//!
//! ## Protocol
//!
//! `POST /query` with the XQuery text as the body. Optional headers:
//! `X-Tenant` (default `"default"`), `X-Deadline-Ms`, `X-Max-Tuples`,
//! `X-Max-Bytes` (per-request [`Limits`] overrides, tightening whatever
//! the tenant's defaults say). Success is `200` with the serialized XML
//! and an `X-Query-Id` header; errors are JSON
//! `{"code":"XQRG0007","message":"..."}`. `GET` serves `/healthz`,
//! `/readyz` (ready = accepting ∧ queue below the shed threshold),
//! `/metrics`, `/metrics.json`, `/observe.json`, and `/server.json`
//! (frontend gauges: connections, escalations by shape).
//!
//! [`Acceptor`] is the crate's one accept loop (the scrape listener runs
//! on it too): it blocks in `accept()`, so nothing waits on a poll.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xqr_xml::failpoint;
use xqr_xml::limits::{
    ERR_BREAKER, ERR_BYTES, ERR_CANCELLED, ERR_DEADLINE, ERR_OVERLOADED, ERR_RECURSION,
    ERR_SPILL_BUDGET, ERR_SPILL_IO, ERR_TENANT, ERR_TUPLES,
};
use xqr_xml::metrics::{json_escape, metrics};
use xqr_xml::Limits;

use crate::observe::{http_response, read_head};
use crate::service::{DrainReport, QueryRequest, QueryService};
use crate::session::{SessionConfig, SessionManager};
use crate::{CompileOptions, EngineError};

/// Stuck-query watchdog tuning.
#[derive(Clone, Debug)]
pub struct WatchdogConfig {
    /// Disable to run the frontend without the watchdog thread.
    pub enabled: bool,
    /// Interval between [`QueryService::inflight`] snapshots.
    pub period: Duration,
    /// Slack past the deadline, and the minimum observed progress-stall
    /// span, before a query is declared stuck: escalation fires only
    /// when the query is `grace` past its deadline *and* its liveness
    /// counter has not moved for at least `grace`.
    pub grace: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            period: Duration::from_millis(100),
            grace: Duration::from_millis(250),
        }
    }
}

/// Tuning for a [`QueryServer`]. The defaults are deliberately tight:
/// a scrape-sized head, a 1 MiB query body, single-digit-second
/// deadlines everywhere.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Request line + headers ceiling; `431` beyond it.
    pub max_header_bytes: usize,
    /// Query body ceiling; `413` beyond it.
    pub max_body_bytes: usize,
    /// Whole-head receive deadline (slow-loris kill).
    pub header_deadline: Duration,
    /// Whole-body receive deadline.
    pub read_timeout: Duration,
    /// Response write timeout (stalled-reader kill).
    pub write_timeout: Duration,
    /// Concurrent connections served; extras get an inline `503`.
    pub max_connections: usize,
    /// Default budget for [`QueryServer::stop`]'s two drain stages
    /// (connections, then in-flight queries).
    pub drain_deadline: Duration,
    pub watchdog: WatchdogConfig,
    /// Tenant quota table for the session layer.
    pub sessions: SessionConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_header_bytes: 8192,
            max_body_bytes: 1 << 20,
            header_deadline: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_connections: 64,
            drain_deadline: Duration::from_secs(5),
            watchdog: WatchdogConfig::default(),
            sessions: SessionConfig::default(),
        }
    }
}

/// Outcome of [`QueryServer::stop`].
#[derive(Clone, Copy, Debug)]
pub struct ServerDrainReport {
    /// Connections still open when the drain started.
    pub conns_at_drain: usize,
    /// True when every connection finished inside the drain deadline.
    pub conns_drained_in_time: bool,
    /// The service-side drain (queued sheds, cancelled survivors).
    pub service: DrainReport,
}

struct ServerShared {
    svc: Arc<QueryService>,
    cfg: ServerConfig,
    sessions: SessionManager,
    /// Stops the accept loop and wakes the watchdog.
    stop: Arc<Signal<bool>>,
    /// False once a drain begins; feeds `/readyz` and `/server.json`.
    accepting: AtomicBool,
    /// Open connections; the drain waits for zero.
    conns: Arc<Signal<usize>>,
    /// Watchdog escalations per plan shape (shape key → count).
    escalations: Mutex<HashMap<u64, u64>>,
}

/// The network frontend; see the module docs. Construct with
/// [`QueryServer::start`], tear down with [`QueryServer::stop`] (a
/// plain drop stops the listener and watchdog without draining the
/// service — the service may have other frontends).
pub struct QueryServer {
    shared: Arc<ServerShared>,
    acceptor: Acceptor,
    watchdog_handle: Option<JoinHandle<()>>,
}

impl QueryServer {
    /// Binds `addr` (use port 0 to pick a free port; [`Self::addr`] has
    /// the result) and starts the accept loop and the watchdog.
    pub fn start(
        svc: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(addr)?;
        let sessions = SessionManager::new(cfg.sessions.clone());
        let shared = Arc::new(ServerShared {
            svc,
            cfg,
            sessions,
            stop: Arc::default(),
            accepting: AtomicBool::new(true),
            conns: Arc::default(),
            escalations: Mutex::new(HashMap::new()),
        });
        let conn_shared = Arc::clone(&shared);
        let acceptor = Acceptor::spawn(
            listener,
            "xqr-server",
            shared.cfg.max_connections,
            Arc::clone(&shared.conns),
            Arc::clone(&shared.stop),
            |stream| {
                metrics().record_server_connection();
                metrics().record_server_conn_kill();
                refuse_busy(
                    stream,
                    &http_response(
                        503,
                        "application/json",
                        &error_body(ERR_OVERLOADED, "connection limit reached"),
                        &[("Retry-After", "1".to_string())],
                    ),
                );
            },
            move |stream| {
                metrics().record_server_connection();
                // Injected accept-path fault: the connection is dropped
                // on the floor, exactly like an accept-time I/O error.
                if failpoint::check("server::accept").is_err() {
                    metrics().record_server_conn_kill();
                    return;
                }
                let _ = handle_conn(stream, &conn_shared);
            },
        )?;
        let watchdog_handle = shared.cfg.watchdog.enabled.then(|| {
            let watchdog_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xqr-server-watchdog".to_string())
                .spawn(move || watchdog_loop(&watchdog_shared))
                .expect("spawn server watchdog thread")
        });
        Ok(QueryServer {
            shared,
            acceptor,
            watchdog_handle,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Connections currently being served (diagnostics / tests).
    pub fn active_connections(&self) -> usize {
        self.shared.conns.get()
    }

    /// Total watchdog escalations and the per-shape breakdown.
    pub fn escalations(&self) -> (u64, HashMap<u64, u64>) {
        let by_shape = self
            .shared
            .escalations
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        (by_shape.values().sum(), by_shape)
    }

    /// Graceful drain: stop accepting, wait for open connections under
    /// `deadline` (defaulting to [`ServerConfig::drain_deadline`] when
    /// `None`), then drain the service — shed the queue with the
    /// `shutdown` reason and cancel in-flight survivors. Idempotent;
    /// safe to call from a signal-triggered path.
    pub fn stop(&mut self, deadline: Option<Duration>) -> ServerDrainReport {
        let deadline = deadline.unwrap_or(self.shared.cfg.drain_deadline);
        self.shutdown_threads();
        let conns_at_drain = self.shared.conns.get();
        let t0 = Instant::now();
        let conns_drained_in_time = self.shared.conns.wait_while(deadline, |n| *n > 0) == 0;
        // Service drain second: connections that finished naturally got
        // their replies; whatever is left (stalled peers, wedged
        // queries) now gets shed/cancelled so their threads unwind.
        let service = self.shared.svc.drain(
            deadline
                .saturating_sub(t0.elapsed())
                .max(Duration::from_millis(1)),
        );
        ServerDrainReport {
            conns_at_drain,
            conns_drained_in_time,
            service,
        }
    }

    /// Stops the accept loop and the watchdog (both wake on the shared
    /// stop signal) and joins them.
    fn shutdown_threads(&mut self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.acceptor.shutdown();
        if let Some(h) = self.watchdog_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for QueryServer {
    /// Stops the accept loop and the watchdog *without* draining the
    /// service (other frontends may share it); use [`Self::stop`] for
    /// the full drain.
    fn drop(&mut self) {
        self.shutdown_threads();
    }
}

// ===== accept loop =========================================================

/// A value whose every change is signalled on a condvar, so a thread can
/// block until it reaches a state instead of polling for it. A stop flag
/// is a `Signal<bool>`; an open-connection count is a `Signal<usize>`.
#[derive(Default)]
pub(crate) struct Signal<T> {
    value: Mutex<T>,
    changed: Condvar,
}

impl<T: Copy> Signal<T> {
    fn get(&self) -> T {
        *self.value.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Applies `f` to the value and wakes every waiter.
    fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let out = f(&mut self.value.lock().unwrap_or_else(|p| p.into_inner()));
        self.changed.notify_all();
        out
    }

    /// Blocks while `pending` holds, for at most `timeout`; returns the
    /// value last seen.
    fn wait_while(&self, timeout: Duration, pending: impl FnMut(&mut T) -> bool) -> T {
        let value = self.value.lock().unwrap_or_else(|p| p.into_inner());
        let (value, _) = self
            .changed
            .wait_timeout_while(value, timeout, pending)
            .unwrap_or_else(|p| p.into_inner());
        *value
    }
}

/// Handle to a running accept loop; see the module docs. Dropping it
/// stops the loop.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<Signal<bool>>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Runs the accept loop for `listener` on a thread named
    /// `{name}-accept`. While fewer than `max_conns` connections are open
    /// (counted in `conns`), each accepted connection runs `serve` on its
    /// own `{name}-conn` thread; past the cap, `refuse` answers it on the
    /// accept thread and must not block.
    pub(crate) fn spawn(
        listener: TcpListener,
        name: &str,
        max_conns: usize,
        conns: Arc<Signal<usize>>,
        stop: Arc<Signal<bool>>,
        refuse: impl Fn(TcpStream) + Send + 'static,
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let loop_stop = Arc::clone(&stop);
        let conn_name = format!("{name}-conn");
        let serve = Arc::new(serve);
        let handle = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || loop {
                let accepted = listener.accept();
                // The wake connection from `shutdown` (and any peer that
                // raced it) is dropped here, before it is counted.
                if loop_stop.get() {
                    return;
                }
                let stream = match accepted {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    // Descriptor exhaustion, aborted handshakes: pause
                    // briefly (a stop cuts the pause short), then retry.
                    Err(_) if loop_stop.wait_while(Duration::from_millis(5), |s| !*s) => return,
                    Err(_) => continue,
                };
                let admitted = conns.update(|n| {
                    let room = *n < max_conns;
                    *n += usize::from(room);
                    room
                });
                if !admitted {
                    refuse(stream);
                    continue;
                }
                let (serve, conn_conns) = (Arc::clone(&serve), Arc::clone(&conns));
                let spawned =
                    std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || {
                            serve(stream);
                            conn_conns.update(|n| *n -= 1);
                        });
                if spawned.is_err() {
                    conns.update(|n| *n -= 1);
                }
            })?;
        Ok(Acceptor {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the stop signal, wakes the blocked `accept()` by connecting
    /// to the listener, and joins the loop. Idempotent. Should the wake
    /// connection fail, the loop thread is left parked in `accept()`
    /// rather than hanging the caller in `join`.
    pub(crate) fn shutdown(&mut self) {
        self.stop.update(|stop| *stop = true);
        let Some(handle) = self.handle.take() else {
            return;
        };
        if TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1)).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The address a stopping loop connects to: the listener's own, with an
/// unspecified bind address (`0.0.0.0`, `::`) mapped to the loopback of
/// the same family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Writes an over-the-cap refusal under a short write timeout, so a
/// hostile peer cannot stall the accept thread.
pub(crate) fn refuse_busy(mut stream: TcpStream, response: &str) {
    let timeout = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = timeout.and_then(|()| stream.write_all(response.as_bytes()));
}

/// Maps one engine error to `(status, retry_after_seconds)`. The stable
/// code itself rides in the JSON body; `Retry-After` goes out only for
/// refusals where backing off helps.
fn map_engine_error(e: &EngineError) -> (u16, Option<u64>) {
    match e.code() {
        Some(ERR_OVERLOADED) => (429, Some(1)),
        Some(ERR_TENANT) => (429, Some(1)),
        Some(ERR_BREAKER) => (503, Some(10)),
        Some(ERR_DEADLINE) | Some(ERR_CANCELLED) => (408, None),
        Some(ERR_TUPLES)
        | Some(ERR_BYTES)
        | Some(ERR_SPILL_IO)
        | Some(ERR_SPILL_BUDGET)
        | Some(ERR_RECURSION) => (413, None),
        Some(_) => (400, None),
        None => match e {
            EngineError::Syntax(_) => (400, None),
            _ => (500, None),
        },
    }
}

fn error_body(code: &str, message: &str) -> String {
    format!(
        "{{\"code\":\"{}\",\"message\":\"{}\"}}\n",
        json_escape(code),
        json_escape(message)
    )
}

/// A JSON error response with no extra headers.
fn json_error(status: u16, code: &str, message: &str) -> String {
    http_response(status, "application/json", &error_body(code, message), &[])
}

/// Counts a killed connection and sends its last words, best effort.
fn kill_conn(stream: &mut TcpStream, reply: &str) {
    metrics().record_server_conn_kill();
    let _ = stream.write_all(reply.as_bytes());
}

fn engine_error_response(e: &EngineError) -> String {
    let (status, retry_after) = map_engine_error(e);
    let code = e.code().unwrap_or(match e {
        EngineError::Syntax(_) => "syntax",
        EngineError::Internal { .. } => "internal",
        _ => "error",
    });
    let extra: Vec<(&str, String)> = retry_after
        .map(|s| ("Retry-After", s.to_string()))
        .into_iter()
        .collect();
    http_response(
        status,
        "application/json",
        &error_body(code, &e.to_string()),
        &extra,
    )
}

/// Parsed request head: method, path, lowercase header map, and any
/// body bytes that arrived in the same packets as the head.
struct RequestHead {
    method: String,
    path: String,
    headers: HashMap<String, String>,
    body_prefix: Vec<u8>,
}

fn parse_head(buf: Vec<u8>) -> Option<RequestHead> {
    let split = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..split]).into_owned();
    let body_prefix = buf[split + 4..].to_vec();
    let mut lines = head.lines();
    let mut first = lines.next()?.split_whitespace();
    let method = first.next()?.to_string();
    let path = first.next()?.to_string();
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    Some(RequestHead {
        method,
        path,
        headers,
        body_prefix,
    })
}

/// Reads the remaining `len - prefix` body bytes under a whole-body
/// deadline (same remaining-budget trick as the head read).
fn read_body(
    stream: &mut TcpStream,
    mut body: Vec<u8>,
    len: usize,
    deadline: Duration,
) -> std::io::Result<Vec<u8>> {
    let t0 = Instant::now();
    let mut chunk = [0u8; 4096];
    while body.len() < len {
        let remaining = deadline.saturating_sub(t0.elapsed());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request body not completed within the deadline",
            ));
        }
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let want = (len - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-body",
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    body.truncate(len);
    Ok(body)
}

fn server_json(shared: &ServerShared) -> String {
    let by_shape = shared
        .escalations
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let total: u64 = by_shape.values().sum();
    let mut shapes: Vec<_> = by_shape.into_iter().collect();
    shapes.sort_unstable();
    let shapes_json = shapes
        .iter()
        .map(|(shape, n)| format!("\"{shape:016x}\":{n}"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"accepting\":{},\"active_connections\":{},\"watchdog_escalations\":{total},\
         \"escalations_by_shape\":{{{shapes_json}}}}}\n",
        shared.accepting.load(Ordering::SeqCst),
        shared.conns.get(),
    )
}

/// Serves one connection: one bounded request, one response, close.
/// Every early return is a mapped status; I/O errors (including the
/// `server::read`/`server::write` injected ones) count as connection
/// kills and close the socket without poisoning anything else.
fn handle_conn(mut stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    stream.set_write_timeout(Some(shared.cfg.write_timeout))?;
    if failpoint::check("server::read").is_err() {
        let reply = json_error(500, xqr_xml::failpoint::ERR_INJECTED, "injected read fault");
        kill_conn(&mut stream, &reply);
        return Ok(());
    }
    let buf = match read_head(
        &mut stream,
        shared.cfg.max_header_bytes,
        shared.cfg.header_deadline,
    ) {
        Ok(Some(buf)) => buf,
        Ok(None) => return Ok(()), // clean early close
        Err(e) => {
            let reply = match e.kind() {
                std::io::ErrorKind::InvalidData => {
                    json_error(431, "http", "request head exceeds the configured bound")
                }
                std::io::ErrorKind::TimedOut => {
                    json_error(408, "http", "request head not received in time")
                }
                // Torn reads, resets: nothing to say to a gone peer.
                _ => String::new(),
            };
            kill_conn(&mut stream, &reply);
            return Ok(());
        }
    };
    let Some(head) = parse_head(buf) else {
        kill_conn(
            &mut stream,
            &json_error(400, "http", "malformed request line"),
        );
        return Ok(());
    };
    metrics().record_server_request();
    let response = match (head.method.as_str(), head.path.as_str()) {
        ("POST", "/query") => handle_query(&mut stream, shared, &head)?,
        ("GET", "/server.json") => {
            http_response(200, "application/json", &server_json(shared), &[])
        }
        ("GET", "/readyz") => {
            // Readiness folds in the frontend's own accept state: a
            // draining server is not ready even while the service is.
            if shared.accepting.load(Ordering::SeqCst) && shared.svc.ready() {
                http_response(200, "text/plain; charset=utf-8", "ready\n", &[])
            } else {
                http_response(503, "text/plain; charset=utf-8", "not ready\n", &[])
            }
        }
        ("GET", path) => match shared.svc.route(path) {
            Some((status, ctype, body)) => http_response(status, ctype, &body, &[]),
            None => json_error(404, "http", "not found"),
        },
        _ => json_error(405, "http", "method not allowed"),
    };
    if failpoint::check("server::write").is_err() {
        // Injected write fault: the peer sees a dropped connection, the
        // server sees one more killed connection — and nothing else.
        metrics().record_server_conn_kill();
        return Ok(());
    }
    if stream.write_all(response.as_bytes()).is_err() {
        // Stalled or vanished reader; the write timeout already bounded
        // how long this connection could hold its thread.
        metrics().record_server_conn_kill();
        return Ok(());
    }
    let _ = stream.flush();
    Ok(())
}

/// The `POST /query` path: body receive → tenant resolution → session
/// permit → per-request limit overrides → service submit → reply.
/// Returns the rendered response (the caller owns the write so the
/// `server::write` failpoint covers every response uniformly).
fn handle_query(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    head: &RequestHead,
) -> std::io::Result<String> {
    let err400 = |msg: &str| json_error(400, "http", msg);
    let Some(len) = head
        .headers
        .get("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    else {
        return Ok(err400("missing or malformed Content-Length"));
    };
    if len > shared.cfg.max_body_bytes {
        let bound = shared.cfg.max_body_bytes;
        let msg = format!("body of {len} bytes exceeds the {bound}-byte bound");
        return Ok(json_error(413, "http", &msg));
    }
    let body = match read_body(
        stream,
        head.body_prefix.clone(),
        len,
        shared.cfg.read_timeout,
    ) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
            metrics().record_server_conn_kill();
            return Ok(json_error(408, "http", "request body not received in time"));
        }
        Err(_) => {
            // Torn frame: peer closed mid-body. Nobody to reply to.
            metrics().record_server_conn_kill();
            return Ok(String::new());
        }
    };
    let Ok(query) = String::from_utf8(body) else {
        return Ok(err400("query body is not valid UTF-8"));
    };

    let tenant = head
        .headers
        .get("x-tenant")
        .map(String::as_str)
        .unwrap_or("default");
    // Per-request limit overrides tighten the tenant defaults.
    let mut limits = shared.sessions.limits_for(tenant);
    let mut override_limit =
        |value: Option<&String>, apply: &mut dyn FnMut(&mut Limits, u64)| -> Result<(), String> {
            if let Some(raw) = value {
                let n: u64 = raw
                    .parse()
                    .map_err(|_| format!("malformed numeric header value {raw:?}"))?;
                apply(limits.get_or_insert_with(Limits::default), n);
            }
            Ok(())
        };
    let parsed = override_limit(head.headers.get("x-deadline-ms"), &mut |l, n| {
        l.deadline = Some(Duration::from_millis(n));
    })
    .and(override_limit(
        head.headers.get("x-max-tuples"),
        &mut |l, n| l.max_tuples = Some(n),
    ))
    .and(override_limit(
        head.headers.get("x-max-bytes"),
        &mut |l, n| l.max_bytes = Some(n),
    ));
    if let Err(msg) = parsed {
        return Ok(err400(&msg));
    }

    let reservation = shared.svc.effective_reservation(limits.as_ref());
    let _permit = match shared.sessions.admit(tenant, reservation) {
        Ok(p) => p,
        Err(e) => {
            return Ok(http_response(
                429,
                "application/json",
                &error_body(e.code(), &e.to_string()),
                &[(
                    "Retry-After",
                    e.retry_after_ms().div_ceil(1000).max(1).to_string(),
                )],
            ))
        }
    };

    let options = CompileOptions {
        limits,
        ..CompileOptions::default()
    };
    let req = QueryRequest { query, options };
    let outcome = shared.svc.submit(req).and_then(|t| t.wait());
    Ok(match outcome {
        Ok(out) => http_response(
            200,
            "application/xml; charset=utf-8",
            &out.xml,
            &[
                ("X-Query-Id", out.id.to_string()),
                ("X-Rows", out.rows.to_string()),
            ],
        ),
        Err(e) => engine_error_response(&e),
    })
}

/// The stuck-query watchdog: samples in-flight snapshots once per period
/// and escalates queries past their deadline whose liveness counter has
/// stopped. The period is a wait on the stop signal, so a stopping
/// server never waits it out. An armed `watchdog::escalate` failpoint
/// suppresses the escalation for that round (and counts a trip), so
/// chaos runs can prove both the detection and the suppression paths.
fn watchdog_loop(shared: &Arc<ServerShared>) {
    // id → (last seen progress counter, when it last changed)
    let mut seen: HashMap<u64, (u64, Instant)> = HashMap::new();
    let mut escalated: HashSet<u64> = HashSet::new();
    while !shared
        .stop
        .wait_while(shared.cfg.watchdog.period, |stop| !*stop)
    {
        let snapshot = shared.svc.inflight();
        let now = Instant::now();
        let live: HashSet<u64> = snapshot.iter().map(|q| q.id).collect();
        seen.retain(|id, _| live.contains(id));
        escalated.retain(|id| live.contains(id));
        for q in snapshot {
            let entry = seen.entry(q.id).or_insert((q.progress, now));
            if q.progress != entry.0 {
                *entry = (q.progress, now);
                continue;
            }
            let Some(deadline) = q.deadline else {
                continue; // no deadline → nothing to run past
            };
            let grace = shared.cfg.watchdog.grace;
            if q.running_for <= deadline + grace
                || now.duration_since(entry.1) <= grace
                || escalated.contains(&q.id)
            {
                continue;
            }
            if failpoint::check("watchdog::escalate").is_err() {
                continue;
            }
            escalated.insert(q.id);
            q.token.cancel();
            metrics().record_watchdog_escalation();
            // A wedged shape is an engine fault as far as the breaker is
            // concerned: repeat offenders start fast-failing.
            shared.svc.breakers().record(q.shape, true);
            *shared
                .escalations
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .entry(q.shape)
                .or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::session::TenantQuotas;

    fn serve(cfg: ServerConfig) -> (Arc<QueryService>, QueryServer) {
        let svc = Arc::new(QueryService::new(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        }));
        let server = QueryServer::start(Arc::clone(&svc), "127.0.0.1:0", cfg).unwrap();
        (svc, server)
    }

    /// Minimal raw HTTP client: one request, reads to EOF, returns
    /// `(status, headers, body)`.
    fn roundtrip(addr: SocketAddr, request: &str) -> (u16, HashMap<String, String>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(request.as_bytes());
        let mut raw = Vec::new();
        // A server that closes with unread client bytes (header floods)
        // may RST; whatever arrived before that is the response.
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw).into_owned();
        let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        (status, headers, body.to_string())
    }

    fn post_query(addr: SocketAddr, query: &str, extra_headers: &str) -> (u16, String) {
        let req = format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n{extra_headers}\r\n{query}",
            query.len()
        );
        let (status, _, body) = roundtrip(addr, &req);
        (status, body)
    }

    #[test]
    fn query_roundtrip_over_tcp() {
        let (_svc, server) = serve(ServerConfig::default());
        let addr = server.addr();
        let req = "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\n1 + 1";
        let (status, headers, body) = roundtrip(addr, req);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "2");
        assert!(headers.contains_key("x-query-id"));
        assert_eq!(headers.get("x-rows").map(String::as_str), Some("1"));
    }

    #[test]
    fn health_metrics_and_404_routes() {
        let (_svc, server) = serve(ServerConfig::default());
        let addr = server.addr();
        let get = |path: &str| roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert_eq!(get("/healthz").0, 200);
        assert_eq!(get("/readyz").0, 200);
        assert_eq!(get("/metrics").0, 200);
        assert!(get("/metrics").2.contains("xqr_server_connections"));
        assert_eq!(get("/server.json").0, 200);
        assert!(get("/server.json").2.contains("\"accepting\":true"));
        assert_eq!(get("/no-such").0, 404);
        // Non-POST on /query and bad methods are mapped, not dropped.
        assert_eq!(get("/query").0, 404);
        let (status, _, _) = roundtrip(addr, "PUT /query HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405);
    }

    #[test]
    fn errors_map_to_statuses_with_stable_codes() {
        let (_svc, server) = serve(ServerConfig::default());
        let addr = server.addr();
        // Syntax error → 400 (no stable code; the parser's own).
        let (status, body) = post_query(addr, "for $x in", "");
        assert_eq!(status, 400, "{body}");
        // Governor budget trip → 413 with the stable code in the body.
        let (status, body) = post_query(
            addr,
            "for $x in 1 to 100000 where $x > 2 return $x",
            "X-Max-Tuples: 10\r\n",
        );
        assert_eq!(status, 413, "{body}");
        assert!(body.contains(ERR_TUPLES), "{body}");
        // Malformed numeric header → 400 before any admission work.
        let (status, _) = post_query(addr, "1", "X-Deadline-Ms: soon\r\n");
        assert_eq!(status, 400);
        // Missing Content-Length → 400.
        let (status, _, _) = roundtrip(addr, "POST /query HTTP/1.1\r\nHost: x\r\n\r\n1");
        assert_eq!(status, 400);
    }

    #[test]
    fn tenant_rate_quota_maps_to_429_with_retry_after() {
        let cfg = ServerConfig {
            sessions: SessionConfig::default()
                .with_tenant("burst", TenantQuotas::default().with_rate(1, 1)),
            ..ServerConfig::default()
        };
        let (_svc, server) = serve(cfg);
        let addr = server.addr();
        let (status, body) = post_query(addr, "1", "X-Tenant: burst\r\n");
        assert_eq!(status, 200, "{body}");
        let req =
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nX-Tenant: burst\r\n\r\n1";
        let (status, headers, body) = roundtrip(addr, req);
        assert_eq!(status, 429, "{body}");
        assert!(body.contains(ERR_TENANT), "{body}");
        assert!(headers.contains_key("retry-after"));
        // Other tenants are unaffected.
        let (status, _) = post_query(addr, "1", "X-Tenant: other\r\n");
        assert_eq!(status, 200);
    }

    #[test]
    fn oversized_body_and_head_are_refused() {
        let cfg = ServerConfig {
            max_body_bytes: 64,
            max_header_bytes: 512,
            ..ServerConfig::default()
        };
        let (_svc, server) = serve(cfg);
        let addr = server.addr();
        // Declared oversized body → 413 without reading it.
        let (status, _, body) = roundtrip(
            addr,
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n",
        );
        assert_eq!(status, 413, "{body}");
        // Header flood → 431.
        let flood = format!(
            "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Flood: {}\r\n\r\n",
            "a".repeat(2048)
        );
        let (status, _, _) = roundtrip(addr, &flood);
        // Either the 431 landed, or the kernel RST the tail of the
        // flood before the client could read it; both are refusals.
        assert!(status == 431 || status == 0, "status={status}");
        // Whatever happened, the listener survived.
        let (status, _, _) = roundtrip(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
    }

    #[test]
    fn stop_drains_and_reports() {
        let (svc, mut server) = serve(ServerConfig::default());
        let addr = server.addr();
        let (status, _) = post_query(addr, "1", "");
        assert_eq!(status, 200);
        let report = server.stop(Some(Duration::from_secs(2)));
        assert!(report.conns_drained_in_time);
        assert_eq!(report.service.cancelled, 0);
        assert!(report.service.completed_in_time);
        // The listener is gone and the service sheds with shutdown.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Some platforms accept then reset; either way no service.
                true
            }
        );
        assert!(svc.submit(QueryRequest::new("1")).is_err());
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap());
        assert_eq!(wake("0.0.0.0:80"), "127.0.0.1:80".parse().unwrap());
        assert_eq!(wake("[::]:80"), "[::1]:80".parse().unwrap());
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80".parse().unwrap());
    }

    #[test]
    fn watchdog_ignores_live_queries() {
        let cfg = ServerConfig {
            watchdog: WatchdogConfig {
                enabled: true,
                period: Duration::from_millis(5),
                grace: Duration::from_millis(50),
            },
            ..ServerConfig::default()
        };
        let (_svc, server) = serve(cfg);
        let addr = server.addr();
        // A query that runs well under its deadline is never escalated.
        let (status, body) = post_query(addr, "sum(1 to 2000)", "X-Deadline-Ms: 10000\r\n");
        assert_eq!(status, 200, "{body}");
        let (total, _) = server.escalations();
        assert_eq!(total, 0);
    }
}
