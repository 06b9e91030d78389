//! Hostile-client chaos suite for the network query frontend.
//!
//! Every scenario throws a different kind of malice at a live
//! [`QueryServer`] — torn frames, garbage bytes, header floods,
//! mid-result disconnects, stalled readers, slow-loris dribbles,
//! overload — and then asserts the same three invariants:
//!
//! 1. **zero worker/listener deaths**: the service still answers
//!    queries and `/healthz` still answers 200;
//! 2. **only mapped outcomes**: every response the client managed to
//!    read is a mapped HTTP status whose JSON body carries a stable
//!    code (a torn connection may legitimately read nothing at all);
//! 3. **no orphan state**: in-flight memory reservations return to
//!    zero and connection threads unwind once the abuse stops.
//!
//! The `failpoints` half (compiled with `--features failpoints`) drives
//! the injected `server::accept` / `server::read` / `server::write`
//! faults and proves the stuck-query watchdog escalates — and can be
//! suppressed — deterministically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use xqr::engine::{
    QueryRequest, QueryServer, QueryService, ServerConfig, ServiceConfig, SessionConfig,
    TenantQuotas, WatchdogConfig,
};
use xqr::xml::metrics::metrics;

/// Serializes tests: the process metrics registry and (in the
/// failpoints half) the failpoint registry are global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start(service: ServiceConfig, server: ServerConfig) -> (Arc<QueryService>, QueryServer) {
    let svc = Arc::new(QueryService::new(service));
    let server = QueryServer::start(Arc::clone(&svc), "127.0.0.1:0", server).unwrap();
    (svc, server)
}

fn default_start() -> (Arc<QueryService>, QueryServer) {
    start(
        ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    )
}

/// One raw exchange; tolerates resets (returns whatever arrived).
fn roundtrip(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.write_all(request);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, body.to_string())
}

fn post(addr: SocketAddr, query: &str, extra: &str) -> (u16, String) {
    roundtrip(
        addr,
        format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n{extra}\r\n{query}",
            query.len()
        )
        .as_bytes(),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
    )
}

fn spin_until(deadline: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "never converged: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The post-scenario invariant bundle: listener alive, workers alive,
/// reservations drained, connection threads unwound.
fn assert_healthy(svc: &QueryService, server: &QueryServer) {
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").0, 200, "listener died");
    let (status, body) = post(addr, "1 + 1", "");
    assert_eq!(status, 200, "workers died: {body}");
    assert_eq!(body, "2");
    spin_until(Duration::from_secs(10), "reservations", || {
        svc.reserved_bytes() == 0
    });
    spin_until(Duration::from_secs(10), "connection threads", || {
        server.active_connections() == 0
    });
}

#[test]
fn garbage_bytes_are_refused_not_fatal() {
    let _l = lock();
    let (svc, server) = default_start();
    let addr = server.addr();
    for garbage in [
        &b"\x00\xff\xfe\x01binary trash\r\n\r\n"[..],
        &b"COMPLETELY NOT HTTP\r\n\r\n"[..],
        &b"\r\n\r\n"[..],
        &b"GET\r\n\r\n"[..], // request line with no path
    ] {
        let (status, body) = roundtrip(addr, garbage);
        // A mapped refusal (400 malformed, 405 for bytes that happen to
        // parse as an unknown method), or nothing at all for a
        // connection the server killed — never a hang, never an
        // unmapped status.
        assert!(
            status == 400 || status == 405 || status == 0,
            "garbage got {status}: {body}"
        );
    }
    // An immediate close with zero bytes is a clean non-event.
    drop(TcpStream::connect(addr).unwrap());
    assert_healthy(&svc, &server);
}

#[test]
fn torn_frame_mid_body_leaves_no_orphans() {
    let _l = lock();
    let (svc, server) = default_start();
    let addr = server.addr();
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Promise 1000 body bytes, deliver 10, vanish.
        stream
            .write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n1 et 10 b")
            .unwrap();
        drop(stream);
    }
    assert_healthy(&svc, &server);
}

#[test]
fn header_floods_are_bounded() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig::default(),
        ServerConfig {
            max_header_bytes: 1024,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let kills_before = metrics().snapshot().server_conn_kills;
    let flood = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\n{}\r\n\r\n",
        (0..64)
            .map(|i| format!("X-Flood-{i}: {}", "a".repeat(1024)))
            .collect::<Vec<_>>()
            .join("\r\n")
    );
    let (status, _) = roundtrip(addr, flood.as_bytes());
    // 431 if the refusal outran the RST, else a torn read; both bounded.
    assert!(status == 431 || status == 0, "flood got {status}");
    assert!(metrics().snapshot().server_conn_kills > kills_before);
    assert_healthy(&svc, &server);
}

#[test]
fn mid_result_disconnects_are_survived() {
    let _l = lock();
    let (svc, server) = default_start();
    let addr = server.addr();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let q = "string-join(for $i in 1 to 20000 return 'x', '')";
        stream
            .write_all(
                format!(
                    "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
                    q.len()
                )
                .as_bytes(),
            )
            .unwrap();
        // Gone before the result is ready: the worker still finishes,
        // the write fails or lands in a dead buffer, nothing leaks.
        drop(stream);
    }
    assert_healthy(&svc, &server);
}

#[test]
fn stalled_readers_cannot_pin_connection_threads() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig::default(),
        ServerConfig {
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    // A ~6 MB result against a reader that never reads: the response
    // write must hit the write timeout instead of pinning the thread.
    let q = "string-join(for $i in 1 to 400000 return 'abcdefghijklmnop', '')";
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{q}",
                q.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Do not read. The connection thread must still unwind promptly.
    spin_until(Duration::from_secs(20), "stalled-reader thread", || {
        server.active_connections() == 0
    });
    drop(stream);
    assert_healthy(&svc, &server);
}

#[test]
fn slow_loris_dribble_is_killed_by_the_head_deadline() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig::default(),
        ServerConfig {
            header_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    // One byte at a time, forever under the per-read horizon — only the
    // whole-head deadline can stop this.
    let head = b"GET /healthz HTTP/1.1\r\n";
    let mut alive = true;
    for b in head.iter().cycle().take(60) {
        if stream.write_all(&[*b]).is_err() {
            alive = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if alive {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink); // EOF or 408, either way closed
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "dribble was not cut off"
    );
    assert_healthy(&svc, &server);
}

/// Stalls the (single) worker deterministically: every fresh document
/// load blocks until the returned sender fires.
fn gate_worker(svc: &QueryService) -> std::sync::mpsc::Sender<()> {
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let rx = Mutex::new(rx);
    svc.register_document("gate.xml");
    svc.set_loader(move |_| {
        let _ = rx.lock().unwrap().recv();
        Ok("<gate/>".to_string())
    });
    tx
}

#[test]
fn overload_maps_to_429_with_retry_after_and_stable_code() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    );
    let addr = server.addr();
    let release = gate_worker(&svc);
    // t1 occupies the worker (stalled in the gated loader)...
    let t1 = std::thread::spawn(move || post(addr, "1", ""));
    spin_until(Duration::from_secs(10), "worker busy", || {
        !svc.inflight().is_empty()
    });
    // ...t2 fills the single queue slot...
    let t2 = svc.submit(QueryRequest::new("2")).unwrap();
    // ...and the next network submission is shed with everything a
    // client needs to back off correctly.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\n3")
        .unwrap();
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 429"), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    assert!(text.contains("XQRG0007"), "{text}");
    release.send(()).unwrap();
    assert_eq!(t1.join().unwrap().0, 200);
    assert_eq!(t2.wait().unwrap().xml, "2");
    assert_healthy(&svc, &server);
}

#[test]
fn tenant_isolation_under_a_greedy_client() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServiceConfig::default()
        },
        ServerConfig {
            sessions: SessionConfig::default()
                .with_tenant("greedy", TenantQuotas::default().with_max_concurrent(1)),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    let release = gate_worker(&svc);
    // The greedy tenant's first query holds its one concurrency slot
    // (stalled in the loader); its second is refused with XQRG0009
    // while an unnamed tenant still gets served... once the gate opens
    // (both workers funnel through the same gated document load).
    let g1 = std::thread::spawn(move || post(addr, "1", "X-Tenant: greedy\r\n"));
    spin_until(Duration::from_secs(10), "greedy in flight", || {
        !svc.inflight().is_empty()
    });
    let (status, body) = post(addr, "2", "X-Tenant: greedy\r\n");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("XQRG0009"), "{body}");
    release.send(()).unwrap();
    assert_eq!(g1.join().unwrap().0, 200);
    let (status, body) = post(addr, "3", "X-Tenant: modest\r\n");
    assert_eq!(status, 200, "{body}");
    assert_healthy(&svc, &server);
}

#[test]
fn hostile_mix_under_concurrency_keeps_every_invariant() {
    let _l = lock();
    let (svc, server) = default_start();
    let addr = server.addr();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..10 {
                    match (t + i) % 5 {
                        0 => {
                            let (status, body) = post(addr, "1 + 1", "");
                            assert_eq!(status, 200, "{body}");
                            assert_eq!(body, "2");
                        }
                        1 => {
                            let (status, _) = roundtrip(addr, b"garbage\r\n\r\n");
                            assert!(status == 400 || status == 0);
                        }
                        2 => {
                            let mut s = TcpStream::connect(addr).unwrap();
                            let _ = s.write_all(
                                b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 999\r\n\r\nhalf",
                            );
                            drop(s); // torn frame
                        }
                        3 => {
                            let (status, _) = get(addr, "/metrics");
                            assert_eq!(status, 200);
                        }
                        _ => {
                            // Errors still map: syntax → 400 with a body.
                            let (status, body) = post(addr, "for $x in", "");
                            assert_eq!(status, 400, "{body}");
                            assert!(body.contains("\"code\""), "{body}");
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_healthy(&svc, &server);
}

#[test]
fn graceful_drain_sheds_cancels_and_accounts_exactly() {
    let _l = lock();
    let (svc, mut server) = start(
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        },
        ServerConfig::default(),
    );
    let addr = server.addr();
    let release = gate_worker(&svc);
    let shed_before = svc.observe().shed_shutdown;
    // One query wedged on the worker (network side), one queued behind
    // it (direct), then drain under a deadline far shorter than the
    // wedge.
    let wedged = std::thread::spawn(move || post(addr, "1", ""));
    spin_until(Duration::from_secs(10), "wedged in flight", || {
        !svc.inflight().is_empty()
    });
    let queued = svc.submit(QueryRequest::new("2")).unwrap();
    let report = server.stop(Some(Duration::from_millis(300)));
    assert_eq!(report.service.drained_queued, 1);
    assert_eq!(report.service.cancelled, 1);
    assert!(!report.service.completed_in_time);
    // The queued query was shed with the shutdown reason and code.
    let err = queued.wait().unwrap_err();
    assert_eq!(err.code(), Some("XQRG0007"), "{err}");
    assert_eq!(svc.observe().shed_shutdown, shed_before + 1);
    // New submissions are refused outright.
    assert!(svc.submit(QueryRequest::new("3")).is_err());
    // Release the wedge: the cancelled survivor unwinds, the client
    // gets a mapped reply (408 cancel) or a torn connection — not a hang.
    release.send(()).unwrap();
    let (status, _) = wedged.join().unwrap();
    assert!(
        status == 408 || status == 200 || status == 0,
        "wedged client saw {status}"
    );
    spin_until(Duration::from_secs(10), "drain reservations", || {
        svc.reserved_bytes() == 0
    });
}

/// Past `max_connections`, the accept loop answers inline with a fast
/// `503` and the stable overload code; the held slot is all that counts.
#[test]
fn connections_past_the_cap_get_a_fast_503() {
    let _l = lock();
    let (svc, server) = start(
        ServiceConfig::default(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    // Holds the only slot: its head read waits for bytes.
    let held = TcpStream::connect(addr).unwrap();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("XQRG0007"), "{body}");
    assert_eq!(server.active_connections(), 1);
    drop(held);
    spin_until(Duration::from_secs(10), "held slot", || {
        server.active_connections() == 0
    });
    assert_healthy(&svc, &server);
}

/// Stopping an idle server returns at once for wildcard and loopback
/// binds alike: the blocked accept is woken by a self-connection and the
/// watchdog by the stop signal, so not even a 10 s watchdog period is sat
/// out. The wake connection is neither served nor counted.
#[test]
fn idle_stop_wakes_accept_and_watchdog_without_counting_the_wake() {
    let _l = lock();
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let svc = Arc::new(QueryService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }));
        let cfg = ServerConfig {
            watchdog: WatchdogConfig {
                period: Duration::from_secs(10),
                ..WatchdogConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = QueryServer::start(Arc::clone(&svc), bind, cfg).unwrap();
        let addr = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        assert_eq!(get(addr, "/healthz").0, 200);
        spin_until(Duration::from_secs(10), "healthz connection", || {
            server.active_connections() == 0
        });
        let conns_before = metrics().snapshot().server_connections;
        let t0 = Instant::now();
        let report = server.stop(None);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "{bind}: stop took {took:?}");
        assert_eq!(report.conns_at_drain, 0, "{bind}");
        assert!(report.conns_drained_in_time, "{bind}");
        assert!(report.service.completed_in_time, "{bind}");
        assert_eq!(server.active_connections(), 0, "{bind}");
        assert_eq!(
            metrics().snapshot().server_connections,
            conns_before,
            "{bind}: the wake connection was counted"
        );
    }
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use xqr::xml::failpoint::{self, FailGuard};

    #[test]
    fn injected_accept_fault_drops_one_connection_only() {
        let _l = lock();
        failpoint::clear();
        let (svc, server) = default_start();
        let addr = server.addr();
        {
            let _g = FailGuard::new("server::accept", "err(1)").unwrap();
            // The faulted connection is dropped on the floor; the
            // client reads EOF, not a hang.
            let (status, _) = get(addr, "/healthz");
            assert_eq!(status, 0);
        }
        assert_healthy(&svc, &server);
    }

    #[test]
    fn injected_read_fault_maps_to_500_with_injected_code() {
        let _l = lock();
        failpoint::clear();
        let (svc, server) = default_start();
        let addr = server.addr();
        {
            let _g = FailGuard::new("server::read", "err(1)").unwrap();
            let (status, body) = get(addr, "/healthz");
            assert_eq!(status, 500, "{body}");
            assert!(body.contains("XQRFP01"), "{body}");
        }
        assert_healthy(&svc, &server);
    }

    #[test]
    fn injected_write_fault_kills_the_reply_not_the_worker() {
        let _l = lock();
        failpoint::clear();
        let (svc, server) = default_start();
        let addr = server.addr();
        let kills_before = metrics().snapshot().server_conn_kills;
        {
            let _g = FailGuard::new("server::write", "err(1)").unwrap();
            // The query executes, then the response write is injected
            // away: the client sees a clean close with no bytes.
            let (status, body) = post(addr, "1 + 1", "");
            assert_eq!(status, 0, "{body}");
        }
        assert!(metrics().snapshot().server_conn_kills > kills_before);
        assert_healthy(&svc, &server);
    }

    #[test]
    fn watchdog_escalates_a_stalled_query_deterministically() {
        let _l = lock();
        failpoint::clear();
        let (svc, server) = start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ServerConfig {
                watchdog: WatchdogConfig {
                    enabled: true,
                    period: Duration::from_millis(10),
                    grace: Duration::from_millis(25),
                },
                ..ServerConfig::default()
            },
        );
        let addr = server.addr();
        let escalations_before = metrics().snapshot().watchdog_escalations;
        // The dispatch failpoint wedges the query for 600 ms without a
        // single governor tick; its deadline is 50 ms. The watchdog
        // must cancel it long before the wedge clears.
        let _g = FailGuard::new("service::dispatch", "delay(600ms,1)").unwrap();
        let (status, body) = post(
            addr,
            "count(for $x in 1 to 1000000 where $x mod 7 = 0 return $x)",
            "X-Deadline-Ms: 50\r\n",
        );
        assert_eq!(status, 408, "{body}");
        assert!(
            body.contains("XQRG0002") || body.contains("XQRG0001"),
            "{body}"
        );
        assert!(metrics().snapshot().watchdog_escalations > escalations_before);
        let (total, by_shape) = server.escalations();
        assert!(total >= 1);
        assert_eq!(by_shape.values().sum::<u64>(), total);
        // /server.json exposes the same counters.
        let (s, js) = get(addr, "/server.json");
        assert_eq!(s, 200);
        assert!(js.contains("\"watchdog_escalations\":"), "{js}");
        assert_healthy(&svc, &server);
    }

    #[test]
    fn watchdog_escalation_can_be_suppressed_by_failpoint() {
        let _l = lock();
        failpoint::clear();
        let (svc, server) = start(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ServerConfig {
                watchdog: WatchdogConfig {
                    enabled: true,
                    period: Duration::from_millis(10),
                    grace: Duration::from_millis(25),
                },
                ..ServerConfig::default()
            },
        );
        let addr = server.addr();
        let escalations_before = metrics().snapshot().watchdog_escalations;
        let _wedge = FailGuard::new("service::dispatch", "delay(400ms,1)").unwrap();
        let _mute = FailGuard::new("watchdog::escalate", "err").unwrap();
        // With escalation suppressed, the wedge runs its course and the
        // query dies of its own (rebased) deadline instead.
        let (status, body) = post(
            addr,
            "count(for $x in 1 to 1000000 where $x mod 7 = 0 return $x)",
            "X-Deadline-Ms: 50\r\n",
        );
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("XQRG0001"), "{body}");
        assert_eq!(
            metrics().snapshot().watchdog_escalations,
            escalations_before
        );
        assert_eq!(server.escalations().0, 0);
        assert_healthy(&svc, &server);
    }

    /// The CI env-schedule run (`XQR_FAILPOINTS=...` with accept/read
    /// faults armed) executes only this test: it hammers the server
    /// through the armed schedule and asserts the invariant bundle —
    /// the faults fire (trips counted), some connections die, and the
    /// frontend shrugs.
    #[test]
    fn env_schedule_faults_are_survived() {
        if std::env::var("XQR_FAILPOINTS").is_err() {
            return; // only meaningful under an env-armed schedule
        }
        let _l = lock();
        let (svc, server) = default_start();
        let addr = server.addr();
        let trips_before = metrics().snapshot().failpoint_trips;
        let mut served = 0;
        for _ in 0..20 {
            let (status, body) = post(addr, "1 + 1", "");
            match status {
                200 => {
                    assert_eq!(body, "2");
                    served += 1;
                }
                // Injected read fault → mapped 500; injected accept or
                // write fault → torn connection. Nothing else.
                500 => assert!(body.contains("XQRFP01"), "{body}"),
                0 => {}
                other => panic!("unmapped status {other}: {body}"),
            }
        }
        assert!(served > 0, "every request died under the schedule");
        assert!(metrics().snapshot().failpoint_trips > trips_before);
        assert_healthy(&svc, &server);
    }
}
