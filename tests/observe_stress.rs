//! Concurrent scrape-consistency suite for the service observability
//! layer. The per-service accumulator (unlike the process-global metrics
//! registry) starts at zero for every `QueryService`, so these tests
//! assert *exact* accounting identities, not deltas:
//!
//! * every submission ends up in exactly one bucket — per-shape
//!   invocations sum back to admissions, `completed_ok + completed_err`
//!   never exceeds `admitted`, sheds split exactly by reason;
//! * scraping `observe()` / `prometheus_text()` / `observe_json()` from
//!   several threads while the service runs XMark traffic always sees
//!   monotone counters, a bounded well-formed journal, and an exposition
//!   that parses;
//! * the HTTP scrape listener serves consistent text and JSON documents
//!   under the same concurrent load, and 404s unknown paths;
//! * admission decisions are timed (the `admit` phase histogram) even for
//!   submissions that were shed.

mod common;

use std::collections::HashSet;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use common::{json, validate_prometheus};
use xqr::engine::{
    CompileOptions, Engine, Limits, ObserveConfig, QueryRequest, QueryService, ServiceConfig,
};
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

fn xmark_service(workers: usize, observe: ObserveConfig) -> QueryService {
    let xml = generate(&GenOptions::for_bytes(60_000));
    let svc = QueryService::new(ServiceConfig {
        workers,
        queue_capacity: 256,
        observe,
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    svc
}

// ===== exact accounting ====================================================

#[test]
fn every_submission_is_accounted_for_in_the_report() {
    let svc = xmark_service(2, ObserveConfig::default());
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for n in 1..=QUERY_COUNT {
        let out = svc.run(QueryRequest::new(query(n))).unwrap();
        ids.push(out.id);
        rows.push(out.rows as u64);
    }
    let n = QUERY_COUNT as u64;
    let report = svc.observe();
    assert_eq!(report.admitted, n);
    assert_eq!(report.completed_ok, n);
    assert_eq!(report.completed_err, 0);
    assert_eq!(report.shed, 0);
    assert_eq!(report.shapes_dropped, 0);
    assert_eq!(report.queue_depth, 0);

    // Per-shape invocations sum back to admissions, most-invoked first.
    let invocations: u64 = report.shapes.iter().map(|s| s.invocations).sum();
    assert_eq!(invocations, n);
    assert!(report
        .shapes
        .windows(2)
        .all(|w| w[0].invocations >= w[1].invocations));

    // Every lifecycle phase saw every query, and quantiles are ordered.
    assert_eq!(report.phases.len(), 6);
    for p in &report.phases {
        assert_eq!(p.count, n, "phase {}", p.phase);
        assert!(
            p.p50_nanos <= p.p95_nanos && p.p95_nanos <= p.p99_nanos && p.p99_nanos <= p.max_nanos,
            "phase {}: quantiles out of order",
            p.phase
        );
    }

    // The journal holds all twenty timelines: unique ids matching the
    // tickets, well-formed phase arithmetic, and a joinable plan hash.
    assert_eq!(report.journal.len(), QUERY_COUNT);
    let mut seen = HashSet::new();
    for tl in &report.journal {
        assert!(seen.insert(tl.id), "duplicate journal id {}", tl.id);
        assert!(ids.contains(&tl.id), "journal id {} never issued", tl.id);
        assert!(tl.dispatched, "all queries executed");
        assert!(tl.error.is_none(), "{:?}", tl.error);
        assert!(
            matches!(tl.cache, "hit" | "rehydrated" | "miss"),
            "unexpected cache outcome {:?}",
            tl.cache
        );
        assert!(tl.total_nanos >= tl.queue_nanos);
        assert!(!tl.query.is_empty());
        let hash = tl.plan_hash.expect("executed queries carry a plan hash");
        assert!(
            report.shapes.iter().any(|s| s.plan_hash == hash),
            "journal hash {hash:016x} missing from the shape table"
        );
    }

    // Row counts roll up identically through both sinks, and match what
    // the tickets returned.
    let journal_rows: u64 = report.journal.iter().map(|t| t.rows).sum();
    let shape_rows: u64 = report.shapes.iter().map(|s| s.rows).sum();
    let ticket_rows: u64 = rows.iter().sum();
    assert_eq!(journal_rows, shape_rows);
    assert_eq!(journal_rows, ticket_rows);
}

#[test]
fn shape_table_joins_to_canonical_plan_hashes() {
    let xml = generate(&GenOptions::for_bytes(60_000));
    let mut reference = Engine::new();
    reference
        .bind_document("auction.xml", &xml)
        .expect("auction parses");
    let svc = QueryService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    for n in [1, 6, 14] {
        svc.run(QueryRequest::new(query(n))).unwrap();
        // An out-of-band prepare of the same text yields the same
        // canonical hash — the join key between EXPLAIN ANALYZE output
        // and the service's shape table.
        let hash = reference
            .prepare(query(n), &CompileOptions::default())
            .unwrap()
            .canonical_hash()
            .expect("algebra modes have canonical hashes");
        let report = svc.observe();
        let shape = report
            .shapes
            .iter()
            .find(|s| s.plan_hash == hash)
            .unwrap_or_else(|| panic!("Q{n}: hash {hash:016x} not in the shape table"));
        assert_eq!(shape.breaker, "closed");
        assert!(shape.invocations >= 1);
        assert!(!shape.example_query.is_empty());
    }
}

// ===== concurrent scrape consistency =======================================

#[test]
fn concurrent_scrapes_are_monotone_and_well_formed() {
    let observe = ObserveConfig {
        journal_capacity: 32,
        slow_log_capacity: 16,
        // Threshold zero: every completion qualifies as slow, so the
        // slow log exercises its capacity bound under load.
        slow_query: Some(Duration::ZERO),
        ..ObserveConfig::default()
    };
    let svc = xmark_service(4, observe);
    let jobs_per_thread = 2 * QUERY_COUNT;
    let submitters = 3;
    let running = AtomicBool::new(true);
    std::thread::scope(|s| {
        let workload: Vec<_> = (0..submitters)
            .map(|t| {
                let svc = &svc;
                s.spawn(move || {
                    for i in 0..jobs_per_thread {
                        let n = 1 + (i + t * 7) % QUERY_COUNT;
                        svc.run(QueryRequest::new(query(n)))
                            .unwrap_or_else(|e| panic!("thread {t} Q{n}: {e}"));
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let svc = &svc;
            let running = &running;
            s.spawn(move || {
                let mut last_admitted = 0u64;
                let mut last_done = 0u64;
                let mut last_invocations = 0u64;
                loop {
                    let stop = !running.load(Ordering::Relaxed);
                    let r = svc.observe();
                    // Counters only move forward.
                    assert!(r.admitted >= last_admitted, "admitted went backwards");
                    let done = r.completed_ok + r.completed_err;
                    assert!(done >= last_done, "completions went backwards");
                    assert!(
                        done <= r.admitted,
                        "completed {done} > admitted {}",
                        r.admitted
                    );
                    let invocations: u64 = r.shapes.iter().map(|s| s.invocations).sum();
                    assert!(invocations >= last_invocations);
                    assert!(
                        invocations <= done,
                        "shape invocations {invocations} ahead of completions {done}"
                    );
                    // Bounded, well-formed sinks at every instant.
                    assert!(r.journal.len() <= 32);
                    assert!(r.slow.len() <= 16);
                    for tl in r.journal.iter().chain(r.slow.iter()) {
                        assert!(tl.dispatched && tl.error.is_none());
                        assert!(tl.total_nanos >= tl.queue_nanos);
                    }
                    // The exposition parses mid-flight too.
                    validate_prometheus(&svc.prometheus_text()).expect("valid exposition");
                    last_admitted = r.admitted;
                    last_done = done;
                    last_invocations = invocations;
                    if stop {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        for h in workload {
            h.join().unwrap();
        }
        running.store(false, Ordering::Relaxed);
    });

    // Quiescent: the identities close exactly.
    let total = (submitters * jobs_per_thread) as u64;
    let r = svc.observe();
    assert_eq!(r.admitted, total);
    assert_eq!(r.completed_ok, total);
    assert_eq!(r.completed_err, 0);
    assert_eq!(r.shed, 0);
    let invocations: u64 = r.shapes.iter().map(|s| s.invocations).sum();
    assert_eq!(
        invocations, total,
        "per-shape invocations == admitted - shed"
    );
    assert_eq!(r.journal.len(), 32, "journal capped at its capacity");
    assert_eq!(r.slow.len(), 16, "slow log capped at its capacity");

    // The JSON document agrees with the typed report.
    let parsed = json::parse(&svc.observe_json()).expect("valid observe JSON");
    assert_eq!(parsed.get("admitted").unwrap().as_int(), Some(total as i64));
    assert_eq!(
        parsed.get("completed_ok").unwrap().as_int(),
        Some(total as i64)
    );
    assert_eq!(
        parsed.get("journal").unwrap().as_arr().map(|a| a.len()),
        Some(32)
    );
    let phases = parsed.get("phases").unwrap().as_arr().unwrap();
    assert_eq!(phases.len(), 6);
    for p in phases {
        assert_eq!(p.get("count").unwrap().as_int(), Some(total as i64));
    }
}

// ===== shed accounting =====================================================

#[test]
fn sheds_are_counted_per_reason_with_admit_latency() {
    let svc = QueryService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        memory_budget: 1 << 20,
        ..ServiceConfig::default()
    });
    // Seed the run-time EWMA so the deadline estimator has data. This
    // must happen before the gated loader below is registered: workers
    // sync every registered document ahead of each job, so any query
    // would stall on the gate once it exists.
    svc.run(QueryRequest::new("sum(1 to 1000)")).unwrap();

    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    svc.register_document("gate.xml");
    svc.set_loader(move |uri| {
        if uri == "gate.xml" {
            let _ = gate_rx.lock().unwrap().recv();
        }
        Ok("<gate/>".to_string())
    });

    // Stall the single worker in its document sync.
    let first = svc
        .submit(QueryRequest::new("count(doc('gate.xml')/*)"))
        .unwrap();
    while svc.queue_depth() > 0 {
        std::thread::yield_now();
    }

    // Worker busy, queue empty: a 1 ns deadline can never survive the
    // estimated wait — shed as ewma-deadline.
    let doomed = QueryRequest::new("1").with_options(
        CompileOptions::default().limits(Limits::none().with_deadline(Duration::from_nanos(1))),
    );
    assert!(svc.submit(doomed).is_err());

    // A reservation larger than the whole budget is unservable.
    for _ in 0..2 {
        let huge = QueryRequest::new("1").with_options(
            CompileOptions::default().limits(Limits::none().with_max_bytes(10 << 20)),
        );
        assert!(svc.submit(huge).is_err());
    }

    // Fill the queue exactly, then overflow it five times.
    let queued: Vec<_> = (0..2)
        .map(|i| svc.submit(QueryRequest::new(format!("{i} + 10"))).unwrap())
        .collect();
    for _ in 0..5 {
        assert!(svc.submit(QueryRequest::new("2")).is_err());
    }

    let r = svc.observe();
    assert_eq!(r.admitted, 4, "seed + gate + two queued");
    assert_eq!(r.shed, 8);
    assert_eq!(r.shed_queue_full, 5);
    assert_eq!(r.shed_reservation, 2);
    assert_eq!(r.shed_deadline, 1);
    assert_eq!(r.shed_shutdown, 0);

    // Admission decisions are timed for every submission, shed or not.
    let admit = r.phases.iter().find(|p| p.phase == "admit").unwrap();
    assert_eq!(admit.count, 12, "4 admitted + 8 shed admit decisions");
    let total = r.phases.iter().find(|p| p.phase == "total").unwrap();
    assert_eq!(total.count, 1, "only the seed query has completed");

    // The per-reason split surfaces in the exposition with exact values.
    let text = svc.prometheus_text();
    assert!(
        text.contains("xqr_service_sheds_total{reason=\"queue-full\"} 5"),
        "{text}"
    );
    assert!(
        text.contains("xqr_service_sheds_total{reason=\"unservable-reservation\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("xqr_service_sheds_total{reason=\"ewma-deadline\"} 1"),
        "{text}"
    );
    assert!(text.contains("xqr_service_admitted_total 4"), "{text}");

    // Nothing wedged: open the gate and everything admitted completes.
    gate_tx.send(()).unwrap();
    assert_eq!(first.wait().unwrap().xml, "1");
    for (i, t) in queued.into_iter().enumerate() {
        assert_eq!(t.wait().unwrap().xml, (i + 10).to_string());
    }
    let r = svc.observe();
    assert_eq!(r.completed_ok, 4);
    assert_eq!(r.completed_err, 0);
}

// ===== HTTP scrape listener ================================================

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to scrape listener");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    conn.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn http_scrape_serves_text_and_json_under_concurrent_load() {
    let svc = xmark_service(3, ObserveConfig::default());
    let server = svc.serve_metrics("127.0.0.1:0").expect("bind listener");
    let addr = server.addr();
    std::thread::scope(|s| {
        for t in 0..2usize {
            let svc = &svc;
            s.spawn(move || {
                for i in 0..QUERY_COUNT {
                    let n = 1 + (i + t * 9) % QUERY_COUNT;
                    svc.run(QueryRequest::new(query(n)))
                        .unwrap_or_else(|e| panic!("Q{n}: {e}"));
                }
            });
        }
        for _ in 0..3 {
            s.spawn(move || {
                for _ in 0..6 {
                    let (head, body) = http_get(addr, "/metrics");
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    assert!(head.contains("text/plain"), "{head}");
                    let samples = validate_prometheus(&body).expect("valid exposition");
                    assert!(samples > 20, "suspiciously small exposition");
                    assert!(body.contains("xqr_service_admitted_total"), "{body}");
                    assert!(body.contains("xqr_query_duration_us_bucket"), "{body}");

                    let (head, body) = http_get(addr, "/observe.json");
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    assert!(head.contains("application/json"), "{head}");
                    let v = json::parse(&body).expect("valid observe JSON");
                    let admitted = v.get("admitted").unwrap().as_int().unwrap();
                    let ok = v.get("completed_ok").unwrap().as_int().unwrap();
                    let err = v.get("completed_err").unwrap().as_int().unwrap();
                    assert!(ok + err <= admitted, "{ok} + {err} > {admitted}");

                    let (head, body) = http_get(addr, "/metrics.json");
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    json::parse(&body).expect("valid metrics JSON");
                }
            });
        }
    });

    // Unknown paths 404; the listener survives and keeps serving.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, body) = http_get(addr, "/observe.json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let v = json::parse(&body).expect("valid observe JSON");
    assert_eq!(
        v.get("admitted").unwrap().as_int(),
        Some(2 * QUERY_COUNT as i64)
    );

    // Shutdown stops the listener; the service itself is unaffected.
    server.shutdown();
    assert_eq!(svc.run(QueryRequest::new("1 + 1")).unwrap().xml, "2");
}

// ===== graceful drain ======================================================

/// Draining a service with a wedged worker and a populated queue keeps
/// the accounting identities *exact*: every queued job is shed with the
/// shutdown reason, replied to with the stable overload code, journaled
/// as an undispatched timeline — and still counts as admitted and
/// completed-with-error, so `completed_ok + completed_err == admitted`
/// holds after the dust settles.
#[test]
fn drain_sheds_queue_with_exact_shutdown_accounting() {
    let svc = QueryService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    // Seed one clean completion before the gate exists (workers sync
    // every registered document ahead of each job).
    svc.run(QueryRequest::new("sum(1 to 1000)")).unwrap();

    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    svc.register_document("gate.xml");
    svc.set_loader(move |uri| {
        if uri == "gate.xml" {
            let _ = gate_rx.lock().unwrap().recv();
        }
        Ok("<gate/>".to_string())
    });

    // Wedge the single worker in its document sync, then stack three
    // queued jobs behind it.
    let wedged = svc
        .submit(QueryRequest::new("count(doc('gate.xml')/*)"))
        .unwrap();
    while svc.queue_depth() > 0 {
        std::thread::yield_now();
    }
    let queued: Vec<_> = (0..3)
        .map(|i| svc.submit(QueryRequest::new(format!("{i} + 10"))).unwrap())
        .collect();
    let queued_ids: Vec<u64> = queued.iter().map(|t| t.id()).collect();

    // Drain under a deadline far shorter than the wedge.
    let drained = svc.drain(Duration::from_millis(50));
    assert_eq!(drained.drained_queued, 3);
    assert_eq!(drained.cancelled, 1, "the wedged query's token");
    assert!(!drained.completed_in_time);

    // Exact bucket split at this instant: seed + wedge + 3 queued were
    // admitted; seed completed ok; the three sheds completed with an
    // error; the wedged query is still in flight.
    let r = svc.observe();
    assert_eq!(r.admitted, 5);
    assert_eq!(r.completed_ok, 1);
    assert_eq!(r.completed_err, 3);
    assert_eq!(r.shed_shutdown, 3);
    assert_eq!(r.shed, 3, "no other shed reason fired");

    // Every shed job got the stable overload reply and an undispatched
    // journal timeline carrying the same code.
    for t in queued {
        let err = t.wait().unwrap_err();
        assert_eq!(err.code(), Some("XQRG0007"), "{err}");
    }
    for id in &queued_ids {
        let tl = r
            .journal
            .iter()
            .find(|tl| tl.id == *id)
            .expect("shed job journaled");
        assert!(!tl.dispatched);
        assert_eq!(tl.error.as_deref(), Some("XQRG0007"));
    }

    // The per-reason split surfaces in the exposition with exact values,
    // and the document still validates.
    let text = svc.prometheus_text();
    assert!(
        text.contains("xqr_service_sheds_total{reason=\"shutdown\"} 3"),
        "{text}"
    );
    validate_prometheus(&text).expect("valid exposition");

    // New work is refused outright after the drain.
    assert!(svc.submit(QueryRequest::new("1")).is_err());

    // Open the gate: the cancelled survivor unwinds (either observing
    // its cancellation or finishing), and the ledger balances.
    gate_tx.send(()).unwrap();
    match wedged.wait() {
        Err(e) => assert_eq!(e.code(), Some("XQRG0002"), "{e}"),
        Ok(out) => assert_eq!(out.xml, "1"),
    }
    let r = svc.observe();
    assert_eq!(r.admitted, 5);
    assert_eq!(r.completed_ok + r.completed_err, 5);
}

/// Dropping the scrape listener returns at once for wildcard and loopback
/// binds: the blocked accept is woken by a connection to the listener.
#[test]
fn dropping_the_scrape_listener_returns_promptly() {
    let svc = QueryService::new(ServiceConfig::default());
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = svc.serve_metrics(bind).expect("bind listener");
        let addr = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        assert!(http_get(addr, "/healthz").0.starts_with("HTTP/1.1 200"));
        let t0 = Instant::now();
        drop(server);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "{bind}: drop took {took:?}");
    }
}
