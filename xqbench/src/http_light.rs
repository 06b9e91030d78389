//! `http_light`: an open loop at a fixed offered rate against
//! `QueryServer` (`POST /query`, one connection per request) in front of a
//! two-worker `QueryService` over a small XMark document. Engine work is
//! tiny, so accept, read and write in `server` dominate; half the requests
//! are ad-hoc point lookups with distinct seeded literals, so they miss the
//! 256-entry plan cache and their compile cost shows through.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xqr_engine::{
    ObserveConfig, QueryRequest, QueryServer, QueryService, ServerConfig, ServiceConfig,
};
use xqr_xml::metrics;

use crate::inputs::{self, Rng};
use crate::oracle::Oracle;
use crate::service_rw::WORKERS;
use crate::stats::{self, fingerprint, ms, ms_of_nanos};
use crate::trace::{self, Spans, ROOT};
use crate::{Outcome, Run};

/// Offered load in requests per second, well below the ~930 req/s a
/// 2-connection closed loop sustains on the reference box.
const RATE: f64 = 300.0;
const SENDERS: usize = 2;
const SETUPS: usize = 5;
/// Validity limits of the load generator itself.
const MIN_ACHIEVED_SHARE: f64 = 0.97;
const MAX_LATE_P99_MS: f64 = 20.0;
/// Requests replayed through `QueryService::run` for `service.direct_p50_ms`.
const DIRECT_SAMPLE: usize = 1000;

/// The repeated, cheap half of the stream.
const CHEAP: &[&str] = &[
    "let $auction := doc('auction.xml') return for $b in $auction/site/people/person[@id = 'person0'] return $b/name/text()",
    "let $auction := doc('auction.xml') return count(for $i in $auction/site/closed_auctions/closed_auction where $i/price/text() >= 40 return $i/price)",
    "let $auction := doc('auction.xml') return for $b in $auction/site/regions return count($b//item)",
    "count(doc('auction.xml')/site/people/person)",
    "1",
];

/// An ad-hoc point lookup. Literals are drawn from a range far larger
/// than the plan cache and never repeat within a run, so every one is a
/// plan-cache miss.
fn ad_hoc(rng: &mut Rng, used: &mut std::collections::HashSet<String>) -> String {
    loop {
        let q = match rng.below(3) {
            0 => format!(
                "count(doc('auction.xml')/site/closed_auctions/closed_auction[price >= {}.{:02}])",
                rng.below(300),
                rng.below(100)
            ),
            1 => format!(
                "doc('auction.xml')/site/people/person[@id = 'person{}']/name/text()",
                rng.below(100_000)
            ),
            _ => format!(
                "count(doc('auction.xml')/site/open_auctions/open_auction[initial > {}.{:02}])",
                rng.below(200),
                rng.below(100)
            ),
        };
        if used.insert(q.clone()) {
            return q;
        }
    }
}

/// One reply as the client saw it, times in nanoseconds on the run's clock.
#[derive(Default)]
struct Reply {
    status: u16,
    query_id: Option<u64>,
    hash: u64,
    due: u64,
    sent: u64,
    connected: u64,
    written: u64,
    first_byte: u64,
    done: u64,
}

/// One POST /query over a fresh connection.
fn post(addr: SocketAddr, query: &str, clock: &Spans, r: &mut Reply) -> std::io::Result<()> {
    r.sent = clock.now();
    let mut stream = TcpStream::connect(addr)?;
    r.connected = clock.now();
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    );
    stream.write_all(req.as_bytes())?;
    r.written = clock.now();
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 8192];
    let n = stream.read(&mut buf)?;
    r.first_byte = clock.now();
    raw.extend_from_slice(&buf[..n]);
    stream.read_to_end(&mut raw)?;
    r.done = clock.now();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    r.status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    r.query_id = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("x-query-id")
            .then(|| v.trim().parse().ok())?
    });
    r.hash = fingerprint(body);
    Ok(())
}

/// Sends request `i` of `stream` when it is due, for every `i` of this
/// sender, until the stream or the window ends.
fn sender(
    addr: SocketAddr,
    stream: &[String],
    s: usize,
    clock: &Spans,
    start: u64,
    end: u64,
) -> Vec<(usize, Reply)> {
    let gap = 1e9 / RATE;
    let mut out = Vec::new();
    for i in (s..stream.len()).step_by(SENDERS) {
        let due = start + (i as f64 * gap) as u64;
        if due >= end {
            break;
        }
        let now = clock.now();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let mut r = Reply {
            due,
            ..Reply::default()
        };
        if post(addr, &stream[i], clock, &mut r).is_err() {
            r.status = 0;
            r.done = clock.now();
        }
        out.push((i, r));
    }
    out
}

fn start(trace: bool, xml: &str) -> Result<(Arc<QueryService>, QueryServer, f64), String> {
    let text = xml.to_string();
    let t0 = Instant::now();
    let parsed0 = metrics().snapshot().documents_parsed;
    let svc = Arc::new(QueryService::new(ServiceConfig {
        workers: WORKERS,
        queue_capacity: 16,
        observe: ObserveConfig {
            journal_capacity: if trace {
                1 << 16
            } else {
                ObserveConfig::default().journal_capacity
            },
            ..ObserveConfig::default()
        },
        ..ServiceConfig::default()
    }));
    svc.bind_document("auction.xml", text);
    let server = QueryServer::start(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server does not start: {e}"))?;
    let clock = Spans::new(Instant::now());
    let mut tries = 0;
    let warm = |q: &str| -> Result<(), String> {
        let mut r = Reply::default();
        post(server.addr(), q, &clock, &mut r).map_err(|e| format!("warm-up: {e}"))?;
        if r.status == 200 {
            Ok(())
        } else {
            Err(format!("warm-up: status {}", r.status))
        }
    };
    while metrics().snapshot().documents_parsed - parsed0 < WORKERS as u64 {
        tries += 1;
        if tries > 100 {
            return Err("warm-up never reached every worker".into());
        }
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..WORKERS).map(|_| s.spawn(|| warm(CHEAP[1]))).collect();
            hs.into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread"))
        })?;
    }
    for _ in 0..2 {
        for q in CHEAP {
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..WORKERS).map(|_| s.spawn(|| warm(q))).collect();
                hs.into_iter()
                    .try_for_each(|h| h.join().expect("warm-up thread"))
            })?;
        }
    }
    Ok((svc, server, t0.elapsed().as_secs_f64()))
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let xml = inputs::xmark(
        inputs::XMARK_HTTP_BYTES,
        Rng::derive(run.seed, "auction").next_u64(),
    );
    let total = (RATE * run.seconds).ceil() as usize;
    let mut mix = Rng::derive(run.seed, "mix");
    let mut lits = Rng::derive(run.seed, "literals");
    let mut used = std::collections::HashSet::new();
    let mut is_ad_hoc = Vec::with_capacity(total);
    let stream: Vec<String> = (0..total)
        .map(|_| {
            let adhoc = mix.below(2) == 0;
            is_ad_hoc.push(adhoc);
            if adhoc {
                ad_hoc(&mut lits, &mut used)
            } else {
                CHEAP[mix.below(CHEAP.len())].to_string()
            }
        })
        .collect();

    let mut setup_s = Vec::new();
    let mut running: Option<(Arc<QueryService>, QueryServer, f64)> = None;
    let mut ready_rss = None;
    for _ in 0..SETUPS {
        if let Some((_, mut server, _)) = running.take() {
            server.stop(None);
        }
        match start(run.trace, &xml) {
            Ok(s) => {
                setup_s.push(s.2);
                ready_rss.get_or_insert_with(stats::peak_rss_mb);
                running = Some(s);
            }
            Err(e) => {
                out.problems.push(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let (svc, mut server, _) = running.expect("at least one set-up");
    let addr = server.addr();

    // The traced run sends the first half of the stream untraced and times
    // the second half per phase; the untraced run sends it all.
    let clock = Spans::new(Instant::now());
    let window = (run.seconds * 1e9) as u64;
    let half = if run.trace { window / 2 } else { window };
    let m0 = metrics().snapshot();
    let t_start = clock.now() + 1_000_000;
    let mut replies: Vec<(usize, Reply)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..SENDERS)
            .map(|k| {
                let (stream, clock) = (&stream, &clock);
                s.spawn(move || sender(addr, stream, k, clock, t_start, t_start + window))
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    let elapsed_s = (clock.now() - t_start) as f64 / 1e9;
    let m1 = metrics().snapshot();
    let window_rss = stats::peak_rss_mb();
    replies.sort_by_key(|(i, _)| *i);

    let mut oracle = Oracle::new(&[("auction.xml", &xml)]);
    let mut statuses: HashMap<u16, usize> = HashMap::new();
    let mut wrong = 0;
    for (i, r) in &replies {
        out.attempted += 1;
        *statuses.entry(r.status).or_insert(0) += 1;
        if r.status != 200 {
            out.failed += 1;
        } else if oracle.reference(&stream[*i]) != Ok(r.hash) {
            wrong += 1;
        }
    }
    out.check(wrong == 0, || {
        format!("{wrong} replies differ from the Core interpreter")
    });
    out.check(statuses.keys().all(|s| *s == 200), || {
        format!("replies by status (0 = no reply): {statuses:?}")
    });
    let ad_hoc_sent = replies.iter().filter(|(i, _)| is_ad_hoc[*i]).count() as u64;
    let misses = m1.plan_cache_misses - m0.plan_cache_misses;
    out.check(misses >= ad_hoc_sent, || {
        format!("{misses} plan-cache misses for {ad_hoc_sent} distinct ad-hoc requests")
    });
    let expected = (window as f64 / 1e9 * RATE).floor();
    let achieved = replies.len() as f64 / elapsed_s;
    let late: Vec<f64> = replies
        .iter()
        .map(|(_, r)| ms_of_nanos(r.sent - r.due))
        .collect();
    let late_p99 = stats::quantile(&late, 0.99);
    out.check(
        replies.len() as f64 >= expected * MIN_ACHIEVED_SHARE,
        || {
            format!(
                "sent {} of {expected} requests due in the window",
                replies.len()
            )
        },
    );
    out.check(late_p99 <= MAX_LATE_P99_MS, || {
        format!("generator ran late: p99 {late_p99:.2} ms (limit {MAX_LATE_P99_MS} ms)")
    });
    let all: Vec<f64> = replies
        .iter()
        .map(|(_, r)| ms_of_nanos(r.done - r.due))
        .collect();
    if !run.trace {
        let mut by_program: HashMap<&str, Vec<f64>> = HashMap::new();
        for (i, r) in &replies {
            let key = if is_ad_hoc[*i] {
                "ad hoc"
            } else {
                stream[*i].as_str()
            };
            by_program
                .entry(key)
                .or_default()
                .push(ms_of_nanos(r.done - r.due));
        }
        let medians: Vec<f64> = by_program.values().map(|v| stats::median(v)).collect();
        let report = server.stop(None);
        out.check(report.conns_drained_in_time, || {
            "server did not drain".into()
        });
        out.put("setup_s", stats::median(&setup_s), "s");
        out.put("throughput_qps", all.len() as f64 / elapsed_s, "1/s");
        out.put("latency_p50_ms", stats::median(&all), "ms");
        let p90 = stats::tail(&all, 0.90, &mut out.problems, "latency");
        out.put("latency_tail_ms", p90, "ms");
        out.put("geomean_ms", stats::geomean(&medians), "ms");
        out.put("peak_rss_mb", ready_rss.unwrap_or(0.0), "MiB");
        return out;
    }

    // Traced half: the client-timed phases of each request, with the
    // service's own phases from the journal placed inside time to first byte.
    let journal: HashMap<u64, _> = svc
        .observe()
        .journal
        .into_iter()
        .map(|t| (t.id, t))
        .collect();
    let (untraced, traced): (Vec<_>, Vec<_>) =
        replies.iter().partition(|(_, r)| r.due < t_start + half);
    let mut sp = Spans::new(Instant::now());
    let (mut connect, mut ttfb, mut body, mut unattributed, mut n) =
        (0u64, 0u64, 0u64, 0i128, 0u64);
    let mut traced_lat = Vec::new();
    let mut missing = 0;
    for (i, r) in &traced {
        let Some(tl) = r.query_id.and_then(|id| journal.get(&id)) else {
            missing += 1;
            continue;
        };
        let req = *i as u64;
        n += 1;
        traced_lat.push(ms_of_nanos(r.done - r.sent));
        connect += r.connected - r.sent;
        ttfb += r.first_byte - r.written;
        body += r.done - r.first_byte;
        unattributed += (r.first_byte - r.written) as i128 - tl.total_nanos as i128;
        let root = sp.add(req, 0, ROOT, r.sent, r.done);
        sp.add(req, root, "server.connect", r.sent, r.connected);
        sp.add(req, root, "server.send", r.connected, r.written);
        let wait = sp.add(req, root, "server.ttfb", r.written, r.first_byte);
        let rest = tl.total_nanos - tl.admit_nanos - tl.queue_nanos;
        let engine_ns = tl.prepare_nanos + tl.execute_nanos + tl.serialize_nanos;
        sp.lay_back(
            req,
            wait,
            r.written,
            r.first_byte,
            &[
                ("service.admit", tl.admit_nanos),
                ("service.queue", tl.queue_nanos),
                ("service.run", rest.saturating_sub(engine_ns)),
                ("engine.prepare", tl.prepare_nanos),
                ("runtime.execute", tl.execute_nanos),
                ("xml.serialize", tl.serialize_nanos),
            ],
        );
        sp.add(req, root, "server.body", r.first_byte, r.done);
    }
    out.check(missing == 0, || {
        format!("{missing} traced replies missing from the journal")
    });
    let nf = n.max(1) as f64;
    out.put("server.connect_ms", ms_of_nanos(connect) / nf, "ms");
    out.put("server.ttfb_ms", ms_of_nanos(ttfb) / nf, "ms");
    out.put("server.body_ms", ms_of_nanos(body) / nf, "ms");
    out.put(
        "server.unattributed_ms",
        unattributed as f64 / 1e6 / nf,
        "ms",
    );
    out.put("loadgen.late_p99_ms", late_p99, "ms");
    out.put("mem.window_peak_rss_mb", window_rss, "MiB");
    let p99 = stats::tail(&all, 0.99, &mut out.problems, "latency");
    out.put("tail.latency_p99_ms", p99, "ms");
    out.put("loadgen.achieved_qps", achieved, "1/s");
    out.put(
        "xml.documents_parsed",
        (m1.documents_parsed - m0.documents_parsed) as f64,
        "count",
    );
    out.put(
        "xml.struct_index_builds",
        (m1.struct_index_builds - m0.struct_index_builds) as f64,
        "count",
    );
    let hits = m1.plan_cache_hits - m0.plan_cache_hits;
    let lookups = hits + misses + (m1.plan_cache_rehydrations - m0.plan_cache_rehydrations);
    out.put(
        "engine.plan_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.put("engine.plan_cache_lookups", lookups as f64, "count");
    out.put(
        "engine.plan_cache_evictions",
        (m1.plan_cache_evictions - m0.plan_cache_evictions) as f64,
        "count",
    );
    // The same requests in process, without the network frontend.
    let mut direct = Vec::new();
    for q in stream.iter().take(DIRECT_SAMPLE) {
        let t0 = Instant::now();
        match svc.run(QueryRequest::new(q.as_str())) {
            Ok(_) => direct.push(ms(t0.elapsed())),
            Err(e) => out.problems.push(format!("direct run failed: {e}")),
        }
    }
    out.put("service.direct_p50_ms", stats::median(&direct), "ms");
    let untraced_sent: Vec<f64> = untraced
        .iter()
        .map(|(_, r)| ms_of_nanos(r.done - r.sent))
        .collect();
    let stores = [sp];
    trace::report(
        &mut out,
        &stores,
        &traced_lat,
        stats::mean(&untraced_sent),
        stats::mean(&traced_lat),
    );
    trace::write_spans(&mut out, run, &stores);
    server.stop(None);
    out
}
