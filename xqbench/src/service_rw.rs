//! `service_rw`: two closed-loop clients on a `QueryService` with two
//! workers. Reads repeat a fixed set of cheap XMark and DBLP query texts,
//! so after warm-up they hit the per-worker plan cache and bypass the
//! compiler; client 0 also rebinds a document on every `WRITE_EVERY`-th of
//! its operations (about one write per 50 operations of both clients),
//! alternating between the two documents. Reads beside writes load the
//! per-worker document sync and the plan cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xqr_engine::{Engine, ObserveConfig, QueryRequest, QueryService, ServiceConfig};
use xqr_xml::{metrics, MetricsSnapshot};

use crate::inputs::{self, Rng};
use crate::oracle::Oracle;
use crate::stats::{self, fingerprint, ms, ms_of_nanos};
use crate::trace::{self, Spans, ROOT};
use crate::{Outcome, Run};

/// Service workers and clients: `nproc` on the reference box.
pub const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Client 0 writes on every `WRITE_EVERY`-th of its operations. About 2%
/// of reads then wait for a 1 MB reparse, so the p99 falls inside
/// that population rather than on its edge.
const WRITE_EVERY: u64 = 25;
/// Document versions per URI; writes cycle through them.
const VERSIONS: usize = 4;
const SETUPS: usize = 5;
const URIS: [&str; 2] = ["auction.xml", "dblp.xml"];

/// The read mix: (name, document index, query text).
const READS: &[(&str, usize, &str)] = &[
    ("Q1", 0, "let $auction := doc('auction.xml') return for $b in $auction/site/people/person[@id = 'person0'] return $b/name/text()"),
    ("Q5", 0, "let $auction := doc('auction.xml') return count(for $i in $auction/site/closed_auctions/closed_auction where $i/price/text() >= 40 return $i/price)"),
    ("Q6", 0, "let $auction := doc('auction.xml') return for $b in $auction/site/regions return count($b//item)"),
    ("sum_price", 0, "sum(doc('auction.xml')/site/closed_auctions/closed_auction/price)"),
    ("max_initial", 0, "max(doc('auction.xml')/site/open_auctions/open_auction/initial)"),
    ("dblp_year", 1, "count(doc('dblp.xml')/dblp/inproceedings[year = '2001'])"),
    ("dblp_venue", 1, "doc('dblp.xml')/dblp/inproceedings[booktitle = 'ICDE'][1]/title/text()"),
    ("dblp_author", 1, "for $p in doc('dblp.xml')/dblp/inproceedings where $p/author = 'Author 7' return $p/title/text()"),
];

/// State the clients share: the service, the pre-generated versions and,
/// per document, the write sequence numbers started and finished.
struct Shared<'a> {
    svc: &'a QueryService,
    versions: &'a [Vec<String>; 2],
    started: [AtomicU64; 2],
    done: [AtomicU64; 2],
}

/// One read: which text, the range of write sequence numbers of its
/// document that were current at some point while it ran, and its output.
struct ReadRec {
    read: usize,
    lo: u64,
    hi: u64,
    hash: u64,
}

/// A traced read whose service-side phases are placed after the window,
/// once the journal can be joined on the query id.
struct Pending {
    req: u64,
    wait_span: u32,
    wait_start: u64,
    wait_end: u64,
    id: u64,
    queue_nanos: u64,
    run_nanos: u64,
    submit_ns: u64,
    e2e_ns: u64,
}

#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reads: Vec<ReadRec>,
    read_ms: Vec<f64>,
    by_read: Vec<Vec<f64>>,
    write_ms: Vec<f64>,
    spans: Option<Spans>,
    pending: Vec<Pending>,
}

fn client(
    sh: &Shared,
    c: usize,
    rng: &mut Rng,
    deadline: Instant,
    spans: Option<Spans>,
) -> ClientLog {
    let mut log = ClientLog {
        by_read: vec![Vec::new(); READS.len()],
        spans,
        ..ClientLog::default()
    };
    let mut op = 0u64;
    let mut writes = 0usize;
    let mut after_write: Option<usize> = None;
    while Instant::now() < deadline {
        op += 1;
        log.attempted += 1;
        if c == 0 && op.is_multiple_of(WRITE_EVERY) {
            let d = writes % 2;
            writes += 1;
            let seq = sh.started[d].fetch_add(1, Ordering::SeqCst) + 1;
            let text = sh.versions[d][seq as usize % VERSIONS].clone();
            let t0 = Instant::now();
            sh.svc.bind_document(URIS[d], text);
            log.write_ms.push(ms(t0.elapsed()));
            sh.done[d].fetch_add(1, Ordering::SeqCst);
            after_write = Some(d);
            continue;
        }
        // The writer's next read targets the document it just wrote, and
        // must see the new version.
        let read = match after_write.take() {
            Some(d) => {
                let of_doc: Vec<usize> = (0..READS.len()).filter(|&r| READS[r].1 == d).collect();
                of_doc[rng.below(of_doc.len())]
            }
            None => rng.below(READS.len()),
        };
        let d = READS[read].1;
        let lo = sh.done[d].load(Ordering::SeqCst);
        let req = op;
        let t0 = Instant::now();
        let (result, marks) = match log.spans.as_mut() {
            None => (
                sh.svc
                    .submit(QueryRequest::new(READS[read].2))
                    .and_then(|t| t.wait()),
                None,
            ),
            Some(sp) => {
                let root = sp.begin(req, 0, ROOT);
                let ticket = sp.time(req, root, "service.submit", || {
                    sh.svc.submit(QueryRequest::new(READS[read].2))
                });
                let t_submitted = sp.now();
                let wait = sp.begin(req, root, "service.wait");
                let result = ticket.and_then(|t| t.wait());
                sp.end(wait);
                let t_end = sp.now();
                sp.end(root);
                (
                    result,
                    Some((wait, t_submitted, t_end, sp.spans[root as usize - 1].start)),
                )
            }
        };
        let e2e = t0.elapsed();
        let hi = sh.started[d].load(Ordering::SeqCst);
        match result {
            Ok(o) => {
                log.read_ms.push(ms(e2e));
                log.by_read[read].push(ms(e2e));
                log.reads.push(ReadRec {
                    read,
                    lo,
                    hi,
                    hash: fingerprint(&o.xml),
                });
                if let Some((wait_span, wait_start, wait_end, root_start)) = marks {
                    log.pending.push(Pending {
                        req,
                        wait_span,
                        wait_start,
                        wait_end,
                        id: o.id,
                        queue_nanos: o.queue_nanos,
                        run_nanos: o.run_nanos,
                        submit_ns: wait_start - root_start,
                        e2e_ns: e2e.as_nanos() as u64,
                    });
                }
            }
            Err(e) => {
                log.failed += 1;
                log.errors.push(format!("{}: {e}", READS[read].0));
            }
        }
    }
    log
}

/// Runs all clients until `deadline` and returns their logs.
fn window(
    sh: &Shared,
    seed: u64,
    half: &str,
    deadline: Instant,
    epoch: Option<Instant>,
) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::derive(seed, &format!("client{c}-{half}"));
                let spans = epoch.map(Spans::new);
                s.spawn(move || client(sh, c, &mut rng, deadline, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn config(trace: bool) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_capacity: 16,
        observe: ObserveConfig {
            // The traced run joins every request to its journal entry.
            journal_capacity: if trace {
                1 << 17
            } else {
                ObserveConfig::default().journal_capacity
            },
            ..ObserveConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Set-up: start the service, bind both documents, and warm until every
/// worker has parsed every document and seen every read text.
fn setup(trace: bool, versions: &[Vec<String>; 2]) -> Result<(QueryService, f64), String> {
    let texts: Vec<String> = versions.iter().map(|v| v[0].clone()).collect();
    let t0 = Instant::now();
    let parsed0 = metrics().snapshot().documents_parsed;
    let svc = QueryService::new(config(trace));
    for (uri, text) in URIS.iter().zip(texts) {
        svc.bind_document(uri, text);
    }
    let want = (WORKERS * URIS.len()) as u64;
    let mut tries = 0;
    while metrics().snapshot().documents_parsed - parsed0 < want {
        tries += 1;
        if tries > 100 {
            return Err("warm-up never reached every worker".into());
        }
        let tickets: Vec<_> = (0..WORKERS)
            .map(|_| svc.submit(QueryRequest::new(READS[0].2)))
            .collect();
        for t in tickets {
            t.and_then(|t| t.wait())
                .map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    for _ in 0..2 {
        for r in READS {
            let tickets: Vec<_> = (0..WORKERS)
                .map(|_| svc.submit(QueryRequest::new(r.2)))
                .collect();
            for t in tickets {
                t.and_then(|t| t.wait())
                    .map_err(|e| format!("warm-up {}: {e}", r.0))?;
            }
        }
    }
    Ok((svc, t0.elapsed().as_secs_f64()))
}

struct Deltas {
    parsed: u64,
    index_builds: u64,
    hits: u64,
    lookups: u64,
    evictions: u64,
    shed: u64,
}

fn deltas(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Deltas {
    let hits = b.plan_cache_hits - a.plan_cache_hits;
    Deltas {
        parsed: b.documents_parsed - a.documents_parsed,
        index_builds: b.struct_index_builds - a.struct_index_builds,
        hits,
        lookups: hits
            + (b.plan_cache_misses - a.plan_cache_misses)
            + (b.plan_cache_rehydrations - a.plan_cache_rehydrations),
        evictions: b.plan_cache_evictions - a.plan_cache_evictions,
        shed: b.service_shed - a.service_shed,
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let versions: [Vec<String>; 2] = [
        (0..VERSIONS)
            .map(|k| {
                inputs::xmark(
                    inputs::XMARK_BYTES,
                    Rng::derive(run.seed, &format!("auction{k}")).next_u64(),
                )
            })
            .collect(),
        (0..VERSIONS)
            .map(|k| {
                inputs::dblp(
                    inputs::DBLP_BYTES,
                    Rng::derive(run.seed, &format!("dblp{k}")).next_u64(),
                )
            })
            .collect(),
    ];

    let mut setup_s = Vec::new();
    let mut svc = None;
    let mut ready_rss = None;
    for _ in 0..SETUPS {
        drop(svc.take());
        match setup(run.trace, &versions) {
            Ok((s, t)) => {
                setup_s.push(t);
                ready_rss.get_or_insert_with(stats::peak_rss_mb);
                svc = Some(s);
            }
            Err(e) => {
                out.problems.push(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let svc = svc.expect("at least one set-up");
    let sh = Shared {
        svc: &svc,
        versions: &versions,
        started: [AtomicU64::new(0), AtomicU64::new(0)],
        done: [AtomicU64::new(0), AtomicU64::new(0)],
    };

    let full = Duration::from_secs_f64(run.seconds);
    let untraced = if run.trace { full / 2 } else { full };
    let m0 = metrics().snapshot();
    let t_start = Instant::now();
    let logs = window(&sh, run.seed, "untraced", t_start + untraced, None);
    let elapsed = t_start.elapsed();
    let m1 = metrics().snapshot();
    let d = deltas(&m0, &m1);
    let writes: usize = logs.iter().map(|l| l.write_ms.len()).sum();
    out.check(writes > 0, || "no write happened in the window".into());
    out.check(
        d.parsed >= writes as u64 && d.parsed <= (writes * WORKERS) as u64,
        || {
            format!(
                "{} document parses for {writes} writes: every write must cause a reparse",
                d.parsed
            )
        },
    );
    out.check(d.hits > 0, || "no read hit the plan cache".into());
    out.check(d.shed == 0, || format!("{} requests shed", d.shed));

    let mut all = logs;
    let mut traced_logs = Vec::new();
    let mut traced_elapsed = Duration::ZERO;
    let mut td = None;
    if run.trace {
        let epoch = Instant::now();
        let t0 = metrics().snapshot();
        traced_logs = window(
            &sh,
            run.seed,
            "traced",
            epoch + (full - untraced),
            Some(epoch),
        );
        traced_elapsed = epoch.elapsed();
        td = Some(deltas(&t0, &metrics().snapshot()));
        out.put("mem.window_peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
    let journal: HashMap<u64, _> = if run.trace {
        svc.observe()
            .journal
            .into_iter()
            .map(|t| (t.id, t))
            .collect()
    } else {
        HashMap::new()
    };
    let untraced_read_ms: Vec<f64> = all.iter().flat_map(|l| l.read_ms.iter().copied()).collect();
    all.extend(traced_logs.iter_mut().map(std::mem::take));

    // Oracle: every read matches the reference of a version of its
    // document that was current while it ran.
    let mut oracles: Vec<Oracle> = (0..VERSIONS)
        .map(|k| Oracle::new(&[(URIS[0], &versions[0][k]), (URIS[1], &versions[1][k])]))
        .collect();
    let mut mismatches: HashMap<&str, usize> = HashMap::new();
    for log in &all {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.problems.extend(log.errors.iter().take(5).cloned());
        for r in &log.reads {
            let ok = (r.lo..=r.hi).any(|s| {
                oracles[s as usize % VERSIONS]
                    .reference(READS[r.read].2)
                    .is_ok_and(|h| h == r.hash)
            });
            if !ok {
                *mismatches.entry(READS[r.read].0).or_insert(0) += 1;
            }
        }
    }
    out.check(mismatches.is_empty(), || {
        format!("reads differing from the Core interpreter: {mismatches:?}")
    });

    if !run.trace {
        let read_ms: Vec<f64> = all.iter().flat_map(|l| l.read_ms.iter().copied()).collect();
        let write_ms: Vec<f64> = all
            .iter()
            .flat_map(|l| l.write_ms.iter().copied())
            .collect();
        let medians: Vec<f64> = (0..READS.len())
            .map(|r| {
                stats::median(
                    &all.iter()
                        .flat_map(|l| l.by_read[r].iter().copied())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        out.put("setup_s", stats::median(&setup_s), "s");
        out.put(
            "throughput_qps",
            (read_ms.len() + write_ms.len()) as f64 / elapsed.as_secs_f64(),
            "1/s",
        );
        out.put("latency_p50_ms", stats::median(&read_ms), "ms");
        let p99 = stats::tail(&read_ms, 0.99, &mut out.problems, "read latency");
        out.put("latency_tail_ms", p99, "ms");
        out.put("geomean_ms", stats::geomean(&medians), "ms");
        out.put("peak_rss_mb", ready_rss.unwrap_or(0.0), "MiB");
        return out;
    }

    // Traced half: place each read's service-side phases inside its wait
    // span, from the ServiceOutput and the journal entry of its query id.
    let td = td.expect("traced deltas");
    let mut stores = Vec::new();
    let (mut submit, mut queue, mut run_ns, mut sync, mut busy, mut n) =
        (0u64, 0u64, 0u64, 0i128, 0u64, 0u64);
    let mut lat = Vec::new();
    let mut missing = 0;
    let traced_writes: usize = all[all.len() - CLIENTS..]
        .iter()
        .map(|l| l.write_ms.len())
        .sum();
    for log in &mut all[CLIENTS..] {
        let mut sp = log.spans.take().expect("traced client spans");
        for p in &log.pending {
            let Some(tl) = journal.get(&p.id) else {
                missing += 1;
                continue;
            };
            n += 1;
            lat.push(ms_of_nanos(p.e2e_ns));
            submit += p.submit_ns;
            queue += p.queue_nanos;
            run_ns += p.run_nanos;
            sync += p.e2e_ns as i128 - (p.submit_ns + p.queue_nanos + p.run_nanos) as i128;
            busy += tl.total_nanos - tl.admit_nanos - tl.queue_nanos;
            let queue_end = (p.wait_start + p.queue_nanos).min(p.wait_end);
            sp.add_derived(p.req, p.wait_span, "service.queue", p.wait_start, queue_end);
            let engine_ns = tl.prepare_nanos + tl.execute_nanos + tl.serialize_nanos;
            sp.lay_back(
                p.req,
                p.wait_span,
                queue_end,
                p.wait_end,
                &[
                    ("service.run", p.run_nanos.saturating_sub(engine_ns)),
                    ("engine.prepare", tl.prepare_nanos),
                    ("runtime.execute", tl.execute_nanos),
                    ("xml.serialize", tl.serialize_nanos),
                ],
            );
        }
        stores.push(sp);
    }
    out.check(missing == 0, || {
        format!("{missing} traced reads missing from the journal")
    });
    let all_reads: Vec<f64> = all.iter().flat_map(|l| l.read_ms.iter().copied()).collect();
    let p99 = stats::tail(&all_reads, 0.99, &mut out.problems, "read latency");
    out.put("tail.latency_p99_ms", p99, "ms");
    let write_ms: Vec<f64> = all
        .iter()
        .flat_map(|l| l.write_ms.iter().copied())
        .collect();
    out.put("service.write_p50_ms", stats::median(&write_ms), "ms");
    let nf = n.max(1) as f64;
    out.put("service.submit_ms", ms_of_nanos(submit) / nf, "ms");
    out.put("service.queue_ms", ms_of_nanos(queue) / nf, "ms");
    out.put("service.run_ms", ms_of_nanos(run_ns) / nf, "ms");
    out.put("service.sync_ms", sync as f64 / 1e6 / nf, "ms");
    out.put(
        "service.worker_busy_ratio",
        busy as f64 / (WORKERS as f64 * traced_elapsed.as_nanos() as f64),
        "ratio",
    );
    let mut side = Engine::new();
    let binds: Vec<f64> = versions[0]
        .iter()
        .map(|v| {
            let t0 = Instant::now();
            side.bind_document(URIS[0], v).expect("version parses");
            ms(t0.elapsed())
        })
        .collect();
    out.put("xml.bind_ms", stats::median(&binds), "ms");
    out.put("xml.documents_parsed", td.parsed as f64, "count");
    out.put("xml.struct_index_builds", td.index_builds as f64, "count");
    out.put(
        "service.parses_per_write",
        td.parsed as f64 / traced_writes.max(1) as f64,
        "count",
    );
    out.put(
        "engine.plan_cache_hit_ratio",
        td.hits as f64 / td.lookups.max(1) as f64,
        "ratio",
    );
    out.put("engine.plan_cache_lookups", td.lookups as f64, "count");
    out.put("engine.plan_cache_evictions", td.evictions as f64, "count");
    trace::report(
        &mut out,
        &stores,
        &lat,
        stats::mean(&untraced_read_ms),
        stats::mean(&lat),
    );
    trace::write_spans(&mut out, run, &stores);
    out
}
