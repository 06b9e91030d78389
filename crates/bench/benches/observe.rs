//! Observability-overhead benchmark (hand-rolled harness).
//!
//! Answers one question: what does the always-on query-lifecycle
//! observability layer (per-phase histograms, the timeline journal, the
//! per-shape table, the slow-query log) cost on the service's hot path?
//!
//! Three variants run the same mixed XMark workload through an identical
//! service, interleaved over several rounds so drift hits all variants
//! equally:
//!
//! * `off`    — `ObserveConfig { enabled: false }`: the layer's one
//!   branch per event, nothing recorded;
//! * `on`     — the default configuration (journal, histograms, shapes,
//!   250 ms slow threshold);
//! * `on+scrape` — default configuration while a scraper thread calls
//!   `observe()` + `prometheus_text()` every 5 ms (~200 scrapes/s —
//!   orders of magnitude past a real Prometheus interval) to measure
//!   snapshot interference.
//!
//! The acceptance bar from the lifecycle-observability change: `on` vs
//! `off` throughput overhead under ~2% (quantile snapshots are off the
//! per-query path; recording is a handful of relaxed atomic adds plus two
//! short mutexed pushes per completion). Because rounds interleave the
//! variants, the reported overhead is the *median of paired per-round
//! deltas* — slow-machine drift hits both sides of each pair and cancels,
//! which matters on small CI boxes where scheduler noise per round can
//! exceed the effect being measured.
//!
//! Run with `cargo bench -p xqr-bench --bench observe`; results are
//! written to `BENCH_observe.json` at the repo root. `--test` runs a
//! scaled-down pass and skips the JSON (CI smoke).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use xqr_engine::service::{QueryRequest, QueryService, ServiceConfig};
use xqr_engine::ObserveConfig;

/// The same mixed workload as the service benchmark: paths, an
/// aggregate, a join, and construction-heavy shapes.
const QUERIES: &[usize] = &[1, 5, 6, 8, 13, 17];

fn service(workers: usize, queue: usize, xml: &str, observe: ObserveConfig) -> QueryService {
    let svc = QueryService::new(ServiceConfig {
        workers,
        queue_capacity: queue,
        observe,
        ..ServiceConfig::default()
    });
    svc.bind_document("auction.xml", xml);
    svc
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1.0e6
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[derive(Clone, Copy)]
struct Round {
    throughput_qps: f64,
    p50_nanos: u64,
    p99_nanos: u64,
}

/// One measured batch: submit `jobs` queries, wait for all, return wall
/// throughput and end-to-end latency quantiles.
fn run_batch(svc: &QueryService, jobs: usize, scrape: bool) -> Round {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        if scrape {
            let svc = &svc;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let report = svc.observe();
                    std::hint::black_box(report.phases.len());
                    std::hint::black_box(svc.prometheus_text().len());
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
        }
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..jobs)
            .map(|i| {
                svc.submit(QueryRequest::new(xqr_xmark::query(
                    QUERIES[i % QUERIES.len()],
                )))
                .expect("queue sized for the whole batch")
            })
            .collect();
        let mut latencies: Vec<u64> = tickets
            .into_iter()
            .map(|t| {
                let out = t.wait().expect("benchmark queries succeed");
                out.queue_nanos + out.run_nanos
            })
            .collect();
        let wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        latencies.sort_unstable();
        Round {
            throughput_qps: jobs as f64 / wall.as_secs_f64(),
            p50_nanos: quantile(&latencies, 0.50),
            p99_nanos: quantile(&latencies, 0.99),
        }
    })
}

struct Variant {
    name: &'static str,
    observe: ObserveConfig,
    scrape: bool,
}

struct Summary {
    name: &'static str,
    throughput_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn summarize(name: &'static str, rounds: &[Round]) -> Summary {
    // Median throughput across rounds (robust to one noisy round), mean
    // of the latency quantiles.
    let mut tp: Vec<f64> = rounds.iter().map(|r| r.throughput_qps).collect();
    tp.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = rounds.len() as u64;
    Summary {
        name,
        throughput_qps: tp[tp.len() / 2],
        p50_ms: ms(rounds.iter().map(|r| r.p50_nanos).sum::<u64>() / n),
        p99_ms: ms(rounds.iter().map(|r| r.p99_nanos).sum::<u64>() / n),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let xml = xqr_xmark::generate(&xqr_xmark::GenOptions::for_bytes(if smoke {
        60_000
    } else {
        200_000
    }));
    // Small CI boxes often expose a single core; modest worker counts
    // and many short interleaved rounds beat a few giant bursts there.
    let workers = 2;
    let jobs = if smoke { 12 } else { 48 };
    let rounds = if smoke { 2 } else { 15 };

    let variants = [
        Variant {
            name: "off",
            observe: ObserveConfig {
                enabled: false,
                ..ObserveConfig::default()
            },
            scrape: false,
        },
        Variant {
            name: "on",
            observe: ObserveConfig::default(),
            scrape: false,
        },
        Variant {
            name: "on+scrape",
            observe: ObserveConfig::default(),
            scrape: true,
        },
    ];

    // One long-lived service per variant, warmed once; rounds interleave
    // across variants so machine drift is shared.
    let services: Vec<QueryService> = variants
        .iter()
        .map(|v| {
            let svc = service(workers, jobs + 1, &xml, v.observe.clone());
            for _ in 0..workers {
                svc.run(QueryRequest::new("1")).expect("warmup");
            }
            // One full pass primes every worker's plan cache.
            run_batch(&svc, jobs, false);
            svc
        })
        .collect();

    let mut measured: Vec<Vec<Round>> = variants.iter().map(|_| Vec::new()).collect();
    for _ in 0..rounds {
        for (i, v) in variants.iter().enumerate() {
            measured[i].push(run_batch(&services[i], jobs, v.scrape));
        }
    }

    let summaries: Vec<Summary> = variants
        .iter()
        .zip(&measured)
        .map(|(v, r)| summarize(v.name, r))
        .collect();

    println!("observability overhead ({workers} workers, {jobs} queries/round, {rounds} rounds):");
    for s in &summaries {
        println!(
            "  {:<10} {:>8.1} q/s   p50 {:>8.3} ms   p99 {:>8.3} ms",
            s.name, s.throughput_qps, s.p50_ms, s.p99_ms
        );
    }
    // Paired per-round comparison: round i of `off` and round i of `on`
    // ran back-to-back, so drift cancels within each pair; the median
    // across pairs discards outlier rounds entirely.
    let mut deltas: Vec<f64> = measured[0]
        .iter()
        .zip(&measured[1])
        .map(|(off, on)| 100.0 * (off.throughput_qps - on.throughput_qps) / off.throughput_qps)
        .collect();
    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let overhead_pct = deltas[deltas.len() / 2];
    println!("  on vs off overhead: {overhead_pct:.2}% (median of paired rounds, target < 2%)");

    if smoke {
        return;
    }

    let mut json = String::from("{\n  \"bench\": \"observe\",\n");
    json.push_str(&format!(
        "  \"workers\": {workers},\n  \"jobs_per_round\": {jobs},\n  \"rounds\": {rounds},\n"
    ));
    json.push_str("  \"variants\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"throughput_qps\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}}}{}\n",
            s.name,
            s.throughput_qps,
            s.p50_ms,
            s.p99_ms,
            if i + 1 < summaries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overhead_on_vs_off_pct\": {overhead_pct:.2}\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_observe.json");
    std::fs::write(path, json).expect("write BENCH_observe.json");
    println!("wrote {path}");
}
