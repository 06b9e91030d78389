//! Process-wide engine metrics registry.
//!
//! A single static registry of counters and histograms covering the whole
//! engine: queries run and failed (per error code, including the governor's
//! `XQRG*` limit codes), strategy fallbacks taken, structural-index and
//! postings builds, documents parsed, and a log2 histogram of query wall
//! times. Everything is lock-free atomics except the per-error-code map,
//! which sits behind a mutex on the (cold) error path.
//!
//! The registry is deliberately placed in the lowest crate of the
//! workspace so both the node store (`node.rs` index builds) and the
//! public engine facade can record into the same instance. Recording is a
//! relaxed atomic increment — cheap enough to stay on unconditionally —
//! and reads take a [`MetricsSnapshot`], so dumps never observe a torn
//! multi-counter state worse than individual-counter skew.
//!
//! Counters are monotone for the life of the process; tests must assert
//! *deltas* between two snapshots, never absolute values, because the test
//! harness runs many queries in one process (and in parallel threads).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log2 duration buckets: bucket `i` counts queries whose wall
/// time in microseconds satisfies `floor(log2(max(us, 1))) == i`, with the
/// final bucket absorbing everything longer (~ 36 minutes and up).
pub const DURATION_BUCKETS: usize = 32;

// ===== log-linear latency histogram ========================================

/// Linear sub-buckets per power-of-two octave (HDR-style): 16 sub-buckets
/// bound the relative quantile error at 1/16 ≈ 6.25%.
pub const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Largest exponent tracked exactly; values at or above 2^46 ns (~19.5 h)
/// saturate into the top bucket.
const HIST_MAX_EXP: u32 = 45;
/// Total buckets of a [`LatencyHistogram`].
pub const HIST_BUCKETS: usize = ((HIST_MAX_EXP - HIST_SUB_BITS + 2) as usize) << HIST_SUB_BITS;

/// Bucket index for a nanosecond value: exact below 2^`HIST_SUB_BITS`,
/// log-linear above (the octave selects a block of [`HIST_SUB`] linear
/// sub-buckets).
fn hist_index(nanos: u64) -> usize {
    let v = nanos.min((1 << (HIST_MAX_EXP + 1)) - 1);
    let e = 63 - (v | 1).leading_zeros();
    if e < HIST_SUB_BITS {
        v as usize
    } else {
        let sub = (v >> (e - HIST_SUB_BITS)) as usize & (HIST_SUB - 1);
        (((e - HIST_SUB_BITS + 1) as usize) << HIST_SUB_BITS) + sub
    }
}

/// Inclusive lower bound of bucket `i` (nanoseconds).
fn hist_lower(i: usize) -> u64 {
    let block = i >> HIST_SUB_BITS;
    if block < 2 {
        i as u64
    } else {
        let e = block as u32 + HIST_SUB_BITS - 1;
        (1u64 << e) + (((i & (HIST_SUB - 1)) as u64) << (e - HIST_SUB_BITS))
    }
}

/// A thread-safe log-linear (HDR-style) latency histogram. Recording is
/// three relaxed atomic adds plus one `fetch_max` — cheap enough to stay
/// on the per-query service path unconditionally. Quantiles are estimated
/// from a [`HistogramSnapshot`] with ≤ 2^-`HIST_SUB_BITS` relative error.
pub struct LatencyHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one observation (nanoseconds).
    pub fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
        self.buckets[hist_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording can skew `count` against
    /// the bucket sum by in-flight increments, never backwards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Frozen histogram state with quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in [0, 1] (nanoseconds): linear
    /// interpolation inside the covering log-linear bucket, clamped to
    /// the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let lo = hist_lower(i);
                let hi = if i + 1 < HIST_BUCKETS {
                    hist_lower(i + 1)
                } else {
                    self.max.max(lo + 1)
                };
                let frac = (rank - cum) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est as u64).min(self.max.max(lo));
            }
            cum += n;
        }
        self.max
    }

    /// Mean observation (nanoseconds), 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Why the service admission controller refused a submission. Each reason
/// is counted separately (plus the `service_shed` aggregate) so an
/// operator can tell queue collapse from reservation misconfiguration
/// from deadline-infeasible work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full.
    QueueFull,
    /// The memory reservation can never fit the service budget.
    Reservation,
    /// The EWMA queue-wait estimate exceeded the query's deadline.
    Deadline,
    /// The service was shutting down.
    Shutdown,
}

impl ShedReason {
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::Reservation => "unservable-reservation",
            ShedReason::Deadline => "ewma-deadline",
            ShedReason::Shutdown => "shutdown",
        }
    }
}

/// The process-wide registry. Obtain it with [`metrics`].
pub struct MetricsRegistry {
    queries_started: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    fallbacks_taken: AtomicU64,
    queries_spilled: AtomicU64,
    spill_io_retries: AtomicU64,
    transient_retries: AtomicU64,
    failpoint_trips: AtomicU64,
    service_admitted: AtomicU64,
    service_shed: AtomicU64,
    service_shed_queue_full: AtomicU64,
    service_shed_reservation: AtomicU64,
    service_shed_deadline: AtomicU64,
    service_shed_shutdown: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_fast_fails: AtomicU64,
    doc_cache_hits: AtomicU64,
    doc_cache_misses: AtomicU64,
    doc_cache_evictions: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    plan_cache_evictions: AtomicU64,
    plan_cache_rehydrations: AtomicU64,
    server_connections: AtomicU64,
    server_requests: AtomicU64,
    server_conn_kills: AtomicU64,
    watchdog_escalations: AtomicU64,
    tenant_rejections: AtomicU64,
    /// Gauge, not a counter: the number of requests queued in query
    /// services right now (incremented on enqueue, decremented on
    /// dispatch/drain).
    service_queue_depth: AtomicU64,
    struct_index_builds: AtomicU64,
    postings_builds: AtomicU64,
    postings_entries: AtomicU64,
    documents_parsed: AtomicU64,
    query_nanos_total: AtomicU64,
    duration_buckets: [AtomicU64; DURATION_BUCKETS],
    /// Error-code → count. String-keyed (codes arrive as `&str` of mixed
    /// provenance) and mutex-guarded: the error path is cold.
    error_codes: Mutex<BTreeMap<String, u64>>,
}

/// The process-wide registry instance.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| MetricsRegistry {
        queries_started: AtomicU64::new(0),
        queries_ok: AtomicU64::new(0),
        queries_failed: AtomicU64::new(0),
        fallbacks_taken: AtomicU64::new(0),
        queries_spilled: AtomicU64::new(0),
        spill_io_retries: AtomicU64::new(0),
        transient_retries: AtomicU64::new(0),
        failpoint_trips: AtomicU64::new(0),
        service_admitted: AtomicU64::new(0),
        service_shed: AtomicU64::new(0),
        service_shed_queue_full: AtomicU64::new(0),
        service_shed_reservation: AtomicU64::new(0),
        service_shed_deadline: AtomicU64::new(0),
        service_shed_shutdown: AtomicU64::new(0),
        breaker_trips: AtomicU64::new(0),
        breaker_fast_fails: AtomicU64::new(0),
        doc_cache_hits: AtomicU64::new(0),
        doc_cache_misses: AtomicU64::new(0),
        doc_cache_evictions: AtomicU64::new(0),
        plan_cache_hits: AtomicU64::new(0),
        plan_cache_misses: AtomicU64::new(0),
        plan_cache_evictions: AtomicU64::new(0),
        plan_cache_rehydrations: AtomicU64::new(0),
        server_connections: AtomicU64::new(0),
        server_requests: AtomicU64::new(0),
        server_conn_kills: AtomicU64::new(0),
        watchdog_escalations: AtomicU64::new(0),
        tenant_rejections: AtomicU64::new(0),
        service_queue_depth: AtomicU64::new(0),
        struct_index_builds: AtomicU64::new(0),
        postings_builds: AtomicU64::new(0),
        postings_entries: AtomicU64::new(0),
        documents_parsed: AtomicU64::new(0),
        query_nanos_total: AtomicU64::new(0),
        duration_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        error_codes: Mutex::new(BTreeMap::new()),
    })
}

fn bucket_of(nanos: u64) -> usize {
    let us = (nanos / 1_000).max(1);
    (63 - us.leading_zeros() as usize).min(DURATION_BUCKETS - 1)
}

impl MetricsRegistry {
    pub fn record_query_start(&self) {
        self.queries_started.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_query_ok(&self, wall_nanos: u64) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.query_nanos_total
            .fetch_add(wall_nanos, Ordering::Relaxed);
        self.duration_buckets[bucket_of(wall_nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed query. `code` is the stable error code when one
    /// applies (e.g. `XQRG0003`); codeless failures count under
    /// `"internal"` / `"syntax"` supplied by the caller.
    pub fn record_query_error(&self, code: &str) {
        self.queries_failed.fetch_add(1, Ordering::Relaxed);
        let mut m = self.error_codes.lock().unwrap_or_else(|p| p.into_inner());
        *m.entry(code.to_string()).or_insert(0) += 1;
    }

    /// A run whose spilling failed was retried with spilling disabled.
    pub fn record_fallback(&self) {
        self.fallbacks_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// A query crossed the governor's soft memory watermark and entered
    /// spill mode (recorded once per run, at the flip).
    pub fn record_query_spilled(&self) {
        self.queries_spilled.fetch_add(1, Ordering::Relaxed);
    }

    /// A transient spill I/O failure was retried (one per retry attempt,
    /// not per eventual outcome).
    pub fn record_spill_io_retry(&self) {
        self.spill_io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Any transient operation (spill I/O, document load) was retried
    /// through `xqr_xml::retry` (one per retry attempt).
    pub fn record_transient_retry(&self) {
        self.transient_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// An armed failpoint fired (injected error, panic, or delay).
    pub fn record_failpoint_trip(&self) {
        self.failpoint_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// The query service admitted a submission (queued or dispatched).
    pub fn record_service_admitted(&self) {
        self.service_admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// The admission controller shed a submission (`XQRG0007`), counted
    /// both in the aggregate and under its [`ShedReason`].
    pub fn record_service_shed(&self, reason: ShedReason) {
        self.service_shed.fetch_add(1, Ordering::Relaxed);
        let per_reason = match reason {
            ShedReason::QueueFull => &self.service_shed_queue_full,
            ShedReason::Reservation => &self.service_shed_reservation,
            ShedReason::Deadline => &self.service_shed_deadline,
            ShedReason::Shutdown => &self.service_shed_shutdown,
        };
        per_reason.fetch_add(1, Ordering::Relaxed);
    }

    /// A per-shape circuit breaker transitioned closed → open.
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// An open circuit breaker fast-failed a submission (`XQRG0008`).
    pub fn record_breaker_fast_fail(&self) {
        self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared document-text cache hit (raw bytes served without a reload).
    pub fn record_doc_cache_hit(&self) {
        self.doc_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared document-text cache miss (loader invoked).
    pub fn record_doc_cache_miss(&self) {
        self.doc_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A cached document text was evicted to fit the cache byte budget.
    pub fn record_doc_cache_eviction(&self) {
        self.doc_cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan cache hit: a prepared plan was served without recompiling.
    pub fn record_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan cache miss: the full compilation pipeline ran for a shape not
    /// seen before (by this engine, or — in a service — by any worker).
    pub fn record_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A cached plan was evicted to fit the cache entry/byte budget.
    pub fn record_plan_cache_eviction(&self) {
        self.plan_cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// A service worker recompiled a shape already known to the shared
    /// registry into its private `Rc`-based cache (plans cannot cross
    /// threads; only the canonical hash does).
    pub fn record_plan_cache_rehydration(&self) {
        self.plan_cache_rehydrations.fetch_add(1, Ordering::Relaxed);
    }

    /// The network frontend accepted a client connection.
    pub fn record_server_connection(&self) {
        self.server_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// The network frontend parsed one HTTP request (any route, any
    /// outcome).
    pub fn record_server_request(&self) {
        self.server_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was killed defensively: slow-loris header dribble,
    /// an oversized head/body, an idle or I/O deadline, or an
    /// over-capacity accept.
    pub fn record_server_conn_kill(&self) {
        self.server_conn_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// The stuck-query watchdog cancelled a query that ran past its
    /// deadline without governor progress.
    pub fn record_watchdog_escalation(&self) {
        self.watchdog_escalations.fetch_add(1, Ordering::Relaxed);
    }

    /// A per-tenant session quota refused a request (`XQRG0009`).
    pub fn record_tenant_rejection(&self) {
        self.tenant_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered a service queue (gauge increment).
    pub fn record_queue_enter(&self) {
        self.service_queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left a service queue by dispatch or drain (gauge
    /// decrement; saturates at zero defensively).
    pub fn record_queue_leave(&self) {
        let _ = self
            .service_queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// A per-document structural index was derived (node.rs, first
    /// structural access).
    pub fn record_struct_index_build(&self) {
        self.struct_index_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-name postings lists were built for a document; `entries` is the
    /// total number of element ids across all lists.
    pub fn record_postings_build(&self, entries: u64) {
        self.postings_builds.fetch_add(1, Ordering::Relaxed);
        self.postings_entries.fetch_add(entries, Ordering::Relaxed);
    }

    pub fn record_document_parsed(&self) {
        self.documents_parsed.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_started: self.queries_started.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            fallbacks_taken: self.fallbacks_taken.load(Ordering::Relaxed),
            queries_spilled: self.queries_spilled.load(Ordering::Relaxed),
            spill_io_retries: self.spill_io_retries.load(Ordering::Relaxed),
            transient_retries: self.transient_retries.load(Ordering::Relaxed),
            failpoint_trips: self.failpoint_trips.load(Ordering::Relaxed),
            service_admitted: self.service_admitted.load(Ordering::Relaxed),
            service_shed: self.service_shed.load(Ordering::Relaxed),
            service_shed_queue_full: self.service_shed_queue_full.load(Ordering::Relaxed),
            service_shed_reservation: self.service_shed_reservation.load(Ordering::Relaxed),
            service_shed_deadline: self.service_shed_deadline.load(Ordering::Relaxed),
            service_shed_shutdown: self.service_shed_shutdown.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            doc_cache_hits: self.doc_cache_hits.load(Ordering::Relaxed),
            doc_cache_misses: self.doc_cache_misses.load(Ordering::Relaxed),
            doc_cache_evictions: self.doc_cache_evictions.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            plan_cache_evictions: self.plan_cache_evictions.load(Ordering::Relaxed),
            plan_cache_rehydrations: self.plan_cache_rehydrations.load(Ordering::Relaxed),
            server_connections: self.server_connections.load(Ordering::Relaxed),
            server_requests: self.server_requests.load(Ordering::Relaxed),
            server_conn_kills: self.server_conn_kills.load(Ordering::Relaxed),
            watchdog_escalations: self.watchdog_escalations.load(Ordering::Relaxed),
            tenant_rejections: self.tenant_rejections.load(Ordering::Relaxed),
            service_queue_depth: self.service_queue_depth.load(Ordering::Relaxed),
            struct_index_builds: self.struct_index_builds.load(Ordering::Relaxed),
            postings_builds: self.postings_builds.load(Ordering::Relaxed),
            postings_entries: self.postings_entries.load(Ordering::Relaxed),
            documents_parsed: self.documents_parsed.load(Ordering::Relaxed),
            query_nanos_total: self.query_nanos_total.load(Ordering::Relaxed),
            duration_buckets: std::array::from_fn(|i| {
                self.duration_buckets[i].load(Ordering::Relaxed)
            }),
            error_codes: self
                .error_codes
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
        }
    }
}

/// A point-in-time copy of the registry, with text and JSON renderings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub queries_started: u64,
    pub queries_ok: u64,
    pub queries_failed: u64,
    pub fallbacks_taken: u64,
    pub queries_spilled: u64,
    pub spill_io_retries: u64,
    pub transient_retries: u64,
    pub failpoint_trips: u64,
    pub service_admitted: u64,
    pub service_shed: u64,
    pub service_shed_queue_full: u64,
    pub service_shed_reservation: u64,
    pub service_shed_deadline: u64,
    pub service_shed_shutdown: u64,
    pub breaker_trips: u64,
    pub breaker_fast_fails: u64,
    pub doc_cache_hits: u64,
    pub doc_cache_misses: u64,
    pub doc_cache_evictions: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub plan_cache_evictions: u64,
    pub plan_cache_rehydrations: u64,
    pub server_connections: u64,
    pub server_requests: u64,
    pub server_conn_kills: u64,
    pub watchdog_escalations: u64,
    pub tenant_rejections: u64,
    /// Gauge: queued requests at snapshot time, not a monotone counter.
    pub service_queue_depth: u64,
    pub struct_index_builds: u64,
    pub postings_builds: u64,
    pub postings_entries: u64,
    pub documents_parsed: u64,
    pub query_nanos_total: u64,
    pub duration_buckets: [u64; DURATION_BUCKETS],
    pub error_codes: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Count recorded under one error code.
    pub fn error_count(&self, code: &str) -> u64 {
        self.error_codes.get(code).copied().unwrap_or(0)
    }

    /// Human-readable dump, one metric per line.
    pub fn dump_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "queries_started       {}", self.queries_started);
        let _ = writeln!(s, "queries_ok            {}", self.queries_ok);
        let _ = writeln!(s, "queries_failed        {}", self.queries_failed);
        let _ = writeln!(s, "fallbacks_taken       {}", self.fallbacks_taken);
        let _ = writeln!(s, "queries_spilled       {}", self.queries_spilled);
        let _ = writeln!(s, "spill_io_retries      {}", self.spill_io_retries);
        let _ = writeln!(s, "transient_retries     {}", self.transient_retries);
        let _ = writeln!(s, "failpoint_trips       {}", self.failpoint_trips);
        let _ = writeln!(s, "service_admitted      {}", self.service_admitted);
        let _ = writeln!(s, "service_shed          {}", self.service_shed);
        let _ = writeln!(s, "  shed[queue-full]    {}", self.service_shed_queue_full);
        let _ = writeln!(s, "  shed[reservation]   {}", self.service_shed_reservation);
        let _ = writeln!(s, "  shed[ewma-deadline] {}", self.service_shed_deadline);
        let _ = writeln!(s, "  shed[shutdown]      {}", self.service_shed_shutdown);
        let _ = writeln!(s, "breaker_trips         {}", self.breaker_trips);
        let _ = writeln!(s, "breaker_fast_fails    {}", self.breaker_fast_fails);
        let _ = writeln!(s, "doc_cache_hits        {}", self.doc_cache_hits);
        let _ = writeln!(s, "doc_cache_misses      {}", self.doc_cache_misses);
        let _ = writeln!(s, "doc_cache_evictions   {}", self.doc_cache_evictions);
        let _ = writeln!(s, "plan_cache_hits       {}", self.plan_cache_hits);
        let _ = writeln!(s, "plan_cache_misses     {}", self.plan_cache_misses);
        let _ = writeln!(s, "plan_cache_evictions  {}", self.plan_cache_evictions);
        let _ = writeln!(s, "plan_cache_rehydrs    {}", self.plan_cache_rehydrations);
        let _ = writeln!(s, "server_connections    {}", self.server_connections);
        let _ = writeln!(s, "server_requests       {}", self.server_requests);
        let _ = writeln!(s, "server_conn_kills     {}", self.server_conn_kills);
        let _ = writeln!(s, "watchdog_escalations  {}", self.watchdog_escalations);
        let _ = writeln!(s, "tenant_rejections     {}", self.tenant_rejections);
        let _ = writeln!(s, "service_queue_depth   {}", self.service_queue_depth);
        let _ = writeln!(s, "struct_index_builds   {}", self.struct_index_builds);
        let _ = writeln!(s, "postings_builds       {}", self.postings_builds);
        let _ = writeln!(s, "postings_entries      {}", self.postings_entries);
        let _ = writeln!(s, "documents_parsed      {}", self.documents_parsed);
        let _ = writeln!(
            s,
            "query_time_total      {:.3} ms",
            self.query_nanos_total as f64 / 1e6
        );
        for (i, n) in self.duration_buckets.iter().enumerate() {
            if *n > 0 {
                let _ = writeln!(s, "query_time_us[2^{i:<2}]   {n}");
            }
        }
        for (code, n) in &self.error_codes {
            let _ = writeln!(s, "error[{code}]        {n}");
        }
        s
    }

    /// Machine-readable dump (hand-rolled JSON; the workspace carries no
    /// serialization dependency).
    pub fn dump_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"queries_started\":{},\"queries_ok\":{},\"queries_failed\":{},\
             \"fallbacks_taken\":{},\"queries_spilled\":{},\"spill_io_retries\":{},\
             \"transient_retries\":{},\"failpoint_trips\":{},\"service_admitted\":{},\
             \"service_shed\":{},\"service_shed_queue_full\":{},\
             \"service_shed_reservation\":{},\"service_shed_deadline\":{},\
             \"service_shed_shutdown\":{},\"breaker_trips\":{},\"breaker_fast_fails\":{},\
             \"doc_cache_hits\":{},\"doc_cache_misses\":{},\"doc_cache_evictions\":{},\
             \"plan_cache_hits\":{},\"plan_cache_misses\":{},\"plan_cache_evictions\":{},\
             \"plan_cache_rehydrations\":{},\"server_connections\":{},\"server_requests\":{},\
             \"server_conn_kills\":{},\"watchdog_escalations\":{},\"tenant_rejections\":{},\
             \"service_queue_depth\":{},\"struct_index_builds\":{},\"postings_builds\":{},\
             \"postings_entries\":{},\"documents_parsed\":{},\"query_nanos_total\":{}",
            self.queries_started,
            self.queries_ok,
            self.queries_failed,
            self.fallbacks_taken,
            self.queries_spilled,
            self.spill_io_retries,
            self.transient_retries,
            self.failpoint_trips,
            self.service_admitted,
            self.service_shed,
            self.service_shed_queue_full,
            self.service_shed_reservation,
            self.service_shed_deadline,
            self.service_shed_shutdown,
            self.breaker_trips,
            self.breaker_fast_fails,
            self.doc_cache_hits,
            self.doc_cache_misses,
            self.doc_cache_evictions,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_evictions,
            self.plan_cache_rehydrations,
            self.server_connections,
            self.server_requests,
            self.server_conn_kills,
            self.watchdog_escalations,
            self.tenant_rejections,
            self.service_queue_depth,
            self.struct_index_builds,
            self.postings_builds,
            self.postings_entries,
            self.documents_parsed,
            self.query_nanos_total
        );
        s.push_str(",\"duration_buckets_us_log2\":[");
        for (i, n) in self.duration_buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{n}");
        }
        s.push_str("],\"error_codes\":{");
        for (i, (code, n)) in self.error_codes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            // Codes are short alphanumerics; escape defensively anyway.
            let _ = write!(s, "\"{}\":{n}", json_escape(code));
        }
        s.push_str("}}");
        s
    }

    /// Prometheus text exposition (format 0.0.4) of the whole registry,
    /// including the log2 query-duration histogram in cumulative
    /// `_bucket{le=...}` form (bucket `i` covers wall times up to
    /// `2^(i+1)` µs) — the piece `dump_text` only showed as raw per-bucket
    /// counts.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let counters: [(&str, u64); 29] = [
            ("queries_started", self.queries_started),
            ("queries_ok", self.queries_ok),
            ("queries_failed", self.queries_failed),
            ("fallbacks_taken", self.fallbacks_taken),
            ("queries_spilled", self.queries_spilled),
            ("spill_io_retries", self.spill_io_retries),
            ("transient_retries", self.transient_retries),
            ("failpoint_trips", self.failpoint_trips),
            ("service_admitted", self.service_admitted),
            ("service_shed", self.service_shed),
            ("breaker_trips", self.breaker_trips),
            ("breaker_fast_fails", self.breaker_fast_fails),
            ("doc_cache_hits", self.doc_cache_hits),
            ("doc_cache_misses", self.doc_cache_misses),
            ("doc_cache_evictions", self.doc_cache_evictions),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("plan_cache_evictions", self.plan_cache_evictions),
            ("plan_cache_rehydrations", self.plan_cache_rehydrations),
            ("server_connections", self.server_connections),
            ("server_requests", self.server_requests),
            ("server_conn_kills", self.server_conn_kills),
            ("watchdog_escalations", self.watchdog_escalations),
            ("tenant_rejections", self.tenant_rejections),
            ("struct_index_builds", self.struct_index_builds),
            ("postings_builds", self.postings_builds),
            ("postings_entries", self.postings_entries),
            ("documents_parsed", self.documents_parsed),
            ("query_nanos_total", self.query_nanos_total),
        ];
        for (name, v) in counters.iter() {
            let _ = writeln!(s, "# TYPE xqr_{name} counter\nxqr_{name} {v}");
        }
        let _ = writeln!(s, "# TYPE xqr_service_shed_reason counter");
        for (reason, v) in [
            ("queue-full", self.service_shed_queue_full),
            ("unservable-reservation", self.service_shed_reservation),
            ("ewma-deadline", self.service_shed_deadline),
            ("shutdown", self.service_shed_shutdown),
        ] {
            let _ = writeln!(s, "xqr_service_shed_reason{{reason=\"{reason}\"}} {v}");
        }
        let _ = writeln!(
            s,
            "# TYPE xqr_service_queue_depth gauge\nxqr_service_queue_depth {}",
            self.service_queue_depth
        );
        let _ = writeln!(s, "# TYPE xqr_queries_failed_by_code counter");
        for (code, n) in &self.error_codes {
            let _ = writeln!(s, "xqr_queries_failed_by_code{{code=\"{code}\"}} {n}");
        }
        // The log2 wall-time histogram, cumulative Prometheus form. The
        // `le` bound of bucket i is its exclusive upper edge, 2^(i+1) µs;
        // the final bucket is open-ended and doubles as `+Inf`.
        let _ = writeln!(s, "# TYPE xqr_query_duration_us histogram");
        let mut cum = 0u64;
        for (i, n) in self.duration_buckets.iter().enumerate() {
            cum += n;
            if i + 1 < DURATION_BUCKETS {
                let _ = writeln!(
                    s,
                    "xqr_query_duration_us_bucket{{le=\"{}\"}} {cum}",
                    1u64 << (i + 1)
                );
            } else {
                let _ = writeln!(s, "xqr_query_duration_us_bucket{{le=\"+Inf\"}} {cum}");
            }
        }
        let _ = writeln!(
            s,
            "xqr_query_duration_us_sum {}\nxqr_query_duration_us_count {cum}",
            self.query_nanos_total / 1_000
        );
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_deltas() {
        let before = metrics().snapshot();
        metrics().record_query_start();
        metrics().record_query_ok(1_500_000); // 1.5 ms → bucket log2(1500)=10
        metrics().record_query_error("XQRG0003");
        metrics().record_fallback();
        metrics().record_query_spilled();
        metrics().record_spill_io_retry();
        metrics().record_failpoint_trip();
        metrics().record_struct_index_build();
        metrics().record_postings_build(42);
        let after = metrics().snapshot();
        assert!(after.queries_started > before.queries_started);
        assert!(after.queries_ok > before.queries_ok);
        assert!(after.queries_failed > before.queries_failed);
        assert!(after.fallbacks_taken > before.fallbacks_taken);
        assert!(after.queries_spilled > before.queries_spilled);
        assert!(after.spill_io_retries > before.spill_io_retries);
        assert!(after.failpoint_trips > before.failpoint_trips);
        assert!(after.struct_index_builds > before.struct_index_builds);
        assert!(after.postings_entries >= before.postings_entries + 42);
        assert!(after.error_count("XQRG0003") > before.error_count("XQRG0003"));
        assert!(after.duration_buckets[10] > before.duration_buckets[10]);
    }

    #[test]
    fn service_counters_are_monotone_deltas() {
        let before = metrics().snapshot();
        metrics().record_transient_retry();
        metrics().record_service_admitted();
        metrics().record_service_shed(ShedReason::QueueFull);
        metrics().record_service_shed(ShedReason::Deadline);
        metrics().record_breaker_trip();
        metrics().record_breaker_fast_fail();
        metrics().record_doc_cache_hit();
        metrics().record_doc_cache_miss();
        metrics().record_doc_cache_eviction();
        metrics().record_plan_cache_hit();
        metrics().record_plan_cache_miss();
        metrics().record_plan_cache_eviction();
        metrics().record_plan_cache_rehydration();
        let after = metrics().snapshot();
        assert!(after.transient_retries > before.transient_retries);
        assert!(after.service_admitted > before.service_admitted);
        assert!(after.service_shed >= before.service_shed + 2);
        assert!(after.service_shed_queue_full > before.service_shed_queue_full);
        assert!(after.service_shed_deadline > before.service_shed_deadline);
        assert!(after.breaker_trips > before.breaker_trips);
        assert!(after.breaker_fast_fails > before.breaker_fast_fails);
        assert!(after.doc_cache_hits > before.doc_cache_hits);
        assert!(after.doc_cache_misses > before.doc_cache_misses);
        assert!(after.doc_cache_evictions > before.doc_cache_evictions);
        assert!(after.plan_cache_hits > before.plan_cache_hits);
        assert!(after.plan_cache_misses > before.plan_cache_misses);
        assert!(after.plan_cache_evictions > before.plan_cache_evictions);
        assert!(after.plan_cache_rehydrations > before.plan_cache_rehydrations);
    }

    #[test]
    fn queue_depth_gauge_tracks_enter_and_leave() {
        // The gauge is global; other tests do not touch it (services in
        // integration tests run in separate processes), so enter/leave
        // pairs net to the starting value.
        let base = metrics().snapshot().service_queue_depth;
        metrics().record_queue_enter();
        metrics().record_queue_enter();
        assert!(metrics().snapshot().service_queue_depth >= base + 2);
        metrics().record_queue_leave();
        metrics().record_queue_leave();
        assert_eq!(metrics().snapshot().service_queue_depth, base);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1_000), 0); // 1 µs
        assert_eq!(bucket_of(2_000), 1);
        assert_eq!(bucket_of(1_024_000), 10);
        assert_eq!(bucket_of(u64::MAX), DURATION_BUCKETS - 1);
    }

    #[test]
    fn dumps_render() {
        let s = metrics().snapshot();
        assert!(s.dump_text().contains("queries_started"));
        let j = s.dump_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"queries_started\""));
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn hist_index_is_monotone_and_bounded() {
        // Exact small values, continuity at octave edges, clamp at top.
        assert_eq!(hist_index(0), 0);
        assert_eq!(hist_index(15), 15);
        assert_eq!(hist_index(16), 16);
        assert_eq!(hist_index(31), 31);
        let mut prev = 0usize;
        for shift in 0..50u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, v * 2 - 1] {
                let i = hist_index(probe);
                assert!(i >= prev || probe < 32, "non-monotone at {probe}");
                assert!(i < HIST_BUCKETS, "index {i} out of range for {probe}");
                prev = prev.max(i);
            }
        }
        // Bucket lower bounds are consistent with indexing: every lower
        // bound maps back into its own bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(hist_index(hist_lower(i)), i, "lower bound of {i}");
        }
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let h = LatencyHistogram::new();
        // 10_000 observations uniform over [1ms, 2ms): p50 ≈ 1.5ms.
        for k in 0..10_000u64 {
            h.record(1_000_000 + k * 100);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 1_999_900);
        for (q, expect) in [(0.5, 1_500_000.0), (0.95, 1_950_000.0), (0.99, 1_990_000.0)] {
            let got = s.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.08, "q{q}: got {got}, want ~{expect} (rel {rel:.3})");
        }
        assert!(s.quantile(1.0) <= s.max);
        assert!(s.mean() >= 1_400_000 && s.mean() <= 1_600_000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        metrics().record_query_ok(3_000_000); // 3 ms → log2 bucket 11
        let s = metrics().snapshot();
        let text = s.prometheus_text();
        assert!(text.contains("# TYPE xqr_queries_ok counter"));
        assert!(text.contains("# TYPE xqr_query_duration_us histogram"));
        assert!(text.contains("xqr_query_duration_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("xqr_service_shed_reason{reason=\"queue-full\"}"));
        // Cumulative buckets are monotone non-decreasing and the +Inf
        // bucket equals the count.
        let mut last = 0u64;
        let mut inf = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("xqr_query_duration_us_bucket") {
                let v: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(v >= last, "cumulative bucket decreased: {line}");
                last = v;
                if rest.contains("+Inf") {
                    inf = v;
                }
            }
        }
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("xqr_query_duration_us_count "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf, count);
        assert!(count >= 1);
    }
}
