//! The resource governor: execution limits, cooperative cancellation, and
//! budget accounting shared by every evaluation path.
//!
//! The engine serves untrusted queries; a single deeply nested FLWOR or an
//! exponential `Product` plan can otherwise pin a core or exhaust memory.
//! [`Limits`] declares the budgets (wall-clock deadline, tuple-operation
//! cardinality, approximate bytes of materialized state, recursion and
//! nesting depths); a [`Governor`] carries the running counters plus a
//! [`CancellationToken`] and is checked *cooperatively* from the hot loops
//! of both engines (every tuple cursor `next()`, the breaker loops, join
//! build/probe phases, the Core interpreter's clause streams, and document
//! parsing).
//!
//! Violations surface as [`XmlError`]s with stable governor codes in the
//! repo's `err:`-style convention:
//!
//! | code | budget |
//! |---|---|
//! | `XQRG0001` | wall-clock deadline exceeded |
//! | `XQRG0002` | cancelled via [`CancellationToken`] |
//! | `XQRG0003` | tuple-operation cardinality budget exceeded |
//! | `XQRG0004` | memory (byte) budget exceeded (spilling disabled) |
//! | `XQRG0005` | spill I/O failed after retries |
//! | `XQRG0006` | spill disk budget exceeded |
//! | `XQRG0007` | shed by the query service's admission controller |
//! | `XQRG0008` | fast-failed by an open per-shape circuit breaker |
//! | `XQRT0005` | function recursion depth exceeded (pre-existing code) |
//!
//! With spilling **enabled** (the default), the byte budget degrades
//! instead of killing: crossing the *soft watermark* (a percentage of
//! `max_bytes`, default 80%) flips the governor into spill mode, and the
//! memory-bound operators (join build, group-by partitions, order-by)
//! switch to their out-of-core variants in `xqr-runtime`'s `spill`
//! module. The hard `XQRG0004` trip then only fires when spilling is
//! disabled with [`Limits::with_spill`]`(None)`; disk consumption is
//! separately bounded by `max_spill_bytes` (`XQRG0006`).
//!
//! Cost model: [`Governor::tick`] is one `Cell` increment, one integer
//! compare, and a predictable branch; the clock and the atomic cancel flag
//! are consulted only every [`TIME_CHECK_MASK`]+1 ticks, so an un-governed
//! run (all budgets `None`) pays only the counter arithmetic.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::metrics;
use crate::XmlError;

/// Deadline exceeded.
pub const ERR_DEADLINE: &str = "XQRG0001";
/// Cancelled through a [`CancellationToken`].
pub const ERR_CANCELLED: &str = "XQRG0002";
/// Tuple-operation cardinality budget exceeded.
pub const ERR_TUPLES: &str = "XQRG0003";
/// Approximate-memory budget exceeded.
pub const ERR_BYTES: &str = "XQRG0004";
/// Spill I/O failed after the retry budget (3 attempts, capped backoff).
pub const ERR_SPILL_IO: &str = "XQRG0005";
/// Spill disk budget (`max_spill_bytes`) exceeded.
pub const ERR_SPILL_BUDGET: &str = "XQRG0006";
/// The query service's admission controller shed the request (overload:
/// queue full, aggregate memory over-committed, or the remaining deadline
/// cannot cover the expected queue wait).
pub const ERR_OVERLOADED: &str = "XQRG0007";
/// The per-query-shape circuit breaker is open: this plan shape has
/// repeatedly failed with internal errors and is fast-failed until the
/// cooldown half-opens the breaker.
pub const ERR_BREAKER: &str = "XQRG0008";
/// A per-tenant session quota refused the request before service
/// admission: too many concurrent queries for the tenant, the tenant's
/// aggregate reservation share is exhausted, or its request rate bucket
/// is empty. Distinct from `XQRG0007` (service-wide overload) so clients
/// can tell "you are over *your* budget" from "the service is full".
pub const ERR_TENANT: &str = "XQRG0009";
/// Function recursion depth exceeded (kept from the pre-governor guard so
/// existing callers observe the same code).
pub const ERR_RECURSION: &str = "XQRT0005";

/// Ticks between clock/cancel-flag consultations (power of two minus one,
/// used as a mask). 1023 ticks is well under a millisecond of tuple work,
/// so a deadline is honored with far less than 2× slack.
pub const TIME_CHECK_MASK: u64 = 0x3FF;

/// Declarative resource limits for one execution. `None`/`usize::MAX`
/// means unlimited; [`Limits::default`] is fully permissive apart from the
/// depth guards, which keep their pre-governor defaults.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Wall-clock budget for one `run` (measured from governor creation).
    pub deadline: Option<Duration>,
    /// Budget on tuple *operations*: every tuple produced or inspected by
    /// an operator loop (in either engine) charges one unit, so the
    /// bound scales with work done, not just output size.
    pub max_tuples: Option<u64>,
    /// Budget on the approximate bytes of materialized operator state
    /// (intermediate tables, join indexes, group-by partitions).
    pub max_bytes: Option<u64>,
    /// Whether the memory-bound operators may degrade to disk when the
    /// byte budget comes under pressure (the default). When `false`, the
    /// hard `XQRG0004` trip of PR 2 is restored.
    pub spill_enabled: bool,
    /// Budget on bytes written to spill files at any one time; `None` is
    /// unlimited disk. Exceeding it fails the query with `XQRG0006`.
    pub max_spill_bytes: Option<u64>,
    /// Percentage of `max_bytes` at which the governor flips into spill
    /// mode (the *soft watermark*). Clamped to 1..=100.
    pub spill_watermark_pct: u8,
    /// Directory for the per-query scoped spill dir; defaults to the
    /// `XQR_SPILL_DIR` environment variable, then the system temp dir.
    pub spill_dir: Option<PathBuf>,
    /// User-function recursion depth (both engines).
    pub max_recursion_depth: usize,
    /// Expression nesting depth in the query parser.
    pub max_parse_depth: usize,
    /// Element nesting depth in XML document parsing.
    pub max_document_depth: usize,
    /// Fault injection for testing the isolation boundary: panic after
    /// this many governor ticks, so tests can prove a panic inside
    /// execution surfaces as a structured internal error. Never set in
    /// production.
    pub panic_after_ticks: Option<u64>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            deadline: None,
            max_tuples: None,
            max_bytes: None,
            spill_enabled: true,
            max_spill_bytes: None,
            spill_watermark_pct: 80,
            spill_dir: None,
            max_recursion_depth: 200,
            max_parse_depth: 128,
            max_document_depth: 512,
            panic_after_ticks: None,
        }
    }
}

impl Limits {
    /// Fully permissive limits (depth guards at their defaults).
    pub fn none() -> Limits {
        Limits::default()
    }

    pub fn with_deadline(mut self, d: Duration) -> Limits {
        self.deadline = Some(d);
        self
    }

    pub fn with_max_tuples(mut self, n: u64) -> Limits {
        self.max_tuples = Some(n);
        self
    }

    pub fn with_max_bytes(mut self, n: u64) -> Limits {
        self.max_bytes = Some(n);
        self
    }

    /// Configures spilling: `None` disables it entirely (restoring the
    /// hard `XQRG0004` byte-budget trip), `Some(n)` enables it with a disk
    /// budget of `n` bytes. Spilling is on with unlimited disk by default;
    /// use `with_spill(Some(n))` to bound the disk footprint.
    pub fn with_spill(mut self, disk_budget: Option<u64>) -> Limits {
        match disk_budget {
            None => {
                self.spill_enabled = false;
                self.max_spill_bytes = None;
            }
            Some(n) => {
                self.spill_enabled = true;
                self.max_spill_bytes = Some(n);
            }
        }
        self
    }

    /// Sets the soft watermark as a percentage of `max_bytes` (default
    /// 80). Values are clamped to 1..=100 at governor creation.
    pub fn with_spill_watermark(mut self, pct: u8) -> Limits {
        self.spill_watermark_pct = pct;
        self
    }

    /// Overrides the parent directory for per-query spill dirs (takes
    /// precedence over the `XQR_SPILL_DIR` environment variable).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Limits {
        self.spill_dir = Some(dir.into());
        self
    }

    pub fn with_max_recursion_depth(mut self, n: usize) -> Limits {
        self.max_recursion_depth = n;
        self
    }

    pub fn with_max_parse_depth(mut self, n: usize) -> Limits {
        self.max_parse_depth = n;
        self
    }

    pub fn with_max_document_depth(mut self, n: usize) -> Limits {
        self.max_document_depth = n;
        self
    }
}

/// A thread-safe cancellation handle. Clone it, hand the clone to another
/// thread (the token is `Send + Sync` even though query values are not),
/// and `cancel()` flips a flag the governor polls cooperatively.
///
/// The token doubles as a **liveness probe**: every time the governor
/// consults the clock/cancel flag (the sampled `tick` path, an explicit
/// `check_time`, the document parser's per-element check) it bumps a
/// shared progress counter. A supervisor on another thread can read
/// [`CancellationToken::progress`] periodically — a query whose counter
/// stops moving is stuck somewhere that never reaches the governor (a
/// blocked loader, a stalled syscall), which is exactly the case the
/// deadline alone cannot catch.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
    progress: Arc<AtomicU64>,
}

impl CancellationToken {
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Requests cancellation; the running query observes it at its next
    /// time-check tick and fails with `XQRG0002`.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Monotone liveness counter: incremented on every governor
    /// clock/cancel consultation for the run holding this token. Two
    /// equal reads spaced in time mean the run made no governed progress
    /// in between.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Bumps the liveness counter (called by the governor; also available
    /// to long blocking operations that want to report liveness without a
    /// governor in reach).
    pub fn mark_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }
}

struct GovernorInner {
    token: CancellationToken,
    deadline: Option<Instant>,
    max_tuples: u64,
    max_bytes: u64,
    max_depth: usize,
    tuples: Cell<u64>,
    /// Tuple count at which the slow path must run next: the minimum of
    /// the next clock/cancel consultation, the budget trip point, and the
    /// fault-injection point. Keeps the hot path to one compare.
    next_event: Cell<u64>,
    /// Next tick count at which to consult the clock and cancel flag.
    next_time_check: Cell<u64>,
    bytes: Cell<u64>,
    /// High-water mark of `bytes` (live accounting means `bytes` can go
    /// down; profiling wants the peak).
    peak_bytes: Cell<u64>,
    /// Byte count at which spill mode flips on; `u64::MAX` when spilling
    /// is disabled or no byte budget is set.
    spill_watermark: Cell<u64>,
    /// Sticky: once the watermark is crossed, spill-capable operators stay
    /// in spill mode for the rest of the run.
    spill_mode: Cell<bool>,
    spill_enabled: bool,
    max_spill_bytes: u64,
    /// Live bytes currently held in spill files.
    spill_bytes: Cell<u64>,
    /// Total bytes ever written to spill files this run (observability).
    spill_bytes_total: Cell<u64>,
    spill_dir: Option<PathBuf>,
    depth: Cell<usize>,
    /// Fault-injection trip point; `u64::MAX` when disarmed.
    panic_at: Cell<u64>,
}

/// The running budget counters for one execution, shared (`Rc`) between
/// the dynamic context, cursors, and the document parser. All methods take
/// `&self`; the runtime is single-threaded, so plain `Cell` counters
/// suffice — only the cancel flag crosses threads.
#[derive(Clone)]
pub struct Governor(Rc<GovernorInner>);

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("tuples", &self.0.tuples.get())
            .field("bytes", &self.0.bytes.get())
            .field("depth", &self.0.depth.get())
            .finish_non_exhaustive()
    }
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::unlimited()
    }
}

impl Governor {
    /// A governor that enforces nothing beyond the default recursion
    /// guard — the zero-configuration path.
    pub fn unlimited() -> Governor {
        Governor::new(&Limits::default(), CancellationToken::new())
    }

    /// Starts the clock: the deadline is measured from this call.
    pub fn new(limits: &Limits, token: CancellationToken) -> Governor {
        let max_bytes = limits.max_bytes.unwrap_or(u64::MAX);
        let watermark = if limits.spill_enabled && max_bytes != u64::MAX {
            let pct = limits.spill_watermark_pct.clamp(1, 100) as u64;
            (max_bytes / 100).saturating_mul(pct).max(1)
        } else {
            u64::MAX
        };
        let g = Governor(Rc::new(GovernorInner {
            token,
            deadline: limits.deadline.map(|d| Instant::now() + d),
            max_tuples: limits.max_tuples.unwrap_or(u64::MAX),
            max_bytes,
            max_depth: limits.max_recursion_depth,
            tuples: Cell::new(0),
            next_event: Cell::new(0),
            next_time_check: Cell::new(TIME_CHECK_MASK + 1),
            bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
            spill_watermark: Cell::new(watermark),
            spill_mode: Cell::new(false),
            spill_enabled: limits.spill_enabled,
            max_spill_bytes: limits.max_spill_bytes.unwrap_or(u64::MAX),
            spill_bytes: Cell::new(0),
            spill_bytes_total: Cell::new(0),
            spill_dir: limits.spill_dir.clone(),
            depth: Cell::new(0),
            panic_at: Cell::new(limits.panic_after_ticks.unwrap_or(u64::MAX)),
        }));
        g.rearm();
        g
    }

    /// Recomputes the single hot-path threshold from the pending events.
    fn rearm(&self) {
        let g = &*self.0;
        let budget_trip = g.max_tuples.saturating_add(1);
        let next = g
            .next_time_check
            .get()
            .min(budget_trip)
            .min(g.panic_at.get());
        g.next_event.set(next);
    }

    /// One unit of tuple work: increments the cardinality counter and,
    /// when the precomputed event threshold is reached, runs the slow path
    /// (budget check, clock/cancel consultation every `TIME_CHECK_MASK+1`
    /// ticks, fault injection). The common case is one `Cell` increment
    /// and one compare.
    #[inline]
    pub fn tick(&self) -> crate::Result<()> {
        let g = &*self.0;
        let n = g.tuples.get() + 1;
        g.tuples.set(n);
        if n >= g.next_event.get() {
            self.slow_tick(n)?;
        }
        Ok(())
    }

    /// Charges `n` units of tuple work at once (bulk operator loops charge
    /// before allocating their output, so an exploding `Product` trips the
    /// budget before the allocation is attempted).
    #[inline]
    pub fn charge_tuples(&self, n: u64) -> crate::Result<()> {
        let g = &*self.0;
        let total = g.tuples.get().saturating_add(n);
        g.tuples.set(total);
        if total >= g.next_event.get() {
            self.slow_tick(total)?;
        }
        Ok(())
    }

    /// The amortized event path: runs only when the tick counter crosses
    /// `next_event`, so its cost is spread over at least
    /// `TIME_CHECK_MASK + 1` units of tuple work.
    #[inline(never)]
    fn slow_tick(&self, n: u64) -> crate::Result<()> {
        let g = &*self.0;
        if n > g.max_tuples {
            return Err(self.trip_tuples());
        }
        let panic_at = g.panic_at.get();
        if n >= panic_at {
            g.panic_at.set(u64::MAX);
            self.rearm();
            panic!("governor fault injection: panic_after_ticks={panic_at} reached");
        }
        if n >= g.next_time_check.get() {
            g.next_time_check.set(n + TIME_CHECK_MASK + 1);
            self.rearm();
            self.check_time()?;
        }
        Ok(())
    }

    /// Charges approximate bytes of materialized state. With spilling
    /// enabled (the default), crossing the soft watermark flips the
    /// governor into spill mode and the charge always succeeds — the byte
    /// budget becomes advisory and enforcement moves to the disk budget.
    /// With spilling disabled, exceeding `max_bytes` trips `XQRG0004`.
    #[inline]
    pub fn charge_bytes(&self, n: u64) -> crate::Result<()> {
        let g = &*self.0;
        let total = g.bytes.get().saturating_add(n);
        g.bytes.set(total);
        if total > g.peak_bytes.get() {
            g.peak_bytes.set(total);
        }
        if total >= g.spill_watermark.get() {
            // One-time flip; the watermark cell is re-used as the "already
            // flipped" latch so the hot path stays a single compare.
            g.spill_watermark.set(u64::MAX);
            g.spill_mode.set(true);
            metrics().record_query_spilled();
        }
        if total > g.max_bytes && !g.spill_enabled {
            return Err(XmlError::new(
                ERR_BYTES,
                format!(
                    "memory budget exceeded: ~{total} bytes of materialized state \
                     (limit {})",
                    g.max_bytes
                ),
            ));
        }
        Ok(())
    }

    /// Returns bytes of materialized state that have been freed (a join
    /// build dropped, a partition flushed to disk). Live accounting: the
    /// budget meters what is held *now*, not the cumulative total — the
    /// peak is kept separately for profiling. Releasing does not unflip
    /// spill mode (the flip is sticky by design: a query that crossed the
    /// watermark once is assumed to be at risk of doing it again).
    #[inline]
    pub fn release_bytes(&self, n: u64) {
        let g = &*self.0;
        g.bytes.set(g.bytes.get().saturating_sub(n));
    }

    /// Charges bytes written to a spill file against the disk budget
    /// (`XQRG0006` on exhaustion).
    pub fn charge_spill_bytes(&self, n: u64) -> crate::Result<()> {
        let g = &*self.0;
        let total = g.spill_bytes.get().saturating_add(n);
        g.spill_bytes.set(total);
        g.spill_bytes_total
            .set(g.spill_bytes_total.get().saturating_add(n));
        if total > g.max_spill_bytes {
            return Err(XmlError::new(
                ERR_SPILL_BUDGET,
                format!(
                    "spill disk budget exceeded: ~{total} bytes spilled (limit {})",
                    g.max_spill_bytes
                ),
            ));
        }
        Ok(())
    }

    /// Returns disk bytes freed when a spill file is deleted.
    pub fn release_spill_bytes(&self, n: u64) {
        let g = &*self.0;
        g.spill_bytes.set(g.spill_bytes.get().saturating_sub(n));
    }

    /// Should spill-capable operators run their out-of-core variant? True
    /// once the soft watermark has been crossed (sticky for the run).
    #[inline]
    pub fn should_spill(&self) -> bool {
        self.0.spill_mode.get()
    }

    /// Forces spill mode on (tests and the forced-spill CI run).
    pub fn force_spill_mode(&self) {
        let g = &*self.0;
        if !g.spill_mode.get() && g.spill_enabled {
            g.spill_watermark.set(u64::MAX);
            g.spill_mode.set(true);
            metrics().record_query_spilled();
        }
    }

    /// Is spilling allowed by the limits at all?
    pub fn spill_enabled(&self) -> bool {
        self.0.spill_enabled
    }

    /// Did this run ever enter spill mode? (Engine trace/fallback notes.)
    pub fn spilled(&self) -> bool {
        self.0.spill_mode.get()
    }

    /// Configured parent directory for spill files, if any.
    pub fn spill_dir(&self) -> Option<&PathBuf> {
        self.0.spill_dir.as_ref()
    }

    /// High-water mark of live materialized bytes (profiling).
    pub fn peak_bytes(&self) -> u64 {
        self.0.peak_bytes.get()
    }

    /// Live bytes currently held in spill files.
    pub fn spill_bytes_used(&self) -> u64 {
        self.0.spill_bytes.get()
    }

    /// Total bytes ever written to spill files this run.
    pub fn spill_bytes_total(&self) -> u64 {
        self.0.spill_bytes_total.get()
    }

    /// Time left until the wall-clock deadline (`None` when no deadline is
    /// configured; zero once it has passed). Retry backoff and admission
    /// queues consult this so waiting never overshoots the budget.
    pub fn remaining_deadline(&self) -> Option<Duration> {
        self.0
            .deadline
            .map(|dl| dl.saturating_duration_since(Instant::now()))
    }

    /// Forces a clock/cancel check regardless of the tick phase. Cheap
    /// enough for per-element use in the document parser. Each check also
    /// bumps the token's liveness counter ([`CancellationToken::progress`])
    /// so an external watchdog can distinguish "slow but alive" from
    /// "stuck outside the governor's reach".
    pub fn check_time(&self) -> crate::Result<()> {
        let g = &*self.0;
        g.token.mark_progress();
        if g.token.is_cancelled() {
            return Err(XmlError::new(ERR_CANCELLED, "execution cancelled"));
        }
        if let Some(dl) = g.deadline {
            if Instant::now() > dl {
                return Err(XmlError::new(ERR_DEADLINE, "wall-clock deadline exceeded"));
            }
        }
        Ok(())
    }

    /// Enters a user-function frame; the single recursion-depth authority
    /// for both the plan evaluator and the Core interpreter.
    pub fn enter_frame(&self) -> crate::Result<()> {
        let g = &*self.0;
        let d = g.depth.get() + 1;
        if d > g.max_depth {
            return Err(XmlError::new(
                ERR_RECURSION,
                "function recursion limit exceeded",
            ));
        }
        g.depth.set(d);
        Ok(())
    }

    pub fn exit_frame(&self) {
        let g = &*self.0;
        g.depth.set(g.depth.get().saturating_sub(1));
    }

    /// Tuple-work units consumed so far (diagnostics / tests).
    pub fn tuples_used(&self) -> u64 {
        self.0.tuples.get()
    }

    /// The tuple-work counter doubling as the observability layer's
    /// sampling clock: the profiler samples `Instant::now()` only when
    /// this counter crosses a subsampling phase, so a profiled hot loop
    /// pays one extra compare per tuple and no syscalls (see
    /// `xqr-runtime`'s `profile` module). Reusing the governor counter
    /// means profiling adds no second per-tuple increment.
    #[inline]
    pub fn sampling_clock(&self) -> u64 {
        self.0.tuples.get()
    }

    /// Approximate bytes charged so far (diagnostics / tests).
    pub fn bytes_used(&self) -> u64 {
        self.0.bytes.get()
    }

    /// Is a byte budget configured at all? Callers use this to skip the
    /// O(table) footprint estimate when nobody is counting.
    #[inline]
    pub fn has_byte_budget(&self) -> bool {
        self.0.max_bytes != u64::MAX
    }

    /// The configured byte budget (spill operators size their in-memory
    /// working sets — sort runs, join partitions — from it).
    pub fn max_bytes(&self) -> Option<u64> {
        if self.0.max_bytes == u64::MAX {
            None
        } else {
            Some(self.0.max_bytes)
        }
    }

    pub fn token(&self) -> &CancellationToken {
        &self.0.token
    }

    #[cold]
    fn trip_tuples(&self) -> XmlError {
        XmlError::new(
            ERR_TUPLES,
            format!(
                "cardinality budget exceeded: more than {} tuple operations",
                self.0.max_tuples
            ),
        )
    }
}

/// A scoped byte charge against the governor's live-byte accounting: bytes
/// added through [`ByteCharge::add`] are released when the guard drops —
/// on every exit path, including errors and unwinds — so a join build or
/// materialized cursor stops counting against the budget the moment it is
/// freed. Call [`ByteCharge::leak`] to keep the bytes charged past the
/// guard's lifetime (the caller then owns the release).
pub struct ByteCharge {
    gov: Governor,
    n: u64,
}

impl ByteCharge {
    pub fn new(gov: &Governor) -> ByteCharge {
        ByteCharge {
            gov: gov.clone(),
            n: 0,
        }
    }

    /// Charges `n` more bytes, remembered for release on drop.
    pub fn add(&mut self, n: u64) -> crate::Result<()> {
        self.n += n;
        self.gov.charge_bytes(n)
    }

    /// Bytes currently held by this guard.
    pub fn amount(&self) -> u64 {
        self.n
    }

    /// Forgets the held bytes without releasing them: the charge becomes
    /// permanent for the run (pre-live-accounting behavior, used where the
    /// charged state genuinely stays alive to the end of the query).
    pub fn leak(mut self) {
        self.n = 0;
    }
}

impl Drop for ByteCharge {
    fn drop(&mut self) {
        if self.n > 0 {
            self.gov.release_bytes(self.n);
        }
    }
}

/// Is this error one of the governor's budget codes? (The engine boundary
/// uses this to classify `Dynamic` vs `LimitExceeded`.)
pub fn is_limit_code(code: &str) -> bool {
    matches!(
        code,
        ERR_DEADLINE
            | ERR_CANCELLED
            | ERR_TUPLES
            | ERR_BYTES
            | ERR_SPILL_IO
            | ERR_SPILL_BUDGET
            | ERR_OVERLOADED
            | ERR_BREAKER
            | ERR_TENANT
            | ERR_RECURSION
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips_on_work() {
        let g = Governor::unlimited();
        for _ in 0..10_000 {
            g.tick().unwrap();
        }
        g.charge_bytes(u64::MAX / 2).unwrap();
        assert_eq!(g.tuples_used(), 10_000);
    }

    #[test]
    fn tuple_budget_trips_exactly() {
        let g = Governor::new(
            &Limits::default().with_max_tuples(10),
            CancellationToken::new(),
        );
        for _ in 0..10 {
            g.tick().unwrap();
        }
        assert_eq!(g.tick().unwrap_err().code, ERR_TUPLES);
    }

    #[test]
    fn byte_budget_trips_when_spill_disabled() {
        let g = Governor::new(
            &Limits::default().with_max_bytes(1000).with_spill(None),
            CancellationToken::new(),
        );
        g.charge_bytes(600).unwrap();
        assert_eq!(g.charge_bytes(600).unwrap_err().code, ERR_BYTES);
    }

    #[test]
    fn byte_budget_degrades_to_spill_mode_by_default() {
        let g = Governor::new(
            &Limits::default().with_max_bytes(1000),
            CancellationToken::new(),
        );
        assert!(!g.should_spill());
        g.charge_bytes(600).unwrap();
        assert!(!g.should_spill());
        // Crossing 80% of 1000 flips spill mode; the hard limit no longer
        // trips because the operators are expected to shed state to disk.
        g.charge_bytes(600).unwrap();
        assert!(g.should_spill());
        g.charge_bytes(10_000).unwrap();
        assert!(g.spilled());
    }

    #[test]
    fn release_restores_live_bytes_but_keeps_peak_and_spill_mode() {
        let g = Governor::new(
            &Limits::default().with_max_bytes(1000),
            CancellationToken::new(),
        );
        g.charge_bytes(900).unwrap();
        assert!(g.should_spill());
        g.release_bytes(900);
        assert_eq!(g.bytes_used(), 0);
        assert_eq!(g.peak_bytes(), 900);
        assert!(g.should_spill(), "spill flip is sticky");
    }

    #[test]
    fn release_lets_sequential_state_fit_when_spill_disabled() {
        // The live-accounting fix: two 600-byte builds that never coexist
        // fit a 1000-byte budget once the first is released.
        let g = Governor::new(
            &Limits::default().with_max_bytes(1000).with_spill(None),
            CancellationToken::new(),
        );
        g.charge_bytes(600).unwrap();
        g.release_bytes(600);
        g.charge_bytes(600).unwrap();
        assert_eq!(g.peak_bytes(), 600);
    }

    #[test]
    fn byte_charge_guard_releases_on_drop() {
        let g = Governor::new(
            &Limits::default().with_max_bytes(1000).with_spill(None),
            CancellationToken::new(),
        );
        {
            let mut c = ByteCharge::new(&g);
            c.add(700).unwrap();
            assert_eq!(g.bytes_used(), 700);
        }
        assert_eq!(g.bytes_used(), 0);
        let mut c = ByteCharge::new(&g);
        c.add(500).unwrap();
        c.leak();
        assert_eq!(g.bytes_used(), 500, "leaked charge stays");
    }

    #[test]
    fn spill_disk_budget_trips() {
        let g = Governor::new(
            &Limits::default().with_max_bytes(100).with_spill(Some(1000)),
            CancellationToken::new(),
        );
        g.charge_spill_bytes(800).unwrap();
        assert_eq!(
            g.charge_spill_bytes(800).unwrap_err().code,
            ERR_SPILL_BUDGET
        );
        g.release_spill_bytes(1600);
        assert_eq!(g.spill_bytes_used(), 0);
        assert_eq!(g.spill_bytes_total(), 1600);
    }

    #[test]
    fn force_spill_mode_respects_disablement() {
        let g = Governor::new(
            &Limits::default().with_spill(None),
            CancellationToken::new(),
        );
        g.force_spill_mode();
        assert!(!g.should_spill());
        let g2 = Governor::unlimited();
        g2.force_spill_mode();
        assert!(g2.should_spill());
    }

    #[test]
    fn deadline_trips_via_tick() {
        let g = Governor::new(
            &Limits::default().with_deadline(Duration::from_millis(0)),
            CancellationToken::new(),
        );
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = None;
        for _ in 0..=TIME_CHECK_MASK + 1 {
            if let Err(e) = g.tick() {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(tripped.expect("deadline observed").code, ERR_DEADLINE);
    }

    #[test]
    fn cancellation_crosses_threads() {
        let g = Governor::new(&Limits::default(), CancellationToken::new());
        let token = g.token().clone();
        std::thread::spawn(move || token.cancel()).join().unwrap();
        assert_eq!(g.check_time().unwrap_err().code, ERR_CANCELLED);
    }

    #[test]
    fn recursion_depth_is_tracked_here() {
        let g = Governor::new(
            &Limits::default().with_max_recursion_depth(2),
            CancellationToken::new(),
        );
        g.enter_frame().unwrap();
        g.enter_frame().unwrap();
        assert_eq!(g.enter_frame().unwrap_err().code, ERR_RECURSION);
        g.exit_frame();
        g.exit_frame();
        g.enter_frame().unwrap();
    }

    #[test]
    fn clones_share_counters() {
        let g = Governor::new(
            &Limits::default().with_max_tuples(5),
            CancellationToken::new(),
        );
        let g2 = g.clone();
        for _ in 0..5 {
            g.tick().unwrap();
        }
        assert_eq!(g2.tick().unwrap_err().code, ERR_TUPLES);
    }
}
