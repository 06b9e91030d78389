//! Per-operator runtime profiling (`EXPLAIN ANALYZE`).
//!
//! A [`Profiler`] is created per query run and registered against the plan
//! the evaluator executes; every instrumented site — tuple cursors, the
//! evaluator's breaker and boundary arms, join builds, group-by
//! partitioning, and TreeJoin kernel dispatch — accumulates into one [`OpStats`] per plan
//! node. After the run, [`Profiler::snapshot`] freezes the counters into a
//! [`QueryProfile`] tree mirroring the plan shape, renderable as annotated
//! plan text or JSON.
//!
//! ## Sampled timing
//!
//! Per-tuple `Instant::now()` would dwarf the operators being measured, so
//! timing is *sampled*: the governor's tuple-work counter (see
//! `Governor::sampling_clock`) doubles as a free-running clock, and a unit
//! of work is timed only when the clock sits on a 1-in-64 phase — except
//! that each operator's first [`SAMPLE_FULL`] units are always timed, so
//! short streams (the common case for dependent sub-plans) are measured
//! exactly rather than extrapolated from zero or one sample. The exact
//! prefix is kept apart from the steady-state samples: the estimate is
//! `prefix_nanos + sampled_nanos × (calls − prefix) / sampled_units`, so
//! expensive warm-up units (first-touch allocation, lazy index builds)
//! never get multiplied across the whole stream. The profiled hot path is
//! therefore two `Cell` bumps and one compare per unit, and the disabled
//! path is a single `Option` check at operator open/dispatch.
//!
//! ## Plan-node identity
//!
//! Stats attach to plan nodes by address: `register` walks the exact plan
//! tree the evaluator runs (the per-run body clone) and maps each node's
//! address to a preorder index over the `Op::children()` traversal — the
//! same order `pretty::indented_annotated` consumes, so a profile's
//! annotation vector lines up with the prepared plan (an identically
//! shaped clone) with no re-matching. Registered addresses outlive the run
//! (the body clone lives across evaluation), so a lookup can never observe
//! a recycled address; unregistered plans (per-call function body clones,
//! globals) silently run unprofiled.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::time::Instant;

use xqr_core::algebra::Plan;
use xqr_core::pretty::op_label;
use xqr_xml::metrics::json_escape;
use xqr_xml::Governor;

/// Units of work per operator that are always timed (exact measurement for
/// short streams).
pub const SAMPLE_FULL: u64 = 32;
/// After the exact prefix, time one unit whenever `clock & SAMPLE_MASK == 0`
/// (a 1-in-64 subsample of the governor clock).
pub const SAMPLE_MASK: u64 = 63;

/// Per-plan-node accumulator. All counters are `Cell`s: stats are shared
/// between the profiler and any number of cursors via `Rc` within one
/// single-threaded query run.
#[derive(Debug, Default)]
pub struct OpStats {
    rows: Cell<u64>,
    calls: Cell<u64>,
    opens: Cell<u64>,
    sampled_nanos: Cell<u64>,
    sampled_units: Cell<u64>,
    exact_nanos: Cell<u64>,
    peak_bytes: Cell<u64>,
    build_nanos: Cell<u64>,
    partitions: Cell<u64>,
    kernel_dispatches: Cell<u64>,
    spilled_bytes: Cell<u64>,
    spill_partitions: Cell<u64>,
    spill_merge_passes: Cell<u64>,
    batches: Cell<u64>,
    fused_rows: Cell<u64>,
    fallback_rows: Cell<u64>,
}

impl OpStats {
    /// Starts one unit of work (a cursor `next()` or an operator
    /// evaluation). Returns a start instant only when this unit is
    /// sampled; pass the result to [`OpStats::end`].
    #[inline]
    pub fn begin(&self, clock: u64) -> Option<Instant> {
        let u = self.calls.get() + 1;
        self.calls.set(u);
        if u <= SAMPLE_FULL || clock & SAMPLE_MASK == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a unit of work started by [`OpStats::begin`]. Prefix units
    /// (the first [`SAMPLE_FULL`]) land in the exact bucket; later samples
    /// land in the steady-state bucket that gets extrapolated.
    #[inline]
    pub fn end(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let dt = t0.elapsed().as_nanos() as u64;
            if self.calls.get() <= SAMPLE_FULL {
                self.exact_nanos.set(self.exact_nanos.get() + dt);
            } else {
                self.sampled_units.set(self.sampled_units.get() + 1);
                self.sampled_nanos.set(self.sampled_nanos.get() + dt);
            }
        }
    }

    #[inline]
    pub fn add_rows(&self, n: u64) {
        self.rows.set(self.rows.get() + n);
    }

    /// Adds exactly measured time (batch drains, where one measurement
    /// covers many rows and needs no extrapolation).
    pub fn add_exact_nanos(&self, n: u64) {
        self.exact_nanos.set(self.exact_nanos.get() + n);
    }

    pub fn record_open(&self) {
        self.opens.set(self.opens.get() + 1);
    }

    pub fn record_peak_bytes(&self, b: u64) {
        if b > self.peak_bytes.get() {
            self.peak_bytes.set(b);
        }
    }

    /// Join build phase (inner-side materialization + probe index build).
    pub fn add_build_nanos(&self, n: u64) {
        self.build_nanos.set(self.build_nanos.get() + n);
    }

    /// Group-by partitions produced.
    pub fn add_partitions(&self, n: u64) {
        self.partitions.set(self.partitions.get() + n);
    }

    /// Context nodes dispatched through a set-at-a-time step kernel.
    pub fn add_kernel_dispatches(&self, n: u64) {
        self.kernel_dispatches.set(self.kernel_dispatches.get() + n);
    }

    /// Bytes this operator wrote to spill files (frame headers included).
    pub fn add_spilled_bytes(&self, n: u64) {
        self.spilled_bytes.set(self.spilled_bytes.get() + n);
    }

    /// Spill partitions / sorted runs this operator produced on disk.
    pub fn add_spill_partitions(&self, n: u64) {
        self.spill_partitions.set(self.spill_partitions.get() + n);
    }

    /// External-sort merge passes over spilled runs.
    pub fn add_spill_merge_passes(&self, n: u64) {
        self.spill_merge_passes
            .set(self.spill_merge_passes.get() + n);
    }

    /// Batches processed by a batched cursor or fused kernel.
    pub fn add_batches(&self, n: u64) {
        self.batches.set(self.batches.get() + n);
    }

    /// Rows evaluated through a fused type-specialized comparison lane.
    pub fn add_fused_rows(&self, n: u64) {
        self.fused_rows.set(self.fused_rows.get() + n);
    }

    /// Rows a fused kernel handed back to the row-at-a-time scalar path
    /// (heterogeneous or non-atomic operand batches).
    pub fn add_fallback_rows(&self, n: u64) {
        self.fallback_rows.set(self.fallback_rows.get() + n);
    }

    /// Estimated cumulative (inclusive) time: exactly measured units (the
    /// prefix and batch drains) plus the steady-state samples extrapolated
    /// over the units past the prefix.
    pub fn estimated_nanos(&self) -> u64 {
        let su = self.sampled_units.get();
        let sampled = if su == 0 {
            0
        } else {
            let steady = self.calls.get().saturating_sub(SAMPLE_FULL);
            (self.sampled_nanos.get() as u128 * steady as u128 / su as u128) as u64
        };
        self.exact_nanos.get().saturating_add(sampled)
    }

    pub fn rows(&self) -> u64 {
        self.rows.get()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Did anything record into this node at all?
    pub fn touched(&self) -> bool {
        self.calls.get() > 0
            || self.rows.get() > 0
            || self.opens.get() > 0
            || self.exact_nanos.get() > 0
            || self.kernel_dispatches.get() > 0
            || self.batches.get() > 0
    }
}

struct NodeEntry {
    label: String,
    children: Vec<u32>,
    stats: Rc<OpStats>,
}

/// Multiply-shift hasher for the pointer-keyed stats map. [`Profiler::stats_for`]
/// sits on the per-tuple dispatch path, where SipHash on an 8-byte key is
/// most of the lookup cost; a Fibonacci multiply with the high bits folded
/// down (aligned pointers carry no entropy in their low bits) is plenty
/// for addresses drawn from one plan allocation.
#[derive(Default)]
struct PtrHasher(u64);

impl Hasher for PtrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused: keys are `usize`).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

struct ProfilerInner {
    governor: Governor,
    /// Plan-node address → that node's stats cell, under the cheap hasher:
    /// this map is read on every profiled dispatch.
    stats: RefCell<HashMap<usize, Rc<OpStats>, BuildHasherDefault<PtrHasher>>>,
    nodes: RefCell<Vec<NodeEntry>>,
}

/// Per-run profiler handle; cheap to clone (shared `Rc`).
#[derive(Clone)]
pub struct Profiler(Rc<ProfilerInner>);

impl Profiler {
    /// A fresh profiler sampling on `governor`'s tuple-work clock.
    pub fn new(governor: Governor) -> Profiler {
        Profiler(Rc::new(ProfilerInner {
            governor,
            stats: RefCell::new(HashMap::default()),
            nodes: RefCell::new(Vec::new()),
        }))
    }

    /// Registers a plan tree: assigns each node a preorder id over the
    /// `Op::children()` traversal and keys its stats by node address. Call
    /// once per run, on the exact plan the evaluator executes.
    pub fn register(&self, plan: &Plan) {
        self.walk(plan);
    }

    fn walk(&self, plan: &Plan) -> u32 {
        let stats = Rc::new(OpStats::default());
        let id = {
            let mut nodes = self.0.nodes.borrow_mut();
            let id = nodes.len() as u32;
            nodes.push(NodeEntry {
                label: op_label(&plan.op),
                children: Vec::new(),
                stats: stats.clone(),
            });
            id
        };
        self.0
            .stats
            .borrow_mut()
            .insert(plan as *const Plan as usize, stats);
        for (c, _) in plan.op.children() {
            let cid = self.walk(c);
            self.0.nodes.borrow_mut()[id as usize].children.push(cid);
        }
        id
    }

    /// The stats cell for a registered plan node, if any.
    #[inline]
    pub fn stats_for(&self, plan: &Plan) -> Option<Rc<OpStats>> {
        self.0
            .stats
            .borrow()
            .get(&(plan as *const Plan as usize))
            .cloned()
    }

    /// The sampling clock (the governor's tuple-work counter).
    #[inline]
    pub fn clock(&self) -> u64 {
        self.governor().sampling_clock()
    }

    pub fn governor(&self) -> &Governor {
        &self.0.governor
    }

    /// Freezes the accumulated counters into a profile tree. `strategy`
    /// names the execution strategy the run used.
    pub fn snapshot(&self, strategy: &str, wall_nanos: u64) -> QueryProfile {
        let nodes = self.0.nodes.borrow();
        let root = if nodes.is_empty() {
            None
        } else {
            // Clamp the root's extrapolated estimate to the measured wall
            // clock (when known): sampling noise must never report an
            // operator as costing more than the whole query took.
            let limit = if wall_nanos == 0 {
                u64::MAX
            } else {
                wall_nanos
            };
            Some(build_node(&nodes, 0, limit))
        };
        QueryProfile {
            strategy: strategy.to_string(),
            wall_nanos,
            query_id: None,
            plan_hash: None,
            root,
            interp: None,
        }
    }
}

/// Builds one profile node, clamping sampled extrapolation to the
/// measured wall clock: a node's inclusive estimate never exceeds the
/// whole query's `limit`, and therefore `self ≤ inclusive ≤ total` holds
/// everywhere. Without the clamp, a handful of unlucky steady-state
/// samples on a hot operator could extrapolate past the total — the
/// annotation then showed a child's *self* time above the whole query's
/// wall time. The clamp is deliberately *not* telescoped through parents:
/// estimates err in both directions, and a parent with a skewed per-call
/// distribution (a join cursor whose every Nth `next()` sweeps a probe
/// partition) underestimates — capping its children to that bad estimate
/// would zero out their own, better-sampled measurements. The wall clock
/// is the only bound that is measured rather than extrapolated.
fn build_node(nodes: &[NodeEntry], id: u32, limit: u64) -> ProfileNode {
    let e = &nodes[id as usize];
    let inclusive = e.stats.estimated_nanos().min(limit);
    let children: Vec<ProfileNode> = e
        .children
        .iter()
        .map(|&c| build_node(nodes, c, limit))
        .collect();
    let child_sum: u64 = children.iter().map(|c| c.nanos).sum();
    ProfileNode {
        label: e.label.clone(),
        rows: e.stats.rows.get(),
        calls: e.stats.calls.get(),
        opens: e.stats.opens.get(),
        nanos: inclusive,
        exclusive_nanos: inclusive.saturating_sub(child_sum),
        build_nanos: e.stats.build_nanos.get(),
        peak_bytes: e.stats.peak_bytes.get(),
        partitions: e.stats.partitions.get(),
        kernel_dispatches: e.stats.kernel_dispatches.get(),
        spilled_bytes: e.stats.spilled_bytes.get(),
        spill_partitions: e.stats.spill_partitions.get(),
        spill_merge_passes: e.stats.spill_merge_passes.get(),
        batches: e.stats.batches.get(),
        fused_rows: e.stats.fused_rows.get(),
        fallback_rows: e.stats.fallback_rows.get(),
        touched: e.stats.touched(),
        children,
    }
}

/// One node of a frozen profile; mirrors the plan tree node-for-node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileNode {
    pub label: String,
    pub rows: u64,
    pub calls: u64,
    pub opens: u64,
    /// Estimated inclusive time (this operator and everything beneath it
    /// that ran while it was on stack).
    pub nanos: u64,
    /// Inclusive minus the children's inclusive estimates (saturating:
    /// independent sampling can make a child's estimate exceed its
    /// parent's).
    pub exclusive_nanos: u64,
    pub build_nanos: u64,
    pub peak_bytes: u64,
    pub partitions: u64,
    pub kernel_dispatches: u64,
    /// Bytes written to spill files by this operator (0 = never spilled).
    pub spilled_bytes: u64,
    /// Spill partitions / sorted runs written by this operator.
    pub spill_partitions: u64,
    /// External-sort merge passes performed by this operator.
    pub spill_merge_passes: u64,
    /// Batches processed by a batched cursor or fused kernel at this node.
    pub batches: u64,
    /// Rows that went through a fused type-specialized comparison lane.
    pub fused_rows: u64,
    /// Rows a fused kernel fell back to the scalar path for.
    pub fallback_rows: u64,
    /// Whether any instrumentation recorded into this node (false for
    /// plan nodes outside the instrumented operator set, or never
    /// reached).
    pub touched: bool,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Number of nodes in this subtree (== `plan_size` of the mirrored
    /// plan).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Sum of `exclusive_nanos` over the subtree. For the root this
    /// telescopes back to (at most) the root's inclusive estimate.
    pub fn exclusive_sum(&self) -> u64 {
        self.exclusive_nanos + self.children.iter().map(|c| c.exclusive_sum()).sum::<u64>()
    }

    fn annotation(&self) -> Option<String> {
        if !self.touched {
            return None;
        }
        let mut s = format!(
            "rows={} calls={} time={} self={}",
            self.rows,
            self.calls,
            fmt_nanos(self.nanos),
            fmt_nanos(self.exclusive_nanos)
        );
        if self.build_nanos > 0 {
            s.push_str(&format!(" build={}", fmt_nanos(self.build_nanos)));
        }
        if self.peak_bytes > 0 {
            s.push_str(&format!(" peak={}", fmt_bytes(self.peak_bytes)));
        }
        if self.partitions > 0 {
            s.push_str(&format!(" parts={}", self.partitions));
        }
        if self.kernel_dispatches > 0 {
            s.push_str(&format!(" kernel={}", self.kernel_dispatches));
        }
        if self.spilled_bytes > 0 {
            s.push_str(&format!(" spilled={}", fmt_bytes(self.spilled_bytes)));
        }
        if self.spill_partitions > 0 {
            s.push_str(&format!(" spill_parts={}", self.spill_partitions));
        }
        if self.spill_merge_passes > 0 {
            s.push_str(&format!(" merge_passes={}", self.spill_merge_passes));
        }
        if self.batches > 0 {
            s.push_str(&format!(" batches={}", self.batches));
        }
        if self.fused_rows > 0 {
            s.push_str(&format!(" fused={}", self.fused_rows));
        }
        if self.fallback_rows > 0 {
            s.push_str(&format!(" fallback={}", self.fallback_rows));
        }
        Some(s)
    }

    fn to_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"label\":\"{}\",\"rows\":{},\"calls\":{},\"opens\":{},\"nanos\":{},\
             \"exclusive_nanos\":{},\"build_nanos\":{},\"peak_bytes\":{},\"partitions\":{},\
             \"kernel_dispatches\":{},\"spilled_bytes\":{},\"spill_partitions\":{},\
             \"spill_merge_passes\":{},\"batches\":{},\"fused_rows\":{},\
             \"fallback_rows\":{},\"touched\":{},\"children\":[",
            json_escape(&self.label),
            self.rows,
            self.calls,
            self.opens,
            self.nanos,
            self.exclusive_nanos,
            self.build_nanos,
            self.peak_bytes,
            self.partitions,
            self.kernel_dispatches,
            self.spilled_bytes,
            self.spill_partitions,
            self.spill_merge_passes,
            self.batches,
            self.fused_rows,
            self.fallback_rows,
            self.touched
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json(out);
        }
        out.push_str("]}");
    }
}

/// A complete per-query profile: the operator tree (algebra strategies) or
/// the Core-interpreter counters (`interp`), plus the measured wall clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryProfile {
    pub strategy: String,
    pub wall_nanos: u64,
    /// Service query id, when the run was dispatched through a
    /// `QueryService` (joins `EXPLAIN ANALYZE` output to the service's
    /// lifecycle journal).
    pub query_id: Option<u64>,
    /// Canonical plan hash of the prepared plan, when one exists (joins
    /// to the service's per-shape statistics table and breaker registry).
    pub plan_hash: Option<u64>,
    /// The profiled operator tree; `None` on the Core-interpreter path,
    /// which has no algebraic plan.
    pub root: Option<ProfileNode>,
    /// Core-interpreter per-expression-kind and per-clause counts, when
    /// that path ran.
    pub interp: Option<std::collections::BTreeMap<String, u64>>,
}

impl QueryProfile {
    /// Per-node annotation strings in preorder (`Op::children()` order),
    /// ready for `pretty::indented_annotated` against the identically
    /// shaped prepared plan.
    pub fn annotations(&self) -> Vec<Option<String>> {
        let mut out = Vec::new();
        fn walk(n: &ProfileNode, out: &mut Vec<Option<String>>) {
            out.push(n.annotation());
            for c in &n.children {
                walk(c, out);
            }
        }
        if let Some(r) = &self.root {
            walk(r, &mut out);
        }
        out
    }

    /// Standalone text rendering (profile tree only, without the full plan
    /// parameters — the engine's `explain_analyze` merges annotations into
    /// the real plan rendering instead).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "strategy: {}\nwall: {}\n",
            self.strategy,
            fmt_nanos(self.wall_nanos)
        );
        if let Some(id) = self.query_id {
            let _ = writeln!(s, "query: {id}");
        }
        if let Some(h) = self.plan_hash {
            let _ = writeln!(s, "plan: {h:016x}");
        }
        fn walk(n: &ProfileNode, depth: usize, out: &mut String) {
            let ann = n.annotation().unwrap_or_else(|| "-".to_string());
            let _ = writeln!(out, "{}{}  {}", "  ".repeat(depth), n.label, ann);
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        if let Some(r) = &self.root {
            walk(r, 0, &mut s);
        }
        if let Some(m) = &self.interp {
            for (k, v) in m {
                let _ = writeln!(s, "{k}  {v}");
            }
        }
        s
    }

    /// Machine-readable export (hand-rolled JSON, no dependencies).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"strategy\":\"{}\",\"wall_nanos\":{},\"query_id\":{},\"plan_hash\":{},\"root\":",
            json_escape(&self.strategy),
            self.wall_nanos,
            match self.query_id {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            },
            // Hex string: u64 hashes can exceed JSON's exact-integer range.
            match self.plan_hash {
                Some(h) => format!("\"{h:016x}\""),
                None => "null".to_string(),
            }
        );
        match &self.root {
            Some(r) => r.to_json(&mut s),
            None => s.push_str("null"),
        }
        s.push_str(",\"interp\":");
        match &self.interp {
            Some(m) => {
                s.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{}\":{v}", json_escape(k));
                }
                s.push('}');
            }
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

/// `1.234ms` / `56.7us` / `890ns`-style rendering.
pub fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

fn fmt_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1}MiB", n as f64 / (1u64 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1}KiB", n as f64 / 1024.0)
    } else {
        format!("{n}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_core::algebra::Op;

    fn small_plan() -> Plan {
        Plan::new(Op::Select {
            pred: Plan::boxed(Op::Scalar(xqr_xml::AtomicValue::Boolean(true))),
            input: Plan::boxed(Op::TupleTable),
        })
    }

    #[test]
    fn register_assigns_preorder_ids_and_stats() {
        let p = small_plan();
        let prof = Profiler::new(Governor::unlimited());
        prof.register(&p);
        let s = prof.stats_for(&p).expect("root registered");
        s.add_rows(3);
        s.end(s.begin(0));
        let snap = prof.snapshot("pipelined", 1_000);
        // Annotation vector aligns with plan preorder size.
        assert_eq!(snap.annotations().len(), 3);
        let root = snap.root.expect("root");
        assert_eq!(root.label, "Select");
        assert_eq!(root.size(), 3);
        assert_eq!(root.rows, 3);
        assert_eq!(root.calls, 1);
        assert!(root.touched);
        assert!(!root.children[0].touched);
    }

    #[test]
    fn sampling_is_exact_for_short_streams() {
        let s = OpStats::default();
        for clock in 0..SAMPLE_FULL {
            // Clock values chosen off-phase: still timed (exact prefix),
            // accumulating into the exact bucket, not the extrapolated one.
            let t0 = s.begin(clock * 2 + 1);
            assert!(t0.is_some());
            s.end(t0);
        }
        assert_eq!(s.calls.get(), SAMPLE_FULL);
        assert_eq!(s.sampled_units.get(), 0);
        // Past the prefix, off-phase clocks are skipped...
        assert!(s.begin(SAMPLE_MASK).is_none());
        // ...and on-phase clocks are sampled.
        assert!(s.begin(SAMPLE_MASK + 1).is_some());
    }

    #[test]
    fn estimate_extrapolates_over_steady_state_units() {
        let s = OpStats::default();
        // 1032 calls = 32 exact prefix + 1000 steady; 100 steady samples
        // averaging 50ns extrapolate over the 1000 steady units only.
        s.calls.set(SAMPLE_FULL + 1000);
        s.sampled_units.set(100);
        s.sampled_nanos.set(5_000);
        assert_eq!(s.estimated_nanos(), 50_000);
        s.add_exact_nanos(7);
        assert_eq!(s.estimated_nanos(), 50_007);
    }

    #[test]
    fn estimates_are_clamped_to_wall() {
        // Regression: sampled extrapolation on a hot child could estimate
        // past the measured wall clock, so `EXPLAIN ANALYZE` reported a
        // child's *self* time above the query's total (e.g. Q12's
        // MapToItem at 395ms self against a 316ms wall). Snapshots must
        // clamp every node's inclusive estimate to the wall clock — but
        // only to the wall clock: a parent's own estimate can *under*shoot
        // (skewed per-call cost distributions), and capping children to it
        // would destroy their better-sampled measurements.
        let p = small_plan();
        let prof = Profiler::new(Governor::unlimited());
        prof.register(&p);
        let root = prof.stats_for(&p).expect("root registered");
        let (pred, _) = p.op.children().into_iter().next().expect("pred child");
        let child = prof.stats_for(pred).expect("pred registered");
        // Parent: modest, fully measured time.
        root.calls.set(10);
        root.exact_nanos.set(2_000);
        // Child: unlucky steady-state samples extrapolating to 50_000ns —
        // far past the 3_000ns wall clock below.
        child.calls.set(SAMPLE_FULL + 1000);
        child.sampled_units.set(100);
        child.sampled_nanos.set(5_000);
        assert_eq!(child.estimated_nanos(), 50_000);

        let wall = 3_000;
        let snap = prof.snapshot("pipelined", wall);
        let root = snap.root.expect("root");
        fn check(n: &ProfileNode, wall: u64) {
            assert!(
                n.nanos <= wall,
                "{}: inclusive {} > {wall}",
                n.label,
                n.nanos
            );
            assert!(
                n.exclusive_nanos <= n.nanos,
                "{}: self {} > inclusive {}",
                n.label,
                n.exclusive_nanos,
                n.nanos
            );
            for c in &n.children {
                check(c, wall);
            }
        }
        check(&root, wall);
        // The parent keeps its exact measurement; the child's runaway
        // extrapolation is capped at the wall clock, not at the parent.
        assert_eq!(root.nanos, 2_000);
        assert_eq!(root.children[0].nanos, wall);
        // A zero wall clock (sub-resolution run) disables the clamp rather
        // than zeroing every estimate.
        let unclamped = prof.snapshot("pipelined", 0);
        assert_eq!(unclamped.root.expect("root").children[0].nanos, 50_000);
    }

    #[test]
    fn json_renders_with_escaping() {
        let prof = Profiler::new(Governor::unlimited());
        let p = small_plan();
        prof.register(&p);
        let j = prof.snapshot("pipelined", 42).to_json();
        assert!(j.contains("\"strategy\":\"pipelined\""));
        assert!(j.contains("\"wall_nanos\":42"));
        assert!(j.contains("\"label\":\"Select\""));
        assert!(j.ends_with("\"interp\":null}"));
    }
}
