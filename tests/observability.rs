//! Integration: the observability layer — per-operator profiles
//! (`EXPLAIN ANALYZE`), phase/rule tracing, and the engine metrics
//! registry.
//!
//! Structural invariants checked here:
//!
//! * a profile tree mirrors the executed plan node-for-node, with batched
//!   and with scalar kernels (the Core interpreter keeps clause counters
//!   instead);
//! * the root operator's recorded row count equals the query result's
//!   length (property-tested over random inputs), and a streaming operator
//!   fed directly by a breaker records its output rows exactly once;
//! * with profiling disabled nothing is recorded and `explain()` output is
//!   byte-identical before and after a run;
//! * profile JSON parses with an independent mini JSON parser and carries
//!   the tree through unchanged;
//! * a profile tagged with a query id and canonical plan hash joins to the
//!   service's lifecycle journal on exactly those keys;
//! * limit-code errors land in the metrics registry under their `XQRG*`
//!   codes (delta-checked: the registry is process-wide).

mod common;

use std::rc::Rc;

use common::json;
use proptest::prelude::*;
use xqr::core::algebra::{plan_size, Op, Plan};
use xqr::engine::{
    CollectingTracer, CompileOptions, Engine, ExecutionMode, Limits, ProfileNode, TraceEvent,
};
use xqr::xml::metrics::metrics;
use xqr_xmark::{generate, query, GenOptions};

fn xmark_engine() -> Engine {
    let xml = generate(&GenOptions::for_bytes(120_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction document parses");
    e
}

// ===== profile tree shape ==================================================

const SHAPE_QUERIES: [&str; 4] = [
    "for $x in (1,2,3) where $x > 1 return $x * 10",
    "for $x in (1,1,3) \
     let $a := avg(for $y in (1,2) where $x <= $y return $y * 10) \
     return ($x, $a)",
    "for $x in (3,1,2) order by $x descending return $x",
    "some $x in (1,2,3) satisfies $x = 2",
];

/// Profiling options under the batched (default) or the scalar kernels —
/// the two ways the algebra executes its predicates.
fn profiled(scalar: bool) -> CompileOptions {
    let opts = CompileOptions::mode(ExecutionMode::OptimHashJoin).with_profiling();
    if scalar {
        opts.with_scalar_kernels()
    } else {
        opts
    }
}

#[test]
fn profile_tree_mirrors_plan_on_both_algebra_strategies() {
    let e = Engine::new();
    for q in SHAPE_QUERIES {
        for scalar in [false, true] {
            let prepared = e.prepare(q, &profiled(scalar)).unwrap();
            prepared.run(&e).unwrap();
            let profile = prepared.profile().expect("profile recorded");
            assert_eq!(profile.strategy, "pipelined", "{q:?}");
            let root = profile.root.as_ref().expect("operator tree");
            let plan = &prepared.compiled().unwrap().body;
            assert_eq!(
                root.size(),
                plan_size(plan),
                "{q:?} (scalar={scalar}): profile tree and plan tree differ in shape"
            );
            assert!(root.touched, "{q:?} (scalar={scalar}): root never recorded");
            // The annotation vector covers every plan node in preorder.
            assert_eq!(profile.annotations().len(), plan_size(plan));
            let rendered = prepared.explain_analyze();
            assert!(rendered.contains("rows="), "{rendered}");
            assert!(rendered.contains("strategy: pipelined"));
        }
    }
}

#[test]
fn interp_profile_counts_expressions_and_clauses() {
    let e = Engine::new();
    let q = "for $x in (1,2,3) let $y := $x + 1 where $y > 2 return $y";
    let prepared = e
        .prepare(
            q,
            &CompileOptions::mode(ExecutionMode::NoAlgebra).with_profiling(),
        )
        .unwrap();
    prepared.run(&e).unwrap();
    let profile = prepared.profile().expect("profile recorded");
    assert_eq!(profile.strategy, "core-interp");
    assert!(profile.root.is_none(), "no plan tree on the interpreter");
    let counts = profile.interp.expect("interpreter counters");
    assert!(counts.get("clause:for").copied().unwrap_or(0) >= 1);
    assert!(counts.get("clause:let").copied().unwrap_or(0) >= 1);
    assert!(counts.get("clause:where").copied().unwrap_or(0) >= 1);
    assert!(counts.get("Flwor").copied().unwrap_or(0) >= 1);
    let rendered = prepared.explain_analyze();
    assert!(rendered.contains("clause:for"), "{rendered}");
}

// ===== row counts agree with results (property) ============================

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The root operator's recorded rows must equal the result length with
    /// batched and with scalar kernels, for random integer inputs.
    #[test]
    fn root_rows_equal_result_length(vals in prop::collection::vec(0i64..20, 1..12), cut in 0i64..20) {
        let list = vals.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
        let q = format!("for $x in ({list}) where $x >= {cut} return $x");
        let e = Engine::new();
        for scalar in [false, true] {
            let prepared = e.prepare(&q, &profiled(scalar)).unwrap();
            let result = prepared.run(&e).unwrap();
            let root = prepared.profile().unwrap().root.unwrap();
            prop_assert_eq!(
                root.rows,
                result.len() as u64,
                "{} (scalar={})", q, scalar
            );
        }
    }
}

// ===== per-node row counts over breakers ==================================

/// Collects the plan nodes (with their mirrored profile nodes) where a
/// streaming `Select`/`MapConcat` reads directly from a breaker's output.
fn streaming_over_breakers<'a>(
    plan: &'a Plan,
    node: &'a ProfileNode,
    out: &mut Vec<(&'a Plan, &'a ProfileNode)>,
) {
    let kids = plan.op.children();
    if matches!(plan.op, Op::Select { .. } | Op::MapConcat { .. })
        && kids
            .iter()
            .any(|(c, _)| matches!(c.op, Op::OrderBy { .. } | Op::GroupBy { .. }))
    {
        out.push((plan, node));
    }
    for ((c, _), n) in kids.iter().zip(&node.children) {
        streaming_over_breakers(c, n, out);
    }
}

/// A streaming operator fed directly by a breaker reports exactly its
/// output cardinality, recorded once: the cursor that implements it is its
/// only recorder, and the breaker beneath reports its own output rows. The
/// `Select` is pulled row by row by a boundary in the first query and
/// drained whole into a breaker (the evaluator's table path) in the second.
#[test]
fn streaming_operator_over_a_breaker_counts_its_rows_once() {
    let e = Engine::new();
    // Select[count(IN#a) > 0] over the GroupBy of the unnested `let`: the
    // groups are x = 1, 2, 3 and the filter keeps x = 1 and x = 2.
    let flwor = "for $x in (1,2,3) \
                 let $a := (for $y in (1,2) where $y = $x return $y) \
                 where count($a) > 0";
    for (q, expected) in [
        (format!("{flwor} return $x"), "1 2"),
        (format!("{flwor} order by $x descending return $x"), "2 1"),
    ] {
        for scalar in [false, true] {
            let prepared = e.prepare(&q, &profiled(scalar)).unwrap();
            let result = prepared.run(&e).unwrap();
            assert_eq!(xqr::xml::serialize_sequence(&result), expected);
            let profile = prepared.profile().unwrap();
            let plan = &prepared.compiled().unwrap().body;
            let mut found = Vec::new();
            streaming_over_breakers(plan, profile.root.as_ref().unwrap(), &mut found);
            assert_eq!(found.len(), 1, "{}", prepared.explain());
            let (select, stats) = found[0];
            assert!(matches!(select.op, Op::Select { .. }));
            assert_eq!(stats.rows, 2, "{q} (scalar={scalar}): Select rows");
            assert_eq!(stats.opens, 1, "{q} (scalar={scalar}): Select opens");
            let group_by = &stats.children[1];
            assert_eq!(group_by.rows, 3, "{q} (scalar={scalar}): GroupBy rows");
            assert_eq!(group_by.partitions, 3, "{q} (scalar={scalar}): partitions");
        }
    }
}

// ===== disabled mode leaves no residue =====================================

#[test]
fn disabled_profiling_records_nothing_and_explain_is_stable() {
    let e = Engine::new();
    let q = "for $x in (1,2,3) where $x > 1 return $x";
    let prepared = e
        .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
        .unwrap();
    let before = prepared.explain();
    prepared.run(&e).unwrap();
    assert!(prepared.profile().is_none(), "profiling was not requested");
    assert!(prepared.profile_json().is_none());
    assert_eq!(
        prepared.explain(),
        before,
        "explain() must be byte-identical across an unprofiled run"
    );
    assert!(prepared.explain_analyze().contains("no profile recorded"));
}

// ===== explain drift: rendered shape regression ============================

#[test]
fn explain_annotates_the_plan_tree_itself() {
    let e = Engine::new();
    let q = "for $x in (1,2) let $a := (for $y in (1,2) where $y = $x return $y) \
             return count($a)";
    let prepared = e
        .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
        .unwrap();
    let text = prepared.explain();
    // Unnested plan shape survives (the PR 1 assertions)...
    assert!(text.contains("GroupBy"), "{text}");
    assert!(text.contains("LOuterJoin"), "{text}");
    assert!(text.contains("execution: pipelined"), "{text}");
    assert!(text.contains("pipelined (streaming):"), "{text}");
    // ...and the streams/materializes notes now ride on the plan nodes.
    assert!(
        text.contains("-- materializes (pipeline breaker)"),
        "{text}"
    );
    assert!(text.contains("-- streams"), "{text}");
}

// ===== phase tracing =======================================================

#[test]
fn tracer_sees_phases_and_rewrite_rules() {
    let tracer = Rc::new(CollectingTracer::new());
    let mut e = Engine::new();
    e.set_tracer(tracer.clone());
    let q = "for $x in (1,2) let $a := (for $y in (1,2) where $y = $x return $y) \
             return count($a)";
    let prepared = e
        .prepare(q, &CompileOptions::mode(ExecutionMode::OptimHashJoin))
        .unwrap();
    prepared.run(&e).unwrap();
    assert_eq!(
        tracer.phases(),
        vec!["parse", "normalize", "compile", "rewrite", "execute"]
    );
    let events = tracer.events();
    let rules: Vec<&TraceEvent> = events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Rule { .. }))
        .collect();
    assert!(
        !rules.is_empty(),
        "an unnesting query must fire rewrite rules"
    );
    for ev in &rules {
        if let TraceEvent::Rule {
            rule,
            before_ops,
            after_ops,
            ..
        } = ev
        {
            assert!(!rule.is_empty() && *rule != "unknown");
            assert!(*before_ops > 0 && *after_ops > 0, "{rule}");
        }
    }
    // Clearing the tracer silences subsequent prepares.
    e.clear_tracer();
    let drained = tracer.take();
    assert!(!drained.is_empty());
    e.prepare(q, &CompileOptions::default()).unwrap();
    assert!(tracer.events().is_empty());
}

// ===== JSON round-trip =====================================================
// (The mini JSON parser lives in `tests/common/mod.rs`, shared with the
// observability stress suite.)
#[test]
fn profile_json_round_trips() {
    let e = Engine::new();
    let q = "for $x in (1,2,3) where $x > 1 return $x";
    let prepared = e
        .prepare(
            q,
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).with_profiling(),
        )
        .unwrap();
    let result = prepared.run(&e).unwrap();
    let parsed = json::parse(&prepared.profile_json().unwrap()).expect("valid JSON");
    assert_eq!(parsed.get("strategy").unwrap().as_str(), Some("pipelined"));
    assert!(parsed.get("wall_nanos").unwrap().as_int().unwrap() > 0);
    let root = parsed.get("root").unwrap();
    assert_eq!(
        root.get("rows").unwrap().as_int().unwrap(),
        result.len() as i64
    );
    // The parsed tree's node count equals the in-memory profile tree's.
    fn count(v: &json::Value) -> usize {
        match v.get("children") {
            Some(json::Value::Arr(kids)) => 1 + kids.iter().map(count).sum::<usize>(),
            _ => 1,
        }
    }
    let profile = prepared.profile().unwrap();
    assert_eq!(count(root), profile.root.unwrap().size());
}

// ===== query-id / plan-hash join keys ======================================

/// A profile tagged with a query id and the canonical plan hash joins to
/// the service journal on exactly those two keys: `EXPLAIN ANALYZE` of a
/// service query can be correlated with its lifecycle timeline.
#[test]
fn profile_joins_to_service_journal_on_query_id_and_plan_hash() {
    use xqr::engine::{QueryRequest, QueryService, ServiceConfig};

    let q = "for $x in (1,2,3) where $x > 1 return $x";

    // Engine side: tag a prepared query the way a service worker does.
    let e = Engine::new();
    let prepared = e
        .prepare(
            q,
            &CompileOptions::mode(ExecutionMode::OptimHashJoin).with_profiling(),
        )
        .unwrap();
    prepared.set_query_id(42);
    prepared.run(&e).unwrap();
    assert_eq!(prepared.query_id(), Some(42));
    let hash = prepared.canonical_hash().expect("algebra plan hash");
    let parsed = json::parse(&prepared.profile_json().unwrap()).expect("valid JSON");
    assert_eq!(parsed.get("query_id").unwrap().as_int(), Some(42));
    assert_eq!(
        parsed.get("plan_hash").unwrap().as_str(),
        Some(format!("{hash:016x}").as_str())
    );
    let rendered = prepared.explain_analyze();
    assert!(rendered.contains("query: 42"), "{rendered}");
    assert!(
        rendered.contains(&format!("plan: {hash:016x}")),
        "{rendered}"
    );

    // Service side: the ticket id is the journal id, and the journal's
    // plan hash equals the out-of-band canonical hash of the same text.
    let svc = QueryService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let ticket = svc.submit(QueryRequest::new(q)).unwrap();
    let id = ticket.id();
    let out = ticket.wait().unwrap();
    assert_eq!(out.id, id, "the ticket id rides on the output");
    let report = svc.observe();
    let tl = report
        .journal
        .iter()
        .find(|t| t.id == id)
        .expect("journal entry for the completed query");
    assert_eq!(tl.plan_hash, Some(hash), "journal joins on the plan hash");
    assert!(
        report.shapes.iter().any(|s| s.plan_hash == hash),
        "shape table joins on the plan hash"
    );
    // The journal JSON spells the hash the same way the profile does.
    let rj = json::parse(&svc.observe_json()).expect("valid observe JSON");
    let journal = rj.get("journal").unwrap().as_arr().unwrap();
    let entry = journal
        .iter()
        .find(|t| t.get("id").and_then(json::Value::as_int) == Some(id as i64))
        .expect("journal JSON entry");
    assert_eq!(
        entry.get("plan_hash").unwrap().as_str(),
        Some(format!("{hash:016x}").as_str())
    );
}

#[test]
fn metrics_json_parses() {
    let e = Engine::new();
    e.execute("1 + 1").unwrap();
    let parsed = json::parse(&e.metrics_json()).expect("valid JSON");
    assert!(parsed.get("queries_started").unwrap().as_int().unwrap() >= 1);
    assert!(e.metrics_text().contains("queries_started"));
}

// ===== metrics registry ====================================================

#[test]
fn limit_errors_are_counted_by_code() {
    let e = Engine::new();
    let before = metrics().snapshot();
    let q = "for $x in 1 to 100000 return $x";
    let err = e
        .prepare(
            q,
            &CompileOptions::default().limits(Limits::none().with_max_tuples(50)),
        )
        .unwrap()
        .run(&e)
        .unwrap_err();
    assert_eq!(err.code(), Some("XQRG0003"));
    let after = metrics().snapshot();
    // Deltas, not absolutes: the registry is process-wide and other tests
    // in this binary also run queries.
    assert!(after.queries_started > before.queries_started);
    assert!(after.queries_failed > before.queries_failed);
    assert!(after.error_count("XQRG0003") > before.error_count("XQRG0003"));

    let ok_before = metrics().snapshot();
    e.execute("1 + 1").unwrap();
    let ok_after = metrics().snapshot();
    assert!(ok_after.queries_ok > ok_before.queries_ok);
}

// ===== acceptance: XMark queries, time telescopes to wall ==================

#[test]
fn xmark_profiles_sum_to_wall_clock_on_both_strategies() {
    let e = xmark_engine();
    for n in [6, 7, 14] {
        for scalar in [false, true] {
            let prepared = e.prepare(query(n), &profiled(scalar)).unwrap();
            let result = prepared.run(&e).unwrap();
            let profile = prepared.profile().unwrap();
            let root = profile.root.as_ref().unwrap();
            assert_eq!(root.rows, result.len() as u64, "Q{n} scalar={scalar}");
            assert!(root.touched, "Q{n}");
            // Per-operator self times telescope back to the root's
            // inclusive estimate, and the root estimate cannot wildly
            // exceed the measured wall clock (sampling error allowed: the
            // estimate extrapolates 1-in-64 samples).
            assert!(root.nanos > 0, "Q{n}: no time recorded");
            // Self times telescope: the sum over the tree reconstructs at
            // least the root's inclusive estimate (saturating subtraction
            // can only push individual self times up, never down).
            assert!(
                root.exclusive_sum() >= root.nanos,
                "Q{n}: exclusive times must telescope to the root inclusive"
            );
            assert!(
                root.nanos <= profile.wall_nanos.saturating_mul(4).max(1_000_000),
                "Q{n} scalar={scalar}: estimate {} vs wall {}",
                root.nanos,
                profile.wall_nanos
            );
            let rendered = prepared.explain_analyze();
            assert!(rendered.contains("rows="), "Q{n}: {rendered}");
        }
    }
}
