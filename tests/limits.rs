//! The resource-governor suite: deadlines, cancellation, cardinality and
//! memory budgets, depth guards, fault isolation, and graceful
//! degradation — under both predicate strategies of the algebra (batched
//! and scalar kernels) and both engines (algebra and the Core
//! interpreter).

use std::time::{Duration, Instant};

use xqr::engine::{
    BudgetKind, CancellationToken, CompileOptions, Engine, EngineError, ExecutionMode, Limits,
    Phase,
};

/// A Product-heavy query that would run for a very long time ungoverned.
const EXPLOSIVE: &str = "count(for $x in 1 to 100000, $y in 1 to 100000 \
                         where $x + $y = 0 return 1)";

fn limit_code(e: &EngineError) -> Option<&str> {
    match e {
        EngineError::LimitExceeded { code, .. } => Some(code),
        _ => None,
    }
}

/// (a) A wall-clock deadline cancels a long-running query well within 2×
/// the configured deadline, in every execution mode.
#[test]
fn deadline_cancels_explosive_query() {
    for mode in ExecutionMode::ALL {
        let e = Engine::new();
        let deadline = Duration::from_millis(300);
        let opts = CompileOptions::mode(mode).limits(Limits::none().with_deadline(deadline));
        let p = e.prepare(EXPLOSIVE, &opts).unwrap();
        let started = Instant::now();
        let err = p.run(&e).expect_err("deadline must trip");
        let elapsed = started.elapsed();
        assert_eq!(limit_code(&err), Some("XQRG0001"), "{mode:?}: {err}");
        assert!(
            elapsed < 2 * deadline,
            "{mode:?}: cancelled after {elapsed:?}, deadline {deadline:?}"
        );
        match err {
            EngineError::LimitExceeded { phase, budget, .. } => {
                assert_eq!(phase, Phase::Execute);
                assert_eq!(budget, BudgetKind::Deadline);
            }
            other => panic!("unexpected error shape: {other}"),
        }
    }
}

/// Cancellation from another thread stops the query cooperatively.
#[test]
fn cross_thread_cancellation() {
    let e = Engine::new();
    let p = e.prepare(EXPLOSIVE, &CompileOptions::default()).unwrap();
    let token = CancellationToken::new();
    let handle = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        handle.cancel();
    });
    let started = Instant::now();
    let err = p.run_cancellable(&e, token).expect_err("must be cancelled");
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    assert_eq!(limit_code(&err), Some("XQRG0002"), "{err}");
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// (b) The tuple-cardinality budget trips deterministically, with the same
/// error code under the batched and the scalar kernels.
#[test]
fn tuple_budget_identical_across_strategies() {
    for mode in [
        ExecutionMode::AlgebraNoOptim,
        ExecutionMode::OptimNestedLoop,
        ExecutionMode::OptimHashJoin,
        ExecutionMode::OptimSortJoin,
    ] {
        let e = Engine::new();
        let limits = Limits::none().with_max_tuples(10_000);
        let batched = e
            .prepare(
                EXPLOSIVE,
                &CompileOptions::mode(mode).limits(limits.clone()),
            )
            .unwrap()
            .run(&e);
        let scalar = e
            .prepare(
                EXPLOSIVE,
                &CompileOptions::mode(mode)
                    .limits(limits)
                    .with_scalar_kernels(),
            )
            .unwrap()
            .run(&e);
        let bc = batched.as_ref().expect_err("batched must trip");
        let sc = scalar.as_ref().expect_err("scalar must trip");
        assert_eq!(limit_code(bc), Some("XQRG0003"), "{mode:?}: {bc}");
        assert_eq!(
            limit_code(bc),
            limit_code(sc),
            "{mode:?}: strategies disagree: {bc} vs {sc}"
        );
    }
}

/// The interpreter honors the same tuple budget and code.
#[test]
fn tuple_budget_no_algebra() {
    let e = Engine::new();
    let err = e
        .prepare(
            EXPLOSIVE,
            &CompileOptions::mode(ExecutionMode::NoAlgebra)
                .limits(Limits::none().with_max_tuples(10_000)),
        )
        .unwrap()
        .run(&e)
        .expect_err("interpreter must trip");
    assert_eq!(limit_code(&err), Some("XQRG0003"), "{err}");
}

/// (b) The byte budget trips with identical codes under both kernel
/// strategies. The query carries an `order by` pipeline breaker, so the
/// pipeline must materialize the sorted table and charge for it. Spilling
/// is disabled: with it on (the default), crossing the budget degrades to
/// out-of-core execution instead of erroring — see `spill_differential.rs`.
#[test]
fn byte_budget_identical_across_strategies() {
    let q = "count(for $x in 1 to 50000 \
             order by -$x return string($x))";
    let mode = ExecutionMode::OptimHashJoin;
    let e = Engine::new();
    let limits = Limits::none().with_max_bytes(64 * 1024).with_spill(None);
    let batched = e
        .prepare(q, &CompileOptions::mode(mode).limits(limits.clone()))
        .unwrap()
        .run(&e);
    let scalar = e
        .prepare(
            q,
            &CompileOptions::mode(mode)
                .limits(limits)
                .with_scalar_kernels(),
        )
        .unwrap()
        .run(&e);
    let bc = batched.as_ref().expect_err("batched must trip");
    let sc = scalar.as_ref().expect_err("scalar must trip");
    assert_eq!(limit_code(bc), Some("XQRG0004"), "{bc}");
    assert_eq!(limit_code(bc), limit_code(sc), "{bc} vs {sc}");
}

/// Budgets do not fire below the threshold: a governed run that fits the
/// budget returns exactly the ungoverned result (differential check).
#[test]
fn governed_run_agrees_with_ungoverned() {
    let queries = [
        "for $x in (1,2,3), $y in (10,20) where $x > 1 return $x + $y",
        "count(for $x in 1 to 200 order by -$x return $x)",
        "for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y \
         return $y * 10) return ($x, $a)",
    ];
    for mode in ExecutionMode::ALL {
        for q in queries {
            let e = Engine::new();
            let free = e
                .prepare(q, &CompileOptions::mode(mode))
                .unwrap()
                .run_to_string(&e)
                .unwrap();
            let governed = e
                .prepare(
                    q,
                    &CompileOptions::mode(mode).limits(
                        Limits::none()
                            .with_max_tuples(1_000_000)
                            .with_max_bytes(64 * 1024 * 1024)
                            .with_deadline(Duration::from_secs(30)),
                    ),
                )
                .unwrap()
                .run_to_string(&e)
                .unwrap();
            assert_eq!(free, governed, "{mode:?} {q:?}");
        }
    }
}

/// The recursion-depth guard is configurable and keeps its historical
/// XQRT0005 code in both engines.
#[test]
fn recursion_depth_is_configurable() {
    // Big-stack thread: 60 levels of user recursion is many native frames
    // per level in a debug build, more than a test thread's default stack.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(recursion_depth_body)
        .unwrap()
        .join()
        .unwrap();
}

fn recursion_depth_body() {
    let q = "declare function local:down($n as xs:integer) as xs:integer \
             { if ($n = 0) then 0 else local:down($n - 1) }; \
             local:down(50)";
    for mode in ExecutionMode::ALL {
        let e = Engine::new();
        // Depth 10 < 50 recursive calls: trips.
        let err = e
            .prepare(
                q,
                &CompileOptions::mode(mode).limits(Limits::none().with_max_recursion_depth(10)),
            )
            .unwrap()
            .run(&e)
            .expect_err("shallow limit must trip");
        assert_eq!(limit_code(&err), Some("XQRT0005"), "{mode:?}: {err}");
        // A roomier limit lets the same query complete.
        let ok = e
            .prepare(
                q,
                &CompileOptions::mode(mode).limits(Limits::none().with_max_recursion_depth(60)),
            )
            .unwrap()
            .run_to_string(&e)
            .unwrap();
        assert_eq!(ok, "0", "{mode:?}");
    }
}

/// The query parser's nesting guard is configurable through the same
/// Limits and fails structurally (a syntax error, never a stack overflow).
#[test]
fn parse_depth_is_configurable() {
    let deep = format!("{}1{}", "(".repeat(40), ")".repeat(40));
    let e = Engine::new();
    let err = e.prepare(
        &deep,
        &CompileOptions::default().limits(Limits::none().with_max_parse_depth(20)),
    );
    assert!(
        matches!(err, Err(EngineError::Syntax(_))),
        "nesting past the limit must be a structured syntax error"
    );
    // The same query compiles under the default ceiling. (Big-stack
    // thread: debug-build frames are large, and test threads get a small
    // stack; the guards are sized for the 8 MB main-thread stack.)
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(move || {
            let e = Engine::new();
            assert!(e.prepare(&deep, &CompileOptions::default()).is_ok());
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Engine-wide limits apply to document parsing: element nesting beyond
/// `max_document_depth` is a structured error.
#[test]
fn document_depth_is_governed() {
    let deep_doc = format!("{}x{}", "<e>".repeat(40), "</e>".repeat(40));
    let mut e = Engine::new();
    e.set_limits(Limits::none().with_max_document_depth(20));
    let err = e.bind_document("deep.xml", &deep_doc).unwrap_err();
    match err {
        EngineError::Dynamic(x) => {
            assert!(x.message.contains("deep"), "{x}");
        }
        other => panic!("expected a dynamic parse error, got {other}"),
    }
    // Roomier engine accepts it.
    let mut e2 = Engine::new();
    e2.set_limits(Limits::none().with_max_document_depth(64));
    e2.bind_document("deep.xml", &deep_doc).unwrap();
}

/// Fault isolation: an injected panic inside execution surfaces as a
/// structured `EngineError::Internal`, not an unwind through the caller.
#[test]
fn injected_panic_is_isolated() {
    let e = Engine::new();
    let mut limits = Limits::none();
    limits.panic_after_ticks = Some(5);
    let err = e
        .prepare(
            "for $x in 1 to 1000 return $x",
            &CompileOptions::default().limits(limits),
        )
        .unwrap()
        .run(&e)
        .expect_err("injected fault must surface as an error");
    match err {
        EngineError::Internal {
            phase,
            plan_context,
            message,
        } => {
            assert_eq!(phase, Phase::Execute);
            assert!(message.contains("fault injection"), "{message}");
            assert!(!plan_context.is_empty());
        }
        other => panic!("expected Internal, got {other}"),
    }
}

/// Engine-wide limits installed with set_limits govern prepared queries
/// that carry no per-query limits.
#[test]
fn engine_wide_limits_apply() {
    let mut e = Engine::new();
    e.set_limits(Limits::none().with_max_tuples(10_000));
    let err = e
        .prepare(EXPLOSIVE, &CompileOptions::default())
        .unwrap()
        .run(&e)
        .expect_err("engine-wide budget must trip");
    assert_eq!(limit_code(&err), Some("XQRG0003"), "{err}");
    // Per-query limits override the engine-wide ones.
    let ok = e
        .prepare(
            "count(for $x in 1 to 200, $y in 1 to 200 return 1)",
            &CompileOptions::default().limits(Limits::none().with_max_tuples(10_000_000)),
        )
        .unwrap()
        .run_to_string(&e)
        .unwrap();
    assert_eq!(ok, "40000");
}
