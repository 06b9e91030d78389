//! Cross-engine differential suite: the algebra's pipelined (cursor)
//! execution must agree with the Core interpreter (`ExecutionMode::
//! NoAlgebra`, the paper's "No algebra" baseline, which never builds a
//! tuple) — same serialized results, and the same error codes where
//! evaluation fails — on the XMark queries, the Clio mapping queries, a
//! fixed corpus of use-case-style queries (including error-raising ones),
//! and randomly generated FLWOR queries, under every algebra execution
//! mode (nested-loop, hash, and sort joins included).
//!
//! One caveat, by design (see DESIGN.md §4b): when a query contains an
//! expression whose error is unreachable under lazy evaluation (e.g. a
//! failing `where` clause past the first witness of `some`), XQuery
//! permits either outcome, and the engines may legitimately differ.
//! The corpora here avoid that construction; everything else must match
//! exactly.

use proptest::prelude::*;
use xqr::engine::{CompileOptions, Engine, EngineError, ExecutionMode};
use xqr_clio::{generate_dblp, mapping_query, DblpOptions};
use xqr_xmark::{generate, query, GenOptions, QUERY_COUNT};

/// Every mode that runs the algebra (NoAlgebra, the reference, has no
/// tuple pipeline).
const ALGEBRA_MODES: [ExecutionMode; 4] = [
    ExecutionMode::AlgebraNoOptim,
    ExecutionMode::OptimNestedLoop,
    ExecutionMode::OptimHashJoin,
    ExecutionMode::OptimSortJoin,
];

fn err_code(e: EngineError) -> String {
    match e {
        EngineError::Dynamic(x) => x.code.to_string(),
        EngineError::Syntax(_) => "SYNTAX".to_string(),
        EngineError::LimitExceeded { code, .. } => code.to_string(),
        EngineError::Internal { .. } => "INTERNAL".to_string(),
    }
}

/// Runs to either the serialized result or the error code.
fn outcome(e: &Engine, q: &str, opts: &CompileOptions) -> Result<String, String> {
    match e.prepare(q, opts) {
        Ok(p) => p.run_to_string(e).map_err(err_code),
        Err(err) => Err(err_code(err)),
    }
}

fn interpreted(e: &Engine, q: &str) -> Result<String, String> {
    outcome(e, q, &CompileOptions::mode(ExecutionMode::NoAlgebra))
}

fn assert_strategies_agree(e: &Engine, q: &str, label: &str) {
    let reference = interpreted(e, q);
    for mode in ALGEBRA_MODES {
        let pipelined = outcome(e, q, &CompileOptions::mode(mode));
        assert_eq!(
            pipelined, reference,
            "{label}: the algebra under {mode:?} disagrees with the interpreter\nquery: {q}"
        );
    }
}

#[test]
fn xmark_q1_to_q20() {
    let xml = generate(&GenOptions::for_bytes(60_000));
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction document parses");
    for n in 1..=QUERY_COUNT {
        assert_strategies_agree(&e, query(n), &format!("XMark Q{n}"));
    }
}

#[test]
fn clio_n2_n3_n4() {
    let xml = generate_dblp(&DblpOptions::for_bytes(2_500));
    let mut e = Engine::new();
    e.bind_document("dblp.xml", &xml).expect("dblp parses");
    for levels in [2, 3, 4] {
        assert_strategies_agree(&e, &mapping_query(levels), &format!("Clio N{levels}"));
    }
}

const BIB: &str = r#"<bib>
  <book year="1994"><title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher><price>39.95</price></book>
  <book year="1999"><title>The Economics of Technology</title>
    <author><last>Gerbarg</last><first>Darcy</first></author>
    <publisher>Kluwer Academic Publishers</publisher><price>129.95</price></book>
</bib>"#;

#[test]
fn fixed_corpus() {
    let mut e = Engine::new();
    e.bind_document("bib.xml", BIB).unwrap();
    let queries: &[&str] = &[
        // Plain FLWOR pipelines (Select / MapConcat / MapIndex chains).
        "for $x in (1,2,3,4) where $x mod 2 = 0 return $x * 10",
        "for $x at $i in ('a','b','c') where $i >= 2 return concat($i, $x)",
        "for $x in (1,2), $y in (10,20) where $x * 10 <= $y return $x + $y",
        // Joins (hash/sort-eligible equality, plus residual conjunct).
        "for $b in doc('bib.xml')/bib/book, $a in $b/author \
         where $a/last = 'Stevens' return $b/title",
        "for $x in (1,2,3), $y in (2,3,4) where $x = $y and $x > 1 return $x",
        // Outer-join / group-by unnesting (OMapConcat, GroupBy breakers).
        "for $b in doc('bib.xml')/bib/book \
         let $cheap := for $p in $b/price where number($p) < 100 return $p \
         return count($cheap)",
        // Order-by breaker downstream of a streaming chain.
        "for $b in doc('bib.xml')/bib/book order by string($b/title) descending \
         return $b/title/text()",
        // Quantifiers (MapSome / MapEvery short-circuits).
        "some $b in doc('bib.xml')/bib/book satisfies $b/@year = 2000",
        "every $b in doc('bib.xml')/bib/book satisfies count($b/author) >= 1",
        // Conditionals in table position and nested FLWOR.
        "if (count(doc('bib.xml')//book) > 2) \
         then for $x in (1,2) return $x else for $x in (8,9) return $x",
        "for $b in doc('bib.xml')/bib/book \
         return <entry>{ $b/title, for $a in $b/author return $a/last }</entry>",
        // Positional predicates and element construction.
        "doc('bib.xml')/bib/book[2]/author[last()]/last/text()",
        "<out>{ for $b in doc('bib.xml')/bib/book[price > 50] return $b/@year }</out>",
        // Error-raising queries: both engines must produce the code.
        "exactly-one(())",
        "for $x in (1,2) return exactly-one(())",
        "for $x in (1,2,3) where $x idiv 0 = 1 return $x",
        "for $b in doc('bib.xml')/bib/book return $b/title + 1",
        "zero-or-one((1,2))",
        "for $x in ('a','b') order by $x return error:undefined($x)",
    ];
    for q in queries {
        assert_strategies_agree(&e, q, "fixed corpus");
    }
}

// ===== randomized cross-engine property =====================================

/// A small total-FLWOR generator: integer data, comparison/arithmetic
/// predicates that cannot raise (no division), optional second generator
/// variable (exercising joins/products), optional order-by (a breaker).
fn flwor_query() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0i64..8, 1..6),
        prop::collection::vec(0i64..8, 1..6),
        0i64..8,
        0usize..4,
    )
        .prop_map(|(xs, ys, k, shape)| {
            let xs = xs
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let ys = ys
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            match shape {
                0 => format!("for $x in ({xs}) where $x >= {k} return $x * 2"),
                1 => format!("for $x in ({xs}), $y in ({ys}) where $x = $y return $x + 10 * $y"),
                2 => format!(
                    "for $x in ({xs}) let $m := (for $y in ({ys}) where $y = $x return $y) \
                     return ($x, count($m))"
                ),
                _ => format!(
                    "for $x at $i in ({xs}) where $x > {k} order by $x, $i descending \
                     return ($i, $x)"
                ),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_flwor_strategies_agree(q in flwor_query()) {
        let e = Engine::new();
        let reference = interpreted(&e, &q);
        for mode in ALGEBRA_MODES {
            let pipelined = outcome(&e, &q, &CompileOptions::mode(mode));
            prop_assert_eq!(&pipelined, &reference, "mode {:?} query {}", mode, q);
        }
    }
}
