//! Shared harness for reproducing the paper's Tables 3–5.
//!
//! The `report` binary prints the tables; the Criterion benches under
//! `benches/` measure scaled-down versions suitable for CI.

use std::time::{Duration, Instant};

use xqr_engine::{CompileOptions, Engine, ExecutionMode};

/// Builds an engine with a generated XMark document of ~`bytes` bound as
/// `auction.xml`. Returns the engine and the document size.
pub fn xmark_engine(bytes: usize) -> (Engine, usize) {
    let xml = xqr_xmark::generate(&xqr_xmark::GenOptions::for_bytes(bytes));
    let len = xml.len();
    let mut e = Engine::new();
    e.bind_document("auction.xml", &xml)
        .expect("auction.xml parses");
    (e, len)
}

/// Builds an engine with a generated DBLP document of ~`bytes` bound as
/// `dblp.xml`.
pub fn clio_engine(bytes: usize) -> (Engine, usize) {
    let xml = xqr_clio::generate_dblp(&xqr_clio::DblpOptions::for_bytes(bytes));
    let len = xml.len();
    let mut e = Engine::new();
    e.bind_document("dblp.xml", &xml).expect("dblp.xml parses");
    (e, len)
}

/// Times one evaluation of a prepared query (compilation excluded, per the
/// paper's Table 4 methodology: "measurements exclude the times to load the
/// input document … and to serialize").
pub fn time_eval(engine: &Engine, query: &str, mode: ExecutionMode) -> Duration {
    let prepared = engine
        .prepare(query, &CompileOptions::mode(mode))
        .unwrap_or_else(|e| panic!("prepare failed: {e}"));
    let t = Instant::now();
    prepared
        .run(engine)
        .unwrap_or_else(|e| panic!("run failed ({mode:?}): {e}"));
    t.elapsed()
}

/// Times the full 20-query XMark suite including result serialization
/// (Table 3 methodology: load once, evaluate all twenty, serialize all
/// results).
pub fn time_xmark_suite(engine: &Engine, mode: ExecutionMode) -> Duration {
    time_xmark_suite_opts(engine, &CompileOptions::mode(mode))
}

/// Like [`time_xmark_suite`] but with explicit [`CompileOptions`] — used
/// by the governor-overhead measurement to compare limit-enforced runs
/// against the default (unlimited) path on the same build.
pub fn time_xmark_suite_opts(engine: &Engine, options: &CompileOptions) -> Duration {
    let t = Instant::now();
    for n in 1..=xqr_xmark::QUERY_COUNT {
        let prepared = engine
            .prepare(xqr_xmark::query(n), options)
            .unwrap_or_else(|e| panic!("Q{n} prepare failed: {e}"));
        let result = prepared
            .run(engine)
            .unwrap_or_else(|e| panic!("Q{n} failed: {e}"));
        std::hint::black_box(xqr_xml::serialize_sequence(&result));
    }
    t.elapsed()
}

/// Human-readable duration in the paper's style (e.g. `1m54.2s`, `0.14s`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 3600.0 {
        format!("{}h{:.0}m", (secs / 3600.0) as u64, (secs % 3600.0) / 60.0)
    } else if secs >= 60.0 {
        format!("{}m{:.1}s", (secs / 60.0) as u64, secs % 60.0)
    } else {
        format!("{secs:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(140)), "0.14s");
        assert_eq!(fmt_duration(Duration::from_secs(75)), "1m15.0s");
        assert_eq!(fmt_duration(Duration::from_secs(4100)), "1h8m");
    }

    #[test]
    fn harness_smoke() {
        let (e, len) = xmark_engine(60_000);
        assert!(len > 10_000);
        let d = time_eval(&e, xqr_xmark::query(1), ExecutionMode::OptimHashJoin);
        assert!(d < Duration::from_secs(10));
        let (e, _) = clio_engine(5_000);
        let d = time_eval(
            &e,
            &xqr_clio::mapping_query(2),
            ExecutionMode::OptimHashJoin,
        );
        assert!(d < Duration::from_secs(10));
    }
}
