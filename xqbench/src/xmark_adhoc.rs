//! `xmark_adhoc`: the paper's Table 3/4 method. One closed-loop client on an
//! in-process `Engine` runs XMark Q1–Q20 and Clio N2 in a seeded order per
//! pass; every request compiles (`Engine::prepare`, no plan cache), runs
//! and serializes. Nearly all work is in `frontend`, `core` and `runtime`;
//! `service` and `server` are bypassed.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use xqr_engine::{CompileOptions, Engine, EngineError};
use xqr_runtime::{Ctx, JoinAlgorithm};
use xqr_types::Schema;
use xqr_xml::{CancellationToken, Governor, Limits, NodeHandle, ParseOptions};

use crate::inputs::{self, Program, Rng};
use crate::oracle::Oracle;
use crate::stats::{self, fingerprint, ms};
use crate::trace::{self, Spans, ROOT};
use crate::{Outcome, Run};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One untraced request: compile, run, serialize. Returns the output, the
/// canonical plan hash (present only when the plan was compiled) and the
/// time `Engine::prepare` took.
fn request(engine: &Engine, text: &str) -> Result<(String, Option<u64>, Duration), EngineError> {
    let t0 = Instant::now();
    let prepared = engine.prepare(text, &CompileOptions::default())?;
    let prepare = t0.elapsed();
    let seq = prepared.run(engine)?;
    Ok((
        xqr_xml::serialize_sequence(&seq),
        prepared.canonical_hash(),
        prepare,
    ))
}

/// What one loop over the programs observed.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    lat_ms: Vec<f64>,
    by_program: Vec<Vec<f64>>,
    outputs: Vec<BTreeSet<u64>>,
    pass_ms: Vec<f64>,
    errors: Vec<String>,
    elapsed: Duration,
}

impl Window {
    fn new(n: usize) -> Window {
        Window {
            by_program: vec![Vec::new(); n],
            outputs: vec![BTreeSet::new(); n],
            ..Window::default()
        }
    }
}

/// Runs passes of the programs in seeded order until `deadline`, calling
/// `one` for each request; `one` returns the output text.
fn closed_loop(
    programs: &[Program],
    order: &mut Rng,
    deadline: Instant,
    mut one: impl FnMut(usize) -> Result<String, String>,
) -> Window {
    let mut w = Window::new(programs.len());
    let t_start = Instant::now();
    'passes: loop {
        let mut idx: Vec<usize> = (0..programs.len()).collect();
        order.shuffle(&mut idx);
        let t_pass = Instant::now();
        for i in idx {
            if Instant::now() >= deadline {
                break 'passes;
            }
            w.attempted += 1;
            let t0 = Instant::now();
            let r = one(i);
            let lat = ms(t0.elapsed());
            match r {
                Ok(text) => {
                    w.lat_ms.push(lat);
                    w.by_program[i].push(lat);
                    w.outputs[i].insert(fingerprint(&text));
                }
                Err(e) => {
                    w.failed += 1;
                    w.errors.push(format!("{}: {e}", programs[i].name));
                }
            }
        }
        w.pass_ms.push(ms(t_pass.elapsed()));
    }
    w.elapsed = t_start.elapsed();
    w
}

/// The traced request path: `Engine::prepare` rebuilt from the layers'
/// public functions, then the runtime and the serializer called directly.
struct Rebuilt<'a> {
    docs: &'a HashMap<String, NodeHandle>,
    schema: Schema,
    parse_depth: usize,
}

struct Traced {
    text: String,
    hash: u64,
    plan_ops: usize,
    firings: usize,
    execute_ns: u64,
}

impl Rebuilt<'_> {
    fn request(&self, sp: &mut Spans, req: u64, query: &str) -> Result<Traced, String> {
        let root = sp.begin(req, 0, ROOT);
        let module = sp
            .time(req, root, "frontend.parse", || {
                xqr_frontend::parse_query_with(query, self.parse_depth)
            })
            .map_err(|e| e.to_string())?;
        let core = sp.time(req, root, "frontend.normalize", || {
            xqr_frontend::normalize_module(&module)
        });
        let mut compiled = sp.time(req, root, "core.compile", || {
            xqr_core::compile_module(&core)
        });
        let stats = sp.time(req, root, "core.rewrite", || {
            xqr_core::rewrite_module_with(&mut compiled, xqr_core::RuleConfig::default())
        });
        let hash = sp.time(req, root, "core.canonicalize", || {
            xqr_core::canonicalize_module(&mut compiled);
            xqr_core::module_hash(&compiled)
        });
        let mut ctx = Ctx::new(&compiled, &self.schema, self.docs, JoinAlgorithm::Hash);
        ctx.governor = Governor::new(&Limits::default(), CancellationToken::new());
        let t_exec = sp.now();
        let seq = sp
            .time(req, root, "runtime.execute", || {
                xqr_runtime::eval::eval_module(&mut ctx)
            })
            .map_err(|e| e.to_string())?;
        let execute_ns = sp.now() - t_exec;
        let text = sp.time(req, root, "xml.serialize", || {
            xqr_xml::serialize_sequence(&seq)
        });
        let plan_ops = xqr_core::algebra::plan_size(&compiled.body);
        // Freeing the result and the plan is part of the request; it
        // stays in the root's self time.
        drop((seq, ctx));
        drop(compiled);
        sp.end(root);
        Ok(Traced {
            text,
            hash,
            plan_ops,
            firings: stats.applications.values().sum(),
            execute_ns,
        })
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let auction = inputs::xmark(
        inputs::XMARK_BYTES,
        Rng::derive(run.seed, "auction").next_u64(),
    );
    let dblp = inputs::dblp(inputs::DBLP_BYTES, Rng::derive(run.seed, "dblp").next_u64());
    let programs = inputs::table_programs();
    let n = programs.len();

    // Set-up: bind both documents and warm every program once, so the lazy
    // structural indexes are built before timing.
    let mut setup_s = Vec::new();
    let mut bind_ms = Vec::new();
    let mut engine = Engine::new();
    let mut ready_rss = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut e = Engine::new();
        let tb = Instant::now();
        let bound = e.bind_document("auction.xml", &auction);
        bind_ms.push(ms(tb.elapsed()));
        let bound = bound.and_then(|()| e.bind_document("dblp.xml", &dblp));
        if let Err(err) = bound {
            out.problems
                .push(format!("set-up: document does not bind: {err}"));
            return out;
        }
        for p in &programs {
            if let Err(err) = request(&e, &p.text) {
                out.problems
                    .push(format!("set-up: {} failed: {err}", p.name));
                return out;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        ready_rss.get_or_insert_with(stats::peak_rss_mb);
        engine = e;
    }

    let mut order = Rng::derive(run.seed, "order");
    let window = Duration::from_secs_f64(run.seconds);
    let untraced_window = if run.trace { window / 2 } else { window };
    let m0 = engine.metrics_snapshot();
    let mut engine_hash: Vec<Option<u64>> = vec![None; n];
    let mut prepare_ns = 0u128;
    let w = closed_loop(
        &programs,
        &mut order,
        Instant::now() + untraced_window,
        |i| {
            let (text, hash, prepare) =
                request(&engine, &programs[i].text).map_err(|e| e.to_string())?;
            prepare_ns += prepare.as_nanos();
            engine_hash[i] = hash;
            Ok(text)
        },
    );
    let m1 = engine.metrics_snapshot();
    out.attempted += w.attempted;
    out.failed += w.failed;
    out.problems.extend(w.errors.iter().cloned());

    // Self-checks: every request compiled (no cache was consulted, every
    // prepared query carries a compiled plan), and no index was built
    // inside the window.
    out.check(engine_hash.iter().all(Option::is_some), || {
        "a program ran without a compiled plan".into()
    });
    out.check(
        engine.plan_cache_len() == 0
            && m1.plan_cache_hits == m0.plan_cache_hits
            && m1.plan_cache_misses == m0.plan_cache_misses,
        || "the plan cache was consulted; every request must compile".into(),
    );
    out.check(m1.struct_index_builds == m0.struct_index_builds, || {
        format!(
            "{} structural index builds inside the timed window",
            m1.struct_index_builds - m0.struct_index_builds
        )
    });

    let mut oracle = Oracle::new(&[("auction.xml", &auction), ("dblp.xml", &dblp)]);
    let mut check_outputs = |out: &mut Outcome, seen: &[BTreeSet<u64>], path: &str| {
        for (p, seen) in programs.iter().zip(seen) {
            match oracle.reference(&p.text) {
                Ok(r) => out.check(seen.iter().all(|h| *h == r), || {
                    format!(
                        "{} ({path}): output differs from the Core interpreter",
                        p.name
                    )
                }),
                Err(e) => out.problems.push(format!("{}: {e}", p.name)),
            }
        }
    };

    if !run.trace {
        check_outputs(&mut out, &w.outputs, "engine");
        let medians: Vec<f64> = w.by_program.iter().map(|v| stats::median(v)).collect();
        out.put("setup_s", stats::median(&setup_s), "s");
        out.put(
            "throughput_qps",
            w.lat_ms.len() as f64 / w.elapsed.as_secs_f64(),
            "1/s",
        );
        out.put("latency_p50_ms", stats::median(&w.lat_ms), "ms");
        let p99 = stats::tail(&w.lat_ms, 0.99, &mut out.problems, "latency");
        out.put("latency_tail_ms", p99, "ms");
        out.put("geomean_ms", stats::geomean(&medians), "ms");
        out.put("peak_rss_mb", ready_rss.unwrap_or(0.0), "MiB");
        return out;
    }

    // Traced half: the same loop through the rebuilt path, with a span
    // around every layer call.
    let mut docs = HashMap::new();
    for (uri, xml) in [("auction.xml", &auction), ("dblp.xml", &dblp)] {
        match xqr_xml::parse_document(xml, &ParseOptions::default()) {
            Ok(d) => {
                docs.insert(uri.to_string(), d.root());
            }
            Err(e) => {
                out.problems.push(format!("{uri} does not parse: {e}"));
                return out;
            }
        }
    }
    let rebuilt = Rebuilt {
        docs: &docs,
        schema: Schema::default(),
        parse_depth: Limits::default().max_parse_depth,
    };
    let epoch = Instant::now();
    let mut warm = Spans::new(epoch);
    for p in &programs {
        if let Err(e) = rebuilt.request(&mut warm, 0, &p.text) {
            out.problems
                .push(format!("rebuilt path: {} failed: {e}", p.name));
            return out;
        }
    }
    let mut sp = Spans::new(epoch);
    let mut req = 0u64;
    let mut exec_by_program: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut plan_ops = vec![0usize; n];
    let mut firings = vec![0usize; n];
    let mut hash_mismatch = BTreeSet::new();
    let t0 = engine.metrics_snapshot();
    let tw = closed_loop(
        &programs,
        &mut order,
        Instant::now() + (window - untraced_window),
        |i| {
            req += 1;
            let t = rebuilt.request(&mut sp, req, &programs[i].text)?;
            exec_by_program[i].push(stats::ms_of_nanos(t.execute_ns));
            plan_ops[i] = t.plan_ops;
            firings[i] = t.firings;
            if engine_hash[i] != Some(t.hash) {
                hash_mismatch.insert(programs[i].name.clone());
            }
            Ok(t.text)
        },
    );
    let t1 = engine.metrics_snapshot();
    out.put("mem.window_peak_rss_mb", stats::peak_rss_mb(), "MiB");
    let all_lat: Vec<f64> = w.lat_ms.iter().chain(&tw.lat_ms).copied().collect();
    let p99 = stats::tail(&all_lat, 0.99, &mut out.problems, "latency");
    out.put("tail.latency_p99_ms", p99, "ms");
    out.attempted += tw.attempted;
    out.failed += tw.failed;
    out.problems.extend(tw.errors.iter().cloned());
    out.check(hash_mismatch.is_empty(), || {
        format!("rebuilt prepare differs from Engine::prepare on {hash_mismatch:?}")
    });
    check_outputs(&mut out, &w.outputs, "engine");
    check_outputs(&mut out, &tw.outputs, "rebuilt");

    let stores = [sp];
    let selfs = trace::self_times(&stores);
    let requests = tw.lat_ms.len().max(1) as f64;
    let passes = requests / n as f64;
    let untraced_passes = w.lat_ms.len().max(1) as f64 / n as f64;
    for (name, metric) in [
        ("frontend.parse", "frontend.parse_ms"),
        ("frontend.normalize", "frontend.normalize_ms"),
        ("core.compile", "core.compile_ms"),
        ("core.rewrite", "core.rewrite_ms"),
        ("core.canonicalize", "core.canonicalize_ms"),
        ("runtime.execute", "runtime.execute_ms"),
        ("xml.serialize", "xml.serialize_ms"),
    ] {
        out.put(
            metric,
            stats::ms_of_nanos(selfs.get(name).copied().unwrap_or(0)) / passes,
            "ms",
        );
    }
    for (p, v) in programs.iter().zip(&exec_by_program) {
        out.put(
            format!("runtime.execute_ms.{}", p.name),
            stats::median(v),
            "ms",
        );
    }
    out.put(
        "core.plan_ops",
        plan_ops.iter().sum::<usize>() as f64,
        "count",
    );
    out.put(
        "core.rewrite_firings",
        firings.iter().sum::<usize>() as f64,
        "count",
    );
    out.put(
        "engine.prepare_ms",
        prepare_ns as f64 / 1e6 / untraced_passes,
        "ms",
    );
    out.put("xml.bind_ms", stats::median(&bind_ms), "ms");
    out.put(
        "xml.documents_parsed",
        (t1.documents_parsed - t0.documents_parsed) as f64,
        "count",
    );
    out.put(
        "xml.struct_index_builds",
        (t1.struct_index_builds - t0.struct_index_builds) as f64,
        "count",
    );
    trace::report(
        &mut out,
        &stores,
        &tw.lat_ms,
        stats::mean(&w.pass_ms),
        stats::mean(&tw.pass_ms),
    );
    trace::write_spans(&mut out, run, &stores);
    out
}
