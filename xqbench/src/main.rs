//! The repository's end-to-end benchmark: one seeded workload per process,
//! outputs checked against the Core interpreter, and a separate traced run
//! that splits each request into the workspace's layers.
//!
//! ```text
//! xqbench --workload <xmark_adhoc|service_rw|http_light> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! It prints one `name value unit` line per metric and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. See `xqbench/README.md` for what each workload and
//! metric means.

mod http_light;
mod inputs;
mod oracle;
mod service_rw;
mod stats;
mod trace;
mod xmark_adhoc;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Run parameters shared by every workload.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and whether it did what it reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and failed self-checks; any entry fails the run.
    pub problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The end-to-end metrics every workload reports with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("geomean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run. A workload reports 0 for a
/// layer its requests never reach (the README lists which those are).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("frontend.parse_ms", "ms"),
        ("frontend.normalize_ms", "ms"),
        ("core.compile_ms", "ms"),
        ("core.rewrite_ms", "ms"),
        ("core.canonicalize_ms", "ms"),
        ("core.plan_ops", "count"),
        ("core.rewrite_firings", "count"),
        ("runtime.execute_ms", "ms"),
        ("xml.serialize_ms", "ms"),
        ("xml.bind_ms", "ms"),
        ("xml.documents_parsed", "count"),
        ("xml.struct_index_builds", "count"),
        ("engine.prepare_ms", "ms"),
        ("engine.plan_cache_hit_ratio", "ratio"),
        ("engine.plan_cache_lookups", "count"),
        ("engine.plan_cache_evictions", "count"),
        ("service.submit_ms", "ms"),
        ("service.queue_ms", "ms"),
        ("service.sync_ms", "ms"),
        ("service.run_ms", "ms"),
        ("service.worker_busy_ratio", "ratio"),
        ("service.parses_per_write", "count"),
        ("service.write_p50_ms", "ms"),
        ("service.direct_p50_ms", "ms"),
        ("server.connect_ms", "ms"),
        ("server.ttfb_ms", "ms"),
        ("server.body_ms", "ms"),
        ("server.unattributed_ms", "ms"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.achieved_qps", "1/s"),
        ("tail.latency_p99_ms", "ms"),
        ("mem.window_peak_rss_mb", "MiB"),
        ("error_rate", "ratio"),
        ("self.xml_ms", "ms"),
        ("self.frontend_ms", "ms"),
        ("self.core_ms", "ms"),
        ("self.runtime_ms", "ms"),
        ("self.engine_ms", "ms"),
        ("self.service_ms", "ms"),
        ("self.server_ms", "ms"),
        ("trace.remainder_ms", "ms"),
        ("trace.e2e_ms", "ms"),
        ("trace.sigma_gap_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in inputs::table_programs() {
        v.push((format!("runtime.execute_ms.{}", p.name), "ms"));
    }
    v
}

const USAGE: &str = "usage: xqbench --workload <xmark_adhoc|service_rw|http_light> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run.workload.as_str() {
        "xmark_adhoc" => xmark_adhoc::run(&run),
        "service_rw" => service_rw::run(&run),
        "http_light" => http_light::run(&run),
        other => {
            eprintln!("xqbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expected: Vec<(String, &'static str)> = if run.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    if run.trace {
        outcome.put("error_rate", error_rate, "ratio");
    }
    let mut metrics = Vec::new();
    for (name, unit) in &expected {
        let value = match outcome.metrics.get(name) {
            Some(&(v, u)) => {
                outcome.check(u == *unit, || {
                    format!("{name}: unit {u}, catalogue says {unit}")
                });
                v
            }
            None if run.trace => 0.0,
            None => {
                outcome.problems.push(format!("{name}: not measured"));
                0.0
            }
        };
        metrics.push((name.clone(), value, *unit));
    }
    for name in outcome.metrics.keys() {
        if !expected.iter().any(|(n, _)| n == name) {
            outcome
                .problems
                .push(format!("{name}: not in the metric catalogue"));
        }
    }
    if outcome.attempted == 0 {
        outcome.problems.push("no request was attempted".into());
    }
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{:<32} {:>16} of {} attempted, error_rate {error_rate}",
        "failed", outcome.failed, outcome.attempted
    );
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
