//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<phase>`, or `request` for the root), a
//! start and an end on one clock, the id of the span that caused it and the
//! request it belongs to. Each client thread owns one [`Spans`] store, so
//! recording takes no lock; stores are kept in memory and written out when
//! the run ends.
//!
//! Spans marked `derived` are placed from durations that the program
//! itself reports (a `ServiceOutput` or the lifecycle journal): their
//! lengths are the program's, their positions inside the client-timed
//! parent are laid end to end by the benchmark.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::{stats, Outcome, Run};

/// Allowed mismatch between the traced layers' sum and the end-to-end time.
const SIGMA_TOLERANCE_PCT: f64 = 1.0;

pub const ROOT: &str = "request";

pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub derived: bool,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's trace epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its id (ids start at 1; parent 0 is none).
    pub fn add(&mut self, req: u64, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        self.push(req, parent, name, start, end, false)
    }

    pub fn add_derived(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u32 {
        self.push(req, parent, name, start, end, true)
    }

    fn push(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        start: u64,
        end: u64,
        derived: bool,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start,
            end: end.max(start),
            derived,
        });
        id
    }

    /// Opens a span that [`Spans::end`] closes; children can name it as
    /// their parent in between.
    pub fn begin(&mut self, req: u64, parent: u32, name: &'static str) -> u32 {
        let t = self.now();
        self.push(req, parent, name, t, t, false)
    }

    pub fn end(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize - 1].end = t;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.add(req, parent, name, t0, t1);
        out
    }

    /// Lays derived children end to end inside `parent`, ending at `end`
    /// (the service's phases happen last in the interval the client
    /// waited); each is clipped to start no earlier than `floor`.
    pub fn lay_back(
        &mut self,
        req: u64,
        parent: u32,
        floor: u64,
        end: u64,
        phases: &[(&'static str, u64)],
    ) {
        let total: u64 = phases.iter().map(|p| p.1).sum();
        let mut t = end.saturating_sub(total).max(floor);
        for &(name, nanos) in phases {
            let e = (t + nanos).min(end);
            self.add_derived(req, parent, name, t, e);
            t = e;
        }
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover.
pub fn self_times(stores: &[Spans]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for store in stores {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); store.spans.len() + 1];
        for (i, s) in store.spans.iter().enumerate() {
            if s.parent != 0 {
                children[s.parent as usize].push(i);
            }
        }
        for s in &store.spans {
            let mut iv: Vec<(u64, u64)> = children[s.id as usize]
                .iter()
                .map(|&c| {
                    let c = &store.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            *out.entry(s.name).or_insert(0) += (s.end - s.start) - covered;
        }
    }
    out
}

/// The layer a span name belongs to; the root's self time is the
/// remainder no layer accounts for.
pub fn layer_of(name: &str) -> &str {
    if name == ROOT {
        "remainder"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

pub fn span_count(stores: &[Spans]) -> usize {
    stores.iter().map(|s| s.spans.len()).sum()
}

/// Writes every span as one JSON line to `path`.
pub fn write_jsonl(path: &std::path::Path, stores: &[Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, store) in stores.iter().enumerate() {
        for s in &store.spans {
            writeln!(
                w,
                "{{\"thread\":{thread},\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.req, s.id, s.parent, s.name, s.start, s.end, s.derived
            )?;
        }
    }
    w.flush()
}

/// Per-request self time of each layer, the remainder, the Σ-layers check
/// against the independently timed request latencies, and the overhead of
/// the traced half against the untraced half of the run.
pub fn report(
    out: &mut Outcome,
    stores: &[Spans],
    lat_ms: &[f64],
    untraced_unit_ms: f64,
    traced_unit_ms: f64,
) {
    let selfs = self_times(stores);
    let requests = lat_ms.len().max(1) as f64;
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in &selfs {
        *by_layer.entry(layer_of(name)).or_insert(0) += ns;
    }
    let mut sum_ms = 0.0;
    for layer in [
        "xml", "frontend", "core", "runtime", "engine", "service", "server",
    ] {
        let v = stats::ms_of_nanos(by_layer.remove(layer).unwrap_or(0)) / requests;
        sum_ms += v;
        out.put(format!("self.{layer}_ms"), v, "ms");
    }
    let remainder = stats::ms_of_nanos(by_layer.remove("remainder").unwrap_or(0)) / requests;
    out.check(by_layer.is_empty(), || {
        format!("spans outside every layer: {by_layer:?}")
    });
    let e2e = stats::mean(lat_ms);
    let gap_pct = if e2e > 0.0 {
        (sum_ms + remainder - e2e) / e2e * 100.0
    } else {
        0.0
    };
    out.put("trace.remainder_ms", remainder, "ms");
    out.put("trace.e2e_ms", e2e, "ms");
    out.put("trace.sigma_gap_pct", gap_pct, "%");
    out.check(gap_pct.abs() <= SIGMA_TOLERANCE_PCT, || {
        format!(
            "Σ layers + remainder = {:.4} ms/request, end to end {e2e:.4} ms: off by {gap_pct:.2}% \
             (tolerance {SIGMA_TOLERANCE_PCT}%)",
            sum_ms + remainder
        )
    });
    let overhead = if untraced_unit_ms > 0.0 {
        (traced_unit_ms / untraced_unit_ms - 1.0) * 100.0
    } else {
        0.0
    };
    out.put("trace.overhead_pct", overhead, "%");
    out.put("trace.spans", span_count(stores) as f64, "count");
}

/// Writes the run's spans under `xqbench/out/`.
pub fn write_spans(out: &mut Outcome, run: &Run, stores: &[Spans]) {
    let path = std::path::PathBuf::from(format!(
        "xqbench/out/spans-{}-seed{}.jsonl",
        run.workload, run.seed
    ));
    if let Err(e) = write_jsonl(&path, stores) {
        out.problems
            .push(format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("xqbench: spans written to {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut s = Spans::new(Instant::now());
        let root = s.add(1, 0, ROOT, 0, 100);
        s.add(1, root, "core.compile", 10, 40);
        s.add(1, root, "runtime.execute", 30, 60);
        let t = self_times(&[s]);
        assert_eq!(t[ROOT], 50);
        assert_eq!(t["core.compile"] + t["runtime.execute"], 60);
    }

    #[test]
    fn lay_back_fills_the_tail_of_the_parent() {
        let mut s = Spans::new(Instant::now());
        let root = s.add(1, 0, ROOT, 0, 100);
        s.lay_back(
            1,
            root,
            0,
            100,
            &[("service.queue", 20), ("engine.prepare", 30)],
        );
        assert_eq!((s.spans[1].start, s.spans[1].end), (50, 70));
        assert_eq!((s.spans[2].start, s.spans[2].end), (70, 100));
    }
}
