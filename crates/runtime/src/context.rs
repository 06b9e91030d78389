//! The dynamic evaluation context (the paper's implicit *algebra context*:
//! function parameters and compiled plans for user functions, plus globals,
//! loaded documents, the schema, and physical-operator configuration).

use std::collections::HashMap;

use xqr_core::CompiledModule;
use xqr_types::Schema;
use xqr_xml::{Governor, NodeHandle, QName, Sequence, XmlError};

/// Which physical algorithm `Join`/`LOuterJoin` use when an equality key
/// can be split across the inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinAlgorithm {
    /// Always nested loop (the paper's "NL Join" column).
    NestedLoop,
    /// The typed, order-preserving hash join of Fig. 6.
    Hash,
    /// The order-preserving B-tree index (sort) join.
    Sort,
}

/// Dynamic context for plan evaluation.
pub struct Ctx<'a> {
    pub module: &'a CompiledModule,
    pub schema: &'a Schema,
    /// Pre-loaded documents for `Parse` (fn:doc), keyed by URI.
    pub documents: &'a HashMap<String, NodeHandle>,
    /// Global variable values (externals and evaluated declarations).
    pub globals: HashMap<QName, Sequence>,
    /// Function-call frames (parameters by name).
    frames: Vec<HashMap<QName, Sequence>>,
    pub join_algorithm: JoinAlgorithm,
    /// Batched (vectorized) execution of the tuple cursors: fused,
    /// type-specialized comparison kernels for provably safe predicate
    /// shapes, with per-row scalar fallback everywhere else. On by
    /// default; `false` (`CompileOptions::scalar_kernels`) forces every
    /// predicate down the row-at-a-time scalar path, the reference the
    /// batched/scalar differential suite compares against.
    pub batched: bool,
    /// The resource governor: budgets, deadline, cancellation, and the
    /// single source of truth for user-function recursion depth (shared
    /// with the Core interpreter, which tracks depth through the same
    /// type).
    pub governor: Governor,
    /// Per-operator profiling (`explain_analyze`). `None` — the default —
    /// leaves every instrumentation site at a single branch test.
    pub profiler: Option<crate::profile::Profiler>,
    /// The query's scoped spill directory, created lazily on first spill
    /// and removed (with everything in it) when the context drops — the
    /// engine drops the context on every exit path, including unwinds.
    spill: Option<std::rc::Rc<crate::spill::SpillManager>>,
    /// Per-step-site compiled-test caches for the eager `TreeJoin` arm,
    /// keyed by plan address. A step inside a per-tuple dependent plan is
    /// re-evaluated once per row; without this it recompiles its node test
    /// (a `QName` allocation plus an interned-name hash lookup) every
    /// time. Addresses can be recycled mid-run (per-call function-body
    /// clones), which is safe: the cache verifies its own `(axis, test)`
    /// site and self-clears on mismatch (see `xqr_xml::axes::TestCache`).
    step_tests: std::cell::RefCell<
        HashMap<usize, std::rc::Rc<std::cell::RefCell<xqr_xml::axes::TestCache>>>,
    >,
}

impl<'a> Ctx<'a> {
    pub fn new(
        module: &'a CompiledModule,
        schema: &'a Schema,
        documents: &'a HashMap<String, NodeHandle>,
        join_algorithm: JoinAlgorithm,
    ) -> Self {
        Ctx {
            module,
            schema,
            documents,
            globals: HashMap::new(),
            frames: Vec::new(),
            join_algorithm,
            batched: true,
            governor: Governor::unlimited(),
            profiler: None,
            spill: None,
            step_tests: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// The compiled-test cache for a `TreeJoin` step site, creating it on
    /// first use. Bounded defensively: a pathological plan churn (many
    /// distinct sites) clears the whole map rather than growing without
    /// limit.
    pub(crate) fn step_cache(
        &self,
        plan: &xqr_core::algebra::Plan,
    ) -> std::rc::Rc<std::cell::RefCell<xqr_xml::axes::TestCache>> {
        let key = plan as *const _ as usize;
        let mut map = self.step_tests.borrow_mut();
        if map.len() > 1024 && !map.contains_key(&key) {
            map.clear();
        }
        map.entry(key).or_default().clone()
    }

    /// The query's spill manager, creating the scoped temp directory on
    /// first use.
    pub(crate) fn spill_manager(
        &mut self,
    ) -> xqr_xml::Result<std::rc::Rc<crate::spill::SpillManager>> {
        if let Some(m) = &self.spill {
            return Ok(m.clone());
        }
        let m = crate::spill::SpillManager::create(&self.governor)?;
        self.spill = Some(m.clone());
        Ok(m)
    }

    /// Resolves a free variable: innermost function frame, then globals.
    pub fn lookup_var(&self, q: &QName) -> xqr_xml::Result<Sequence> {
        if let Some(frame) = self.frames.last() {
            if let Some(v) = frame.get(q) {
                return Ok(v.clone());
            }
        }
        self.globals
            .get(q)
            .cloned()
            .ok_or_else(|| XmlError::new("XPDY0002", format!("unbound variable ${q}")))
    }

    pub fn push_frame(&mut self, frame: HashMap<QName, Sequence>) -> xqr_xml::Result<()> {
        self.governor.enter_frame()?;
        self.frames.push(frame);
        Ok(())
    }

    pub fn pop_frame(&mut self) {
        self.frames.pop();
        self.governor.exit_frame();
    }

    pub fn resolve_document(&self, uri: &str) -> xqr_xml::Result<NodeHandle> {
        self.documents
            .get(uri)
            .cloned()
            .ok_or_else(|| XmlError::new("FODC0002", format!("document not available: {uri}")))
    }
}
