//! Reference outputs from the Core interpreter (`ExecutionMode::NoAlgebra`),
//! the paper's "no algebra" baseline: it shares only the parser and
//! normalizer with the algebraic path under test. References are computed
//! after the timed window and outside set-up.

use std::collections::HashMap;

use xqr_engine::{CompileOptions, Engine, ExecutionMode};

use crate::stats::fingerprint;

pub struct Oracle {
    engine: Engine,
    refs: HashMap<String, Result<u64, String>>,
}

impl Oracle {
    /// An interpreter over one version of each named document.
    pub fn new(docs: &[(&str, &str)]) -> Oracle {
        let mut engine = Engine::new();
        for (uri, xml) in docs {
            engine
                .bind_document(uri, xml)
                .unwrap_or_else(|e| panic!("oracle: {uri} does not parse: {e}"));
        }
        Oracle {
            engine,
            refs: HashMap::new(),
        }
    }

    /// The fingerprint of the reference output of `query`.
    pub fn reference(&mut self, query: &str) -> Result<u64, String> {
        let engine = &self.engine;
        self.refs
            .entry(query.to_string())
            .or_insert_with(|| {
                engine
                    .prepare(query, &CompileOptions::mode(ExecutionMode::NoAlgebra))
                    .and_then(|p| p.run_to_string(engine))
                    .map(|s| fingerprint(&s))
                    .map_err(|e| format!("reference run failed: {e}"))
            })
            .clone()
    }
}
