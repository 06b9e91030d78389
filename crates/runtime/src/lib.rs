//! # xqr-runtime — physical evaluation
//!
//! Executes logical plans from `xqr-core`:
//!
//! * [`value`] — tuples, tables, and the values flowing between operators;
//! * [`context`] — the dynamic context (globals, function frames, document
//!   resolver, schema, join-algorithm selection);
//! * [`compare`] — effective boolean value, `op:equal` with promotion, the
//!   full general-comparison semantics (atomization + existential
//!   quantification + `fs:convert-operand`), and XQuery ordering;
//! * [`functions`] — the built-in function library (`fn:`, `op:`, `fs:`);
//! * [`batch`] — batched execution: fused, type-specialized comparison
//!   kernels for the `Call[fs:*]` predicate chains that dominate the
//!   scalar hot path, with per-row scalar fallback preserving exact
//!   semantics (the default; `Ctx::batched = false` opts out);
//! * [`eval`] — the plan evaluator: item operators, breakers, and the
//!   tuples-to-items boundaries;
//! * [`pipeline`] — the pipelined (cursor) execution layer, the one
//!   physical implementation of every streaming tuple operator: fused pull
//!   cursors that materialize only at genuine pipeline breakers
//!   (`OrderBy`, `GroupBy`, join/product build sides);
//! * [`groupby`] — the physical XQuery `GroupBy` of Section 5 (pre-grouping
//!   per-item operator, post-grouping per-partition operator, index/null
//!   fields — Fig. 4);
//! * [`joins`] — the join algorithms of Section 6: order-preserving
//!   nested-loop, the typed **hash join** of Fig. 6 (`materialize` /
//!   `allMatches` / `equalityJoin` over `(value, type)` keys), and an
//!   order-preserving B-tree (sort) join;
//! * [`interp`] — the direct Core interpreter, reproducing the paper's "No
//!   algebra" baseline (dynamic variable lookups in a QName-keyed context,
//!   no tuple pipeline);
//! * [`profile`] — per-operator runtime statistics (rows, calls, sampled
//!   time, peak materialized bytes) collected into a [`profile::QueryProfile`]
//!   tree mirroring the plan shape, the engine's `EXPLAIN ANALYZE` backend;
//! * [`spill`] — out-of-core operator variants engaged when the governor's
//!   soft memory watermark trips: Grace-style partitioned hash join,
//!   partitioned group-by, and a stable external merge sort, all over
//!   CRC-checked, self-deleting spill files.

pub mod batch;
pub mod compare;
pub mod context;
pub mod eval;
pub mod functions;
pub mod groupby;
pub mod interp;
pub mod joins;
pub mod pipeline;
pub mod profile;
pub mod spill;
pub mod value;

pub use context::{Ctx, JoinAlgorithm};
pub use eval::eval_plan;
pub use interp::{
    eval_core_module, eval_core_module_profiled, eval_core_module_with, InterpProfile,
};
pub use pipeline::{explain_annotations, pipeline_report};
pub use profile::{fmt_nanos, OpStats, ProfileNode, Profiler, QueryProfile};
pub use value::{InputVal, Table, Tuple, Value};
