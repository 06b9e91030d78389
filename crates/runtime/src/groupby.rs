//! The physical XQuery `GroupBy` of Section 5.
//!
//! `GroupBy[qAgg, qIndices, qNulls]{Op2}{Op1}(Op0)`:
//!
//! 1. tuples from `Op0` are stably sorted ascending by the integer values
//!    of the `qIndices` fields and partitioned on equal values;
//! 2. the **pre-grouping** operator `Op1` is applied to each tuple whose
//!    `qNulls` flags are all false, producing items (not tuples — the
//!    paper's partitions "contain sequences of items instead of tuples of
//!    individual items");
//! 3. the **post-grouping** operator `Op2` is applied once per partition to
//!    the concatenated item sequence and bound to `qAgg`;
//! 4. each partition yields one tuple: its first input tuple extended with
//!    the `qAgg` field.
//!
//! Fig. 4 of the paper is reproduced verbatim in this module's tests.

use std::cmp::Ordering;
use std::collections::HashMap;

use xqr_core::algebra::{Field, Plan};
use xqr_xml::{AtomicValue, Item, Sequence, XmlError};

use crate::compare::effective_boolean_value;
use crate::context::Ctx;
use crate::eval::eval_dep_items;
use crate::pipeline::TupleCursor;
use crate::value::{InputVal, Table, Tuple};

/// One in-progress partition of the streaming GroupBy.
struct Part {
    key: Vec<i64>,
    rep: Tuple,
    items: Vec<Item>,
}

/// The GroupBy operator: consumes its input as a cursor — the input table
/// (typically a join output, the largest intermediate of the unnesting
/// pipeline) never materializes, and each tuple is released as soon as its
/// pre-grouping items are extracted. While keys arrive in non-decreasing
/// order (which the unnesting pipeline guarantees by construction) no hash
/// table and no sort are needed: a partition closes the moment its key is
/// passed. The first out-of-order key switches to hash-merging, and the
/// output is key-sorted at the end — the stable-sort-then-partition
/// semantics above for any input: partitions with equal keys merge, output
/// partitions are ordered by ascending key, the representative is the
/// first tuple seen per partition, and items accumulate in input order.
/// `stats` (when profiling) receives the number of partitions produced.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_group_by_streaming<'p>(
    agg: &Field,
    index_fields: &[Field],
    null_fields: &[Field],
    per_partition: &Plan,
    per_item: &Plan,
    src: &mut (dyn TupleCursor<'p> + 'p),
    ctx: &mut Ctx<'_>,
    stats: Option<&crate::profile::OpStats>,
) -> xqr_xml::Result<Table> {
    // Closed partitions; during the sorted phase their keys are strictly
    // increasing and unique. `by_key` is `Some` once an out-of-order key
    // has been seen.
    let mut done: Vec<Part> = Vec::new();
    let mut cur_part: Option<Part> = None;
    let mut by_key: Option<HashMap<Vec<i64>, usize>> = None;
    // Set once the governor's watermark flips mid-stream: accumulated
    // partitions migrate to disk and the rest of the cursor streams
    // straight into the spiller.
    let mut spiller: Option<crate::spill::GroupSpill> = None;
    while let Some(t) = src.next(ctx) {
        let t = t?;
        let key = index_fields
            .iter()
            .map(|f| index_value(&t, f))
            .collect::<xqr_xml::Result<Vec<i64>>>()?;
        // Extract the tuple's items up front: the tuple moves through the
        // binding and back out, so a new partition adopts it as its
        // representative without a clone.
        let (t, items) = if all_nulls_false(&t, null_fields)? {
            let bound = InputVal::Tuple(t);
            let produced = eval_dep_items(per_item, ctx, &bound)?;
            let InputVal::Tuple(t) = bound else {
                unreachable!()
            };
            ctx.governor.charge_bytes(24 * produced.len() as u64)?;
            (t, produced.into_vec())
        } else {
            (t, Vec::new())
        };
        if spiller.is_none() && ctx.governor.should_spill() {
            let mut gs = crate::spill::GroupSpill::new(ctx)?;
            for p in done.drain(..) {
                gs.add(&p.key, &p.rep, &p.items)?;
            }
            if let Some(p) = cur_part.take() {
                gs.add(&p.key, &p.rep, &p.items)?;
            }
            by_key = None;
            spiller = Some(gs);
        }
        if let Some(gs) = &mut spiller {
            gs.add(&key, &t, &items)?;
            continue;
        }
        if let Some(map) = &mut by_key {
            merge_hash(&mut done, map, key, t, items);
            continue;
        }
        match cur_part.as_ref().map(|p| p.key.cmp(&key)) {
            Some(Ordering::Equal) => cur_part.as_mut().unwrap().items.extend(items),
            Some(Ordering::Less) => {
                done.push(cur_part.take().unwrap());
                cur_part = Some(Part { key, rep: t, items });
            }
            None => cur_part = Some(Part { key, rep: t, items }),
            Some(Ordering::Greater) => {
                // Out-of-order key: merge via hash from here on.
                done.push(cur_part.take().unwrap());
                by_key = Some(
                    done.iter()
                        .enumerate()
                        .map(|(i, p)| (p.key.clone(), i))
                        .collect(),
                );
                merge_hash(&mut done, by_key.as_mut().unwrap(), key, t, items);
            }
        }
    }
    if let Some(gs) = spiller {
        return gs.finish(agg, per_partition, ctx, stats);
    }
    if let Some(p) = cur_part.take() {
        done.push(p);
    }
    if by_key.is_some() {
        done.sort_by(|a, b| a.key.cmp(&b.key));
    }
    if let Some(s) = stats {
        s.add_partitions(done.len() as u64);
    }
    let mut out = Table::with_capacity(done.len());
    for p in done {
        let agg_value = eval_dep_items(
            per_partition,
            ctx,
            &InputVal::Items(Sequence::from_vec(p.items)),
        )?;
        out.push(p.rep.with(agg.clone(), agg_value));
    }
    Ok(out)
}

fn merge_hash(
    done: &mut Vec<Part>,
    map: &mut HashMap<Vec<i64>, usize>,
    key: Vec<i64>,
    t: Tuple,
    mut items: Vec<Item>,
) {
    match map.get(&key) {
        Some(&i) => done[i].items.append(&mut items),
        None => {
            map.insert(key.clone(), done.len());
            done.push(Part { key, rep: t, items });
        }
    }
}

fn index_value(t: &Tuple, field: &Field) -> xqr_xml::Result<i64> {
    let seq = t.get(field);
    match seq.get(0) {
        Some(Item::Atomic(AtomicValue::Integer(i))) => Ok(*i),
        None => Ok(0),
        other => Err(XmlError::new(
            "XQRT0006",
            format!("GroupBy index field {field} is not an integer: {other:?}"),
        )),
    }
}

fn all_nulls_false(t: &Tuple, null_fields: &[Field]) -> xqr_xml::Result<bool> {
    for f in null_fields {
        let seq = t.get(f);
        if !seq.is_empty() && effective_boolean_value(&seq)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xqr_core::algebra::Op;
    use xqr_core::compile::CompiledModule;
    use xqr_core::Plan;
    use xqr_types::Schema;

    fn empty_module() -> CompiledModule {
        CompiledModule {
            functions: HashMap::new(),
            globals: Vec::new(),
            body: Plan::new(Op::Empty),
        }
    }

    fn int_field(name: &str, v: i64) -> (Field, Sequence) {
        (name.into(), Sequence::integers([v]))
    }

    fn bool_field(name: &str, v: bool) -> (Field, Sequence) {
        (name.into(), Sequence::singleton(AtomicValue::Boolean(v)))
    }

    /// Replays a prebuilt input table, as the evaluator replays a breaker.
    struct TableCursor(std::vec::IntoIter<Tuple>);

    impl<'p> TupleCursor<'p> for TableCursor {
        fn next(&mut self, _ctx: &mut Ctx<'_>) -> Option<xqr_xml::Result<Tuple>> {
            self.0.next().map(Ok)
        }
    }

    /// Runs the GroupBy over `input` with the given fields and operators.
    fn group_by(
        ctx: &mut Ctx<'_>,
        index_fields: &[Field],
        null_fields: &[Field],
        per_partition: &Plan,
        per_item: &Plan,
        input: Table,
    ) -> Table {
        execute_group_by_streaming(
            &Field::from("a"),
            index_fields,
            null_fields,
            per_partition,
            per_item,
            &mut TableCursor(input.into_iter()),
            ctx,
            None,
        )
        .unwrap()
    }

    /// Reproduces **Fig. 4** exactly: input/output of the GroupBy for
    /// `for $x in (1,1,3) let $a := avg(for $y in (1,2) where $x <= $y
    /// return $y * 10) return ($x, $a)`.
    #[test]
    fn figure4_input_output() {
        let module = empty_module();
        let schema = Schema::new();
        let docs = HashMap::new();
        let mut ctx = Ctx::new(&module, &schema, &docs, crate::JoinAlgorithm::Hash);

        // Input table from the paper's Fig. 4.
        let rows: Vec<(i64, Option<i64>, i64, bool)> = vec![
            (1, Some(1), 1, false),
            (1, Some(2), 1, false),
            (1, Some(1), 2, false),
            (1, Some(2), 2, false),
            (3, None, 3, true),
        ];
        let input: Table = rows
            .into_iter()
            .map(|(x, y, index, null)| {
                let mut fields = vec![int_field("x", x)];
                if let Some(y) = y {
                    fields.push(int_field("y", y));
                }
                fields.push(int_field("index", index));
                fields.push(bool_field("null", null));
                Tuple::from_fields(fields)
            })
            .collect();

        // Pre-grouping operator: IN#y * 10.
        let per_item = Plan::call(
            "fs:numeric-multiply",
            vec![Plan::in_field("y"), Plan::scalar(AtomicValue::Integer(10))],
        );
        // Post-grouping operator: avg(IN).
        let per_partition = Plan::call("avg", vec![Plan::input()]);

        let out = group_by(
            &mut ctx,
            &["index".into()],
            &["null".into()],
            &per_partition,
            &per_item,
            input,
        );

        // Expected output (paper Fig. 4): (x=1, a=15), (x=1, a=15), (x=3, a=()).
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("x"), Sequence::integers([1]));
        assert_eq!(out[0].get("a").atomized()[0].string_value(), "15");
        assert_eq!(out[1].get("x"), Sequence::integers([1]));
        assert_eq!(out[1].get("a").atomized()[0].string_value(), "15");
        assert_eq!(out[2].get("x"), Sequence::integers([3]));
        assert!(
            out[2].get("a").is_empty(),
            "null partition aggregates the empty sequence"
        );
    }

    #[test]
    fn trivial_group_by_single_partition() {
        // No index fields: everything in one partition (the trivial GroupBy
        // introduced by the (insert group-by) rule before map-through).
        let module = empty_module();
        let schema = Schema::new();
        let docs = HashMap::new();
        let mut ctx = Ctx::new(&module, &schema, &docs, crate::JoinAlgorithm::Hash);
        let input: Table = (1..=3)
            .map(|v| Tuple::from_fields(vec![int_field("y", v), bool_field("null", false)]))
            .collect();
        let out = group_by(
            &mut ctx,
            &[],
            &["null".into()],
            &Plan::call("count", vec![Plan::input()]),
            &Plan::new(Op::FieldAccess {
                field: "y".into(),
                input: Plan::boxed(Op::Input),
            }),
            input,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("a"), Sequence::integers([3]));
    }

    #[test]
    fn unsorted_input_is_regrouped() {
        let module = empty_module();
        let schema = Schema::new();
        let docs = HashMap::new();
        let mut ctx = Ctx::new(&module, &schema, &docs, crate::JoinAlgorithm::Hash);
        let input: Table = [2, 1, 2, 1]
            .iter()
            .map(|&k| Tuple::from_fields(vec![int_field("index", k), int_field("v", k * 10)]))
            .collect();
        let out = group_by(
            &mut ctx,
            &["index".into()],
            &[],
            &Plan::call("count", vec![Plan::input()]),
            &Plan::new(Op::FieldAccess {
                field: "v".into(),
                input: Plan::boxed(Op::Input),
            }),
            input,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("index"), Sequence::integers([1]));
        assert_eq!(out[1].get("index"), Sequence::integers([2]));
        assert_eq!(out[0].get("a"), Sequence::integers([2]));
    }
}
