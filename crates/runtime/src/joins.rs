//! The XQuery join algorithms of Section 6.
//!
//! Three physical implementations of `Join`/`LOuterJoin`, all
//! **order-preserving** (output follows the left/outer input's order; for
//! a given outer tuple, matches follow the inner input's order — recovered
//! via the sequence-order counter stored with each hash entry, Fig. 6):
//!
//! * **nested loop** — evaluates the full predicate per tuple pair;
//! * **hash join** — Fig. 6's `materialize` / `allMatches` /
//!   `equalityJoin`: the inner input is materialized into a hash table
//!   keyed on `(value, type)` pairs produced by `promoteToSimpleTypes`, so
//!   each side is independent of the other's *values*; the original types
//!   are checked against Table 2 (`fs:convert-operand`) at probe time, and
//!   per-probe matches are sorted by inner order and de-duplicated to
//!   preserve the existential semantics of the predicate;
//! * **sort (B-tree index) join** — the same structure over an ordered map
//!   (the paper's "variants of standard index-hash and B-tree index
//!   joins").
//!
//! Predicate analysis splits a conjunction (nested `Cond{…}(…)` chains
//! produced by normalizing `and`) into one hashable `fs:general-eq`
//! equality whose sides depend on disjoint inputs, plus residual conjuncts
//! evaluated per candidate pair.

use std::collections::{BTreeMap, HashMap};

use xqr_core::algebra::{Op, Plan};
use xqr_core::fields::{output_fields, used_input_fields};
use xqr_types::convert::{comparable_types, promote_to_simple_types};
use xqr_xml::{AtomicType, AtomicValue};

use crate::compare::effective_boolean_value;
use crate::context::{Ctx, JoinAlgorithm};
use crate::eval::eval_dep_items;
use crate::value::{InputVal, Table, Tuple};

/// The probe side of a join, built once over the (materialized) inner
/// input. Separating build from probe lets the join cursor
/// (`pipeline::open_join`) stream the outer input through `matches` one
/// tuple at a time — the inner table is the only materialization point.
/// Past the governor's soft watermark a splittable predicate goes to the
/// Grace-style partitioned join (`spill::grace_join`) instead;
/// nested-loop predicates have no key to partition on and keep this
/// in-memory path, whose per-pair loop holds only the output.
pub(crate) enum JoinProbe<'p> {
    /// Full-predicate nested loop (also the fallback when the predicate
    /// has no separable equality). When batched execution is on and the
    /// predicate is a fusable comparison whose operands separate by side,
    /// `kernel` memoizes the inner operand per inner row and compares
    /// through a type-specialized lane instead of re-evaluating the
    /// predicate per pair.
    NestedLoop {
        pred: &'p Plan,
        kernel: Option<crate::batch::NlJoinKernel<'p>>,
    },
    /// Fig. 6 hash/B-tree index over the inner side's key values. The
    /// charge is the build side's live-byte accounting: it releases back
    /// to the governor when the probe (and with it the index) drops.
    Indexed {
        split: SplitPredicate<'p>,
        index: KeyIndex,
        _charge: xqr_xml::ByteCharge,
    },
}

impl<'p> JoinProbe<'p> {
    pub(crate) fn build(
        pred: &'p Plan,
        left_plan: &'p Plan,
        right_plan: &'p Plan,
        right: &Table,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<JoinProbe<'p>> {
        match ctx.join_algorithm {
            JoinAlgorithm::NestedLoop => Ok(Self::nested_loop(pred, left_plan, right_plan, ctx)),
            algo => match analyze_predicate(pred, left_plan, right_plan) {
                Some(split) => {
                    let (index, charge) =
                        materialize(right, split.right_key, ctx, algo, split.specialized)?;
                    Ok(JoinProbe::Indexed {
                        split,
                        index,
                        _charge: charge,
                    })
                }
                None => Ok(Self::nested_loop(pred, left_plan, right_plan, ctx)),
            },
        }
    }

    /// The nested-loop probe, with the batched kernel attached when batched
    /// execution is on and the predicate fuses. The
    /// kernel's counters land on the predicate's own plan node, so
    /// `EXPLAIN ANALYZE` shows batches/fused/fallback on the `Call` line.
    fn nested_loop(
        pred: &'p Plan,
        left_plan: &Plan,
        right_plan: &Plan,
        ctx: &Ctx<'_>,
    ) -> JoinProbe<'p> {
        let kernel = if ctx.batched {
            let stats = ctx.profiler.as_ref().and_then(|p| p.stats_for(pred));
            crate::batch::NlJoinKernel::build(pred, left_plan, right_plan, stats)
        } else {
            None
        };
        JoinProbe::NestedLoop { pred, kernel }
    }

    /// The joined output tuples for one outer tuple, in inner order; empty
    /// means unmatched (the caller decides between dropping the tuple and
    /// outer-join null flagging).
    pub(crate) fn matches(
        &self,
        lt: &Tuple,
        right: &Table,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<Vec<Tuple>> {
        let mut out = Vec::new();
        match self {
            JoinProbe::NestedLoop { pred, kernel } => {
                if let Some(k) = kernel {
                    return k.matches(lt, right, ctx);
                }
                // A constant-true predicate (cross products from unnesting)
                // skips per-pair evaluation entirely.
                if matches!(&pred.op, Op::Scalar(AtomicValue::Boolean(true))) {
                    // Bulk-charge the cross product before building it.
                    ctx.governor.charge_tuples(right.len() as u64)?;
                    out.reserve(right.len());
                    for rt in right {
                        out.push(lt.concat(rt));
                    }
                    return Ok(out);
                }
                for rt in right {
                    ctx.governor.tick()?;
                    // Move the joined tuple into the binding and back out:
                    // no per-pair clone.
                    let input = InputVal::Tuple(lt.concat(rt));
                    let v = eval_dep_items(pred, ctx, &input)?;
                    let InputVal::Tuple(joined) = input else {
                        unreachable!()
                    };
                    if effective_boolean_value(&v)? {
                        out.push(joined);
                    }
                }
            }
            JoinProbe::Indexed { split, index, .. } => {
                let ms = all_matches(index, lt, split.left_key, ctx, split.specialized)?;
                'candidates: for idx in ms {
                    let input = InputVal::Tuple(lt.concat(&right[idx]));
                    for residual in &split.residual {
                        let v = eval_dep_items(residual, ctx, &input)?;
                        if !effective_boolean_value(&v)? {
                            continue 'candidates;
                        }
                    }
                    let InputVal::Tuple(joined) = input else {
                        unreachable!()
                    };
                    out.push(joined);
                }
            }
        }
        Ok(out)
    }
}

/// One hashable equality plus residual conjuncts.
pub struct SplitPredicate<'p> {
    pub left_key: &'p Plan,
    pub right_key: &'p Plan,
    pub residual: Vec<&'p Plan>,
    /// When static analysis proves both key expressions produce the same
    /// comparable type, keys are stored/probed at that single type instead
    /// of enumerating every promotion — the specialization the paper
    /// suggests ("if we can infer statically that both operands are
    /// integers, we can build a key directly on the integer value").
    pub specialized: Option<AtomicType>,
}

/// Conservative static type inference for join-key expressions.
pub fn static_key_type(p: &Plan) -> Option<AtomicType> {
    match &p.op {
        Op::Scalar(v) => Some(v.type_of()),
        Op::Cast { ty, .. } => Some(*ty),
        Op::Call { name, args } => match name.local_part() {
            "count" | "string-length" | "op:to" => Some(AtomicType::Integer),
            "string" | "concat" | "string-join" | "substring" | "upper-case" | "lower-case"
            | "normalize-space" | "translate" | "fs:avt" => Some(AtomicType::String),
            "number" => Some(AtomicType::Double),
            "fs:numeric-add" | "fs:numeric-subtract" | "fs:numeric-multiply" => {
                let a = static_key_type(args.first()?)?;
                let b = static_key_type(args.get(1)?)?;
                xqr_types::widest_numeric(a, b)
            }
            _ => None,
        },
        _ => None,
    }
}

/// The single comparison type when both static key types are known and
/// comparable without the untyped rules.
fn specialized_type(l: &Plan, r: &Plan) -> Option<AtomicType> {
    let lt = static_key_type(l)?;
    let rt = static_key_type(r)?;
    if lt == AtomicType::UntypedAtomic || rt == AtomicType::UntypedAtomic {
        return None;
    }
    comparable_types(lt, rt)
}

/// Flattens the `Cond{then}(cond)` conjunction chains that `and` lowers to.
fn conjuncts<'p>(pred: &'p Plan, out: &mut Vec<&'p Plan>) {
    if let Op::Cond { cond, then, els } = &pred.op {
        if matches!(&els.op, Op::Scalar(AtomicValue::Boolean(false))) {
            conjuncts(cond, out);
            conjuncts(then, out);
            return;
        }
    }
    out.push(pred);
}

/// Finds an equality conjunct whose operands read disjoint input sides.
pub fn analyze_predicate<'p>(
    pred: &'p Plan,
    left_plan: &Plan,
    right_plan: &Plan,
) -> Option<SplitPredicate<'p>> {
    let left_fields = output_fields(left_plan)?;
    let right_fields = output_fields(right_plan)?;
    let mut cs = Vec::new();
    conjuncts(pred, &mut cs);
    let mut chosen: Option<(usize, &Plan, &Plan)> = None;
    for (i, c) in cs.iter().enumerate() {
        let Op::Call { name, args } = &c.op else {
            continue;
        };
        if name.local_part() != "fs:general-eq" || args.len() != 2 {
            continue;
        }
        let ua = used_input_fields(&args[0]);
        let ub = used_input_fields(&args[1]);
        if ua.is_empty() || ub.is_empty() {
            continue;
        }
        if ua.is_subset(&left_fields) && ub.is_subset(&right_fields) {
            chosen = Some((i, &args[0], &args[1]));
            break;
        }
        if ua.is_subset(&right_fields) && ub.is_subset(&left_fields) {
            chosen = Some((i, &args[1], &args[0]));
            break;
        }
    }
    let (idx, left_key, right_key) = chosen?;
    let residual = cs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, c)| c)
        .collect();
    let specialized = specialized_type(left_key, right_key);
    Some(SplitPredicate {
        left_key,
        right_key,
        residual,
        specialized,
    })
}

// ===== Fig. 6: typed, order-preserving hash join ============================

/// A canonical, hashable, orderable join-key value. The `(value, type)`
/// pairs of Fig. 6 become `(AtomicType, KeyVal)` — two values collide only
/// when they are equal *at that type*.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub(crate) enum KeyVal {
    Bool(bool),
    Int(i64),
    Dec(i128),
    /// IEEE bits with -0.0 normalized; NaN keys are skipped entirely.
    Bits(u64),
    Str(String),
    Millis(i64),
    Months(i64, i64),
    Greg(i64),
    Bytes(Vec<u8>),
    Name(String),
}

pub(crate) fn key_of(v: &AtomicValue) -> Option<(AtomicType, KeyVal)> {
    use AtomicValue as V;
    let kv = match v {
        V::Boolean(b) => KeyVal::Bool(*b),
        V::Integer(i) => KeyVal::Int(*i),
        V::Decimal(d) => KeyVal::Dec(d.units()),
        V::Double(d) => {
            if d.is_nan() {
                return None;
            }
            KeyVal::Bits(if *d == 0.0 {
                0.0f64.to_bits()
            } else {
                d.to_bits()
            })
        }
        V::Float(f) => {
            if f.is_nan() {
                return None;
            }
            let d = *f as f64;
            KeyVal::Bits(if d == 0.0 {
                0.0f64.to_bits()
            } else {
                d.to_bits()
            })
        }
        V::String(s) | V::UntypedAtomic(s) | V::AnyUri(s) => KeyVal::Str(s.to_string()),
        V::Date(d) => KeyVal::Millis(d.epoch_millis()),
        V::Time(t) => KeyVal::Millis(t.normalized_millis()),
        V::DateTime(dt) => KeyVal::Millis(dt.epoch_millis()),
        V::Duration(d) => KeyVal::Months(d.months, d.millis),
        V::GYear(y) => KeyVal::Greg(*y as i64),
        V::GYearMonth(y, m) => KeyVal::Greg(*y as i64 * 16 + *m as i64),
        V::GMonth(m) => KeyVal::Greg(*m as i64),
        V::GMonthDay(m, d) => KeyVal::Greg(*m as i64 * 64 + *d as i64),
        V::GDay(d) => KeyVal::Greg(*d as i64),
        V::HexBinary(b) | V::Base64Binary(b) => KeyVal::Bytes(b.to_vec()),
        V::QName(q) => KeyVal::Name(q.to_string()),
    };
    Some((v.type_of(), kv))
}

/// One hash-table entry: the original (pre-conversion) value and type, the
/// inner tuple's index/sequence order (Fig. 6 stores "the original value
/// and type …, the corresponding tuple value, and the ordinal position").
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub(crate) orig_value: AtomicValue,
    pub(crate) orig_type: AtomicType,
    pub(crate) tuple_idx: usize,
}

/// The two index structures share this small interface.
pub(crate) enum KeyIndex {
    Hash(HashMap<(AtomicType, KeyVal), Vec<Entry>>),
    BTree(BTreeMap<(AtomicType, KeyVal), Vec<Entry>>),
}

impl KeyIndex {
    pub(crate) fn new(algo: JoinAlgorithm) -> KeyIndex {
        match algo {
            JoinAlgorithm::Sort => KeyIndex::BTree(BTreeMap::new()),
            _ => KeyIndex::Hash(HashMap::new()),
        }
    }

    pub(crate) fn put(&mut self, key: (AtomicType, KeyVal), e: Entry) {
        match self {
            KeyIndex::Hash(m) => m.entry(key).or_default().push(e),
            KeyIndex::BTree(m) => m.entry(key).or_default().push(e),
        }
    }

    fn get(&self, key: &(AtomicType, KeyVal)) -> &[Entry] {
        match self {
            KeyIndex::Hash(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
            KeyIndex::BTree(m) => m.get(key).map(Vec::as_slice).unwrap_or(&[]),
        }
    }
}

/// Fig. 6 `materialize`: builds the `(value, type)`-keyed index over the
/// inner input.
fn materialize(
    inner: &Table,
    key_expr: &Plan,
    ctx: &mut Ctx<'_>,
    algo: JoinAlgorithm,
    specialized: Option<AtomicType>,
) -> xqr_xml::Result<(KeyIndex, xqr_xml::ByteCharge)> {
    let mut index = KeyIndex::new(algo);
    let mut charge = xqr_xml::ByteCharge::new(&ctx.governor);
    for (tuple_idx, tup) in inner.iter().enumerate() {
        ctx.governor.tick()?;
        xqr_xml::failpoint::check("join::build_charge")?;
        if ctx.governor.has_byte_budget() {
            // The index retains roughly one entry per key value per tuple;
            // the charge releases when the probe index drops.
            charge.add(tup.approx_bytes())?;
        }
        let key_vals = eval_dep_items(key_expr, ctx, &InputVal::Tuple(tup.clone()))?.atomized();
        for key in key_vals {
            for promoted in promoted_keys(&key, specialized) {
                if let Some(k) = key_of(&promoted) {
                    index.put(
                        k,
                        Entry {
                            orig_value: key.clone(),
                            orig_type: key.type_of(),
                            tuple_idx,
                        },
                    );
                }
            }
        }
    }
    Ok((index, charge))
}

/// The `(value, type)` pairs for one key: the full `promoteToSimpleTypes`
/// enumeration, or — when the join is statically specialized — the single
/// promoted value at the comparison type (values that cannot promote there
/// cannot match and store nothing).
pub(crate) fn promoted_keys(
    key: &AtomicValue,
    specialized: Option<AtomicType>,
) -> Vec<AtomicValue> {
    match specialized {
        None => promote_to_simple_types(key),
        Some(t) => {
            if key.type_of() == t {
                vec![key.clone()]
            } else if key.type_of().is_numeric() && t.is_numeric() {
                xqr_types::promote_numeric(key, t)
                    .map(|v| vec![v])
                    .unwrap_or_default()
            } else if t == AtomicType::String {
                vec![AtomicValue::string(key.string_value())]
            } else {
                // Static prediction missed (dynamic value of another type):
                // fall back to the full enumeration for this value.
                promote_to_simple_types(key)
            }
        }
    }
}

/// Fig. 6 `allMatches`: probes the index with one outer tuple's key values,
/// checks the original types against Table 2, and returns inner tuple
/// indices sorted by the inner sequence order with duplicates removed.
pub(crate) fn all_matches(
    index: &KeyIndex,
    tup: &Tuple,
    key_expr: &Plan,
    ctx: &mut Ctx<'_>,
    specialized: Option<AtomicType>,
) -> xqr_xml::Result<Vec<usize>> {
    let key_vals = eval_dep_items(key_expr, ctx, &InputVal::Tuple(tup.clone()))?.atomized();
    let mut matches: Vec<usize> = Vec::new();
    for key in key_vals {
        for promoted in promoted_keys(&key, specialized) {
            if let Some(k) = key_of(&promoted) {
                for entry in index.get(&k) {
                    // Line 25: is (type1, typeof(key)) in Table 2 — i.e. are
                    // the ORIGINAL types actually comparable? Then recheck
                    // op:equal on the original values: promoted entries can
                    // collide lossily (e.g. two distinct decimals rounding
                    // to the same float).
                    if comparable_types(entry.orig_type, key.type_of()).is_some()
                        && crate::compare::value_compare(
                            crate::compare::CmpOp::Eq,
                            &entry.orig_value,
                            &key,
                        )
                        .unwrap_or(false)
                    {
                        matches.push(entry.tuple_idx);
                    }
                }
            }
        }
    }
    // Sort on original sequence order and remove duplicate tuples.
    matches.sort_unstable();
    matches.dedup();
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::QName;

    fn eq_pred(l: &str, r: &str) -> Plan {
        Plan::call("fs:general-eq", vec![Plan::in_field(l), Plan::in_field(r)])
    }

    fn table_plan(field: &str) -> Plan {
        Plan::new(Op::MapFromItem {
            dep: Plan::boxed(Op::Tuple(vec![(field.into(), Plan::input())])),
            input: Plan::boxed(Op::Var(QName::local("x"))),
        })
    }

    #[test]
    fn conjunct_flattening() {
        // and-chains become Cond{b}(a) with else=false.
        let a = eq_pred("l", "r");
        let b = eq_pred("l2", "r2");
        let pred = Plan::new(Op::Cond {
            cond: Box::new(a),
            then: Box::new(b),
            els: Plan::boxed(Op::Scalar(AtomicValue::Boolean(false))),
        });
        let mut cs = Vec::new();
        conjuncts(&pred, &mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn predicate_analysis_splits_sides() {
        let pred = eq_pred("r", "l"); // deliberately swapped
        let lp = table_plan("l");
        let rp = table_plan("r");
        let split = analyze_predicate(&pred, &lp, &rp).expect("splittable");
        assert_eq!(
            used_input_fields(split.left_key)
                .iter()
                .next()
                .map(|f| &**f),
            Some("l")
        );
        assert_eq!(
            used_input_fields(split.right_key)
                .iter()
                .next()
                .map(|f| &**f),
            Some("r")
        );
        assert!(split.residual.is_empty());
    }

    #[test]
    fn predicate_analysis_rejects_cross_side_operands() {
        // l + r on one side: not separable.
        let pred = Plan::call(
            "fs:general-eq",
            vec![
                Plan::call(
                    "fs:numeric-add",
                    vec![Plan::in_field("l"), Plan::in_field("r")],
                ),
                Plan::in_field("r"),
            ],
        );
        assert!(analyze_predicate(&pred, &table_plan("l"), &table_plan("r")).is_none());
    }

    #[test]
    fn key_of_merges_zero_signs_and_rejects_nan() {
        let a = key_of(&AtomicValue::Double(0.0)).unwrap();
        let b = key_of(&AtomicValue::Double(-0.0)).unwrap();
        assert_eq!(a, b);
        assert!(key_of(&AtomicValue::Double(f64::NAN)).is_none());
    }

    #[test]
    fn promoted_keys_collide_across_numeric_types() {
        // integer 5 and decimal 5.0 must share their Decimal/Double entries.
        let i5: Vec<_> = promote_to_simple_types(&AtomicValue::Integer(5))
            .iter()
            .filter_map(key_of)
            .collect();
        let d5: Vec<_> =
            promote_to_simple_types(&AtomicValue::Decimal(xqr_xml::Decimal::from_i64(5)))
                .iter()
                .filter_map(key_of)
                .collect();
        assert!(i5.iter().any(|k| d5.contains(k)));
    }
}

#[cfg(test)]
mod specialization_tests {
    use super::*;
    use xqr_xml::QName;

    #[test]
    fn static_types_inferred() {
        assert_eq!(
            static_key_type(&Plan::scalar(AtomicValue::Integer(1))),
            Some(AtomicType::Integer)
        );
        assert_eq!(
            static_key_type(&Plan::call("count", vec![Plan::input()])),
            Some(AtomicType::Integer)
        );
        assert_eq!(
            static_key_type(&Plan::new(Op::Cast {
                ty: AtomicType::Date,
                optional: false,
                input: Plan::boxed(Op::Input),
            })),
            Some(AtomicType::Date)
        );
        assert_eq!(static_key_type(&Plan::in_field("x")), None);
        assert_eq!(
            static_key_type(&Plan::new(Op::Var(QName::local("v")))),
            None
        );
    }

    #[test]
    fn specialized_keys_are_single_entry() {
        // Integer key under integer specialization: one entry, not four.
        assert_eq!(
            promoted_keys(&AtomicValue::Integer(5), Some(AtomicType::Integer)).len(),
            1
        );
        assert_eq!(promoted_keys(&AtomicValue::Integer(5), None).len(), 4);
        // Cross-numeric specialization promotes to the comparison type.
        let ks = promoted_keys(&AtomicValue::Integer(5), Some(AtomicType::Double));
        assert_eq!(ks, vec![AtomicValue::Double(5.0)]);
        // Dynamic value off the static prediction falls back safely.
        let ks = promoted_keys(&AtomicValue::untyped("x"), Some(AtomicType::Date));
        assert_eq!(ks.len(), 1, "full enumeration fallback: {ks:?}");
    }
}
