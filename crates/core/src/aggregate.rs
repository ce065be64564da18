//! Assignment of measured low-level costs to high-level sentences.
//!
//! Figure 1 of the paper gives the rules:
//!
//! * **one-to-one** — measurements of the source are equivalent to
//!   measurements of the destination;
//! * **one-to-many** — either (1) split the cost evenly over all
//!   destinations, or (2) merge all destinations into one set and assign the
//!   whole cost to the set (the Paradyn choice: "makes no assumption about
//!   the distribution of performance data ... and avoids misleading the
//!   programmer with overly precise information");
//! * **many-to-one** and **many-to-many** — first aggregate the costs of the
//!   sources (sum or average), then treat the result as one-to-one /
//!   one-to-many.
//!
//! [`assign_componentwise`] implements exactly that reduction. The finer
//! [`assign_per_source`] applies the one-to-many rule to each measured source
//! individually, which preserves more structure when sources do not share
//! destinations; both satisfy cost conservation (see tests and the property
//! tests in `tests/`).

use crate::cost::{Aggregation, Cost, UnitMismatch};
use crate::mapping::MappingTable;
use crate::model::SentenceId;
use crate::util::FxHashMap;

/// Policy for handling a one-to-many mapping (Figure 1, row 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssignPolicy {
    /// Split the measured cost evenly over all destinations. Assumes an
    /// equal distribution of low-level work to high-level code (the
    /// Prism/IPS approach cited as refs [1, 9]).
    SplitEvenly,
    /// Merge all destinations into one inseparable set and assign the whole
    /// cost to the set (the Paradyn approach, ref \[6\]). Identifies
    /// constructs whose implementations were merged by an optimizing
    /// compiler.
    Merge,
}

/// The entity a cost was assigned to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AssignTarget {
    /// A single destination sentence.
    Single(SentenceId),
    /// A merged, inseparable set of destination sentences (sorted).
    Merged(Vec<SentenceId>),
}

impl AssignTarget {
    /// The destination sentences covered by this target.
    pub fn members(&self) -> &[SentenceId] {
        match self {
            AssignTarget::Single(s) => std::slice::from_ref(s),
            AssignTarget::Merged(v) => v,
        }
    }
}

/// One cost assignment produced by upward mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// Where the cost landed.
    pub target: AssignTarget,
    /// The assigned cost.
    pub cost: Cost,
}

/// The result of assigning a batch of measurements through a mapping table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssignmentResult {
    /// Cost assignments to high-level targets.
    pub assignments: Vec<Assignment>,
    /// Measured sentences that participate in no mapping, with their costs
    /// (presented at their own level, as the paper allows).
    pub unmapped: Vec<(SentenceId, Cost)>,
}

impl AssignmentResult {
    /// Total cost assigned to a particular destination sentence, counting
    /// merged groups that include it.
    pub fn cost_for(&self, dest: SentenceId) -> Option<Cost> {
        let mut acc: Option<Cost> = None;
        for a in &self.assignments {
            if a.target.members().contains(&dest) {
                acc = Some(match acc {
                    None => a.cost,
                    Some(c) => c + a.cost,
                });
            }
        }
        acc
    }
}

fn sum_costs(costs: &[Cost]) -> Result<Option<Cost>, UnitMismatch> {
    match Aggregation::Sum.aggregate(costs) {
        None => Ok(None),
        Some(r) => r.map(Some),
    }
}

/// Paper §1 reduction: per connected component, aggregate the measured
/// source costs, then apply the one-to-one / one-to-many rule with `policy`.
///
/// `measured` pairs sentences with their measured costs; sentences measured
/// more than once are pre-summed. All costs must share one unit.
pub fn assign_componentwise(
    table: &MappingTable,
    measured: &[(SentenceId, Cost)],
    policy: AssignPolicy,
    aggregation: Aggregation,
) -> Result<AssignmentResult, UnitMismatch> {
    let mut by_source: FxHashMap<SentenceId, Cost> = FxHashMap::default();
    let mut order: Vec<SentenceId> = Vec::new();
    for &(s, c) in measured {
        match by_source.get_mut(&s) {
            Some(acc) => *acc = acc.checked_add(c)?,
            None => {
                by_source.insert(s, c);
                order.push(s);
            }
        }
    }

    let mut result = AssignmentResult::default();
    let mut consumed: crate::util::FxHashSet<SentenceId> = Default::default();

    for s in order {
        if consumed.contains(&s) {
            continue;
        }
        if table.destinations(s).is_empty() {
            // Not a source in any mapping: report unmapped.
            result.unmapped.push((s, by_source[&s]));
            consumed.insert(s);
            continue;
        }
        let (sources, dests) = table.component_of(s);
        // Costs for every *measured* source in this component.
        let comp_costs: Vec<Cost> = sources
            .iter()
            .filter_map(|src| by_source.get(src).copied())
            .collect();
        for src in &sources {
            consumed.insert(*src);
        }
        let Some(agg) = (match aggregation.aggregate(&comp_costs) {
            None => None,
            Some(r) => Some(r?),
        }) else {
            continue;
        };
        // Destinations that are not also sources (interior nodes of a
        // mapping chain relay rather than absorb cost).
        let final_dests: Vec<SentenceId> = dests
            .iter()
            .copied()
            .filter(|d| table.destinations(*d).is_empty())
            .collect();
        let final_dests = if final_dests.is_empty() {
            dests
        } else {
            final_dests
        };
        push_assignment(&mut result, &final_dests, agg, policy);
    }
    Ok(result)
}

/// Applies the Figure 1 rules source-by-source: each measured source's cost
/// is assigned to exactly its own destinations (split or merged). Sentences
/// sharing a destination naturally accumulate there.
pub fn assign_per_source(
    table: &MappingTable,
    measured: &[(SentenceId, Cost)],
    policy: AssignPolicy,
) -> Result<AssignmentResult, UnitMismatch> {
    let mut result = AssignmentResult::default();
    // Accumulate per-target so repeated sources fold together.
    let mut single: FxHashMap<SentenceId, Cost> = FxHashMap::default();
    let mut single_order: Vec<SentenceId> = Vec::new();
    let mut merged: FxHashMap<Vec<SentenceId>, Cost> = FxHashMap::default();
    let mut merged_order: Vec<Vec<SentenceId>> = Vec::new();

    for &(s, c) in measured {
        let dests = table.destinations(s);
        match dests.len() {
            0 => result.unmapped.push((s, c)),
            1 => add_single(&mut single, &mut single_order, dests[0], c)?,
            _ => match policy {
                AssignPolicy::SplitEvenly => {
                    let share = c.scaled(1.0 / dests.len() as f64);
                    for &d in dests {
                        add_single(&mut single, &mut single_order, d, share)?;
                    }
                }
                AssignPolicy::Merge => {
                    let mut key: Vec<SentenceId> = dests.to_vec();
                    key.sort_unstable();
                    match merged.get_mut(&key) {
                        Some(acc) => *acc = acc.checked_add(c)?,
                        None => {
                            merged.insert(key.clone(), c);
                            merged_order.push(key);
                        }
                    }
                }
            },
        }
    }
    for d in single_order {
        result.assignments.push(Assignment {
            target: AssignTarget::Single(d),
            cost: single[&d],
        });
    }
    for key in merged_order {
        let cost = merged[&key];
        result.assignments.push(Assignment {
            target: AssignTarget::Merged(key),
            cost,
        });
    }
    Ok(result)
}

/// The mirror of [`assign_per_source`]: pushes costs measured at
/// *destination* sentences back down to the sources that implement them.
/// The paper (§1): "Although we concentrate on mapping upward through
/// layers of abstraction, our techniques are independent of mapping
/// direction."
pub fn assign_downward(
    table: &MappingTable,
    measured: &[(SentenceId, Cost)],
    policy: AssignPolicy,
) -> Result<AssignmentResult, UnitMismatch> {
    let mut result = AssignmentResult::default();
    let mut single: FxHashMap<SentenceId, Cost> = FxHashMap::default();
    let mut single_order: Vec<SentenceId> = Vec::new();
    let mut merged: FxHashMap<Vec<SentenceId>, Cost> = FxHashMap::default();
    let mut merged_order: Vec<Vec<SentenceId>> = Vec::new();

    for &(d, c) in measured {
        let sources = table.sources(d);
        match sources.len() {
            0 => result.unmapped.push((d, c)),
            1 => add_single(&mut single, &mut single_order, sources[0], c)?,
            _ => match policy {
                AssignPolicy::SplitEvenly => {
                    let share = c.scaled(1.0 / sources.len() as f64);
                    for &s in sources {
                        add_single(&mut single, &mut single_order, s, share)?;
                    }
                }
                AssignPolicy::Merge => {
                    let mut key: Vec<SentenceId> = sources.to_vec();
                    key.sort_unstable();
                    match merged.get_mut(&key) {
                        Some(acc) => *acc = acc.checked_add(c)?,
                        None => {
                            merged.insert(key.clone(), c);
                            merged_order.push(key);
                        }
                    }
                }
            },
        }
    }
    for s in single_order {
        result.assignments.push(Assignment {
            target: AssignTarget::Single(s),
            cost: single[&s],
        });
    }
    for key in merged_order {
        let cost = merged[&key];
        result.assignments.push(Assignment {
            target: AssignTarget::Merged(key),
            cost,
        });
    }
    Ok(result)
}

fn add_single(
    map: &mut FxHashMap<SentenceId, Cost>,
    order: &mut Vec<SentenceId>,
    d: SentenceId,
    c: Cost,
) -> Result<(), UnitMismatch> {
    match map.get_mut(&d) {
        Some(acc) => *acc = acc.checked_add(c)?,
        None => {
            map.insert(d, c);
            order.push(d);
        }
    }
    Ok(())
}

fn push_assignment(
    result: &mut AssignmentResult,
    dests: &[SentenceId],
    cost: Cost,
    policy: AssignPolicy,
) {
    if dests.len() == 1 {
        result.assignments.push(Assignment {
            target: AssignTarget::Single(dests[0]),
            cost,
        });
        return;
    }
    match policy {
        AssignPolicy::SplitEvenly => {
            let share = cost.scaled(1.0 / dests.len() as f64);
            for &d in dests {
                result.assignments.push(Assignment {
                    target: AssignTarget::Single(d),
                    cost: share,
                });
            }
        }
        AssignPolicy::Merge => {
            result.assignments.push(Assignment {
                target: AssignTarget::Merged(dests.to_vec()),
                cost,
            });
        }
    }
}

/// Total cost held by an [`AssignmentResult`] (assignments + unmapped).
/// Useful for conservation checks.
pub fn total_cost(result: &AssignmentResult) -> Result<Option<Cost>, UnitMismatch> {
    let costs: Vec<Cost> = result
        .assignments
        .iter()
        .map(|a| a.cost)
        .chain(result.unmapped.iter().map(|&(_, c)| c))
        .collect();
    sum_costs(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Namespace;

    struct Fixture {
        ns: Namespace,
        f: SentenceId,
        f2: SentenceId,
        r1: SentenceId,
        r2: SentenceId,
        table: MappingTable,
    }

    /// F -> {R1, R2}, F2 -> R1 : a many-to-many component.
    fn fixture() -> Fixture {
        let ns = Namespace::new();
        let l = ns.level("L");
        let v = ns.verb(l, "v", "");
        let mk = |name: &str| ns.say(v, [ns.noun(l, name, "")]);
        let (f, f2, r1, r2) = (mk("F"), mk("F2"), mk("R1"), mk("R2"));
        let mut table = MappingTable::new();
        table.map(f, r1);
        table.map(f, r2);
        table.map(f2, r1);
        Fixture {
            ns,
            f,
            f2,
            r1,
            r2,
            table,
        }
    }

    #[test]
    fn one_to_one_assignment_is_equivalence() {
        let fx = fixture();
        let mut t = MappingTable::new();
        t.map(fx.f, fx.r1);
        let res =
            assign_per_source(&t, &[(fx.f, Cost::seconds(3.0))], AssignPolicy::Merge).unwrap();
        assert_eq!(res.assignments.len(), 1);
        assert_eq!(res.assignments[0].target, AssignTarget::Single(fx.r1));
        assert_eq!(res.assignments[0].cost, Cost::seconds(3.0));
    }

    #[test]
    fn split_evenly_divides_cost() {
        let fx = fixture();
        let res = assign_per_source(
            &fx.table,
            &[(fx.f, Cost::seconds(4.0))],
            AssignPolicy::SplitEvenly,
        )
        .unwrap();
        assert_eq!(res.cost_for(fx.r1), Some(Cost::seconds(2.0)));
        assert_eq!(res.cost_for(fx.r2), Some(Cost::seconds(2.0)));
    }

    #[test]
    fn merge_keeps_cost_whole() {
        let fx = fixture();
        let res = assign_per_source(
            &fx.table,
            &[(fx.f, Cost::seconds(4.0))],
            AssignPolicy::Merge,
        )
        .unwrap();
        assert_eq!(res.assignments.len(), 1);
        match &res.assignments[0].target {
            AssignTarget::Merged(set) => {
                assert_eq!(set.len(), 2);
                assert!(set.contains(&fx.r1) && set.contains(&fx.r2));
            }
            other => panic!("expected merged target, got {other:?}"),
        }
        assert_eq!(res.assignments[0].cost, Cost::seconds(4.0));
    }

    #[test]
    fn per_source_accumulates_shared_destination() {
        let fx = fixture();
        let res = assign_per_source(
            &fx.table,
            &[
                (fx.f, Cost::ops(10.0)),
                (fx.f2, Cost::ops(5.0)),
                (fx.f2, Cost::ops(1.0)),
            ],
            AssignPolicy::SplitEvenly,
        )
        .unwrap();
        // f splits 10 -> 5+5; f2 single-dest 6 -> r1.
        assert_eq!(res.cost_for(fx.r1), Some(Cost::ops(11.0)));
        assert_eq!(res.cost_for(fx.r2), Some(Cost::ops(5.0)));
    }

    #[test]
    fn componentwise_aggregates_then_maps() {
        let fx = fixture();
        // Component: sources {f, f2}, dests {r1, r2}. Sum = 12, split = 6+6.
        let res = assign_componentwise(
            &fx.table,
            &[(fx.f, Cost::ops(8.0)), (fx.f2, Cost::ops(4.0))],
            AssignPolicy::SplitEvenly,
            Aggregation::Sum,
        )
        .unwrap();
        assert_eq!(res.cost_for(fx.r1), Some(Cost::ops(6.0)));
        assert_eq!(res.cost_for(fx.r2), Some(Cost::ops(6.0)));
    }

    #[test]
    fn componentwise_average_aggregation() {
        let fx = fixture();
        let res = assign_componentwise(
            &fx.table,
            &[(fx.f, Cost::percent(80.0)), (fx.f2, Cost::percent(40.0))],
            AssignPolicy::Merge,
            Aggregation::Average,
        )
        .unwrap();
        assert_eq!(res.assignments.len(), 1);
        assert_eq!(res.assignments[0].cost, Cost::percent(60.0));
    }

    #[test]
    fn unmapped_sentences_are_reported() {
        let fx = fixture();
        let l = fx.ns.level("X");
        let v = fx.ns.verb(l, "v", "");
        let stray = fx.ns.say(v, [fx.ns.noun(l, "stray", "")]);
        let res = assign_per_source(
            &fx.table,
            &[(stray, Cost::seconds(1.0))],
            AssignPolicy::Merge,
        )
        .unwrap();
        assert!(res.assignments.is_empty());
        assert_eq!(res.unmapped, vec![(stray, Cost::seconds(1.0))]);
    }

    #[test]
    fn conservation_under_split() {
        let fx = fixture();
        let measured = [(fx.f, Cost::ops(9.0)), (fx.f2, Cost::ops(3.0))];
        for policy in [AssignPolicy::SplitEvenly, AssignPolicy::Merge] {
            let res = assign_per_source(&fx.table, &measured, policy).unwrap();
            let total = total_cost(&res).unwrap().unwrap();
            assert!((total.value - 12.0).abs() < 1e-9, "policy {policy:?}");
        }
    }

    #[test]
    fn chained_component_assigns_to_leaves() {
        // base -> mid -> top chain: measuring base lands on top only.
        let ns = Namespace::new();
        let l = ns.level("L");
        let v = ns.verb(l, "v", "");
        let mk = |name: &str| ns.say(v, [ns.noun(l, name, "")]);
        let (base, mid, top) = (mk("base"), mk("mid"), mk("top"));
        let mut t = MappingTable::new();
        t.map(base, mid);
        t.map(mid, top);
        let res = assign_componentwise(
            &t,
            &[(base, Cost::seconds(2.0))],
            AssignPolicy::Merge,
            Aggregation::Sum,
        )
        .unwrap();
        assert_eq!(res.cost_for(top), Some(Cost::seconds(2.0)));
        assert_eq!(res.cost_for(mid), None);
    }

    #[test]
    fn downward_mapping_mirrors_upward() {
        let fx = fixture();
        // r1 has two implementing sources (f and f2): a downward
        // one-to-many.
        let res = assign_downward(
            &fx.table,
            &[(fx.r1, Cost::seconds(2.0))],
            AssignPolicy::SplitEvenly,
        )
        .unwrap();
        assert_eq!(res.cost_for(fx.f), Some(Cost::seconds(1.0)));
        assert_eq!(res.cost_for(fx.f2), Some(Cost::seconds(1.0)));

        // r2 has one source: equivalence.
        let res = assign_downward(
            &fx.table,
            &[(fx.r2, Cost::seconds(3.0))],
            AssignPolicy::Merge,
        )
        .unwrap();
        assert_eq!(res.cost_for(fx.f), Some(Cost::seconds(3.0)));

        // Merge keeps the implementing set whole.
        let res = assign_downward(
            &fx.table,
            &[(fx.r1, Cost::seconds(2.0))],
            AssignPolicy::Merge,
        )
        .unwrap();
        assert_eq!(res.assignments.len(), 1);
        assert_eq!(res.assignments[0].target.members().len(), 2);
    }

    #[test]
    fn downward_conservation_and_unmapped() {
        let fx = fixture();
        let l = fx.ns.level("X2");
        let v = fx.ns.verb(l, "v2", "");
        let stray = fx.ns.say(v, [fx.ns.noun(l, "stray2", "")]);
        for policy in [AssignPolicy::SplitEvenly, AssignPolicy::Merge] {
            let res = assign_downward(
                &fx.table,
                &[
                    (fx.r1, Cost::ops(4.0)),
                    (fx.r2, Cost::ops(2.0)),
                    (stray, Cost::ops(1.0)),
                ],
                policy,
            )
            .unwrap();
            let total = total_cost(&res).unwrap().unwrap();
            assert!((total.value - 7.0).abs() < 1e-9);
            assert_eq!(res.unmapped, vec![(stray, Cost::ops(1.0))]);
        }
    }

    #[test]
    fn unit_mismatch_is_surfaced() {
        let fx = fixture();
        let err = assign_per_source(
            &fx.table,
            &[(fx.f, Cost::seconds(1.0)), (fx.f, Cost::ops(1.0))],
            AssignPolicy::SplitEvenly,
        );
        // f splits over two destinations; second measurement conflicts.
        assert!(err.is_err());
    }
}
