//! One machine run over many foci answers exactly what one run per
//! (metric, focus) answers.
//!
//! The consultant's wave search measures a whole refinement depth in a
//! few `Paradyn::run_experiments` calls. These tests keep the per-focus,
//! single-metric `Paradyn::run_experiment` as the reference: on seeded
//! random focus subsets, at every chunk size, and over every node of a
//! real `search_parallel` tree, value and wall must agree bit for bit.

use paradyn_tool::consultant::{search_parallel, ConsultantConfig, HYPOTHESES};
use paradyn_tool::{Experiment, ExperimentNode, Measured, Paradyn, RequestError};
use pdmap::hierarchy::Focus;
use pdmap::util::SplitMix64;
use std::collections::HashSet;

fn tool_for(src: &str, nodes: usize) -> Paradyn {
    let mut t = Paradyn::new(cmrts_sim::MachineConfig {
        nodes,
        ..cmrts_sim::MachineConfig::default()
    });
    t.load_source(src).unwrap();
    t
}

/// Every focus within `depth` refinements of the whole program, in
/// breadth-first order.
fn where_axis_foci(tool: &Paradyn, depth: usize) -> Vec<Focus> {
    let mut seen = HashSet::new();
    let mut out = vec![Focus::whole_program()];
    let mut frontier = out.clone();
    for _ in 0..depth {
        let mut next = Vec::new();
        for f in &frontier {
            for c in tool.data().refinement_candidates(f).iter() {
                if seen.insert(c.clone()) {
                    next.push(c.clone());
                }
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

fn same(a: &Result<Measured, RequestError>, b: &Result<Measured, RequestError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.value.to_bits() == b.value.to_bits()
                && a.wall.to_bits() == b.wall.to_bits()
                && a.coverage == b.coverage
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

#[test]
fn multi_focus_runs_equal_single_metric_runs_bit_for_bit() {
    let mut metrics: Vec<String> = HYPOTHESES.iter().map(|h| h.metric.to_string()).collect();
    metrics.push("Point-to-Point Operations".into());
    metrics.push("Summations".into());
    let unresolvable = Focus::whole_program().select("CMFarrays", "/no/such/array");
    for nodes in [4, 8] {
        let tool = tool_for(cmf_lang::samples::ALL_VERBS, nodes);
        // One run populates the dynamic subregions the axis refines into.
        tool.new_machine().unwrap().run();
        let axis = where_axis_foci(&tool, 3);
        assert!(
            axis.iter().any(|f| {
                let s = f.to_string();
                s.contains("sub#") && s.contains("node#")
            }),
            "the axis reaches per-node subregions"
        );
        let mut rng = SplitMix64::new(0xFEED_0000 + nodes as u64);
        // A small subset, and one past the 64-focus chunk.
        for (case, size) in [10, 70].into_iter().enumerate() {
            let mut subset: Vec<Focus> = (0..size)
                .map(|_| axis[rng.usize_in(0..axis.len())].clone())
                .collect();
            subset.insert(rng.usize_in(0..subset.len()), unresolvable.clone());
            let reference: Vec<Vec<Result<Measured, RequestError>>> = subset
                .iter()
                .map(|focus| {
                    metrics
                        .iter()
                        .map(|m| {
                            tool.run_experiment(&Experiment {
                                metric: m.clone(),
                                focus: focus.clone(),
                            })
                        })
                        .collect()
                })
                .collect();
            for chunk in [1, 8, 64, subset.len()] {
                let got: Vec<_> = subset
                    .chunks(chunk)
                    .flat_map(|foci| tool.run_experiments(&metrics, foci))
                    .collect();
                assert_eq!(got.len(), subset.len());
                for ((focus, batch), want) in subset.iter().zip(&got).zip(&reference) {
                    for (((name, r), w), m) in batch.iter().zip(want).zip(&metrics) {
                        assert_eq!(name, m);
                        assert!(
                            same(r, w),
                            "{nodes} nodes, case {case}, chunk {chunk}: {m} @ {focus}: \
                             {r:?} vs single-metric {w:?}"
                        );
                    }
                }
            }
            let bad = subset.iter().position(|f| *f == unresolvable).unwrap();
            assert!(reference[bad]
                .iter()
                .all(|r| matches!(r, Err(RequestError::Focus(_)))));
        }
    }
}

/// Every node of a forest, depth first.
fn nodes(forest: &[ExperimentNode]) -> Vec<&ExperimentNode> {
    let mut out = Vec::new();
    for n in forest {
        out.push(n);
        out.extend(nodes(&n.children));
    }
    out
}

#[test]
fn search_parallel_tree_replays_bit_for_bit() {
    // Every node the wave search measured in a multi-focus run must carry
    // exactly what its own single-metric run measures.
    let tool = tool_for(
        "\
PROGRAM COMMY
REAL A(512), B(512)
A = 1.0
B = SORT(A)
B = SORT(B)
A = CSHIFT(B, 7)
END
",
        4,
    );
    let tree = search_parallel(
        &tool,
        &ConsultantConfig {
            threshold: 0.05,
            max_depth: 2,
        },
    );
    let all = nodes(&tree);
    assert!(
        all.iter().any(|n| n.focus.to_string().contains("sub#")),
        "the search reaches subregions"
    );
    for n in &all {
        let metric = HYPOTHESES
            .iter()
            .find(|h| h.name == n.hypothesis)
            .unwrap()
            .metric;
        let single = tool
            .run_experiment(&Experiment {
                metric: metric.to_string(),
                focus: n.focus.clone(),
            })
            .unwrap();
        assert_eq!(
            (single.value.to_bits(), single.wall.to_bits()),
            (n.value.to_bits(), n.wall.to_bits()),
            "{} @ {}",
            n.hypothesis,
            n.focus
        );
    }
}
