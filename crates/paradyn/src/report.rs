//! Whole-run performance reports: the front end's summary view combining
//! the metric table, per-resource profiles, the where axis, and the
//! Performance Consultant's conclusions.

use crate::consultant::{render as render_search, search_parallel, ConsultantConfig};
use crate::tool::Paradyn;
use crate::visi;
use pdmap::hierarchy::Focus;
use std::fmt::Write as _;

/// A per-resource profile: one metric measured at every refinement of a
/// parent focus.
#[derive(Clone, Debug)]
pub struct Profile {
    /// The metric name.
    pub metric: String,
    /// `(focus, value)` rows, sorted descending by value.
    pub rows: Vec<(Focus, f64)>,
    /// Wall seconds of the profiling run(s).
    pub wall: f64,
}

impl Profile {
    /// Renders as a bar chart.
    pub fn render(&self, width: usize) -> String {
        let max = self
            .rows
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut out = format!("{} by resource:\n", self.metric);
        for (focus, v) in &self.rows {
            let n = ((v / max) * width as f64).round() as usize;
            writeln!(
                out,
                "  {:<44} {:<width$} {v:.6}",
                focus.to_string(),
                "#".repeat(n)
            )
            .unwrap();
        }
        out
    }
}

/// Measures `metric` at every refinement candidate of `parent` (arrays,
/// statements, nodes — whichever hierarchies refine), one
/// [`Paradyn::measure`] per candidate, and returns the sorted profile.
pub fn profile(tool: &Paradyn, metric: &str, parent: &Focus) -> Profile {
    let mut rows = Vec::new();
    let mut wall = 0.0;
    for focus in tool.data().refinement_candidates(parent).iter() {
        if let Ok((v, w)) = tool.measure(metric, focus) {
            rows.push((focus.clone(), v));
            wall = w;
        }
    }
    sort_rows(&mut rows);
    Profile {
        metric: metric.to_string(),
        rows,
        wall,
    }
}

/// Sorts profile rows descending by value with a total order: `total_cmp`
/// instead of `partial_cmp`, so a NaN measurement cannot make the sort
/// comparator inconsistent (the old `unwrap_or(Equal)` fallback let NaN
/// rows land anywhere, varying run to run). Equal values tie-break by the
/// rendered focus name ascending, making the report order fully
/// deterministic.
fn sort_rows(rows: &mut [(Focus, f64)]) {
    rows.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
}

/// Produces a complete textual run report for the loaded program.
pub fn run_report(tool: &Paradyn, consultant_config: &ConsultantConfig) -> String {
    let mut out = String::new();

    // 1. Whole-program metric table.
    let names: Vec<String> = tool
        .metrics()
        .metric_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let requests: Vec<_> = names
        .iter()
        .filter_map(|n| tool.request(n, &Focus::whole_program()).ok())
        .collect();
    let mut machine = tool.new_machine().expect("program loaded");
    let summary = machine.run();
    writeln!(
        out,
        "run: {} blocks, {} messages, {} broadcasts, wall {} ticks",
        summary.blocks_dispatched,
        summary.messages,
        summary.broadcasts,
        machine.wall_clock()
    )
    .unwrap();
    // A degraded fleet must be visible at the top of the report; with
    // complete coverage the line is omitted and the report is unchanged.
    let coverage = tool.session_coverage();
    if !coverage.is_complete() {
        writeln!(out, "coverage: {coverage}").unwrap();
    }
    // Likewise the cost of watching: when any fleet node self-observes,
    // its aggregated perturbation estimate heads the report; with no
    // telemetry the line is omitted and the report is unchanged.
    if let Some(p) = tool.fleet_perturbation() {
        writeln!(out, "perturbation: {p}").unwrap();
    }
    // And the healing: a session that lost connections and got them back
    // (readmission or subtree re-parenting) says so, with its gap bound;
    // a session that never failed prints nothing.
    if let Some(r) = tool.fleet_recovery() {
        writeln!(out, "recovery: {r}").unwrap();
    }
    out.push('\n');
    let rows: Vec<(String, String, String)> = requests
        .iter()
        .map(|r| {
            let v = r.value(&machine);
            let value = if r.decl.is_timer() {
                format!("{v:.6} s")
            } else {
                format!("{v}")
            };
            (r.decl.name.clone(), value, r.decl.description.clone())
        })
        .collect();
    out.push_str(&visi::table(&rows));

    // 2. Communication profile by resource.
    out.push('\n');
    out.push_str(&profile(tool, "Point-to-Point Operations", &Focus::whole_program()).render(24));

    // 3. Where axis (static + whatever dynamic info the run produced).
    out.push_str("\nwhere axis:\n");
    out.push_str(&tool.render_where_axis());

    // 4. Consultant conclusions — the wave search with every core,
    // which renders byte-identical to the one-worker search.
    out.push_str("\nPerformance Consultant:\n");
    out.push_str(&render_search(&search_parallel(tool, consultant_config)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmrts_sim::MachineConfig;

    fn tool() -> Paradyn {
        let mut t = Paradyn::new(MachineConfig {
            nodes: 4,
            ..MachineConfig::default()
        });
        t.load_source(cmf_lang::samples::FIGURE4).unwrap();
        t
    }

    #[test]
    fn profile_ranks_arrays_by_traffic() {
        let t = tool();
        // Populate dynamic subregions first so candidates exist.
        let mut m = t.new_machine().unwrap();
        m.run();
        let p = profile(&t, "Point-to-Point Operations", &Focus::whole_program());
        assert!(!p.rows.is_empty());
        // Sorted descending.
        assert!(p.rows.windows(2).all(|w| w[0].1 >= w[1].1));
        // A and B each see 4 messages during their reductions; node#0
        // (the tree root + CP return) tops the per-node rows or ties.
        let rendered = p.render(16);
        assert!(rendered.contains("CMFarrays"), "{rendered}");
    }

    #[test]
    fn profile_sort_is_total_and_tie_breaks_by_name() {
        let f = |path: &str| Focus::whole_program().select("CMFarrays", path);
        // Ties, a NaN, and out-of-order values, deliberately scrambled.
        let mut rows = vec![
            (f("/B"), 2.0),
            (f("/D"), f64::NAN),
            (f("/C"), 2.0),
            (f("/A"), 5.0),
            (f("/E"), 0.5),
        ];
        sort_rows(&mut rows);
        let order: Vec<String> = rows
            .iter()
            .map(|(focus, _)| focus.selection("CMFarrays").to_string())
            .collect();
        // total_cmp places NaN above every finite value in descending
        // order; the 2.0 tie resolves by rendered focus name. The order
        // is pinned: rerunning the same profile can never reshuffle it.
        assert_eq!(order, ["/D", "/A", "/B", "/C", "/E"]);
        // Sorting an already-sorted copy is a fixed point.
        let mut again = rows.clone();
        sort_rows(&mut again);
        let reordered: Vec<String> = again
            .iter()
            .map(|(focus, _)| focus.selection("CMFarrays").to_string())
            .collect();
        assert_eq!(order, reordered);
    }

    #[test]
    fn run_report_contains_all_sections() {
        let t = tool();
        let report = run_report(
            &t,
            &ConsultantConfig {
                threshold: 0.2,
                max_depth: 0,
            },
        );
        assert!(report.contains("Metric"));
        assert!(report.contains("Summations"));
        assert!(report.contains("by resource"));
        assert!(report.contains("where axis"));
        assert!(report.contains("Performance Consultant"));
        // Complete coverage stays invisible: no degradation banner, and
        // no perturbation banner without telemetry.
        assert!(!report.contains("coverage:"), "{report}");
        assert!(!report.contains("perturbation:"), "{report}");
    }

    #[test]
    fn fleet_perturbation_shows_one_banner_line() {
        use crate::daemonset::FleetPerturbation;
        let t = tool();
        let cfg = ConsultantConfig {
            threshold: 0.2,
            max_depth: 0,
        };
        let plain = run_report(&t, &cfg);
        t.set_fleet_perturbation(Some(FleetPerturbation {
            nodes: 3,
            spans: 120,
            overhead_ns: 3_000,
            reported_ns: 1_200_000,
        }));
        let observed = run_report(&t, &cfg);
        assert!(
            observed.contains(
                "perturbation: 3 nodes self-observing: 120 spans, \
                 ~3000 ns overhead / 1200000 ns reported (0.25%)"
            ),
            "{observed}"
        );
        // Clearing restores the exact telemetry-free report.
        t.set_fleet_perturbation(None);
        assert_eq!(run_report(&t, &cfg), plain);
    }

    #[test]
    fn degraded_session_shows_coverage_banner() {
        use crate::daemonset::{Coverage, SessionCoverage};
        let t = tool();
        let cfg = ConsultantConfig {
            threshold: 0.2,
            max_depth: 0,
        };
        let full = run_report(&t, &cfg);
        t.set_session_coverage(Some(SessionCoverage {
            coverage: Coverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 2,
            },
            max_sample_cost: 0.5,
        }));
        let degraded = run_report(&t, &cfg);
        assert!(
            degraded.contains("coverage: 3/4 nodes reporting, >=2 samples lost"),
            "{degraded}"
        );
        // Clearing the label restores the exact full-coverage report.
        t.set_session_coverage(None);
        assert_eq!(run_report(&t, &cfg), full);
    }

    #[test]
    fn healed_session_shows_recovery_banner() {
        use crate::daemonset::RecoverySummary;
        let t = tool();
        let cfg = ConsultantConfig {
            threshold: 0.2,
            max_depth: 0,
        };
        let clean = run_report(&t, &cfg);
        assert!(!clean.contains("recovery:"), "{clean}");
        t.set_fleet_recovery(Some(RecoverySummary {
            readmissions: 1,
            reparents: 1,
            nodes_rehomed: 2,
            gap: 3,
        }));
        let healed = run_report(&t, &cfg);
        assert!(
            healed.contains(
                "recovery: 1 readmissions, 1 re-parents (2 nodes re-homed), >=3 samples gap"
            ),
            "{healed}"
        );
        // Clearing the rollup restores the exact failure-free report.
        t.set_fleet_recovery(None);
        assert_eq!(run_report(&t, &cfg), clean);
    }
}
