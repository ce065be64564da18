//! Plain-text summary and perturbation self-report.
//!
//! The paper's §5 argument: instrumentation cost must itself be measured
//! and accounted for, or the mapped performance data lies about the
//! program it perturbed. We estimate the fixed cost of one span by
//! timing a batch of null spans (enter immediately followed by exit) at a
//! calibration site, then model total overhead as
//! `null_span_ns × span_count` and subtract it from the reported totals.

use crate::clock::now_ns;
use crate::registry::{snapshot, span_site, ObsSnapshot};
use crate::span::span;

/// Site used by [`calibrate_null_span_ns`]; excluded from perturbation
/// math so calibration does not inflate the overhead it measures.
pub const CALIBRATION_COMPONENT: &str = "obs";
/// Verb of the calibration site.
pub const CALIBRATION_VERB: &str = "calibrate";

/// Short batches [`calibrate_null_span_ns`] splits its rounds into.
const CALIBRATION_BATCHES: u32 = 8;

/// Measures the fixed cost of recording one span by timing `rounds`
/// back-to-back null spans at the `obs`/`calibrate` site, in eight short
/// batches. Returns the median of the batches' per-span costs in ns (at
/// least 1): a preemption inside one batch inflates that batch alone,
/// where one timed batch would carry it into every estimate built on the
/// result.
pub fn calibrate_null_span_ns(rounds: u32) -> u64 {
    let rounds = rounds.max(1);
    let site = span_site(CALIBRATION_COMPONENT, CALIBRATION_VERB);
    let batches = CALIBRATION_BATCHES.min(rounds);
    let per_span: Vec<u64> = (0..batches)
        .map(|b| {
            // The first `rounds % batches` batches take one extra round.
            let n = rounds / batches + u32::from(b < rounds % batches);
            let start = now_ns();
            for _ in 0..n {
                let _g = span(&site);
            }
            now_ns().saturating_sub(start) / n as u64
        })
        .collect();
    median(per_span).max(1)
}

/// The median of `costs`: the mean of the middle two for an even count.
/// Not the minimum, which would bias the estimate low.
fn median(mut costs: Vec<u64>) -> u64 {
    costs.sort_unstable();
    let mid = costs.len() / 2;
    if costs.len().is_multiple_of(2) {
        (costs[mid - 1] + costs[mid]) / 2
    } else {
        costs[mid]
    }
}

/// The perturbation model applied to one snapshot: estimated recording
/// overhead versus total reported span time.
#[derive(Clone, Copy, Debug)]
pub struct PerturbationReport {
    /// Calibrated cost of one null span, ns.
    pub null_span_ns: u64,
    /// Spans included in the model (calibration spans excluded).
    pub span_count: u64,
    /// Modelled total overhead: `null_span_ns × span_count`.
    pub overhead_ns: u64,
    /// Total reported span time (calibration excluded), ns.
    pub total_reported_ns: u64,
    /// Reported time with the modelled overhead subtracted.
    pub corrected_total_ns: u64,
}

impl PerturbationReport {
    /// Builds the report from a snapshot and a calibrated null-span cost,
    /// excluding the calibration site itself.
    pub fn from_snapshot(snap: &ObsSnapshot, null_span_ns: u64) -> Self {
        let mut span_count = 0u64;
        let mut total_reported_ns = 0u64;
        for s in &snap.sites {
            if s.component == CALIBRATION_COMPONENT && s.verb == CALIBRATION_VERB {
                continue;
            }
            span_count += s.count;
            total_reported_ns += s.total_ns;
        }
        let overhead_ns = null_span_ns.saturating_mul(span_count);
        Self {
            null_span_ns,
            span_count,
            overhead_ns,
            total_reported_ns,
            corrected_total_ns: total_reported_ns.saturating_sub(overhead_ns),
        }
    }

    /// Overhead as a fraction of total reported time (0.0 when nothing
    /// was reported).
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_reported_ns == 0 {
            0.0
        } else {
            self.overhead_ns as f64 / self.total_reported_ns as f64
        }
    }

    /// One-line rendering for logs and bench JSON footers.
    pub fn summary_line(&self) -> String {
        format!(
            "perturbation: {} spans x {} ns = {} ns overhead ({:.2}% of {} ns reported; corrected {} ns)",
            self.span_count,
            self.null_span_ns,
            self.overhead_ns,
            self.overhead_fraction() * 100.0,
            self.total_reported_ns,
            self.corrected_total_ns,
        )
    }
}

/// Calibrates with a default round count and reports on a fresh
/// snapshot. Convenience for binaries.
pub fn perturbation_report() -> PerturbationReport {
    let null = calibrate_null_span_ns(1024);
    PerturbationReport::from_snapshot(&snapshot(), null)
}

/// Renders the snapshot as a human-readable multi-line summary: one row
/// per site (count, total, mean, p50/p99), then counters, then
/// histograms, then ring statistics.
pub fn summary_text(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "obs summary @ {} ns ({} threads, {} spans, {} dropped from rings)\n",
        snap.taken_ns,
        snap.threads,
        snap.span_count(),
        snap.spans_dropped
    ));
    out.push_str("sites:\n");
    for s in &snap.sites {
        if s.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<24} {:<10} count={:<8} total={} ns mean={} ns p50={} ns p99={} ns\n",
            s.component,
            s.verb,
            s.count,
            s.total_ns,
            s.hist.mean(),
            s.hist.quantile(0.5),
            s.hist.quantile(0.99),
        ));
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<40} {v}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snap.histograms {
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "  {:<40} count={:<8} mean={} p50={} p99={} max={}\n",
                name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::record_span;

    #[test]
    fn calibration_returns_positive_cost() {
        let c = calibrate_null_span_ns(256);
        assert!(c >= 1);
        // Calibration spans land on the excluded site.
        let snap = snapshot();
        let cal = snap.site(CALIBRATION_COMPONENT, CALIBRATION_VERB).unwrap();
        assert!(cal.count >= 256);
    }

    #[test]
    fn a_preempted_batch_does_not_move_the_median() {
        // Eight batches at 40 ns a span, one of them hit by a 1 ms
        // preemption over 32 spans: one timed batch would have read ~3.9 µs.
        let mut costs = vec![40u64; 8];
        costs[3] = 40 + 1_000_000 / 32;
        assert_eq!(median(costs), 40);
        assert_eq!(median(vec![10, 50, 30]), 30);
        assert_eq!(median(vec![10, 20, 40, 50]), 30);
    }

    #[test]
    fn calibration_spends_all_its_rounds() {
        let count = || {
            let snap = snapshot();
            snap.site(CALIBRATION_COMPONENT, CALIBRATION_VERB)
                .map_or(0, |s| s.count)
        };
        let before = count();
        calibrate_null_span_ns(3);
        calibrate_null_span_ns(100);
        // Other tests calibrate concurrently, so the count can only exceed.
        assert!(count() - before >= 103);
    }

    #[test]
    fn report_excludes_calibration_and_subtracts() {
        let site = span_site("test/report", "send");
        // 100 spans of 1 ms each dwarf any realistic null-span cost.
        for i in 0..100 {
            record_span(&site, i * 2_000_000, 1_000_000);
        }
        let snap = snapshot();
        let r = PerturbationReport::from_snapshot(&snap, 50);
        assert!(r.span_count >= 100);
        assert_eq!(r.overhead_ns, 50 * r.span_count);
        assert!(r.total_reported_ns >= 100 * 1_000_000);
        assert_eq!(
            r.corrected_total_ns,
            r.total_reported_ns - r.overhead_ns,
            "correction subtracts the modelled overhead"
        );
        assert!(
            r.overhead_fraction() < 0.10,
            "coarse spans keep overhead low"
        );
        assert!(r.summary_line().contains("perturbation:"));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = PerturbationReport::from_snapshot(&ObsSnapshot::default(), 100);
        assert_eq!(r.span_count, 0);
        assert_eq!(r.overhead_fraction(), 0.0);
        assert_eq!(r.corrected_total_ns, 0);
    }

    #[test]
    fn summary_text_lists_active_sites() {
        let site = span_site("test/summary", "deliver");
        record_span(&site, 0, 500);
        let text = summary_text(&snapshot());
        assert!(text.contains("test/summary"));
        assert!(text.contains("deliver"));
        assert!(text.contains("obs summary @"));
    }
}
