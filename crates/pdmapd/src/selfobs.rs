//! Periodic self-sampling: a fleet node watching itself.
//!
//! Every `--obs-period`, a leaf or relay snapshots its own `pdmap-obs`
//! registry and restates it as ordinary metric samples — span-site Time
//! and Count rows under the `selfmap` metric names, named counters, and
//! a perturbation estimate — all under a `Tool/<role>:<addr>` focus. The
//! sampler belongs to the node's upstream session
//! (`Upstream::sample_self`), which stamps the rows on the node's
//! reported clock; a relay appends its subtree rollup. The rows ride the
//! same `SampleBatch` frames as application data, are clock-rewritten by
//! relays like any other sample, and are counted into the sender's
//! conservation ledger (`samples_sent` / `samples_forwarded`), so turning
//! telemetry on cannot silently skew the loss accounting it is meant to
//! illuminate.
//!
//! Perturbation accounting follows `pdmap_obs::PerturbationReport`: the
//! null span cost is calibrated **once** at sampler construction (a few
//! hundred rounds, off the sampling path) and multiplied by the live
//! span count at each snapshot — self-observation measures its own cost
//! without paying a recalibration per period.

use paradyn_tool::selfmap;
use pdmap_obs::report::{CALIBRATION_COMPONENT, CALIBRATION_VERB};
use pdmap_obs::ObsSnapshot;
use std::time::{Duration, Instant};

/// Calibration rounds for the one-time null-span measurement. Cheaper
/// than `pdmap_obs::perturbation_report`'s 1024 — this runs inside a
/// serving daemon, not a bench.
const CALIBRATE_ROUNDS: u32 = 256;

/// Periodic self-sampling state for one fleet node.
pub(crate) struct SelfSampler {
    period: Duration,
    next: Instant,
    focus: String,
    null_span_ns: u64,
    /// Snapshots taken so far (reported at session end).
    pub snapshots: u32,
}

impl SelfSampler {
    /// Creates a sampler reporting under `focus` (see
    /// [`selfmap::obs_focus`]), calibrating the null span cost once.
    pub fn new(period: Duration, focus: String) -> Self {
        Self {
            period,
            next: Instant::now() + period,
            focus,
            null_span_ns: pdmap_obs::calibrate_null_span_ns(CALIBRATE_ROUNDS),
            snapshots: 0,
        }
    }

    /// The focus label the node reports under.
    pub fn focus(&self) -> &str {
        &self.focus
    }

    /// If a period has elapsed, snapshots the registry and returns this
    /// snapshot's `(metric, value)` rows; `None` while not yet due.
    pub fn due_rows(&mut self) -> Option<Vec<(String, f64)>> {
        if Instant::now() < self.next {
            return None;
        }
        self.next = Instant::now() + self.period;
        self.snapshots += 1;
        Some(rows(&pdmap_obs::snapshot(), self.null_span_ns))
    }

    /// The delta from the registry's origin clock to the clock this node
    /// reports to its parent — written into span dumps so a reader can
    /// chain the tool-measured offset (see `pdmap_obs::SpanDump`).
    pub fn origin_delta_ns(skew_ns: i64) -> i64 {
        crate::daemon_now(skew_ns) as i64 - pdmap_obs::now_ns() as i64
    }
}

/// Restates one snapshot as telemetry rows: Time + Count per active span
/// site, nonzero named counters, and the four perturbation rows. Sites
/// and counters that never fired are skipped — a quiet node ships a
/// small batch, and the tool treats absent rows as zero anyway.
pub(crate) fn rows(snap: &ObsSnapshot, null_span_ns: u64) -> Vec<(String, f64)> {
    let mut out = Vec::with_capacity(snap.sites.len() * 2 + snap.counters.len() + 4);
    for s in &snap.sites {
        // The calibration site is measurement scaffolding, not workload.
        if s.count == 0 || (s.component == CALIBRATION_COMPONENT && s.verb == CALIBRATION_VERB) {
            continue;
        }
        out.push((
            selfmap::obs_time_metric(&s.component, &s.verb),
            s.total_ns as f64,
        ));
        out.push((
            selfmap::obs_count_metric(&s.component, &s.verb),
            s.count as f64,
        ));
    }
    for (name, v) in &snap.counters {
        if *v == 0 {
            continue;
        }
        out.push((selfmap::obs_counter_metric(name), *v as f64));
    }
    let rep = pdmap_obs::PerturbationReport::from_snapshot(snap, null_span_ns);
    out.push((selfmap::OBS_PERTURB_OVERHEAD.into(), rep.overhead_ns as f64));
    out.push((selfmap::OBS_PERTURB_SPANS.into(), rep.span_count as f64));
    out.push((selfmap::OBS_PERTURB_NULL.into(), rep.null_span_ns as f64));
    out.push((
        selfmap::OBS_PERTURB_REPORTED.into(),
        rep.total_reported_ns as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_active_sites_counters_and_perturbation() {
        let site = pdmap_obs::span_site("test/selfobs", "send");
        pdmap_obs::record_span(&site, pdmap_obs::now_ns(), 2_000);
        pdmap_obs::counter("test.selfobs.events").incr();
        let snap = pdmap_obs::snapshot();
        let rows = rows(&snap, 25);
        let get = |name: &str| rows.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert!(get("Obs test/selfobs send Time").unwrap() >= 2_000.0);
        assert!(get("Obs test/selfobs send Count").unwrap() >= 1.0);
        assert!(get("Obs counter test.selfobs.events").unwrap() >= 1.0);
        assert_eq!(get(selfmap::OBS_PERTURB_NULL), Some(25.0));
        assert!(get(selfmap::OBS_PERTURB_SPANS).unwrap() >= 1.0);
        assert!(get(selfmap::OBS_PERTURB_OVERHEAD).is_some());
        assert!(get(selfmap::OBS_PERTURB_REPORTED).unwrap() >= 2_000.0);
        // Sites that never fired ship no rows.
        assert!(get("Obs transport/inproc reconnect Time").is_none());
    }

    #[test]
    fn sampler_respects_its_period() {
        let mut s = SelfSampler::new(
            Duration::from_millis(5),
            selfmap::obs_focus("daemon", "127.0.0.1:1"),
        );
        assert!(s.due_rows().is_none(), "not due immediately");
        std::thread::sleep(Duration::from_millis(7));
        assert!(s.due_rows().is_some(), "due after one period");
        assert!(s.due_rows().is_none(), "one snapshot per period");
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.focus(), "Tool/daemon:127.0.0.1:1");
    }
}
