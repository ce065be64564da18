//! Sampled metric streams.
//!
//! §5: Paradyn "sends a stream of performance measurements back to the
//! user". The simulator is synchronous, so sampling piggybacks on the
//! machine's step observer: after every control-processor step the sampler
//! reads each outstanding metric request and appends `(wall tick, value)`.

use crate::metrics::MetricRequest;
use cmrts_sim::{Machine, RunSummary};

/// A sampled time series for one metric-focus pair.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    /// Metric display name.
    pub metric: String,
    /// Focus rendered as text.
    pub focus: String,
    /// Unit string.
    pub units: String,
    /// `(wall tick, cumulative value)` samples.
    pub samples: Vec<(u64, f64)>,
}

impl Stream {
    /// The final (cumulative) value.
    pub fn last_value(&self) -> f64 {
        self.samples.last().map(|&(_, v)| v).unwrap_or(0.0)
    }

    /// Per-interval deltas between consecutive samples.
    pub fn deltas(&self) -> Vec<(u64, f64)> {
        self.samples
            .windows(2)
            .map(|w| (w[1].0, w[1].1 - w[0].1))
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Drives a machine while sampling a set of metric requests every
/// `every_steps` control-processor steps. Returns one [`Stream`] per
/// request plus the run summary.
pub fn run_sampled(
    machine: &mut Machine,
    requests: &[MetricRequest],
    every_steps: usize,
) -> (Vec<Stream>, RunSummary) {
    sample_run(machine, requests, |_| every_steps)
}

/// Drives a machine while sampling at an interval governed by an
/// [`pdmap_obs::AdaptiveSampler`] — the ROADMAP's backpressure-aware
/// sampling. `drops` reads the current cumulative transport drop count
/// (e.g. `DistributedSas::transport_stats().drops`); at every sample the
/// sampler observes it and, when drops are rising, multiplicatively
/// lengthens the interval so the tool sheds its own load instead of
/// dropping frames blindly. When the link is clean the interval creeps
/// back down additively.
///
/// The returned streams have the same shape as [`run_sampled`]'s, but the
/// spacing between samples varies with transport health.
pub fn run_sampled_adaptive(
    machine: &mut Machine,
    requests: &[MetricRequest],
    sampler: &mut pdmap_obs::AdaptiveSampler,
    mut drops: impl FnMut(&Machine) -> u64,
) -> (Vec<Stream>, RunSummary) {
    sample_run(machine, requests, |m| {
        // A backed-off sampler can return an interval near u64::MAX;
        // saturate instead of overflowing past the end of the run.
        usize::try_from(sampler.observe_drops(drops(m))).unwrap_or(usize::MAX)
    })
}

/// The one sampling loop: samples every request at step 0, then
/// `interval` steps (at least one) after each sample, and always at the
/// last step. `interval` is asked once per sample.
fn sample_run(
    machine: &mut Machine,
    requests: &[MetricRequest],
    mut interval: impl FnMut(&Machine) -> usize,
) -> (Vec<Stream>, RunSummary) {
    let mut streams: Vec<Stream> = requests
        .iter()
        .map(|r| Stream {
            metric: r.decl.name.clone(),
            focus: r.focus.to_string(),
            units: r.decl.units.to_string(),
            samples: Vec::new(),
        })
        .collect();
    let total_steps = machine.program().steps.len();
    let mut next_sample = 0usize;
    let summary = machine.run_with(|m, step| {
        if step >= next_sample || step + 1 == total_steps {
            let gap = interval(m).max(1);
            let t = m.wall_clock();
            for (s, r) in streams.iter_mut().zip(requests) {
                s.samples.push((t, r.value(m)));
            }
            next_sample = step.saturating_add(gap);
        }
    });
    (streams, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datamgr::DataManager;
    use crate::metrics::MetricManager;
    use cmrts_sim::MachineConfig;
    use dyninst_sim::InstrumentationManager;
    use pdmap::hierarchy::Focus;
    use pdmap::model::Namespace;
    use std::sync::Arc;

    #[test]
    fn sampled_stream_is_cumulative_and_monotone() {
        let ns = Namespace::new();
        let mgr = Arc::new(InstrumentationManager::new());
        let compiled = cmf_lang::compile(
            cmf_lang::samples::ALL_VERBS,
            &ns,
            &cmf_lang::CompileOptions::default(),
        )
        .unwrap();
        let dm = DataManager::new(ns.clone(), "CM Fortran");
        dm.import_pif(&compiled.pif).unwrap();
        dm.ensure_machine(4);
        let mm = MetricManager::new(mgr.clone());
        let reqs = vec![
            mm.request(
                "Point-to-Point Operations",
                &dm,
                &Focus::whole_program(),
                1e9,
            )
            .unwrap(),
            mm.request("Node Activations", &dm, &Focus::whole_program(), 1e9)
                .unwrap(),
        ];
        let mut m = cmrts_sim::Machine::new(
            MachineConfig {
                nodes: 4,
                ..MachineConfig::default()
            },
            ns,
            mgr,
            compiled.program().clone(),
        )
        .unwrap();
        let (streams, summary) = run_sampled(&mut m, &reqs, 1);
        assert_eq!(streams.len(), 2);
        for s in &streams {
            assert!(s.len() > 2);
            assert!(
                s.samples.windows(2).all(|w| w[1].1 >= w[0].1),
                "cumulative metric must be monotone: {}",
                s.metric
            );
            assert!(s.samples.windows(2).all(|w| w[1].0 >= w[0].0));
        }
        assert_eq!(
            streams[0].last_value(),
            summary.messages as f64,
            "stream total equals ground truth"
        );
        let deltas = streams[0].deltas();
        assert!(!deltas.is_empty());
    }

    fn adaptive_fixture() -> (Vec<MetricRequest>, cmrts_sim::Machine) {
        let ns = Namespace::new();
        let mgr = Arc::new(InstrumentationManager::new());
        let compiled = cmf_lang::compile(
            cmf_lang::samples::ALL_VERBS,
            &ns,
            &cmf_lang::CompileOptions::default(),
        )
        .unwrap();
        let dm = DataManager::new(ns.clone(), "CM Fortran");
        dm.import_pif(&compiled.pif).unwrap();
        dm.ensure_machine(4);
        let mm = MetricManager::new(mgr.clone());
        let reqs = vec![mm
            .request(
                "Point-to-Point Operations",
                &dm,
                &Focus::whole_program(),
                1e9,
            )
            .unwrap()];
        let m = cmrts_sim::Machine::new(
            MachineConfig {
                nodes: 4,
                ..MachineConfig::default()
            },
            ns,
            mgr,
            compiled.program().clone(),
        )
        .unwrap();
        (reqs, m)
    }

    #[test]
    fn adaptive_sampling_backs_off_under_drops_and_stays_dense_when_clean() {
        use pdmap_obs::{AdaptiveSampler, SamplerConfig};
        let cfg = SamplerConfig {
            base_interval: 1,
            max_interval: 64,
            increase_factor: 2,
            decrease_step: 1,
        };

        // A clean link: drops never move, so the interval stays at base
        // and every step is sampled.
        let (reqs, mut clean_machine) = adaptive_fixture();
        let mut clean_sampler = AdaptiveSampler::new(cfg);
        let (clean_streams, clean_summary) =
            run_sampled_adaptive(&mut clean_machine, &reqs, &mut clean_sampler, |_| 0);
        assert_eq!(clean_sampler.interval(), 1);
        assert_eq!(
            clean_streams[0].last_value(),
            clean_summary.messages as f64,
            "final sample still equals ground truth"
        );

        // A degrading link: drops rise on every observation, so the
        // interval lengthens multiplicatively and far fewer samples land.
        let (reqs, mut lossy_machine) = adaptive_fixture();
        let mut lossy_sampler = AdaptiveSampler::new(cfg);
        let mut fake_drops = 0u64;
        let (lossy_streams, lossy_summary) =
            run_sampled_adaptive(&mut lossy_machine, &reqs, &mut lossy_sampler, |_| {
                fake_drops += 10;
                fake_drops
            });
        assert!(lossy_sampler.interval() > 1);
        assert!(
            lossy_streams[0].len() < clean_streams[0].len(),
            "rising drops must thin the stream: {} vs {}",
            lossy_streams[0].len(),
            clean_streams[0].len()
        );
        assert_eq!(
            lossy_streams[0].last_value(),
            lossy_summary.messages as f64,
            "the last step is always sampled, so totals survive back-off"
        );
    }

    #[test]
    fn adaptive_sampling_survives_a_maximally_backed_off_interval() {
        // A sampler pinned at u64::MAX used to overflow `step + interval`
        // when computing the next sample index; it must saturate instead,
        // sampling only the first and last steps.
        use pdmap_obs::{AdaptiveSampler, SamplerConfig};
        let (reqs, mut machine) = adaptive_fixture();
        let mut sampler = AdaptiveSampler::new(SamplerConfig {
            base_interval: u64::MAX,
            max_interval: u64::MAX,
            increase_factor: 2,
            decrease_step: 1,
        });
        let (streams, summary) = run_sampled_adaptive(&mut machine, &reqs, &mut sampler, |_| 0);
        assert_eq!(
            streams[0].len(),
            2,
            "only the first and final steps sample at an infinite interval"
        );
        assert_eq!(
            streams[0].last_value(),
            summary.messages as f64,
            "the forced final sample still carries the ground-truth total"
        );
    }
}
