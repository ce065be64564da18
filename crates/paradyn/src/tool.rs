//! The tool facade: one object wiring compiler output, the data manager,
//! the metric manager, mapping instrumentation, and machines together —
//! the in-process equivalent of the Paradyn front end plus its daemon.

use crate::daemonset::{Coverage, FleetPerturbation, RecoverySummary, SessionCoverage};
use crate::datamgr::DataManager;
use crate::mcache::{McacheStats, Measured, MeasurementCache};
use crate::metrics::{MappingInstrumentation, MetricManager, MetricRequest, RequestError};
use crate::stream::{run_sampled, Stream};
use cmf_lang::{CompileOptions, Compiled};
use cmrts_sim::{Machine, MachineConfig, Program, RunSummary};
use dyninst_sim::InstrumentationManager;
use pdmap::hierarchy::Focus;
use pdmap::model::Namespace;
use pdmap::util::FxHasher;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from loading a program into the tool.
#[derive(Debug)]
pub enum LoadError {
    /// Compilation failed.
    Compile(cmf_lang::CompileError),
    /// PIF import failed.
    Pif(pdmap_pif::ApplyError),
    /// The lowered program failed machine validation.
    Ir(cmrts_sim::IrError),
    /// No program has been loaded yet.
    NoProgram,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Compile(e) => write!(f, "compile error: {e}"),
            LoadError::Pif(e) => write!(f, "PIF import error: {e}"),
            LoadError::Ir(e) => write!(f, "IR error: {e}"),
            LoadError::NoProgram => write!(f, "no program loaded"),
        }
    }
}

/// One pure consultant experiment: a metric at a focus. Running it
/// through [`Paradyn::run_experiment`] is a function of the tool's
/// loaded program and session coverage only — no mutable state is
/// threaded, so experiments can run concurrently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Experiment {
    /// Metric name (id or display name from the catalogue).
    pub metric: String,
    /// The focus to constrain it to.
    pub focus: Focus,
}

impl std::error::Error for LoadError {}

/// The assembled measurement tool.
pub struct Paradyn {
    ns: Namespace,
    mgr: Arc<InstrumentationManager>,
    data: Arc<DataManager>,
    metrics: MetricManager,
    mapping: Option<MappingInstrumentation>,
    config: MachineConfig,
    program: Option<Program>,
    /// The session's fleet label, when a multi-daemon frontend drives this
    /// tool: every request is stamped with it so downstream verdicts widen
    /// with the fleet's real coverage. `None` means single-process — the
    /// tool *is* the whole fleet and stamps complete coverage.
    session: Mutex<Option<SessionCoverage>>,
    /// The fleet's aggregated self-observation cost, when a multi-daemon
    /// frontend installs one from
    /// [`crate::daemonset::DaemonSet::fleet_perturbation`]; surfaced by
    /// the run report so telemetry overhead is visible next to the data
    /// it perturbs. `None` means no node is self-observing.
    perturbation: Mutex<Option<FleetPerturbation>>,
    /// The fleet's recovery history rollup, when a multi-daemon frontend
    /// installs one from
    /// [`crate::daemonset::DaemonSet::recovery_summary`]; surfaced by the
    /// run report so a session that healed (readmissions, re-parented
    /// subtrees) says so next to its results. `None` means nothing ever
    /// failed — the report is unchanged.
    recovery: Mutex<Option<RecoverySummary>>,
    /// Content hash of the loaded program (PIF text × machine shape);
    /// `0` while nothing is loaded. Part of every measurement-cache key,
    /// so a reloaded tool can never serve another program's measurements.
    program_hash: AtomicU64,
    /// Bumped by every session-coverage change, mapping toggle, program
    /// load, and [`Paradyn::metrics_mut`] borrow (which may redefine a
    /// metric). Part of every measurement-cache key: a fleet degradation
    /// mid-search makes all cached intervals unreachable instead of
    /// serving a stale narrow one, and a redefined metric is never
    /// answered from its old definition's measurements.
    coverage_epoch: AtomicU64,
    /// The content-addressed measurement cache behind
    /// [`Paradyn::experiment_cached`].
    mcache: MeasurementCache,
}

impl Paradyn {
    /// Creates a tool for machines of the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        let ns = Namespace::new();
        let mgr = Arc::new(InstrumentationManager::new());
        let data = Arc::new(DataManager::new(ns.clone(), "CM Fortran"));
        let metrics = MetricManager::new(mgr.clone());
        Self {
            ns,
            mgr,
            data,
            metrics,
            mapping: None,
            config,
            program: None,
            session: Mutex::new(None),
            perturbation: Mutex::new(None),
            recovery: Mutex::new(None),
            program_hash: AtomicU64::new(0),
            coverage_epoch: AtomicU64::new(0),
            mcache: MeasurementCache::new(),
        }
    }

    /// The shared namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The shared instrumentation manager.
    pub fn manager(&self) -> &Arc<InstrumentationManager> {
        &self.mgr
    }

    /// The data manager.
    pub fn data(&self) -> &Arc<DataManager> {
        &self.data
    }

    /// The metric manager.
    pub fn metrics(&self) -> &MetricManager {
        &self.metrics
    }

    /// Mutable metric manager (for adding user MDL). A caller may
    /// redefine a metric through it, so it bumps the coverage epoch:
    /// cached measurements of the old definitions become unreachable.
    pub fn metrics_mut(&mut self) -> &mut MetricManager {
        self.coverage_epoch.fetch_add(1, Ordering::SeqCst);
        &mut self.metrics
    }

    /// The machine configuration used for new machines.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.config
    }

    /// Compiles and loads source in one step.
    pub fn load_source(&mut self, source: &str) -> Result<Compiled, LoadError> {
        let compiled = cmf_lang::compile(source, &self.ns, &CompileOptions::default())
            .map_err(LoadError::Compile)?;
        self.load(&compiled)?;
        Ok(compiled)
    }

    /// Loads a compiled program: imports its PIF (static mapping
    /// information), prepares the Machine hierarchy, and installs the
    /// dynamic mapping instrumentation.
    pub fn load(&mut self, compiled: &Compiled) -> Result<(), LoadError> {
        self.data
            .import_pif(&compiled.pif)
            .map_err(LoadError::Pif)?;
        self.data.ensure_machine(self.config.nodes);
        self.program = Some(compiled.program().clone());
        let mut h = FxHasher::default();
        h.write(compiled.pif_text.as_bytes());
        h.write_usize(self.config.nodes);
        self.program_hash.store(h.finish(), Ordering::SeqCst);
        self.coverage_epoch.fetch_add(1, Ordering::SeqCst);
        if self.mapping.is_none() {
            self.mapping = Some(MappingInstrumentation::install(&self.mgr));
        }
        Ok(())
    }

    /// Turns all dynamic mapping instrumentation on or off at once (§5).
    pub fn set_mapping_instrumentation(&mut self, on: bool) {
        match (on, self.mapping.take()) {
            (true, None) => self.mapping = Some(MappingInstrumentation::install(&self.mgr)),
            (true, Some(mi)) => self.mapping = Some(mi),
            (false, Some(mut mi)) => mi.remove(&self.mgr),
            (false, None) => {}
        }
        // The toggle changes what experiments observe; cached
        // measurements from the other setting must become unreachable.
        self.coverage_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// True while the §5 dynamic mapping instrumentation is on.
    pub fn mapping_installed(&self) -> bool {
        self.mapping.as_ref().is_some_and(|mi| mi.installed())
    }

    /// Builds a fresh machine for the loaded program, wired to the data
    /// manager's dynamic-mapping sink.
    pub fn new_machine(&self) -> Result<Machine, LoadError> {
        let program = self.program.clone().ok_or(LoadError::NoProgram)?;
        let mut m = Machine::new(
            self.config.clone(),
            self.ns.clone(),
            self.mgr.clone(),
            program,
        )
        .map_err(LoadError::Ir)?;
        m.set_mapping_sink(self.data.clone());
        Ok(m)
    }

    /// Installs (or clears, with `None`) the session's fleet label. A
    /// multi-daemon frontend refreshes this from
    /// [`crate::daemonset::DaemonSet::session_coverage`] as the fleet's
    /// health changes; every subsequent [`Paradyn::request`] and
    /// [`Paradyn::measure_with_coverage`] is stamped with it.
    pub fn set_session_coverage(&self, session: Option<SessionCoverage>) {
        let mut guard = self.session.lock().expect("session label poisoned");
        *guard = session;
        // Bumped under the session lock so a concurrent
        // [`Paradyn::session_stamp`] never pairs the new coverage with the
        // old epoch (or vice versa): cached intervals from the previous
        // coverage become unreachable atomically with the change.
        self.coverage_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Installs (or clears, with `None`) the fleet's aggregated
    /// self-observation cost, refreshed by a multi-daemon frontend from
    /// [`crate::daemonset::DaemonSet::fleet_perturbation`].
    pub fn set_fleet_perturbation(&self, p: Option<FleetPerturbation>) {
        *self.perturbation.lock().expect("perturbation poisoned") = p;
    }

    /// The installed fleet perturbation rollup, if any node is
    /// self-observing.
    pub fn fleet_perturbation(&self) -> Option<FleetPerturbation> {
        *self.perturbation.lock().expect("perturbation poisoned")
    }

    /// Installs (or clears, with `None`) the fleet's recovery rollup,
    /// refreshed by a multi-daemon frontend from
    /// [`crate::daemonset::DaemonSet::recovery_summary`].
    pub fn set_fleet_recovery(&self, r: Option<RecoverySummary>) {
        *self.recovery.lock().expect("recovery poisoned") = r;
    }

    /// The installed recovery rollup, if the session ever healed.
    pub fn fleet_recovery(&self) -> Option<RecoverySummary> {
        *self.recovery.lock().expect("recovery poisoned")
    }

    /// The coverage every request is currently stamped with: the session
    /// label if one is installed, otherwise complete coverage over this
    /// tool's own nodes (a single process cannot lose part of itself).
    pub fn session_coverage(&self) -> Coverage {
        self.session
            .lock()
            .expect("session label poisoned")
            .map(|s| s.coverage)
            .unwrap_or_else(|| Coverage::complete(self.config.nodes))
    }

    /// The largest per-sample cost observed by the session (`0.0` for a
    /// single-process tool) — the bound used to price lost samples.
    pub fn session_max_sample_cost(&self) -> f64 {
        self.session
            .lock()
            .expect("session label poisoned")
            .map(|s| s.max_sample_cost)
            .unwrap_or(0.0)
    }

    /// One atomic read of everything an experiment's cache key and
    /// interval need: `(coverage, max sample cost, coverage epoch)`. Taken
    /// under the session lock so the triple is always internally
    /// consistent — a concurrent [`Paradyn::set_session_coverage`] can
    /// never pair new coverage with the old epoch.
    pub fn session_stamp(&self) -> (Coverage, f64, u64) {
        let guard = self.session.lock().expect("session label poisoned");
        let coverage = guard
            .map(|s| s.coverage)
            .unwrap_or_else(|| Coverage::complete(self.config.nodes));
        let max_cost = guard.map(|s| s.max_sample_cost).unwrap_or(0.0);
        (
            coverage,
            max_cost,
            self.coverage_epoch.load(Ordering::SeqCst),
        )
    }

    /// The loaded program's content hash (PIF text × machine shape), `0`
    /// while nothing is loaded.
    pub fn program_hash(&self) -> u64 {
        self.program_hash.load(Ordering::SeqCst)
    }

    /// The current coverage epoch (see the field docs for what bumps it).
    pub fn coverage_epoch(&self) -> u64 {
        self.coverage_epoch.load(Ordering::SeqCst)
    }

    /// Requests a metric constrained to a focus. The result is stamped
    /// with the session's [`Coverage`] — complete for a single-process
    /// tool, the fleet's real coverage when a multi-daemon frontend
    /// installed one via [`Paradyn::set_session_coverage`] — so §6
    /// question answers carry how much of the fleet they actually cover.
    pub fn request(&self, metric: &str, focus: &Focus) -> Result<MetricRequest, RequestError> {
        let mut req =
            self.metrics
                .request(metric, &self.data, focus, self.config.cost.ticks_per_second)?;
        req.coverage = self.session_coverage();
        Ok(req)
    }

    /// One-shot experiment: `(value, wall seconds)` of `metric` at
    /// `focus`. When a search already measured that (metric, focus) under
    /// the loaded program and the current coverage epoch, the measurement
    /// cache answers, counting a hit: exact, because that is the key
    /// [`Paradyn::experiment_cached`] trusts. Otherwise one fresh machine
    /// runs to completion; its answer does not fill the cache.
    pub fn measure(&self, metric: &str, focus: &Focus) -> Result<(f64, f64), RequestError> {
        self.measure_with_coverage(metric, focus)
            .map(|(v, w, _)| (v, w))
    }

    /// [`Paradyn::measure`] plus the [`Coverage`] the value was computed
    /// under — what coverage-aware consumers (the Performance Consultant's
    /// hypothesis tests) use so a degraded fleet widens their verdict
    /// intervals instead of silently biasing the point estimate.
    pub fn measure_with_coverage(
        &self,
        metric: &str,
        focus: &Focus,
    ) -> Result<(f64, f64, Coverage), RequestError> {
        let (_, _, epoch) = self.session_stamp();
        let cached = self
            .mcache
            .get(metric, &focus.to_string(), self.program_hash(), epoch);
        let m = match cached {
            Some(answer) => answer?,
            None => self.run_experiment(&Experiment {
                metric: metric.to_string(),
                focus: focus.clone(),
            })?,
        };
        Ok((m.value, m.wall, m.coverage))
    }

    /// Runs one pure experiment, uncached: a private machine run measuring
    /// `exp.metric` at `exp.focus`. See [`Paradyn::run_experiment_batch`]
    /// for the purity guarantees.
    pub fn run_experiment(&self, exp: &Experiment) -> Result<Measured, RequestError> {
        self.run_experiment_batch(std::slice::from_ref(&exp.metric), &exp.focus)
            .into_iter()
            .next()
            .map(|(_, r)| r)
            .unwrap_or(Err(RequestError::NoProgram))
    }

    /// Runs one instrumented machine measuring every metric in `metrics`
    /// at one `focus`, returning `(metric, result)` pairs in request
    /// order: the one-focus case of [`Paradyn::run_experiments`].
    pub fn run_experiment_batch(
        &self,
        metrics: &[String],
        focus: &Focus,
    ) -> Vec<(String, Result<Measured, RequestError>)> {
        self.run_experiments(metrics, std::slice::from_ref(focus))
            .pop()
            .expect("one batch per focus")
    }

    /// Runs one instrumented machine measuring every metric in `metrics`
    /// at every focus in `foci`, returning one batch per focus, in `foci`
    /// order, of `(metric, result)` pairs in `metrics` order.
    ///
    /// The run is **pure**: it instruments a private
    /// [`InstrumentationManager`] (fresh registry and primitives, with the
    /// tool's mapping instrumentation re-installed into it when the §5
    /// toggle is on), so concurrent runs never execute each other's
    /// snippets against shared primitives. Every (metric, focus) request
    /// gets its own primitive; each focus's guard is resolved once and
    /// shared by its metrics, and the run's requests install as one batch
    /// (one lock, each touched point's plan rebuilt once). Instrumentation
    /// in the simulator is passive — it mutates counters and timers, never
    /// the simulated clock — so one run over many foci produces values and
    /// walls bit-identical to one single-metric [`Paradyn::run_experiment`]
    /// per (metric, focus).
    pub fn run_experiments(
        &self,
        metrics: &[String],
        foci: &[Focus],
    ) -> Vec<Vec<(String, Result<Measured, RequestError>)>> {
        let Some(program) = self.program.clone() else {
            let batch: Vec<_> = metrics
                .iter()
                .map(|m| (m.clone(), Err(RequestError::NoProgram)))
                .collect();
            return vec![batch; foci.len()];
        };
        let (coverage, _max_cost, _epoch) = self.session_stamp();
        let tps = self.config.cost.ticks_per_second;
        let mgr = Arc::new(InstrumentationManager::new());
        let _mapping = self
            .mapping_installed()
            .then(|| MappingInstrumentation::install(&mgr));
        let guards: Vec<_> = foci.iter().map(|f| self.data.resolve_focus(f)).collect();
        let batch: Vec<_> = foci
            .iter()
            .zip(&guards)
            .flat_map(|(focus, guard)| metrics.iter().map(move |m| (m.as_str(), focus, guard)))
            .collect();
        let mut reqs = self.metrics.request_all(&mgr, &batch, tps).into_iter();
        let mut machine = Machine::new(self.config.clone(), self.ns.clone(), mgr, program)
            .expect("loaded program passed machine validation");
        machine.set_mapping_sink(self.data.clone());
        machine.run();
        let wall = machine.wall_clock() as f64 / tps;
        foci.iter()
            .map(|_| {
                metrics
                    .iter()
                    .map(|name| {
                        let r = reqs.next().expect("one request per (focus, metric)");
                        let out = r.map(|req| Measured {
                            value: req.value(&machine),
                            wall,
                            coverage,
                        });
                        (name.clone(), out)
                    })
                    .collect()
            })
            .collect()
    }

    /// [`Paradyn::run_experiment`] through the content-addressed
    /// measurement cache: an experiment the cache holds a batch for, at
    /// the same `(focus, program content-hash, coverage epoch)`, is
    /// answered from it (a hit). Otherwise one machine measures every
    /// metric in `batch` at the focus and fills the cache (a miss), and
    /// later experiments there share that run; concurrent calls for one
    /// focus may each run. A metric outside `batch` that the cache cannot
    /// answer is measured by an uncached run and counts nothing.
    pub fn experiment_cached(
        &self,
        exp: &Experiment,
        batch: &[String],
    ) -> Result<Measured, RequestError> {
        if self.program.is_none() {
            return Err(RequestError::NoProgram);
        }
        let (_, _, epoch) = self.session_stamp();
        let program = self.program_hash();
        let focus = exp.focus.to_string();
        if let Some(found) = self.mcache.get(&exp.metric, &focus, program, epoch) {
            return found;
        }
        let Some(at) = batch.iter().position(|m| *m == exp.metric) else {
            return self.run_experiment(exp);
        };
        let measured = Arc::new(self.run_experiment_batch(batch, &exp.focus));
        let found = measured[at].1.clone();
        self.mcache.fill(program, epoch, vec![(focus, measured, 1)]);
        found
    }

    /// Hit, miss and run counters of the measurement cache.
    pub fn measurement_cache_stats(&self) -> McacheStats {
        self.mcache.stats()
    }

    /// The measurement cache, for searches that fill it a run at a time.
    pub(crate) fn measurement_cache(&self) -> &MeasurementCache {
        &self.mcache
    }

    /// Drops every cached measurement and zeroes the counters (bench
    /// hygiene between repetitions).
    pub fn clear_measurement_cache(&self) {
        self.mcache.clear();
    }

    /// Runs a fresh machine while sampling the given requests.
    pub fn run_sampled(
        &self,
        requests: &[MetricRequest],
        every_steps: usize,
    ) -> Result<(Vec<Stream>, RunSummary, Machine), RequestError> {
        let mut m = match self.new_machine() {
            Ok(m) => m,
            Err(LoadError::NoProgram) => return Err(RequestError::NoProgram),
            Err(e) => panic!("loaded program failed machine validation: {e}"),
        };
        let (streams, summary) = run_sampled(&mut m, requests, every_steps);
        Ok((streams, summary, m))
    }

    /// Renders the current where axis (Figure 8).
    pub fn render_where_axis(&self) -> String {
        self.data.render_where_axis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tool() -> Paradyn {
        let mut t = Paradyn::new(MachineConfig {
            nodes: 4,
            ..MachineConfig::default()
        });
        t.load_source(cmf_lang::samples::FIGURE4).unwrap();
        t
    }

    #[test]
    fn load_and_measure_whole_program() {
        let t = tool();
        let (v, wall) = t.measure("Summations", &Focus::whole_program()).unwrap();
        assert_eq!(v, 4.0);
        assert!(wall > 0.0);
    }

    #[test]
    fn local_requests_are_stamped_with_complete_coverage() {
        let t = tool();
        let req = t.request("Summations", &Focus::whole_program()).unwrap();
        assert!(req.coverage.is_complete());
        assert_eq!(req.coverage.nodes_reporting, 4);
        assert_eq!(req.coverage.nodes_total, 4);
    }

    #[test]
    fn session_label_overrides_the_stamp() {
        let t = tool();
        let degraded = Coverage {
            nodes_reporting: 3,
            nodes_total: 4,
            samples_lost: 2,
        };
        t.set_session_coverage(Some(SessionCoverage {
            coverage: degraded,
            max_sample_cost: 1.5,
        }));
        let req = t.request("Summations", &Focus::whole_program()).unwrap();
        assert_eq!(req.coverage, degraded);
        assert_eq!(t.session_max_sample_cost(), 1.5);
        let (v, wall, cov) = t
            .measure_with_coverage("Summations", &Focus::whole_program())
            .unwrap();
        assert_eq!(v, 4.0);
        assert!(wall > 0.0);
        assert_eq!(cov, degraded);
        // Clearing the label restores single-process completeness.
        t.set_session_coverage(None);
        assert!(t.session_coverage().is_complete());
        assert_eq!(t.session_max_sample_cost(), 0.0);
    }

    #[test]
    fn array_constrained_measure_through_facade() {
        let t = tool();
        let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let (msgs_a, _) = t.measure("Point-to-Point Operations", &focus_a).unwrap();
        assert_eq!(msgs_a, 4.0, "messages during SUM(A)'s block only");
    }

    #[test]
    fn dynamic_mapping_builds_subregions_after_run() {
        let t = tool();
        let mut m = t.new_machine().unwrap();
        m.run();
        let axis = t.render_where_axis();
        assert!(axis.contains("sub#0"), "axis:\n{axis}");
        assert!(axis.contains("node#3"));
        assert_eq!(t.data().shard_stats(0).imports, 2, "A and B");
        // The next run re-announces both arrays and adds nothing.
        t.new_machine().unwrap().run();
        assert_eq!(t.render_where_axis(), axis);
        assert_eq!(t.data().shard_stats(0).imports, 2);
    }

    #[test]
    fn mapping_toggle_controls_sas_feed() {
        let mut t = tool();
        t.set_mapping_instrumentation(false);
        let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let (v, _) = t.measure("Summations", &focus_a).unwrap();
        assert_eq!(v, 0.0, "no SAS feed, no attribution");
        t.set_mapping_instrumentation(true);
        let (v, _) = t.measure("Summations", &focus_a).unwrap();
        assert_eq!(v, 4.0);
    }

    #[test]
    fn sampled_run_produces_streams() {
        let t = tool();
        let reqs = vec![t.request("Broadcasts", &Focus::whole_program()).unwrap()];
        let (streams, summary, _m) = t.run_sampled(&reqs, 1).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].last_value(), summary.broadcasts as f64);
    }

    #[test]
    fn unloaded_tool_errors_instead_of_panicking() {
        let t = Paradyn::new(MachineConfig::default());
        assert!(matches!(
            t.measure("Summations", &Focus::whole_program()),
            Err(RequestError::NoProgram)
        ));
        assert!(matches!(
            t.measure_with_coverage("Summations", &Focus::whole_program()),
            Err(RequestError::NoProgram)
        ));
        assert!(matches!(
            t.run_sampled(&[], 1),
            Err(RequestError::NoProgram)
        ));
        assert!(matches!(t.new_machine(), Err(LoadError::NoProgram)));
        assert!(matches!(
            t.experiment_cached(
                &Experiment {
                    metric: "Summations".into(),
                    focus: Focus::whole_program(),
                },
                &["Summations".to_string()],
            ),
            Err(RequestError::NoProgram)
        ));
    }

    #[test]
    fn batched_experiment_matches_single_metric_runs() {
        let t = tool();
        let metrics = ["Summations".to_string(), "Broadcasts".to_string()];
        let batch = t.run_experiment_batch(&metrics, &Focus::whole_program());
        assert_eq!(batch.len(), 2);
        for (name, r) in &batch {
            let single = t
                .run_experiment(&Experiment {
                    metric: name.clone(),
                    focus: Focus::whole_program(),
                })
                .unwrap();
            let batched = r.as_ref().unwrap();
            assert_eq!(batched.value, single.value, "{name}");
            assert_eq!(batched.wall, single.wall, "{name}");
        }
    }

    #[test]
    fn cached_experiments_share_one_run_until_the_epoch_bumps() {
        let t = tool();
        t.clear_measurement_cache();
        let metrics: Vec<String> = vec!["Summations".into(), "Broadcasts".into()];
        let exp = |m: &str| Experiment {
            metric: m.into(),
            focus: Focus::whole_program(),
        };
        let a = t.experiment_cached(&exp("Summations"), &metrics).unwrap();
        let b = t.experiment_cached(&exp("Broadcasts"), &metrics).unwrap();
        assert_eq!(a.value, 4.0);
        assert!(b.wall > 0.0);
        let st = t.measurement_cache_stats();
        assert_eq!((st.hits, st.misses), (1, 1), "second metric was a hit");
        // A metric outside `metrics` runs uncached and counts nothing.
        let p2p = t.experiment_cached(&exp("Point-to-Point Operations"), &metrics);
        assert!(p2p.is_ok());
        assert_eq!(t.measurement_cache_stats(), st, "no hit or miss counted");
        // A coverage change invalidates the batch: next lookup re-measures.
        t.set_session_coverage(Some(SessionCoverage {
            coverage: Coverage {
                nodes_reporting: 3,
                nodes_total: 4,
                samples_lost: 1,
            },
            max_sample_cost: 2.0,
        }));
        let c = t.experiment_cached(&exp("Summations"), &metrics).unwrap();
        assert_eq!(c.coverage.nodes_reporting, 3, "fresh stamp, not stale");
        let st = t.measurement_cache_stats();
        assert_eq!((st.hits, st.misses), (1, 2), "epoch bump forced a miss");
    }

    #[test]
    fn compile_errors_surface() {
        let mut t = Paradyn::new(MachineConfig::default());
        let e = t.load_source("PROGRAM P\nX = NOPE(1)\nEND\n").unwrap_err();
        assert!(matches!(e, LoadError::Compile(_)));
    }
}
