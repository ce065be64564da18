//! # paradyn-tool — the measurement tool of the paper's case study
//!
//! An in-process reproduction of the Paradyn pieces Sections 5-6 use:
//!
//! * [`datamgr`] — the Data Manager: PIF import (static mapping
//!   information), the dynamic-mapping sink fed by the run-time system,
//!   the where axis (Figure 8), and focus→predicate resolution;
//! * [`catalogue`] — the complete Figure 9 metric catalogue written in MDL;
//! * [`metrics`] — the Metric Manager: request-time instantiation of MDL
//!   metrics with focus constraints, and the removable mapping
//!   instrumentation that feeds the per-node SAS;
//! * [`stream`] / [`visi`] — sampled metric streams and the ASCII
//!   time-plot / bar-chart / table display modules;
//! * [`consultant`] — the Performance Consultant's why/where search;
//! * [`daemon`] — the §5 wire protocol between the application-linked
//!   instrumentation library and the tool, and the [`LinkLedger`] every
//!   parent (the tool or a relay) keeps per child link;
//! * [`daemonset`] — the §4.2.3 multi-daemon session: N TCP links, clock
//!   alignment, and one merged sample stream over the sharded manager;
//! * [`tool`] — the [`Paradyn`] facade tying it together.
//!
//! ```
//! use paradyn_tool::tool::Paradyn;
//! use pdmap::hierarchy::Focus;
//!
//! let mut tool = Paradyn::new(cmrts_sim::MachineConfig {
//!     nodes: 4,
//!     ..cmrts_sim::MachineConfig::default()
//! });
//! tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
//! let focus_a = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
//! let (msgs, _wall) = tool.measure("Point-to-Point Operations", &focus_a).unwrap();
//! assert_eq!(msgs, 4.0); // the messages sent for summations of A
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalogue;
pub mod consultant;
pub mod daemon;
pub mod daemonset;
pub mod datamgr;
pub mod mcache;
pub mod metrics;
pub mod report;
pub mod selfmap;
pub mod stream;
pub mod tool;
pub mod visi;

pub use catalogue::{figure9_catalogue, FIGURE9_MDL};
pub use consultant::{
    audit, render as render_search, search, search_parallel, ConsultantConfig, ExperimentNode,
    Verdict,
};
pub use daemon::{ClockEstimate, DaemonError, DaemonMsg, InstrLibEndpoint, LinkLedger};
pub use daemonset::{
    AlignedSample, ClockSyncError, Coverage, DaemonConn, DaemonHealth, DaemonSet, DialFn,
    FleetHealth, FleetPerturbation, Labelled, Merged, MergedStreams, NodeHealth, ReconnectFn,
    RecoveryReport, RecoverySummary, ReparentReport, SessionCoverage, SupervisorPolicy,
};
pub use datamgr::{DataManager, FocusError, PifImportError, ShardStats};
pub use mcache::{McacheStats, Measured, MeasurementCache};
pub use metrics::{MappingInstrumentation, MetricManager, MetricRequest, RequestError};
pub use report::{profile, run_report, Profile};
pub use selfmap::{
    ask_obs, counter_catalogue, export_counters, export_obs, export_shard_obs, obs_catalogue,
    obs_sentences, shard_obs_catalogue, TOOL_COUNTERS,
};
pub use stream::{run_sampled, run_sampled_adaptive, Stream};
pub use tool::{Experiment, LoadError, Paradyn};
