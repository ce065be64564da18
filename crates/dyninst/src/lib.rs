//! # dyninst-sim — simulated dynamic instrumentation
//!
//! A software stand-in for Paradyn's dynamic instrumentation (Hollingsworth,
//! Miller & Cargille, SHPCC'94; paper §4.1): named **points** the substrate
//! executes, **predicates** guarding snippet bodies, and **primitives**
//! (counters, process/wall timers). Tools insert and delete snippets while
//! the application runs; an uninstrumented point costs almost nothing —
//! the property the paper's perturbation argument rests on.
//!
//! The real system patches SPARC machine code in a running process. Here the
//! substrate (the `cmrts-sim` CM-5 simulator, or any other) calls
//! [`InstrumentationManager::execute`] at each point with an [`ExecCtx`]
//! carrying its clocks, subject sentence, payload, and per-node SAS; the
//! behavioural contract — instrument only what is requested, only while it
//! is requested — is the same.
//!
//! The [`mdl`] module implements the Metric Description Language (§6.3),
//! and [`metrics`] turns parsed declarations into live snippets on request.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod manager;
pub mod mdl;
pub mod metrics;
pub mod point;
pub mod primitive;
pub mod snippet;

pub use manager::{InstrumentationManager, ManagerStats, SnippetHandle};
pub use mdl::{parse_mdl, MdlError, MdlFile, MetricDecl};
pub use metrics::{instantiate, instantiate_all, MetricInstance, MetricPrimitive};
pub use point::{PointId, PointRegistry};
pub use primitive::{CounterId, PrimitiveStore, TimerId};
pub use snippet::{run_snippet, ExecCtx, Op, Pred, SentenceArg, Snippet};
