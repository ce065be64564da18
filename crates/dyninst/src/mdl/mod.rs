//! The Metric Description Language (paper §6.3).
//!
//! "Paradyn's dynamic instrumentation system includes a language for
//! describing how to measure new metrics. This language (called Metric
//! Description Language, or MDL) allows users to precisely specify when to
//! turn on/off process-clock timers and wall-clock timers and when to
//! increment and decrement counters. Paradyn compiles the descriptions into
//! code that is inserted into running applications at precisely the moment
//! when the particular metric is requested."
//!
//! Pipeline: [`lex()`] → [`parse_mdl`] → [`MetricDecl`] → instantiation
//! into snippets by [`crate::metrics::instantiate`] at request time.

pub mod ast;
pub mod lex;
pub mod parse;

pub use ast::{MdlAction, MdlAgg, MdlFile, MdlUnit, MetricDecl, PointActions};
pub use lex::{lex, LexError, Token, TokenKind};
pub use parse::{parse_mdl, MdlError};
