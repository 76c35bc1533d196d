//! # trace — probe records and the central collector
//!
//! The paper's measurement pipeline (§4.1): every probe has a random
//! 64-bit identifier; hosts log send and receive events with local
//! (possibly skewed) clocks; logs are pushed to a central machine that
//! pairs sends with receives, applies a receive window, and discards
//! samples affected by *host* failures (a host that stops sending probes
//! for more than 90 seconds is considered crashed, and losses toward it
//! are not network losses).
//!
//! [`collect::Collector`] is the streaming reimplementation of that
//! post-processing: experiments feed it send/receive events in time
//! order and drain finalized [`record::PairOutcome`]s.

#![warn(missing_docs)]

pub mod collect;
pub mod record;

pub use collect::{Collector, CollectorConfig, CollectorStats};
pub use record::{LegOutcome, PairOutcome, RecvEvent, SendEvent};
