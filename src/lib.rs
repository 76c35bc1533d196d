//! # mpath — best-path vs. multi-path overlay routing
//!
//! Facade crate re-exporting the full toolkit. See the individual crates
//! for details:
//!
//! * [`netsim`] — deterministic discrete-event Internet simulator;
//! * [`overlay`] — RON-style overlay node (probing, link state, routing);
//! * [`core`] — routing strategies, the measurement-study
//!   experiment driver, and the §5 analytic model;
//! * [`trace`] — probe records and the central collector;
//! * [`analysis`] — loss/latency statistics, CDFs and table renderers;
//! * [`live`] — std-thread UDP driver for real deployments.

pub use analysis;
pub use mpath_core as core;
pub use mpath_live as live;
pub use netsim;
pub use overlay;
pub use trace;
