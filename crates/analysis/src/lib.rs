//! # analysis — turning probe outcomes into the paper's tables and figures
//!
//! Everything is *streaming*: accumulators ingest
//! [`trace::PairOutcome`]s one at a time and keep only per-path counters
//! and histograms, so a full two-week, 30-host run (tens of millions of
//! samples) fits in a few megabytes.
//!
//! * [`loss`] — per-(path, method) loss and latency counters; produces
//!   the 1lp/2lp/totlp/clp/lat columns of Tables 5 and 7 and the
//!   per-path series behind Figures 2, 4 and 5;
//! * [`windows`] — fixed-width time windows per (path, method); produces
//!   the 20-minute loss-rate distribution (Figure 3) and the hour-long
//!   high-loss-period counts (Table 6);
//! * [`pairs`] — the measured (src, dst) pairs and the row numbering
//!   both accumulators lay their per-pair state out by: n·k rows for a
//!   k-regular probe mesh, the historical n² for the clique;
//! * [`cdf`] — empirical distribution functions;
//! * [`latency`] — clock-skew correction by forward/reverse averaging
//!   (§4.1);
//! * [`tables`] / [`figures`] — plain-text renderers that print the same
//!   rows and series the paper reports.

#![warn(missing_docs)]

pub mod cdf;
pub mod figures;
pub mod fingerprint;
pub mod latency;
pub mod loss;
pub mod pairs;
pub mod tables;
pub mod windows;

pub use cdf::{Cdf, Histogram, WireVersion};
pub use fingerprint::Fnv;
pub use figures::{Figure, Series};
pub use loss::{LossAccum, LossShape, MethodSummary};
pub use pairs::PairIndex;
pub use tables::{
    render_table5, render_table6, render_table7, scenario_stamp, Table5Row, Table6, Table7Row,
};
pub use windows::{WindowAccum, WindowShape};
