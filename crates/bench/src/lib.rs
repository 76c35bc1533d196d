//! What the `repro` binary needs beyond the library crates: the paper's
//! reference values and the §5.2 FEC experiment.

#![warn(missing_docs)]

pub mod fecx;
pub mod paper;

pub use fecx::{fec_sweep, FecPoint, FecSweepConfig};
