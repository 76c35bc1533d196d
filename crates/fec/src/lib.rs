//! # fec — packet-level forward error correction
//!
//! §5.2 of the paper analyses how FEC interacts with bursty, correlated
//! packet loss: "Reed-Solomon erasure codes are a standard FEC method …
//! If the first packet in a packet train is lost, the high conditional
//! loss probability tells us that there is a 70% chance that the second
//! packet will also be lost — so to avoid this, the FEC information must
//! be spread out by nearly half a second if sending packets down the same
//! path."
//!
//! This crate supplies the erasure code that analysis rests on:
//!
//! * [`gf256`] — arithmetic in GF(2⁸) (polynomial 0x11D);
//! * [`rs`] — a systematic Reed–Solomon erasure code built from a Cauchy
//!   matrix (any k of the k+r shards reconstruct the group).
//!
//! The interleaved sweep over a bursty path lives in `mpath_bench::fecx`.

#![warn(missing_docs)]

pub mod gf256;
pub mod rs;

pub use rs::{ErasureCode, FecError};
