//! # overlay — a RON-style overlay routing node
//!
//! A from-scratch implementation of the overlay system the paper's
//! measurement study runs on (§3): every node probes every other node,
//! keeps per-path loss windows and latency estimates, disseminates its
//! direct-path metrics to peers (piggybacked on probe packets), and
//! routes packets either directly or through **at most one intermediate
//! node** — the RON design point.
//!
//! The node core is *sans-io*: [`node::OverlayNode`] is a deterministic
//! state machine driven by three inputs — packets, timer expiries, and
//! route queries — that emits packets to transmit. The same core runs
//! on the discrete-event simulator (`mpath-core` experiments) and on real
//! UDP sockets (`mpath-live`), so measured behaviour and deployable
//! behaviour cannot drift apart.
//!
//! Module map:
//! * [`peers`] — the set of hosts a node peers with, and the slot
//!   indexing every piece of per-peer state shares;
//! * [`wire`] — the packet format and its binary codec;
//! * [`stats`] — per-path loss windows (the paper's "average loss rate
//!   over the last 100 probes") and latency EWMAs;
//! * [`table`] — the link-state table and route selection policies
//!   (direct, minimum-loss, minimum-latency, random intermediate);
//! * [`prober`] — the 15-second prober with loss-triggered fast probe
//!   chains (up to four, one second apart);
//! * [`dissem`] — how metrics reach the mesh: full snapshots on every
//!   probe (the default) or sequence-numbered delta LSAs;
//! * [`node`] — the assembled overlay node.

#![warn(missing_docs)]

pub mod dissem;
pub mod node;
pub mod peers;
pub mod prober;
pub mod stats;
pub mod table;
pub mod wire;

pub use dissem::{DisseminationMode, Disseminator};
pub use node::{Delivered, NodeConfig, OverlayNode, Transmit};
pub use peers::PeerSet;
pub use prober::{ProbeSend, Prober, ProberConfig};
pub use stats::{LossWindow, PathStats};
pub use table::{LinkStateTable, Policy, RemoteMetric, Route};
pub use wire::{MeasureKind, MetricEntry, Packet, RouteTag, WireError, MAX_PROBE_LEGS};
