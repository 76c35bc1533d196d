//! # netsim — deterministic discrete-event Internet path simulator
//!
//! This crate is the testbed substitute for the RON measurement study in
//! *Best-Path vs. Multi-Path Overlay Routing* (Andersen, Snoeren,
//! Balakrishnan; IMC 2003). It models a set of Internet hosts joined by
//! one-way paths, where each path is a chain of *segments* (source access
//! link, a core segment, destination access link). Segments carry:
//!
//! * a **congestion process** — a lazily-advanced Gilbert–Elliott chain
//!   with hyper-exponential burst durations, producing the bursty,
//!   short-timescale loss correlation that drives the paper's
//!   conditional-loss-probability results;
//! * an **outage process** — an on/off renewal process with heavy-tailed
//!   minute-scale downtimes, producing path failures;
//! * a **latency model** — geographic propagation plus lognormal jitter,
//!   congestion-coupled queueing delay and scripted pathological episodes
//!   (e.g. the paper's Cornell incident).
//!
//! Two overlay paths between the same pair of hosts *share* the edge
//! segments, which is what makes losses on "independent" paths correlated,
//! the paper's central observation.
//!
//! Everything is deterministic given a seed: the same run configuration
//! always produces the same packet-by-packet trace.
//!
//! The simulator knows nothing about overlays or probes; it only answers
//! "a packet enters the network at host A headed for host B at time T —
//! when does it arrive, if at all?". Higher layers (the `overlay` and
//! `mpath-core` crates) build the routing machinery on top.

#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod latency;
pub mod load;
pub mod loss;
pub mod net;
pub mod outage;
pub mod rng;
pub mod segment;
pub mod stress;
pub mod time;
pub mod topology;

pub use clock::ClockModel;
pub use event::EventQueue;
pub use latency::{Episode, LatencyModel};
pub use load::LoadProfile;
pub use loss::{GeParams, GilbertElliott};
pub use net::{Delivery, NetCounters, Network};
pub use outage::{OutageParams, OutageProcess};
pub use rng::Rng;
pub use segment::{DropCause, Segment, SegmentId, SegmentSpec, Transit};
pub use stress::{
    apply_flash_crowds, apply_load_wave, apply_shared_risk, AsymmetrySpec, FlashCrowdSpec,
    LoadWaveSpec, SharedRiskSpec,
};
pub use time::{SimDuration, SimTime};
pub use topology::{
    sparse_mesh, HostClass, HostId, HostInfo, Topology, TopologyParams, MAX_HOSTS,
};
