//! # mpath-live — running the overlay on real sockets
//!
//! The discrete-event experiments prove the routing logic; this crate
//! proves it *deploys*. The exact same [`overlay::OverlayNode`] state
//! machine is driven here by one `std::thread` per node over a blocking
//! UDP socket: packets are encoded with the wire codec, the node's next
//! timer is the socket's read timeout, and the node's emitted
//! [`overlay::Transmit`]s go out through an optional impairment layer
//! (random loss + delay) so localhost demos exhibit testbed-like
//! behaviour. It is the I/O model `mpath-core`'s campaign wire uses;
//! the repository has no other.
//!
//! Structure follows the structured-concurrency discipline: a
//! [`driver::LiveNode`] owns its socket thread; dropping the handle (or
//! calling [`driver::LiveNode::shutdown`]) joins it and frees the port;
//! nothing outlives the cluster that spawned it.

#![warn(missing_docs)]

pub mod cluster;
pub mod driver;
pub mod impair;

pub use cluster::{run_mesh_demo, Cluster, DemoReport};
pub use driver::{LiveConfig, LiveCounters, LiveEvent, LiveNode, SnapshotRow};
pub use impair::Impairment;
