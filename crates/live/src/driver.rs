//! The live driver: one thread per overlay node, blocking UDP.
//!
//! The thread owns the receive side of a `UdpSocket` and translates
//! between it and an [`overlay::OverlayNode`]: datagrams decode into
//! packets for `on_packet`, and emitted [`Transmit`]s are encoded and
//! sent (through the impairment layer). Application deliveries stream
//! out of a bounded channel. Three rules carry the design:
//!
//! * **The deadline is the read timeout.** The thread blocks in
//!   `recv_from` until the next thing it owes — the node's `poll_at` or
//!   the head of the heap of impairment-delayed datagrams. The kernel
//!   rounds a socket timeout up to its scheduler tick, so what is owed
//!   goes out a tick or two late (4–8 ms at HZ=250); arrivals never wait.
//! * **One lock.** Node, impairment RNG, delayed heap and the send side
//!   of the socket sit behind one mutex, so [`LiveNode::route`] and
//!   [`LiveNode::snapshot`] read the node directly and
//!   [`LiveNode::send_data`] sends from the caller's thread.
//! * **Self-poke.** Whatever moves the thread's deadline earlier (a
//!   delayed datagram queued by `send_data`, shutdown) sends an empty
//!   datagram to the node's own socket; it fails to decode, so the loop
//!   merely recomputes its deadline.

use crate::impair::Impairment;
use netsim::{HostId, Rng, SimTime};
use overlay::wire::MAX_METRICS;
use overlay::{Delivered, DisseminationMode, NodeConfig, OverlayNode, Packet, Policy, Transmit};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One row of [`LiveNode::snapshot`]: peer, loss estimate, smoothed
/// one-way latency in microseconds (if measured), and the dead flag.
pub type SnapshotRow = (HostId, f64, Option<f64>, bool);

/// Configuration of one live node.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// This node's overlay id.
    pub me: HostId,
    /// Overlay addresses indexed by `HostId` (including our own slot).
    pub peers: Vec<SocketAddr>,
    /// Overlay node parameters (probe intervals scale down for demos).
    pub node: NodeConfig,
    /// Outbound impairment.
    pub impair: Impairment,
    /// RNG seed (impairment decisions).
    pub seed: u64,
}

/// An application-level event from the node.
#[derive(Debug, Clone, PartialEq)]
pub enum LiveEvent {
    /// Data arrived for the local application.
    Data {
        /// Origin node.
        from: HostId,
        /// Stream id.
        stream: u32,
        /// Sequence number.
        seq: u32,
        /// Payload size.
        len: usize,
    },
    /// A measurement leg arrived (used by demo accounting).
    Measure {
        /// Probe id.
        id: u64,
        /// Origin node.
        from: HostId,
    },
}

/// What [`LiveNode::counters`] reports: the node's own counters (the
/// ones a simulated node has) and what the driver refused or dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCounters {
    /// Overlay probes sent.
    pub probes_sent: u64,
    /// Overlay probes that timed out.
    pub probes_lost: u64,
    /// Packets relayed for other nodes.
    pub forwarded: u64,
    /// Datagrams that were not exactly one [`Packet`] (pokes included).
    pub undecodable: u64,
    /// Packets dropped for naming a host outside the mesh.
    pub unknown_host: u64,
    /// Probe and link-state packets from hosts inside the mesh that are
    /// not this node's peers (requests answered, nothing stored).
    pub non_peer: u64,
    /// Application events dropped because nobody drained the channel.
    pub events_dropped: u64,
}

/// Application events buffered for a slow [`LiveNode::take_events`] reader.
const EVENT_SLOTS: usize = 4096;

/// An impairment-delayed datagram: due instant, destination, bytes.
type Delayed = Reverse<(Instant, SocketAddr, Vec<u8>)>;

/// Everything the node thread and the handle's callers share.
struct Shared {
    node: OverlayNode,
    /// Send side of the socket; `None` once shut down, which is also
    /// how the node thread learns it must exit.
    socket: Option<UdpSocket>,
    peers: Vec<SocketAddr>,
    impair: Impairment,
    rng: Rng,
    delayed: BinaryHeap<Delayed>,
    out: Vec<Transmit>,
    start: Instant,
    undecodable: u64,
    events_dropped: u64,
}

/// Handle to a running live overlay node.
pub struct LiveNode {
    me: HostId,
    addr: SocketAddr,
    shared: Arc<Mutex<Shared>>,
    events: Mutex<Option<Receiver<LiveEvent>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl LiveNode {
    /// Spawns the node's thread on an already bound socket. A node has
    /// at most [`MAX_METRICS`] other peers: one full snapshot must fit
    /// in a probe.
    pub fn spawn(socket: UdpSocket, cfg: LiveConfig) -> io::Result<Arc<LiveNode>> {
        if cfg.me.idx() >= cfg.peers.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "`me` has no slot in `peers`"));
        }
        let others = cfg.peers.len() - 1;
        if others > MAX_METRICS {
            let msg = format!("{others} peers besides `me`; a probe carries at most {MAX_METRICS}");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        let addr = socket.local_addr()?;
        let recv_side = socket.try_clone()?;
        let (event_tx, event_rx) = sync_channel(EVENT_SLOTS);
        let shared = Arc::new(Mutex::new(Shared {
            node: OverlayNode::new_with_dissemination(
                cfg.me,
                cfg.peers.len(),
                cfg.node,
                cfg.seed,
                SimTime::ZERO,
                DisseminationMode::FullSnapshot,
            ),
            socket: Some(socket),
            peers: cfg.peers,
            impair: cfg.impair,
            rng: Rng::new(cfg.seed ^ 0x11FE),
            delayed: BinaryHeap::new(),
            out: Vec::new(),
            start: Instant::now(),
            undecodable: 0,
            events_dropped: 0,
        }));
        let thread = thread::Builder::new().name(format!("mpath-live-{}", cfg.me.0)).spawn({
            let shared = shared.clone();
            move || node_loop(&recv_side, &shared, &event_tx)
        })?;
        Ok(Arc::new(LiveNode {
            me: cfg.me,
            addr,
            shared,
            events: Mutex::new(Some(event_rx)),
            thread: Mutex::new(Some(thread)),
        }))
    }

    /// This node's overlay id.
    pub fn id(&self) -> HostId {
        self.me
    }

    /// The node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Takes the application event receiver (callable once).
    pub fn take_events(&self) -> Option<Receiver<LiveEvent>> {
        self.events.lock().expect("`take` cannot poison").take()
    }

    /// Sends application data toward `dst` under a routing policy.
    /// `false` if the node is shut down or `dst` is not in the mesh.
    pub fn send_data(
        &self,
        dst: HostId,
        stream: u32,
        seq: u32,
        payload: Vec<u8>,
        policy: Policy,
    ) -> bool {
        let mut s = self.lock();
        if s.socket.is_none() || dst.idx() >= s.peers.len() {
            return false;
        }
        let owed = s.deadline();
        let now = s.now_sim();
        let route = s.node.route(dst, policy, now);
        let pkt = Packet::Data { origin: self.me, target: dst, stream, seq, payload };
        let tx = s.node.wrap(route, dst, pkt);
        s.out.push(tx);
        s.flush();
        // A datagram delayed to before what the thread is sleeping
        // toward: wake it so it recomputes its read timeout.
        if s.deadline().is_some_and(|d| owed.is_none_or(|o| d < o)) {
            if let Some(socket) = &s.socket {
                poke(socket, self.addr);
            }
        }
        true
    }

    /// Asks the node for its current route to `dst`.
    pub fn route(&self, dst: HostId, policy: Policy) -> Option<overlay::Route> {
        let mut s = self.lock();
        if s.socket.is_none() || dst.idx() >= s.peers.len() {
            return None;
        }
        let now = s.now_sim();
        Some(s.node.route(dst, policy, now))
    }

    /// Per-peer (loss estimate, latency µs, dead) snapshot.
    pub fn snapshot(&self) -> Option<Vec<SnapshotRow>> {
        let s = self.lock();
        s.socket.as_ref()?;
        let rows = (0..s.peers.len() as u16).filter(|&j| j != self.me.0).map(|j| {
            let d = s.node.table().direct(HostId(j));
            (HostId(j), d.loss_rate(), d.latency_us(), d.is_dead())
        });
        Some(rows.collect())
    }

    /// The node's counters; still readable after shutdown.
    pub fn counters(&self) -> LiveCounters {
        let s = self.lock();
        let (probes_sent, probes_lost, forwarded) = s.node.counters();
        LiveCounters {
            probes_sent,
            probes_lost,
            forwarded,
            undecodable: s.undecodable,
            unknown_host: s.node.unknown_host_drops(),
            non_peer: s.node.non_peer_drops(),
            events_dropped: s.events_dropped,
        }
    }

    /// Stops the node. When this returns the thread is joined and the
    /// port is free to bind again; further calls do nothing.
    pub fn shutdown(&self) {
        // Held across the join, so a concurrent second caller also
        // returns only once the thread is gone. Runs from `Drop`: a
        // poisoned lock is entered, never a panic.
        let mut thread = self.thread.lock().unwrap_or_else(PoisonError::into_inner);
        let socket = self.shared.lock().unwrap_or_else(PoisonError::into_inner).socket.take();
        if let Some(socket) = &socket {
            poke(socket, self.addr);
        }
        if let Some(thread) = thread.take() {
            if thread.join().is_err() {
                eprintln!("mpath-live: node {} thread panicked", self.me.0);
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("node thread panicked")
    }
}

impl Drop for LiveNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wakes the thread blocked on the socket bound to `addr` with an
/// empty datagram; a wildcard bind is reached over loopback.
fn poke(socket: &UdpSocket, mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = socket.send_to(&[], addr);
}

fn unix_micros() -> i64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as i64).unwrap_or(0)
}

impl Shared {
    fn now_sim(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// The earliest instant the node thread owes work at.
    fn deadline(&self) -> Option<Instant> {
        let timer = self.node.poll_at().map(|t| self.start + Duration::from_micros(t.as_micros()));
        let delayed = self.delayed.peek().map(|Reverse((due, ..))| *due);
        [timer, delayed].into_iter().flatten().min()
    }

    /// Runs whatever is due: the node's timer, then delayed datagrams.
    fn run_due(&mut self) {
        let now = self.now_sim();
        if self.node.poll_at().is_some_and(|t| t <= now) {
            self.node.on_timer(now, unix_micros(), &mut self.out);
            self.flush();
        }
        let Some(socket) = &self.socket else { return };
        let now = Instant::now();
        while self.delayed.peek().is_some_and(|Reverse((due, ..))| *due <= now) {
            if let Some(Reverse((_, to, data))) = self.delayed.pop() {
                let _ = socket.send_to(&data, to);
            }
        }
    }

    /// Passes pending transmissions through the impairment layer: sent
    /// now, queued on the delayed heap, or dropped.
    fn flush(&mut self) {
        let Some(socket) = &self.socket else {
            return self.out.clear();
        };
        for tx in self.out.drain(..) {
            let Some(delay) = self.impair.judge(&mut self.rng) else {
                continue;
            };
            let Some(&to) = self.peers.get(tx.to.idx()) else {
                continue;
            };
            let data = tx.packet.encode();
            if delay.is_zero() {
                let _ = socket.send_to(&data, to);
            } else {
                self.delayed.push(Reverse((Instant::now() + delay, to, data)));
            }
        }
    }

    fn on_datagram(&mut self, datagram: &[u8], events: &SyncSender<LiveEvent>) {
        let Ok(packet) = Packet::decode(datagram) else {
            self.undecodable += 1;
            return;
        };
        let now = self.now_sim();
        let delivered = self.node.on_packet(now, unix_micros(), packet, &mut self.out);
        self.flush();
        let event = match delivered {
            Some(Delivered::Data { origin, stream, seq, len }) => {
                LiveEvent::Data { from: origin, stream, seq, len }
            }
            Some(Delivered::Measure { id, origin, .. }) => LiveEvent::Measure { id, from: origin },
            None => return,
        };
        if let Err(TrySendError::Full(_)) = events.try_send(event) {
            self.events_dropped += 1;
        }
    }
}

fn node_loop(socket: &UdpSocket, shared: &Mutex<Shared>, events: &SyncSender<LiveEvent>) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut received = None;
    loop {
        let wait = {
            let mut s = shared.lock().expect("a caller panicked holding the node lock");
            if s.socket.is_none() {
                // Shut down: returning drops this thread's handle on
                // the socket; `shutdown` holds the only other one.
                return;
            }
            if let Some(len) = received.take() {
                s.on_datagram(&buf[..len], events);
            }
            s.run_due();
            s.deadline().map(|d| d.saturating_duration_since(Instant::now()))
        };
        if wait.is_some_and(|w| w.is_zero()) {
            continue;
        }
        // Nonzero, the one value this call refuses.
        let _ = socket.set_read_timeout(wait);
        // An error is the timeout or transient (Linux reports a killed
        // peer's ICMP `ConnectionRefused` here): recompute and go on.
        received = socket.recv_from(&mut buf).ok().map(|(len, _from)| len);
    }
}
