//! The tokio driver: one task per overlay node.
//!
//! The driver owns a `UdpSocket` and an [`overlay::OverlayNode`] and
//! translates between them: datagrams decode into packets for
//! `on_packet`, the node's `poll_at` maps to `sleep_until`, and emitted
//! [`Transmit`]s are encoded and sent (through the impairment layer).
//! Application deliveries stream out of an mpsc channel.

use crate::impair::Impairment;
use bytes::Bytes;
use netsim::{HostId, Rng, SimTime};
use overlay::{
    Delivered, DisseminationMode, NodeConfig, OverlayNode, Packet, Policy, Transmit,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use tokio::net::UdpSocket;
use tokio::sync::{mpsc, oneshot, Notify};
use tokio::time::{Duration, Instant};

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

enum Command {
    SendData { dst: HostId, stream: u32, seq: u32, payload: Bytes, policy: Policy },
    QueryRoute { dst: HostId, policy: Policy, resp: oneshot::Sender<overlay::Route> },
    Snapshot { resp: oneshot::Sender<Vec<SnapshotRow>> },
}

/// Handle to a running live overlay node.
pub struct LiveNode {
    me: HostId,
    addr: SocketAddr,
    cmd_tx: mpsc::Sender<Command>,
    events: Mutex<Option<mpsc::Receiver<LiveEvent>>>,
    shutdown: Arc<Notify>,
    task: Mutex<Option<tokio::task::JoinHandle<()>>>,
}

impl LiveNode {
    /// Binds a socket and spawns the node's event loop.
    pub async fn spawn(cfg: LiveConfig) -> std::io::Result<Arc<LiveNode>> {
        let me = cfg.me;
        let bind = cfg.peers[cfg.me.idx()];
        let socket = UdpSocket::bind(bind).await?;
        let addr = socket.local_addr()?;
        let (cmd_tx, cmd_rx) = mpsc::channel(256);
        let (event_tx, event_rx) = mpsc::channel(4096);
        let shutdown = Arc::new(Notify::new());
        let task = tokio::spawn(node_loop(cfg, socket, cmd_rx, event_tx, shutdown.clone()));
        Ok(Arc::new(LiveNode {
            me,
            addr,
            cmd_tx,
            events: Mutex::new(Some(event_rx)),
            shutdown,
            task: Mutex::new(Some(task)),
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
    pub fn take_events(&self) -> Option<mpsc::Receiver<LiveEvent>> {
        self.events.lock().expect("`take` cannot poison").take()
    }

    /// Sends application data toward `dst` under a routing policy.
    pub async fn send_data(
        &self,
        dst: HostId,
        stream: u32,
        seq: u32,
        payload: Bytes,
        policy: Policy,
    ) -> bool {
        self.cmd_tx
            .send(Command::SendData { dst, stream, seq, payload, policy })
            .await
            .is_ok()
    }

    /// Asks the node for its current route to `dst`.
    pub async fn route(&self, dst: HostId, policy: Policy) -> Option<overlay::Route> {
        let (tx, rx) = oneshot::channel();
        self.cmd_tx.send(Command::QueryRoute { dst, policy, resp: tx }).await.ok()?;
        rx.await.ok()
    }

    /// Per-peer (loss estimate, latency µs, dead) snapshot.
    pub async fn snapshot(&self) -> Option<Vec<SnapshotRow>> {
        let (tx, rx) = oneshot::channel();
        self.cmd_tx.send(Command::Snapshot { resp: tx }).await.ok()?;
        rx.await.ok()
    }

    /// Stops the node's task and waits for it to exit.
    pub async fn shutdown(&self) {
        self.shutdown.notify_waiters();
        let task = self.task.lock().expect("`take` cannot poison").take();
        if let Some(task) = task {
            let _ = task.await;
        }
    }
}

fn unix_micros() -> i64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as i64)
        .unwrap_or(0)
}

async fn node_loop(
    cfg: LiveConfig,
    socket: UdpSocket,
    mut cmd_rx: mpsc::Receiver<Command>,
    event_tx: mpsc::Sender<LiveEvent>,
    shutdown: Arc<Notify>,
) {
    let start = Instant::now();
    let now_sim = |at: Instant| SimTime::from_micros(at.duration_since(start).as_micros() as u64);
    let mut node = OverlayNode::new_with_dissemination(
        cfg.me,
        cfg.peers.len(),
        cfg.node,
        cfg.seed,
        SimTime::ZERO,
        DisseminationMode::FullSnapshot,
    );
    let mut rng = Rng::new(cfg.seed ^ 0x11FE);
    // Address book: HostId index → socket address.
    let addr_of: Vec<SocketAddr> = cfg.peers.clone();
    let socket = Arc::new(socket);
    let mut buf = vec![0u8; 64 * 1024];
    let mut out: Vec<Transmit> = Vec::new();

    loop {
        // Flush pending transmissions through the impairment layer.
        for tx in out.drain(..) {
            let Some(delay) = cfg.impair.judge(&mut rng) else { continue };
            let data = tx.packet.encode();
            let target = addr_of[tx.to.idx()];
            if delay.is_zero() {
                let _ = socket.send_to(&data, target).await;
            } else {
                let socket = socket.clone();
                tokio::spawn(async move {
                    tokio::time::sleep(delay).await;
                    let _ = socket.send_to(&data, target).await;
                });
            }
        }

        let wake = node
            .poll_at()
            .map(|t| start + Duration::from_micros(t.as_micros()))
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(3600));

        tokio::select! {
            _ = shutdown.notified() => return,
            _ = tokio::time::sleep_until(wake) => {
                let t = now_sim(Instant::now());
                node.on_timer(t, unix_micros(), &mut out);
            }
            recv = socket.recv_from(&mut buf) => {
                let Ok((len, _from)) = recv else { continue };
                let Ok(packet) = Packet::decode(&buf[..len]) else { continue };
                let t = now_sim(Instant::now());
                if let Some(d) = node.on_packet(t, unix_micros(), packet, &mut out) {
                    let ev = match d {
                        Delivered::Data { origin, stream, seq, len } => {
                            LiveEvent::Data { from: origin, stream, seq, len }
                        }
                        Delivered::Measure { id, origin, .. } => {
                            LiveEvent::Measure { id, from: origin }
                        }
                    };
                    let _ = event_tx.try_send(ev);
                }
            }
            cmd = cmd_rx.recv() => {
                let Some(cmd) = cmd else { return };
                let t = now_sim(Instant::now());
                match cmd {
                    Command::SendData { dst, stream, seq, payload, policy } => {
                        let route = node.route(dst, policy, t);
                        let pkt = Packet::Data {
                            origin: cfg.me,
                            target: dst,
                            stream,
                            seq,
                            payload,
                        };
                        out.push(node.wrap(route, dst, pkt));
                    }
                    Command::QueryRoute { dst, policy, resp } => {
                        let _ = resp.send(node.route(dst, policy, t));
                    }
                    Command::Snapshot { resp } => {
                        let snap = (0..cfg.peers.len() as u16)
                            .filter(|&j| j != cfg.me.0)
                            .map(|j| {
                                let s = node.table().direct(HostId(j));
                                (HostId(j), s.loss_rate(), s.latency_us(), s.is_dead())
                            })
                            .collect();
                        let _ = resp.send(snap);
                    }
                }
            }
        }
    }
}
