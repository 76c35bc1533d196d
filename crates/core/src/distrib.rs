//! Distributed campaign runner: slices over TCP, byte-identical merge.
//!
//! [`crate::shard`] proved that a campaign is a pure function of
//! `(spec, seed, duration, slice_width)`: the slice plan is computed
//! from the configuration alone, every slice simulates independently,
//! and an index-ordered merge is bit-stable. This module stretches that
//! invariant across *processes and hosts*: a *coordinator*
//! ([`serve_campaign`]) owns the slice plan and farms slice **indices**
//! to *workers* ([`run_worker`]) over a small TCP protocol; each worker
//! rebuilds the identical plan locally from the [`CampaignJob`] it
//! received at handshake, simulates the leased slice, and ships the
//! [`ExperimentOutput`] back. The coordinator is one more source for the
//! one merger: each accepted result goes to the same
//! [`crate::shard::SliceMerger`] the in-process executor feeds, which
//! folds it the moment its predecessors are in — so the distributed
//! report is byte-identical to [`crate::run_experiment`] on one machine,
//! for any number of workers, joining and leaving in any order, and the
//! coordinator holds one accumulator plus whatever arrived early, never
//! every slice output.
//!
//! # Wire format
//!
//! Every message is one *frame*: a 4-byte big-endian length prefix
//! followed by that many bytes of UTF-8 JSON encoding a [`Msg`]
//! (externally tagged, like every serde type in this workspace).
//! Numbers that must survive the trip exactly (accumulator counters,
//! f64 latency sums) ride the same serde impls the on-disk scenario
//! files use: floats are printed with round-trip precision, so a
//! deserialized output merges to the same bits as one that never left
//! the process. Two version numbers are pinned at handshake and
//! rejected loudly on mismatch: [`PROTO_VERSION`] (the message grammar)
//! and [`crate::experiment::OUTPUT_WIRE_VERSION`] (the output schema).
//!
//! Nothing is built between a message and its bytes: [`encode_msg`]
//! lets the message write its JSON straight into the frame buffer, and
//! a received body is read typed, field by field, into the message
//! (unknown, duplicate and missing keys are errors; key order is free).
//! Both ends hold a frame to the same 64 MiB ceiling — the reader
//! before it allocates, the writer before it sends a byte.
//!
//! # Protocol
//!
//! ```text
//! worker                          coordinator
//!   | -- Hello{proto, output_wire} -> |       handshake
//!   | <- Job{job} | Deny{reason} ---- |
//!   | -- Ready ---------------------> |       lease loop
//!   | <- Lease{slice} | Wait | Done - |
//!   | -- Heartbeat{slice} ----------> |       while simulating
//!   | -- Ready ---------------------> |       a slice finished: lease first,
//!   | <- Lease{slice} | Wait | Done - |
//!   | -- Result{slice, output} -----> |       then ship its result
//!   |            ...                  |       ... until Done
//! ```
//!
//! A worker whose slice finished asks for its next lease *before* it
//! ships the result, so its core is simulating again while the result
//! crosses the wire and the coordinator checks and merges it. The
//! coordinator reads frames in order either way, so the grammar is the
//! same. Two rules keep the campaign end prompt: a `Wait` that answers
//! the `Ready` while a result is still unsent makes the worker ship it
//! and ask again at once (it may be the result that finishes the
//! campaign, and the hint may be long), and a `Done` makes it drop the
//! unsent result (`Done` means every slice already has one).
//!
//! A worker may pipeline: it holds up to [`WorkerOptions::jobs`] leases
//! at once (acquired by extra `Ready` round-trips), simulates them on a
//! local thread pool, and ships each `Result` as that slice finishes.
//! The grammar is unchanged — the coordinator already tracked leases per
//! slice, heartbeats already named their slice, and results were always
//! slice-indexed — so a pipelined worker and a sequential one are
//! indistinguishable on the wire except for frame interleaving.
//!
//! Heartbeats run on a deadline: once [`WorkerOptions::heartbeat`] has
//! passed since the last re-arm, the next time the worker's socket
//! thread wakes — a slice finished, or the deadline itself came — it
//! sends one `Heartbeat` per outstanding lease. Results arriving faster
//! than the interval therefore cannot starve a slow slice beside them.
//!
//! # Failure semantics
//!
//! Leases expire. A worker that dies mid-slice (its connection drops)
//! has its leases zeroed immediately; one that merely stalls stops
//! heartbeating and its lease times out. Either way the next `Ready`
//! from any worker re-leases the slice. Because slice `k` is a pure
//! function of the job, *duplicate* results — the original worker was
//! slow, not dead, and both finish — are byte-identical, and the
//! coordinator keeps the first copy per slice index and counts the rest
//! ([`ServeReport::duplicates`]). Re-leasing therefore never risks the
//! merge: the merger sees each slice index exactly once.
//!
//! A result is bytes from outside the process. Beyond the strict serde
//! of every field, its scenario digest and its whole *shape* (method
//! names, host count, accumulator dimensions, the pairs the accumulators
//! are rowed by — the job's probe mesh, derived here from spec and seed
//! — and no open windows) are
//! checked against the job before it may reach the merger; a lying
//! worker loses its connection and its leases, like any protocol error,
//! and the campaign goes on.
//!
//! Workers treat a vanished coordinator *after* handshake as "campaign
//! finished without me" and exit cleanly
//! ([`WorkerReport::coordinator_closed`]): the coordinator only exits
//! once every slice has resolved, so there is nothing left to do.
//!
//! # I/O model
//!
//! Plain blocking `std::net` sockets and `std::thread`s; one function
//! reads a frame ([`read_msg_blocking`]) and one writes it
//! ([`write_msg_blocking`]), for both sides and for every tool and
//! test. [`serve_campaign`] runs the accept loop on the calling thread
//! and one scoped thread per worker connection; that thread owns its
//! socket and sits in `read` whenever the worker has nothing to say.
//! [`run_worker`] owns its one socket on the calling thread and spawns
//! a compute thread per lease. The compute thread encodes its own
//! `Result` frame, so the slice's output is freed before another slice
//! can start beside it and the socket thread only writes bytes; finished
//! frames come back over a channel whose receive timeout is the time
//! left until the next heartbeat is due.
//!
//! Both ends set `TCP_NODELAY`. A frame is always one `write_all`, so
//! Nagle's algorithm only ever delays it: with it on, a `Ready` written
//! behind a large `Result` waits for the ACK of that result's last
//! segment, which the receiver may hold back for up to 40 ms.
//!
//! *Shutdown.* `serve_campaign` returns as soon as the last slice is
//! recorded, not when connections drain. The thread that recorded it
//! takes its own connection out of the shutdown set and wakes the
//! accept loop with a loopback connection (never counted in
//! [`ServeReport::connections`]); it then answers its worker's next
//! `Ready` with `Done`, waiting at most [`ServeOptions::lease_timeout`]
//! for it. The accept loop shuts down the read half of every other live
//! connection, so a thread blocked on a stalled or idle worker sees EOF
//! while one mid-reply can still write, and joins them all. On return
//! the listener and every accepted socket are closed: a worker still
//! computing reads EOF or a reset and reports `coordinator_closed`.
//!
//! *Before the handshake* a peer is anybody. Its first frame is read
//! under a 4 KiB cap instead of the 64 MiB one and must arrive within
//! [`ServeOptions::lease_timeout`] (per read); afterwards an idle
//! connection holding no lease is legal for as long as the campaign
//! runs. Writes keep that timeout throughout, so a peer that stops
//! draining replies cannot pin its thread. A refused peer costs one
//! connection, never the campaign.

#![allow(
    clippy::disallowed_methods,
    reason = "the coordinator and its workers keep real lease deadlines against real TCP peers; \
              no clock read reaches a simulated slice"
)]

use crate::experiment::{run_slice, ExperimentConfig, ExperimentOutput, OUTPUT_WIRE_VERSION};
use crate::scenario::ScenarioSpec;
use crate::shard::{SliceMerger, SlicePlan};
use analysis::PairIndex;
use netsim::{SimDuration, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Version of the message grammar; bumped on any incompatible change.
pub const PROTO_VERSION: u32 = 1;

/// Ceiling on a single frame body. A length prefix beyond this is
/// treated as a corrupt stream, not an allocation request.
const MAX_FRAME: usize = 64 << 20;

/// Ceiling on the first frame of a connection. Until its `Hello` checks
/// out a peer is anybody; a `Hello` is under 100 bytes.
const HELLO_FRAME_CAP: usize = 4 << 10;

/// Everything a worker needs to rebuild the campaign bit-for-bit.
///
/// The coordinator sends this once at handshake; afterwards leases are
/// bare slice indices. Both sides derive the same [`SlicePlan`] from
/// it, because the plan is a pure function of the experiment
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignJob {
    /// The scenario to run (conditions, methods, impairments).
    pub spec: ScenarioSpec,
    /// Master campaign seed.
    pub seed: u64,
    /// Campaign duration in microseconds.
    pub duration_us: u64,
    /// Slice width override in microseconds; `0` keeps the width the
    /// spec's calibration declares. Both sides must agree — it shapes
    /// the slice plan.
    pub slice_width_us: u64,
}

impl CampaignJob {
    /// A job running `spec` for `duration` with the spec's own slice
    /// width.
    pub fn new(spec: ScenarioSpec, seed: u64, duration: SimDuration) -> CampaignJob {
        CampaignJob { spec, seed, duration_us: duration.as_micros(), slice_width_us: 0 }
    }

    /// Campaign duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_micros(self.duration_us)
    }

    /// Semantic validation; wire-received jobs must pass before
    /// [`Self::config`] (which panics on bad specs) runs.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if self.duration_us == 0 {
            return Err(format!("job for `{}`: zero duration", self.spec.name));
        }
        // A nonzero override below one second would explode the shared
        // slice plan into millions of slices (the plan is O(duration /
        // width)); reject it here, before both sides derive it.
        if self.slice_width_us > 0 && self.slice_width_us < 1_000_000 {
            return Err(format!(
                "job for `{}`: slice width override {} µs is below the 1-second floor",
                self.spec.name, self.slice_width_us
            ));
        }
        // The spec's own integer-µs rounding (`ScenarioSpec::horizon`),
        // NOT a locally rewritten float conversion: coordinator and
        // worker must agree bit-for-bit on the horizon, or a duration
        // landing exactly on it validates on one side only.
        let horizon = self.spec.horizon();
        if self.duration() > horizon {
            return Err(format!(
                "job for `{}`: duration {} outruns the {}-day impairment horizon",
                self.spec.name,
                self.duration(),
                self.spec.horizon_days
            ));
        }
        Ok(())
    }

    /// The experiment configuration this job pins down.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = self.spec.config(self.seed, Some(self.duration()));
        if self.slice_width_us > 0 {
            cfg.slice_width = SimDuration::from_micros(self.slice_width_us);
        }
        cfg
    }

    /// The slice plan every participant derives identically.
    pub fn plan(&self) -> SlicePlan {
        SlicePlan::new(&self.config())
    }

    /// Simulates slice `k` of the plan — exactly what the in-process
    /// executor computes for that index.
    ///
    /// # Panics
    ///
    /// If `k` is outside the plan (callers bounds-check leases first).
    pub fn run_slice_index(&self, k: usize) -> ExperimentOutput {
        self.run_slice_on(Arc::new(self.spec.topology(self.seed)), k)
    }

    /// [`Self::run_slice_index`] on the job's topology the caller
    /// already holds: building one costs several clones, so a worker
    /// builds it once and every leased slice shares it.
    fn run_slice_on(&self, topo: Arc<Topology>, k: usize) -> ExperimentOutput {
        let cfg = self.config();
        let plan = SlicePlan::new(&cfg);
        run_slice(topo, plan.slice_config(&cfg, k), plan.slices()[k].start).0
    }
}

/// A protocol message. See the module docs for the exchange order.
#[derive(Serialize, Deserialize)]
pub enum Msg {
    /// Worker's opening move: both version pins.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto: u32,
        /// The worker's [`OUTPUT_WIRE_VERSION`].
        output_wire: u32,
    },
    /// Coordinator's answer to a compatible `Hello`.
    Job {
        /// The campaign to rebuild locally.
        job: Box<CampaignJob>,
    },
    /// Coordinator's answer to an incompatible `Hello` (or any other
    /// reason to turn a worker away). The connection closes after it.
    Deny {
        /// Human-readable refusal.
        reason: String,
    },
    /// Worker is idle and wants a slice.
    Ready,
    /// Grant: simulate this slice index.
    Lease {
        /// Index into the shared [`SlicePlan`].
        slice: u64,
    },
    /// No slice available right now; ask again after `poll_ms`.
    Wait {
        /// Suggested back-off before the next `Ready`.
        poll_ms: u64,
    },
    /// Every slice has resolved; the worker can exit.
    Done,
    /// Worker liveness while a slice simulates; extends the lease.
    Heartbeat {
        /// The slice being worked on.
        slice: u64,
    },
    /// A finished slice.
    Result {
        /// The slice index this output belongs to.
        slice: u64,
        /// The slice's full output state.
        output: Box<ExperimentOutput>,
    },
}

impl Msg {
    /// Variant name for protocol-error messages.
    fn kind(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::Job { .. } => "Job",
            Msg::Deny { .. } => "Deny",
            Msg::Ready => "Ready",
            Msg::Lease { .. } => "Lease",
            Msg::Wait { .. } => "Wait",
            Msg::Done => "Done",
            Msg::Heartbeat { .. } => "Heartbeat",
            Msg::Result { .. } => "Result",
        }
    }
}

impl std::fmt::Debug for Msg {
    // Hand-written: `ExperimentOutput` is accumulator state with no
    // Debug of its own, and protocol errors only need the variant.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())
    }
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Encodes `msg` as one frame (length prefix included): the message
/// streams its JSON straight into the frame buffer, behind four bytes
/// the body length is patched into afterwards.
///
/// Infallible, so it does not judge size: a body over the 64 MiB
/// [`read_msg_blocking`] accepts is refused where it would be sent, by
/// [`write_msg_blocking`]. (The prefix of a body over 4 GiB saturates,
/// so it can never pass for a short frame.)
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut frame = String::from("\0\0\0\0");
    msg.serialize(&mut frame);
    let mut frame = frame.into_bytes();
    let len = u32::try_from(frame.len() - 4).unwrap_or(u32::MAX);
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}

fn decode_body(body: &[u8]) -> io::Result<Msg> {
    serde_json::from_slice(body).map_err(|e| proto_err(format!("bad frame: {e}")))
}

/// Sends one frame — unless the receiver is known to refuse it: a body
/// over the 64 MiB frame cap is `InvalidData` here, before a byte is
/// written, so the sender fails with the reason instead of being hung
/// up on.
pub fn write_msg_blocking<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    write_frame(w, msg.kind(), &encode_msg(msg))
}

/// Sends one frame [`encode_msg`] made earlier, under the same 64 MiB
/// cap as [`write_msg_blocking`]; `kind` names the message in the
/// refusal.
fn write_frame<W: Write>(w: &mut W, kind: &str, frame: &[u8]) -> io::Result<()> {
    let body = frame.len() - 4;
    if body > MAX_FRAME {
        return Err(proto_err(format!(
            "{kind} frame of {body} bytes exceeds the {} MiB cap",
            MAX_FRAME >> 20
        )));
    }
    w.write_all(frame)
}

/// Turns Nagle's algorithm off on a campaign socket (the module docs'
/// *I/O model* says why).
fn campaign_socket(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Receives one frame. `Ok(None)` is a clean close — EOF *between*
/// frames; EOF inside a frame is an error.
pub fn read_msg_blocking<R: Read>(r: &mut R) -> io::Result<Option<Msg>> {
    read_frame(r, MAX_FRAME)
}

/// [`read_msg_blocking`] under a caller-chosen ceiling on the body.
fn read_frame<R: Read>(r: &mut R, cap: usize) -> io::Result<Option<Msg>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame"));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > cap {
        return Err(proto_err(format!("frame length {len} exceeds cap {cap}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    decode_body(&body).map(Some)
}

/// Coordinator tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// A lease not refreshed (by heartbeat or result) within this span
    /// is considered abandoned and re-issued on the next `Ready`. Also
    /// how long a new connection has to say `Hello`, and how long a
    /// reply may wait on a peer that is not reading; must be nonzero.
    pub lease_timeout: Duration,
    /// Ceiling on the back-off hint sent with [`Msg::Wait`].
    pub poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { lease_timeout: Duration::from_secs(30), poll_ms: 200 }
    }
}

/// What a finished [`serve_campaign`] hands back.
pub struct ServeReport {
    /// The merged campaign output — byte-identical to a local
    /// [`crate::run_experiment`] of the same job.
    pub output: ExperimentOutput,
    /// Slices in the plan.
    pub slices: usize,
    /// Worker connections accepted over the campaign.
    pub connections: u64,
    /// Leases re-issued after a timeout or worker disconnect.
    pub releases: u64,
    /// Duplicate slice results received and ignored.
    pub duplicates: u64,
    /// [`SliceMerger::peak_parked`] of the campaign's merge: the
    /// high-water mark of results held at once while waiting for a
    /// predecessor slice. Purely in-order arrival peaks at 1 (each
    /// result is folded the moment it lands).
    pub peak_buffered: usize,
}

/// Worker tuning.
#[derive(Debug, Clone, Copy)]
pub struct WorkerOptions {
    /// Heartbeat cadence while slices simulate. Must beat the
    /// coordinator's [`ServeOptions::lease_timeout`] comfortably. Once
    /// this much time has passed since the last re-arm, whatever else
    /// happened meanwhile, the worker re-arms *every* outstanding lease —
    /// one [`Msg::Heartbeat`] frame per leased slice, the same frame a
    /// single-slice worker sends — so multi-lease liveness needs no new
    /// protocol message.
    pub heartbeat: Duration,
    /// Slices this worker leases and simulates concurrently (its local
    /// compute-thread count). `1` reproduces the sequential worker
    /// frame-for-frame; values are clamped to at least 1.
    pub jobs: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions { heartbeat: Duration::from_secs(2), jobs: 1 }
    }
}

/// What a finished [`run_worker`] hands back.
#[derive(Debug, Clone, Copy)]
pub struct WorkerReport {
    /// Slices this worker simulated and delivered.
    pub slices_run: u64,
    /// True when the exit was the coordinator vanishing after handshake
    /// (campaign finished elsewhere) rather than an explicit
    /// [`Msg::Done`].
    pub coordinator_closed: bool,
}

enum SliceState {
    Unleased,
    Leased { deadline: Instant, holder: u64 },
    Done,
}

struct CoordState {
    slices: Vec<SliceState>,
    /// Fingerprint of the first accepted result per slice, kept after the
    /// output itself has been folded away so a late duplicate can still
    /// be checked against the copy that won.
    fingerprints: Vec<Option<u64>>,
    /// The streaming in-order fold: results never pile up waiting for
    /// the end of the campaign — each is merged the moment its
    /// predecessors are.
    merger: SliceMerger,
    pending: usize,
    connections: u64,
    releases: u64,
    duplicates: u64,
}

struct Coord {
    job: CampaignJob,
    /// `job.config()` and the pairs the job's probe mesh declares, kept
    /// to hold every result to the job's stamp and shape before it can
    /// reach the merger's asserts.
    cfg: ExperimentConfig,
    pairs: PairIndex,
    opts: ServeOptions,
    state: Mutex<CoordState>,
}

impl Coord {
    fn new(job: CampaignJob, slices: usize, opts: ServeOptions) -> Coord {
        let cfg = job.config();
        let mesh = job.spec.probe_mesh(job.seed);
        let pairs = PairIndex::new(job.spec.topology.hosts(), mesh.as_deref());
        Coord {
            job,
            cfg,
            pairs,
            opts,
            state: Mutex::new(CoordState {
                slices: (0..slices).map(|_| SliceState::Unleased).collect(),
                fingerprints: vec![None; slices],
                merger: SliceMerger::default(),
                pending: slices,
                connections: 0,
                releases: 0,
                duplicates: 0,
            }),
        }
    }

    fn next_conn(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.connections += 1;
        st.connections
    }

    /// Answers a `Ready`: first unleased slice, else the most-overdue
    /// expired lease, else a back-off hint, else `Done`.
    fn grant_at(&self, conn: u64, now: Instant) -> Msg {
        let mut st = self.state.lock().unwrap();
        if st.pending == 0 {
            return Msg::Done;
        }
        let deadline = now + self.opts.lease_timeout;
        if let Some(k) = st.slices.iter().position(|s| matches!(s, SliceState::Unleased)) {
            st.slices[k] = SliceState::Leased { deadline, holder: conn };
            return Msg::Lease { slice: k as u64 };
        }
        let mut expired: Option<(usize, Instant)> = None;
        let mut nearest: Option<Instant> = None;
        for (k, s) in st.slices.iter().enumerate() {
            if let SliceState::Leased { deadline: d, .. } = s {
                if *d <= now {
                    if expired.is_none_or(|(_, best)| *d < best) {
                        expired = Some((k, *d));
                    }
                } else if nearest.is_none_or(|near| *d < near) {
                    nearest = Some(*d);
                }
            }
        }
        if let Some((k, _)) = expired {
            st.releases += 1;
            st.slices[k] = SliceState::Leased { deadline, holder: conn };
            return Msg::Lease { slice: k as u64 };
        }
        let mut poll_ms = self.opts.poll_ms;
        if let Some(near) = nearest {
            let until = near.saturating_duration_since(now).as_millis() as u64;
            poll_ms = poll_ms.min(until.max(10));
        }
        Msg::Wait { poll_ms: poll_ms.max(10) }
    }

    /// Extends a live lease the heartbeating connection still holds.
    /// Stale heartbeats (the slice was re-leased or finished) are
    /// ignored.
    fn heartbeat_at(&self, conn: u64, slice: usize, now: Instant) {
        let mut st = self.state.lock().unwrap();
        if let Some(SliceState::Leased { deadline, holder }) = st.slices.get_mut(slice) {
            if *holder == conn {
                *deadline = now + self.opts.lease_timeout;
            }
        }
    }

    /// Records a slice result idempotently and hands it to the streaming
    /// merge. The first copy per index wins; later copies must carry
    /// the same fingerprint (slices are pure functions of the job, so a
    /// disagreeing duplicate means a nondeterministic worker — a
    /// campaign-poisoning bug, rejected loudly) and only bump
    /// [`ServeReport::duplicates`].
    ///
    /// A result is input from outside the process: its scenario stamp
    /// and its whole shape are checked against the job *before* the
    /// state lock is taken, because the merge asserts on a mismatch, and
    /// a panic under the lock would poison it for every other connection.
    fn record(&self, slice: usize, output: ExperimentOutput) -> io::Result<()> {
        if let Some(field) = output.shape_mismatch(&self.cfg, &self.pairs) {
            return Err(proto_err(format!(
                "result for slice {slice} does not fit the campaign: {field}"
            )));
        }
        let mut st = self.state.lock().unwrap();
        let Some(&slot) = st.fingerprints.get(slice) else {
            return Err(proto_err(format!("result for slice {slice} outside the plan")));
        };
        if let Some(first) = slot {
            let fp = output.fingerprint();
            if fp != first {
                return Err(proto_err(format!(
                    "duplicate result for slice {slice} fingerprints {fp:#018x}, \
                     first copy was {first:#018x}: worker is nondeterministic"
                )));
            }
            st.duplicates += 1;
            return Ok(());
        }
        st.fingerprints[slice] = Some(output.fingerprint());
        st.slices[slice] = SliceState::Done;
        st.pending -= 1;
        st.merger.push(slice, output);
        Ok(())
    }

    /// Expires every lease `conn` held, so the next `Ready` from any
    /// worker re-issues those slices immediately.
    fn release_all_at(&self, conn: u64, now: Instant) {
        let mut st = self.state.lock().unwrap();
        for s in st.slices.iter_mut() {
            if let SliceState::Leased { deadline, holder } = s {
                if *holder == conn {
                    *deadline = now;
                }
            }
        }
    }

    fn finished(&self) -> bool {
        self.state.lock().unwrap().pending == 0
    }
}

/// The address a local connect reaches `listener` on; a wildcard bind
/// is reached over loopback.
fn wake_addr(listener: &TcpListener) -> io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    Ok(addr)
}

/// A second handle on each live connection, which the accept loop uses
/// to shut their read halves once the campaign is over.
type Conns = Mutex<BTreeMap<u64, TcpStream>>;

fn drive_conn(
    stream: &mut TcpStream,
    coord: &Coord,
    conn: u64,
    wake: SocketAddr,
    conns: &Conns,
) -> io::Result<()> {
    campaign_socket(stream)?;
    // Pre-handshake limits: a small frame, and not forever to send it.
    // The write timeout stays: a peer that stops draining its replies
    // must not pin this thread past the end of the campaign.
    let patience = coord.opts.lease_timeout;
    stream.set_read_timeout(Some(patience))?;
    stream.set_write_timeout(Some(patience))?;
    let hello = read_frame(stream, HELLO_FRAME_CAP).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            proto_err(format!("no Hello within {patience:?}"))
        }
        _ => e,
    })?;
    let (proto, output_wire) = match hello {
        Some(Msg::Hello { proto, output_wire }) => (proto, output_wire),
        Some(other) => return Err(proto_err(format!("expected Hello, got {}", other.kind()))),
        None => return Ok(()),
    };
    if proto != PROTO_VERSION || output_wire != OUTPUT_WIRE_VERSION {
        let reason = format!(
            "version mismatch: coordinator speaks proto {PROTO_VERSION} / output v{OUTPUT_WIRE_VERSION}, \
             worker offered proto {proto} / output v{output_wire}"
        );
        write_msg_blocking(stream, &Msg::Deny { reason: reason.clone() })?;
        return Err(proto_err(reason));
    }
    // A handshaken worker may idle as long as it likes between frames.
    stream.set_read_timeout(None)?;
    write_msg_blocking(stream, &Msg::Job { job: Box::new(coord.job.clone()) })?;
    loop {
        let Some(msg) = read_msg_blocking(stream)? else { return Ok(()) };
        match msg {
            Msg::Ready => {
                let grant = coord.grant_at(conn, Instant::now());
                let done = matches!(grant, Msg::Done);
                write_msg_blocking(stream, &grant)?;
                if done {
                    return Ok(());
                }
            }
            Msg::Heartbeat { slice } => coord.heartbeat_at(conn, slice as usize, Instant::now()),
            Msg::Result { slice, output } => {
                coord.record(slice as usize, *output)?;
                if coord.finished() {
                    // This worker's next `Ready` is owed a `Done`, so its
                    // read half stays out of the accept loop's shutdown.
                    conns.lock().unwrap().remove(&conn);
                    // The accept loop is blocked in `accept`, and only a
                    // connection wakes it. Refused means it already left.
                    let _ = TcpStream::connect(wake);
                    stream.set_read_timeout(Some(patience))?;
                    if let Ok(Some(Msg::Ready)) = read_msg_blocking(stream) {
                        write_msg_blocking(stream, &Msg::Done)?;
                    }
                    return Ok(());
                }
            }
            other => {
                return Err(proto_err(format!("unexpected {} from worker", other.kind())));
            }
        }
    }
}

fn serve_conn(mut stream: TcpStream, coord: &Coord, conn: u64, wake: SocketAddr, conns: &Conns) {
    let res = drive_conn(&mut stream, coord, conn, wake, conns);
    // Dropping the leases *after* the connection ends covers every exit:
    // clean Done (no leases left), worker death (re-lease now), protocol
    // error (ditto).
    coord.release_all_at(conn, Instant::now());
    if let Err(e) = res {
        eprintln!("mpath coordinator: worker connection {conn} failed: {e}");
    }
}

/// Runs a campaign as the coordinator: accepts workers on `listener`,
/// leases slices until every index has a result, and merges in slice
/// order.
///
/// Takes the bound listener so callers can bind port 0 first and
/// advertise the resolved address before serving. Returns as soon as
/// the last slice is recorded; by then the listener is closed and every
/// worker connection shut down (see the module docs' *I/O model*).
///
/// The returned report's output is byte-identical to running the same
/// [`CampaignJob`] locally at any shard count — that is the whole point,
/// and `tests/distributed_equivalence.rs` holds it to the fingerprint.
pub fn serve_campaign(
    listener: TcpListener,
    job: CampaignJob,
    opts: ServeOptions,
) -> io::Result<ServeReport> {
    job.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let slices = job.plan().len();
    let coord = Coord::new(job, slices, opts);
    let wake = wake_addr(&listener)?;
    let conns: Conns = Mutex::new(BTreeMap::new());
    thread::scope(|s| {
        let (coord, conns) = (&coord, &conns);
        let accepted = loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                // A peer that connected and reset before we accepted is
                // not the listener's failure; keep accepting.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => break Err(e),
            };
            if coord.finished() {
                // The wake-up call (or a latecomer), not a worker.
                break Ok(());
            }
            let conn = coord.next_conn();
            let handle = match stream.try_clone() {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("mpath coordinator: worker connection {conn} refused: {e}");
                    continue;
                }
            };
            conns.lock().unwrap().insert(conn, handle);
            s.spawn(move || {
                serve_conn(stream, coord, conn, wake, conns);
                conns.lock().unwrap().remove(&conn);
            });
        };
        // Connection threads blocked in `read` (an idle or stalled
        // worker) see EOF and exit; one mid-reply still finishes, so
        // only the read half goes. The scope then joins them all.
        for handle in conns.lock().unwrap().values() {
            let _ = handle.shutdown(Shutdown::Read);
        }
        accepted
    })?;
    let st = coord.state.into_inner().unwrap();
    Ok(ServeReport {
        peak_buffered: st.merger.peak_parked(),
        output: st.merger.finish(slices),
        slices,
        connections: st.connections,
        releases: st.releases,
        duplicates: st.duplicates,
    })
}

/// Treats connection loss after handshake as the campaign ending: the
/// coordinator only goes away once every slice has resolved.
fn closed_cleanly(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WriteZero
    )
}

/// Runs the worker side: connect, handshake, then lease up to
/// [`WorkerOptions::jobs`] slices at a time until the coordinator says
/// [`Msg::Done`] (or vanishes — see
/// [`WorkerReport::coordinator_closed`]).
///
/// Each leased slice simulates, and encodes its [`Msg::Result`], on its
/// own OS thread while the calling thread owns the socket: when a slice
/// finishes it first tops the lease set up with `Ready`, then ships that
/// result (slices complete out of order; the coordinator's merge is
/// slice-indexed, so delivery order is free), and once per heartbeat
/// interval it re-arms every outstanding lease. The exchange stays
/// strictly request/response — the coordinator only ever speaks when
/// spoken to — so pipelining needs no protocol change at all.
pub fn run_worker<A: ToSocketAddrs + Send + 'static>(
    addr: A,
    opts: WorkerOptions,
) -> io::Result<WorkerReport> {
    let mut stream = TcpStream::connect(addr)?;
    campaign_socket(&stream)?;
    write_msg_blocking(
        &mut stream,
        &Msg::Hello { proto: PROTO_VERSION, output_wire: OUTPUT_WIRE_VERSION },
    )?;
    let job = match read_msg_blocking(&mut stream)? {
        Some(Msg::Job { job }) => *job,
        Some(Msg::Deny { reason }) => return Err(proto_err(reason)),
        Some(other) => return Err(proto_err(format!("expected Job, got {}", other.kind()))),
        None => return Err(proto_err("coordinator closed during handshake")),
    };
    job.validate().map_err(proto_err)?;
    let mut slices_run = 0u64;
    match lease_loop(&mut stream, &job, opts, &mut slices_run) {
        Ok(()) => Ok(WorkerReport { slices_run, coordinator_closed: false }),
        Err(e) if closed_cleanly(&e) => Ok(WorkerReport { slices_run, coordinator_closed: true }),
        Err(e) => Err(e),
    }
}

/// The worker's post-handshake loop; `Ok` is an explicit [`Msg::Done`].
fn lease_loop(
    stream: &mut TcpStream,
    job: &CampaignJob,
    opts: WorkerOptions,
    slices_run: &mut u64,
) -> io::Result<()> {
    let jobs = opts.jobs.max(1);
    let plan_len = job.plan().len() as u64;
    let topo = Arc::new(job.spec.topology(job.seed));
    // Finished computes flow back over one channel, each as its encoded
    // `Result` frame. Capacity `jobs` means a compute thread's `send`
    // never blocks: at most `jobs` computes are outstanding and each
    // sends exactly once.
    let (tx, rx) = mpsc::sync_channel::<(u64, thread::Result<Vec<u8>>)>(jobs);
    let mut outstanding: Vec<u64> = Vec::with_capacity(jobs);
    // A finished slice's frame, held back while the lease set is topped
    // up so the freed core starts its next slice before the wire moves.
    let mut unsent: Option<Vec<u8>> = None;
    let mut last_beat = Instant::now();
    loop {
        // Top the lease set up to `jobs` slices.
        while outstanding.len() < jobs {
            write_msg_blocking(stream, &Msg::Ready)?;
            match read_msg_blocking(stream)?.ok_or(io::ErrorKind::UnexpectedEof)? {
                // `Done` means every slice in the plan already has a
                // result, so an unsent frame and anything still
                // computing here are duplicates-to-be of slices someone
                // else delivered (after this worker's leases timed out).
                // The coordinator hangs up after `Done`; abandon the
                // threads — their `send` into a dropped channel is a
                // no-op.
                Msg::Done => return Ok(()),
                Msg::Wait { poll_ms } => {
                    if let Some(frame) = unsent.take() {
                        // The unsent frame may be the one that finishes
                        // the campaign: ship it and ask again at once.
                        send_result(stream, &frame, slices_run)?;
                    } else if outstanding.is_empty() {
                        thread::sleep(Duration::from_millis(poll_ms.clamp(1, 10_000)));
                    } else {
                        // Something is already simulating: service it
                        // instead of napping, and ask again afterwards.
                        break;
                    }
                }
                Msg::Lease { slice } => {
                    if slice >= plan_len {
                        return Err(proto_err(format!(
                            "lease {slice} outside the {plan_len}-slice plan"
                        )));
                    }
                    let (job, topo, tx) = (job.clone(), topo.clone(), tx.clone());
                    thread::spawn(move || {
                        // Encoding here frees the output before a new
                        // slice can start beside it, and keeps the I/O
                        // thread's work per result to one write.
                        let frame = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            move || {
                                let output = Box::new(job.run_slice_on(topo, slice as usize));
                                encode_msg(&Msg::Result { slice, output })
                            },
                        ));
                        // An error means the worker already bailed.
                        let _ = tx.send((slice, frame));
                    });
                    outstanding.push(slice);
                }
                other => {
                    return Err(proto_err(format!("expected a grant, got {}", other.kind())));
                }
            }
        }
        if let Some(frame) = unsent.take() {
            send_result(stream, &frame, slices_run)?;
        }
        // Wait for a compute to finish, but no later than the next
        // heartbeat is due.
        match rx.recv_timeout(opts.heartbeat.saturating_sub(last_beat.elapsed())) {
            Ok((slice, frame)) => {
                outstanding.retain(|&s| s != slice);
                unsent = Some(
                    frame.map_err(|_| proto_err(format!("slice {slice} simulation panicked")))?,
                );
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the worker loop holds a live sender")
            }
        }
        // Heartbeats run on a deadline, not on quiet: results arriving
        // faster than `heartbeat` must not starve a slow slice beside
        // them of its re-arm.
        if last_beat.elapsed() >= opts.heartbeat {
            for &slice in &outstanding {
                write_msg_blocking(stream, &Msg::Heartbeat { slice })?;
            }
            last_beat = Instant::now();
        }
    }
}

/// Ships a finished slice's `Result` frame.
fn send_result(stream: &mut TcpStream, frame: &[u8], slices_run: &mut u64) -> io::Result<()> {
    write_frame(stream, "Result", frame)?;
    *slices_run += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioRegistry;
    use crate::run_experiment;
    use std::io::Cursor;

    fn small_job() -> CampaignJob {
        let spec = ScenarioRegistry::builtin().get("ron-narrow").expect("builtin").clone();
        CampaignJob {
            spec,
            seed: 42,
            duration_us: SimDuration::from_mins(20).as_micros(),
            slice_width_us: SimDuration::from_mins(5).as_micros(),
        }
    }

    #[test]
    fn frames_round_trip_through_blocking_helpers() {
        let mut wire = Vec::new();
        write_msg_blocking(&mut wire, &Msg::Hello { proto: 7, output_wire: 9 }).unwrap();
        write_msg_blocking(&mut wire, &Msg::Lease { slice: 3 }).unwrap();
        write_msg_blocking(&mut wire, &Msg::Ready).unwrap();
        let mut r = Cursor::new(wire);
        match read_msg_blocking(&mut r).unwrap().unwrap() {
            Msg::Hello { proto, output_wire } => {
                assert_eq!((proto, output_wire), (7, 9));
            }
            other => panic!("got {}", other.kind()),
        }
        assert!(matches!(read_msg_blocking(&mut r).unwrap().unwrap(), Msg::Lease { slice: 3 }));
        assert!(matches!(read_msg_blocking(&mut r).unwrap().unwrap(), Msg::Ready));
        assert!(read_msg_blocking(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_close() {
        let mut wire = encode_msg(&Msg::Ready);
        wire.truncate(wire.len() - 1);
        let mut r = Cursor::new(wire);
        let err = read_msg_blocking(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut r = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        let err = read_msg_blocking(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deeply_nested_frame_is_invalid_data_not_a_stack_overflow() {
        // A few hundred KiB of `[` fits any frame cap. A typed read
        // refuses it at byte 0 — a `Msg` is no array — so nothing ever
        // descends; the depth cap that used to catch this is pinned
        // where reads still recurse on input (`vendor/serde_json`).
        let body = "[".repeat(1 << 20);
        let mut wire = (body.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(body.as_bytes());
        let err = read_msg_blocking(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sub_second_slice_width_override_is_rejected_before_planning() {
        // Regression companion to `SlicePlan::new`'s assert: a wire job
        // must be refused readably before either side derives the plan.
        let mut job = small_job();
        job.slice_width_us = 999_999;
        let err = job.validate().unwrap_err();
        assert!(err.contains("1-second floor"), "got: {err}");
        job.slice_width_us = 0; // "use the spec's width" stays legal
        job.validate().expect("zero override means calibration width");
        job.slice_width_us = 1_000_000; // the floor itself is legal
        job.validate().expect("one-second override is the floor");
    }

    #[test]
    fn job_round_trips_and_plans_identically() {
        let job = small_job();
        let json = serde_json::to_string(&Msg::Job { job: Box::new(job.clone()) }).unwrap();
        let back = match serde_json::from_str::<Msg>(&json).unwrap() {
            Msg::Job { job } => *job,
            other => panic!("got {}", other.kind()),
        };
        assert_eq!(back, job);
        assert_eq!(back.plan().slices(), job.plan().slices());
        assert_eq!(job.plan().len(), 4);
    }

    #[test]
    fn grant_walks_plan_then_backs_off_then_relieves_expired() {
        let job = small_job();
        let opts =
            ServeOptions { lease_timeout: Duration::from_millis(100), ..ServeOptions::default() };
        let coord = Coord::new(job.clone(), 3, opts);
        let t0 = Instant::now();
        assert!(matches!(coord.grant_at(1, t0), Msg::Lease { slice: 0 }));
        assert!(matches!(coord.grant_at(2, t0), Msg::Lease { slice: 1 }));
        assert!(matches!(coord.grant_at(2, t0), Msg::Lease { slice: 2 }));
        // Plan exhausted, all leases live: back off.
        assert!(matches!(coord.grant_at(3, t0), Msg::Wait { .. }));
        // Heartbeats keep conn 2's leases alive past the timeout;
        // conn 1 went silent, so slice 0 is the one re-issued.
        let later = t0 + Duration::from_millis(150);
        coord.heartbeat_at(2, 1, later);
        coord.heartbeat_at(2, 2, later);
        assert!(matches!(coord.grant_at(3, later), Msg::Lease { slice: 0 }));
        assert_eq!(coord.state.lock().unwrap().releases, 1);
        // A worker disconnect expires its leases with no wait at all.
        coord.release_all_at(2, later);
        assert!(matches!(coord.grant_at(3, later), Msg::Lease { .. }));
    }

    #[test]
    fn record_is_idempotent_and_bounds_checked() {
        let job = small_job();
        let coord = Coord::new(job.clone(), 2, ServeOptions::default());
        let out0 = job.run_slice_index(0);
        let out0_dup = job.run_slice_index(0);
        coord.record(0, out0).unwrap();
        coord.record(0, out0_dup).unwrap();
        {
            let st = coord.state.lock().unwrap();
            assert_eq!(st.duplicates, 1);
            assert_eq!(st.pending, 1);
        }
        let err = coord.record(7, job.run_slice_index(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Wrong-campaign results are turned away before touching slots.
        let mut foreign = job.clone();
        foreign.seed = 43;
        let mut alien = foreign.run_slice_index(1);
        alien.spec_digest ^= 1;
        assert!(coord.record(1, alien).is_err());
        // So is a digest-correct result of the wrong shape — as an error
        // naming slice and field, not as a merge assert under the state
        // lock, which the honest copy can therefore still take.
        let mut short = job.run_slice_index(1);
        short.names.pop();
        let err = coord.record(1, short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("slice 1") && msg.contains("`names`"), "got: {msg}");
        coord.record(1, job.run_slice_index(1)).unwrap();
        assert!(coord.finished());
    }

    #[test]
    fn loopback_worker_matches_local_sharded_run() {
        let job = small_job();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve_job = job.clone();
        let coordinator = std::thread::spawn(move || {
            serve_campaign(listener, serve_job, ServeOptions::default()).unwrap()
        });
        let worker = std::thread::spawn(move || {
            run_worker(addr, WorkerOptions::default()).unwrap()
        });
        let report = coordinator.join().unwrap();
        let wr = worker.join().unwrap();
        let local = run_experiment(job.spec.topology(job.seed), job.config());
        assert_eq!(report.output.fingerprint(), local.fingerprint());
        assert_eq!(report.slices, 4);
        assert_eq!(wr.slices_run, 4);
        assert_eq!(report.duplicates, 0);
    }
}
