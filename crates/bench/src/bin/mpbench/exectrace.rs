//! The executor trace: the `shards2`/`distrib2` job replayed
//! sequentially, by hand, over public API — plan → per slice
//! `run_slice_index` → `encode_msg` → loopback write/read →
//! `read_msg_blocking` → `merge_outputs` fold → fingerprint → render —
//! with one in-memory span around each call. A layer's self time is its
//! spans' duration minus the part their children cover.
//!
//! Inside a slice the layers run at 10²–10³ ns per call, below what a
//! span per call can resolve; there the trace is the batch-timed layer
//! probes plus the cost model. End-to-end metrics always come from the
//! workloads' own repetitions, which record no spans; the trace is a
//! separate run.

use crate::stats::{summarize, Summary};
use crate::workloads::render_summary;
use mpath_core::distrib::{encode_msg, read_msg_blocking, write_msg_blocking, Msg, PROTO_VERSION};
use mpath_core::experiment::OUTPUT_WIRE_VERSION;
use mpath_core::report::merge_outputs;
use mpath_core::{serve_campaign, CampaignJob, ExperimentOutput, ServeOptions};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Index in the trace.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The function called.
    pub name: String,
    /// The repo module it belongs to.
    pub layer: String,
    /// Slice index, for per-slice work.
    pub slice: Option<usize>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

/// In-memory span recorder; written out only when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty trace starting now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &str,
        layer: &str,
        slice: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer: layer.to_string(),
            slice,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }
}

/// What recording one span costs, in seconds: two clock reads, two
/// small strings and a push, measured over 10⁴ empty spans. Tracing
/// overhead is this times the spans recorded — a traced-minus-untraced
/// difference of two multi-second replays would measure the box's
/// noise (±15%), not ~150 spans.
pub fn span_cost_s() -> f64 {
    const SPANS: usize = 10_000;
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    for k in 0..SPANS {
        rec.span("run_slice_index", "core::experiment", Some(k), |_| ());
    }
    t0.elapsed().as_secs_f64() / SPANS as f64
}

/// Self time per span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time per layer, milliseconds, in layer-name order.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut layers = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *layers.entry(s.layer.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    layers
}

/// Ceiling on a frame read off the loopback (the protocol's own cap).
const MAX_FRAME: usize = 64 << 20;

/// One loopback TCP connection with a reader thread on the far end that
/// hands every frame back as raw bytes, so a frame crosses a real
/// socket while decoding stays a separate, separately timed call.
struct Loopback {
    tx: TcpStream,
    rx: mpsc::Receiver<std::io::Result<Vec<u8>>>,
    reader: std::thread::JoinHandle<()>,
}

fn read_frame(s: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match s.read_exact(&mut prefix) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        other => other?,
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame exceeds cap"));
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&prefix);
    s.read_exact(&mut frame[4..])?;
    Ok(Some(frame))
}

impl Loopback {
    fn open() -> std::io::Result<Loopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (mut far, _) = listener.accept()?;
        let (send, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut far) {
                Ok(Some(frame)) => {
                    if send.send(Ok(frame)).is_err() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = send.send(Err(e));
                    return;
                }
            }
        });
        Ok(Loopback { tx, rx, reader })
    }

    /// Writes `frame` and waits until the far end has read all of it.
    fn cross(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.tx.write_all(frame).map_err(|e| format!("loopback write: {e}"))?;
        match self.rx.recv() {
            Ok(Ok(bytes)) => Ok(bytes),
            Ok(Err(e)) => Err(format!("loopback read: {e}")),
            Err(_) => Err("loopback reader ended early".to_string()),
        }
    }

    fn close(self) -> Result<(), String> {
        drop(self.tx); // EOF ends the reader.
        self.reader.join().map_err(|_| "loopback reader panicked".to_string())
    }
}

/// What one replay of the job produced.
pub struct Replay {
    /// Fingerprint of the merged output (must equal `shards2`'s).
    pub fingerprint: u64,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// The recorded spans.
    pub spans: Vec<Span>,
    /// Every slice's `Result` frame, in slice order.
    pub frames: Vec<Vec<u8>>,
}

fn replay_slice(
    rec: &mut Recorder,
    job: &CampaignJob,
    k: usize,
    wire: &mut Loopback,
    merged: &mut Option<ExperimentOutput>,
) -> Result<Vec<u8>, String> {
    let slice = Some(k);
    let out = rec.span("run_slice_index", "core::experiment", slice, |_| job.run_slice_index(k));
    let frame = rec.span("encode_msg", "core::distrib", slice, |_| {
        encode_msg(&Msg::Result { slice: k as u64, output: Box::new(out) })
    });
    let bytes = rec.span("loopback", "transport", slice, |_| wire.cross(&frame))?;
    let msg = rec
        .span("read_msg_blocking", "core::distrib", slice, |_| read_msg_blocking(&mut &bytes[..]));
    let out = match msg {
        Ok(Some(Msg::Result { slice, output })) if slice == k as u64 => *output,
        Ok(_) => return Err(format!("slice {k}: frame did not decode to its Result")),
        Err(e) => return Err(format!("slice {k}: {e}")),
    };
    rec.span("merge_outputs", "core::report", slice, |_| {
        *merged = Some(match merged.take() {
            None => out,
            Some(acc) => merge_outputs(vec![acc, out]),
        });
    });
    Ok(frame)
}

/// Replays `job` sequentially by hand, one span per call.
pub fn replay(job: &CampaignJob) -> Result<Replay, String> {
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let (fingerprint, frames) = rec.span("campaign", "harness", None, |rec| {
        let plan = rec.span("plan", "core::shard", None, |_| job.plan());
        let mut wire = rec
            .span("loopback_open", "transport", None, |_| Loopback::open())
            .map_err(|e| format!("loopback: {e}"))?;
        let mut merged = None;
        let mut frames = Vec::with_capacity(plan.len());
        let mut failure = None;
        for k in 0..plan.len() {
            let step = rec.span("slice", "harness", Some(k), |rec| {
                replay_slice(rec, job, k, &mut wire, &mut merged)
            });
            match step {
                Ok(frame) => frames.push(frame),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Always join the reader, also on the failure path.
        rec.span("loopback_close", "transport", None, |_| wire.close())?;
        if let Some(e) = failure {
            return Err(e);
        }
        let merged = merged.ok_or("the plan has no slices")?;
        let fingerprint = rec.span("fingerprint", "analysis", None, |_| merged.fingerprint());
        rec.span("render", "core::report", None, |_| render_summary(&merged, job.spec.round_trip));
        Ok::<_, String>((fingerprint, frames))
    })?;
    Ok(Replay { fingerprint, wall_s: t0.elapsed().as_secs_f64(), spans: rec.spans, frames })
}

/// What a hand-driven worker session against a real coordinator saw.
pub struct HandSession {
    /// `Ready` → grant round trips, seconds (the coordinator idle).
    pub lease_rtt_s: Summary,
    /// Result frame written → next grant received, seconds: socket
    /// write, coordinator read + decode + streaming merge, one grant.
    pub result_send_s: Summary,
    /// Fingerprint of the coordinator's merged output.
    pub fingerprint: u64,
}

fn expect_grant(stream: &mut TcpStream) -> Result<Msg, String> {
    write_msg_blocking(stream, &Msg::Ready).map_err(|e| format!("send Ready: {e}"))?;
    match read_msg_blocking(stream) {
        Ok(Some(m)) => Ok(m),
        Ok(None) => Err("coordinator hung up".to_string()),
        Err(e) => Err(format!("read grant: {e}")),
    }
}

fn drive_worker(stream: &mut TcpStream, frames: &[Vec<u8>]) -> Result<(Summary, Summary), String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Msg::Hello { proto: PROTO_VERSION, output_wire: OUTPUT_WIRE_VERSION };
    write_msg_blocking(stream, &hello).map_err(|e| format!("send Hello: {e}"))?;
    match read_msg_blocking(stream) {
        Ok(Some(Msg::Job { .. })) => {}
        other => return Err(format!("handshake: expected Job, got {other:?}")),
    }
    let (mut rtts, mut sends) = (Vec::new(), Vec::new());
    let mut grant = expect_grant(stream)?;
    loop {
        let slice = match grant {
            Msg::Lease { slice } => slice as usize,
            Msg::Done => break,
            other => return Err(format!("expected a lease, got {other:?}")),
        };
        let frame = frames.get(slice).ok_or(format!("lease {slice} outside the plan"))?;
        if slice + 1 == frames.len() {
            // Holding the last lease, every further `Ready` is answered
            // `Wait` at once and consumes nothing: pure grant round trips.
            for _ in 0..200 {
                let t0 = Instant::now();
                match expect_grant(stream)? {
                    Msg::Wait { .. } => rtts.push(t0.elapsed().as_secs_f64()),
                    other => return Err(format!("expected Wait, got {other:?}")),
                }
            }
        }
        let t0 = Instant::now();
        stream.write_all(frame).map_err(|e| format!("send Result: {e}"))?;
        grant = expect_grant(stream)?;
        sends.push(t0.elapsed().as_secs_f64());
    }
    match (summarize(&rtts), summarize(&sends)) {
        (Some(r), Some(s)) => Ok((r, s)),
        _ => Err("the session leased no slices".to_string()),
    }
}

/// Plays one worker by hand over the blocking helpers against
/// `serve_campaign`, delivering the replay's own frames.
pub fn hand_session(job: &CampaignJob, frames: &[Vec<u8>]) -> Result<HandSession, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("loopback bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let served = job.clone();
    let coordinator =
        std::thread::spawn(move || serve_campaign(listener, served, ServeOptions::default()));
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // On failure the coordinator still waits for slices; it is left
    // detached (see `workloads::serve_over_loopback`).
    let (lease_rtt_s, result_send_s) = drive_worker(&mut stream, frames)?;
    let report = match coordinator.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => return Err(format!("coordinator failed: {e}")),
        Err(_) => return Err("coordinator panicked".to_string()),
    };
    if (report.connections, report.releases, report.duplicates) != (1, 0, 0) {
        return Err(format!(
            "hand-driven session: {} connections, {} re-leases, {} duplicates",
            report.connections, report.releases, report.duplicates
        ));
    }
    Ok(HandSession { lease_rtt_s, result_send_s, fingerprint: report.output.fingerprint() })
}

/// `trace.json`.
#[derive(Serialize)]
pub struct TraceFile {
    /// Fingerprint the traced replay ended on.
    pub fingerprint: String,
    /// Wall milliseconds of the traced replay.
    pub wall_ms: f64,
    /// Self time per layer, milliseconds (sums to the root span).
    pub layer_self_ms: Vec<(String, f64)>,
    /// Every span.
    pub spans: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: layer.into(),
            slice: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,30]; root ⊃ c [70,90].
        let spans = vec![
            span(0, None, "harness", 0, 100),
            span(1, Some(0), "x", 10, 60),
            span(2, Some(1), "y", 20, 30),
            span(3, Some(0), "x", 70, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let layers = layer_self_ms(&spans);
        assert!((layers["x"] - 60e-6).abs() < 1e-12);
        let total: f64 = layers.values().sum();
        assert!((total - 100e-6).abs() < 1e-12, "self times partition the root span");
    }

    #[test]
    fn recorder_nests_spans_and_its_own_cost_is_small() {
        let mut rec = Recorder::new();
        let v = rec.span("outer", "a", None, |rec| {
            rec.span("inner", "b", Some(3), |_| 7) + rec.span("inner2", "b", None, |_| 1)
        });
        assert_eq!(v, 8);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert_eq!(rec.spans[1].slice, Some(3));
        let (o, i) = (&rec.spans[0], &rec.spans[1]);
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        let cost = span_cost_s();
        assert!(cost > 0.0 && cost < 1e-3, "a span costs {cost} s");
    }

    #[test]
    fn loopback_hands_frames_back_byte_for_byte() {
        let mut wire = Loopback::open().unwrap();
        for msg in [Msg::Ready, Msg::Lease { slice: 9 }] {
            let frame = encode_msg(&msg);
            assert_eq!(wire.cross(&frame).unwrap(), frame);
        }
        wire.close().unwrap();
    }
}
