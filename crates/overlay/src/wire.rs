//! The overlay wire format.
//!
//! A compact binary encoding used by the live UDP driver; inside the
//! simulator packets travel as the decoded [`Packet`] enum for speed, and
//! round-trip property tests keep the two representations equivalent.
//!
//! Layout: a one-byte type tag followed by fixed-width big-endian fields.
//! Metric vectors (the piggybacked link state) are length-prefixed. The
//! decoder never panics on malformed input — every read is bounds-checked
//! and hostile lengths are rejected.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::HostId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Wire-level cap on redundant probe legs per measurement: the
/// [`Packet::Measure`] `leg` field ranges over `0..MAX_PROBE_LEGS`, and
/// every layer above (the collector's probe records, method specs in
/// scenario files) sizes itself to the same bound. Four copies already
/// sit past the paper's diminishing-returns knee; raising this is a
/// wire-format version bump, not a silent widening.
pub const MAX_PROBE_LEGS: usize = 4;

/// Version byte of the [`Packet::Measure`] encoding. Version 2 added
/// k-leg redundancy (leg indices up to [`MAX_PROBE_LEGS`]); decoders
/// reject other versions loudly instead of misreading the fields.
pub const MEASURE_WIRE_VERSION: u8 = 2;

/// Version byte of the [`Packet::Lsa`] encoding. Decoders reject other
/// versions loudly instead of misreading the fields.
pub const LSA_WIRE_VERSION: u8 = 1;

/// Per-peer metric summary piggybacked on probe packets (the overlay's
/// link-state dissemination).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricEntry {
    /// The peer this entry describes (the path `sender → peer`).
    pub peer: HostId,
    /// Loss rate over the sender's probe window, in 1/10000 units.
    pub loss_e4: u16,
    /// One-way latency estimate in microseconds.
    pub lat_us: u32,
    /// Whether the sender believes the path is alive.
    pub alive: bool,
}

/// Which routing decision a measurement leg used (Table 4 of the paper).
///
/// Serializes as its variant name (`"Direct"`, `"Rand"`, …) so scenario
/// files can spell out per-leg route tactics in method specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum RouteTag {
    /// The direct Internet path.
    Direct = 0,
    /// Through a random intermediate node.
    Rand = 1,
    /// The latency-optimised overlay path.
    Lat = 2,
    /// The loss-optimised overlay path.
    Loss = 3,
}

impl RouteTag {
    fn from_u8(v: u8) -> Option<RouteTag> {
        match v {
            0 => Some(RouteTag::Direct),
            1 => Some(RouteTag::Rand),
            2 => Some(RouteTag::Lat),
            3 => Some(RouteTag::Loss),
            _ => None,
        }
    }
}

/// Measurement mode of a [`Packet::Measure`] leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MeasureKind {
    /// One-way probe: the receiver just logs it (RONnarrow / RON2003).
    OneWay = 0,
    /// Round-trip probe: the receiver echoes it back (RONwide 2002).
    Request = 1,
    /// The echo of a [`MeasureKind::Request`].
    Echo = 2,
}

impl MeasureKind {
    fn from_u8(v: u8) -> Option<MeasureKind> {
        match v {
            0 => Some(MeasureKind::OneWay),
            1 => Some(MeasureKind::Request),
            2 => Some(MeasureKind::Echo),
            _ => None,
        }
    }
}

/// An overlay packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Probe request, carrying the sender's metric vector.
    ProbeReq {
        /// Random 64-bit probe identifier (§4.1).
        id: u64,
        /// Originating node.
        from: HostId,
        /// Sender's local clock at transmission, microseconds.
        sent_local_us: i64,
        /// Piggybacked link state.
        metrics: Vec<MetricEntry>,
    },
    /// Probe response, echoing the request id.
    ProbeResp {
        /// The echoed probe identifier.
        id: u64,
        /// Responding node.
        from: HostId,
        /// Responder's local clock at response time, microseconds.
        resp_local_us: i64,
        /// Piggybacked link state of the responder.
        metrics: Vec<MetricEntry>,
    },
    /// One overlay-forwarding hop: deliver `inner` to `target`.
    Forward {
        /// Final destination of the inner packet.
        target: HostId,
        /// The encapsulated packet.
        inner: Box<Packet>,
    },
    /// A measurement packet (one leg of a Table 4 probe).
    Measure {
        /// Random 64-bit probe identifier shared by both legs of a pair.
        id: u64,
        /// Method index within the experiment's method registry.
        method: u8,
        /// Leg index within the pair (0 or 1).
        leg: u8,
        /// The measured path's source.
        origin: HostId,
        /// The measured path's destination.
        target: HostId,
        /// Route kind this leg used.
        route: RouteTag,
        /// One-way, request, or echo.
        kind: MeasureKind,
        /// Sender's local clock at transmission, microseconds.
        sent_local_us: i64,
    },
    /// A standalone link-state advertisement: `origin`'s current view of
    /// its direct paths, stamped with a sequence number so receivers can
    /// discard stale or duplicate copies. Emitted by the delta
    /// dissemination mode ([`crate::dissem`]); the full-snapshot mode
    /// never sends one.
    Lsa {
        /// The node whose link state this advertises — always the node
        /// that sent the packet: nobody relays another node's LSA.
        origin: HostId,
        /// Origin's advertisement sequence number; receivers ingest only
        /// if it advances past the last seen seqno for `origin`.
        seq: u64,
        /// Whether `entries` is origin's complete vector (anti-entropy
        /// refresh) or only the entries that changed since the last
        /// acknowledged exchange.
        full: bool,
        /// The advertised per-destination metrics.
        entries: Vec<MetricEntry>,
    },
    /// Application data (used by the examples and the live demo).
    Data {
        /// Source node.
        origin: HostId,
        /// Destination node.
        target: HostId,
        /// Application stream id.
        stream: u32,
        /// Sequence number within the stream.
        seq: u32,
        /// Payload bytes.
        payload: Bytes,
    },
}

/// Decoding errors. Malformed datagrams are rejected, never panicked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Unknown packet type tag.
    BadTag(u8),
    /// A length field exceeded sanity bounds.
    BadLength(usize),
    /// A measure carried an unknown encoding version.
    BadVersion(u8),
    /// A measure's leg index was at or beyond [`MAX_PROBE_LEGS`].
    BadLeg(u8),
    /// Forwarding nesting exceeded the one-intermediate design.
    TooDeep,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadTag(t) => write!(f, "unknown packet tag {t}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::BadVersion(v) => write!(f, "unknown measure encoding version {v}"),
            WireError::BadLeg(l) => {
                write!(f, "leg index {l} out of range (max {})", MAX_PROBE_LEGS - 1)
            }
            WireError::TooDeep => write!(f, "forwarding nested too deep"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on piggybacked metric entries (a full RON mesh is ≤ 50
/// nodes; hostile lengths beyond this are rejected).
pub const MAX_METRICS: usize = 256;
/// Upper bound on data payload bytes in one packet.
pub const MAX_PAYLOAD: usize = 64 * 1024;
/// Maximum forwarding nesting (one intermediate hop ⇒ depth 2 packets).
const MAX_DEPTH: usize = 3;

const TAG_PROBE_REQ: u8 = 1;
const TAG_PROBE_RESP: u8 = 2;
const TAG_FORWARD: u8 = 3;
const TAG_MEASURE: u8 = 4;
const TAG_DATA: u8 = 5;
const TAG_LSA: u8 = 6;

fn put_metrics(buf: &mut BytesMut, metrics: &[MetricEntry]) {
    buf.put_u16(metrics.len() as u16);
    for m in metrics {
        buf.put_u16(m.peer.0);
        buf.put_u16(m.loss_e4);
        buf.put_u32(m.lat_us);
        buf.put_u8(m.alive as u8);
    }
}

fn get_metrics(buf: &mut Bytes) -> Result<Vec<MetricEntry>, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u16() as usize;
    if n > MAX_METRICS {
        return Err(WireError::BadLength(n));
    }
    if buf.remaining() < n * 9 {
        return Err(WireError::Truncated);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(MetricEntry {
            peer: HostId(buf.get_u16()),
            loss_e4: buf.get_u16(),
            lat_us: buf.get_u32(),
            alive: buf.get_u8() != 0,
        });
    }
    Ok(v)
}

impl Packet {
    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Packet::ProbeReq { id, from, sent_local_us, metrics } => {
                buf.put_u8(TAG_PROBE_REQ);
                buf.put_u64(*id);
                buf.put_u16(from.0);
                buf.put_i64(*sent_local_us);
                put_metrics(buf, metrics);
            }
            Packet::ProbeResp { id, from, resp_local_us, metrics } => {
                buf.put_u8(TAG_PROBE_RESP);
                buf.put_u64(*id);
                buf.put_u16(from.0);
                buf.put_i64(*resp_local_us);
                put_metrics(buf, metrics);
            }
            Packet::Forward { target, inner } => {
                buf.put_u8(TAG_FORWARD);
                buf.put_u16(target.0);
                inner.encode_into(buf);
            }
            Packet::Measure { id, method, leg, origin, target, route, kind, sent_local_us } => {
                debug_assert!((*leg as usize) < MAX_PROBE_LEGS, "leg {leg} exceeds the wire cap");
                buf.put_u8(TAG_MEASURE);
                buf.put_u8(MEASURE_WIRE_VERSION);
                buf.put_u64(*id);
                buf.put_u8(*method);
                buf.put_u8(*leg);
                buf.put_u16(origin.0);
                buf.put_u16(target.0);
                buf.put_u8(*route as u8);
                buf.put_u8(*kind as u8);
                buf.put_i64(*sent_local_us);
            }
            Packet::Lsa { origin, seq, full, entries } => {
                buf.put_u8(TAG_LSA);
                buf.put_u8(LSA_WIRE_VERSION);
                buf.put_u16(origin.0);
                buf.put_u64(*seq);
                buf.put_u8(*full as u8);
                put_metrics(buf, entries);
            }
            Packet::Data { origin, target, stream, seq, payload } => {
                buf.put_u8(TAG_DATA);
                buf.put_u16(origin.0);
                buf.put_u16(target.0);
                buf.put_u32(*stream);
                buf.put_u32(*seq);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload);
            }
        }
    }

    /// Decodes one packet from `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        let p = Self::decode_buf(&mut buf, 0)?;
        Ok(p)
    }

    fn decode_buf(buf: &mut Bytes, depth: usize) -> Result<Packet, WireError> {
        if depth >= MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let tag = buf.get_u8();
        match tag {
            TAG_PROBE_REQ => {
                if buf.remaining() < 8 + 2 + 8 {
                    return Err(WireError::Truncated);
                }
                let id = buf.get_u64();
                let from = HostId(buf.get_u16());
                let sent_local_us = buf.get_i64();
                let metrics = get_metrics(buf)?;
                Ok(Packet::ProbeReq { id, from, sent_local_us, metrics })
            }
            TAG_PROBE_RESP => {
                if buf.remaining() < 8 + 2 + 8 {
                    return Err(WireError::Truncated);
                }
                let id = buf.get_u64();
                let from = HostId(buf.get_u16());
                let resp_local_us = buf.get_i64();
                let metrics = get_metrics(buf)?;
                Ok(Packet::ProbeResp { id, from, resp_local_us, metrics })
            }
            TAG_FORWARD => {
                if buf.remaining() < 2 {
                    return Err(WireError::Truncated);
                }
                let target = HostId(buf.get_u16());
                let inner = Box::new(Self::decode_buf(buf, depth + 1)?);
                Ok(Packet::Forward { target, inner })
            }
            TAG_MEASURE => {
                if buf.remaining() < 1 + 8 + 1 + 1 + 2 + 2 + 1 + 1 + 8 {
                    return Err(WireError::Truncated);
                }
                let version = buf.get_u8();
                if version != MEASURE_WIRE_VERSION {
                    return Err(WireError::BadVersion(version));
                }
                let id = buf.get_u64();
                let method = buf.get_u8();
                let leg = buf.get_u8();
                if leg as usize >= MAX_PROBE_LEGS {
                    // A corrupt or hostile leg index: reject at the wire,
                    // mirroring the collector's `malformed_receives`.
                    return Err(WireError::BadLeg(leg));
                }
                let origin = HostId(buf.get_u16());
                let target = HostId(buf.get_u16());
                let tag = buf.get_u8();
                let route = RouteTag::from_u8(tag).ok_or(WireError::BadTag(tag))?;
                let kv = buf.get_u8();
                let kind = MeasureKind::from_u8(kv).ok_or(WireError::BadTag(kv))?;
                let sent_local_us = buf.get_i64();
                Ok(Packet::Measure { id, method, leg, origin, target, route, kind, sent_local_us })
            }
            TAG_DATA => {
                if buf.remaining() < 2 + 2 + 4 + 4 + 4 {
                    return Err(WireError::Truncated);
                }
                let origin = HostId(buf.get_u16());
                let target = HostId(buf.get_u16());
                let stream = buf.get_u32();
                let seq = buf.get_u32();
                let len = buf.get_u32() as usize;
                if len > MAX_PAYLOAD {
                    return Err(WireError::BadLength(len));
                }
                if buf.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let payload = buf.copy_to_bytes(len);
                Ok(Packet::Data { origin, target, stream, seq, payload })
            }
            TAG_LSA => {
                if buf.remaining() < 1 + 2 + 8 + 1 {
                    return Err(WireError::Truncated);
                }
                let version = buf.get_u8();
                if version != LSA_WIRE_VERSION {
                    return Err(WireError::BadVersion(version));
                }
                let origin = HostId(buf.get_u16());
                let seq = buf.get_u64();
                let full = buf.get_u8() != 0;
                let entries = get_metrics(buf)?;
                Ok(Packet::Lsa { origin, seq, full, entries })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Vec<MetricEntry> {
        vec![
            MetricEntry { peer: HostId(3), loss_e4: 120, lat_us: 54_130, alive: true },
            MetricEntry { peer: HostId(9), loss_e4: 0, lat_us: 2_100, alive: false },
        ]
    }

    #[test]
    fn probe_req_round_trips() {
        let p = Packet::ProbeReq {
            id: 0xDEAD_BEEF_0BAD_CAFE,
            from: HostId(7),
            sent_local_us: -1_234,
            metrics: sample_metrics(),
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn probe_resp_round_trips() {
        let p = Packet::ProbeResp {
            id: 42,
            from: HostId(0),
            resp_local_us: i64::MAX,
            metrics: Vec::new(),
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn forward_round_trips() {
        let inner = Packet::Measure {
            id: 1,
            method: 4,
            leg: 1,
            origin: HostId(2),
            target: HostId(5),
            route: RouteTag::Direct,
            kind: MeasureKind::OneWay,
            sent_local_us: 99,
        };
        let p = Packet::Forward { target: HostId(5), inner: Box::new(inner) };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn data_round_trips() {
        let p = Packet::Data {
            origin: HostId(1),
            target: HostId(2),
            stream: 77,
            seq: 1_000_000,
            payload: Bytes::from_static(b"the quick brown fox"),
        };
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn truncated_inputs_error() {
        let p = Packet::ProbeReq {
            id: 5,
            from: HostId(1),
            sent_local_us: 0,
            metrics: sample_metrics(),
        };
        let full = p.encode();
        for cut in 0..full.len() {
            let r = Packet::decode(&full[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(Packet::decode(&[200, 0, 0]), Err(WireError::BadTag(200)));
        assert_eq!(Packet::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_metric_count_rejected() {
        // ProbeReq header + metric count of u16::MAX.
        let mut raw = vec![TAG_PROBE_REQ];
        raw.extend_from_slice(&[0; 8]); // id
        raw.extend_from_slice(&[0; 2]); // from
        raw.extend_from_slice(&[0; 8]); // sent_local_us
        raw.extend_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(Packet::decode(&raw), Err(WireError::BadLength(_))));
    }

    #[test]
    fn hostile_payload_length_rejected() {
        let mut raw = vec![TAG_DATA];
        raw.extend_from_slice(&[0; 2 + 2 + 4 + 4]);
        raw.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(Packet::decode(&raw), Err(WireError::BadLength(_))));
    }

    #[test]
    fn deep_forward_nesting_rejected() {
        let mut p = Packet::Data {
            origin: HostId(0),
            target: HostId(1),
            stream: 0,
            seq: 0,
            payload: Bytes::new(),
        };
        for _ in 0..5 {
            p = Packet::Forward { target: HostId(1), inner: Box::new(p) };
        }
        assert_eq!(Packet::decode(&p.encode()), Err(WireError::TooDeep));
    }

    fn measure(leg: u8) -> Packet {
        Packet::Measure {
            id: 1,
            method: 4,
            leg,
            origin: HostId(2),
            target: HostId(5),
            route: RouteTag::Loss,
            kind: MeasureKind::OneWay,
            sent_local_us: 99,
        }
    }

    #[test]
    fn measure_round_trips_every_leg_up_to_the_cap() {
        for leg in 0..MAX_PROBE_LEGS as u8 {
            let p = measure(leg);
            assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn measure_rejects_out_of_range_leg() {
        // Encode a valid measure, then corrupt the leg byte in place
        // (tag, version, id×8, method, then leg).
        let mut raw = measure(0).encode().to_vec();
        raw[1 + 1 + 8 + 1] = MAX_PROBE_LEGS as u8;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadLeg(MAX_PROBE_LEGS as u8)));
        raw[1 + 1 + 8 + 1] = 255;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadLeg(255)));
    }

    #[test]
    fn measure_rejects_unknown_version() {
        let mut raw = measure(0).encode().to_vec();
        raw[1] = MEASURE_WIRE_VERSION + 1;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadVersion(MEASURE_WIRE_VERSION + 1)));
        raw[1] = 0;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadVersion(0)));
    }

    #[test]
    fn lsa_round_trips() {
        for (full, entries) in [(true, sample_metrics()), (false, Vec::new())] {
            let p = Packet::Lsa { origin: HostId(11), seq: u64::MAX - 3, full, entries };
            assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn lsa_rejects_unknown_version() {
        let p = Packet::Lsa { origin: HostId(1), seq: 9, full: true, entries: sample_metrics() };
        let mut raw = p.encode().to_vec();
        raw[1] = LSA_WIRE_VERSION + 1;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadVersion(LSA_WIRE_VERSION + 1)));
        raw[1] = 0;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadVersion(0)));
    }

    #[test]
    fn lsa_truncated_inputs_error() {
        let p = Packet::Lsa { origin: HostId(4), seq: 1, full: false, entries: sample_metrics() };
        let full = p.encode();
        for cut in 0..full.len() {
            assert!(Packet::decode(&full[..cut]).is_err(), "{cut}-byte prefix should fail");
        }
    }

    #[test]
    fn lsa_hostile_entry_count_rejected() {
        let mut raw = vec![TAG_LSA, LSA_WIRE_VERSION];
        raw.extend_from_slice(&[0; 2]); // origin
        raw.extend_from_slice(&[0; 8]); // seq
        raw.push(1); // full
        raw.extend_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(Packet::decode(&raw), Err(WireError::BadLength(_))));
    }

    #[test]
    fn route_tag_serde_round_trips_as_variant_names() {
        for (tag, name) in [
            (RouteTag::Direct, "\"Direct\""),
            (RouteTag::Rand, "\"Rand\""),
            (RouteTag::Lat, "\"Lat\""),
            (RouteTag::Loss, "\"Loss\""),
        ] {
            let json = serde_json::to_string(&tag).unwrap();
            assert_eq!(json, name);
            let back: RouteTag = serde_json::from_str(&json).unwrap();
            assert_eq!(back, tag);
        }
        assert!(serde_json::from_str::<RouteTag>("\"Fastest\"").is_err());
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // Cheap deterministic fuzz: feed pseudo-random byte strings.
        let mut rng = netsim::Rng::new(1234);
        for _ in 0..20_000 {
            let len = rng.below(64) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = Packet::decode(&data); // must not panic
        }
    }
}
