//! The overlay wire format.
//!
//! A compact binary encoding used by the live UDP driver; inside the
//! simulator packets travel as the decoded [`Packet`] enum for speed, and
//! round-trip property tests keep the two representations equivalent.
//!
//! Layout: a one-byte type tag followed by fixed-width big-endian fields.
//! Metric vectors (the piggybacked link state) are length-prefixed. One
//! datagram holds exactly one packet: bytes after it are
//! [`WireError::Trailing`]. The decoder never panics on malformed input,
//! by construction — it reads the datagram in place through a cursor
//! whose every read returns [`WireError::Truncated`] past the end, and
//! hostile lengths are rejected before anything is allocated.

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
        payload: Vec<u8>,
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
    /// This many bytes followed a complete packet.
    Trailing(usize),
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
            WireError::Trailing(n) => write!(f, "{n} bytes after the packet"),
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

/// Bytes of one encoded [`MetricEntry`].
const METRIC_BYTES: u64 = 2 + 2 + 4 + 1;
/// Bytes of an encoded [`Packet::Lsa`] around its entries: tag, version,
/// origin, seq, full flag and the entry count.
const LSA_HEADER_BYTES: u64 = 1 + 1 + 2 + 8 + 1 + 2;

fn put_metrics(buf: &mut Vec<u8>, metrics: &[MetricEntry]) {
    debug_assert!(metrics.len() <= MAX_METRICS, "{} metrics exceed the wire cap", metrics.len());
    buf.extend((metrics.len() as u16).to_be_bytes());
    for m in metrics {
        buf.extend(m.peer.0.to_be_bytes());
        buf.extend(m.loss_e4.to_be_bytes());
        buf.extend(m.lat_us.to_be_bytes());
        buf.push(m.alive as u8);
    }
}

/// A cursor over a datagram, read in place. Every read is checked:
/// past the end is [`WireError::Truncated`], never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(len).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        self.array().map(i64::from_be_bytes)
    }

    fn host(&mut self) -> Result<HostId, WireError> {
        self.u16().map(HostId)
    }

    fn metrics(&mut self) -> Result<Vec<MetricEntry>, WireError> {
        let n = self.u16()? as usize;
        if n > MAX_METRICS {
            return Err(WireError::BadLength(n));
        }
        // Take the whole vector's bytes first, so a count the datagram
        // cannot back allocates nothing.
        let mut r = Reader(self.bytes(n * METRIC_BYTES as usize)?);
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(MetricEntry {
                peer: r.host()?,
                loss_e4: r.u16()?,
                lat_us: r.u32()?,
                alive: r.u8()? != 0,
            });
        }
        Ok(v)
    }
}

impl Packet {
    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Packet::ProbeReq { id, from, sent_local_us, metrics } => {
                buf.push(TAG_PROBE_REQ);
                buf.extend(id.to_be_bytes());
                buf.extend(from.0.to_be_bytes());
                buf.extend(sent_local_us.to_be_bytes());
                put_metrics(buf, metrics);
            }
            Packet::ProbeResp { id, from, resp_local_us, metrics } => {
                buf.push(TAG_PROBE_RESP);
                buf.extend(id.to_be_bytes());
                buf.extend(from.0.to_be_bytes());
                buf.extend(resp_local_us.to_be_bytes());
                put_metrics(buf, metrics);
            }
            Packet::Forward { target, inner } => {
                buf.push(TAG_FORWARD);
                buf.extend(target.0.to_be_bytes());
                inner.encode_into(buf);
            }
            Packet::Measure { id, method, leg, origin, target, route, kind, sent_local_us } => {
                debug_assert!((*leg as usize) < MAX_PROBE_LEGS, "leg {leg} exceeds the wire cap");
                buf.extend([TAG_MEASURE, MEASURE_WIRE_VERSION]);
                buf.extend(id.to_be_bytes());
                buf.extend([*method, *leg]);
                buf.extend(origin.0.to_be_bytes());
                buf.extend(target.0.to_be_bytes());
                buf.extend([*route as u8, *kind as u8]);
                buf.extend(sent_local_us.to_be_bytes());
            }
            Packet::Lsa { origin, seq, full, entries } => {
                buf.extend([TAG_LSA, LSA_WIRE_VERSION]);
                buf.extend(origin.0.to_be_bytes());
                buf.extend(seq.to_be_bytes());
                buf.push(*full as u8);
                put_metrics(buf, entries);
            }
            Packet::Data { origin, target, stream, seq, payload } => {
                buf.push(TAG_DATA);
                buf.extend(origin.0.to_be_bytes());
                buf.extend(target.0.to_be_bytes());
                buf.extend(stream.to_be_bytes());
                buf.extend(seq.to_be_bytes());
                buf.extend((payload.len() as u32).to_be_bytes());
                buf.extend_from_slice(payload);
            }
        }
    }

    /// What the link state this packet carries costs on the wire, as
    /// `(bytes, entries)`: a probe's non-empty metric vector with its
    /// count prefix, or a whole LSA. `None` for every other packet.
    #[inline]
    pub fn link_state_cost(&self) -> Option<(u64, u64)> {
        let (header, entries) = match self {
            Packet::ProbeReq { metrics, .. } | Packet::ProbeResp { metrics, .. }
                if !metrics.is_empty() =>
            {
                (2, metrics.len() as u64)
            }
            Packet::Lsa { entries, .. } => (LSA_HEADER_BYTES, entries.len() as u64),
            _ => return None,
        };
        Some((header + METRIC_BYTES * entries, entries))
    }

    /// Decodes the one packet `bytes` holds.
    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        let mut r = Reader(bytes);
        let p = Self::read(&mut r, 0)?;
        match r.0.len() {
            0 => Ok(p),
            n => Err(WireError::Trailing(n)),
        }
    }

    fn read(r: &mut Reader<'_>, depth: usize) -> Result<Packet, WireError> {
        if depth >= MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match r.u8()? {
            TAG_PROBE_REQ => Ok(Packet::ProbeReq {
                id: r.u64()?,
                from: r.host()?,
                sent_local_us: r.i64()?,
                metrics: r.metrics()?,
            }),
            TAG_PROBE_RESP => Ok(Packet::ProbeResp {
                id: r.u64()?,
                from: r.host()?,
                resp_local_us: r.i64()?,
                metrics: r.metrics()?,
            }),
            TAG_FORWARD => Ok(Packet::Forward {
                target: r.host()?,
                inner: Box::new(Self::read(r, depth + 1)?),
            }),
            TAG_MEASURE => {
                let version = r.u8()?;
                if version != MEASURE_WIRE_VERSION {
                    return Err(WireError::BadVersion(version));
                }
                let id = r.u64()?;
                let method = r.u8()?;
                let leg = r.u8()?;
                if leg as usize >= MAX_PROBE_LEGS {
                    // A corrupt or hostile leg index: reject at the wire,
                    // mirroring the collector's `malformed_receives`.
                    return Err(WireError::BadLeg(leg));
                }
                let origin = r.host()?;
                let target = r.host()?;
                let tag = r.u8()?;
                let route = RouteTag::from_u8(tag).ok_or(WireError::BadTag(tag))?;
                let kv = r.u8()?;
                let kind = MeasureKind::from_u8(kv).ok_or(WireError::BadTag(kv))?;
                let sent_local_us = r.i64()?;
                Ok(Packet::Measure { id, method, leg, origin, target, route, kind, sent_local_us })
            }
            TAG_DATA => {
                let origin = r.host()?;
                let target = r.host()?;
                let stream = r.u32()?;
                let seq = r.u32()?;
                let len = r.u32()? as usize;
                if len > MAX_PAYLOAD {
                    return Err(WireError::BadLength(len));
                }
                let payload = r.bytes(len)?.to_vec();
                Ok(Packet::Data { origin, target, stream, seq, payload })
            }
            TAG_LSA => {
                let version = r.u8()?;
                if version != LSA_WIRE_VERSION {
                    return Err(WireError::BadVersion(version));
                }
                Ok(Packet::Lsa {
                    origin: r.host()?,
                    seq: r.u64()?,
                    full: r.u8()? != 0,
                    entries: r.metrics()?,
                })
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
            payload: b"the quick brown fox".to_vec(),
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
            assert_eq!(r, Err(WireError::Truncated), "decode of {cut}-byte prefix should fail");
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
            payload: Vec::new(),
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
        let mut raw = measure(0).encode();
        raw[1 + 1 + 8 + 1] = MAX_PROBE_LEGS as u8;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadLeg(MAX_PROBE_LEGS as u8)));
        raw[1 + 1 + 8 + 1] = 255;
        assert_eq!(Packet::decode(&raw), Err(WireError::BadLeg(255)));
    }

    #[test]
    fn measure_rejects_unknown_version() {
        let mut raw = measure(0).encode();
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
        let mut raw = p.encode();
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
            assert_eq!(
                Packet::decode(&full[..cut]),
                Err(WireError::Truncated),
                "{cut}-byte prefix should fail"
            );
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
    fn encoding_is_pinned_for_every_variant() {
        let m = |kind| Packet::Measure {
            id: 0x0102_0304_0506_0708,
            method: 4,
            leg: 1,
            origin: HostId(2),
            target: HostId(5),
            route: RouteTag::Lat,
            kind,
            sent_local_us: -2,
        };
        let (id, from, metrics) = (7, HostId(3), sample_metrics());
        let data = b"hi".to_vec();
        // Field by field (the spaces are for reading): tag, then the
        // variant's fields in declaration order; a metric vector is a u16
        // count of 9-byte entries (peer u16, loss_e4 u16, lat_us u32,
        // alive u8).
        const METRICS: &str = "0002 0003 0078 0000d372 01 0009 0000 00000834 00";
        const MEASURE: &str = "04 02 0102030405060708 04 01 0002 0005 02";
        let cases = [
            (
                Packet::ProbeReq { id, from, sent_local_us: -2, metrics: metrics.clone() },
                format!("01 0000000000000007 0003 fffffffffffffffe {METRICS}"),
            ),
            (
                Packet::ProbeResp { id, from, resp_local_us: 1_000, metrics: Vec::new() },
                "02 0000000000000007 0003 00000000000003e8 0000".to_string(),
            ),
            (
                Packet::Forward { target: HostId(9), inner: Box::new(m(MeasureKind::OneWay)) },
                format!("03 0009 {MEASURE} 00 fffffffffffffffe"),
            ),
            (m(MeasureKind::OneWay), format!("{MEASURE} 00 fffffffffffffffe")),
            (m(MeasureKind::Request), format!("{MEASURE} 01 fffffffffffffffe")),
            (m(MeasureKind::Echo), format!("{MEASURE} 02 fffffffffffffffe")),
            (
                Packet::Lsa { origin: HostId(11), seq: 9, full: true, entries: metrics },
                format!("06 01 000b 0000000000000009 01 {METRICS}"),
            ),
            (
                Packet::Data { origin: HostId(1), target: from, stream: 77, seq: 2, payload: data },
                "05 0001 0003 0000004d 00000002 00000002 6869".to_string(),
            ),
        ];
        for (p, hex) in cases {
            let got: String = p.encode().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex.replace(' ', ""), "{p:?}");
        }
    }

    #[test]
    fn link_state_cost_is_what_encode_spends_on_link_state() {
        let probes: [fn(Vec<MetricEntry>) -> Packet; 2] = [
            |metrics| Packet::ProbeReq { id: 1, from: HostId(2), sent_local_us: 3, metrics },
            |metrics| Packet::ProbeResp { id: 1, from: HostId(2), resp_local_us: 3, metrics },
        ];
        for metrics in [Vec::new(), sample_metrics()] {
            let n = metrics.len() as u64;
            let lsa =
                Packet::Lsa { origin: HostId(1), seq: 2, full: false, entries: metrics.clone() };
            assert_eq!(lsa.link_state_cost(), Some((lsa.encode().len() as u64, n)));
            for probe in probes {
                let bare = probe(Vec::new()).encode().len();
                let p = probe(metrics.clone());
                let bytes = (p.encode().len() - bare + 2) as u64;
                assert_eq!(p.link_state_cost(), (n > 0).then_some((bytes, n)));
            }
        }
        assert_eq!(measure(0).link_state_cost(), None);
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
