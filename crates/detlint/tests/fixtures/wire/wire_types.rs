//! Fixture: a miniature wire surface for manifest-extraction tests —
//! one derived struct, one derived enum, one hand-written impl, one
//! version constant. The integration tests extract this with custom
//! specs and seed drifted goldens against it.

/// Governing version for the derived toy types.
pub const TOY_WIRE_VERSION: u32 = 2;

#[derive(Serialize, Deserialize)]
pub struct ToyCounters {
    /// Packets offered.
    pub sent: u64,
    /// Packets that arrived.
    pub received: u64,
}

#[derive(Serialize, Deserialize)]
pub enum ToyMsg {
    Hello { proto: u32, build: String },
    Ping,
    Data(u64, u32),
}

pub struct ToyAccum {
    count: u64,
    sum: f64,
}

impl serde::Serialize for ToyAccum {
    fn serialize(&self, out: &mut String) {
        let mut m = serde::MapWriter::new(out);
        m.field("v", &WireVersion::<1>);
        m.field("count", &self.count);
        serde::write_seq(m.key("sum"), [self.sum]);
        m.end();
    }
}
