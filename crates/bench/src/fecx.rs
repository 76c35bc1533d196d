//! The §5.2 FEC-over-correlated-loss experiment.
//!
//! A constant-rate packet stream (interactive-application style) crosses
//! a single bursty path modelled by the same Gilbert–Elliott process the
//! testbed segments use. A (k, r) Reed–Solomon code protects the stream;
//! a block interleaver of varying depth spreads each group over time.
//! The sweep shows the §5.2 trade-off: only once consecutive group
//! packets are ~0.5 s apart does the burst correlation die away — which
//! is exactly the latency an interactive flow cannot afford.

use fec::{BlockInterleaver, FecPacket, FecReceiver, FecSender};
use netsim::{GeParams, GilbertElliott, Rng, SimDuration, SimTime};

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct FecSweepConfig {
    /// Data shards per group (paper example: 5).
    pub k: usize,
    /// Parity shards per group (paper example: 1).
    pub r: usize,
    /// Time between transmitted packets.
    pub packet_interval: SimDuration,
    /// Path loss process.
    pub loss: GeParams,
    /// Number of data packets per depth point.
    pub packets: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for FecSweepConfig {
    fn default() -> Self {
        FecSweepConfig {
            k: 5,
            r: 1,
            // 50 packets/s — a voice-like interactive stream.
            packet_interval: SimDuration::from_millis(20),
            loss: GeParams::from_stationary_loss(0.02),
            packets: 200_000,
            seed: 42,
        }
    }
}

/// One point of the interleaving sweep.
#[derive(Debug, Clone, Copy)]
pub struct FecPoint {
    /// Interleaver depth (1 = none).
    pub depth: usize,
    /// Raw path loss observed (before FEC).
    pub raw_loss: f64,
    /// Residual data loss after FEC.
    pub residual_loss: f64,
    /// Spacing between a group's consecutive packets, milliseconds.
    pub spread_ms: f64,
    /// Worst-case buffering delay the interleaver adds, milliseconds.
    pub added_delay_ms: f64,
}

/// Runs the sweep over the given interleaver depths.
pub fn fec_sweep(cfg: &FecSweepConfig, depths: &[usize]) -> Vec<FecPoint> {
    depths.iter().map(|&d| run_depth(cfg, d)).collect()
}

fn run_depth(cfg: &FecSweepConfig, depth: usize) -> FecPoint {
    let group_len = cfg.k + cfg.r;
    let il = BlockInterleaver::new(group_len, depth);
    let block = il.len();
    let mut ge = GilbertElliott::new(cfg.loss);
    let mut rng = Rng::new(cfg.seed ^ depth as u64);
    let mut tx = FecSender::new(cfg.k, cfg.r).expect("valid geometry");
    let mut rx = FecReceiver::new(cfg.k, cfg.r, depth as u32 + 4).expect("valid geometry");

    let mut slot_buffer: Vec<Option<FecPacket>> = Vec::with_capacity(block);
    let mut slot_index: u64 = 0;
    let mut sent: u64 = 0;
    let mut dropped: u64 = 0;

    let flush =
        |buf: &mut Vec<Option<FecPacket>>, rx: &mut FecReceiver, slot_index: &mut u64,
         dropped: &mut u64, sent: &mut u64, ge: &mut GilbertElliott, rng: &mut Rng| {
            // Transmit one full interleaver block in permuted order.
            debug_assert_eq!(buf.len(), block);
            let mut wire: Vec<Option<FecPacket>> = vec![None; block];
            for (logical, pkt) in buf.drain(..).enumerate() {
                wire[il.permute(logical)] = pkt;
            }
            for pkt in wire {
                let t = SimTime::from_micros(*slot_index * cfg.packet_interval.as_micros());
                *slot_index += 1;
                *sent += 1;
                let (_, lost) = ge.observe(t, 1.0, rng);
                if lost {
                    *dropped += 1;
                    rx.on_slot(None);
                } else {
                    rx.on_slot(pkt);
                }
            }
        };

    for i in 0..cfg.packets {
        for pkt in tx.push(vec![(i % 251) as u8; 32]).expect("encode") {
            slot_buffer.push(Some(pkt));
            if slot_buffer.len() == block {
                flush(
                    &mut slot_buffer,
                    &mut rx,
                    &mut slot_index,
                    &mut dropped,
                    &mut sent,
                    &mut ge,
                    &mut rng,
                );
            }
        }
    }
    // Close the sender's open group, then pad the final partial
    // interleaver block so it still transmits.
    for pkt in tx.flush().expect("flush") {
        slot_buffer.push(Some(pkt));
        if slot_buffer.len() == block {
            flush(
                &mut slot_buffer,
                &mut rx,
                &mut slot_index,
                &mut dropped,
                &mut sent,
                &mut ge,
                &mut rng,
            );
        }
    }
    while !slot_buffer.is_empty() && slot_buffer.len() < block {
        slot_buffer.push(None);
        if slot_buffer.len() == block {
            flush(
                &mut slot_buffer,
                &mut rx,
                &mut slot_index,
                &mut dropped,
                &mut sent,
                &mut ge,
                &mut rng,
            );
        }
    }

    let stats = rx.finish(tx.groups());
    FecPoint {
        depth,
        raw_loss: dropped as f64 / sent as f64,
        residual_loss: stats.residual_loss(),
        spread_ms: depth as f64 * cfg.packet_interval.as_millis_f64(),
        added_delay_ms: il.max_delay_slots() as f64 * cfg.packet_interval.as_millis_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FecSweepConfig {
        FecSweepConfig { packets: 60_000, ..FecSweepConfig::default() }
    }

    #[test]
    fn deeper_interleaving_reduces_residual_loss() {
        let cfg = small_cfg();
        let pts = fec_sweep(&cfg, &[1, 4, 16, 32]);
        assert_eq!(pts.len(), 4);
        let shallow = pts[0].residual_loss;
        let deep = pts[3].residual_loss;
        assert!(
            deep < shallow * 0.55,
            "depth 32 ({deep:.5}) must beat depth 1 ({shallow:.5})"
        );
        // Raw loss is depth-independent (same channel statistics).
        for p in &pts {
            assert!((p.raw_loss - pts[0].raw_loss).abs() < 0.01, "raw {p:?}");
        }
    }

    #[test]
    fn delay_grows_linearly_with_depth() {
        let cfg = small_cfg();
        let pts = fec_sweep(&cfg, &[1, 8]);
        assert!(pts[1].added_delay_ms > 5.0 * pts[0].added_delay_ms);
        // §5.2: reaching ~0.5 s spread at 20 ms packets needs depth ~25.
        assert!((pts[1].spread_ms - 160.0).abs() < 1e-9);
    }

    #[test]
    fn fec_always_improves_on_raw() {
        let cfg = small_cfg();
        for p in fec_sweep(&cfg, &[1, 2, 8]) {
            assert!(p.residual_loss <= p.raw_loss, "{p:?}");
        }
    }
}
