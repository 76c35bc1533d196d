//! The §5.2 FEC-over-correlated-loss experiment.
//!
//! A constant-rate packet stream (interactive-application style) crosses
//! a single bursty path modelled by the same Gilbert–Elliott process the
//! testbed segments use. A (k, r) Reed–Solomon code protects the stream;
//! a block interleaver of varying depth spreads each group over time.
//! The sweep shows the §5.2 trade-off: only once consecutive group
//! packets are ~0.5 s apart does the burst correlation die away — which
//! is exactly the latency an interactive flow cannot afford.
//!
//! No codec runs. The code is taken to be MDS (maximum distance
//! separable, as a Reed–Solomon code is): any k of a group's k+r
//! packets restore its k data packets, so a group is recovered iff at
//! most r of them are lost. Residual loss depends on the erasure pattern
//! alone, and the sweep counts each group's losses instead of encoding
//! and decoding payloads.

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
    let (k, n) = (cfg.k, cfg.k + cfg.r);
    // The last group is padded with data shards that count as sent.
    let groups = cfg.packets.div_ceil(k);
    let mut ge = GilbertElliott::new(cfg.loss);
    let mut rng = Rng::new(cfg.seed ^ depth as u64);
    let mut slot: u64 = 0;
    let mut dropped: u64 = 0;
    let mut unrecoverable: u64 = 0;
    let mut lost = vec![false; depth * n];

    // One interleaver block is `depth` groups sent shard-major: shard s
    // of every group before shard s+1 of any, so a group's consecutive
    // shards are `depth` slots apart. A last block the groups do not
    // fill still spends its empty slots on the path.
    for first in (0..groups).step_by(depth) {
        for s in 0..n {
            for g in 0..depth {
                let t = SimTime::from_micros(slot * cfg.packet_interval.as_micros());
                slot += 1;
                let (_, erased) = ge.observe(t, 1.0, &mut rng);
                dropped += erased as u64;
                lost[g * n + s] = erased;
            }
        }
        // A group that lost more than r shards is not recovered: its lost
        // data shards are residual loss.
        for lost in lost.chunks(n).take(groups - first) {
            if lost.iter().filter(|&&l| l).count() > cfg.r {
                unrecoverable += lost[..k].iter().filter(|&&l| l).count() as u64;
            }
        }
    }

    FecPoint {
        depth,
        raw_loss: dropped as f64 / slot as f64,
        residual_loss: unrecoverable as f64 / (groups * k).max(1) as f64,
        spread_ms: depth as f64 * cfg.packet_interval.as_millis_f64(),
        // A shard waits at most one block for the rest of its group.
        added_delay_ms: (depth * n - 1) as f64 * cfg.packet_interval.as_millis_f64(),
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

    /// Pins the sweep to the bit, so a rewrite of the transmit loop that
    /// moves a slot, an RNG draw or a residual count shows here. The
    /// second row has a padded last group, short last blocks and r = 2.
    #[test]
    fn sweep_values_are_pinned() {
        let rows = [
            (
                small_cfg(),
                [
                    (1, 0.01951388888888889, 0.0172),
                    (8, 0.020194444444444445, 0.015583333333333333),
                    (32, 0.018916666666666665, 0.008433333333333333),
                ],
            ),
            (
                FecSweepConfig { k: 4, r: 2, packets: 12_345, ..FecSweepConfig::default() },
                [
                    (1, 0.015873015873015872, 0.01239067055393586),
                    (5, 0.02982740021574973, 0.021865889212827987),
                    (32, 0.01600085910652921, 0.0008098477486232588),
                ],
            ),
        ];
        for (cfg, want) in rows {
            let depths = want.map(|(d, _, _)| d);
            let got: Vec<(usize, f64, f64)> = fec_sweep(&cfg, &depths)
                .iter()
                .map(|p| (p.depth, p.raw_loss, p.residual_loss))
                .collect();
            assert_eq!(got, want, "k {} r {} packets {}", cfg.k, cfg.r, cfg.packets);
        }
    }

    #[test]
    fn fec_always_improves_on_raw() {
        let cfg = small_cfg();
        for p in fec_sweep(&cfg, &[1, 2, 8]) {
            assert!(p.residual_loss <= p.raw_loss, "{p:?}");
        }
    }
}
