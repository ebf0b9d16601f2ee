//! `downlink`: one op is `phy::run_downlink_ber` over 2 000 bits at a
//! Fig. 17 point — {20, 10, 5} kbps × {0.5, 1.5, 2.1, 2.5 m}.
//!
//! Chosen because envelope synthesis and the comparator circuit are
//! nearly all of it and it touches no scene, CSI or MAC code: it is the
//! target for envelope work and the predicted no-change workload for
//! every uplink optimisation. 2 000 bits rather than 8 000: the shorter
//! op gives four times as many cycles per run, which is what keeps the
//! median steady on a shared host (at 8 000 bits the run-to-run spread
//! of `ops_per_s` was about 20 %). `sim_ber` is the raw downlink bit
//! error rate and `sim_goodput_bps` the correct bits per simulated
//! second.

use crate::trace::Tracer;
use crate::{busy_key, op_seed, Fnv, LayerMetrics, Outcome, Sim, Status, Workload};
use bs_dsp::bits::BerCounter;
use bs_dsp::SimRng;
use bs_tag::envelope::{bit_schedule, EnvelopeConfig, EnvelopeModel};
use bs_tag::receiver::{CircuitConfig, DownlinkDecoder, ReceiverCircuit};
use std::time::Instant;
use wifi_backscatter::link::DownlinkConfig;
use wifi_backscatter::phy::run_downlink_ber;

const N_BITS: usize = 2_000;
const RATES_BPS: [u64; 3] = [20_000, 10_000, 5_000];
const DISTANCES_M: [f64; 4] = [0.5, 1.5, 2.1, 2.5];

pub struct Downlink {
    seed: u64,
    points: Vec<(u64, f64)>,
}

impl Downlink {
    pub fn new(seed: u64) -> Self {
        let points = RATES_BPS
            .iter()
            .flat_map(|&r| DISTANCES_M.iter().map(move |&d| (r, d)))
            .collect();
        Downlink { seed, points }
    }

    pub fn config(&self, i: usize) -> DownlinkConfig {
        let (rate, d) = self.points[i % self.points.len()];
        DownlinkConfig::fig17(d, rate, op_seed(self.seed, i))
    }
}

/// `run_downlink_ber` rebuilt from public calls with a span around each
/// layer (fault-free configs only); returns the bit-error counter and
/// the number of envelope samples synthesised.
pub fn replay(cfg: &DownlinkConfig, n_bits: usize, t: &mut Tracer) -> (BerCounter, usize) {
    assert!(cfg.faults.is_empty());
    let root = SimRng::new(cfg.seed);
    let mut bit_rng = root.stream("dl-bits");
    let bits: Vec<bool> = (0..n_bits).map(|_| bit_rng.chance(0.5)).collect();
    let bit_us = 1_000_000 / cfg.bit_rate_bps.max(1);
    let n_samples = bits.len() * bit_us as usize + 100;
    let trace = t.time("tag.envelope", || {
        let mut env = EnvelopeModel::new(EnvelopeConfig::default(), root.stream("dl-envelope"));
        let schedule = bit_schedule(&bits, bit_us as usize, cfg.rx_mw());
        env.trace(n_samples, schedule)
    });
    let comparator = t.time("tag.receiver.circuit", || {
        ReceiverCircuit::new(CircuitConfig::default()).run(&trace)
    });
    let decoded = t.time("tag.receiver.slice", || {
        DownlinkDecoder::new(bit_us as f64, 1.0).slice_bits(&comparator, 0.0, bits.len())
    });
    let mut ber = BerCounter::new();
    ber.compare(&bits, &decoded);
    (ber, n_samples)
}

impl Workload for Downlink {
    fn configs(&self) -> usize {
        self.points.len()
    }

    fn sim_cycles(&self) -> usize {
        8
    }

    fn tail_cap(&self) -> usize {
        // About 1 400 ops per 30 s run; p95 needs 200.
        95
    }

    fn op(&self, i: usize) -> Result<Outcome, String> {
        let cfg = self.config(i);
        let run = run_downlink_ber(&cfg, N_BITS);
        if run.bits_sent != N_BITS || run.ber.bits() != N_BITS as u64 {
            return Err(format!(
                "op {i}: {} bits sent, expected {N_BITS}",
                run.bits_sent
            ));
        }
        if run.ber.errors() > run.ber.bits() || !run.degradation.is_clean() {
            return Err(format!(
                "op {i}: error count out of range or faults reported"
            ));
        }
        let bits = run.ber.bits() as f64;
        let errors = run.ber.errors() as f64;
        let bit_us = (1_000_000 / cfg.bit_rate_bps) as f64;
        Ok(Outcome {
            digest: Fnv::new()
                .eat(run.ber.errors())
                .eat(run.ber.bits())
                .finish(),
            sim: Sim {
                errors,
                units: bits,
                good_bits: bits - errors,
                sim_us: bits * bit_us,
            },
        })
    }

    fn self_checks(&self, _outcomes: &[Outcome]) -> Vec<(String, Status)> {
        Vec::new()
    }

    fn traced(&self, t: &mut Tracer, seconds: f64) -> Result<LayerMetrics, String> {
        let (mut plain_s, mut traced_s, mut samples) = (0.0, 0.0, 0usize);
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            let cfg = self.config(i);
            let t0 = Instant::now();
            std::hint::black_box(run_downlink_ber(&cfg, N_BITS));
            plain_s += t0.elapsed().as_secs_f64();

            t.set_op(i as u64);
            let root = t.enter("downlink.op");
            let (ber, n) = replay(&cfg, N_BITS, t);
            t.exit(root);
            traced_s += t.duration_ns(root) as f64 / 1e9;
            let run = t.time("core.phy.run_downlink_ber", || {
                run_downlink_ber(&cfg, N_BITS)
            });
            if ber != run.ber {
                return Err(format!(
                    "op {i}: replay counted {} errors, run_downlink_ber {}",
                    ber.errors(),
                    run.ber.errors()
                ));
            }
            samples += n;
            i += 1;
        }
        let totals = t.totals();
        let busy = |n: &str| totals.get(n).map_or(0.0, |x| x.busy_ns as f64 / 1e9);
        let mut m = LayerMetrics::new();
        for name in [
            "tag.envelope",
            "tag.receiver.circuit",
            "tag.receiver.slice",
            "core.phy.run_downlink_ber",
        ] {
            m.insert(busy_key(name), busy(name));
        }
        m.insert(
            "tag.envelope.ns_per_sample",
            1e9 * busy("tag.envelope") / samples as f64,
        );
        m.insert("trace.overhead_ratio", traced_s / plain_s);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced replay must count exactly the errors the entry point
    /// counts.
    #[test]
    fn replay_matches_run_downlink_ber() {
        let w = Downlink::new(7);
        for i in 0..w.configs() {
            let cfg = w.config(i);
            let (ber, _) = replay(&cfg, 2_000, &mut Tracer::new());
            assert_eq!(ber, run_downlink_ber(&cfg, 2_000).ber, "op {i}");
        }
    }
}
