//! `uplink`: one op is `phy::run_uplink` at a Fig. 10 operating point —
//! CSI and RSSI × {30, 50, 65 cm} × {3, 5, 10, 30} packets/bit at
//! 100 bps with the 90-bit payload.
//!
//! Chosen because capture synthesis (scene snapshots and CSI
//! quantisation) dominates it, so snapshot caching and CSI work show
//! here first; the RSSI half catches a change that speeds CSI up while
//! slowing RSSI down. `sim_ber` is the decoded bit error rate (erasures
//! count as errors) and `sim_goodput_bps` the correctly decoded payload
//! bits per simulated second of exchange.

use crate::trace::Tracer;
use crate::{busy_key, op_seed, Fnv, LayerMetrics, Outcome, Sim, Status, Workload};
use bs_dsp::SimRng;
use bs_tag::frame::UplinkFrame;
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_wifi::mac::{Medium, Station};
use bs_wifi::ofdm::csi_subchannel_offsets;
use bs_wifi::{CsiExtractor, RssiExtractor};
use std::time::Instant;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::series::SeriesBundle;
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};

const BIT_RATE_BPS: u64 = 100;
const DISTANCES_M: [f64; 3] = [0.30, 0.50, 0.65];
const PKTS_PER_BIT: [u32; 4] = [3, 5, 10, 30];
/// Lead-in before (and after) the tag's frame in every capture (µs).
const LEAD_US: u64 = 600_000;

pub struct Uplink {
    seed: u64,
    points: Vec<(Measurement, f64, u32)>,
}

impl Uplink {
    pub fn new(seed: u64) -> Self {
        let mut points = Vec::new();
        for m in [Measurement::Csi, Measurement::Rssi] {
            for d in DISTANCES_M {
                for ppb in PKTS_PER_BIT {
                    points.push((m, d, ppb));
                }
            }
        }
        Uplink { seed, points }
    }

    pub fn config(&self, i: usize) -> LinkConfig {
        let (m, d, ppb) = self.points[i % self.points.len()];
        LinkConfig::fig10(d, BIT_RATE_BPS, ppb, op_seed(self.seed, i)).with_measurement(m)
    }
}

fn decoder_config(cfg: &LinkConfig) -> UplinkDecoderConfig {
    match cfg.measurement {
        Measurement::Csi => UplinkDecoderConfig::csi(cfg.chip_rate_cps, cfg.payload.len()),
        Measurement::Rssi => UplinkDecoderConfig::rssi(cfg.chip_rate_cps, cfg.payload.len()),
    }
}

/// What the traced replay of one op produced.
pub struct Replay {
    pub bundle: SeriesBundle,
    pub decoded: Vec<Option<bool>>,
    pub detected: bool,
    pub transmissions: u64,
    pub collided: u64,
}

/// `capture_uplink` followed by the plain decode, rebuilt from public
/// calls with a span around each (for fault-free, single-chip configs,
/// which is every config of this workload).
pub fn replay(cfg: &LinkConfig, t: &mut Tracer) -> Replay {
    assert!(cfg.code_length == 1 && cfg.faults.is_empty() && cfg.background.is_empty());
    let root = SimRng::new(cfg.seed);
    let frame = UplinkFrame::new(cfg.payload.clone());
    let chip_us = 1_000_000 / cfg.chip_rate_cps;
    let frame_span_us = frame.to_bits().len() as u64 * chip_us;
    let duration_us = LEAD_US + frame_span_us + LEAD_US;

    let arrivals = t.time("wifi.traffic", || {
        bs_wifi::traffic::cbr(
            cfg.helper_pps,
            duration_us,
            &mut root.stream("helper-traffic"),
        )
    });
    let stations = [Station::data(arrivals, 1000, 54.0)];
    let (timeline, _) = t.time("wifi.mac", || {
        Medium::new(Default::default(), root.stream("mac")).simulate(&stations, duration_us)
    });
    let collided = timeline.iter().filter(|x| x.collided).count() as u64;
    let packets: Vec<_> = timeline
        .iter()
        .filter(|x| !x.collided && x.frame.src == 0)
        .map(|x| x.frame)
        .collect();

    let modulator =
        Modulator::from_chip_rate(&frame, cfg.chip_rate_cps, UplinkMode::Plain, LEAD_US);
    let mut scene = t.time("channel.scene_new", || {
        bs_channel::scene::Scene::new(cfg.scene.clone(), &root.stream("scene"))
    });
    let offsets = csi_subchannel_offsets();
    let mut channel = |t: &mut Tracer, ts: u64| {
        let state = t.time("tag.modulator", || modulator.state_at(ts));
        t.time("channel.snapshot", || {
            scene.snapshot(ts as f64 / 1e6, state, &offsets)
        })
    };
    let bundle = match cfg.measurement {
        Measurement::Csi => {
            let mut ex = CsiExtractor::new(Default::default(), root.stream("csi"));
            let ms: Vec<_> = packets
                .iter()
                .map(|p| {
                    let snap = channel(t, p.timestamp_us);
                    t.time("wifi.csi", || ex.measure(&snap, p.timestamp_us))
                })
                .collect();
            t.time("core.series.bundle", || SeriesBundle::from_csi(&ms))
        }
        Measurement::Rssi => {
            let mut ex = RssiExtractor::new(root.stream("rssi"));
            let ms: Vec<_> = packets
                .iter()
                .map(|p| {
                    let snap = channel(t, p.timestamp_us);
                    t.time("wifi.rssi", || ex.measure(&snap, p.timestamp_us))
                })
                .collect();
            t.time("core.series.bundle", || SeriesBundle::from_rssi(&ms))
        }
    };
    let out = t.time("core.uplink.decode", || {
        UplinkDecoder::new(decoder_config(cfg)).decode(&bundle, LEAD_US)
    });
    let (decoded, detected) = match out {
        Some(o) => (o.bits, true),
        None => (vec![None; cfg.payload.len()], false),
    };
    Replay {
        bundle,
        decoded,
        detected,
        transmissions: timeline.len() as u64,
        collided,
    }
}

fn bit_code(b: Option<bool>) -> u64 {
    match b {
        None => 2,
        Some(v) => u64::from(v),
    }
}

impl Workload for Uplink {
    fn configs(&self) -> usize {
        self.points.len()
    }

    fn sim_cycles(&self) -> usize {
        4
    }

    fn tail_cap(&self) -> usize {
        // About 200 ops per 30 s run; p90 needs 100.
        90
    }

    fn op(&self, i: usize) -> Result<Outcome, String> {
        let cfg = self.config(i);
        let run = run_uplink(&cfg);
        if run.transmitted != cfg.payload || run.decoded.len() != cfg.payload.len() {
            return Err(format!(
                "op {i}: decoded frame does not match the payload shape"
            ));
        }
        if run.ber.bits() != cfg.payload.len() as u64 || run.ber.errors() > run.ber.bits() {
            return Err(format!("op {i}: BER counter out of range"));
        }
        if !run.detected && run.decoded.iter().any(|b| b.is_some()) {
            return Err(format!("op {i}: undetected frame carries bits"));
        }
        let mut h = Fnv::new();
        for &b in &run.decoded {
            h.eat(bit_code(b));
        }
        h.eat(run.ber.errors())
            .eat(u64::from(run.detected))
            .eat(run.packets_used as u64)
            .eat(run.elapsed_us);
        let bits = run.ber.bits() as f64;
        let errors = run.ber.errors() as f64;
        Ok(Outcome {
            digest: h.finish(),
            sim: Sim {
                errors,
                units: bits,
                good_bits: bits - errors,
                sim_us: run.elapsed_us as f64,
            },
        })
    }

    fn self_checks(&self, _outcomes: &[Outcome]) -> Vec<(String, Status)> {
        // The streaming decoder against the straight-line oracle, on the
        // sparsest CSI and RSSI points of the first cycle (the oracle is
        // quadratic in packets).
        let sampled = [0usize, PKTS_PER_BIT.len() * DISTANCES_M.len()];
        sampled
            .iter()
            .map(|&i| {
                let cfg = self.config(i);
                let cap = capture_uplink(&cfg);
                let dec = UplinkDecoder::new(decoder_config(&cfg));
                let fast = dec.decode(&cap.bundle, cap.start_us);
                let oracle = dec.decode_reference(&cap.bundle, cap.start_us);
                let status = if fast == oracle {
                    Status::Pass
                } else {
                    Status::Fail("decode differs from decode_reference".to_string())
                };
                (format!("op {i}: decode equals decode_reference"), status)
            })
            .collect()
    }

    fn traced(&self, t: &mut Tracer, seconds: f64) -> Result<LayerMetrics, String> {
        let mut plain_s = 0.0;
        let mut traced_s = 0.0;
        let (mut tx, mut coll, mut detected) = (0u64, 0u64, 0u64);
        let start = Instant::now();
        let mut i = 0;
        // Half the budget: the layers below take the rest.
        while i == 0 || start.elapsed().as_secs_f64() < seconds / 2.0 {
            let cfg = self.config(i);
            let t0 = Instant::now();
            std::hint::black_box(run_uplink(&cfg));
            plain_s += t0.elapsed().as_secs_f64();

            t.set_op(i as u64);
            let root = t.enter("uplink.op");
            let r = replay(&cfg, t);
            t.exit(root);
            traced_s += t.duration_ns(root) as f64 / 1e9;
            let cap = t.time("core.link.capture", || capture_uplink(&cfg));
            let run = t.time("core.phy.run_uplink", || run_uplink(&cfg));
            if r.bundle != cap.bundle {
                return Err(format!(
                    "op {i}: replayed bundle differs from capture_uplink"
                ));
            }
            if r.decoded != run.decoded || r.detected != run.detected {
                return Err(format!("op {i}: replayed decode differs from run_uplink"));
            }
            tx += r.transmissions;
            coll += r.collided;
            detected += u64::from(r.detected);
            i += 1;
        }
        let totals = t.totals();
        let busy = |n: &str| totals.get(n).map_or(0.0, |x| x.busy_ns as f64 / 1e9);
        let calls = |n: &str| totals.get(n).map_or(0, |x| x.calls) as f64;
        let per_call_us = |n: &str| 1e6 * busy(n) / calls(n).max(1.0);
        let mut m = LayerMetrics::new();
        for name in [
            "wifi.traffic",
            "wifi.mac",
            "channel.scene_new",
            "tag.modulator",
            "channel.snapshot",
            "wifi.csi",
            "wifi.rssi",
            "core.series.bundle",
            "core.uplink.decode",
            "core.link.capture",
            "core.phy.run_uplink",
        ] {
            m.insert(busy_key(name), busy(name));
        }
        m.insert("wifi.mac.transmissions", tx as f64);
        m.insert("wifi.mac.collided_ratio", coll as f64 / tx.max(1) as f64);
        m.insert("channel.snapshot.calls", calls("channel.snapshot"));
        m.insert(
            "channel.snapshot.us_per_call",
            per_call_us("channel.snapshot"),
        );
        m.insert("wifi.csi.us_per_packet", per_call_us("wifi.csi"));
        m.insert("wifi.rssi.us_per_packet", per_call_us("wifi.rssi"));
        m.insert(
            "core.uplink.decode.us_per_packet",
            1e6 * busy("core.uplink.decode") / calls("channel.snapshot").max(1.0),
        );
        m.insert("core.uplink.detected_ratio", detected as f64 / i as f64);
        // The link, ARQ and FEC layers, over PhyLink captures like these.
        m.extend(crate::exchange::traced_transfers(t, self.seed)?);
        m.insert("trace.overhead_ratio", traced_s / plain_s);
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced replay must be bit-identical to the entry points, or
    /// the per-layer numbers describe a different computation.
    #[test]
    fn replay_is_bit_identical_to_the_entry_points() {
        let w = Uplink::new(7);
        // CSI and RSSI at the sparsest and nearest points.
        for i in [0, 5, 12, 17] {
            let cfg = w.config(i);
            let mut t = Tracer::new();
            let r = replay(&cfg, &mut t);
            assert_eq!(r.bundle, capture_uplink(&cfg).bundle, "op {i}");
            let run = run_uplink(&cfg);
            assert_eq!(r.decoded, run.decoded, "op {i}");
            assert_eq!(r.detected, run.detected, "op {i}");
        }
    }
}
