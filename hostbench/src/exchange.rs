//! ARQ transfers over the full-PHY `PhyLink`, timed at the link
//! boundary: the per-layer numbers for `bs_net::{linkmodel, arq, fec}`.
//!
//! An `exchange` workload (a 64-byte transfer per op over {0.3, 0.5 m}
//! × {none, loss, drift, sensor}) is not an end-to-end workload of this
//! benchmark: one op costs 0.5–15 s of host time
//! depending on how many rate step-down re-captures and retransmission
//! rounds the seed provokes, so no run of a few tens of seconds reports a
//! steady rate. The traced `uplink` run instead drives the two cheapest
//! of those transfers through [`TimingLink`], which keeps the link,
//! ARQ and FEC layers measured.

use crate::trace::Tracer;
use crate::{busy_key, op_seed, LayerMetrics};
use bs_channel::faults::FaultPlan;
use bs_dsp::obs::Recorder;
use bs_net::arq::{run_transfer, Transfer, TransportConfig};
use bs_net::fec::FecConfig;
use bs_net::linkmodel::{PhyLink, SegmentFate, SegmentLink};
use bs_tag::frame::DownlinkFrame;
use wifi_backscatter::link::DegradationReport;

const MESSAGE_BYTES: usize = 64;
const WINDOW: usize = 8;
const DISTANCE_M: f64 = 0.3;
/// The traced transfers: (fault preset, severity, FEC on).
const TRANSFERS: [(&str, f64, bool); 2] = [("none", 0.0, false), ("loss", 0.5, true)];

/// The message, link and transport config of traced transfer `k`.
fn inputs(seed: u64, k: usize) -> (Vec<u8>, PhyLink, TransportConfig) {
    let (fault, sev, fec) = TRANSFERS[k];
    let s = op_seed(seed, k);
    let faults = if fault == "none" {
        FaultPlan::none()
    } else {
        FaultPlan::preset(fault, sev, s ^ 0xFA17).expect("known preset")
    };
    let message: Vec<u8> = (0..MESSAGE_BYTES)
        .map(|b| (s.rotate_left(b as u32 % 64) as u8) ^ b as u8)
        .collect();
    let mut cfg = TransportConfig::default().with_window(WINDOW).with_seed(s);
    if fec {
        cfg = cfg.with_fec(FecConfig::fixed(4, 1));
    }
    (message, PhyLink::new(DISTANCE_M, faults, s), cfg)
}

/// A pass-through `SegmentLink` that times and counts the link calls the
/// transport makes, and counts re-captures from each segment's
/// degradation report before handing the merged report back.
pub struct TimingLink<'a> {
    inner: PhyLink,
    tracer: &'a mut Tracer,
    pub segments: u64,
    pub segments_delivered: u64,
    pub controls: u64,
    pub controls_delivered: u64,
    pub recaptures: u64,
    report: DegradationReport,
}

impl<'a> TimingLink<'a> {
    pub fn new(inner: PhyLink, tracer: &'a mut Tracer) -> Self {
        TimingLink {
            inner,
            tracer,
            segments: 0,
            segments_delivered: 0,
            controls: 0,
            controls_delivered: 0,
            recaptures: 0,
            report: DegradationReport::default(),
        }
    }

    fn absorb(&mut self) {
        let d = self.inner.take_degradation();
        self.recaptures += u64::from(d.retries_used);
        self.report.merge(&d);
    }
}

impl SegmentLink for TimingLink<'_> {
    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_us(&mut self, us: u64) {
        self.inner.advance_us(us);
    }

    fn send_control(&mut self, frame: &DownlinkFrame, rec: &mut dyn Recorder) -> bool {
        let inner = &mut self.inner;
        let ok = self
            .tracer
            .time("net.link.control", || inner.send_control(frame, rec));
        self.controls += 1;
        self.controls_delivered += u64::from(ok);
        self.absorb();
        ok
    }

    fn send_segment(&mut self, bits: &[bool], rec: &mut dyn Recorder) -> SegmentFate {
        let inner = &mut self.inner;
        let fate = self
            .tracer
            .time("net.link.segment", || inner.send_segment(bits, rec));
        self.segments += 1;
        self.segments_delivered += u64::from(fate != SegmentFate::Lost);
        self.absorb();
        fate
    }

    fn control_air_us(&self, frame: &DownlinkFrame) -> u64 {
        self.inner.control_air_us(frame)
    }

    fn segment_air_us(&self, n_bits: usize) -> u64 {
        self.inner.segment_air_us(n_bits)
    }

    fn chip_rate_bps(&self) -> u64 {
        self.inner.chip_rate_bps()
    }

    fn set_chip_rate_bps(&mut self, bps: u64) {
        self.inner.set_chip_rate_bps(bps);
    }

    fn take_degradation(&mut self) -> DegradationReport {
        self.absorb();
        std::mem::take(&mut self.report)
    }
}

fn check(i: usize, message: &[u8], t: &Transfer) -> Result<(), String> {
    let ok = t.message_bytes == message.len() as u64
        && t.delivered_bytes <= t.message_bytes
        && t.complete == t.delivered.is_some()
        && t.delivered.as_deref().is_none_or(|d| d == message)
        && t.polls_sent == u64::from(t.rounds)
        && t.retransmissions <= t.segments_sent;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "op {i}: transfer report is inconsistent with the message"
        ))
    }
}

/// Runs every traced transfer twice, plain and through a
/// [`TimingLink`], failing if timing changed the transfer, and reports
/// the link, ARQ and FEC numbers.
pub fn traced_transfers(t: &mut Tracer, seed: u64) -> Result<LayerMetrics, String> {
    let (mut seg, mut seg_ok, mut ctl, mut ctl_ok, mut recap) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut rounds, mut retx, mut repairs) = (0u64, 0u64, 0u64);
    for k in 0..TRANSFERS.len() {
        let (message, mut link, cfg) = inputs(seed, k);
        let plain = run_transfer(&message, cfg, &mut link);

        let (message, link, cfg) = inputs(seed, k);
        let root = t.enter("net.arq.run_transfer");
        let mut timing = TimingLink::new(link, t);
        let traced = run_transfer(&message, cfg, &mut timing);
        seg += timing.segments;
        seg_ok += timing.segments_delivered;
        ctl += timing.controls;
        ctl_ok += timing.controls_delivered;
        recap += timing.recaptures;
        t.exit(root);
        if traced != plain {
            return Err(format!(
                "transfer {k}: timing the link changed the transfer"
            ));
        }
        check(k, &message, &traced)?;
        rounds += u64::from(traced.rounds);
        retx += traced.retransmissions;
        repairs += traced.fec_repairs;
    }
    let totals = t.totals();
    let busy = |n: &str| totals.get(n).map_or(0.0, |x| x.busy_ns as f64 / 1e9);
    let mut m = LayerMetrics::new();
    m.insert(busy_key("net.link.segment"), busy("net.link.segment"));
    m.insert(busy_key("net.link.control"), busy("net.link.control"));
    m.insert("net.link.segment.calls", seg as f64);
    m.insert(
        "net.link.segment.delivered_ratio",
        seg_ok as f64 / seg.max(1) as f64,
    );
    m.insert("net.link.control.calls", ctl as f64);
    m.insert(
        "net.link.control.delivered_ratio",
        ctl_ok as f64 / ctl.max(1) as f64,
    );
    m.insert(
        "net.arq.self_s",
        busy("net.arq.run_transfer") - busy("net.link.segment") - busy("net.link.control"),
    );
    m.insert("net.arq.rounds", rounds as f64);
    m.insert("net.arq.retx", retx as f64);
    m.insert("net.fec.repairs", repairs as f64);
    m.insert("core.link.recaptures", recap as f64);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timing the link must not change the transfer.
    #[test]
    fn timing_link_is_transparent() {
        let mut t = Tracer::new();
        let m = traced_transfers(&mut t, 7).expect("transfers match");
        assert!(m["net.link.segment.calls"] >= 8.0);
        assert!(m["net.arq.rounds"] >= 2.0);
    }
}
