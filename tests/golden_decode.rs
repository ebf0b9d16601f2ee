//! Golden-vector regression tests for the uplink decode chain.
//!
//! Each test renders a canonical text transcript of one stage of the
//! chain — hysteresis slicing, preamble correlation, and the full
//! capture→condition→select→combine→slice pipeline — and compares it
//! byte-for-byte against a fixture committed under `tests/golden/`. The
//! simulation is deterministic, so any diff is a behaviour change, not
//! noise: if the change is intentional, regenerate the fixtures with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p wifi-backscatter --test golden_decode
//! ```
//!
//! and review the fixture diff like any other code change.

use bs_channel::geometry::Wall;
use bs_channel::multiscene::MultiTagScene;
use bs_channel::{FaultPlan, InterferenceConfig, Point, SceneConfig, TagState};
use bs_dsp::correlate::{best_alignment, peak, sliding};
use bs_dsp::slicer::{majority, sign_decision, vote_bit, Decision, HysteresisSlicer};
use bs_dsp::SimRng;
use bs_tag::frame::UplinkFrame;
use bs_tag::modulator::{Modulator, UplinkMode};
use bs_wifi::csi::CsiConfig;
use bs_wifi::ofdm::csi_subchannel_offsets;
use bs_wifi::CsiExtractor;
use wifi_backscatter::link::{capture_uplink, LinkConfig, Measurement};
use wifi_backscatter::phy::run_uplink;
use wifi_backscatter::uplink::{UplinkDecoder, UplinkDecoderConfig};
use wifi_backscatter::SeriesBundle;

#[path = "golden_support.rs"]
mod golden_support;
use golden_support::assert_golden;

fn fmt_decision(d: Decision) -> char {
    match d {
        Decision::One => '1',
        Decision::Zero => '0',
        Decision::Indeterminate => '?',
    }
}

fn fmt_bits(bits: &[Option<bool>]) -> String {
    bits.iter()
        .map(|b| match b {
            Some(true) => '1',
            Some(false) => '0',
            None => '?',
        })
        .collect()
}

/// §3.2 step 3: thresholds from a reference population, per-sample
/// decisions, and the majority vote — including the tie → erasure case.
#[test]
fn golden_slicer() {
    let mut out = String::new();
    // A bimodal reference population (reflect/absorb levels plus jitter).
    let reference: Vec<f64> = (0..40)
        .map(|i| {
            let level = if i % 2 == 0 { 4.0 } else { -4.0 };
            level + (i as f64) * 0.05
        })
        .collect();
    let slicer = HysteresisSlicer::from_samples(&reference);
    out.push_str(&format!(
        "thresh0 {:.6e}\nthresh1 {:.6e}\n",
        slicer.thresh0(),
        slicer.thresh1()
    ));
    let probes = [-6.0, -3.0, -1.0, 0.0, 0.9, 1.0, 2.5, 3.0, 6.0, 12.0];
    out.push_str("probe decisions ");
    out.extend(probes.iter().map(|&x| fmt_decision(slicer.decide(x))));
    out.push('\n');
    out.push_str("sign decisions  ");
    out.extend(probes.iter().map(|&x| fmt_decision(sign_decision(x))));
    out.push('\n');
    for (name, samples) in [
        ("vote-clear-one", vec![5.0, 5.5, -6.0, 4.8, 0.1]),
        ("vote-clear-zero", vec![-5.0, -5.5, 6.0, -4.8, 0.1]),
        ("vote-tie", vec![5.0, -5.0, 0.2, -0.2]),
        ("vote-all-abstain", vec![0.0, 0.1, -0.1]),
    ] {
        out.push_str(&format!("{name} {:?}\n", vote_bit(&slicer, &samples)));
    }
    out.push_str(&format!(
        "majority-empty {:?}\n",
        majority(&[] as &[Decision])
    ));
    assert_golden(
        "tests/golden/slicer.txt",
        include_str!("golden/slicer.txt"),
        &out,
    );
}

/// Preamble correlation: sliding normalised correlation, its peak, and
/// the alignment search on a noisy embedded preamble.
#[test]
fn golden_correlate() {
    let mut out = String::new();
    let reference: [i8; 8] = [1, -1, 1, 1, -1, 1, -1, -1];
    // The preamble embedded at offset 5 in a deterministic "noise" floor.
    let mut signal: Vec<f64> = (0..30)
        .map(|i| ((i as f64 * 2.399) % 1.0) * 0.4 - 0.2)
        .collect();
    for (i, &r) in reference.iter().enumerate() {
        signal[5 + i] += r as f64 * 2.0;
    }
    let corr = sliding(&signal, &reference);
    for (i, c) in corr.iter().enumerate() {
        out.push_str(&format!("corr[{i:02}] {c:+.6e}\n"));
    }
    let (pi, pv) = peak(&corr).expect("correlation has a peak");
    out.push_str(&format!("peak {pi} {pv:+.6e}\n"));
    let hit = best_alignment(&signal, &reference).expect("preamble found");
    out.push_str(&format!(
        "alignment start {} score {:+.6e}\n",
        hit.start, hit.score
    ));
    assert_golden(
        "tests/golden/correlate.txt",
        include_str!("golden/correlate.txt"),
        &out,
    );
}

/// The full chain at three operating points: CSI/MRC, RSSI/best-single,
/// and the long-range coded mode. Records alignment, channel selection
/// and MRC weights, the sliced bits, and the resulting error count.
#[test]
fn golden_uplink_decode_chain() {
    let mut out = String::new();
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();

    // CSI + MRC, decoder inspected directly for the selection/weights.
    let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
    cfg.measurement = Measurement::Csi;
    cfg.payload = payload.clone();
    let capture = capture_uplink(&cfg);
    let dec = UplinkDecoder::new(UplinkDecoderConfig::csi(100, payload.len()));
    let dout = dec
        .decode(&capture.bundle, capture.start_us)
        .expect("CSI decode detects");
    out.push_str(&format!(
        "csi start_us {} preamble_score {:.6e} postamble_score {:.6e}\n",
        dout.start_us, dout.preamble_score, dout.postamble_score
    ));
    for ch in &dout.channels {
        out.push_str(&format!(
            "csi channel {:02} score {:.6e} weight {:+.6e}\n",
            ch.index, ch.score, ch.weight
        ));
    }
    out.push_str(&format!("csi bits {}\n", fmt_bits(&dout.bits)));

    // The same chain through run_uplink, then the RSSI pipeline (§3.3).
    for (name, measurement) in [("csi", Measurement::Csi), ("rssi", Measurement::Rssi)] {
        let mut cfg = LinkConfig::fig10(0.1, 100, 10, 77);
        cfg.measurement = measurement;
        cfg.payload = payload.clone();
        let run = run_uplink(&cfg);
        out.push_str(&format!(
            "{name} run detected {} errors {} erasures {} bits {}\n",
            run.detected,
            run.ber.errors(),
            run.decoded.iter().filter(|b| b.is_none()).count(),
            fmt_bits(&run.decoded)
        ));
    }

    // Long-range coded mode (§3.4) at a range the plain decoder can't do.
    let mut cfg = LinkConfig::fig10(1.0, 200, 10, 78);
    cfg.measurement = Measurement::Csi;
    cfg.payload = payload[..8].to_vec();
    cfg.code_length = 8;
    let run = run_uplink(&cfg);
    out.push_str(&format!(
        "coded run detected {} errors {} bits {}\n",
        run.detected,
        run.ber.errors(),
        fmt_bits(&run.decoded)
    ));

    assert_golden(
        "tests/golden/uplink_chain.txt",
        include_str!("golden/uplink_chain.txt"),
        &out,
    );
}

/// 64-bit FNV-1a over the little-endian bytes of every timestamp and
/// every sample's `f64::to_bits`, so a last-bit drift anywhere in capture
/// synthesis changes the digest.
fn bundle_digest(bundle: &SeriesBundle) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = bundle
        .t_us
        .iter()
        .copied()
        .chain(bundle.series.iter().flatten().map(|v| v.to_bits()));
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fmt_bundle(name: &str, bundle: &SeriesBundle) -> String {
    format!(
        "{name} packets {} channels {} fnv1a {:016x}\n",
        bundle.packets(),
        bundle.channels(),
        bundle_digest(bundle)
    )
}

/// A two-tag inventory capture: both tags answer the same slot, so the
/// reader's CSI carries the superposition of their switch waveforms.
/// Fading is on and the extractor is ideal (unquantised), so the digest
/// sees every bit of the scene's snapshots.
fn multitag_bundle(seed: u64) -> SeriesBundle {
    let root = SimRng::new(seed);
    let cfg = SceneConfig::uplink(0.10);
    let tags = vec![Point::new(0.0, 0.0), Point::new(0.0, -0.02)];
    let mut scene = MultiTagScene::new(cfg, tags, &root.stream("scene"));
    let offsets = csi_subchannel_offsets();
    let mut ex = CsiExtractor::new(CsiConfig::ideal(), root.stream("csi"));
    let frame_a = UplinkFrame::new((0..16).map(|i| i % 3 == 0).collect());
    let frame_b = UplinkFrame::new((0..16).map(|i| (i * 7) % 5 < 2).collect());
    let mod_a = Modulator::from_chip_rate(&frame_a, 100, UplinkMode::Plain, 100_000);
    let mod_b = Modulator::from_chip_rate(&frame_b, 100, UplinkMode::Plain, 100_000);
    let ms: Vec<_> = (0..2_000u64)
        .map(|i| {
            let t_us = i * 333;
            let states: [TagState; 2] = [mod_a.state_at(t_us), mod_b.state_at(t_us)];
            let snap = scene.snapshot(t_us as f64 / 1e6, &states, &offsets);
            ex.measure(&snap, t_us)
        })
        .collect();
    SeriesBundle::from_csi(&ms)
}

/// Capture synthesis, bit for bit: every timestamp and every sample of
/// `capture_uplink(..).bundle` (scene snapshot, MAC, CSI/RSSI extraction,
/// faults) across the operating points whose synthesis paths differ. The
/// decode-chain golden above pins scores to 7 significant digits; this one
/// catches a change in the last bit of any synthesised value.
#[test]
fn golden_capture_synthesis() {
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();
    let base = |d: f64, measurement: Measurement, seed: u64| {
        let mut cfg = LinkConfig::fig10(d, 100, 10, seed);
        cfg.measurement = measurement;
        cfg.payload = payload.clone();
        cfg
    };
    let mut cases: Vec<(String, LinkConfig)> = Vec::new();
    for (m_name, m) in [("csi", Measurement::Csi), ("rssi", Measurement::Rssi)] {
        for (cm, seed) in [(10, 81), (30, 82), (65, 83)] {
            cases.push((format!("{m_name}-{cm}cm"), base(cm as f64 / 100.0, m, seed)));
        }
    }
    let mut walled = base(0.3, Measurement::Csi, 84);
    walled.scene.walls = vec![Wall::new(Point::new(1.5, -5.0), Point::new(1.5, 5.0), 10.0)];
    cases.push(("csi-30cm-walled".into(), walled));
    // Ideal CSI skips the amplitude quantiser, so a last-bit change in a
    // channel snapshot reaches the bundle instead of rounding away.
    let mut ideal = base(0.3, Measurement::Csi, 89);
    ideal.ideal_csi = true;
    cases.push(("csi-30cm-ideal".into(), ideal));
    let mut oven = base(0.3, Measurement::Csi, 85);
    oven.scene.interference = Some(InterferenceConfig::microwave_oven());
    cases.push(("csi-30cm-microwave".into(), oven));
    for (preset, seed) in [("drift", 86), ("sensor", 87)] {
        let mut cfg = base(0.3, Measurement::Csi, seed);
        cfg.faults = FaultPlan::preset(preset, 1.0, seed).expect("known preset");
        cases.push((format!("csi-30cm-{preset}"), cfg));
    }

    let mut out = String::new();
    for (name, cfg) in &cases {
        let capture = capture_uplink(cfg);
        if name.ends_with("sensor") {
            assert!(
                capture.fault_events.frozen_packets > 0,
                "the sensor preset must freeze some measurements"
            );
        }
        out.push_str(&fmt_bundle(name, &capture.bundle));
    }
    out.push_str(&fmt_bundle("multitag-csi-10cm", &multitag_bundle(88)));
    assert_golden(
        "tests/golden/capture_synthesis.txt",
        include_str!("golden/capture_synthesis.txt"),
        &out,
    );
}
