//! Golden transcripts of singulation: `run_inventory` on rosters of 1,
//! 16, 200 and 250 tags, and a 200-tag `run_gateway` under packet loss.
//!
//! The small-roster pins in `energy_conformance` never reach high Q,
//! multi-round or capture cases; these do. Each inventory case records
//! the discovery order, the slot/collision/round counts, the final Q and
//! the inventory RNG's next draw after the call, so a change to the
//! round loop that reorders slots or consumes a different number of
//! draws shows up as a diff. The simulation is deterministic: any diff
//! is a behaviour change. If it is intentional, regenerate with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p bs-net --test inventory_golden
//! ```
//!
//! and review the fixture diff like any other code change.

use bs_channel::faults::FaultPlan;
use bs_dsp::SimRng;
use bs_net::gateway::{run_gateway, GatewayConfig, TagProfile};
use wifi_backscatter::multitag::{run_inventory, InventoryConfig, InventoryResult, InventoryTag};

#[path = "golden_support.rs"]
mod golden_support;
use golden_support::assert_golden;

/// FNV-1a 64 over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fmt_inventory(r: &InventoryResult) -> String {
    format!(
        "rounds {} slots {} collisions {} final_q {} identified {} [{}]",
        r.rounds,
        r.slots,
        r.collisions,
        r.final_q,
        r.identified.len(),
        hex(&r.identified)
    )
}

/// `n` distinct addresses in a scrambled order (37 is a unit mod 256).
fn roster(n: usize) -> Vec<InventoryTag> {
    (0..n)
        .map(|i| InventoryTag::new(((i * 37 + 11) % 256) as u8))
        .collect()
}

/// Every fifth tag browned out (the first one too, so a single-tag
/// roster is silent).
fn with_unpowered(mut tags: Vec<InventoryTag>) -> Vec<InventoryTag> {
    for (i, t) in tags.iter_mut().enumerate() {
        if i % 5 == 0 {
            *t = t.unpowered();
        }
    }
    tags
}

/// Unequal strengths with ties: a 7-step ladder repeats, so equal
/// strengths meet in the same slot as often as unequal ones.
fn with_ladder(mut tags: Vec<InventoryTag>) -> Vec<InventoryTag> {
    for (i, t) in tags.iter_mut().enumerate() {
        t.relative_strength = 1.0 / (1 + i % 7) as f64;
    }
    tags
}

/// The ladder plus zero and NaN strengths and a few browned-out tags.
fn with_odd_strengths(tags: Vec<InventoryTag>) -> Vec<InventoryTag> {
    let mut tags = with_ladder(tags);
    for (i, t) in tags.iter_mut().enumerate() {
        match i % 11 {
            3 => t.relative_strength = 0.0,
            6 => t.relative_strength = f64::NAN,
            9 => *t = t.unpowered(),
            _ => {}
        }
    }
    tags
}

#[test]
fn golden_run_inventory() {
    let defaults = InventoryConfig::default();
    let capture = InventoryConfig {
        capture_ratio: 2.0,
        ..defaults
    };
    type Case = (
        &'static str,
        fn(Vec<InventoryTag>) -> Vec<InventoryTag>,
        InventoryConfig,
    );
    let cases: [Case; 8] = [
        ("default", |t| t, defaults),
        (
            "unpowered",
            with_unpowered,
            InventoryConfig {
                max_rounds: 12,
                ..defaults
            },
        ),
        ("capture-ladder", with_ladder, capture),
        ("capture-equal", |t| t, capture),
        (
            "capture-odd",
            with_odd_strengths,
            InventoryConfig {
                max_rounds: 20,
                ..capture
            },
        ),
        (
            "one-round",
            with_ladder,
            InventoryConfig {
                max_rounds: 1,
                ..capture
            },
        ),
        (
            "q-over-max",
            |t| t,
            InventoryConfig {
                initial_q: 12,
                max_q: 6,
                ..defaults
            },
        ),
        (
            "low-q-capture",
            with_unpowered,
            InventoryConfig {
                initial_q: 0,
                max_q: 9,
                max_rounds: 40,
                capture_ratio: 1.5,
            },
        ),
    ];
    let mut out = String::new();
    for n in [1usize, 16, 200, 250] {
        for (k, (label, shape, cfg)) in cases.iter().enumerate() {
            let tags = shape(roster(n));
            let mut rng = SimRng::new(1_000 * n as u64 + k as u64).stream("inventory-golden");
            let r = run_inventory(&tags, *cfg, &mut rng);
            out.push_str(&format!(
                "n {n} {label} next {:016x} {}\n",
                rng.next_u64(),
                fmt_inventory(&r)
            ));
        }
    }
    assert_golden(
        "tests/golden/inventory.txt",
        include_str!("golden/inventory.txt"),
        &out,
    );
}

#[test]
fn golden_run_gateway_200_tags_under_loss() {
    let tags: Vec<TagProfile> = (0..200usize)
        .map(|k| {
            let len = 24 + (k * 13) % 40;
            let message = (0..len).map(|b| (k * 31 + b) as u8).collect();
            TagProfile::new(((k * 37 + 11) % 256) as u8, message)
                .with_helper_pps(1_200.0 + 12.0 * k as f64)
        })
        .collect();
    let cfg = GatewayConfig::default()
        .with_faults(FaultPlan::preset("loss", 0.4, 7).unwrap())
        .with_seed(2_024);
    let run = run_gateway(&tags, &cfg).unwrap();
    let per_tag = fnv1a(run.tags.iter().flat_map(|t| {
        [
            u64::from(t.address),
            t.final_chip_rate_bps,
            u64::from(t.rounds_served),
            t.transfer.delivered_bytes,
            u64::from(t.transfer.complete),
            u64::from(t.transfer.rounds),
            t.transfer.segments_sent,
            t.transfer.retransmissions,
            t.transfer.airtime_us,
        ]
    }));
    let out = format!(
        "gateway-200-loss {}\n\
         cycles {} airtime_us {} polls {} missed_polls {} truncated {} all_complete {} \
         fairness {:016x} served {} tags_fnv1a {:016x}\n",
        fmt_inventory(&run.inventory),
        run.cycles,
        run.airtime_us,
        run.polls,
        run.missed_polls,
        run.truncated,
        run.all_complete,
        run.fairness.to_bits(),
        run.tags.len(),
        per_tag
    );
    assert_golden(
        "tests/golden/gateway_200.txt",
        include_str!("golden/gateway_200.txt"),
        &out,
    );
}
