//! `fleet`: one op is `run_fleet` on the `fleet` figure's deployment at
//! the 10⁵-tag scale — 500 gateways × 200 tags, loss floor 0.2, three
//! epochs so movement and handoff run — on two engine workers (fewer if
//! the host has fewer cores).
//!
//! Chosen because it runs only the `bs_net` gateway, ARQ and `SimLink`
//! layers and the fleet coordinator, with no PHY: the bypass workload for
//! every PHY change and the target for fleet service and set-up work.
//! `sim_goodput_bps` is the fleet's aggregate goodput; `sim_ber` is the
//! share of poll rounds that did not complete a tag's upload.

use crate::trace::Tracer;
use crate::{busy_key, op_seed, LayerMetrics, Outcome, Sim, Status, Workload};
use bs_channel::faults::FaultPlan;
use bs_net::fleet::{run_fleet, FleetConfig, FleetRun};
use bs_net::gateway::{run_gateway, TagProfile};
use std::time::Instant;

const GATEWAYS: usize = 500;
const TAGS_PER_GATEWAY: usize = 200;
const EPOCHS: u32 = 3;

pub struct Fleet {
    seed: u64,
    workers: usize,
}

impl Fleet {
    pub fn new(seed: u64, workers: usize) -> Self {
        Fleet { seed, workers }
    }

    /// The `fleet` figure's deployment (loss floor 0.2) under op `i`'s
    /// seed.
    pub fn config(&self, i: usize) -> FleetConfig {
        let s = op_seed(self.seed, i);
        FleetConfig::default()
            .with_population(GATEWAYS, TAGS_PER_GATEWAY)
            .with_epochs(EPOCHS)
            .with_faults(FaultPlan::preset("loss", 0.2, s ^ 0xF1EE_7000).expect("known preset"))
            .with_seed(s)
    }

    fn run(&self, i: usize, workers: usize) -> Result<FleetRun, String> {
        let run = run_fleet(&self.config(i), workers).map_err(|e| format!("op {i}: {e:?}"))?;
        check(i, &run)?;
        Ok(run)
    }
}

fn tag_epochs(run: &FleetRun) -> u64 {
    run.tag_records
        .iter()
        .map(|r| u64::from(r.complete_epochs))
        .sum()
}

fn check(i: usize, run: &FleetRun) -> Result<(), String> {
    let tags = (GATEWAYS * TAGS_PER_GATEWAY) as u32;
    let delivered: u64 = run.tag_records.iter().map(|r| r.delivered_bytes).sum();
    let ok = run.tags == tags
        && run.epochs == EPOCHS
        && run.tag_records.len() == tags as usize
        && run
            .tag_records
            .iter()
            .enumerate()
            .all(|(k, r)| r.tag as usize == k)
        && delivered == run.delivered_bytes
        && run.polls >= tag_epochs(run)
        && run.aggregate_goodput_bps > 0.0;
    if ok {
        Ok(())
    } else {
        Err(format!("op {i}: fleet report is inconsistent"))
    }
}

fn outcome(run: &FleetRun) -> Outcome {
    Outcome {
        digest: crate::Fnv::new()
            .eat(run.digest)
            .eat(run.polls)
            .eat(run.handoffs)
            .eat(run.airtime_us)
            .finish(),
        sim: Sim {
            errors: (run.polls - tag_epochs(run)) as f64,
            units: run.polls as f64,
            good_bits: run.delivered_bytes as f64 * 8.0,
            sim_us: run.airtime_us as f64,
        },
    }
}

impl Workload for Fleet {
    fn configs(&self) -> usize {
        1
    }

    fn sim_cycles(&self) -> usize {
        1
    }

    fn tail_cap(&self) -> usize {
        // About ten ops per 30 s run: too few for any percentile.
        100
    }

    fn op(&self, i: usize) -> Result<Outcome, String> {
        self.run(i, self.workers).map(|r| outcome(&r))
    }

    fn self_checks(&self, outcomes: &[Outcome]) -> Vec<(String, Status)> {
        let name = "op 0: identical digest at 1 and 2 workers".to_string();
        if self.workers < 2 {
            return vec![(
                name,
                Status::Skipped(format!("host has {} core(s)", crate::nproc())),
            )];
        }
        let status = match self.run(0, 1) {
            Ok(serial) if Some(&outcome(&serial)) == outcomes.first() => Status::Pass,
            Ok(_) => Status::Fail("1-worker run differs from the 2-worker run".to_string()),
            Err(e) => Status::Fail(e),
        };
        vec![(name, status)]
    }

    fn traced(&self, t: &mut Tracer, _seconds: f64) -> Result<LayerMetrics, String> {
        let t0 = Instant::now();
        let plain = self.run(0, self.workers)?;
        let plain_s = t0.elapsed().as_secs_f64();

        t.set_op(0);
        let run = t.time("net.fleet.run", || self.run(0, self.workers))?;
        let serial = t.time("net.fleet.run_serial", || self.run(0, 1))?;
        if run != plain || serial.digest != run.digest {
            return Err("fleet runs differ across repeats or worker counts".to_string());
        }
        let json = t.time("net.fleet.to_json", || run.to_json());

        // One gateway's service, on a full roster built with the fleet's
        // gateway template and loss floor.
        let cfg = self.config(0);
        let gw = cfg
            .gateway
            .clone()
            .with_faults(cfg.faults.clone())
            .with_seed(cfg.seed);
        let roster: Vec<TagProfile> = (0..TAGS_PER_GATEWAY)
            .map(|k| {
                let message = (0..cfg.message_bytes).map(|b| (k * 31 + b) as u8).collect();
                TagProfile::new(k as u8 + 1, message).with_helper_pps(1_200.0 + 12.0 * k as f64)
            })
            .collect();
        t.set_op(1);
        let gw_run = t
            .time("net.gateway.run", || run_gateway(&roster, &gw))
            .map_err(|e| format!("gateway: {e:?}"))?;
        if gw_run.tags.len() != roster.len() || !gw_run.all_complete {
            return Err("gateway did not serve its whole roster".to_string());
        }

        let totals = t.totals();
        let busy = |n: &str| totals.get(n).map_or(0.0, |x| x.busy_ns as f64 / 1e9);
        let mut m = LayerMetrics::new();
        for name in [
            "net.fleet.run",
            "net.fleet.run_serial",
            "net.fleet.to_json",
            "net.gateway.run",
        ] {
            m.insert(busy_key(name), busy(name));
        }
        let efficiency = if self.workers >= 2 {
            busy("net.fleet.run_serial") / (self.workers as f64 * busy("net.fleet.run"))
        } else {
            0.0
        };
        m.insert("net.fleet.parallel_efficiency", efficiency);
        m.insert("net.fleet.json_bytes", json.len() as f64);
        m.insert(
            "net.gateway.us_per_tag",
            1e6 * busy("net.gateway.run") / roster.len() as f64,
        );
        m.insert("net.fleet.tag_epochs", tag_epochs(&run) as f64);
        m.insert("net.fleet.polls", run.polls as f64);
        m.insert("net.fleet.handoffs", run.handoffs as f64);
        m.insert("net.fleet.handoffs_denied", run.handoffs_denied as f64);
        m.insert(
            "net.fleet.truncated_gateway_epochs",
            f64::from(run.truncated_gateway_epochs),
        );
        m.insert("trace.overhead_ratio", busy("net.fleet.run") / plain_s);
        Ok(m)
    }
}
