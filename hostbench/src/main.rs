//! Host-time benchmark of the Wi-Fi Backscatter simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <uplink|downlink|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one client, one op in flight, cycling
//! a fixed list of configs in a fixed order. Op `i` runs config
//! `i mod configs` under a seed derived from `(--seed, i)`, so every
//! input is a function of the seed. The timed loop runs whole cycles, at
//! least `--seconds` long. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it times calls into each layer's
//! public functions from this package and reports the per-layer metrics
//! (see `LAYERS.md`). The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; the line
//! before it holds the host metadata and the status of every check.

mod downlink;
mod exchange;
mod fleet;
mod trace;
mod uplink;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The seed whose workload digests are committed with the benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// Per-layer metrics (`--trace 1`). Every traced run prints all of them;
/// a layer the workload's traced op does not call reads 0 and is listed
/// under `not_measured` in the metadata line.
const PER_LAYER: &[(&str, &str)] = &[
    ("wifi.traffic.busy_s", "s"),
    ("wifi.mac.busy_s", "s"),
    ("wifi.mac.transmissions", "count"),
    ("wifi.mac.collided_ratio", "ratio"),
    ("channel.scene_new.busy_s", "s"),
    ("tag.modulator.busy_s", "s"),
    ("channel.snapshot.busy_s", "s"),
    ("channel.snapshot.calls", "count"),
    ("channel.snapshot.us_per_call", "us"),
    ("wifi.csi.busy_s", "s"),
    ("wifi.csi.us_per_packet", "us"),
    ("wifi.rssi.busy_s", "s"),
    ("wifi.rssi.us_per_packet", "us"),
    ("core.series.bundle.busy_s", "s"),
    ("core.uplink.decode.busy_s", "s"),
    ("core.uplink.decode.us_per_packet", "us"),
    ("core.uplink.detected_ratio", "ratio"),
    ("core.link.capture.busy_s", "s"),
    ("core.phy.run_uplink.busy_s", "s"),
    ("tag.envelope.busy_s", "s"),
    ("tag.envelope.ns_per_sample", "ns"),
    ("tag.receiver.circuit.busy_s", "s"),
    ("tag.receiver.slice.busy_s", "s"),
    ("core.phy.run_downlink_ber.busy_s", "s"),
    ("net.link.segment.busy_s", "s"),
    ("net.link.segment.calls", "count"),
    ("net.link.segment.delivered_ratio", "ratio"),
    ("net.link.control.busy_s", "s"),
    ("net.link.control.calls", "count"),
    ("net.link.control.delivered_ratio", "ratio"),
    ("net.arq.self_s", "s"),
    ("net.arq.rounds", "count"),
    ("net.arq.retx", "count"),
    ("net.fec.repairs", "count"),
    ("core.link.recaptures", "count"),
    ("net.fleet.run.busy_s", "s"),
    ("net.fleet.run_serial.busy_s", "s"),
    ("net.fleet.parallel_efficiency", "ratio"),
    ("net.fleet.to_json.busy_s", "s"),
    ("net.fleet.json_bytes", "bytes"),
    ("net.gateway.run.busy_s", "s"),
    ("net.gateway.us_per_tag", "us"),
    ("net.fleet.tag_epochs", "count"),
    ("net.fleet.polls", "count"),
    ("net.fleet.handoffs", "count"),
    ("net.fleet.handoffs_denied", "count"),
    ("net.fleet.truncated_gateway_epochs", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Seed-exact simulated tallies of one op. `sim_goodput_bps` is
/// `good_bits` per simulated second and `sim_ber` (reported in the
/// metadata line) is `errors / units`; each workload says what its units
/// are.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sim {
    pub errors: f64,
    pub units: f64,
    pub good_bits: f64,
    pub sim_us: f64,
}

impl Sim {
    fn add(&mut self, o: &Sim) {
        self.errors += o.errors;
        self.units += o.units;
        self.good_bits += o.good_bits;
        self.sim_us += o.sim_us;
    }
}

/// What one op produced: a digest of its outputs plus its simulated
/// tallies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub digest: u64,
    pub sim: Sim,
}

/// Result of one self-check. A check that cannot run on the host is
/// `Skipped`, never `Pass`.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    Pass,
    Fail(String),
    Skipped(String),
}

impl Status {
    fn text(&self) -> String {
        match self {
            Status::Pass => "pass".to_string(),
            Status::Fail(why) => format!("fail: {why}"),
            Status::Skipped(why) => format!("skipped: {why}"),
        }
    }
}

/// Per-layer numbers from a traced run, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload {
    /// Length of the config cycle.
    fn configs(&self) -> usize;
    /// Whole cycles whose outcomes make up the digest and the simulated
    /// metrics; the timed loop always runs at least these.
    fn sim_cycles(&self) -> usize;
    /// The highest percentile `op_ms_tail` may use (100 = the maximum).
    /// It is fixed per workload, below what a run's sample count allows
    /// with margin, so the tail never switches percentile between runs.
    fn tail_cap(&self) -> usize;
    /// Runs op `i` untraced. An `Err` is an output check that failed.
    fn op(&self, i: usize) -> Result<Outcome, String>;
    /// Workload-specific self-checks that need no committed value.
    fn self_checks(&self, outcomes: &[Outcome]) -> Vec<(String, Status)>;
    /// The traced run: times public calls into each layer for about
    /// `seconds`, checking the replays against the entry points.
    fn traced(&self, tracer: &mut Tracer, seconds: f64) -> Result<LayerMetrics, String>;
}

fn setup(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match workload {
        "uplink" => Some(Box::new(uplink::Uplink::new(seed))),
        "downlink" => Some(Box::new(downlink::Downlink::new(seed))),
        "fleet" => Some(Box::new(fleet::Fleet::new(seed, workers()))),
        _ => None,
    }
}

/// Digests of the first `sim_cycles` cycles' outcomes at [`DEFAULT_SEED`]. A
/// change here means the simulation's outputs changed, not its speed.
const COMMITTED_DIGESTS: &[(&str, u64)] = &[
    ("uplink", 0x8025_d613_6b40_09a6),
    ("downlink", 0xc7e9_bea9_7a67_78a4),
    ("fleet", 0x87a5_2267_c272_2cba),
];

/// `"<span>.busy_s"` as a static metric key.
pub fn busy_key(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix(".busy_s") == Some(span))
        .unwrap_or_else(|| panic!("no busy_s metric for span {span}"))
}

/// Engine workers for `fleet`: two, never more than the host has.
pub fn workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The seed of op `i`: a SplitMix64 step over the run seed and the op
/// index, so distinct ops never share randomness.
pub fn op_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn eat_f64(&mut self, v: f64) -> &mut Self {
        self.eat(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest of p50/p75/p90/p95/p99, up to `cap`, that has at least
/// ten samples beyond it (nearest rank), or the maximum when none does
/// or `cap` is 100.
/// Returns the percentile's name and value.
fn tail(v: &[f64], cap: usize) -> (String, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if cap >= 100 {
        return ("max".to_string(), s[n - 1]);
    }
    for p in [99usize, 95, 90, 75, 50].into_iter().filter(|&p| p <= cap) {
        let rank = (p * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (format!("p{p}"), s[rank - 1]);
        }
    }
    ("max".to_string(), s[n - 1])
}

/// Runs `f`, turning a panic into an `Err`.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Counts every op and check against the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checks: Vec<(String, Status)>,
}

impl Tally {
    fn check(&mut self, name: impl Into<String>, status: Status) {
        self.attempted += 1;
        if matches!(status, Status::Fail(_)) {
            self.failed += 1;
        }
        self.checks.push((name.into(), status));
    }

    fn op(&mut self, i: usize, r: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        match r {
            Ok(o) => Some(o),
            Err(e) => {
                self.failed += 1;
                self.checks.push((format!("op {i}"), Status::Fail(e)));
                None
            }
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let parts: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn meta_json(args: &Args, extra: &[(&str, String)], tally: &Tally) -> String {
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("fleet_workers", workers().to_string()),
        ("rustc", json_str(env!("HOSTBENCH_RUSTC"))),
        ("commit", json_str(env!("HOSTBENCH_COMMIT"))),
        (
            "fail_ratio",
            (tally.failed as f64 / tally.attempted.max(1) as f64).to_string(),
        ),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let checks: Vec<String> = tally
        .checks
        .iter()
        .map(|(k, s)| format!("{}: {}", json_str(k), json_str(&s.text())))
        .collect();
    let mut parts: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    parts.push(format!("\"checks\": {{{}}}", checks.join(", ")));
    format!("{{\"hostbench\": {{{}}}}}", parts.join(", "))
}

fn result_line(tally: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

/// The untraced run: set-up, the timed closed loop, then the checks.
fn run_plain(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();

    // Set-up = build the inputs plus one untimed warm-up op (op 0). It is
    // repeated (at least three times, up to 25 within three seconds) and
    // `setup_s` is the median; the warm-ups double as the repeated-op
    // check.
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut w = None;
    while setup_s.len() < 3 || (setup_s.len() < 25 && setup_s.iter().sum::<f64>() < 3.0) {
        let t0 = Instant::now();
        let built = setup(&args.workload, args.seed).ok_or("unknown workload")?;
        let r = guarded(|| built.op(0));
        setup_s.push(t0.elapsed().as_secs_f64());
        warm.push(tally.op(0, r));
        w = Some(built);
    }
    let w = w.expect("at least one set-up");
    let cycle = w.configs();

    // The timed closed loop: one op in flight, next op when it returns,
    // in whole cycles, until the budget is spent and the simulated
    // metrics' cycles are done.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut op_ms = Vec::new();
    let mut cycle_s = Vec::new();
    let mut outcomes: Vec<Option<Outcome>> = Vec::new();
    let start = Instant::now();
    let mut cycle_start = start;
    while !outcomes.len().is_multiple_of(cycle)
        || outcomes.len() < cycle * w.sim_cycles()
        || start.elapsed() < budget
    {
        let i = outcomes.len();
        let t0 = Instant::now();
        let r = guarded(|| w.op(i));
        let t1 = Instant::now();
        op_ms.push((t1 - t0).as_secs_f64() * 1e3);
        outcomes.push(tally.op(i, r));
        if outcomes.len().is_multiple_of(cycle) {
            cycle_s.push((t1 - cycle_start).as_secs_f64());
            cycle_start = t1;
        }
    }
    let rss = peak_rss_mb();

    // Repeated op: the warm-ups and timed op 0 ran the same input.
    let repeats: Vec<Option<Outcome>> = warm.iter().copied().chain([outcomes[0]]).collect();
    tally.check(
        "repeated op gives the identical result",
        if repeats.iter().all(|o| o.is_some() && *o == repeats[0]) {
            Status::Pass
        } else {
            Status::Fail(format!("op 0 outcomes differ across repeats: {repeats:?}"))
        },
    );

    let done: Vec<Outcome> = outcomes.iter().flatten().copied().collect();
    let sim_ops = cycle * w.sim_cycles();
    let mut digest = Fnv::new();
    let mut sim = Sim::default();
    for o in outcomes[..sim_ops].iter().flatten() {
        digest.eat(o.digest);
        sim.add(&o.sim);
    }
    let digest = digest.finish();
    let complete = outcomes[..sim_ops].iter().all(Option::is_some);
    let committed = COMMITTED_DIGESTS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, d)| *d);
    tally.check(
        "digest matches the committed value",
        match committed {
            _ if args.seed != DEFAULT_SEED => Status::Skipped(format!(
                "seed {} has no committed digest (only seed {DEFAULT_SEED} does)",
                args.seed
            )),
            Some(d) if complete && d == digest => Status::Pass,
            Some(d) => Status::Fail(format!("digest {digest:016x}, committed {d:016x}")),
            None => Status::Fail("no committed digest for this workload".to_string()),
        },
    );
    for (name, status) in guarded(|| Ok(w.self_checks(&done)))
        .unwrap_or_else(|e| vec![("self-checks".to_string(), Status::Fail(e))])
    {
        tally.check(name, status);
    }

    // The typical cycle: each config's mean op time across cycles. A rate
    // or median taken from it covers the cycle's exact mix of configs.
    // Means, not medians: the shared host alternates between a fast and
    // a slow state for seconds at a time, and a mean follows the share
    // of time spent in each where a median flips between the two.
    let cycles = op_ms.len() / cycle;
    let typical: Vec<f64> = (0..cycle)
        .map(|c| op_ms.iter().skip(c).step_by(cycle).sum::<f64>() / cycles as f64)
        .collect();
    let (tail_name, tail_ms) = tail(&op_ms, w.tail_cap());
    let values = [
        ("setup_s", "s", median(&setup_s)),
        (
            "ops_per_s",
            "1/s",
            1e3 * cycle as f64 / typical.iter().sum::<f64>(),
        ),
        ("op_ms_p50", "ms", median(&typical)),
        ("op_ms_tail", "ms", tail_ms),
        ("peak_rss_mb", "MB", rss),
        (
            "sim_goodput_bps",
            "bit/s",
            sim.good_bits / (sim.sim_us / 1e6).max(1e-9),
        ),
    ];
    let extra = [
        ("op_ms_tail_percentile", json_str(&tail_name)),
        ("timed_ops", op_ms.len().to_string()),
        ("timed_s", start.elapsed().as_secs_f64().to_string()),
        ("cycle_ops", cycle.to_string()),
        ("cycle_s", format!("{cycle_s:?}")),
        ("setup_s_samples", format!("{setup_s:?}")),
        ("sim_ops", sim_ops.to_string()),
        ("sim_ber", (sim.errors / sim.units.max(1.0)).to_string()),
        ("digest", json_str(&format!("{digest:016x}"))),
    ];
    println!("{}", meta_json(args, &extra, &tally));
    println!("{}", result_line(&tally, &metrics_json(&values)));
    Ok(())
}

/// The traced run: per-layer numbers, with the replay-fidelity checks
/// that make a drifting replay fail the benchmark.
fn run_traced(args: &Args) -> Result<(), String> {
    let w = setup(&args.workload, args.seed).ok_or("unknown workload")?;
    let mut tracer = Tracer::new();
    let layer = guarded(|| w.traced(&mut tracer, args.seconds))
        .map_err(|e| format!("traced run failed: {e}"))?;
    for name in layer.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!("traced run produced unlisted metric {name}"));
        }
    }
    let path = std::path::PathBuf::from(".bench_build/hostbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let mut tally = Tally::default();
    tally.check(
        "replays are bit-identical to the entry points",
        Status::Pass,
    );
    let not_measured: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !layer.contains_key(n))
        .collect();
    let values: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(n, u)| (*n, *u, layer.get(n).copied().unwrap_or(0.0)))
        .collect();
    let totals = tracer.totals();
    let shares: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"busy_s\": {}, \"self_s\": {}, \"calls\": {}}}",
                json_str(name),
                t.busy_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9,
                t.calls
            )
        })
        .collect();
    let extra = [
        ("spans_file", json_str(&path.display().to_string())),
        (
            "spans",
            totals.values().map(|t| t.calls).sum::<u64>().to_string(),
        ),
        ("span_totals", format!("{{{}}}", shares.join(", "))),
        (
            "not_measured",
            format!(
                "[{}]",
                not_measured
                    .iter()
                    .map(|n| json_str(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    println!("{}", meta_json(args, &extra, &tally));
    println!("{}", result_line(&tally, &metrics_json(&values)));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <uplink|downlink|fleet> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let r = if args.trace {
        run_traced(&args)
    } else {
        run_plain(&args)
    };
    if let Err(e) = r {
        eprintln!("hostbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 99), ("p90".to_string(), 90.0));
        assert_eq!(tail(&v, 75), ("p75".to_string(), 75.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 99), ("p75".to_string(), 30.0));
        assert_eq!(tail(&v, 100), ("max".to_string(), 40.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0], 99).0, "max");
    }

    #[test]
    fn op_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| op_seed(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(op_seed(1, 0), op_seed(2, 0));
    }
}
