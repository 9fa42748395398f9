//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! python3 perfbench/run.py --workload sweep_batched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this binary and `teem-coordinator`, then runs
//!
//! ```sh
//! perfbench --workload W --seed N --seconds S --trace 0|1 \
//!     --coordinator PATH --work-dir DIR
//! ```
//!
//! from the repository root. One run is one workload. With `--trace 0`
//! it times closed-loop passes and prints the end-to-end metrics; with
//! `--trace 1` it alternates plain and traced passes and prints the
//! per-layer metrics. Every pass checks its outputs. The last line of
//! standard output is the JSON result.
//!
//! `--setup-only` (used by the benchmark itself) sets the workload up
//! once in a fresh process and prints its reference digest: the parent
//! times these cold set-ups for `setup_s`.

mod bench;
mod campaign;
mod fig5;
mod micro;
mod sweep;
mod sys;
mod week;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use bench::{median, quantile, Checks, Env, Pass, Workload};

const WORKLOADS: [&str; 4] = ["sweep_batched", "campaign_kill", "week_trace", "paper_fig5"];

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("sim_s_per_host_s", "s/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), with units. A workload whose
/// passes never enter a layer reports 0 for that layer's path rows.
const PER_LAYER: [(&str, &str); 47] = [
    ("campaign.over_single", "ratio"),
    ("campaign.merge_ms", "ms"),
    ("campaign.spawns", "count"),
    ("campaign.deaths", "count"),
    ("journal.bytes_per_cell", "B"),
    ("journal.records", "count"),
    ("journal.fsyncs", "count"),
    ("journal.observe_us", "us"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.idle_ms", "ms"),
    ("sweep.steals", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_p99", "ms"),
    ("setup.profile_ms", "ms"),
    ("setup.grid_ms", "ms"),
    ("setup.csv_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("exec.steps", "count"),
    ("exec.run_ms", "ms"),
    ("exec.host_ns_per_step", "ns"),
    ("lockstep.batched_share", "ratio"),
    ("lockstep.rounds", "count"),
    ("lockstep.lane_occupancy", "ratio"),
    ("lockstep.lane_utilization", "ratio"),
    ("step.power_ns", "ns"),
    ("step.thermal_ns", "ns"),
    ("step.sample_ns", "ns"),
    ("step.trace_ns", "ns"),
    ("step.control_ns", "ns"),
    ("step.other_ns", "ns"),
    ("step.unattributed_frac", "ratio"),
    ("thermal.step_ns", "ns"),
    ("thermal.lane_ns", "ns"),
    ("thermal.substeps", "count"),
    ("gap.cool_to_us", "us"),
    ("gap.segments", "count"),
    ("gap.skipped", "count"),
    ("fastexp.exp_ns", "ns"),
    ("engine.run_ms", "ms"),
    ("engine.steps", "count"),
    ("core.control_ns_p50", "ns"),
    ("core.control_ns_p99", "ns"),
    ("core.plan_us", "us"),
    ("core.profile_app_ms", "ms"),
    ("dse.eemp_lut_ms", "ms"),
    ("verify.digest_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Per-layer counts that must repeat exactly on every traced pass.
const EXACT: [&str; 10] = [
    "campaign.spawns",
    "campaign.deaths",
    "journal.records",
    "journal.fsyncs",
    "exec.steps",
    "thermal.substeps",
    "gap.segments",
    "gap.skipped",
    "engine.steps",
    "lockstep.batched_share",
];

/// Cold set-ups per run, spread evenly over the timed passes so that a
/// slow spell of the host cannot cover all of them. `setup_s` is the
/// fastest: load from elsewhere on the host only ever lengthens a
/// set-up; see README.
const SETUP_SAMPLES: usize = 15;
/// The quantile of a run's per-pass rates each workload reports: the
/// highest one with at least ten passes beyond it in a 25 s run when the
/// benchmark was defined (at least 119 passes on `sweep_batched`, 136 on
/// `campaign_kill` and 400 on the other two). It is fixed, so every
/// commit is compared at the same quantile however many passes its speed
/// fits into a run. Load from elsewhere on the host only ever slows a
/// pass; see README.
const RATE_QUANTILE: [(&str, f64); 4] = [
    ("sweep_batched", 0.90),
    ("campaign_kill", 0.90),
    ("week_trace", 0.975),
    ("paper_fig5", 0.975),
];
/// Fewest timed passes of each kind, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    coordinator: PathBuf,
    work_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "perfbench: {problem}\nusage: perfbench --workload <{}> --seed N --seconds S \
         --trace 0|1 --coordinator PATH --work-dir DIR [--setup-only]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut setup_only = false;
    while let Some(flag) = argv.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument `{flag}`"));
        };
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        named.insert(key.to_string(), value);
    }
    let mut take = |key: &str| {
        named
            .remove(key)
            .unwrap_or_else(|| usage(&format!("--{key} is required")))
    };
    let workload = take("workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let seed = take("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = take("seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a number"));
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage("--seconds must be in (0, 120]");
    }
    let trace = match take("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let coordinator = PathBuf::from(take("coordinator"));
    let work_dir = PathBuf::from(take("work-dir"));
    if let Some(stray) = named.keys().next() {
        usage(&format!("unknown flag --{stray}"));
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
        coordinator,
        work_dir,
    }
}

fn set_up(args: &Args, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "sweep_batched" => Box::new(sweep::setup(args.seed, env)?),
        "campaign_kill" => Box::new(campaign::setup(args.seed, env)?),
        "week_trace" => Box::new(week::setup(args.seed)?),
        "paper_fig5" => Box::new(fig5::setup()?),
        other => usage(&format!("unknown workload `{other}`")),
    })
}

/// Times one cold set-up in a fresh process and checks that it
/// reproduces `reference`. Returns its wall, seconds.
fn cold_setup(args: &Args, reference: u64, checks: &mut Checks) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let t = Instant::now();
    let out = Command::new(&exe)
        .args(["--setup-only", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--coordinator")
        .arg(&args.coordinator)
        .arg("--work-dir")
        .arg(&args.work_dir)
        .output();
    let wall = t.elapsed().as_secs_f64();
    let printed = out.ok().filter(|o| o.status.success()).and_then(|o| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup-reference "))
            .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
    });
    checks.check("setup.cold_reference_matches", printed == Some(reference));
    wall
}

/// Alternates plain and traced passes until `seconds` have gone by, and
/// at least `MIN_PASSES` of each.
fn alternating_passes(
    seconds: f64,
    workload: &mut dyn Workload,
    checks: &mut Checks,
) -> Vec<(bool, Pass)> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.len() < 2 * MIN_PASSES || start.elapsed() < budget {
        for traced in [false, true] {
            passes.push((traced, workload.pass(traced, checks)));
        }
    }
    passes
}

/// Tracks every pass's deterministic counts against the first pass's.
#[derive(Default)]
struct CountLedger {
    first: Option<BTreeMap<&'static str, u64>>,
}

impl CountLedger {
    /// Checks `pass`'s counts; a pass whose counts differ fails all its
    /// operations.
    fn observe(&mut self, pass: &mut Pass, checks: &mut Checks) {
        let first = self.first.get_or_insert_with(|| pass.counts.clone());
        if !checks.check("counts.stable", *first == pass.counts) {
            pass.failed = pass.ops;
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .first
            .iter()
            .flatten()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// What a run measured: metric values and operation counts.
struct Outcome {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

/// Prints every metric of `metrics` by name and unit, the check ledger
/// and, as the last line, the JSON result.
fn report(metrics: &[(&str, &str)], outcome: &Outcome, checks: &Checks) {
    let mut body = Vec::new();
    for &(name, unit) in metrics {
        let value = num(outcome.values.get(name).copied().unwrap_or(0.0));
        println!("metric {name:<26} {value:>22} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let (attempted, failed) = (outcome.attempted, outcome.failed);
    let correct = checks.all_passed() && failed == 0 && attempted > 0;
    println!("checks {}", checks.to_json());
    println!(
        "failed_frac {} ({failed} of {attempted} operations)",
        num(failed as f64 / attempted.max(1) as f64)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// `--trace 0`: timed closed-loop passes for `--seconds`, with the cold
/// set-ups spread among them.
fn timed_run(args: &Args, workload: &mut dyn Workload, checks: &mut Checks) -> Outcome {
    let reference = workload.reference();
    let rate_q = RATE_QUANTILE
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, q)| q)
        .expect("every workload has a rate quantile");

    // One untimed pass lets caches fill and lazy set-up finish.
    let mut ledger = CountLedger::default();
    let mut warm = workload.pass(false, checks);
    ledger.observe(&mut warm, checks);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);

    let steal_before = sys::steal_ticks();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut timed_for = Duration::ZERO;
    let mut cold = Vec::new();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || timed_for < budget || cold.len() < SETUP_SAMPLES {
        let due = timed_for.as_secs_f64() / args.seconds * SETUP_SAMPLES as f64;
        if cold.len() < SETUP_SAMPLES && (cold.len() as f64 <= due || timed_for >= budget) {
            cold.push(cold_setup(args, reference, checks));
            continue;
        }
        let t = Instant::now();
        sys::release_free_heap();
        sys::reset_peak_rss();
        let mut pass = workload.pass(false, checks);
        pass.self_rss_kib = sys::self_peak_rss_kib();
        timed_for += t.elapsed();
        passes.push(pass);
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, sys::steal_ticks()) {
        // Diagnostic only: a run the host starved shows here.
        let frac = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host_steal_frac {}", num(frac));
    }
    let (mut cells, mut sim, mut runs, mut rss_kib) = (vec![], vec![], vec![], vec![]);
    for pass in &mut passes {
        ledger.observe(pass, checks);
        attempted += pass.ops;
        failed += pass.failed;
        let wall = pass.wall.as_secs_f64();
        cells.push(pass.ops as f64 / wall);
        sim.push(pass.sim_s / wall);
        runs.push(pass.arrivals as f64 / wall);
        // A pass run by child processes peaks in them (the coordinator
        // and its workers); an in-process pass, in this process.
        rss_kib.push(if pass.child_rss_kib > 0 {
            pass.child_rss_kib
        } else {
            pass.self_rss_kib
        } as f64);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    println!(
        "passes {} timed, rates at quantile {rate_q} ({:.1} passes beyond it)",
        passes.len(),
        (1.0 - rate_q) * passes.len() as f64
    );
    for (name, rates) in [
        ("cells_per_s", &cells),
        ("sim_s_per_host_s", &sim),
        ("runs_per_s", &runs),
    ] {
        println!(
            "rate {name:<17} median {:>20} quantile {rate_q}: {:>20}",
            num(median(rates)),
            num(quantile(rates, rate_q))
        );
    }
    let walls_ms: Vec<String> = walls.iter().map(|w| format!("{:.3}", w * 1e3)).collect();
    println!("pass_walls_ms [{}]", walls_ms.join(", "));
    println!("setup_samples_s {:?} (median {})", cold, num(median(&cold)));
    println!("counts {}", ledger.to_json());
    let values = BTreeMap::from([
        ("cells_per_s", quantile(&cells, rate_q)),
        ("sim_s_per_host_s", quantile(&sim, rate_q)),
        ("runs_per_s", quantile(&runs, rate_q)),
        (
            "setup_s",
            cold.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("peak_rss_mb", median(&rss_kib) / 1024.0),
    ]);
    Outcome {
        values,
        attempted,
        failed,
    }
}

/// `--trace 1`: in-process set-up with its phases timed, then plain and
/// traced passes alternated, then the once-per-run layer measurements.
fn traced_run(workload: &mut dyn Workload, seconds: f64, checks: &mut Checks) -> Outcome {
    let mut values: BTreeMap<&'static str, f64> = workload.setup_phases().into_iter().collect();

    let mut ledger = CountLedger::default();
    let mut warm = workload.pass(false, checks);
    ledger.observe(&mut warm, checks);

    let mut passes = alternating_passes(seconds, workload, checks);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (is_traced, pass) in &mut passes {
        ledger.observe(pass, checks);
        attempted += pass.ops;
        failed += pass.failed;
        if *is_traced {
            traced.push(pass.wall.as_secs_f64());
            for &(name, v) in &pass.layers {
                samples.entry(name).or_default().push(v);
            }
        } else {
            plain.push(pass.wall.as_secs_f64());
        }
    }
    for (name, v) in samples {
        if EXACT.contains(&name) {
            checks.check("layers.exact_counts_repeat", v.iter().all(|&x| x == v[0]));
        }
        values.insert(name, median(&v));
    }
    values.extend(workload.extra_layers(checks));
    values.extend(micro::layers(&workload.apps()));
    values.insert("trace.overhead", median(&traced) / median(&plain));

    let known: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let unknown: Vec<&&str> = values.keys().filter(|n| !known.contains(*n)).collect();
    checks.check("layers.all_named", unknown.is_empty());
    println!("counts {}", ledger.to_json());
    Outcome {
        values,
        attempted,
        failed,
    }
}

fn main() {
    let args = parse_args();
    let work_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let env = Env {
        coordinator: args.coordinator.clone(),
        work_dir: work_dir.clone(),
        threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(2)),
    };
    let code = match set_up(&args, &env) {
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            1
        }
        Ok(workload) if args.setup_only => {
            println!("setup-reference {:016x}", workload.reference());
            0
        }
        Ok(mut workload) => {
            let load = workload.load();
            println!(
                "stamp {}",
                sys::stamp(
                    &args.workload,
                    args.seed,
                    load.threads,
                    load.processes,
                    &[("trace", u8::from(args.trace).to_string())],
                )
            );
            let mut checks = Checks::default();
            if args.trace {
                let outcome = traced_run(workload.as_mut(), args.seconds, &mut checks);
                report(&PER_LAYER, &outcome, &checks);
            } else {
                let outcome = timed_run(&args, workload.as_mut(), &mut checks);
                report(&END_TO_END, &outcome, &checks);
            }
            0
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    std::process::exit(code);
}
