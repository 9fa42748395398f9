//! `teem-coordinator` — distributed sharded sweep campaigns.
//!
//! One binary, both roles: the **coordinator** spawns itself in
//! **worker** mode once per shard, supervises the worker journals for
//! liveness, re-shards a dead or stalled worker's remaining cells onto
//! survivors, and merges every journal into one verified whole whose
//! `journal_digest` equals an uninterrupted single-process run's.
//!
//! ```sh
//! # 3-process campaign of the 500-cell acceptance grid, verified
//! # against an in-process single-run reference digest:
//! teem-coordinator run --grid acceptance --workers 3 --dir /tmp/camp --verify
//!
//! # same, but worker 1 aborts itself after 30 durable records —
//! # deterministic stand-in for a SIGKILL mid-shard; the campaign
//! # re-shards its remaining cells and still verifies:
//! teem-coordinator run --grid acceptance --workers 3 --dir /tmp/camp \
//!     --kill 1@30 --verify
//!
//! # the single-process reference (prints the same digest):
//! teem-coordinator single --grid acceptance
//!
//! # offline merge of shard journals:
//! teem-coordinator merge /tmp/camp/shard_*.jsonl
//! ```
//!
//! Worker mode (`teem-coordinator worker ...`) is spawned by the
//! coordinator, not by hand; its flags encode a `WorkerAssignment`
//! (`--shard`, `--part`, `--exclude`) plus the failure-injection knobs
//! `--die-after K` (sync the journal, then `abort()` after the K-th
//! done record) and `--hang-after K` (stop making progress — exercises
//! the coordinator's stall timeout).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use teem_core::runner::Approach;
use teem_scenario::{
    journal_digest, metrics_sidecar, run_campaign, CampaignOpts, ConfigPatch, LoadedJournal,
    Scenario, ShardSpec, SweepEvent, SweepJournal, SweepSpec, WorkerAssignment,
};
use teem_telemetry::CellRecord;
use teem_workload::App;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         teem-coordinator run --grid <small|acceptance> --dir DIR [--workers N] \
         [--kill I@R] [--hang I@R] [--stall-timeout-ms T] [--merged PATH] [--verify] \
         [--progress]\n  \
         teem-coordinator single --grid <small|acceptance> [--journal PATH]\n  \
         teem-coordinator merge JOURNAL... [--out PATH]\n  \
         teem-coordinator worker --grid G --journal PATH --shard LABEL [--part J/M] \
         [--exclude PATH]... [--die-after K] [--hang-after K]"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("teem-coordinator: {message}");
    std::process::exit(1);
}

/// The built-in campaign grids. `acceptance` is the 500-cell grid the
/// resume acceptance test pins (5 scenarios × 10 thresholds × 10
/// ambients, 2 s cells); `small` is a 60-cell debug-friendly cut of
/// the same axes for integration tests.
fn grid(name: &str) -> SweepSpec {
    let short = ConfigPatch {
        timeout_s: Some(2.0),
        ..ConfigPatch::default()
    };
    match name {
        "acceptance" => {
            let scenarios = vec![
                Scenario::new("s-mvt").arrive(0.0, App::Mvt, 0.9),
                Scenario::new("s-gesummv").arrive(0.0, App::Gesummv, 0.9),
                Scenario::new("s-syrk").arrive(0.0, App::Syrk, 0.9),
                Scenario::new("s-atax").arrive(0.0, App::Mvt, 0.7),
                Scenario::new("s-pair")
                    .arrive(0.0, App::Gesummv, 0.9)
                    .arrive(0.5, App::Mvt, 0.9),
            ];
            let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + i as f64).collect();
            let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * i as f64).collect();
            let spec = SweepSpec::over(scenarios)
                .thresholds_c(&thresholds)
                .ambients_c(&ambients)
                .patch_config(short)
                .threads(4);
            assert_eq!(spec.cells(), 500);
            spec
        }
        "small" => {
            let scenarios = vec![
                Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
                Scenario::new("gesummv").arrive(0.0, App::Gesummv, 0.9),
            ];
            let thresholds: Vec<f64> = [80.0, 83.0, 86.0].to_vec();
            let ambients: Vec<f64> = (0..5).map(|i| 15.0 + 10.0 * i as f64).collect();
            let spec = SweepSpec::over(scenarios)
                .approaches(&[Approach::Teem, Approach::Ondemand])
                .thresholds_c(&thresholds)
                .ambients_c(&ambients)
                .patch_config(short)
                .threads(2);
            assert_eq!(spec.cells(), 60);
            spec
        }
        other => fail(format!("unknown grid `{other}` (small|acceptance)")),
    }
}

/// The uninterrupted single-process reference records of `spec`.
fn reference_records(spec: &SweepSpec) -> Vec<CellRecord> {
    let mut records = Vec::new();
    spec.run_streaming(|ev| {
        if let SweepEvent::CellDone { cell, result } = ev {
            records.push(CellRecord::from_summary(
                cell.index,
                &result.summary,
                result.trace.digest(),
            ));
        }
    })
    .unwrap_or_else(|e| fail(format!("reference sweep failed: {e}")));
    records
}

/// A tiny flag cursor over `args` — everything here is `--flag value`
/// or a positional.
struct Args {
    args: Vec<String>,
    used: Vec<bool>,
}

impl Args {
    fn new(args: Vec<String>) -> Self {
        let used = vec![false; args.len()];
        Args { args, used }
    }

    fn flag_value(&mut self, name: &str) -> Option<String> {
        let at = self
            .args
            .iter()
            .enumerate()
            .position(|(i, a)| !self.used[i] && a == name)?;
        if at + 1 >= self.args.len() || self.used[at + 1] {
            fail(format!("flag {name} needs a value"));
        }
        self.used[at] = true;
        self.used[at + 1] = true;
        Some(self.args[at + 1].clone())
    }

    fn flag_values(&mut self, name: &str) -> Vec<String> {
        let mut values = Vec::new();
        while let Some(v) = self.flag_value(name) {
            values.push(v);
        }
        values
    }

    fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(at) => {
                self.used[at] = true;
                true
            }
            None => false,
        }
    }

    fn positionals(self) -> Vec<String> {
        let leftovers: Vec<String> = self
            .args
            .into_iter()
            .zip(self.used)
            .filter(|(_, used)| !used)
            .map(|(a, _)| a)
            .collect();
        if let Some(stray) = leftovers.iter().find(|a| a.starts_with("--")) {
            fail(format!("unknown flag {stray}"));
        }
        leftovers
    }

    fn finish(self) {
        let leftovers = self.positionals();
        if !leftovers.is_empty() {
            fail(format!("unexpected arguments: {leftovers:?}"));
        }
    }
}

fn parse_usize(text: &str, what: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| fail(format!("{what} `{text}` is not a number")))
}

/// Parses an `I@R` injection spec (worker ordinal @ record count).
fn parse_at(text: &str, what: &str) -> (usize, usize) {
    let (i, r) = text
        .split_once('@')
        .unwrap_or_else(|| fail(format!("{what} must be I@R, got `{text}`")));
    (parse_usize(i, what), parse_usize(r, what))
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

fn worker(mut args: Args) -> ! {
    let spec = grid(&args.flag_value("--grid").unwrap_or_else(|| usage()));
    let journal_path = PathBuf::from(args.flag_value("--journal").unwrap_or_else(|| usage()));
    let shard: ShardSpec = args
        .flag_value("--shard")
        .unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|e| fail(e));
    let part = args.flag_value("--part").map(|p| {
        let (j, m) = p
            .split_once('/')
            .unwrap_or_else(|| fail(format!("--part must be J/M, got `{p}`")));
        (parse_usize(j, "--part"), parse_usize(m, "--part"))
    });
    let exclude: Vec<PathBuf> = args
        .flag_values("--exclude")
        .into_iter()
        .map(PathBuf::from)
        .collect();
    let die_after = args
        .flag_value("--die-after")
        .map(|v| parse_usize(&v, "--die-after"));
    let hang_after = args
        .flag_value("--hang-after")
        .map(|v| parse_usize(&v, "--hang-after"));
    args.finish();

    let assignment = WorkerAssignment {
        shard,
        part,
        exclude,
    };
    let restricted = assignment
        .apply(spec)
        .unwrap_or_else(|e| fail(format!("assignment does not apply: {e}")));
    let mut journal = SweepJournal::create(&journal_path, &restricted)
        .unwrap_or_else(|e| fail(format!("cannot create journal: {e}")));

    let mut done = 0usize;
    let (_, report) = restricted
        .run_instrumented(|ev| {
            journal.observe(&ev).expect("journal write");
            if matches!(ev, SweepEvent::CellDone { .. }) {
                done += 1;
                if Some(done) == die_after {
                    // A deterministic stand-in for SIGKILL mid-shard:
                    // make the K-th record durable, then die without
                    // unwinding (no Drop, no final sync, no sidecar).
                    journal.sync().expect("final sync before dying");
                    std::process::abort();
                }
                if Some(done) == hang_after {
                    // A straggler that is alive but silent — the
                    // coordinator's stall timeout must reap it.
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
            }
        })
        .unwrap_or_else(|e| fail(format!("shard sweep failed: {e}")));
    let mut report = report;
    report.add_journal(&journal.io_stats());
    drop(journal);

    // The metrics sidecar is written only on clean completion — a dead
    // worker contributes no metrics, and the campaign merge tolerates
    // the absence.
    let sidecar = metrics_sidecar(&journal_path);
    std::fs::write(&sidecar, report.snapshot().to_json())
        .unwrap_or_else(|e| fail(format!("cannot write metrics sidecar: {e}")));
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// run (coordinator)
// ---------------------------------------------------------------------

fn run(mut args: Args) -> ! {
    let grid_name = args.flag_value("--grid").unwrap_or_else(|| usage());
    let dir = PathBuf::from(args.flag_value("--dir").unwrap_or_else(|| usage()));
    let workers = args
        .flag_value("--workers")
        .map(|v| parse_usize(&v, "--workers"))
        .unwrap_or(3);
    let kill = args.flag_value("--kill").map(|v| parse_at(&v, "--kill"));
    let hang = args.flag_value("--hang").map(|v| parse_at(&v, "--hang"));
    let stall_timeout = Duration::from_millis(
        args.flag_value("--stall-timeout-ms")
            .map(|v| parse_usize(&v, "--stall-timeout-ms") as u64)
            .unwrap_or(120_000),
    );
    let merged_path = args.flag_value("--merged").map(PathBuf::from);
    let verify = args.flag("--verify");
    let progress = args.flag("--progress");
    args.finish();
    if workers == 0 {
        fail("--workers must be at least 1");
    }

    let spec = grid(&grid_name);
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(format!("cannot locate own executable: {e}")));

    let mut opts = CampaignOpts::new(workers, &dir);
    opts.stall_timeout = stall_timeout;
    opts.progress = progress;

    // Failure injection rides on the spawn closure: the first
    // `workers` spawns are the initial generation (ordinals 0..N), and
    // the chosen ordinal gets a self-destruct (`--die-after`, a
    // durable-then-abort stand-in for SIGKILL) or a stall
    // (`--hang-after`). Replacements never inherit the injection.
    let mut ordinal = 0usize;
    let spawn = |assignment: &WorkerAssignment, journal: &Path| -> Command {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--grid")
            .arg(&grid_name)
            .arg("--journal")
            .arg(journal)
            .arg("--shard")
            .arg(assignment.shard.to_string());
        if let Some((j, m)) = assignment.part {
            cmd.arg("--part").arg(format!("{j}/{m}"));
        }
        for path in &assignment.exclude {
            cmd.arg("--exclude").arg(path);
        }
        if let Some((victim, records)) = kill {
            if ordinal == victim {
                cmd.arg("--die-after").arg(records.to_string());
            }
        }
        if let Some((victim, records)) = hang {
            if ordinal == victim {
                cmd.arg("--hang-after").arg(records.to_string());
            }
        }
        ordinal += 1;
        cmd
    };

    let outcome =
        run_campaign(&spec, &opts, spawn).unwrap_or_else(|e| fail(format!("campaign failed: {e}")));

    println!(
        "campaign complete: {} cells over {} journals ({} deaths, {} stalls killed)",
        outcome.merged.records.len(),
        outcome.journals.len(),
        outcome.deaths,
        outcome.stalls_killed
    );
    println!("merged digest {:016x}", outcome.digest);
    if let Some(metrics) = &outcome.metrics {
        if let Some(cells) = metrics.counter("sweep.cells") {
            println!("merged metrics: sweep.cells {cells} (surviving shards only)");
        }
    }
    if let Some(path) = merged_path {
        outcome
            .merged
            .write_to(&path)
            .unwrap_or_else(|e| fail(format!("cannot write merged journal: {e}")));
        println!("merged journal written to {}", path.display());
    }
    if verify {
        let reference = reference_records(&spec);
        let expected = journal_digest(&reference);
        if outcome.digest != expected {
            fail(format!(
                "VERIFY FAILED: merged digest {:016x} != single-process digest {expected:016x}",
                outcome.digest
            ));
        }
        println!("verified: digest-identical to the single-process run");
    }
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// single, merge
// ---------------------------------------------------------------------

fn single(mut args: Args) -> ! {
    let spec = grid(&args.flag_value("--grid").unwrap_or_else(|| usage()));
    let journal_path = args.flag_value("--journal").map(PathBuf::from);
    args.finish();

    let records = match &journal_path {
        Some(path) => {
            let mut journal = SweepJournal::create(path, &spec)
                .unwrap_or_else(|e| fail(format!("cannot create journal: {e}")));
            let mut records = Vec::new();
            spec.run_streaming(|ev| {
                journal.observe(&ev).expect("journal write");
                if let SweepEvent::CellDone { cell, result } = ev {
                    records.push(CellRecord::from_summary(
                        cell.index,
                        &result.summary,
                        result.trace.digest(),
                    ));
                }
            })
            .unwrap_or_else(|e| fail(format!("sweep failed: {e}")));
            records
        }
        None => reference_records(&spec),
    };
    println!("single-process run: {} cells", records.len());
    println!("merged digest {:016x}", journal_digest(&records));
    std::process::exit(0);
}

fn merge(mut args: Args) -> ! {
    let out = args.flag_value("--out").map(PathBuf::from);
    let paths = args.positionals();
    if paths.is_empty() {
        usage();
    }
    let journals: Vec<LoadedJournal> = paths
        .iter()
        .map(|p| LoadedJournal::load(p).unwrap_or_else(|e| fail(format!("{p}: {e}"))))
        .collect();
    let merged =
        SweepJournal::merge(&journals).unwrap_or_else(|e| fail(format!("merge refused: {e}")));
    println!(
        "merged {} journals: {} cells, {} failures on record",
        journals.len(),
        merged.records.len(),
        merged.failed.len()
    );
    println!("merged digest {:016x}", journal_digest(&merged.records));
    if let Some(path) = out {
        merged
            .write_to(&path)
            .unwrap_or_else(|e| fail(format!("cannot write merged journal: {e}")));
        println!("merged journal written to {}", path.display());
    }
    std::process::exit(0);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let command = argv.remove(0);
    let args = Args::new(argv);
    match command.as_str() {
        "run" => run(args),
        "worker" => worker(args),
        "single" => single(args),
        "merge" => merge(args),
        _ => usage(),
    }
}
