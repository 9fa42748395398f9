//! `campaign_kill`: a two-worker `teem-coordinator` campaign of the
//! `acceptance` grid with worker 1 killed after R durable records.

use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use teem_scenario::{
    journal_digest, ConfigPatch, LoadedJournal, Scenario, SweepEvent, SweepJournal, SweepSpec,
};
use teem_telemetry::CellRecord;
use teem_workload::App;

use crate::bench::{median, ms, Checks, Env, Load, Pass, Rng, Workload};
use crate::sys;

const WORKERS: usize = 2;
/// The coordinator's built-in per-worker pool size for `acceptance`.
const WORKER_THREADS: usize = 4;
/// A campaign that takes longer than this is killed and counted failed.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

/// The scenarios of the coordinator's `acceptance` grid.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("s-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("s-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("s-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("s-atax").arrive(0.0, App::Mvt, 0.7),
        Scenario::new("s-pair")
            .arrive(0.0, App::Gesummv, 0.9)
            .arrive(0.5, App::Mvt, 0.9),
    ]
}

/// The `acceptance` grid rebuilt in-process, for the in-process layer
/// measurements. Set-up checks that the coordinator's journal carries
/// this spec's fingerprint, so the two cannot drift apart unnoticed.
fn acceptance() -> SweepSpec {
    let thresholds: Vec<f64> = (0..10).map(|i| 80.0 + f64::from(i)).collect();
    let ambients: Vec<f64> = (0..10).map(|i| 15.0 + 2.0 * f64::from(i)).collect();
    SweepSpec::over(scenarios())
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .threads(WORKER_THREADS)
}

/// The done records of an in-process run of `spec`, with its engine
/// step count.
fn records_of(spec: &SweepSpec) -> Result<(Vec<CellRecord>, u64), String> {
    let mut records = Vec::with_capacity(spec.cells());
    let mut steps = 0u64;
    spec.run_streaming(|ev| {
        if let SweepEvent::CellDone { cell, result } = ev {
            steps += result.kernel.steps;
            records.push(CellRecord::from_summary(
                cell.index,
                &result.summary,
                result.trace.digest(),
            ));
        }
    })
    .map_err(|e| e.to_string())?;
    Ok((records, steps))
}

/// The value after `key` in `text` up to the next space, comma or ")".
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c.is_whitespace() || c == ',' || c == ')')
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The `shard_NNN.jsonl` journals in `dir`, sorted.
fn journals_in(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("shard_") && n.ends_with(".jsonl"))
                })
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

pub struct CampaignKill {
    coordinator: PathBuf,
    work_dir: PathBuf,
    spec: SweepSpec,
    kill_after: usize,
    reference: u64,
    reference_sim_s: f64,
    arrivals: u64,
    grid_ms: f64,
    reference_ms: f64,
}

pub fn setup(seed: u64, env: &Env) -> Result<CampaignKill, String> {
    let t0 = Instant::now();
    let kill_after = 10 + (Rng::new(seed).next_u64() % 191) as usize;
    let spec = acceptance();
    let cells = spec.cells();
    for i in 0..cells {
        std::hint::black_box(spec.cell(i));
    }
    let arrivals: usize = scenarios().iter().map(Scenario::arrivals).sum();
    let grid_ms = ms(t0.elapsed());

    // The reference: the coordinator's own single-process run.
    let t1 = Instant::now();
    std::fs::create_dir_all(&env.work_dir).map_err(|e| e.to_string())?;
    let journal = env.work_dir.join("single.jsonl");
    let out = Command::new(&env.coordinator)
        .args(["single", "--grid", "acceptance", "--journal"])
        .arg(&journal)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", env.coordinator.display()))?;
    if !out.status.success() {
        return Err(format!("`teem-coordinator single` failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let reference = field(&stdout, "merged digest ")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("`teem-coordinator single` printed no digest")?;
    let loaded = LoadedJournal::load(&journal).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&journal);
    if journal_digest(&loaded.records) != reference || loaded.records.len() != cells {
        return Err("the single-process journal disagrees with its printed digest".into());
    }
    if loaded.fingerprint != spec.fingerprint() {
        return Err("the in-process acceptance grid differs from the coordinator's".into());
    }
    Ok(CampaignKill {
        coordinator: env.coordinator.clone(),
        work_dir: env.work_dir.clone(),
        reference_sim_s: loaded.records.iter().map(|r| r.makespan_s).sum(),
        arrivals: (arrivals * cells / scenarios().len()) as u64,
        spec,
        kill_after,
        reference,
        grid_ms,
        reference_ms: ms(t1.elapsed()),
    })
}

impl Workload for CampaignKill {
    fn load(&self) -> Load {
        Load {
            threads: WORKER_THREADS,
            processes: 1 + WORKERS,
        }
    }

    fn reference(&self) -> u64 {
        self.reference
    }

    fn setup_phases(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup.grid_ms", self.grid_ms),
            ("setup.reference_ms", self.reference_ms),
        ]
    }

    fn apps(&self) -> Vec<App> {
        vec![App::Mvt, App::Gesummv, App::Syrk]
    }

    fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass {
        let cells = self.spec.cells() as u64;
        let dir = self.work_dir.join("campaign");
        let out_path = self.work_dir.join("campaign.out");
        let _ = std::fs::remove_dir_all(&dir);
        let mut pass = Pass {
            ops: cells,
            failed: cells,
            sim_s: self.reference_sim_s,
            arrivals: self.arrivals,
            ..Pass::default()
        };
        let Ok(out_file) = std::fs::File::create(&out_path) else {
            checks.check("campaign.exits_zero", false);
            return pass;
        };

        let mut cmd = Command::new(&self.coordinator);
        cmd.args(["run", "--grid", "acceptance", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--kill")
            .arg(format!("1@{}", self.kill_after))
            .arg("--dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(out_file)
            .stderr(Stdio::null())
            .process_group(0);
        if traced {
            // The campaign layer's own observability switch.
            cmd.arg("--progress");
        }
        let t0 = Instant::now();
        let exit = cmd
            .spawn()
            .and_then(|child| sys::wait_with_rusage(child, CAMPAIGN_TIMEOUT));
        let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
        let digest = field(&stdout, "merged digest ").and_then(|h| u64::from_str_radix(h, 16).ok());
        pass.wall = t0.elapsed();

        let exit = exit.unwrap_or(sys::Exit {
            success: false,
            max_rss_kib: 0,
        });
        pass.child_rss_kib = exit.max_rss_kib;
        let ok = checks.check("campaign.exits_zero", exit.success)
            & checks.check(
                "campaign.digest_equals_single",
                digest == Some(self.reference),
            );
        let merged_cells = field(&stdout, "campaign complete: ").and_then(|n| n.parse().ok());
        let complete = checks.check("campaign.all_cells_merged", merged_cells == Some(cells));
        if ok && complete {
            pass.failed = 0;
        }

        let journals = journals_in(&dir);
        let bytes: u64 = journals
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let deaths = field(&stdout, "journals (").and_then(|n| n.parse().ok());
        checks.check("campaign.one_death", deaths == Some(1));
        pass.counts = BTreeMap::from([
            ("cells", merged_cells.unwrap_or(0)),
            ("spawns", journals.len() as u64),
            ("deaths", deaths.unwrap_or(u64::MAX)),
            ("journal_bytes", bytes),
        ]);

        if traced {
            // Merge layer: load and merge this campaign's journals.
            let t = Instant::now();
            let merged = journals
                .iter()
                .map(LoadedJournal::load)
                .collect::<Result<Vec<_>, _>>()
                .and_then(|loaded| SweepJournal::merge(&loaded));
            let merge_ms = ms(t.elapsed());
            let merged_ok = merged.is_ok_and(|m| {
                journal_digest(&m.records) == self.reference
                    && m.fingerprint == self.spec.fingerprint()
            });
            checks.check("campaign.merge_equals_single", merged_ok);
            pass.layer("campaign.merge_ms", merge_ms);
            pass.layer("campaign.spawns", journals.len() as f64);
            pass.layer("campaign.deaths", deaths.unwrap_or(0) as f64);

            // The same grid in-process, for campaign.over_single.
            let t = Instant::now();
            let single = records_of(&self.spec);
            let single_wall = t.elapsed();
            let steps = match single {
                Ok((records, steps)) if journal_digest(&records) == self.reference => steps,
                _ => 0,
            };
            checks.check("campaign.in_process_equals_single", steps > 0);
            pass.layer(
                "campaign.over_single",
                pass.wall.as_secs_f64() / single_wall.as_secs_f64(),
            );
            pass.layer("exec.steps", steps as f64);
            pass.layer(
                "exec.host_ns_per_step",
                single_wall.as_nanos() as f64 / steps.max(1) as f64,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }

    fn extra_layers(&mut self, checks: &mut Checks) -> Vec<(&'static str, f64)> {
        // One journaled in-process pass over the same grid, fsync per
        // record as the workers do, timing each `observe` of a
        // `CellDone`; instrumented, for the cell layer's counts.
        let path = self.work_dir.join("journaled.jsonl");
        let Ok(journal) = SweepJournal::create(&path, &self.spec) else {
            checks.check("journal.pass_runs", false);
            return Vec::new();
        };
        let mut journal = journal.with_fsync_every(1);
        let mut observe_ns: Vec<f64> = Vec::with_capacity(self.spec.cells());
        let mut records = Vec::with_capacity(self.spec.cells());
        let mut io_ok = true;
        let run = self.spec.run_instrumented(|ev| {
            if let SweepEvent::CellDone { cell, result } = &ev {
                records.push(CellRecord::from_summary(
                    cell.index,
                    &result.summary,
                    result.trace.digest(),
                ));
                let t = Instant::now();
                io_ok &= journal.observe(&ev).is_ok();
                observe_ns.push(t.elapsed().as_nanos() as f64);
            } else {
                io_ok &= journal.observe(&ev).is_ok();
            }
        });
        let io = journal.io_stats();
        drop(journal);
        let _ = std::fs::remove_file(&path);
        let Ok((_, report)) = run else {
            checks.check("journal.pass_runs", false);
            return Vec::new();
        };
        checks.check(
            "journal.pass_runs",
            io_ok && journal_digest(&records) == self.reference,
        );
        vec![
            ("journal.observe_us", median(&observe_ns) / 1e3),
            (
                "journal.bytes_per_cell",
                io.bytes as f64 / io.records.max(1) as f64,
            ),
            ("journal.records", io.records as f64),
            ("journal.fsyncs", io.fsyncs as f64),
            (
                "exec.run_ms",
                report.busy_ns as f64 / 1e6 / self.spec.cells() as f64,
            ),
            ("thermal.substeps", report.kernel.substeps as f64),
        ]
    }
}
