//! End-to-end distributed campaign acceptance: a real multi-process
//! campaign driven through the `teem-coordinator` binary — including
//! one worker dying mid-shard — merges to a journal digest-identical
//! to the uninterrupted single-process run.
//!
//! This is the process-boundary complement of
//! `crates/scenario/tests/shard_invariants.rs` (same algebra, pinned
//! in-process) and the local twin of the CI `distributed-campaign`
//! job, which runs the same assertions in release mode on the 500-cell
//! acceptance grid. Here the 60-cell `small` grid keeps debug-mode
//! wall time comparable to the existing 500-cell resume test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The coordinator binary under test (built by cargo for this crate).
fn coordinator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_teem-coordinator"))
}

/// A per-test campaign directory, removed on drop.
struct CampaignDir(PathBuf);

impl CampaignDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("teem_campaign_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("campaign dir");
        CampaignDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CampaignDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_ok(cmd: &mut Command) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = cmd.output().expect("spawns");
    let stdout = String::from_utf8_lossy(&stdout).to_string();
    let stderr = String::from_utf8_lossy(&stderr).to_string();
    assert!(
        status.success(),
        "command failed ({status:?})\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// Pulls the `merged digest <16 hex>` line out of coordinator output.
fn digest_of(output: &str) -> String {
    output
        .lines()
        .find_map(|l| l.strip_prefix("merged digest "))
        .unwrap_or_else(|| panic!("no digest line in:\n{output}"))
        .to_string()
}

/// A clean 3-process campaign is digest-identical to the
/// single-process run, and its merged journal file loads as an
/// ordinary complete journal.
#[test]
fn three_process_campaign_matches_single_process_digest() {
    let dir = CampaignDir::new("clean");
    let merged_path = dir.path().join("merged.jsonl");

    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    let campaign = run_ok(coordinator().args([
        "run",
        "--grid",
        "small",
        "--workers",
        "3",
        "--dir",
        dir.path().to_str().expect("utf-8 tmp"),
        "--merged",
        merged_path.to_str().expect("utf-8 tmp"),
        "--verify",
    ]));
    assert_eq!(
        digest_of(&single),
        digest_of(&campaign),
        "single:\n{single}\ncampaign:\n{campaign}"
    );
    assert!(campaign.contains("verified"), "{campaign}");
    assert!(campaign.contains("(0 deaths"), "{campaign}");

    // The merged journal is an ordinary journal: the offline merge of
    // the shard journals reproduces the same digest from the files
    // alone.
    let shards: Vec<String> = (0..3)
        .map(|i| {
            dir.path()
                .join(format!("shard_{i:03}.jsonl"))
                .to_str()
                .expect("utf-8 tmp")
                .to_string()
        })
        .collect();
    let offline = run_ok(coordinator().arg("merge").args(&shards));
    assert_eq!(digest_of(&offline), digest_of(&single), "{offline}");
}

/// The acceptance headline: worker 1 dies (durable abort) after 3
/// cells; the coordinator re-shards its remaining cells onto the
/// survivors; the merged result is still digest-identical to the
/// uninterrupted single-process run.
#[test]
fn campaign_with_a_worker_killed_mid_shard_still_matches_single_process_digest() {
    let dir = CampaignDir::new("killed");

    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    let campaign = run_ok(coordinator().args([
        "run",
        "--grid",
        "small",
        "--workers",
        "3",
        "--dir",
        dir.path().to_str().expect("utf-8 tmp"),
        "--kill",
        "1@3",
        "--verify",
    ]));
    assert_eq!(
        digest_of(&single),
        digest_of(&campaign),
        "single:\n{single}\ncampaign:\n{campaign}"
    );
    assert!(campaign.contains("verified"), "{campaign}");
    assert!(campaign.contains("1 deaths"), "{campaign}");

    // The dead worker left a journal with exactly the 3 durable records
    // it synced before aborting — those cells were *not* re-run (the
    // merge would reject the overlap otherwise), just merged in.
    let dead = std::fs::read_to_string(dir.path().join("shard_001.jsonl")).expect("dead journal");
    let done_lines = dead
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"done\""))
        .count();
    assert_eq!(done_lines, 3, "exactly the durable records at death");
    assert!(
        !dir.path().join("shard_001.jsonl.metrics.json").exists(),
        "a dead worker writes no metrics sidecar"
    );
}

/// Counts the `done` records in a journal file.
fn done_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"done\""))
        .count()
}

/// Kill coverage under the workers' batched fsync: wherever the kill
/// lands relative to a sync boundary, the dead worker's journal holds
/// exactly the R records it wrote, and the merge still equals the
/// single-process run.
#[test]
fn a_killed_worker_keeps_exactly_the_records_it_wrote() {
    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    for records in [1usize, 17] {
        let dir = CampaignDir::new(&format!("kill_at_{records}"));
        let campaign = run_ok(coordinator().args([
            "run",
            "--grid",
            "small",
            "--workers",
            "2",
            "--dir",
            dir.path().to_str().expect("utf-8 tmp"),
            "--kill",
            &format!("1@{records}"),
        ]));
        assert_eq!(digest_of(&single), digest_of(&campaign), "{campaign}");
        assert!(campaign.contains("(1 deaths"), "{campaign}");
        assert_eq!(
            done_lines(&dir.path().join("shard_001.jsonl")),
            records,
            "the dead worker's journal holds exactly its records"
        );
    }
}

/// The stall path: worker 1 goes silent after 5 records; the
/// coordinator's stall timeout kills it, re-shards its remaining cells
/// and the merge still verifies against the single-process run.
#[test]
fn a_stalled_worker_is_killed_and_its_cells_resharded() {
    let dir = CampaignDir::new("hung");

    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    let campaign = run_ok(coordinator().args([
        "run",
        "--grid",
        "small",
        "--workers",
        "3",
        "--dir",
        dir.path().to_str().expect("utf-8 tmp"),
        "--hang",
        "1@5",
        "--stall-timeout-ms",
        "500",
        "--verify",
    ]));
    assert_eq!(
        digest_of(&single),
        digest_of(&campaign),
        "single:\n{single}\ncampaign:\n{campaign}"
    );
    assert!(campaign.contains("verified"), "{campaign}");
    assert!(campaign.contains("1 stalls killed"), "{campaign}");
    assert_eq!(done_lines(&dir.path().join("shard_001.jsonl")), 5);
}
