//! Invariants of sharded sweep campaigns, pinned in-process (the
//! multi-process coordinator is exercised end to end by the
//! `teem-coordinator` integration test in `crates/bench`):
//!
//! 1. **Modulo shards partition the grid.** For any grid size and
//!    worker count, the union of `mod:k/n` shards covers every cell
//!    exactly once (property test) — the precondition for the merge's
//!    no-overlap/full-coverage checks ever passing.
//! 2. **Lowering is exact.** A sharded spec streams exactly the
//!    shard's cells — nothing more, nothing missing — and stamps the
//!    shard label into its journal header next to the *whole-grid*
//!    fingerprint.
//! 3. **Merge ≡ uninterrupted.** Shard journals merge into a journal
//!    digest-identical to one uninterrupted single-process run, in any
//!    merge order; overlap, missing coverage and foreign fingerprints
//!    are hard errors.
//! 4. **Re-shard composes.** A straggler's journal subtracts from a
//!    replacement's cell set via `exclude_completed` (shard labels may
//!    differ), and the merge of every journal — dead worker's included
//!    — still equals the uninterrupted run.
//! 5. **Exits wake the coordinator.** `run_campaign` notices a worker's
//!    exit when it happens, not at its next poll.

use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use teem_core::runner::Approach;
use teem_scenario::{
    journal_digest, run_campaign, run_interrupted, CampaignOpts, ConfigPatch, JournalError,
    LoadedJournal, Scenario, ShardSpec, SweepEvent, SweepJournal, SweepSpec, WorkerAssignment,
};
use teem_telemetry::CellRecord;
use teem_workload::App;

/// A unique temp file per test, removed on drop (including panic).
struct TempJournal(PathBuf);

impl TempJournal {
    fn new(tag: &str) -> Self {
        TempJournal(
            std::env::temp_dir().join(format!("teem_shard_{tag}_{}.jsonl", std::process::id())),
        )
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn short_cells() -> ConfigPatch {
    ConfigPatch {
        timeout_s: Some(2.0),
        ..ConfigPatch::default()
    }
}

/// An 8-cell grid (2 scenarios × 2 approaches × 2 thresholds) — small
/// enough to run many times, big enough that 3 shards are all
/// non-trivial.
fn grid_spec() -> SweepSpec {
    SweepSpec::over([
        Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("gesummv").arrive(0.0, App::Gesummv, 0.9),
    ])
    .approaches(&[Approach::Teem, Approach::Ondemand])
    .thresholds_c(&[80.0, 85.0])
    .patch_config(short_cells())
    .threads(2)
}

/// The uninterrupted single-process reference records.
fn uninterrupted(spec: &SweepSpec) -> Vec<CellRecord> {
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
    .expect("reference sweep runs");
    records.sort_by_key(|r| r.index);
    records
}

/// Runs `spec` (already restricted to one worker's cells) journaling
/// into `path`, returning the loaded journal.
fn run_shard(spec: SweepSpec, path: &PathBuf) -> LoadedJournal {
    let mut journal = SweepJournal::create(path, &spec).expect("create shard journal");
    spec.run_streaming(|ev| journal.observe(&ev).expect("journal write"))
        .expect("shard runs");
    drop(journal);
    LoadedJournal::load(path).expect("shard journal loads")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The union of `mod:0/n .. mod:n-1/n` covers any grid exactly
    /// once, and so does any `range` chain cut at arbitrary points —
    /// the partition precondition behind every merge.
    #[test]
    fn modulo_shards_cover_the_grid_exactly_once(grid in 0usize..600, workers in 1usize..9) {
        let mut seen = vec![0u32; grid];
        for shard in ShardSpec::plan(workers) {
            shard.validate(grid).expect("planned shards fit any grid");
            prop_assert_eq!(shard.cells(grid).len(), shard.count(grid));
            for i in shard.cells(grid) {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "every cell owned exactly once");

        // Range shards tile too when the cut points chain.
        let cut = grid / 3;
        let cut2 = cut + (grid - cut) / 2;
        let mut seen = vec![0u32; grid];
        for (start, end) in [(0, cut), (cut, cut2), (cut2, grid)] {
            let shard = ShardSpec::Range { start, end };
            shard.validate(grid).expect("chained ranges fit");
            for i in shard.cells(grid) {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1));
    }
}

/// A sharded spec streams exactly the shard's cells, reports the rest
/// as skipped, and stamps the shard label (but the whole-grid
/// fingerprint) into its journal.
#[test]
fn shard_lowering_runs_exactly_the_shards_cells_and_stamps_the_header() {
    let spec = grid_spec();
    let grid = spec.cells();
    assert_eq!(grid, 8);
    let shard = ShardSpec::Modulo { k: 1, of: 3 };
    let expected = shard.cells(grid);

    let tmp = TempJournal::new("lowering");
    let sharded = spec.clone().shard(shard.clone());
    assert_eq!(sharded.shard_spec(), Some(&shard));
    assert_eq!(
        sharded.fingerprint(),
        spec.fingerprint(),
        "sharding is scheduling, not physics"
    );

    let mut streamed = Vec::new();
    let mut journal = SweepJournal::create(tmp.path(), &sharded).expect("create");
    let stats = sharded
        .run_streaming(|ev| {
            journal.observe(&ev).expect("write");
            if let SweepEvent::CellDone { cell, .. } = ev {
                streamed.push(cell.index);
            }
        })
        .expect("runs");
    drop(journal);
    streamed.sort_unstable();
    assert_eq!(streamed, expected, "exactly the shard's cells");
    assert_eq!(stats.cells, expected.len());
    assert_eq!(stats.skipped, grid - expected.len());

    let loaded = LoadedJournal::load(tmp.path()).expect("loads");
    assert_eq!(loaded.shard.as_deref(), Some("mod:1/3"));
    assert_eq!(loaded.fingerprint, spec.fingerprint());
    assert_eq!(loaded.cells, grid, "header counts the whole grid");

    // Resume polarity: the same sharded spec resumes; a different shard
    // or the unsharded spec is a loud ShardMismatch.
    assert!(spec
        .clone()
        .shard(ShardSpec::Modulo { k: 1, of: 3 })
        .resume_from(&loaded)
        .is_ok());
    match spec
        .clone()
        .shard(ShardSpec::Modulo { k: 0, of: 3 })
        .resume_from(&loaded)
    {
        Err(JournalError::ShardMismatch { journal, spec }) => {
            assert_eq!(journal.as_deref(), Some("mod:1/3"));
            assert_eq!(spec.as_deref(), Some("mod:0/3"));
        }
        other => panic!("expected ShardMismatch, got {other:?}"),
    }
    assert!(matches!(
        spec.clone().resume_from(&loaded),
        Err(JournalError::ShardMismatch { .. })
    ));
    // …while exclude_completed deliberately crosses shards.
    assert!(spec
        .clone()
        .shard(ShardSpec::Modulo { k: 0, of: 3 })
        .exclude_completed(&loaded)
        .is_ok());
}

/// Shards that do not fit the grid are rejected at build time.
#[test]
fn ill_fitting_shards_are_rejected_loudly() {
    for shard in [
        ShardSpec::Range { start: 0, end: 9 }, // grid has 8 cells
        ShardSpec::Range { start: 5, end: 3 },
        ShardSpec::Modulo { k: 3, of: 3 },
    ] {
        let result = std::panic::catch_unwind(|| grid_spec().shard(shard.clone()));
        assert!(result.is_err(), "accepted ill-fitting shard {shard:?}");
    }
}

/// Three modulo shards, run independently, merge into a journal
/// digest-identical to the uninterrupted single-process run — whatever
/// order the journals are merged in.
#[test]
fn merged_shard_journals_are_digest_identical_to_a_single_process_run() {
    let spec = grid_spec();
    let reference = uninterrupted(&spec);

    let tmps: Vec<TempJournal> = (0..3)
        .map(|k| TempJournal::new(&format!("merge{k}")))
        .collect();
    let journals: Vec<LoadedJournal> = ShardSpec::plan(3)
        .into_iter()
        .zip(&tmps)
        .map(|(shard, tmp)| run_shard(spec.clone().shard(shard), tmp.path()))
        .collect();

    let merged = SweepJournal::merge(&journals).expect("shards merge");
    assert!(merged.is_complete());
    assert_eq!(merged.shard, None);
    assert_eq!(
        journal_digest(&merged.records),
        journal_digest(&reference),
        "campaign ≡ single process"
    );

    let mut reversed = journals.clone();
    reversed.reverse();
    let remerged = SweepJournal::merge(&reversed).expect("merges in any order");
    assert_eq!(
        journal_digest(&remerged.records),
        journal_digest(&merged.records),
        "merge order cancels out"
    );

    // Dropping a shard is MergeIncomplete; doubling one is MergeOverlap.
    match SweepJournal::merge(&journals[..2]) {
        Err(JournalError::MergeIncomplete { missing, .. }) => {
            assert_eq!(missing, journals[2].records.len());
        }
        other => panic!("expected MergeIncomplete, got {other:?}"),
    }
    let doubled = [journals.clone(), vec![journals[0].clone()]].concat();
    assert!(matches!(
        SweepJournal::merge(&doubled),
        Err(JournalError::MergeOverlap { .. })
    ));
}

/// The straggler story, in-process: worker 1 dies mid-shard; a
/// recovery assignment (same shard, dead journal excluded) runs only
/// the remainder; the merge of **all** journals — the dead worker's
/// partial one included — still equals the uninterrupted run.
#[test]
fn reshard_after_a_mid_shard_death_still_merges_digest_identical() {
    let spec = grid_spec();
    let reference = uninterrupted(&spec);

    // Worker 0 completes its shard.
    let tmp0 = TempJournal::new("dead0");
    let j0 = run_shard(
        spec.clone().shard(ShardSpec::Modulo { k: 0, of: 2 }),
        tmp0.path(),
    );
    assert_eq!(j0.records.len(), 4);

    // Worker 1 dies after 2 of its 4 cells (the same cancellation path
    // a SIGKILL takes through the engine, minus the process boundary).
    let tmp1 = TempJournal::new("dead1");
    let shard1 = ShardSpec::Modulo { k: 1, of: 2 };
    let dying = spec.clone().shard(shard1.clone());
    let mut journal = SweepJournal::create(tmp1.path(), &dying).expect("create");
    run_interrupted(&dying, &mut journal, 2);
    drop(journal);
    let j1 = LoadedJournal::load(tmp1.path()).expect("partial journal loads");
    assert_eq!(j1.records.len(), 2, "died mid-shard");
    assert_eq!(j1.shard.as_deref(), Some("mod:1/2"));

    // Recovery: same base shard, dead worker's journal excluded — the
    // composition the coordinator encodes as a WorkerAssignment.
    let assignment = WorkerAssignment {
        shard: shard1,
        part: None,
        exclude: vec![tmp1.path().clone()],
    };
    let tmp2 = TempJournal::new("dead2");
    let recovery = assignment.apply(spec.clone()).expect("assignment applies");
    let j2 = run_shard(recovery, tmp2.path());
    assert_eq!(j2.records.len(), 2, "only the dead worker's remainder");

    let merged = SweepJournal::merge(&[j0, j1, j2]).expect("all journals merge");
    assert_eq!(
        journal_digest(&merged.records),
        journal_digest(&reference),
        "death + re-shard ≡ uninterrupted single-process run"
    );
}

/// With a 30 s poll interval, a campaign whose workers exit at once
/// still finishes at once: each worker's exit wakes the coordinator.
/// (The "workers" run their shards in-process while their command is
/// built, then are processes that exit immediately.)
#[test]
fn campaign_wakes_on_worker_exit_not_on_its_poll_interval() {
    let spec = grid_spec();
    let dir = std::env::temp_dir().join(format!("teem_shard_wake_{}", std::process::id()));
    let mut opts = CampaignOpts::new(2, &dir);
    opts.poll_interval = Duration::from_secs(30);

    let started = Instant::now();
    let outcome = run_campaign(&spec, &opts, |assignment, journal| {
        let restricted = assignment.apply(spec.clone()).expect("assignment applies");
        run_shard(restricted, &journal.to_path_buf());
        Command::new("true")
    });
    let elapsed = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let outcome = outcome.expect("campaign completes");
    assert_eq!(outcome.deaths, 0);
    assert_eq!(outcome.digest, journal_digest(&uninterrupted(&spec)));
    assert!(
        elapsed < Duration::from_secs(10),
        "the campaign waited for its poll interval: {elapsed:?}"
    );
}
