//! Distributed sweep campaigns: shard one grid across worker
//! processes, supervise them, and re-shard a straggler's remaining
//! cells onto survivors.
//!
//! The substrate was already here — [`SweepSpec::fingerprint`] proves
//! two runs executed the same grid and
//! [`SweepSpec::skip_cells`](crate::SweepSpec::skip_cells) schedules
//! arbitrary cell subsets — this module composes it:
//!
//! * a [`ShardSpec`] names which cell indices one worker owns (a
//!   contiguous index range or a modulo class) and
//!   [`SweepSpec::shard`](crate::SweepSpec::shard) lowers it onto the
//!   skip set, stamping the shard identity into the journal header
//!   beside the grid fingerprint;
//! * [`SweepJournal::merge`](crate::SweepJournal::merge) verifies the
//!   shard journals belong together (fingerprint, grid size, no
//!   overlapping done-sets, full coverage) and folds them into one
//!   journal whose [`journal_digest`](crate::journal_digest) is
//!   order-invariant by construction — digest-identical to a
//!   single-process run of the same grid;
//! * [`run_campaign`] is the coordinator: it spawns one worker process
//!   per shard, wakes on each worker's exit, watches each worker's
//!   journal for stalls, and when a worker dies or stalls it re-shards
//!   the straggler's *remaining* cells (its [`WorkerAssignment`] minus
//!   what its journal proves done) across as many fresh workers as
//!   there are survivors. The daemon/isolate split mirrors the `ffx`
//!   coordinator-with-restartable-isolates exemplar named in
//!   ROADMAP.md.
//!
//! The re-shard algebra is deliberately compositional: a worker's cell
//! set is `part(shard) \ union(completed(exclude journals))`, where
//! `part` partitions the *shard's* position list round-robin. Because
//! the partition is over the fixed shard list (not over "remaining at
//! the time of death"), any worker's replacement is expressible as the
//! same assignment plus one more exclude journal — a second-generation
//! death needs no new mechanism, and the union of all journals still
//! covers every cell exactly once, which the merge verifies.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::journal::{journal_digest, JournalError, LoadedJournal};
use crate::obs::CampaignProgress;
use crate::sweep::SweepSpec;
use teem_telemetry::MetricsSnapshot;

// ---------------------------------------------------------------------
// Shard spec
// ---------------------------------------------------------------------

/// Which cell indices of a sweep grid one worker process owns.
///
/// Both forms partition the same grid, so a shard is **not** part of
/// [`SweepSpec::fingerprint`] — shard journals of one campaign carry
/// the *same* fingerprint as the single-process run they merge into.
/// The shard's identity is stamped separately into the journal header
/// (`"shard"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShardSpec {
    /// The contiguous cell-index range `start..end` (end exclusive).
    Range {
        /// First cell index of the shard.
        start: usize,
        /// One past the last cell index of the shard.
        end: usize,
    },
    /// The modulo class `{ i | i % of == k }`. Modulo shards
    /// interleave, so every shard sees every stripe of the
    /// slow-varying axes — better balanced than ranges when cell cost
    /// varies along an axis.
    Modulo {
        /// The residue this shard owns.
        k: usize,
        /// The number of classes the grid is split into.
        of: usize,
    },
}

impl ShardSpec {
    /// `true` when this shard owns cell `index`.
    pub fn contains(&self, index: usize) -> bool {
        match *self {
            ShardSpec::Range { start, end } => (start..end).contains(&index),
            ShardSpec::Modulo { k, of } => index % of == k,
        }
    }

    /// The shard's cell indices within a `grid`-cell grid, ascending.
    pub fn cells(&self, grid: usize) -> Vec<usize> {
        match *self {
            ShardSpec::Range { start, end } => (start.min(grid)..end.min(grid)).collect(),
            ShardSpec::Modulo { k, of } => (k..grid).step_by(of).collect(),
        }
    }

    /// How many cells of a `grid`-cell grid this shard owns.
    pub fn count(&self, grid: usize) -> usize {
        match *self {
            ShardSpec::Range { start, end } => end.min(grid).saturating_sub(start.min(grid)),
            ShardSpec::Modulo { k, of } => {
                if k < grid {
                    1 + (grid - 1 - k) / of
                } else {
                    0
                }
            }
        }
    }

    /// Checks this shard makes sense for a `grid`-cell grid.
    ///
    /// # Errors
    ///
    /// A human-readable description: range ends past the grid, range
    /// start past its end, modulo residue not below the class count.
    pub fn validate(&self, grid: usize) -> Result<(), String> {
        match *self {
            ShardSpec::Range { start, end } => {
                if start > end {
                    Err(format!("range shard {start}..{end} is inverted"))
                } else if end > grid {
                    Err(format!(
                        "range shard {start}..{end} ends past the {grid}-cell grid"
                    ))
                } else {
                    Ok(())
                }
            }
            ShardSpec::Modulo { k, of } => {
                if of == 0 {
                    Err("modulo shard with zero classes".to_string())
                } else if k >= of {
                    Err(format!(
                        "modulo shard {k}/{of}: residue must be below the class count"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// An even modulo plan: one shard per worker, `mod:0/n` …
    /// `mod:n-1/n`. The union covers any grid exactly once (the
    /// property test in `shard_invariants` pins it).
    pub fn plan(workers: usize) -> Vec<ShardSpec> {
        assert!(workers > 0, "a campaign needs at least one worker");
        (0..workers)
            .map(|k| ShardSpec::Modulo { k, of: workers })
            .collect()
    }
}

/// Renders the canonical label stamped into journal headers and
/// accepted back by [`ShardSpec::from_str`]: `range:0..250` or
/// `mod:1/3`.
impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShardSpec::Range { start, end } => write!(f, "range:{start}..{end}"),
            ShardSpec::Modulo { k, of } => write!(f, "mod:{k}/{of}"),
        }
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let parse = |v: &str, what: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("shard spec `{s}`: `{v}` is not a {what}"))
        };
        if let Some(range) = s.strip_prefix("range:") {
            let (a, b) = range
                .split_once("..")
                .ok_or_else(|| format!("shard spec `{s}`: expected `range:START..END`"))?;
            Ok(ShardSpec::Range {
                start: parse(a, "start index")?,
                end: parse(b, "end index")?,
            })
        } else if let Some(class) = s.strip_prefix("mod:") {
            let (k, of) = class
                .split_once('/')
                .ok_or_else(|| format!("shard spec `{s}`: expected `mod:K/OF`"))?;
            let spec = ShardSpec::Modulo {
                k: parse(k, "residue")?,
                of: parse(of, "class count")?,
            };
            match spec {
                ShardSpec::Modulo { of: 0, .. } => Err(format!("shard spec `{s}`: zero classes")),
                ShardSpec::Modulo { k, of } if k >= of => Err(format!(
                    "shard spec `{s}`: residue {k} must be below the class count {of}"
                )),
                spec => Ok(spec),
            }
        } else {
            Err(format!(
                "shard spec `{s}`: expected `range:START..END` or `mod:K/OF`"
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Worker assignments
// ---------------------------------------------------------------------

/// The full description of one worker process's cell set — what the
/// coordinator encodes into worker CLI arguments and the worker
/// rebuilds with [`WorkerAssignment::apply`].
///
/// Cell-set semantics, in application order:
///
/// 1. start from `shard`'s cells of the grid;
/// 2. if `part = (j, m)`, keep only positions `p` of that shard list
///    with `p % m == j` (round-robin over the *shard's* fixed list, so
///    the same `(j, m)` always names the same cells);
/// 3. subtract every cell any `exclude` journal proves completed
///    (fingerprint-verified; the shard labels may differ — that is the
///    point: a re-shard subtracts a *dead* worker's journal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerAssignment {
    /// The base shard this worker's cells are drawn from.
    pub shard: ShardSpec,
    /// Round-robin sub-partition `(j, m)` of the shard, if any.
    pub part: Option<(usize, usize)>,
    /// Journals whose completed cells this worker must not re-run.
    pub exclude: Vec<PathBuf>,
}

impl WorkerAssignment {
    /// A whole-shard assignment (the campaign's first generation).
    pub fn whole(shard: ShardSpec) -> Self {
        WorkerAssignment {
            shard,
            part: None,
            exclude: Vec::new(),
        }
    }

    /// The cell indices this assignment would run, given the completed
    /// sets of its exclude journals.
    fn cells_after(
        &self,
        grid: usize,
        completed: &std::collections::BTreeSet<usize>,
    ) -> Vec<usize> {
        let base = self.shard.cells(grid);
        base.into_iter()
            .enumerate()
            .filter(|(p, _)| match self.part {
                Some((j, m)) => p % m == j,
                None => true,
            })
            .map(|(_, i)| i)
            .filter(|i| !completed.contains(i))
            .collect()
    }

    /// Restricts `spec` to this assignment: shards it (which stamps the
    /// shard identity for the journal header), applies the part filter,
    /// and subtracts every exclude journal's completed cells.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when an exclude journal cannot be loaded or was
    /// recorded for a different grid (fingerprint/size mismatch).
    ///
    /// # Panics
    ///
    /// Panics if the shard or part is invalid for the spec's grid
    /// (via [`SweepSpec::shard`]).
    pub fn apply(&self, spec: SweepSpec) -> Result<SweepSpec, JournalError> {
        if let Some((j, m)) = self.part {
            assert!(m > 0 && j < m, "part {j}/{m} is not a partition slot");
        }
        let grid = spec.cells();
        let mut spec = spec.shard(self.shard.clone());
        if let Some((j, m)) = self.part {
            let off_part: Vec<usize> = self
                .shard
                .cells(grid)
                .into_iter()
                .enumerate()
                .filter(|(p, _)| p % m != j)
                .map(|(_, i)| i)
                .collect();
            spec = spec.skip_cells(off_part);
        }
        for path in &self.exclude {
            let journal = LoadedJournal::load(path)?;
            spec = spec.exclude_completed(&journal)?;
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Everything that can go wrong running a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// Spawning or supervising a worker process failed.
    Io(io::Error),
    /// A shard journal was unreadable or the merge rejected the set.
    Journal(JournalError),
    /// Workers kept dying: the respawn budget ran out.
    RespawnBudget {
        /// Respawns performed before giving up.
        respawns: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign worker I/O failed: {e}"),
            CampaignError::Journal(e) => write!(f, "campaign journal failed: {e}"),
            CampaignError::RespawnBudget { respawns } => write!(
                f,
                "campaign gave up after {respawns} worker respawns — workers are dying \
                 faster than they finish shards"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::Journal(e) => Some(e),
            CampaignError::RespawnBudget { .. } => None,
        }
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// Knobs for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Worker processes (and modulo shards) to start with.
    pub workers: usize,
    /// Directory the shard journals (and metrics sidecars) live in.
    pub dir: PathBuf,
    /// How often the coordinator checks journals for stalls (and
    /// refreshes progress) while no worker exits — a worker's exit
    /// wakes it at once.
    pub poll_interval: Duration,
    /// No new journal record for this long ⇒ the worker is a straggler:
    /// kill it and re-shard its remaining cells.
    pub stall_timeout: Duration,
    /// Respawns allowed before the campaign gives up (a crash-loop
    /// backstop, not a tuning knob).
    pub respawn_budget: usize,
    /// Emit a live campaign progress line to the given sink (e.g.
    /// stderr) when set.
    pub progress: bool,
}

impl CampaignOpts {
    /// Defaults for an `n`-worker campaign journaling under `dir`.
    pub fn new(n: usize, dir: impl Into<PathBuf>) -> Self {
        CampaignOpts {
            workers: n,
            dir: dir.into(),
            poll_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_secs(120),
            respawn_budget: n * 4,
            progress: false,
        }
    }
}

/// What a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The merged journal — coverage and overlap verified, records in
    /// index order.
    pub merged: LoadedJournal,
    /// [`journal_digest`] of the merged records: equal to the digest of
    /// an uninterrupted single-process run of the same grid.
    pub digest: u64,
    /// Every journal written (first generation and re-shards), in
    /// spawn order — dead workers' journals included, since their
    /// completed cells are part of the merge.
    pub journals: Vec<PathBuf>,
    /// Worker deaths the coordinator recovered from.
    pub deaths: usize,
    /// Stalled workers the coordinator killed.
    pub stalls_killed: usize,
    /// Merged per-shard metrics sidecars (workers that died before
    /// writing theirs are simply absent).
    pub metrics: Option<MetricsSnapshot>,
}

/// One supervised worker process.
struct Supervised {
    /// Spawn sequence number — the worker's name on the exit channel.
    seq: usize,
    assignment: WorkerAssignment,
    journal: PathBuf,
    child: Child,
    /// Drains the worker's stdout and reports its EOF on the exit
    /// channel; joined once the worker is reaped.
    stdout_reader: JoinHandle<()>,
    records_seen: usize,
    last_progress: Instant,
}

/// Counts journal records of each kind by prefix — cheap enough to run
/// every poll tick, and exact because the journal writer emits the
/// key order the counter matches on.
fn journal_counts(path: &Path) -> (usize, usize) {
    let Ok(content) = std::fs::read(path) else {
        return (0, 0);
    };
    let mut done = 0;
    let mut failed = 0;
    // Only newline-terminated lines count — the same durability rule
    // the journal reader applies to a torn tail.
    let mut rest: &[u8] = &content;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let line = &rest[..pos];
        if line.starts_with(b"{\"kind\":\"done\"") {
            done += 1;
        } else if line.starts_with(b"{\"kind\":\"failed\"") {
            failed += 1;
        }
        rest = &rest[pos + 1..];
    }
    (done, failed)
}

/// Runs a sharded campaign of `spec` across `opts.workers` processes
/// and merges the shard journals into one verified whole.
///
/// `spawn` builds the [`Command`] for one worker — the coordinator
/// binary passes its own executable with a `worker` subcommand and the
/// assignment encoded in CLI flags ([`WorkerAssignment`] documents the
/// cell-set semantics the worker must implement via
/// [`WorkerAssignment::apply`]). The coordinator supervises:
///
/// * a worker that **exits cleanly with its shard complete** is done;
/// * a worker that **dies** (non-zero exit, signal) or **exits with
///   cells still missing** has its remaining cells re-sharded across
///   as many fresh workers as there are survivors (round-robin
///   [`WorkerAssignment::part`]s over its shard, each excluding the
///   dead worker's journal);
/// * a worker whose journal shows **no new record** for
///   `opts.stall_timeout` is killed and re-sharded the same way.
///
/// Exits are noticed as they happen: the coordinator pipes each
/// worker's stdout (workers should print nothing there; anything they
/// do print is discarded) and wakes when the pipe closes.
/// `opts.poll_interval` only paces the stall checks and the progress
/// line in between.
///
/// Every journal ever written participates in the final
/// [`SweepJournal::merge`](crate::SweepJournal::merge), which
/// hard-errors on fingerprint mismatch, overlapping done-sets or
/// missing coverage — so the returned digest is trustworthy, not
/// best-effort.
///
/// # Errors
///
/// [`CampaignError`] on worker I/O failure, an unreadable or
/// inconsistent journal set, or a blown respawn budget.
pub fn run_campaign(
    spec: &SweepSpec,
    opts: &CampaignOpts,
    mut spawn: impl FnMut(&WorkerAssignment, &Path) -> Command,
) -> Result<CampaignOutcome, CampaignError> {
    let grid = spec.cells();
    std::fs::create_dir_all(&opts.dir)?;

    let mut active: Vec<Supervised> = Vec::new();
    let mut all_journals: Vec<PathBuf> = Vec::new();
    let mut deaths = 0usize;
    let mut stalls_killed = 0usize;
    let mut respawns = 0usize;
    let mut spawn_seq = 0usize;
    let mut progress = CampaignProgress::new(grid, opts.workers);
    // Each worker's stdout is a pipe whose reader thread reports the
    // worker's spawn number here at EOF — i.e. when the worker exits —
    // so the loop below wakes on exits instead of polling for them.
    let (exited_tx, exited_rx) = mpsc::channel::<usize>();

    let mut launch = |assignment: WorkerAssignment,
                      active: &mut Vec<Supervised>,
                      all_journals: &mut Vec<PathBuf>,
                      seq: &mut usize|
     -> Result<(), CampaignError> {
        let journal = opts.dir.join(format!("shard_{:03}.jsonl", *seq));
        let mut command = spawn(&assignment, &journal);
        command.stdin(Stdio::null()).stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let (id, tx) = (*seq, exited_tx.clone());
        let stdout_reader = std::thread::spawn(move || {
            let _ = io::copy(&mut stdout, &mut io::sink());
            let _ = tx.send(id);
        });
        *seq += 1;
        all_journals.push(journal.clone());
        active.push(Supervised {
            seq: id,
            assignment,
            journal,
            child,
            stdout_reader,
            records_seen: 0,
            last_progress: Instant::now(),
        });
        Ok(())
    };

    for shard in ShardSpec::plan(opts.workers) {
        launch(
            WorkerAssignment::whole(shard),
            &mut active,
            &mut all_journals,
            &mut spawn_seq,
        )?;
    }

    while !active.is_empty() {
        let mut exited: Vec<usize> = exited_rx
            .recv_timeout(opts.poll_interval)
            .into_iter()
            .collect();
        exited.extend(exited_rx.try_iter());
        let mut respawn_queue: Vec<WorkerAssignment> = Vec::new();
        let mut i = 0;
        while i < active.len() {
            let now = Instant::now();
            let w = &mut active[i];
            let (done, failed) = journal_counts(&w.journal);
            if done + failed > w.records_seen {
                w.records_seen = done + failed;
                w.last_progress = now;
            }
            // A closed stdout means the worker is exiting: reap it
            // rather than race `try_wait` against its exit.
            let status = if exited.contains(&w.seq) {
                Some(w.child.wait()?)
            } else {
                w.child.try_wait()?
            };
            match status {
                Some(status) => {
                    let w = active.swap_remove(i);
                    // The worker has exited, so its stdout is closed
                    // and the reader is finishing.
                    w.stdout_reader
                        .join()
                        .expect("a stdout reader only copies and sends");
                    // Trust only the journals, not the exit code: the
                    // worker is finished iff every assigned cell has a
                    // durable `done` record — in its own journal or in
                    // one of its exclude journals (an assigned cell a
                    // predecessor already completed is not this
                    // worker's to run, so its own journal never holds
                    // it).
                    let mut completed = LoadedJournal::load(&w.journal)
                        .map(|j| j.completed())
                        .unwrap_or_default();
                    for path in &w.assignment.exclude {
                        if let Ok(j) = LoadedJournal::load(path) {
                            completed.extend(j.completed());
                        }
                    }
                    let remaining = w.assignment.cells_after(grid, &completed);
                    if remaining.is_empty() && status.success() {
                        continue; // shard complete
                    }
                    deaths += 1;
                    // Re-shard the straggler's remaining cells across
                    // as many fresh workers as there are survivors
                    // (at least one). The partition is over the dead
                    // worker's *base* shard with its journal excluded,
                    // so the pieces are disjoint by construction even
                    // though each is computed independently.
                    let mut exclude = w.assignment.exclude.clone();
                    exclude.push(w.journal.clone());
                    let fanout = match w.assignment.part {
                        // A part-worker's replacement keeps its slot:
                        // splitting a part again would need nested
                        // partitions for no balance win.
                        Some(_) => 1,
                        None => active.len().max(1),
                    };
                    for j in 0..fanout {
                        let part = match w.assignment.part {
                            Some(slot) => Some(slot),
                            None if fanout == 1 => None,
                            None => Some((j, fanout)),
                        };
                        respawn_queue.push(WorkerAssignment {
                            shard: w.assignment.shard.clone(),
                            part,
                            exclude: exclude.clone(),
                        });
                    }
                }
                None => {
                    if now.duration_since(w.last_progress) > opts.stall_timeout {
                        // A stalled worker still holds its claim on the
                        // remaining cells; kill it so the re-shard path
                        // above takes over on the next poll.
                        stalls_killed += 1;
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        w.last_progress = now; // the exit branch re-shards it next pass
                    }
                    i += 1;
                }
            }
        }
        for assignment in respawn_queue {
            respawns += 1;
            if respawns > opts.respawn_budget {
                for mut w in active.drain(..) {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    let _ = w.stdout_reader.join();
                }
                return Err(CampaignError::RespawnBudget { respawns });
            }
            launch(assignment, &mut active, &mut all_journals, &mut spawn_seq)?;
        }
        if opts.progress {
            let (done, failed) = all_journals
                .iter()
                .map(|p| journal_counts(p))
                .fold((0, 0), |(d, f), (pd, pf)| (d + pd, f + pf));
            if let Some(line) = progress.update(done, failed, active.len()) {
                eprintln!("{line}");
            }
        }
    }

    // Merge every journal ever written. Journals that never got past
    // their header (a worker killed instantly) contribute nothing but
    // still must agree on the grid.
    let mut loaded = Vec::with_capacity(all_journals.len());
    for path in &all_journals {
        loaded.push(LoadedJournal::load(path)?);
    }
    let merged = crate::journal::SweepJournal::merge(&loaded)?;
    // Belt and braces: the merge proved the journals self-consistent;
    // this pins them to *this* spec.
    if merged.fingerprint != spec.fingerprint() {
        return Err(CampaignError::Journal(JournalError::FingerprintMismatch {
            journal: merged.fingerprint,
            spec: spec.fingerprint(),
        }));
    }
    let digest = journal_digest(&merged.records);
    if opts.progress {
        eprintln!("{}", progress.line(0));
    }

    // Fold whatever per-shard metrics sidecars the workers managed to
    // write (dead workers wrote none — their cells' metrics were
    // re-measured by their replacements anyway).
    let mut metrics: Option<MetricsSnapshot> = None;
    for path in &all_journals {
        let sidecar = metrics_sidecar(path);
        let Ok(text) = std::fs::read_to_string(&sidecar) else {
            continue;
        };
        if let Ok(snapshot) = MetricsSnapshot::from_json(text.trim()) {
            match &mut metrics {
                Some(m) => m.merge(&snapshot),
                None => metrics = Some(snapshot),
            }
        }
    }

    Ok(CampaignOutcome {
        merged,
        digest,
        journals: all_journals,
        deaths,
        stalls_killed,
        metrics,
    })
}

/// The metrics-sidecar path for a shard journal:
/// `shard_000.jsonl` → `shard_000.jsonl.metrics.json`.
pub fn metrics_sidecar(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".metrics.json");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_reject_nonsense() {
        for shard in [
            ShardSpec::Range { start: 0, end: 250 },
            ShardSpec::Range { start: 7, end: 7 },
            ShardSpec::Modulo { k: 2, of: 3 },
        ] {
            let label = shard.to_string();
            assert_eq!(
                label.parse::<ShardSpec>().expect("parses"),
                shard,
                "{label}"
            );
        }
        for bad in [
            "",
            "mod:3/3",
            "mod:1/0",
            "mod:x/3",
            "range:5..x",
            "range:5",
            "shard:1",
        ] {
            assert!(bad.parse::<ShardSpec>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn counts_and_cells_agree() {
        for grid in [0usize, 1, 7, 500] {
            for shard in [
                ShardSpec::Range { start: 2, end: 5 },
                ShardSpec::Modulo { k: 1, of: 3 },
                ShardSpec::Modulo { k: 6, of: 7 },
            ] {
                let cells = shard.cells(grid);
                assert_eq!(cells.len(), shard.count(grid), "{shard} over {grid}");
                assert!(cells.iter().all(|&i| i < grid && shard.contains(i)));
            }
        }
    }

    #[test]
    fn assignment_parts_partition_the_shard() {
        let grid = 23;
        let shard = ShardSpec::Modulo { k: 1, of: 3 };
        let whole = shard.cells(grid);
        let empty = std::collections::BTreeSet::new();
        let mut union: Vec<usize> = (0..4)
            .flat_map(|j| {
                WorkerAssignment {
                    shard: shard.clone(),
                    part: Some((j, 4)),
                    exclude: Vec::new(),
                }
                .cells_after(grid, &empty)
            })
            .collect();
        union.sort_unstable();
        assert_eq!(union, whole, "parts cover the shard exactly once");
    }

    #[test]
    fn sidecar_path_is_journal_path_plus_suffix() {
        assert_eq!(
            metrics_sidecar(Path::new("/tmp/c/shard_000.jsonl")),
            PathBuf::from("/tmp/c/shard_000.jsonl.metrics.json")
        );
    }
}
