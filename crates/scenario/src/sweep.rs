//! The streaming sweep engine: cartesian scenario × knob grids executed
//! by a work-stealing thread pool that **streams** results as cells
//! finish, instead of buffering a whole matrix.
//!
//! A [`SweepSpec`] names the axes — scenarios × approaches ×
//! [`ContentionPolicy`] × initial threshold × ambient ×
//! [`TeemTunables`] × [`IdlePolicy`] — and enumerates their cartesian
//! product *lazily*: a cell is materialised (scenario cloned, knobs
//! applied) only on the worker that executes it, so a ten-thousand-cell
//! grid costs ten-thousand-cell memory **never** — the engine's resident
//! state is O(workers), and whoever consumes the [`SweepEvent`] stream
//! decides what to keep.
//!
//! Execution is a work-stealing pool over [`std::thread::scope`]: cells
//! are split into chunks on a shared injector queue; each worker drains
//! its claimed chunk cell by cell, refills from the injector, and when
//! that runs dry steals the back half of the fullest sibling's claim —
//! so one pathologically slow scenario cannot strand the rest of its
//! chunk behind it. Every finished cell is sent through an
//! [`mpsc`](std::sync::mpsc) channel and handed to the caller's event
//! sink *on the calling thread*, in completion order.
//!
//! A panicking cell (satellite of the PR 1 poisoned-mutex fix) is
//! caught on the worker, reported as [`SweepEvent::CellFailed`] naming
//! the cell, and the sweep **keeps draining** the remaining cells —
//! one bad cell costs one cell, not the grid.
//!
//! [`SweepSpec::run_collect`] buffers the stream back into deterministic
//! scenario-major order for small matrices (pinned bit-identical by the
//! golden-digest tests).

use std::collections::{BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::arbiter::ContentionPolicy;
use crate::exec::{ScenarioResult, ScenarioRunner};
use crate::lockstep::LockstepPool;
use crate::obs::{PoolObs, RunObs, SweepObsReport, WorkerObs};
use crate::scenario::Scenario;
use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_core::{ProfileStore, TeemTunables};
use teem_soc::{Board, BoardSpec, IdlePolicy, SimConfig, TimeAdvance};
use teem_telemetry::Fnv;
use teem_workload::App;

/// Everything that can go wrong in a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// Offline profiling failed before any cell ran.
    Profiling(teem_linreg::LinregError),
    /// One cell failed (an in-cell error or a caught panic). The sweep
    /// drained every other cell before reporting this.
    Cell {
        /// The failed cell's name (scenario name with knob tags plus
        /// the approach).
        cell: String,
        /// What happened.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Profiling(e) => write!(f, "sweep profiling failed: {e}"),
            SweepError::Cell { cell, message } => {
                write!(f, "sweep cell `{cell}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Profiling(e) => Some(e),
            SweepError::Cell { .. } => None,
        }
    }
}

impl From<teem_linreg::LinregError> for SweepError {
    fn from(e: teem_linreg::LinregError) -> Self {
        SweepError::Profiling(e)
    }
}

/// Field-wise overrides applied on top of
/// [`ScenarioRunner::default_config`] — the safe way to customise the
/// executor configuration.
///
/// [`ScenarioRunner::with_config`] replaces the configuration
/// *wholesale*, so a caller building a [`SimConfig`] from scratch
/// silently loses the scenario-scale 10 000 s timeout (the PR 1
/// footgun). A patch starts from the right defaults and overrides only
/// what it names:
///
/// ```
/// use teem_scenario::ConfigPatch;
///
/// let cfg = ConfigPatch {
///     sample_period_s: Some(0.2),
///     ..ConfigPatch::default()
/// }
/// .onto_default();
/// assert_eq!(cfg.sample_period_s, 0.2);
/// assert_eq!(cfg.timeout_s, 10_000.0, "scenario timeout survives");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigPatch {
    /// Integration step override, seconds.
    pub dt_s: Option<f64>,
    /// Sampling-period override, seconds.
    pub sample_period_s: Option<f64>,
    /// Timeout override, seconds.
    pub timeout_s: Option<f64>,
    /// Warm-start fraction override.
    pub warm_start_fraction: Option<f64>,
    /// Idle-policy override (an explicit [`SweepSpec::idle_policies`]
    /// axis wins over this).
    pub idle_policy: Option<IdlePolicy>,
    /// Time-advance mode override ([`TimeAdvance::EventDriven`] turns
    /// on gap fast-forwarding).
    pub time_advance: Option<TimeAdvance>,
}

impl ConfigPatch {
    /// Applies the overrides on top of `base`.
    pub fn apply(self, mut base: SimConfig) -> SimConfig {
        if let Some(v) = self.dt_s {
            base.dt_s = v;
        }
        if let Some(v) = self.sample_period_s {
            base.sample_period_s = v;
        }
        if let Some(v) = self.timeout_s {
            base.timeout_s = v;
        }
        if let Some(v) = self.warm_start_fraction {
            base.warm_start_fraction = v;
        }
        if let Some(v) = self.idle_policy {
            base.idle_policy = v;
        }
        if let Some(v) = self.time_advance {
            base.time_advance = v;
        }
        base
    }

    /// Applies the overrides on top of the scenario-scale defaults
    /// ([`ScenarioRunner::default_config`]) — never on a zeroed
    /// [`SimConfig`].
    pub fn onto_default(self) -> SimConfig {
        self.apply(ScenarioRunner::default_config())
    }

    /// `true` when the patch overrides nothing.
    pub fn is_noop(&self) -> bool {
        *self == ConfigPatch::default()
    }
}

/// One cell of the sweep grid: a scenario under one approach with one
/// setting picked from every knob axis.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Linear cell index — the deterministic position in the grid
    /// (scenario-major: the scenario is the outermost axis, the
    /// approach the innermost).
    pub index: usize,
    /// The materialised scenario name: the base name plus a tag per
    /// knob axis the spec set (e.g. `"bursty@thr82/amb30/d100/f1400"`).
    pub name: String,
    /// Management approach.
    pub approach: Approach,
    /// Contention policy the cell co-schedules under.
    pub contention: ContentionPolicy,
    /// Initial default threshold, °C (`None` keeps the scenario's own
    /// timeline).
    pub threshold_c: Option<f64>,
    /// Initial ambient override, °C.
    pub ambient_c: Option<f64>,
    /// TEEM knob set (δ / floor / threshold override).
    pub tunables: TeemTunables,
    /// Idle-policy override.
    pub idle_policy: Option<IdlePolicy>,
    /// The thermal-network variant the cell simulates on
    /// ([`SweepSpec::boards`]; the XU4 unless the axis says otherwise).
    pub board: BoardSpec,
    scenario_index: usize,
}

/// One event on the sweep stream.
#[derive(Debug)]
pub enum SweepEvent {
    /// A worker picked up a cell.
    CellStarted {
        /// Linear cell index.
        index: usize,
        /// Materialised cell name.
        name: String,
        /// The cell's approach.
        approach: Approach,
    },
    /// A cell finished; this event owns its full result — the engine
    /// keeps nothing.
    CellDone {
        /// Which cell.
        cell: SweepCell,
        /// Its complete result (summary, trace, timeout flag).
        result: Box<ScenarioResult>,
    },
    /// A cell failed (in-cell error or caught panic); the sweep keeps
    /// draining the remaining cells.
    CellFailed {
        /// Linear cell index.
        index: usize,
        /// Materialised cell name.
        name: String,
        /// Failure description (panic payload or error display).
        message: String,
    },
    /// The sweep is complete; always the last event.
    Finished {
        /// Cells executed in this run: the full grid, minus any cells
        /// skipped by a resume ([`SweepSpec::skip_cells`]) — so 0 when
        /// resuming an already-complete journal.
        cells: usize,
        /// How many failed.
        failed: usize,
    },
}

/// What a finished sweep reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunStats {
    /// Cells this run executed (the full grid minus skipped cells).
    pub cells: usize,
    /// Cells that completed with a result.
    pub completed: usize,
    /// Cells that failed (error or panic).
    pub failed: usize,
    /// Cells skipped because a resumed journal already holds them
    /// ([`SweepSpec::skip_cells`] / `SweepSpec::resume_from`).
    pub skipped: usize,
    /// Wall-clock time of the run, first claim to pool join — the one
    /// denominator every cells/s figure in the workspace divides by.
    pub wall: Duration,
}

impl SweepRunStats {
    /// Executed cells per wall-clock second (0 for an instantaneous or
    /// empty run) — the canonical throughput figure the benches,
    /// examples and `repro` all report.
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.cells as f64 / secs
        } else {
            0.0
        }
    }
}

/// A cartesian sweep specification: which scenarios, under which
/// approaches, across which knob grids.
///
/// Axes not set stay at their single default value (the approaches
/// default to TEEM alone, the contention to the paper's serial model,
/// thresholds/ambients/tunables/idle policy to "whatever the scenario
/// and configuration already say"), so the smallest spec is exactly the
/// old scenario × approach matrix — and with no extra axes the cell
/// scenarios run *unrenamed and untouched*, which is how a plain matrix
/// keeps its golden digests bit-identical on top of this engine.
///
/// # Streaming thousands of cells in O(workers) memory
///
/// The idiom for big grids: aggregate online, keep nothing.
///
/// ```
/// use teem_core::runner::Approach;
/// use teem_scenario::{Scenario, SweepEvent, SweepSpec};
/// use teem_telemetry::SweepAggregator;
/// use teem_workload::App;
///
/// # fn main() -> Result<(), teem_scenario::SweepError> {
/// // scenarios × thresholds × ambients — add axes to taste; the cell
/// // count is the product, the memory stays O(workers).
/// let spec = SweepSpec::over([
///     Scenario::new("spike").arrive(0.0, App::Mvt, 0.9),
///     Scenario::new("pair").arrive(0.0, App::Gesummv, 0.9),
/// ])
/// .approaches(&[Approach::Teem])
/// .thresholds_c(&[82.0, 85.0])
/// .ambients_c(&[25.0]);
///
/// let mut agg = SweepAggregator::new();
/// let stats = spec.run_streaming(|ev| {
///     if let SweepEvent::CellDone { result, .. } = ev {
///         agg.record(&result.summary); // result dropped right here
///     }
/// })?;
/// assert_eq!(stats.cells, 4);
/// assert_eq!(agg.cells(), 4);
/// assert_eq!(agg.trips_total(), 0); // TEEM: proactive, trip-free
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    scenarios: Vec<Scenario>,
    approaches: Vec<Approach>,
    contentions: Vec<ContentionPolicy>,
    thresholds_c: Option<Vec<f64>>,
    ambients_c: Option<Vec<f64>>,
    tunables: Option<Vec<TeemTunables>>,
    idle_policies: Option<Vec<IdlePolicy>>,
    boards: Option<Vec<BoardSpec>>,
    base_config: Option<SimConfig>,
    patch: ConfigPatch,
    threads: usize,
    chunk: Option<usize>,
    batch: Option<usize>,
    sample_staging: bool,
    skip: BTreeSet<usize>,
    shard: Option<crate::shard::ShardSpec>,
}

impl SweepSpec {
    /// A sweep over `scenarios`, under TEEM, serial contention, and the
    /// paper's knobs — extend with the axis builders.
    pub fn over(scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        SweepSpec {
            scenarios: scenarios.into_iter().collect(),
            approaches: vec![Approach::Teem],
            contentions: vec![ContentionPolicy::Serial],
            thresholds_c: None,
            ambients_c: None,
            tunables: None,
            idle_policies: None,
            boards: None,
            base_config: None,
            patch: ConfigPatch::default(),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            chunk: None,
            batch: None,
            sample_staging: true,
            skip: BTreeSet::new(),
            shard: None,
        }
    }

    /// Sets the approach axis (empty ⇒ zero cells).
    pub fn approaches(mut self, approaches: &[Approach]) -> Self {
        self.approaches = approaches.to_vec();
        self
    }

    /// Sets the contention-policy axis. With more than one policy the
    /// cell names carry a policy tag.
    pub fn contentions(mut self, policies: &[ContentionPolicy]) -> Self {
        self.contentions = policies.to_vec();
        self
    }

    /// Adds an initial-threshold axis: every cell scenario is re-based
    /// on the given default threshold
    /// ([`Scenario::with_initial_threshold`]), which flows into each
    /// arrival's requirement. Note that a [`TeemTunables`] knob set
    /// carrying its own `threshold_c` override takes precedence over
    /// this axis (and over per-arrival overrides) for TEEM cells.
    ///
    /// # Panics
    ///
    /// Panics if a threshold is not a plausible silicon threshold
    /// (40 to 120 °C) — validated here, on the caller's thread, rather
    /// than as a worker panic mid-sweep — or if the combination with an
    /// already-set knob axis makes this axis dead (see
    /// [`SweepSpec::tunables`]).
    pub fn thresholds_c(mut self, thresholds_c: &[f64]) -> Self {
        for &t in thresholds_c {
            assert!(
                t.is_finite() && (40.0..=120.0).contains(&t),
                "threshold {t} out of plausible range"
            );
        }
        self.thresholds_c = Some(thresholds_c.to_vec());
        self.assert_threshold_axis_alive();
        self
    }

    /// Adds an initial-ambient axis ([`Scenario::with_initial_ambient`]).
    ///
    /// # Panics
    ///
    /// Panics if an ambient is outside −40 to 120 °C.
    pub fn ambients_c(mut self, ambients_c: &[f64]) -> Self {
        for &a in ambients_c {
            assert!(
                a.is_finite() && (-40.0..=120.0).contains(&a),
                "ambient {a} out of plausible range"
            );
        }
        self.ambients_c = Some(ambients_c.to_vec());
        self
    }

    /// Adds a TEEM knob axis (δ / floor / threshold override per cell;
    /// see [`TeemTunables`]). A knob set with `threshold_c: Some(_)`
    /// overrides the scenario's threshold wholesale for TEEM cells.
    ///
    /// # Panics
    ///
    /// Panics if combined with a [`SweepSpec::thresholds_c`] axis while
    /// *every* knob set overrides the threshold: the threshold axis
    /// would then only multiply the grid with duplicate-physics cells
    /// under different names.
    pub fn tunables(mut self, tunables: &[TeemTunables]) -> Self {
        self.tunables = Some(tunables.to_vec());
        self.assert_threshold_axis_alive();
        self
    }

    /// Rejects grids whose thresholds axis is provably inert because
    /// every TEEM knob set carries its own threshold override.
    fn assert_threshold_axis_alive(&self) {
        if let (Some(thresholds), Some(tunables)) = (&self.thresholds_c, &self.tunables) {
            let axis_dead = !thresholds.is_empty()
                && !tunables.is_empty()
                && tunables.iter().all(|t| t.threshold_c.is_some());
            assert!(
                !axis_dead,
                "every TeemTunables in the knob axis overrides the threshold, so the \
                 thresholds_c axis would only duplicate physics under different cell \
                 names; drop one of the two threshold sources"
            );
        }
    }

    /// Adds an idle-policy axis (overrides the configuration's policy
    /// per cell).
    pub fn idle_policies(mut self, policies: &[IdlePolicy]) -> Self {
        self.idle_policies = Some(policies.to_vec());
        self
    }

    /// Adds a board axis: each cell simulates on the named thermal
    /// network ([`BoardSpec::OdroidXu4`], or a generated
    /// [`BoardSpec::ManyNode`] variant with 16–64 nodes). A physics
    /// axis — boards land in the fingerprint and in the cell-name tags.
    /// The batched path groups same-board cells through one lockstep
    /// pool (boards vary slower than any other axis), rebuilding its
    /// SoA batch only at board boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `boards` is empty, or a [`BoardSpec::ManyNode`] node
    /// count is outside 16..=64 (validated here, on the caller's
    /// thread, not as a worker panic mid-sweep).
    pub fn boards(mut self, boards: &[BoardSpec]) -> Self {
        assert!(!boards.is_empty(), "boards axis needs at least one entry");
        for b in boards {
            if let BoardSpec::ManyNode { nodes } = *b {
                assert!(
                    (16..=64).contains(&nodes),
                    "many-node boards span 16..=64 nodes, got {nodes}"
                );
            }
        }
        self.boards = Some(boards.to_vec());
        self
    }

    /// Replaces the base executor configuration wholesale (the patch,
    /// if any, still applies on top). Prefer [`SweepSpec::patch_config`]
    /// unless you really mean every field.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.base_config = Some(config);
        self
    }

    /// Overrides configuration fields on top of
    /// [`ScenarioRunner::default_config`] — the footgun-free
    /// customisation path.
    pub fn patch_config(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Caps the worker count (1 ⇒ fully sequential in cell-index order,
    /// useful for determinism A/B tests).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker");
        self.threads = threads;
        self
    }

    /// Sets the injector chunk size (cells claimed per grab). Defaults
    /// to a size that gives every worker several claims, capped so the
    /// tail stays stealable — and, in batch mode
    /// ([`SweepSpec::batch`]), rounded **up** to a multiple of the lane
    /// count K, so a freshly claimed chunk fills a worker's lockstep
    /// pool completely instead of leaving lanes idle at every chunk
    /// boundary. An explicit chunk is taken as given in both modes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be at least one cell");
        self.chunk = Some(chunk);
        self
    }

    /// Turns on the batched execution path: each worker steps up to `k`
    /// topology-compatible cells in SIMD lockstep through one shared
    /// [`ThermalBatch`](teem_soc::ThermalBatch), refilling lanes from
    /// its claim as cells retire. Cells outside the lockstep-eligible
    /// regime (multi-app phases, pending timeline events, thermal-zone
    /// trips) run scalar for exactly those phases and batch for the
    /// rest, so **results are bit-identical to scalar mode** — the
    /// parity suite pins summaries and trace digests across K.
    ///
    /// This is a scheduling knob like [`SweepSpec::threads`] and
    /// [`SweepSpec::chunk`]: it changes throughput, never results, and
    /// is therefore deliberately **excluded from
    /// [`SweepSpec::fingerprint`]** — a journal recorded scalar resumes
    /// fine under batch and vice versa.
    ///
    /// `k = 1` degenerates to stepping single cells through the batch
    /// kernel (still bit-identical; useful for A/B tests). Sequential
    /// runs (`threads(1)`) batch too — K lockstep lanes on one thread.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or implausibly large (> 64).
    pub fn batch(mut self, k: usize) -> Self {
        assert!(
            (1..=64).contains(&k),
            "batch lane count {k} out of range (1..=64)"
        );
        self.batch = Some(k);
        self
    }

    /// Routes every cell's sample recording through the staged
    /// sample-major buffer (`true`, the default) or the per-channel
    /// append baseline (`false`). Like [`SweepSpec::batch`] this is a
    /// mechanism knob, not a physics knob: the recorded traces are
    /// bit-identical either way (the staged-parity suite pins it), so
    /// it is excluded from [`SweepSpec::fingerprint`]. The `false`
    /// setting exists for A/B measurement of the staging win.
    pub fn sample_staging(mut self, staged: bool) -> Self {
        self.sample_staging = staged;
        self
    }

    /// Marks cells (by linear grid index) to skip: the enumerator never
    /// materialises or executes them, and they do not appear on the
    /// event stream. This is the resume primitive —
    /// [`SweepSpec::resume_from`] feeds it the indices a persisted
    /// [`SweepJournal`](crate::SweepJournal) already holds — and the
    /// substrate shard lowering builds on
    /// ([`SweepSpec::shard`]). Duplicates (within one call or across
    /// calls) collapse to one skip; repeated calls accumulate.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index. An index past the grid can only
    /// mean the caller is skipping cells of a *different* grid — under
    /// the old silently-ignore behavior a mis-paired journal would
    /// quietly re-run nothing it should and skip nothing it shouldn't;
    /// shard lowering needs the loud version.
    pub fn skip_cells(mut self, indices: impl IntoIterator<Item = usize>) -> Self {
        let grid = self.cells();
        for index in indices {
            assert!(
                index < grid,
                "skip_cells index {index} is out of range for the {grid}-cell grid \
                 — these skips belong to a different grid"
            );
            self.skip.insert(index);
        }
        self
    }

    /// The skipped cell indices (what [`SweepSpec::skip_cells`] and
    /// `resume_from` accumulated), in ascending order.
    pub fn skipped_cells(&self) -> impl Iterator<Item = usize> + '_ {
        let grid = self.cells();
        self.skip.iter().copied().filter(move |&i| i < grid)
    }

    /// Restricts this spec to one shard of the grid: every cell the
    /// [`ShardSpec`](crate::ShardSpec) does *not* own is added to the
    /// skip set, and the shard's canonical label is stamped into the
    /// journal header (next to the grid fingerprint) by
    /// [`SweepJournal::create`](crate::SweepJournal::create).
    ///
    /// Sharding is pure scheduling: like the skip set it is **excluded
    /// from [`SweepSpec::fingerprint`]**, so every shard journal of one
    /// campaign carries the same fingerprint as the single-process run
    /// the shards merge into ([`SweepJournal::merge`](crate::SweepJournal::merge)).
    ///
    /// # Panics
    ///
    /// Panics when the shard does not fit the grid
    /// ([`ShardSpec::validate`](crate::ShardSpec::validate)) or when a
    /// shard was already set — two shards compose to a silent subset of
    /// both, which is never what a campaign means.
    pub fn shard(mut self, shard: crate::shard::ShardSpec) -> Self {
        assert!(
            self.shard.is_none(),
            "spec is already sharded ({}) — compose parts via WorkerAssignment, not nested shards",
            self.shard.as_ref().expect("just checked")
        );
        let grid = self.cells();
        if let Err(why) = shard.validate(grid) {
            panic!("shard does not fit the grid: {why}");
        }
        let off_shard: Vec<usize> = (0..grid).filter(|&i| !shard.contains(i)).collect();
        self.shard = Some(shard);
        self.skip_cells(off_shard)
    }

    /// The shard this spec was restricted to, if any.
    pub fn shard_spec(&self) -> Option<&crate::shard::ShardSpec> {
        self.shard.as_ref()
    }

    /// A stable 64-bit fingerprint of everything that determines the
    /// grid's *physics*: every axis (scenarios with their full event
    /// timelines, approaches, contention policies, thresholds,
    /// ambients, tunables, idle policies) plus the resolved executor
    /// configuration. Scheduling knobs (worker count, chunk size) and
    /// the skip set are deliberately excluded — they change completion
    /// order, never results.
    ///
    /// The persisted sweep journal stamps this into its header so a
    /// resume can reject a journal recorded for a *different* grid,
    /// and a cross-commit diff can tell "same grid, changed physics"
    /// from "not the same experiment".
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str("teem-sweep-v2");
        h.u64(self.scenarios.len() as u64);
        for s in &self.scenarios {
            h.str(s.name());
            h.f64(s.initial_ambient_c());
            let events = s.sorted_events();
            h.u64(events.len() as u64);
            for ev in &events {
                h.f64(ev.at_s);
                match ev.event {
                    crate::event::ScenarioEvent::Arrival(req) => {
                        // Exhaustive destructuring: a new physics field
                        // must fail to compile here, not silently
                        // escape the fingerprint.
                        let crate::event::AppRequest {
                            app,
                            treq_factor,
                            threshold_c,
                        } = req;
                        h.u64(0);
                        h.u64(app as u64);
                        h.f64(treq_factor);
                        h.opt_f64(threshold_c);
                    }
                    crate::event::ScenarioEvent::AmbientChange { ambient_c } => {
                        h.u64(1);
                        h.f64(ambient_c);
                    }
                    crate::event::ScenarioEvent::ThresholdChange { threshold_c } => {
                        h.u64(2);
                        h.f64(threshold_c);
                    }
                    crate::event::ScenarioEvent::ApproachChange { approach } => {
                        h.u64(3);
                        h.u64(approach as u64);
                    }
                }
            }
        }
        h.u64(self.approaches.len() as u64);
        for a in &self.approaches {
            h.u64(*a as u64);
        }
        h.u64(self.contentions.len() as u64);
        for c in &self.contentions {
            match c {
                ContentionPolicy::Serial => h.u64(0),
                ContentionPolicy::ClusterExclusive => h.u64(1),
                ContentionPolicy::Shared { max_apps } => {
                    h.u64(2);
                    h.u64(*max_apps as u64);
                }
            }
        }
        let axis = |h: &mut Fnv, v: &Option<Vec<f64>>| match v {
            Some(vals) => {
                h.u64(1 + vals.len() as u64);
                for &x in vals {
                    h.f64(x);
                }
            }
            None => h.u64(0),
        };
        axis(&mut h, &self.thresholds_c);
        axis(&mut h, &self.ambients_c);
        match &self.tunables {
            Some(ts) => {
                h.u64(1 + ts.len() as u64);
                for t in ts {
                    let TeemTunables {
                        delta_mhz,
                        floor,
                        threshold_c,
                    } = *t;
                    h.u64(u64::from(delta_mhz));
                    h.u64(u64::from(floor.0));
                    h.opt_f64(threshold_c);
                }
            }
            None => h.u64(0),
        }
        let idle = |h: &mut Fnv, p: IdlePolicy| match p {
            IdlePolicy::RaceToIdle => h.u64(0),
            IdlePolicy::TimeoutCollapse { timeout_ms } => {
                h.u64(1);
                h.u64(u64::from(timeout_ms));
            }
        };
        match &self.idle_policies {
            Some(ps) => {
                h.u64(1 + ps.len() as u64);
                for &p in ps {
                    idle(&mut h, p);
                }
            }
            None => h.u64(0),
        }
        match &self.boards {
            Some(bs) => {
                h.u64(1 + bs.len() as u64);
                for &b in bs {
                    match b {
                        BoardSpec::OdroidXu4 => h.u64(0),
                        BoardSpec::ManyNode { nodes } => {
                            h.u64(1);
                            h.u64(u64::from(nodes));
                        }
                    }
                }
            }
            None => h.u64(0),
        }
        // Exhaustive destructuring: adding a physics field to SimConfig
        // breaks this line instead of silently escaping the fingerprint.
        let SimConfig {
            dt_s,
            sample_period_s,
            timeout_s,
            warm_start_fraction,
            idle_policy,
            time_advance,
        } = self.resolved_config();
        h.f64(dt_s);
        h.f64(sample_period_s);
        h.f64(timeout_s);
        h.f64(warm_start_fraction);
        idle(&mut h, idle_policy);
        h.u64(match time_advance {
            TimeAdvance::FixedDt => 0,
            TimeAdvance::EventDriven => 1,
        });
        h.finish()
    }

    /// Total number of cells in the grid (the product of every axis).
    pub fn cells(&self) -> usize {
        self.scenarios.len()
            * self.approaches.len()
            * self.contentions.len()
            * self.thresholds_c.as_ref().map_or(1, Vec::len)
            * self.ambients_c.as_ref().map_or(1, Vec::len)
            * self.tunables.as_ref().map_or(1, Vec::len)
            * self.idle_policies.as_ref().map_or(1, Vec::len)
            * self.boards.as_ref().map_or(1, Vec::len)
    }

    /// Materialises the cell at `index` (lazy: nothing about a cell
    /// exists until this is called). Axis nesting, outermost to
    /// innermost: scenario, board, threshold, ambient, contention,
    /// idle policy, tunables, approach — so a plain scenario ×
    /// approach sweep is scenario-major with approaches adjacent,
    /// exactly the pre-refactor matrix order, and same-board cells
    /// stay contiguous for the lockstep pool.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.cells()`.
    pub fn cell(&self, index: usize) -> SweepCell {
        assert!(index < self.cells(), "cell {index} out of range");
        let mut rest = index;
        let pick = |rest: &mut usize, n: usize| {
            let i = *rest % n;
            *rest /= n;
            i
        };
        let approach = self.approaches[pick(&mut rest, self.approaches.len())];
        let tunables = match &self.tunables {
            Some(ts) => ts[pick(&mut rest, ts.len())],
            None => TeemTunables::paper(),
        };
        let idle_policy = self
            .idle_policies
            .as_ref()
            .map(|ps| ps[pick(&mut rest, ps.len())]);
        let contention = self.contentions[pick(&mut rest, self.contentions.len())];
        let ambient_c = self
            .ambients_c
            .as_ref()
            .map(|a| a[pick(&mut rest, a.len())]);
        let threshold_c = self
            .thresholds_c
            .as_ref()
            .map(|t| t[pick(&mut rest, t.len())]);
        let board = match &self.boards {
            Some(bs) => bs[pick(&mut rest, bs.len())],
            None => BoardSpec::OdroidXu4,
        };
        let scenario_index = rest;

        let mut tags: Vec<String> = Vec::new();
        if self.boards.is_some() {
            tags.push(board.label());
        }
        if let Some(t) = threshold_c {
            tags.push(format!("thr{t}"));
        }
        if let Some(a) = ambient_c {
            tags.push(format!("amb{a}"));
        }
        if self.contentions.len() > 1 {
            tags.push(contention.name().to_string());
        }
        if let Some(p) = idle_policy {
            tags.push(match p {
                IdlePolicy::RaceToIdle => "race".to_string(),
                IdlePolicy::TimeoutCollapse { timeout_ms } => {
                    format!("collapse{timeout_ms}ms")
                }
            });
        }
        if self.tunables.is_some() {
            tags.push(tunables.label());
        }
        let base = self.scenarios[scenario_index].name();
        let name = if tags.is_empty() {
            base.to_string()
        } else {
            format!("{base}@{}", tags.join("/"))
        };

        SweepCell {
            index,
            name,
            approach,
            contention,
            threshold_c,
            ambient_c,
            tunables,
            idle_policy,
            board,
            scenario_index,
        }
    }

    /// The configuration every cell starts from: the base (default:
    /// [`ScenarioRunner::default_config`]) with the patch applied. A
    /// cell's idle-policy axis value overrides this per cell.
    pub fn resolved_config(&self) -> SimConfig {
        self.patch.apply(
            self.base_config
                .unwrap_or_else(ScenarioRunner::default_config),
        )
    }

    /// Runs the whole grid, handing every [`SweepEvent`] to `sink` on
    /// the calling thread as cells finish — completion order, not grid
    /// order. The engine retains no results, and the event channel is
    /// **bounded** (2 × workers): a sink slower than the workers blocks
    /// them instead of queueing results, so peak resident result state
    /// stays O(workers) no matter the grid or consumer speed.
    ///
    /// Cell failures (including caught panics) become
    /// [`SweepEvent::CellFailed`] and the sweep drains the remaining
    /// cells; the terminal [`SweepEvent::Finished`] carries the failure
    /// count.
    ///
    /// # Errors
    ///
    /// [`SweepError::Profiling`] if an app in the grid cannot be
    /// profiled — detected up front, before any cell runs.
    pub fn run_streaming(&self, sink: impl FnMut(SweepEvent)) -> Result<SweepRunStats, SweepError> {
        self.run_inner(sink, None)
    }

    /// [`SweepSpec::run_streaming`] with the observability plane on:
    /// every worker collects scheduler counters, a per-cell wall-time
    /// histogram, busy/idle time and a Chrome-trace track, and every
    /// cell runs with step-loop timing enabled
    /// ([`ScenarioRunner::with_step_timing`]). Returns the stats plus a
    /// [`SweepObsReport`] (metrics registry + trace-event log).
    ///
    /// Instrumentation is observation-only: cell results, digests and
    /// journal records are bit-identical to an uninstrumented run (the
    /// golden-digest tests pin this).
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::run_streaming`].
    pub fn run_instrumented(
        &self,
        sink: impl FnMut(SweepEvent),
    ) -> Result<(SweepRunStats, SweepObsReport), SweepError> {
        let obs = RunObs::new();
        let stats = self.run_inner(sink, Some(&obs))?;
        let report = SweepObsReport::assemble(obs.into_workers(), &stats);
        Ok((stats, report))
    }

    fn run_inner(
        &self,
        mut sink: impl FnMut(SweepEvent),
        obs: Option<&RunObs>,
    ) -> Result<SweepRunStats, SweepError> {
        let wall_t0 = Instant::now();
        let grid = self.cells();
        // The work list: cell indices minus the skip set. The identity
        // case (no skips — every non-resumed sweep) stays lazy and
        // allocation-free; a resume holds one index per *remaining*
        // cell, which is exactly the work it still owes.
        let run_list: Option<Vec<usize>> = if self.skip.is_empty() {
            None
        } else {
            Some((0..grid).filter(|i| !self.skip.contains(i)).collect())
        };
        let total = run_list.as_ref().map_or(grid, Vec::len);
        let skipped = grid - total;
        let to_index = |pos: usize| run_list.as_ref().map_or(pos, |l| l[pos]);
        if total == 0 {
            sink(SweepEvent::Finished {
                cells: 0,
                failed: 0,
            });
            return Ok(SweepRunStats {
                cells: 0,
                completed: 0,
                failed: 0,
                skipped,
                wall: wall_t0.elapsed(),
            });
        }

        // Profile every app once, up front, shared with every worker.
        let apps: BTreeSet<App> = self.scenarios.iter().flat_map(Scenario::apps).collect();
        let profiles = cached_profiles(apps)?;
        let config = self.resolved_config();
        let workers = self.threads.min(total);

        let mut completed = 0usize;
        let mut failed = 0usize;

        if workers <= 1 {
            // Sequential: cell-index order, same failure handling. The
            // instrumented run collects into one pseudo-worker (track 0).
            let mut wobs = obs.map(|o| WorkerObs::new(0, o.epoch));
            if let Some(k) = self.batch {
                // Batched sequential: K lockstep lanes on this thread,
                // claims drained in cell-index order. This is the path
                // the single-core throughput bench exercises.
                let mut pos = 0usize;
                let mut next = |_: &mut Option<WorkerObs>| {
                    if pos < total {
                        let i = to_index(pos);
                        pos += 1;
                        Some(i)
                    } else {
                        None
                    }
                };
                let mut emit = |ev: SweepEvent| {
                    match &ev {
                        SweepEvent::CellDone { .. } => completed += 1,
                        SweepEvent::CellFailed { .. } => failed += 1,
                        _ => {}
                    }
                    sink(ev);
                    true
                };
                self.batched_worker_loop(k, &profiles, config, &mut wobs, &mut next, &mut emit);
            } else {
                for pos in 0..total {
                    let index = to_index(pos);
                    let cell = self.cell(index);
                    sink(SweepEvent::CellStarted {
                        index,
                        name: cell.name.clone(),
                        approach: cell.approach,
                    });
                    let busy_t0 = wobs.as_ref().map(|_| Instant::now());
                    let outcome = self.run_cell(&cell, &profiles, config, wobs.is_some());
                    if let (Some(w), Some(t0)) = (wobs.as_mut(), busy_t0) {
                        w.observe_cell(&cell.name, index, t0, &outcome);
                    }
                    match outcome {
                        Ok(result) => {
                            completed += 1;
                            sink(SweepEvent::CellDone {
                                cell,
                                result: Box::new(result),
                            });
                        }
                        Err(message) => {
                            failed += 1;
                            sink(SweepEvent::CellFailed {
                                index,
                                name: cell.name,
                                message,
                            });
                        }
                    }
                }
            }
            if let (Some(w), Some(o)) = (wobs, obs) {
                o.collected
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(w);
            }
        } else {
            // Work-stealing pool: a shared injector of chunks, one
            // claimed (start, end) range per worker, thieves take the
            // back half of the fullest claim. No lock is ever held
            // while a cell runs, and no two range locks are held at
            // once, so a panicking cell cannot poison shared state.
            let chunk = self.chunk.unwrap_or_else(|| {
                let base = total.div_ceil(workers * 4).clamp(1, 32);
                // In batch mode, round up to a multiple of the lane
                // count so a fresh chunk fills a whole lockstep pool
                // (see the `chunk()` doc).
                match self.batch {
                    Some(k) if k > 1 => base.div_ceil(k) * k,
                    _ => base,
                }
            });
            let injector: Mutex<VecDeque<(usize, usize)>> = Mutex::new(
                (0..total)
                    .step_by(chunk)
                    .map(|s| (s, (s + chunk).min(total)))
                    .collect(),
            );
            let claims: Vec<Mutex<(usize, usize)>> =
                (0..workers).map(|_| Mutex::new((0, 0))).collect();
            let claimed = std::sync::atomic::AtomicUsize::new(0);
            // Bounded channel = backpressure: when the sink is slower
            // than the workers, producers block on `send` instead of
            // queueing results, so the O(workers) resident-result
            // guarantee holds no matter how slow the consumer is (2×
            // workers leaves each worker one slot of slack before it
            // parks). The sink loop below never blocks on the workers,
            // so the bound cannot deadlock.
            let (tx, rx) = mpsc::sync_channel::<SweepEvent>(workers * 2);

            std::thread::scope(|scope| {
                for me in 0..workers {
                    let tx = tx.clone();
                    let injector = &injector;
                    let claims = &claims;
                    let claimed = &claimed;
                    let profiles = &profiles;
                    let to_index = &to_index;
                    scope.spawn(move || {
                        let mut wobs = obs.map(|o| WorkerObs::new(me, o.epoch));
                        if let Some(k) = self.batch {
                            // Batched worker: same claim/steal stream,
                            // but cells feed this worker's K-lane
                            // lockstep pool instead of running one at
                            // a time.
                            let mut next = |w: &mut Option<WorkerObs>| {
                                let idle_t0 = w.as_ref().map(|_| Instant::now());
                                let n = next_cell(
                                    me,
                                    injector,
                                    claims,
                                    claimed,
                                    total,
                                    w.as_mut().map(|x| &mut x.pool),
                                );
                                if let (Some(x), Some(t0)) = (w.as_mut(), idle_t0) {
                                    x.bank_idle(t0);
                                }
                                n.map(to_index)
                            };
                            let mut emit = |ev: SweepEvent| tx.send(ev).is_ok();
                            self.batched_worker_loop(
                                k, profiles, config, &mut wobs, &mut next, &mut emit,
                            );
                            if let (Some(w), Some(o)) = (wobs, obs) {
                                o.collected
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    .push(w);
                            }
                            return;
                        }
                        // The claim structure schedules work-list
                        // *positions*; `to_index` maps a position to
                        // its grid index (the identity unless cells
                        // are skipped for a resume).
                        loop {
                            let idle_t0 = wobs.as_ref().map(|_| Instant::now());
                            let next = next_cell(
                                me,
                                injector,
                                claims,
                                claimed,
                                total,
                                wobs.as_mut().map(|w| &mut w.pool),
                            );
                            if let (Some(w), Some(t0)) = (wobs.as_mut(), idle_t0) {
                                w.bank_idle(t0);
                            }
                            let Some(pos) = next else { break };
                            let index = to_index(pos);
                            let cell = self.cell(index);
                            // A failed send means the receiver is gone —
                            // the sink panicked mid-sweep. Stop claiming
                            // cells instead of silently simulating the
                            // rest of the grid into a closed channel.
                            let started = tx.send(SweepEvent::CellStarted {
                                index,
                                name: cell.name.clone(),
                                approach: cell.approach,
                            });
                            if started.is_err() {
                                break;
                            }
                            let busy_t0 = wobs.as_ref().map(|_| Instant::now());
                            let outcome = self.run_cell(&cell, profiles, config, wobs.is_some());
                            if let (Some(w), Some(t0)) = (wobs.as_mut(), busy_t0) {
                                w.observe_cell(&cell.name, index, t0, &outcome);
                            }
                            let event = match outcome {
                                Ok(result) => SweepEvent::CellDone {
                                    cell,
                                    result: Box::new(result),
                                },
                                Err(message) => SweepEvent::CellFailed {
                                    index,
                                    name: cell.name,
                                    message,
                                },
                            };
                            if tx.send(event).is_err() {
                                break;
                            }
                        }
                        if let (Some(w), Some(o)) = (wobs, obs) {
                            o.collected
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(w);
                        }
                    });
                }
                drop(tx); // the receiver loop ends when every worker has
                for event in rx {
                    match &event {
                        SweepEvent::CellDone { .. } => completed += 1,
                        SweepEvent::CellFailed { .. } => failed += 1,
                        _ => {}
                    }
                    sink(event);
                }
            });
        }

        let wall = wall_t0.elapsed();
        sink(SweepEvent::Finished {
            cells: total,
            failed,
        });
        Ok(SweepRunStats {
            cells: total,
            completed,
            failed,
            skipped,
            wall,
        })
    }

    /// Convenience for small grids: runs the sweep and returns every
    /// executed result **buffered in cell-index order** — O(cells)
    /// memory by construction; big grids should stream instead.
    /// Skipped cells (a resumed spec) are simply absent from the
    /// output.
    ///
    /// # Errors
    ///
    /// [`SweepError::Profiling`] as [`SweepSpec::run_streaming`], or
    /// [`SweepError::Cell`] naming the first failed cell (the sweep
    /// still drained the others first).
    pub fn run_collect(&self) -> Result<Vec<ScenarioResult>, SweepError> {
        let mut slots: Vec<Option<ScenarioResult>> = (0..self.cells()).map(|_| None).collect();
        let mut failure: Option<SweepError> = None;
        self.run_streaming(|event| match event {
            SweepEvent::CellDone { cell, result } => slots[cell.index] = Some(*result),
            SweepEvent::CellFailed { name, message, .. } if failure.is_none() => {
                failure = Some(SweepError::Cell {
                    cell: name,
                    message,
                });
            }
            _ => {}
        })?;
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !self.skip.contains(i))
            .map(|(_, r)| r.expect("every non-skipped cell streamed exactly once"))
            .collect())
    }

    /// Materialises the cell's scenario (name, threshold, ambient
    /// overrides) and builds its configured runner — the shared front
    /// half of both execution paths.
    fn make_cell_runner(
        &self,
        cell: &SweepCell,
        profiles: &Arc<ProfileStore>,
        config: SimConfig,
        instrument: bool,
    ) -> (ScenarioRunner, Scenario) {
        let mut scenario = self.scenarios[cell.scenario_index].clone();
        if cell.name != scenario.name() {
            scenario = scenario.with_name(cell.name.clone());
        }
        if let Some(t) = cell.threshold_c {
            scenario = scenario.with_initial_threshold(t);
        }
        if let Some(a) = cell.ambient_c {
            scenario = scenario.with_initial_ambient(a);
        }
        let mut cfg = config;
        if let Some(p) = cell.idle_policy {
            cfg.idle_policy = p;
        }
        let runner = ScenarioRunner::with_shared_profiles(cell.approach, Arc::clone(profiles))
            .with_contention(cell.contention)
            .with_tunables(cell.tunables)
            .with_board(cell.board)
            .with_sample_staging(self.sample_staging)
            .with_config(cfg)
            .with_step_timing(instrument);
        (runner, scenario)
    }

    /// Executes one cell: materialise the scenario, build its runner,
    /// run it with the panic caught on this worker.
    fn run_cell(
        &self,
        cell: &SweepCell,
        profiles: &Arc<ProfileStore>,
        config: SimConfig,
        instrument: bool,
    ) -> Result<ScenarioResult, String> {
        let (mut runner, scenario) = self.make_cell_runner(cell, profiles, config, instrument);
        catch_cell(|| runner.run(&scenario))
    }

    /// Starts one cell for the batched path: prepare it and step it on
    /// the scalar loop until it becomes lockstep-eligible (panic
    /// caught). A short cell may finish during warm-up; that is just a
    /// scalar cell and comes back as its result.
    fn start_cell_for_batch(
        &self,
        cell: &SweepCell,
        profiles: &Arc<ProfileStore>,
        config: SimConfig,
        instrument: bool,
    ) -> BatchStart {
        let (mut runner, scenario) = self.make_cell_runner(cell, profiles, config, instrument);
        catch_cell(move || {
            let mut sim = runner.prepare_cell(&scenario)?;
            loop {
                if crate::lockstep::eligible_for_lockstep(&sim) {
                    return Ok(BatchStart::Eligible(Box::new((runner, sim))));
                }
                if !runner.step_cell(&mut sim)? {
                    return Ok(BatchStart::Done(Box::new(runner.finish_cell(sim))));
                }
            }
        })
        .unwrap_or_else(BatchStart::Failed)
    }

    /// The batched worker loop: claim cells through `next`, warm them
    /// up to lockstep eligibility, run lockstep rounds over a K-lane
    /// pool, finish retiring cells on the scalar path, and refill freed
    /// lanes — shared verbatim by the sequential (`threads(1)`) and
    /// pooled branches, which differ only in their `next`/`emit`
    /// closures. `emit` returns `false` when the event consumer is gone
    /// (pooled mode: the channel closed), which stops the loop.
    fn batched_worker_loop(
        &self,
        k: usize,
        profiles: &Arc<ProfileStore>,
        config: SimConfig,
        wobs: &mut Option<WorkerObs>,
        next: &mut dyn FnMut(&mut Option<WorkerObs>) -> Option<usize>,
        emit: &mut dyn FnMut(SweepEvent) -> bool,
    ) {
        let reference = Board::odroid_xu4_ideal();
        let mut pool = LockstepPool::new(k, &reference.thermal, wobs.is_some());
        // Claim-order bookkeeping for cells resident in the pool,
        // keyed by cell index (≤ K entries; linear scans are fine).
        let mut in_flight: Vec<(usize, SweepCell, Option<Instant>)> = Vec::new();
        let mut retired = Vec::new();
        let mut dry = false; // `next` ran out of cells
        let mut dead = false; // `emit` reported a gone consumer

        'outer: loop {
            // Fill free lanes from the claim stream.
            while !dry && !dead && pool.has_free_lane() {
                let Some(index) = next(wobs) else {
                    dry = true;
                    break;
                };
                let cell = self.cell(index);
                if !emit(SweepEvent::CellStarted {
                    index,
                    name: cell.name.clone(),
                    approach: cell.approach,
                }) {
                    dead = true;
                    break;
                }
                let started = wobs.as_ref().map(|_| Instant::now());
                let start = self.start_cell_for_batch(&cell, profiles, config, wobs.is_some());
                if let (Some(w), Some(t0)) = (wobs.as_mut(), started) {
                    w.bank_busy(t0);
                }
                match start {
                    BatchStart::Eligible(boxed) => {
                        let (runner, sim) = *boxed;
                        // Board-axis boundary: same-board cells are
                        // contiguous in the grid, so when the pool has
                        // drained and the next cell's topology differs,
                        // rebuild the SoA batch for the new board
                        // (folding the old pool's counters first)
                        // instead of degrading its cells to scalar.
                        if pool.is_empty() && !pool.matches_topology(&sim.soc.board.thermal) {
                            fold_pool_obs(wobs, &pool);
                            pool = LockstepPool::new(k, &sim.soc.board.thermal, wobs.is_some());
                        }
                        match pool.admit(runner, sim, index) {
                            Ok(()) => in_flight.push((index, cell, started)),
                            Err((runner, sim, _)) => {
                                // Topology or dt mismatch with the pool:
                                // degrade this cell to scalar.
                                let busy_t0 = wobs.as_ref().map(|_| Instant::now());
                                let outcome = finish_scalar(runner, sim);
                                dead |=
                                    !settle_batched(wobs, emit, cell, started, busy_t0, outcome);
                            }
                        }
                    }
                    BatchStart::Done(result) => {
                        dead |= !settle_batched(wobs, emit, cell, started, None, Ok(*result));
                    }
                    BatchStart::Failed(message) => {
                        dead |= !settle_batched(wobs, emit, cell, started, None, Err(message));
                    }
                }
            }
            if pool.is_empty() && (dry || dead) {
                break 'outer;
            }
            if dead {
                // Consumer gone with cells still in flight: drop them,
                // like the scalar loop drops an unsendable result.
                break 'outer;
            }
            if pool.is_empty() {
                continue 'outer;
            }

            // One lockstep round, panic-isolated: a panicking manager
            // or model must cost its own cells a scalar re-run, not the
            // grid. Lanes retired before the panic left the pool at
            // valid phase boundaries and finish normally.
            let busy_t0 = wobs.as_ref().map(|_| Instant::now());
            let round =
                std::panic::catch_unwind(AssertUnwindSafe(|| pool.step_round(&mut retired)));
            if let (Some(w), Some(t0)) = (wobs.as_mut(), busy_t0) {
                w.bank_busy(t0);
            }
            if round.is_err() {
                // Mid-round state is not a valid scalar boundary; the
                // stuck cells re-run from scratch on the scalar path
                // (a deterministic panic reproduces there and fails the
                // cell with its payload; CellStarted was already sent).
                for token in pool.evict_all() {
                    let pos = in_flight
                        .iter()
                        .position(|(t, _, _)| *t == token)
                        .expect("evicted lane was in flight");
                    let (_, cell, started) = in_flight.remove(pos);
                    let busy_t0 = wobs.as_ref().map(|_| Instant::now());
                    let outcome = self.run_cell(&cell, profiles, config, wobs.is_some());
                    dead |= !settle_batched(wobs, emit, cell, started, busy_t0, outcome);
                }
            }

            // Finish every retired lane on the scalar path. A lane that
            // completed in-pool terminates on its first step_cell call,
            // so completion and divergence share this code.
            for r in retired.drain(..) {
                let pos = in_flight
                    .iter()
                    .position(|(t, _, _)| *t == r.token)
                    .expect("retired lane was in flight");
                let (_, cell, started) = in_flight.remove(pos);
                let busy_t0 = wobs.as_ref().map(|_| Instant::now());
                let outcome = finish_scalar(r.runner, r.sim);
                if let (Some(w), Ok(result)) = (wobs.as_mut(), &outcome) {
                    let in_pool = result.kernel.steps.saturating_sub(r.steps_at_entry);
                    w.record_lane_occupancy(result.kernel.batched_steps, in_pool);
                }
                dead |= !settle_batched(wobs, emit, cell, started, busy_t0, outcome);
            }
        }

        // Fold the pool's counters into the worker's collector.
        fold_pool_obs(wobs, &pool);
    }
}

/// The shared offline-profile store for an app set, memoised across
/// sweeps: profiling is deterministic (the regression observations are
/// simulated on the canonical ideal board, the same board every
/// [`SweepSpec::run_streaming`] profiles against), so repeated sweeps —
/// benches, examples, test suites, resumed campaigns — reuse one store
/// instead of re-simulating the observation set per call.
fn cached_profiles(apps: BTreeSet<App>) -> Result<Arc<ProfileStore>, SweepError> {
    static CACHE: Mutex<Vec<(BTreeSet<App>, Arc<ProfileStore>)>> = Mutex::new(Vec::new());
    let mut cache = CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, store)) = cache.iter().find(|(k, _)| *k == apps) {
        return Ok(Arc::clone(store));
    }
    let store = build_profile_store(&Board::odroid_xu4_ideal(), apps.iter().copied())
        .map_err(SweepError::Profiling)?
        .into_shared();
    cache.push((apps, Arc::clone(&store)));
    Ok(store)
}

/// Folds a lockstep pool's counters into the worker's collector — at
/// worker exit, and before a board-boundary pool rebuild discards the
/// old pool.
fn fold_pool_obs(wobs: &mut Option<WorkerObs>, pool: &LockstepPool) {
    if let Some(w) = wobs.as_mut() {
        w.kernel.merge(&pool.obs);
        w.batch_rounds += pool.rounds;
        w.batch_lane_steps += pool.lane_steps;
        w.batch_lane_slots += pool.lane_slots;
    }
}

/// How a cell came out of its batched warm-up.
enum BatchStart {
    /// Lockstep-eligible: the suspended simulation, ready to admit.
    Eligible(Box<(ScenarioRunner, crate::exec::CellSim)>),
    /// Finished during warm-up (a short or never-eligible cell).
    Done(Box<ScenarioResult>),
    /// Failed or panicked during warm-up.
    Failed(String),
}

/// Drives a suspended cell to completion on the scalar path, panics
/// caught. A cell whose timeline already completed in-pool terminates
/// on the first `step_cell` call, so completion and divergence share
/// this one exit.
fn finish_scalar(
    mut runner: ScenarioRunner,
    mut sim: crate::exec::CellSim,
) -> Result<ScenarioResult, String> {
    let run = move || -> Result<ScenarioResult, teem_linreg::LinregError> {
        loop {
            if !runner.step_cell(&mut sim)? {
                return Ok(runner.finish_cell(sim));
            }
        }
    };
    match std::panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
    }
}

/// Settles a batched-path cell: banks the worker's busy time since
/// `busy_t0` (when timed), records the cell's wall time since `started`
/// with the worker's collector, and emits its outcome; `false` when the
/// consumer is gone.
fn settle_batched(
    wobs: &mut Option<WorkerObs>,
    emit: &mut dyn FnMut(SweepEvent) -> bool,
    cell: SweepCell,
    started: Option<Instant>,
    busy_t0: Option<Instant>,
    outcome: Result<ScenarioResult, String>,
) -> bool {
    if let Some(w) = wobs.as_mut() {
        if let Some(t0) = busy_t0 {
            w.bank_busy(t0);
        }
        w.observe_batched_cell(
            &cell.name,
            cell.index,
            started.unwrap_or_else(Instant::now),
            &outcome,
        );
    }
    emit_outcome(emit, cell, outcome)
}

/// Runs one cell's work with panics caught on this worker: an error or
/// a panic comes back as the cell's failure message.
fn catch_cell<T>(work: impl FnOnce() -> Result<T, teem_linreg::LinregError>) -> Result<T, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        // `&*payload`, not `&payload`: coercing `&Box<dyn Any>` would
        // downcast against the box itself and lose the text.
        Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
    }
}

/// Sends a finished cell's outcome as the right event; `false` when the
/// consumer is gone.
fn emit_outcome(
    emit: &mut dyn FnMut(SweepEvent) -> bool,
    cell: SweepCell,
    outcome: Result<ScenarioResult, String>,
) -> bool {
    match outcome {
        Ok(result) => emit(SweepEvent::CellDone {
            cell,
            result: Box::new(result),
        }),
        Err(message) => emit(SweepEvent::CellFailed {
            index: cell.index,
            name: cell.name,
            message,
        }),
    }
}

/// Claims the next cell for worker `me`: own range first, then a fresh
/// injector chunk, then steal the back half of the fullest sibling
/// claim. Returns `None` only once every cell has been claimed
/// (`claimed == total`), so a worker can never exit while a sibling
/// still holds unclaimed cells in a transient unpublished window — it
/// yields and rescans instead.
///
/// Lock discipline: the injector is only ever locked *under* the
/// worker's own claim lock (so a popped chunk is never invisible to
/// thieves), the steal path locks the victim and the thief's own claim
/// strictly one after the other, and no lock is held while a cell
/// runs — deadlock-free, and a cell panic cannot poison the claim
/// structure.
fn next_cell(
    me: usize,
    injector: &Mutex<VecDeque<(usize, usize)>>,
    claims: &[Mutex<(usize, usize)>],
    claimed: &std::sync::atomic::AtomicUsize,
    total: usize,
    mut obs: Option<&mut PoolObs>,
) -> Option<usize> {
    use std::sync::atomic::Ordering;
    let take = || claimed.fetch_add(1, Ordering::Relaxed);
    loop {
        // 1. Own claim, refilled from the injector while still held:
        //    a chunk moves atomically (to observers) from the injector
        //    into this claim, so thieves scanning claims after finding
        //    the injector empty cannot miss it.
        {
            let mut own = claims[me].lock().expect("no cell runs under this lock");
            if own.0 < own.1 {
                let i = own.0;
                own.0 += 1;
                take();
                return Some(i);
            }
            let mut queue = injector.lock().expect("no cell runs under this lock");
            if let Some(o) = obs.as_deref_mut() {
                o.queue_depth.record(queue.len() as u64);
            }
            let fresh = queue.pop_front();
            drop(queue);
            if let Some((start, end)) = fresh {
                if let Some(o) = obs.as_deref_mut() {
                    o.injector_refills += 1;
                }
                *own = (start + 1, end);
                take();
                return Some(start);
            }
        }
        // 2. Steal: scan for the fullest sibling claim, take its back
        //    half.
        if let Some(o) = obs.as_deref_mut() {
            o.steal_attempts += 1;
        }
        let mut victim: Option<(usize, usize)> = None; // (worker, len)
        for (w, claim) in claims.iter().enumerate() {
            if w == me {
                continue;
            }
            let r = claim.lock().expect("no cell runs under this lock");
            let len = r.1 - r.0;
            if len > victim.map_or(0, |(_, l)| l) {
                victim = Some((w, len));
            }
        }
        if let Some((w, _)) = victim {
            let stolen = {
                let mut r = claims[w].lock().expect("no cell runs under this lock");
                let len = r.1 - r.0;
                if len == 0 {
                    continue; // raced with the victim; rescan
                }
                let keep = len / 2;
                let stolen = (r.0 + keep, r.1);
                r.1 = stolen.0;
                stolen
            };
            if let Some(o) = obs.as_deref_mut() {
                o.steal_successes += 1;
                o.steal_sizes.record((stolen.1 - stolen.0) as u64);
            }
            let mut own = claims[me].lock().expect("no cell runs under this lock");
            *own = (stolen.0 + 1, stolen.1);
            take();
            return Some(stolen.0);
        }
        // 3. Nothing visible. Exit only when every cell has been
        //    claimed; otherwise a thief is mid-publish — yield and
        //    rescan.
        if claimed.load(Ordering::Relaxed) >= total {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Best-effort human-readable panic payload. `panic!` and most code
/// produce `&'static str` or `String`; `panic_any` callers also throw
/// `Box<str>` and `Cow<'static, str>`, so those are unwrapped too —
/// anything else keeps its type name so the [`SweepEvent::CellFailed`]
/// message is never an empty shrug.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<Box<str>>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<std::borrow::Cow<'static, str>>() {
        s.to_string()
    } else {
        format!("non-string panic payload ({:?})", payload.type_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AppRequest, ScenarioEvent};
    use teem_soc::MHz;

    fn two_scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new("a").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("b").arrive(0.0, App::Gesummv, 0.9),
        ]
    }

    #[test]
    fn cell_count_is_the_axis_product() {
        let spec = SweepSpec::over(two_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .thresholds_c(&[80.0, 85.0, 90.0])
            .ambients_c(&[20.0, 30.0]);
        assert_eq!(spec.cells(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn enumeration_is_scenario_major_with_approach_innermost() {
        let spec =
            SweepSpec::over(two_scenarios()).approaches(&[Approach::Teem, Approach::Ondemand]);
        assert_eq!(spec.cells(), 4);
        let names: Vec<(String, Approach)> = (0..4)
            .map(|i| {
                let c = spec.cell(i);
                (c.name, c.approach)
            })
            .collect();
        assert_eq!(names[0], ("a".to_string(), Approach::Teem));
        assert_eq!(names[1], ("a".to_string(), Approach::Ondemand));
        assert_eq!(names[2], ("b".to_string(), Approach::Teem));
        assert_eq!(names[3], ("b".to_string(), Approach::Ondemand));
    }

    #[test]
    fn no_extra_axes_means_untouched_scenario_names() {
        let spec = SweepSpec::over(two_scenarios());
        assert_eq!(spec.cell(0).name, "a", "no knob tags without knob axes");
        assert_eq!(spec.cell(0).tunables, TeemTunables::paper());
        assert_eq!(spec.cell(0).threshold_c, None);
    }

    #[test]
    fn knob_axes_tag_the_cell_names() {
        let spec = SweepSpec::over(two_scenarios())
            .thresholds_c(&[82.0])
            .ambients_c(&[30.0])
            .tunables(&[TeemTunables::paper().with_delta(100).with_floor(MHz(1000))]);
        let c = spec.cell(0);
        assert_eq!(c.name, "a@thr82/amb30/d100/f1000");
    }

    #[test]
    #[should_panic(expected = "plausible")]
    fn threshold_axis_is_validated_up_front() {
        let _ = SweepSpec::over(two_scenarios()).thresholds_c(&[500.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate physics")]
    fn dead_threshold_axis_is_rejected() {
        // Every knob set overrides the threshold, so the thresholds
        // axis could only clone cells under different names.
        let _ = SweepSpec::over(two_scenarios())
            .thresholds_c(&[80.0, 85.0])
            .tunables(&[
                TeemTunables::paper().with_threshold(82.0),
                TeemTunables::paper().with_threshold(88.0),
            ]);
    }

    #[test]
    fn threshold_axis_with_partially_overriding_knobs_is_allowed() {
        // One knob set keeps the requirement's threshold, so the axis
        // still changes physics for those cells.
        let spec = SweepSpec::over(two_scenarios())
            .thresholds_c(&[80.0, 85.0])
            .tunables(&[
                TeemTunables::paper(),
                TeemTunables::paper().with_threshold(82.0),
            ]);
        assert_eq!(spec.cells(), 2 * 2 * 2);
    }

    #[test]
    fn panicking_sink_stops_the_workers_early() {
        // A sink panic drops the receiver; workers must stop claiming
        // cells instead of simulating the rest of the grid into a
        // closed channel.
        let spec = SweepSpec::over(two_scenarios())
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .thresholds_c(&[80.0, 82.0, 84.0, 86.0])
            .threads(2)
            .chunk(1);
        let spec_ref = &spec;
        let ran = std::sync::Mutex::new(0usize);
        let ran_ref = &ran;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            spec_ref
                .run_streaming(|ev| {
                    if let SweepEvent::CellDone { .. } = ev {
                        *ran_ref.lock().unwrap() += 1;
                        panic!("sink gave up");
                    }
                })
                .expect("profiling fine")
        }));
        assert!(result.is_err(), "the sink panic must propagate");
        // The panic unwound on the first completed cell; the workers
        // cannot have streamed the whole 16-cell grid afterwards (at
        // most the cells already in flight or queued drain).
        assert!(*ran.lock().unwrap() <= 1, "sink ran after its own panic");
    }

    #[test]
    fn empty_grid_finishes_immediately() {
        let spec = SweepSpec::over([]);
        let mut events = 0;
        let stats = spec
            .run_streaming(|ev| {
                events += 1;
                assert!(matches!(
                    ev,
                    SweepEvent::Finished {
                        cells: 0,
                        failed: 0
                    }
                ));
            })
            .expect("empty grid");
        assert_eq!(events, 1);
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn stream_pairs_started_and_done_and_ends_with_finished() {
        let spec = SweepSpec::over(two_scenarios()).threads(2);
        let mut started = vec![false; spec.cells()];
        let mut done = vec![false; spec.cells()];
        let mut finished = false;
        let stats = spec
            .run_streaming(|ev| {
                assert!(!finished, "nothing after Finished");
                match ev {
                    SweepEvent::CellStarted { index, .. } => started[index] = true,
                    SweepEvent::CellDone { cell, result } => {
                        assert!(started[cell.index], "Started precedes Done");
                        assert!(!result.timed_out);
                        done[cell.index] = true;
                    }
                    SweepEvent::CellFailed { .. } => panic!("no cell should fail"),
                    SweepEvent::Finished { cells, failed } => {
                        assert_eq!(cells, 2);
                        assert_eq!(failed, 0);
                        finished = true;
                    }
                }
            })
            .expect("runs");
        assert!(finished);
        assert!(done.iter().all(|&d| d));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn collect_orders_by_cell_index_across_thread_counts() {
        let spec =
            SweepSpec::over(two_scenarios()).approaches(&[Approach::Teem, Approach::Ondemand]);
        let seq = spec.clone().threads(1).run_collect().expect("runs");
        let par = spec.threads(4).run_collect().expect("runs");
        assert_eq!(seq.len(), 4);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.trace.digest(), b.trace.digest());
        }
    }

    #[test]
    fn matrix_is_scenario_major_and_complete() {
        let scenarios = vec![
            Scenario::new("a").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("b").arrive(0.0, App::Syrk, 0.9),
        ];
        let results = SweepSpec::over(scenarios)
            .approaches(&[Approach::Teem, Approach::Ondemand])
            .run_collect()
            .expect("profiles fit");
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].summary.scenario, "a");
        assert_eq!(results[0].summary.approach, "TEEM");
        assert_eq!(results[1].summary.scenario, "a");
        assert_eq!(results[1].summary.approach, "ondemand");
        assert_eq!(results[2].summary.scenario, "b");
        assert_eq!(results[3].summary.scenario, "b");
        for r in &results {
            assert_eq!(r.summary.apps_completed(), 1);
            assert!(!r.timed_out);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let spec = SweepSpec::over([Scenario::new("a").arrive(0.0, App::Mvt, 0.9).arrive(
            1.0,
            App::Gesummv,
            0.9,
        )])
        .approaches(&[Approach::Teem, Approach::Eemp]);
        let par = spec.clone().threads(4).run_collect().expect("runs");
        let seq = spec.threads(1).run_collect().expect("runs");
        let par: Vec<_> = par.into_iter().map(|r| r.summary).collect();
        let seq: Vec<_> = seq.into_iter().map(|r| r.summary).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn panicking_cell_fails_alone_and_the_rest_drain() {
        // A per-app threshold override far outside the plausible range
        // panics inside the worker (UserRequirement's validation) — the
        // engine must convert it to CellFailed and still run the other
        // cells.
        let poison = Scenario::new("poison").at(
            0.0,
            ScenarioEvent::Arrival(AppRequest::new(App::Mvt, 0.9).with_threshold(500.0)),
        );
        let good = Scenario::new("good").arrive(0.0, App::Mvt, 0.9);
        let spec = SweepSpec::over([poison, good]).threads(2);
        let mut failed_names = Vec::new();
        let mut done_names = Vec::new();
        let stats = spec
            .run_streaming(|ev| match ev {
                SweepEvent::CellFailed { name, message, .. } => {
                    assert!(message.contains("panicked"), "{message}");
                    // The actual panic payload — not a generic shrug —
                    // must reach the event (observability contract).
                    assert!(
                        message.contains("out of plausible range"),
                        "payload text lost: {message}"
                    );
                    failed_names.push(name);
                }
                SweepEvent::CellDone { cell, .. } => done_names.push(cell.name),
                _ => {}
            })
            .expect("profiling still fine");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(failed_names, vec!["poison".to_string()]);
        assert_eq!(done_names, vec!["good".to_string()]);

        // run_collect surfaces the failure as an error naming the cell.
        let err = spec.run_collect().expect_err("poison cell fails");
        let msg = err.to_string();
        assert!(msg.contains("poison"), "{msg}");
    }

    #[test]
    fn collect_error_names_the_panicked_cell() {
        // A panicking cell must not crash the caller: the siblings
        // complete and the collected error says which cell died and how.
        let poison = Scenario::new("poison-cell").at(
            0.0,
            ScenarioEvent::Arrival(AppRequest::new(App::Mvt, 0.9).with_threshold(500.0)),
        );
        let good = Scenario::new("good").arrive(0.0, App::Gesummv, 0.9);
        let err = SweepSpec::over([poison, good])
            .run_collect()
            .expect_err("the poisoned cell must surface as an error");
        let msg = err.to_string();
        assert!(msg.contains("poison-cell"), "names the cell: {msg}");
        assert!(msg.contains("panicked"), "says what happened: {msg}");
    }

    #[test]
    fn empty_axes_collect_nothing() {
        let results = SweepSpec::over([]).run_collect().expect("trivially");
        assert!(results.is_empty());
        let results = SweepSpec::over([Scenario::new("x")])
            .approaches(&[])
            .run_collect()
            .expect("trivially");
        assert!(results.is_empty());
    }

    #[test]
    fn patch_wins_over_an_explicit_config() {
        // The patch applies on top of a wholesale config for exactly the
        // fields it names.
        let cfg = SweepSpec::over(two_scenarios())
            .config(ScenarioRunner::default_config())
            .patch_config(ConfigPatch {
                timeout_s: Some(123.0),
                ..ConfigPatch::default()
            })
            .resolved_config();
        assert_eq!(cfg.timeout_s, 123.0);
        assert_eq!(cfg.dt_s, ScenarioRunner::default_config().dt_s);
    }

    #[test]
    fn panic_message_unwraps_common_payload_types() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(Box::<str>::from("boxed"));
        assert_eq!(panic_message(s.as_ref()), "boxed");
        let s: Box<dyn std::any::Any + Send> =
            Box::new(std::borrow::Cow::<'static, str>::from("cowed"));
        assert_eq!(panic_message(s.as_ref()), "cowed");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert!(panic_message(s.as_ref()).contains("non-string panic payload"));
    }

    #[test]
    fn config_patch_rides_on_scenario_defaults() {
        let cfg = SweepSpec::over(two_scenarios())
            .patch_config(ConfigPatch {
                sample_period_s: Some(0.25),
                ..ConfigPatch::default()
            })
            .resolved_config();
        assert_eq!(cfg.sample_period_s, 0.25);
        assert_eq!(
            cfg.timeout_s, 10_000.0,
            "patch must not lose the scenario-scale timeout"
        );
        assert!(ConfigPatch::default().is_noop());
    }

    #[test]
    fn work_stealing_claims_cover_every_cell_exactly_once() {
        // Pure scheduling check on the claim structure, no simulations:
        // tiny chunks + more workers than chunks forces refills and
        // steals, and every worker stays live until the last cell is
        // claimed (the claimed-counter termination rule).
        let total = 103;
        let chunk = 4;
        let workers = 8;
        let injector: Mutex<VecDeque<(usize, usize)>> = Mutex::new(
            (0..total)
                .step_by(chunk)
                .map(|s| (s, (s + chunk).min(total)))
                .collect(),
        );
        let claims: Vec<Mutex<(usize, usize)>> = (0..workers).map(|_| Mutex::new((0, 0))).collect();
        let claimed = std::sync::atomic::AtomicUsize::new(0);
        let seen = Mutex::new(vec![0u32; total]);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let injector = &injector;
                let claims = &claims;
                let claimed = &claimed;
                let seen = &seen;
                scope.spawn(move || {
                    while let Some(i) = next_cell(me, injector, claims, claimed, total, None) {
                        seen.lock().unwrap()[i] += 1;
                        std::thread::yield_now();
                    }
                });
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
        assert_eq!(claimed.load(std::sync::atomic::Ordering::Relaxed), total);
    }

    #[test]
    fn single_big_chunk_still_feeds_every_worker() {
        // Review finding: with one giant injector chunk, thieves used
        // to race the popping worker, see an empty world, and exit —
        // leaving the whole chunk single-threaded. The claimed-counter
        // termination keeps them alive until every cell is claimed, so
        // steals must now spread the chunk.
        let total = 64;
        let workers = 4;
        let injector: Mutex<VecDeque<(usize, usize)>> =
            Mutex::new(std::iter::once((0, total)).collect());
        let claims: Vec<Mutex<(usize, usize)>> = (0..workers).map(|_| Mutex::new((0, 0))).collect();
        let claimed = std::sync::atomic::AtomicUsize::new(0);
        let per_worker = Mutex::new(vec![0usize; workers]);
        let seen = Mutex::new(vec![0u32; total]);
        std::thread::scope(|scope| {
            for me in 0..workers {
                let injector = &injector;
                let claims = &claims;
                let claimed = &claimed;
                let per_worker = &per_worker;
                let seen = &seen;
                scope.spawn(move || {
                    while let Some(i) = next_cell(me, injector, claims, claimed, total, None) {
                        per_worker.lock().unwrap()[me] += 1;
                        seen.lock().unwrap()[i] += 1;
                        // Simulate a cell long enough for thieves to act.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                });
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
        let shares = per_worker.lock().unwrap();
        assert!(
            shares.iter().filter(|&&n| n > 0).count() >= 2,
            "steals must spread a single chunk across workers: {shares:?}"
        );
    }
}
