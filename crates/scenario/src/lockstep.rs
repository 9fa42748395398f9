//! The batched lockstep execution path: K sweep cells stepped in SIMD
//! lockstep through one shared [`ThermalBatch`].
//!
//! A sweep grid multiplies a handful of scenarios by knob axes, so at
//! any instant a worker holds many cells running the *same physics* at
//! different operating points. The scalar loop steps them one at a
//! time, re-deriving per-step constants (power coefficients, progress
//! rates, frequency arbitration) every 10 ms tick even though they only
//! change at control decisions. This module exploits both redundancies:
//!
//! * **SoA thermal lockstep** — each admitted cell owns one lane of a
//!   [`ThermalBatch`]; one [`ThermalBatch::step`] integrates all K RC
//!   networks through the autovectorized `F64xN` kernel.
//! * **Frozen operating points** — between control ticks a solo cell's
//!   effective frequencies, power coefficients and progress rates are
//!   provably constant, so the fast path caches them
//!   ([`NodePowerModel`], per-step progress increments) and re-derives
//!   only at a control tick or a busy-flag flip.
//!
//! # Exactness, not approximation
//!
//! The pool produces **bit-identical** results to the scalar loop; the
//! parity suite pins it. Three mechanisms make that provable:
//!
//! 1. Cells are admitted only while [`eligible_for_lockstep`]: a single
//!    active app, queue drained, timeline exhausted, thermal zone idle
//!    and below trip. In that regime every scalar phase the fast path
//!    skips (event dispatch, launches, gap fast-forward, per-step zone
//!    polling below trip) is a no-op by its own guard.
//! 2. The phases the fast path *does* run go through the same
//!    [`CellSim`] methods as the scalar loop (`phase_sample`,
//!    `phase_control`, `phase_actuate`, `phase_completions`), and the
//!    cached power/progress values are built from the identical
//!    expressions the scalar loop evaluates (pinned bitwise by the
//!    `teem-soc` batch tests).
//! 3. **Divergence is a handoff, not a special case.** The moment a
//!    lane leaves the fast regime — a sensor sample at or above the
//!    zone's trip point, or the executor timeout — its thermal state is
//!    stored back to its own board and the cell returns to the scalar
//!    [`ScenarioRunner::step_cell`] loop at a phase boundary the scalar
//!    loop itself would have reached. Sibling lanes are untouched.

use teem_soc::perf::{cpu_rate, gpu_rate};
use teem_soc::{
    big_core_hotspot_powers, deadline_due, read_lanes_with_hotspots, BatchPowerModel, BatchScratch,
    ClusterFreqs, CpuMapping, HotspotSplit, NodePowerModel, SensorBank, SensorSweep, StepObs,
    ThermalBatch, ThermalModel,
};
use teem_workload::bandwidth_slowdown;

use crate::exec::{combined_mapping, CellSim, ScenarioRunner};

/// `true` when `sim` is in the regime the lockstep fast path models
/// exactly: one active app, nothing queued, no timeline events left,
/// the reactive thermal zone idle with the latest sensor reading below
/// its trip point, and the executor timeout not yet reached.
///
/// Under these invariants the scalar phases the fast path skips are
/// all provably no-ops: the event loop's cursor is exhausted, the
/// launch loop breaks on the empty queue, the gap fast-forward needs an
/// empty active set, and the zone's `update` below trip returns `None`
/// without mutating state.
pub(crate) fn eligible_for_lockstep(sim: &CellSim) -> bool {
    sim.active.len() == 1
        && sim.queue.is_empty()
        && sim.next_ev >= sim.events.len()
        && !sim.soc.zone.is_capping()
        && sim.soc.readings.max_c() < sim.soc.zone.trip_c
        && !sim.timed_out
        && sim.soc.t < sim.timeout_s
}

/// The per-lane cache of everything that is constant between control
/// decisions: the frozen power model, the per-step progress increments,
/// the operating point they were derived at, and the sample inputs that
/// are fixed for the solo app's whole residency.
struct LaneCache {
    model: NodePowerModel,
    /// `cpu_rate(..) * dt / s` at the cached operating point — the
    /// exact expression the scalar progress phase evaluates per step.
    inc_cpu: f64,
    /// `gpu_rate(..) * dt / (s * gpu_sharers)` likewise (`gpu_sharers`
    /// is always 1.0 for a solo app).
    inc_gpu: f64,
    /// The effective frequencies the caches were derived at.
    effective: ClusterFreqs,
    /// Busy flags the power model was built with (the scalar loop's
    /// `!cpu_done()` / `!gpu_done()` share flags).
    cpu_busy: bool,
    gpu_busy: bool,
    /// `combined_mapping(active, cluster_cores)` for the solo app — the
    /// scalar sensing phase's mapping argument, constant while the job
    /// runs because a job's mapping never changes mid-flight.
    sample_mapping: CpuMapping,
    /// The scalar sensing phase's activity fold specialised to one app:
    /// `max(f64::MIN, activity)` is `activity` bit-for-bit.
    sample_activity: f64,
    /// [`big_core_hotspot_powers`] with everything but the node
    /// temperature pre-folded — rebuilt alongside the power model, so a
    /// due sample costs one `exp` instead of a voltage lookup plus the
    /// full dynamic/leakage chain. Bit-identical by the
    /// [`HotspotSplit`] contract.
    hotspot: HotspotSplit,
}

/// Per-lane counter snapshots taken at (re)admission, from which the
/// step/sub-step counters are *derived* at every flush instead of being
/// incremented per lane per round: while resident, a lane gains exactly
/// one step, one batched step, and one fixed sub-step block per round,
/// so `counter = base + (step_idx − step_idx₀)` reproduces the scalar
/// loop's per-step `+= 1` bookkeeping with zero work in the inner loop.
#[derive(Clone, Copy, Default)]
struct LaneBases {
    step_idx0: u64,
    steps0: u64,
    batched0: u64,
    substeps0: u64,
}

/// The per-step-mutable slice of every lane's state, mirrored out of
/// the sprawling [`CellSim`]s into struct-of-arrays planes the lockstep
/// inner loop keeps cache-resident: a round's pre/post passes are
/// branch-free sweeps over these vectors (plus the SoA batch planes)
/// and never touch the K scattered multi-kilobyte simulations.
///
/// # Sync protocol
///
/// The planes **own** their slots while a lane is resident: the fast
/// path mutates only the hot copy. Before any call back into `CellSim`
/// code (a sensor sample, a control/actuate pass, completion handling,
/// retirement), [`HotPlanes::flush`] writes the owned fields back;
/// after the call, the mirrors the sim may have moved are re-read — all
/// of them via [`HotPlanes::reload`] at admission, or just
/// `next_control` and the cached rates after a control/actuate pass
/// (the only fields those phases can touch). Every mirrored expression
/// the fast path evaluates — progress increments, `done()` comparisons,
/// energy accounting, the `t = step_idx · dt` clock — is the identical
/// IEEE expression on identical values, so residency moves without
/// touching a single bit.
#[derive(Default)]
struct HotPlanes {
    // Owned while resident (flushed back to the sim at boundaries).
    t: Vec<f64>,
    /// The step index as an (exact) float — advanced by `+= 1.0` in the
    /// post-thermal vector pass so the `t = step_idx · dt` clock needs
    /// no int→float conversion. Bit-equal to the scalar counter's
    /// conversion while `step_idx < 2⁵³` (campaign cells run thousands
    /// of steps, nowhere near it).
    step_f: Vec<f64>,
    energy_j: Vec<f64>,
    busy_s: Vec<f64>,
    last_total_w: Vec<f64>,
    cpu_done: Vec<f64>,
    gpu_done: Vec<f64>,
    job_energy_j: Vec<f64>,
    // Read-only mirrors (refreshed from the sim/cache after sync points).
    next_sample: Vec<f64>,
    next_control: Vec<f64>,
    timeout_s: Vec<f64>,
    cpu_items: Vec<f64>,
    gpu_items: Vec<f64>,
    inc_cpu: Vec<f64>,
    inc_gpu: Vec<f64>,
    cpu_has_mapping: Vec<bool>,
    // Fast-path-only state (no sim twin).
    cpu_busy: Vec<bool>,
    gpu_busy: Vec<bool>,
    /// Set when a busy flag flipped during the previous step's progress
    /// phase (or at admission): the next step must run the
    /// control/actuate phases because `arbitrate_freqs` may now pick
    /// different frequencies — exactly when the scalar loop's
    /// every-step actuation could first produce a different result.
    flags_dirty: Vec<bool>,
    live: Vec<bool>,
    /// Counter snapshots for the derived-at-flush step accounting.
    bases: Vec<LaneBases>,
}

impl HotPlanes {
    fn new(k: usize) -> Self {
        HotPlanes {
            t: vec![0.0; k],
            step_f: vec![0.0; k],
            energy_j: vec![0.0; k],
            busy_s: vec![0.0; k],
            last_total_w: vec![0.0; k],
            cpu_done: vec![0.0; k],
            gpu_done: vec![0.0; k],
            job_energy_j: vec![0.0; k],
            next_sample: vec![0.0; k],
            next_control: vec![0.0; k],
            timeout_s: vec![0.0; k],
            cpu_items: vec![0.0; k],
            gpu_items: vec![0.0; k],
            inc_cpu: vec![0.0; k],
            inc_gpu: vec![0.0; k],
            cpu_has_mapping: vec![false; k],
            cpu_busy: vec![false; k],
            gpu_busy: vec![false; k],
            flags_dirty: vec![false; k],
            live: vec![false; k],
            bases: vec![LaneBases::default(); k],
        }
    }

    /// Writes slot `slot`'s owned fields back into `sim` — the exact
    /// bits the scalar loop would hold at this boundary. The step and
    /// sub-step counters are derived from the admission bases plus the
    /// rounds lived since (`subs` sub-steps each — the count is a pure
    /// function of the pool's pinned `dt`, so it is constant across a
    /// residency); when zero rounds have elapsed `subs` is never
    /// consulted.
    fn flush(&self, slot: usize, sim: &mut CellSim, subs: u64) {
        sim.soc.t = self.t[slot];
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let step_idx = self.step_f[slot] as u64;
        sim.soc.step_idx = step_idx;
        sim.soc.energy_j = self.energy_j[slot];
        sim.busy_s = self.busy_s[slot];
        sim.soc.last_total_w = self.last_total_w[slot];
        let b = self.bases[slot];
        let d = step_idx - b.step_idx0;
        sim.soc.scratch.obs.steps = b.steps0 + d;
        sim.soc.scratch.obs.batched_steps = b.batched0 + d;
        sim.soc.scratch.obs.substeps = b.substeps0 + d * subs;
        let j = &mut sim.active[0];
        j.job.cpu_done_items = self.cpu_done[slot];
        j.job.gpu_done_items = self.gpu_done[slot];
        j.energy_j = self.job_energy_j[slot];
    }

    /// Re-reads every mirrored field of slot `slot` from `sim`/`cache`
    /// and re-snapshots the counter bases (busy flags, dirtiness and
    /// liveness are fast-path state and survive untouched).
    #[allow(clippy::cast_precision_loss)] // step_idx ≪ 2⁵³
    fn reload(&mut self, slot: usize, sim: &CellSim, cache: &LaneCache) {
        self.t[slot] = sim.soc.t;
        self.step_f[slot] = sim.soc.step_idx as f64;
        self.energy_j[slot] = sim.soc.energy_j;
        self.busy_s[slot] = sim.busy_s;
        self.last_total_w[slot] = sim.soc.last_total_w;
        self.bases[slot] = LaneBases {
            step_idx0: sim.soc.step_idx,
            steps0: sim.soc.scratch.obs.steps,
            batched0: sim.soc.scratch.obs.batched_steps,
            substeps0: sim.soc.scratch.obs.substeps,
        };
        let j = &sim.active[0];
        self.cpu_done[slot] = j.job.cpu_done_items;
        self.gpu_done[slot] = j.job.gpu_done_items;
        self.job_energy_j[slot] = j.energy_j;
        self.next_sample[slot] = sim.soc.next_sample;
        self.next_control[slot] = j.job.next_control;
        self.timeout_s[slot] = sim.timeout_s;
        self.cpu_items[slot] = j.job.cpu_items;
        self.gpu_items[slot] = j.job.gpu_items;
        self.inc_cpu[slot] = cache.inc_cpu;
        self.inc_gpu[slot] = cache.inc_gpu;
        self.cpu_has_mapping[slot] = !j.job.mapping.is_empty();
    }

    /// Clears slot `slot` back to the vacant state.
    fn clear(&mut self, slot: usize) {
        self.live[slot] = false;
        self.flags_dirty[slot] = false;
    }
}

impl LaneCache {
    fn for_sim(sim: &CellSim) -> Self {
        let j = &sim.active[0];
        let mut cache = LaneCache {
            model: NodePowerModel::single_app(
                &sim.soc.board,
                j.job.mapping,
                sim.soc.effective,
                !j.job.cpu_done(),
                !j.job.gpu_done(),
                j.job.chars.activity,
            ),
            inc_cpu: 0.0,
            inc_gpu: 0.0,
            effective: sim.soc.effective,
            cpu_busy: !j.job.cpu_done(),
            gpu_busy: !j.job.gpu_done(),
            sample_mapping: combined_mapping(&sim.active, sim.cluster_cores),
            sample_activity: j.job.chars.activity,
            hotspot: HotspotSplit::default(),
        };
        cache.refresh_rates(sim);
        cache.refresh_hotspot(sim);
        cache
    }

    /// Re-derives the per-step progress increments — the exact
    /// expressions of the scalar progress phase with the singleton
    /// specialisation (`total_pressure` is the app's own sensitivity,
    /// one GPU sharer).
    fn refresh_rates(&mut self, sim: &CellSim) {
        let j = &sim.active[0];
        let total_pressure = j.job.chars.mem_sensitivity;
        let s = bandwidth_slowdown(
            j.job.chars.mem_sensitivity,
            total_pressure - j.job.chars.mem_sensitivity,
        );
        let gpu_sharers = 1.0_f64;
        self.inc_cpu = cpu_rate(
            &j.job.chars,
            j.job.mapping,
            sim.soc.effective.big,
            sim.soc.effective.little,
        ) * sim.soc.dt
            / s;
        self.inc_gpu =
            gpu_rate(&j.job.chars, sim.soc.effective.gpu) * sim.soc.dt / (s * gpu_sharers);
    }

    fn rebuild_model(&mut self, sim: &CellSim) {
        let j = &sim.active[0];
        self.model = NodePowerModel::single_app(
            &sim.soc.board,
            j.job.mapping,
            sim.soc.effective,
            self.cpu_busy,
            self.gpu_busy,
            j.job.chars.activity,
        );
        self.refresh_hotspot(sim);
    }

    /// Re-folds the sample-time hotspot split — depends on exactly the
    /// inputs the model rebuild tracks (effective frequencies and the
    /// CPU busy flag; mapping and activity are residency-constant).
    fn refresh_hotspot(&mut self, sim: &CellSim) {
        self.hotspot = HotspotSplit::fold(
            &sim.soc.board,
            self.sample_mapping,
            sim.soc.effective,
            self.cpu_busy,
            self.sample_activity,
        );
    }

    /// Refreshes everything derived from the effective frequencies
    /// after an actuation changed them.
    fn refresh_operating_point(&mut self, sim: &CellSim) {
        self.effective = sim.soc.effective;
        self.refresh_rates(sim);
        self.rebuild_model(sim);
    }
}

/// One cell resident in the pool: its runner, its suspended simulation,
/// its cache, and the bookkeeping for the occupancy metric.
struct PoolLane {
    runner: ScenarioRunner,
    sim: CellSim,
    cache: LaneCache,
    /// Caller-supplied identifier (the sweep uses the cell index).
    token: usize,
    /// `sim.soc.scratch.obs.steps` at admission — the denominator baseline
    /// for the lane-occupancy metric.
    steps_at_entry: u64,
}

/// A cell leaving the pool, back in the caller's hands.
pub(crate) struct RetiredLane {
    /// The cell's runner, unchanged.
    pub(crate) runner: ScenarioRunner,
    /// The suspended simulation, its board's thermal state synced back
    /// from the batch lane. Positioned at a boundary the scalar
    /// [`ScenarioRunner::step_cell`] loop resumes exactly.
    pub(crate) sim: CellSim,
    /// The identifier the caller admitted the cell with.
    pub(crate) token: usize,
    /// `steps` at admission, for the occupancy metric.
    pub(crate) steps_at_entry: u64,
}

/// A K-lane lockstep pool over one shared [`ThermalBatch`].
///
/// The caller admits eligible cells ([`LockstepPool::admit`]), calls
/// [`LockstepPool::step_round`] while any lane is occupied, and
/// finishes every [`RetiredLane`] through the scalar
/// `step_cell`/`finish_cell` path (a completed lane terminates on the
/// first `step_cell` call, so both exit kinds share one code path).
pub(crate) struct LockstepPool {
    batch: ThermalBatch,
    scratch: BatchScratch,
    /// Every resident lane's frozen power coefficients in node-major
    /// SoA planes — the vectorized twin of the per-lane
    /// [`NodePowerModel`]s cached in the lanes, kept in sync at
    /// admission and at every operating-point refresh.
    power: BatchPowerModel,
    /// Per-lane total draw from the last power sweep (node-order sums,
    /// the scalar loop's `power.iter().sum()` bits).
    totals: Vec<f64>,
    /// The per-step-mutable mirror of each lane's state in SoA planes —
    /// the only per-lane memory the round's pre/post passes touch.
    /// Parallel to `lanes`; `hot.live[i]` tracks `lanes[i].is_some()`.
    hot: HotPlanes,
    /// Sub-steps per round under the pinned `dt` — refreshed after
    /// every batched thermal step (it is a pure function of `dt` and
    /// the topology, so any round's value serves the whole residency)
    /// and consumed by the derived sub-step accounting at flush.
    subs_per_round: u64,
    lanes: Vec<Option<PoolLane>>,
    /// Reused staging for the round's batched sensor sweep: every lane
    /// with a due sample queues its raw inputs here and all banks are
    /// read in one channel-major pass.
    sweep: SensorSweep,
    /// Slots queued into `sweep` this round, ascending; row `i` of the
    /// sweep belongs to `swept[i]`.
    swept: Vec<usize>,
    /// The integration step every resident lane shares (lockstep needs
    /// one `dt`); pinned by the first admission.
    dt: Option<f64>,
    /// Pool-level step observability: the batched power/thermal
    /// wall-time split, timed one round in
    /// [`TIMING_STRIDE`](teem_soc::TIMING_STRIDE) (the per-cell kernels
    /// keep their own step and sub-step counts). Zero unless
    /// constructed instrumented.
    pub(crate) obs: StepObs,
    /// Lockstep rounds executed (each is one batched thermal step).
    pub(crate) rounds: u64,
    /// Lane-steps executed (live lanes summed over rounds).
    pub(crate) lane_steps: u64,
    /// Lane-slots offered (K × rounds) — the utilization denominator.
    pub(crate) lane_slots: u64,
}

impl LockstepPool {
    /// A pool of `k` lanes over `reference`'s thermal topology.
    /// Admission re-checks each cell's board against the batch, so a
    /// mismatching cell degrades to the scalar path instead of
    /// corrupting the lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub(crate) fn new(k: usize, reference: &ThermalModel, instrument: bool) -> Self {
        assert!(k >= 1, "a lockstep pool needs at least one lane");
        // The round's event/flip sets travel as u64 bitmasks; 64 lanes
        // is already far past the throughput sweet spot (and the sweep
        // API enforces the same bound).
        assert!(k <= 64, "a lockstep pool caps at 64 lanes");
        let batch = ThermalBatch::like(reference, k);
        let scratch = BatchScratch::for_batch(&batch);
        let power = BatchPowerModel::for_batch(&batch);
        let totals = vec![0.0; batch.stride()];
        let obs = StepObs {
            enabled: instrument,
            ..StepObs::default()
        };
        LockstepPool {
            batch,
            scratch,
            power,
            totals,
            hot: HotPlanes::new(k),
            subs_per_round: 0,
            lanes: (0..k).map(|_| None).collect(),
            sweep: SensorSweep::default(),
            swept: Vec::with_capacity(k),
            dt: None,
            obs,
            rounds: 0,
            lane_steps: 0,
            lane_slots: 0,
        }
    }

    /// `true` when at least one lane is free.
    pub(crate) fn has_free_lane(&self) -> bool {
        self.lanes.iter().any(Option::is_none)
    }

    /// `true` when no lane is occupied.
    pub(crate) fn is_empty(&self) -> bool {
        self.lanes.iter().all(Option::is_none)
    }

    /// `true` when `model` has the batch's exact topology — the same
    /// check admission applies. Exposed so the sweep's worker loop can
    /// rebuild a drained pool at a board-axis boundary instead of
    /// degrading every cell of the new board to scalar.
    pub(crate) fn matches_topology(&self, model: &ThermalModel) -> bool {
        self.batch.matches(model)
    }

    /// Admits a cell into a free lane. Returns the cell unchanged when
    /// it is not [`eligible_for_lockstep`], its thermal topology or
    /// `dt` does not match the pool, or no lane is free — the caller
    /// runs it scalar instead.
    // The Err variant intentionally hands the (large) cell back by
    // value — the caller owns it either way; no heap indirection needed.
    #[allow(clippy::result_large_err)]
    pub(crate) fn admit(
        &mut self,
        runner: ScenarioRunner,
        sim: CellSim,
        token: usize,
    ) -> Result<(), (ScenarioRunner, CellSim, usize)> {
        let dt_ok = self
            .dt
            .is_none_or(|dt| dt.to_bits() == sim.soc.dt.to_bits());
        let slot = self.lanes.iter().position(Option::is_none);
        let Some(slot) = slot else {
            return Err((runner, sim, token));
        };
        if !eligible_for_lockstep(&sim) || !self.batch.matches(&sim.soc.board.thermal) || !dt_ok {
            return Err((runner, sim, token));
        }
        self.dt = Some(sim.soc.dt);
        self.batch.load_lane(slot, &sim.soc.board.thermal);
        let cache = LaneCache::for_sim(&sim);
        self.power.set_lane(slot, &cache.model);
        self.hot.reload(slot, &sim, &cache);
        self.hot.cpu_busy[slot] = cache.cpu_busy;
        self.hot.gpu_busy[slot] = cache.gpu_busy;
        // Conservative: force one control/actuate pass on the first
        // batched step, matching the scalar loop's unconditional
        // per-step actuation without having to prove anything about
        // the admission instant.
        self.hot.flags_dirty[slot] = true;
        self.hot.live[slot] = true;
        let steps_at_entry = sim.soc.scratch.obs.steps;
        self.lanes[slot] = Some(PoolLane {
            runner,
            sim,
            cache,
            token,
            steps_at_entry,
        });
        Ok(())
    }

    /// Evicts every resident lane *without* completing its round —
    /// the panic-recovery path. The partially-stepped simulations are
    /// dropped (mid-round state is not a valid scalar boundary); only
    /// the tokens come back, so the caller can re-run those cells from
    /// scratch.
    pub(crate) fn evict_all(&mut self) -> Vec<usize> {
        self.dt = None;
        let tokens: Vec<usize> = self
            .lanes
            .iter_mut()
            .filter_map(|slot| slot.take().map(|lane| lane.token))
            .collect();
        for slot in 0..self.lanes.len() {
            self.power.clear_lane(slot);
            self.hot.clear(slot);
        }
        tokens
    }

    /// Retires slot `slot`'s lane onto `retired`: syncs the batch lane's
    /// thermal state back to the cell's own board, zeroes its power
    /// column and frees the slot. The caller has flushed the hot
    /// planes.
    fn retire(&mut self, slot: usize, retired: &mut Vec<RetiredLane>) {
        let mut lane = self.lanes[slot].take().expect("lane occupied");
        self.batch.store_lane(slot, &mut lane.sim.soc.board.thermal);
        self.power.clear_lane(slot);
        self.hot.clear(slot);
        let kp = self.batch.stride();
        for i in 0..self.batch.nodes() {
            self.scratch.power[i * kp + slot] = 0.0;
        }
        if self.is_empty() {
            self.dt = None;
        }
        retired.push(RetiredLane {
            runner: lane.runner,
            sim: lane.sim,
            token: lane.token,
            steps_at_entry: lane.steps_at_entry,
        });
    }

    /// Executes one lockstep round: every live lane advances exactly
    /// one engine step (the step the scalar loop would have taken),
    /// sharing a single batched thermal integration. Lanes that leave
    /// the fast regime — trip-point proximity at a sample, timeout, or
    /// completion — are pushed onto `retired` and their slots freed for
    /// the caller to refill.
    pub(crate) fn step_round(&mut self, retired: &mut Vec<RetiredLane>) {
        let k = self.lanes.len();
        self.swept.clear();
        self.sweep.clear();

        // --- Pre-pass vector scan: one branch-free sweep over the hot
        //     planes computes this round's event mask, runs the scalar
        //     progress phase for every fast-path lane (masked,
        //     branchless), and flags busy-flag flips. Scalar phase
        //     order within the step is preserved per lane; lanes are
        //     independent, so the lane processing order cannot affect
        //     any per-cell result. The common case (no sample due, no
        //     control due) is handled entirely here and never touches
        //     a cell's simulation. The event and flip sets come back as
        //     bitmasks, so the rare-case dispatch below walks set bits
        //     instead of re-scanning all K slots. ---
        let mut need_mask: u64 = 0;
        let mut flip_mask: u64 = 0;
        {
            let p = &mut self.hot;
            let t = &p.t[..k];
            let timeout_s = &p.timeout_s[..k];
            let next_sample = &p.next_sample[..k];
            let next_control = &p.next_control[..k];
            let flags_dirty = &p.flags_dirty[..k];
            let live = &p.live[..k];
            let cpu_items = &p.cpu_items[..k];
            let gpu_items = &p.gpu_items[..k];
            let inc_cpu = &p.inc_cpu[..k];
            let inc_gpu = &p.inc_gpu[..k];
            let cpu_has_mapping = &p.cpu_has_mapping[..k];
            let cpu_busy = &p.cpu_busy[..k];
            let gpu_busy = &p.gpu_busy[..k];
            let cpu_done = &mut p.cpu_done[..k];
            let gpu_done = &mut p.gpu_done[..k];
            // The `!(a >= b)` forms mirror the scalar loop's
            // `!j.job.cpu_done()` exactly, NaN edge included — do not
            // "simplify" to `<`. A masked-off slot adds +0.0, the
            // bit-identity on every value the done counters can hold
            // (they start at +0.0 and only ever grow).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            for i in 0..k {
                let n = t[i] >= timeout_s[i]
                    || deadline_due(t[i], next_sample[i])
                    || deadline_due(t[i], next_control[i])
                    || flags_dirty[i];
                need_mask |= u64::from(n && live[i]) << i;
                let fast = live[i] && !n;
                let run_cpu = fast && cpu_has_mapping[i] && !(cpu_done[i] >= cpu_items[i]);
                cpu_done[i] += if run_cpu { inc_cpu[i] } else { 0.0 };
                let run_gpu = fast && !(gpu_done[i] >= gpu_items[i]);
                gpu_done[i] += if run_gpu { inc_gpu[i] } else { 0.0 };
                let busy_c = !(cpu_done[i] >= cpu_items[i]);
                let busy_g = !(gpu_done[i] >= gpu_items[i]);
                let flip = fast && (busy_c != cpu_busy[i] || busy_g != gpu_busy[i]);
                flip_mask |= u64::from(flip) << i;
            }
        }

        // --- Fast-path busy flips (a handful of steps per job):
        //     refresh the flipped lane's power model with the new share
        //     flags, exactly where the per-lane loop used to. ---
        while flip_mask != 0 {
            let slot = flip_mask.trailing_zeros() as usize;
            flip_mask &= flip_mask - 1;
            let lane = self.lanes[slot].as_mut().expect("live lane occupied");
            apply_flip(
                &mut self.hot,
                lane,
                &mut self.power,
                slot,
                self.subs_per_round,
            );
        }

        // --- Event lanes (a due sample, a due control tick, a timeout,
        //     or a deferred actuation): the rare per-lane slow paths,
        //     visited in ascending slot order (`swept` relies on it). ---
        while need_mask != 0 {
            let slot = need_mask.trailing_zeros() as usize;
            need_mask &= need_mask - 1;
            // A due sample on a non-timed-out lane stays hot: the raw
            // inputs — lane temperatures straight from the SoA batch
            // (the bits `store_lane` would have copied) and the scalar
            // sensing phase's hotspot powers — are queued for one
            // batched sensor sweep; the rest of the step runs in the
            // post-sweep pass. This also covers the common coincident
            // sample+control tick, so the board round-trip is elided on
            // every sampling step, not just sample-only ones.
            if self.hot.t[slot] < self.hot.timeout_s[slot]
                && deadline_due(self.hot.t[slot], self.hot.next_sample[slot])
            {
                let lane = self.lanes[slot].as_ref().expect("live lane occupied");
                let nodes = lane.sim.soc.board.nodes;
                let big_c = self.batch.lane_temp(nodes.big, slot);
                let gpu_c = self.batch.lane_temp(nodes.gpu, slot);
                // Mirrors the scalar `any(|j| !j.job.cpu_done())`.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let cpu_busy = !(self.hot.cpu_done[slot] >= self.hot.cpu_items[slot]);
                // The folded split is rebuilt at every operating-point
                // or busy-flag change, so between flips it holds the
                // event-time inputs; the guard covers the half-step
                // where progress flipped `cpu_busy` after this round's
                // sample queued but `apply_flip` has not refolded yet.
                debug_assert!(lane.sim.soc.effective == lane.cache.effective);
                let core_power = if cpu_busy == lane.cache.cpu_busy {
                    lane.cache.hotspot.eval(big_c)
                } else {
                    big_core_hotspot_powers(
                        &lane.sim.soc.board,
                        big_c,
                        lane.cache.sample_mapping,
                        lane.sim.soc.effective,
                        cpu_busy,
                        lane.cache.sample_activity,
                    )
                };
                self.sweep.push_lane(big_c, core_power, gpu_c);
                self.swept.push(slot);
                continue;
            }
            let subs = self.subs_per_round;
            let lane = self.lanes[slot].as_mut().expect("live lane occupied");
            // Timeout first, as the scalar loop checks it (before
            // sampling); the scalar step_cell re-detects it and
            // terminates the cell.
            if self.hot.t[slot] >= self.hot.timeout_s[slot] {
                self.hot.flush(slot, &mut lane.sim, subs);
                self.retire(slot, retired);
                continue;
            }
            control_then_progress(&mut self.hot, lane, &mut self.power, slot, subs);
        }

        // --- Batched sensor sweep: every due sample's bank read in one
        //     channel-major pass. Each lane owns its bank, so its noise
        //     stream advances in the exact scattered-read draw order —
        //     bit-identical readings per lane. ---
        if !self.swept.is_empty() {
            // Pool bookkeeping (collecting each swept lane's bank
            // borrow) stays outside the sampling bracket: the lap
            // attributes the sensor reads themselves. `swept` is built
            // in slot order, so peeling sorted disjoint `&mut`s off the
            // lane array visits O(swept) lanes, not all K.
            let mut banks: Vec<&mut SensorBank> = Vec::with_capacity(self.swept.len());
            let mut rest: &mut [Option<PoolLane>] = &mut self.lanes;
            let mut base = 0;
            for &slot in &self.swept {
                let (lane, tail) = rest[slot - base..]
                    .split_first_mut()
                    .expect("swept slot in range");
                banks.push(
                    &mut lane
                        .as_mut()
                        .expect("swept lane occupied")
                        .sim
                        .soc
                        .board
                        .sensors,
                );
                rest = tail;
                base = slot + 1;
            }
            let obs_t0 = self.obs.clock_at(self.rounds);
            read_lanes_with_hotspots(&mut banks, &mut self.sweep);
            self.obs.lap_sample(obs_t0);
        }

        // --- Post-sweep tail for sampled lanes, in the scalar step's
        //     order: record the row, trip check, control/actuate when
        //     they can matter, progress. Only a trip or a control tick
        //     touches the full simulation state. ---
        for row in 0..self.swept.len() {
            let slot = self.swept[row];
            let subs = self.subs_per_round;
            let lane = self.lanes[slot].as_mut().expect("swept lane occupied");
            let sim = &mut lane.sim;
            // The sensing phase's observable effects on the hot clock:
            // accept the reading (advancing the sample grid, mirrored
            // back so the event mask keeps tracking it), record the row.
            // The flush also brings the step counter the row's
            // trace-timing decision reads up to date.
            self.hot.flush(slot, sim, subs);
            sim.soc.accept_sample(self.sweep.readings[row]);
            sim.record_sample();
            self.hot.next_sample[slot] = sim.soc.next_sample;
            // At or above trip: hand off before the control phase —
            // the scalar loop resumes with control, then trips in
            // actuation, exactly as it would have.
            if sim.soc.readings.max_c() >= sim.soc.zone.trip_c {
                self.hot.flush(slot, sim, subs);
                self.retire(slot, retired);
                continue;
            }
            control_then_progress(&mut self.hot, lane, &mut self.power, slot, subs);
        }

        let live = self.hot.live[..k].iter().filter(|&&b| b).count() as u64;
        if live == 0 {
            return;
        }

        // --- Power: one vectorized node-major sweep over every lane's
        //     frozen coefficients (bit-identical per lane to the
        //     strided scalar evaluation; cleared lanes read as zero).
        //     The per-lane energy accounting rides the post-thermal
        //     pass — it depends only on the totals computed here. ---
        let obs_t0 = self.obs.clock_at(self.rounds);
        self.power
            .eval_into(&self.batch, &mut self.scratch.power, &mut self.totals);
        self.obs.lap_power(obs_t0);

        // --- Thermal: one batched integration for every lane. The
        //     sub-step count is a function of (dt, max_stable_dt) only,
        //     so it is identical across lanes and to the scalar loop. ---
        let dt = self.dt.expect("dt pinned while lanes are resident");
        let obs_t0 = self.obs.clock_at(self.rounds);
        let substeps = self.batch.step(dt, &self.scratch.power);
        self.obs.lap_thermal(obs_t0);

        // The sub-step count is a pure function of the pinned `dt` (and
        // the topology), so any round's value serves every resident
        // lane's derived sub-step accounting.
        self.subs_per_round = u64::from(substeps);

        // --- Post-thermal vector pass: the scalar power phase's energy
        //     bookkeeping (using this round's totals) and the clock
        //     advance for every slot, branch-free. A vacant slot's
        //     total reads zero and its planes are fully rewritten at
        //     the next admission, so updating it is harmless. ---
        {
            let p = &mut self.hot;
            let totals = &self.totals[..k];
            let energy_j = &mut p.energy_j[..k];
            let busy_s = &mut p.busy_s[..k];
            let job_energy_j = &mut p.job_energy_j[..k];
            let last_total_w = &mut p.last_total_w[..k];
            let step_f = &mut p.step_f[..k];
            let t = &mut p.t[..k];
            for i in 0..k {
                energy_j[i] += totals[i] * dt;
                busy_s[i] += dt;
                job_energy_j[i] += totals[i] * dt;
                last_total_w[i] = totals[i];
                step_f[i] += 1.0;
                t[i] = step_f[i] * dt;
            }
        }

        // --- Completions (the scalar loop's tail, in its order): only
        //     a completing lane touches its simulation again. ---
        for slot in 0..k {
            if !self.hot.live[slot] {
                continue;
            }
            if self.hot.cpu_done[slot] >= self.hot.cpu_items[slot]
                && self.hot.gpu_done[slot] >= self.hot.gpu_items[slot]
            {
                let lane = self.lanes[slot].as_mut().expect("lane occupied");
                self.hot.flush(slot, &mut lane.sim, self.subs_per_round);
                lane.sim.phase_completions();
                self.retire(slot, retired);
            }
        }

        self.rounds += 1;
        self.lane_steps += live;
        self.lane_slots += k as u64;
    }
}

/// The scalar progress phase specialised to one app, entirely on the
/// hot planes (bit-identical expressions) — the slow-path twin of the
/// pre-pass vector scan, for event lanes that progress after their
/// control pass. Returns `true` when a busy flag flipped — the caller
/// must then rebuild the lane's power model (the scalar power phase
/// sees post-progress flags in the same step).
// The `!(a >= b)` forms mirror the scalar loop's `!j.job.cpu_done()`
// exactly, NaN edge included — do not "simplify" to `<`.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn progress_at(p: &mut HotPlanes, slot: usize) -> bool {
    if !(p.cpu_done[slot] >= p.cpu_items[slot]) && p.cpu_has_mapping[slot] {
        p.cpu_done[slot] += p.inc_cpu[slot];
    }
    if !(p.gpu_done[slot] >= p.gpu_items[slot]) {
        p.gpu_done[slot] += p.inc_gpu[slot];
    }
    let cpu_busy = !(p.cpu_done[slot] >= p.cpu_items[slot]);
    let gpu_busy = !(p.gpu_done[slot] >= p.gpu_items[slot]);
    cpu_busy != p.cpu_busy[slot] || gpu_busy != p.gpu_busy[slot]
}

/// Applies a busy-flag flip: refreshes the lane's power model with the
/// new share flags now, and marks actuation dirty so the next step runs
/// the control/actuate pass (the scalar loop ran actuation *before*
/// progress, so frequencies can first react one step later).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // mirrors `!j.job.cpu_done()`
fn apply_flip(
    p: &mut HotPlanes,
    lane: &mut PoolLane,
    power: &mut BatchPowerModel,
    slot: usize,
    subs: u64,
) {
    let cpu_busy = !(p.cpu_done[slot] >= p.cpu_items[slot]);
    let gpu_busy = !(p.gpu_done[slot] >= p.gpu_items[slot]);
    p.cpu_busy[slot] = cpu_busy;
    p.gpu_busy[slot] = gpu_busy;
    lane.cache.cpu_busy = cpu_busy;
    lane.cache.gpu_busy = gpu_busy;
    let sim = &mut lane.sim;
    p.flush(slot, sim, subs);
    lane.cache.rebuild_model(sim);
    power.set_lane(slot, &lane.cache.model);
    p.flags_dirty[slot] = true;
}

/// One lane's control, actuation and progress phases for a step the
/// scalar loop would take: control and actuation through the shared
/// [`CellSim`] phase methods (bracketed by a hot-mirror flush) only when
/// they can change anything, then progress on the mirrored exact
/// expressions.
fn control_then_progress(
    p: &mut HotPlanes,
    lane: &mut PoolLane,
    power: &mut BatchPowerModel,
    slot: usize,
    subs: u64,
) {
    // A due control tick or a busy-flag flip last step; otherwise the
    // `arbitrate_freqs` inputs are unchanged and the zone poll below
    // trip is a no-op — the scalar loop's every-step actuation provably
    // recomputes the same `effective`.
    if deadline_due(p.t[slot], p.next_control[slot]) || p.flags_dirty[slot] {
        let sim = &mut lane.sim;
        p.flush(slot, sim, subs);
        let obs_t0 = sim.soc.scratch.obs.clock();
        sim.phase_control();
        sim.phase_actuate();
        sim.soc.scratch.obs.lap_control(obs_t0);
        if sim.soc.effective != lane.cache.effective {
            lane.cache.refresh_operating_point(sim);
            power.set_lane(slot, &lane.cache.model);
            p.inc_cpu[slot] = lane.cache.inc_cpu;
            p.inc_gpu[slot] = lane.cache.inc_gpu;
        }
        // Control and actuation mutate only `next_control` and (via the
        // refresh above) the `effective`-derived rates: every other
        // mirrored field was just flushed and left untouched, so the
        // full reload round-trip is elided.
        p.next_control[slot] = sim.active[0].job.next_control;
        p.flags_dirty[slot] = false;
    }
    if progress_at(p, slot) {
        apply_flip(p, lane, power, slot, subs);
    }
}

/// Runs one cell entirely through the pool: scalar warm-up until
/// eligible, lockstep rounds until the cell retires, scalar finish —
/// the single-cell harness the parity tests drive. The runner is
/// consumed because cells move through the pool by value. Panics are
/// not caught.
#[cfg(test)]
pub(crate) fn run_cell_lockstep(
    mut runner: ScenarioRunner,
    scenario: &crate::scenario::Scenario,
    k: usize,
) -> Result<crate::exec::ScenarioResult, teem_linreg::LinregError> {
    let mut sim = runner.prepare_cell(scenario)?;
    loop {
        if eligible_for_lockstep(&sim) {
            break;
        }
        if !runner.step_cell(&mut sim)? {
            return Ok(runner.finish_cell(sim));
        }
    }
    // Built from the warmed cell's own board, so the harness drives
    // whatever topology the runner was configured with (the many-node
    // parity tests lean on this).
    let mut pool = LockstepPool::new(k, &sim.soc.board.thermal, false);
    assert!(
        pool.admit(runner, sim, 0).is_ok(),
        "eligible cell must admit"
    );
    let mut retired = Vec::new();
    while retired.is_empty() {
        pool.step_round(&mut retired);
    }
    let r = retired.pop().expect("one lane retires");
    let mut runner = r.runner;
    let mut sim = r.sim;
    while runner.step_cell(&mut sim)? {}
    Ok(runner.finish_cell(sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use teem_core::runner::Approach;
    use teem_workload::App;

    #[test]
    fn single_lane_lockstep_matches_scalar_bitwise() {
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut scalar = ScenarioRunner::new(Approach::Teem);
        let a = scalar.run(&sc).expect("scalar runs");
        let batched = ScenarioRunner::new(Approach::Teem);
        let b = run_cell_lockstep(batched, &sc, 1).expect("lockstep runs");
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.trace.digest(), b.trace.digest(), "bit-identical trace");
        assert_eq!(a.kernel.steps, b.kernel.steps);
        assert!(b.kernel.batched_steps > 0, "fast path engaged");
        assert_eq!(a.kernel.batched_steps, 0, "scalar path never batches");
    }

    #[test]
    fn ineligible_cell_is_returned_at_admission() {
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sim = runner.prepare_cell(&sc).expect("prepares");
        // Fresh cell: nothing active yet, so not eligible.
        assert!(!eligible_for_lockstep(&sim));
        let reference = teem_soc::Board::odroid_xu4_ideal();
        let mut pool = LockstepPool::new(2, &reference.thermal, false);
        let r = pool.admit(runner, sim, 7);
        let (_, _, token) = r.expect_err("ineligible cell comes back");
        assert_eq!(token, 7);
        assert!(pool.is_empty());
    }
}
