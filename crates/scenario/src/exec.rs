//! The scenario executor: an event-driven layer over the same
//! time-stepped physics as [`teem_soc::Simulation`], executing a
//! [`Scenario`]'s timeline under one management approach.
//!
//! Differences from the single-run engine, all driven by the timeline:
//!
//! * **Multi-app co-running** — arrivals join a FIFO queue and a
//!   [`MappingArbiter`] decides how many execute concurrently and on
//!   which resources ([`ContentionPolicy`]: serial one-at-a-time as the
//!   paper measures, device-exclusive co-scheduling, or fully shared
//!   clusters). Co-running apps performance-couple through the
//!   shared-memory-bandwidth slowdown model
//!   ([`teem_workload::bandwidth_slowdown`]) and a time-shared GPU;
//!   queueing delay and contention delay are reported separately.
//! * **Idle-gap stepping** — between a completion and the next arrival
//!   the board idles at minimum frequencies and *cools*; the thermal
//!   state carries across runs instead of being re-warm-started. A
//!   [`teem_soc::IdlePolicy`] can power-collapse the clusters after an
//!   idle timeout.
//! * **Runtime environment changes** — ambient temperature, default
//!   threshold and management approach can change mid-scenario.
//!
//! The board-level half of every step — sensing, zone-capped
//! actuation, power, energy, the thermal step and the index-derived
//! clock — runs in the same [`teem_soc::SocStepper`] a single run
//! drives; this executor adds the timeline, the arbiter, per-app
//! control and progress, and the trace. The step loop reuses the
//! stepper's [`teem_soc::StepScratch`] (plus pre-sized share/claim
//! buffers) so the steady-state path allocates nothing.
//!
//! The loop body is factored as [`CellSim`] state plus
//! [`ScenarioRunner::prepare_cell`] / [`ScenarioRunner::step_cell`] /
//! [`ScenarioRunner::finish_cell`], so the batched lockstep path
//! (`crate::lockstep`) can suspend a cell at a step boundary, run its
//! phase methods out of band, and hand the cell back to the scalar loop
//! on divergence — all through the *same* code the scalar path runs.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::arbiter::{Admission, ContentionPolicy, MappingArbiter, ResourceClaim};
use crate::event::{ScenarioEvent, TimedEvent};
use crate::scenario::{Scenario, DEFAULT_THRESHOLD_C};
use teem_core::offline::profile_app;
use teem_core::runner::{manager_for, plan_launch, Approach, LaunchPlan};
use teem_core::{AppProfile, ProfileStore, TeemTunables, UserRequirement};
use teem_soc::perf::{cpu_rate, gpu_rate};
use teem_soc::sensors::BIG_CORE_OFFSETS_C;
use teem_soc::{
    clamp_freqs, co_run_dynamic_weights, fast_forward_gap, Board, BoardSpec, ClusterFreqs,
    CoRunShare, CpuMapping, GapAdvance, GapPower, JobState, SensorBank, SensorReadings, SimConfig,
    SocStepper, StepObs, ThermalZone, TimeAdvance,
};
use teem_telemetry::{
    ChannelId, LogHistogram, RunSummary, SampleStage, ScenarioAppRun, ScenarioSummary, Trace,
};
use teem_workload::{bandwidth_slowdown, App, Partition};

/// Everything one scenario execution produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario-level metrics plus the per-app runs.
    pub summary: ScenarioSummary,
    /// Recorded channels: the single-run set plus `ambient` and
    /// `queue.depth`.
    pub trace: Trace,
    /// `true` if the scenario hit the executor timeout before the
    /// timeline completed.
    pub timed_out: bool,
    /// Step-loop observability: step/sub-step counts (always collected)
    /// and the sampled wall-time split estimate (zero unless the runner
    /// was built [`ScenarioRunner::with_step_timing`]). Never feeds the
    /// summary, trace or digests.
    pub kernel: StepObs,
    /// Lengths (milliseconds) of the idle gaps the event-driven mode
    /// fast-forwarded — empty under [`TimeAdvance::FixedDt`]. Like
    /// [`ScenarioResult::kernel`], pure observability: never feeds the
    /// summary, trace or digests.
    pub gap_len_ms: LogHistogram,
}

/// Executes scenarios under one management approach.
///
/// Profiles are computed on demand (once per app, on the ideal board —
/// the same offline pipeline as [`teem_core::runner::run`]) and cached.
/// Pre-populated stores are held behind an [`Arc`] so a batch fan-out
/// shares one store across every worker by reference
/// ([`ScenarioRunner::with_shared_profiles`]) instead of cloning it per
/// matrix cell; on-demand profiles for apps missing from the shared
/// store land in a runner-local overflow cache.
#[derive(Debug)]
pub struct ScenarioRunner {
    approach: Approach,
    config: SimConfig,
    arbiter: MappingArbiter,
    tunables: TeemTunables,
    shared_profiles: Arc<ProfileStore>,
    local_profiles: ProfileStore,
    step_timing: bool,
    board: BoardSpec,
    sample_staging: bool,
}

impl ScenarioRunner {
    /// The default executor configuration: single-run integration and
    /// sampling cadence, with the timeout widened for multi-app
    /// timelines. Start from this (not `SimConfig::default()`, whose
    /// 1 000 s single-run timeout truncates long timelines) when
    /// customising via [`ScenarioRunner::with_config`].
    pub fn default_config() -> SimConfig {
        SimConfig {
            timeout_s: 10_000.0,
            ..SimConfig::default()
        }
    }
}

impl ScenarioRunner {
    /// A runner for `approach` with an empty profile cache.
    pub fn new(approach: Approach) -> Self {
        ScenarioRunner::with_shared_profiles(approach, Arc::new(ProfileStore::new()))
    }

    /// A runner with a pre-built profile store (takes ownership; see
    /// [`ScenarioRunner::with_shared_profiles`] to share one store
    /// across runners without cloning it).
    pub fn with_profiles(approach: Approach, profiles: ProfileStore) -> Self {
        ScenarioRunner::with_shared_profiles(approach, Arc::new(profiles))
    }

    /// A runner borrowing a shared, read-only profile store — the batch
    /// runner hands every worker the same [`Arc`] so a thousand-cell
    /// matrix holds one store, not a thousand copies.
    pub fn with_shared_profiles(approach: Approach, profiles: Arc<ProfileStore>) -> Self {
        ScenarioRunner {
            approach,
            config: ScenarioRunner::default_config(),
            arbiter: MappingArbiter::new(ContentionPolicy::Serial),
            tunables: TeemTunables::paper(),
            shared_profiles: profiles,
            local_profiles: ProfileStore::new(),
            step_timing: false,
            board: BoardSpec::OdroidXu4,
            sample_staging: true,
        }
    }

    /// Selects which board the scenario runs on (the sweep engine's
    /// board axis). The default [`BoardSpec::OdroidXu4`] is the paper's
    /// 4-lump network; [`BoardSpec::ManyNode`] boards carry the same
    /// active silicon in a 16–64-node thermal network.
    pub fn with_board(mut self, board: BoardSpec) -> Self {
        self.board = board;
        self
    }

    /// The board spec this runner builds cells on.
    pub fn board_spec(&self) -> BoardSpec {
        self.board
    }

    /// Enables (default) or disables the sample-major staging buffer
    /// for per-sample trace recording. Staged and unstaged runs are
    /// bit-identical (pinned by the golden-digest tests); the unstaged
    /// path exists as the measured baseline for the staging win and is
    /// never the right choice for production sweeps. Runner state, not
    /// [`SimConfig`], so it can never perturb sweep fingerprints.
    pub fn with_sample_staging(mut self, enabled: bool) -> Self {
        self.sample_staging = enabled;
        self
    }

    /// Enables sampled wall-clock timing of the step loop's phases
    /// (estimates reported in [`ScenarioResult::kernel`]; see
    /// [`StepObs`](teem_soc::StepObs)). Off by default: the
    /// uninstrumented loop never reads the clock. This knob is runner state, not
    /// [`SimConfig`], so it can never perturb sweep fingerprints.
    pub fn with_step_timing(mut self, enabled: bool) -> Self {
        self.step_timing = enabled;
        self
    }

    /// Replaces the executor configuration wholesale — including the
    /// timeout. Derive from [`ScenarioRunner::default_config`] to keep
    /// the scenario-scale 10 000 s timeout while tuning other fields.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how co-arriving applications share the board. The default
    /// [`ContentionPolicy::Serial`] reproduces the paper's
    /// one-app-at-a-time usage model bit-for-bit.
    pub fn with_contention(mut self, policy: ContentionPolicy) -> Self {
        self.arbiter = MappingArbiter::new(policy);
        self
    }

    /// Sets TEEM's run-time knobs (δ step, floor, threshold override)
    /// for every launch this runner plans — the sweep engine's knob
    /// axis. The default [`TeemTunables::paper`] is bit-identical to the
    /// pre-knob executor; the other approaches ignore the tunables.
    pub fn with_tunables(mut self, tunables: TeemTunables) -> Self {
        self.tunables = tunables;
        self
    }

    /// The TEEM knob set this runner plans launches with.
    pub fn tunables(&self) -> TeemTunables {
        self.tunables
    }

    /// The approach this runner manages with.
    pub fn approach(&self) -> Approach {
        self.approach
    }

    /// The contention policy this runner co-schedules under.
    pub fn contention(&self) -> ContentionPolicy {
        self.arbiter.policy()
    }

    /// Pre-heats the board toward the first arrival's busy steady state
    /// at its planned initial frequencies (the engine protocol, scaled
    /// by `warm_start_fraction`). A scenario with no arrivals
    /// warm-starts at the idle equilibrium at `idle_freqs`.
    fn warm_start(
        &mut self,
        soc: &mut SocStepper,
        scenario: &Scenario,
        idle_freqs: ClusterFreqs,
    ) -> Result<(), teem_linreg::LinregError> {
        // Replay threshold/approach changes that precede the first
        // arrival, so the pre-heat plan matches the plan the arrival
        // event itself will derive.
        let mut threshold_c = DEFAULT_THRESHOLD_C;
        let mut approach = self.approach;
        let mut first = None;
        for e in scenario.sorted_events() {
            match e.event {
                ScenarioEvent::Arrival(req) => {
                    first = Some(req);
                    break;
                }
                ScenarioEvent::ThresholdChange { threshold_c: thr } => {
                    threshold_c = thr;
                }
                ScenarioEvent::ApproachChange { approach: a } => {
                    approach = a;
                }
                ScenarioEvent::AmbientChange { .. } => {}
            }
        }
        let Some(req) = first else {
            soc.warm_start(&[], idle_freqs, 1.0);
            return Ok(());
        };
        let profile = self.profile_for(req.app)?;
        let treq_s = req.treq_factor * profile.et_gpu_s;
        let thr = req.threshold_c.unwrap_or(threshold_c);
        let ureq = UserRequirement::new(treq_s, thr);
        // The plan is deterministic; the arrival event re-derives the
        // identical one when it fires.
        let plan = plan_launch(
            req.app,
            approach,
            &ureq,
            Some(&profile),
            None,
            None,
            &self.tunables,
        );
        let share = CoRunShare {
            mapping: plan.mapping,
            cpu_busy: plan.partition.cpu_fraction() > 0.0,
            gpu_busy: true,
            activity: req.app.characteristics().activity,
        };
        let initial = clamp_freqs(&soc.board, plan.initial);
        soc.warm_start(&[share], initial, self.config.warm_start_fraction);
        Ok(())
    }

    fn profile_for(&mut self, app: App) -> Result<teem_core::AppProfile, teem_linreg::LinregError> {
        if let Some(p) = self.shared_profiles.get(app) {
            return Ok(*p);
        }
        if let Some(p) = self.local_profiles.get(app) {
            return Ok(*p);
        }
        let p = profile_app(&Board::odroid_xu4_ideal(), app)?;
        self.local_profiles.insert(app, p);
        Ok(p)
    }

    /// Executes `scenario` to completion on a fresh board.
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for an arriving app.
    pub fn run(&mut self, scenario: &Scenario) -> Result<ScenarioResult, teem_linreg::LinregError> {
        let mut sim = self.prepare_cell(scenario)?;
        while self.step_cell(&mut sim)? {}
        Ok(self.finish_cell(sim))
    }

    /// Builds the suspended simulation state for `scenario`: fresh
    /// warm-started board, sorted timeline, pre-sized step buffers and
    /// pre-created trace channels — everything [`ScenarioRunner::run`]
    /// used to set up before its loop. The returned [`CellSim`] is
    /// positioned exactly at the first step boundary.
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for the warm-start
    /// plan's app.
    pub(crate) fn prepare_cell(
        &mut self,
        scenario: &Scenario,
    ) -> Result<CellSim, teem_linreg::LinregError> {
        let board = self
            .board
            .build_with(scenario.initial_ambient_c(), SensorBank::tmu_like(42));

        // Warm start, matching the single-run engine's back-to-back
        // measurement protocol: the device was busy before the scenario
        // began, so it starts near the first workload's (thermally
        // managed) operating point rather than at a cold idle
        // equilibrium the paper's runs never see.
        let idle_freqs = ClusterFreqs::min_of(&board);
        let mut soc = SocStepper::new(board, ThermalZone::stock_xu4(), &self.config, idle_freqs);
        self.warm_start(&mut soc, scenario, idle_freqs)?;
        soc.readings = soc.read_sensors(CpuMapping::new(0, 0), false, 1.0);
        soc.scratch.obs.enabled = self.step_timing;

        let events = scenario.sorted_events();
        // The scenario ends at the last completion: environment events
        // scheduled after the final arrival has completed are not
        // simulated (they could only dilate makespan with idle time).
        let arrivals_end = events
            .iter()
            .rposition(|e| matches!(e.event, ScenarioEvent::Arrival(_)))
            .map_or(0, |i| i + 1);
        let capacity = self.arbiter.capacity();
        // Pre-created trace channels and share/claim buffers pre-sized
        // to the arbiter's capacity: the step loop is the batch sweep's
        // hot path and must not allocate on its steady-state path.
        let gap_energy_scratch = vec![0.0_f64; soc.board.thermal.len()];
        // What the arbiter may hand out: this board's cluster sizes.
        let cluster_cores =
            CpuMapping::new(soc.board.little_power.cores, soc.board.big_power.cores);
        // Every channel the run can touch is pre-registered here —
        // including gap telemetry, which only gap-y runs record (empty
        // channels are digest-invisible, so gap-free digests hold) —
        // and finish_cell asserts the allocating record fallback never
        // fired. The sampled channels also get a sample-major stage:
        // one contiguous row per sample instead of nine scattered
        // per-channel appends.
        let trace = Trace::with_channels(ALL_SCENARIO_TRACE_CHANNELS);
        let ids = TraceIds::resolve(&trace);
        let stage =
            SampleStage::for_channels(&trace, &ALL_SCENARIO_TRACE_CHANNELS[..SAMPLED_CHANNELS]);

        Ok(CellSim {
            scenario_name: scenario.name().to_string(),
            soc,
            idle_freqs,
            events,
            arrivals_end,
            next_ev: 0,
            queue: VecDeque::new(),
            capacity,
            active: Vec::with_capacity(capacity),
            timeout_s: self.config.timeout_s,
            idle_timeout_s: self.config.idle_policy.timeout_s(),
            event_driven: self.config.time_advance == TimeAdvance::EventDriven,
            idle_gap_start: 0.0,
            gap_hist: LogHistogram::new(),
            gap_energy_scratch,
            shares: Vec::with_capacity(capacity),
            claims: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
            cluster_cores,
            trace,
            ids,
            stage,
            staging: self.sample_staging,
            busy_s: 0.0,
            overlap_s: 0.0,
            idle_s: 0.0,
            idle_energy_j: 0.0,
            completed: Vec::new(),
            threshold_c: DEFAULT_THRESHOLD_C,
            approach: self.approach,
            timed_out: false,
        })
    }

    /// Executes exactly one iteration of the scenario step loop —
    /// timeline events, launches, termination checks, sensing, gap
    /// fast-forward, control, actuation, progress, power, thermal and
    /// completions, in that order. Returns `Ok(false)` when the loop is
    /// finished (timeline complete or timed out) and the cell should be
    /// handed to [`ScenarioRunner::finish_cell`].
    ///
    /// # Errors
    ///
    /// Propagates a profiling (regression) failure for an arriving app.
    pub(crate) fn step_cell(
        &mut self,
        sim: &mut CellSim,
    ) -> Result<bool, teem_linreg::LinregError> {
        // --- Timeline events due at this instant ---
        while sim.next_ev < sim.events.len() && sim.events[sim.next_ev].at_s <= sim.soc.t + 1e-9 {
            let ev = sim.events[sim.next_ev];
            match ev.event {
                ScenarioEvent::Arrival(req) => {
                    let profile = self.profile_for(req.app)?;
                    let treq_s = req.treq_factor * profile.et_gpu_s;
                    let thr = req.threshold_c.unwrap_or(sim.threshold_c);
                    let ureq = UserRequirement::new(treq_s, thr);
                    let plan = plan_launch(
                        req.app,
                        sim.approach,
                        &ureq,
                        Some(&profile),
                        None,
                        None,
                        &self.tunables,
                    );
                    sim.queue.push_back(QueuedJob {
                        app: req.app,
                        arrived_s: ev.at_s,
                        treq_s,
                        approach: sim.approach,
                        ureq,
                        profile,
                        plan,
                    });
                }
                ScenarioEvent::AmbientChange { ambient_c } => {
                    sim.soc.board.thermal.set_ambient_c(ambient_c);
                }
                ScenarioEvent::ThresholdChange { threshold_c: thr } => {
                    sim.threshold_c = thr;
                }
                ScenarioEvent::ApproachChange { approach: a } => {
                    sim.approach = a;
                }
            }
            sim.next_ev += 1;
        }

        // --- Launch queued apps onto free resources (arbiter) ---
        while sim.active.len() < sim.capacity {
            let Some(front) = sim.queue.front() else {
                break;
            };
            sim.claims.clear();
            sim.claims.extend(sim.active.iter().map(|j| ResourceClaim {
                mapping: j.job.mapping,
                cpu_fraction: j.job.partition.cpu_fraction(),
            }));
            let admission = self.arbiter.admit(
                &sim.claims,
                front.plan.mapping,
                front.plan.partition,
                sim.cluster_cores,
            );
            // The arbiter either keeps the queued plan on the granted
            // cores or re-plans the app onto an arbitrated slice.
            let (q, plan, mapping) = match admission {
                Admission::Defer => break,
                Admission::Launch { mapping } => {
                    let q = sim.queue.pop_front().expect("front exists");
                    let plan = q.plan;
                    (q, plan, mapping)
                }
                Admission::Replan { mapping, partition } => {
                    let q = sim.queue.pop_front().expect("front exists");
                    let plan = plan_launch(
                        q.app,
                        q.approach,
                        &q.ureq,
                        Some(&q.profile),
                        Some(mapping),
                        Some(partition),
                        &self.tunables,
                    );
                    (q, plan, plan.mapping)
                }
            };
            let manager = manager_for(q.approach, &q.ureq, &plan, &self.tunables);
            let initial = clamp_freqs(&sim.soc.board, plan.initial);
            sim.active.push(ActiveJob::launch(
                q,
                mapping,
                plan.partition,
                initial,
                manager,
                sim.soc.t,
                &sim.soc.readings,
            ));
        }

        // --- Termination: every arrival admitted and completed ---
        if sim.active.is_empty() && sim.queue.is_empty() && sim.next_ev >= sim.arrivals_end {
            return Ok(false);
        }
        if sim.soc.t >= sim.timeout_s {
            sim.timed_out = true;
            return Ok(false);
        }

        // --- Sensing (trace cadence) ---
        if sim.soc.sample_due() {
            sim.phase_sample();
        }

        // --- Gap fast-forward (event-driven mode only): the active
        //     set and queue are empty, so nothing can change before
        //     the next timeline event — advance the thermal network
        //     across the whole gap in closed form instead of
        //     stepping through it. `next_ev < events.len()` rather
        //     than `< arrivals_end`: a gap can end at an
        //     environment event as well as an arrival ---
        if sim.event_driven
            && sim.active.is_empty()
            && sim.queue.is_empty()
            && sim.next_ev < sim.events.len()
        {
            let dt = sim.soc.dt;
            let event_tick = first_tick_at_or_after(dt, sim.events[sim.next_ev].at_s, 1e-9);
            let timeout_tick = first_tick_at_or_after(dt, sim.timeout_s, 0.0);
            let end_tick = event_tick.min(timeout_tick);
            let start_tick = sim.soc.step_idx;
            if end_tick > start_tick {
                // The fixed-dt loop races idle gaps to the idle floor
                // every tick; pin that before fast-forwarding so the
                // gap power and the post-gap samples see it. The zone
                // is polled for the gap-start tick (a hot board can
                // trip the zone the instant it idles); inside the gap
                // temperatures only decay, so no further trip is
                // possible and the step-wise release is caught up
                // after the jump.
                let estimate = gap_max_temp_estimate(&sim.soc.board);
                sim.soc.actuate_at(sim.idle_freqs, estimate);

                // `IdlePolicy::TimeoutCollapse` as an event, not a
                // per-step check: the collapse instant splits the
                // gap into an idle-floor span and a power-collapsed
                // span, each advanced in closed form.
                let collapse_tick = sim
                    .idle_timeout_s
                    .map(|to| first_tick_at_or_after(dt, sim.idle_gap_start + to, 0.0));
                let idle_end_tick =
                    collapse_tick.map_or(end_tick, |c| c.clamp(start_tick, end_tick));
                let mut gap = GapAdvance::default();
                let ambient = sim.soc.board.thermal.ambient_c();
                for (from, to, power) in [
                    (start_tick, idle_end_tick, GapPower::Idle(sim.soc.effective)),
                    (idle_end_tick, end_tick, GapPower::Collapsed),
                ] {
                    if to > from {
                        let adv = fast_forward_gap(
                            &mut sim.soc.board,
                            power,
                            (to - from) as f64 * dt,
                            ambient,
                            &mut sim.soc.scratch,
                            &mut sim.gap_energy_scratch,
                        );
                        gap.energy_j += adv.energy_j;
                        gap.segments += adv.segments;
                    }
                }
                let span_s = (end_tick - start_tick) as f64 * dt;
                sim.soc.energy_j += gap.energy_j;
                sim.idle_energy_j += gap.energy_j;
                sim.idle_s += span_s;
                // The last segment's frozen power is what a sample
                // at the gap's end reports as the instantaneous draw.
                sim.soc.last_total_w = sim.soc.scratch.power.iter().sum();
                sim.soc.scratch.obs.gaps_skipped += 1;
                sim.soc.scratch.obs.gap_fastforward_s += span_s;
                sim.gap_hist.record((span_s * 1e3).round() as u64);

                // Jump the clock to the horizon tick. The gap is one
                // trace span, not one point per sample period: record
                // it on its own pre-registered channel (empty channels
                // are digest-invisible, so gap-free runs keep their
                // digests) and realign the sample grid past the
                // horizon, skipping the sensor reads the fixed-dt path
                // would have taken at the boundaries in between so the
                // noise stream stays aligned.
                sim.soc.jump_to(end_tick);
                sim.trace
                    .record_id(sim.ids.gap_fastforward, sim.soc.t, span_s);
                sim.soc.skip_missed_samples();
                // Step-wise zone release across the gap, replayed at
                // the zone's own poll cadence with the cooled
                // temperatures — O(release ladder), not O(gap).
                catch_up_zone(
                    &mut sim.soc.zone,
                    sim.soc.t - span_s,
                    sim.soc.t,
                    gap_max_temp_estimate(&sim.soc.board),
                );
                sim.soc.zone_was_tripped = sim.soc.zone.is_tripped();
                return Ok(true);
            }
        }

        // --- Manager control (per app; idle gaps are governed by
        //     the race-to-idle minimum or the collapse policy) ---
        let obs_t0 = sim.soc.scratch.obs.clock();
        sim.phase_control();

        // --- Board-wide actuation: one frequency per cluster,
        //     arbitrated across the co-running apps' requests, with
        //     the reactive thermal zone (kernel layer) always armed
        //     on top ---
        sim.phase_actuate();
        sim.soc.scratch.obs.lap_control(obs_t0);

        // --- Workload progress (slowed by shared-bandwidth
        //     contention; the GPU is time-shared) ---
        let dt = sim.soc.dt;
        let effective = sim.soc.effective;
        let total_pressure: f64 = sim.active.iter().map(|j| j.job.chars.mem_sensitivity).sum();
        let gpu_sharers = sim
            .active
            .iter()
            .filter(|j| !j.job.gpu_done())
            .count()
            .max(1) as f64;
        let co_running = sim.active.len() >= 2;
        for j in sim.active.iter_mut() {
            let job = &mut j.job;
            let s = bandwidth_slowdown(
                job.chars.mem_sensitivity,
                total_pressure - job.chars.mem_sensitivity,
            );
            if !job.cpu_done() && !job.mapping.is_empty() {
                job.cpu_done_items +=
                    cpu_rate(&job.chars, job.mapping, effective.big, effective.little) * dt / s;
            }
            if !job.gpu_done() {
                job.gpu_done_items += gpu_rate(&job.chars, effective.gpu) * dt / (s * gpu_sharers);
            }
            if co_running {
                j.co_run_s += dt;
                j.contention_delay_s += dt * (1.0 - 1.0 / s);
            }
        }

        // --- Power, energy, thermal and clock (shared stepper; N
        //     active apps superposed per domain, an idle board past
        //     its collapse timeout power-collapsed) ---
        sim.shares.clear();
        sim.shares.extend(sim.active.iter().map(|j| CoRunShare {
            mapping: j.job.mapping,
            cpu_busy: !j.job.cpu_done(),
            gpu_busy: !j.job.gpu_done(),
            activity: j.job.chars.activity,
        }));
        let collapsed = sim.shares.is_empty()
            && sim
                .idle_timeout_s
                .is_some_and(|timeout| sim.soc.t - sim.idle_gap_start >= timeout);
        let total = sim.soc.advance(&sim.shares, collapsed);
        let step_j = total * dt;
        if sim.active.is_empty() {
            sim.idle_energy_j += step_j;
            sim.idle_s += dt;
        } else if co_running {
            sim.busy_s += dt;
            sim.overlap_s += dt;
            // Attribute this step's energy by each app's dynamic-power
            // weight — the draw it causes — rather than an equal split
            // that would overcharge a stalled memory-bound app for its
            // compute-heavy co-runner. Shared overheads (leakage,
            // uncore, board) follow the weights proportionally.
            co_run_dynamic_weights(&sim.soc.board, &sim.shares, effective, &mut sim.weights);
            let wsum: f64 = sim.weights.iter().sum();
            if wsum > 0.0 {
                for (j, w) in sim.active.iter_mut().zip(sim.weights.iter()) {
                    j.energy_j += step_j * w / wsum;
                }
            } else {
                // Every share idle on every device: nothing to key on.
                let share_j = step_j / sim.active.len() as f64;
                for j in sim.active.iter_mut() {
                    j.energy_j += share_j;
                }
            }
        } else {
            sim.busy_s += dt;
            sim.active[0].energy_j += step_j;
        }

        // --- Completions: free the resources, in completion order ---
        sim.phase_completions();

        Ok(true)
    }

    /// Closes out a finished cell: final trace sample, summary
    /// statistics, result assembly — everything [`ScenarioRunner::run`]
    /// used to do after its loop.
    pub(crate) fn finish_cell(&self, mut sim: CellSim) -> ScenarioResult {
        // Drain staged samples before the closing records touch the
        // same channels (per-channel time order must hold), then take
        // the final sample that closes the trace.
        sim.flush_samples();
        let closing = sim.soc.read_sensors(CpuMapping::new(0, 0), false, 1.0);
        let t = sim.soc.t;
        sim.trace.record_id(sim.ids.temp_max, t, closing.max_c());
        sim.trace
            .record_id(sim.ids.freq_big, t, sim.soc.effective.big.0 as f64);
        debug_assert_eq!(
            sim.trace.late_channel_creates(),
            0,
            "every scenario channel is pre-registered; the allocating \
             record fallback must never fire"
        );

        let temp_stats = sim
            .trace
            .stats("temp.max")
            .expect("temp.max always recorded");
        let summary = ScenarioSummary {
            scenario: sim.scenario_name,
            approach: self.approach.name().to_string(),
            makespan_s: t,
            busy_s: sim.busy_s,
            overlap_s: sim.overlap_s,
            idle_s: sim.idle_s,
            energy_j: sim.soc.energy_j,
            idle_energy_j: sim.idle_energy_j,
            peak_temp_c: temp_stats.max(),
            avg_temp_c: temp_stats.mean(),
            temp_variance: temp_stats.variance(),
            zone_trips: sim.soc.zone_trips,
            apps: sim.completed,
        };
        ScenarioResult {
            summary,
            trace: sim.trace,
            timed_out: sim.timed_out,
            kernel: sim.soc.scratch.obs,
            gap_len_ms: sim.gap_hist,
        }
    }
}

/// Pre-resolved [`ChannelId`]s for every scenario trace channel, in
/// recording order — resolved once at [`ScenarioRunner::prepare_cell`]
/// and recorded through thereafter, so no per-sample name lookup (and
/// no allocating late-channel fallback) ever runs in the hot loop.
pub(crate) struct TraceIds {
    temp_max: ChannelId,
    temp_big: ChannelId,
    temp_gpu: ChannelId,
    freq_big: ChannelId,
    freq_little: ChannelId,
    freq_gpu: ChannelId,
    power_total: ChannelId,
    ambient: ChannelId,
    queue_depth: ChannelId,
    gap_fastforward: ChannelId,
}

impl TraceIds {
    /// Resolves the scenario channel set against `trace`, which must
    /// have been created with [`Trace::with_channels`] over
    /// [`ALL_SCENARIO_TRACE_CHANNELS`] (as every [`CellSim`] trace is).
    pub(crate) fn resolve(trace: &Trace) -> TraceIds {
        let id = |name: &str| {
            trace
                .channel_id(name)
                .expect("scenario channel pre-created")
        };
        TraceIds {
            temp_max: id("temp.max"),
            temp_big: id("temp.big"),
            temp_gpu: id("temp.gpu"),
            freq_big: id("freq.big"),
            freq_little: id("freq.little"),
            freq_gpu: id("freq.gpu"),
            power_total: id("power.total"),
            ambient: id("ambient"),
            queue_depth: id("queue.depth"),
            gap_fastforward: id("gap.fastforward_s"),
        }
    }
}

/// One scenario execution suspended at a step boundary: the board-level
/// [`SocStepper`] plus the timeline cursor, the active/queued jobs, the
/// accumulators and the reusable share/claim buffers.
///
/// Driven by [`ScenarioRunner::step_cell`] one full iteration at a time
/// (the scalar path), or phase-by-phase through the `phase_*` methods
/// (the batched lockstep path, which interleaves K cells between
/// phases). Either way the code executing each phase is the same, which
/// is what makes batched-vs-scalar bit-identity provable rather than
/// approximate.
pub(crate) struct CellSim {
    pub(crate) scenario_name: String,
    /// The board, zone, clock, sample schedule, effective frequencies,
    /// readings, step buffers and energy — the same stepper a single
    /// run drives.
    pub(crate) soc: SocStepper,
    pub(crate) idle_freqs: ClusterFreqs,
    pub(crate) events: Vec<TimedEvent>,
    pub(crate) arrivals_end: usize,
    pub(crate) next_ev: usize,
    pub(crate) queue: VecDeque<QueuedJob>,
    pub(crate) capacity: usize,
    pub(crate) active: Vec<ActiveJob>,
    /// Copied out of [`SimConfig`] at prepare time so phase methods and
    /// the lockstep pool never need the runner.
    pub(crate) timeout_s: f64,
    pub(crate) idle_timeout_s: Option<f64>,
    pub(crate) event_driven: bool,
    pub(crate) idle_gap_start: f64,
    pub(crate) gap_hist: LogHistogram,
    pub(crate) gap_energy_scratch: Vec<f64>,
    pub(crate) shares: Vec<CoRunShare>,
    pub(crate) claims: Vec<ResourceClaim>,
    pub(crate) weights: Vec<f64>,
    pub(crate) cluster_cores: CpuMapping,
    pub(crate) trace: Trace,
    /// Channel ids resolved once at prepare; all mid-run recording goes
    /// through these (no name lookups in the hot loop).
    pub(crate) ids: TraceIds,
    /// Sample-major staging buffer for the nine sampled channels; one
    /// contiguous row per sample, drained by [`CellSim::flush_samples`].
    pub(crate) stage: SampleStage,
    /// `false` routes sampling through direct per-channel appends — the
    /// measured baseline for the staging win (bit-identical output).
    pub(crate) staging: bool,
    pub(crate) busy_s: f64,
    pub(crate) overlap_s: f64,
    pub(crate) idle_s: f64,
    pub(crate) idle_energy_j: f64,
    pub(crate) completed: Vec<ScenarioAppRun>,
    pub(crate) threshold_c: f64,
    pub(crate) approach: Approach,
    pub(crate) timed_out: bool,
}

impl CellSim {
    /// The sensing phase: takes the stepper's due sample for the active
    /// set, then records the row through [`CellSim::record_sample`].
    pub(crate) fn phase_sample(&mut self) {
        if self.active.is_empty() {
            self.soc.sample(CpuMapping::new(0, 0), false, 1.0);
        } else {
            self.soc.sample(
                combined_mapping(&self.active, self.cluster_cores),
                self.active.iter().any(|j| !j.job.cpu_done()),
                self.active
                    .iter()
                    .map(|j| j.job.chars.activity)
                    .fold(f64::MIN, f64::max),
            );
        }
        self.record_sample();
    }

    /// Records one sample row for the stepper's current readings and
    /// time and feeds the per-job statistics — the back half of
    /// [`CellSim::phase_sample`], shared by the lockstep hot-sample path
    /// (which supplies lane-resident readings and skips the board
    /// round-trip). Staged: one contiguous row push; unstaged: nine
    /// per-channel appends through pre-resolved ids. The recorded
    /// `(channel, t, v)` stream is identical either way.
    pub(crate) fn record_sample(&mut self) {
        let soc = &self.soc;
        let t = soc.t;
        let depth = (self.queue.len() + self.active.len()) as f64;
        let obs_t0 = soc.scratch.obs.clock();
        let row: [f64; SAMPLED_CHANNELS] = [
            soc.readings.max_c(),
            soc.readings.big_max_c(),
            soc.readings.gpu_c,
            soc.effective.big.0 as f64,
            soc.effective.little.0 as f64,
            soc.effective.gpu.0 as f64,
            soc.last_total_w,
            soc.board.thermal.ambient_c(),
            depth,
        ];
        if self.staging {
            self.stage.push(t, &row);
            if self.stage.is_full() {
                self.trace.flush_stage(&mut self.stage);
            }
        } else {
            let ids = &self.ids;
            let channels = [
                ids.temp_max,
                ids.temp_big,
                ids.temp_gpu,
                ids.freq_big,
                ids.freq_little,
                ids.freq_gpu,
                ids.power_total,
                ids.ambient,
                ids.queue_depth,
            ];
            for (id, v) in channels.into_iter().zip(row) {
                self.trace.record_id(id, t, v);
            }
        }
        self.soc.scratch.obs.lap_trace(obs_t0);
        for j in self.active.iter_mut() {
            j.observe(&self.soc.readings, self.soc.effective);
        }
    }

    /// Drains the staged sample rows into the trace (no-op when empty
    /// or unstaged). Must run before any direct record into a sampled
    /// channel — finish, and any other boundary that closes the trace.
    pub(crate) fn flush_samples(&mut self) {
        if !self.stage.is_empty() {
            self.trace.flush_stage(&mut self.stage);
        }
    }

    /// The per-app manager control phase: each due job's manager sees
    /// the board through the stepper.
    pub(crate) fn phase_control(&mut self) {
        for j in self.active.iter_mut() {
            self.soc.control(&mut j.job, &mut *j.manager);
        }
    }

    /// The board-wide actuation phase: arbitrates one frequency per
    /// cluster across the active apps' requests, with the reactive
    /// thermal zone (kernel layer) armed on top.
    pub(crate) fn phase_actuate(&mut self) {
        self.soc
            .actuate(arbitrate_freqs(&self.active, self.idle_freqs));
    }

    /// The completion phase: retires done jobs in completion order and
    /// marks the start of an idle gap when the board empties.
    pub(crate) fn phase_completions(&mut self) {
        if self.active.iter().any(|j| j.job.done()) {
            let mut i = 0;
            while i < self.active.len() {
                if self.active[i].job.done() {
                    let job = self.active.remove(i);
                    self.completed.push(job.finish(self.soc.t));
                } else {
                    i += 1;
                }
            }
            if self.active.is_empty() {
                self.idle_gap_start = self.soc.t;
            }
        }
    }
}

/// How many leading [`ALL_SCENARIO_TRACE_CHANNELS`] entries each
/// sample records.
const SAMPLED_CHANNELS: usize = 9;

/// Every channel a scenario run can touch: the nine sampled channels —
/// the single-run set plus `ambient` and `queue.depth`, the first
/// [`SAMPLED_CHANNELS`] entries — then the gap-telemetry channel the
/// event-driven executor records one span per fast-forwarded gap on. Pre-registering the full set means
/// no [`Trace::record`] call can ever hit the allocating late-creation
/// fallback mid-run (asserted at finish); empty channels are
/// digest-invisible, so gap-free runs keep their pinned digests.
const ALL_SCENARIO_TRACE_CHANNELS: &[&str] = &[
    "temp.max",
    "temp.big",
    "temp.gpu",
    "freq.big",
    "freq.little",
    "freq.gpu",
    "power.total",
    "ambient",
    "queue.depth",
    "gap.fastforward_s",
];

/// The union of the active apps' core grants (the arbiter keeps them
/// disjoint, so the sums cannot exceed the clusters), for board-global
/// sensing.
pub(crate) fn combined_mapping(active: &[ActiveJob], cluster_cores: CpuMapping) -> CpuMapping {
    CpuMapping::new(
        active
            .iter()
            .map(|j| j.job.mapping.little)
            .sum::<u32>()
            .min(cluster_cores.little),
        active
            .iter()
            .map(|j| j.job.mapping.big)
            .sum::<u32>()
            .min(cluster_cores.big),
    )
}

/// Board-wide frequency arbitration: each cluster runs at the highest
/// frequency requested by an app that has work on it (a stakeholder);
/// clusters nobody is using follow the highest request anyway (matching
/// the single-app engine, where the lone app's governor drives every
/// cluster); an empty active set races to the idle floor.
fn arbitrate_freqs(active: &[ActiveJob], idle: ClusterFreqs) -> ClusterFreqs {
    if active.is_empty() {
        return idle;
    }
    let max_or = |picked: Option<teem_soc::MHz>, all: fn(&JobState) -> teem_soc::MHz| match picked {
        Some(f) => f,
        None => active.iter().map(|j| all(&j.job)).max().expect("non-empty"),
    };
    let big = active
        .iter()
        .map(|j| &j.job)
        .filter(|j| j.mapping.big > 0 && !j.cpu_done())
        .map(|j| j.desired.big)
        .max();
    let little = active
        .iter()
        .map(|j| &j.job)
        .filter(|j| j.mapping.little > 0 && !j.cpu_done())
        .map(|j| j.desired.little)
        .max();
    let gpu = active
        .iter()
        .map(|j| &j.job)
        .filter(|j| j.gpu_items > 0.0 && !j.gpu_done())
        .map(|j| j.desired.gpu)
        .max();
    ClusterFreqs {
        big: max_or(big, |j| j.desired.big),
        little: max_or(little, |j| j.desired.little),
        gpu: max_or(gpu, |j| j.desired.gpu),
    }
}

/// The first tick index `i` of the fixed-dt grid whose time `i·dt`
/// satisfies the fixed-dt loop's own firing predicate `i·dt + slack >=
/// target` — i.e. the step at which the fixed-dt loop would first act on
/// `target`. Computed by a float estimate corrected against the exact
/// predicate, so the event-driven jump lands on precisely the tick the
/// stepped loop would have reached (bit-identical timing, no
/// off-by-one from rounding).
fn first_tick_at_or_after(dt: f64, target: f64, slack: f64) -> u64 {
    let mut i = ((target - slack) / dt).ceil().max(0.0) as u64;
    while (i as f64) * dt + slack < target {
        i += 1;
    }
    while i > 0 && ((i - 1) as f64) * dt + slack >= target {
        i -= 1;
    }
    i
}

/// Noise-free estimate of the monitored maximum temperature (hottest big
/// core or GPU) for thermal-zone bookkeeping inside a fast-forwarded
/// gap. Deliberately does NOT go through the sensor bank: the gap skips
/// the sample grid entirely, so reading here would desynchronise the
/// noise stream from the fixed-dt path. All cores are idle in a gap
/// (no hotspot term), so the estimate is node + static offset.
fn gap_max_temp_estimate(board: &Board) -> f64 {
    let temps = board.thermal.temps();
    let offset = BIG_CORE_OFFSETS_C
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    (temps[board.nodes.big] + offset).max(temps[board.nodes.gpu])
}

/// Replays the thermal zone's step-wise release across a fast-forwarded
/// gap at the zone's own poll cadence, using the (cooled) gap-end
/// temperature. The release ladder is finite — (release − throttle) /
/// step — so this is O(ladder), not O(gap): once the zone is back to
/// `Idle` there is nothing left to release and the walk stops.
fn catch_up_zone(zone: &mut ThermalZone, from_s: f64, to_s: f64, temp_c: f64) {
    if !zone.is_capping() {
        return;
    }
    let ladder = u64::from(
        zone.release_to.0.saturating_sub(zone.throttle_to.0) / zone.release_step_mhz.max(1),
    ) + 2;
    let mut zt = from_s + zone.release_period_s;
    for _ in 0..ladder {
        if zt > to_s || !zone.is_capping() {
            break;
        }
        zone.update(zt, temp_c);
        zt += zone.release_period_s;
    }
}

/// An arrival that has been planned but not yet launched. The planning
/// inputs (approach, requirement, profile) ride along so the arbiter can
/// re-plan the app onto an arbitrated resource slice at launch.
pub(crate) struct QueuedJob {
    app: App,
    arrived_s: f64,
    treq_s: f64,
    approach: Approach,
    ureq: UserRequirement,
    profile: AppProfile,
    plan: LaunchPlan,
}

/// An application currently executing (a member of the active set).
pub(crate) struct ActiveJob {
    pub(crate) app: App,
    /// Work, progress, frequency requests and control deadline — the
    /// per-app state the stepper's control phase reads and writes. The
    /// executor arbitrates one board-wide setting from the active set's
    /// `desired` requests each step.
    pub(crate) job: JobState,
    pub(crate) manager: Box<dyn teem_soc::Manager + Send>,
    pub(crate) arrived_s: f64,
    pub(crate) started_s: f64,
    pub(crate) treq_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) co_run_s: f64,
    pub(crate) contention_delay_s: f64,
    pub(crate) temp: Welford,
    pub(crate) freq: Welford,
}

impl ActiveJob {
    fn launch(
        q: QueuedJob,
        mapping: CpuMapping,
        partition: Partition,
        initial: ClusterFreqs,
        manager: Box<dyn teem_soc::Manager + Send>,
        t: f64,
        readings: &SensorReadings,
    ) -> Self {
        let mut job = ActiveJob {
            app: q.app,
            job: JobState::new(q.app.characteristics(), mapping, partition, initial, t),
            manager,
            arrived_s: q.arrived_s,
            started_s: t,
            treq_s: q.treq_s,
            energy_j: 0.0,
            co_run_s: 0.0,
            contention_delay_s: 0.0,
            temp: Welford::new(),
            freq: Welford::new(),
        };
        // Seed the per-run statistics with the launch instant so even a
        // sub-sample-period run reports sane temperatures.
        job.temp.push(readings.max_c());
        job.freq.push(initial.big.0 as f64);
        job
    }

    fn observe(&mut self, readings: &SensorReadings, freqs: ClusterFreqs) {
        self.temp.push(readings.max_c());
        self.freq.push(freqs.big.0 as f64);
    }

    fn finish(self, t: f64) -> ScenarioAppRun {
        ScenarioAppRun {
            summary: RunSummary {
                app: self.app.full_name().to_string(),
                approach: self.manager.name().to_string(),
                execution_time_s: t - self.started_s,
                energy_j: self.energy_j,
                avg_temp_c: self.temp.mean(),
                peak_temp_c: self.temp.max(),
                temp_variance: self.temp.variance(),
                avg_big_freq_mhz: self.freq.mean(),
            },
            arrived_s: self.arrived_s,
            started_s: self.started_s,
            completed_s: t,
            treq_s: self.treq_s,
            co_run_s: self.co_run_s,
            contention_delay_s: self.contention_delay_s,
        }
    }
}

/// Streaming mean/variance/extrema (Welford) for per-job statistics —
/// jobs cannot use [`teem_telemetry::Trace`] slices because the trace is
/// scenario-global.
pub(crate) struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    max: f64,
}

impl Welford {
    fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn push(&mut self, v: f64) {
        self.n += 1;
        let d = v - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (v - self.mean);
        self.max = self.max.max(v);
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance, matching [`teem_telemetry::stats::SeriesStats`].
    fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(v);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn empty_scenario_completes_immediately() {
        let mut runner = ScenarioRunner::new(Approach::Ondemand);
        let r = runner.run(&Scenario::new("empty")).expect("runs");
        assert_eq!(r.summary.apps_completed(), 0);
        assert_eq!(r.summary.makespan_s, 0.0);
        assert!(!r.timed_out);
    }

    #[test]
    fn single_arrival_matches_single_run_shape() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sc = Scenario::new("one").arrive(0.0, App::Covariance, 0.85);
        let r = runner.run(&sc).expect("runs");
        assert_eq!(r.summary.apps_completed(), 1);
        let app = &r.summary.apps[0];
        assert_eq!(app.summary.approach, "TEEM");
        assert!(app.summary.execution_time_s > 5.0);
        assert_eq!(app.wait_s(), 0.0);
        assert_eq!(r.summary.zone_trips, 0, "TEEM must not trip");
        // All busy time belongs to the single app; nothing overlapped.
        assert!((r.summary.busy_s - app.summary.execution_time_s).abs() < 0.02);
        assert_eq!(r.summary.overlap_s, 0.0);
        assert_eq!(app.co_run_s, 0.0);
        assert_eq!(app.slowdown_vs_solo(), 1.0);
    }

    #[test]
    fn simultaneous_arrivals_queue_fifo() {
        let mut runner = ScenarioRunner::new(Approach::Teem);
        let sc = Scenario::new("queue")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(0.0, App::Syrk, 0.9);
        let r = runner.run(&sc).expect("runs");
        assert_eq!(r.summary.apps_completed(), 2);
        assert_eq!(r.summary.apps[0].summary.app, "MVT");
        assert_eq!(r.summary.apps[1].summary.app, "SYRK");
        // The second app queued behind the first.
        assert!(r.summary.apps[1].wait_s() > 5.0);
        // Queue depth peaked at 2.
        let depth = r.trace.stats("queue.depth").expect("recorded");
        assert_eq!(depth.max(), 2.0);
    }

    #[test]
    fn shared_policy_overlaps_simultaneous_arrivals() {
        let sc = Scenario::new("co")
            .arrive(0.0, App::Mvt, 0.9)
            .arrive(0.0, App::Syrk, 0.9);
        let mut runner =
            ScenarioRunner::new(Approach::Teem).with_contention(ContentionPolicy::shared());
        let r = runner.run(&sc).expect("runs");
        assert!(!r.timed_out);
        assert_eq!(r.summary.apps_completed(), 2);
        assert!(
            r.summary.overlap_s > 0.0,
            "simultaneous arrivals must co-run under the shared policy"
        );
        // Neither waited: both launched at t = 0.
        for app in &r.summary.apps {
            assert_eq!(app.wait_s(), 0.0, "{}", app.summary.app);
            assert!(app.co_run_s > 0.0, "{}", app.summary.app);
            assert!(app.slowdown_vs_solo() >= 1.0);
        }
    }

    #[test]
    fn shared_profile_store_matches_owned() {
        let sc = Scenario::new("s").arrive(0.0, App::Mvt, 0.9);
        let store = teem_core::offline::build_profile_store(&Board::odroid_xu4_ideal(), sc.apps())
            .expect("profiles fit");
        let mut owned = ScenarioRunner::with_profiles(Approach::Teem, store.clone());
        let mut shared = ScenarioRunner::with_shared_profiles(Approach::Teem, store.into_shared());
        let a = owned.run(&sc).expect("runs");
        let b = shared.run(&sc).expect("runs");
        assert_eq!(
            a.trace.digest(),
            b.trace.digest(),
            "profile sharing is transparent"
        );
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn missing_profiles_fall_back_to_local_cache() {
        // A shared store without the arriving app: the runner computes
        // the profile on demand into its local overflow cache and still
        // produces the same physics as a fully pre-populated runner.
        let sc = Scenario::new("s").arrive(0.0, App::Syrk, 0.9);
        let mut empty_shared =
            ScenarioRunner::with_shared_profiles(Approach::Teem, ProfileStore::new().into_shared());
        let mut prepopulated = ScenarioRunner::new(Approach::Teem);
        let a = empty_shared.run(&sc).expect("runs");
        let b = prepopulated.run(&sc).expect("runs");
        assert_eq!(a.trace.digest(), b.trace.digest());
    }

    #[test]
    fn timeout_is_reported() {
        let mut runner = ScenarioRunner::new(Approach::Ondemand).with_config(SimConfig {
            timeout_s: 1.0,
            ..SimConfig::default()
        });
        let sc = Scenario::new("t").arrive(0.0, App::Covariance, 0.9);
        let r = runner.run(&sc).expect("runs");
        assert!(r.timed_out);
        assert_eq!(r.summary.apps_completed(), 0);
    }

    #[test]
    fn stepwise_run_matches_monolithic_shape() {
        // Drive prepare/step/finish by hand — the decomposition the
        // lockstep pool uses — and check it reproduces run() exactly.
        let sc = Scenario::new("one").arrive(0.0, App::Mvt, 0.9);
        let mut a = ScenarioRunner::new(Approach::Teem);
        let mut b = ScenarioRunner::new(Approach::Teem);
        let ra = a.run(&sc).expect("runs");
        let mut sim = b.prepare_cell(&sc).expect("prepares");
        while b.step_cell(&mut sim).expect("steps") {}
        let rb = b.finish_cell(sim);
        assert_eq!(ra.summary, rb.summary);
        assert_eq!(ra.trace.digest(), rb.trace.digest());
        assert_eq!(ra.kernel.steps, rb.kernel.steps);
    }
}
