//! The time-stepped simulation engine: executes one application run under
//! a resource manager, integrating performance, power and temperature and
//! producing the trace/summary the paper's figures are built from.

use crate::board::Board;
use crate::freq::MHz;
use crate::perf::{cpu_rate, gpu_rate, CpuMapping};
use crate::sensors::SensorReadings;
use crate::thermal_zone::ThermalZone;
use teem_telemetry::{RunSummary, Trace};
use teem_workload::{App, KernelCharacteristics, Partition};

/// Cluster frequencies at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterFreqs {
    /// Big (A15) cluster frequency.
    pub big: MHz,
    /// LITTLE (A7) cluster frequency.
    pub little: MHz,
    /// GPU frequency.
    pub gpu: MHz,
}

impl ClusterFreqs {
    /// Every cluster at its maximum OPP — how TEEM schedules an
    /// application initially ("execute at maximum frequency for all the
    /// clusters", §III-B).
    pub fn max_of(board: &Board) -> ClusterFreqs {
        ClusterFreqs {
            big: board.big_opps.max().freq,
            little: board.little_opps.max().freq,
            gpu: board.gpu_opps.max().freq,
        }
    }

    /// Every cluster at its minimum OPP — how an idle board sits between
    /// scenario arrivals (powersave-style race-to-idle floor).
    pub fn min_of(board: &Board) -> ClusterFreqs {
        ClusterFreqs {
            big: board.big_opps.min().freq,
            little: board.little_opps.min().freq,
            gpu: board.gpu_opps.min().freq,
        }
    }
}

/// What to run: an application, a core mapping and a work partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The application (provides simulator characteristics and names).
    pub app: App,
    /// CPU cores used for the CPU share.
    pub mapping: CpuMapping,
    /// Work-item split between CPU and GPU.
    pub partition: Partition,
    /// Starting frequencies (managers may change them immediately).
    pub initial: ClusterFreqs,
}

/// The manager-visible state of the SoC at a control instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocView {
    /// Simulation time, seconds.
    pub time_s: f64,
    /// Latest sensor sample.
    pub readings: SensorReadings,
    /// Current (effective) cluster frequencies.
    pub freqs: ClusterFreqs,
    /// Fraction of the CPU share completed (1.0 when done or no share).
    pub cpu_progress: f64,
    /// Fraction of the GPU share completed (1.0 when done or no share).
    pub gpu_progress: f64,
    /// Big-cluster utilisation in `[0, 1]` (what ondemand samples).
    pub big_util: f64,
    /// Instantaneous wall power: the board's total draw over the latest
    /// engine step, watts (0 before the first step).
    pub power_w: f64,
    /// The run's mapping.
    pub mapping: CpuMapping,
    /// The run's partition.
    pub partition: Partition,
}

/// Frequency requests a manager issues at a control instant. Unset fields
/// leave the current frequency unchanged; requests are clamped to the OPP
/// table (`at_or_below`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocControl {
    big: Option<MHz>,
    little: Option<MHz>,
    gpu: Option<MHz>,
}

impl SocControl {
    /// Requests a big-cluster frequency.
    pub fn set_big_freq(&mut self, f: MHz) {
        self.big = Some(f);
    }

    /// Requests a LITTLE-cluster frequency.
    pub fn set_little_freq(&mut self, f: MHz) {
        self.little = Some(f);
    }

    /// Requests a GPU frequency.
    pub fn set_gpu_freq(&mut self, f: MHz) {
        self.gpu = Some(f);
    }

    /// The pending big-cluster request, if any.
    pub fn big_request(&self) -> Option<MHz> {
        self.big
    }

    /// The pending LITTLE-cluster request, if any.
    pub fn little_request(&self) -> Option<MHz> {
        self.little
    }

    /// The pending GPU request, if any.
    pub fn gpu_request(&self) -> Option<MHz> {
        self.gpu
    }
}

/// A runtime resource manager: ondemand, EEMP's static policy, RMP, TEEM…
/// The engine calls [`Manager::control`] every [`Manager::period_s`]
/// seconds of simulated time.
pub trait Manager {
    /// Manager name used in reports (e.g. `"TEEM"`).
    fn name(&self) -> &str;

    /// Observes the SoC and issues frequency requests.
    fn control(&mut self, view: &SocView, ctl: &mut SocControl);

    /// Control period in seconds (default 100 ms, a typical governor
    /// sampling rate).
    fn period_s(&self) -> f64 {
        0.1
    }
}

/// Everything a finished run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Headline metrics (the Fig. 1 / Fig. 5 numbers).
    pub summary: RunSummary,
    /// Recorded channels: `temp.max`, `temp.big`, `temp.gpu`, `freq.big`,
    /// `freq.little`, `freq.gpu`, `power.total`.
    pub trace: Trace,
    /// Number of reactive thermal-zone trips during the run.
    pub zone_trips: u32,
    /// `true` if the run hit the simulation timeout before completing.
    pub timed_out: bool,
    /// Per-domain energy, joules: (big, little, gpu, board).
    pub energy_breakdown_j: (f64, f64, f64, f64),
}

/// How a board spends its idle gaps (no application mapped).
///
/// Single runs never idle, so this only matters to the multi-app
/// scenario executor; [`Simulation`] ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// Race to the minimum OPPs and stay there — every cluster keeps its
    /// clock (and leakage + uncore overhead) while idle. The measured
    /// idle floor of the stock board, and the default.
    #[default]
    RaceToIdle,
    /// Race to the minimum OPPs, then power-collapse the clusters after
    /// a continuous-idle timeout: dynamic and uncore power drop to zero
    /// and leakage falls to the gated floor
    /// ([`collapsed_node_powers_into`]). Models `cpuidle` deep states /
    /// GPU runtime-PM with a governor-style promotion timeout.
    TimeoutCollapse {
        /// Continuous idle time before the collapse kicks in,
        /// milliseconds.
        timeout_ms: u32,
    },
}

impl IdlePolicy {
    /// The collapse timeout in seconds, if this policy has one.
    pub fn timeout_s(self) -> Option<f64> {
        match self {
            IdlePolicy::RaceToIdle => None,
            IdlePolicy::TimeoutCollapse { timeout_ms } => Some(f64::from(timeout_ms) * 1e-3),
        }
    }
}

/// How an executor advances simulated time (scenario executor only;
/// single runs are always dense, so [`Simulation`] ignores it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeAdvance {
    /// One fixed-`dt_s` integration loop from start to finish — every
    /// idle second of a gappy timeline is stepped through. The default,
    /// and the bit-pinned reference semantics.
    #[default]
    FixedDt,
    /// Event-horizon loop: phases with applications running step at
    /// fixed `dt_s` **bit-identically** to [`TimeAdvance::FixedDt`],
    /// but whenever the active set and queue are empty the executor
    /// computes the next state-changing instant (arrival,
    /// ambient/threshold/approach change, idle-collapse timeout,
    /// simulation timeout) and fast-forwards the thermal network across
    /// the whole gap in closed form ([`fast_forward_gap`]) — `O(events)`
    /// instead of `O(gap/dt_s)`, with a small documented temperature /
    /// energy tolerance on the gap itself.
    EventDriven,
}

/// Engine options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Integration step, seconds.
    pub dt_s: f64,
    /// Trace/sensor sampling period, seconds.
    pub sample_period_s: f64,
    /// Abort the run after this much simulated time.
    pub timeout_s: f64,
    /// Fraction of the run's initial power used to pre-heat the board
    /// (the paper's runs start warm from back-to-back measurements —
    /// Fig. 1 starts at ~80 °C).
    pub warm_start_fraction: f64,
    /// What the board does in idle gaps (scenario executor only;
    /// single runs have no idle gaps).
    pub idle_policy: IdlePolicy,
    /// How the scenario executor's clock advances across idle gaps.
    pub time_advance: TimeAdvance,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt_s: 0.01,
            sample_period_s: 0.1,
            timeout_s: 1_000.0,
            warm_start_fraction: 0.93,
            idle_policy: IdlePolicy::RaceToIdle,
            time_advance: TimeAdvance::FixedDt,
        }
    }
}

/// A single-run simulation of the board executing a [`RunSpec`] under a
/// [`Manager`], with the stock reactive [`ThermalZone`] armed underneath
/// (as on the real kernel) unless disabled.
#[derive(Debug)]
pub struct Simulation {
    board: Board,
    spec: RunSpec,
    config: SimConfig,
    zone: ThermalZone,
}

impl Simulation {
    /// Creates a simulation with the stock 95 °C thermal zone armed.
    pub fn new(board: Board, spec: RunSpec) -> Self {
        Simulation {
            board,
            spec,
            config: SimConfig::default(),
            zone: ThermalZone::stock_xu4(),
        }
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces or disables the reactive thermal zone.
    pub fn with_thermal_zone(mut self, zone: Option<ThermalZone>) -> Self {
        self.zone = zone.unwrap_or_else(ThermalZone::disabled);
        self
    }

    /// Read access to the board (for inspecting OPP tables etc.).
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Runs the spec to completion under `manager` and reports.
    ///
    /// One job on a [`SocStepper`]: the stepper owns the clock, the
    /// sample schedule, the zone and the physics; this loop adds the
    /// manager's control call, the job's progress and the trace.
    pub fn run(&mut self, manager: &mut dyn Manager) -> RunResult {
        let RunSpec {
            app,
            mapping,
            partition,
            initial,
        } = self.spec;
        let chars = app.characteristics();
        let activity = chars.activity;
        let initial = clamp_freqs(&self.board, initial);
        let mut job = JobState::new(chars, mapping, partition, initial, 0.0);
        let mut soc = SocStepper::new(self.board.clone(), self.zone, &self.config, initial);
        soc.warm_start(
            &[CoRunShare {
                mapping,
                cpu_busy: job.cpu_items > 0.0,
                gpu_busy: job.gpu_items > 0.0,
                activity,
            }],
            initial,
            self.config.warm_start_fraction,
        );
        soc.readings = soc.read_sensors(mapping, job.cpu_items > 0.0, activity);

        let mut trace = Trace::with_channels(TRACE_CHANNELS);
        // Sample-major staging: one contiguous row per sample tick
        // instead of 7 scattered per-channel appends; flushed at
        // capacity and at run end, bit-identical to direct recording.
        let mut stage = teem_telemetry::SampleStage::for_channels(&trace, TRACE_CHANNELS);
        let mut energy_breakdown = (0.0, 0.0, 0.0, 0.0);
        let mut timed_out = false;
        let dt = soc.dt;

        loop {
            if job.done() {
                break;
            }
            if soc.t >= self.config.timeout_s {
                timed_out = true;
                break;
            }

            if soc.sample_due() {
                soc.sample(mapping, !job.cpu_done(), activity);
                // One row in TRACE_CHANNELS column order.
                stage.push(
                    soc.t,
                    &[
                        soc.readings.max_c(),
                        soc.readings.big_max_c(),
                        soc.readings.gpu_c,
                        soc.effective.big.0 as f64,
                        soc.effective.little.0 as f64,
                        soc.effective.gpu.0 as f64,
                        soc.last_total_w,
                    ],
                );
                if stage.is_full() {
                    trace.flush_stage(&mut stage);
                }
            }

            soc.control(&mut job, manager);
            soc.actuate(job.desired);

            // Progress. The step's power sees the busy flags from
            // before it, so a share finishing now still draws busy
            // power for this step.
            let share = CoRunShare {
                mapping,
                cpu_busy: !job.cpu_done(),
                gpu_busy: !job.gpu_done(),
                activity,
            };
            if share.cpu_busy && !mapping.is_empty() {
                job.cpu_done_items +=
                    cpu_rate(&chars, mapping, soc.effective.big, soc.effective.little) * dt;
            }
            if share.gpu_busy {
                job.gpu_done_items += gpu_rate(&chars, soc.effective.gpu) * dt;
            }

            soc.advance(&[share], false);
            let p = &soc.scratch.power;
            let nodes = soc.board.nodes;
            energy_breakdown.0 += p[nodes.big] * dt;
            energy_breakdown.1 += p[nodes.little] * dt;
            energy_breakdown.2 += p[nodes.gpu] * dt;
            energy_breakdown.3 += p[nodes.board] * dt;
        }

        // Final sensor sample closes the trace. The stage must drain
        // first: the closing records target staged channels, and a
        // direct push ahead of buffered rows would run time backwards.
        trace.flush_stage(&mut stage);
        let closing = soc.read_sensors(mapping, false, activity);
        trace.record("temp.max", soc.t, closing.max_c());
        trace.record("freq.big", soc.t, soc.effective.big.0 as f64);

        let temp_stats = trace.stats("temp.max").expect("temp.max always recorded");
        let freq_stats = trace.stats("freq.big").expect("freq.big always recorded");

        let summary = RunSummary {
            app: app.full_name().to_string(),
            approach: manager.name().to_string(),
            execution_time_s: soc.t,
            energy_j: soc.energy_j,
            avg_temp_c: temp_stats.mean(),
            peak_temp_c: temp_stats.max(),
            temp_variance: temp_stats.variance(),
            avg_big_freq_mhz: freq_stats.mean(),
        };
        let zone_trips = soc.zone_trips;
        self.board = soc.board;
        self.zone = soc.zone;
        RunResult {
            summary,
            trace,
            zone_trips,
            timed_out,
            energy_breakdown_j: energy_breakdown,
        }
    }
}

/// The trace channels a single run records, pre-created so the sampling
/// path never inserts (and so never allocates a key) mid-run.
const TRACE_CHANNELS: &[&str] = &[
    "temp.max",
    "temp.big",
    "temp.gpu",
    "freq.big",
    "freq.little",
    "freq.gpu",
    "power.total",
];

/// The engines' one firing predicate for a float deadline on the step
/// grid: a sample or control deadline fires on the first tick at (or
/// within 1e-12 s before) it.
#[inline]
pub fn deadline_due(t: f64, deadline: f64) -> bool {
    t + 1e-12 >= deadline
}

/// One application's work and control state on the board: its CPU/GPU
/// work split and progress, its manager's latest (OPP-quantised)
/// frequency requests and its next control deadline.
///
/// A single run drives one; the scenario executor drives one per
/// active app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobState {
    /// The application's simulator characteristics.
    pub chars: KernelCharacteristics,
    /// CPU cores the job runs its CPU share on.
    pub mapping: CpuMapping,
    /// Work-item split between CPU and GPU.
    pub partition: Partition,
    /// Work items in the CPU share.
    pub cpu_items: f64,
    /// Work items in the GPU share.
    pub gpu_items: f64,
    /// CPU work items completed.
    pub cpu_done_items: f64,
    /// GPU work items completed.
    pub gpu_done_items: f64,
    /// The manager's latest frequency requests, clamped to the OPPs.
    pub desired: ClusterFreqs,
    /// Simulated time of the next manager control call, seconds.
    pub next_control: f64,
}

impl JobState {
    /// A job launched at time `t` with nothing done yet: its manager is
    /// due immediately and requests `desired` until it says otherwise.
    pub fn new(
        chars: KernelCharacteristics,
        mapping: CpuMapping,
        partition: Partition,
        desired: ClusterFreqs,
        t: f64,
    ) -> Self {
        let items = chars.items as f64;
        let cpu_items = partition.cpu_fraction() * items;
        JobState {
            chars,
            mapping,
            partition,
            cpu_items,
            gpu_items: items - cpu_items,
            cpu_done_items: 0.0,
            gpu_done_items: 0.0,
            desired,
            next_control: t,
        }
    }

    /// `true` once the CPU share is complete (or empty).
    #[inline]
    pub fn cpu_done(&self) -> bool {
        self.cpu_done_items >= self.cpu_items
    }

    /// `true` once the GPU share is complete (or empty).
    #[inline]
    pub fn gpu_done(&self) -> bool {
        self.gpu_done_items >= self.gpu_items
    }

    /// `true` once both shares are complete.
    #[inline]
    pub fn done(&self) -> bool {
        self.cpu_done() && self.gpu_done()
    }
}

/// The board-level half of an engine step, shared by [`Simulation`] and
/// the scenario executor: it owns the board, the reactive thermal zone,
/// the index-derived clock, the sample schedule, the effective
/// frequencies, the latest sensor readings and the step buffers.
///
/// A caller's step is, in order: [`SocStepper::sample`] when
/// [`SocStepper::sample_due`], [`SocStepper::control`] for each of its
/// jobs, [`SocStepper::actuate`] with the requests it arbitrates, its
/// own progress update, then [`SocStepper::advance`] (power, energy,
/// thermal step, counters, clock). The fields are public so the
/// scenario executor's event-driven gaps and its lockstep pool can
/// suspend, mirror and restore the state at step boundaries.
#[derive(Debug, Clone)]
pub struct SocStepper {
    /// The simulated board (thermal state and sensor noise stream).
    pub board: Board,
    /// The reactive thermal zone under every manager.
    pub zone: ThermalZone,
    /// Whether the zone was hard-tripped at the previous poll.
    pub zone_was_tripped: bool,
    /// Zone trips so far (rising edges into the tripped state).
    pub zone_trips: u32,
    /// Integration step, seconds.
    pub dt: f64,
    /// Sample period, seconds.
    pub sample_period_s: f64,
    /// Steps taken. The clock is derived from it (`t = step_idx · dt`),
    /// never accumulated, so long runs cannot smear their timestamps
    /// with float-accumulation drift.
    pub step_idx: u64,
    /// Simulated time, seconds: `step_idx as f64 * dt`.
    pub t: f64,
    /// Time of the next due sample, seconds.
    pub next_sample: f64,
    /// The cluster frequencies in force (requests after the zone cap).
    pub effective: ClusterFreqs,
    /// The latest sensor sample (zeros until the caller's first read).
    pub readings: SensorReadings,
    /// Reusable power/temperature buffers and step observability.
    pub scratch: StepScratch,
    /// Energy drawn so far, joules: Σ total power · `dt` over the steps
    /// (plus whatever a caller adds for skipped gaps).
    pub energy_j: f64,
    /// Total board power over the last step, watts (0 before the first).
    pub last_total_w: f64,
}

impl SocStepper {
    /// A stepper at `t = 0` on `board` with `effective` in force and
    /// `zone` armed, taking its step and sample period from `config`.
    pub fn new(
        board: Board,
        zone: ThermalZone,
        config: &SimConfig,
        effective: ClusterFreqs,
    ) -> Self {
        let scratch = StepScratch::for_board(&board);
        SocStepper {
            board,
            zone,
            zone_was_tripped: false,
            zone_trips: 0,
            dt: config.dt_s,
            sample_period_s: config.sample_period_s,
            step_idx: 0,
            t: 0.0,
            next_sample: 0.0,
            effective,
            readings: SensorReadings {
                big_core_c: [0.0; 4],
                gpu_c: 0.0,
            },
            scratch,
            energy_j: 0.0,
            last_total_w: 0.0,
        }
    }

    /// Pre-heats the board (the paper's back-to-back measurement
    /// protocol): every node starts at the steady state of `fraction` ×
    /// the power `shares` draw at `freqs` with the silicon at 70 °C,
    /// capped at an 80 °C thermally-managed ceiling — whatever ran
    /// before was itself kept below the trip — and floored at ambient.
    /// No shares pre-heats toward the idle floor at `freqs`.
    pub fn warm_start(&mut self, shares: &[CoRunShare], freqs: ClusterFreqs, fraction: f64) {
        const WARM_START_C: f64 = 70.0;
        const WARM_START_CEILING_C: f64 = 80.0;
        self.scratch.temps.fill(WARM_START_C);
        co_run_node_powers_into(
            &self.board,
            shares,
            freqs,
            &self.scratch.temps,
            &mut self.scratch.power,
        );
        for p in &mut self.scratch.power {
            *p *= fraction;
        }
        let thermal = &mut self.board.thermal;
        thermal.warm_start(&self.scratch.power);
        let ambient = thermal.ambient_c();
        for i in 0..thermal.len() {
            let t = thermal.temp(i);
            thermal.set_temp(i, t.min(WARM_START_CEILING_C).max(ambient));
        }
    }

    /// Reads the sensor bank at the effective frequencies, with the
    /// per-core hotspots of `mapping`'s active big cores
    /// ([`big_core_hotspot_powers`]); the sample schedule is untouched.
    /// TMU-style banks advance their deterministic noise stream.
    pub fn read_sensors(
        &mut self,
        mapping: CpuMapping,
        cpu_busy: bool,
        activity: f64,
    ) -> SensorReadings {
        let board = &mut self.board;
        let big_c = board.thermal.temp(board.nodes.big);
        let gpu_c = board.thermal.temp(board.nodes.gpu);
        let core_power =
            big_core_hotspot_powers(board, big_c, mapping, self.effective, cpu_busy, activity);
        board.sensors.read_with_hotspots(big_c, &core_power, gpu_c)
    }

    /// `true` when a sample is due at the current tick.
    #[inline]
    pub fn sample_due(&self) -> bool {
        deadline_due(self.t, self.next_sample)
    }

    /// Takes the due sample: reads the sensor bank (timed as the sample
    /// phase) and [accepts](SocStepper::accept_sample) the reading.
    pub fn sample(&mut self, mapping: CpuMapping, cpu_busy: bool, activity: f64) {
        let obs_t0 = self.scratch.obs.clock();
        let readings = self.read_sensors(mapping, cpu_busy, activity);
        self.scratch.obs.lap_sample(obs_t0);
        self.accept_sample(readings);
    }

    /// Stores `readings` as this tick's sample and advances the sample
    /// schedule one period — for readings taken elsewhere (the lockstep
    /// pool's batched sensor sweep).
    pub fn accept_sample(&mut self, readings: SensorReadings) {
        self.readings = readings;
        self.next_sample += self.sample_period_s;
    }

    /// Realigns the sample schedule after a clock jump: skips every
    /// sample tick the jump passed over, and the sensor-noise draws
    /// those reads would have taken, so the noise stream stays aligned
    /// with a stepped run.
    pub fn skip_missed_samples(&mut self) {
        if self.next_sample < self.t - 1e-12 {
            let n = ((self.t - 1e-12 - self.next_sample) / self.sample_period_s).floor() as u64 + 1;
            self.board.sensors.skip_reads(n);
            self.next_sample += n as f64 * self.sample_period_s;
        }
    }

    /// The control phase for one job: when its deadline is due, shows
    /// `manager` the board, quantises its requests onto the OPP tables
    /// into `job.desired` and schedules the next call one
    /// [`Manager::period_s`] later.
    pub fn control(&self, job: &mut JobState, manager: &mut dyn Manager) {
        if !deadline_due(self.t, job.next_control) {
            return;
        }
        let view = SocView {
            time_s: self.t,
            readings: self.readings,
            freqs: self.effective,
            cpu_progress: progress(job.cpu_done_items, job.cpu_items),
            gpu_progress: progress(job.gpu_done_items, job.gpu_items),
            big_util: if job.cpu_done() || job.mapping.big == 0 {
                0.05
            } else {
                1.0
            },
            power_w: self.last_total_w,
            mapping: job.mapping,
            partition: job.partition,
        };
        let mut ctl = SocControl::default();
        manager.control(&view, &mut ctl);
        if let Some(f) = ctl.big {
            job.desired.big = self.board.big_opps.at_or_below(f).freq;
        }
        if let Some(f) = ctl.little {
            job.desired.little = self.board.little_opps.at_or_below(f).freq;
        }
        if let Some(f) = ctl.gpu {
            job.desired.gpu = self.board.gpu_opps.at_or_below(f).freq;
        }
        job.next_control += manager.period_s();
    }

    /// The actuation phase: puts `requested` in force, polls the zone
    /// with the latest reading and applies its cap to the big cluster.
    pub fn actuate(&mut self, requested: ClusterFreqs) {
        self.actuate_at(requested, self.readings.max_c());
    }

    /// [`SocStepper::actuate`] with the zone polled at `max_temp_c`
    /// instead of the latest reading (an idle gap's noise-free
    /// estimate). Counts a trip on each rising edge.
    pub fn actuate_at(&mut self, requested: ClusterFreqs, max_temp_c: f64) {
        self.effective = requested;
        if let Some(cap) = self.zone.update(self.t, max_temp_c) {
            if self.effective.big > cap {
                self.effective.big = self.board.big_opps.at_or_below(cap).freq;
            }
        }
        if self.zone.is_tripped() && !self.zone_was_tripped {
            self.zone_trips += 1;
        }
        self.zone_was_tripped = self.zone.is_tripped();
    }

    /// Power, energy, thermal step, counters and clock for one step:
    /// the node power of `shares` running at the effective frequencies
    /// (the idle floor for no shares, the power-collapsed floor when
    /// `collapsed`), charged for `dt` and integrated. Returns the step's
    /// total power, watts.
    pub fn advance(&mut self, shares: &[CoRunShare], collapsed: bool) -> f64 {
        let obs_t0 = self.scratch.obs.clock();
        let temps = self.board.thermal.temps();
        if collapsed {
            collapsed_node_powers_into(&self.board, temps, &mut self.scratch.power);
        } else {
            co_run_node_powers_into(
                &self.board,
                shares,
                self.effective,
                temps,
                &mut self.scratch.power,
            );
        }
        self.scratch.obs.lap_power(obs_t0);
        let total: f64 = self.scratch.power.iter().sum();
        self.energy_j += total * self.dt;
        self.last_total_w = total;
        let obs_t0 = self.scratch.obs.clock();
        let substeps = self.board.thermal.step(self.dt, &self.scratch.power);
        self.scratch.obs.lap_thermal(obs_t0);
        self.scratch.obs.steps += 1;
        self.scratch.obs.substeps += u64::from(substeps);
        self.jump_to(self.step_idx + 1);
        total
    }

    /// Moves the clock to tick `step_idx` (a caller that fast-forwarded
    /// the board across a gap in closed form).
    pub fn jump_to(&mut self, step_idx: u64) {
        self.step_idx = step_idx;
        self.t = step_idx as f64 * self.dt;
    }
}

/// Reusable per-step physics buffers: the node power vector the engines
/// rebuild every integration step, plus a general node-temperature
/// buffer for warm-start style evaluations at an assumed uniform
/// temperature.
///
/// Every [`SocStepper`] steps through one `StepScratch`, so the
/// steady-state simulation path allocates nothing per step. (Sensor readings need no buffer —
/// [`SensorReadings`] is a plain `Copy` value.)
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// Node power vector, watts, indexed as [`Board::nodes`].
    pub power: Vec<f64>,
    /// Node temperature buffer, °C — for evaluating the power model at
    /// an assumed uniform temperature before real temperatures exist,
    /// and for the gap fast-forward's frozen temperatures and
    /// steady-state target.
    pub temps: Vec<f64>,
    /// Step-loop observability accumulator (counters always on, timing
    /// opt-in; see [`StepObs`]).
    pub obs: StepObs,
}

impl StepScratch {
    /// Scratch sized for `board`'s thermal network.
    pub fn for_board(board: &Board) -> Self {
        let n = board.thermal.len();
        StepScratch {
            power: vec![0.0; n],
            temps: vec![0.0; n],
            obs: StepObs::default(),
        }
    }
}

/// Scratch-resident step-loop accumulator: per-run step/sub-step
/// counters and the wall-time split between the power-model evaluation
/// and the thermal integration.
///
/// Counters are unconditional and exact (one integer add per step —
/// cheaper than the branch that would gate them). Wall-clock timing is
/// gated on the single `enabled` bool so the default, uninstrumented
/// hot loop pays exactly one predictable branch per phase and never
/// calls `Instant::now`. The accumulator lives in [`StepScratch`] so
/// the step loop touches memory it already owns — no extra cache line,
/// no shared state.
///
/// Timing is **sampled**: an enabled accumulator times one step in
/// [`TIMING_STRIDE`] — steps 0, stride, 2·stride, … of its own count
/// (the lockstep pool strides over its rounds the same way) — and banks
/// each timed phase's elapsed time × stride. The `*_ns` fields are
/// therefore estimates of the phase totals, not measurements: a probe
/// costs about as much as a whole step, and timing every step would
/// roughly double the run it measures. Each timed phase still carries
/// about one clock read's latency, which the estimates do not subtract.
///
/// Timing never feeds back into the physics, fingerprints or digests:
/// an instrumented run is bit-identical to a disabled one (pinned by
/// the golden-digest tests in the scenario crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepObs {
    /// `true` ⇒ the step loop times each phase of every
    /// [`TIMING_STRIDE`]-th step.
    pub enabled: bool,
    /// Outer engine steps executed.
    pub steps: u64,
    /// Engine steps executed through the K-wide lockstep batch path
    /// (each is also counted in `steps`; 0 on the scalar path).
    pub batched_steps: u64,
    /// Euler sub-steps the thermal integrator actually took.
    pub substeps: u64,
    /// Estimated nanoseconds in the power-model evaluation (0 unless
    /// `enabled`).
    pub power_ns: u64,
    /// Estimated nanoseconds in the thermal integration (0 unless
    /// `enabled`).
    pub thermal_ns: u64,
    /// Estimated nanoseconds reading sensors on sample ticks (0 unless
    /// `enabled`).
    pub sample_ns: u64,
    /// Estimated nanoseconds staging/recording trace samples (0 unless
    /// `enabled`).
    pub trace_ns: u64,
    /// Estimated nanoseconds in manager control + actuation on due
    /// ticks (0 unless `enabled`).
    pub control_ns: u64,
    /// Idle gaps the event-driven executor fast-forwarded instead of
    /// stepping (0 under [`TimeAdvance::FixedDt`]).
    pub gaps_skipped: u64,
    /// Total simulated seconds covered by fast-forwarded gaps.
    pub gap_fastforward_s: f64,
    /// Closed-form re-linearisation segments taken across all
    /// fast-forwarded gaps (each is one
    /// [`cool_to`](crate::thermal::ThermalModel::cool_to) call;
    /// see [`fast_forward_gap`]).
    pub gap_segments: u64,
}

impl StepObs {
    /// Starts a phase clock for the current step — `None` (and no
    /// syscall) unless enabled and the step is a timed one.
    #[inline]
    pub fn clock(&self) -> Option<std::time::Instant> {
        self.clock_at(self.steps)
    }

    /// Starts a phase clock for step (or lockstep round) `index` —
    /// `None` unless enabled and `index` is a multiple of
    /// [`TIMING_STRIDE`].
    #[inline]
    pub fn clock_at(&self, index: u64) -> Option<std::time::Instant> {
        if self.enabled && index.is_multiple_of(TIMING_STRIDE) {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Banks a power-model phase started at `t0`.
    #[inline]
    pub fn lap_power(&mut self, t0: Option<std::time::Instant>) {
        bank(&mut self.power_ns, t0);
    }

    /// Banks a thermal-integration phase started at `t0`.
    #[inline]
    pub fn lap_thermal(&mut self, t0: Option<std::time::Instant>) {
        bank(&mut self.thermal_ns, t0);
    }

    /// Banks a sensor-sampling phase started at `t0`.
    #[inline]
    pub fn lap_sample(&mut self, t0: Option<std::time::Instant>) {
        bank(&mut self.sample_ns, t0);
    }

    /// Banks a trace-recording phase started at `t0`.
    #[inline]
    pub fn lap_trace(&mut self, t0: Option<std::time::Instant>) {
        bank(&mut self.trace_ns, t0);
    }

    /// Banks a control/actuation phase started at `t0`.
    #[inline]
    pub fn lap_control(&mut self, t0: Option<std::time::Instant>) {
        bank(&mut self.control_ns, t0);
    }

    /// Folds another accumulator's counts and times into this one
    /// (`enabled` ors, so a merged total remembers whether any part
    /// timed).
    pub fn merge(&mut self, other: &StepObs) {
        self.enabled |= other.enabled;
        self.steps += other.steps;
        self.batched_steps += other.batched_steps;
        self.substeps += other.substeps;
        self.power_ns = self.power_ns.saturating_add(other.power_ns);
        self.thermal_ns = self.thermal_ns.saturating_add(other.thermal_ns);
        self.sample_ns = self.sample_ns.saturating_add(other.sample_ns);
        self.trace_ns = self.trace_ns.saturating_add(other.trace_ns);
        self.control_ns = self.control_ns.saturating_add(other.control_ns);
        self.gaps_skipped += other.gaps_skipped;
        self.gap_fastforward_s += other.gap_fastforward_s;
        self.gap_segments += other.gap_segments;
    }
}

/// Steps (or lockstep rounds) per timed one when [`StepObs`] timing is
/// enabled. Prime, so the timed steps walk every residue of the 10-step
/// sample and control periods and those ticks keep their true share of
/// the sample.
pub const TIMING_STRIDE: u64 = 31;

/// Adds the nanoseconds elapsed since `t0`, scaled by
/// [`TIMING_STRIDE`], to `acc` (saturating); a `None` start (an
/// untimed step) banks nothing.
#[inline]
fn bank(acc: &mut u64, t0: Option<std::time::Instant>) {
    if let Some(t0) = t0 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        *acc = acc.saturating_add(ns.saturating_mul(TIMING_STRIDE));
    }
}

/// Writes the node power vector for `board` into `out`, with an
/// application mapped on `mapping` at frequencies `freqs` and per-node
/// silicon temperatures `temps` (indexed as [`Board::nodes`]).
/// `cpu_busy`/`gpu_busy` select busy versus near-idle utilisation per
/// device; `activity` is the workload's switching-activity factor
/// ([`KernelCharacteristics::activity`](teem_workload::KernelCharacteristics)).
///
/// This is the single power model shared by [`Simulation`] and the
/// scenario engine (through [`co_run_node_powers_into`], which delegates
/// here for one app), so multi-app scenario physics stays bit-identical
/// to single-run physics. The engines call it with a [`StepScratch`]
/// buffer every step.
///
/// # Panics
///
/// Panics if `temps.len()` or `out.len()` differ from
/// `board.thermal.len()`.
#[allow(clippy::too_many_arguments)] // mirrors the physics: one knob per device
pub fn node_powers_into(
    board: &Board,
    mapping: CpuMapping,
    freqs: ClusterFreqs,
    cpu_busy: bool,
    gpu_busy: bool,
    activity: f64,
    temps: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        temps.len(),
        board.thermal.len(),
        "temperature vector length"
    );
    assert_eq!(out.len(), board.thermal.len(), "power vector length");
    out.fill(0.0);

    // Big cluster: active cores per the mapping; idle once done.
    let big_active = mapping.big;
    let big_util = if cpu_busy && big_active > 0 {
        1.0
    } else {
        0.03
    };
    out[board.nodes.big] = board.big_power.total_w(
        board.big_opps.volts_at(freqs.big),
        freqs.big.as_hz(),
        big_active,
        big_util,
        activity,
        temps[board.nodes.big],
    );

    // LITTLE cluster: the OS keeps one core online even when the app
    // uses none.
    let little_active = mapping.little.max(1);
    let little_util = if cpu_busy && mapping.little > 0 {
        1.0
    } else {
        0.08
    };
    out[board.nodes.little] = board.little_power.total_w(
        board.little_opps.volts_at(freqs.little),
        freqs.little.as_hz(),
        little_active,
        little_util,
        activity,
        temps[board.nodes.little],
    );

    // GPU: every shader the board has while its share runs, near-idle
    // after. The shader count is a board spec and must fit inside the
    // GPU power domain, or leakage gating would silently exceed 1.
    assert!(
        board.gpu_shaders <= board.gpu_power.cores,
        "board.gpu_shaders ({}) exceeds the GPU power domain's cores ({})",
        board.gpu_shaders,
        board.gpu_power.cores
    );
    let gpu_util = if gpu_busy { 1.0 } else { 0.02 };
    out[board.nodes.gpu] = board.gpu_power.total_w(
        board.gpu_opps.volts_at(freqs.gpu),
        freqs.gpu.as_hz(),
        board.gpu_shaders,
        gpu_util,
        activity,
        temps[board.nodes.gpu],
    );

    out[board.nodes.board] = board.board_base_w;
}

/// Writes the node power vector for an idle board (no application
/// mapped, every device at its near-idle utilisation floor) into `out`
/// — what a scenario's between-arrivals gaps dissipate.
///
/// # Panics
///
/// Panics if `temps.len()` or `out.len()` differ from
/// `board.thermal.len()`.
pub fn idle_node_powers_into(board: &Board, freqs: ClusterFreqs, temps: &[f64], out: &mut [f64]) {
    node_powers_into(
        board,
        CpuMapping::new(0, 0),
        freqs,
        false,
        false,
        1.0,
        temps,
        out,
    );
}

/// Allocating wrapper around [`idle_node_powers_into`] for one-off
/// evaluations and tests.
///
/// # Panics
///
/// Panics if `temps.len() != board.thermal.len()`.
pub fn idle_node_powers(board: &Board, freqs: ClusterFreqs, temps: &[f64]) -> Vec<f64> {
    let mut p = vec![0.0; board.thermal.len()];
    idle_node_powers_into(board, freqs, temps, &mut p);
    p
}

/// One co-running application's contribution to the board's power draw
/// at an instant — the per-app slice of what [`node_powers_into`] takes
/// as scalars for a single app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoRunShare {
    /// CPU cores the arbiter granted this app.
    pub mapping: CpuMapping,
    /// `true` while the app's CPU share is still executing.
    pub cpu_busy: bool,
    /// `true` while the app's GPU share is still executing.
    pub gpu_busy: bool,
    /// The app's switching-activity factor.
    pub activity: f64,
}

/// Writes the node power vector for `board` running N concurrent
/// applications into `out` — the co-running generalisation of
/// [`node_powers_into`], and like it allocation-free (the scenario
/// executor calls it every step with a reusable [`StepScratch`]).
///
/// Superposition per domain: each app contributes the dynamic power of
/// its own granted cores at its own utilisation and activity, while
/// leakage and uncore overhead — properties of the domain, not of an
/// app — are charged once for the union of active cores. The GPU is a
/// single time-shared device: its shaders draw busy power while *any*
/// app's GPU share runs (activity averaged over the sharers).
///
/// With zero shares this is [`idle_node_powers_into`]; with exactly one
/// it delegates to [`node_powers_into`] unchanged, which keeps
/// single-app scenario physics bit-identical to the single-run engine —
/// the property the golden-digest tests pin.
///
/// # Panics
///
/// Panics if `temps.len()` or `out.len()` differ from
/// `board.thermal.len()`, or (debug) if the shares' mappings together
/// exceed the clusters — the arbiter must hand out disjoint core sets.
pub fn co_run_node_powers_into(
    board: &Board,
    shares: &[CoRunShare],
    freqs: ClusterFreqs,
    temps: &[f64],
    out: &mut [f64],
) {
    match shares {
        [] => return idle_node_powers_into(board, freqs, temps, out),
        [s] => {
            return node_powers_into(
                board, s.mapping, freqs, s.cpu_busy, s.gpu_busy, s.activity, temps, out,
            )
        }
        _ => {}
    }
    assert_eq!(
        temps.len(),
        board.thermal.len(),
        "temperature vector length"
    );
    assert_eq!(out.len(), board.thermal.len(), "power vector length");
    out.fill(0.0);

    // Big cluster: per-app dynamic power on each app's granted cores,
    // leakage + uncore once for the union.
    let total_big: u32 = shares.iter().map(|s| s.mapping.big).sum();
    debug_assert!(total_big <= board.big_power.cores, "big cluster oversold");
    let big_volts = board.big_opps.volts_at(freqs.big);
    let big_hz = freqs.big.as_hz();
    out[board.nodes.big] = if total_big == 0 {
        board
            .big_power
            .total_w(big_volts, big_hz, 0, 0.03, 1.0, temps[board.nodes.big])
    } else {
        let mut w = board
            .big_power
            .leakage_w(big_volts, temps[board.nodes.big], total_big)
            + board.big_power.uncore_power_w(total_big);
        for s in shares {
            let util = if s.cpu_busy && s.mapping.big > 0 {
                1.0
            } else {
                0.03
            };
            w += board
                .big_power
                .dynamic_w(big_volts, big_hz, s.mapping.big, util, s.activity);
        }
        w
    };

    // LITTLE cluster: same superposition; the OS keeps one core online
    // even when no app maps any.
    let total_little: u32 = shares.iter().map(|s| s.mapping.little).sum();
    debug_assert!(
        total_little <= board.little_power.cores,
        "LITTLE cluster oversold"
    );
    let little_volts = board.little_opps.volts_at(freqs.little);
    let little_hz = freqs.little.as_hz();
    out[board.nodes.little] = if total_little == 0 {
        board.little_power.total_w(
            little_volts,
            little_hz,
            1,
            0.08,
            1.0,
            temps[board.nodes.little],
        )
    } else {
        let mut w =
            board
                .little_power
                .leakage_w(little_volts, temps[board.nodes.little], total_little)
                + board.little_power.uncore_power_w(total_little);
        for s in shares {
            let util = if s.cpu_busy && s.mapping.little > 0 {
                1.0
            } else {
                0.08
            };
            w += board.little_power.dynamic_w(
                little_volts,
                little_hz,
                s.mapping.little,
                util,
                s.activity,
            );
        }
        w
    };

    // GPU: one time-shared device — busy while any app's GPU share runs,
    // at the sharers' mean activity.
    assert!(
        board.gpu_shaders <= board.gpu_power.cores,
        "board.gpu_shaders ({}) exceeds the GPU power domain's cores ({})",
        board.gpu_shaders,
        board.gpu_power.cores
    );
    let gpu_users = shares.iter().filter(|s| s.gpu_busy).count();
    let (gpu_util, gpu_activity) = if gpu_users > 0 {
        let mean = shares
            .iter()
            .filter(|s| s.gpu_busy)
            .map(|s| s.activity)
            .sum::<f64>()
            / gpu_users as f64;
        (1.0, mean)
    } else {
        let mean = shares.iter().map(|s| s.activity).sum::<f64>() / shares.len() as f64;
        (0.02, mean)
    };
    out[board.nodes.gpu] = board.gpu_power.total_w(
        board.gpu_opps.volts_at(freqs.gpu),
        freqs.gpu.as_hz(),
        board.gpu_shaders,
        gpu_util,
        gpu_activity,
        temps[board.nodes.gpu],
    );

    out[board.nodes.board] = board.board_base_w;
}

/// Writes each co-running share's attributable *dynamic* power draw,
/// watts, into `out` (cleared and refilled to `shares.len()`; reuse one
/// buffer with reserved capacity to keep the caller's step loop
/// allocation-free).
///
/// This is the attribution key for splitting a co-run step's total
/// energy between the active apps: dynamic power is the part of the
/// draw an individual app *causes* (its cores, its utilisation, its
/// switching activity — the GPU's dynamic draw divided evenly among the
/// apps time-sharing it), while leakage, uncore and board overhead are
/// domain properties no single app owns and follow the dynamic weights
/// proportionally. Weights can legitimately all be zero (every share
/// idle on every device); callers should fall back to an equal split.
pub fn co_run_dynamic_weights(
    board: &Board,
    shares: &[CoRunShare],
    freqs: ClusterFreqs,
    out: &mut Vec<f64>,
) {
    out.clear();
    let big_volts = board.big_opps.volts_at(freqs.big);
    let big_hz = freqs.big.as_hz();
    let little_volts = board.little_opps.volts_at(freqs.little);
    let little_hz = freqs.little.as_hz();
    let gpu_volts = board.gpu_opps.volts_at(freqs.gpu);
    let gpu_hz = freqs.gpu.as_hz();
    let gpu_users = shares.iter().filter(|s| s.gpu_busy).count();
    for s in shares {
        let big_util = if s.cpu_busy && s.mapping.big > 0 {
            1.0
        } else {
            0.03
        };
        let little_util = if s.cpu_busy && s.mapping.little > 0 {
            1.0
        } else {
            0.08
        };
        let mut w =
            board
                .big_power
                .dynamic_w(big_volts, big_hz, s.mapping.big, big_util, s.activity)
                + board.little_power.dynamic_w(
                    little_volts,
                    little_hz,
                    s.mapping.little,
                    little_util,
                    s.activity,
                );
        if s.gpu_busy {
            w += board
                .gpu_power
                .dynamic_w(gpu_volts, gpu_hz, board.gpu_shaders, 1.0, s.activity)
                / gpu_users as f64;
        }
        out.push(w);
    }
}

/// Writes the node power vector for a power-collapsed board into `out`:
/// every cluster gated (no dynamic or uncore power, leakage at the
/// fully-gated floor at the minimum-OPP voltage), only the board-level
/// overhead still drawn. What [`IdlePolicy::TimeoutCollapse`] dissipates
/// once its timeout fires.
///
/// # Panics
///
/// Panics if `temps.len()` or `out.len()` differ from
/// `board.thermal.len()`.
pub fn collapsed_node_powers_into(board: &Board, temps: &[f64], out: &mut [f64]) {
    assert_eq!(
        temps.len(),
        board.thermal.len(),
        "temperature vector length"
    );
    assert_eq!(out.len(), board.thermal.len(), "power vector length");
    out.fill(0.0);
    let f = ClusterFreqs::min_of(board);
    out[board.nodes.big] =
        board
            .big_power
            .leakage_w(board.big_opps.volts_at(f.big), temps[board.nodes.big], 0);
    out[board.nodes.little] = board.little_power.leakage_w(
        board.little_opps.volts_at(f.little),
        temps[board.nodes.little],
        0,
    );
    out[board.nodes.gpu] =
        board
            .gpu_power
            .leakage_w(board.gpu_opps.volts_at(f.gpu), temps[board.nodes.gpu], 0);
    out[board.nodes.board] = board.board_base_w;
}

/// What [`fast_forward_gap`] dissipates during the span it advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapPower {
    /// Idle floor: every cluster at the given frequencies with no
    /// application mapped ([`idle_node_powers_into`]).
    Idle(ClusterFreqs),
    /// Power-collapsed clusters ([`collapsed_node_powers_into`]) — the
    /// regime after [`IdlePolicy::TimeoutCollapse`] fires.
    Collapsed,
}

/// What one [`fast_forward_gap`] call covered.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GapAdvance {
    /// Total energy drawn across the span, joules.
    pub energy_j: f64,
    /// Closed-form segments taken (each one `cool_to` call).
    pub segments: u32,
}

/// Maximum temperature movement per re-linearisation segment of
/// [`fast_forward_gap`], °C. Leakage is the only temperature-dependent
/// term of the idle power model (≈ 4.5 %/°C), so freezing the power
/// vector across a ≤ 0.5 °C slide mis-estimates the leakage watts of
/// that segment by ≲ 2 % — the documented gap tolerance, pinned
/// empirically by the property tests against brute-force stepping.
pub const GAP_SEGMENT_DELTA_C: f64 = 0.5;

/// Advances the board across an all-idle gap in closed form: `O(events)`
/// work for a span of any length, versus `O(span/dt)` for stepping.
///
/// During a gap the thermal network is a linear decay toward the
/// steady state of the (nearly constant) idle power — exactly the
/// regime where the spectral solution
/// ([`cool_to`](crate::thermal::ThermalModel::cool_to)) is exact. The
/// one nonlinearity left is leakage's exponential temperature
/// dependence, so the span is split into segments sized such that no
/// node is predicted to move more than [`GAP_SEGMENT_DELTA_C`] per
/// segment, with the power vector re-evaluated at each segment start
/// (frozen-power re-linearisation). Once the state is within one delta
/// of the idle steady state the remainder of the span — hours, days —
/// is a single segment. Segment count is therefore bounded by the
/// cooling distance, not the span length.
///
/// Energy is integrated exactly under the frozen-power approximation:
/// each segment contributes `ΣᵢPᵢ · L` joules, accumulated per node
/// into `energy_by_node_j` (same indexing as [`Board::nodes`]).
///
/// The caller owns every other piece of gap semantics: choosing the
/// horizon (next event), switching `power` from [`GapPower::Idle`] to
/// [`GapPower::Collapsed`] at the collapse instant by calling this
/// twice, sensor-noise stream catch-up, and trace sampling.
///
/// # Panics
///
/// Panics if `span_s < 0`, `ambient_c` is implausible, or
/// `energy_by_node_j.len() != board.thermal.len()`.
pub fn fast_forward_gap(
    board: &mut Board,
    power: GapPower,
    span_s: f64,
    ambient_c: f64,
    scratch: &mut StepScratch,
    energy_by_node_j: &mut [f64],
) -> GapAdvance {
    assert!(span_s >= 0.0, "negative gap span");
    assert_eq!(
        energy_by_node_j.len(),
        board.thermal.len(),
        "energy vector length"
    );
    let mut adv = GapAdvance::default();
    if span_s == 0.0 {
        board.thermal.set_ambient_c(ambient_c);
        return adv;
    }
    let lambda_max = board.thermal.fastest_cooling_rate();
    let mut remaining = span_s;
    // Relative epsilon, as ThermalModel::step: float residue from
    // repeated subtraction must not schedule a denormal extra segment.
    let eps = span_s * 1e-9;
    while remaining > eps {
        // Freeze the power vector at the segment-start temperatures.
        scratch.temps.copy_from_slice(board.thermal.temps());
        match power {
            GapPower::Idle(freqs) => {
                idle_node_powers_into(board, freqs, &scratch.temps, &mut scratch.power);
            }
            GapPower::Collapsed => {
                collapsed_node_powers_into(board, &scratch.temps, &mut scratch.power);
            }
        }
        // Distance to the steady state this frozen power decays toward
        // (solved into `scratch.temps`, free now the power is frozen).
        let seg = if lambda_max > 0.0 {
            board
                .thermal
                .steady_state_into(&scratch.power, &mut scratch.temps);
            let dist = board
                .thermal
                .temps()
                .iter()
                .zip(&scratch.temps)
                .map(|(&t, &s)| (t - s).abs())
                .fold(0.0_f64, f64::max);
            if dist <= GAP_SEGMENT_DELTA_C {
                // Within one delta of equilibrium: the rest of the gap
                // moves less than the per-segment budget — take it all.
                remaining
            } else {
                // Longest span over which the fastest mode's decay keeps
                // the predicted movement under the budget.
                let l = (dist / (dist - GAP_SEGMENT_DELTA_C)).ln() / lambda_max;
                l.min(remaining)
            }
        } else {
            // Degenerate ambient-isolated network (tests only): nothing
            // decays, one frozen-power segment is as good as many.
            remaining
        };
        board.thermal.cool_to(seg, ambient_c, &scratch.power);
        for (e, &p) in energy_by_node_j.iter_mut().zip(&scratch.power) {
            *e += p * seg;
        }
        adv.energy_j += scratch.power.iter().sum::<f64>() * seg;
        adv.segments += 1;
        remaining -= seg;
    }
    scratch.obs.gap_segments += u64::from(adv.segments);
    adv
}

/// The per-core hotspot powers [`SocStepper::read_sensors`] feeds the
/// sensor bank: each of the `mapping.big` active big cores draws one
/// core's dynamic power plus an even split of the cluster leakage at
/// `big_c`. Exposed so the lockstep pool can queue lanes into a
/// [`SensorSweep`](crate::SensorSweep) with the identical inputs.
pub fn big_core_hotspot_powers(
    board: &Board,
    big_c: f64,
    mapping: CpuMapping,
    freqs: ClusterFreqs,
    cpu_busy: bool,
    activity: f64,
) -> [f64; 4] {
    let active = mapping.big;
    let mut core_power = [0.0_f64; 4];
    if active > 0 {
        let volts = board.big_opps.volts_at(freqs.big);
        let util = if cpu_busy { 1.0 } else { 0.03 };
        let dyn_core = board
            .big_power
            .dynamic_w(volts, freqs.big.as_hz(), 1, util, activity);
        let leak_core = board.big_power.leakage_w(volts, big_c, active) / f64::from(active);
        for slot in core_power.iter_mut().take(active as usize) {
            *slot = dyn_core + leak_core;
        }
    }
    core_power
}

/// The operating-point factors of [`big_core_hotspot_powers`] with
/// everything but the node temperature folded: per-core dynamic power,
/// the leakage voltage prefactor, the gating fraction and the leakage
/// temperature curve. The lockstep pool rebuilds one per lane whenever
/// the frequencies or busy flags change (the only inputs the factors
/// depend on), so the per-sample hotspot split collapses to one
/// exponential in the node temperature — evaluated through
/// [`exp_exact`](crate::exp_exact), which returns `f64::exp`'s bits,
/// so [`HotspotSplit::eval`] is bit-identical to the scalar call.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotspotSplit {
    active: u32,
    dyn_core: f64,
    leak_vv: f64,
    gate: f64,
    alpha: f64,
    ref_c: f64,
}

impl HotspotSplit {
    /// Folds the temperature-independent factors for one operating
    /// point (same inputs as [`big_core_hotspot_powers`] minus the
    /// temperature).
    pub fn fold(
        board: &Board,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        activity: f64,
    ) -> Self {
        let active = mapping.big;
        if active == 0 {
            return HotspotSplit::default();
        }
        let volts = board.big_opps.volts_at(freqs.big);
        let util = if cpu_busy { 1.0 } else { 0.03 };
        HotspotSplit {
            active,
            dyn_core: board
                .big_power
                .dynamic_w(volts, freqs.big.as_hz(), 1, util, activity),
            // The scalar chain is (((scale·v)·v)·e)·gate — fold the
            // left prefix so the association (and the bits) survive.
            leak_vv: board.big_power.leak_scale_w * volts * volts,
            gate: 0.25 + 0.75 * f64::from(active) / f64::from(board.big_power.cores),
            alpha: board.big_power.leak_alpha,
            ref_c: board.big_power.leak_ref_c,
        }
    }

    /// Evaluates the split at `big_c` — bit-identical to
    /// [`big_core_hotspot_powers`] with the inputs this split was
    /// folded from.
    #[inline]
    pub fn eval(&self, big_c: f64) -> [f64; 4] {
        let mut core_power = [0.0_f64; 4];
        if self.active > 0 {
            let e = crate::fastexp::exp_exact(self.alpha * (big_c - self.ref_c));
            let leak_core = self.leak_vv * e * self.gate / f64::from(self.active);
            for slot in core_power.iter_mut().take(self.active as usize) {
                *slot = self.dyn_core + leak_core;
            }
        }
        core_power
    }
}

/// Clamps every requested frequency to its cluster's OPP table
/// (`at_or_below`, as the kernel's cpufreq layer does).
pub fn clamp_freqs(board: &Board, f: ClusterFreqs) -> ClusterFreqs {
    ClusterFreqs {
        big: board.big_opps.at_or_below(f.big).freq,
        little: board.little_opps.at_or_below(f.little).freq,
        gpu: board.gpu_opps.at_or_below(f.gpu).freq,
    }
}

fn progress(done: f64, total: f64) -> f64 {
    if total <= 0.0 {
        1.0
    } else {
        (done / total).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial manager that pins all clusters at maximum.
    struct PinMax;

    impl Manager for PinMax {
        fn name(&self) -> &str {
            "pin-max"
        }

        fn control(&mut self, view: &SocView, ctl: &mut SocControl) {
            let _ = view;
            ctl.set_big_freq(MHz(2000));
            ctl.set_little_freq(MHz(1400));
            ctl.set_gpu_freq(MHz(600));
        }
    }

    /// A manager that pins a fixed big frequency (userspace-like).
    struct PinBig(MHz);

    impl Manager for PinBig {
        fn name(&self) -> &str {
            "pin-big"
        }

        fn control(&mut self, _view: &SocView, ctl: &mut SocControl) {
            ctl.set_big_freq(self.0);
        }
    }

    fn cv_spec() -> RunSpec {
        RunSpec {
            app: App::Covariance,
            mapping: CpuMapping::new(2, 3),
            partition: Partition::even(),
            initial: ClusterFreqs {
                big: MHz(2000),
                little: MHz(1400),
                gpu: MHz(600),
            },
        }
    }

    #[test]
    fn run_completes_and_reports() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let mut mgr = PinMax;
        let r = sim.run(&mut mgr);
        assert!(!r.timed_out, "run timed out");
        assert!(
            r.summary.execution_time_s > 5.0,
            "{}",
            r.summary.execution_time_s
        );
        assert!(r.summary.execution_time_s < 200.0);
        assert!(r.summary.energy_j > 50.0);
        assert!(r.summary.peak_temp_c > 70.0);
        assert_eq!(r.summary.approach, "pin-max");
        assert_eq!(r.summary.app, "COVARIANCE");
        // Energy breakdown sums to the run's total.
        let (b, l, g, bo) = r.energy_breakdown_j;
        assert!((b + l + g + bo - r.summary.energy_j).abs() < 1.0);
    }

    #[test]
    fn max_frequency_run_trips_the_stock_zone() {
        // The Fig. 1(a) phenomenon: pinned at 2 GHz, COVARIANCE must reach
        // the 95 C trip and throttle at least once.
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let r = sim.run(&mut PinMax);
        assert!(r.zone_trips >= 1, "no thermal trip at max frequency");
        assert!(
            r.summary.peak_temp_c >= 95.0,
            "peak {}",
            r.summary.peak_temp_c
        );
        // Frequency trace must show the 900 MHz cap.
        let fmin = r.trace.stats("freq.big").unwrap().min();
        assert_eq!(fmin, 900.0);
    }

    #[test]
    fn mid_frequency_run_stays_below_trip() {
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), cv_spec());
        let r = sim.run(&mut PinBig(MHz(1400)));
        assert_eq!(r.zone_trips, 0, "unexpected trip at 1400 MHz");
        assert!(
            r.summary.peak_temp_c < 95.0,
            "peak {}",
            r.summary.peak_temp_c
        );
    }

    #[test]
    fn lower_frequency_is_slower() {
        let mut fast =
            Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).with_thermal_zone(None);
        let et_fast = fast.run(&mut PinBig(MHz(2000))).summary.execution_time_s;
        let mut slow =
            Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).with_thermal_zone(None);
        let et_slow = slow.run(&mut PinBig(MHz(1000))).summary.execution_time_s;
        assert!(et_slow > et_fast, "{et_slow} <= {et_fast}");
    }

    #[test]
    fn gpu_only_spec_ignores_cpu() {
        let spec = RunSpec {
            mapping: CpuMapping::new(0, 0),
            partition: Partition::all_gpu(),
            ..cv_spec()
        };
        let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
        let r = sim.run(&mut PinBig(MHz(2000)));
        assert!(!r.timed_out);
        // Big cluster idles: far less energy in the big domain than a
        // CPU-involved run.
        let (big_j, _, gpu_j, _) = r.energy_breakdown_j;
        assert!(gpu_j > big_j, "gpu {gpu_j} J vs big {big_j} J");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = Simulation::new(Board::odroid_xu4(), cv_spec());
            sim.run(&mut PinMax).summary
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn soccontrol_reports_all_three_requests() {
        let mut ctl = SocControl::default();
        assert_eq!(ctl.big_request(), None);
        assert_eq!(ctl.little_request(), None);
        assert_eq!(ctl.gpu_request(), None);
        ctl.set_big_freq(MHz(1800));
        ctl.set_little_freq(MHz(1200));
        ctl.set_gpu_freq(MHz(480));
        assert_eq!(ctl.big_request(), Some(MHz(1800)));
        assert_eq!(ctl.little_request(), Some(MHz(1200)));
        assert_eq!(ctl.gpu_request(), Some(MHz(480)));
    }

    #[test]
    fn shared_power_model_matches_engine_path() {
        // The extracted helper must agree with what a busy run injects.
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(1600),
            little: MHz(1400),
            gpu: MHz(600),
        };
        let temps = vec![70.0; board.thermal.len()];
        let chars = App::Covariance.characteristics();
        let mut busy = vec![0.0; board.thermal.len()];
        node_powers_into(
            &board,
            CpuMapping::new(2, 3),
            freqs,
            true,
            true,
            chars.activity,
            &temps,
            &mut busy,
        );
        let idle = idle_node_powers(&board, ClusterFreqs::min_of(&board), &temps);
        assert_eq!(busy.len(), board.thermal.len());
        // Busy dominates idle on every active silicon node.
        assert!(busy[board.nodes.big] > idle[board.nodes.big] * 3.0);
        assert!(busy[board.nodes.gpu] > idle[board.nodes.gpu] * 3.0);
        // Board overhead is load-independent.
        assert_eq!(busy[board.nodes.board], idle[board.nodes.board]);
    }

    #[test]
    fn co_run_with_one_share_is_bit_identical_to_single_app() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let freqs = ClusterFreqs {
            big: MHz(1800),
            little: MHz(1400),
            gpu: MHz(543),
        };
        let temps = [81.5, 60.25, 72.125, 45.0];
        let mut a = vec![0.0; board.thermal.len()];
        let mut b = vec![0.0; board.thermal.len()];
        for &(cpu_busy, gpu_busy) in &[(true, true), (true, false), (false, true), (false, false)] {
            node_powers_into(
                &board,
                CpuMapping::new(2, 3),
                freqs,
                cpu_busy,
                gpu_busy,
                chars.activity,
                &temps,
                &mut a,
            );
            co_run_node_powers_into(
                &board,
                &[CoRunShare {
                    mapping: CpuMapping::new(2, 3),
                    cpu_busy,
                    gpu_busy,
                    activity: chars.activity,
                }],
                freqs,
                &temps,
                &mut b,
            );
            assert_eq!(a, b, "single-share delegation busy=({cpu_busy},{gpu_busy})");
        }
        // Zero shares: the idle model.
        idle_node_powers_into(&board, freqs, &temps, &mut a);
        co_run_node_powers_into(&board, &[], freqs, &temps, &mut b);
        assert_eq!(a, b, "empty-share delegation");
    }

    #[test]
    fn co_run_superposition_is_bounded_by_solo_runs() {
        // Two apps on disjoint big cores draw more than either alone but
        // less than the sum of their solo draws (leakage, uncore and the
        // GPU are shared, not duplicated).
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(2000),
            little: MHz(1400),
            gpu: MHz(600),
        };
        let temps = vec![75.0; board.thermal.len()];
        let a = CoRunShare {
            mapping: CpuMapping::new(2, 2),
            cpu_busy: true,
            gpu_busy: true,
            activity: 1.0,
        };
        let b = CoRunShare {
            mapping: CpuMapping::new(2, 2),
            cpu_busy: true,
            gpu_busy: true,
            activity: 0.65,
        };
        let mut solo_a = vec![0.0; board.thermal.len()];
        let mut solo_b = vec![0.0; board.thermal.len()];
        let mut both = vec![0.0; board.thermal.len()];
        co_run_node_powers_into(&board, &[a], freqs, &temps, &mut solo_a);
        co_run_node_powers_into(&board, &[b], freqs, &temps, &mut solo_b);
        co_run_node_powers_into(&board, &[a, b], freqs, &temps, &mut both);
        let (sa, sb, sc): (f64, f64, f64) =
            (solo_a.iter().sum(), solo_b.iter().sum(), both.iter().sum());
        assert!(sc > sa && sc > sb, "co-run draws more than either solo");
        assert!(sc < sa + sb, "shared leakage/uncore/GPU not double-charged");
        // The big-domain dynamic power superposes: 4 busy cores' worth.
        let mut four = vec![0.0; board.thermal.len()];
        co_run_node_powers_into(
            &board,
            &[CoRunShare {
                mapping: CpuMapping::new(4, 4),
                cpu_busy: true,
                gpu_busy: true,
                activity: 1.0,
            }],
            freqs,
            &temps,
            &mut four,
        );
        assert!(both[board.nodes.big] <= four[board.nodes.big] + 1e-9);
    }

    #[test]
    fn co_run_dynamic_weights_track_cause_not_headcount() {
        let board = Board::odroid_xu4_ideal();
        let freqs = ClusterFreqs {
            big: MHz(1800),
            little: MHz(1400),
            gpu: MHz(543),
        };
        let share = |big: u32, gpu_busy: bool, activity: f64| CoRunShare {
            mapping: CpuMapping::new(1, big),
            cpu_busy: true,
            gpu_busy,
            activity,
        };
        let mut w = Vec::new();

        // Same cores, higher activity: strictly heavier weight.
        co_run_dynamic_weights(
            &board,
            &[share(2, false, 1.0), share(2, false, 0.65)],
            freqs,
            &mut w,
        );
        assert_eq!(w.len(), 2);
        assert!(w[0] > w[1], "activity 1.0 must outweigh 0.65: {w:?}");

        // The GPU's dynamic draw splits evenly across its sharers.
        co_run_dynamic_weights(
            &board,
            &[share(0, true, 1.0), share(0, true, 1.0)],
            freqs,
            &mut w,
        );
        assert!((w[0] - w[1]).abs() < 1e-12, "equal sharers, equal weight");
        let both = w[0];
        co_run_dynamic_weights(
            &board,
            &[share(0, true, 1.0), share(0, false, 1.0)],
            freqs,
            &mut w,
        );
        assert!(
            w[0] > both,
            "a lone GPU user owns the whole device's dynamic draw"
        );

        // All-idle shares: weights collapse to (near) zero on the CPU
        // side only via the util floors — a fully coreless idle share is
        // exactly zero, the caller's equal-split fallback case.
        co_run_dynamic_weights(
            &board,
            &[
                CoRunShare {
                    mapping: CpuMapping::new(0, 0),
                    cpu_busy: false,
                    gpu_busy: false,
                    activity: 1.0,
                },
                CoRunShare {
                    mapping: CpuMapping::new(0, 0),
                    cpu_busy: false,
                    gpu_busy: false,
                    activity: 1.0,
                },
            ],
            freqs,
            &mut w,
        );
        assert_eq!(w, vec![0.0, 0.0]);
    }

    #[test]
    fn collapsed_board_draws_less_than_race_to_idle() {
        let board = Board::odroid_xu4_ideal();
        let temps = vec![40.0; board.thermal.len()];
        let idle = idle_node_powers(&board, ClusterFreqs::min_of(&board), &temps);
        let mut collapsed = vec![0.0; board.thermal.len()];
        collapsed_node_powers_into(&board, &temps, &mut collapsed);
        let (pi, pc): (f64, f64) = (idle.iter().sum(), collapsed.iter().sum());
        assert!(pc < pi, "collapse must save power: {pc} vs {pi}");
        // Board overhead survives the collapse. The big cluster is
        // already fully gated when idle (no app maps it), so the savings
        // come from the LITTLE housekeeping core and the GPU's near-idle
        // clocking.
        assert_eq!(collapsed[board.nodes.board], board.board_base_w);
        assert_eq!(collapsed[board.nodes.big], idle[board.nodes.big]);
        assert!(collapsed[board.nodes.little] < idle[board.nodes.little]);
        assert!(collapsed[board.nodes.gpu] < idle[board.nodes.gpu]);
    }

    #[test]
    fn idle_policy_timeout_conversion() {
        assert_eq!(IdlePolicy::RaceToIdle.timeout_s(), None);
        assert_eq!(
            IdlePolicy::TimeoutCollapse { timeout_ms: 2500 }.timeout_s(),
            Some(2.5)
        );
        assert_eq!(SimConfig::default().idle_policy, IdlePolicy::RaceToIdle);
    }

    #[test]
    fn idle_board_cools_toward_ambient() {
        let mut board = Board::odroid_xu4_ideal();
        for i in 0..board.thermal.len() {
            board.thermal.set_temp(i, 85.0);
        }
        let freqs = ClusterFreqs::min_of(&board);
        // The board lump's time constant is minutes; integrate well past
        // it (temperature-dependent leakage keeps this a fixed point
        // iteration rather than one steady-state solve).
        for _ in 0..50 {
            let temps = board.thermal.temps().to_vec();
            let p = idle_node_powers(&board, freqs, &temps);
            board.thermal.step(60.0, &p);
        }
        // Idle dissipation is ~2.7 W: the die settles ~10 C over ambient.
        let big = board.thermal.temp(board.nodes.big);
        assert!(big < 38.0, "idle big node still at {big} C");
        assert!(big > board.thermal.ambient_c() - 1e-9);
    }

    #[test]
    fn timeout_is_reported() {
        let mut sim =
            Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).with_config(SimConfig {
                timeout_s: 1.0,
                ..SimConfig::default()
            });
        let r = sim.run(&mut PinMax);
        assert!(r.timed_out);
        assert!(r.summary.execution_time_s <= 1.0 + 0.011);
    }

    /// [`HotspotSplit::eval`] must reproduce [`big_core_hotspot_powers`]
    /// bit-for-bit at every operating point the lockstep pool can fold.
    #[test]
    fn hotspot_split_matches_scalar_bits() {
        let board = Board::odroid_xu4_ideal();
        for &big in &[MHz(200), MHz(900), MHz(1400), MHz(2000)] {
            for &active in &[0u32, 1, 2, 4] {
                for &cpu_busy in &[false, true] {
                    for &activity in &[0.0, 0.35, 1.0] {
                        let mapping = CpuMapping::new(4u32.saturating_sub(active), active);
                        let freqs = ClusterFreqs {
                            big,
                            little: MHz(1400),
                            gpu: MHz(600),
                        };
                        let split = HotspotSplit::fold(&board, mapping, freqs, cpu_busy, activity);
                        let mut t = 15.0;
                        while t <= 100.0 {
                            let want = big_core_hotspot_powers(
                                &board, t, mapping, freqs, cpu_busy, activity,
                            );
                            let got = split.eval(t);
                            for core in 0..4 {
                                assert_eq!(
                                    got[core].to_bits(),
                                    want[core].to_bits(),
                                    "core {core} at {t} C, big {big:?}, active {active}, \
                                     busy {cpu_busy}, activity {activity}"
                                );
                            }
                            t += 0.7;
                        }
                    }
                }
            }
        }
    }

    /// Records `view.power_w` at every control call.
    struct PowerProbe(Vec<(f64, f64)>);

    impl Manager for PowerProbe {
        fn name(&self) -> &str {
            "power-probe"
        }

        fn control(&mut self, view: &SocView, _ctl: &mut SocControl) {
            self.0.push((view.time_s, view.power_w));
        }
    }

    /// A manager sees the draw the trace records at the same instant —
    /// the last step's total, from the first control tick on.
    #[test]
    fn view_power_is_the_last_step_total() {
        let mut probe = PowerProbe(Vec::new());
        let r = Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).run(&mut probe);
        let recorded = r
            .trace
            .channel("power.total")
            .expect("power.total recorded");
        let mut matched = 0;
        for &(t, w) in &probe.0 {
            if let Some(s) = recorded.iter().find(|s| s.t == t) {
                assert_eq!(w.to_bits(), s.v.to_bits(), "power_w at t = {t}");
                matched += 1;
            }
        }
        assert!(
            matched > 100,
            "only {matched} control ticks matched a sample"
        );
        assert!(probe.0.iter().skip(1).all(|&(_, w)| w > 0.0));
    }

    /// Every timestamp a single run records, and its execution time, sit
    /// exactly on the step grid `k · dt` — the clock is derived from the
    /// step index, not accumulated.
    #[test]
    fn single_run_clock_is_index_derived() {
        let dt = SimConfig::default().dt_s;
        let on_grid = |t: f64| (t / dt).round() * dt == t;
        let r = Simulation::new(Board::odroid_xu4_ideal(), cv_spec()).run(&mut PinBig(MHz(1400)));
        assert!(
            on_grid(r.summary.execution_time_s),
            "{}",
            r.summary.execution_time_s
        );
        for name in TRACE_CHANNELS {
            let series = r.trace.channel(name).expect("channel recorded");
            for s in series.iter() {
                assert!(on_grid(s.t), "{name} sample at {} is off the grid", s.t);
            }
        }
    }

    /// Enabled timing clocks exactly the steps 0, stride, 2·stride, …;
    /// sample ticks keep their true share of the timed steps, and the
    /// exact counters are the same with timing on or off.
    #[test]
    fn step_timing_samples_one_step_per_stride() {
        const STEPS: u64 = 3000;
        let run = |enabled: bool| {
            let config = SimConfig::default();
            let mut soc = SocStepper::new(
                Board::odroid_xu4_ideal(),
                ThermalZone::disabled(),
                &config,
                cv_spec().initial,
            );
            soc.scratch.obs.enabled = enabled;
            let (mut timed, mut timed_samples, mut samples) = (0u64, 0u64, 0u64);
            for _ in 0..STEPS {
                let is_timed = soc.scratch.obs.clock().is_some();
                timed += u64::from(is_timed);
                if soc.sample_due() {
                    samples += 1;
                    timed_samples += u64::from(is_timed);
                    soc.sample(CpuMapping::new(2, 3), true, 1.0);
                }
                soc.advance(&[], false);
            }
            (soc.scratch.obs, timed, timed_samples, samples)
        };

        let (on, timed, timed_samples, samples) = run(true);
        assert_eq!(timed, STEPS.div_ceil(TIMING_STRIDE));
        let true_share = samples as f64 / STEPS as f64;
        assert!(
            (timed_samples as f64 - true_share * timed as f64).abs() <= 1.0,
            "{timed_samples} of {timed} timed steps are sample ticks; true share {true_share}"
        );

        let (off, untimed, _, _) = run(false);
        assert_eq!(untimed, 0);
        assert_eq!(off.power_ns + off.thermal_ns + off.sample_ns, 0);
        assert_eq!((on.steps, on.substeps), (STEPS, off.substeps));
        assert_eq!(off.steps, STEPS);
    }
}
