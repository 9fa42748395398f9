//! # teem-soc
//!
//! A behavioural simulator of the Odroid-XU4 / Samsung Exynos 5422 MPSoC —
//! the hardware substrate the TEEM paper evaluates on (§IV-A.1), rebuilt
//! in software because this reproduction has no board.
//!
//! The model covers exactly what TEEM and its baselines observe and
//! actuate:
//!
//! * per-cluster DVFS with the 5422's real OPP structure — 19 big OPPs
//!   (200–2000 MHz), 13 LITTLE (200–1400 MHz), 7 GPU ([`freq`]);
//! * CMOS dynamic power plus temperature-dependent leakage per cluster
//!   ([`power`]);
//! * a lumped RC thermal network with per-core TMU-style sensors and a
//!   hottest big core, as the paper observes on core-6 ([`thermal`],
//!   [`sensors`]);
//! * the kernel's reactive trip-point throttling (95 °C → 900 MHz)
//!   underneath every manager ([`ThermalZone`]);
//! * the timing model of the paper's equation (3) ([`perf`]) and a
//!   time-stepped engine that runs an application under a pluggable
//!   [`Manager`] and emits traces and run summaries. Single runs and the
//!   scenario executor step the board through one [`SocStepper`].
//!
//! # Examples
//!
//! Run COVARIANCE on 2L+3B + GPU at fixed maximum frequency and observe
//! the reactive throttling the paper's Fig. 1(a) shows:
//!
//! ```
//! use teem_soc::{Board, ClusterFreqs, CpuMapping, Manager, MHz, RunSpec, Simulation,
//!                SocControl, SocView};
//! use teem_workload::{App, Partition};
//!
//! struct PinMax;
//! impl Manager for PinMax {
//!     fn name(&self) -> &str { "pin-max" }
//!     fn control(&mut self, _v: &SocView, ctl: &mut SocControl) {
//!         ctl.set_big_freq(MHz(2000));
//!     }
//! }
//!
//! let spec = RunSpec {
//!     app: App::Covariance,
//!     mapping: CpuMapping::new(2, 3),
//!     partition: Partition::even(),
//!     initial: ClusterFreqs { big: MHz(2000), little: MHz(1400), gpu: MHz(600) },
//! };
//! let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
//! let result = sim.run(&mut PinMax);
//! assert!(result.zone_trips >= 1); // reactive throttling engaged
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
mod board;
mod engine;
pub mod fastexp;
pub mod freq;
pub mod perf;
pub mod power;
pub mod sensors;
pub mod simd;
pub mod thermal;
mod thermal_zone;

pub use batch::{BatchPowerModel, BatchScratch, NodePowerCoeffs, NodePowerModel, ThermalBatch};
pub use board::{Board, BoardSpec, ThermalNodes};
pub use engine::{
    big_core_hotspot_powers, clamp_freqs, co_run_dynamic_weights, co_run_node_powers_into,
    collapsed_node_powers_into, deadline_due, fast_forward_gap, idle_node_powers,
    idle_node_powers_into, node_powers_into, ClusterFreqs, CoRunShare, GapAdvance, GapPower,
    HotspotSplit, IdlePolicy, JobState, Manager, RunResult, RunSpec, SimConfig, Simulation,
    SocControl, SocStepper, SocView, StepObs, StepScratch, TimeAdvance, GAP_SEGMENT_DELTA_C,
    TIMING_STRIDE,
};
pub use fastexp::{exp_exact, exp_exact4, exp_exact_block};
pub use freq::{MHz, Opp, OppTable};
pub use perf::CpuMapping;
pub use power::{PowerBreakdown, PowerParams};
pub use sensors::{read_lanes_with_hotspots, SensorBank, SensorReadings, SensorSweep};
pub use simd::{F64xN, LANES};
pub use thermal::{ThermalModel, ThermalModelBuilder};
pub use thermal_zone::ThermalZone;
