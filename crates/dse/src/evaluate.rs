//! Design-point evaluation (§III-A.2): given an application and a design
//! point, produce execution time, average/peak temperature and energy.
//!
//! Two evaluators are provided:
//!
//! * [`predict`] — a fast analytic evaluation combining the timing model
//!   of eq. (3), the cluster power model and the thermal network's
//!   steady state. This is what makes sweeping thousands of design
//!   points tractable, exactly as the paper's offline phase needs: the
//!   regression observations, EEMP's table and RMP's search all use it.
//!   It assumes no reactive throttling (valid for the sub-trip operating
//!   points the offline phase cares about). [`Evaluator`] is the same
//!   evaluation for many partitions of one operating point.
//! * [`simulate`] — a full engine run with the frequencies pinned
//!   (userspace governor) and the stock thermal zone armed. Slower,
//!   captures transients and throttling; used for validating `predict`.

use crate::design_point::{DesignPoint, DesignPointEval};
use teem_governors::Userspace;
use teem_soc::sensors::{BIG_CORE_OFFSETS_C, CORE_HOTSPOT_C_PER_W};
use teem_soc::{
    big_core_hotspot_powers, perf, Board, ClusterFreqs, CpuMapping, NodePowerModel, RunSpec,
    Simulation,
};
use teem_workload::{App, KernelCharacteristics, Partition};

/// Hottest big-core sensor offset (core-6 in board numbering).
fn max_big_offset() -> f64 {
    BIG_CORE_OFFSETS_C
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Analytic evaluation of a design point: eq. (3) timing + steady-state
/// thermals + piecewise energy.
///
/// The run has two phases: both devices busy until the faster one
/// finishes its share, then the slower device alone. Power and
/// steady-state temperatures are evaluated per phase with one
/// leakage/temperature fixed-point iteration.
pub fn predict(board: &Board, chars: &KernelCharacteristics, dp: &DesignPoint) -> DesignPointEval {
    Evaluator::new(board, chars, dp.mapping, dp.freqs).eval(dp.partition)
}

/// Ceiling for the leakage/temperature fixed point. Operating points
/// whose self-consistent temperature exceeds this are thermally unstable
/// (leakage feedback outruns conduction — a real phenomenon for 4×A15 at
/// 2 GHz); on hardware the reactive trip catches them, and the offline
/// phase reports them capped here.
pub const RUNAWAY_CAP_C: f64 = 125.0;

/// The solved steady state of one run phase.
#[derive(Debug, Clone, Copy)]
struct Phase {
    total_w: f64,
    big_c: f64,
    gpu_c: f64,
}

/// [`predict`] for one operating point — an application on a board at a
/// fixed CPU mapping and cluster frequencies — over any number of work
/// partitions.
///
/// A phase's power and temperatures depend on which devices are busy,
/// not on the partition, and only three phases exist: both devices busy,
/// CPU alone, GPU alone. The evaluator solves each at most once, on
/// first use, so evaluating every partition of an operating point costs
/// at most three leakage/temperature fixed points. Results are
/// bit-identical to [`predict`], which is `Evaluator::new(..).eval(..)`.
#[derive(Debug)]
pub struct Evaluator<'a> {
    board: &'a Board,
    chars: &'a KernelCharacteristics,
    mapping: CpuMapping,
    freqs: ClusterFreqs,
    cpu_rate: f64,
    gpu_rate: f64,
    /// Indexed as [`Evaluator::slot`].
    phases: [Option<Phase>; 3],
    powers: Vec<f64>,
    temps: Vec<f64>,
    next: Vec<f64>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator for `chars` on `board` at `mapping` and `freqs`.
    pub fn new(
        board: &'a Board,
        chars: &'a KernelCharacteristics,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
    ) -> Self {
        let n = board.thermal.len();
        Evaluator {
            board,
            chars,
            mapping,
            freqs,
            cpu_rate: perf::cpu_rate(chars, mapping, freqs.big, freqs.little).max(1e-9),
            gpu_rate: perf::gpu_rate(chars, freqs.gpu).max(1e-9),
            phases: [None; 3],
            powers: vec![0.0; n],
            temps: vec![0.0; n],
            next: vec![0.0; n],
        }
    }

    /// Evaluates the operating point with the work split `partition`.
    pub fn eval(&mut self, partition: Partition) -> DesignPointEval {
        let wg = partition.cpu_fraction();
        let items = self.chars.items as f64;
        let cpu_share_et = if wg > 0.0 && !self.mapping.is_empty() {
            wg * items / self.cpu_rate
        } else if wg > 0.0 {
            // CPU work assigned but no CPU cores: never finishes.
            f64::INFINITY
        } else {
            0.0
        };
        let gpu_share_et = (1.0 - wg) * items / self.gpu_rate;
        let et = cpu_share_et.max(gpu_share_et);
        if !et.is_finite() {
            return DesignPointEval {
                et_s: f64::INFINITY,
                avg_temp_c: f64::INFINITY,
                peak_temp_c: f64::INFINITY,
                energy_j: f64::INFINITY,
            };
        }
        let overlap = cpu_share_et.min(gpu_share_et);
        let tail = et - overlap;
        let cpu_busy_tail = cpu_share_et > gpu_share_et;

        // Phase A: both busy; phase B: only the slower device.
        let a = self.phase(true, true);
        let b = if tail > 0.0 {
            self.phase(cpu_busy_tail, !cpu_busy_tail)
        } else {
            a
        };

        let energy = a.total_w * overlap + b.total_w * tail;
        let (hot_a, hot_b) = (self.hot(a, true), self.hot(b, cpu_busy_tail));
        let avg_temp = if et > 0.0 {
            (hot_a * overlap + hot_b * tail) / et
        } else {
            hot_a
        };
        DesignPointEval {
            et_s: et,
            avg_temp_c: avg_temp,
            peak_temp_c: hot_a.max(hot_b),
            energy_j: energy,
        }
    }

    /// The hottest sensor a phase shows: the big node plus the hotspot
    /// and offset of its hottest core, or the GPU node if hotter.
    fn hot(&self, phase: Phase, cpu_busy: bool) -> f64 {
        // Every active big core draws the same power; the first is the
        // hotspot driver the per-core sensors see.
        let core_w = big_core_hotspot_powers(
            self.board,
            phase.big_c,
            self.mapping,
            self.freqs,
            cpu_busy,
            self.chars.activity,
        )[0];
        let hotspot = CORE_HOTSPOT_C_PER_W * core_w;
        (phase.big_c + hotspot + max_big_offset()).max(phase.gpu_c)
    }

    /// The memo slot of a phase: both busy, CPU alone, GPU alone.
    fn slot(cpu_busy: bool, gpu_busy: bool) -> usize {
        match (cpu_busy, gpu_busy) {
            (true, true) => 0,
            (true, false) => 1,
            _ => 2,
        }
    }

    /// Power and steady-state temperatures for one phase, solved once as
    /// a damped leakage/temperature fixed point (leakage depends on
    /// temperature, temperature on power).
    fn phase(&mut self, cpu_busy: bool, gpu_busy: bool) -> Phase {
        let slot = Self::slot(cpu_busy, gpu_busy);
        if let Some(phase) = self.phases[slot] {
            return phase;
        }
        let board = self.board;
        let model = NodePowerModel::single_app(
            board,
            self.mapping,
            self.freqs,
            cpu_busy,
            gpu_busy,
            self.chars.activity,
        );
        let ambient = board.thermal.ambient_c();
        self.temps.fill(70.0);
        for _ in 0..40 {
            model.eval_into(&self.temps, &mut self.powers);
            board
                .thermal
                .steady_state_into(&self.powers, &mut self.next);
            let mut delta = 0.0_f64;
            for (t, n) in self.temps.iter_mut().zip(&self.next) {
                // 0.5 damping keeps thermally-unstable points from
                // oscillating/diverging; the cap marks them as runaway.
                let target = (0.5 * *t + 0.5 * n).clamp(ambient, RUNAWAY_CAP_C);
                delta = delta.max((target - *t).abs());
                *t = target;
            }
            if delta < 0.01 {
                break;
            }
        }
        let phase = Phase {
            total_w: self.powers.iter().sum(),
            big_c: self.temps[board.nodes.big],
            gpu_c: self.temps[board.nodes.gpu],
        };
        self.phases[slot] = Some(phase);
        phase
    }
}

/// Full-engine evaluation: pins the design point's frequencies with a
/// userspace governor and runs the application to completion on a fresh
/// XU4 board (stock thermal zone armed).
pub fn simulate(app: App, dp: &DesignPoint) -> DesignPointEval {
    let spec = RunSpec {
        app,
        mapping: dp.mapping,
        partition: dp.partition,
        initial: dp.freqs,
    };
    let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
    let result = sim.run(&mut Userspace::new(dp.freqs));
    DesignPointEval {
        et_s: result.summary.execution_time_s,
        avg_temp_c: result.summary.avg_temp_c,
        peak_temp_c: result.summary.peak_temp_c,
        energy_j: result.summary.energy_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_soc::{ClusterFreqs, CpuMapping, MHz};
    use teem_workload::Partition;

    fn dp(big: u32, partition: Partition) -> DesignPoint {
        DesignPoint {
            mapping: CpuMapping::new(2, 3),
            freqs: ClusterFreqs {
                big: MHz(big),
                little: MHz(1400),
                gpu: MHz(600),
            },
            partition,
        }
    }

    #[test]
    fn predict_is_finite_and_sane() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let e = predict(&board, &chars, &dp(1400, Partition::even()));
        assert!(e.et_s > 5.0 && e.et_s < 300.0, "ET {}", e.et_s);
        assert!(e.energy_j > 20.0);
        assert!(e.peak_temp_c >= e.avg_temp_c);
        assert!((40.0..120.0).contains(&e.avg_temp_c));
    }

    #[test]
    fn predict_matches_simulation_for_cool_points() {
        // For sub-trip design points the analytic model should land near
        // the engine (within ~15% on ET/energy; temperature within a few
        // degrees of the run average).
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let point = dp(1200, Partition::even());
        let a = predict(&board, &chars, &point);
        let s = simulate(App::Covariance, &point);
        assert!(
            (a.et_s - s.et_s).abs() / s.et_s < 0.15,
            "ET {} vs {}",
            a.et_s,
            s.et_s
        );
        assert!(
            (a.energy_j - s.energy_j).abs() / s.energy_j < 0.20,
            "E {} vs {}",
            a.energy_j,
            s.energy_j
        );
        assert!(
            (a.peak_temp_c - s.peak_temp_c).abs() < 8.0,
            "peakT {} vs {}",
            a.peak_temp_c,
            s.peak_temp_c
        );
    }

    #[test]
    fn higher_frequency_predicts_faster_hotter() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let lo = predict(&board, &chars, &dp(800, Partition::even()));
        let hi = predict(&board, &chars, &dp(2000, Partition::even()));
        assert!(hi.et_s < lo.et_s);
        assert!(hi.peak_temp_c > lo.peak_temp_c);
    }

    #[test]
    fn gpu_only_ignores_cpu_mapping_speed() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let a = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(2, 3),
                freqs: ClusterFreqs {
                    big: MHz(2000),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::all_gpu(),
            },
        );
        let b = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(2, 3),
                freqs: ClusterFreqs {
                    big: MHz(200),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::all_gpu(),
            },
        );
        // GPU-only ET does not depend on the big frequency.
        assert!((a.et_s - b.et_s).abs() < 1e-9);
        // But energy does (idle big burns less at 200 MHz).
        assert!(b.energy_j < a.energy_j);
    }

    #[test]
    fn impossible_point_is_infinite() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let e = predict(
            &board,
            &chars,
            &DesignPoint {
                mapping: CpuMapping::new(0, 0),
                freqs: ClusterFreqs {
                    big: MHz(2000),
                    little: MHz(1400),
                    gpu: MHz(600),
                },
                partition: Partition::even(), // CPU work but no CPU cores
            },
        );
        assert!(e.et_s.is_infinite());
    }
}
