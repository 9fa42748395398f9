//! EEMP — "Energy-Efficient Run-Time Mapping and Thread Partitioning of
//! Concurrent OpenCL Applications on CPU-GPU MPSoCs" \[15\], as the paper
//! describes it in §IV-B: a per-application table of evaluated design
//! points (mapping × partition — 128 entries); at runtime the
//! minimum-energy stored point meeting the performance constraint is
//! selected, *"executing at the maximum voltage/frequency and turning
//! off the unused cores"*. **No thermal consideration** — the reactive
//! kernel trip is all that protects the chip, which is why EEMP reaches
//! the thermal limit in Fig. 5(b) and pays for it in energy and time.

use teem_dse::{evaluate, DesignPoint, DesignPointLut};
use teem_soc::{Board, ClusterFreqs, CpuMapping, MHz};
use teem_workload::{App, Partition};

/// The EEMP baseline: stored LUT + static minimum-energy selection at
/// maximum V/f.
#[derive(Debug, Clone)]
pub struct Eemp {
    lut: DesignPointLut,
}

/// The maximum-frequency setting EEMP executes at.
fn max_freqs() -> ClusterFreqs {
    ClusterFreqs {
        big: MHz(2000),
        little: MHz(1400),
        gpu: MHz(600),
    }
}

impl Eemp {
    /// Builds EEMP's 128-entry design-point table for an application:
    /// all 16 combination mappings × the 8 non-GPU-only partitions of
    /// the offline grid, every entry at maximum V/f (the paper's EEMP
    /// power management is core gating, not frequency scaling).
    /// Evaluated with the analytic model (the paper's EEMP stores
    /// measured values; ours stores the simulator's predictions), one
    /// [`evaluate::Evaluator`] per mapping, so each mapping's eight
    /// partitions share its three phase solves.
    pub fn build(board: &Board, app: App) -> Eemp {
        let chars = app.characteristics();
        let mut entries = Vec::with_capacity(DesignPointLut::EEMP_ENTRIES);
        for little in 1..=4u32 {
            for big in 1..=4u32 {
                let mapping = CpuMapping::new(little, big);
                let mut eval = evaluate::Evaluator::new(board, &chars, mapping, max_freqs());
                for eighths in 1..=8u8 {
                    let dp = DesignPoint {
                        mapping,
                        freqs: max_freqs(),
                        partition: Partition::from_eighths(eighths),
                    };
                    entries.push((dp, eval.eval(dp.partition)));
                }
            }
        }
        debug_assert_eq!(entries.len(), DesignPointLut::EEMP_ENTRIES);
        Eemp {
            lut: DesignPointLut::new(app.abbrev(), entries),
        }
    }

    /// EEMP's runtime decision: the minimum-energy stored point meeting
    /// `treq_s`, falling back to the fastest stored point when none
    /// meets it.
    ///
    /// # Panics
    ///
    /// Panics if the LUT is empty (cannot happen via [`Eemp::build`]).
    pub fn plan(&self, treq_s: f64) -> DesignPoint {
        self.lut
            .min_energy_within(treq_s)
            .or_else(|| self.lut.fastest())
            .expect("EEMP LUT is never empty")
            .0
    }

    /// Like [`Eemp::plan`] but with the mapping fixed (the Fig. 5
    /// experiments hold one mapping across approaches,
    /// [`fig5_mapping`](crate::runner::fig5_mapping)): selection
    /// restricted to entries with that mapping.
    pub fn plan_with_mapping(&self, treq_s: f64, mapping: CpuMapping) -> DesignPoint {
        let feasible = self
            .lut
            .iter()
            .filter(|(dp, _)| dp.mapping == mapping)
            .filter(|(_, e)| e.et_s <= treq_s)
            .min_by(|a, b| a.1.energy_j.partial_cmp(&b.1.energy_j).expect("finite"));
        if let Some((dp, _)) = feasible {
            return *dp;
        }
        // Fallback: fastest entry with that mapping.
        self.lut
            .iter()
            .filter(|(dp, _)| dp.mapping == mapping)
            .min_by(|a, b| a.1.et_s.partial_cmp(&b.1.et_s).expect("finite"))
            .map(|(dp, _)| *dp)
            .unwrap_or_else(|| self.plan(treq_s))
    }

    /// The stored table (for memory accounting and inspection).
    pub fn lut(&self) -> &DesignPointLut {
        &self.lut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_exactly_128_entries_at_max_vf() {
        let e = Eemp::build(&Board::odroid_xu4_ideal(), App::Covariance);
        assert_eq!(e.lut().len(), DesignPointLut::EEMP_ENTRIES);
        for (dp, _) in e.lut().iter() {
            assert_eq!(dp.freqs.big, MHz(2000), "EEMP executes at max V/f");
            assert!(!dp.partition.is_gpu_only());
        }
    }

    #[test]
    fn plan_meets_constraint_when_possible() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Covariance);
        let chars = App::Covariance.characteristics();
        let fastest = e.lut().fastest().unwrap().1.et_s;
        let treq = fastest * 1.3;
        let dp = e.plan(treq);
        let eval = evaluate::predict(&board, &chars, &dp);
        assert!(eval.et_s <= treq + 1e-9, "{} > {treq}", eval.et_s);
        for (other, ev) in e.lut().iter() {
            if ev.et_s <= treq {
                assert!(
                    ev.energy_j >= eval.energy_j - 1e-9,
                    "{other} cheaper than selection"
                );
            }
        }
    }

    #[test]
    fn impossible_constraint_falls_back_to_fastest() {
        let e = Eemp::build(&Board::odroid_xu4_ideal(), App::Mvt);
        let dp = e.plan(0.001);
        let fastest = e.lut().fastest().unwrap().0;
        assert_eq!(dp, fastest);
    }

    #[test]
    fn fixed_mapping_selection_respects_mapping() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Gemm);
        let mapping = CpuMapping::new(2, 4);
        let dp = e.plan_with_mapping(30.0, mapping);
        assert_eq!(dp.mapping, mapping);
        // Impossible deadline still returns that mapping's fastest.
        let dp = e.plan_with_mapping(0.001, mapping);
        assert_eq!(dp.mapping, mapping);
    }

    #[test]
    fn looser_deadline_never_costs_more_energy() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Gemm);
        let chars = App::Gemm.characteristics();
        let fastest = e.lut().fastest().unwrap().1.et_s;
        let tight = evaluate::predict(&board, &chars, &e.plan(fastest * 1.1));
        let loose = evaluate::predict(&board, &chars, &e.plan(fastest * 3.0));
        assert!(loose.energy_j <= tight.energy_j + 1e-9);
    }
}
