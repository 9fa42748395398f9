//! Property-based tests for design-space evaluation: the analytic
//! evaluator must respect the obvious physical orderings everywhere in
//! the design space.

use proptest::prelude::*;
use teem_dse::{evaluate, DesignPoint};
use teem_soc::{Board, ClusterFreqs, CpuMapping, MHz};
use teem_workload::{App, Partition};

fn dp(little: u32, big: u32, f_big: u32, grains: u16) -> DesignPoint {
    DesignPoint {
        mapping: CpuMapping::new(little, big),
        freqs: ClusterFreqs {
            big: MHz(f_big),
            little: MHz(1400),
            gpu: MHz(600),
        },
        partition: Partition::from_grains(grains),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn more_cpu_frequency_is_never_slower(
        little in 1u32..=4,
        big in 1u32..=4,
        f1 in 4u32..=18,
        grains in 256u16..=2048,
    ) {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let lo = evaluate::predict(&board, &chars, &dp(little, big, f1 * 100 + 200, grains));
        let hi = evaluate::predict(&board, &chars, &dp(little, big, 2000, grains));
        prop_assert!(hi.et_s <= lo.et_s + 1e-9, "{} > {}", hi.et_s, lo.et_s);
    }

    #[test]
    fn evaluation_metrics_are_internally_consistent(
        little in 1u32..=4,
        big in 1u32..=4,
        f in 2u32..=18,
        grains in 0u16..=2048,
        app_idx in 0usize..8,
    ) {
        let board = Board::odroid_xu4_ideal();
        let app = App::paper_eight()[app_idx];
        let chars = app.characteristics();
        let e = evaluate::predict(&board, &chars, &dp(little, big, f * 100 + 200, grains));
        prop_assert!(e.et_s > 0.0);
        prop_assert!(e.energy_j > 0.0);
        prop_assert!(e.peak_temp_c >= e.avg_temp_c - 1e-9);
        prop_assert!(e.avg_temp_c >= board.thermal.ambient_c());
        // Energy is bounded by a sane power envelope: 0.5 W idle floor;
        // the ceiling allows for thermally-runaway corner points (capped
        // at 125 C), where 4 big cores can leak ~20 W on top of ~10 W
        // dynamic+GPU+board.
        let avg_power = e.energy_j / e.et_s;
        prop_assert!((0.5..40.0).contains(&avg_power), "avg power {avg_power}");
    }

    #[test]
    fn gpu_only_points_are_mapping_invariant(
        l1 in 0u32..=4, b1 in 0u32..=4,
        l2 in 0u32..=4, b2 in 0u32..=4,
    ) {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Gemm.characteristics();
        let mk = |l, b| DesignPoint {
            mapping: CpuMapping::new(l, b),
            freqs: ClusterFreqs { big: MHz(1000), little: MHz(1000), gpu: MHz(600) },
            partition: Partition::all_gpu(),
        };
        let a = evaluate::predict(&board, &chars, &mk(l1, b1));
        let c = evaluate::predict(&board, &chars, &mk(l2, b2));
        // GPU-only ET does not depend on which CPU cores are nominally
        // mapped.
        prop_assert!((a.et_s - c.et_s).abs() < 1e-9);
    }

    #[test]
    fn simulation_agrees_with_prediction_for_cool_points(
        grains in 512u16..=1536,
    ) {
        // One randomised partition per case; sub-trip frequency so the
        // analytic (no-throttling) assumption holds.
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let point = dp(2, 2, 1200, grains);
        let a = evaluate::predict(&board, &chars, &point);
        let s = evaluate::simulate(App::Covariance, &point);
        prop_assert!((a.et_s - s.et_s).abs() / s.et_s < 0.15,
            "ET {} vs {}", a.et_s, s.et_s);
        prop_assert!((a.energy_j - s.energy_j).abs() / s.energy_j < 0.25,
            "E {} vs {}", a.energy_j, s.energy_j);
    }
}

#[test]
fn lut_selection_is_pareto_consistent() {
    // For any deadline, loosening it never increases the selected energy.
    use teem_dse::DesignPointLut;
    let board = Board::odroid_xu4_ideal();
    let chars = App::Syrk.characteristics();
    let entries: Vec<(DesignPoint, teem_dse::DesignPointEval)> = (1..=4u32)
        .flat_map(|b| (1..=8u16).map(move |e| (b, e)))
        .map(|(b, e)| {
            let point = dp(2, b, 2000, e * 256);
            (point, evaluate::predict(&board, &chars, &point))
        })
        .collect();
    let lut = DesignPointLut::new("SR", entries);
    let mut last_energy = f64::INFINITY;
    for treq in [20.0, 30.0, 40.0, 60.0, 100.0] {
        if let Some((_, e)) = lut.min_energy_within(treq) {
            assert!(e.energy_j <= last_energy + 1e-9);
            last_energy = e.energy_j;
        }
    }
}

#[test]
fn memoised_evaluator_matches_fresh_predict_bit_for_bit() {
    // One evaluator per operating point serves every partition from at
    // most three phase solves; each result must equal a fresh one-point
    // `predict`, whatever order the partitions arrive in.
    let board = Board::odroid_xu4_ideal();
    let bits = |e: teem_dse::DesignPointEval| {
        [e.et_s, e.avg_temp_c, e.peak_temp_c, e.energy_j].map(f64::to_bits)
    };
    for app in [App::Covariance, App::Gemm] {
        let chars = app.characteristics();
        for f_big in [800, 2000] {
            for little in 1..=4u32 {
                for big in 1..=4u32 {
                    let point = dp(little, big, f_big, 0);
                    let mut eval =
                        evaluate::Evaluator::new(&board, &chars, point.mapping, point.freqs);
                    for partition in Partition::offline_grid().into_iter().rev() {
                        let fresh =
                            evaluate::predict(&board, &chars, &DesignPoint { partition, ..point });
                        assert_eq!(
                            bits(eval.eval(partition)),
                            bits(fresh),
                            "{app} {little}L+{big}B @ {f_big} MHz, {partition}"
                        );
                    }
                }
            }
        }
    }
}
