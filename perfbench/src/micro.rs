//! Direct calls into single layers, timed from outside: the thermal
//! kernels, `exp`, the gap cooling solve, TEEM planning, profiling and
//! the EEMP table. They do not depend on the workload, so every traced
//! run measures them.

use std::hint::black_box;
use std::time::Instant;

use teem_core::baselines::Eemp;
use teem_core::offline::{build_profile_store, profile_app};
use teem_core::plan;
use teem_core::runner::fig5_requirement;
use teem_soc::{exp_exact, idle_node_powers, BatchScratch, Board, ClusterFreqs, ThermalBatch};
use teem_workload::App;

use crate::bench::median;

/// Rounds per measurement; the median round is reported.
const ROUNDS: usize = 7;

/// Median over [`ROUNDS`] of the mean nanoseconds per call of `f`, each
/// round making `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Every direct-call row, plus `setup.profile_ms` (a cold profile store
/// for `apps`).
pub fn layers(apps: &[App]) -> Vec<(&'static str, f64)> {
    let board = Board::odroid_xu4_ideal();
    let powers = [6.0, 0.6, 2.6, 2.2];

    let mut model = board.thermal.clone();
    let step_ns = ns_per_call(20_000, || {
        black_box(model.step(black_box(0.01), black_box(&powers)));
    });

    const K: usize = 16;
    let mut batch = ThermalBatch::like(&board.thermal, K);
    for lane in 0..K {
        batch.load_lane(lane, &board.thermal);
    }
    let mut scratch = BatchScratch::for_batch(&batch);
    for (node, p) in powers.iter().enumerate() {
        for lane in 0..K {
            scratch.power[node * batch.stride() + lane] = *p;
        }
    }
    let lane_ns = ns_per_call(2_000, || {
        black_box(batch.step(black_box(0.01), black_box(&scratch.power)));
    }) / K as f64;

    // Gap segments as `fast_forward_gap` takes them: idle power at the
    // minimum OPPs, starting from a warm board.
    let mut warm = board.thermal.clone();
    for node in 0..warm.len() {
        warm.set_temp(node, 70.0);
    }
    let idle = idle_node_powers(&board, ClusterFreqs::min_of(&board), warm.temps());
    let cool_to_ns = ns_per_call(2_000, || {
        warm.cool_to(black_box(0.5), black_box(25.0), black_box(&idle));
    });

    let mut x = -3.0f64;
    let exp_ns = ns_per_call(200_000, || {
        x = if x > 3.0 { -3.0 } else { x + 1e-3 };
        black_box(exp_exact(black_box(x)));
    });

    let t = Instant::now();
    let store = build_profile_store(&board, apps.iter().copied()).expect("profiling succeeds");
    let store_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(store);

    let eight = App::paper_eight();
    let mut profile_ms = Vec::new();
    let mut profiles = Vec::new();
    for app in eight {
        let t = Instant::now();
        let profile = profile_app(&board, app).expect("profiling succeeds");
        profile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let req = fig5_requirement(app, &profile);
        profiles.push((profile, req));
    }
    let plan_ns = ns_per_call(500, || {
        for (profile, req) in &profiles {
            black_box(plan(black_box(profile), black_box(req)));
        }
    }) / profiles.len() as f64;

    let eemp_ms: Vec<f64> = eight
        .iter()
        .map(|&app| {
            let t = Instant::now();
            black_box(Eemp::build(&board, app));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    vec![
        ("thermal.step_ns", step_ns),
        ("thermal.lane_ns", lane_ns),
        ("gap.cool_to_us", cool_to_ns / 1e3),
        ("fastexp.exp_ns", exp_ns),
        ("setup.profile_ms", store_ms),
        ("core.profile_app_ms", median(&profile_ms)),
        ("core.plan_us", plan_ns / 1e3),
        ("dse.eemp_lut_ms", median(&eemp_ms)),
    ]
}
