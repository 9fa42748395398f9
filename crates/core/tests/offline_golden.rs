//! Golden digest of the offline phase: every number the analytic
//! evaluator feeds into profiling, the EEMP table and the RMP plans,
//! hashed by its exact bit pattern.
//!
//! The evaluator's internals (the thermal steady-state solve, the
//! leakage fixed point, how phases are shared between design points)
//! may be restructured for speed, but never by a single bit of output.
//! A legitimate physics change re-records [`OFFLINE_GOLDEN`] and says
//! why in the change log.

use teem_core::baselines::{Eemp, Rmp};
use teem_core::offline::{app_observations, profile_app};
use teem_core::runner::{fig5_mapping, fig5_requirement};
use teem_dse::{DesignPoint, DesignPointEval};
use teem_soc::Board;
use teem_workload::App;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn point(&mut self, dp: &DesignPoint) {
        self.word(u64::from(dp.mapping.little));
        self.word(u64::from(dp.mapping.big));
        self.word(u64::from(dp.freqs.big.0));
        self.word(u64::from(dp.freqs.little.0));
        self.word(u64::from(dp.freqs.gpu.0));
        self.word(u64::from(dp.partition.grains()));
    }

    fn eval(&mut self, e: &DesignPointEval) {
        self.f(e.et_s);
        self.f(e.avg_temp_c);
        self.f(e.peak_temp_c);
        self.f(e.energy_j);
    }
}

/// Recorded before the evaluator was restructured around a cached
/// thermal factor and memoised phase solves.
const OFFLINE_GOLDEN: u64 = 0xe5cc_35ec_eb4b_3c3c;

#[test]
fn offline_phase_outputs_are_bit_stable() {
    let board = Board::odroid_xu4_ideal();
    let mut d = Digest::new();
    for app in App::all() {
        let p = profile_app(&board, app).expect("profiles");
        d.f(p.model.intercept);
        d.f(p.model.at_coeff);
        d.f(p.model.et_coeff);
        d.f(p.et_gpu_s);
    }
    for app in App::paper_eight() {
        for o in app_observations(&board, app) {
            d.word(u64::from(o.mapping.little));
            d.word(u64::from(o.mapping.big));
            for v in [o.m, o.at, o.et, o.pt, o.ec] {
                d.f(v);
            }
        }
        for (dp, e) in Eemp::build(&board, app).lut().iter() {
            d.point(dp);
            d.eval(e);
        }
        let profile = profile_app(&board, app).expect("profiles");
        let treq = fig5_requirement(app, &profile).treq_s;
        for mapping in [None, Some(fig5_mapping())] {
            d.point(&Rmp::build_with_mapping(&board, app, treq, mapping).plan());
        }
    }
    assert_eq!(
        d.0, OFFLINE_GOLDEN,
        "offline-phase digest moved: {:#018x}",
        d.0
    );
}
