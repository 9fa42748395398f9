//! `paper_fig5`: the paper's Fig. 5 matrix — 8 apps × {EEMP, RMP,
//! TEEM} at the fixed mapping, each app profiled inside the pass. The
//! only workload that runs `soc::engine::Simulation::run`.

use std::collections::BTreeMap;
use std::time::Instant;

use teem_core::offline::profile_app;
use teem_core::runner::{fig5_mapping, fig5_requirement, prepare, run, Approach};
use teem_soc::{Board, Manager, RunResult, RunSpec, SimConfig, Simulation, SocControl, SocView};
use teem_workload::App;

use crate::bench::{fnv_str, median, ms, quantile, Checks, Load, Pass, Workload};

/// A manager wrapper that times every `control` call of the manager it
/// wraps — the outside probe for the TEEM decision cost.
struct TimedManager<'a> {
    inner: &'a mut dyn Manager,
    control_ns: &'a mut Vec<f64>,
}

impl Manager for TimedManager<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, view: &SocView, ctl: &mut SocControl) {
        let t = Instant::now();
        self.inner.control(view, ctl);
        self.control_ns.push(t.elapsed().as_nanos() as f64);
    }

    fn period_s(&self) -> f64 {
        self.inner.period_s()
    }
}

fn digest(result: &RunResult) -> u64 {
    fnv_str(&format!(
        "{:016x} {:?} {} {}",
        result.trace.digest(),
        result.summary,
        result.zone_trips,
        result.timed_out
    ))
}

/// What one matrix pass produced.
struct Matrix {
    digests: Vec<u64>,
    timed_out: usize,
    sim_s: f64,
    steps: u64,
    control_ns: Vec<f64>,
    engine_ms: Vec<f64>,
}

/// Runs the 24 simulations. Untraced, each is `runner::run`; traced,
/// the same steps `runner::run` takes with the manager wrapped in
/// [`TimedManager`] and `Simulation::run` timed per call.
fn matrix(traced: bool) -> Result<Matrix, String> {
    let ideal = Board::odroid_xu4_ideal();
    let dt_s = SimConfig::default().dt_s;
    let mut m = Matrix {
        digests: Vec::with_capacity(24),
        timed_out: 0,
        sim_s: 0.0,
        steps: 0,
        control_ns: Vec::new(),
        engine_ms: Vec::new(),
    };
    for app in App::paper_eight() {
        let profile = profile_app(&ideal, app).map_err(|e| e.to_string())?;
        let req = fig5_requirement(app, &profile);
        for approach in Approach::fig5() {
            let result = if traced {
                let mut prepared = prepare(
                    app,
                    approach,
                    &req,
                    Some(&profile),
                    Some(fig5_mapping()),
                    None,
                );
                let spec = RunSpec {
                    app,
                    mapping: prepared.mapping,
                    partition: prepared.partition,
                    initial: prepared.initial,
                };
                let mut timed = TimedManager {
                    inner: &mut *prepared.manager,
                    control_ns: &mut m.control_ns,
                };
                let t = Instant::now();
                let result = Simulation::new(Board::odroid_xu4(), spec).run(&mut timed);
                m.engine_ms.push(ms(t.elapsed()));
                result
            } else {
                run(
                    app,
                    approach,
                    &req,
                    Some(&profile),
                    Some(fig5_mapping()),
                    None,
                )
            };
            m.timed_out += usize::from(result.timed_out);
            m.sim_s += result.summary.execution_time_s;
            // `Simulation::run` advances by `dt` per step and reports
            // the final time, so this recovers its step count exactly.
            m.steps += (result.summary.execution_time_s / dt_s).round() as u64;
            m.digests.push(digest(&result));
        }
    }
    Ok(m)
}

pub struct PaperFig5 {
    digests: Vec<u64>,
    reference_ms: f64,
}

pub fn setup() -> Result<PaperFig5, String> {
    let t0 = Instant::now();
    let reference = matrix(false)?;
    if reference.timed_out > 0 {
        return Err(format!("{} reference runs timed out", reference.timed_out));
    }
    Ok(PaperFig5 {
        digests: reference.digests,
        reference_ms: ms(t0.elapsed()),
    })
}

impl Workload for PaperFig5 {
    fn load(&self) -> Load {
        Load {
            threads: 1,
            processes: 1,
        }
    }

    fn reference(&self) -> u64 {
        self.digests.iter().fold(0, |acc, d| acc.rotate_left(7) ^ d)
    }

    fn setup_phases(&self) -> Vec<(&'static str, f64)> {
        vec![("setup.reference_ms", self.reference_ms)]
    }

    fn apps(&self) -> Vec<App> {
        App::paper_eight().to_vec()
    }

    fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass {
        let runs = self.digests.len() as u64;
        let t0 = Instant::now();
        let outcome = matrix(traced);
        let wall = t0.elapsed();
        let mut pass = Pass {
            wall,
            ops: runs,
            failed: runs,
            arrivals: runs,
            ..Pass::default()
        };
        let Ok(m) = outcome else {
            checks.check("fig5.runs", false);
            return pass;
        };
        checks.check("fig5.runs", true);
        checks.check("fig5.no_timeout", m.timed_out == 0);
        let same = checks.check("fig5.digests_stable", m.digests == self.digests);
        pass.failed = if same { m.timed_out as u64 } else { runs };
        pass.sim_s = m.sim_s;
        pass.counts = BTreeMap::from([("runs", m.digests.len() as u64), ("engine_steps", m.steps)]);
        if traced {
            pass.layer("core.control_ns_p50", median(&m.control_ns));
            pass.layer("core.control_ns_p99", quantile(&m.control_ns, 0.99));
            pass.layer("engine.run_ms", median(&m.engine_ms));
            pass.layer("engine.steps", m.steps as f64);
        }
        pass
    }
}
