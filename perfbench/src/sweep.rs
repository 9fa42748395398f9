//! `sweep_batched`: the 500-cell grid of the `sweep_grid` bench through
//! the lockstep path (`SweepSpec::batch(16)`), streamed.

use std::collections::BTreeMap;
use std::time::Instant;

use teem_core::runner::Approach;
use teem_scenario::{journal_digest, Scenario, SweepError, SweepEvent, SweepObsReport, SweepSpec};
use teem_telemetry::CellRecord;
use teem_workload::App;

use crate::bench::{ms, Checks, Env, Load, Pass, Rng, Workload};

/// Lockstep lanes per worker: two full SIMD vectors, as in the
/// `sweep_grid` bench.
const BATCH_K: usize = 16;

/// The `sweep_grid` bench's one-arrival scenarios.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("g-mvt").arrive(0.0, App::Mvt, 0.9),
        Scenario::new("g-gesummv").arrive(0.0, App::Gesummv, 0.9),
        Scenario::new("g-syrk").arrive(0.0, App::Syrk, 0.9),
        Scenario::new("g-covariance").arrive(0.0, App::Covariance, 0.9),
        Scenario::new("g-mvt-tight").arrive(0.0, App::Mvt, 0.7),
    ]
}

/// `count` axis values `start + i·step`, each moved by the seed by less
/// than 40 % of a step, so they stay ordered, distinct and inside
/// `[start, start + (count-1)·step]`.
fn jittered(rng: &mut Rng, start: f64, step: f64, count: usize) -> Vec<f64> {
    let last = start + step * (count - 1) as f64;
    (0..count)
        .map(|i| {
            let v = start + step * i as f64 + 0.8 * step * (rng.unit() - 0.5);
            v.clamp(start, last)
        })
        .collect()
}

pub struct SweepBatched {
    batched: SweepSpec,
    reference: u64,
    arrivals: u64,
    threads: usize,
    grid_ms: f64,
    reference_ms: f64,
}

/// What one streamed run of the grid produced, summed over its cells.
#[derive(Default)]
struct Streamed {
    /// `journal_digest` of the done records.
    digest: u64,
    done: u64,
    failed: u64,
    /// Cells whose TEEM run tripped the reactive thermal zone.
    tripped: u64,
    sim_s: f64,
    steps: u64,
    batched_steps: u64,
    substeps: u64,
    /// Time spent in `Trace::digest` (traced runs only).
    digest_ns: u128,
}

/// Streams `spec` (instrumented when `traced`), folding every cell into
/// a [`Streamed`] on the calling thread.
fn stream(
    spec: &SweepSpec,
    traced: bool,
) -> Result<(Streamed, Option<SweepObsReport>), SweepError> {
    let mut records = Vec::with_capacity(spec.cells());
    let mut s = Streamed::default();
    let sink = |ev: SweepEvent| {
        if let SweepEvent::CellDone { cell, result } = ev {
            s.tripped += u64::from(result.summary.zone_trips > 0);
            s.sim_s += result.summary.makespan_s;
            s.steps += result.kernel.steps;
            s.batched_steps += result.kernel.batched_steps;
            s.substeps += result.kernel.substeps;
            let t = traced.then(Instant::now);
            let trace_digest = result.trace.digest();
            s.digest_ns += t.map_or(0, |t| t.elapsed().as_nanos());
            records.push(CellRecord::from_summary(
                cell.index,
                &result.summary,
                trace_digest,
            ));
        }
    };
    let (stats, report) = if traced {
        let (stats, report) = spec.run_instrumented(sink)?;
        (stats, Some(report))
    } else {
        (spec.run_streaming(sink)?, None)
    };
    s.digest = journal_digest(&records);
    s.done = records.len() as u64;
    s.failed = stats.failed as u64;
    Ok((s, report))
}

pub fn setup(seed: u64, env: &Env) -> Result<SweepBatched, String> {
    let t0 = Instant::now();
    let mut rng = Rng::new(seed);
    let thresholds = jittered(&mut rng, 80.0, 1.0, 10);
    let ambients = jittered(&mut rng, 15.0, 2.0, 10);
    let base = scenarios();
    let arrivals_per_scenario: usize = base.iter().map(Scenario::arrivals).sum();
    let scalar = SweepSpec::over(base)
        .approaches(&[Approach::Teem])
        .thresholds_c(&thresholds)
        .ambients_c(&ambients)
        .threads(env.threads);
    let cells = scalar.cells();
    if cells != 500 {
        return Err(format!("grid has {cells} cells, expected 500"));
    }
    for i in 0..cells {
        std::hint::black_box(scalar.cell(i));
    }
    let batched = scalar.clone().batch(BATCH_K);
    let grid_ms = ms(t0.elapsed());

    // The scalar path's digest is the reference every batched pass must
    // reproduce bit for bit.
    let t1 = Instant::now();
    let (reference, _) = stream(&scalar, false).map_err(|e| e.to_string())?;
    if reference.failed != 0 || reference.tripped != 0 {
        return Err(format!(
            "scalar reference: {} failed cells, {} cells tripped",
            reference.failed, reference.tripped
        ));
    }
    Ok(SweepBatched {
        batched,
        reference: reference.digest,
        arrivals: (arrivals_per_scenario * cells / 5) as u64,
        threads: env.threads,
        grid_ms,
        reference_ms: ms(t1.elapsed()),
    })
}

impl Workload for SweepBatched {
    fn load(&self) -> Load {
        Load {
            threads: self.threads,
            processes: 1,
        }
    }

    fn reference(&self) -> u64 {
        self.reference
    }

    fn setup_phases(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup.grid_ms", self.grid_ms),
            ("setup.reference_ms", self.reference_ms),
        ]
    }

    fn apps(&self) -> Vec<App> {
        vec![App::Mvt, App::Gesummv, App::Syrk, App::Covariance]
    }

    fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass {
        let t0 = Instant::now();
        let outcome = stream(&self.batched, traced);
        let wall = t0.elapsed();

        let cells = self.batched.cells() as u64;
        let mut pass = Pass {
            wall,
            ops: cells,
            failed: cells,
            arrivals: self.arrivals,
            ..Pass::default()
        };
        let (s, report) = match outcome {
            Ok(done) => done,
            Err(e) => {
                checks.check("sweep.runs", false);
                eprintln!("perfbench: sweep failed: {e}");
                return pass;
            }
        };
        checks.check("sweep.runs", true);
        checks.check("sweep.no_failed_cells", s.failed == 0);
        checks.check("sweep.no_teem_trips", s.tripped == 0);
        let same = checks.check("sweep.digest_equals_scalar", s.digest == self.reference);
        // A digest mismatch condemns every cell: it cannot say which.
        if same {
            pass.failed = s.failed + s.tripped;
        }
        pass.sim_s = s.sim_s;
        pass.counts = BTreeMap::from([
            ("cells", s.done),
            ("steps", s.steps),
            ("batched_steps", s.batched_steps),
            ("substeps", s.substeps),
        ]);

        if let Some(report) = report {
            let snap = report.snapshot();
            let (mut busy_s, mut idle_s, mut steals) = (0.0, 0.0, 0u64);
            for id in 0..report.workers {
                busy_s += snap.gauge(&format!("worker.{id:02}.busy_s")).unwrap_or(0.0);
                idle_s += snap.gauge(&format!("worker.{id:02}.idle_s")).unwrap_or(0.0);
                steals += snap
                    .counter(&format!("worker.{id:02}.steal_successes"))
                    .unwrap_or(0);
            }
            let k = &report.kernel;
            let per_step = |ns: u64| ns as f64 / k.steps.max(1) as f64;
            let busy_ns = report.busy_ns;
            let phases = k.power_ns + k.thermal_ns + k.sample_ns + k.trace_ns + k.control_ns;
            let other = busy_ns.saturating_sub(phases);
            let cell_hist = snap.histogram("cell.wall_ns");
            pass.layer("verify.digest_ms", s.digest_ns as f64 / 1e6);
            pass.layer("sweep.busy_frac", busy_s / (busy_s + idle_s).max(1e-12));
            pass.layer("sweep.idle_ms", idle_s * 1e3);
            pass.layer("sweep.steals", steals as f64);
            pass.layer(
                "sweep.cell_ms_p50",
                cell_hist.map_or(0.0, |h| h.p50 as f64 / 1e6),
            );
            pass.layer(
                "sweep.cell_ms_p99",
                cell_hist.map_or(0.0, |h| h.p99 as f64 / 1e6),
            );
            pass.layer("exec.steps", k.steps as f64);
            pass.layer("thermal.substeps", k.substeps as f64);
            pass.layer("exec.run_ms", busy_ns as f64 / 1e6 / cells as f64);
            pass.layer(
                "exec.host_ns_per_step",
                wall.as_nanos() as f64 / k.steps.max(1) as f64,
            );
            pass.layer(
                "lockstep.batched_share",
                k.batched_steps as f64 / k.steps.max(1) as f64,
            );
            pass.layer(
                "lockstep.rounds",
                snap.counter("batch.rounds").unwrap_or(0) as f64,
            );
            pass.layer(
                "lockstep.lane_occupancy",
                snap.gauge("batch.lane_occupancy").unwrap_or(0.0),
            );
            pass.layer(
                "lockstep.lane_utilization",
                snap.gauge("batch.lane_utilization").unwrap_or(0.0),
            );
            pass.layer("step.power_ns", per_step(k.power_ns));
            pass.layer("step.thermal_ns", per_step(k.thermal_ns));
            pass.layer("step.sample_ns", per_step(k.sample_ns));
            pass.layer("step.trace_ns", per_step(k.trace_ns));
            pass.layer("step.control_ns", per_step(k.control_ns));
            pass.layer("step.other_ns", per_step(other));
            pass.layer(
                "step.unattributed_frac",
                other as f64 / busy_ns.max(1) as f64,
            );
            checks.check(
                "sweep.traced_counts_match_results",
                k.steps == s.steps
                    && k.batched_steps == s.batched_steps
                    && k.substeps == s.substeps,
            );
        }
        pass
    }
}
