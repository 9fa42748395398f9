//! `week_trace`: `examples/traces/phone_week.csv` under TEEM with the
//! event-driven clock — one `ScenarioRunner::run` per pass.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use teem_core::offline::build_profile_store;
use teem_core::runner::Approach;
use teem_core::ProfileStore;
use teem_scenario::{ConfigPatch, Scenario, ScenarioRunner};
use teem_soc::{Board, SimConfig, TimeAdvance};
use teem_workload::App;

use crate::bench::{fnv_str, ms, Checks, Load, Pass, Rng, Workload};

const TRACE: &str = "examples/traces/phone_week.csv";
/// Comfortably past the week's ~594,000 simulated seconds.
const WEEK_TIMEOUT_S: f64 = 700_000.0;
/// Largest arrival-time shift, seconds.
const MAX_JITTER_S: f64 = 30.0;

/// `scenario` with every event moved later by a seeded amount below
/// `MAX_JITTER_S` and below 40 % of the gap to the next event, so the
/// order of events is kept.
fn jitter(scenario: &Scenario, rng: &mut Rng) -> Scenario {
    let events = scenario.sorted_events();
    let mut out = Scenario::new(scenario.name()).with_initial_ambient(scenario.initial_ambient_c());
    for (i, ev) in events.iter().enumerate() {
        let room = events
            .get(i + 1)
            .map_or(MAX_JITTER_S, |next| 0.4 * (next.at_s - ev.at_s));
        out = out.at(ev.at_s + rng.unit() * room.min(MAX_JITTER_S), ev.event);
    }
    out
}

pub struct WeekTrace {
    scenario: Scenario,
    profiles: Arc<ProfileStore>,
    config: SimConfig,
    trace_digest: u64,
    summary_digest: u64,
    csv_ms: f64,
    reference_ms: f64,
}

pub fn setup(seed: u64) -> Result<WeekTrace, String> {
    let t0 = Instant::now();
    let parsed = Scenario::from_csv(TRACE).map_err(|e| format!("{TRACE}: {e}"))?;
    let scenario = jitter(&parsed, &mut Rng::new(seed));
    let csv_ms = ms(t0.elapsed());

    let t1 = Instant::now();
    let profiles = build_profile_store(&Board::odroid_xu4_ideal(), scenario.apps())
        .map_err(|e| e.to_string())?
        .into_shared();
    let config = ConfigPatch {
        timeout_s: Some(WEEK_TIMEOUT_S),
        time_advance: Some(TimeAdvance::EventDriven),
        ..ConfigPatch::default()
    }
    .onto_default();
    let mut week = WeekTrace {
        scenario,
        profiles,
        config,
        trace_digest: 0,
        summary_digest: 0,
        csv_ms,
        reference_ms: 0.0,
    };
    let result = week
        .runner(false)
        .run(&week.scenario)
        .map_err(|e| e.to_string())?;
    if result.timed_out {
        return Err("the reference week timed out".into());
    }
    week.trace_digest = result.trace.digest();
    week.summary_digest = fnv_str(&format!("{:?}", result.summary));
    week.reference_ms = ms(t1.elapsed());
    Ok(week)
}

impl WeekTrace {
    fn runner(&self, traced: bool) -> ScenarioRunner {
        ScenarioRunner::with_shared_profiles(Approach::Teem, Arc::clone(&self.profiles))
            .with_config(self.config)
            .with_step_timing(traced)
    }
}

impl Workload for WeekTrace {
    fn load(&self) -> Load {
        Load {
            threads: 1,
            processes: 1,
        }
    }

    fn reference(&self) -> u64 {
        self.trace_digest ^ self.summary_digest
    }

    fn setup_phases(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup.csv_ms", self.csv_ms),
            ("setup.reference_ms", self.reference_ms),
        ]
    }

    fn apps(&self) -> Vec<App> {
        self.scenario.apps()
    }

    fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass {
        let mut runner = self.runner(traced);
        let t0 = Instant::now();
        let run = runner.run(&self.scenario);
        let wall = t0.elapsed();
        let mut pass = Pass {
            wall,
            ops: 1,
            failed: 1,
            arrivals: self.scenario.arrivals() as u64,
            ..Pass::default()
        };
        let Ok(result) = run else {
            checks.check("week.runs", false);
            return pass;
        };
        checks.check("week.runs", true);
        let ok = checks.check("week.no_timeout", !result.timed_out)
            & checks.check(
                "week.trace_digest_stable",
                result.trace.digest() == self.trace_digest,
            )
            & checks.check(
                "week.summary_digest_stable",
                fnv_str(&format!("{:?}", result.summary)) == self.summary_digest,
            );
        pass.failed = u64::from(!ok);
        pass.sim_s = result.summary.makespan_s;
        let k = result.kernel;
        pass.counts = BTreeMap::from([
            ("steps", k.steps),
            ("substeps", k.substeps),
            ("gap_segments", k.gap_segments),
            ("gaps_skipped", k.gaps_skipped),
        ]);
        if traced {
            let per_step = |ns: u64| ns as f64 / k.steps.max(1) as f64;
            let wall_ns = wall.as_nanos() as u64;
            let phases = k.power_ns + k.thermal_ns + k.sample_ns + k.trace_ns + k.control_ns;
            let other = wall_ns.saturating_sub(phases);
            pass.layer("exec.steps", k.steps as f64);
            pass.layer("thermal.substeps", k.substeps as f64);
            pass.layer("gap.segments", k.gap_segments as f64);
            pass.layer("gap.skipped", k.gaps_skipped as f64);
            pass.layer("exec.run_ms", ms(wall));
            pass.layer("exec.host_ns_per_step", per_step(wall_ns));
            pass.layer("step.power_ns", per_step(k.power_ns));
            pass.layer("step.thermal_ns", per_step(k.thermal_ns));
            pass.layer("step.sample_ns", per_step(k.sample_ns));
            pass.layer("step.trace_ns", per_step(k.trace_ns));
            pass.layer("step.control_ns", per_step(k.control_ns));
            pass.layer("step.other_ns", per_step(other));
            pass.layer(
                "step.unattributed_frac",
                other as f64 / wall_ns.max(1) as f64,
            );
        }
        pass
    }
}
