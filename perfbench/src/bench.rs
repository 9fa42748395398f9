//! What every workload shares: the pass record, the output-check
//! ledger, the workload interface, and the few statistics the report
//! needs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// One closed-loop pass: the next pass starts only after this one's
/// result is verified.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host wall time from the first claim or launch to the verified
    /// result.
    pub wall: Duration,
    /// Operations attempted: sweep cells, or single runs.
    pub ops: u64,
    /// Operations that failed, timed out or failed an output check.
    pub failed: u64,
    /// Simulated seconds the pass completed (summed over operations).
    pub sim_s: f64,
    /// Application arrivals the pass simulated.
    pub arrivals: u64,
    /// Deterministic work counts: equal on every pass of one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer samples (traced passes only), reduced by median.
    pub layers: Vec<(&'static str, f64)>,
    /// Peak RSS of the child processes the pass ran, KiB (0 when the
    /// pass ran in-process).
    pub child_rss_kib: u64,
    /// This process's peak RSS during the pass, KiB.
    pub self_rss_kib: u64,
}

impl Pass {
    /// Records a per-layer sample.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// The ledger of output checks: how often each ran and failed.
#[derive(Debug, Default)]
pub struct Checks {
    ran: BTreeMap<&'static str, (u64, u64)>,
}

impl Checks {
    /// Records one execution of check `name`; returns `ok`.
    pub fn check(&mut self, name: &'static str, ok: bool) -> bool {
        let entry = self.ran.entry(name).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            eprintln!("perfbench: output check `{name}` FAILED");
        }
        ok
    }

    /// `true` when no check has failed.
    pub fn all_passed(&self) -> bool {
        self.ran.values().all(|&(_, failed)| failed == 0)
    }

    /// `{"name": [ran, failed], ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .ran
            .iter()
            .map(|(name, (ran, failed))| format!("\"{name}\": [{ran}, {failed}]"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// How much of the host one pass keeps busy (part of the stamp).
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Threads per process doing simulation work.
    pub threads: usize,
    /// Processes per pass (1 = in-process).
    pub processes: usize,
}

/// Where a workload finds the rest of the world.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `teem-coordinator` binary.
    pub coordinator: PathBuf,
    /// Scratch directory for journals and captured output (inside the
    /// checkout; removed when the run ends).
    pub work_dir: PathBuf,
    /// Simulation threads per in-process pool.
    pub threads: usize,
}

/// A workload after set-up.
pub trait Workload {
    /// The pass load, for the stamp.
    fn load(&self) -> Load;

    /// A digest of the set-up's reference outputs: every cold set-up of
    /// one seed must reproduce it.
    fn reference(&self) -> u64;

    /// Set-up phase timings, milliseconds, keyed by per-layer metric.
    fn setup_phases(&self) -> Vec<(&'static str, f64)>;

    /// Runs one pass and checks its outputs. `traced` switches on the
    /// layers' own instrumentation and the outside wrappers, and fills
    /// [`Pass::layers`].
    fn pass(&mut self, traced: bool, checks: &mut Checks) -> Pass;

    /// Per-layer metrics taken once per traced run, outside the passes
    /// (in-process reference runs, journaled runs).
    fn extra_layers(&mut self, _checks: &mut Checks) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The applications the workload profiles (the `setup.profile_ms`
    /// measurement builds their store cold).
    fn apps(&self) -> Vec<teem_workload::App>;
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the seed → input generator. Same seed, same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a string: digests of `Debug`-rendered summaries (f64
/// `Debug` output round-trips, so equal digests mean equal bits).
pub fn fnv_str(text: &str) -> u64 {
    let mut h = teem_telemetry::Fnv::new();
    h.str(text);
    h.finish()
}
