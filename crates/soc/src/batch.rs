//! Batched structure-of-arrays physics: step K independent board
//! instances in SIMD lockstep.
//!
//! Sweep campaigns run hundreds of cells that share one thermal topology
//! (same board, same RC network) and differ only in *state*: node
//! temperatures, ambient, injected power. [`ThermalBatch`] mirrors
//! [`ThermalModel`] as a structure of arrays — the topology
//! (capacitance/conductance/ambient-conductance) stored once, the state
//! laid out node-major with K contiguous lanes per node — so one
//! lane-blocked Euler kernel advances all K instances per pass using the
//! [`F64xN`] wrapper the autovectorizer lowers to packed SIMD.
//!
//! **Exactness contract.** Per lane, the kernel performs the *same IEEE
//! operations in the same order* as [`ThermalModel::step`]: packed
//! add/sub/mul/div round each lane exactly like the scalar instruction,
//! the sub-step schedule (`remaining.min(max_stable_dt)` loop) is shared
//! verbatim, and the row traversal order is identical. A lane is
//! therefore **bit-identical** to stepping its scalar twin — pinned by
//! the parity proptests — which is what lets the sweep executor hand a
//! diverging lane back to the scalar path mid-run without a seam.
//!
//! [`NodePowerModel`] is the power-side companion: the per-node power
//! evaluation of [`node_powers_into`](crate::node_powers_into) split
//! into coefficients that are constant between governor decisions
//! ([`NodePowerCoeffs`]) and the per-step temperature-dependent leakage
//! exponential, again with scalar-identical operation order.

use crate::board::Board;
use crate::engine::ClusterFreqs;
use crate::perf::CpuMapping;
use crate::power::PowerParams;
use crate::simd::{F64xN, LANES};
use crate::thermal::ThermalModel;

/// K board instances' thermal state in structure-of-arrays layout,
/// sharing one RC topology. See the module docs for layout and the
/// per-lane exactness contract.
#[derive(Debug, Clone)]
pub struct ThermalBatch {
    n: usize,
    k: usize,
    kp: usize,             // k rounded up to a multiple of LANES
    capacitance: Vec<f64>, // n
    conductance: Vec<f64>, // n*n row-major, shared across lanes
    to_ambient: Vec<f64>,  // n
    max_stable_dt: f64,
    temps: Vec<f64>,   // n*kp, node-major: temps[node*kp + lane]
    deriv: Vec<f64>,   // n*kp Euler scratch
    ambient: Vec<f64>, // kp, per-lane ambient °C
}

impl ThermalBatch {
    /// A batch of `k` lanes sharing `model`'s topology, every lane
    /// initialised to `model`'s current temperatures and ambient.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn like(model: &ThermalModel, k: usize) -> Self {
        assert!(k >= 1, "a batch needs at least one lane");
        let n = model.len();
        let kp = k.div_ceil(LANES) * LANES;
        let mut batch = ThermalBatch {
            n,
            k,
            kp,
            capacitance: model.capacitances_j_per_c().to_vec(),
            conductance: model.conductance_matrix().to_vec(),
            to_ambient: model.ambient_conductances_w_per_c().to_vec(),
            max_stable_dt: model.max_stable_dt(),
            temps: vec![0.0; n * kp],
            deriv: vec![0.0; n * kp],
            ambient: vec![model.ambient_c(); kp],
        };
        for lane in 0..kp {
            for (node, &t) in model.temps().iter().enumerate() {
                batch.temps[node * kp + lane] = t;
            }
        }
        batch
    }

    /// Number of usable lanes (K as requested).
    pub fn lanes(&self) -> usize {
        self.k
    }

    /// Number of physical lanes including SIMD padding (K rounded up to
    /// a multiple of [`LANES`]); the stride between consecutive nodes in
    /// the SoA state and power vectors.
    pub fn stride(&self) -> usize {
        self.kp
    }

    /// Number of thermal nodes (shared by every lane).
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// `true` when `model` has bit-identical topology (capacitances,
    /// conductance matrix, ambient conductances) — the precondition for
    /// loading it into a lane.
    pub fn matches(&self, model: &ThermalModel) -> bool {
        model.len() == self.n
            && model.capacitances_j_per_c() == self.capacitance.as_slice()
            && model.conductance_matrix() == self.conductance.as_slice()
            && model.ambient_conductances_w_per_c() == self.to_ambient.as_slice()
            && model.max_stable_dt() == self.max_stable_dt
    }

    /// Copies `model`'s temperatures and ambient into `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()` or the topology does not match.
    pub fn load_lane(&mut self, lane: usize, model: &ThermalModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert!(self.matches(model), "topology mismatch loading a lane");
        for (node, &t) in model.temps().iter().enumerate() {
            self.temps[node * self.kp + lane] = t;
        }
        self.ambient[lane] = model.ambient_c();
    }

    /// Copies `lane`'s temperatures back into `model` (ambient is left
    /// untouched: the batch never changes it).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()` or `model.len() != self.nodes()`.
    pub fn store_lane(&self, lane: usize, model: &mut ThermalModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert_eq!(model.len(), self.n, "node count mismatch storing a lane");
        for node in 0..self.n {
            model.set_temp(node, self.temps[node * self.kp + lane]);
        }
    }

    /// Current temperature of `node` in `lane`, °C.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.nodes()` or `lane >= self.lanes()`.
    pub fn lane_temp(&self, node: usize, lane: usize) -> f64 {
        assert!(node < self.n && lane < self.k, "lane_temp out of range");
        self.temps[node * self.kp + lane]
    }

    /// Advances every lane by `dt` seconds with the node-major SoA power
    /// vector `power_w` (`power_w[node * stride + lane]` watts),
    /// sub-stepping exactly as [`ThermalModel::step`] does. Returns the
    /// number of Euler sub-steps taken (shared by all lanes: the
    /// schedule depends only on `dt` and the shared topology).
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len() != self.nodes() * self.stride()` or
    /// `dt < 0`.
    pub fn step(&mut self, dt: f64, power_w: &[f64]) -> u32 {
        assert_eq!(
            power_w.len(),
            self.n * self.kp,
            "SoA power vector length mismatch"
        );
        assert!(dt >= 0.0, "negative dt");
        let eps = dt * 1e-9;
        let mut remaining = dt;
        let mut substeps = 0u32;
        while remaining > eps {
            let h = remaining.min(self.max_stable_dt);
            self.euler_step(h, power_w);
            remaining -= h;
            substeps += 1;
        }
        substeps
    }

    /// One lane-blocked Euler sub-step — the SoA twin of
    /// `ThermalModel::euler_step`, same per-lane operation order.
    ///
    /// The row sum `q -= g·(ti − tj)` is a serial dependency chain per
    /// lane (IEEE order is part of the bit-identity contract, so it
    /// cannot be re-associated), which on many-node boards makes a
    /// block-at-a-time traversal latency-bound: every `j` term waits on
    /// the previous one. Instead the kernel walks `j` in the outer loop
    /// and advances `GROUP` lane blocks together in the inner one —
    /// `GROUP` *independent* accumulator chains hide the add latency,
    /// and the `tj` loads for a group are one contiguous run of the
    /// node-`j` row. Each lane still sees exactly the scalar `j` order.
    fn euler_step(&mut self, h: f64, power_w: &[f64]) {
        /// Lanes advanced per group: four [`LANES`]-blocks as one flat
        /// fixed-width window, enough chains to cover the packed-add
        /// latency and wide enough to fill two 512-bit (or four
        /// 256-bit) vectors per operation.
        const GW: usize = 4 * LANES;
        let n = self.n;
        let kp = self.kp;
        let temps = &self.temps;
        let deriv = &mut self.deriv;
        for i in 0..n {
            let row = &self.conductance[i * n..(i + 1) * n];
            let mut b = 0;
            while b + GW <= kp {
                // Fixed-width windows (`[f64; GW]`): one slice-length
                // proof per row instead of a bounds check per element,
                // and the element loops fully unroll.
                let o = i * kp + b;
                let ti: &[f64; GW] = temps[o..o + GW].try_into().expect("window");
                let mut q: [f64; GW] = power_w[o..o + GW].try_into().expect("window");
                for (j, &g) in row.iter().enumerate() {
                    let tj: &[f64; GW] = temps[j * kp + b..j * kp + b + GW]
                        .try_into()
                        .expect("window");
                    for x in 0..GW {
                        q[x] -= g * (ti[x] - tj[x]);
                    }
                }
                let g_amb = self.to_ambient[i];
                let c = self.capacitance[i];
                let amb: &[f64; GW] = self.ambient[b..b + GW].try_into().expect("window");
                let d: &mut [f64; GW] = (&mut deriv[o..o + GW]).try_into().expect("window");
                for x in 0..GW {
                    q[x] -= g_amb * (ti[x] - amb[x]);
                    d[x] = q[x] / c;
                }
                b += GW;
            }
            let g_amb = F64xN::splat(self.to_ambient[i]);
            let c = F64xN::splat(self.capacitance[i]);
            while b < kp {
                let ti = F64xN::from_slice(&temps[i * kp + b..]);
                let mut q = F64xN::from_slice(&power_w[i * kp + b..]);
                for (j, &g) in row.iter().enumerate() {
                    let tj = F64xN::from_slice(&temps[j * kp + b..]);
                    q = q - F64xN::splat(g) * (ti - tj);
                }
                q = q - g_amb * (ti - F64xN::from_slice(&self.ambient[b..]));
                (q / c).write_to(&mut deriv[i * kp + b..]);
                b += LANES;
            }
        }
        for (t, d) in self.temps.iter_mut().zip(&*deriv) {
            *t += h * d;
        }
    }
}

/// Reusable SoA buffers for the batched step loop — the K-wide
/// counterpart of [`StepScratch`](crate::StepScratch): one node-major
/// power vector sized to the batch, so the lockstep inner loop
/// allocates nothing per round.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// Node-major SoA power vector, watts:
    /// `power[node * batch.stride() + lane]`.
    pub power: Vec<f64>,
}

impl BatchScratch {
    /// Scratch sized for `batch`.
    pub fn for_batch(batch: &ThermalBatch) -> Self {
        BatchScratch {
            power: vec![0.0; batch.nodes() * batch.stride()],
        }
    }
}

/// The frequency/mapping-dependent part of one node's power draw, cached
/// between governor decisions so the per-step work reduces to the
/// temperature-dependent leakage exponential.
///
/// `eval` reproduces [`PowerParams::total_w`] bit-exactly: the dynamic
/// and uncore terms and the leakage prefactor `leak_scale · V²` only
/// change when frequency, mapping or busy-flags change, so they are
/// frozen here with the same left-associated operation order the scalar
/// model uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodePowerCoeffs {
    dyn_w: f64,      // full dynamic term (0 for collapsed/constant nodes)
    leak_vv: f64,    // leak_scale_w * volts * volts
    gate: f64,       // leakage gating fraction
    alpha: f64,      // leakage temperature coefficient, 1/°C
    ref_c: f64,      // leakage reference temperature, °C
    uncore_w: f64,   // uncore overhead (0 when collapsed)
    collapsed: bool, // active == 0: residual leakage only
}

impl NodePowerCoeffs {
    /// Coefficients for one power domain, mirroring
    /// [`PowerParams::total_w`] with the given operating point.
    pub fn for_domain(
        p: &PowerParams,
        volts: f64,
        freq_hz: f64,
        active: u32,
        utilization: f64,
        activity: f64,
    ) -> Self {
        let collapsed = active == 0;
        NodePowerCoeffs {
            dyn_w: if collapsed {
                0.0
            } else {
                p.dynamic_w(volts, freq_hz, active, utilization, activity)
            },
            leak_vv: p.leak_scale_w * volts * volts,
            gate: 0.25 + 0.75 * f64::from(active) / f64::from(p.cores),
            alpha: p.leak_alpha,
            ref_c: p.leak_ref_c,
            uncore_w: if collapsed { 0.0 } else { p.uncore_w },
            collapsed,
        }
    }

    /// A temperature-independent constant draw (the board-overhead node).
    pub fn constant(watts: f64) -> Self {
        NodePowerCoeffs {
            dyn_w: watts,
            ..NodePowerCoeffs::default()
        }
    }

    /// The node's power at `temp_c`, watts — bit-identical to
    /// [`PowerParams::total_w`] at the frozen operating point.
    #[inline]
    pub fn eval(&self, temp_c: f64) -> f64 {
        let leak = self.leak_vv * (self.alpha * (temp_c - self.ref_c)).exp() * self.gate;
        if self.collapsed {
            leak
        } else {
            self.dyn_w + leak + self.uncore_w
        }
    }
}

/// The whole board's node power model at a frozen operating point: one
/// [`NodePowerCoeffs`] per thermal node, evaluated per step against a
/// lane's temperatures. The single-app constructor mirrors
/// [`node_powers_into`](crate::node_powers_into) branch for branch, so
/// per-step evaluation is bit-identical to the scalar path — the
/// property the batched-vs-scalar sweep parity tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePowerModel {
    coeffs: Vec<NodePowerCoeffs>,
}

impl NodePowerModel {
    /// The power model for one application mapped on `mapping` at
    /// `freqs` — the frozen-coefficient twin of
    /// [`node_powers_into`](crate::node_powers_into) with the same
    /// utilisation rules (`cpu_busy`/`gpu_busy` floors, the always-on
    /// LITTLE core, every GPU shader while its share runs).
    ///
    /// # Panics
    ///
    /// Panics if `board.gpu_shaders` exceeds the GPU power domain's
    /// cores, as the scalar model does.
    pub fn single_app(
        board: &Board,
        mapping: CpuMapping,
        freqs: ClusterFreqs,
        cpu_busy: bool,
        gpu_busy: bool,
        activity: f64,
    ) -> Self {
        let mut coeffs = vec![NodePowerCoeffs::default(); board.thermal.len()];

        let big_active = mapping.big;
        let big_util = if cpu_busy && big_active > 0 {
            1.0
        } else {
            0.03
        };
        coeffs[board.nodes.big] = NodePowerCoeffs::for_domain(
            &board.big_power,
            board.big_opps.volts_at(freqs.big),
            freqs.big.as_hz(),
            big_active,
            big_util,
            activity,
        );

        let little_active = mapping.little.max(1);
        let little_util = if cpu_busy && mapping.little > 0 {
            1.0
        } else {
            0.08
        };
        coeffs[board.nodes.little] = NodePowerCoeffs::for_domain(
            &board.little_power,
            board.little_opps.volts_at(freqs.little),
            freqs.little.as_hz(),
            little_active,
            little_util,
            activity,
        );

        assert!(
            board.gpu_shaders <= board.gpu_power.cores,
            "board.gpu_shaders ({}) exceeds the GPU power domain's cores ({})",
            board.gpu_shaders,
            board.gpu_power.cores
        );
        let gpu_util = if gpu_busy { 1.0 } else { 0.02 };
        coeffs[board.nodes.gpu] = NodePowerCoeffs::for_domain(
            &board.gpu_power,
            board.gpu_opps.volts_at(freqs.gpu),
            freqs.gpu.as_hz(),
            board.gpu_shaders,
            gpu_util,
            activity,
        );

        coeffs[board.nodes.board] = NodePowerCoeffs::constant(board.board_base_w);
        NodePowerModel { coeffs }
    }

    /// Evaluates every node's power at the temperatures `temps` into
    /// `out` — bit-identical to [`node_powers_into`](crate::node_powers_into)
    /// at the frozen operating point, without re-deriving voltages,
    /// utilisations and dynamic power on every call.
    ///
    /// # Panics
    ///
    /// Panics if `temps` or `out` differs in length from the node count.
    pub fn eval_into(&self, temps: &[f64], out: &mut [f64]) {
        assert_eq!(temps.len(), self.coeffs.len(), "temperature vector length");
        assert_eq!(out.len(), self.coeffs.len(), "power vector length");
        for ((o, c), &t) in out.iter_mut().zip(&self.coeffs).zip(temps) {
            *o = c.eval(t);
        }
    }

    /// Evaluates every node's power at `lane`'s current temperatures,
    /// writing the node-major SoA power vector slots for that lane and
    /// returning the total draw (summed in node-index order, matching
    /// the scalar engine's `power.iter().sum()`).
    ///
    /// # Panics
    ///
    /// Panics if the coefficient count differs from `batch.nodes()`,
    /// `lane` is out of range, or `power_w` is not batch-sized.
    pub fn eval_into_lane(&self, batch: &ThermalBatch, lane: usize, power_w: &mut [f64]) -> f64 {
        assert_eq!(self.coeffs.len(), batch.nodes(), "node count mismatch");
        assert_eq!(
            power_w.len(),
            batch.nodes() * batch.stride(),
            "SoA power vector length mismatch"
        );
        assert!(lane < batch.lanes(), "lane {lane} out of range");
        let kp = batch.stride();
        let mut total = 0.0;
        for (i, c) in self.coeffs.iter().enumerate() {
            let w = c.eval(batch.temps[i * kp + lane]);
            power_w[i * kp + lane] = w;
            total += w;
        }
        total
    }
}

/// Every resident lane's [`NodePowerModel`] transposed into node-major
/// coefficient planes, so the per-step power evaluation runs as one
/// vectorized sweep over the batch instead of K strided scalar passes.
///
/// The payoff is the leakage exponential: with coefficients laid out
/// lane-contiguous, each leaky node row evaluates
/// `exp(α·(T − T_ref))` for four lanes at once through
/// [`exp_exact4`](crate::fastexp::exp_exact4) — bit-identical to the
/// `f64::exp` the scalar path calls, at a fraction of the cost.
///
/// # Exactness
///
/// Per lane and node, [`BatchPowerModel::eval_into`] performs exactly
/// the operation sequence of [`NodePowerCoeffs::eval`], and per lane
/// accumulates node powers in index order exactly like
/// [`NodePowerModel::eval_into_lane`] — so both the SoA power vector
/// and the per-lane totals are bit-identical (pinned by the tests
/// below). Two structural simplifications are bit-safe by
/// construction:
///
/// * the `collapsed` branch is dropped: collapsed coefficients have
///   `dyn_w == 0.0` and `uncore_w == 0.0`, and `0.0 + leak + 0.0`
///   reproduces `leak`'s bits exactly (leakage is never negative);
/// * rows where **no** lane has a leakage prefactor (the constant
///   board node, and any row of cleared lanes) skip the exponential:
///   the scalar path's `0.0 · e^x · gate` is `+0.0` for every finite
///   `e^x`, which is what the skip writes.
///
/// Cleared (and SIMD-padding) lanes hold all-zero coefficients with a
/// benign `α = 1, T_ref = −1` so a leaky row's exponential argument
/// stays inside [`crate::fastexp::exp_exact4`]'s vector window instead
/// of forcing the near-zero fallback every round; their power is exactly
/// `0.0` either way.
#[derive(Debug, Clone)]
pub struct BatchPowerModel {
    n: usize,
    k: usize,
    kp: usize,
    dyn_w: Vec<f64>,    // n*kp node-major planes, lane-contiguous rows
    leak_vv: Vec<f64>,  // n*kp
    gate: Vec<f64>,     // n*kp
    uncore_w: Vec<f64>, // n*kp
    /// `dyn_w + 0.0 + uncore_w`, precomputed at load time — the exact
    /// temperature-independent sum a leakage-free node contributes, so
    /// non-leaky rows reduce to one load per lane in the hot sweep.
    const_w: Vec<f64>, // n*kp
    alpha: Vec<f64>,    // n*kp
    ref_c: Vec<f64>,    // n*kp
    /// Per node: does any lane carry a leakage prefactor? Rows that
    /// don't skip the exponential (see type docs for why that's exact).
    leaky: Vec<bool>, // n
}

impl BatchPowerModel {
    /// An all-cleared model shaped for `batch` (every lane evaluates to
    /// zero power until [`BatchPowerModel::set_lane`] loads it).
    pub fn for_batch(batch: &ThermalBatch) -> Self {
        let (n, k, kp) = (batch.nodes(), batch.lanes(), batch.stride());
        BatchPowerModel {
            n,
            k,
            kp,
            dyn_w: vec![0.0; n * kp],
            leak_vv: vec![0.0; n * kp],
            gate: vec![0.0; n * kp],
            uncore_w: vec![0.0; n * kp],
            const_w: vec![0.0; n * kp],
            alpha: vec![1.0; n * kp],
            ref_c: vec![-1.0; n * kp],
            leaky: vec![false; n],
        }
    }

    /// Loads `model`'s per-node coefficients into `lane`'s column.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `model` has the wrong node
    /// count.
    pub fn set_lane(&mut self, lane: usize, model: &NodePowerModel) {
        assert!(lane < self.k, "lane {lane} out of range");
        assert_eq!(model.coeffs.len(), self.n, "node count mismatch");
        for (i, c) in model.coeffs.iter().enumerate() {
            let idx = i * self.kp + lane;
            self.dyn_w[idx] = c.dyn_w;
            self.leak_vv[idx] = c.leak_vv;
            self.gate[idx] = c.gate;
            self.uncore_w[idx] = c.uncore_w;
            self.const_w[idx] = c.dyn_w + 0.0 + c.uncore_w;
            self.alpha[idx] = c.alpha;
            self.ref_c[idx] = c.ref_c;
        }
        self.recompute_leaky();
    }

    /// Clears `lane` back to the all-zero (benign-argument) state; its
    /// evaluated power becomes exactly `0.0` in every node.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn clear_lane(&mut self, lane: usize) {
        assert!(lane < self.k, "lane {lane} out of range");
        for i in 0..self.n {
            let idx = i * self.kp + lane;
            self.dyn_w[idx] = 0.0;
            self.leak_vv[idx] = 0.0;
            self.gate[idx] = 0.0;
            self.uncore_w[idx] = 0.0;
            self.const_w[idx] = 0.0;
            self.alpha[idx] = 1.0;
            self.ref_c[idx] = -1.0;
        }
        self.recompute_leaky();
    }

    fn recompute_leaky(&mut self) {
        for i in 0..self.n {
            let row = &self.leak_vv[i * self.kp..(i + 1) * self.kp];
            self.leaky[i] = row.iter().any(|&v| v != 0.0);
        }
    }

    /// Evaluates every lane's power at its current batch temperatures
    /// in one node-major sweep: fills the SoA `power_w` vector and
    /// writes each lane's total draw (summed in node-index order) into
    /// `totals`. Bit-identical per lane to
    /// [`NodePowerModel::eval_into_lane`]; see the type docs.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape, `power_w` or `totals` do not match
    /// this model's dimensions.
    pub fn eval_into(&self, batch: &ThermalBatch, power_w: &mut [f64], totals: &mut [f64]) {
        assert_eq!(batch.nodes(), self.n, "node count mismatch");
        assert_eq!(batch.stride(), self.kp, "stride mismatch");
        assert_eq!(power_w.len(), self.n * self.kp, "power vector length");
        assert_eq!(totals.len(), self.kp, "totals length");
        totals.fill(0.0);
        let kp = self.kp;
        for i in 0..self.n {
            let base = i * kp;
            // Row subslices: one bounds check each here instead of one
            // per element in the hot loops below.
            let temps = &batch.temps[base..base + kp];
            let dyn_w = &self.dyn_w[base..base + kp];
            let leak_vv = &self.leak_vv[base..base + kp];
            let gate = &self.gate[base..base + kp];
            let uncore = &self.uncore_w[base..base + kp];
            let alpha = &self.alpha[base..base + kp];
            let ref_c = &self.ref_c[base..base + kp];
            let out = &mut power_w[base..base + kp];
            if self.leaky[i] {
                // Wide fixed-width windows (the thermal kernel's block
                // shape): the exponential's polynomial is one serial
                // FMA chain per lane, so a 16-lane block gives the core
                // four independent vector chains to overlap, and the
                // `try_into` window proofs hoist every bounds check out
                // of the arithmetic. Block width is schedule only —
                // per-lane bits are unchanged (see `exp_exact_block`).
                const GW: usize = 16;
                let mut o = 0;
                while o + GW <= kp {
                    let t: &[f64; GW] = temps[o..o + GW].try_into().expect("window");
                    let a: &[f64; GW] = alpha[o..o + GW].try_into().expect("window");
                    let rc: &[f64; GW] = ref_c[o..o + GW].try_into().expect("window");
                    let lv: &[f64; GW] = leak_vv[o..o + GW].try_into().expect("window");
                    let g: &[f64; GW] = gate[o..o + GW].try_into().expect("window");
                    let d: &[f64; GW] = dyn_w[o..o + GW].try_into().expect("window");
                    let u: &[f64; GW] = uncore[o..o + GW].try_into().expect("window");
                    let mut x = [0.0f64; GW];
                    for j in 0..GW {
                        x[j] = a[j] * (t[j] - rc[j]);
                    }
                    let e = crate::fastexp::exp_exact_block(x);
                    let ow: &mut [f64; GW] = (&mut out[o..o + GW]).try_into().expect("window");
                    let tw: &mut [f64; GW] = (&mut totals[o..o + GW]).try_into().expect("window");
                    for j in 0..GW {
                        let leak = (lv[j] * e[j]) * g[j];
                        let w = d[j] + leak + u[j];
                        ow[j] = w;
                        tw[j] += w;
                    }
                    o += GW;
                }
                while o < kp {
                    let mut x = [0.0f64; 4];
                    for j in 0..4 {
                        x[j] = alpha[o + j] * (temps[o + j] - ref_c[o + j]);
                    }
                    let e = crate::fastexp::exp_exact4(x);
                    for j in 0..4 {
                        let leak = (leak_vv[o + j] * e[j]) * gate[o + j];
                        let w = dyn_w[o + j] + leak + uncore[o + j];
                        out[o + j] = w;
                        totals[o + j] += w;
                    }
                    o += 4;
                }
            } else {
                // The row's temperature-independent sum was folded at
                // load time (`const_w = dyn_w + 0.0 + uncore_w`, the
                // exact expression this branch used to evaluate).
                let cw = &self.const_w[base..base + kp];
                for lane in 0..kp {
                    let w = cw[lane];
                    out[lane] = w;
                    totals[lane] += w;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::SensorBank;
    use crate::thermal::ThermalModelBuilder;
    use crate::{node_powers_into, MHz};

    fn toy(ambient: f64, hot: f64) -> ThermalModel {
        let mut b = ThermalModelBuilder::new(ambient);
        let die = b.node("die", 0.5, 0.0, hot);
        let board = b.node("board", 50.0, 0.5, ambient + 5.0);
        b.connect(die, board, 0.2);
        b.build()
    }

    #[test]
    fn batched_euler_is_bit_identical_per_lane() {
        // k = 5 (kp = 8) runs entirely on the block tail path; k = 18
        // (kp = 20) covers one full 16-lane window *and* a trailing
        // block — both kernel paths must match scalar bit for bit.
        for k in [5usize, 18] {
            batched_euler_case(k);
        }
    }

    fn batched_euler_case(k: usize) {
        let mut scalars: Vec<ThermalModel> = (0..k)
            .map(|i| toy(20.0 + 3.0 * i as f64, 60.0 + 7.0 * i as f64))
            .collect();
        let mut batch = ThermalBatch::like(&scalars[0], k);
        assert_eq!(batch.stride(), k.div_ceil(LANES) * LANES);
        for (lane, m) in scalars.iter().enumerate() {
            batch.load_lane(lane, m);
        }
        let mut scratch = BatchScratch::for_batch(&batch);
        for step in 0..200 {
            for (lane, m) in scalars.iter_mut().enumerate() {
                let p = [1.5 + 0.25 * lane as f64 + 0.001 * step as f64, 0.125];
                for (node, &w) in p.iter().enumerate() {
                    scratch.power[node * batch.stride() + lane] = w;
                }
                let sub_scalar = m.step(0.01, &p);
                if lane == 0 {
                    assert!(sub_scalar >= 1);
                }
            }
            batch.step(0.01, &scratch.power);
            for (lane, m) in scalars.iter().enumerate() {
                for node in 0..m.len() {
                    assert_eq!(
                        batch.lane_temp(node, lane).to_bits(),
                        m.temp(node).to_bits(),
                        "step {step} lane {lane} node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn substep_count_matches_scalar() {
        let mut m = toy(25.0, 80.0);
        let mut batch = ThermalBatch::like(&m, 3);
        let scratch = BatchScratch::for_batch(&batch);
        let dt = m.max_stable_dt() * 2.5;
        assert_eq!(batch.step(dt, &scratch.power), m.step(dt, &[0.0, 0.0]));
    }

    #[test]
    fn store_lane_round_trips() {
        let src = toy(25.0, 77.25);
        let mut batch = ThermalBatch::like(&src, 2);
        batch.load_lane(1, &src);
        let mut dst = toy(25.0, 0.0);
        batch.store_lane(1, &mut dst);
        assert_eq!(dst.temps(), src.temps());
    }

    #[test]
    fn matches_rejects_different_topology() {
        let a = toy(25.0, 60.0);
        let batch = ThermalBatch::like(&a, 1);
        assert!(
            batch.matches(&toy(30.0, 90.0)),
            "same topology, other state"
        );
        let mut b = ThermalModelBuilder::new(25.0);
        let n0 = b.node("die", 0.5, 0.0, 60.0);
        let n1 = b.node("board", 50.0, 0.5, 30.0);
        b.connect(n0, n1, 0.3); // different edge conductance
        assert!(!batch.matches(&b.build()));
    }

    #[test]
    fn soa_power_model_matches_per_lane_eval_bitwise() {
        // 6 lanes (kp = 8: two padding lanes) with distinct operating
        // points and temperatures; the vectorized node-major sweep must
        // reproduce every lane's strided scalar evaluation bit for bit,
        // including totals and the all-zero cleared/padding columns.
        let board = Board::odroid_xu4_with(25.0, SensorBank::tmu_like(7));
        let k = 6;
        let mut batch = ThermalBatch::like(&board.thermal, k);
        let mut twin = board.thermal.clone();
        let mut models = Vec::new();
        for lane in 0..k {
            for node in 0..board.thermal.len() {
                twin.set_temp(node, 30.0 + 9.5 * lane as f64 + 3.25 * node as f64);
            }
            batch.load_lane(lane, &twin);
            let freqs = ClusterFreqs {
                big: MHz(600 + 200 * lane as u32),
                little: MHz(1400),
                gpu: MHz(if lane % 2 == 0 { 543 } else { 177 }),
            };
            let mapping = if lane % 3 == 0 {
                CpuMapping::new(0, 2)
            } else {
                CpuMapping::new(4, 0)
            };
            models.push(NodePowerModel::single_app(
                &board,
                mapping,
                freqs,
                lane % 2 == 0,
                lane % 3 != 1,
                0.6 + 0.05 * lane as f64,
            ));
        }
        let mut soa = BatchPowerModel::for_batch(&batch);
        for (lane, m) in models.iter().enumerate() {
            soa.set_lane(lane, m);
        }
        let mut got = BatchScratch::for_batch(&batch);
        let mut totals = vec![0.0; batch.stride()];
        soa.eval_into(&batch, &mut got.power, &mut totals);
        let mut want = BatchScratch::for_batch(&batch);
        for (lane, m) in models.iter().enumerate() {
            let total = m.eval_into_lane(&batch, lane, &mut want.power);
            assert_eq!(totals[lane].to_bits(), total.to_bits(), "total lane {lane}");
        }
        for (idx, (&g, &w)) in got.power.iter().zip(&want.power).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "power slot {idx}");
        }
        for (lane, &t) in totals.iter().enumerate().skip(k) {
            assert_eq!(t, 0.0, "padding lane {lane} draws power");
        }

        // Clearing a lane zeroes its column without perturbing others.
        soa.clear_lane(2);
        soa.eval_into(&batch, &mut got.power, &mut totals);
        assert_eq!(totals[2], 0.0);
        for (lane, m) in models.iter().enumerate() {
            if lane == 2 {
                continue;
            }
            let total = m.eval_into_lane(&batch, lane, &mut want.power);
            assert_eq!(totals[lane].to_bits(), total.to_bits(), "post-clear {lane}");
        }
        for node in 0..batch.nodes() {
            assert_eq!(got.power[node * batch.stride() + 2], 0.0, "node {node}");
        }
    }

    #[test]
    fn frozen_power_model_matches_node_powers_into() {
        let board = Board::odroid_xu4_with(25.0, SensorBank::tmu_like(42));
        let freqs = ClusterFreqs {
            big: MHz(1800),
            little: MHz(1400),
            gpu: MHz(543),
        };
        let temps = [81.5, 60.25, 72.125, 45.0];
        let mut batch = ThermalBatch::like(&board.thermal, 1);
        // Load the reference temperatures into lane 0 via a scalar twin.
        let mut twin = board.thermal.clone();
        for (node, &t) in temps.iter().enumerate() {
            twin.set_temp(node, t);
        }
        batch.load_lane(0, &twin);
        let mut scratch = BatchScratch::for_batch(&batch);
        for mapping in [CpuMapping::new(0, 0), CpuMapping::new(2, 3)] {
            for &(cpu_busy, gpu_busy) in
                &[(true, true), (true, false), (false, true), (false, false)]
            {
                let mut reference = vec![0.0; board.thermal.len()];
                node_powers_into(
                    &board,
                    mapping,
                    freqs,
                    cpu_busy,
                    gpu_busy,
                    0.85,
                    &temps,
                    &mut reference,
                );
                let model =
                    NodePowerModel::single_app(&board, mapping, freqs, cpu_busy, gpu_busy, 0.85);
                let total = model.eval_into_lane(&batch, 0, &mut scratch.power);
                for (node, &want) in reference.iter().enumerate() {
                    let got = scratch.power[node * batch.stride()];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "node {node} busy=({cpu_busy},{gpu_busy}) mapping {mapping:?}"
                    );
                }
                let want_total: f64 = reference.iter().sum();
                assert_eq!(total.to_bits(), want_total.to_bits(), "total draw");
                let mut scalar = vec![f64::NAN; board.thermal.len()];
                model.eval_into(&temps, &mut scalar);
                for (node, (&got, &want)) in scalar.iter().zip(&reference).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "eval_into node {node}");
                }
            }
        }
    }
}
