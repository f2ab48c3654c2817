//! What a run records: host time per call and per layer stage, the
//! output checks, and a digest of every modelled output.

use crate::calib;
use std::collections::BTreeMap;
use std::time::Instant;

/// Op kinds per workload; `opN_per_s` reports each one's throughput.
pub const KINDS: usize = 4;

/// One measured cycle of calls through every op kind.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub ops: u64,
    pub secs: f64,
    pub kind_ops: [u64; KINDS],
    pub kind_secs: [f64; KINDS],
    /// Calibration unit time the cycle is normalised by: the mean of the
    /// calibrations on either side of it, which follows a change of host
    /// speed during the cycle better than either alone.
    pub unit: f64,
}

impl Cycle {
    /// Host seconds on the reference CPU.
    pub fn ref_secs(&self) -> f64 {
        calib::normalise(self.secs, self.unit)
    }

    /// Throughput of op kind `k` on the reference CPU, if the cycle ran it.
    pub fn kind_rate(&self, k: usize) -> Option<f64> {
        (self.kind_ops[k] > 0 && self.kind_secs[k] > 0.0)
            .then(|| self.kind_ops[k] as f64 / calib::normalise(self.kind_secs[k], self.unit))
    }
}

pub struct Meter {
    started: Instant,
    /// Measured cycles. Calls are folded into the open cycle as they end,
    /// so the benchmark's own memory does not grow with the call count
    /// and leave its mark on `peak_rss_mb`.
    cycles: Vec<Cycle>,
    open: Cycle,
    unit_before: f64,
    pending_ops: [u64; KINDS],
    pending_secs: [f64; KINDS],
    pending_call_secs: f64,
    /// Host seconds per layer function, named `<layer>.<what>`.
    pub busy: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: Digest,
    /// Largest photonic-vs-digital-twin logit error seen, per engine.
    pub twin_err: BTreeMap<&'static str, f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            cycles: Vec::with_capacity(1 << 16),
            open: Cycle::default(),
            unit_before: 0.0,
            pending_ops: [0; KINDS],
            pending_secs: [0.0; KINDS],
            pending_call_secs: 0.0,
            busy: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digest: Digest::new(),
            twin_err: BTreeMap::new(),
        }
    }

    /// Begin the measured phase: later calls feed the host metrics, and
    /// the prefix's calls are dropped.
    pub fn start_measured(&mut self) {
        self.open = Cycle::default();
        self.started = Instant::now();
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Time one call into a layer's public function. `kind` attributes
    /// `ops` completed operations to an op kind; stages that complete no
    /// op of their own pass `None`.
    pub fn stage<R>(
        &mut self,
        kind: Option<usize>,
        layer: &'static str,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        self.record(kind, layer, ops, t0);
        r
    }

    /// Book the host time since `t0` as one stage (see [`Meter::stage`]);
    /// for calls whose result borrows the engine.
    pub fn record(&mut self, kind: Option<usize>, layer: &'static str, ops: u64, t0: Instant) {
        let dt = t0.elapsed().as_secs_f64();
        *self.busy.entry(layer).or_default() += dt;
        self.pending_call_secs += dt;
        if let Some(k) = kind {
            self.pending_ops[k] += ops;
            self.pending_secs[k] += dt;
        }
    }

    /// Close one call that completed `ops` operations. Its host time is
    /// the sum of the stages recorded since the previous call, so the
    /// benchmark's own checks never count as program time.
    pub fn end_call(&mut self, ops: u64) {
        self.attempted += 1;
        self.open.ops += ops;
        self.open.secs += std::mem::take(&mut self.pending_call_secs);
        for k in 0..KINDS {
            self.open.kind_ops[k] += std::mem::take(&mut self.pending_ops[k]);
            self.open.kind_secs[k] += std::mem::take(&mut self.pending_secs[k]);
        }
    }

    /// A call that returned an error.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// One output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Calibrate before the first measured cycle.
    pub fn calibrate_start(&mut self) {
        self.unit_before = calib::unit_s(0.0);
    }

    /// Close the open cycle and calibrate after it.
    pub fn calibrate_cycle(&mut self) {
        let mut cycle = std::mem::take(&mut self.open);
        let unit_after = calib::unit_s(cycle.secs);
        cycle.unit = (self.unit_before + unit_after) / 2.0;
        self.cycles.push(cycle);
        self.unit_before = unit_after;
    }

    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// Check photonic `logits` against the engine's digital `twin`
    /// within `tol`.
    pub fn twin(&mut self, engine: &'static str, logits: &[f64], twin: &[f64], tol: f64) {
        let err = max_abs_diff(logits, twin);
        let worst = self.twin_err.entry(engine).or_default();
        *worst = worst.max(err);
        self.check(err < tol, || {
            format!("{engine} logits off the digital twin by {err} (tol {tol})")
        });
    }

    /// Operations completed in the measured phase.
    pub fn ops(&self) -> u64 {
        self.cycles.iter().map(|c| c.ops).sum()
    }

    pub fn busy_s(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }
}

/// FNV-1a over the bit patterns of modelled outputs: any change to a
/// modelled value, in any digit, changes the digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Largest absolute element-wise difference; infinite on a shape
/// mismatch so the tolerance check fails.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Bank width: inputs one tile MVM sums.
const TILE: usize = 16;

/// ENOB-derived error of one tile MVM: a 16-wide tile at ≥ 7 effective
/// bits carries at most `2·TILE·2⁻⁷` of quantization and crosstalk error
/// (the bound the photonic-vs-float tests use).
pub const ENOB_TILE_TOL: f64 = 2.0 * TILE as f64 * 0.007_812_5;

/// Logit tolerance against the digital twin for an engine whose widest
/// MVM takes `inputs` values: that MVM sums one partial result per
/// column tile, and each tile carries its own quantum.
pub fn logit_tol(inputs: usize) -> f64 {
    ENOB_TILE_TOL * inputs.div_ceil(TILE) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.f64s(&[1.0, 2.0]);
        b.f64s(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn tolerance_grows_with_column_tiles() {
        assert_eq!(logit_tol(16), 0.25);
        assert_eq!(logit_tol(64), 4.0 * ENOB_TILE_TOL);
        assert_eq!(logit_tol(36), 3.0 * ENOB_TILE_TOL);
    }

    #[test]
    fn calls_collect_their_stages() {
        let mut m = Meter::new();
        m.stage(Some(1), "layer.a", 3, || ());
        m.stage(None, "layer.b", 0, || ());
        m.end_call(3);
        m.check(false, || "bad".into());
        m.calibrate_start();
        m.calibrate_cycle();
        assert_eq!(m.cycles()[0].kind_ops, [0, 3, 0, 0]);
        assert_eq!((m.attempted, m.failed, m.ops()), (2, 1, 3));
        assert!(m.busy.contains_key("layer.b"));
    }
}
