//! The photonic MLP engine: whole networks on simulated Trident hardware.
//!
//! One PE is allocated per 16×16 weight tile (the paper assigns "one PE to
//! each layer" for networks that fit; tiling generalises that to arbitrary
//! layer sizes — see [`crate::tiled`]). Inference keeps weights
//! stationary; training follows the paper's per-sample schedule:
//!
//! 1. **forward** — per layer: optical MVM tiles, electronic partial-sum
//!    accumulation across column tiles, LDSU latch, GST activation.
//! 2. **gradient vectors** (Table II mode 2) — banks reprogrammed with
//!    `Wᵀ`, signed MVM of the upstream error, Hadamard with the latched
//!    `f'(h)` via programmed TIA gains.
//! 3. **outer products** (Table II mode 3) — banks programmed with the
//!    cached layer inputs, per-ring demux readout of `δW`.
//! 4. **update** (Eq. 1) — `W ← W − β·δW`, clipped to the photonic range,
//!    quantized to the tuning method's bit resolution, and programmed back
//!    into the forward banks.
//!
//! Every optical programming event and symbol is charged to the energy
//! ledgers, so the training demos report honest device-level costs.

use crate::error::ArchError;
use crate::faults::{FaultPlan, FaultReport};
use crate::pe::{ProcessingElement, LOGIT_THRESHOLD};
use crate::tiled::{self, Agc, TileSeed, TiledMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
use trident_pcm::gst::{GstFault, WriteVerifyPolicy};
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{count, EnergyPj, Hours, Nanoseconds};
use trident_streams::bank_identity;

/// Activation slope of the GST cell (Fig. 3).
pub(crate) const GST_SLOPE: f64 = 0.34;

/// Reusable forward-pass working memory. Every buffer is cleared and
/// refilled in place each use, so once the engine is warm (capacities
/// grown to the network's widths) a forward pass performs no engine-side
/// heap allocation. Growth events are tallied in `heap_allocs` — the
/// number `ablation_serve` proves is zero in the steady state. The
/// modeled device dataflow inside the PEs (per-tile MVM returns, LDSU
/// latch vectors) sits outside this boundary: those allocations are part
/// of the hardware model, not the dispatch path (DESIGN.md §15).
#[derive(Debug, Default)]
struct ForwardScratch {
    /// Current activation vector for the single-sample path.
    y: Vec<f64>,
    /// Per-layer logit accumulator.
    h: Vec<f64>,
    /// Post-LDSU activation staging.
    act: Vec<f64>,
    /// Per-sample outputs of the latest [`PhotonicMlp::try_forward_batch`].
    batch_out: Vec<Vec<f64>>,
    /// Heap-growth events on the managed buffers (and layer caches).
    heap_allocs: u64,
}

/// Clear-and-copy into a reused buffer, tallying capacity growth.
pub(crate) fn copy_reuse(dst: &mut Vec<f64>, src: &[f64], allocs: &mut u64) {
    fill_reuse(dst, allocs, |dst| {
        dst.clear();
        dst.extend_from_slice(src);
    });
}

/// Write layer `k`'s cache slot in place. The pre-scratch implementation
/// rebuilt the cache with `clear()` + `push(value.clone())` every
/// forward; reusing the inner buffers keeps the cached values identical
/// while making the steady state allocation-free.
pub(crate) fn cache_set(cache: &mut Vec<Vec<f64>>, k: usize, src: &[f64], allocs: &mut u64) {
    if cache.len() <= k {
        cache.push(Vec::new());
        *allocs += 1;
    }
    copy_reuse(&mut cache[k], src, allocs);
}

/// Run `fill` on a reused buffer, tallying any capacity growth it causes.
pub(crate) fn fill_reuse(dst: &mut Vec<f64>, allocs: &mut u64, fill: impl FnOnce(&mut Vec<f64>)) {
    let had = dst.capacity();
    fill(dst);
    if dst.capacity() > had {
        *allocs += 1;
    }
}

/// Quantize `w` onto the `bits`-bit tuning grid of `[-1, 1]`.
pub(crate) fn quantize(w: f64, bits: u8) -> f64 {
    let levels = (1u32 << bits) - 1;
    let step = 2.0 / f64::from(levels - 1);
    (w.clamp(-1.0, 1.0) / step).round() * step
}

/// Eq. 1 on master weights: `w ← q(clip(w − β·g))`.
pub(crate) fn descend(weights: &mut [f64], grads: &[f64], learning_rate: f64, bits: u8) {
    for (w, &g) in weights.iter_mut().zip(grads) {
        *w = quantize((*w - learning_rate * g).clamp(-1.0, 1.0), bits);
    }
}

/// Index of the largest logit, ranked with a total order so a NaN can
/// never crash a classifier (0 for an empty slice).
pub(crate) fn argmax(logits: &[f64]) -> usize {
    logits.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

/// Grow `v`'s capacity to at least `cap` (warm-up helper, not counted).
pub(crate) fn reserve_to(v: &mut Vec<f64>, cap: usize) {
    if v.capacity() < cap {
        v.reserve(cap - v.len());
    }
}

/// Grow `slots` to at least `n` buffers of capacity `cap` each (warm-up
/// helper, not counted).
pub(crate) fn reserve_slots(slots: &mut Vec<Vec<f64>>, n: usize, cap: usize) {
    slots.resize_with(slots.len().max(n), Vec::new);
    for slot in slots {
        reserve_to(slot, cap);
    }
}

/// A dense network running on simulated photonic hardware.
pub struct PhotonicMlp {
    dims: Vec<usize>,
    /// Master (electronic) weight copies, row-major `[out × in]` per layer.
    weights: Vec<Vec<f64>>,
    /// Each layer's weights on its grid of PEs.
    layers: Vec<TiledMatrix>,
    /// Weight resolution in bits (8 for GST; 6 emulates thermal banks).
    weight_bits: u8,
    /// Cached per-layer inputs (`y_{k-1}`) from the latest forward pass.
    cached_inputs: Vec<Vec<f64>>,
    /// Cached per-layer logits (`h_k`) from the latest forward pass.
    cached_logits: Vec<Vec<f64>>,
    /// Engine-level (non-PE) energy: partial-sum accumulation etc.
    extra_energy: EnergyLedger,
    elapsed: Nanoseconds,
    /// When set (after [`PhotonicMlp::inject_faults`]), forward-weight
    /// programming runs through the banks' closed-loop program-and-verify
    /// path with remap/mask degradation instead of ideal open-loop pulses.
    fault_tolerant_writes: bool,
    /// Pulse-jitter stream for program-and-verify writes.
    write_rng: StdRng,
    /// Reusable forward-pass working memory (zero-alloc steady state).
    scratch: ForwardScratch,
}

/// Result of an in-situ training run.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Mean loss per epoch.
    pub loss_history: Vec<f64>,
    /// Final accuracy on the evaluation set.
    pub final_accuracy: f64,
    /// Total optical + electronic energy charged.
    pub total_energy: EnergyPj,
    /// GST programming energy alone.
    pub programming_energy: EnergyPj,
    /// Simulated wall-clock time.
    pub elapsed: Nanoseconds,
}

/// Construction options for [`PhotonicMlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Receiver-noise seed (`None` = ideal detectors).
    pub noise_seed: Option<u64>,
    /// Weight resolution in bits.
    pub weight_bits: u8,
    /// Fabrication variation: per-ring Gaussian resonance offset σ (nm).
    pub resonance_sigma_nm: f64,
    /// Seed for the fabrication-variation draw (a chip identity).
    pub variation_seed: u64,
    /// Statistical PCM device model (programming noise, read noise,
    /// power-law drift). `None` — the default everywhere the paper
    /// tables are produced — keeps the engine exactly deterministic.
    pub stat: Option<StatParams>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            noise_seed: None,
            weight_bits: 8,
            resonance_sigma_nm: 0.0,
            variation_seed: 0,
            stat: None,
        }
    }
}

impl PhotonicMlp {
    /// Build a photonic MLP with layer widths `dims` (e.g. `[64, 16, 10]`)
    /// on 16×16 PEs, Xavier-initialised from `seed`. `noise_seed` enables
    /// receiver noise; `weight_bits` sets the quantization the tuning
    /// technology supports.
    pub fn new(dims: &[usize], seed: u64, noise_seed: Option<u64>, weight_bits: u8) -> Self {
        Self::with_options(dims, EngineOptions { seed, noise_seed, weight_bits, ..Default::default() })
    }

    /// Build with full [`EngineOptions`] (fabrication variation etc.).
    ///
    /// # Panics
    /// Panics if the verified initial programming pass hits an
    /// unrecoverable device error; [`PhotonicMlp::try_with_options`] is
    /// the typed-error form.
    pub fn with_options(dims: &[usize], opts: EngineOptions) -> Self {
        Self::try_with_options(dims, opts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::with_options`].
    pub fn try_with_options(dims: &[usize], opts: EngineOptions) -> Result<Self, ArchError> {
        let EngineOptions {
            seed,
            noise_seed,
            weight_bits,
            resonance_sigma_nm,
            variation_seed,
            stat,
        } = opts;
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!((2..=8).contains(&weight_bits), "weight bits must be 2..=8");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut layers = Vec::new();
        for k in 1..dims.len() {
            let (out, inp) = (dims[k], dims[k - 1]);
            let limit = (6.0 / (out + inp) as f64).sqrt().min(1.0);
            weights.push((0..out * inp).map(|_| rng.gen_range(-limit..limit)).collect());
            // Every per-bank draw mixes the bank's (layer, tile) identity
            // into its master seed (trident-streams owns the arithmetic).
            layers.push(TiledMatrix::new(out, inp, |t| TileSeed {
                noise: noise_seed.map(|s| bank_identity(s, k - 1, t)),
                resonance_sigma_nm,
                variation_seed: bank_identity(variation_seed, k - 1, t),
                stat: stat.map(|params| (params, bank_identity(params.seed, k - 1, t))),
            }));
        }
        let mut engine = Self {
            dims: dims.to_vec(),
            weights,
            layers,
            weight_bits,
            cached_inputs: Vec::new(),
            cached_logits: Vec::new(),
            extra_energy: EnergyLedger::new(),
            elapsed: Nanoseconds(0.0),
            fault_tolerant_writes: false,
            write_rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            scratch: ForwardScratch::default(),
        };
        for k in 0..engine.layer_count() {
            engine.program_layer(k)?;
        }
        Ok(engine)
    }

    /// Number of weight layers.
    pub fn layer_count(&self) -> usize {
        self.dims.len() - 1
    }

    /// Layer `k`'s weight matrix dimensions `(out, in)`.
    pub fn layer_dims(&self, k: usize) -> (usize, usize) {
        (self.dims[k + 1], self.dims[k])
    }

    /// The layer widths this engine was built with (input first).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total PEs allocated.
    pub fn pe_count(&self) -> usize {
        self.pes().count()
    }

    /// Every PE, layer by layer in tile order.
    fn pes(&self) -> impl Iterator<Item = &ProcessingElement> {
        tiled::pes(&self.layers)
    }

    /// Every PE, layer by layer in tile order, mutably.
    fn pes_mut(&mut self) -> impl Iterator<Item = &mut ProcessingElement> {
        tiled::pes_mut(&mut self.layers)
    }

    /// Direct access to layer `k`'s master weights (for equivalence tests).
    pub fn layer_weights(&self, k: usize) -> &[f64] {
        &self.weights[k]
    }

    /// Overwrite layer `k`'s master weights and reprogram the banks.
    ///
    /// # Panics
    /// Panics on a size mismatch or a bad layer index;
    /// [`PhotonicMlp::try_set_layer_weights`] is the typed-error form.
    pub fn set_layer_weights(&mut self, k: usize, w: &[f64]) {
        self.try_set_layer_weights(k, w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::set_layer_weights`].
    pub fn try_set_layer_weights(&mut self, k: usize, w: &[f64]) -> Result<(), ArchError> {
        if k >= self.layer_count() {
            return Err(ArchError::LayerOutOfRange { layer: k, layers: self.layer_count() });
        }
        let (out, inp) = self.layer_dims(k);
        if w.len() != out * inp {
            return Err(ArchError::ShapeMismatch { expected: out * inp, got: w.len() });
        }
        self.weights[k] = w.iter().map(|&v| quantize(v, self.weight_bits)).collect();
        self.program_layer(k)
    }

    /// A copy of every layer's master weights, in layer order — the
    /// portable form of a trained model, ready for
    /// [`PhotonicMlp::try_deploy_weights`] onto another chip.
    pub fn snapshot_weights(&self) -> Vec<Vec<f64>> {
        self.weights.clone()
    }

    /// Deploy a full weight set (one `Vec` per layer, as produced by
    /// [`PhotonicMlp::snapshot_weights`]) onto this chip, quantizing and
    /// reprogramming every bank. The fleet-replica deployment path:
    /// pretrain once centrally, then push the same weights to N replicas.
    pub fn try_deploy_weights(&mut self, weights: &[Vec<f64>]) -> Result<(), ArchError> {
        if weights.len() != self.layer_count() {
            return Err(ArchError::LayerOutOfRange {
                layer: weights.len(),
                layers: self.layer_count(),
            });
        }
        for (k, w) in weights.iter().enumerate() {
            self.try_set_layer_weights(k, w)?;
        }
        Ok(())
    }

    /// Fork an independent replica of this engine: a fresh chip built
    /// with `opts` (its own fabrication variation, noise streams, fault
    /// state, energy and elapsed-time ledgers) carrying this engine's
    /// current master weights. The replica shares **no** state with the
    /// parent — the ownership model a serving fleet needs, where every
    /// replica has its own laser/thermal budget and wear trajectory.
    pub fn try_fork_replica(&self, opts: EngineOptions) -> Result<Self, ArchError> {
        let mut replica = Self::try_with_options(&self.dims, opts)?;
        replica.try_deploy_weights(&self.weights)?;
        Ok(replica)
    }

    /// Inject a sampled fault population into every PE of the engine and
    /// switch weight programming to the fault-tolerant closed-loop path.
    /// Deterministic in `plan.seed`. Returns what was actually injected.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> FaultReport {
        let _span = obs::span("engine.inject_faults");
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut report = FaultReport {
            stuck_amorphous: 0,
            stuck_crystalline: 0,
            dead_rings: 0,
            total_rings: 0,
            laser_droop: plan.laser_droop,
            drift_years: plan.drift_years,
        };
        for pe in self.pes_mut() {
            if plan.laser_droop > 0.0 {
                pe.set_laser_droop(plan.laser_droop);
            }
            let (rows, cols) = (pe.rows(), pe.cols());
            let bank = pe.bank_mut();
            for r in 0..rows {
                for c in 0..cols {
                    report.total_rings += 1;
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if u < plan.stuck_amorphous {
                        bank.inject_ring_fault(r, c, GstFault::StuckAmorphous);
                        report.stuck_amorphous += 1;
                    } else if u < plan.stuck_amorphous + plan.stuck_crystalline {
                        bank.inject_ring_fault(r, c, GstFault::StuckCrystalline);
                        report.stuck_crystalline += 1;
                    }
                    if plan.dead_rings > 0.0 && rng.gen_bool(plan.dead_rings) {
                        bank.mask_ring(r, c);
                        report.dead_rings += 1;
                    }
                }
            }
            if plan.drift_years > 0.0 {
                bank.advance_years(plan.drift_years);
            }
        }
        obs::add(
            obs::Counter::FaultInjectEvents,
            (report.stuck_amorphous + report.stuck_crystalline) as u64,
        );
        obs::add(obs::Counter::FaultMaskEvents, report.dead_rings as u64);
        self.fault_tolerant_writes = true;
        report
    }

    /// Advance every bank's degradation clock by `delta` hours of
    /// simulated deployment time and apply the active degradation law —
    /// statistical power-law drift when built with
    /// [`EngineOptions::stat`], deterministic crystallinity relaxation
    /// otherwise. This is the single way time passes for a deployed
    /// engine.
    pub fn advance_deployment(&mut self, delta: Hours) {
        let _span = obs::span("engine.advance_deployment");
        for pe in self.pes_mut() {
            pe.bank_mut().advance_hours(delta);
        }
    }

    /// Run one drift-calibration pass on every bank (one reference-column
    /// read each), updating the global compensation gains. The probe
    /// energy lands in each bank's `"drift calibration"` ledger entry (so
    /// [`PhotonicMlp::total_energy`] and the obs counters both see it);
    /// the total is returned. A no-op returning zero without the
    /// statistical layer.
    pub fn calibrate_drift_compensation(&mut self) -> EnergyPj {
        let _span = obs::span("engine.drift_calibration");
        tiled::calibrate(&mut self.layers)
    }

    /// Open every bank's drift-compensation loop (gain back to unity) for
    /// the duration of a reprogramming campaign — see
    /// [`WeightBank::disengage_compensation`](crate::bank::WeightBank::disengage_compensation)
    /// for why training under a stale gain is unsafe. A no-op without the
    /// statistical layer.
    pub fn disengage_drift_compensation(&mut self) {
        for pe in self.pes_mut() {
            pe.bank_mut().disengage_compensation();
        }
    }

    /// Whether the statistical device layer is active on the engine's
    /// banks.
    pub fn stat_enabled(&self) -> bool {
        self.pes().any(|pe| pe.bank().stat_enabled())
    }

    /// Whether programming runs through the fault-tolerant verified path.
    pub fn fault_tolerant_writes(&self) -> bool {
        self.fault_tolerant_writes
    }

    /// Opt into (or out of) closed-loop program-and-verify writes without
    /// injecting any faults.
    pub fn set_fault_tolerant_writes(&mut self, enabled: bool) {
        self.fault_tolerant_writes = enabled;
    }

    /// Writes rejected by stuck cells or failed by verify, summed over
    /// every bank.
    pub fn write_failures(&self) -> u64 {
        self.pes().map(|pe| pe.bank().write_failures()).sum()
    }

    /// Faulty or worn cells remapped onto spare rings, summed over banks.
    pub fn remapped_rings(&self) -> u64 {
        self.pes().map(|pe| pe.bank().remapped_count()).sum()
    }

    /// Dead slots masked out of the optics, summed over banks.
    pub fn masked_rings(&self) -> usize {
        self.pes().map(|pe| pe.bank().masked_count()).sum()
    }

    /// Program layer `k`'s master weights into its forward banks: open
    /// loop, or closed-loop program-and-verify with remap/mask
    /// degradation once the engine writes fault-tolerantly.
    fn program_layer(&mut self, k: usize) -> Result<(), ArchError> {
        let (layer, w) = (&mut self.layers[k], &self.weights[k]);
        if self.fault_tolerant_writes {
            layer.program_verified(w, &WriteVerifyPolicy::default(), &mut self.write_rng)
        } else {
            layer.program(w);
            Ok(())
        }
    }

    /// Forward one sample photonically. Input entries must lie in `[0, 1]`
    /// (image-like data). Returns the output logits.
    ///
    /// # Panics
    /// Panics on an input-width mismatch; [`PhotonicMlp::try_forward`] is
    /// the typed-error form.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.try_forward(x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::forward`].
    pub fn try_forward(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        self.try_forward_stage(x, true)
    }

    /// Forward one sample through this engine as **one stage of a
    /// layer-sharded pipeline**. With `tail = true` this is exactly
    /// [`PhotonicMlp::try_forward`]: the last layer's logits pass through
    /// unactivated (the network tail, read by the loss). With
    /// `tail = false` the last layer is an interior layer of a larger
    /// network split across stage engines, so its rows go through the
    /// same `latch_and_activate` path every other hidden layer uses and
    /// the activated vector feeds the next stage.
    pub fn try_forward_stage(&mut self, x: &[f64], tail: bool) -> Result<Vec<f64>, ArchError> {
        let mut out = Vec::new();
        self.try_forward_stage_into(x, tail, &mut out)?;
        Ok(out)
    }

    /// [`PhotonicMlp::try_forward_stage`] writing the stage output into a
    /// caller-owned buffer (cleared first) — the zero-allocation form: a
    /// warm engine with a warm `out` buffer performs no engine-side heap
    /// allocation here.
    pub fn try_forward_stage_into(
        &mut self,
        x: &[f64],
        tail: bool,
        out: &mut Vec<f64>,
    ) -> Result<(), ArchError> {
        if x.len() != self.dims[0] {
            return Err(ArchError::ShapeMismatch { expected: self.dims[0], got: x.len() });
        }
        let trace = obs::enabled();
        let _forward_span = obs::span("engine.forward");
        let mut scratch = std::mem::take(&mut self.scratch);
        let allocs_before = scratch.heap_allocs;
        let mut y = std::mem::take(&mut scratch.y);
        copy_reuse(&mut y, x, &mut scratch.heap_allocs);
        for k in 0..self.layer_count() {
            let _layer_span = if trace {
                obs::span_owned(format!("forward.layer{k}"))
            } else {
                obs::SpanGuard::disabled()
            };
            self.forward_layer_step(k, tail, trace, &mut y, &mut scratch);
        }
        copy_reuse(out, &y, &mut scratch.heap_allocs);
        scratch.y = y;
        obs::add(obs::Counter::HotPathAllocs, scratch.heap_allocs - allocs_before);
        self.scratch = scratch;
        Ok(())
    }

    /// One layer of the forward dataflow for one sample: MVM tiles into
    /// `scratch.h` with electronic partial-sum accumulation across column
    /// tiles, then either the tail identity (logits out) or the LDSU
    /// latch-and-activate; the resulting vector replaces `y`'s contents.
    ///
    /// This is exactly the per-layer body of the pre-scratch
    /// `try_forward_stage` — same float operations in the same order, same
    /// PE call sequence, same psum energy charges — only the transient
    /// `vec![]`s are replaced by reused buffers, so outputs stay bitwise
    /// identical (pinned by `scratch_forward_is_bitwise_identical` below).
    /// With `trace`, the layer's simulated time is tallied to obs.
    fn forward_layer_step(
        &mut self,
        k: usize,
        tail: bool,
        trace: bool,
        y: &mut Vec<f64>,
        scratch: &mut ForwardScratch,
    ) {
        let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
        let last = k + 1 == self.layer_count();
        cache_set(&mut self.cached_inputs, k, y, &mut scratch.heap_allocs);
        let (layer, extra) = (&mut self.layers[k], &mut self.extra_energy);
        fill_reuse(&mut scratch.h, &mut scratch.heap_allocs, |h| {
            layer.mvm_agc(y, Agc::AbsClamped, h, Some(extra));
        });
        cache_set(&mut self.cached_logits, k, &scratch.h, &mut scratch.heap_allocs);
        if last && tail {
            // Output layer: identity (read by the loss).
            copy_reuse(y, &scratch.h, &mut scratch.heap_allocs);
        } else {
            let h = &scratch.h;
            fill_reuse(&mut scratch.act, &mut scratch.heap_allocs, |act| {
                act.clear();
                act.resize(h.len(), 0.0);
                layer.activate(h, act);
            });
            copy_reuse(y, &scratch.act, &mut scratch.heap_allocs);
        }
        if trace {
            let dt = self.total_elapsed() - sim_start;
            obs::add_sim_ns(obs::Counter::ForwardLayerSimNs, dt.value());
            obs::add(obs::Counter::LayersForwarded, 1);
        }
    }

    /// Forward a batch of samples, amortizing per-layer dispatch: the
    /// sweep is layer-major (`for layer { for sample }`), so each layer's
    /// span/bookkeeping overhead is paid once per batch rather than once
    /// per sample and every per-sample output lands in a reused
    /// engine-owned buffer.
    ///
    /// Determinism: each PE belongs to exactly one `(layer, tile)` slot,
    /// so it observes the same call sequence (sample 0, 1, … in order)
    /// under layer-major dispatch as under per-sample [`PhotonicMlp::
    /// try_forward`] — its noise streams, drift clocks, and energy ledger
    /// evolve identically, and outputs are bitwise identical to the
    /// per-sample path. The layer caches end holding the *last* sample's
    /// vectors, the same end state the per-sample loop leaves.
    ///
    /// Returns per-sample outputs in input order; the slice borrows the
    /// engine's reusable batch buffers and is valid until the next
    /// forward. With `tail` as in [`PhotonicMlp::try_forward_stage`].
    pub fn try_forward_batch<S: AsRef<[f64]>>(
        &mut self,
        inputs: &[S],
        tail: bool,
    ) -> Result<&[Vec<f64>], ArchError> {
        for x in inputs {
            if x.as_ref().len() != self.dims[0] {
                return Err(ArchError::ShapeMismatch {
                    expected: self.dims[0],
                    got: x.as_ref().len(),
                });
            }
        }
        let trace = obs::enabled();
        let _span = obs::span("engine.forward_batch");
        let n = inputs.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        let allocs_before = scratch.heap_allocs;
        while scratch.batch_out.len() < n {
            scratch.batch_out.push(Vec::new());
            scratch.heap_allocs += 1;
        }
        for (s, x) in inputs.iter().enumerate() {
            copy_reuse(&mut scratch.batch_out[s], x.as_ref(), &mut scratch.heap_allocs);
        }
        for k in 0..self.layer_count() {
            let _layer_span = if trace {
                obs::span_owned(format!("forward.layer{k}"))
            } else {
                obs::SpanGuard::disabled()
            };
            for s in 0..n {
                let mut y = std::mem::take(&mut scratch.batch_out[s]);
                self.forward_layer_step(k, tail, trace, &mut y, &mut scratch);
                scratch.batch_out[s] = y;
            }
        }
        obs::add(obs::Counter::HotPathAllocs, scratch.heap_allocs - allocs_before);
        self.scratch = scratch;
        Ok(&self.scratch.batch_out[..n])
    }

    /// Pre-size the forward scratch, the layer caches, and `batch`
    /// per-sample output buffers so steady-state forwards perform no
    /// engine-side heap allocation. Fleet builders call this once per
    /// replica at build time; growth here is warm-up and is not counted
    /// in [`PhotonicMlp::hot_path_allocs`].
    pub fn reserve_forward_scratch(&mut self, batch: usize) {
        let wmax = self.dims.iter().copied().max().unwrap_or(0);
        let layers = self.layer_count();
        let s = &mut self.scratch;
        reserve_to(&mut s.y, wmax);
        reserve_to(&mut s.h, wmax);
        reserve_to(&mut s.act, wmax);
        reserve_slots(&mut s.batch_out, batch, wmax);
        reserve_slots(&mut self.cached_inputs, layers, wmax);
        reserve_slots(&mut self.cached_logits, layers, wmax);
    }

    /// Heap-growth events on the forward hot path since construction
    /// (see [`ForwardScratch`]). Zero growth across a window of warm
    /// forwards is the zero-allocation claim `ablation_serve` checks.
    pub fn hot_path_allocs(&self) -> u64 {
        self.scratch.heap_allocs
    }

    /// Predicted class for one sample.
    ///
    /// # Panics
    /// Panics on an input-width mismatch; [`PhotonicMlp::try_predict`] is
    /// the typed-error form.
    pub fn predict(&mut self, x: &[f64]) -> usize {
        self.try_predict(x).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::predict`]. NaN-safe: logits are
    /// ranked with a total order, so a pathological output can never
    /// crash the classifier.
    pub fn try_predict(&mut self, x: &[f64]) -> Result<usize, ArchError> {
        Ok(argmax(&self.try_forward(x)?))
    }

    /// Accuracy over a set of samples.
    pub fn accuracy(&mut self, xs: &[Vec<f64>], labels: &[usize]) -> f64 {
        let mut correct = 0;
        for (x, &label) in xs.iter().zip(labels) {
            if self.predict(x) == label {
                correct += 1;
            }
        }
        f64::from(correct) / count(labels.len())
    }

    /// One in-situ training step on a single sample (the paper's
    /// alternating forward/backward schedule). Returns the sample loss.
    ///
    /// # Panics
    /// Panics on bad input width or label;
    /// [`PhotonicMlp::try_train_sample`] is the typed-error form.
    pub fn train_sample(&mut self, x: &[f64], label: usize, learning_rate: f64) -> f64 {
        self.try_train_sample(x, label, learning_rate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::train_sample`].
    pub fn try_train_sample(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
    ) -> Result<f64, ArchError> {
        let classes = self.dims.last().copied().unwrap_or(0);
        if label >= classes {
            return Err(ArchError::LabelOutOfRange { label, classes });
        }
        let _span = obs::span("engine.train_sample");
        let logits = self.try_forward(x)?;
        let (loss, mut delta) = softmax_grad(&logits, label);
        let layer_count = self.layer_count();

        // Walk backward: compute all gradient vectors and outer products.
        let mut weight_grads: Vec<Vec<f64>> = Vec::with_capacity(layer_count);
        for k in (0..layer_count).rev() {
            // Outer product for layer k: δW_k = δh_k ⊗ y_{k-1}.
            weight_grads.push(self.outer_product_layer(k, &delta));
            if k > 0 {
                // Gradient vector for layer k−1: δh = (W_kᵀ δh_k) ⊙ f'(h).
                delta = self.gradient_vector_layer(k, &delta)?;
            }
        }
        weight_grads.reverse();
        self.apply_weight_grads(&weight_grads, learning_rate)?;
        Ok(loss)
    }

    /// One training step where each *hidden* layer's error arrives from a
    /// caller-supplied projection of the output error (Direct Feedback
    /// Alignment — see [`crate::dfa`]), instead of chained `Wᵀ` products.
    /// The projection `project(k, e)` must return `B_k · e` for hidden
    /// layer `k`; the Hadamard with the latched `f'(h_k)` happens here on
    /// the layer's own TIAs.
    ///
    /// # Panics
    /// Panics on bad input width or label;
    /// [`PhotonicMlp::try_train_sample_with_feedback`] is the typed-error
    /// form.
    pub fn train_sample_with_feedback(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
        project: &mut dyn FnMut(usize, &[f64]) -> Vec<f64>,
    ) -> f64 {
        self.try_train_sample_with_feedback(x, label, learning_rate, project)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::train_sample_with_feedback`].
    pub fn try_train_sample_with_feedback(
        &mut self,
        x: &[f64],
        label: usize,
        learning_rate: f64,
        project: &mut dyn FnMut(usize, &[f64]) -> Vec<f64>,
    ) -> Result<f64, ArchError> {
        let classes = self.dims.last().copied().unwrap_or(0);
        if label >= classes {
            return Err(ArchError::LabelOutOfRange { label, classes });
        }
        let logits = self.try_forward(x)?;
        let (loss, error) = softmax_grad(&logits, label);
        let layer_count = self.layer_count();
        let mut weight_grads: Vec<Vec<f64>> = Vec::with_capacity(layer_count);
        for k in 0..layer_count {
            let delta = if k + 1 == layer_count {
                error.clone()
            } else {
                self.layers[k].hadamard(&project(k, &error))
            };
            weight_grads.push(self.outer_product_layer(k, &delta));
        }
        self.apply_weight_grads(&weight_grads, learning_rate)?;
        Ok(loss)
    }

    /// Mini-batch training: one weight update per `batch_size` samples,
    /// amortizing the bank-retuning sweeps the way the Table V model
    /// assumes. Per batch this schedule programs `Wᵀ` once per layer
    /// (instead of once per sample) and reprograms the forward weights
    /// once; the per-sample `f'(h)` bits are spilled to the PE's L1 (the
    /// same one-bit-per-position FIFO the convolutional engine uses), and
    /// the per-sample `y` outer-product programming remains — it cannot
    /// amortize because every sample's activations differ.
    /// # Panics
    /// Panics on mismatched inputs/labels or a device error;
    /// [`PhotonicMlp::try_train_batched`] is the typed-error form.
    pub fn train_batched(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
        batch_size: usize,
    ) -> TrainingOutcome {
        self.try_train_batched(xs, labels, learning_rate, epochs, batch_size)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::train_batched`].
    pub fn try_train_batched(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
        batch_size: usize,
    ) -> Result<TrainingOutcome, ArchError> {
        if xs.len() != labels.len() {
            return Err(ArchError::ShapeMismatch { expected: xs.len(), got: labels.len() });
        }
        assert!(batch_size >= 1);
        let _span = obs::span("engine.train_batched");
        let layer_count = self.layer_count();
        let (threshold, slope) = self.activation();
        let mut loss_history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for batch in xs.chunks(batch_size).zip(labels.chunks(batch_size)) {
                let (bx, bl) = batch;
                // Forward every sample with stationary weights; cache the
                // per-sample logits (the spilled LDSU bits) and inputs.
                // `sample_deltas[s]` always holds the *current* (deepest
                // computed) error vector of sample `s`.
                let mut sample_deltas: Vec<Vec<f64>> = Vec::with_capacity(bx.len());
                let mut sample_logits = Vec::with_capacity(bx.len());
                let mut sample_inputs = Vec::with_capacity(bx.len());
                for (x, &label) in bx.iter().zip(bl) {
                    let logits = self.try_forward(x)?;
                    let (loss, delta) = softmax_grad(&logits, label);
                    epoch_loss += loss;
                    sample_deltas.push(delta);
                    sample_logits.push(self.cached_logits.clone());
                    sample_inputs.push(self.cached_inputs.clone());
                }
                // Backward, layer by layer: program Wᵀ once, sweep the
                // whole batch through it, restore once.
                let mut grads: Vec<Vec<f64>> = (0..layer_count)
                    .map(|k| {
                        let (out, inp) = self.layer_dims(k);
                        vec![0.0; out * inp]
                    })
                    .collect();
                for k in (0..layer_count).rev() {
                    // Outer products for layer k, per sample.
                    for s in 0..bx.len() {
                        // Point the outer product at this sample's input.
                        self.cached_inputs = sample_inputs[s].clone();
                        let g = self.outer_product_layer(k, &sample_deltas[s]);
                        for (acc, v) in grads[k].iter_mut().zip(&g) {
                            *acc += v / bx.len() as f64;
                        }
                    }
                    if k > 0 {
                        self.layers[k].program_transposed(&self.weights[k]);
                        for s in 0..bx.len() {
                            let mut v = Vec::new();
                            self.layers[k].mvm_signed_transposed(&sample_deltas[s], &mut v, None);
                            // Hadamard with the spilled f'(h_{k-1}) bits.
                            let h = &sample_logits[s][k - 1];
                            let next: Vec<f64> = v
                                .iter()
                                .zip(h)
                                .map(|(&vi, &hi)| {
                                    if hi >= threshold {
                                        vi * slope
                                    } else {
                                        0.0
                                    }
                                })
                                .collect();
                            sample_deltas[s] = next;
                        }
                        self.program_layer(k)?;
                    }
                }
                self.apply_weight_grads(&grads, learning_rate)?;
            }
            loss_history.push(epoch_loss / xs.len() as f64);
        }
        let final_accuracy = self.accuracy(xs, labels);
        Ok(TrainingOutcome {
            loss_history,
            final_accuracy,
            total_energy: self.total_energy(),
            programming_energy: self.programming_energy(),
            elapsed: self.total_elapsed(),
        })
    }

    /// Eq. 1: `W ← W − β δW`, clipped to the photonic range, quantized to
    /// the tuning grid, and programmed back into the forward banks.
    fn apply_weight_grads(
        &mut self,
        weight_grads: &[Vec<f64>],
        learning_rate: f64,
    ) -> Result<(), ArchError> {
        for k in 0..self.layer_count() {
            descend(&mut self.weights[k], &weight_grads[k], learning_rate, self.weight_bits);
            self.program_layer(k)?;
        }
        Ok(())
    }

    /// Table II gradient-vector mode for layer `k`: program `W_kᵀ`, run a
    /// signed MVM of `delta`, apply the latched `f'(h_{k-1})` of the
    /// *previous* layer via its TIA gains.
    fn gradient_vector_layer(&mut self, k: usize, delta: &[f64]) -> Result<Vec<f64>, ArchError> {
        let trace = obs::enabled();
        let _span = if trace {
            obs::span_owned(format!("backward.layer{k}.gradient_vector"))
        } else {
            obs::SpanGuard::disabled()
        };
        let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
        assert_eq!(delta.len(), self.layers[k].out_dim());
        self.layers[k].program_transposed(&self.weights[k]);
        let mut v = Vec::new();
        self.layers[k].mvm_signed_transposed(delta, &mut v, Some(&mut self.extra_energy));
        // Restore the forward weights for the next forward pass.
        self.program_layer(k)?;
        if trace {
            let dt = self.total_elapsed() - sim_start;
            obs::add_sim_ns(obs::Counter::BackwardLayerSimNs, dt.value());
        }
        // Hadamard with f'(h_{k-1}) from the previous layer's LDSUs.
        Ok(self.layers[k - 1].hadamard(&v))
    }

    /// Table II outer-product mode for layer `k`: `δW = δh ⊗ y_{k-1}`,
    /// tile by tile, returned row-major.
    fn outer_product_layer(&mut self, k: usize, delta: &[f64]) -> Vec<f64> {
        let trace = obs::enabled();
        let _span = if trace {
            obs::span_owned(format!("backward.layer{k}.outer_product"))
        } else {
            obs::SpanGuard::disabled()
        };
        let sim_start = if trace { self.total_elapsed() } else { Nanoseconds(0.0) };
        assert_eq!(delta.len(), self.layers[k].out_dim());
        let grad = self.layers[k].outer_product(delta, &self.cached_inputs[k]);
        if trace {
            let dt = self.total_elapsed() - sim_start;
            obs::add_sim_ns(obs::Counter::BackwardLayerSimNs, dt.value());
        }
        grad
    }

    /// Train for `epochs` over a dataset, evaluating on the same set.
    ///
    /// # Panics
    /// Panics on mismatched inputs/labels or a device error;
    /// [`PhotonicMlp::try_train`] is the typed-error form.
    pub fn train(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
    ) -> TrainingOutcome {
        self.try_train(xs, labels, learning_rate, epochs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`PhotonicMlp::train`].
    pub fn try_train(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[usize],
        learning_rate: f64,
        epochs: usize,
    ) -> Result<TrainingOutcome, ArchError> {
        if xs.len() != labels.len() {
            return Err(ArchError::ShapeMismatch { expected: xs.len(), got: labels.len() });
        }
        let mut loss_history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for (x, &label) in xs.iter().zip(labels) {
                total += self.try_train_sample(x, label, learning_rate)?;
            }
            loss_history.push(total / xs.len() as f64);
        }
        let final_accuracy = self.accuracy(xs, labels);
        Ok(TrainingOutcome {
            loss_history,
            final_accuracy,
            total_energy: self.total_energy(),
            programming_energy: self.programming_energy(),
            elapsed: self.total_elapsed(),
        })
    }

    /// Aggregate energy across all PEs and engine-level charges.
    pub fn total_energy(&self) -> EnergyPj {
        tiled::total_energy(&self.layers) + self.extra_energy.total()
    }

    /// GST programming energy alone.
    pub fn programming_energy(&self) -> EnergyPj {
        tiled::programming_energy(&self.layers)
    }

    /// Full merged energy ledger.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.extra_energy.clone();
        tiled::absorb(&self.layers, &mut ledger);
        ledger
    }

    /// Simulated time across PEs (sequential-tile upper bound).
    pub fn total_elapsed(&self) -> Nanoseconds {
        tiled::total_elapsed(&self.layers) + self.elapsed
    }

    /// The activation function the hardware applies between layers.
    pub fn activation(&self) -> (f64, f64) {
        (LOGIT_THRESHOLD, GST_SLOPE)
    }

    /// Float-math mirror of the photonic forward pass over the master
    /// (electronic) weight copies — the engine's *digital twin*. The
    /// adaptive-training error model measures the photonic hardware
    /// against this reference to learn its systematic error; the
    /// equivalence tests use it to bound device noise.
    pub fn digital_forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = x.to_vec();
        let (threshold, slope) = self.activation();
        for k in 0..self.layer_count() {
            let (out, inp) = self.layer_dims(k);
            let w = self.layer_weights(k);
            let mut h = vec![0.0; out];
            for i in 0..out {
                for j in 0..inp {
                    h[i] += w[i * inp + j] * y[j];
                }
            }
            if k + 1 == self.layer_count() {
                y = h;
            } else {
                y = h
                    .iter()
                    .map(|&v| if v >= threshold { slope * (v - threshold) } else { 0.0 })
                    .collect();
            }
        }
        y
    }
}

/// Softmax cross-entropy loss and gradient for one sample (f64).
pub(crate) fn softmax_grad(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    assert!(label < logits.len(), "label out of range");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    let probs: Vec<f64> = exps.iter().map(|&e| e / sum).collect();
    let loss = -probs[label].max(1e-12).ln();
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if i == label { p - 1.0 } else { p })
        .collect();
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photonic_forward_matches_float_reference() {
        let mut engine = PhotonicMlp::new(&[8, 6, 3], 42, None, 8);
        let x: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
        let photonic = engine.forward(&x);
        let reference = engine.digital_forward(&x);
        for (r, (&p, &f)) in photonic.iter().zip(&reference).enumerate() {
            assert!(
                (p - f).abs() < 0.05,
                "output {r}: photonic {p} vs reference {f}"
            );
        }
    }

    #[test]
    fn tiled_layer_matches_reference() {
        // 40 inputs forces column tiling (3 tiles of 16). Seed pinned
        // against the vendored RNG stream with 2× margin on the bound.
        let mut engine = PhotonicMlp::new(&[40, 20, 4], 23, None, 8);
        assert!(engine.pe_count() > 3 * 2, "tiling must allocate PEs");
        let x: Vec<f64> = (0..40).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let photonic = engine.forward(&x);
        let reference = engine.digital_forward(&x);
        for (r, (&p, &f)) in photonic.iter().zip(&reference).enumerate() {
            assert!(
                (p - f).abs() < 0.1,
                "output {r}: photonic {p} vs reference {f}"
            );
        }
    }

    #[test]
    fn gradient_vector_mode_matches_math() {
        let mut engine = PhotonicMlp::new(&[6, 5, 3], 3, None, 8);
        let x = [0.2, 0.9, 0.4, 0.1, 0.7, 0.5];
        engine.forward(&x);
        let delta = vec![0.3, -0.7, 0.2];
        let photonic = engine.gradient_vector_layer(1, &delta).expect("valid layer");
        // Math: (W1ᵀ δ) ⊙ f'(h0).
        let (out, inp) = engine.layer_dims(1);
        let w = engine.layer_weights(1).to_vec();
        let h0 = engine.cached_logits[0].clone();
        let (threshold, slope) = engine.activation();
        for j in 0..inp {
            let mut v = 0.0;
            for i in 0..out {
                v += w[i * inp + j] * delta[i];
            }
            let fprime = if h0[j] >= threshold { slope } else { 0.0 };
            let want = v * fprime;
            assert!(
                (photonic[j] - want).abs() < 0.05,
                "grad[{j}]: photonic {} vs math {want}",
                photonic[j]
            );
        }
    }

    #[test]
    fn outer_product_mode_matches_math() {
        let mut engine = PhotonicMlp::new(&[5, 4, 2], 5, None, 8);
        let x = [0.8, 0.1, 0.6, 0.3, 0.9];
        engine.forward(&x);
        let delta = vec![0.5, -1.0];
        let grad = engine.outer_product_layer(1, &delta);
        let y = engine.cached_inputs[1].clone();
        let (out, inp) = engine.layer_dims(1);
        assert_eq!(grad.len(), out * inp);
        for i in 0..out {
            for j in 0..inp {
                let want = delta[i] * y[j];
                let got = grad[i * inp + j];
                assert!(
                    (got - want).abs() < 0.05 + 0.05 * want.abs(),
                    "δW[{i}][{j}]: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_insitu() {
        let mut engine = PhotonicMlp::new(&[8, 8, 3], 11, None, 8);
        // Three linearly separable prototype inputs.
        let xs: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        ];
        let labels = vec![0, 1, 2];
        let outcome = engine.train(&xs, &labels, 0.4, 25);
        let first = outcome.loss_history.first().copied().unwrap();
        let last = outcome.loss_history.last().copied().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
        assert!(
            outcome.final_accuracy >= 2.0 / 3.0,
            "accuracy {}",
            outcome.final_accuracy
        );
        assert!(outcome.programming_energy.value() > 0.0);
        assert!(outcome.total_energy.value() > outcome.programming_energy.value());
    }

    #[test]
    fn weight_updates_are_quantized_and_clipped() {
        let mut engine = PhotonicMlp::new(&[4, 3, 2], 2, None, 6);
        let xs = vec![vec![1.0, 0.0, 1.0, 0.0]];
        let labels = vec![0];
        engine.train(&xs, &labels, 10.0, 3); // huge lr to force clipping
        let step = 2.0 / ((1u32 << 6) - 2) as f64;
        for k in 0..engine.layer_count() {
            for &w in engine.layer_weights(k) {
                assert!((-1.0..=1.0).contains(&w), "weight {w} escaped [-1, 1]");
                let level = w / step;
                assert!(
                    (level - level.round()).abs() < 1e-6,
                    "weight {w} not on the 6-bit grid"
                );
            }
        }
    }

    #[test]
    fn set_layer_weights_round_trips() {
        let mut engine = PhotonicMlp::new(&[3, 2, 2], 1, None, 8);
        let w = vec![0.5, -0.5, 0.25, -0.25, 0.75, -0.75];
        engine.set_layer_weights(0, &w);
        for (got, want) in engine.layer_weights(0).iter().zip(&w) {
            assert!((got - want).abs() < 0.01);
        }
    }

    #[test]
    fn batched_training_learns_with_less_programming() {
        let xs: Vec<Vec<f64>> = vec![
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let labels = vec![0usize, 1, 2, 0];

        let mut per_sample = PhotonicMlp::new(&[8, 8, 3], 11, None, 8);
        let per_sample_outcome = per_sample.train(&xs, &labels, 0.4, 12);

        let mut batched = PhotonicMlp::new(&[8, 8, 3], 11, None, 8);
        let batched_outcome = batched.train_batched(&xs, &labels, 0.4, 12, 4);

        assert!(
            batched_outcome.loss_history.last().unwrap()
                < batched_outcome.loss_history.first().unwrap(),
            "batched loss should fall: {:?}",
            batched_outcome.loss_history
        );
        // Batched retuning is amortized: same epochs, fewer write pulses.
        assert!(
            batched_outcome.programming_energy.value()
                < per_sample_outcome.programming_energy.value(),
            "batched {} pJ should undercut per-sample {} pJ",
            batched_outcome.programming_energy.value(),
            per_sample_outcome.programming_energy.value()
        );
    }

    #[test]
    fn energy_grows_with_work() {
        let mut engine = PhotonicMlp::new(&[8, 6, 3], 9, None, 8);
        let after_init = engine.total_energy();
        let x: Vec<f64> = vec![0.5; 8];
        engine.forward(&x);
        let after_forward = engine.total_energy();
        assert!(after_forward.value() > after_init.value());
        engine.train_sample(&x, 1, 0.1);
        assert!(engine.total_energy().value() > after_forward.value());
        assert!(engine.total_elapsed().value() > 0.0);
    }

    fn batch_inputs(n: usize, width: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|s| (0..width).map(|j| ((s * 13 + j * 7) % 10) as f64 / 10.0).collect())
            .collect()
    }

    #[test]
    fn scratch_forward_is_bitwise_identical() {
        // Live noise streams (Some seed) make any reordering or extra PE
        // call visible: the batched layer-major sweep must hand each PE
        // the exact per-sample call sequence the per-sample loop does.
        let xs = batch_inputs(4, 40);
        let mut sequential = PhotonicMlp::new(&[40, 20, 4], 23, Some(7), 8);
        let expected: Vec<Vec<f64>> = xs.iter().map(|x| sequential.forward(x)).collect();
        let mut batched = PhotonicMlp::new(&[40, 20, 4], 23, Some(7), 8);
        let got = batched.try_forward_batch(&xs, true).unwrap();
        assert_eq!(got.len(), expected.len());
        for (s, (g, e)) in got.iter().zip(&expected).enumerate() {
            let gb: Vec<u64> = g.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u64> = e.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "sample {s}: batched output must be bitwise identical");
        }
        // The layer caches end holding the last sample's vectors in both
        // dispatch orders, so training code sees the same end state.
        let seq_logits: Vec<Vec<u64>> = sequential
            .cached_logits
            .iter()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect();
        let bat_logits: Vec<Vec<u64>> = batched
            .cached_logits
            .iter()
            .map(|l| l.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(seq_logits, bat_logits);
        // And the global energy/time ledgers agree exactly.
        assert_eq!(
            sequential.total_energy().value().to_bits(),
            batched.total_energy().value().to_bits()
        );
        assert_eq!(
            sequential.total_elapsed().value().to_bits(),
            batched.total_elapsed().value().to_bits()
        );
    }

    #[test]
    fn warm_engine_forwards_without_heap_allocs() {
        let mut engine = PhotonicMlp::new(&[40, 20, 4], 23, None, 8);
        let xs = batch_inputs(8, 40);
        engine.reserve_forward_scratch(xs.len());
        // First batch may still grow cold corners (e.g. an output buffer
        // narrower than the reserve bound); from then on, nothing.
        let mut out = Vec::new();
        engine.try_forward_batch(&xs, true).unwrap();
        engine.try_forward_stage_into(&xs[0], true, &mut out).unwrap();
        let warm = engine.hot_path_allocs();
        for _ in 0..4 {
            engine.try_forward_batch(&xs, true).unwrap();
            engine.try_forward_stage_into(&xs[0], true, &mut out).unwrap();
        }
        assert_eq!(
            engine.hot_path_allocs(),
            warm,
            "steady-state forwards must not grow engine scratch"
        );
    }
}
