//! One Trident processing element (Fig. 1 of the paper).
//!
//! A PE couples the optical weight bank to its electronic periphery: one
//! balanced photodetector + TIA + LDSU + E/O laser + GST activation cell
//! per row. The same hardware executes the three operating modes of
//! Table II:
//!
//! | device            | inference  | gradient vector          | outer product      |
//! |-------------------|------------|--------------------------|--------------------|
//! | input lasers      | `x_k`      | `δh_{k+1}`               | `δh_k`             |
//! | MRR weight bank   | `w_k`      | `W_{k+1}ᵀ`               | `y_{k-1}ᵀ`         |
//! | BPD output        | `w_k·x_k`  | `W_{k+1}ᵀ·δh_{k+1}`      | `δh_k·y_{k-1}ᵀ`    |
//! | TIA / E-O lasers  | `y`        | `⊙ f'(h_k)` (LDSU gain)  | amplify `δW_k`     |
//!
//! Signed vectors (gradients) use two optical passes (positive and
//! negative parts) with electronic subtraction — optical power cannot be
//! negative. The outer-product mode programs the bank with `y`, streams
//! one `δh` element per symbol, and reads the per-wavelength products from
//! the drop bus through a WDM demux (this is the reading of Table II's
//! "utilize the entire weight bank and perform N outer products": all `N`
//! ring products of a `δW` row emerge in parallel, one row per symbol).

use crate::bank::{OpenLoopPass, ProgramReport, WeightBank};
use crate::error::ArchError;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use trident_pcm::activation::{ActivationCellParams, GstActivationCell};
use trident_pcm::gst::{GstParameters, WriteVerifyPolicy};
use trident_pcm::ldsu::Ldsu;
use trident_pcm::weight::WeightLut;
use trident_photonics::detector::TransimpedanceAmplifier;
use trident_photonics::laser::EoModulator;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::noise::NoiseModel;
use trident_photonics::units::{EnergyPj, Nanoseconds};
use trident_obs as obs;

/// The three Table II operating modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeMode {
    /// Forward MAC + photonic activation.
    Inference,
    /// Backward gradient-vector product `δh_k = (W_{k+1}ᵀ δh_{k+1}) ⊙ f'(h_k)`.
    GradientVector,
    /// Weight-update outer product `δW_k = δh_k · y_{k-1}ᵀ`.
    OuterProduct,
}

impl PeMode {
    /// The Table II row for this mode:
    /// `(input lasers, MRR weight bank, BPD output, TIA/E-O lasers)`.
    pub fn device_mapping(&self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            PeMode::Inference => ("x_k", "w_k", "y_k = w_k x_k", "y"),
            PeMode::GradientVector => (
                "dh_{k+1}",
                "W_{k+1}^T",
                "dh_k = W_{k+1}^T * dh_{k+1}",
                "f'(h_k)",
            ),
            PeMode::OuterProduct => (
                "dh_k",
                "y_{k-1}^T",
                "dW_k = dh_k . y_{k-1}^T",
                "dW_k",
            ),
        }
    }
}

/// Normalized logit-to-pulse-energy scale: one logit unit = 1 nJ, so the
/// 430 pJ activation threshold sits at `h = 0.43`.
pub const LOGIT_ENERGY_PJ: f64 = 1000.0;

/// The normalized activation threshold implied by the 430 pJ cell.
pub const LOGIT_THRESHOLD: f64 = 430.0 / LOGIT_ENERGY_PJ;

/// One processing element.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    bank: WeightBank,
    tias: Vec<TransimpedanceAmplifier>,
    ldsus: Vec<Ldsu>,
    activations: Vec<GstActivationCell>,
    modulator: EoModulator,
    noise: NoiseModel,
    symbol_time: Nanoseconds,
    energy: EnergyLedger,
    elapsed: Nanoseconds,
    /// Fractional loss of input laser power (0 = healthy source). An aged
    /// or degraded pump scales every detected product down uniformly.
    laser_droop: f64,
    /// Outer-product ring readouts, reused across calls.
    readout: Vec<f64>,
    /// Dual-rail scratch of the signed MVM: the positive and negative
    /// input parts (`cols` wide) and the negative pass's rows.
    pos: Vec<f64>,
    neg: Vec<f64>,
    yn: Vec<f64>,
}

impl ProcessingElement {
    /// Build a PE with a `rows × cols` weight bank. `noise_seed: None`
    /// disables receiver noise (ideal devices).
    pub fn new(rows: usize, cols: usize, noise_seed: Option<u64>) -> Self {
        let lut = WeightBank::nominal_lut(cols, &GstParameters::default());
        Self::with_variation(rows, cols, noise_seed, 0.0, 0, lut)
    }

    /// Build a PE whose rings carry fabrication variation (Gaussian
    /// resonance offsets of `resonance_sigma_nm`; see
    /// [`WeightBank::new_varied`]), sharing the calibration table `lut`
    /// ([`WeightBank::nominal_lut`] for `cols` and the default GST).
    pub fn with_variation(
        rows: usize,
        cols: usize,
        noise_seed: Option<u64>,
        resonance_sigma_nm: f64,
        variation_seed: u64,
        lut: Arc<WeightLut>,
    ) -> Self {
        let bank = WeightBank::new_varied(
            rows,
            cols,
            GstParameters::default(),
            resonance_sigma_nm,
            variation_seed,
            lut,
        );
        let modulator = EoModulator::for_grid(bank.grid());
        let symbol_time = modulator.symbol_time;
        Self {
            bank,
            tias: vec![TransimpedanceAmplifier::default(); rows],
            ldsus: vec![Ldsu::paper(LOGIT_THRESHOLD); rows],
            activations: vec![
                GstActivationCell::new(ActivationCellParams::default());
                rows
            ],
            modulator,
            noise: noise_seed.map_or_else(NoiseModel::disabled, NoiseModel::seeded),
            symbol_time,
            energy: EnergyLedger::new(),
            elapsed: Nanoseconds(0.0),
            laser_droop: 0.0,
            readout: Vec::with_capacity(cols),
            pos: vec![0.0; cols],
            neg: vec![0.0; cols],
            yn: vec![0.0; rows],
        }
    }

    /// Bank rows.
    pub fn rows(&self) -> usize {
        self.bank.rows()
    }

    /// Bank columns.
    pub fn cols(&self) -> usize {
        self.bank.cols()
    }

    /// The underlying bank.
    pub fn bank(&self) -> &WeightBank {
        &self.bank
    }

    /// Mutable access to the bank — the fault-injection entry point.
    pub fn bank_mut(&mut self) -> &mut WeightBank {
        &mut self.bank
    }

    /// Degrade the PE's input laser by a fractional power `droop ∈ [0, 1)`
    /// (0 restores a healthy source).
    pub fn set_laser_droop(&mut self, droop: f64) {
        assert!((0.0..1.0).contains(&droop), "droop {droop} outside [0, 1)");
        self.laser_droop = droop;
    }

    /// Current fractional laser-power droop.
    pub fn laser_droop(&self) -> f64 {
        self.laser_droop
    }

    /// Program the bank from a flat row-major matrix.
    pub fn program(&mut self, weights: &[f64]) {
        let (energy, time) = self.bank.program_flat(weights);
        self.bill_write(energy, time);
    }

    /// Open-loop writes of `(slot, weight)` pairs only (slot = `row ·
    /// cols + col`), billed like [`ProcessingElement::program`]. Returns
    /// what the pass spent and whether every write landed.
    pub(crate) fn try_program_slots(
        &mut self,
        slots: impl IntoIterator<Item = (usize, f64)>,
    ) -> Result<OpenLoopPass, ArchError> {
        let pass = self.bank.try_program_slots(slots)?;
        self.bill_write(pass.energy, pass.time);
        Ok(pass)
    }

    fn bill_write(&mut self, energy: EnergyPj, time: Nanoseconds) {
        if energy.value() > 0.0 {
            self.energy.charge("gst write", energy);
            self.elapsed += time;
            obs::add(obs::Counter::PcmWrites, 1);
            obs::add_pj(obs::Counter::PcmWriteFj, energy.value());
        }
    }

    /// Fault-aware programming: route every weight through the bank's
    /// bounded-retry program-and-verify path, remapping or masking cells
    /// the hardware can no longer hold (see
    /// [`WeightBank::try_program_verified`]).
    pub fn program_verified(
        &mut self,
        weights: &[f64],
        policy: &WriteVerifyPolicy,
        rng: &mut StdRng,
    ) -> Result<ProgramReport, ArchError> {
        let report = self.bank.try_program_verified(weights, policy, rng)?;
        self.bill_write(report.energy, report.time);
        obs::add(obs::Counter::FaultRemapEvents, report.remapped as u64);
        obs::add(obs::Counter::FaultMaskEvents, report.masked as u64);
        Ok(report)
    }

    /// Unsigned optical MVM: `x[j] ∈ [0, 1]`, returns per-row dot products.
    pub fn mvm_unsigned(&mut self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mvm_unsigned_into(x, &mut y);
        y
    }

    /// [`ProcessingElement::mvm_unsigned`] into the caller's `y` (`rows`
    /// entries). Allocates nothing.
    pub fn mvm_unsigned_into(&mut self, x: &[f64], y: &mut [f64]) {
        // The statistical readout needs `&mut` for its draw counter; the
        // deterministic bank path is untouched when the layer is off.
        if self.bank.stat_enabled() {
            self.bank.mvm_stat_into(x, y);
        } else {
            self.bank.mvm_into(x, y);
        }
        if self.laser_droop > 0.0 {
            // A drooped pump delivers less power on every channel; all
            // detected dot products shrink by the same factor.
            for v in y.iter_mut() {
                *v *= 1.0 - self.laser_droop;
            }
        }
        // Receiver noise: convert current noise to normalized units via
        // the 1 mW full-scale channel power and the LUT scale.
        let total_power = trident_photonics::units::PowerMw(x.iter().sum::<f64>());
        let denom = self.bank.lut().scale();
        for v in y.iter_mut() {
            let n = self.noise.receiver_current_noise_ma(total_power);
            *v += n / denom;
        }
        self.charge_symbol(x.len());
    }

    /// Signed optical MVM via two passes (positive and negative parts)
    /// and electronic subtraction, into the caller's `y` (`rows`
    /// entries). Inputs may have any magnitude; they are normalized onto
    /// the lasers and rescaled after detection. The dual-rail inputs and
    /// the negative pass live in PE-owned scratch, so this allocates
    /// nothing.
    pub fn mvm_signed_into(&mut self, x: &[f64], y: &mut [f64]) {
        let max = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if max == 0.0 {
            y.fill(0.0);
            return;
        }
        let (mut pos, mut neg, mut yn) = (
            std::mem::take(&mut self.pos),
            std::mem::take(&mut self.neg),
            std::mem::take(&mut self.yn),
        );
        pos.clear();
        pos.extend(x.iter().map(|&v| v.max(0.0) / max));
        neg.clear();
        neg.extend(x.iter().map(|&v| (-v).max(0.0) / max));
        self.mvm_unsigned_into(&pos, y);
        self.mvm_unsigned_into(&neg, &mut yn);
        for (p, &n) in y.iter_mut().zip(&yn) {
            *p = (*p - n) * max;
        }
        (self.pos, self.neg, self.yn) = (pos, neg, yn);
    }

    /// Latch the LDSUs on logits `h` and fire the GST activation cells.
    /// Returns the activations `y = f(h)` (the Fig. 3 transfer).
    pub fn latch_and_activate(&mut self, h: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; h.len()];
        self.latch_and_activate_into(h, &mut out);
        out
    }

    /// [`ProcessingElement::latch_and_activate`] into the caller's `out`
    /// (`h.len()` entries). Allocates nothing.
    pub fn latch_and_activate_into(&mut self, h: &[f64], out: &mut [f64]) {
        assert!(h.len() <= self.rows(), "more logits than rows");
        assert_eq!(out.len(), h.len(), "activation width mismatch");
        let mut reset_energy = EnergyPj::ZERO;
        for (r, (&logit, y)) in h.iter().zip(out.iter_mut()).enumerate() {
            self.ldsus[r].latch(logit);
            // Negative logits carry no optical power: dark pulse.
            let pulse = EnergyPj(logit.max(0.0) * LOGIT_ENERGY_PJ);
            let fired = self.activations[r].apply(pulse);
            *y = fired.value() / LOGIT_ENERGY_PJ;
            reset_energy += self.activations[r].reset();
        }
        if reset_energy.value() > 0.0 {
            self.energy.charge("activation reset", reset_energy);
        }
        // Padding rows carry no optical signal: their comparators see a
        // dark input and latch zero derivative.
        for r in h.len()..self.rows() {
            self.ldsus[r].latch(f64::NEG_INFINITY);
        }
    }

    /// Program each row's TIA gain from its LDSU (`f'(h)` — the Hadamard
    /// product of Eq. 3, fused into the readout).
    pub fn set_backward_gains(&mut self) {
        for (tia, ldsu) in self.tias.iter_mut().zip(&self.ldsus) {
            tia.set_gain(ldsu.derivative());
        }
    }

    /// Restore unity TIA gains (forward mode).
    pub fn set_forward_gains(&mut self) {
        for tia in &mut self.tias {
            tia.set_gain(1.0);
        }
    }

    /// Apply the programmed TIA gains to a per-row vector.
    pub fn apply_tia_gains(&self, v: &[f64]) -> Vec<f64> {
        v.iter().zip(&self.tias).map(|(&x, tia)| tia.amplify_v(x) / tia.transimpedance_kohm).collect()
    }

    /// The stored derivative of row `r` (for tests and the engine).
    pub fn stored_derivative(&self, r: usize) -> f64 {
        self.ldsus[r].derivative()
    }

    /// Outer product `δh ⊗ y`: program the bank with `tile`, stream one
    /// `δh` element per symbol, read the per-wavelength ring products via
    /// the drop-bus demux, and hand product `(i, j) = δh_i · y_j` to
    /// `emit(i, j, product)`.
    ///
    /// `tile` is the flat row-major bank image: `y` in the first `y_len`
    /// entries of row 0, zeros everywhere else. `y` entries must lie in
    /// `[-1, 1]` (they are weights); `δh` may have any magnitude (scalar
    /// per symbol — its sign and scale stay electronic).
    pub fn outer_product(
        &mut self,
        dh: &[f64],
        tile: &[f64],
        y_len: usize,
        mut emit: impl FnMut(usize, usize, f64),
    ) {
        assert!(y_len <= self.cols(), "y wider than the bank");
        self.program(tile);
        let mut readout = std::mem::take(&mut self.readout);
        readout.clear();
        if self.bank.stat_enabled() {
            readout.extend((0..y_len).map(|c| self.bank.ring_readout_stat(0, c)));
        } else {
            readout.extend((0..y_len).map(|c| self.bank.ring_readout(0, c)));
        }
        for (i, &d) in dh.iter().enumerate() {
            self.charge_symbol(y_len);
            for (j, &w) in readout.iter().enumerate() {
                emit(i, j, w * d);
            }
        }
        self.readout = readout;
    }

    fn charge_symbol(&mut self, active_channels: usize) {
        self.energy
            .charge("eo modulation", self.modulator.encode_energy(active_channels));
        let read_energy = EnergyPj(20.0) * (self.rows() * self.cols()) as f64
            * self.symbol_time.value()
            / 300.0;
        self.energy.charge("mrr read", read_energy);
        self.elapsed += self.symbol_time;
        if obs::enabled() {
            let rings = (self.rows() * self.cols()) as u64;
            obs::add(obs::Counter::MacOps, rings);
            obs::add(obs::Counter::PcmReads, rings);
            obs::add_pj(obs::Counter::PcmReadFj, read_energy.value());
            // Receiver chain: every row's BPD+TIA is live for the symbol.
            let receiver = self
                .tias
                .iter()
                .fold(EnergyPj::ZERO, |acc, tia| acc + tia.power.for_duration(self.symbol_time));
            obs::add_pj(obs::Counter::ReceiverFj, receiver.value());
        }
    }

    /// Energy ledger of everything this PE has done.
    pub fn energy(&self) -> &EnergyLedger {
        &self.energy
    }

    /// Simulated wall-clock time consumed.
    pub fn elapsed(&self) -> Nanoseconds {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe() -> ProcessingElement {
        ProcessingElement::new(4, 4, None)
    }

    #[test]
    fn table_ii_mappings_are_distinct() {
        let modes = [PeMode::Inference, PeMode::GradientVector, PeMode::OuterProduct];
        for m in modes {
            let (lasers, bank, bpd, tia) = m.device_mapping();
            assert!(!lasers.is_empty() && !bank.is_empty() && !bpd.is_empty() && !tia.is_empty());
        }
        assert_ne!(
            PeMode::Inference.device_mapping(),
            PeMode::GradientVector.device_mapping()
        );
    }

    #[test]
    fn unsigned_mvm_computes_dot_products() {
        let mut p = pe();
        p.program(&[
            0.5, 0.5, 0.0, 0.0, //
            -0.5, 0.5, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.25, 0.25, 0.25, 0.25,
        ]);
        let y = p.mvm_unsigned(&[1.0, 1.0, 0.5, 0.0]);
        let expected = [1.0, 0.0, 0.5, 0.625];
        for (r, (&got, &want)) in y.iter().zip(&expected).enumerate() {
            assert!((got - want).abs() < 0.05, "row {r}: {got} vs {want}");
        }
    }

    #[test]
    fn signed_mvm_handles_negative_and_large_inputs() {
        let mut p = pe();
        p.program(&[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.5, -0.5, 0.0, 0.0, //
            0.0, 0.0, 0.0, 0.0,
        ]);
        let mut y = [0.0; 4];
        p.mvm_signed_into(&[-2.0, 3.0, 0.0, 0.0], &mut y);
        assert!((y[0] + 2.0).abs() < 0.15, "row 0: {}", y[0]);
        assert!((y[1] - 3.0).abs() < 0.15, "row 1: {}", y[1]);
        assert!((y[2] + 2.5).abs() < 0.2, "row 2: {}", y[2]);
    }

    #[test]
    fn activation_is_gst_relu_and_latches_derivative() {
        let mut p = pe();
        let y = p.latch_and_activate(&[0.9, 0.2, -0.5, 0.43]);
        // h = 0.9 fires: 0.34 × (0.9 − 0.43) ≈ 0.16.
        assert!((y[0] - 0.34 * (0.9 - 0.43)).abs() < 1e-9);
        assert_eq!(y[1], 0.0, "0.2 is below the 0.43 threshold");
        assert_eq!(y[2], 0.0);
        assert!((y[3] - 0.0).abs() < 1e-9, "exactly at threshold fires with zero output");
        assert_eq!(p.stored_derivative(0), 0.34);
        assert_eq!(p.stored_derivative(1), 0.0);
        assert_eq!(p.stored_derivative(3), 0.34);
    }

    #[test]
    fn backward_gains_apply_stored_derivatives() {
        let mut p = pe();
        p.latch_and_activate(&[0.9, 0.1, 0.9, 0.1]);
        p.set_backward_gains();
        let v = p.apply_tia_gains(&[1.0, 1.0, 2.0, 2.0]);
        assert!((v[0] - 0.34).abs() < 1e-9);
        assert_eq!(v[1], 0.0);
        assert!((v[2] - 0.68).abs() < 1e-9);
        assert_eq!(v[3], 0.0);
        p.set_forward_gains();
        let v = p.apply_tia_gains(&[1.0, 1.0, 1.0, 1.0]);
        assert!(v.iter().all(|&g| (g - 1.0).abs() < 1e-9));
    }

    #[test]
    fn outer_product_matches_math() {
        let mut p = pe();
        let dh = [0.5, -1.5, 2.0];
        let y = [0.8, -0.4, 0.1, 0.9];
        let mut tile = [0.0; 16];
        tile[..4].copy_from_slice(&y);
        let mut m = [[f64::NAN; 4]; 3];
        p.outer_product(&dh, &tile, y.len(), |i, j, v| m[i][j] = v);
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let want = dh[i] * y[j];
                assert!(
                    (v - want).abs() < 0.1 * (1.0 + want.abs()),
                    "({i},{j}): {v} vs {want}"
                );
            }
        }
    }

    #[test]
    fn energy_accounting_accumulates() {
        let mut p = pe();
        p.program(&[0.5; 16]);
        assert!(p.energy().get("gst write").value() > 0.0);
        p.mvm_unsigned(&[0.5; 4]);
        assert!(p.energy().get("eo modulation").value() > 0.0);
        assert!(p.elapsed().value() > 0.0);
        p.latch_and_activate(&[1.0]);
        assert!(p.energy().get("activation reset").value() > 0.0);
    }

    #[test]
    fn noisy_pe_stays_accurate_to_8_bits() {
        let mut ideal = ProcessingElement::new(16, 16, None);
        let mut noisy = ProcessingElement::new(16, 16, Some(17));
        let weights: Vec<f64> = (0..256).map(|i| ((i % 17) as f64 / 8.5) - 1.0).collect();
        ideal.program(&weights);
        noisy.program(&weights);
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let yi = ideal.mvm_unsigned(&x);
        let yn = noisy.mvm_unsigned(&x);
        for r in 0..16 {
            // One 8-bit LSB of a 16-wide dot product full-scale (±16).
            assert!(
                (yi[r] - yn[r]).abs() < 16.0 * 2.0 / 254.0,
                "row {r}: noise pushed output beyond 8-bit scale"
            );
        }
    }
}
