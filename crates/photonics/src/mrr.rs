//! Add-drop microring resonator (MRR) physics.
//!
//! The weight bank in Trident (and in DEAP-CNN / CrossLight, which it is
//! compared against) is built from add-drop MRRs: a ring coupled to two bus
//! waveguides. On resonance, light is routed to the *drop* port; off
//! resonance it continues on the *through* port. A lossy element inside the
//! ring (the GST cell, or absorption induced by a thermal tuner's detuning)
//! changes the split between the two ports, which is how an analog weight
//! is realised.
//!
//! The model below is the standard steady-state analytic solution for an
//! all-pass/add-drop ring (see Bogaerts et al., "Silicon microring
//! resonators", Laser & Photonics Reviews 2012 — reference \[4\] of the
//! paper):
//!
//! ```text
//! T_through(φ) = ((t1 - t2·a)² + 4·t1·t2·a·sin²(φ/2)) / D(φ)
//! T_drop(φ)    = ((1-t1²)·(1-t2²)·a)                  / D(φ)
//! D(φ)         = (1 - t1·t2·a)² + 4·t1·t2·a·sin²(φ/2)
//! ```
//!
//! where `t1`, `t2` are the bus self-coupling coefficients, `a` the net
//! round-trip amplitude transmission (waveguide loss × GST absorption), and
//! `φ` the round-trip phase detuning. Near a resonance the detuning is
//! `φ ≈ 2π·(λ_res − λ)/FSR`, with the free spectral range
//! `FSR = λ² / (n_g·L)`.
//!
//! The amplitude `a` and the wavelength enter through separate terms:
//! [`AddDropMrr::drive`] evaluates everything that depends on `a` once,
//! and [`MrrDrive::at`] finishes the solve for one `sin(φ/2)`
//! ([`AddDropMrr::half_phase_sin_ratio`]). A weight bank keeps the
//! wavelength terms in a table, so reprogramming a GST cell costs one
//! `drive` and a few multiply-adds per channel.

use crate::units::{AreaUm2, Wavelength};
use serde::{Deserialize, Serialize};

/// Physical geometry and coupling of a ring resonator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MrrGeometry {
    /// Ring radius in micrometres.
    pub radius_um: f64,
    /// Group index of the ring waveguide (sets the FSR).
    pub group_index: f64,
    /// Bus self-coupling coefficient `t` (identical for both buses).
    /// The power cross-coupling is `κ² = 1 − t²`.
    pub self_coupling: f64,
    /// Intrinsic propagation loss of the ring waveguide in dB/cm.
    pub intrinsic_loss_db_cm: f64,
}

impl MrrGeometry {
    /// The paper's weight-bank ring: a compact silicon microring.
    ///
    /// A 3 µm radius ring with n_g ≈ 4.2 yields an FSR ≈ 30 nm at 1550 nm,
    /// larger than the 25.6 nm band of a 16-channel × 1.6 nm plan, so each
    /// ring addresses exactly one channel and no channel aliases onto
    /// another resonance order. The weak coupling (t = 0.99) keeps the
    /// linewidth near 0.2 nm, an order of magnitude below the channel
    /// spacing, bounding inter-channel leakage.
    pub fn weight_bank() -> Self {
        Self {
            radius_um: 3.0,
            group_index: 4.2,
            self_coupling: 0.99,
            intrinsic_loss_db_cm: 2.0,
        }
    }

    /// The large activation-cell ring from Fig. 2e of the paper
    /// (60 µm radius).
    pub fn activation_cell() -> Self {
        Self {
            radius_um: 60.0,
            group_index: 4.2,
            self_coupling: 0.98,
            intrinsic_loss_db_cm: 2.0,
        }
    }

    /// Ring circumference in micrometres.
    #[inline]
    pub fn circumference_um(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.radius_um
    }

    /// Round-trip amplitude transmission due to intrinsic waveguide loss.
    pub fn intrinsic_round_trip_amplitude(&self) -> f64 {
        // dB/cm → amplitude over L: a = 10^(−loss_dB/20), loss_dB = α·L.
        let length_cm = self.circumference_um() * 1e-4;
        let loss_db = self.intrinsic_loss_db_cm * length_cm;
        10f64.powf(-loss_db / 20.0)
    }

    /// Footprint estimate: bounding square around the ring plus bus clearance.
    pub fn footprint(&self) -> AreaUm2 {
        let side = 2.0 * self.radius_um + 4.0;
        AreaUm2(side * side)
    }

    fn validate(&self) {
        assert!(self.radius_um > 0.0, "ring radius must be positive");
        assert!(self.group_index > 1.0, "group index must exceed 1");
        assert!(
            (0.0..1.0).contains(&self.self_coupling),
            "self-coupling must lie in [0, 1)"
        );
        assert!(self.intrinsic_loss_db_cm >= 0.0, "loss cannot be negative");
    }
}

/// Power transmission of the two output ports for one wavelength.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PortTransfer {
    /// Fraction of input power exiting the through port, in `[0, 1]`.
    pub through: f64,
    /// Fraction of input power exiting the drop port, in `[0, 1]`.
    pub drop: f64,
}

impl PortTransfer {
    /// Fraction of power absorbed in the ring.
    #[inline]
    pub fn absorbed_fraction(&self) -> f64 {
        (1.0 - self.through - self.drop).max(0.0)
    }
}

/// A ring's transfer function with its amplitude terms evaluated
/// ([`AddDropMrr::drive`]): what is left is the wavelength term
/// `s = sin(φ/2)`, so one GST state is solved on many channels for a few
/// multiply-adds each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrrDrive {
    /// `4·t·t·a`, the coefficient of `s²` in numerator and denominator.
    resonant_coeff: f64,
    /// `(1 − t·t·a)²`, the denominator on resonance.
    on_resonance_denom: f64,
    /// `(t − t·a)²`, the through numerator on resonance.
    on_resonance_through: f64,
    /// `κ²·κ²·a`, the drop numerator.
    drop_numerator: f64,
}

impl MrrDrive {
    /// Port transmissions at the wavelength whose half-phase sine is
    /// `half_phase_sin` (see [`AddDropMrr::half_phase_sin_ratio`]).
    pub fn at(&self, half_phase_sin: f64) -> PortTransfer {
        let s = half_phase_sin;
        let resonant_term = self.resonant_coeff * s * s;
        let denom = self.on_resonance_denom + resonant_term;
        let through = (self.on_resonance_through + resonant_term) / denom;
        let drop = self.drop_numerator / denom;
        debug_assert!((0.0..=1.0 + 1e-9).contains(&through), "through={through}");
        debug_assert!((0.0..=1.0 + 1e-9).contains(&drop), "drop={drop}");
        PortTransfer { through: through.min(1.0), drop: drop.min(1.0) }
    }
}

/// An add-drop microring resonator tuned to a specific resonant wavelength.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddDropMrr {
    geometry: MrrGeometry,
    resonance: Wavelength,
}

impl AddDropMrr {
    /// Build a ring with the given geometry resonant at `resonance`.
    pub fn new(geometry: MrrGeometry, resonance: Wavelength) -> Self {
        geometry.validate();
        Self { geometry, resonance }
    }

    /// Ring geometry.
    #[inline]
    pub fn geometry(&self) -> &MrrGeometry {
        &self.geometry
    }

    /// Resonant wavelength.
    #[inline]
    pub fn resonance(&self) -> Wavelength {
        self.resonance
    }

    /// Retune the resonance (models a thermally/electrically shifted ring;
    /// GST-tuned rings never call this — their resonance is fixed).
    pub fn set_resonance(&mut self, resonance: Wavelength) {
        self.resonance = resonance;
    }

    /// Free spectral range at the resonance wavelength, in nanometres.
    pub fn fsr_nm(&self) -> f64 {
        let lambda_nm = self.resonance.nm();
        let l_nm = self.geometry.circumference_um() * 1e3;
        lambda_nm * lambda_nm / (self.geometry.group_index * l_nm)
    }

    /// Round-trip phase detuning for wavelength `λ`, in radians.
    ///
    /// Zero exactly on resonance; periodic across the FSR.
    pub fn phase_detuning_rad(&self, lambda: Wavelength) -> f64 {
        2.0 * std::f64::consts::PI * self.resonance.detuning_nm(lambda) / self.fsr_nm()
    }

    /// Net round-trip amplitude for an additional amplitude transmission
    /// `extra_amplitude` contributed by an intra-cavity element (GST cell).
    fn round_trip_amplitude(&self, extra_amplitude: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&extra_amplitude),
            "extra amplitude transmission {extra_amplitude} outside [0, 1]"
        );
        self.geometry.intrinsic_round_trip_amplitude() * extra_amplitude
    }

    /// `sin(φ/2)` of the round-trip phase detuning at wavelength `λ`: the
    /// only wavelength-dependent term of [`AddDropMrr::transfer`], fixed
    /// for a given ring and channel.
    pub fn half_phase_sin_ratio(&self, lambda: Wavelength) -> f64 {
        (self.phase_detuning_rad(lambda) / 2.0).sin()
    }

    /// The amplitude-only terms of the transfer function for an
    /// intra-cavity element of amplitude transmission `extra_amplitude`
    /// (1.0 = transparent), fixed for a given GST state.
    pub fn drive(&self, extra_amplitude: f64) -> MrrDrive {
        let t = self.geometry.self_coupling;
        let a = self.round_trip_amplitude(extra_amplitude);
        let kappa_sq = 1.0 - t * t;
        let d = 1.0 - t * t * a;
        let n = t - t * a;
        MrrDrive {
            resonant_coeff: 4.0 * t * t * a,
            on_resonance_denom: d * d,
            on_resonance_through: n * n,
            drop_numerator: kappa_sq * kappa_sq * a,
        }
    }

    /// Port transmissions at wavelength `λ` with an intra-cavity element of
    /// amplitude transmission `extra_amplitude` (1.0 = transparent).
    pub fn transfer(&self, lambda: Wavelength, extra_amplitude: f64) -> PortTransfer {
        self.drive(extra_amplitude).at(self.half_phase_sin_ratio(lambda))
    }

    /// Port transmissions exactly on resonance.
    pub fn transfer_on_resonance(&self, extra_amplitude: f64) -> PortTransfer {
        self.transfer(self.resonance, extra_amplitude)
    }

    /// Full width at half maximum of the drop resonance, in nanometres.
    pub fn fwhm_nm(&self, extra_amplitude: f64) -> f64 {
        let t = self.geometry.self_coupling;
        let a = self.round_trip_amplitude(extra_amplitude);
        let ta = t * t * a;
        self.fsr_nm() * (1.0 - ta) / (std::f64::consts::PI * ta.sqrt())
    }

    /// Loaded quality factor at the resonance.
    pub fn q_factor(&self, extra_amplitude: f64) -> f64 {
        self.resonance.nm() / self.fwhm_nm(extra_amplitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> AddDropMrr {
        AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0))
    }

    #[test]
    fn on_resonance_drops_most_power_when_transparent() {
        let r = ring();
        let t = r.transfer_on_resonance(1.0);
        assert!(t.drop > 0.9, "drop {} should dominate on resonance", t.drop);
        assert!(t.through < 0.05, "through {} should be suppressed", t.through);
    }

    #[test]
    fn high_absorption_suppresses_drop() {
        let r = ring();
        let transparent = r.transfer_on_resonance(1.0);
        let absorbing = r.transfer_on_resonance(0.3);
        assert!(absorbing.drop < transparent.drop / 2.0);
        assert!(absorbing.through > transparent.through);
        // Moderate intra-cavity loss dissipates a visible fraction in the
        // ring; at heavy loss the light mostly never couples in at all.
        let moderate = r.transfer_on_resonance(0.9);
        assert!(moderate.absorbed_fraction() > 0.1, "absorbed {}", moderate.absorbed_fraction());
    }

    #[test]
    fn off_resonance_passes_through() {
        let r = ring();
        // One full channel spacing away.
        let t = r.transfer(Wavelength::from_nm(1551.6), 1.0);
        assert!(t.through > 0.9, "through {} should dominate off resonance", t.through);
        assert!(t.drop < 0.1, "drop {} should be small off resonance", t.drop);
    }

    #[test]
    fn transfer_is_periodic_over_fsr() {
        let r = ring();
        let fsr = r.fsr_nm();
        let a = r.transfer(Wavelength::from_nm(1550.0 + 0.3), 1.0);
        let b = r.transfer(Wavelength::from_nm(1550.0 + 0.3 + fsr), 1.0);
        assert!((a.drop - b.drop).abs() < 1e-6);
        assert!((a.through - b.through).abs() < 1e-6);
    }

    #[test]
    fn fsr_is_large_enough_for_channel_plan() {
        let r = ring();
        // FSR must exceed the total band of a 16-channel plan so each ring
        // addresses exactly one channel.
        assert!(r.fsr_nm() > 1.6 * 16.0, "FSR {} nm too small", r.fsr_nm());
    }

    #[test]
    fn energy_is_conserved() {
        let r = ring();
        for &extra in &[1.0, 0.9, 0.5, 0.1] {
            for i in 0..50 {
                let lambda = Wavelength::from_nm(1549.0 + 0.05 * i as f64);
                let t = r.transfer(lambda, extra);
                assert!(
                    t.through + t.drop <= 1.0 + 1e-9,
                    "λ={lambda} extra={extra}: through+drop={}",
                    t.through + t.drop
                );
            }
        }
    }

    #[test]
    fn q_factor_is_physical() {
        let r = ring();
        let q = r.q_factor(1.0);
        // Silicon microrings have loaded Qs in the 1e3–1e5 range.
        assert!(q > 1e3 && q < 1e6, "Q={q}");
        // Extra loss broadens the line (lowers Q).
        assert!(r.q_factor(0.5) < q);
    }

    #[test]
    fn activation_ring_has_smaller_fsr() {
        let small = ring();
        let big = AddDropMrr::new(MrrGeometry::activation_cell(), Wavelength::from_nm(1553.4));
        assert!(big.fsr_nm() < small.fsr_nm());
    }

    #[test]
    fn retuning_moves_resonance() {
        let mut r = ring();
        r.set_resonance(Wavelength::from_nm(1551.6));
        let t = r.transfer(Wavelength::from_nm(1551.6), 1.0);
        assert!(t.drop > 0.9);
    }

    #[test]
    fn footprint_scales_with_radius() {
        assert!(
            MrrGeometry::activation_cell().footprint().value()
                > MrrGeometry::weight_bank().footprint().value()
        );
    }
}
