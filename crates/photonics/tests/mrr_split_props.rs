//! Property tests pinning the split add-drop transfer function
//! (`drive(a).at(sin(φ/2))`) bitwise to the single closed form it was
//! factored out of. The weight bank caches `sin(φ/2)` per ring and
//! channel and one `drive` per GST state, so any rounding difference
//! here would change every modelled output downstream.

use proptest::prelude::*;
use trident_photonics::mrr::{AddDropMrr, MrrGeometry, PortTransfer};
use trident_photonics::units::Wavelength;
use trident_photonics::wdm::WdmGrid;

/// The closed form, written out in one expression order: every product
/// and sum in the same order as the unsplit function evaluated them.
fn closed_form(ring: &AddDropMrr, lambda: Wavelength, extra_amplitude: f64) -> PortTransfer {
    let t = ring.geometry().self_coupling;
    let a = ring.geometry().intrinsic_round_trip_amplitude() * extra_amplitude;
    let kappa_sq = 1.0 - t * t;
    let phi = ring.phase_detuning_rad(lambda);
    let s = (phi / 2.0).sin();
    let resonant_term = 4.0 * t * t * a * s * s;
    let denom = {
        let d = 1.0 - t * t * a;
        d * d + resonant_term
    };
    let through = {
        let n = t - t * a;
        (n * n + resonant_term) / denom
    };
    let drop = kappa_sq * kappa_sq * a / denom;
    PortTransfer { through: through.min(1.0), drop: drop.min(1.0) }
}

fn assert_bitwise(got: PortTransfer, want: PortTransfer) {
    assert_eq!(got.through.to_bits(), want.through.to_bits());
    assert_eq!(got.drop.to_bits(), want.drop.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A bank ring on any of the 16 channels, probed anywhere across the
    /// channel plan and one FSR beyond it on either side.
    #[test]
    fn transfer_matches_closed_form_across_the_grid(
        ring_ch in 0usize..16,
        pos in 0.0f64..=1.0,
        amplitude in 0.0f64..=1.0,
    ) {
        let grid = WdmGrid::c_band(16);
        let ring = AddDropMrr::new(MrrGeometry::weight_bank(), grid.channel(ring_ch));
        let fsr = ring.fsr_nm();
        let lo = grid.channel(0).nm() - fsr;
        let hi = grid.channel(15).nm() + fsr;
        let lambda = Wavelength::from_nm(lo + pos * (hi - lo));
        assert_bitwise(ring.transfer(lambda, amplitude), closed_form(&ring, lambda, amplitude));
    }

    /// Exactly on grid channels (where the bank evaluates), including the
    /// ring's own resonance, and at the amplitude extremes.
    #[test]
    fn transfer_matches_closed_form_on_channels(
        ring_ch in 0usize..16,
        probe_ch in 0usize..16,
        amplitude in 0.0f64..=1.0,
    ) {
        let grid = WdmGrid::c_band(16);
        let ring = AddDropMrr::new(MrrGeometry::weight_bank(), grid.channel(ring_ch));
        let lambda = grid.channel(probe_ch);
        for a in [amplitude, 0.0, 1.0] {
            assert_bitwise(ring.transfer(lambda, a), closed_form(&ring, lambda, a));
        }
    }

    /// One `drive` reused across wavelengths is the same as a fresh solve
    /// per wavelength — the reuse the weight bank relies on.
    #[test]
    fn one_drive_serves_every_channel(amplitude in 0.0f64..=1.0, ring_ch in 0usize..16) {
        let grid = WdmGrid::c_band(16);
        let ring = AddDropMrr::new(MrrGeometry::weight_bank(), grid.channel(ring_ch));
        let drive = ring.drive(amplitude);
        for lambda in grid.channels() {
            let split = drive.at(ring.half_phase_sin_ratio(lambda));
            assert_bitwise(split, closed_form(&ring, lambda, amplitude));
        }
    }
}
