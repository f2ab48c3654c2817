//! The PCM-MRR weight unit: a GST cell embedded in an add-drop microring.
//!
//! §III-B of the paper: the GST acts as an intra-cavity attenuator; it does
//! *not* shift the resonance. With the ring exactly on its channel, the
//! crystallinity sets the split between the drop port (positive rail of the
//! balanced detector) and the through port (negative rail), so one ring
//! encodes a signed weight
//!
//! ```text
//! w_raw(c) = T_drop(c) - T_through(c)
//! ```
//!
//! A [`WeightLut`] calibrates this curve once per (geometry, channel)
//! pair. The physical `w_raw(c)` curve is steep near the amorphous end
//! (the ring operates close to critical coupling), so levels uniform in
//! crystallinity would waste most of the 8-bit budget. Real multi-level
//! PCM programming solves this with *program-and-verify*: each of the 255
//! levels targets a weight uniformly spaced over the usable symmetric
//! range, and the crystallinity achieving it is found by iterative
//! write/read pulses. The LUT performs that calibration by bisecting the
//! monotone physics curve, yielding uniform 8-bit weights whose LSB the
//! property tests bound.
//!
//! The table also keeps each level's ring drive ([`AddDropMrr::drive`] at
//! the level's calibrated crystallinity). The drive depends only on the
//! ring geometry, the GST recipe and the crystallinity, so a cell that
//! holds a calibrated level bit for bit reads its drive from the table
//! ([`WeightLut::drive_for`]) instead of solving for it.

use crate::error::PcmError;
use crate::gst::{GstCell, GstFault, GstParameters, WriteReport, WriteVerifyPolicy};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use trident_photonics::mrr::{AddDropMrr, MrrDrive, MrrGeometry, PortTransfer};
use trident_photonics::units::{EnergyPj, Wavelength};

/// Calibration table from target weight to (GST level, crystallinity) for
/// one ring design.
///
/// Build one per bank and share it across all rings with the same geometry
/// (the table depends only on the ring design, not per-ring state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightLut {
    /// Achieved raw weight `T_drop - T_through` for each level, uniformly
    /// spaced and monotone decreasing in the level index.
    raw_by_level: Vec<f64>,
    /// Calibrated crystallinity realising each level.
    crystallinity_by_level: Vec<f64>,
    /// Ring drive at each level's calibrated crystallinity.
    drive_by_level: Vec<MrrDrive>,
    /// Scale applied to normalized weights: `w_raw = scale * w`.
    scale: f64,
    /// The ring design the table was calibrated on.
    geometry: MrrGeometry,
    /// The GST recipe the table was calibrated with.
    params: GstParameters,
}

impl WeightLut {
    /// Calibrate the weight curve of `ring` with GST `params` at the ring's
    /// own resonant wavelength.
    pub fn build(ring: &AddDropMrr, params: &GstParameters) -> Self {
        let raw_of = |c: f64| {
            let t = ring.transfer_on_resonance(params.amplitude_at(c));
            t.drop - t.through
        };
        let max = raw_of(0.0);
        let min = raw_of(1.0);
        assert!(
            max > 0.0 && min < 0.0,
            "ring design cannot encode signed weights: raw range [{min}, {max}]"
        );
        // Symmetric full scale: |w| = 1 must be reachable on both signs.
        let scale = max.min(-min);
        let levels = params.levels as usize;
        let on_resonance = ring.half_phase_sin_ratio(ring.resonance());
        let mut raw_by_level = Vec::with_capacity(levels);
        let mut crystallinity_by_level = Vec::with_capacity(levels);
        let mut drive_by_level = Vec::with_capacity(levels);
        for lvl in 0..levels {
            // Level 0 = +scale (most amorphous used), last = -scale.
            let target = scale - 2.0 * scale * lvl as f64 / (levels - 1) as f64;
            // Bisect: raw_of is strictly decreasing in crystallinity.
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if raw_of(mid) > target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let c = 0.5 * (lo + hi);
            // `raw_of(c)`, keeping the drive it is computed from.
            let drive = ring.drive(params.amplitude_at(c));
            let t = drive.at(on_resonance);
            raw_by_level.push(t.drop - t.through);
            crystallinity_by_level.push(c);
            drive_by_level.push(drive);
        }
        Self {
            raw_by_level,
            crystallinity_by_level,
            drive_by_level,
            scale,
            geometry: *ring.geometry(),
            params: *params,
        }
    }

    /// The ring drive of `unit` in its current state, read from the
    /// table: bitwise what [`PcmMrr::drive`] computes, because the unit
    /// has the geometry and GST recipe the table was calibrated for and
    /// its cell holds its level's calibrated crystallinity bit for bit.
    /// `None` for any other state (an aged or verify-written cell) and
    /// for a unit of another design or recipe; the caller then computes
    /// the drive.
    pub fn drive_for(&self, unit: &PcmMrr) -> Option<MrrDrive> {
        let cell = unit.cell();
        let level = usize::from(cell.level());
        let calibrated = self.crystallinity_by_level.get(level)?;
        let hit = cell.crystallinity().to_bits() == calibrated.to_bits()
            && unit.ring().geometry() == &self.geometry
            && cell.params() == &self.params;
        hit.then(|| self.drive_by_level[level])
    }

    /// Number of levels.
    #[inline]
    pub fn levels(&self) -> u16 {
        self.raw_by_level.len() as u16
    }

    /// The optical scale factor `s` in `w_raw = s * w`. The readout divides
    /// detected currents by this to recover normalized weights.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Raw weight achieved at a level.
    #[inline]
    pub fn raw_at(&self, level: u16) -> f64 {
        self.raw_by_level[level as usize]
    }

    /// Calibrated crystallinity for a level.
    #[inline]
    pub fn crystallinity_at(&self, level: u16) -> f64 {
        self.crystallinity_by_level[level as usize]
    }

    /// Normalized weight achieved at a level.
    #[inline]
    pub fn weight_at(&self, level: u16) -> f64 {
        self.raw_at(level) / self.scale
    }

    /// Level whose achieved weight is nearest to `w`.
    ///
    /// The raw curve is monotone decreasing, so binary search applies.
    ///
    /// # Panics
    /// Panics if `w` is outside `[-1, 1]`.
    pub fn level_for(&self, w: f64) -> u16 {
        assert!((-1.0..=1.0).contains(&w), "weight {w} outside [-1, 1]");
        let target = w * self.scale;
        let v = &self.raw_by_level;
        // partition_point: first index whose raw value is <= target
        // (values are decreasing).
        let idx = v.partition_point(|&raw| raw > target);
        let lo = idx.saturating_sub(1);
        let hi = idx.min(v.len() - 1);
        let best = if (v[lo] - target).abs() <= (v[hi] - target).abs() { lo } else { hi };
        u16::try_from(best).unwrap_or(u16::MAX)
    }

    /// Fallible form of [`WeightLut::level_for`].
    pub fn try_level_for(&self, w: f64) -> Result<u16, PcmError> {
        if !(-1.0..=1.0).contains(&w) {
            return Err(PcmError::WeightOutOfRange(w));
        }
        Ok(self.level_for(w))
    }

    /// Crystallinity tolerance for verifying a write to `level`: half the
    /// gap to the nearest neighbouring level, so a passed verify always
    /// reads back as the intended level and never its neighbour.
    pub fn verify_tolerance(&self, level: u16) -> f64 {
        let c = &self.crystallinity_by_level;
        let i = level as usize;
        let below = if i > 0 { c[i] - c[i - 1] } else { f64::INFINITY };
        let above = if i + 1 < c.len() { c[i + 1] - c[i] } else { f64::INFINITY };
        // Guard with a floor: adjacent calibrated states can coincide to
        // bisection precision at the crystalline end of the curve.
        (0.5 * below.min(above)).max(1e-9)
    }

    /// Worst-case quantization error (in normalized weight units) over a
    /// uniform sweep of `samples` target weights.
    pub fn max_quantization_error(&self, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let w = -1.0 + 2.0 * i as f64 / (samples - 1) as f64;
                (self.weight_at(self.level_for(w)) - w).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// One weight unit of the bank: an add-drop ring with an embedded GST cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PcmMrr {
    ring: AddDropMrr,
    cell: GstCell,
    /// Writes that ended in a verify failure or stuck-cell rejection.
    write_failures: u64,
}

impl PcmMrr {
    /// Assemble a weight unit from a ring and a fresh GST cell.
    pub fn new(ring: AddDropMrr, params: GstParameters) -> Self {
        Self { ring, cell: GstCell::new(params), write_failures: 0 }
    }

    /// The underlying ring.
    #[inline]
    pub fn ring(&self) -> &AddDropMrr {
        &self.ring
    }

    /// The embedded GST cell.
    #[inline]
    pub fn cell(&self) -> &GstCell {
        &self.cell
    }

    /// Program a normalized weight through `lut` with an ideal calibrated
    /// write (single exact pulse). Returns the optical write energy spent
    /// (zero when the level is unchanged — non-volatility). Out-of-range
    /// weights, faults and wear surface as [`PcmError`]s; the closed-loop
    /// path is [`PcmMrr::set_weight_verified`].
    pub fn try_set_weight(&mut self, w: f64, lut: &WeightLut) -> Result<EnergyPj, PcmError> {
        let level = lut.try_level_for(w)?;
        let result = self.cell.try_program_calibrated(level, lut.crystallinity_at(level));
        if matches!(result, Err(PcmError::StuckCell { .. })) {
            self.write_failures += 1;
        }
        result
    }

    /// Closed-loop program-and-verify weight write: iterative partial
    /// pulses with read-back until the cell verifies at the calibrated
    /// level (see [`GstCell::program_verified`]). Failed writes are
    /// tallied in [`PcmMrr::write_failures`].
    pub fn set_weight_verified(
        &mut self,
        w: f64,
        lut: &WeightLut,
        policy: &WriteVerifyPolicy,
        rng: &mut StdRng,
    ) -> Result<WriteReport, PcmError> {
        let level = lut.try_level_for(w)?;
        let result = self.cell.program_verified(
            level,
            lut.crystallinity_at(level),
            lut.verify_tolerance(level),
            policy,
            rng,
        );
        if matches!(
            result,
            Err(PcmError::WriteVerifyFailed { .. }) | Err(PcmError::StuckCell { .. })
        ) {
            self.write_failures += 1;
        }
        result
    }

    /// Pin the embedded cell in a hard fault state.
    pub fn inject_fault(&mut self, fault: GstFault) {
        self.cell.inject_fault(fault);
    }

    /// Age the embedded cell by `years` of amorphous drift
    /// (see [`GstCell::age`]).
    pub fn age(&mut self, years: f64) {
        self.cell.age(years);
    }

    /// The embedded cell's hard fault, if any.
    #[inline]
    pub fn fault(&self) -> Option<GstFault> {
        self.cell.fault()
    }

    /// Writes rejected by a stuck cell or failed by verify.
    #[inline]
    pub fn write_failures(&self) -> u64 {
        self.write_failures
    }

    /// The normalized weight currently programmed.
    pub fn weight(&self, lut: &WeightLut) -> f64 {
        lut.weight_at(self.cell.level())
    }

    /// Optical response at wavelength `λ` with the current GST state.
    pub fn transfer(&self, lambda: Wavelength) -> PortTransfer {
        self.ring.transfer(lambda, self.cell.amplitude())
    }

    /// The ring's transfer function at the current GST state, ready to
    /// be evaluated on any channel ([`AddDropMrr::drive`]).
    pub fn drive(&self) -> MrrDrive {
        self.ring.drive(self.cell.amplitude())
    }

    /// Optical response exactly on the ring's channel.
    pub fn transfer_on_resonance(&self) -> PortTransfer {
        self.ring.transfer_on_resonance(self.cell.amplitude())
    }

    /// Cumulative optical energy delivered to this unit.
    pub fn energy_spent(&self) -> EnergyPj {
        self.cell.energy_spent()
    }

    /// Number of reprogramming events.
    pub fn write_count(&self) -> u64 {
        self.cell.write_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_photonics::mrr::MrrGeometry;

    fn ring() -> AddDropMrr {
        AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0))
    }

    fn lut() -> WeightLut {
        WeightLut::build(&ring(), &GstParameters::default())
    }

    const LSB: f64 = 2.0 / 254.0;

    #[test]
    fn lut_is_monotone_decreasing() {
        let l = lut();
        for i in 1..l.levels() {
            assert!(
                l.raw_at(i) < l.raw_at(i - 1),
                "raw weight must decrease with level at level {i}"
            );
            assert!(
                l.crystallinity_at(i) > l.crystallinity_at(i - 1),
                "crystallinity must increase with level at level {i}"
            );
        }
    }

    #[test]
    fn lut_spans_signed_weights_uniformly() {
        let l = lut();
        assert!((l.weight_at(0) - 1.0).abs() < 1e-6, "level 0 is w=+1, got {}", l.weight_at(0));
        assert!(
            (l.weight_at(l.levels() - 1) + 1.0).abs() < 1e-6,
            "last level is w=-1, got {}",
            l.weight_at(l.levels() - 1)
        );
        // Uniform spacing: every adjacent pair differs by one LSB.
        for i in 1..l.levels() {
            let step = l.weight_at(i - 1) - l.weight_at(i);
            assert!((step - LSB).abs() < 1e-6, "level {i} step {step} vs LSB {LSB}");
        }
    }

    #[test]
    fn scale_is_physical() {
        let l = lut();
        assert!(l.scale() > 0.2 && l.scale() < 1.0, "scale {}", l.scale());
    }

    #[test]
    fn quantization_error_is_at_most_half_lsb() {
        let l = lut();
        let err = l.max_quantization_error(2001);
        assert!(err <= 0.5 * LSB + 1e-6, "max quantization error {err} vs half-LSB {}", 0.5 * LSB);
    }

    #[test]
    fn level_lookup_inverts_weight() {
        let l = lut();
        for lvl in [0u16, 1, 63, 127, 200, 254] {
            let w = l.weight_at(lvl);
            assert_eq!(l.level_for(w), lvl, "round-trip failed at level {lvl}");
        }
    }

    #[test]
    fn extreme_weights_hit_extreme_levels() {
        let l = lut();
        assert_eq!(l.level_for(1.0), 0, "w=+1 is the most amorphous calibrated level");
        assert_eq!(l.level_for(-1.0), l.levels() - 1);
        assert_eq!(l.level_for(0.0), (l.levels() - 1) / 2, "w=0 is the middle level");
    }

    #[test]
    fn set_weight_round_trips_within_half_lsb() {
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        for &w in &[0.75, -0.3, 0.0, 1.0, -1.0, 0.123] {
            unit.try_set_weight(w, &l).unwrap();
            assert!(
                (unit.weight(&l) - w).abs() <= 0.5 * LSB + 1e-6,
                "w={w} read back as {}",
                unit.weight(&l)
            );
        }
    }

    #[test]
    fn reprogramming_same_weight_is_free() {
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        let e1 = unit.try_set_weight(0.5, &l).unwrap();
        let e2 = unit.try_set_weight(0.5, &l).unwrap();
        assert!(e1.value() > 0.0);
        assert_eq!(e2, EnergyPj::ZERO);
        assert_eq!(unit.write_count(), 1);
    }

    #[test]
    fn balanced_transfer_matches_programmed_weight() {
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        for &w in &[0.4, -0.8, 0.05] {
            unit.try_set_weight(w, &l).unwrap();
            let t = unit.transfer_on_resonance();
            let raw = t.drop - t.through;
            assert!(
                (raw / l.scale() - w).abs() <= LSB,
                "optical raw weight {} disagrees with programmed {w}",
                raw / l.scale()
            );
        }
    }

    #[test]
    fn verified_write_reaches_every_queried_level() {
        use rand::SeedableRng;
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        let mut rng = StdRng::seed_from_u64(9);
        let policy = WriteVerifyPolicy::default();
        for &w in &[1.0, -1.0, 0.0, 0.37, -0.81] {
            let report = unit.set_weight_verified(w, &l, &policy, &mut rng).unwrap();
            assert!(report.pulses <= policy.max_attempts);
            assert!(
                (unit.weight(&l) - w).abs() <= 0.5 * LSB + 1e-6,
                "w={w} read back as {}",
                unit.weight(&l)
            );
        }
        assert_eq!(unit.write_failures(), 0);
    }

    #[test]
    fn stuck_unit_tallies_write_failures() {
        use rand::SeedableRng;
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        unit.inject_fault(GstFault::StuckAmorphous);
        let mut rng = StdRng::seed_from_u64(2);
        let err = unit
            .set_weight_verified(-0.5, &l, &WriteVerifyPolicy::default(), &mut rng)
            .unwrap_err();
        assert!(matches!(err, PcmError::StuckCell { .. }));
        assert_eq!(unit.write_failures(), 1);
        assert!(unit.try_set_weight(-0.5, &l).is_err());
        assert_eq!(unit.write_failures(), 2);
        // The stuck-amorphous phase reads as the most positive weight.
        assert!((unit.weight(&l) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn verify_tolerance_separates_adjacent_levels() {
        let l = lut();
        for lvl in 0..l.levels() {
            let tol = l.verify_tolerance(lvl);
            assert!(tol > 0.0);
            if lvl > 0 {
                assert!(tol <= 0.5 * (l.crystallinity_at(lvl) - l.crystallinity_at(lvl - 1)) + 1e-9);
            }
        }
    }

    #[test]
    fn try_level_for_rejects_out_of_range_weight() {
        let l = lut();
        assert!(matches!(l.try_level_for(1.5), Err(PcmError::WeightOutOfRange(_))));
        assert!(l.try_level_for(0.5).is_ok());
    }

    #[test]
    fn drive_table_is_bitwise_the_computed_drive() {
        use trident_photonics::wdm::WdmGrid;
        let params = GstParameters::default();
        let ring = AddDropMrr::new(MrrGeometry::weight_bank(), WdmGrid::c_band(16).channel(0));
        let l = WeightLut::build(&ring, &params);
        let mut unit = PcmMrr::new(ring, params);
        // Top down, so every write changes the level: a fresh cell's
        // crystallinity 0 already passes for level 0, without its bits.
        for lvl in (0..l.levels()).rev() {
            let c = l.crystallinity_at(lvl);
            unit.cell.try_program_calibrated(lvl, c).unwrap();
            // Float `Debug` round-trips, so equal strings are equal bits.
            let want = format!("{:?}", ring.drive(params.amplitude_at(c)));
            let got = l.drive_for(&unit).expect("a calibrated level is in the table");
            assert_eq!(format!("{got:?}"), want, "level {lvl}");
            assert_eq!(format!("{:?}", unit.drive()), want, "level {lvl}");
        }
        // An aged cell has left its calibrated crystallinity.
        unit.try_set_weight(0.3, &l).unwrap();
        assert!(l.drive_for(&unit).is_some());
        unit.age(1.0);
        assert_ne!(unit.cell().crystallinity(), l.crystallinity_at(unit.cell().level()));
        assert_eq!(l.drive_for(&unit), None, "aged cell");
        // A unit of another ring design or GST recipe is not the table's.
        let geometry = MrrGeometry { self_coupling: 0.985, ..MrrGeometry::weight_bank() };
        let other_params = GstParameters { endurance_cycles: 60, ..params };
        let units = [
            PcmMrr::new(AddDropMrr::new(geometry, ring.resonance()), params),
            PcmMrr::new(ring, other_params),
        ];
        for mut other in units {
            let lvl = l.level_for(0.3);
            other.cell.try_program_calibrated(lvl, l.crystallinity_at(lvl)).unwrap();
            assert_eq!(l.drive_for(&other), None, "{:?}", other.ring().geometry());
        }
    }

    #[test]
    fn off_resonance_input_mostly_ignored() {
        let l = lut();
        let mut unit = PcmMrr::new(ring(), GstParameters::default());
        unit.try_set_weight(1.0, &l).unwrap();
        let t = unit.transfer(Wavelength::from_nm(1551.6));
        assert!(t.through > 0.9, "neighbouring channel should pass through");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use trident_photonics::mrr::MrrGeometry;

    fn shared_lut() -> &'static WeightLut {
        use std::sync::OnceLock;
        static LUT: OnceLock<WeightLut> = OnceLock::new();
        LUT.get_or_init(|| {
            let ring =
                AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
            WeightLut::build(&ring, &GstParameters::default())
        })
    }

    proptest! {
        #[test]
        fn any_weight_round_trips_within_half_lsb(w in -1.0f64..=1.0) {
            let lut = shared_lut();
            let got = lut.weight_at(lut.level_for(w));
            prop_assert!((got - w).abs() <= 0.5 * 2.0 / 254.0 + 1e-6);
        }

        #[test]
        fn transfer_stays_physical(w in -1.0f64..=1.0, detune in -2.0f64..=2.0) {
            let lut = shared_lut();
            let ring =
                AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
            let mut unit = PcmMrr::new(ring, GstParameters::default());
            unit.try_set_weight(w, lut).unwrap();
            let t = unit.transfer(Wavelength::from_nm(1550.0 + detune));
            prop_assert!(t.drop >= 0.0 && t.drop <= 1.0);
            prop_assert!(t.through >= 0.0 && t.through <= 1.0);
            prop_assert!(t.drop + t.through <= 1.0 + 1e-9);
        }
    }
}
