//! The functional PCM-MRR weight bank.
//!
//! A J×N array of GST-loaded add-drop rings on one WDM bus per row
//! (Fig. 1 of the paper). Programming writes each ring's GST cell through
//! the calibrated [`WeightLut`]; a matrix-vector product is then literally
//! the steady-state optics: every input channel propagates down each row,
//! each ring drops its own channel in proportion to its weight, the drop
//! and through rails accumulate, and the balanced detector reads the
//! signed sum.
//!
//! The bank caches its **linear response matrices** `D[r][j]` / `T[r][j]`
//! (drop/through power reaching the rails from channel `j` of row `r`,
//! including upstream ring attenuation and inter-channel crosstalk).
//! Optics is linear in power, so an MVM is two cached mat-vecs — the
//! physics runs once per state change, not once per vector.
//!
//! The physics is split by how often its inputs change. `sin(φ/2)` of
//! every ring on every channel is fixed by the ring's resonance and is
//! tabulated at construction (one table per column for a nominal bank,
//! one per slot under fabrication variation) and again when a spare
//! replaces a ring. A GST state change costs one
//! [`AddDropMrr::drive`] and a few multiply-adds per channel.
//!
//! That work is also deferred to the first read after a change: writes,
//! masking, remapping, fault injection and aging only mark the slot and
//! its row stale. [`WeightBank::mvm`] and [`WeightBank::mvm_stat`] settle
//! every stale row before reading, [`WeightBank::ring_readout`] only its
//! own row; settling refreshes the stale slots' transfer cache and
//! recomputes that row's response. A read of a bank with nothing stale
//! pays one branch. The outer-product mode's zero rows, rewritten before
//! anything reads them, never have their optics computed.

use crate::error::ArchError;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use trident_obs as obs;
use trident_pcm::gst::{GstFault, GstParameters, WriteVerifyPolicy};
use trident_pcm::stat::{seeded_gaussian, DegradationClock, StatParams, STREAM_PCM_NU, STREAM_PCM_PROG, STREAM_PCM_READ};
use trident_pcm::weight::{PcmMrr, WeightLut};
use trident_pcm::PcmError;
use trident_photonics::mrr::{AddDropMrr, MrrGeometry};
use trident_photonics::units::{EnergyPj, Hours, Nanoseconds};
use trident_photonics::wdm::WdmGrid;

/// Spare rings fabricated alongside each row for wear-leveling remap
/// (12.5% redundancy on the paper's 16-wide banks).
pub const DEFAULT_SPARES_PER_ROW: usize = 2;

/// Accounting record of one fault-aware bank programming event
/// (the closed-loop [`WeightBank::try_program_verified`] path).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramReport {
    /// Total optical energy spent (write pulses + verify read-backs).
    pub energy: EnergyPj,
    /// Wall-clock time: rings program in parallel, so this is the longest
    /// single-cell retry sequence.
    pub time: Nanoseconds,
    /// Write pulses summed over all cells.
    pub pulses: u64,
    /// Cells whose state actually changed.
    pub cells_written: usize,
    /// Cells that needed more than one pulse to verify.
    pub retried_cells: usize,
    /// Cells remapped onto a spare ring during this event.
    pub remapped: usize,
    /// Cells masked out (dead, no spare left) during this event.
    pub masked: usize,
    /// Per-cell failures absorbed by masking: `(row, col, cause)`.
    pub failures: Vec<(usize, usize, PcmError)>,
}

/// A J×N PCM-MRR weight bank.
///
/// ```
/// use trident_arch::bank::WeightBank;
/// use trident_pcm::gst::GstParameters;
///
/// let mut bank = WeightBank::new(2, 2, GstParameters::default());
/// bank.program(&[&[0.5, -0.5], &[1.0, 0.0]]).0; // optical writes
/// let y = bank.mvm(&[1.0, 1.0]);                // optical dot products
/// assert!((y[0] - 0.0).abs() < 0.05);
/// assert!((y[1] - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WeightBank {
    rows: usize,
    cols: usize,
    grid: WdmGrid,
    /// The calibration table, shared by every bank built from the same
    /// ring design and GST recipe.
    lut: Arc<WeightLut>,
    rings: Vec<PcmMrr>,
    /// The ring design, kept so spares can be minted on demand.
    geometry: MrrGeometry,
    /// The GST recipe, kept for the same reason.
    params: GstParameters,
    /// Electronically masked (dead) slots: the balanced receiver cancels
    /// the slot's channel for this row, so it contributes zero weight.
    masked: Vec<bool>,
    /// Spare rings still available per row for wear-leveling remap.
    spares: Vec<usize>,
    /// Faulty/worn cells replaced by a spare so far.
    remapped: u64,
    /// `sin(φ/2)` of a ring on each channel, `[ring][channel]`
    /// ([`AddDropMrr::half_phase_sin_ratio`]). Fixed by the ring's
    /// resonance: a nominal bank keeps one ring per column (every row's
    /// ring `k`, and any spare minted for it, sits exactly on channel
    /// `k`); a bank with fabrication variation keeps one per slot.
    half_phase: Vec<f64>,
    /// Cached per-ring transfer `[row][ring][channel] → (drop, through)`;
    /// refreshed only for rings whose state changed, so reprogramming
    /// during training stays cheap.
    transfer_cache: Vec<(f64, f64)>,
    /// Cached linear drop response `[row][channel]`.
    drop_coeff: Vec<f64>,
    /// Cached linear through response `[row][channel]`.
    through_coeff: Vec<f64>,
    /// Slots whose `transfer_cache` entries predate their ring's state.
    stale_slots: Vec<bool>,
    /// Rows whose response predates a change to one of their slots.
    stale_rows: Vec<bool>,
    /// Whether any row may be stale — the one branch a clean read pays.
    stale: bool,
    program_events: u64,
    /// The bank's single simulated-deployment-time source: both the
    /// deterministic relaxation law and the statistical drift model read
    /// elapsed time from here, so time can never advance two ways.
    #[serde(default)]
    clock: DegradationClock,
    /// The statistical device layer. `None` (the default) keeps the bank
    /// exactly deterministic — no draws, no extra arithmetic.
    #[serde(default)]
    stat: Option<BankStat>,
}

/// Per-bank state of the statistical device model: seeded per-cell drift
/// exponents, the last programming error and write time of every slot,
/// the cached decay factors, and the calibration gain. No RNG object is
/// stored — every draw is addressed by `(bank_seed, stream, counter)`
/// through [`seeded_gaussian`], which keeps the bank serializable and the
/// noise bitwise reproducible.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BankStat {
    params: StatParams,
    bank_seed: u64,
    /// Per-slot drift exponent ν_i ≥ ν̄ (half-normal above the floor).
    nu: Vec<f64>,
    /// Post-verify programming error per slot, weight units.
    prog_offset: Vec<f64>,
    /// Deployment time of each slot's last successful write.
    prog_at: Vec<Hours>,
    /// Cached decay factor per slot at the clock's current time.
    factor: Vec<f64>,
    /// Global scale-calibration gain from the last reference-column read.
    gain: f64,
    /// Deployment time of the reference column's last rewrite (it is
    /// refreshed alongside every programming event, so this is the
    /// bank's *youngest* programming age — the safety bound).
    ref_prog_at: Hours,
    prog_draws: u64,
    read_draws: u64,
}

impl WeightBank {
    /// Build a bank of `rows × cols` rings; column `j` of every row is
    /// resonant on WDM channel `j`.
    pub fn new(rows: usize, cols: usize, params: GstParameters) -> Self {
        let lut = Self::nominal_lut(cols, &params);
        Self::new_varied(rows, cols, params, 0.0, 0, lut)
    }

    /// The weight LUT of a `cols`-channel bank with GST `params`,
    /// calibrated on the nominal ring design. Banks of one grid share a
    /// single table: it depends only on the design, so build it once and
    /// hand each bank a clone of the `Arc`.
    pub fn nominal_lut(cols: usize, params: &GstParameters) -> Arc<WeightLut> {
        let template = AddDropMrr::new(MrrGeometry::weight_bank(), WdmGrid::c_band(cols).channel(0));
        Arc::new(WeightLut::build(&template, params))
    }

    /// Build a bank whose rings carry **fabrication variation**: each
    /// ring's as-built resonance deviates from its channel by a Gaussian
    /// offset of standard deviation `resonance_sigma_nm`. The weight LUT
    /// is calibrated on the *nominal* design (no per-device trimming),
    /// so deployed weights land slightly wrong — the §I mismatch between
    /// digitally trained and physically implemented weights that
    /// motivates unified in-situ training.
    ///
    /// `lut` must be [`WeightBank::nominal_lut`] for `cols` and `params`.
    pub fn new_varied(
        rows: usize,
        cols: usize,
        params: GstParameters,
        resonance_sigma_nm: f64,
        variation_seed: u64,
        lut: Arc<WeightLut>,
    ) -> Self {
        assert!(rows >= 1 && cols >= 1, "bank needs at least one ring");
        assert!(resonance_sigma_nm >= 0.0, "sigma cannot be negative");
        let grid = WdmGrid::c_band(cols);
        let geometry = MrrGeometry::weight_bank();
        let mut noise = trident_photonics::noise::NoiseModel::seeded(variation_seed);
        let mut rings = Vec::with_capacity(rows * cols);
        for _r in 0..rows {
            for c in 0..cols {
                let offset = if resonance_sigma_nm > 0.0 {
                    noise.gaussian() * resonance_sigma_nm
                } else {
                    0.0
                };
                let resonance = grid.channel(c).shifted_nm(offset);
                rings.push(PcmMrr::new(AddDropMrr::new(geometry, resonance), params));
            }
        }
        let phase_rings = if resonance_sigma_nm > 0.0 { rows * cols } else { cols };
        let half_phase = half_phase_table(&rings[..phase_rings], &grid);
        // Nothing is computed yet: the first read settles every row.
        Self {
            rows,
            cols,
            grid,
            lut,
            rings,
            geometry,
            params,
            masked: vec![false; rows * cols],
            spares: vec![DEFAULT_SPARES_PER_ROW; rows],
            remapped: 0,
            half_phase,
            transfer_cache: vec![(0.0, 0.0); rows * cols * cols],
            drop_coeff: vec![0.0; rows * cols],
            through_coeff: vec![0.0; rows * cols],
            stale_slots: vec![true; rows * cols],
            stale_rows: vec![true; rows],
            stale: true,
            program_events: 0,
            clock: DegradationClock::new(),
            stat: None,
        }
    }

    /// Row of `half_phase` holding slot `idx`'s ring: the slot itself
    /// when the table has one row per slot, else its column.
    fn phase_ring(&self, idx: usize) -> usize {
        if self.half_phase.len() == self.rings.len() * self.cols {
            idx
        } else {
            idx % self.cols
        }
    }

    /// Re-evaluate the physics for slot `idx`'s ring across every
    /// channel. A masked (dead) ring is heater-detuned far off the bus:
    /// transparent on every channel, contributing neither drop power nor
    /// crosstalk.
    fn refresh_ring_cache(&mut self, idx: usize) {
        let cols = self.cols;
        let phase_lo = self.phase_ring(idx) * cols;
        let cache = &mut self.transfer_cache[idx * cols..(idx + 1) * cols];
        if self.masked[idx] {
            cache.fill((0.0, 1.0));
            return;
        }
        let drive = self.rings[idx].drive();
        for (t, &s) in cache.iter_mut().zip(&self.half_phase[phase_lo..phase_lo + cols]) {
            let port = drive.at(s);
            *t = (port.drop, port.through);
        }
    }

    /// Record that slot `idx`'s optics changed; the physics runs when its
    /// row is next read.
    fn mark_stale(&mut self, idx: usize) {
        self.stale_slots[idx] = true;
        self.stale_rows[idx / self.cols] = true;
        self.stale = true;
    }

    /// Settle every stale row before a whole-bank read.
    #[inline]
    fn settle(&mut self) {
        if self.stale {
            for r in 0..self.rows {
                self.settle_row(r);
            }
            self.stale = false;
        }
    }

    /// Refresh row `r`'s stale slots and recompute its response.
    #[inline]
    fn settle_row(&mut self, r: usize) {
        if !self.stale_rows[r] {
            return;
        }
        for idx in r * self.cols..(r + 1) * self.cols {
            if self.stale_slots[idx] {
                self.refresh_ring_cache(idx);
                self.stale_slots[idx] = false;
            }
        }
        self.recompute_row_response(r);
        self.stale_rows[r] = false;
    }

    /// Rebuild the phase table from the rings and mark every slot stale,
    /// so the next read recomputes all optics from scratch: the reference
    /// the invalidation tests compare the incremental caches against.
    #[cfg(test)]
    fn mark_all_stale(&mut self) {
        let phase_rings = self.half_phase.len() / self.cols;
        self.half_phase = half_phase_table(&self.rings[..phase_rings], &self.grid);
        self.transfer_cache.fill((f64::NAN, f64::NAN));
        self.drop_coeff.fill(f64::NAN);
        self.through_coeff.fill(f64::NAN);
        for idx in 0..self.rings.len() {
            self.mark_stale(idx);
        }
    }

    /// Bank rows (J).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bank columns (N).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The calibration table in use.
    #[inline]
    pub fn lut(&self) -> &WeightLut {
        &self.lut
    }

    /// The channel plan.
    #[inline]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Program the whole bank from a row-major weight matrix (`rows`
    /// slices of `cols` weights each, entries in `[-1, 1]`). All rings
    /// program in parallel optically, so wall-clock cost is one write time
    /// when anything changed. Returns `(energy, time)` spent.
    ///
    /// This is the fast open-loop path (one ideal calibrated pulse per
    /// cell). Masked slots are skipped; writes rejected by stuck or worn
    /// cells are dropped and tallied in [`WeightBank::write_failures`] —
    /// the stuck weight simply stays on the bus. The closed-loop,
    /// remapping path is [`WeightBank::try_program_verified`].
    ///
    /// # Panics
    /// Panics on shape mismatches or out-of-range weights (caller bugs).
    pub fn program<I>(&mut self, weights: I) -> (EnergyPj, Nanoseconds)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: AsRef<[f64]>,
    {
        let weights = weights.into_iter();
        assert_eq!(weights.len(), self.rows, "row count mismatch");
        let mut spent = EnergyPj::ZERO;
        for (r, row) in weights.enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), self.cols, "column count mismatch in row {r}");
            for (c, &w) in row.iter().enumerate() {
                let idx = r * self.cols + c;
                if self.masked[idx] {
                    continue;
                }
                match self.rings[idx].try_set_weight(w, &self.lut) {
                    Ok(e) => {
                        if e.value() > 0.0 {
                            spent += e;
                            self.mark_stale(idx);
                            self.stat_on_write(idx, w);
                        }
                    }
                    Err(e @ PcmError::WeightOutOfRange(_)) => panic!("{e}"),
                    // Stuck or worn cells reject the write; the failure is
                    // tallied on the ring and the old state stays active.
                    Err(_) => {}
                }
            }
        }
        let time = if spent.value() > 0.0 {
            self.program_events += 1;
            self.rings[0].cell().params().write_time
        } else {
            Nanoseconds(0.0)
        };
        (spent, time)
    }

    /// Program from a flat row-major matrix (for tensors).
    pub fn program_flat(&mut self, weights: &[f64]) -> (EnergyPj, Nanoseconds) {
        assert_eq!(weights.len(), self.rows * self.cols, "matrix size mismatch");
        self.program(weights.chunks(self.cols))
    }

    /// The weight currently programmed at `(r, c)` (quantized readback).
    /// Masked slots read as zero — their channel is cancelled.
    pub fn weight(&self, r: usize, c: usize) -> f64 {
        if self.masked[r * self.cols + c] {
            return 0.0;
        }
        self.rings[r * self.cols + c].weight(&self.lut)
    }

    /// Fault-aware closed-loop programming: every changed cell goes
    /// through the bounded-retry program-and-verify write sequence
    /// ([`PcmMrr::set_weight_verified`]), and the bank degrades gracefully
    /// around cells that cannot hold their weight:
    ///
    /// 1. **wear-leveling** — a cell too worn to guarantee a full retry
    ///    budget is retired *before* it can fail mid-write and its slot is
    ///    remapped onto one of the row's spare rings;
    /// 2. **remap on failure** — stuck or verify-failed cells likewise
    ///    move to a spare;
    /// 3. **mask as last resort** — with the row's spares exhausted the
    ///    slot is detuned off the bus and its channel cancelled at the
    ///    receiver (zero weight), with the cause recorded in
    ///    [`ProgramReport::failures`].
    ///
    /// Only caller bugs (wrong shape, non-finite weights) return `Err`;
    /// device trouble is absorbed into the report.
    pub fn try_program_verified(
        &mut self,
        weights: &[f64],
        policy: &WriteVerifyPolicy,
        rng: &mut StdRng,
    ) -> Result<ProgramReport, ArchError> {
        if weights.len() != self.rows * self.cols {
            return Err(ArchError::ShapeMismatch {
                expected: self.rows * self.cols,
                got: weights.len(),
            });
        }
        let mut report = ProgramReport {
            energy: EnergyPj::ZERO,
            time: Nanoseconds(0.0),
            pulses: 0,
            cells_written: 0,
            retried_cells: 0,
            remapped: 0,
            masked: 0,
            failures: Vec::new(),
        };
        let mut changed = false;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let idx = r * self.cols + c;
                if self.masked[idx] {
                    continue; // dead slot: its weight is lost to masking
                }
                let w = weights[idx];
                // Wear-leveling: retire a cell that can no longer afford a
                // worst-case retry sequence, so verified writes never run
                // a cell past its endurance budget.
                let remaining = self.rings[idx].cell().endurance_remaining();
                if remaining < u64::from(policy.max_attempts) {
                    if self.remap_ring(r, c).is_ok() {
                        report.remapped += 1;
                        changed = true;
                    } else {
                        let cell = self.rings[idx].cell();
                        report.failures.push((
                            r,
                            c,
                            PcmError::WornOut {
                                writes: cell.write_count(),
                                endurance: cell.params().endurance_cycles,
                            },
                        ));
                        self.mask_ring(r, c);
                        report.masked += 1;
                        changed = true;
                        continue;
                    }
                }
                match self.write_slot_verified(r, c, w, policy, rng, &mut report) {
                    Ok(wrote) => changed |= wrote,
                    Err(e) => return Err(e),
                }
            }
        }
        let time = if changed {
            self.program_events += 1;
            report.time
        } else {
            Nanoseconds(0.0)
        };
        report.time = time;
        Ok(report)
    }

    /// One cell of the verified programming sweep: write, and on device
    /// failure remap to a spare (retrying once on the fresh ring) or mask.
    fn write_slot_verified(
        &mut self,
        r: usize,
        c: usize,
        w: f64,
        policy: &WriteVerifyPolicy,
        rng: &mut StdRng,
        report: &mut ProgramReport,
    ) -> Result<bool, ArchError> {
        let idx = r * self.cols + c;
        let mut remapped_retry = false;
        loop {
            match self.rings[idx].set_weight_verified(w, &self.lut, policy, rng) {
                Ok(wr) => {
                    report.energy += wr.energy;
                    if wr.time.value() > report.time.value() {
                        report.time = wr.time;
                    }
                    report.pulses += u64::from(wr.pulses);
                    if wr.pulses > 0 {
                        report.cells_written += 1;
                        if wr.pulses > 1 {
                            report.retried_cells += 1;
                        }
                        self.mark_stale(idx);
                        self.stat_on_write(idx, w);
                        return Ok(true);
                    }
                    return Ok(remapped_retry);
                }
                Err(
                    e @ (PcmError::StuckCell { .. }
                    | PcmError::WriteVerifyFailed { .. }
                    | PcmError::WornOut { .. }),
                ) => {
                    if !remapped_retry && self.remap_ring(r, c).is_ok() {
                        report.remapped += 1;
                        remapped_retry = true;
                        continue; // retry once on the fresh spare
                    }
                    report.failures.push((r, c, e));
                    self.mask_ring(r, c);
                    report.masked += 1;
                    return Ok(true);
                }
                // Out-of-range weights etc. are caller bugs, not faults.
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Replace the ring at `(r, c)` with one of the row's spares (a fresh
    /// nominal ring heater-trimmed onto the slot's channel).
    pub fn remap_ring(&mut self, r: usize, c: usize) -> Result<(), ArchError> {
        if self.spares[r] == 0 {
            return Err(ArchError::SparesExhausted { row: r, col: c });
        }
        self.spares[r] -= 1;
        self.remapped += 1;
        let idx = r * self.cols + c;
        let ring = AddDropMrr::new(self.geometry, self.grid.channel(c));
        self.rings[idx] = PcmMrr::new(ring, self.params);
        // The spare sits exactly on channel `c`, so in a nominal bank this
        // rewrites the column's entries with the bits they already hold.
        let phase_lo = self.phase_ring(idx) * self.cols;
        let phases = &mut self.half_phase[phase_lo..phase_lo + self.cols];
        for (s, lambda) in phases.iter_mut().zip(self.grid.channels()) {
            *s = ring.half_phase_sin_ratio(lambda);
        }
        self.masked[idx] = false;
        self.mark_stale(idx);
        Ok(())
    }

    /// Mask the slot at `(r, c)` as dead: the ring is detuned off the bus
    /// and the receiver cancels its channel for this row (zero weight).
    pub fn mask_ring(&mut self, r: usize, c: usize) {
        self.masked[r * self.cols + c] = true;
        self.mark_stale(r * self.cols + c);
    }

    /// Pin the GST cell at `(r, c)` in a hard fault state (the cell's
    /// transfer snaps to the stuck phase).
    pub fn inject_ring_fault(&mut self, r: usize, c: usize, fault: GstFault) {
        self.rings[r * self.cols + c].inject_fault(fault);
        self.mark_stale(r * self.cols + c);
    }

    /// Age every GST cell by `years` of crystallinity drift and refresh
    /// the optics.
    #[deprecated(
        since = "0.6.0",
        note = "advance the bank's DegradationClock with `advance_years` / \
                `advance_hours` instead of aging cells directly"
    )]
    pub fn age(&mut self, years: f64) {
        self.advance_years(years);
    }

    /// Advance simulated deployment time by `years` and apply the active
    /// degradation law (deterministic crystallinity relaxation, or the
    /// statistical power-law drift when [`WeightBank::enable_stat`] has
    /// been called).
    ///
    /// The deterministic path receives `years` exactly as given — no
    /// hours round-trip — so legacy fault-plan arithmetic stays
    /// byte-identical.
    pub fn advance_years(&mut self, years: f64) {
        self.clock.advance(Hours::from_years(years));
        if self.stat.is_some() {
            self.refresh_drift_factors();
        } else {
            self.relax_cells(years);
        }
    }

    /// Advance simulated deployment time by `delta` hours (the
    /// statistical model's native scale) and apply the active
    /// degradation law.
    pub fn advance_hours(&mut self, delta: Hours) {
        self.clock.advance(delta);
        if self.stat.is_some() {
            self.refresh_drift_factors();
        } else {
            self.relax_cells(delta.years());
        }
    }

    /// The bank's deployment-time source.
    pub fn clock(&self) -> &DegradationClock {
        &self.clock
    }

    /// The deterministic structural-relaxation law over every cell (the
    /// legacy `age` body — reached only through the clock now).
    fn relax_cells(&mut self, years: f64) {
        for ring in &mut self.rings {
            ring.age(years);
        }
        for idx in 0..self.rings.len() {
            self.mark_stale(idx);
        }
    }

    /// Switch on the statistical device layer: seeded per-cell drift
    /// exponents (half-normal above the fleet floor ν̄), level-dependent
    /// programming noise on every subsequent successful write, per-probe
    /// read noise, and power-law decay of each slot's effective weight
    /// since its last write. Cells keep their programmed crystallinity —
    /// the statistical layer acts on the readout, so disabling it (or
    /// zeroing every σ and ν) recovers the deterministic bank exactly.
    pub fn enable_stat(&mut self, params: StatParams, bank_seed: u64) {
        let n = self.rows * self.cols;
        let now = self.clock.now();
        let nu = (0..n)
            .map(|i| params.nu_slope(seeded_gaussian(bank_seed, STREAM_PCM_NU, i as u64)))
            .collect();
        self.stat = Some(BankStat {
            params,
            bank_seed,
            nu,
            prog_offset: vec![0.0; n],
            prog_at: vec![now; n],
            factor: vec![1.0; n],
            gain: 1.0,
            ref_prog_at: now,
            prog_draws: 0,
            read_draws: 0,
        });
    }

    /// Whether the statistical device layer is active.
    pub fn stat_enabled(&self) -> bool {
        self.stat.is_some()
    }

    /// The statistical model's current global calibration gain (1.0 when
    /// the layer is off or uncalibrated).
    pub fn compensation_gain(&self) -> f64 {
        self.stat.as_ref().map_or(1.0, |s| s.gain)
    }

    /// Re-derive every slot's decay factor from the clock (after a time
    /// advance).
    fn refresh_drift_factors(&mut self) {
        let now = self.clock.now();
        let Some(stat) = self.stat.as_mut() else { return };
        for i in 0..stat.factor.len() {
            stat.factor[i] = stat.params.cell_decay_factor(now - stat.prog_at[i], stat.nu[i]);
        }
        if obs::enabled() {
            obs::add(obs::Counter::DriftUpdates, stat.factor.len() as u64);
        }
    }

    /// Statistical bookkeeping for one successful write at `idx`: draw
    /// the level-dependent programming error, restart the slot's drift
    /// (a rewrite re-amorphizes the mark), and refresh the reference
    /// column alongside.
    fn stat_on_write(&mut self, idx: usize, w: f64) {
        if self.stat.is_none() {
            return;
        }
        let level = self.lut.level_for(w);
        let levels = self.lut.levels();
        let now = self.clock.now();
        let Some(stat) = self.stat.as_mut() else { return };
        let sigma = stat.params.prog_sigma_weight(level, levels);
        let g = seeded_gaussian(stat.bank_seed, STREAM_PCM_PROG, stat.prog_draws);
        stat.prog_draws += 1;
        stat.prog_offset[idx] = sigma * g;
        stat.prog_at[idx] = now;
        stat.factor[idx] = 1.0;
        stat.ref_prog_at = now;
        if obs::enabled() {
            obs::add(obs::Counter::StatNoiseSamples, 1);
        }
    }

    /// One drift-calibration pass: read back the bank's reference column
    /// (one probe per row), infer the youngest cohort's decay from its
    /// characterized floor exponent, and set the global compensation
    /// gain to the reciprocal. The optical probe energy is counted by the
    /// obs counters and returned to the caller. A no-op returning zero when the statistical
    /// layer is off.
    pub fn calibrate_compensation(&mut self) -> EnergyPj {
        let now = self.clock.now();
        let rows = self.rows;
        let read_energy = self.params.read_energy;
        let Some(stat) = self.stat.as_mut() else { return EnergyPj::ZERO };
        let column = stat.params.reference_column(read_energy);
        stat.gain = column.compensation_gain_at(now - stat.ref_prog_at);
        let spent = column.readout_energy(rows);
        if obs::enabled() {
            obs::add(obs::Counter::CompensationPasses, 1);
            obs::add_pj(obs::Counter::CompensationFj, spent.value());
        }
        spent
    }

    /// Open the drift-compensation loop: reset the readout gain to unity.
    ///
    /// A reprogramming campaign (in-situ fine-tuning, a weight refresh)
    /// rewrites cells sample by sample, so halfway through, freshly
    /// written cells would be read through a gain calibrated for month-old
    /// drift — amplified forward *and* backward products that destabilize
    /// the gradient steps. The controller therefore disengages the gain
    /// for the duration of the campaign and runs
    /// [`WeightBank::calibrate_compensation`] once the writes are done.
    /// A no-op when the statistical layer is off.
    pub fn disengage_compensation(&mut self) {
        if let Some(stat) = self.stat.as_mut() {
            stat.gain = 1.0;
        }
    }

    /// Whether the slot at `(r, c)` has been masked out.
    pub fn is_masked(&self, r: usize, c: usize) -> bool {
        self.masked[r * self.cols + c]
    }

    /// Slots currently masked out.
    pub fn masked_count(&self) -> usize {
        self.masked.iter().filter(|&&m| m).count()
    }

    /// Spare rings still available in row `r`.
    pub fn spares_remaining(&self, r: usize) -> usize {
        self.spares[r]
    }

    /// Override the per-row spare-ring budget (applies to rows that have
    /// not yet consumed spares beyond the new budget).
    pub fn set_spares_per_row(&mut self, spares: usize) {
        for s in &mut self.spares {
            *s = spares;
        }
    }

    /// Faulty or worn cells replaced by spares so far.
    pub fn remapped_count(&self) -> u64 {
        self.remapped
    }

    /// Writes rejected by stuck cells or failed by verify, summed over
    /// every ring currently in the bank.
    pub fn write_failures(&self) -> u64 {
        self.rings.iter().map(PcmMrr::write_failures).sum()
    }

    /// Recompute the linear rail response of row `r` from the per-ring
    /// cache (pure multiply-adds; the physics lives in
    /// [`Self::refresh_ring_cache`]).
    fn recompute_row_response(&mut self, r: usize) {
        for j in 0..self.cols {
            // A masked ring passes its own channel straight to the
            // through rail, which a balanced detector would read as a
            // hard negative weight. The receiver therefore cancels the
            // dead channel electronically (per-row calibration offset):
            // the column contributes exactly zero to this row.
            if self.masked[r * self.cols + j] {
                self.drop_coeff[r * self.cols + j] = 0.0;
                self.through_coeff[r * self.cols + j] = 0.0;
                continue;
            }
            let mut p = 1.0; // unit input power on channel j
            let mut dropped = 0.0;
            for k in 0..self.cols {
                let (drop, through) = self.transfer_cache[(r * self.cols + k) * self.cols + j];
                dropped += p * drop;
                p *= through;
            }
            self.drop_coeff[r * self.cols + j] = dropped;
            self.through_coeff[r * self.cols + j] = p;
        }
    }

    /// Optical matrix-vector product: unit-full-scale channel powers
    /// `x[j] ∈ [0, 1]` in, per-row **normalized dot products** out (the
    /// balanced rail difference divided by the LUT scale).
    ///
    /// # Panics
    /// Panics on width mismatch or out-of-range inputs.
    pub fn mvm(&mut self, x: &[f64]) -> Vec<f64> {
        self.settle();
        assert_eq!(x.len(), self.cols, "input width mismatch");
        for (j, &v) in x.iter().enumerate() {
            assert!((0.0..=1.0).contains(&v), "channel {j} power {v} outside [0, 1]");
        }
        let scale = self.lut.scale();
        (0..self.rows)
            .map(|r| {
                let base = r * self.cols;
                let mut acc = 0.0;
                for j in 0..self.cols {
                    acc += (self.drop_coeff[base + j] - self.through_coeff[base + j]) * x[j];
                }
                acc / scale
            })
            .collect()
    }

    /// Statistical matrix-vector product: the deterministic optics of
    /// [`WeightBank::mvm`] with the device layer applied per slot — the
    /// post-verify programming error rides on the coefficient, both decay
    /// by the slot's drift factor, each row readout picks up one read-noise
    /// draw, and the whole row is scaled by the calibration gain:
    ///
    /// ```text
    /// y_r = gain · ( Σ_j (D_rj − T_rj + δ_rj·scale) · f_rj · x_j / scale  +  σ_read·g )
    /// ```
    ///
    /// With every σ at zero and every ν at zero this reduces bitwise to
    /// [`WeightBank::mvm`] (the noise-off passthrough the proptests pin);
    /// with the layer off it *is* `mvm`.
    pub fn mvm_stat(&mut self, x: &[f64]) -> Vec<f64> {
        self.settle();
        let Some(mut stat) = self.stat.take() else {
            return self.mvm(x);
        };
        assert_eq!(x.len(), self.cols, "input width mismatch");
        for (j, &v) in x.iter().enumerate() {
            assert!((0.0..=1.0).contains(&v), "channel {j} power {v} outside [0, 1]");
        }
        let scale = self.lut.scale();
        let mut y = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let base = r * self.cols;
            let mut acc = 0.0;
            for j in 0..self.cols {
                let idx = base + j;
                if self.masked[idx] {
                    continue; // dead slot: channel cancelled, no offset either
                }
                let coeff = (self.drop_coeff[idx] - self.through_coeff[idx])
                    + stat.prog_offset[idx] * scale;
                acc += coeff * stat.factor[idx] * x[j];
            }
            let noise = stat.params.read_sigma_weight
                * seeded_gaussian(stat.bank_seed, STREAM_PCM_READ, stat.read_draws);
            stat.read_draws += 1;
            y.push((acc / scale + noise) * stat.gain);
        }
        if obs::enabled() {
            obs::add(obs::Counter::StatNoiseSamples, self.rows as u64);
        }
        self.stat = Some(stat);
        y
    }

    /// Per-ring balanced readout coefficient for the outer-product mode:
    /// the wavelength-demultiplexed drop−through response of ring
    /// `(r, c)` on its own channel, including the attenuation of the other
    /// rings on the row. Approximately `scale · w(r, c)`.
    pub fn ring_readout(&mut self, r: usize, c: usize) -> f64 {
        self.settle_row(r);
        if self.masked[r * self.cols + c] {
            return 0.0; // dead slot: channel cancelled at the receiver
        }
        // The per-ring cache already encodes masking (masked neighbours
        // are transparent), so read the row's attenuation from it.
        let at = |k: usize| self.transfer_cache[(r * self.cols + k) * self.cols + c];
        let mut upstream = 1.0;
        for k in 0..c {
            upstream *= at(k).1;
        }
        let (own_drop, own_through) = at(c);
        let mut downstream = 1.0;
        for k in (c + 1)..self.cols {
            downstream *= at(k).1;
        }
        (upstream * own_drop - upstream * own_through * downstream) / self.lut.scale()
    }

    /// Statistical counterpart of [`WeightBank::ring_readout`]: the
    /// deterministic coefficient with the slot's programming error and
    /// drift factor applied, one read-noise draw, and the calibration
    /// gain — so in-situ training sees the same degraded device the
    /// forward pass does. Falls through to the deterministic readout
    /// when the layer is off; masked slots stay at zero without a draw.
    pub fn ring_readout_stat(&mut self, r: usize, c: usize) -> f64 {
        let det = self.ring_readout(r, c);
        let Some(mut stat) = self.stat.take() else {
            return det;
        };
        let idx = r * self.cols + c;
        let out = if self.masked[idx] {
            det
        } else {
            let noise = stat.params.read_sigma_weight
                * seeded_gaussian(stat.bank_seed, STREAM_PCM_READ, stat.read_draws);
            stat.read_draws += 1;
            if obs::enabled() {
                obs::add(obs::Counter::StatNoiseSamples, 1);
            }
            ((det + stat.prog_offset[idx]) * stat.factor[idx] + noise) * stat.gain
        };
        self.stat = Some(stat);
        out
    }

    /// Number of programming events (parallel write cycles).
    pub fn program_events(&self) -> u64 {
        self.program_events
    }

    /// The most-written ring's write count (wear-leveling telemetry: the
    /// invariant tests assert this never exceeds the endurance rating).
    pub fn max_ring_writes(&self) -> u64 {
        self.rings.iter().map(PcmMrr::write_count).max().unwrap_or(0)
    }
}

/// `sin(φ/2)` of each of `rings` on every channel of `grid`,
/// `[ring][channel]`.
fn half_phase_table(rings: &[PcmMrr], grid: &WdmGrid) -> Vec<f64> {
    rings
        .iter()
        .flat_map(|m| grid.channels().map(move |lambda| m.ring().half_phase_sin_ratio(lambda)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LSB: f64 = 2.0 / 254.0;

    fn bank4() -> WeightBank {
        WeightBank::new(4, 4, GstParameters::default())
    }

    fn program(bank: &mut WeightBank, w: &[[f64; 4]; 4]) -> EnergyPj {
        let rows: Vec<&[f64]> = w.iter().map(|r| r.as_slice()).collect();
        bank.program(&rows).0
    }

    #[test]
    fn identity_bank_passes_inputs() {
        let mut b = bank4();
        let mut w = [[0.0; 4]; 4];
        for (i, row) in w.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        program(&mut b, &w);
        let y = b.mvm(&[0.8, 0.1, 0.5, 0.0]);
        for (i, &expected) in [0.8, 0.1, 0.5, 0.0].iter().enumerate() {
            assert!(
                (y[i] - expected).abs() < 0.03,
                "row {i}: got {} expected {expected}",
                y[i]
            );
        }
    }

    #[test]
    fn mvm_matches_programmed_matrix() {
        let mut b = bank4();
        let w = [
            [0.5, -0.25, 0.0, 1.0],
            [-1.0, 0.75, 0.3, -0.1],
            [0.0, 0.0, 0.0, 0.0],
            [0.9, 0.9, -0.9, -0.9],
        ];
        program(&mut b, &w);
        let x = [1.0, 0.5, 0.25, 0.75];
        let y = b.mvm(&x);
        for r in 0..4 {
            let expected: f64 = (0..4).map(|c| w[r][c] * x[c]).sum();
            assert!(
                (y[r] - expected).abs() < 0.05,
                "row {r}: photonic {} vs math {expected}",
                y[r]
            );
        }
    }

    #[test]
    fn mvm_is_linear_in_input() {
        let mut b = bank4();
        program(&mut b, &[[0.3; 4]; 4]);
        let y1 = b.mvm(&[0.2, 0.2, 0.2, 0.2]);
        let y2 = b.mvm(&[0.4, 0.4, 0.4, 0.4]);
        for r in 0..4 {
            assert!((y2[r] - 2.0 * y1[r]).abs() < 1e-9, "power-domain optics is linear");
        }
    }

    #[test]
    fn dark_input_gives_zero() {
        let mut b = bank4();
        program(&mut b, &[[0.7; 4]; 4]);
        let y = b.mvm(&[0.0; 4]);
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn programming_costs_energy_once() {
        let mut b = bank4();
        let w = [[0.5; 4]; 4];
        assert!(program(&mut b, &w).value() > 0.0);
        let again = program(&mut b, &w);
        assert_eq!(again, EnergyPj::ZERO, "identical reprogram is free (non-volatile)");
        assert_eq!(b.program_events(), 1);
    }

    #[test]
    fn weight_readback_is_quantized_program() {
        let mut b = bank4();
        program(&mut b, &[[0.123; 4]; 4]);
        for r in 0..4 {
            for c in 0..4 {
                assert!((b.weight(r, c) - 0.123).abs() <= 0.5 * LSB + 1e-6);
            }
        }
    }

    #[test]
    fn ring_readout_approximates_weight() {
        let mut b = bank4();
        let w = [
            [0.8, -0.5, 0.2, -1.0],
            [0.1, 0.9, -0.3, 0.4],
            [-0.7, 0.0, 1.0, -0.2],
            [0.6, -0.6, 0.5, -0.5],
        ];
        program(&mut b, &w);
        for r in 0..4 {
            for c in 0..4 {
                let readout = b.ring_readout(r, c);
                assert!(
                    (readout - w[r][c]).abs() < 0.06,
                    "ring ({r},{c}): readout {readout} vs weight {}",
                    w[r][c]
                );
            }
        }
    }

    #[test]
    fn crosstalk_error_stays_below_quantization_scale() {
        // A worst-case pattern: all neighbours at full weight, centre at 0.
        let mut b = WeightBank::new(1, 16, GstParameters::default());
        let mut w = vec![1.0; 16];
        w[8] = 0.0;
        b.program(&[&w]);
        // Drive only channel 8; the row output should be ~0 despite the
        // 15 loud neighbours.
        let mut x = vec![0.0; 16];
        x[8] = 1.0;
        let y = b.mvm(&x);
        assert!(y[0].abs() < 0.05, "crosstalk-induced output {}", y[0]);
    }

    #[test]
    #[should_panic]
    fn mvm_rejects_out_of_range_input() {
        let mut b = bank4();
        let _ = b.mvm(&[1.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn program_rejects_wrong_shape() {
        let mut b = bank4();
        let row = [0.0f64; 3];
        let rows: Vec<&[f64]> = vec![&row; 4];
        b.program(&rows);
    }

    // ---- fault-aware programming and graceful degradation ----

    use rand::SeedableRng;
    use trident_pcm::PcmError;

    fn verified_program(b: &mut WeightBank, w: &[f64], seed: u64) -> ProgramReport {
        let policy = WriteVerifyPolicy::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.try_program_verified(w, &policy, &mut rng).expect("shape is valid")
    }

    #[test]
    fn verified_program_matches_ideal_writes() {
        let mut ideal = bank4();
        let mut verified = bank4();
        let w = [
            [0.5, -0.25, 0.0, 1.0],
            [-1.0, 0.75, 0.3, -0.1],
            [0.2, -0.9, 0.6, 0.0],
            [0.9, 0.9, -0.9, -0.9],
        ];
        program(&mut ideal, &w);
        let flat: Vec<f64> = w.iter().flatten().copied().collect();
        let report = verified_program(&mut verified, &flat, 3);
        // Every cell except those already at their target level (a fresh
        // cell is amorphous = level 0, i.e. w = +1) costs write pulses.
        assert!(report.cells_written >= 15, "wrote {}", report.cells_written);
        assert!(report.failures.is_empty());
        assert!(report.pulses >= report.cells_written as u64);
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    (ideal.weight(r, c) - verified.weight(r, c)).abs() < 1e-9,
                    "({r},{c}): verified landed on a different level"
                );
            }
        }
        let y_ideal = ideal.mvm(&[1.0, 0.5, 0.25, 0.75]);
        let y_verified = verified.mvm(&[1.0, 0.5, 0.25, 0.75]);
        for r in 0..4 {
            assert!(
                (y_ideal[r] - y_verified[r]).abs() < 0.01,
                "row {r}: {} vs {}",
                y_ideal[r],
                y_verified[r]
            );
        }
    }

    #[test]
    fn verified_program_rejects_wrong_shape_with_typed_error() {
        let mut b = bank4();
        let policy = WriteVerifyPolicy::default();
        let mut rng = StdRng::seed_from_u64(0);
        let err = b.try_program_verified(&[0.0; 7], &policy, &mut rng).unwrap_err();
        assert!(matches!(err, ArchError::ShapeMismatch { expected: 16, got: 7 }));
    }

    #[test]
    fn stuck_cell_remaps_onto_a_spare() {
        let mut b = bank4();
        b.inject_ring_fault(1, 2, GstFault::StuckAmorphous);
        let w: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0 - 0.5).collect();
        let report = verified_program(&mut b, &w, 7);
        assert_eq!(report.remapped, 1, "the stuck cell must move to a spare");
        assert_eq!(report.masked, 0);
        assert_eq!(b.spares_remaining(1), DEFAULT_SPARES_PER_ROW - 1);
        assert!(!b.is_masked(1, 2));
        // The remapped slot holds its weight like any healthy cell.
        assert!((b.weight(1, 2) - w[6]).abs() < 0.01, "got {}", b.weight(1, 2));
    }

    #[test]
    fn exhausted_spares_mask_the_slot() {
        let mut b = bank4();
        b.set_spares_per_row(0);
        b.inject_ring_fault(0, 1, GstFault::StuckCrystalline);
        let w = vec![0.5; 16];
        let report = verified_program(&mut b, &w, 5);
        assert_eq!(report.remapped, 0);
        assert_eq!(report.masked, 1);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(report.failures[0], (0, 1, PcmError::StuckCell { .. })));
        assert!(b.is_masked(0, 1));
        assert_eq!(b.weight(0, 1), 0.0);
        assert_eq!(b.ring_readout(0, 1), 0.0);
        // The masked column contributes nothing to its row...
        let mut x = vec![0.0; 4];
        x[1] = 1.0;
        let y = b.mvm(&x);
        assert!(y[0].abs() < 1e-9, "masked column leaked {} into row 0", y[0]);
        // ...while healthy rows still see the channel.
        assert!((y[1] - 0.5).abs() < 0.05, "row 1 should read 0.5, got {}", y[1]);
        // Reprogramming skips the dead slot without failing.
        let report = verified_program(&mut b, &w, 6);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn wear_leveling_retires_cells_before_the_endurance_cliff() {
        let params =
            GstParameters { endurance_cycles: 60, ..GstParameters::default() };
        let mut b = WeightBank::new(2, 2, params);
        // Alternate between two matrices so every write really pulses.
        let wa = vec![0.5, -0.5, 0.25, -0.25];
        let wb = vec![-0.5, 0.5, -0.25, 0.25];
        for i in 0..30 {
            let w = if i % 2 == 0 { &wa } else { &wb };
            verified_program(&mut b, w, 100 + i as u64);
        }
        // The hard invariant: no cell — original or spare — is ever
        // programmed past its rated endurance; worn cells retire to
        // spares first and masking absorbs the rest.
        assert!(
            b.max_ring_writes() <= 60,
            "wear-leveling let a cell exceed its endurance budget: {}",
            b.max_ring_writes()
        );
        assert!(b.remapped_count() > 0, "worn cells should have been remapped");
    }

    // ---- deferred optics: incremental caches vs a rebuild from scratch ----

    use proptest::prelude::*;
    use trident_pcm::stat::StatParams;

    /// A deterministic weight pattern in `[-1, 1]` keyed by `key`.
    fn pattern(n: usize, key: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.7311 + key * 13.0).sin()).collect()
    }

    /// Every read of `bank`: each ring readout (settling one row at a
    /// time), the deterministic MVM and the statistical one.
    /// `readouts_first` picks whether rows settle one by one or all at
    /// once on the first read.
    fn reads(bank: &mut WeightBank, readouts_first: bool) -> Vec<f64> {
        let x: Vec<f64> = (0..bank.cols()).map(|j| [0.9, 0.3, 1.0, 0.55, 0.0][j % 5]).collect();
        let mut readouts = Vec::new();
        let mut mvms = Vec::new();
        if !readouts_first {
            mvms.extend(bank.mvm(&x));
        }
        for r in 0..bank.rows() {
            for c in 0..bank.cols() {
                readouts.push(bank.ring_readout(r, c));
            }
        }
        mvms.extend(bank.mvm(&x));
        mvms.extend(bank.mvm_stat(&x));
        readouts.extend(mvms);
        readouts
    }

    /// The reads of a copy of `bank` with its caches as they are equal,
    /// bitwise, those of a copy with every cache rebuilt from scratch.
    fn assert_matches_rebuild(bank: &WeightBank, readouts_first: bool) {
        let mut fresh = bank.clone();
        fresh.mark_all_stale();
        let got = reads(&mut bank.clone(), readouts_first);
        let want = reads(&mut fresh, readouts_first);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "read {i}: incremental {g} vs rebuilt {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// No sequence of writes, masks, remaps, faults, aging or reads
        /// leaves a stale cache behind: after every operation the bank's
        /// reads are bitwise those of the same bank with every cache
        /// rebuilt from the rings.
        #[test]
        fn deferred_optics_match_a_full_rebuild(
            shape in (2usize..=5, 2usize..=5),
            varied in 0usize..2,
            stat_at_start in 0usize..2,
            ops in proptest::collection::vec(
                (0usize..10, 0usize..8, 0usize..8, -1.0f64..=1.0),
                1..20,
            ),
        ) {
            let (rows, cols) = shape;
            let params = GstParameters::default();
            let lut = WeightBank::nominal_lut(cols, &params);
            let sigma = if varied == 1 { 0.02 } else { 0.0 };
            let mut bank = WeightBank::new_varied(rows, cols, params, sigma, 11, lut);
            if stat_at_start == 1 {
                bank.enable_stat(StatParams::default(), 5);
            }
            assert_matches_rebuild(&bank, false);
            for (step, &(op, a, b, v)) in ops.iter().enumerate() {
                let (r, c) = (a % rows, b % cols);
                match op {
                    0 => {
                        bank.program_flat(&pattern(rows * cols, v));
                    }
                    1 => {
                        let policy = WriteVerifyPolicy::default();
                        let mut rng = StdRng::seed_from_u64(step as u64);
                        bank.try_program_verified(&pattern(rows * cols, v), &policy, &mut rng)
                            .expect("shape is valid");
                    }
                    2 => {
                        // Outer-product mode: y on row 0, zeros elsewhere.
                        let mut tile = vec![0.0; rows * cols];
                        tile[..cols].copy_from_slice(&pattern(cols, v));
                        bank.program_flat(&tile);
                    }
                    3 => bank.mask_ring(r, c),
                    4 => {
                        let _ = bank.remap_ring(r, c);
                    }
                    5 => {
                        let fault = if v < 0.0 {
                            GstFault::StuckAmorphous
                        } else {
                            GstFault::StuckCrystalline
                        };
                        bank.inject_ring_fault(r, c, fault);
                    }
                    6 => bank.advance_years(v.abs() * 2.0),
                    7 => {
                        if !bank.stat_enabled() {
                            bank.enable_stat(StatParams::default(), 5);
                        }
                    }
                    // Partial settles carried into later operations.
                    8 => {
                        bank.ring_readout(r, c);
                    }
                    _ => {
                        bank.mvm(&vec![0.5; cols]);
                    }
                }
                assert_matches_rebuild(&bank, step % 2 == 0);
            }
        }
    }
}
