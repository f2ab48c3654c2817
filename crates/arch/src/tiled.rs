//! One weight matrix on a grid of 16×16 PCM-MRR banks — the single place
//! the photonic engines decide how a matrix maps onto hardware.
//!
//! An `out × in` matrix is cut into zero-padded 16×16 tiles, one
//! [`ProcessingElement`] per tile, row-major: PE `rt·col_tiles + ct`
//! holds rows `[16·rt, 16·rt + 16)` and columns `[16·ct, 16·ct + 16)`.
//! The same PEs hold `Wᵀ` during the gradient-vector pass, again
//! row-major over the transposed grid: `Wᵀ` tile `(r, c)` sits on PE
//! `r·row_tiles + c`. Square tiles give both grids the same PE count.
//!
//! [`TiledMatrix`] runs the three Table II modes over its grid (MVM, `Wᵀ`
//! gradient vector, outer product) plus the row-band LDSU latch and the
//! TIA-gain Hadamard. Partial sums across column tiles accumulate
//! electronically, column tiles in ascending order. The matrix values
//! themselves stay with each engine, which passes them in to program.

use crate::bank::WeightBank;
use crate::error::ArchError;
use crate::pe::ProcessingElement;
use rand::rngs::StdRng;
use std::sync::Arc;
use trident_pcm::gst::{GstParameters, WriteVerifyPolicy};
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Nanoseconds};

/// Rows and columns of every PCM-MRR weight bank.
pub(crate) const TILE: usize = 16;

/// Electronic partial-sum accumulate, per output row and column tile
/// after the first.
const PSUM_PJ: f64 = 0.1;

/// Floor of the AGC and outer-product normalisation scales.
const SCALE_FLOOR: f64 = 1e-12;

/// How one PE of a grid is built: receiver noise, fabrication variation
/// and the statistical device layer with its bank identity. The default
/// is an ideal, unseeded PE.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TileSeed {
    pub(crate) noise: Option<u64>,
    pub(crate) resonance_sigma_nm: f64,
    pub(crate) variation_seed: u64,
    pub(crate) stat: Option<(StatParams, u64)>,
}

/// Electronic AGC: how an unsigned MVM's inputs are normalised onto the
/// lasers before detection and restored after.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Agc {
    /// Scale by `max |x|` and clamp each normalised entry at 0.
    AbsClamped,
    /// Scale by `max x` without clamping (inputs already non-negative).
    Max,
}

/// How a grid's PEs are driven for one MVM.
#[derive(Debug, Clone, Copy)]
enum Optics {
    /// Dual-rail signed MVM, inputs at their own magnitude.
    Signed,
    /// Single-pass unsigned MVM of AGC-normalised inputs.
    Unsigned { agc: Agc, scale: f64 },
}

/// An `out × in` matrix tiled over a row-major grid of 16×16 PEs.
#[derive(Debug)]
pub(crate) struct TiledMatrix {
    out: usize,
    inp: usize,
    row_tiles: usize,
    col_tiles: usize,
    pes: Vec<ProcessingElement>,
    /// Per PE: its bank holds exactly its tile of the matrix last passed
    /// to [`TiledMatrix::program_row`] / [`TiledMatrix::program_col`],
    /// so the next row or column write may skip every other cell.
    synced: Vec<bool>,
}

/// Bounds `[16·t, min(16·t + 16, len))` of tile band `t`.
fn band(t: usize, len: usize) -> (usize, usize) {
    let lo = t * TILE;
    (lo, (lo + TILE).min(len))
}

impl TiledMatrix {
    /// Allocate the grid for an `out × in` matrix, building PE `t` (in
    /// row-major tile order) from `seed(t)`. The banks start unprogrammed
    /// and share one weight LUT.
    pub(crate) fn new(out: usize, inp: usize, mut seed: impl FnMut(usize) -> TileSeed) -> Self {
        let (row_tiles, col_tiles) = (out.div_ceil(TILE), inp.div_ceil(TILE));
        let lut = WeightBank::nominal_lut(TILE, &GstParameters::default());
        let pes = (0..row_tiles * col_tiles)
            .map(|t| {
                let s = seed(t);
                let mut pe = ProcessingElement::with_variation(
                    TILE,
                    TILE,
                    s.noise,
                    s.resonance_sigma_nm,
                    s.variation_seed,
                    Arc::clone(&lut),
                );
                if let Some((params, identity)) = s.stat {
                    pe.bank_mut().enable_stat(params, identity);
                }
                pe
            })
            .collect();
        let synced = vec![false; row_tiles * col_tiles];
        Self { out, inp, row_tiles, col_tiles, pes, synced }
    }

    /// Matrix rows.
    pub(crate) fn out_dim(&self) -> usize {
        self.out
    }

    /// Matrix columns.
    pub(crate) fn in_dim(&self) -> usize {
        self.inp
    }

    /// Mutable PEs, row-major by tile. The caller may change any bank,
    /// so the next row or column write reprograms whole tiles.
    pub(crate) fn pes_mut(&mut self) -> &mut [ProcessingElement] {
        self.synced.fill(false);
        &mut self.pes
    }

    /// `(row_tiles, col_tiles, rows, cols)` of `W`, or of `Wᵀ` on the
    /// same PEs.
    fn view(&self, transposed: bool) -> (usize, usize, usize, usize) {
        if transposed {
            (self.col_tiles, self.row_tiles, self.inp, self.out)
        } else {
            (self.row_tiles, self.col_tiles, self.out, self.inp)
        }
    }

    /// Tile `(rt, ct)` of `w` (row-major `out × in`), or of `wᵀ`,
    /// zero-padded at the edges and staged on the stack.
    fn tile(&self, w: &[f64], rt: usize, ct: usize, transposed: bool) -> [f64; TILE * TILE] {
        let (_, _, rows, cols) = self.view(transposed);
        let (r_lo, r_hi) = band(rt, rows);
        let (c_lo, c_hi) = band(ct, cols);
        let mut tile = [0.0; TILE * TILE];
        for i in r_lo..r_hi {
            for j in c_lo..c_hi {
                let v = if transposed { w[j * self.inp + i] } else { w[i * self.inp + j] };
                tile[(i - r_lo) * TILE + (j - c_lo)] = v;
            }
        }
        tile
    }

    /// Program `w` with open-loop pulses, tile by tile in row-major order.
    pub(crate) fn program(&mut self, w: &[f64]) {
        self.program_view(w, false);
    }

    /// Program `wᵀ` (the gradient-vector orientation) onto the same PEs.
    pub(crate) fn program_transposed(&mut self, w: &[f64]) {
        self.program_view(w, true);
    }

    fn program_view(&mut self, w: &[f64], transposed: bool) {
        let (_, cols, _, _) = self.view(transposed);
        self.synced.fill(false);
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t / cols, t % cols, transposed);
            self.pes[t].program(&tile);
        }
    }

    /// Program `w` through every bank's closed-loop program-and-verify
    /// path, tiles in row-major order drawing pulse jitter from `rng`.
    /// Per-cell failures are absorbed by the banks' remap/mask
    /// degradation, so only internal-shape bugs error here.
    pub(crate) fn program_verified(
        &mut self,
        w: &[f64],
        policy: &WriteVerifyPolicy,
        rng: &mut StdRng,
    ) -> Result<(), ArchError> {
        self.synced.fill(false);
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t / self.col_tiles, t % self.col_tiles, false);
            self.pes[t].program_verified(&tile, policy, rng)?;
        }
        Ok(())
    }

    /// Program row `r` of `w`, which must differ from the matrix last
    /// programmed through [`TiledMatrix::program_row`] /
    /// [`TiledMatrix::program_col`] in that row only. Returns the write
    /// energy spent (zero when no cell changed).
    ///
    /// Only the row's cells are written, except on a PE's first write
    /// (or after its bank was changed some other way, or a write in it
    /// was rejected): then the PE's whole tile is programmed, padding
    /// and not-yet-used rows included, since those cells sit on the WDM
    /// bus too. Unchanged cells are write no-ops, so this spends exactly
    /// what reprogramming every tile the row crosses would.
    pub(crate) fn program_row(&mut self, w: &[f64], r: usize) -> Result<EnergyPj, ArchError> {
        let (rt, i) = (r / TILE, r % TILE);
        let row = &w[r * self.inp..(r + 1) * self.inp];
        let mut spent = EnergyPj::ZERO;
        for ct in 0..self.col_tiles {
            let (lo, hi) = band(ct, self.inp);
            let cells = row[lo..hi].iter().enumerate().map(|(j, &v)| (i * TILE + j, v));
            spent += self.program_cells(w, rt, ct, cells)?;
        }
        Ok(spent)
    }

    /// Program column `c` of `w`: the column counterpart of
    /// [`TiledMatrix::program_row`], under the same contract.
    pub(crate) fn program_col(&mut self, w: &[f64], c: usize) -> Result<EnergyPj, ArchError> {
        let (ct, j) = (c / TILE, c % TILE);
        let inp = self.inp;
        let mut spent = EnergyPj::ZERO;
        for rt in 0..self.row_tiles {
            let (lo, hi) = band(rt, self.out);
            let cells = (lo..hi).map(|r| ((r - lo) * TILE + j, w[r * inp + c]));
            spent += self.program_cells(w, rt, ct, cells)?;
        }
        Ok(spent)
    }

    /// Write `cells` of tile `(rt, ct)`, or the whole tile of `w` until
    /// its PE is synced, and record whether it now is.
    fn program_cells(
        &mut self,
        w: &[f64],
        rt: usize,
        ct: usize,
        cells: impl Iterator<Item = (usize, f64)>,
    ) -> Result<EnergyPj, ArchError> {
        let t = rt * self.col_tiles + ct;
        let synced = std::mem::replace(&mut self.synced[t], false);
        let pass = if synced {
            self.pes[t].try_program_slots(cells)?
        } else {
            let tile = self.tile(w, rt, ct, false);
            self.pes[t].try_program_slots(tile.iter().copied().enumerate())?
        };
        self.synced[t] = !pass.rejected;
        Ok(pass.energy)
    }

    /// Unsigned MVM `h = W·x` with electronic AGC: `x` is normalised by
    /// `agc` onto the lasers and the scale restored on every partial.
    /// `psum` (when given) is charged [`PSUM_PJ`] per accumulated
    /// partial. `h` is overwritten with `out` entries.
    pub(crate) fn mvm_agc(
        &mut self,
        x: &[f64],
        agc: Agc,
        h: &mut Vec<f64>,
        psum: Option<&mut EnergyLedger>,
    ) {
        let scale = match agc {
            Agc::AbsClamped => x.iter().fold(0.0f64, |m, &v| m.max(v.abs())),
            Agc::Max => x.iter().fold(0.0f64, |m, &v| m.max(v)),
        }
        .max(SCALE_FLOOR);
        self.stream(false, x, h, Optics::Unsigned { agc, scale }, psum);
    }

    /// Signed MVM `y = W·x`, optionally billing partial sums to `psum`.
    pub(crate) fn mvm_signed(
        &mut self,
        x: &[f64],
        y: &mut Vec<f64>,
        psum: Option<&mut EnergyLedger>,
    ) {
        self.stream(false, x, y, Optics::Signed, psum);
    }

    /// Signed MVM `v = Wᵀ·x` on banks currently holding `Wᵀ` (after
    /// [`TiledMatrix::program_transposed`]). `v` gets `in` entries.
    pub(crate) fn mvm_signed_transposed(
        &mut self,
        x: &[f64],
        v: &mut Vec<f64>,
        psum: Option<&mut EnergyLedger>,
    ) {
        self.stream(true, x, v, Optics::Signed, psum);
    }

    /// Stream `x` column tile by column tile through the grid (or its
    /// transposed view) and accumulate every row tile's partials into
    /// `y`, column tiles in ascending order.
    fn stream(
        &mut self,
        transposed: bool,
        x: &[f64],
        y: &mut Vec<f64>,
        optics: Optics,
        mut psum: Option<&mut EnergyLedger>,
    ) {
        let (row_tiles, col_tiles, rows, cols) = self.view(transposed);
        y.clear();
        y.resize(rows, 0.0);
        for ct in 0..col_tiles {
            let (lo, hi) = band(ct, cols);
            let mut slice = [0.0; TILE];
            for (s, &v) in slice.iter_mut().zip(&x[lo..hi]) {
                *s = match optics {
                    Optics::Signed => v,
                    Optics::Unsigned { agc: Agc::AbsClamped, scale } => (v / scale).max(0.0),
                    Optics::Unsigned { agc: Agc::Max, scale } => v / scale,
                };
            }
            for rt in 0..row_tiles {
                let pe = &mut self.pes[rt * col_tiles + ct];
                let mut partial = [0.0; TILE];
                let gain = match optics {
                    Optics::Signed => {
                        pe.mvm_signed_into(&slice, &mut partial);
                        1.0
                    }
                    Optics::Unsigned { scale, .. } => {
                        pe.mvm_unsigned_into(&slice, &mut partial);
                        scale
                    }
                };
                let (r_lo, r_hi) = band(rt, rows);
                for (acc, &p) in y[r_lo..r_hi].iter_mut().zip(&partial) {
                    *acc += p * gain;
                    if ct > 0 {
                        if let Some(ledger) = psum.as_deref_mut() {
                            ledger.charge("psum accumulate", EnergyPj(PSUM_PJ));
                        }
                    }
                }
            }
        }
    }

    /// Table II outer-product mode: `δW = δh ⊗ y`, tile by tile, returned
    /// row-major `out × in`. `y` enters the banks as weights, normalised
    /// by `max |y|` into `[-1, 1]`, on row 0 of a zero tile.
    pub(crate) fn outer_product(&mut self, dh: &[f64], y: &[f64]) -> Vec<f64> {
        self.synced.fill(false);
        let y_scale = y.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(SCALE_FLOOR);
        let inp = self.inp;
        let mut grad = vec![0.0; self.out * inp];
        for rt in 0..self.row_tiles {
            let (dh_lo, dh_hi) = band(rt, self.out);
            for ct in 0..self.col_tiles {
                let (y_lo, y_hi) = band(ct, inp);
                let mut tile = [0.0; TILE * TILE];
                for (dst, &v) in tile.iter_mut().zip(&y[y_lo..y_hi]) {
                    *dst = v / y_scale;
                }
                self.pes[rt * self.col_tiles + ct].outer_product(
                    &dh[dh_lo..dh_hi],
                    &tile,
                    y_hi - y_lo,
                    |i, j, p| grad[(dh_lo + i) * inp + y_lo + j] = p * y_scale,
                );
            }
        }
        grad
    }

    /// Latch row band `rt`'s LDSUs on its logits `h` (≤ 16 entries) and
    /// fire its GST activation cells, on the band's first PE, writing
    /// `f(h)` into `out`.
    pub(crate) fn activate_band(&mut self, rt: usize, h: &[f64], out: &mut [f64]) {
        self.pes[rt * self.col_tiles].latch_and_activate_into(h, out);
    }

    /// Latch-and-activate every row band: `out[i] = f(h[i])`.
    pub(crate) fn activate(&mut self, h: &[f64], out: &mut [f64]) {
        for rt in 0..self.row_tiles {
            let (lo, hi) = band(rt, self.out);
            self.activate_band(rt, &h[lo..hi], &mut out[lo..hi]);
        }
    }

    /// Multiply a per-row vector by the `f'(h)` latched in each row
    /// band's LDSUs (the TIA-gain Hadamard of Eq. 3), restoring unity
    /// gains afterwards.
    pub(crate) fn hadamard(&mut self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.out, "vector width mismatch");
        let mut result = vec![0.0; self.out];
        for rt in 0..self.row_tiles {
            let (lo, hi) = band(rt, self.out);
            let pe = &mut self.pes[rt * self.col_tiles];
            pe.set_backward_gains();
            let gained = pe.apply_tia_gains(&v[lo..hi]);
            result[lo..hi].copy_from_slice(&gained);
            pe.set_forward_gains();
        }
        result
    }
}

/// Every PE of `grids`, in order.
pub(crate) fn pes<'a>(
    grids: impl IntoIterator<Item = &'a TiledMatrix>,
) -> impl Iterator<Item = &'a ProcessingElement> {
    grids.into_iter().flat_map(|g| g.pes.iter())
}

/// Every PE of `grids`, in order, mutably (see [`TiledMatrix::pes_mut`]).
pub(crate) fn pes_mut<'a>(
    grids: impl IntoIterator<Item = &'a mut TiledMatrix>,
) -> impl Iterator<Item = &'a mut ProcessingElement> {
    grids.into_iter().flat_map(|g| g.pes_mut().iter_mut())
}

/// Energy of every PE of `grids`, summed PE by PE in one fold.
pub(crate) fn total_energy<'a>(grids: impl IntoIterator<Item = &'a TiledMatrix>) -> EnergyPj {
    pes(grids).map(|pe| pe.energy().total()).sum()
}

/// GST programming energy of every PE of `grids`, in one fold.
pub(crate) fn programming_energy<'a>(
    grids: impl IntoIterator<Item = &'a TiledMatrix>,
) -> EnergyPj {
    pes(grids).map(|pe| pe.energy().get("gst write")).sum()
}

/// Simulated time of every PE of `grids` (sequential-tile upper bound),
/// in one fold.
pub(crate) fn total_elapsed<'a>(grids: impl IntoIterator<Item = &'a TiledMatrix>) -> Nanoseconds {
    pes(grids).map(ProcessingElement::elapsed).sum()
}

/// Merge every PE ledger of `grids` into `ledger`.
pub(crate) fn absorb<'a>(
    grids: impl IntoIterator<Item = &'a TiledMatrix>,
    ledger: &mut EnergyLedger,
) {
    for pe in pes(grids) {
        ledger.absorb(pe.energy());
    }
}

/// One drift-calibration pass (a reference-column read) on every bank of
/// `grids`; returns the probe energy, summed in one fold.
pub(crate) fn calibrate<'a>(grids: impl IntoIterator<Item = &'a mut TiledMatrix>) -> EnergyPj {
    pes_mut(grids).map(|pe| pe.bank_mut().calibrate_compensation()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(out: usize, inp: usize) -> Vec<f64> {
        (0..out * inp).map(|i| ((i * 37) % 19) as f64 / 9.5 - 1.0).collect()
    }

    #[test]
    fn grid_covers_the_matrix_and_its_transpose() {
        let m = TiledMatrix::new(20, 40, |_| TileSeed::default());
        assert_eq!(pes([&m]).count(), 2 * 3);
        assert_eq!(m.view(false), (2, 3, 20, 40));
        assert_eq!(m.view(true), (3, 2, 40, 20));
    }

    #[test]
    fn tiles_are_zero_padded_and_transpose_consistently() {
        let m = TiledMatrix::new(20, 40, |_| TileSeed::default());
        let w = matrix(20, 40);
        let t = m.tile(&w, 1, 2, false);
        // Rows 16..20, cols 32..40 are real; everything else is padding.
        assert_eq!(t[0], w[16 * 40 + 32]);
        assert_eq!(t[3 * TILE + 7], w[19 * 40 + 39]);
        assert_eq!(t[4 * TILE], 0.0);
        assert_eq!(t[8], 0.0);
        let tt = m.tile(&w, 2, 1, true);
        // Wᵀ(32 + i, 16 + j) = W(16 + j, 32 + i).
        for i in 0..8 {
            for j in 0..4 {
                assert_eq!(tt[i * TILE + j], t[j * TILE + i]);
            }
        }
    }

    #[test]
    fn signed_mvm_and_transpose_track_the_math() {
        let (out, inp) = (20, 40);
        let w = matrix(out, inp);
        let mut m = TiledMatrix::new(out, inp, |_| TileSeed::default());
        let x: Vec<f64> = (0..inp).map(|j| ((j * 7) % 10) as f64 / 10.0 - 0.4).collect();
        m.program(&w);
        let mut ledger = EnergyLedger::new();
        let mut y = Vec::new();
        m.mvm_signed(&x, &mut y, Some(&mut ledger));
        for i in 0..out {
            let exact: f64 = (0..inp).map(|j| w[i * inp + j] * x[j]).sum();
            assert!((y[i] - exact).abs() < 0.15, "row {i}: {} vs {exact}", y[i]);
        }
        // Two extra column tiles × 20 rows of partial sums.
        let psum = ledger.get("psum accumulate").value();
        assert!((psum - 40.0 * PSUM_PJ).abs() < 1e-9, "psum {psum}");

        let d: Vec<f64> = (0..out).map(|i| ((i * 3) % 5) as f64 / 5.0 - 0.5).collect();
        m.program_transposed(&w);
        let mut v = Vec::new();
        m.mvm_signed_transposed(&d, &mut v, None);
        assert_eq!(v.len(), inp);
        for j in 0..inp {
            let exact: f64 = (0..out).map(|i| w[i * inp + j] * d[i]).sum();
            assert!((v[j] - exact).abs() < 0.15, "col {j}: {} vs {exact}", v[j]);
        }
    }

    #[test]
    fn band_programming_spends_nothing_on_unchanged_cells() {
        let w = matrix(20, 20);
        let mut m = TiledMatrix::new(20, 20, |_| TileSeed::default());
        assert!(m.program_row(&w, 17).unwrap().value() > 0.0);
        assert_eq!(m.program_row(&w, 17).unwrap(), EnergyPj::ZERO);
        // Column 3 crosses tile (0, 0), still unprogrammed, and tile
        // (1, 0), which the row write already synced to `w`.
        assert!(m.program_col(&w, 3).unwrap().value() > 0.0);
        assert_eq!(m.program_col(&w, 3).unwrap(), EnergyPj::ZERO);
        assert_eq!(total_energy([&m]), programming_energy([&m]));
    }

    /// Program every tile in `tiles` whole: the reference a row or
    /// column write must reproduce.
    fn program_whole_tiles(
        m: &mut TiledMatrix,
        w: &[f64],
        tiles: impl IntoIterator<Item = (usize, usize)>,
    ) {
        for (rt, ct) in tiles {
            let tile = m.tile(w, rt, ct, false);
            m.pes[rt * m.col_tiles + ct].program(&tile);
        }
    }

    /// Everything a write can leave behind, as bits: every cell weight,
    /// each PE's "gst write" energy, programming events and rejected
    /// writes, then a signed MVM over the grid.
    fn fingerprint(m: &mut TiledMatrix) -> Vec<u64> {
        let mut bits = Vec::new();
        for pe in &m.pes {
            let bank = pe.bank();
            for r in 0..bank.rows() {
                for c in 0..bank.cols() {
                    bits.push(bank.weight(r, c).to_bits());
                }
            }
            bits.push(pe.energy().get("gst write").value().to_bits());
            bits.push(bank.program_events());
            bits.push(bank.write_failures());
        }
        let x: Vec<f64> = (0..m.inp).map(|j| ((j * 7) % 10) as f64 / 10.0 - 0.45).collect();
        let mut y = Vec::new();
        m.mvm_signed(&x, &mut y, None);
        bits.extend(y.iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn first_row_write_programs_the_whole_tile() {
        // A KV-shaped 8×8 matrix on one 16×16 tile: half the tile's rows
        // and columns are padding.
        let w = matrix(8, 8);
        let mut m = TiledMatrix::new(8, 8, |_| TileSeed::default());
        let unprogrammed = m.pes[0].bank().weight(15, 15);
        let mut twin = TiledMatrix::new(8, 8, |_| TileSeed::default());
        m.program_row(&w, 3).unwrap();
        program_whole_tiles(&mut twin, &w, [(0, 0)]);
        assert_ne!(m.pes[0].bank().weight(15, 15), unprogrammed, "padding left unprogrammed");
        assert_eq!(fingerprint(&mut m), fingerprint(&mut twin));

        // Once synced, the next row write touches only its own row.
        let mut w2 = w.clone();
        for v in &mut w2[4 * 8..5 * 8] {
            *v = -*v;
        }
        let events = m.pes[0].bank().program_events();
        let spent = m.program_row(&w2, 4).unwrap();
        let changed = (0..8).filter(|&j| w2[4 * 8 + j] != w[4 * 8 + j]).count();
        assert_eq!(spent, EnergyPj(660.0) * changed as f64);
        assert_eq!(m.pes[0].bank().program_events(), events + 1);
        program_whole_tiles(&mut twin, &w2, [(0, 0)]);
        assert_eq!(fingerprint(&mut m), fingerprint(&mut twin));
    }

    // ---- row/column writes vs whole-tile programs ----

    use proptest::prelude::*;
    use trident_pcm::gst::GstFault;
    use trident_pcm::stat::StatParams;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any sequence of row and column writes, bank faults and drift
        /// leaves a grid bitwise where programming every tile each
        /// write crosses, whole, leaves a twin: the same cell weights,
        /// "gst write" energy, programming events, rejected writes and
        /// MVM output, with and without the statistical layer.
        #[test]
        fn row_and_column_writes_match_full_tile_programs(
            shape in (1usize..=20, 1usize..=20),
            stat in 0usize..2,
            ops in proptest::collection::vec((0usize..6, 0usize..40, -1.0f64..=1.0), 1..16),
        ) {
            let (out, inp) = shape;
            let seed = |t: usize| TileSeed {
                stat: (stat == 1).then_some((StatParams::default(), t as u64)),
                ..TileSeed::default()
            };
            let mut lines = TiledMatrix::new(out, inp, seed);
            let mut whole = TiledMatrix::new(out, inp, seed);
            let mut w = vec![0.0; out * inp];
            for &(op, i, v) in &ops {
                match op {
                    0 | 1 => {
                        let r = i % out;
                        for (j, x) in w[r * inp..(r + 1) * inp].iter_mut().enumerate() {
                            *x = ((j + 1) as f64 * v).sin();
                        }
                        lines.program_row(&w, r).unwrap();
                        let tiles = (0..whole.col_tiles).map(|ct| (r / TILE, ct));
                        program_whole_tiles(&mut whole, &w, tiles);
                    }
                    2 | 3 => {
                        let c = i % inp;
                        for r in 0..out {
                            w[r * inp + c] = ((r + 2) as f64 * v).cos();
                        }
                        lines.program_col(&w, c).unwrap();
                        let tiles = (0..whole.row_tiles).map(|rt| (rt, c / TILE));
                        program_whole_tiles(&mut whole, &w, tiles);
                    }
                    4 => {
                        let fault = if v < 0.0 {
                            GstFault::StuckAmorphous
                        } else {
                            GstFault::StuckCrystalline
                        };
                        let (t, r, c) = (i % lines.pes.len(), i % TILE, (i * 7) % TILE);
                        for m in [&mut lines, &mut whole] {
                            m.pes_mut()[t].bank_mut().inject_ring_fault(r, c, fault);
                        }
                    }
                    _ => {
                        for m in [&mut lines, &mut whole] {
                            for pe in m.pes_mut() {
                                pe.bank_mut().advance_years(v.abs());
                            }
                        }
                    }
                }
                prop_assert_eq!(fingerprint(&mut lines), fingerprint(&mut whole));
            }
        }
    }
}
