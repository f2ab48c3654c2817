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
        Self { out, inp, row_tiles, col_tiles, pes }
    }

    /// Matrix rows.
    pub(crate) fn out_dim(&self) -> usize {
        self.out
    }

    /// Matrix columns.
    pub(crate) fn in_dim(&self) -> usize {
        self.inp
    }

    /// Mutable PEs, row-major by tile.
    pub(crate) fn pes_mut(&mut self) -> &mut [ProcessingElement] {
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
        for t in 0..self.pes.len() {
            let tile = self.tile(w, t / self.col_tiles, t % self.col_tiles, false);
            self.pes[t].program_verified(&tile, policy, rng)?;
        }
        Ok(())
    }

    /// Program tile `(rt, ct)` of `w`, returning the write energy spent
    /// (zero when no cell changed).
    fn program_tile(&mut self, w: &[f64], rt: usize, ct: usize) -> EnergyPj {
        let tile = self.tile(w, rt, ct, false);
        let pe = &mut self.pes[rt * self.col_tiles + ct];
        let before = pe.energy().get("gst write");
        pe.program(&tile);
        pe.energy().get("gst write") - before
    }

    /// (Re)program every tile covering rows `[16·rt, 16·rt + 16)` of `w`.
    /// Unchanged cells are write no-ops, so re-banding an already-cached
    /// KV row costs nothing — history-free programming is what makes
    /// incremental decode bitwise-equal to a fresh recompute. Returns the
    /// write energy spent.
    pub(crate) fn program_row_band(&mut self, w: &[f64], rt: usize) -> EnergyPj {
        (0..self.col_tiles).map(|ct| self.program_tile(w, rt, ct)).sum()
    }

    /// (Re)program every tile covering columns `[16·ct, 16·ct + 16)` of
    /// `w`. Returns the write energy spent.
    pub(crate) fn program_col_band(&mut self, w: &[f64], ct: usize) -> EnergyPj {
        (0..self.row_tiles).map(|rt| self.program_tile(w, rt, ct)).sum()
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
                let (partial, gain) = match optics {
                    Optics::Signed => (pe.mvm_signed(&slice), 1.0),
                    Optics::Unsigned { scale, .. } => (pe.mvm_unsigned(&slice), scale),
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
    /// fire its GST activation cells, on the band's first PE.
    pub(crate) fn activate_band(&mut self, rt: usize, h: &[f64]) -> Vec<f64> {
        self.pes[rt * self.col_tiles].latch_and_activate(h)
    }

    /// Latch-and-activate every row band: `out[i] = f(h[i])`.
    pub(crate) fn activate(&mut self, h: &[f64], out: &mut [f64]) {
        for rt in 0..self.row_tiles {
            let (lo, hi) = band(rt, self.out);
            let fired = self.activate_band(rt, &h[lo..hi]);
            out[lo..hi].copy_from_slice(&fired);
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

/// Every PE of `grids`, in order, mutably.
pub(crate) fn pes_mut<'a>(
    grids: impl IntoIterator<Item = &'a mut TiledMatrix>,
) -> impl Iterator<Item = &'a mut ProcessingElement> {
    grids.into_iter().flat_map(|g| g.pes.iter_mut())
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
        assert!(m.program_row_band(&w, 1).value() > 0.0);
        assert_eq!(m.program_row_band(&w, 1), EnergyPj::ZERO);
        assert!(m.program_col_band(&w, 0).value() > 0.0);
        assert_eq!(total_energy([&m]), programming_energy([&m]));
    }
}
