//! Transformer blocks on the photonic fabric (DESIGN.md §16).
//!
//! [`PhotonicTransformer`] runs pre-norm transformer encoder/decoder
//! blocks with every GEMM lowered onto tiled PCM-MRR weight banks
//! (processing-element grids), the way [`crate::engine::PhotonicMlp`]
//! lowers dense layers:
//!
//! * **Static MVMs** — QKV projections, the attention output projection,
//!   the two FFN GEMMs and the classifier/vocabulary head are programmed
//!   once at construction and streamed per token (weight-stationary), each
//!   on its own `crate::tiled` grid.
//! * **Dynamic MVMs** — the attention core runs *in memory*: each
//!   token's key row and value column are programmed into per-head PCM
//!   banks at decode time, after which the score MVM (`K·q`) and the
//!   context MVM (`Vᵀ·probs`) read the whole cached prefix optically.
//!   The banks **are** the KV-cache; incremental decode writes one K row
//!   and one V column per token (`d_head` cells each, after each tile's
//!   first whole-tile write) while a full recompute reprograms
//!   everything — the energy gap `workload::kv` quantifies.
//! * **Digital LDSU ops** — softmax, LayerNorm, residual adds and the
//!   mean-pool head run on the digital side with typed energy/time
//!   charges (`EnergyPj` / [`Nanoseconds`]) and obs counters
//!   (`ldsu_softmax_rows`, `ldsu_layer_norm_rows`, `kv_cache_*`).
//!
//! ## Determinism contract
//!
//! Per-row/per-column cache scales are fixed at write time and cell
//! programming is history-free (re-writing an unchanged weight is a
//! no-op), so token-by-token decode with the cache is **bitwise
//! identical** to a fresh full-sequence recompute at every step —
//! `tests/kv_cache_invariants.rs` pins this. The straight-line `f64`
//! digital twins ([`PhotonicTransformer::digital_forward_classify`] /
//! [`PhotonicTransformer::digital_forward_causal`]) bound the photonic
//! outputs within the bank's ENOB, exactly as `tests/photonic_vs_float.rs`
//! does for the MLP engine.

use crate::engine::GST_SLOPE;
use crate::error::ArchError;
use crate::pe::LOGIT_THRESHOLD;
use crate::tiled::{self, TileSeed, TiledMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_obs as obs;
use trident_pcm::stat::StatParams;
use trident_photonics::ledger::EnergyLedger;
use trident_photonics::units::{EnergyPj, Nanoseconds};

/// LayerNorm variance floor.
const LN_EPS: f64 = 1e-5;

/// Digital LDSU throughput: one element per 1.37 GHz cycle.
const DIGITAL_NS_PER_ELEM: f64 = 1.0 / 1.37;

/// LDSU softmax cost per element (exp + normalise, lookup-assisted).
const LDSU_SOFTMAX_PJ_PER_ELEM: f64 = 0.05;

/// LDSU LayerNorm cost per element (two digital passes + affine).
const LDSU_LAYERNORM_PJ_PER_ELEM: f64 = 0.03;

/// LDSU residual-add cost per element.
const LDSU_RESIDUAL_PJ_PER_ELEM: f64 = 0.01;

/// Floor for write-time cache scales, mirroring the engine's AGC floor.
const SCALE_FLOOR: f64 = 1e-12;

/// Geometry and device options for one photonic transformer.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Model width (`c` in the workload IR's token shape).
    pub d_model: usize,
    /// Attention heads; must divide `d_model`.
    pub heads: usize,
    /// Transformer blocks.
    pub depth: usize,
    /// FFN hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (KV bank rows per head).
    pub max_seq: usize,
    /// Output width: classes (ViT head) or vocabulary (decoder head).
    pub out_dim: usize,
    /// Causal (decoder) masking; also gates KV-cache traffic billing.
    pub causal: bool,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Optional PCM statistical layer, applied to every bank.
    pub stat: Option<StatParams>,
}

impl TransformerConfig {
    /// A ViT-style encoder sized for the functional simulator: 8 tokens
    /// of width 16, two blocks, two heads, 10-class mean-pool head.
    pub fn tiny_vit() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            depth: 2,
            d_ff: 32,
            max_seq: 8,
            out_dim: 10,
            causal: false,
            seed: 0x7e51,
            stat: None,
        }
    }

    /// A GPT-style causal decoder sized for the functional simulator:
    /// 8-token context, width 16, two blocks, 24-entry vocabulary.
    pub fn tiny_gpt() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            depth: 2,
            d_ff: 32,
            max_seq: 8,
            out_dim: 24,
            causal: true,
            seed: 0x9d37,
            stat: None,
        }
    }

    /// Flat input width of one full-sequence forward
    /// (`max_seq · d_model` — tokens row-major).
    pub fn input_width(&self) -> usize {
        self.max_seq * self.d_model
    }

    fn validate(&self) -> Result<(), ArchError> {
        let ok = self.d_model > 0
            && self.heads > 0
            && self.d_model.is_multiple_of(self.heads)
            && self.depth > 0
            && self.d_ff > 0
            && self.max_seq > 0
            && self.out_dim > 0;
        if ok {
            Ok(())
        } else {
            Err(ArchError::ShapeMismatch {
                expected: self.heads.max(1) * (self.d_model / self.heads.max(1)).max(1),
                got: self.d_model,
            })
        }
    }
}

/// A static weight matrix: the raw copy the digital twins read, and its
/// banks, programmed with the copy normalised by `scale = max |w|` so
/// they see the full LUT range.
#[derive(Debug)]
struct Projection {
    raw: Vec<f64>,
    banks: TiledMatrix,
    scale: f64,
}

impl Projection {
    /// Allocate the `out_dim × in_dim` grid (PEs seeded by `seed`),
    /// normalise `raw` and program every tile.
    fn deploy(
        raw: Vec<f64>,
        out_dim: usize,
        in_dim: usize,
        seed: impl FnMut(usize) -> TileSeed,
    ) -> Self {
        let mut banks = TiledMatrix::new(out_dim, in_dim, seed);
        let scale = raw.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(SCALE_FLOOR);
        let logical: Vec<f64> = raw.iter().map(|&w| (w / scale).clamp(-1.0, 1.0)).collect();
        banks.program(&logical);
        Self { raw, banks, scale }
    }

    /// Signed MVM with partial sums billed to `extra`; the global scale
    /// is restored after accumulation.
    fn apply(&mut self, x: &[f64], y: &mut Vec<f64>, extra: &mut EnergyLedger) {
        self.banks.mvm_signed(x, y, Some(extra));
        for v in y.iter_mut() {
            *v *= self.scale;
        }
    }
}

/// Per-head KV banks: K rows (`max_seq × d_head`) and Vᵀ columns
/// (`d_head × max_seq`). The logical copies hold each row/column
/// normalised at write time; the scales restore its magnitude after
/// detection.
#[derive(Debug)]
struct HeadKv {
    k: TiledMatrix,
    v: TiledMatrix,
    k_logical: Vec<f64>,
    v_logical: Vec<f64>,
    k_scale: Vec<f64>,
    v_scale: Vec<f64>,
}

/// One pre-norm transformer block's device state.
#[derive(Debug)]
struct Block {
    wq: Projection,
    wk: Projection,
    wv: Projection,
    wo: Projection,
    w1: Projection,
    w2: Projection,
    ln1_gamma: Vec<f64>,
    ln1_beta: Vec<f64>,
    ln2_gamma: Vec<f64>,
    ln2_beta: Vec<f64>,
    kv: Vec<HeadKv>,
}

/// A transformer encoder/decoder running on simulated photonic hardware.
#[derive(Debug)]
pub struct PhotonicTransformer {
    cfg: TransformerConfig,
    blocks: Vec<Block>,
    head: Projection,
    lnf_gamma: Vec<f64>,
    lnf_beta: Vec<f64>,
    /// Cached tokens (decode mode) / tokens of the current sequence.
    cache_len: usize,
    /// Digital-side energy (LDSU ops, psum accumulates).
    extra_energy: EnergyLedger,
    /// Digital-side elapsed time.
    elapsed: Nanoseconds,
    kv_writes: u64,
    kv_reads: u64,
    batch_out: Vec<Vec<f64>>,
    /// Reusable per-token decode buffers (zero-alloc steady state).
    scratch: DecodeScratch,
}

/// Scratch buffers for the per-token decode hot path: grown on the first
/// token, then reused, so a warmed [`PhotonicTransformer::try_decode_token`]
/// allocates only the logits it returns. `tests/alloc_counts.rs` pins
/// that count at runtime; trident-lint's `hot-path-alloc` walk checks the
/// same path statically.
#[derive(Debug, Default)]
struct DecodeScratch {
    /// The decoded token's hidden state (`d_model` wide).
    hidden: Vec<f64>,
    /// A LayerNorm output (`d_model` wide).
    normed: Vec<f64>,
    /// Query, key and value projections (`d_model` wide each).
    q: Vec<f64>,
    k: Vec<f64>,
    v: Vec<f64>,
    /// Concatenated attention heads (`d_model` wide).
    attn: Vec<f64>,
    /// Attention output projection (`d_model` wide).
    proj: Vec<f64>,
    /// FFN output (`d_model` wide).
    ffn_out: Vec<f64>,
    /// Attention score row (`max_seq` wide).
    scores: Vec<f64>,
    /// Re-scaled probability inputs to the Vᵀ bank (`max_seq` wide).
    vin: Vec<f64>,
    /// One head's context slice (`d_head` wide).
    ctx: Vec<f64>,
    /// FFN pre-activation (`d_ff` wide).
    h1: Vec<f64>,
    /// FFN post-activation (`d_ff` wide).
    act: Vec<f64>,
    /// Mean-pooled hidden state (`d_model` wide).
    pooled: Vec<f64>,
}

/// Uniform init in `±√(1/fan_in)` — keeps every weight well inside the
/// bank's `[-1, 1]` programmable range.
fn init_matrix(rng: &mut StdRng, out_dim: usize, in_dim: usize) -> Vec<f64> {
    let bound = (1.0 / in_dim as f64).sqrt();
    (0..out_dim * in_dim).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// Safe softmax in place (f64): subtract max, exponentiate, one
/// reciprocal multiply — the digital LDSU op, shared verbatim by the
/// photonic path and the digital twins.
fn softmax64(row: &mut [f64]) {
    if row.is_empty() {
        return;
    }
    let mut max = f64::NEG_INFINITY;
    for &v in row.iter() {
        if v > max {
            max = v;
        }
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Which LayerNorm's affine parameters an LDSU LayerNorm applies.
#[derive(Debug, Clone, Copy)]
enum Ln {
    /// Block `b`'s pre-attention norm.
    Attention(usize),
    /// Block `b`'s pre-FFN norm.
    Ffn(usize),
    /// The final norm before the head.
    Final,
}

/// Row LayerNorm (f64): population mean/variance, affine gamma/beta.
fn layer_norm64(x: &[f64], gamma: &[f64], beta: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let n = x.len() as f64;
    let mut mean = 0.0;
    for &v in x {
        mean += v;
    }
    mean /= n;
    let mut var = 0.0;
    for &v in x {
        let d = v - mean;
        var += d * d;
    }
    var /= n;
    let inv_std = 1.0 / (var + LN_EPS).sqrt();
    for (j, &v) in x.iter().enumerate() {
        out.push((v - mean) * inv_std * gamma[j] + beta[j]);
    }
}

/// The GST activation transfer (digital-twin form, engine parity).
fn gst64(h: f64) -> f64 {
    if h >= LOGIT_THRESHOLD {
        (h - LOGIT_THRESHOLD) * GST_SLOPE
    } else {
        0.0
    }
}

/// Straight-line f64 matvec (k ascending) over a raw weight matrix.
fn matvec64(w: &[f64], in_dim: usize, x: &[f64]) -> Vec<f64> {
    w.chunks(in_dim).map(|row| row.iter().zip(x).map(|(&a, &b)| a * b).sum()).collect()
}

impl PhotonicTransformer {
    /// Build and program a transformer from seeded weights.
    pub fn try_new(cfg: TransformerConfig) -> Result<Self, ArchError> {
        cfg.validate()?;
        let d = cfg.d_model;
        let d_head = d / cfg.heads;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Every PE takes the next bank identity, in construction order.
        let mut identity = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let stat = cfg.stat;
        let mut seed = |_| {
            let id = identity;
            identity = identity.wrapping_add(1);
            TileSeed { stat: stat.map(|params| (params, id)), ..TileSeed::default() }
        };
        let mut blocks = Vec::with_capacity(cfg.depth);
        for _ in 0..cfg.depth {
            let mut deploy = |out_dim, in_dim| {
                Projection::deploy(init_matrix(&mut rng, out_dim, in_dim), out_dim, in_dim, &mut seed)
            };
            let wq = deploy(d, d);
            let wk = deploy(d, d);
            let wv = deploy(d, d);
            let wo = deploy(d, d);
            let w1 = deploy(cfg.d_ff, d);
            let w2 = deploy(d, cfg.d_ff);
            let kv = (0..cfg.heads)
                .map(|_| HeadKv {
                    k: TiledMatrix::new(cfg.max_seq, d_head, &mut seed),
                    v: TiledMatrix::new(d_head, cfg.max_seq, &mut seed),
                    k_logical: vec![0.0; cfg.max_seq * d_head],
                    v_logical: vec![0.0; d_head * cfg.max_seq],
                    k_scale: vec![1.0; cfg.max_seq],
                    v_scale: vec![1.0; cfg.max_seq],
                })
                .collect();
            blocks.push(Block {
                wq,
                wk,
                wv,
                wo,
                w1,
                w2,
                ln1_gamma: vec![1.0; d],
                ln1_beta: vec![0.0; d],
                ln2_gamma: vec![1.0; d],
                ln2_beta: vec![0.0; d],
                kv,
            });
        }
        let head = Projection::deploy(init_matrix(&mut rng, cfg.out_dim, d), cfg.out_dim, d, seed);
        Ok(Self {
            cfg,
            blocks,
            head,
            lnf_gamma: vec![1.0; d],
            lnf_beta: vec![0.0; d],
            cache_len: 0,
            extra_energy: EnergyLedger::new(),
            elapsed: Nanoseconds(0.0),
            kv_writes: 0,
            kv_reads: 0,
            batch_out: Vec::new(),
            scratch: DecodeScratch::default(),
        })
    }

    /// The configuration this instance was built from.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Tokens currently cached (decode mode).
    pub fn cache_len(&self) -> usize {
        self.cache_len
    }

    /// KV-cache elements written so far (causal paths only).
    pub fn kv_cache_writes(&self) -> u64 {
        self.kv_writes
    }

    /// KV-cache elements read back through attention MVMs so far.
    pub fn kv_cache_reads(&self) -> u64 {
        self.kv_reads
    }

    /// Run one drift-compensation calibration pass over every bank.
    pub fn calibrate_compensation(&mut self) {
        let blocks = self.blocks.iter_mut().flat_map(|b| {
            [&mut b.wq, &mut b.wk, &mut b.wv, &mut b.wo, &mut b.w1, &mut b.w2]
                .map(|p| &mut p.banks)
                .into_iter()
                .chain(b.kv.iter_mut().flat_map(|h| [&mut h.k, &mut h.v]))
        });
        tiled::calibrate(blocks.chain(std::iter::once(&mut self.head.banks)));
    }

    /// Forget the cached sequence. Bank contents are overwritten on the
    /// next append (history-free programming), so no erase pass is
    /// modelled or billed. Stale cells beyond the new frontier never
    /// affect *logical* attention values (masked probabilities are exact
    /// zeros), but they do keep sitting on the WDM bus, so the bank's
    /// sub-quantization inter-ring crosstalk makes a rerun
    /// tolerance-close rather than bitwise-equal to a pristine decoder
    /// — `tests/kv_cache_invariants.rs` pins both sides of this.
    pub fn reset_cache(&mut self) {
        self.cache_len = 0;
    }

    /// Total optical + digital energy since construction.
    pub fn total_energy(&self) -> EnergyPj {
        self.grids().map(|g| tiled::total_energy([g])).sum::<EnergyPj>()
            + self.extra_energy.total()
    }

    /// Total simulated time (sequential-tile upper bound) since
    /// construction.
    pub fn total_elapsed(&self) -> Nanoseconds {
        self.grids().map(|g| tiled::total_elapsed([g])).sum::<Nanoseconds>() + self.elapsed
    }

    /// Itemised energy ledger across every PE plus the digital side.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.extra_energy.clone();
        tiled::absorb(self.grids(), &mut ledger);
        ledger
    }

    /// Every bank grid, block by block (projections, then KV heads),
    /// then the head.
    fn grids(&self) -> impl Iterator<Item = &TiledMatrix> {
        self.blocks
            .iter()
            .flat_map(|b| {
                [&b.wq, &b.wk, &b.wv, &b.wo, &b.w1, &b.w2]
                    .map(|p| &p.banks)
                    .into_iter()
                    .chain(b.kv.iter().flat_map(|h| [&h.k, &h.v]))
            })
            .chain(std::iter::once(&self.head.banks))
    }

    fn charge_digital(&mut self, what: &'static str, elems: usize, pj_per_elem: f64) {
        let n = elems as f64;
        self.extra_energy.charge(what, EnergyPj(pj_per_elem * n));
        self.elapsed += Nanoseconds(DIGITAL_NS_PER_ELEM * n);
    }

    /// LDSU softmax over `row`, billed per element.
    fn ldsu_softmax(&mut self, row: &mut [f64]) {
        softmax64(row);
        self.charge_digital("ldsu softmax", row.len(), LDSU_SOFTMAX_PJ_PER_ELEM);
        obs::add(obs::Counter::LdsuSoftmaxRows, 1);
    }

    /// LDSU LayerNorm of `x` into `out` with the affine parameters `ln`
    /// selects, billed per element.
    fn ldsu_layer_norm(&mut self, ln: Ln, x: &[f64], out: &mut Vec<f64>) {
        let (gamma, beta) = match ln {
            Ln::Attention(b) => (&self.blocks[b].ln1_gamma, &self.blocks[b].ln1_beta),
            Ln::Ffn(b) => (&self.blocks[b].ln2_gamma, &self.blocks[b].ln2_beta),
            Ln::Final => (&self.lnf_gamma, &self.lnf_beta),
        };
        layer_norm64(x, gamma, beta, out);
        self.charge_digital("ldsu layernorm", x.len(), LDSU_LAYERNORM_PJ_PER_ELEM);
        obs::add(obs::Counter::LdsuLayerNormRows, 1);
    }

    /// Residual add `acc += delta`, billed per element.
    fn ldsu_residual(&mut self, acc_delta_len: usize) {
        self.charge_digital("ldsu residual", acc_delta_len, LDSU_RESIDUAL_PJ_PER_ELEM);
    }

    /// Append one token's K row and V column to block `b`'s per-head
    /// banks at position `t`, fixing the write-time scales, and program
    /// just that row and column. Billed as KV-cache traffic when the
    /// model is causal.
    fn append_kv(
        &mut self,
        b: usize,
        t: usize,
        k_tok: &[f64],
        v_tok: &[f64],
    ) -> Result<(), ArchError> {
        let d_head = self.cfg.d_model / self.cfg.heads;
        let causal = self.cfg.causal;
        let mut spent = EnergyPj::ZERO;
        let block = &mut self.blocks[b];
        for (h, kv) in block.kv.iter_mut().enumerate() {
            let ks = &k_tok[h * d_head..(h + 1) * d_head];
            let vs = &v_tok[h * d_head..(h + 1) * d_head];
            let k_max = ks.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(SCALE_FLOOR);
            let v_max = vs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(SCALE_FLOOR);
            kv.k_scale[t] = k_max;
            kv.v_scale[t] = v_max;
            for (j, &v) in ks.iter().enumerate() {
                kv.k_logical[t * d_head + j] = (v / k_max).clamp(-1.0, 1.0);
            }
            for (r, &v) in vs.iter().enumerate() {
                kv.v_logical[r * self.cfg.max_seq + t] = (v / v_max).clamp(-1.0, 1.0);
            }
            spent += kv.k.program_row(&kv.k_logical, t)?;
            spent += kv.v.program_col(&kv.v_logical, t)?;
        }
        if causal {
            let elems = 2 * self.cfg.d_model as u64;
            self.kv_writes += elems;
            obs::add(obs::Counter::KvCacheWrites, elems);
            obs::add_pj(obs::Counter::KvCacheFj, spent.value());
        }
        Ok(())
    }

    /// Multi-head attention for one query at position `pos` (attends to
    /// cache rows `0..limit`): score MVM through the K banks, LDSU
    /// softmax, context MVM through the Vᵀ banks, heads concatenated
    /// into `out` (`d_model` wide).
    fn attention(&mut self, b: usize, q_tok: &[f64], limit: usize, out: &mut Vec<f64>) {
        let d_head = self.cfg.d_model / self.cfg.heads;
        let inv_sqrt = 1.0 / (d_head as f64).sqrt();
        let max_seq = self.cfg.max_seq;
        out.clear();
        out.resize(self.cfg.d_model, 0.0);
        // Pull the scratch out of `self` so the bank MVMs below can
        // borrow `blocks`/`extra_energy` disjointly; restored at the end.
        let mut s = std::mem::take(&mut self.scratch);
        s.scores.clear();
        s.scores.resize(max_seq, 0.0);
        s.vin.clear();
        s.vin.resize(max_seq, 0.0);
        let (scores, vin, ctx) = (&mut s.scores, &mut s.vin, &mut s.ctx);
        for h in 0..self.cfg.heads {
            let q_h = &q_tok[h * d_head..(h + 1) * d_head];
            // Score MVM: every cached K row dotted with q in one pass.
            {
                let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
                blocks[b].kv[h].k.mvm_signed(q_h, scores, Some(extra));
            }
            let k_scale = &self.blocks[b].kv[h].k_scale;
            for (j, s) in scores.iter_mut().enumerate().take(limit) {
                *s = *s * k_scale[j] * inv_sqrt;
            }
            self.ldsu_softmax(&mut scores[..limit]);
            // Context MVM: probabilities (re-scaled per column) stream
            // through the Vᵀ bank; masked positions carry exactly zero.
            vin.fill(0.0);
            let v_scale = &self.blocks[b].kv[h].v_scale;
            for j in 0..limit {
                vin[j] = scores[j] * v_scale[j];
            }
            {
                let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
                blocks[b].kv[h].v.mvm_signed(vin, ctx, Some(extra));
            }
            out[h * d_head..(h + 1) * d_head].copy_from_slice(ctx);
        }
        self.scratch = s;
        if self.cfg.causal {
            let reads = 2 * self.cfg.d_model as u64 * limit as u64;
            self.kv_reads += reads;
            obs::add(obs::Counter::KvCacheReads, reads);
        }
    }

    /// FFN: `w1` MVM, per-band photonic GST activation, `w2` MVM.
    fn ffn(&mut self, b: usize, x: &[f64], out: &mut Vec<f64>) {
        let mut s = std::mem::take(&mut self.scratch);
        {
            let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
            blocks[b].w1.apply(x, &mut s.h1, extra);
        }
        s.act.clear();
        s.act.resize(self.cfg.d_ff, 0.0);
        self.blocks[b].w1.banks.activate(&s.h1, &mut s.act);
        {
            let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
            blocks[b].w2.apply(&s.act, out, extra);
        }
        self.scratch = s;
    }

    /// Attention-sublayer front half for one token of block `b`:
    /// LayerNorm, Q/K/V projections into `q` and scratch, and the K/V
    /// append at position `t`.
    fn project_qkv(
        &mut self,
        b: usize,
        t: usize,
        hidden: &[f64],
        q: &mut Vec<f64>,
    ) -> Result<(), ArchError> {
        let s = &mut self.scratch;
        let (mut normed, mut k, mut v) =
            (std::mem::take(&mut s.normed), std::mem::take(&mut s.k), std::mem::take(&mut s.v));
        self.ldsu_layer_norm(Ln::Attention(b), hidden, &mut normed);
        {
            let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
            blocks[b].wq.apply(&normed, q, extra);
            blocks[b].wk.apply(&normed, &mut k, extra);
            blocks[b].wv.apply(&normed, &mut v, extra);
        }
        let appended = self.append_kv(b, t, &k, &v);
        (self.scratch.normed, self.scratch.k, self.scratch.v) = (normed, k, v);
        appended
    }

    /// The rest of block `b` for one token: attention over cache rows
    /// `0..limit`, output projection and residual, then the pre-norm FFN
    /// sublayer and its residual.
    fn finish_token(&mut self, b: usize, q: &[f64], limit: usize, hidden: &mut [f64]) {
        let s = &mut self.scratch;
        let (mut attn, mut proj, mut normed, mut ffn_out) = (
            std::mem::take(&mut s.attn),
            std::mem::take(&mut s.proj),
            std::mem::take(&mut s.normed),
            std::mem::take(&mut s.ffn_out),
        );
        self.attention(b, q, limit, &mut attn);
        {
            let (blocks, extra) = (&mut self.blocks, &mut self.extra_energy);
            blocks[b].wo.apply(&attn, &mut proj, extra);
        }
        for (hv, &p) in hidden.iter_mut().zip(&proj) {
            *hv += p;
        }
        self.ldsu_residual(self.cfg.d_model);
        self.ldsu_layer_norm(Ln::Ffn(b), hidden, &mut normed);
        self.ffn(b, &normed, &mut ffn_out);
        for (hv, &p) in hidden.iter_mut().zip(&ffn_out) {
            *hv += p;
        }
        self.ldsu_residual(self.cfg.d_model);
        let s = &mut self.scratch;
        (s.attn, s.proj, s.normed, s.ffn_out) = (attn, proj, normed, ffn_out);
    }

    /// One token through block `b` (decoder schedule): append its K/V at
    /// position `t`, then attend over `0..limit`.
    fn block_step(
        &mut self,
        b: usize,
        t: usize,
        limit: usize,
        hidden: &mut [f64],
    ) -> Result<(), ArchError> {
        let mut q = std::mem::take(&mut self.scratch.q);
        let appended = self.project_qkv(b, t, hidden, &mut q);
        if appended.is_ok() {
            self.finish_token(b, &q, limit, hidden);
        }
        self.scratch.q = q;
        appended
    }

    /// Final LayerNorm + head MVM for one `d_model`-wide vector. The
    /// returned logits are the one allocation.
    fn head_logits(&mut self, x: &[f64]) -> Vec<f64> {
        let mut normed = std::mem::take(&mut self.scratch.normed);
        self.ldsu_layer_norm(Ln::Final, x, &mut normed);
        let mut logits = Vec::new();
        let (head, extra) = (&mut self.head, &mut self.extra_energy);
        head.apply(&normed, &mut logits, extra);
        self.scratch.normed = normed;
        logits
    }

    fn check_token_width(&self, len: usize) -> Result<(), ArchError> {
        if len == self.cfg.d_model {
            Ok(())
        } else {
            Err(ArchError::ShapeMismatch { expected: self.cfg.d_model, got: len })
        }
    }

    /// Split a flat `seq × d_model` buffer into per-token vectors.
    fn split_tokens(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let d = self.cfg.d_model;
        if x.is_empty() || !x.len().is_multiple_of(d) || x.len() / d > self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch {
                expected: self.cfg.input_width(),
                got: x.len(),
            });
        }
        Ok(x.chunks(d).map(<[f64]>::to_vec).collect())
    }

    /// Full-sequence forward over `x` (flat `seq × d_model`, `seq ≤
    /// max_seq`), layer-major like a prefill: per block, all tokens are
    /// normed/projected, the per-head K/V banks are rebuilt, then every
    /// query streams through them (window = whole sequence, or the
    /// causal prefix when `cfg.causal`). Returns per-token final hidden
    /// states. Resets the cache first.
    pub fn try_forward_hidden(&mut self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let mut hidden = self.split_tokens(x)?;
        let seq = hidden.len();
        self.reset_cache();
        for b in 0..self.blocks.len() {
            // The per-token schedule below is arithmetic-identical to
            // the incremental decode path (block_step), which is exactly
            // what the KV bitwise invariant pins. We run attention
            // *inside* the same token loop only for causal models;
            // encoder attention needs the whole sequence banked first.
            if self.cfg.causal {
                for (t, tok) in hidden.iter_mut().enumerate() {
                    self.cache_len = t;
                    // block_step appends at t and attends over 0..=t.
                    self.block_step(b, t, t + 1, tok)?;
                }
            } else {
                encoder_block(self, b, &mut hidden, seq)?;
            }
        }
        self.cache_len = seq;
        Ok(hidden)
    }

    /// Classifier forward (the ViT serving path): full-sequence encode,
    /// digital mean-pool, head MVM → `out_dim` logits.
    pub fn try_forward_classify(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        let hidden = self.try_forward_hidden(x)?;
        let d = self.cfg.d_model;
        let inv = 1.0 / hidden.len() as f64;
        let mut pooled = std::mem::take(&mut self.scratch.pooled);
        pooled.clear();
        pooled.resize(d, 0.0);
        for tok in &hidden {
            for (p, &v) in pooled.iter_mut().zip(tok) {
                *p += v;
            }
        }
        for p in pooled.iter_mut() {
            *p *= inv;
        }
        self.ldsu_residual(d);
        let logits = self.head_logits(&pooled);
        self.scratch.pooled = pooled;
        Ok(logits)
    }

    /// Per-position logits of a causal full-sequence forward — the
    /// recompute reference the KV invariant tests compare decode against.
    pub fn try_forward_causal(&mut self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        if !self.cfg.causal {
            return Err(ArchError::ShapeMismatch { expected: 1, got: 0 });
        }
        let hidden = self.try_forward_hidden(x)?;
        Ok(hidden.iter().map(|tok| self.head_logits(tok)).collect())
    }

    /// Decode one token through the KV-cache path: appends the token's
    /// K/V to every block's banks (one K row and one V column write per
    /// head) and returns its `out_dim` logits. Errors when the context is
    /// full.
    pub fn try_decode_token(&mut self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        self.check_token_width(x.len())?;
        if self.cache_len >= self.cfg.max_seq {
            return Err(ArchError::ShapeMismatch {
                expected: self.cfg.max_seq,
                got: self.cache_len + 1,
            });
        }
        let t = self.cache_len;
        let mut hidden = std::mem::take(&mut self.scratch.hidden);
        hidden.clear();
        hidden.extend_from_slice(x);
        let decoded = (0..self.blocks.len())
            .try_for_each(|b| self.block_step(b, t, t + 1, &mut hidden))
            .map(|()| self.head_logits(&hidden));
        self.scratch.hidden = hidden;
        if decoded.is_ok() {
            self.cache_len = t + 1;
        }
        decoded
    }

    /// Batched classifier forward for the serving fleet: one
    /// [`PhotonicTransformer::try_forward_classify`] per request, outputs
    /// staged in a reused buffer.
    pub fn try_forward_batch(
        &mut self,
        batch: &[impl AsRef<[f64]>],
    ) -> Result<&[Vec<f64>], ArchError> {
        self.batch_out.clear();
        for item in batch {
            let logits = self.try_forward_classify(item.as_ref())?;
            self.batch_out.push(logits);
        }
        Ok(&self.batch_out)
    }

    // ---- digital twins -------------------------------------------------

    /// Straight-line f64 forward of one token sequence over the raw
    /// (unquantized) weights. Same schedule, same LDSU formulas; only
    /// the MVMs differ (exact f64 instead of banked optics).
    fn digital_hidden(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let mut hidden = self.split_tokens(x)?;
        let seq = hidden.len();
        let d = self.cfg.d_model;
        let d_head = d / self.cfg.heads;
        let inv_sqrt = 1.0 / (d_head as f64).sqrt();
        for block in &self.blocks {
            let mut normed: Vec<Vec<f64>> = Vec::with_capacity(seq);
            for tok in &hidden {
                let mut n = Vec::new();
                layer_norm64(tok, &block.ln1_gamma, &block.ln1_beta, &mut n);
                normed.push(n);
            }
            let q: Vec<Vec<f64>> = normed.iter().map(|n| matvec64(&block.wq.raw, d, n)).collect();
            let k: Vec<Vec<f64>> = normed.iter().map(|n| matvec64(&block.wk.raw, d, n)).collect();
            let v: Vec<Vec<f64>> = normed.iter().map(|n| matvec64(&block.wv.raw, d, n)).collect();
            for (t, tok) in hidden.iter_mut().enumerate() {
                let limit = if self.cfg.causal { t + 1 } else { seq };
                let mut concat = vec![0.0f64; d];
                for h in 0..self.cfg.heads {
                    let span = h * d_head..(h + 1) * d_head;
                    let mut scores: Vec<f64> = (0..limit)
                        .map(|j| {
                            k[j][span.clone()]
                                .iter()
                                .zip(&q[t][span.clone()])
                                .map(|(&a, &b)| a * b)
                                .sum::<f64>()
                                * inv_sqrt
                        })
                        .collect();
                    softmax64(&mut scores);
                    for (j, &p) in scores.iter().enumerate() {
                        for (c, ctx) in concat[span.clone()].iter_mut().enumerate() {
                            *ctx += p * v[j][h * d_head + c];
                        }
                    }
                }
                let proj = matvec64(&block.wo.raw, d, &concat);
                for (hv, &p) in tok.iter_mut().zip(&proj) {
                    *hv += p;
                }
                let mut n2 = Vec::new();
                layer_norm64(tok, &block.ln2_gamma, &block.ln2_beta, &mut n2);
                let h1 = matvec64(&block.w1.raw, d, &n2);
                let act: Vec<f64> = h1.iter().map(|&h| gst64(h)).collect();
                let ffn_out = matvec64(&block.w2.raw, self.cfg.d_ff, &act);
                for (hv, &p) in tok.iter_mut().zip(&ffn_out) {
                    *hv += p;
                }
            }
        }
        Ok(hidden)
    }

    fn digital_head(&self, x: &[f64]) -> Vec<f64> {
        let mut normed = Vec::new();
        layer_norm64(x, &self.lnf_gamma, &self.lnf_beta, &mut normed);
        matvec64(&self.head.raw, self.cfg.d_model, &normed)
    }

    /// Digital twin of [`PhotonicTransformer::try_forward_classify`].
    pub fn digital_forward_classify(&self, x: &[f64]) -> Result<Vec<f64>, ArchError> {
        let hidden = self.digital_hidden(x)?;
        let d = self.cfg.d_model;
        let inv = 1.0 / hidden.len() as f64;
        let mut pooled = vec![0.0f64; d];
        for tok in &hidden {
            for (p, &v) in pooled.iter_mut().zip(tok) {
                *p += v;
            }
        }
        for p in pooled.iter_mut() {
            *p *= inv;
        }
        Ok(self.digital_head(&pooled))
    }

    /// Digital twin of [`PhotonicTransformer::try_forward_causal`].
    pub fn digital_forward_causal(&self, x: &[f64]) -> Result<Vec<Vec<f64>>, ArchError> {
        let hidden = self.digital_hidden(x)?;
        Ok(hidden.iter().map(|tok| self.digital_head(tok)).collect())
    }
}

/// Encoder-attention block schedule: bank the whole sequence's K/V
/// first, then stream every query with a full-sequence window. Token
/// arithmetic is identical to [`PhotonicTransformer::block_step`]; only
/// the append/attend interleaving differs (encoders have no causal
/// frontier to respect).
fn encoder_block(
    tx: &mut PhotonicTransformer,
    b: usize,
    hidden: &mut [Vec<f64>],
    seq: usize,
) -> Result<(), ArchError> {
    let mut q_all = Vec::with_capacity(seq);
    for (t, tok) in hidden.iter().enumerate() {
        let mut q = Vec::new();
        tx.project_qkv(b, t, tok, &mut q)?;
        q_all.push(q);
    }
    for (tok, q) in hidden.iter_mut().zip(&q_all) {
        tx.finish_token(b, q, seq, tok);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_input(cfg: &TransformerConfig, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cfg.input_width()).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn classify_produces_logits_and_bills_energy() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 1);
        let logits = tx.try_forward_classify(&x).unwrap();
        assert_eq!(logits.len(), cfg.out_dim);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert!(tx.total_energy().value() > 0.0);
        assert!(tx.total_elapsed().value() > 0.0);
        let ledger = tx.energy_ledger();
        assert!(ledger.get("ldsu softmax").value() > 0.0);
        assert!(ledger.get("ldsu layernorm").value() > 0.0);
    }

    #[test]
    fn classify_is_repeatable() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 2);
        let a = tx.try_forward_classify(&x).unwrap();
        let b = tx.try_forward_classify(&x).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn decode_fills_and_rejects_past_capacity() {
        let cfg = TransformerConfig::tiny_gpt();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let tok = vec![0.1; cfg.d_model];
        for t in 0..cfg.max_seq {
            assert_eq!(tx.cache_len(), t);
            let logits = tx.try_decode_token(&tok).unwrap();
            assert_eq!(logits.len(), cfg.out_dim);
        }
        assert!(tx.try_decode_token(&tok).is_err());
        tx.reset_cache();
        assert_eq!(tx.cache_len(), 0);
        assert!(tx.try_decode_token(&tok).is_ok());
    }

    #[test]
    fn kv_counters_follow_closed_form() {
        let cfg = TransformerConfig::tiny_gpt();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let tok = vec![0.2; cfg.d_model];
        let per_tok_writes = (cfg.depth * 2 * cfg.d_model) as u64;
        let mut expect_reads = 0u64;
        for t in 1..=4u64 {
            tx.try_decode_token(&tok).unwrap();
            expect_reads += t * (cfg.depth * 2 * cfg.d_model) as u64;
            assert_eq!(tx.kv_cache_writes(), t * per_tok_writes);
            assert_eq!(tx.kv_cache_reads(), expect_reads);
        }
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg).unwrap();
        assert!(tx.try_forward_classify(&[0.0; 7]).is_err());
        let mut bad = TransformerConfig::tiny_vit();
        bad.heads = 3; // 16 % 3 != 0
        assert!(PhotonicTransformer::try_new(bad).is_err());
    }

    #[test]
    fn digital_twin_tracks_photonic_classify() {
        let cfg = TransformerConfig::tiny_vit();
        let mut tx = PhotonicTransformer::try_new(cfg.clone()).unwrap();
        let x = seq_input(&cfg, 3);
        let photonic = tx.try_forward_classify(&x).unwrap();
        let digital = tx.digital_forward_classify(&x).unwrap();
        // LUT quantisation through two blocks; the ENOB-derived bound
        // lives in tests/photonic_vs_float.rs — this is a smoke check.
        for (p, d) in photonic.iter().zip(&digital) {
            assert!((p - d).abs() < 0.3, "photonic {p} vs digital {d}");
        }
    }
}
