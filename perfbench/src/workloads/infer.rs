//! `infer`: closed-loop inference on engines programmed during set-up —
//! the read-heavy use of the same banks. Only GPT decode writes PCM in
//! the timed phase (its KV-cache share).

use super::{digits, sub_seed, Modelled, Workload};
use crate::meter::{logit_tol, Meter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use trident::arch::conv_engine::PhotonicCnn;
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::arch::transformer::{PhotonicTransformer, TransformerConfig};
use trident::workload::KvCachePlan;

const DIMS: [usize; 3] = [64, 16, 10];
const BATCH: usize = 8;
/// Token sequences in the input pool.
const SEQUENCES: usize = 32;
/// Ten cycles of the four op kinds carry the checks and the modelled
/// outputs.
const PREFIX: usize = 40;

pub struct Infer {
    digits: Vec<Vec<f64>>,
    /// Flat `max_seq × d_model` token sequences in [-1, 1].
    sequences: Vec<Vec<f64>>,
    mlp: PhotonicMlp,
    cnn: PhotonicCnn,
    vit: PhotonicTransformer,
    gpt: PhotonicTransformer,
    kv: KvCachePlan,
    /// Inputs taken so far: digit images, token sequences.
    image: usize,
    sequence: usize,
    calls: usize,
    energy_pj: f64,
    sim_ns: f64,
    timed_ops: u64,
    ops: u64,
}

fn transformer(cfg: TransformerConfig, m: &mut Meter) -> Result<PhotonicTransformer, String> {
    m.stage(None, "arch.build", 0, || PhotonicTransformer::try_new(cfg))
        .map_err(|e| e.to_string())
}

impl Infer {
    pub fn setup(seed: u64, m: &mut Meter) -> Result<Self, String> {
        let (digits, _) = digits(8, sub_seed(seed, 1));
        let vit_cfg = TransformerConfig {
            seed: sub_seed(seed, 4),
            ..TransformerConfig::tiny_vit()
        };
        let gpt_cfg = TransformerConfig {
            seed: sub_seed(seed, 5),
            ..TransformerConfig::tiny_gpt()
        };
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
        let sequences = (0..SEQUENCES)
            .map(|_| {
                (0..vit_cfg.input_width())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect()
            })
            .collect();
        let kv = KvCachePlan {
            d_model: gpt_cfg.d_model,
            layers: gpt_cfg.depth,
            tokens: gpt_cfg.max_seq,
        };
        let opts = EngineOptions {
            seed: sub_seed(seed, 2),
            ..Default::default()
        };
        let mut mlp = m
            .stage(None, "arch.build", 0, || {
                PhotonicMlp::try_with_options(&DIMS, opts)
            })
            .map_err(|e| e.to_string())?;
        mlp.reserve_forward_scratch(BATCH);
        let mut cnn = m.stage(None, "arch.build", 0, || {
            PhotonicCnn::new(1, 8, 8, 4, 3, 10, sub_seed(seed, 3), 8)
        });
        cnn.reserve_forward_scratch(1);
        Ok(Self {
            digits,
            sequences,
            mlp,
            cnn,
            vit: transformer(vit_cfg, m)?,
            gpt: transformer(gpt_cfg, m)?,
            kv,
            image: 0,
            sequence: 0,
            calls: 0,
            energy_pj: 0.0,
            sim_ns: 0.0,
            timed_ops: 0,
            ops: 0,
        })
    }

    fn energy(&self) -> f64 {
        (self.mlp.total_energy()
            + self.cnn.total_energy()
            + self.vit.total_energy()
            + self.gpt.total_energy())
        .value()
    }

    /// Modelled time of the engines that keep a clock (the CNN does not).
    fn elapsed(&self) -> f64 {
        (self.mlp.total_elapsed() + self.vit.total_elapsed() + self.gpt.total_elapsed()).value()
    }

    fn mlp_batch(&mut self, check: bool, m: &mut Meter) -> Result<Vec<Vec<f64>>, String> {
        let j = self.image % (self.digits.len() - BATCH);
        self.image += BATCH;
        let batch = &self.digits[j..j + BATCH];
        let t0 = Instant::now();
        let out = self
            .mlp
            .try_forward_batch(batch, true)
            .map_err(|e| e.to_string());
        m.record(Some(0), "arch.mlp.forward_batch", BATCH as u64, t0);
        let out = out?.to_vec();
        if check {
            for (x, y) in batch.iter().zip(&out) {
                m.twin(
                    "infer.mlp",
                    y,
                    &self.mlp.digital_forward(x),
                    logit_tol(DIMS[0]),
                );
            }
        }
        Ok(out)
    }

    fn gpt_context(
        &mut self,
        seq: usize,
        check: bool,
        m: &mut Meter,
    ) -> Result<Vec<Vec<f64>>, String> {
        let d = self.gpt.config().d_model;
        let (w0, r0) = (self.gpt.kv_cache_writes(), self.gpt.kv_cache_reads());
        let tokens = &self.sequences[seq];
        let t0 = Instant::now();
        self.gpt.reset_cache();
        let logits: Result<Vec<Vec<f64>>, _> = tokens
            .chunks(d)
            .map(|tok| self.gpt.try_decode_token(tok))
            .collect();
        m.record(Some(3), "arch.gpt.decode_token", self.kv.tokens as u64, t0);
        let logits = logits.map_err(|e| e.to_string())?;
        let (writes, reads) = (
            self.gpt.kv_cache_writes() - w0,
            self.gpt.kv_cache_reads() - r0,
        );
        m.check(
            writes == self.kv.total_writes() && reads == self.kv.total_reads(),
            || {
                format!(
                    "infer: KV traffic {writes}/{reads} vs closed form {}/{}",
                    self.kv.total_writes(),
                    self.kv.total_reads()
                )
            },
        );
        if check {
            let twin = self
                .gpt
                .digital_forward_causal(tokens)
                .map_err(|e| e.to_string())?;
            m.check(twin.len() == logits.len(), || {
                "infer: GPT twin length".to_string()
            });
            for (p, dg) in logits.iter().zip(&twin) {
                m.twin("infer.gpt", p, dg, logit_tol(self.gpt.config().d_ff));
            }
        }
        Ok(logits)
    }
}

impl Workload for Infer {
    fn call(&mut self, i: usize, m: &mut Meter) -> u64 {
        let prefix = i < PREFIX;
        let (e0, s0) = if prefix {
            (self.energy(), self.elapsed())
        } else {
            (0.0, 0.0)
        };
        let kind = i % 4;
        let seq = self.sequence % SEQUENCES;
        let out: Result<Vec<Vec<f64>>, String> = match kind {
            0 => self.mlp_batch(prefix, m),
            1 => {
                self.image += 1;
                let x = &self.digits[self.image % self.digits.len()];
                let y = m.stage(Some(1), "arch.cnn.forward", 1, || self.cnn.forward(x));
                if prefix {
                    let tol = logit_tol(self.cnn.feature_count());
                    m.twin("infer.cnn", &y, &self.cnn.digital_forward(x), tol);
                }
                Ok(vec![y])
            }
            2 => {
                let x = &self.sequences[seq];
                let y = m
                    .stage(Some(2), "arch.vit.forward_classify", 1, || {
                        self.vit.try_forward_classify(x)
                    })
                    .map_err(|e| e.to_string());
                if let (true, Ok(y)) = (prefix, &y) {
                    match self.vit.digital_forward_classify(x) {
                        Ok(d) => m.twin("infer.vit", y, &d, logit_tol(self.vit.config().d_ff)),
                        Err(e) => m.fail(format!("infer: ViT twin: {e}")),
                    }
                }
                y.map(|y| vec![y])
            }
            _ => self.gpt_context(seq, prefix, m),
        };
        let ops = [BATCH, 1, 1, self.kv.tokens][kind] as u64;
        match out {
            Ok(rows) => {
                m.check(rows.iter().flatten().all(|v| v.is_finite()), || {
                    format!("infer: call {i} non-finite")
                });
                if prefix {
                    rows.iter().for_each(|r| m.digest.f64s(r));
                    self.energy_pj += self.energy() - e0;
                    if kind != 1 {
                        self.sim_ns += self.elapsed() - s0;
                        self.timed_ops += ops;
                    }
                    self.ops += ops;
                }
            }
            Err(e) => m.fail(format!("infer: call {i}: {e}")),
        }
        if kind == 3 {
            self.sequence += 1;
        }
        self.calls = i + 1;
        ops
    }

    fn in_prefix(&self) -> bool {
        self.calls < PREFIX
    }

    fn round_calls(&self) -> usize {
        4
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            uj_per_op: self.energy_pj * 1e-6 / self.ops as f64,
            ops_per_s: self.timed_ops as f64 / (self.sim_ns * 1e-9),
            extra: Vec::new(),
        }
    }
}
