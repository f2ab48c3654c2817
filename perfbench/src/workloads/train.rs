//! `train`: closed-loop in-situ training on seeded synthetic digits.
//! Every sample reprograms the PCM banks, so this is the write-heavy use
//! of `pcm`, `arch::bank` and `arch::pe`.

use super::{digits, sub_seed, Modelled, Workload};
use crate::meter::{logit_tol, Meter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident::arch::conv_engine::PhotonicCnn;
use trident::arch::engine::{EngineOptions, PhotonicMlp};
use trident::pcm::stat::StatParams;

const DIMS: [usize; 3] = [64, 16, 10];
const LR: f64 = 0.1;
const CNN_LR: f64 = 0.05;
const BATCH: usize = 8;
/// Calls per training episode: ten rounds of the four op kinds. Each
/// episode starts from freshly drawn initial weights, so the stream is
/// stationary and a run averages over many initialisations — without
/// it, later samples change fewer cells as the loss falls, and host cost
/// would drift with run length and with the one initialisation a seed
/// drew.
const EPISODE: usize = 40;
/// The first episode carries the checks and the modelled outputs.
const PREFIX: usize = EPISODE;
/// Samples the photonic-vs-digital check compares after the prefix.
const CHECK_SAMPLES: usize = 8;

pub struct Train {
    xs: Vec<Vec<f64>>,
    labels: Vec<usize>,
    /// Ideal engine: per-sample (kind 0) and mini-batch (kind 1) steps.
    mlp: PhotonicMlp,
    /// Engine with the statistical PCM model and fabrication variation
    /// (kind 3).
    mlp_stat: PhotonicMlp,
    /// Kind 2.
    cnn: PhotonicCnn,
    seed: u64,
    cursor: usize,
    calls: usize,
    energy_pj: f64,
    mlp_sim_ns: f64,
    mlp_samples: u64,
    samples: u64,
}

fn new_cnn(seed: u64) -> PhotonicCnn {
    PhotonicCnn::new(1, 8, 8, 4, 3, 10, seed, 8)
}

/// Xavier-uniform weights for `DIMS`, the distribution the engine draws
/// its own initialisation from.
fn xavier(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    DIMS.windows(2)
        .map(|io| {
            let limit = (6.0 / (io[0] + io[1]) as f64).sqrt().min(1.0);
            (0..io[0] * io[1])
                .map(|_| rng.gen_range(-limit..limit))
                .collect()
        })
        .collect()
}

impl Train {
    pub fn setup(seed: u64, m: &mut Meter) -> Result<Self, String> {
        let (xs, labels) = digits(20, sub_seed(seed, 1));
        let opts = EngineOptions {
            seed: sub_seed(seed, 2),
            ..Default::default()
        };
        let mlp = m
            .stage(None, "arch.build", 0, || {
                PhotonicMlp::try_with_options(&DIMS, opts)
            })
            .map_err(|e| e.to_string())?;
        let stat_opts = EngineOptions {
            seed: sub_seed(seed, 3),
            resonance_sigma_nm: 0.02,
            variation_seed: sub_seed(seed, 4),
            stat: Some(StatParams {
                seed: sub_seed(seed, 5),
                ..Default::default()
            }),
            ..Default::default()
        };
        let mlp_stat = m
            .stage(None, "arch.build", 0, || {
                PhotonicMlp::try_with_options(&DIMS, stat_opts)
            })
            .map_err(|e| e.to_string())?;
        let cnn = m.stage(None, "arch.build", 0, || new_cnn(sub_seed(seed, 6)));
        Ok(Self {
            xs,
            labels,
            mlp,
            mlp_stat,
            cnn,
            seed,
            cursor: 0,
            calls: 0,
            energy_pj: 0.0,
            mlp_sim_ns: 0.0,
            mlp_samples: 0,
            samples: 0,
        })
    }

    fn next_index(&mut self, n: usize) -> usize {
        if self.cursor + n > self.xs.len() {
            self.cursor = 0;
        }
        let j = self.cursor;
        self.cursor += n;
        j
    }

    fn energy(&self) -> f64 {
        (self.mlp.total_energy() + self.mlp_stat.total_energy() + self.cnn.total_energy()).value()
    }

    fn mlp_elapsed(&self) -> f64 {
        (self.mlp.total_elapsed() + self.mlp_stat.total_elapsed()).value()
    }

    /// After the prefix: both ideal engines still match their digital
    /// twins, and the trained weights join the digest.
    fn close_prefix(&mut self, m: &mut Meter) {
        for j in 0..CHECK_SAMPLES {
            let x = &self.xs[j];
            match self.mlp.try_forward(x) {
                Ok(y) => m.twin(
                    "train.mlp",
                    &y,
                    &self.mlp.digital_forward(x),
                    logit_tol(DIMS[0]),
                ),
                Err(e) => m.fail(format!("train: MLP forward: {e}")),
            }
            let tol = logit_tol(self.cnn.feature_count());
            m.twin(
                "train.cnn",
                &self.cnn.forward(x),
                &self.cnn.digital_forward(x),
                tol,
            );
        }
        for w in self
            .mlp
            .snapshot_weights()
            .iter()
            .chain(&self.mlp_stat.snapshot_weights())
        {
            m.digest.f64s(w);
        }
        m.digest.f64s(self.cnn.conv_weights());
    }
}

impl Workload for Train {
    fn call(&mut self, i: usize, m: &mut Meter) -> u64 {
        if i > 0 && i.is_multiple_of(EPISODE) {
            // Untimed: a fresh start is set-up work, not a training step.
            let e = (i / EPISODE) as u64;
            for (k, engine) in [&mut self.mlp, &mut self.mlp_stat].into_iter().enumerate() {
                if let Err(err) =
                    engine.try_deploy_weights(&xavier(sub_seed(self.seed, e << 2 | k as u64)))
                {
                    m.fail(format!("train: redeploy before call {i}: {err}"));
                }
            }
            self.cnn = new_cnn(sub_seed(self.seed, e << 2 | 2));
        }
        let prefix = i < PREFIX;
        let (e0, s0) = if prefix {
            (self.energy(), self.mlp_elapsed())
        } else {
            (0.0, 0.0)
        };
        let kind = i % 4;
        let ops = if kind == 1 { BATCH } else { 1 };
        let j = self.next_index(ops);
        let (x, label) = (&self.xs[j], self.labels[j]);
        let losses: Result<Vec<f64>, String> = match kind {
            0 => m
                .stage(Some(0), "arch.mlp.train_sample", 1, || {
                    self.mlp.try_train_sample(x, label, LR)
                })
                .map(|l| vec![l])
                .map_err(|e| e.to_string()),
            1 => {
                let (xs, ls) = (&self.xs[j..j + BATCH], &self.labels[j..j + BATCH]);
                m.stage(Some(1), "arch.mlp.train_batched", BATCH as u64, || {
                    self.mlp.try_train_batched(xs, ls, LR, 1, BATCH)
                })
                .map(|o| o.loss_history)
                .map_err(|e| e.to_string())
            }
            2 => Ok(vec![m.stage(Some(2), "arch.cnn.train_sample", 1, || {
                self.cnn.train_sample(x, label, CNN_LR)
            })]),
            _ => m
                .stage(Some(3), "arch.mlp.train_sample", 1, || {
                    self.mlp_stat.try_train_sample(x, label, LR)
                })
                .map(|l| vec![l])
                .map_err(|e| e.to_string()),
        };
        match &losses {
            Ok(l) => m.check(l.iter().all(|v| v.is_finite()), || {
                format!("train: call {i} loss {l:?}")
            }),
            Err(e) => m.fail(format!("train: call {i}: {e}")),
        }
        if prefix {
            if let Ok(l) = &losses {
                m.digest.f64s(l);
            }
            self.energy_pj += self.energy() - e0;
            if kind != 2 {
                self.mlp_sim_ns += self.mlp_elapsed() - s0;
                self.mlp_samples += ops as u64;
            }
            self.samples += ops as u64;
        }
        self.calls = i + 1;
        if self.calls == PREFIX {
            self.close_prefix(m);
        }
        ops as u64
    }

    fn in_prefix(&self) -> bool {
        self.calls < PREFIX
    }

    fn round_calls(&self) -> usize {
        4
    }

    fn modelled(&self) -> Modelled {
        Modelled {
            uj_per_op: self.energy_pj * 1e-6 / self.samples as f64,
            ops_per_s: self.mlp_samples as f64 / (self.mlp_sim_ns * 1e-9),
            extra: Vec::new(),
        }
    }
}
