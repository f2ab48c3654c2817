//! Fabrication-variation study — the paper's §I motivation for unified
//! training and inference, made measurable.
//!
//! > "digital models used at the time of training cannot capture all the
//! > manufacturing imperfections and variations of the physical hardware.
//! > The resulting mismatch between trained and implemented weights leads
//! > to sub-optimal accuracy at inference time."
//!
//! The experiment: train a network on *ideal* hardware (a stand-in for
//! digital training), deploy its weights onto chips whose rings carry
//! Gaussian resonance offsets, measure the accuracy drop, then fine-tune
//! *in-situ on the same imperfect chip* and measure the recovery. Sigma
//! points and the chip trials inside them fan out on the executor; every
//! chip draws its variation from `trial_identity(1000, trial)`, and the per-sigma
//! accuracy sums fold in trial order, so rows are bitwise identical at
//! any `TRIDENT_THREADS` setting (DESIGN.md §11).

use crate::engine::{EngineOptions, PhotonicMlp};
use crate::error::ArchError;
use crate::training::DualAdaptiveTrainer;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use trident_pcm::stat::StatParams;
use trident_photonics::units::Hours;
use trident_streams::trial_identity;

/// Base of the per-trial fabrication-identity seed space: chip `t` of a
/// variation study is `trial_identity(VARIATION_CHIP_BASE, t)`. Offset
/// from zero so study chips never collide with the engine's default
/// `variation_seed: 0` identity.
const VARIATION_CHIP_BASE: u64 = 1000;

/// Result at one variation magnitude.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationRow {
    /// Per-ring resonance offset σ in nanometres.
    pub sigma_nm: f64,
    /// Accuracy of ideally trained weights evaluated on ideal hardware.
    pub ideal_accuracy: f64,
    /// Mean accuracy of the same weights deployed on varied chips.
    pub deployed_accuracy: f64,
    /// Mean accuracy after in-situ fine-tuning on each varied chip.
    pub finetuned_accuracy: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl VariationRow {
    /// Accuracy lost to deployment mismatch.
    pub fn deployment_drop(&self) -> f64 {
        self.ideal_accuracy - self.deployed_accuracy
    }

    /// Fraction of the drop recovered by in-situ fine-tuning
    /// (0 when nothing was lost).
    pub fn recovery(&self) -> f64 {
        let drop = self.deployment_drop();
        if drop <= 1e-9 {
            return 1.0;
        }
        ((self.finetuned_accuracy - self.deployed_accuracy) / drop).clamp(0.0, 1.0)
    }
}

/// Configuration of the study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationStudy {
    /// Network layer widths.
    pub dims: Vec<usize>,
    /// Training epochs on the ideal chip.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs on each varied chip.
    pub finetune_epochs: usize,
    /// Learning rate for both phases.
    pub learning_rate: f64,
    /// Chips per sigma point.
    pub trials: usize,
}

impl Default for VariationStudy {
    fn default() -> Self {
        Self {
            dims: vec![64, 16, 10],
            pretrain_epochs: 12,
            finetune_epochs: 6,
            learning_rate: 0.1,
            trials: 3,
        }
    }
}

impl VariationStudy {
    /// Run the study over the given sigma points on a labelled dataset.
    pub fn run(
        &self,
        sigmas_nm: &[f64],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Vec<VariationRow>, ArchError> {
        // Phase 1: "digital" training on ideal hardware.
        let mut ideal = PhotonicMlp::try_with_options(
            &self.dims,
            EngineOptions { seed: 11, ..Default::default() },
        )?;
        ideal.try_train(xs, labels, self.learning_rate, self.pretrain_epochs)?;
        let ideal_accuracy = ideal.accuracy(xs, labels)?;
        let trained: Vec<Vec<f64>> =
            (0..ideal.layer_count()).map(|k| ideal.layer_weights(k).to_vec()).collect();

        // Phase 2+3: deploy and fine-tune on varied chips, in parallel
        // across sigma points and chip identities.
        sigmas_nm
            .par_iter()
            .map(|&sigma_nm| {
                let trials = (0..self.trials)
                    .into_par_iter()
                    .map(|trial| {
                        let mut chip = PhotonicMlp::try_with_options(
                            &self.dims,
                            EngineOptions {
                                seed: 11,
                                resonance_sigma_nm: sigma_nm,
                                variation_seed: trial_identity(
                                    VARIATION_CHIP_BASE,
                                    trial as u64,
                                ),
                                ..Default::default()
                            },
                        )?;
                        chip.try_deploy_weights(&trained)?;
                        let deployed = chip.accuracy(xs, labels)?;
                        chip.try_train(xs, labels, self.learning_rate, self.finetune_epochs)?;
                        let finetuned = chip.accuracy(xs, labels)?;
                        Ok((deployed, finetuned))
                    })
                    .collect::<Result<Vec<_>, ArchError>>()?;
                let (deployed_sum, finetuned_sum) =
                    trials.into_iter().fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
                Ok(VariationRow {
                    sigma_nm,
                    ideal_accuracy,
                    deployed_accuracy: deployed_sum / self.trials as f64,
                    finetuned_accuracy: finetuned_sum / self.trials as f64,
                    trials: self.trials,
                })
            })
            .collect()
    }
}

/// Result at one deployment age under the statistical device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftRow {
    /// Hours since the weights were programmed.
    pub hours: f64,
    /// Mean accuracy of the freshly programmed chips (programming noise
    /// only, zero drift) — the t = 0 reference every recovery chases.
    pub baseline_accuracy: f64,
    /// Mean accuracy after drifting for `hours` with no countermeasures.
    pub uncompensated_accuracy: f64,
    /// Mean accuracy after one reference-column calibration pass set the
    /// global compensation gain.
    pub compensated_accuracy: f64,
    /// Mean accuracy after the full dual-adaptive-training loop
    /// (error model + in-situ fine-tune + recalibration).
    pub adaptive_accuracy: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl DriftRow {
    /// Accuracy lost to uncompensated drift.
    pub fn drift_drop(&self) -> f64 {
        self.baseline_accuracy - self.uncompensated_accuracy
    }

    /// How far the full adaptive loop remains below the t = 0 baseline
    /// (negative when it ends up above it).
    pub fn residual_gap(&self) -> f64 {
        self.baseline_accuracy - self.adaptive_accuracy
    }
}

/// Temporal-drift deployment study: train once on an ideal chip, deploy
/// onto statistically noisy chips, let them drift for a set of deployment
/// ages, and measure accuracy with no countermeasures, with reference-
/// column compensation, and with full dual adaptive training.
///
/// Hour points and the chip trials inside them fan out on the executor;
/// every chip draws its device statistics from `stat.seed + trial`, and
/// the per-age accuracy sums fold in trial order, so rows are bitwise
/// identical at any `TRIDENT_THREADS` setting (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftStudy {
    /// Network layer widths.
    pub dims: Vec<usize>,
    /// Training epochs on the ideal chip.
    pub pretrain_epochs: usize,
    /// In-situ fine-tune epochs inside the adaptive loop.
    pub finetune_epochs: usize,
    /// Learning rate for both phases.
    pub learning_rate: f64,
    /// Chips per deployment age.
    pub trials: usize,
    /// Statistical device model applied to every deployed chip; `seed`
    /// acts as the base chip identity, offset per trial.
    pub stat: StatParams,
}

impl Default for DriftStudy {
    fn default() -> Self {
        Self {
            dims: vec![64, 16, 10],
            pretrain_epochs: 12,
            finetune_epochs: 4,
            learning_rate: 0.1,
            trials: 3,
            stat: StatParams::default(),
        }
    }
}

impl DriftStudy {
    /// Run the study over the given deployment ages (hours since
    /// programming) on a labelled dataset.
    pub fn run(
        &self,
        hour_points: &[f64],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<Vec<DriftRow>, ArchError> {
        // Phase 1: "digital" training on ideal, noise-free hardware.
        let mut ideal = PhotonicMlp::try_with_options(
            &self.dims,
            EngineOptions { seed: 11, ..Default::default() },
        )?;
        ideal.try_train(xs, labels, self.learning_rate, self.pretrain_epochs)?;
        let trained: Vec<Vec<f64>> =
            (0..ideal.layer_count()).map(|k| ideal.layer_weights(k).to_vec()).collect();

        // Phase 2: deploy onto statistical chips, drift, and recover —
        // in parallel across deployment ages and chip identities.
        hour_points
            .par_iter()
            .map(|&hours| {
                let trials = (0..self.trials)
                    .into_par_iter()
                    .map(|trial| {
                        let stat = StatParams {
                            seed: trial_identity(self.stat.seed, trial as u64),
                            ..self.stat
                        };
                        let mut chip = PhotonicMlp::try_with_options(
                            &self.dims,
                            EngineOptions { seed: 11, stat: Some(stat), ..Default::default() },
                        )?;
                        chip.try_deploy_weights(&trained)?;
                        let baseline = chip.accuracy(xs, labels)?;
                        chip.advance_deployment(Hours(hours));
                        let uncompensated = chip.accuracy(xs, labels)?;
                        chip.calibrate_drift_compensation();
                        let compensated = chip.accuracy(xs, labels)?;
                        let trainer = DualAdaptiveTrainer {
                            finetune_epochs: self.finetune_epochs,
                            learning_rate: self.learning_rate,
                            ..Default::default()
                        };
                        let outcome = trainer.adapt(&mut chip, xs, labels)?;
                        Ok((baseline, uncompensated, compensated, outcome.adapted_accuracy))
                    })
                    .collect::<Result<Vec<_>, ArchError>>()?;
                let sums = trials.into_iter().fold((0.0, 0.0, 0.0, 0.0), |a, b| {
                    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
                });
                let n = self.trials as f64;
                Ok(DriftRow {
                    hours,
                    baseline_accuracy: sums.0 / n,
                    uncompensated_accuracy: sums.1 / n,
                    compensated_accuracy: sums.2 / n,
                    adaptive_accuracy: sums.3 / n,
                    trials: self.trials,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_nn::data::synthetic_digits;

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 99);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn zero_variation_deploys_losslessly() {
        let (xs, labels) = digit_data(2);
        let study = VariationStudy {
            pretrain_epochs: 8,
            finetune_epochs: 2,
            trials: 1,
            ..Default::default()
        };
        let rows = study.run(&[0.0], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(
            (r.deployed_accuracy - r.ideal_accuracy).abs() < 0.11,
            "σ=0 deployment should be near-lossless: ideal {} vs deployed {}",
            r.ideal_accuracy,
            r.deployed_accuracy
        );
    }

    #[test]
    fn variation_degrades_and_finetuning_recovers() {
        let (xs, labels) = digit_data(3);
        let study = VariationStudy {
            pretrain_epochs: 10,
            finetune_epochs: 6,
            trials: 2,
            ..Default::default()
        };
        // A fifth of the 0.2 nm linewidth: enough to hurt, not enough to
        // kill the optics outright (at ~half a linewidth the rings detune
        // so far that no amount of reprogramming recovers — also physical,
        // and covered by the sweep binary).
        let rows = study.run(&[0.04], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(r.ideal_accuracy > 0.7, "pretraining should work: {}", r.ideal_accuracy);
        assert!(
            r.deployment_drop() > 0.1,
            "variation should hurt deployed accuracy: ideal {} deployed {}",
            r.ideal_accuracy,
            r.deployed_accuracy
        );
        assert!(
            r.finetuned_accuracy > r.deployed_accuracy + 0.05,
            "in-situ fine-tuning should recover accuracy: {} -> {}",
            r.deployed_accuracy,
            r.finetuned_accuracy
        );
    }

    #[test]
    fn drift_degrades_and_the_dual_loop_recovers() {
        let (xs, labels) = digit_data(3);
        let study = DriftStudy { trials: 1, ..Default::default() };
        let rows = study.run(&[720.0], &xs, &labels).unwrap();
        let r = &rows[0];
        assert!(r.baseline_accuracy > 0.7, "fresh deployment should work: {}", r.baseline_accuracy);
        assert!(
            r.drift_drop() > 0.1,
            "a month of drift should hurt: baseline {} uncompensated {}",
            r.baseline_accuracy,
            r.uncompensated_accuracy
        );
        assert!(
            r.compensated_accuracy > r.uncompensated_accuracy,
            "gain compensation should claw accuracy back: {} -> {}",
            r.uncompensated_accuracy,
            r.compensated_accuracy
        );
        assert!(
            r.residual_gap() <= 0.01,
            "dual adaptive training should land within a point of t=0: baseline {} adaptive {}",
            r.baseline_accuracy,
            r.adaptive_accuracy
        );
    }

    #[test]
    fn drift_study_is_deterministic() {
        let (xs, labels) = digit_data(1);
        let study = DriftStudy {
            pretrain_epochs: 4,
            finetune_epochs: 1,
            trials: 2,
            ..Default::default()
        };
        let a = study.run(&[24.0], &xs, &labels).unwrap();
        let b = study.run(&[24.0], &xs, &labels).unwrap();
        assert_eq!(a, b, "same seeds must reproduce the same rows bitwise");
    }

    #[test]
    fn larger_variation_hurts_more() {
        let (xs, labels) = digit_data(2);
        let study = VariationStudy {
            pretrain_epochs: 8,
            finetune_epochs: 0,
            trials: 2,
            ..Default::default()
        };
        let rows = study.run(&[0.02, 0.15], &xs, &labels).unwrap();
        assert!(
            rows[0].deployed_accuracy >= rows[1].deployed_accuracy - 0.05,
            "σ=0.02 ({}) should deploy no worse than σ=0.15 ({})",
            rows[0].deployed_accuracy,
            rows[1].deployed_accuracy
        );
    }
}
