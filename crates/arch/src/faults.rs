//! Fault injection and graceful-degradation campaigns.
//!
//! The paper's reliability story is implicit — "endurance is not a
//! concern" (§III-C) and in-situ training absorbing hardware imperfection
//! (§I) — but an edge accelerator deployed for years *will* accumulate
//! device faults: GST cells stuck in one phase (segregation / void
//! formation after heavy cycling), rings knocked off the bus entirely,
//! pump lasers drooping with age, and slow amorphous-phase drift. This
//! module makes those failure modes injectable, measurable, and —
//! together with the bank's remap/mask machinery and the engine's in-situ
//! fine-tuning — recoverable:
//!
//! * [`FaultPlan`] — a seedable description of a fault population, either
//!   given directly as per-ring probabilities or sampled from a projected
//!   [`EnduranceReport`](crate::endurance::EnduranceReport);
//! * [`FaultReport`] — what [`PhotonicMlp::inject_faults`] actually
//!   injected;
//! * [`FaultCampaign`] — the end-to-end experiment: pretrain on a healthy
//!   chip, inject faults, measure the accuracy drop, fine-tune in situ on
//!   the faulted chip (through the closed-loop program-and-verify write
//!   path), and measure the recovery.
//!
//! Campaigns fan out on the executor twice — across fault plans, and
//! across chip trials inside each plan (the nested region shrinks its
//! split to stay inside the `TRIDENT_THREADS` budget). Each trial seeds
//! its own chip from `plan.seed + trial` and the trial sums fold in trial
//! order, so campaign rows are bitwise identical at any thread count
//! (DESIGN.md §11).

use crate::endurance::EnduranceReport;
use crate::engine::{EngineOptions, PhotonicMlp};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A seedable fault population. All rates are per-ring probabilities in
/// `[0, 1]`; the same plan + seed always injects the same faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that a GST cell is stuck fully amorphous (reads as
    /// weight +1 and rejects writes).
    pub stuck_amorphous: f64,
    /// Probability that a GST cell is stuck fully crystalline (weight −1).
    pub stuck_crystalline: f64,
    /// Probability that a ring is dead outright (delaminated heater,
    /// broken coupler) and must be masked off the bus.
    pub dead_rings: f64,
    /// Years of amorphous-phase crystallinity drift applied to every cell.
    pub drift_years: f64,
    /// Fractional pump-laser power droop applied to every PE, `[0, 1)`.
    pub laser_droop: f64,
    /// Seed of the fault draw (a deployment identity).
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            stuck_amorphous: 0.0,
            stuck_crystalline: 0.0,
            dead_rings: 0.0,
            drift_years: 0.0,
            laser_droop: 0.0,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// A plan with `rate` of all cells stuck, split between the phases
    /// (void formation pins most wear-out failures near the amorphous
    /// state, so the split leans 70/30).
    pub fn stuck_cells(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        Self { stuck_amorphous: 0.7 * rate, stuck_crystalline: 0.3 * rate, seed, ..Self::default() }
    }

    /// Sample the fault population expected after `years` of the wear
    /// projected by an [`EnduranceReport`]. Cell endurance is spread
    /// around its rating, so stuck cells appear gradually as the busiest
    /// cells approach their budget (quadratic onset, saturating at 1);
    /// drift accumulates over the same period.
    pub fn from_endurance(report: &EnduranceReport, years: f64, seed: u64) -> Self {
        assert!(years >= 0.0, "cannot project backwards");
        let wear = years / report.weight_lifetime_years.max(1e-12);
        let stuck = (0.5 * wear * wear).clamp(0.0, 1.0);
        Self {
            stuck_amorphous: 0.7 * stuck,
            stuck_crystalline: 0.3 * stuck,
            drift_years: years,
            seed,
            ..Self::default()
        }
    }

    /// The expected fraction of rings carrying a hard fault (stuck either
    /// way, or dead).
    pub fn hard_fault_rate(&self) -> f64 {
        (self.stuck_amorphous + self.stuck_crystalline + self.dead_rings).min(1.0)
    }
}

/// What [`PhotonicMlp::inject_faults`] actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Cells pinned fully amorphous.
    pub stuck_amorphous: usize,
    /// Cells pinned fully crystalline.
    pub stuck_crystalline: usize,
    /// Rings masked dead.
    pub dead_rings: usize,
    /// Rings in the engine (across every PE).
    pub total_rings: usize,
    /// Laser droop applied to every PE.
    pub laser_droop: f64,
    /// Drift years applied to every cell.
    pub drift_years: f64,
}

impl FaultReport {
    /// Fraction of rings carrying a hard fault.
    pub fn hard_fault_fraction(&self) -> f64 {
        if self.total_rings == 0 {
            return 0.0;
        }
        (self.stuck_amorphous + self.stuck_crystalline + self.dead_rings) as f64
            / self.total_rings as f64
    }
}

/// Result at one fault-plan point of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignRow {
    /// The plan template evaluated (trial seeds vary per chip).
    pub plan: FaultPlan,
    /// Mean fraction of rings that actually drew a hard fault.
    pub hard_fault_fraction: f64,
    /// Accuracy of the pretrained weights on a healthy chip.
    pub ideal_accuracy: f64,
    /// Mean accuracy right after fault injection.
    pub faulted_accuracy: f64,
    /// Mean accuracy after in-situ fine-tuning on the faulted chips.
    pub finetuned_accuracy: f64,
    /// Mean closed-loop write failures per chip during fine-tuning.
    pub write_failures: f64,
    /// Mean cells remapped onto spares per chip.
    pub remapped: f64,
    /// Mean slots masked dead per chip (injected + degraded).
    pub masked: f64,
    /// Chips simulated.
    pub trials: usize,
}

impl FaultCampaignRow {
    /// Accuracy lost to the injected faults.
    pub fn fault_drop(&self) -> f64 {
        self.ideal_accuracy - self.faulted_accuracy
    }

    /// Fraction of the drop recovered by in-situ fine-tuning
    /// (1 when nothing was lost).
    pub fn recovery(&self) -> f64 {
        let drop = self.fault_drop();
        if drop <= 1e-9 {
            return 1.0;
        }
        ((self.finetuned_accuracy - self.faulted_accuracy) / drop).clamp(0.0, 1.0)
    }
}

/// Configuration of a fault-injection campaign (mirrors
/// [`VariationStudy`](crate::variation::VariationStudy)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaign {
    /// Network layer widths.
    pub dims: Vec<usize>,
    /// Training epochs on the healthy chip.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs on each faulted chip.
    pub finetune_epochs: usize,
    /// Learning rate for both phases.
    pub learning_rate: f64,
    /// Chips (fault-draw seeds) per plan point.
    pub trials: usize,
}

impl Default for FaultCampaign {
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

impl FaultCampaign {
    /// Run the campaign over the given fault plans on a labelled dataset.
    /// Deterministic: chip `t` of a plan draws faults from
    /// `plan.seed + t`.
    pub fn run(
        &self,
        plans: &[FaultPlan],
        xs: &[Vec<f64>],
        labels: &[usize],
    ) -> Vec<FaultCampaignRow> {
        // Phase 1: pretrain once on a healthy chip.
        let mut ideal = PhotonicMlp::with_options(
            &self.dims,
            EngineOptions { seed: 11, ..Default::default() },
        );
        ideal.train(xs, labels, self.learning_rate, self.pretrain_epochs);
        let ideal_accuracy = ideal.accuracy(xs, labels);
        let trained: Vec<Vec<f64>> =
            (0..ideal.layer_count()).map(|k| ideal.layer_weights(k).to_vec()).collect();

        // Phases 2–4 per plan point, chips in parallel: deploy, break,
        // measure, fine-tune in situ, measure again.
        plans
            .par_iter()
            .map(|&plan| {
                let sums = (0..self.trials)
                    .into_par_iter()
                    .map(|trial| {
                        let mut chip = PhotonicMlp::with_options(
                            &self.dims,
                            EngineOptions { seed: 11, ..Default::default() },
                        );
                        for (k, w) in trained.iter().enumerate() {
                            chip.set_layer_weights(k, w);
                        }
                        let trial_plan =
                            FaultPlan { seed: plan.seed + trial as u64, ..plan };
                        let report = chip.inject_faults(&trial_plan);
                        // Measure the raw hit first: stuck cells hold
                        // their frozen weights and dead rings read zero.
                        // Recovery then comes from the first verified
                        // reprogram (remap/mask) plus in-situ fine-tuning.
                        let faulted = chip.accuracy(xs, labels);
                        chip.train(xs, labels, self.learning_rate, self.finetune_epochs);
                        let finetuned = chip.accuracy(xs, labels);
                        (
                            report.hard_fault_fraction(),
                            faulted,
                            finetuned,
                            chip.write_failures() as f64,
                            chip.remapped_rings() as f64,
                            chip.masked_rings() as f64,
                        )
                    })
                    .reduce(
                        || (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                        |a, b| {
                            (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3, a.4 + b.4, a.5 + b.5)
                        },
                    );
                let n = self.trials as f64;
                FaultCampaignRow {
                    plan,
                    hard_fault_fraction: sums.0 / n,
                    ideal_accuracy,
                    faulted_accuracy: sums.1 / n,
                    finetuned_accuracy: sums.2 / n,
                    write_failures: sums.3 / n,
                    remapped: sums.4 / n,
                    masked: sums.5 / n,
                    trials: self.trials,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TridentConfig;
    use crate::endurance::{budget, UsageProfile};
    use trident_nn::data::synthetic_digits;
    use trident_workload::zoo;

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 99);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn plans_are_deterministic_in_their_seed() {
        let plan = FaultPlan::stuck_cells(0.05, 42);
        let mut a = PhotonicMlp::new(&[16, 8, 4], 1, None, 8);
        let mut b = PhotonicMlp::new(&[16, 8, 4], 1, None, 8);
        let ra = a.inject_faults(&plan);
        let rb = b.inject_faults(&plan);
        assert_eq!(ra, rb, "same plan + seed must inject identical faults");
        let mut c = PhotonicMlp::new(&[16, 8, 4], 1, None, 8);
        let rc = c.inject_faults(&FaultPlan { seed: 43, ..plan });
        assert_ne!(
            (ra.stuck_amorphous, ra.stuck_crystalline),
            (rc.stuck_amorphous, rc.stuck_crystalline),
            "a different seed should draw a different population"
        );
    }

    #[test]
    fn endurance_sampled_plans_scale_with_age() {
        let config = TridentConfig::paper();
        let report = budget(&config, &zoo::vgg16(), &UsageProfile::heavy_edge());
        let young = FaultPlan::from_endurance(&report, 1.0, 7);
        let old = FaultPlan::from_endurance(
            &report,
            report.weight_lifetime_years * 1.2,
            7,
        );
        assert!(young.hard_fault_rate() < old.hard_fault_rate());
        assert!(old.hard_fault_rate() > 0.5, "past-lifetime wear should be severe");
        assert!((young.drift_years - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faults_degrade_and_finetuning_recovers() {
        let (xs, labels) = digit_data(3);
        let campaign = FaultCampaign {
            pretrain_epochs: 10,
            finetune_epochs: 6,
            trials: 2,
            ..Default::default()
        };
        // 6% stuck cells: a heavily worn chip. Stuck rings hold weights
        // of ±1, so the deployed matrices are visibly corrupted.
        let rows = campaign.run(&[FaultPlan::stuck_cells(0.06, 5)], &xs, &labels);
        let r = &rows[0];
        assert!(r.ideal_accuracy > 0.7, "pretraining should work: {}", r.ideal_accuracy);
        assert!(r.hard_fault_fraction > 0.01, "≥1% of rings must be faulty");
        assert!(
            r.fault_drop() > 0.1,
            "stuck cells should hurt accuracy: ideal {} faulted {}",
            r.ideal_accuracy,
            r.faulted_accuracy
        );
        assert!(
            r.finetuned_accuracy > r.faulted_accuracy + 0.05,
            "in-situ fine-tuning should claw accuracy back: {} -> {}",
            r.faulted_accuracy,
            r.finetuned_accuracy
        );
        assert!(
            r.remapped > 0.0 || r.masked > 0.0,
            "degradation machinery should have engaged"
        );
    }

    #[test]
    fn laser_droop_alone_is_mostly_survivable() {
        let (xs, labels) = digit_data(2);
        let campaign = FaultCampaign {
            pretrain_epochs: 8,
            finetune_epochs: 2,
            trials: 1,
            ..Default::default()
        };
        let plan = FaultPlan { laser_droop: 0.1, seed: 3, ..FaultPlan::default() };
        let rows = campaign.run(&[plan], &xs, &labels);
        let r = &rows[0];
        // A 10% uniform power droop rescales logits but rarely reorders
        // them; the class decision mostly survives.
        assert!(
            r.faulted_accuracy > r.ideal_accuracy - 0.25,
            "droop alone should not collapse accuracy: ideal {} faulted {}",
            r.ideal_accuracy,
            r.faulted_accuracy
        );
    }
}
