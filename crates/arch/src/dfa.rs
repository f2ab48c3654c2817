//! Direct Feedback Alignment (DFA) on the photonic hardware.
//!
//! §VI of the paper discusses Filipovich et al. \[9\], which trains
//! photonic networks with DFA instead of backpropagation: the error `e`
//! at the output is projected straight to every hidden layer through
//! *fixed random* feedback matrices `B_k`,
//!
//! ```text
//! δh_k = (B_k · e) ⊙ f'(h_k)
//! ```
//!
//! instead of the chained `W_{k+1}ᵀ δh_{k+1}`. Photonic appeal: the `B_k`
//! banks are programmed **once** and never retuned — no `Wᵀ` programming
//! sweep per step. The paper's counterpoint (citing \[35\]) is that DFA
//! underperforms true backpropagation, especially for convolutional
//! layers. This module implements DFA on the same simulated hardware so
//! the trade-off is measurable: see the `ablation_dfa` binary and the
//! tests below.

use crate::engine::PhotonicMlp;
use crate::tiled::{self, TileSeed, TiledMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trident_photonics::units::EnergyPj;

/// Fixed random feedback banks for a network's hidden layers.
pub struct DfaFeedback {
    /// `B_k` for each hidden layer `k` (row-major `[hidden_k × classes]`).
    matrices: Vec<Vec<f64>>,
    /// Dedicated PE grids holding each `B_k`, programmed once.
    banks: Vec<TiledMatrix>,
}

impl DfaFeedback {
    /// Build feedback banks for `engine`'s hidden layers, seeded from
    /// `seed`, and program them (a one-time optical cost).
    pub fn for_engine(engine: &PhotonicMlp, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = engine.layer_dims(engine.layer_count() - 1).0;
        let mut matrices = Vec::new();
        let mut banks = Vec::new();
        for k in 0..engine.layer_count() - 1 {
            let (hidden, _) = engine.layer_dims(k);
            // Feedback entries on the photonic weight scale.
            let limit = (1.0 / classes as f64).sqrt();
            let b: Vec<f64> =
                (0..hidden * classes).map(|_| rng.gen_range(-limit..limit)).collect();
            let mut bank = TiledMatrix::new(hidden, classes, |_| TileSeed::default());
            bank.program(&b);
            matrices.push(b);
            banks.push(bank);
        }
        Self { matrices, banks }
    }

    /// Number of hidden layers covered.
    pub fn layer_count(&self) -> usize {
        self.matrices.len()
    }

    /// One-time optical programming energy of all feedback banks.
    pub fn programming_energy(&self) -> EnergyPj {
        tiled::programming_energy(&self.banks)
    }

    /// Photonic projection `B_k · e` (signed MVM over the feedback bank).
    pub fn project(&mut self, k: usize, error: &[f64]) -> Vec<f64> {
        assert_eq!(error.len(), self.banks[k].in_dim(), "error width mismatch");
        let mut v = Vec::new();
        self.banks[k].mvm_signed(error, &mut v, None);
        v
    }

    /// The exact `B_k` matrix (for verification tests).
    pub fn matrix(&self, k: usize) -> &[f64] {
        &self.matrices[k]
    }
}

/// One DFA training step on `engine` using `feedback`. Returns the loss.
///
/// Identical to [`PhotonicMlp::train_sample`] except the gradient-vector
/// phase: each hidden layer's error arrives via its fixed feedback bank
/// (no `Wᵀ` reprogramming sweeps).
pub fn train_sample_dfa(
    engine: &mut PhotonicMlp,
    feedback: &mut DfaFeedback,
    x: &[f64],
    label: usize,
    learning_rate: f64,
) -> f64 {
    engine.train_sample_with_feedback(x, label, learning_rate, &mut |k, error| {
        feedback.project(k, error)
    })
}

/// DFA training over a dataset for `epochs`. Returns per-epoch losses.
pub fn train_dfa(
    engine: &mut PhotonicMlp,
    feedback: &mut DfaFeedback,
    xs: &[Vec<f64>],
    labels: &[usize],
    learning_rate: f64,
    epochs: usize,
) -> Vec<f64> {
    let mut history = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut total = 0.0;
        for (x, &label) in xs.iter().zip(labels) {
            total += train_sample_dfa(engine, feedback, x, label, learning_rate);
        }
        history.push(total / xs.len() as f64);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_nn::data::synthetic_digits;

    fn digit_data(per_class: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let data = synthetic_digits(per_class, 0.05, 31);
        let xs = (0..data.len())
            .map(|i| data.inputs.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect();
        (xs, data.labels)
    }

    #[test]
    fn projection_matches_matrix_math() {
        let engine = PhotonicMlp::new(&[10, 8, 4], 5, None, 8);
        let mut fb = DfaFeedback::for_engine(&engine, 99);
        assert_eq!(fb.layer_count(), 1);
        let e = vec![0.5, -0.25, 0.75, -1.0];
        let v = fb.project(0, &e);
        let b = fb.matrix(0).to_vec();
        for i in 0..8 {
            let exact: f64 = (0..4).map(|j| b[i * 4 + j] * e[j]).sum();
            assert!(
                (v[i] - exact).abs() < 0.05,
                "row {i}: photonic {} vs exact {exact}",
                v[i]
            );
        }
    }

    #[test]
    fn feedback_banks_are_programmed_once() {
        let engine = PhotonicMlp::new(&[10, 8, 4], 5, None, 8);
        let mut fb = DfaFeedback::for_engine(&engine, 99);
        let before = fb.programming_energy();
        assert!(before.value() > 0.0);
        // Projections never reprogram.
        for _ in 0..10 {
            fb.project(0, &[0.1, 0.2, 0.3, 0.4]);
        }
        assert_eq!(fb.programming_energy(), before);
    }

    #[test]
    fn dfa_learns_the_digit_task() {
        let (xs, labels) = digit_data(3);
        let mut engine = PhotonicMlp::new(&[64, 16, 10], 7, None, 8);
        let mut fb = DfaFeedback::for_engine(&engine, 41);
        let history = train_dfa(&mut engine, &mut fb, &xs, &labels, 0.3, 10);
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "DFA loss should fall: {history:?}"
        );
        let acc = engine.accuracy(&xs, &labels);
        assert!(acc > 0.5, "DFA accuracy {acc} should beat chance decisively");
    }

    #[test]
    fn backprop_matches_or_beats_dfa() {
        // §VI's point: DFA is the weaker signal. With identical budgets,
        // true backpropagation should do at least as well.
        let (xs, labels) = digit_data(3);
        let mut bp = PhotonicMlp::new(&[64, 16, 10], 7, None, 8);
        let bp_outcome = bp.train(&xs, &labels, 0.1, 10);

        let mut dfa_engine = PhotonicMlp::new(&[64, 16, 10], 7, None, 8);
        let mut fb = DfaFeedback::for_engine(&dfa_engine, 41);
        train_dfa(&mut dfa_engine, &mut fb, &xs, &labels, 0.3, 10);
        let dfa_acc = dfa_engine.accuracy(&xs, &labels);

        assert!(
            bp_outcome.final_accuracy >= dfa_acc - 0.05,
            "BP {} should not trail DFA {dfa_acc}",
            bp_outcome.final_accuracy
        );
    }
}
