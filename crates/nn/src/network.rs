//! Sequential model container: the float training reference.

use crate::arena::TensorArena;
use crate::error::NnError;
use crate::layers::{ActivationLayer, Dense, Layer};
use crate::loss::softmax_cross_entropy;
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// A stack of layers trained with backpropagation.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Access a layer by index (for weight export to the photonic engine).
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.layers[idx].as_ref()
    }

    /// Forward pass over a batch: the first layer whose shape check fails
    /// reports a typed [`NnError`].
    pub fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.try_forward(&h)?;
        }
        Ok(h)
    }

    /// Arena-backed inference forward: every intermediate activation is
    /// checked out of `arena` (and given back as soon as the next layer
    /// consumed it), and Dense→Activation pairs are fused through
    /// [`crate::linalg::matmul_bias_act_into`] — one pass over each
    /// output tile instead of a matmul, a bias sweep, and a map.
    ///
    /// Output is bitwise identical to [`Sequential::try_forward`] at any
    /// thread count (the fusion keeps the k-order of the accumulation and
    /// applies bias/activation per element — DESIGN.md §15). This is the
    /// serving path: fused pairs skip caching their pre-activation
    /// logits, so a training step must use [`Sequential::try_forward`]
    /// (or the unfused per-layer `try_forward_in`) before
    /// [`Sequential::try_backward_in`].
    ///
    /// The caller owns the returned tensor and gives it back to `arena`
    /// when done (typically after copying out predictions), then calls
    /// [`TensorArena::reset`] to close the generation.
    pub fn try_forward_in(
        &mut self,
        x: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let mut h = arena.take(x.shape());
        h.data_mut().copy_from_slice(x.data());
        let mut i = 0;
        while i < self.layers.len() {
            // Fusion eligibility: a Dense directly followed by an
            // ActivationLayer. Anything else runs layer-by-layer.
            let fused_act = if i + 1 < self.layers.len() && self.layers[i].as_any().is::<Dense>() {
                self.layers[i + 1]
                    .as_any()
                    .downcast_ref::<ActivationLayer>()
                    .map(ActivationLayer::activation)
            } else {
                None
            };
            let step = match fused_act {
                // The second downcast re-proves what `fused_act` already
                // checked; the fallback keeps this total without a panic
                // path.
                Some(act) => match self.layers[i].as_any_mut().downcast_mut::<Dense>() {
                    Some(dense) => {
                        i += 2;
                        dense.try_forward_fused_in(&h, act, arena)
                    }
                    None => {
                        i += 1;
                        self.layers[i - 1].try_forward_in(&h, arena)
                    }
                },
                None => {
                    i += 1;
                    self.layers[i - 1].try_forward_in(&h, arena)
                }
            };
            let next = match step {
                Ok(y) => y,
                Err(e) => {
                    // Don't strand the checkout on the error path — the
                    // arena's reset assertion must stay meaningful.
                    arena.give(h);
                    return Err(e);
                }
            };
            arena.give(h);
            h = next;
        }
        Ok(h)
    }

    /// Arena-backed backward mirroring [`Sequential::try_backward`]:
    /// every intermediate gradient is an arena checkout, returned as soon
    /// as the previous layer consumed it. Requires cached forward state
    /// from an *unfused* forward pass.
    pub fn try_backward_in(
        &mut self,
        grad: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let mut g = arena.take(grad.shape());
        g.data_mut().copy_from_slice(grad.data());
        for layer in self.layers.iter_mut().rev() {
            let next = match layer.try_backward_in(&g, arena) {
                Ok(next) => next,
                Err(e) => {
                    arena.give(g);
                    return Err(e);
                }
            };
            arena.give(g);
            g = next;
        }
        Ok(g)
    }

    /// Backward pass from an output gradient, mirroring
    /// [`Sequential::try_forward`]; returns the input gradient.
    pub fn try_backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.try_backward(&g)?;
        }
        Ok(g)
    }

    /// Apply accumulated gradients.
    pub fn update(&mut self, opt: &Sgd) {
        for layer in &mut self.layers {
            layer.update(opt);
        }
    }

    /// One supervised step on a batch: forward, cross-entropy, backward,
    /// update. Returns the batch loss. Shape violations anywhere in the
    /// stack surface as typed errors before any parameter is touched.
    pub fn try_train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opt: &Sgd,
    ) -> Result<f32, NnError> {
        let logits = self.try_forward(x)?;
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.try_backward(&grad)?;
        self.update(opt);
        Ok(loss)
    }

    /// Predicted class per batch row (NaN-safe argmax: a row of NaNs
    /// predicts class 0 rather than panicking).
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.try_forward(x)?;
        Ok((0..logits.shape()[0])
            .map(|r| {
                let row = logits.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect())
    }

    /// Classification accuracy on a labelled batch.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
        let preds = self.predict(x)?;
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len() as f64)
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{gaussian_blobs, Dataset};
    use crate::init::seeded_rng;
    use crate::layers::{Activation, ActivationLayer, Dense};

    fn tiny_mlp(seed: u64, inputs: usize, hidden: usize, classes: usize) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new()
            .push(Dense::new(hidden, inputs, &mut rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(Dense::new(classes, hidden, &mut rng))
    }

    #[test]
    fn network_shapes_flow() {
        let mut net = tiny_mlp(1, 4, 8, 3);
        let x = Tensor::zeros(&[5, 4]);
        let y = net.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(net.len(), 3);
        assert_eq!(net.param_count(), 8 * 4 + 3 * 8);
    }

    #[test]
    fn training_reduces_loss_on_blobs() {
        let data = gaussian_blobs(3, 60, 4, 0.3, 42);
        let mut net = tiny_mlp(7, 4, 16, 3);
        let opt = Sgd::new(0.1);
        let first_loss = net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        let mut last = first_loss;
        for _ in 0..120 {
            last = net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        }
        assert!(
            last < first_loss * 0.3,
            "loss should fall substantially: {first_loss} → {last}"
        );
        assert!(net.accuracy(&data.inputs, &data.labels).unwrap() > 0.9);
    }

    #[test]
    fn gst_activation_network_also_trains() {
        // The paper's claim that the GST nonlinearity suffices for learning:
        // same task, GST activation instead of ReLU.
        let data = gaussian_blobs(3, 60, 4, 0.3, 43);
        let mut rng = seeded_rng(9);
        let mut net = Sequential::new()
            .push(Dense::new(16, 4, &mut rng))
            .push(ActivationLayer::new(Activation::gst_paper()))
            .push(Dense::new(3, 16, &mut rng));
        // The 0.34 slope attenuates signals; a higher lr compensates.
        let opt = Sgd::new(0.3);
        for _ in 0..200 {
            net.try_train_step(&data.inputs, &data.labels, &opt).unwrap();
        }
        assert!(
            net.accuracy(&data.inputs, &data.labels).unwrap() > 0.9,
            "accuracy {}",
            net.accuracy(&data.inputs, &data.labels).unwrap()
        );
    }

    #[test]
    fn predict_agrees_with_argmax() {
        let mut net = tiny_mlp(1, 2, 4, 2);
        let x = Tensor::from_vec(&[1, 2], vec![0.3, -0.7]);
        let logits = net.try_forward(&x).unwrap();
        let manual = if logits.at2(0, 0) >= logits.at2(0, 1) { 0 } else { 1 };
        assert_eq!(net.predict(&x).unwrap()[0], manual);
    }

    #[test]
    fn conv_network_trains_on_digit_images() {
        // End-to-end float CNN: conv → ReLU → pool → flatten → dense,
        // trained on the synthetic digit images reshaped to 4-D.
        use crate::data::synthetic_digits;
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
        let data = synthetic_digits(4, 0.05, 21);
        let n = data.len();
        let images = data.inputs.clone().reshape(&[n, 1, 8, 8]);
        let mut rng = seeded_rng(3);
        let mut net = Sequential::new()
            .push(Conv2d::new(6, 1, 3, 1, 1, &mut rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(MaxPool2d::new(2, 2))
            .push(Flatten::new())
            .push(Dense::new(10, 6 * 4 * 4, &mut rng));
        let opt = Sgd::new(0.3);
        let first = net.try_train_step(&images, &data.labels, &opt).unwrap();
        let mut last = first;
        for _ in 0..60 {
            last = net.try_train_step(&images, &data.labels, &opt).unwrap();
        }
        assert!(last < first * 0.5, "CNN loss should halve: {first} -> {last}");
        assert!(
            net.accuracy(&images, &data.labels).unwrap() > 0.8,
            "CNN accuracy {}",
            net.accuracy(&images, &data.labels).unwrap()
        );
    }

    #[test]
    fn sequential_propagates_layer_errors() {
        use crate::error::NnError;
        let mut net = tiny_mlp(5, 4, 8, 3);
        let wrong = Tensor::zeros(&[2, 7]);
        match net.try_forward(&wrong) {
            Err(NnError::ShapeMismatch { layer: "dense", got, .. }) => {
                assert_eq!(got, vec![2, 7]);
            }
            other => panic!("expected a dense shape error, got {other:?}"),
        }
        // A valid batch still flows after the rejected one.
        let ok = net.try_forward(&Tensor::zeros(&[2, 4])).expect("valid shape");
        assert_eq!(ok.shape(), &[2, 3]);
    }

    #[test]
    fn arena_fused_forward_is_bitwise_identical_to_unfused() {
        use crate::arena::TensorArena;
        let data = gaussian_blobs(3, 20, 4, 0.3, 44);
        let mut net = tiny_mlp(13, 4, 16, 3);
        let want = net.try_forward(&data.inputs).expect("valid shape");
        let mut arena = TensorArena::new();
        // Twice: cold (allocating) and warm (zero-alloc) must agree.
        for round in 0..2 {
            let got = net.try_forward_in(&data.inputs, &mut arena).expect("valid shape");
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits(), "round {round}");
            }
            arena.give(got);
            arena.reset();
        }
        let warm_allocs = arena.heap_allocs();
        let got = net.try_forward_in(&data.inputs, &mut arena).expect("valid shape");
        arena.give(got);
        arena.reset();
        assert_eq!(arena.heap_allocs(), warm_allocs, "steady state must not allocate");
    }

    #[test]
    fn arena_backward_matches_standard_backward() {
        use crate::arena::TensorArena;
        let data = gaussian_blobs(3, 15, 4, 0.3, 45);
        let mut net = tiny_mlp(17, 4, 8, 3);
        let logits = net.try_forward(&data.inputs).expect("valid shape");
        let (_, grad) = softmax_cross_entropy(&logits, &data.labels);
        // Standard backward on one clone of the net, arena backward on
        // another — parameter gradients accumulate identically, so the
        // returned input gradients must match bitwise.
        let want = net.try_backward(&grad).expect("shapes line up");
        let mut net2 = tiny_mlp(17, 4, 8, 3);
        net2.try_forward(&data.inputs).expect("valid shape");
        let mut arena = TensorArena::new();
        let got = net2.try_backward_in(&grad, &mut arena).expect("shapes line up");
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        arena.give(got);
        arena.reset();
    }

    #[test]
    fn conv_stack_arena_forward_matches_standard() {
        use crate::arena::TensorArena;
        use crate::data::synthetic_digits;
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
        let data = synthetic_digits(2, 0.05, 22);
        let n = data.len();
        let images = data.inputs.clone().reshape(&[n, 1, 8, 8]);
        let mut rng = seeded_rng(6);
        let mut net = Sequential::new()
            .push(Conv2d::new(4, 1, 3, 1, 1, &mut rng))
            .push(ActivationLayer::new(Activation::Relu))
            .push(MaxPool2d::new(2, 2))
            .push(Flatten::new())
            .push(Dense::new(10, 4 * 4 * 4, &mut rng));
        let want = net.try_forward(&images).expect("valid shape");
        let mut arena = TensorArena::new();
        let got = net.try_forward_in(&images, &mut arena).expect("valid shape");
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        arena.give(got);
        arena.reset();
    }

    #[test]
    fn dataset_helper_is_consistent() {
        let Dataset { inputs, labels } = gaussian_blobs(2, 10, 3, 0.1, 1);
        assert_eq!(inputs.shape(), &[20, 3]);
        assert_eq!(labels.len(), 20);
    }
}
