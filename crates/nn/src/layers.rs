//! Trainable layers with explicit forward and backward passes.
//!
//! Each layer caches what its backward pass needs during `forward`, then
//! `backward` consumes the upstream gradient and returns the downstream
//! one while accumulating parameter gradients (Eqs. 2–3 of the paper).
//! The photonic engine in `trident-arch` mirrors exactly these semantics
//! device-by-device, and the integration tests diff the two.

use crate::arena::TensorArena;
use crate::error::NnError;
use crate::linalg;
use crate::optim::Sgd;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::any::Any;

/// Pointwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// Pass-through (used for output layers read by a softmax loss).
    Identity,
    /// Standard rectified linear unit.
    Relu,
    /// The GST activation cell's transfer (Fig. 3): zero below `threshold`,
    /// slope `slope` above it. `GstRelu { threshold: 0.0, slope: 1.0 }`
    /// degenerates to plain ReLU.
    GstRelu {
        /// Firing threshold.
        threshold: f32,
        /// Transmission slope above threshold.
        slope: f32,
    },
}

impl Activation {
    /// The paper's measured activation: slope 0.34, threshold normalized
    /// to zero by the engine's logit scaling.
    pub const fn gst_paper() -> Self {
        Activation::GstRelu { threshold: 0.0, slope: 0.34 }
    }

    /// Forward value.
    #[inline]
    pub fn forward(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::GstRelu { threshold, slope } => {
                if x >= threshold {
                    slope * (x - threshold)
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative at `x` (the value the LDSU latches).
    #[inline]
    pub fn derivative(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::GstRelu { threshold, slope } => {
                if x >= threshold {
                    slope
                } else {
                    0.0
                }
            }
        }
    }
}

/// A trainable layer.
///
/// Shape violations and ordering mistakes surface as typed [`NnError`]s.
pub trait Layer: Send {
    /// Forward pass over a batch; caches whatever backward needs.
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError>;
    /// Backward pass: consume `dL/d(output)`, accumulate parameter
    /// gradients, return `dL/d(input)`.
    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;
    /// Arena-backed forward: the output (and any internal scratch) comes
    /// from `arena` or reused layer-owned buffers instead of fresh
    /// allocations. Bitwise identical to [`Layer::try_forward`] and
    /// caches the same backward state; the caller owns the returned
    /// tensor and must eventually [`TensorArena::give`] it back.
    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError>;
    /// Arena-backed backward, mirroring [`Layer::try_forward_in`]: the
    /// returned input gradient (and intermediates) are arena checkouts.
    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError>;
    /// The layer as [`Any`] — lets [`crate::network::Sequential`] detect
    /// fusable Dense→Activation pairs without widening the trait.
    fn as_any(&self) -> &dyn Any;
    /// Mutable [`Any`] access (fused dispatch needs `&mut` on the pair).
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Apply (and clear) accumulated gradients with the optimizer.
    fn update(&mut self, _opt: &Sgd) {}
    /// Human-readable layer kind.
    fn name(&self) -> &'static str;
    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }
}

/// Copy `src` into a cached slot, reusing the existing buffer when the
/// shape already matches — the steady-state case on the serving path,
/// where every batch has the same geometry. Falls back to a clone on the
/// first call or a shape change.
fn cache_assign(slot: &mut Option<Tensor>, src: &Tensor) {
    match slot {
        Some(t) if t.shape() == src.shape() => t.data_mut().copy_from_slice(src.data()),
        _ => *slot = Some(src.clone()),
    }
}

/// Shape guard: `[batch, c, h, w]` input for the 4-D layers.
fn require_4d(layer: &'static str, x: &Tensor) -> Result<(), NnError> {
    if x.ndim() != 4 {
        return Err(NnError::ShapeMismatch {
            layer,
            expected: "[batch, c, h, w]".into(),
            got: x.shape().to_vec(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer `y = x·Wᵀ (+ b)`.
///
/// Photonic PEs implement the matrix product directly (weights in the MRR
/// bank) and have no bias path, so the bias is optional and off by default
/// for photonic-mirrored models.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix `[out, in]` — each row maps to one PE row.
    pub weights: Tensor,
    /// Optional bias `[out]`.
    pub bias: Option<Tensor>,
    grad_w: Tensor,
    grad_b: Option<Tensor>,
    cached_input: Option<Tensor>,
    /// Reused `Wᵀ` buffer for the arena/fused forward paths; empty
    /// until the first refresh sizes it.
    wt_scratch: Tensor,
}

impl Dense {
    /// Dense layer with explicit weights and no bias.
    pub fn from_weights(weights: Tensor) -> Self {
        assert_eq!(weights.ndim(), 2, "dense weights must be a matrix");
        let shape = weights.shape().to_vec();
        Self {
            weights,
            bias: None,
            grad_w: Tensor::zeros(&shape),
            grad_b: None,
            cached_input: None,
            wt_scratch: Tensor::zeros(&[0, 0]),
        }
    }

    /// Randomly initialised dense layer (Xavier), no bias.
    pub fn new(out_features: usize, in_features: usize, rng: &mut rand::rngs::StdRng) -> Self {
        Self::from_weights(crate::init::xavier_uniform(out_features, in_features, rng))
    }

    /// Enable a zero-initialised bias.
    pub fn with_bias(mut self) -> Self {
        let out = self.weights.shape()[0];
        self.bias = Some(Tensor::zeros(&[out]));
        self.grad_b = Some(Tensor::zeros(&[out]));
        self
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.weights.shape()[1]
    }

    /// Accumulated weight gradient (for tests and the photonic diff).
    pub fn grad_weights(&self) -> &Tensor {
        &self.grad_w
    }

    /// Refresh the reused `Wᵀ` scratch (allocates only on the first call
    /// or a geometry change — never in the serving steady state).
    fn refresh_wt(&mut self) {
        let (out, inp) = (self.weights.shape()[0], self.weights.shape()[1]);
        if self.wt_scratch.shape() != [inp, out] {
            self.wt_scratch = Tensor::zeros(&[inp, out]);
        }
        linalg::transpose_into(&self.weights, &mut self.wt_scratch);
    }

    /// Fused Dense→Activation forward for the inference serving path:
    /// `act(x·Wᵀ + b)` in one pass over each output tile
    /// ([`linalg::matmul_bias_act_into`]). Bitwise identical to
    /// [`Layer::try_forward`] followed by the activation's map, but it
    /// caches no backward state (the pre-activation logits are never
    /// materialised) — training keeps the unfused layer pair.
    pub fn try_forward_fused_in(
        &mut self,
        x: &Tensor,
        act: Activation,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.in_features() {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[batch, {}]", self.in_features()),
                got: x.shape().to_vec(),
            });
        }
        self.refresh_wt();
        let mut y = arena.take(&[x.shape()[0], self.out_features()]);
        linalg::matmul_bias_act_into(
            x,
            &self.wt_scratch,
            self.bias.as_ref().map(Tensor::data),
            |v| act.forward(v),
            &mut y,
        );
        Ok(y)
    }
}

impl Layer for Dense {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.in_features() {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[batch, {}]", self.in_features()),
                got: x.shape().to_vec(),
            });
        }
        self.cached_input = Some(x.clone());
        // y = x Wᵀ : [batch, out]
        let wt = self.weights.transposed();
        let mut y = linalg::matmul(x, &wt);
        if let Some(b) = &self.bias {
            for r in 0..y.shape()[0] {
                let row = y.row_mut(r);
                for (v, &bi) in row.iter_mut().zip(b.data()) {
                    *v += bi;
                }
            }
        }
        Ok(y)
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        if grad_out.ndim() != 2 || grad_out.shape()[0] != x.shape()[0] {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[{}, {}] upstream gradient", x.shape()[0], self.out_features()),
                got: grad_out.shape().to_vec(),
            });
        }
        // dW = gradᵀ · x : [out, in]
        let gt = grad_out.transposed();
        let dw = linalg::matmul(&gt, x);
        self.grad_w.axpy(1.0, &dw);
        if let (Some(_), Some(gb)) = (&self.bias, &mut self.grad_b) {
            for r in 0..grad_out.shape()[0] {
                for (g, &go) in gb.data_mut().iter_mut().zip(grad_out.row(r)) {
                    *g += go;
                }
            }
        }
        // dX = grad · W : [batch, in]
        Ok(linalg::matmul(grad_out, &self.weights))
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        if x.ndim() != 2 || x.shape()[1] != self.in_features() {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[batch, {}]", self.in_features()),
                got: x.shape().to_vec(),
            });
        }
        cache_assign(&mut self.cached_input, x);
        self.refresh_wt();
        let mut y = arena.take(&[x.shape()[0], self.out_features()]);
        linalg::matmul_into(x, &self.wt_scratch, &mut y);
        if let Some(b) = &self.bias {
            for r in 0..y.shape()[0] {
                let row = y.row_mut(r);
                for (v, &bi) in row.iter_mut().zip(b.data()) {
                    *v += bi;
                }
            }
        }
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        if grad_out.ndim() != 2 || grad_out.shape()[0] != x.shape()[0] {
            return Err(NnError::ShapeMismatch {
                layer: "dense",
                expected: format!("[{}, {}] upstream gradient", x.shape()[0], self.out_features()),
                got: grad_out.shape().to_vec(),
            });
        }
        // dW = gradᵀ · x : [out, in], built in arena scratch.
        let mut gt = arena.take(&[grad_out.shape()[1], grad_out.shape()[0]]);
        linalg::transpose_into(grad_out, &mut gt);
        let mut dw = arena.take(&[self.out_features(), self.in_features()]);
        linalg::matmul_into(&gt, x, &mut dw);
        self.grad_w.axpy(1.0, &dw);
        arena.give(dw);
        arena.give(gt);
        if let (Some(_), Some(gb)) = (&self.bias, &mut self.grad_b) {
            for r in 0..grad_out.shape()[0] {
                for (g, &go) in gb.data_mut().iter_mut().zip(grad_out.row(r)) {
                    *g += go;
                }
            }
        }
        // dX = grad · W : [batch, in]
        let mut gx = arena.take(&[grad_out.shape()[0], self.in_features()]);
        linalg::matmul_into(grad_out, &self.weights, &mut gx);
        Ok(gx)
    }

    fn update(&mut self, opt: &Sgd) {
        opt.step(&mut self.weights, &self.grad_w);
        self.grad_w.zero_();
        if let (Some(b), Some(gb)) = (&mut self.bias, &mut self.grad_b) {
            opt.step(b, gb);
            gb.zero_();
        }
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.as_ref().map_or(0, Tensor::len)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Activation layer
// ---------------------------------------------------------------------------

/// A pointwise activation as a layer (caches pre-activations — the logits
/// `h_k` whose comparator bits the LDSU stores).
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    act: Activation,
    cached_logits: Option<Tensor>,
}

impl ActivationLayer {
    /// Wrap an activation function.
    pub fn new(act: Activation) -> Self {
        Self { act, cached_logits: None }
    }

    /// The wrapped function.
    pub fn activation(&self) -> Activation {
        self.act
    }
}

impl Layer for ActivationLayer {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.cached_logits = Some(x.clone());
        Ok(x.map(|v| self.act.forward(v)))
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let h = self
            .cached_logits
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "activation" })?;
        if grad_out.shape() != h.shape() {
            return Err(NnError::ShapeMismatch {
                layer: "activation",
                expected: format!("{:?} upstream gradient", h.shape()),
                got: grad_out.shape().to_vec(),
            });
        }
        Ok(grad_out.zip_map(h, |g, hv| g * self.act.derivative(hv)))
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        cache_assign(&mut self.cached_logits, x);
        let mut y = arena.take(x.shape());
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = self.act.forward(v);
        }
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let h = self
            .cached_logits
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "activation" })?;
        if grad_out.shape() != h.shape() {
            return Err(NnError::ShapeMismatch {
                layer: "activation",
                expected: format!("{:?} upstream gradient", h.shape()),
                got: grad_out.shape().to_vec(),
            });
        }
        let mut gx = arena.take(grad_out.shape());
        for ((o, &g), &hv) in gx.data_mut().iter_mut().zip(grad_out.data()).zip(h.data()) {
            *o = g * self.act.derivative(hv);
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "activation"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Conv2d (im2col)
// ---------------------------------------------------------------------------

/// 2-D convolution via im2col lowering.
///
/// Lowering to a matrix product is not just an implementation convenience:
/// it is how convolutions map onto the Trident weight bank (the paper runs
/// CNNs on a matrix-vector PE with a weight-stationary dataflow), so the
/// same lowering feeds the photonic engine.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Filter bank flattened to `[out_c, in_c·k·k]`.
    pub weights: Tensor,
    grad_w: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    cached_cols: Option<Tensor>,
    /// Reused `Wᵀ` buffer for the arena forward path; empty until the
    /// first refresh sizes it.
    wt_scratch: Tensor,
}

impl Conv2d {
    /// New conv layer with He initialisation.
    pub fn new(
        out_channels: usize,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Self {
        assert!(kernel >= 1 && stride >= 1);
        let weights = crate::init::he_uniform(out_channels, in_channels * kernel * kernel, rng);
        let shape = weights.shape().to_vec();
        Self {
            weights,
            grad_w: Tensor::zeros(&shape),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            cached_cols: None,
            wt_scratch: Tensor::zeros(&[0, 0]),
        }
    }

    /// Output spatial size for an input of `h×w`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// im2col: `[batch·oh·ow, in_c·k·k]` patch matrix.
    fn im2col(&self, x: &Tensor) -> Tensor {
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        let patch = self.in_channels * self.kernel * self.kernel;
        let mut cols = Tensor::zeros(&[n * oh * ow, patch]);
        self.im2col_into(x, &mut cols);
        cols
    }

    /// [`Conv2d::im2col`] into a caller-owned buffer (every element is
    /// written, padding included, so the buffer needs no pre-zeroing).
    fn im2col_into(&self, x: &Tensor, cols: &mut Tensor) {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row_idx = (b * oh + oy) * ow + ox;
                    let row = cols.row_mut(row_idx);
                    let mut p = 0;
                    for ic in 0..c {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                row[p] = if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    x.at4(b, ic, iy as usize, ix as usize)
                                } else {
                                    0.0
                                };
                                p += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scatter a column-gradient matrix back to input layout (col2im).
    fn col2im(&self, grad_cols: &Tensor, n: usize, h: usize, w: usize) -> Tensor {
        let mut gx = Tensor::zeros(&[n, self.in_channels, h, w]);
        self.col2im_into(grad_cols, n, h, w, &mut gx);
        gx
    }

    /// [`Conv2d::col2im`] accumulating into a zero-filled caller buffer.
    fn col2im_into(&self, grad_cols: &Tensor, n: usize, h: usize, w: usize, gx: &mut Tensor) {
        let (oh, ow) = self.output_hw(h, w);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = grad_cols.row((b * oh + oy) * ow + ox);
                    let mut p = 0;
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    *gx.at4_mut(b, ic, iy as usize, ix as usize) += row[p];
                                }
                                p += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Refresh the reused `Wᵀ` scratch (see [`Dense`]'s counterpart).
    fn refresh_wt(&mut self) {
        let (oc, patch) = (self.weights.shape()[0], self.weights.shape()[1]);
        if self.wt_scratch.shape() != [patch, oc] {
            self.wt_scratch = Tensor::zeros(&[patch, oc]);
        }
        linalg::transpose_into(&self.weights, &mut self.wt_scratch);
    }
}

impl Layer for Conv2d {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        require_4d("conv2d", x)?;
        if x.shape()[1] != self.in_channels {
            return Err(NnError::ShapeMismatch {
                layer: "conv2d",
                expected: format!("[batch, {}, h, w]", self.in_channels),
                got: x.shape().to_vec(),
            });
        }
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        let cols = self.im2col(x);
        // [n·oh·ow, patch] × [patch, out_c] = [n·oh·ow, out_c]
        let wt = self.weights.transposed();
        let out_cols = linalg::matmul(&cols, &wt);
        self.cached_input = Some(x.clone());
        self.cached_cols = Some(cols);
        // Rearrange to [n, out_c, oh, ow].
        let mut y = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = out_cols.row((b * oh + oy) * ow + ox);
                    for oc in 0..self.out_channels {
                        *y.at4_mut(b, oc, oy, ox) = row[oc];
                    }
                }
            }
        }
        Ok(y)
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        require_4d("conv2d", grad_out)?;
        let (x, cols) = match (&self.cached_input, &self.cached_cols) {
            (Some(x), Some(cols)) => (x, cols),
            _ => return Err(NnError::BackwardBeforeForward { layer: "conv2d" }),
        };
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        // Flatten grad to [n·oh·ow, out_c].
        let mut grad_cols = Tensor::zeros(&[n * oh * ow, self.out_channels]);
        for b in 0..n {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        *grad_cols.at2_mut((b * oh + oy) * ow + ox, oc) =
                            grad_out.at4(b, oc, oy, ox);
                    }
                }
            }
        }
        // dW = grad_colsᵀ × cols : [out_c, patch]
        let gt = grad_cols.transposed();
        let dw = linalg::matmul(&gt, cols);
        self.grad_w.axpy(1.0, &dw);
        // dCols = grad_cols × W : [n·oh·ow, patch] → col2im
        let dcols = linalg::matmul(&grad_cols, &self.weights);
        Ok(self.col2im(&dcols, n, h, w))
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        require_4d("conv2d", x)?;
        if x.shape()[1] != self.in_channels {
            return Err(NnError::ShapeMismatch {
                layer: "conv2d",
                expected: format!("[batch, {}, h, w]", self.in_channels),
                got: x.shape().to_vec(),
            });
        }
        let (n, _, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.output_hw(h, w);
        let patch = self.in_channels * self.kernel * self.kernel;
        // The patch matrix doubles as backward state, so it lives in a
        // reused layer-owned buffer rather than the arena.
        let mut cols = match self.cached_cols.take() {
            Some(c) if c.shape() == [n * oh * ow, patch] => c,
            _ => Tensor::zeros(&[n * oh * ow, patch]),
        };
        self.im2col_into(x, &mut cols);
        self.refresh_wt();
        let mut out_cols = arena.take(&[n * oh * ow, self.out_channels]);
        linalg::matmul_into(&cols, &self.wt_scratch, &mut out_cols);
        cache_assign(&mut self.cached_input, x);
        self.cached_cols = Some(cols);
        let mut y = arena.take(&[n, self.out_channels, oh, ow]);
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = out_cols.row((b * oh + oy) * ow + ox);
                    for oc in 0..self.out_channels {
                        *y.at4_mut(b, oc, oy, ox) = row[oc];
                    }
                }
            }
        }
        arena.give(out_cols);
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        require_4d("conv2d", grad_out)?;
        let (x_shape, n, h, w) = match &self.cached_input {
            Some(x) => (x.shape().to_vec(), x.shape()[0], x.shape()[2], x.shape()[3]),
            None => return Err(NnError::BackwardBeforeForward { layer: "conv2d" }),
        };
        let Some(cols) = self.cached_cols.take() else {
            return Err(NnError::BackwardBeforeForward { layer: "conv2d" });
        };
        let (oh, ow) = self.output_hw(h, w);
        let mut grad_cols = arena.take(&[n * oh * ow, self.out_channels]);
        for b in 0..n {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        *grad_cols.at2_mut((b * oh + oy) * ow + ox, oc) =
                            grad_out.at4(b, oc, oy, ox);
                    }
                }
            }
        }
        // dW = grad_colsᵀ × cols : [out_c, patch]
        let mut gt = arena.take(&[self.out_channels, n * oh * ow]);
        linalg::transpose_into(&grad_cols, &mut gt);
        let mut dw = arena.take(self.weights.shape());
        linalg::matmul_into(&gt, &cols, &mut dw);
        self.cached_cols = Some(cols);
        self.grad_w.axpy(1.0, &dw);
        arena.give(dw);
        arena.give(gt);
        // dCols = grad_cols × W : [n·oh·ow, patch] → col2im
        let patch = self.in_channels * self.kernel * self.kernel;
        let mut dcols = arena.take(&[n * oh * ow, patch]);
        linalg::matmul_into(&grad_cols, &self.weights, &mut dcols);
        arena.give(grad_cols);
        let mut gx = arena.take(&x_shape);
        self.col2im_into(&dcols, n, h, w, &mut gx);
        arena.give(dcols);
        Ok(gx)
    }

    fn update(&mut self, opt: &Sgd) {
        opt.step(&mut self.weights, &self.grad_w);
        self.grad_w.zero_();
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn param_count(&self) -> usize {
        self.weights.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// Max pooling with cached argmax indices for the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    cached_input_shape: Option<Vec<usize>>,
    cached_argmax: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Square pooling window of `size` with `stride`.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size >= 1 && stride >= 1);
        Self { size, stride, cached_input_shape: None, cached_argmax: None }
    }
}

impl MaxPool2d {
    /// Pooling core shared by the allocating and arena forwards: fill
    /// `y` and the reused `argmax` scratch. The scratch `Vec` survives in
    /// `cached_argmax` between calls (`clear` + `resize` stay within the
    /// retained capacity), so steady-state forwards allocate nothing for
    /// it — previously it was rebuilt with `vec![0; …]` on every call.
    fn pool_into(&mut self, x: &Tensor, y: &mut Tensor) {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = (h - self.size) / self.stride + 1;
        let ow = (w - self.size) / self.stride + 1;
        let mut argmax = self.cached_argmax.take().unwrap_or_default();
        argmax.clear();
        argmax.resize(n * c * oh * ow, 0);
        let mut out_idx = 0;
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_flat = 0;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let v = x.at4(b, ch, iy, ix);
                                if v > best {
                                    best = v;
                                    best_flat = ((b * c + ch) * h + iy) * w + ix;
                                }
                            }
                        }
                        *y.at4_mut(b, ch, oy, ox) = best;
                        argmax[out_idx] = best_flat;
                        out_idx += 1;
                    }
                }
            }
        }
        self.cached_input_shape = Some(x.shape().to_vec());
        self.cached_argmax = Some(argmax);
    }
}

impl Layer for MaxPool2d {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        require_4d("maxpool2d", x)?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = (h - self.size) / self.stride + 1;
        let ow = (w - self.size) / self.stride + 1;
        let mut y = Tensor::zeros(&[n, c, oh, ow]);
        self.pool_into(x, &mut y);
        Ok(y)
    }
    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let (shape, argmax) = match (&self.cached_input_shape, &self.cached_argmax) {
            (Some(s), Some(a)) => (s, a),
            _ => return Err(NnError::BackwardBeforeForward { layer: "maxpool2d" }),
        };
        let mut gx = Tensor::zeros(shape);
        for (&flat, &g) in argmax.iter().zip(grad_out.data()) {
            gx.data_mut()[flat] += g;
        }
        Ok(gx)
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        require_4d("maxpool2d", x)?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = (h - self.size) / self.stride + 1;
        let ow = (w - self.size) / self.stride + 1;
        let mut y = arena.take(&[n, c, oh, ow]);
        self.pool_into(x, &mut y);
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let (shape, argmax) = match (&self.cached_input_shape, &self.cached_argmax) {
            (Some(s), Some(a)) => (s, a),
            _ => return Err(NnError::BackwardBeforeForward { layer: "maxpool2d" }),
        };
        let mut gx = arena.take(shape);
        for (&flat, &g) in argmax.iter().zip(grad_out.data()) {
            gx.data_mut()[flat] += g;
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// AvgPool2d / GlobalAvgPool
// ---------------------------------------------------------------------------

/// Average pooling (GoogleNet/ResNet heads use its global variant).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    size: usize,
    stride: usize,
    cached_input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Square pooling window of `size` with `stride`.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size >= 1 && stride >= 1);
        Self { size, stride, cached_input_shape: None }
    }
}

impl AvgPool2d {
    /// Pooling core shared by the allocating and arena forwards.
    fn pool_into(&mut self, x: &Tensor, y: &mut Tensor) {
        let (n, c, _, _) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (y.shape()[2], y.shape()[3]);
        let inv = 1.0 / (self.size * self.size) as f32;
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                acc += x.at4(b, ch, oy * self.stride + ky, ox * self.stride + kx);
                            }
                        }
                        *y.at4_mut(b, ch, oy, ox) = acc * inv;
                    }
                }
            }
        }
        self.cached_input_shape = Some(x.shape().to_vec());
    }

    /// Output shape for an input `x`.
    fn out_shape(&self, x: &Tensor) -> [usize; 4] {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let oh = (h - self.size) / self.stride + 1;
        let ow = (w - self.size) / self.stride + 1;
        [n, c, oh, ow]
    }
}

impl Layer for AvgPool2d {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        require_4d("avgpool2d", x)?;
        let mut y = Tensor::zeros(&self.out_shape(x));
        self.pool_into(x, &mut y);
        Ok(y)
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        require_4d("avgpool2d", grad_out)?;
        let shape = self
            .cached_input_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "avgpool2d" })?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
        let inv = 1.0 / (self.size * self.size) as f32;
        let mut gx = Tensor::zeros(&shape);
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.at4(b, ch, oy, ox) * inv;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let (iy, ix) = (oy * self.stride + ky, ox * self.stride + kx);
                                if iy < h && ix < w {
                                    *gx.at4_mut(b, ch, iy, ix) += g;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(gx)
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        require_4d("avgpool2d", x)?;
        let mut y = arena.take(&self.out_shape(x));
        self.pool_into(x, &mut y);
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        require_4d("avgpool2d", grad_out)?;
        let shape = self
            .cached_input_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "avgpool2d" })?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (grad_out.shape()[2], grad_out.shape()[3]);
        let inv = 1.0 / (self.size * self.size) as f32;
        let mut gx = arena.take(&shape);
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.at4(b, ch, oy, ox) * inv;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let (iy, ix) = (oy * self.stride + ky, ox * self.stride + kx);
                                if iy < h && ix < w {
                                    *gx.at4_mut(b, ch, iy, ix) += g;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Global average pooling: `[batch, c, h, w] → [batch, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// New global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        require_4d("global_avgpool", x)?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut y = Tensor::zeros(&[n, c]);
        for b in 0..n {
            for ch in 0..c {
                let mut acc = 0.0;
                for iy in 0..h {
                    for ix in 0..w {
                        acc += x.at4(b, ch, iy, ix);
                    }
                }
                *y.at2_mut(b, ch) = acc * inv;
            }
        }
        self.cached_input_shape = Some(x.shape().to_vec());
        Ok(y)
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cached_input_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "global_avgpool" })?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if grad_out.ndim() != 2 || grad_out.shape() != [n, c] {
            return Err(NnError::ShapeMismatch {
                layer: "global_avgpool",
                expected: format!("[{n}, {c}] upstream gradient"),
                got: grad_out.shape().to_vec(),
            });
        }
        let inv = 1.0 / (h * w) as f32;
        let mut gx = Tensor::zeros(&shape);
        for b in 0..n {
            for ch in 0..c {
                let g = grad_out.at2(b, ch) * inv;
                for iy in 0..h {
                    for ix in 0..w {
                        *gx.at4_mut(b, ch, iy, ix) = g;
                    }
                }
            }
        }
        Ok(gx)
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        require_4d("global_avgpool", x)?;
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let inv = 1.0 / (h * w) as f32;
        let mut y = arena.take(&[n, c]);
        for b in 0..n {
            for ch in 0..c {
                let mut acc = 0.0;
                for iy in 0..h {
                    for ix in 0..w {
                        acc += x.at4(b, ch, iy, ix);
                    }
                }
                *y.at2_mut(b, ch) = acc * inv;
            }
        }
        self.cached_input_shape = Some(x.shape().to_vec());
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let shape = self
            .cached_input_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "global_avgpool" })?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if grad_out.ndim() != 2 || grad_out.shape() != [n, c] {
            return Err(NnError::ShapeMismatch {
                layer: "global_avgpool",
                expected: format!("[{n}, {c}] upstream gradient"),
                got: grad_out.shape().to_vec(),
            });
        }
        let inv = 1.0 / (h * w) as f32;
        let mut gx = arena.take(&shape);
        for b in 0..n {
            for ch in 0..c {
                let g = grad_out.at2(b, ch) * inv;
                for iy in 0..h {
                    for ix in 0..w {
                        *gx.at4_mut(b, ch, iy, ix) = g;
                    }
                }
            }
        }
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "global_avgpool"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------------

/// Flatten `[batch, …]` to `[batch, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn try_forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.ndim() == 0 || x.shape()[0] == 0 {
            return Err(NnError::ShapeMismatch {
                layer: "flatten",
                expected: "[batch, ...] with batch > 0".into(),
                got: x.shape().to_vec(),
            });
        }
        let batch = x.shape()[0];
        let features = x.len() / batch;
        self.cached_shape = Some(x.shape().to_vec());
        Ok(x.clone().reshape(&[batch, features]))
    }

    fn try_backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cached_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "flatten" })?;
        Ok(grad_out.clone().reshape(&shape))
    }

    fn try_forward_in(&mut self, x: &Tensor, arena: &mut TensorArena) -> Result<Tensor, NnError> {
        if x.ndim() == 0 || x.shape()[0] == 0 {
            return Err(NnError::ShapeMismatch {
                layer: "flatten",
                expected: "[batch, ...] with batch > 0".into(),
                got: x.shape().to_vec(),
            });
        }
        let batch = x.shape()[0];
        let features = x.len() / batch;
        self.cached_shape = Some(x.shape().to_vec());
        let mut y = arena.take(&[batch, features]);
        y.data_mut().copy_from_slice(x.data());
        Ok(y)
    }

    fn try_backward_in(
        &mut self,
        grad_out: &Tensor,
        arena: &mut TensorArena,
    ) -> Result<Tensor, NnError> {
        let shape = self
            .cached_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward { layer: "flatten" })?;
        let mut gx = arena.take(&shape);
        gx.data_mut().copy_from_slice(grad_out.data());
        Ok(gx)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn activation_forward_derivative_consistency() {
        for act in [Activation::Identity, Activation::Relu, Activation::gst_paper()] {
            for &x in &[-2.0f32, -0.1, 0.0, 0.1, 2.0] {
                let eps = 1e-3;
                let fd = (act.forward(x + eps) - act.forward(x - eps)) / (2.0 * eps);
                // Skip the kink where the finite difference is ill-defined.
                if x.abs() > 2.0 * eps {
                    assert!(
                        (fd - act.derivative(x)).abs() < 1e-2,
                        "{act:?} derivative mismatch at {x}: fd={fd} vs {}",
                        act.derivative(x)
                    );
                }
            }
        }
    }

    #[test]
    fn gst_relu_with_unit_slope_is_relu() {
        let gst = Activation::GstRelu { threshold: 0.0, slope: 1.0 };
        for &x in &[-1.0f32, 0.0, 0.5, 3.0] {
            assert_eq!(gst.forward(x), Activation::Relu.forward(x));
        }
    }

    #[test]
    fn dense_forward_known_answer() {
        let w = Tensor::from_vec(&[2, 3], vec![1., 0., -1., 0.5, 0.5, 0.5]);
        let mut d = Dense::from_weights(w);
        let x = Tensor::from_vec(&[1, 3], vec![2., 4., 6.]);
        let y = d.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[-4.0, 6.0]);
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = seeded_rng(7);
        let mut d = Dense::new(3, 4, &mut rng);
        let x = Tensor::from_vec(&[2, 4], vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]);
        // Loss = sum(y); dL/dy = ones.
        let y = d.try_forward(&x).unwrap();
        let ones = Tensor::full(&[2, 3], 1.0);
        let gx = d.try_backward(&ones).unwrap();
        // Finite-difference the input gradient.
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp = d.try_forward(&xp).unwrap().sum();
            let ym = d.try_forward(&xm).unwrap().sum();
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - gx.data()[i]).abs() < 1e-2,
                "input grad mismatch at {i}: fd={fd} vs {}",
                gx.data()[i]
            );
        }
        drop(y);
    }

    #[test]
    fn dense_weight_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(8);
        let mut d = Dense::new(2, 3, &mut rng);
        let x = Tensor::from_vec(&[1, 3], vec![0.3, -0.6, 0.9]);
        d.try_forward(&x).unwrap();
        d.try_backward(&Tensor::full(&[1, 2], 1.0)).unwrap();
        let analytic = d.grad_weights().clone();
        let eps = 1e-3;
        for i in 0..d.weights.len() {
            let orig = d.weights.data()[i];
            d.weights.data_mut()[i] = orig + eps;
            let yp = d.try_forward(&x).unwrap().sum();
            d.weights.data_mut()[i] = orig - eps;
            let ym = d.try_forward(&x).unwrap().sum();
            d.weights.data_mut()[i] = orig;
            let fd = (yp - ym) / (2.0 * eps);
            assert!(
                (fd - analytic.data()[i]).abs() < 1e-2,
                "weight grad mismatch at {i}: fd={fd} vs {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn conv_forward_known_answer() {
        // 1×1×3×3 input, single 2×2 filter of ones, stride 1, no pad:
        // each output is the patch sum.
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        conv.weights = Tensor::full(&[1, 4], 1.0);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let mut rng = seeded_rng(2);
        let mut conv = Conv2d::new(4, 3, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn conv_backward_input_grad_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let mut conv = Conv2d::new(2, 1, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            (0..16).map(|v| (v as f32 - 8.0) * 0.1).collect(),
        );
        conv.try_forward(&x).unwrap();
        let g = conv.try_backward(&Tensor::full(&[1, 2, 4, 4], 1.0)).unwrap();
        let eps = 1e-2;
        for i in (0..16).step_by(3) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (conv.try_forward(&xp).unwrap().sum() - conv.try_forward(&xm).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (fd - g.data()[i]).abs() < 1e-2,
                "conv input grad mismatch at {i}: fd={fd} vs {}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing_backward() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.try_forward(&x).unwrap();
        assert_eq!(y.data(), &[5.0]);
        let gx = pool.try_backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![2.0])).unwrap();
        assert_eq!(gx.data(), &[0.0, 2.0, 0.0, 0.0], "gradient routes to the argmax");
    }

    #[test]
    fn flatten_round_trip() {
        let x = Tensor::from_vec(&[2, 3, 1, 1], vec![1., 2., 3., 4., 5., 6.]);
        let mut f = Flatten::new();
        let y = f.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        let back = f.try_backward(&y).unwrap();
        assert_eq!(back.shape(), x.shape());
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let mut pool = AvgPool2d::new(2, 2);
        let y = pool.try_forward(&x).unwrap();
        assert_eq!(y.data(), &[4.0]);
        let gx = pool.try_backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![4.0])).unwrap();
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0], "gradient spreads uniformly");
    }

    #[test]
    fn global_avgpool_reduces_spatial_dims() {
        let x = Tensor::from_vec(
            &[1, 2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        );
        let mut pool = GlobalAvgPool::new();
        let y = pool.try_forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
        let gx = pool.try_backward(&Tensor::from_vec(&[1, 2], vec![4.0, 8.0])).unwrap();
        assert_eq!(gx.shape(), &[1, 2, 2, 2]);
        assert_eq!(&gx.data()[..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&gx.data()[4..], &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradient_matches_finite_difference() {
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|v| v as f32 * 0.1).collect());
        let mut pool = AvgPool2d::new(2, 2);
        pool.try_forward(&x).unwrap();
        let g = pool.try_backward(&Tensor::full(&[1, 1, 2, 2], 1.0)).unwrap();
        let eps = 1e-2;
        for i in 0..16 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (pool.try_forward(&xp).unwrap().sum() - pool.try_forward(&xm).unwrap().sum())
                / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-3, "avgpool grad mismatch at {i}");
        }
    }

    #[test]
    fn shape_violations_surface_as_typed_errors() {
        let mut rng = seeded_rng(11);
        let mut d = Dense::new(3, 4, &mut rng);
        let narrow = Tensor::zeros(&[2, 5]);
        match d.try_forward(&narrow) {
            Err(NnError::ShapeMismatch { layer: "dense", got, .. }) => assert_eq!(got, vec![2, 5]),
            other => panic!("expected dense shape error, got {other:?}"),
        }
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let flat = Tensor::zeros(&[2, 27]);
        assert!(matches!(
            conv.try_forward(&flat),
            Err(NnError::ShapeMismatch { layer: "conv2d", .. })
        ));
        let wrong_channels = Tensor::zeros(&[1, 5, 8, 8]);
        assert!(matches!(
            conv.try_forward(&wrong_channels),
            Err(NnError::ShapeMismatch { layer: "conv2d", .. })
        ));
    }

    #[test]
    fn backward_before_forward_is_a_typed_error() {
        let mut d = Dense::from_weights(Tensor::from_vec(&[1, 2], vec![1.0, -1.0]));
        assert_eq!(
            d.try_backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::BackwardBeforeForward { layer: "dense" })
        );
        let mut pool = MaxPool2d::new(2, 2);
        assert_eq!(
            pool.try_backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::BackwardBeforeForward { layer: "maxpool2d" })
        );
        let mut f = Flatten::new();
        assert_eq!(
            f.try_backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::BackwardBeforeForward { layer: "flatten" })
        );
    }

    #[test]
    fn update_applies_sgd_and_clears_grads() {
        let mut d = Dense::from_weights(Tensor::from_vec(&[1, 2], vec![0.5, -0.5]));
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        d.try_forward(&x).unwrap();
        d.try_backward(&Tensor::from_vec(&[1, 1], vec![1.0])).unwrap();
        d.update(&Sgd::new(0.1));
        // dW = [1, 1] → W −= 0.1
        assert_eq!(d.weights.data(), &[0.4, -0.6]);
        assert_eq!(d.grad_weights().data(), &[0.0, 0.0]);
    }
}
