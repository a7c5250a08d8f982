//! A minimal multilayer perceptron with explicit backpropagation.
//!
//! Three consumers in the reproduction:
//!
//! * the SRF performance predictor — a 22-2-1 regression network (Sec. IV-B3),
//! * the one-hot predictor variant — 96-8-1 (Fig. 8), and
//! * the Gen-Approx baseline of Fig. 6 — two 128-64-64 networks combining
//!   entity and relation embeddings (Appendix D). Gen-Approx needs gradients
//!   with respect to the *inputs* as well (the embeddings are trained
//!   through the network), so [`Mlp::backward`] returns the input gradient.

use crate::matrix::Mat;
use crate::optim::Optimizer;
use crate::rng::SeededRng;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
    /// identity (linear layer)
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed through the *activated* value `y = act(x)`,
    /// which is what the backward pass has at hand.
    #[inline]
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// One dense layer `y = act(W x + b)` with `W: out × in`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    w: Mat,
    b: Vec<f32>,
    act: Activation,
}

/// A feed-forward network of dense layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached forward-pass activations (`acts[0]` is the input, `acts[i]` the
/// output of layer `i-1`).
#[derive(Debug, Clone)]
pub struct MlpCache {
    acts: Vec<Vec<f32>>,
}

impl MlpCache {
    /// The network output of this forward pass.
    pub fn output(&self) -> &[f32] {
        self.acts.last().expect("cache always has input layer")
    }
}

/// Per-layer gradients matching an [`Mlp`]'s shape.
#[derive(Debug, Clone)]
pub struct MlpGrads {
    dw: Vec<Mat>,
    db: Vec<Vec<f32>>,
}

impl MlpGrads {
    /// Reset all gradients to zero, keeping allocations.
    pub fn clear(&mut self) {
        for m in &mut self.dw {
            m.clear();
        }
        for b in &mut self.db {
            crate::vecops::zero(b);
        }
    }

    /// Scale every gradient by `alpha` (e.g. 1/batch).
    pub fn scale(&mut self, alpha: f32) {
        for m in &mut self.dw {
            crate::vecops::scale(alpha, m.as_mut_slice());
        }
        for b in &mut self.db {
            crate::vecops::scale(alpha, b);
        }
    }
}

impl Mlp {
    /// Build an MLP with the given layer `sizes` (e.g. `[22, 2, 1]`),
    /// `hidden` activation on all but the last layer and `output` activation
    /// on the last. Weights are Xavier-initialised from `rng`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[i], sizes[i + 1]);
            let mut w = Mat::zeros(fan_out, fan_in);
            rng.xavier_uniform(fan_in + fan_out, w.as_mut_slice());
            let act = if i + 2 == sizes.len() { output } else { hidden };
            layers.push(Dense { w, b: vec![0.0; fan_out], act });
        }
        Mlp { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").w.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").w.rows()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.rows() * l.w.cols() + l.b.len()).sum()
    }

    /// Allocate a zeroed gradient buffer matching this network.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads {
            dw: self.layers.iter().map(|l| Mat::zeros(l.w.rows(), l.w.cols())).collect(),
            db: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_cached(x).acts.pop().expect("output present")
    }

    /// Forward pass retaining intermediate activations for backprop.
    pub fn forward_cached(&self, x: &[f32]) -> MlpCache {
        assert_eq!(x.len(), self.input_dim(), "mlp forward: input dim mismatch");
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for layer in &self.layers {
            let prev = acts.last().expect("non-empty");
            let mut out = vec![0.0f32; layer.w.rows()];
            layer.w.gemv(prev, &mut out);
            for (o, b) in out.iter_mut().zip(layer.b.iter()) {
                *o = layer.act.apply(*o + *b);
            }
            acts.push(out);
        }
        MlpCache { acts }
    }

    /// Backpropagate `dloss_dout` (gradient of the loss w.r.t. the network
    /// output) through the cached forward pass, *accumulating* into `grads`,
    /// and return the gradient with respect to the input.
    pub fn backward(&self, cache: &MlpCache, dloss_dout: &[f32], grads: &mut MlpGrads) -> Vec<f32> {
        assert_eq!(dloss_dout.len(), self.output_dim(), "mlp backward: output dim mismatch");
        assert_eq!(cache.acts.len(), self.layers.len() + 1, "stale cache");
        let mut delta = dloss_dout.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let out = &cache.acts[li + 1];
            // delta ∘= act'(out)
            for (d, &y) in delta.iter_mut().zip(out.iter()) {
                *d *= layer.act.derivative_from_output(y);
            }
            let input = &cache.acts[li];
            grads.dw[li].ger(1.0, &delta, input);
            crate::vecops::axpy(1.0, &delta, &mut grads.db[li]);
            // propagate: d_input = Wᵀ delta
            let mut next = vec![0.0f32; layer.w.cols()];
            layer.w.gemv_t(&delta, &mut next);
            delta = next;
        }
        delta
    }

    /// Apply accumulated gradients with the given optimizer (which must have
    /// been created with [`Mlp::param_count`] parameters). L2 weight decay
    /// `l2` is added to the weight gradients (not the biases).
    pub fn apply_grads(&mut self, grads: &MlpGrads, opt: &mut dyn Optimizer, l2: f32) {
        assert_eq!(opt.len(), self.param_count(), "optimizer sized for a different network");
        let mut offset = 0usize;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let wlen = layer.w.rows() * layer.w.cols();
            if l2 > 0.0 {
                let mut g = grads.dw[li].as_slice().to_vec();
                crate::vecops::axpy(l2, layer.w.as_slice(), &mut g);
                opt.update(offset, layer.w.as_mut_slice(), &g);
            } else {
                opt.update(offset, layer.w.as_mut_slice(), grads.dw[li].as_slice());
            }
            offset += wlen;
            opt.update(offset, &mut layer.b, &grads.db[li]);
            offset += grads.db[li].len();
        }
    }

    /// Convenience: one full-batch MSE regression step. Returns the mean
    /// squared error *before* the step. Used by the performance predictors,
    /// whose training sets are tiny (tens of points).
    pub fn mse_step(
        &mut self,
        inputs: &[Vec<f32>],
        targets: &[f32],
        opt: &mut dyn Optimizer,
        l2: f32,
    ) -> f32 {
        assert_eq!(inputs.len(), targets.len(), "mse_step: input/target mismatch");
        assert_eq!(self.output_dim(), 1, "mse_step expects a scalar output");
        if inputs.is_empty() {
            return 0.0;
        }
        let mut grads = self.zero_grads();
        let mut loss = 0.0f32;
        for (x, &t) in inputs.iter().zip(targets.iter()) {
            let cache = self.forward_cached(x);
            let y = cache.output()[0];
            let err = y - t;
            loss += err * err;
            self.backward(&cache, &[2.0 * err], &mut grads);
        }
        let inv = 1.0 / inputs.len() as f32;
        grads.scale(inv);
        self.apply_grads(&grads, opt, l2);
        loss * inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn tiny_rng() -> SeededRng {
        SeededRng::new(1234)
    }

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::new(&[22, 2, 1], Activation::Tanh, Activation::Identity, &mut tiny_rng());
        assert_eq!(mlp.input_dim(), 22);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.param_count(), 22 * 2 + 2 + 2 + 1);
    }

    #[test]
    fn forward_identity_single_layer_is_affine() {
        let mut mlp = Mlp::new(&[2, 1], Activation::Tanh, Activation::Identity, &mut tiny_rng());
        // overwrite with known weights
        mlp.layers[0].w.as_mut_slice().copy_from_slice(&[2.0, -1.0]);
        mlp.layers[0].b[0] = 0.5;
        let y = mlp.forward(&[3.0, 4.0]);
        assert!((y[0] - (2.0 * 3.0 - 4.0 + 0.5)).abs() < 1e-6);
    }

    /// Finite-difference check of the full backward pass, including the
    /// input gradient that Gen-Approx relies on.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = tiny_rng();
        let mlp = Mlp::new(&[4, 5, 3], Activation::Tanh, Activation::Identity, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| 0.3 * (i as f32) - 0.5).collect();
        // loss = sum(output^2) / 2 -> dloss/dout = out
        let cache = mlp.forward_cached(&x);
        let dout: Vec<f32> = cache.output().to_vec();
        let mut grads = mlp.zero_grads();
        let dx = mlp.backward(&cache, &dout, &mut grads);

        let loss = |m: &Mlp, x: &[f32]| -> f32 {
            let y = m.forward(x);
            0.5 * crate::vecops::norm2_sq(&y)
        };
        let eps = 1e-3f32;
        // input gradient
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&mlp, &xp) - loss(&mlp, &xm)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 5e-3, "input grad {i}: fd {num} vs bp {}", dx[i]);
        }
        // a few weight gradients in layer 0
        for (r, c) in [(0, 0), (2, 3), (4, 1)] {
            let mut mp = mlp.clone();
            let v = mp.layers[0].w.get(r, c);
            mp.layers[0].w.set(r, c, v + eps);
            let mut mm = mlp.clone();
            mm.layers[0].w.set(r, c, v - eps);
            let num = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * eps);
            let bp = grads.dw[0].get(r, c);
            assert!((num - bp).abs() < 5e-3, "w grad ({r},{c}): fd {num} vs bp {bp}");
        }
    }

    #[test]
    fn mse_training_fits_linear_function() {
        let mut rng = tiny_rng();
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut opt = Adam::new(mlp.param_count(), 0.02);
        // target: y = x0 - 2 x1
        let inputs: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![((i % 7) as f32 - 3.0) / 3.0, ((i % 5) as f32 - 2.0) / 2.0])
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|x| x[0] - 2.0 * x[1]).collect();
        let mut last = f32::INFINITY;
        for _ in 0..800 {
            opt.tick();
            last = mlp.mse_step(&inputs, &targets, &mut opt, 0.0);
        }
        assert!(last < 0.02, "final training MSE {last}");
    }

    #[test]
    fn relu_kills_negative_gradient() {
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(1.5), 1.0);
    }

    #[test]
    fn grads_clear_and_scale() {
        let mlp = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut tiny_rng());
        let mut g = mlp.zero_grads();
        let cache = mlp.forward_cached(&[1.0, 1.0]);
        mlp.backward(&cache, &[1.0, 1.0], &mut g);
        g.scale(0.0);
        assert!(g.dw[0].as_slice().iter().all(|&v| v == 0.0));
        g.clear();
        assert!(g.db[0].iter().all(|&v| v == 0.0));
    }
}
