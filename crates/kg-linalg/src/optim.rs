//! First-order optimizers with support for sparse (row-wise) updates.
//!
//! KGE training touches only the embedding rows present in a mini-batch, so
//! the optimizer API works on *(offset, slice)* pairs: the caller hands the
//! parameter slice it wants updated together with its offset into the flat
//! parameter space, and the optimizer keeps per-coordinate state (Adagrad
//! accumulators, Adam moments) indexed by that offset.
//!
//! Adagrad is the paper's optimizer ("we use Adagrad as the optimizer since
//! it tends to perform better", Sec. V-A2); Adam is used for the tiny
//! predictor MLP.

/// A first-order optimizer over a flat parameter vector of fixed size.
pub trait Optimizer {
    /// Total number of parameters this optimizer tracks state for.
    fn len(&self) -> usize;

    /// True when tracking zero parameters.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply one update to `params`, which is the parameter sub-slice living
    /// at `offset` in the flat space, given the gradient `grad` of the same
    /// length. Implementations must not read or write state outside
    /// `[offset, offset + params.len())`.
    fn update(&mut self, offset: usize, params: &mut [f32], grad: &[f32]);

    /// Hook called once per epoch; learning-rate decay lives here.
    fn end_epoch(&mut self) {}

    /// Current effective base learning rate.
    fn learning_rate(&self) -> f32;
}

/// Adagrad with per-coordinate squared-gradient accumulators and optional
/// per-epoch learning-rate decay (the paper tunes a decay rate in
/// [0.99, 1.0]).
#[derive(Debug, Clone)]
pub struct Adagrad {
    accum: Vec<f32>,
    lr: f32,
    decay: f32,
    eps: f32,
}

impl Adagrad {
    /// Create for `n` parameters.
    pub fn new(n: usize, lr: f32, decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        Adagrad { accum: vec![0.0; n], lr, decay, eps: 1e-8 }
    }
}

impl Optimizer for Adagrad {
    fn len(&self) -> usize {
        self.accum.len()
    }

    fn update(&mut self, offset: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "adagrad: grad length mismatch");
        assert!(offset + params.len() <= self.accum.len(), "adagrad: offset out of range");
        let acc = &mut self.accum[offset..offset + params.len()];
        for i in 0..params.len() {
            let g = grad[i];
            acc[i] += g * g;
            params[i] -= self.lr * g / (acc[i].sqrt() + self.eps);
        }
    }

    fn end_epoch(&mut self) {
        self.lr *= self.decay;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam with bias correction. Step count is global (incremented per epoch
/// would under-correct, so we count calls per coordinate group via a shared
/// step counter advanced by [`Adam::tick`] or implicitly on `end_epoch`).
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
}

impl Adam {
    /// Create for `n` parameters with standard betas (0.9, 0.999).
    pub fn new(n: usize, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam { m: vec![0.0; n], v: vec![0.0; n], lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Advance the global step (call once per optimizer step over the full
    /// parameter set — the MLP trainer does this once per mini-batch).
    pub fn tick(&mut self) {
        self.t += 1;
    }
}

impl Optimizer for Adam {
    fn len(&self) -> usize {
        self.m.len()
    }

    fn update(&mut self, offset: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "adam: grad length mismatch");
        assert!(offset + params.len() <= self.m.len(), "adam: offset out of range");
        let t = self.t.max(1);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for i in 0..params.len() {
            let g = grad[i];
            let mi = &mut self.m[offset + i];
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            let vi = &mut self.v[offset + i];
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 with each optimizer; all should converge.
    fn minimise(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let x = minimise(&mut Adagrad::new(1, 0.9, 1.0), 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(1, 0.05);
        let mut x = [0.0f32];
        for _ in 0..2000 {
            opt.tick();
            let g = [2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn adagrad_sparse_offsets_keep_independent_state() {
        let mut opt = Adagrad::new(4, 0.5, 1.0);
        let mut a = [0.0f32; 2];
        let mut b = [0.0f32; 2];
        // Hammer the first two coordinates; the last two stay fresh.
        for _ in 0..50 {
            opt.update(0, &mut a, &[1.0, 1.0]);
        }
        opt.update(2, &mut b, &[1.0, 1.0]);
        // First update at offset 2 behaves like a fresh Adagrad step
        // (lr * g / sqrt(g^2) = lr), while 'a' has much smaller steps now.
        assert!((b[0] + 0.5).abs() < 1e-4, "b[0] = {}", b[0]);
    }

    #[test]
    #[should_panic(expected = "offset out of range")]
    fn adagrad_out_of_range_panics() {
        let mut opt = Adagrad::new(2, 0.1, 1.0);
        let mut p = [0.0f32; 2];
        opt.update(1, &mut p, &[0.0, 0.0]);
    }
}
