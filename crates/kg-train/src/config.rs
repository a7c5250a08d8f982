//! Training hyper-parameters (the search ranges of Sec. V-A2).

use serde::{Deserialize, Serialize};

/// Hyper-parameters for one training run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Embedding dimension `d` (multiple of 4; the paper searches at 64 and
    /// fine-tunes at 256-2048).
    pub dim: usize,
    /// Training epochs ("trained until converge" in the paper; fixed here).
    pub epochs: usize,
    /// Adagrad learning rate η. The paper searches η ∈ [0, 1];
    /// [`TrainConfig::validate`] accepts any positive finite value.
    pub lr: f32,
    /// L2 penalty λ. The paper searches λ ∈ [1e-5, 1e-1];
    /// [`TrainConfig::validate`] accepts any finite λ ≥ 0.
    pub l2: f32,
    /// N3 (nuclear 3-norm) penalty weight applied to the embedding rows a
    /// triple touches — the regulariser of Lacroix et al. (the multi-class
    /// loss's companion); 0 disables it.
    pub n3: f32,
    /// Per-epoch learning-rate decay. The paper searches [0.99, 1.0];
    /// [`TrainConfig::validate`] accepts [0.5, 1.0].
    pub decay: f32,
    /// Mini-batch size m ∈ {256, 512, 1024} in the paper; any positive
    /// value here.
    pub batch_size: usize,
    /// Seed for init + shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            dim: 32,
            epochs: 30,
            lr: 0.3,
            l2: 1e-4,
            n3: 0.0,
            decay: 1.0,
            batch_size: 256,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Copy with a different seed (parallel candidate training gives every
    /// candidate its own stream).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 || !self.dim.is_multiple_of(4) {
            return Err(format!("dim must be a positive multiple of 4, got {}", self.dim));
        }
        // NaN fails every comparison, so finiteness is checked first.
        if !self.lr.is_finite() || self.lr <= 0.0 {
            return Err("lr must be positive".into());
        }
        if !self.l2.is_finite() || self.l2 < 0.0 {
            return Err("l2 must be non-negative".into());
        }
        if !self.n3.is_finite() || self.n3 < 0.0 {
            return Err("n3 must be non-negative".into());
        }
        if !(0.5..=1.0).contains(&self.decay) {
            return Err(format!("decay {} outside [0.5, 1.0]", self.decay));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = [
            TrainConfig { dim: 30, ..Default::default() },
            TrainConfig { lr: 0.0, ..Default::default() },
            TrainConfig { decay: 0.2, ..Default::default() },
            TrainConfig { n3: -1.0, ..Default::default() },
            TrainConfig { lr: f32::NAN, ..Default::default() },
            TrainConfig { lr: f32::INFINITY, ..Default::default() },
            TrainConfig { l2: f32::NAN, ..Default::default() },
            TrainConfig { l2: f32::INFINITY, ..Default::default() },
            TrainConfig { n3: f32::NAN, ..Default::default() },
            TrainConfig { n3: f32::INFINITY, ..Default::default() },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn with_helpers() {
        let c = TrainConfig::default().with_seed(9);
        assert_eq!(c.seed, 9);
    }
}
