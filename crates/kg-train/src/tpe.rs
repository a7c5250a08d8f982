//! A Tree-structured Parzen Estimator (Bergstra et al. 2011).
//!
//! Two consumers, mirroring the paper:
//! * hyper-parameter optimisation (the paper uses HyperOpt/TPE to tune
//!   `lr`, `λ`, decay and batch size before the structure search,
//!   Sec. V-A2), and
//! * the "Bayes" structure-search baseline of Fig. 6 (categorical
//!   dimensions encode the f6 block choices).
//!
//! Implementation: per-dimension independent Parzen estimators. The
//! observation set splits at the γ-quantile into "good" and "bad"; new
//! candidates are drawn from the good density and ranked by the likelihood
//! ratio `l(x)/g(x)` (good over bad), exactly the HyperOpt scheme
//! specialised to diagonal densities.

use kg_linalg::SeededRng;
use serde::{Deserialize, Serialize};

/// One search dimension.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Param {
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Log-uniform on `[lo, hi]` (both positive).
    LogUniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Categorical with `n` unordered choices, encoded as `0.0..n`.
    Choice {
        /// Number of choices.
        n: usize,
    },
}

impl Param {
    fn sample_prior(&self, rng: &mut SeededRng) -> f64 {
        match *self {
            Param::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Param::LogUniform { lo, hi } => (rng.uniform_range(lo.ln(), hi.ln())).exp(),
            Param::Choice { n } => rng.below(n) as f64,
        }
    }
}

/// The optimizer state: the search space plus all observations.
#[derive(Debug, Clone)]
pub struct Tpe {
    space: Vec<Param>,
    /// (point, score); higher scores are better.
    observations: Vec<(Vec<f64>, f64)>,
    /// Random exploration before the model kicks in.
    n_startup: usize,
    /// Fraction of observations considered "good".
    gamma: f64,
    /// Candidates scored per suggestion.
    n_candidates: usize,
}

impl Tpe {
    /// Create an optimizer over `space`.
    pub fn new(space: Vec<Param>) -> Self {
        assert!(!space.is_empty(), "empty search space");
        Tpe { space, observations: Vec::new(), n_startup: 10, gamma: 0.25, n_candidates: 24 }
    }

    /// Override the startup-random count.
    pub fn with_startup(mut self, n: usize) -> Self {
        self.n_startup = n;
        self
    }

    /// Record an evaluated point.
    pub fn observe(&mut self, point: Vec<f64>, score: f64) {
        assert_eq!(point.len(), self.space.len(), "dimension mismatch");
        self.observations.push((point, score));
    }

    /// Best observation so far.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.observations.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(p, s)| (p.as_slice(), *s))
    }

    /// Suggest the next point to evaluate.
    pub fn suggest(&self, rng: &mut SeededRng) -> Vec<f64> {
        if self.observations.len() < self.n_startup {
            return self.space.iter().map(|p| p.sample_prior(rng)).collect();
        }
        // split observations at the gamma quantile (higher = better)
        let mut sorted: Vec<usize> = (0..self.observations.len()).collect();
        sorted.sort_by(|&a, &b| self.observations[b].1.total_cmp(&self.observations[a].1));
        let n_good = ((self.observations.len() as f64 * self.gamma).ceil() as usize)
            .clamp(1, self.observations.len() - 1);
        let good: Vec<&Vec<f64>> =
            sorted[..n_good].iter().map(|&i| &self.observations[i].0).collect();
        let bad: Vec<&Vec<f64>> =
            sorted[n_good..].iter().map(|&i| &self.observations[i].0).collect();

        let mut best_point = Vec::new();
        let mut best_ratio = f64::NEG_INFINITY;
        for _ in 0..self.n_candidates {
            let mut point = Vec::with_capacity(self.space.len());
            let mut ratio = 0.0f64;
            for (d, param) in self.space.iter().enumerate() {
                let (x, r) = self.sample_dim(d, param, &good, &bad, rng);
                point.push(x);
                ratio += r;
            }
            if ratio > best_ratio {
                best_ratio = ratio;
                best_point = point;
            }
        }
        best_point
    }

    /// Sample one dimension from the good density; return (value,
    /// log-likelihood-ratio contribution).
    fn sample_dim(
        &self,
        d: usize,
        param: &Param,
        good: &[&Vec<f64>],
        bad: &[&Vec<f64>],
        rng: &mut SeededRng,
    ) -> (f64, f64) {
        match *param {
            Param::Choice { n } => {
                // smoothed categorical densities
                let hist = |obs: &[&Vec<f64>]| {
                    let mut h = vec![1.0f64; n]; // add-one smoothing
                    for o in obs {
                        let c = (o[d] as usize).min(n - 1);
                        h[c] += 1.0;
                    }
                    let s: f64 = h.iter().sum();
                    h.into_iter().map(|v| v / s).collect::<Vec<f64>>()
                };
                let l = hist(good);
                let g = hist(bad);
                // sample from l
                let u = rng.uniform();
                let mut acc = 0.0;
                let mut choice = n - 1;
                for (c, &p) in l.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        choice = c;
                        break;
                    }
                }
                (choice as f64, (l[choice] / g[choice]).ln())
            }
            Param::Uniform { lo, hi } | Param::LogUniform { lo, hi } => {
                let log_scale = matches!(param, Param::LogUniform { .. });
                let to_internal = |v: f64| if log_scale { v.ln() } else { v };
                let (ilo, ihi) = (to_internal(lo), to_internal(hi));
                let bw = ((ihi - ilo) / (good.len() as f64).sqrt()).max(1e-12);
                // Parzen density: mixture of gaussians at observed points
                let density = |obs: &[&Vec<f64>], x: f64| {
                    if obs.is_empty() {
                        return 1.0 / (ihi - ilo);
                    }
                    let mut p = 0.0f64;
                    for o in obs {
                        let z = (x - to_internal(o[d])) / bw;
                        p += (-0.5 * z * z).exp();
                    }
                    p / (obs.len() as f64 * bw * (2.0 * std::f64::consts::PI).sqrt()) + 1e-12
                };
                // sample from the good mixture
                let center = to_internal(good[rng.below(good.len())][d]);
                let x = (center + bw * rng.normal()).clamp(ilo, ihi);
                let ratio = (density(good, x) / density(bad, x)).ln();
                let v = if log_scale { x.exp() } else { x };
                (v, ratio)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// TPE should find the maximum of a smooth 1-D function faster than the
    /// prior would by luck.
    #[test]
    fn tpe_concentrates_on_the_optimum() {
        let mut rng = SeededRng::new(7);
        let f = |x: f64| -(x - 0.7) * (x - 0.7);
        let mut tpe = Tpe::new(vec![Param::Uniform { lo: 0.0, hi: 1.0 }]).with_startup(8);
        for _ in 0..60 {
            let p = tpe.suggest(&mut rng);
            let s = f(p[0]);
            tpe.observe(p, s);
        }
        let (best, _) = tpe.best().expect("observations exist");
        assert!((best[0] - 0.7).abs() < 0.1, "best x = {}", best[0]);
        // late suggestions cluster near the optimum
        let late: Vec<f64> = (0..16).map(|_| tpe.suggest(&mut rng)[0]).collect();
        let near = late.iter().filter(|&&x| (x - 0.7).abs() < 0.2).count();
        assert!(near >= 8, "only {near}/16 late suggestions near optimum");
    }

    #[test]
    fn categorical_dimension_prefers_good_choice() {
        let mut rng = SeededRng::new(8);
        // choice 2 is the best of 5
        let f = |c: usize| if c == 2 { 1.0 } else { 0.0 };
        let mut tpe = Tpe::new(vec![Param::Choice { n: 5 }]).with_startup(10);
        for _ in 0..50 {
            let p = tpe.suggest(&mut rng);
            let s = f(p[0] as usize);
            tpe.observe(p, s);
        }
        let late: Vec<usize> = (0..20).map(|_| tpe.suggest(&mut rng)[0] as usize).collect();
        let hits = late.iter().filter(|&&c| c == 2).count();
        assert!(hits >= 10, "only {hits}/20 suggestions picked the best choice");
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut rng = SeededRng::new(9);
        let tpe = Tpe::new(vec![Param::LogUniform { lo: 1e-5, hi: 1e-1 }]);
        for _ in 0..100 {
            let p = tpe.suggest(&mut rng);
            assert!(p[0] >= 1e-5 * 0.999 && p[0] <= 1e-1 * 1.001, "out of range: {}", p[0]);
        }
    }

    #[test]
    fn best_tracks_maximum() {
        let mut tpe = Tpe::new(vec![Param::Uniform { lo: 0.0, hi: 1.0 }]);
        tpe.observe(vec![0.1], 1.0);
        tpe.observe(vec![0.2], 5.0);
        tpe.observe(vec![0.3], 3.0);
        let (p, s) = tpe.best().unwrap();
        assert_eq!(p[0], 0.2);
        assert_eq!(s, 5.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn observe_checks_dimensions() {
        let mut tpe = Tpe::new(vec![Param::Choice { n: 2 }]);
        tpe.observe(vec![0.0, 1.0], 0.0);
    }
}
