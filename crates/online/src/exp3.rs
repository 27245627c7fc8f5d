//! The EXP3 non-stochastic multi-armed bandit baseline.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use agsfl_tensor::init::sample_weighted;

use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// EXP3 (Auer et al.) over a finite set of candidate `k` values.
///
/// The paper's second baseline in Fig. 5: every candidate `k` is an arm of a
/// non-stochastic multi-armed bandit, rewards are fed back only for the arm
/// that was played, and arm probabilities follow the classic exponential
/// weighting with uniform exploration `γ`. Because the algorithm has to try
/// every arm to learn anything about it, its empirical behaviour on the
/// adaptive-`k` problem is far more erratic than the sign-based method,
/// which is exactly what the paper reports.
///
/// Rewards must lie in `[0, 1]`; the caller is responsible for normalizing
/// its cost signal (see `CostNormalizer` in `agsfl-core`).
///
/// # Examples
///
/// ```
/// use agsfl_online::Exp3;
///
/// let mut exp3 = Exp3::new(vec![10.0, 100.0, 1000.0], 0.1, 7);
/// let arm = exp3.draw();
/// exp3.update(arm, 0.8);
/// assert!(exp3.probabilities().iter().all(|&p| p > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct Exp3 {
    arms: Vec<f64>,
    weights: Vec<f64>,
    gamma: f64,
    rng: ChaCha8Rng,
    draws: usize,
}

impl Exp3 {
    /// Creates an EXP3 instance over the given arms with exploration rate
    /// `gamma ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or `gamma` is outside `(0, 1]`.
    pub fn new(arms: Vec<f64>, gamma: f64, seed: u64) -> Self {
        assert!(!arms.is_empty(), "EXP3 needs at least one arm");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        let n = arms.len();
        Self {
            arms,
            weights: vec![1.0; n],
            gamma,
            rng: ChaCha8Rng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// Builds the standard geometric arm grid `{kmin, kmin·r, kmin·r², …,
    /// kmax}` with `num_arms` arms, a practical discretization of the paper's
    /// "every integer k is an arm" formulation for large `D`.
    ///
    /// # Panics
    ///
    /// Panics if `num_arms < 2` or the range is invalid.
    pub fn geometric_arms(k_min: f64, k_max: f64, num_arms: usize) -> Vec<f64> {
        assert!(num_arms >= 2, "need at least two arms");
        assert!(k_min >= 1.0 && k_min < k_max, "invalid arm range");
        let ratio = (k_max / k_min).powf(1.0 / (num_arms - 1) as f64);
        (0..num_arms)
            .map(|i| (k_min * ratio.powi(i as i32)).min(k_max))
            .collect()
    }

    /// The candidate `k` values.
    pub fn arms(&self) -> &[f64] {
        &self.arms
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// Number of draws made so far.
    pub fn draws(&self) -> usize {
        self.draws
    }

    /// Current arm-selection probabilities
    /// `p_i = (1-γ)·w_i/Σw + γ/K`.
    pub fn probabilities(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().sum();
        let n = self.arms.len() as f64;
        self.weights
            .iter()
            .map(|w| (1.0 - self.gamma) * w / total + self.gamma / n)
            .collect()
    }

    /// Draws an arm index according to the current probabilities.
    pub fn draw(&mut self) -> usize {
        self.draws += 1;
        let probs = self.probabilities();
        sample_weighted(&probs, &mut self.rng).expect("probabilities are positive")
    }

    /// The `k` value of arm `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn arm_value(&self, index: usize) -> f64 {
        self.arms[index]
    }

    /// Feeds back the reward (in `[0, 1]`) obtained for the arm that was
    /// played. Rewards are clamped into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.arms.len(), "arm {arm} out of range");
        let reward = reward.clamp(0.0, 1.0);
        let probs = self.probabilities();
        let estimated = reward / probs[arm];
        let n = self.arms.len() as f64;
        let exponent = (self.gamma * estimated / n).min(50.0);
        self.weights[arm] *= exponent.exp();
        // Guard against numerical blow-up: rescale when weights get large.
        let max = self.weights.iter().cloned().fold(0.0f64, f64::max);
        if max > 1e100 {
            for w in &mut self.weights {
                *w /= max;
            }
        }
    }

    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        w.f64s(&self.weights);
        w.usize(self.draws);
        w.rng(&self.rng);
    }

    pub(crate) fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let weights = r.f64s()?;
        if weights.len() != self.arms.len() {
            return Err(CheckpointError::Invalid("weight count"));
        }
        if !weights.iter().all(|w| w.is_finite() && *w > 0.0) {
            return Err(CheckpointError::Invalid("weight value"));
        }
        let draws = r.usize()?;
        let rng = r.rng()?;
        self.weights = weights;
        self.draws = draws;
        self.rng = rng;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let exp3 = Exp3::new(vec![1.0, 2.0, 3.0], 0.2, 0);
        let sum: f64 = exp3.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_arms_span_range() {
        let arms = Exp3::geometric_arms(10.0, 1000.0, 5);
        assert_eq!(arms.len(), 5);
        assert!((arms[0] - 10.0).abs() < 1e-9);
        assert!((arms[4] - 1000.0).abs() < 1e-6);
        assert!(arms.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn rewarded_arm_gains_probability() {
        let mut exp3 = Exp3::new(vec![10.0, 100.0, 1000.0], 0.1, 1);
        let before = exp3.probabilities()[1];
        for _ in 0..50 {
            exp3.update(1, 1.0);
        }
        let after = exp3.probabilities()[1];
        assert!(after > before);
        assert!(after > 0.8);
    }

    #[test]
    fn exploration_floor_is_maintained() {
        let mut exp3 = Exp3::new(vec![1.0, 2.0], 0.2, 2);
        for _ in 0..100 {
            exp3.update(0, 1.0);
        }
        let probs = exp3.probabilities();
        assert!(probs[1] >= 0.2 / 2.0 - 1e-12);
    }

    #[test]
    fn best_arm_is_eventually_preferred() {
        // Arm 2 always yields the best reward.
        let mut exp3 = Exp3::new(Exp3::geometric_arms(1.0, 1000.0, 8), 0.1, 3);
        for _ in 0..400 {
            let arm = exp3.draw();
            let reward = if arm == 2 { 0.9 } else { 0.2 };
            exp3.update(arm, reward);
        }
        let probs = exp3.probabilities();
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 2, "probabilities {probs:?}");
    }

    #[test]
    fn rewards_are_clamped() {
        let mut exp3 = Exp3::new(vec![1.0, 2.0], 0.3, 4);
        exp3.update(0, 100.0);
        exp3.update(1, -5.0);
        let probs = exp3.probabilities();
        assert!(probs.iter().all(|p| p.is_finite() && *p > 0.0));
    }

    #[test]
    fn weights_do_not_overflow() {
        let mut exp3 = Exp3::new(vec![1.0, 2.0], 1.0, 5);
        for _ in 0..10_000 {
            exp3.update(0, 1.0);
        }
        assert!(exp3.probabilities().iter().all(|p| p.is_finite()));
    }

    #[test]
    #[should_panic]
    fn empty_arms_panics() {
        let _ = Exp3::new(vec![], 0.1, 0);
    }

    #[test]
    #[should_panic]
    fn invalid_gamma_panics() {
        let _ = Exp3::new(vec![1.0], 0.0, 0);
    }
}
