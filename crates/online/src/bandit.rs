//! Continuous one-point bandit baseline (Flaxman et al.).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::sign_ogd::SearchInterval;
use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// Bandit online convex optimization with a one-point gradient estimate —
/// the third baseline of Fig. 5 ("Continuous bandit").
///
/// The algorithm keeps an iterate `x_m`, plays the perturbed point
/// `k_m = P_K(x_m + δ_m·u_m)` with `u_m ∈ {−1, +1}` uniform, observes the
/// scalar cost `c_m` of the round and updates with the one-point estimator
/// `ĝ_m = c_m·u_m/δ_m`:
///
/// ```text
/// x_{m+1} = P_K(x_m − η_m · ĝ_m)
/// ```
///
/// with `δ_m ∝ m^{-1/4}` and `η_m ∝ m^{-3/4}` (the schedule that gives the
/// classic `O(M^{3/4})` regret, asymptotically worse than the paper's
/// `O(√M)` sign-based method).
#[derive(Debug, Clone)]
pub struct ContinuousBandit {
    interval: SearchInterval,
    x: f64,
    /// Base perturbation radius (scaled by `m^{-1/4}`).
    delta0: f64,
    /// Base step size (scaled by `m^{-3/4}`).
    eta0: f64,
    m: usize,
    current_direction: f64,
    rng: ChaCha8Rng,
}

impl ContinuousBandit {
    /// Creates the baseline.
    ///
    /// `delta0` and `eta0` are the round-1 perturbation radius and step size;
    /// reasonable defaults are `B/10` and `B/10` for interval width `B`.
    ///
    /// # Panics
    ///
    /// Panics if `delta0` or `eta0` is not positive.
    pub fn new(
        interval: SearchInterval,
        initial_k: f64,
        delta0: f64,
        eta0: f64,
        seed: u64,
    ) -> Self {
        assert!(
            delta0 > 0.0 && eta0 > 0.0,
            "delta0 and eta0 must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let current_direction = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        Self {
            interval,
            x: interval.project(initial_k),
            delta0,
            eta0,
            m: 0,
            current_direction,
            rng,
        }
    }

    /// Creates the baseline with the default `B/10` scales.
    pub fn with_default_scales(interval: SearchInterval, initial_k: f64, seed: u64) -> Self {
        let b = interval.width().max(1.0);
        Self::new(interval, initial_k, b / 10.0, b / 10.0, seed)
    }

    /// The unperturbed iterate `x_m`.
    pub fn center(&self) -> f64 {
        self.x
    }

    /// The search interval.
    pub fn interval(&self) -> &SearchInterval {
        &self.interval
    }

    /// The perturbation radius `δ_m` for the upcoming round.
    pub fn current_delta(&self) -> f64 {
        self.delta0 / ((self.m + 1) as f64).powf(0.25)
    }

    /// The step size `η_m` for the upcoming round.
    pub fn current_eta(&self) -> f64 {
        self.eta0 / ((self.m + 1) as f64).powf(0.75)
    }

    /// The perturbed point `k_m = P_K(x_m + δ_m·u_m)` to play this round.
    pub fn k(&self) -> f64 {
        self.interval
            .project(self.x + self.current_delta() * self.current_direction)
    }

    /// Feeds back the observed scalar cost of the played point and advances
    /// to the next round. Non-finite or negative costs are ignored.
    pub fn observe_cost(&mut self, cost: f64) {
        if cost.is_finite() && cost >= 0.0 {
            let delta = self.current_delta();
            let eta = self.current_eta();
            let grad_estimate = cost * self.current_direction / delta;
            self.x = self.interval.project(self.x - eta * grad_estimate);
            self.m += 1;
        }
        self.current_direction = if self.rng.gen::<bool>() { 1.0 } else { -1.0 };
    }

    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        w.f64(self.x);
        w.usize(self.m);
        w.f64(self.current_direction);
        w.rng(&self.rng);
    }

    pub(crate) fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let x = r.f64()?;
        if !self.interval.contains(x) {
            return Err(CheckpointError::Invalid("iterate outside interval"));
        }
        let m = r.usize()?;
        let direction = r.f64()?;
        if direction != 1.0 && direction != -1.0 {
            return Err(CheckpointError::Invalid("perturbation direction"));
        }
        let rng = r.rng()?;
        self.x = x;
        self.m = m;
        self.current_direction = direction;
        self.rng = rng;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval() -> SearchInterval {
        SearchInterval::new(10.0, 1010.0)
    }

    #[test]
    fn played_point_stays_in_interval() {
        let mut alg = ContinuousBandit::with_default_scales(interval(), 500.0, 0);
        for _ in 0..200 {
            let k = alg.k();
            assert!(interval().contains(k));
            alg.observe_cost(1.0);
        }
    }

    #[test]
    fn schedules_decay() {
        let mut alg = ContinuousBandit::with_default_scales(interval(), 500.0, 1);
        let d1 = alg.current_delta();
        let e1 = alg.current_eta();
        for _ in 0..10 {
            alg.observe_cost(0.5);
        }
        assert!(alg.current_delta() < d1);
        assert!(alg.current_eta() < e1);
        // Eta decays faster than delta.
        assert!(alg.current_eta() / e1 < alg.current_delta() / d1);
    }

    #[test]
    fn moves_toward_lower_cost_region() {
        // Monotone cost in k (normalized to [0, 1]): the gradient estimate
        // should push the iterate towards the low-cost (small-k) end. The
        // one-point estimator is very noisy — this is exactly why the paper's
        // sign-based method beats it — so the step scale must be generous and
        // the assertion is deliberately loose.
        let mut alg = ContinuousBandit::new(interval(), 900.0, 100.0, 20_000.0, 2);
        for _ in 0..3000 {
            let k = alg.k();
            let cost = k / 1010.0;
            alg.observe_cost(cost);
        }
        assert!(
            alg.center() < 700.0,
            "center {} did not move toward the low-cost region",
            alg.center()
        );
    }

    #[test]
    fn invalid_costs_are_ignored() {
        let mut alg = ContinuousBandit::with_default_scales(interval(), 500.0, 3);
        let before_center = alg.center();
        alg.observe_cost(f64::NAN);
        alg.observe_cost(-1.0);
        assert_eq!(alg.center(), before_center);
    }

    #[test]
    #[should_panic]
    fn non_positive_scales_panic() {
        let _ = ContinuousBandit::new(interval(), 100.0, 0.0, 1.0, 0);
    }
}
