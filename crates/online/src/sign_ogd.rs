//! Algorithm 2: online learning from the sign of the derivative.

use serde::{Deserialize, Serialize};

use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// The closed search interval `K = [kmin, kmax]` for the sparsity degree.
///
/// # Examples
///
/// ```
/// use agsfl_online::SearchInterval;
///
/// let interval = SearchInterval::new(10.0, 100.0);
/// assert_eq!(interval.width(), 90.0);
/// assert_eq!(interval.project(5.0), 10.0);
/// assert_eq!(interval.project(55.0), 55.0);
/// assert_eq!(interval.project(1e9), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchInterval {
    min: f64,
    max: f64,
}

impl SearchInterval {
    /// Creates the interval `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `min > max` or `min < 1`.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(min.is_finite() && max.is_finite(), "bounds must be finite");
        assert!(min >= 1.0, "kmin must be at least 1 (got {min})");
        assert!(min <= max, "kmin {min} must not exceed kmax {max}");
        Self { min, max }
    }

    /// Lower bound `kmin`.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper bound `kmax`.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Width `B = kmax − kmin`.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Projection `P_K(k)` onto the interval.
    pub fn project(&self, k: f64) -> f64 {
        k.clamp(self.min, self.max)
    }

    /// Returns `true` if `k` lies within the interval (inclusive).
    pub fn contains(&self, k: f64) -> bool {
        (self.min..=self.max).contains(&k)
    }

    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        w.f64(self.min);
        w.f64(self.max);
    }

    pub(crate) fn read_state(r: &mut SnapshotReader<'_>) -> Result<Self, CheckpointError> {
        let min = r.f64()?;
        let max = r.f64()?;
        if !min.is_finite() || !max.is_finite() || min < 1.0 || min > max {
            return Err(CheckpointError::Invalid("search interval"));
        }
        Ok(Self { min, max })
    }
}

/// Algorithm 2 of the paper: projected descent on the estimated derivative
/// *sign* with step size `δ_m = B / √(2m)`.
///
/// The regret against the best fixed `k*` in hindsight is bounded by
/// `G·B·√(2M)` with exact signs (Theorem 1) and `G·H·B·√(2M)` with estimated
/// signs satisfying Eqs. (6)–(7) (Theorem 2).
///
/// # Examples
///
/// ```
/// use agsfl_online::{SearchInterval, SignOgd};
///
/// let mut alg = SignOgd::new(SearchInterval::new(1.0, 101.0), 90.0);
/// // Step size of round 1 is B/sqrt(2) ≈ 70.7; a positive sign moves k down.
/// let k2 = alg.step(Some(1));
/// assert!(k2 < 90.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignOgd {
    interval: SearchInterval,
    k: f64,
    /// Number of sign observations consumed so far (the `m` in `δ_m`).
    m: usize,
}

impl SignOgd {
    /// Creates the algorithm with search interval `K` and initial `k_1`.
    ///
    /// The initial value is projected onto the interval.
    pub fn new(interval: SearchInterval, initial_k: f64) -> Self {
        Self {
            interval,
            k: interval.project(initial_k),
            m: 0,
        }
    }

    /// The current (continuous) decision `k_m`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The search interval `K`.
    pub fn interval(&self) -> &SearchInterval {
        &self.interval
    }

    /// Number of sign observations consumed so far.
    pub fn rounds(&self) -> usize {
        self.m
    }

    /// The step size `δ_m = B / √(2m)` that will be applied to the *next*
    /// observed sign (with `m` counted from 1).
    pub fn next_step_size(&self) -> f64 {
        let m = (self.m + 1) as f64;
        self.interval.width() / (2.0 * m).sqrt()
    }

    /// The probe sparsity `k'_m = k_m − δ_m / 2` used by the derivative-sign
    /// estimator (Section IV-E), clamped to stay at least 1.
    pub fn probe_k(&self) -> f64 {
        (self.k - self.next_step_size() / 2.0).max(1.0)
    }

    /// Consumes one (estimated) derivative sign and updates
    /// `k_{m+1} = P_K(k_m − δ_m · s_m)`.
    ///
    /// Passing `None` means the sign was unavailable this round (e.g. the
    /// single-sample losses did not decrease); the paper keeps `k` unchanged
    /// in that case and the round does not advance the step-size schedule.
    ///
    /// Returns the new `k`.
    pub fn step(&mut self, sign: Option<i8>) -> f64 {
        let Some(sign) = sign else {
            return self.k;
        };
        debug_assert!((-1..=1).contains(&sign), "sign must be in {{-1, 0, 1}}");
        self.m += 1;
        let delta = self.interval.width() / (2.0 * self.m as f64).sqrt();
        self.k = self.interval.project(self.k - delta * sign as f64);
        self.k
    }

    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        self.interval.write_state(w);
        w.f64(self.k);
        w.usize(self.m);
    }

    pub(crate) fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let interval = SearchInterval::read_state(r)?;
        let k = r.f64()?;
        if !interval.contains(k) {
            return Err(CheckpointError::Invalid("k outside interval"));
        }
        let m = r.usize()?;
        self.interval = interval;
        self.k = k;
        self.m = m;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_validation() {
        let i = SearchInterval::new(2.0, 10.0);
        assert_eq!(i.min(), 2.0);
        assert_eq!(i.max(), 10.0);
        assert!(i.contains(2.0) && i.contains(10.0));
        assert!(!i.contains(1.0));
    }

    #[test]
    #[should_panic]
    fn inverted_interval_panics() {
        let _ = SearchInterval::new(10.0, 2.0);
    }

    #[test]
    #[should_panic]
    fn kmin_below_one_panics() {
        let _ = SearchInterval::new(0.5, 2.0);
    }

    #[test]
    fn initial_k_is_projected() {
        let alg = SignOgd::new(SearchInterval::new(10.0, 20.0), 100.0);
        assert_eq!(alg.k(), 20.0);
    }

    #[test]
    fn step_sizes_decay_as_inverse_sqrt() {
        let alg = SignOgd::new(SearchInterval::new(1.0, 101.0), 50.0);
        let b = 100.0f64;
        assert!((alg.next_step_size() - b / 2.0f64.sqrt()).abs() < 1e-12);
        let mut alg = alg;
        alg.step(Some(0));
        assert!((alg.next_step_size() - b / 4.0f64.sqrt()).abs() < 1e-12);
        alg.step(Some(0));
        assert!((alg.next_step_size() - b / 6.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn positive_sign_decreases_k_and_vice_versa() {
        let mut alg = SignOgd::new(SearchInterval::new(1.0, 1001.0), 500.0);
        let before = alg.k();
        alg.step(Some(1));
        assert!(alg.k() < before);
        let mid = alg.k();
        alg.step(Some(-1));
        assert!(alg.k() > mid);
    }

    #[test]
    fn zero_sign_keeps_k_but_advances_schedule() {
        let mut alg = SignOgd::new(SearchInterval::new(1.0, 101.0), 40.0);
        let s1 = alg.next_step_size();
        alg.step(Some(0));
        assert_eq!(alg.k(), 40.0);
        assert!(alg.next_step_size() < s1);
    }

    #[test]
    fn missing_sign_freezes_everything() {
        let mut alg = SignOgd::new(SearchInterval::new(1.0, 101.0), 40.0);
        let s1 = alg.next_step_size();
        alg.step(None);
        assert_eq!(alg.k(), 40.0);
        assert_eq!(alg.next_step_size(), s1);
        assert_eq!(alg.rounds(), 0);
    }

    #[test]
    fn converges_to_low_k_when_sign_always_positive() {
        let mut alg = SignOgd::new(SearchInterval::new(1.0, 10_001.0), 9_000.0);
        for _ in 0..500 {
            alg.step(Some(1));
        }
        assert!(alg.k() < 2_000.0, "k = {}", alg.k());
    }

    #[test]
    fn tracks_an_interior_optimum() {
        // Simulate a convex cost with minimum at k* = 300: sign is +1 above,
        // -1 below.
        let k_star = 300.0;
        let mut alg = SignOgd::new(SearchInterval::new(1.0, 2_001.0), 1_800.0);
        for _ in 0..2_000 {
            let sign = if alg.k() > k_star { 1 } else { -1 };
            alg.step(Some(sign));
        }
        assert!((alg.k() - k_star).abs() < 150.0, "k = {}", alg.k());
    }

    #[test]
    fn probe_k_is_half_step_below_k() {
        let alg = SignOgd::new(SearchInterval::new(1.0, 101.0), 60.0);
        let expected = 60.0 - alg.next_step_size() / 2.0;
        assert!((alg.probe_k() - expected).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_k_always_stays_in_interval(
            signs in proptest::collection::vec(-1i8..=1, 1..200),
            start in 1.0f64..500.0,
        ) {
            let interval = SearchInterval::new(5.0, 400.0);
            let mut alg = SignOgd::new(interval, start);
            for s in signs {
                let k = alg.step(Some(s));
                prop_assert!(interval.contains(k));
            }
        }
    }
}
