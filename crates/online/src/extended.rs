//! Algorithm 3: extended online learning with shrinking search intervals.

use serde::{Deserialize, Serialize};

use crate::sign_ogd::SearchInterval;
use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// Configuration of [`ExtendedSignOgd`] (Algorithm 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExtendedConfig {
    /// Absolute lower bound `kmin` of the search range.
    pub k_min: f64,
    /// Absolute upper bound `kmax` of the search range.
    pub k_max: f64,
    /// Interval inflation coefficient `α ≥ 1`: the candidate new interval is
    /// `[k'min / α, k'max · α]` clipped to `[kmin, kmax]`. The paper uses 1.5.
    pub alpha: f64,
    /// Update window `Mu`: how many rounds of observed `k` values are
    /// collected before considering an interval shrink. The paper uses 20.
    pub update_window: usize,
    /// Initial `k_1`.
    pub initial_k: f64,
}

impl ExtendedConfig {
    /// Paper defaults for a model of dimension `dim`: `kmin = 0.002·D`,
    /// `kmax = D`, `α = 1.5`, `Mu = 20`, `k_1 = D/2`.
    pub fn paper_defaults(dim: usize) -> Self {
        let d = dim as f64;
        Self {
            k_min: (0.002 * d).max(1.0),
            k_max: d,
            alpha: 1.5,
            update_window: 20,
            initial_k: d / 2.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.k_min >= 1.0 && self.k_min <= self.k_max,
            "invalid k range"
        );
        assert!(self.alpha >= 1.0, "alpha must be at least 1");
        assert!(self.update_window > 0, "update window must be positive");
    }
}

/// Algorithm 3 of the paper: multiple restarted instances of Algorithm 2 on
/// progressively smaller search intervals.
///
/// Every `Mu` consumed signs the algorithm looks at the range of `k` values
/// visited inside the window, inflates it by `α`, and — if the resulting
/// width `B'` is below `(√2 − 1)·B` **and** the current instance has run at
/// least as long as the previous one — restarts a fresh instance of
/// Algorithm 2 on the smaller interval (Lines 8–15 of Algorithm 3). The
/// restart resets the step-size schedule, so `k` settles faster and
/// fluctuates less, which is what Fig. 6 of the paper demonstrates.
///
/// # Examples
///
/// ```
/// use agsfl_online::{ExtendedConfig, ExtendedSignOgd};
///
/// let mut alg = ExtendedSignOgd::new(ExtendedConfig::paper_defaults(100_000));
/// for _ in 0..100 {
///     let sign = if alg.k() > 500.0 { 1 } else { -1 };
///     alg.step(Some(sign));
/// }
/// assert!(alg.k() < 100_000.0 / 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtendedSignOgd {
    config: ExtendedConfig,
    /// Current instance's search interval `K`.
    interval: SearchInterval,
    /// Current continuous decision `k_m`.
    k: f64,
    /// Signs consumed by the current instance (the `m − m0` of Algorithm 3).
    instance_rounds: usize,
    /// Length (in consumed signs) of the previous instance, `M'`.
    previous_instance_rounds: usize,
    /// Signs consumed since the window statistics were last reset, `n`.
    window_count: usize,
    /// Minimum `k` observed in the current window, `k'min`.
    window_min: f64,
    /// Maximum `k` observed in the current window, `k'max`.
    window_max: f64,
    /// Number of interval shrinks performed so far (for diagnostics).
    restarts: usize,
}

impl ExtendedSignOgd {
    /// Creates the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ExtendedConfig) -> Self {
        config.validate();
        let interval = SearchInterval::new(config.k_min, config.k_max);
        Self {
            config,
            interval,
            k: interval.project(config.initial_k),
            instance_rounds: 0,
            previous_instance_rounds: 0,
            window_count: 0,
            window_min: f64::INFINITY,
            window_max: 0.0,
            restarts: 0,
        }
    }

    /// The current (continuous) decision `k_m`.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The current instance's search interval.
    pub fn interval(&self) -> &SearchInterval {
        &self.interval
    }

    /// How many times the search interval has been shrunk so far.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> &ExtendedConfig {
        &self.config
    }

    /// The step size `δ_m = B / √(2(m − m0))` that will be applied to the
    /// next observed sign (instance-local round counted from 1).
    pub fn next_step_size(&self) -> f64 {
        let m = (self.instance_rounds + 1) as f64;
        self.interval.width() / (2.0 * m).sqrt()
    }

    /// The probe sparsity `k'_m = k_m − δ_m / 2`, clamped to at least 1.
    pub fn probe_k(&self) -> f64 {
        (self.k - self.next_step_size() / 2.0).max(1.0)
    }

    /// Consumes one (estimated) derivative sign; `None` keeps everything
    /// unchanged (the paper skips Lines 6–7 when the estimate is
    /// unavailable). Returns the new `k`.
    pub fn step(&mut self, sign: Option<i8>) -> f64 {
        let Some(sign) = sign else {
            return self.k;
        };
        debug_assert!((-1..=1).contains(&sign), "sign must be in {{-1, 0, 1}}");

        // Line 4: k_{m+1} = P_K(k_m − δ_m · s_m).
        self.instance_rounds += 1;
        let delta = self.interval.width() / (2.0 * self.instance_rounds as f64).sqrt();
        self.k = self.interval.project(self.k - delta * sign as f64);

        // Lines 6–7: window statistics.
        self.window_min = self.window_min.min(self.k);
        self.window_max = self.window_max.max(self.k);
        self.window_count += 1;

        // Lines 8–15: consider shrinking the interval.
        if self.window_count >= self.config.update_window {
            let candidate_max = (self.window_max * self.config.alpha).min(self.config.k_max);
            let candidate_min = (self.window_min / self.config.alpha).max(self.config.k_min);
            let b_new = candidate_max - candidate_min;
            let shrink_threshold = (std::f64::consts::SQRT_2 - 1.0) * self.interval.width();
            if b_new < shrink_threshold && self.instance_rounds >= self.previous_instance_rounds {
                self.interval = SearchInterval::new(candidate_min.max(1.0), candidate_max.max(1.0));
                self.k = self.interval.project(self.k);
                self.previous_instance_rounds = self.instance_rounds;
                self.instance_rounds = 0;
                self.restarts += 1;
            }
            self.window_count = 0;
            self.window_min = f64::INFINITY;
            self.window_max = 0.0;
        }
        self.k
    }

    pub(crate) fn write_state(&self, w: &mut SnapshotWriter) {
        self.interval.write_state(w);
        w.f64(self.k);
        w.usize(self.instance_rounds);
        w.usize(self.previous_instance_rounds);
        w.usize(self.window_count);
        w.f64(self.window_min);
        w.f64(self.window_max);
        w.usize(self.restarts);
    }

    pub(crate) fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let interval = SearchInterval::read_state(r)?;
        let k = r.f64()?;
        if !interval.contains(k) {
            return Err(CheckpointError::Invalid("k outside interval"));
        }
        let instance_rounds = r.usize()?;
        let previous_instance_rounds = r.usize()?;
        let window_count = r.usize()?;
        let window_min = r.f64()?;
        let window_max = r.f64()?;
        let restarts = r.usize()?;
        self.interval = interval;
        self.k = k;
        self.instance_rounds = instance_rounds;
        self.previous_instance_rounds = previous_instance_rounds;
        self.window_count = window_count;
        self.window_min = window_min;
        self.window_max = window_max;
        self.restarts = restarts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(dim: usize) -> ExtendedConfig {
        ExtendedConfig::paper_defaults(dim)
    }

    #[test]
    fn paper_defaults_match_section_v() {
        let cfg = config(400_000);
        assert!((cfg.k_min - 800.0).abs() < 1e-9);
        assert_eq!(cfg.k_max, 400_000.0);
        assert_eq!(cfg.alpha, 1.5);
        assert_eq!(cfg.update_window, 20);
    }

    #[test]
    fn k_stays_within_absolute_bounds() {
        let mut alg = ExtendedSignOgd::new(config(10_000));
        for i in 0..500 {
            let sign = if i % 3 == 0 { -1 } else { 1 };
            let k = alg.step(Some(sign));
            assert!(k >= alg.config().k_min - 1e-9);
            assert!(k <= alg.config().k_max + 1e-9);
        }
    }

    #[test]
    fn interval_shrinks_when_signs_stabilize() {
        let mut alg = ExtendedSignOgd::new(config(100_000));
        let initial_width = alg.interval().width();
        // Constant optimum at a small k: the sign is +1 until k gets there,
        // after which it oscillates in a narrow band.
        for _ in 0..400 {
            let sign = if alg.k() > 600.0 { 1 } else { -1 };
            alg.step(Some(sign));
        }
        assert!(alg.restarts() > 0, "expected at least one interval shrink");
        assert!(alg.interval().width() < initial_width * 0.5);
    }

    #[test]
    fn shrunken_interval_reduces_fluctuation_compared_to_algorithm_2() {
        use crate::sign_ogd::SignOgd;
        let dim = 100_000usize;
        let k_star = 500.0;
        let mut alg3 = ExtendedSignOgd::new(config(dim));
        let mut alg2 = SignOgd::new(
            SearchInterval::new(config(dim).k_min, config(dim).k_max),
            config(dim).initial_k,
        );
        let mut trace3 = Vec::new();
        let mut trace2 = Vec::new();
        for _ in 0..600 {
            let s3 = if alg3.k() > k_star { 1 } else { -1 };
            trace3.push(alg3.step(Some(s3)));
            let s2 = if alg2.k() > k_star { 1 } else { -1 };
            trace2.push(alg2.step(Some(s2)));
        }
        // Compare the spread of k over the last 100 rounds.
        let spread = |trace: &[f64]| {
            let tail = &trace[trace.len() - 100..];
            let max = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        assert!(
            spread(&trace3) < spread(&trace2),
            "Algorithm 3 should fluctuate less: {} vs {}",
            spread(&trace3),
            spread(&trace2)
        );
    }

    #[test]
    fn missing_sign_is_a_noop() {
        let mut alg = ExtendedSignOgd::new(config(1_000));
        let before = alg.clone();
        alg.step(None);
        assert_eq!(alg, before);
    }

    #[test]
    fn restart_requires_current_instance_at_least_as_long_as_previous() {
        // After the first restart, the very next window cannot trigger another
        // restart unless it has run at least as many rounds as the first
        // instance did.
        let mut alg = ExtendedSignOgd::new(config(50_000));
        let mut restart_rounds = Vec::new();
        let mut last_restarts = 0;
        for m in 1..=800 {
            let sign = if alg.k() > 300.0 { 1 } else { -1 };
            alg.step(Some(sign));
            if alg.restarts() > last_restarts {
                restart_rounds.push(m);
                last_restarts = alg.restarts();
            }
        }
        // Gaps between consecutive restarts are non-decreasing in instance
        // length terms: each instance must run at least as long as the prior.
        for w in restart_rounds.windows(2) {
            assert!(w[1] - w[0] >= 1);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_alpha_panics() {
        let mut cfg = config(100);
        cfg.alpha = 0.5;
        let _ = ExtendedSignOgd::new(cfg);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_k_never_leaves_absolute_range(
            signs in proptest::collection::vec(-1i8..=1, 1..300),
            dim in 100usize..100_000,
        ) {
            let cfg = config(dim);
            let mut alg = ExtendedSignOgd::new(cfg);
            for s in signs {
                let k = alg.step(Some(s));
                prop_assert!(k >= cfg.k_min - 1e-9 && k <= cfg.k_max + 1e-9);
            }
        }
    }
}
