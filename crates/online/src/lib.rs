//! Online learning algorithms for adapting the gradient sparsity degree `k`.
//!
//! Section IV of the paper formulates the choice of `k` as non-stochastic
//! online convex optimization over the unknown per-unit-loss training time
//! `t(k, l)` and proposes two algorithms that only need the *sign* of the
//! derivative of the per-round cost:
//!
//! * [`SignOgd`] — Algorithm 2, projected sign-descent with step
//!   `δ_m = B / √(2m)` and regret `≤ G·B·√(2M)` (Theorem 1), or
//!   `≤ G·H·B·√(2M)` with an estimated sign (Theorem 2);
//! * [`ExtendedSignOgd`] — Algorithm 3, which shrinks the search interval
//!   (and hence the step size) whenever the recently visited range of `k`
//!   becomes small enough, restarting the inner instance;
//! * [`DerivativeSignEstimator`] — the practical sign estimator of
//!   Section IV-E built from three single-sample loss evaluations per round
//!   (Eqs. (10)–(11)).
//!
//! The baselines the paper compares against are also provided:
//! [`ValueBasedDescent`] (derivative descent without the sign), [`Exp3`]
//! (non-stochastic multi-armed bandit over integer arms) and
//! [`ContinuousBandit`] (one-point gradient estimation), plus synthetic
//! convex cost environments and regret accounting ([`regret`]) used to check
//! the theorems empirically.
//!
//! Every controller checkpoints its mutable state through the snapshot
//! codec of `agsfl-wire` ([`KController::save_state`] and
//! [`KController::restore_state`]). Each blob starts with a one-byte
//! controller-type tag, so restoring one controller's state into another
//! type is a [`CheckpointError::Mismatch`] naming the expected controller.
//!
//! # Example
//!
//! ```
//! use agsfl_online::{SearchInterval, SignOgd};
//!
//! // Optimal k is small: the derivative sign is +1 whenever k is above it.
//! let mut alg = SignOgd::new(SearchInterval::new(10.0, 1000.0), 800.0);
//! for _ in 0..200 {
//!     let sign = if alg.k() > 50.0 { 1 } else { -1 };
//!     alg.step(Some(sign));
//! }
//! assert!(alg.k() < 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandit;
mod controllers;
mod estimator;
mod exp3;
mod extended;
pub mod regret;
mod rounding;
mod sign_ogd;
mod value_based;

pub use bandit::ContinuousBandit;
pub use controllers::{BanditController, Exp3Controller, FixedK, PrecisionController};
pub use estimator::{DerivativeSignEstimator, EstimatorInputs};
pub use exp3::Exp3;
pub use extended::{ExtendedConfig, ExtendedSignOgd};
pub use rounding::stochastic_round;
pub use sign_ogd::{SearchInterval, SignOgd};
pub use value_based::ValueBasedDescent;

use agsfl_wire::CheckpointError;

/// The benchmark's name for the controller restore error. Exists only so
/// `perfbench`'s workloads keep building; goes in the next change to them.
pub use agsfl_wire::CheckpointError as StateError;

/// A controller that proposes the sparsity degree `k` for the next round and
/// learns from per-round feedback.
///
/// All algorithms in this crate (the paper's and the baselines) implement this
/// trait so the experiment harness in `agsfl-core` can swap them freely.
pub trait KController: Send + std::fmt::Debug {
    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// The (possibly fractional) sparsity degree to use in the next round.
    /// Callers convert it to an integer with [`stochastic_round`].
    fn propose_k(&self) -> f64;

    /// The probe sparsity `k'` this controller wants evaluated alongside the
    /// next round, if it needs one for its feedback. For the sign-based
    /// algorithms this is `k_m − δ_m / 2` (Section IV-E).
    fn probe_k(&self) -> Option<f64>;

    /// Feeds back the outcome of the round that used [`KController::propose_k`].
    fn observe(&mut self, feedback: &RoundFeedback);

    /// The uplink precision tier this controller wants for the next round —
    /// the second axis of the 2-D `(k × precision)` action space.
    ///
    /// `None` means "no opinion": the harness leaves the configured wire
    /// codec untouched, so pure-`k` controllers keep their lossless
    /// bit-identity guarantees by default. Controllers that do adapt the
    /// precision (see [`PrecisionController`]) must derive the proposal
    /// deterministically from observed feedback so trajectories stay a pure
    /// function of the seed.
    fn propose_precision(&self) -> Option<agsfl_wire::Precision> {
        None
    }

    /// Serializes the controller's mutable state (bit-exact, including any
    /// internal RNG position) for checkpointing. Restoring the bytes into a
    /// freshly constructed controller with the same configuration via
    /// [`KController::restore_state`] must reproduce the exact decision
    /// sequence the snapshotted controller would have produced.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state previously produced by [`KController::save_state`].
    ///
    /// The controller must already be constructed with the same configuration
    /// (search interval, arms, schedules) the snapshot was taken under; only
    /// the mutable state is transported. Malformed or mismatched bytes leave
    /// the controller untouched and return a [`CheckpointError`]; a blob
    /// from another controller type is a [`CheckpointError::Mismatch`].
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
}

/// Feedback given to a [`KController`] after each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFeedback {
    /// The integer `k` actually used after stochastic rounding.
    pub k_used: usize,
    /// The measured time of the round, `τ_m(k_m)`.
    pub round_time: f64,
    /// Average single-sample loss at the start-of-round weights, `L̃(w(m-1))`.
    pub probe_loss_prev: Option<f64>,
    /// Average single-sample loss after the `k_m` update, `L̃(w(m))`.
    pub probe_loss_now: Option<f64>,
    /// Average single-sample loss after the hypothetical `k'` update,
    /// `L̃(w'(m))`.
    pub probe_loss_alt: Option<f64>,
    /// Time one round would have taken with `k'`-element GS, `θ_m(k')`.
    pub probe_round_time: Option<f64>,
    /// The probe sparsity `k'` that was evaluated, if any.
    pub probe_k: Option<usize>,
    /// The drop in global training loss achieved by this round, when the
    /// harness tracks it (used by the bandit-style baselines to build their
    /// scalar cost).
    pub loss_decrease: Option<f64>,
}

impl RoundFeedback {
    /// Creates feedback carrying only the round time (sufficient for the
    /// bandit baselines when no loss tracking is available).
    pub fn time_only(k_used: usize, round_time: f64) -> Self {
        Self {
            k_used,
            round_time,
            probe_loss_prev: None,
            probe_loss_now: None,
            probe_loss_alt: None,
            probe_round_time: None,
            probe_k: None,
            loss_decrease: None,
        }
    }
}
