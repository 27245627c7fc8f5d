//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, the trajectory digest, and the metric-name grammar and limits that
//! `BENCHMARK.json` must obey.

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down, in basis points. Integer
/// arithmetic keeps the "samples beyond" count exact.
const TAIL_LADDER_BP: [u64; 52] = {
    let mut ladder = [0u64; 52];
    ladder[0] = 9_999;
    ladder[1] = 9_990;
    let mut i = 2;
    while i < 52 {
        // 99 %, 98 %, …, 50 %.
        ladder[i] = (101 - i as u64) * 100;
        i += 1;
    }
    ladder
};

/// Limits the benchmark's metric lists must respect.
pub const MAX_END_TO_END: usize = 16;
/// See [`MAX_END_TO_END`].
pub const MAX_PER_LAYER: usize = 128;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q ∈ [0, 1]` of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A tail percentile chosen by the "at least [`TAIL_BEYOND`] samples
/// beyond it" rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
}

/// The highest percentile (from 99.99 down to 50) whose nearest-rank
/// sample has at least [`TAIL_BEYOND`] samples after it, or `None` when
/// the sample is too small for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len() as u64;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER_BP.iter().find_map(|&bp| {
        let rank = (bp * n).div_ceil(10_000);
        let beyond = n.checked_sub(rank)? as usize;
        (rank >= 1 && beyond >= TAIL_BEYOND).then(|| Tail {
            percentile: bp as f64 / 100.0,
            value: sorted[rank as usize - 1],
            beyond,
        })
    })
}

/// Fewest trials whose rounds [`tail_rounds`] folds by round index.
pub const FOLD_TRIALS: usize = 3;

/// The sample the tail rule reads, and whether it was folded. When there
/// are at least [`FOLD_TRIALS`] trials of one length, each long enough for
/// the rule on its own (`2 × TAIL_BEYOND` rounds), the sample is each round
/// index's median over the trials: a round that is slow in the typical
/// trial (an evaluation, a checkpoint, the first round's arena growth)
/// stays in the tail, while one that a host stall stretched in a single
/// trial does not. Otherwise it is every round of every trial.
pub fn tail_rounds(trials: &[&[f64]]) -> (Vec<f64>, bool) {
    let len = trials.first().map_or(0, |t| t.len());
    let fold = trials.len() >= FOLD_TRIALS
        && len >= 2 * TAIL_BEYOND
        && trials.iter().all(|t| t.len() == len);
    if !fold {
        return (
            trials.iter().flat_map(|t| t.iter().copied()).collect(),
            false,
        );
    }
    let folded = (0..len)
        .map(|i| median(&trials.iter().map(|t| t[i]).collect::<Vec<_>>()))
        .collect();
    (folded, true)
}

/// FNV-1a (64-bit) over a stream of words, each folded in little-endian
/// byte order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of a parameter vector.
    pub fn params(&mut self, params: &[f32]) {
        for p in params {
            self.word(u64::from(p.to_bits()));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Whether `name` follows the metric-name grammar: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` follows the unit grammar: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks a metric list: names and units follow the grammar, names are
/// unique, and the list holds between 1 and `max` metrics.
pub fn check_metric_list(metrics: &[(&str, &str)], max: usize) -> Result<(), String> {
    if metrics.is_empty() || metrics.len() > max {
        return Err(format!("{} metrics, allowed 1 to {max}", metrics.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in metrics {
        if !valid_name(name) {
            return Err(format!("bad metric name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("bad unit {unit:?} for {name}"));
        }
        if !seen.insert(name) {
            return Err(format!("duplicate metric {name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond; p99.9 would leave 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 35 samples: p71 has rank 25 and 10 beyond; p72 would leave 9.
        let v: Vec<f64> = (1..=35).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (71.0, 25.0, 10));
        // Exactly 20 samples: only the median qualifies.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 50.0);
        // 19 samples: nothing does.
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&[]), None);
        // Order does not matter, and the rule holds at every size.
        for n in 20..3000usize {
            let v: Vec<f64> = (0..n).rev().map(|x| x as f64).collect();
            let t = tail(&v).unwrap();
            assert!(t.beyond >= TAIL_BEYOND, "n={n}");
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), t.beyond);
        }
    }

    #[test]
    fn tail_rounds_fold_long_trials_by_round_index() {
        // Three 20-round trials: round 5 is slow in every trial, and each
        // trial has one stall of its own at a different round.
        let mut trials = vec![vec![1.0; 20]; 3];
        for (j, t) in trials.iter_mut().enumerate() {
            t[5] = 4.0;
            t[10 + j] = 50.0;
        }
        let refs: Vec<&[f64]> = trials.iter().map(Vec::as_slice).collect();
        let (sample, folded) = tail_rounds(&refs);
        assert!(folded);
        let mut expect = vec![1.0; 20];
        expect[5] = 4.0;
        assert_eq!(sample, expect);
        // Two trials, short trials or unequal lengths: every round counts.
        let (sample, folded) = tail_rounds(&refs[..2]);
        assert_eq!((sample.len(), folded), (40, false));
        let short: Vec<&[f64]> = refs.iter().map(|t| &t[..19]).collect();
        assert_eq!(tail_rounds(&short), (short.concat(), false));
        let uneven = [refs[0], refs[1], &refs[2][..19]];
        assert_eq!(tail_rounds(&uneven).0.len(), 59);
        assert_eq!(tail_rounds(&[]), (Vec::new(), false));
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        // Reference value: FNV-1a-64 of the eight bytes 01 00 00 00 00 00 00 00.
        let mut d = Digest::default();
        d.word(1);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for b in [1u8, 0, 0, 0, 0, 0, 0, 0] {
            expect = (expect ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(d.value(), expect);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        // -0.0 and 0.0 differ in bits, so the digest tells them apart.
        let (mut p, mut q) = (Digest::default(), Digest::default());
        p.params(&[0.0]);
        q.params(&[-0.0]);
        assert_ne!(p, q);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["round_ms_p50", "ml.loss_and_grad_ms", "a", "9-x.y_z"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "k/s", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("B/round"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn metric_lists_respect_the_limits() {
        let names: Vec<String> = (0..129).map(|i| format!("m{i}")).collect();
        let list: Vec<(&str, &str)> = names.iter().map(|n| (n.as_str(), "ms")).collect();
        assert!(check_metric_list(&list[..16], MAX_END_TO_END).is_ok());
        assert!(check_metric_list(&list[..17], MAX_END_TO_END).is_err());
        assert!(check_metric_list(&list[..128], MAX_PER_LAYER).is_ok());
        assert!(check_metric_list(&list, MAX_PER_LAYER).is_err());
        assert!(check_metric_list(&[], MAX_PER_LAYER).is_err());
        assert!(check_metric_list(&[("a", "ms"), ("a", "s")], 4).is_err());
        assert!(check_metric_list(&[("a b", "ms")], 4).is_err());
    }
}
