//! Reusable server-side selection workspace.
//!
//! Every structure here exists to make the per-round server hot path
//! allocation-free: the buffers are sized to the model dimension once and
//! "cleared" by bumping a generation counter instead of a `memset` or a
//! hash-map rebuild. See the crate-level docs for the complexity picture.

/// Smallest size (slots or entries) a scratch buffer bothers shrinking
/// below — tiny buffers are never worth releasing.
const SHRINK_FLOOR: usize = 256;

/// Grow-only-with-decay policy shared by the workspace buffers (the same
/// policy `agsfl_wire::WireScratch` applies to its frame buffer): tracks an
/// exponentially decaying demand high-water mark and releases capacity once
/// it exceeds four times the recent demand. Long runs whose round footprint
/// drops (e.g. a cohort shrinking between rounds) stop pinning their
/// high-water-mark allocation after a few rounds, while steady-state buffers
/// never shrink (demand stays at the observed size, so the 4× guard never
/// trips) and thus stay allocation-free.
fn note_demand_and_shrink<T>(buf: &mut Vec<T>, demand: &mut usize, used: usize) {
    *demand = used.max(*demand / 2).max(SHRINK_FLOOR);
    if buf.capacity() > *demand * 4 {
        buf.shrink_to(*demand * 2);
    }
}

/// A dense buffer whose entries are valid only when their generation stamp
/// matches the buffer's current epoch.
///
/// `begin()` bumps the epoch, which invalidates every slot in O(1); slots are
/// lazily re-initialised on first write. This replaces `HashSet`/`HashMap`
/// rebuilds in the selection hot path with branch-predictable array probes.
#[derive(Debug, Clone, Default)]
struct StampedBuf<T> {
    epoch: u64,
    stamp: Vec<u64>,
    data: Vec<T>,
    /// Decaying high-water mark of requested dimensions (see
    /// [`note_demand_and_shrink`]); lets a buffer grown for a huge round
    /// release its slots when later rounds are smaller.
    demand: usize,
}

impl<T: Copy + Default> StampedBuf<T> {
    /// Starts a new generation covering indices `< dim`. O(1) unless the
    /// dimension grew (buffers are extended once) or the decayed demand
    /// dropped far below the held size (buffers are truncated and their
    /// memory released).
    fn begin(&mut self, dim: usize) {
        self.demand = dim.max(self.demand / 2).max(SHRINK_FLOOR);
        if self.stamp.len() > self.demand * 4 {
            let keep = self.demand * 2;
            self.stamp.truncate(keep);
            self.stamp.shrink_to(keep);
            self.data.truncate(keep);
            self.data.shrink_to(keep);
        }
        if self.stamp.len() < dim {
            self.stamp.resize(dim, 0);
            self.data.resize(dim, T::default());
        }
        self.epoch += 1;
    }

    /// Number of slots currently resident (for memory audits and tests).
    #[cfg(test)]
    fn resident_slots(&self) -> usize {
        self.stamp.len()
    }

    /// Is slot `j` set in the current generation?
    #[inline]
    fn is_set(&self, j: usize) -> bool {
        self.stamp[j] == self.epoch
    }

    /// Writes slot `j`, stamping it into the current generation.
    #[inline]
    fn set(&mut self, j: usize, value: T) {
        self.stamp[j] = self.epoch;
        self.data[j] = value;
    }

    /// Reads slot `j`; `None` if it was not written this generation.
    #[inline]
    fn get(&self, j: usize) -> Option<T> {
        if self.is_set(j) {
            Some(self.data[j])
        } else {
            None
        }
    }

    /// Reads slot `j` without checking the stamp. Only valid after a
    /// matching `set` in the current generation.
    #[inline]
    fn get_unchecked(&self, j: usize) -> T {
        debug_assert!(self.is_set(j));
        self.data[j]
    }
}

impl StampedBuf<f64> {
    /// Adds `v` to slot `j` if it is set this generation; one stamp probe,
    /// no re-stamping. Returns whether the slot was set.
    #[inline]
    fn add_if_set(&mut self, j: usize, v: f64) -> bool {
        if self.stamp[j] == self.epoch {
            self.data[j] += v;
            true
        } else {
            false
        }
    }
}

impl StampedBuf<usize> {
    /// Records `value` at slot `j`, keeping the minimum across the current
    /// generation; one stamp probe. Returns the previously stored value.
    #[inline]
    fn observe_min(&mut self, j: usize, value: usize) -> Option<usize> {
        if self.stamp[j] == self.epoch {
            let old = self.data[j];
            if value < old {
                self.data[j] = value;
            }
            Some(old)
        } else {
            self.stamp[j] = self.epoch;
            self.data[j] = value;
            None
        }
    }
}

/// Reusable workspace for [`Sparsifier::select_into`].
///
/// One `SelectionScratch` amortises every temporary the server-side
/// selection/aggregation pipeline needs across rounds:
///
/// * `ranks` — per-index minimum upload rank (FAB's single-pass union
///   counting),
/// * `sums` — per-index weighted aggregation accumulator,
/// * `rank_counts` — histogram of minimum ranks, turned into prefix counts so
///   every `|∪ J_i^κ|` is an O(1) lookup,
/// * `selected` / `candidates` — index and candidate lists reused between
///   rounds.
///
/// Buffers grow to the largest dimension seen and are invalidated by epoch
/// bumps, so repeated calls perform zero allocations in steady state. The
/// workspace carries no round state across calls: calling `select_into`
/// twice with the same inputs returns identical results (there is a
/// regression test for exactly this).
///
/// [`Sparsifier::select_into`]: crate::Sparsifier::select_into
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    /// Minimum rank at which each index appears across client uploads.
    ranks: StampedBuf<usize>,
    /// Weighted per-index sums for aggregation.
    sums: StampedBuf<f64>,
    /// `rank_counts[r]` = number of indices whose minimum rank is `r`.
    pub(crate) rank_counts: Vec<usize>,
    /// Distinct indices observed this round, in first-appearance order.
    pub(crate) touched: Vec<usize>,
    /// The selected downlink index set, sorted ascending.
    pub(crate) selected: Vec<usize>,
    /// Fill candidates `(index, value)` at prefix level `κ`.
    pub(crate) candidates: Vec<(usize, f32)>,
    /// Decaying demand marks for the list buffers above, in field order
    /// (`rank_counts`, `touched`, `selected`, `candidates`); updated by
    /// [`SelectionScratch::shrink_to_recent_demand`].
    list_demand: [usize; 4],
}

impl SelectionScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins the rank-counting phase for a round of dimension `dim`.
    pub(crate) fn begin_ranks(&mut self, dim: usize) {
        self.ranks.begin(dim);
    }

    /// Begins an aggregation phase for a round of dimension `dim`.
    pub(crate) fn begin_sums(&mut self, dim: usize) {
        self.sums.begin(dim);
    }

    /// Records that `j` was uploaded at `rank`, keeping the minimum.
    /// Returns the previously recorded rank, if any.
    #[inline]
    pub(crate) fn observe_rank(&mut self, j: usize, rank: usize) -> Option<usize> {
        self.ranks.observe_min(j, rank)
    }

    /// The recorded minimum rank of `j`, if it was observed this round.
    #[inline]
    pub(crate) fn min_rank(&self, j: usize) -> Option<usize> {
        self.ranks.get(j)
    }

    /// Begins a membership phase for a round of dimension `dim`. Membership
    /// shares the `ranks` buffer (a sparsifier uses ranks or membership,
    /// never both at once), so it can express an index set without touching
    /// the sums generation.
    pub(crate) fn begin_members(&mut self, dim: usize) {
        self.ranks.begin(dim);
    }

    /// Adds `j` to the current membership set.
    #[inline]
    pub(crate) fn add_member(&mut self, j: usize) {
        self.ranks.set(j, 0);
    }

    /// Whether `j` is in the current membership set.
    #[inline]
    pub(crate) fn is_member(&self, j: usize) -> bool {
        self.ranks.is_set(j)
    }

    /// Marks `j` as selected for aggregation (sum starts at zero).
    #[inline]
    pub(crate) fn mark_selected(&mut self, j: usize) {
        self.sums.set(j, 0.0);
    }

    /// Whether `j` is marked for aggregation this phase.
    #[inline]
    pub(crate) fn is_marked(&self, j: usize) -> bool {
        self.sums.is_set(j)
    }

    /// Adds `v` to the sum of a marked index.
    #[inline]
    pub(crate) fn accumulate(&mut self, j: usize, v: f64) {
        debug_assert!(self.sums.is_set(j));
        let added = self.sums.add_if_set(j, v);
        debug_assert!(added);
    }

    /// Adds `v` to the sum of `j` if it is marked; single stamp probe.
    /// Returns whether `j` was marked.
    #[inline]
    pub(crate) fn accumulate_if_marked(&mut self, j: usize, v: f64) -> bool {
        self.sums.add_if_set(j, v)
    }

    /// Reads the sum of a marked index.
    #[inline]
    pub(crate) fn sum(&self, j: usize) -> f64 {
        self.sums.get_unchecked(j)
    }

    /// Applies the decaying-demand shrink policy to the list buffers, using
    /// their current lengths (a just-finished round's footprint) as the
    /// demand observation. Call once per round *after* selection: a
    /// workspace that served a much larger round (bigger cohort, larger
    /// union) releases that memory after a few smaller rounds instead of
    /// pinning its high-water mark forever, while steady-state rounds never
    /// trigger an allocation or release. The epoch-stamped dense buffers
    /// shrink on their own in `begin()` when the dimension demand drops.
    pub fn shrink_to_recent_demand(&mut self) {
        let used = self.rank_counts.len();
        note_demand_and_shrink(&mut self.rank_counts, &mut self.list_demand[0], used);
        let used = self.touched.len();
        note_demand_and_shrink(&mut self.touched, &mut self.list_demand[1], used);
        let used = self.selected.len();
        note_demand_and_shrink(&mut self.selected, &mut self.list_demand[2], used);
        let used = self.candidates.len();
        note_demand_and_shrink(&mut self.candidates, &mut self.list_demand[3], used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_invalidates_all_slots() {
        let mut buf: StampedBuf<usize> = StampedBuf::default();
        buf.begin(8);
        buf.set(3, 42);
        assert_eq!(buf.get(3), Some(42));
        assert_eq!(buf.get(4), None);
        buf.begin(8);
        assert_eq!(buf.get(3), None, "stale generation must not leak");
    }

    #[test]
    fn growing_dimension_preserves_epoch_semantics() {
        let mut buf: StampedBuf<f64> = StampedBuf::default();
        buf.begin(4);
        buf.set(1, 1.5);
        buf.begin(16);
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.get(12), None);
        buf.set(12, 2.5);
        assert_eq!(buf.get(12), Some(2.5));
    }

    #[test]
    fn observe_rank_keeps_minimum() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_ranks(8);
        assert_eq!(scratch.observe_rank(5, 3), None);
        assert_eq!(scratch.observe_rank(5, 1), Some(3));
        assert_eq!(scratch.min_rank(5), Some(1));
        assert_eq!(scratch.observe_rank(5, 7), Some(1));
        assert_eq!(scratch.min_rank(5), Some(1));
    }

    #[test]
    fn stamped_buf_shrinks_when_dimension_demand_drops() {
        let mut buf: StampedBuf<f64> = StampedBuf::default();
        buf.begin(100_000);
        buf.set(99_999, 1.0);
        let peak = buf.resident_slots();
        assert!(peak >= 100_000);
        // Many small generations decay the demand; residency must come down.
        for _ in 0..24 {
            buf.begin(64);
        }
        assert!(
            buf.resident_slots() < peak / 4,
            "resident {} did not shrink from peak {}",
            buf.resident_slots(),
            peak
        );
        // Epoch semantics survive the shrink and a later regrow.
        buf.set(10, 2.0);
        assert_eq!(buf.get(10), Some(2.0));
        buf.begin(100_000);
        assert_eq!(buf.get(10), None, "stale generation must not leak");
        assert_eq!(buf.get(99_999), None);
        buf.set(99_999, 3.0);
        assert_eq!(buf.get(99_999), Some(3.0));
    }

    #[test]
    fn stamped_buf_steady_state_is_stable() {
        let mut buf: StampedBuf<usize> = StampedBuf::default();
        buf.begin(4096);
        let settled = buf.resident_slots();
        for _ in 0..50 {
            buf.begin(4096);
        }
        assert_eq!(buf.resident_slots(), settled);
    }

    #[test]
    fn selection_lists_shrink_when_round_demand_drops() {
        let mut scratch = SelectionScratch::new();
        scratch.selected.extend(0..100_000);
        scratch.shrink_to_recent_demand();
        let peak = scratch.selected.capacity();
        assert!(peak >= 100_000);
        for _ in 0..24 {
            scratch.selected.clear();
            scratch.selected.extend(0..64);
            scratch.shrink_to_recent_demand();
        }
        assert!(
            scratch.selected.capacity() < peak / 4,
            "capacity {} did not shrink from peak {}",
            scratch.selected.capacity(),
            peak
        );
    }

    #[test]
    fn accumulation_is_per_generation() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(4);
        scratch.mark_selected(2);
        scratch.accumulate(2, 1.25);
        scratch.accumulate(2, 0.75);
        assert_eq!(scratch.sum(2), 2.0);
        assert!(!scratch.is_marked(3));
        scratch.begin_sums(4);
        assert!(!scratch.is_marked(2));
    }
}
