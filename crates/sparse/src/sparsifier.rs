use agsfl_exec::Executor;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::scratch::SelectionScratch;
use crate::SparseGradient;

/// The benchmark ledger's name for the selection workspace. Exists only so
/// `perfbench`'s ledger keeps building; goes in the next change to it.
pub type ShardedScratch = SelectionScratch;

/// What each client should upload in the current round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UploadPlan {
    /// Every client uploads the top-`k` entries of its own accumulated
    /// gradient (top-k family of sparsifiers).
    TopKOwn,
    /// Every client uploads exactly these coordinates of its accumulated
    /// gradient (periodic/random-k sparsification — the coordinate set is
    /// common to all clients and chosen by the server).
    Coordinates(Vec<usize>),
    /// Every client uploads its full accumulated gradient (send-all).
    Dense,
}

/// The uplink message of one client: `(client id, C_i / C, entries)`.
///
/// For top-k sparsifiers the entries are ranked by decreasing magnitude, which
/// is how the fairness-aware selection reads per-client prefixes `J_i^κ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpload {
    /// Index of the uploading client.
    pub client: usize,
    /// The client's aggregation weight `C_i / C`.
    pub weight: f64,
    /// Uploaded `(index, accumulated value)` pairs.
    pub entries: Vec<(usize, f32)>,
}

impl ClientUpload {
    /// Creates an upload message.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn new(client: usize, weight: f64, entries: Vec<(usize, f32)>) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid client weight {weight}"
        );
        Self {
            client,
            weight,
            entries,
        }
    }

    /// Number of uploaded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the upload is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the uploaded value at `index`, if present.
    pub fn value_at(&self, index: usize) -> Option<f32> {
        self.entries
            .iter()
            .find(|&&(j, _)| j == index)
            .map(|&(_, v)| v)
    }
}

/// Result of the server-side selection and aggregation step of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionResult {
    /// The aggregated sparse gradient `B = {(j, b_j)}` broadcast to clients.
    pub aggregated: SparseGradient,
    /// Per client: the indices `J ∩ J_i` whose accumulator entries must be
    /// reset (Lines 16–17 of Algorithm 1).
    pub reset_indices: Vec<Vec<usize>>,
    /// Per client: how many of its uploaded elements were used in the
    /// aggregate (`|J ∩ J_i|`). Private because it is derived from
    /// `reset_indices` at construction; mutation would desync the two.
    contributions: Vec<usize>,
    /// Per client: number of gradient elements it uploaded this round.
    /// Private (with the indexing flag) because [`Self::max_uplink_scalars`]
    /// is cached from it at construction; mutation would desync the cache.
    uplink_elements: Vec<usize>,
    /// Number of gradient elements broadcast to every client.
    pub downlink_elements: usize,
    /// Whether uplink messages carry explicit indices alongside values
    /// (`true` for sparse messages, `false` for dense full-vector messages).
    uplink_indexed: bool,
    /// Whether the downlink message carries explicit indices.
    pub downlink_indexed: bool,
    /// Cached largest per-client uplink scalar count; computed once at
    /// construction so per-round time accounting does not rescan all
    /// clients (twice) in `run_round`.
    max_uplink_scalars: usize,
}

impl SelectionResult {
    /// Assembles a selection result, deriving `contributions` (as
    /// `reset_indices` lengths) and caching the maximum per-client uplink
    /// scalar count.
    pub fn new(
        aggregated: SparseGradient,
        reset_indices: Vec<Vec<usize>>,
        uplink_elements: Vec<usize>,
        downlink_elements: usize,
        uplink_indexed: bool,
        downlink_indexed: bool,
    ) -> Self {
        let contributions = reset_indices.iter().map(Vec::len).collect();
        let per_scalar = if uplink_indexed { 2 } else { 1 };
        let max_uplink_scalars = uplink_elements
            .iter()
            .map(|&n| per_scalar * n)
            .max()
            .unwrap_or(0);
        Self {
            aggregated,
            reset_indices,
            contributions,
            uplink_elements,
            downlink_elements,
            uplink_indexed,
            downlink_indexed,
            max_uplink_scalars,
        }
    }

    /// Per client: how many of its uploaded elements were used in the
    /// aggregate (`|J ∩ J_i|`) — the lengths of `reset_indices`. This is
    /// the quantity whose CDF the paper plots in Fig. 4 (right).
    pub fn contributions(&self) -> &[usize] {
        &self.contributions
    }

    /// Consumes the result, yielding the contributions vector without a
    /// copy — for callers (like the round loop) that keep it past the
    /// result's lifetime.
    pub fn into_contributions(self) -> Vec<usize> {
        self.contributions
    }

    /// Per client: number of gradient elements it uploaded this round.
    pub fn uplink_elements(&self) -> &[usize] {
        &self.uplink_elements
    }

    /// Whether uplink messages carry explicit indices alongside values.
    pub fn uplink_indexed(&self) -> bool {
        self.uplink_indexed
    }

    /// Scalars transmitted on the uplink by client `i` (values plus indices
    /// when the message is indexed). This is what the normalized time model
    /// charges for.
    pub fn uplink_scalars(&self, client: usize) -> usize {
        let n = self.uplink_elements[client];
        if self.uplink_indexed {
            2 * n
        } else {
            n
        }
    }

    /// Largest per-client uplink scalar count (clients transmit in parallel,
    /// so the slowest link determines the round's uplink time). Cached at
    /// construction; O(1).
    pub fn max_uplink_scalars(&self) -> usize {
        self.max_uplink_scalars
    }

    /// Scalars transmitted on the downlink to each client.
    pub fn downlink_scalars(&self) -> usize {
        if self.downlink_indexed {
            2 * self.downlink_elements
        } else {
            self.downlink_elements
        }
    }
}

/// A gradient sparsification method: decides what clients upload and how the
/// server selects/aggregates the downlink message.
///
/// Implementations are stateless selection logic (all per-round state lives in
/// the FL simulator and the caller-owned [`SelectionScratch`]), which keeps
/// them trivially reusable both inside the simulator and in the unit/property
/// tests of this crate.
pub trait Sparsifier: Send + Sync + std::fmt::Debug {
    /// Human-readable method name used in reports (e.g. `"FAB-top-k"`).
    fn name(&self) -> &'static str;

    /// Decides what clients upload this round.
    ///
    /// `dim` is the model dimension `D` and `k` the current sparsity degree.
    /// The RNG is used by randomized plans (periodic-k).
    fn upload_plan(&self, dim: usize, k: usize, rng: &mut dyn RngCore) -> UploadPlan;

    /// Server-side selection: from the client uploads, produce the aggregated
    /// sparse gradient, the per-client reset sets and the communication
    /// accounting.
    ///
    /// This is the hot path of Algorithm 1's server. All temporaries live in
    /// `scratch`; a caller that reuses one workspace across rounds (as
    /// `agsfl_fl::Simulation::run_round` does) performs no per-round heap
    /// allocation beyond the returned result itself.
    ///
    /// # Panics
    ///
    /// Implementations panic if an upload references an index `>= dim`.
    fn select_into(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult;

    /// Convenience wrapper over [`Sparsifier::select_into`] that allocates a
    /// throwaway [`SelectionScratch`]. Handy in tests and one-shot callers;
    /// round loops should own a scratch and call `select_into` directly.
    fn select(&self, uploads: &[ClientUpload], dim: usize, k: usize) -> SelectionResult {
        let mut scratch = SelectionScratch::new();
        self.select_into(uploads, dim, k, &mut scratch)
    }

    /// [`Sparsifier::select_into`] under the benchmark ledger's old name;
    /// `exec` is ignored. Exists only so `perfbench`'s ledger keeps
    /// building; goes in the next change to it.
    fn select_parallel(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
        _exec: &Executor,
    ) -> SelectionResult {
        self.select_into(uploads, dim, k, scratch)
    }
}

/// Aggregates uploaded values for a set of selected indices:
/// `b_j = Σ_i weight_i · a_ij · Il[j ∈ J_i]` (Line 10 of Algorithm 1).
///
/// Also returns, per client, the subset of `selected` the client uploaded
/// (`J ∩ J_i`) — used both for accumulator resets and for the fairness CDF.
///
/// `selected` must be sorted ascending and duplicate-free; sums accumulate in
/// the scratch's epoch-stamped dense `f64` buffer (no hashing) and the output
/// entries are emitted in index order, so the sparse gradient is built with
/// the sort-free [`SparseGradient::from_sorted_entries`] constructor.
/// Accumulation visits uploads in order, which keeps the floating-point
/// results bit-identical to the historical `HashMap`-based implementation
/// (see `crate::reference`).
pub(crate) fn aggregate_selected_into(
    uploads: &[ClientUpload],
    selected: &[usize],
    dim: usize,
    scratch: &mut SelectionScratch,
) -> (SparseGradient, Vec<Vec<usize>>) {
    scratch.begin_sums(dim);
    for &j in selected {
        assert!(j < dim, "selected index {j} out of range (dim {dim})");
        scratch.mark_selected(j);
    }
    aggregate_marked(uploads, selected, dim, scratch)
}

/// Core of [`aggregate_selected_into`] for callers that have already marked
/// exactly the `selected` indices in the scratch's current sums generation
/// (FAB does so during its selection phase and skips the re-marking pass).
pub(crate) fn aggregate_marked(
    uploads: &[ClientUpload],
    selected: &[usize],
    dim: usize,
    scratch: &mut SelectionScratch,
) -> (SparseGradient, Vec<Vec<usize>>) {
    debug_assert!(
        selected.windows(2).all(|w| w[0] < w[1]),
        "selected must be sorted"
    );
    let mut reset_indices = vec![Vec::new(); uploads.len()];
    for (slot, upload) in uploads.iter().enumerate() {
        let resets = &mut reset_indices[slot];
        for &(j, v) in &upload.entries {
            assert!(j < dim, "upload index {j} out of range (dim {dim})");
            if scratch.accumulate_if_marked(j, upload.weight * v as f64) {
                resets.push(j);
            }
        }
    }
    let entries: Vec<(usize, f32)> = selected
        .iter()
        .map(|&j| (j, scratch.sum(j) as f32))
        .collect();
    (
        SparseGradient::from_sorted_entries(dim, entries),
        reset_indices,
    )
}

/// Builds the full [`SelectionResult`] for sparsifiers whose downlink is a
/// sorted index set: aggregation, reset sets, contribution counts and the
/// communication accounting in one call.
pub(crate) fn result_from_selected(
    uploads: &[ClientUpload],
    selected: &[usize],
    dim: usize,
    scratch: &mut SelectionScratch,
    downlink_indexed: bool,
) -> SelectionResult {
    let (aggregated, reset_indices) = aggregate_selected_into(uploads, selected, dim, scratch);
    SelectionResult::new(
        aggregated,
        reset_indices,
        uploads.iter().map(ClientUpload::len).collect(),
        selected.len(),
        downlink_indexed,
        downlink_indexed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_accessors() {
        let u = ClientUpload::new(3, 0.25, vec![(1, 2.0), (4, -1.0)]);
        assert_eq!(u.len(), 2);
        assert!(!u.is_empty());
        assert_eq!(u.value_at(4), Some(-1.0));
        assert_eq!(u.value_at(0), None);
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let _ = ClientUpload::new(0, -0.1, vec![]);
    }

    #[test]
    fn selection_result_scalar_accounting() {
        let r = SelectionResult::new(
            SparseGradient::zeros(10),
            vec![vec![], vec![]],
            vec![3, 5],
            4,
            true,
            true,
        );
        assert_eq!(r.uplink_scalars(0), 6);
        assert_eq!(r.uplink_scalars(1), 10);
        assert_eq!(r.max_uplink_scalars(), 10);
        assert_eq!(r.downlink_scalars(), 8);
        assert_eq!(r.contributions(), vec![0, 0]);
    }

    #[test]
    fn dense_messages_do_not_double_count() {
        let r = SelectionResult::new(
            SparseGradient::zeros(10),
            vec![(0..10).collect()],
            vec![10],
            10,
            false,
            false,
        );
        assert_eq!(r.uplink_scalars(0), 10);
        assert_eq!(r.max_uplink_scalars(), 10);
        assert_eq!(r.downlink_scalars(), 10);
        assert_eq!(r.contributions(), vec![10]);
    }

    #[test]
    fn aggregate_selected_weights_and_masks() {
        let uploads = vec![
            ClientUpload::new(0, 0.75, vec![(1, 4.0), (2, 1.0)]),
            ClientUpload::new(1, 0.25, vec![(1, -4.0), (3, 8.0)]),
        ];
        let mut scratch = SelectionScratch::new();
        let (agg, resets) = aggregate_selected_into(&uploads, &[1, 3], 5, &mut scratch);
        // b_1 = 0.75*4 + 0.25*(-4) = 2.0 ; b_3 = 0.25*8 = 2.0 ; index 2 excluded.
        assert_eq!(agg.get(1), 2.0);
        assert_eq!(agg.get(3), 2.0);
        assert!(!agg.contains(2));
        assert_eq!(resets[0], vec![1]);
        assert_eq!(resets[1], vec![1, 3]);
    }

    #[test]
    fn aggregate_selected_with_no_uploads() {
        let mut scratch = SelectionScratch::new();
        let (agg, resets) = aggregate_selected_into(&[], &[0, 1], 4, &mut scratch);
        assert_eq!(agg.nnz(), 2);
        assert_eq!(agg.get(0), 0.0);
        assert!(resets.is_empty());
    }

    #[test]
    fn aggregate_scratch_reuse_is_stateless() {
        let uploads = vec![ClientUpload::new(0, 1.0, vec![(0, 1.0), (2, 2.0)])];
        let mut scratch = SelectionScratch::new();
        let first = aggregate_selected_into(&uploads, &[0, 2], 3, &mut scratch);
        let second = aggregate_selected_into(&uploads, &[0, 2], 3, &mut scratch);
        assert_eq!(first, second);
        // A different selected set on the same scratch must not see stale sums.
        let (agg, _) = aggregate_selected_into(&uploads, &[1], 3, &mut scratch);
        assert_eq!(agg.get(1), 0.0);
        assert!(!agg.contains(0));
    }
}
