use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{aggregate_marked, ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::topk;

/// Fairness-aware bidirectional top-k gradient sparsification (FAB-top-k) —
/// the paper's proposed method (Section III-B, Algorithm 1).
///
/// Both the uplink and the downlink carry exactly `k` gradient elements.
/// The downlink set `J` is chosen fairness-aware: the server finds the
/// largest per-client prefix length `κ` such that the union of every client's
/// top-`κ` uploaded indices still fits in `k`, takes that union, and fills the
/// remaining slots with the largest-magnitude candidates from the next prefix
/// level. Because `|∪_i J_i^κ| ≤ k` always holds for `κ = ⌊k/N⌋`, every
/// client is guaranteed to contribute at least `⌊k/N⌋` elements.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{ClientUpload, FabTopK, Sparsifier};
///
/// let fab = FabTopK::new();
/// let uploads = vec![
///     // Client 0 has huge values, client 1 small ones.
///     ClientUpload::new(0, 0.5, vec![(0, 10.0), (1, 9.0), (2, 8.0)]),
///     ClientUpload::new(1, 0.5, vec![(5, 0.3), (6, 0.2), (7, 0.1)]),
/// ];
/// let result = fab.select(&uploads, 8, 2);
/// // Fairness: even though client 1's values are tiny, it still contributes
/// // at least floor(2/2) = 1 element.
/// assert!(result.contributions()[1] >= 1);
/// assert_eq!(result.aggregated.nnz(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabTopK;

impl FabTopK {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }

    /// Selects the downlink index set `J` of size at most `k`, returned
    /// **sorted ascending** (the historical implementation returned hash-set
    /// iteration order, which was nondeterministic across processes).
    ///
    /// Exposed for testing and for the ablation benchmarks; the round loop
    /// goes through [`Sparsifier::select_into`], which reuses the scratch.
    pub fn select_indices(uploads: &[ClientUpload], k: usize) -> Vec<usize> {
        let dim = uploads
            .iter()
            .flat_map(|u| u.entries.iter().map(|&(j, _)| j + 1))
            .max()
            .unwrap_or(0);
        let mut scratch = SelectionScratch::new();
        Self::select_indices_into(uploads, dim, k, &mut scratch);
        scratch.selected
    }

    /// Single-pass fairness-aware selection into `scratch.selected` (sorted).
    ///
    /// One O(Σ|uploads|) sweep records, per index, the minimum rank at which
    /// it appears across clients, plus a histogram of those minimum ranks.
    /// The prefix sums of the histogram give every union size `|∪_i J_i^κ|`
    /// in O(1), so the largest feasible `κ` falls out of a direct scan —
    /// replacing the historical binary search whose every probe rebuilt a
    /// `HashSet` over all uploads (O(N·κ) hashing per probe × O(log k)
    /// probes).
    ///
    /// On return, `scratch`'s sums generation has exactly the selected
    /// indices marked (with zero sums), ready for [`aggregate_marked`].
    fn select_indices_into(
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) {
        scratch.selected.clear();
        scratch.begin_sums(dim);
        if k == 0 || uploads.is_empty() {
            return;
        }
        let max_prefix = uploads.iter().map(ClientUpload::len).max().unwrap_or(0);
        // κ above this bound cannot be feasible (κ = k already needs the
        // union of k-prefixes to fit in k) nor useful (κ = max_prefix covers
        // every upload in full).
        let hi = max_prefix.min(k);

        // Pass 1: minimum rank per index + histogram of minimum ranks < hi.
        scratch.rank_counts.clear();
        scratch.rank_counts.resize(hi, 0);
        scratch.begin_ranks(dim);
        for upload in uploads {
            for (rank, &(j, _)) in upload.entries.iter().enumerate() {
                assert!(j < dim, "upload index {j} out of range (dim {dim})");
                match scratch.observe_rank(j, rank) {
                    None => {
                        if rank < hi {
                            scratch.rank_counts[rank] += 1;
                        }
                    }
                    Some(old) if rank < old => {
                        if old < hi {
                            scratch.rank_counts[old] -= 1;
                        }
                        if rank < hi {
                            scratch.rank_counts[rank] += 1;
                        }
                    }
                    Some(_) => {}
                }
            }
        }

        // Largest κ with |∪ J_i^κ| = Σ_{r<κ} counts[r] <= k; the union size
        // is monotone non-decreasing in κ and κ = 0 is trivially feasible.
        let mut kappa = 0;
        let mut union_size = 0;
        for cand in 1..=hi {
            union_size += scratch.rank_counts[cand - 1];
            if union_size <= k {
                kappa = cand;
            } else {
                break;
            }
        }

        // The union of per-client top-κ prefixes, marked for aggregation.
        // Walking the κ-prefixes directly (O(N·κ) ≈ O(k) entries, deduped by
        // the marks) beats rescanning every index the round touched.
        for upload in uploads {
            for &(j, _) in &upload.entries[..kappa.min(upload.entries.len())] {
                debug_assert!(scratch.min_rank(j).is_some_and(|r| r < kappa));
                if !scratch.is_marked(j) {
                    scratch.mark_selected(j);
                    scratch.selected.push(j);
                }
            }
        }

        // Fill up to k with the largest-magnitude candidates from prefix
        // level κ+1 that are not already selected.
        if scratch.selected.len() < k && kappa < max_prefix {
            scratch.candidates.clear();
            for upload in uploads {
                if let Some(&(j, v)) = upload.entries.get(kappa) {
                    if !scratch.is_marked(j) {
                        scratch.candidates.push((j, v));
                    }
                }
            }
            topk::rank_by_magnitude(&mut scratch.candidates);
            for i in 0..scratch.candidates.len() {
                if scratch.selected.len() >= k {
                    break;
                }
                let j = scratch.candidates[i].0;
                // The same index may appear from several clients.
                if !scratch.is_marked(j) {
                    scratch.mark_selected(j);
                    scratch.selected.push(j);
                }
            }
        }
        scratch.selected.sort_unstable();
    }
}

impl Sparsifier for FabTopK {
    fn name(&self) -> &'static str {
        "FAB-top-k"
    }

    fn upload_plan(&self, _dim: usize, _k: usize, _rng: &mut dyn RngCore) -> UploadPlan {
        UploadPlan::TopKOwn
    }

    fn select_into(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        Self::select_indices_into(uploads, dim, k, scratch);
        // The selection phase left exactly the selected indices marked in the
        // sums generation, so aggregation skips the re-marking pass.
        let selected = std::mem::take(&mut scratch.selected);
        let (aggregated, reset_indices) = aggregate_marked(uploads, &selected, dim, scratch);
        let downlink_elements = selected.len();
        scratch.selected = selected;
        SelectionResult::new(
            aggregated,
            reset_indices,
            uploads.iter().map(ClientUpload::len).collect(),
            downlink_elements,
            true,
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds ranked uploads from dense per-client accumulators.
    fn uploads_from_dense(clients: &[Vec<f32>], k: usize) -> Vec<ClientUpload> {
        let n = clients.len();
        clients
            .iter()
            .enumerate()
            .map(|(i, acc)| ClientUpload::new(i, 1.0 / n as f64, topk::top_k_entries(acc, k)))
            .collect()
    }

    #[test]
    fn selects_exactly_k_when_enough_candidates() {
        let clients = vec![
            vec![5.0, 4.0, 3.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 2.0, 1.5, 1.0],
        ];
        let uploads = uploads_from_dense(&clients, 3);
        let fab = FabTopK::new();
        let result = fab.select(&uploads, 6, 3);
        assert_eq!(result.aggregated.nnz(), 3);
        assert_eq!(result.downlink_elements, 3);
    }

    #[test]
    fn fairness_guarantee_floor_k_over_n() {
        // Client 1's values are all much smaller; FUB would ignore it entirely,
        // FAB must include at least floor(k/N) = 2 of its elements.
        let clients = vec![
            vec![9.0, 8.0, 7.0, 6.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
        ];
        let uploads = uploads_from_dense(&clients, 4);
        let result = FabTopK::new().select(&uploads, 10, 4);
        assert!(
            result.contributions()[1] >= 2,
            "{:?}",
            result.contributions()
        );
        assert!(
            result.contributions()[0] >= 2,
            "{:?}",
            result.contributions()
        );
    }

    #[test]
    fn overlapping_indices_are_aggregated() {
        let clients = vec![vec![4.0, 0.0, 0.0], vec![2.0, 0.0, 0.0]];
        let uploads = uploads_from_dense(&clients, 1);
        let result = FabTopK::new().select(&uploads, 3, 1);
        assert_eq!(result.aggregated.nnz(), 1);
        assert!((result.aggregated.get(0) - 3.0).abs() < 1e-6);
        assert_eq!(result.contributions(), vec![1, 1]);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let clients = vec![vec![1.0, 2.0]];
        let uploads = uploads_from_dense(&clients, 2);
        let result = FabTopK::new().select(&uploads, 2, 0);
        assert!(result.aggregated.is_empty());
        assert_eq!(result.downlink_elements, 0);
    }

    #[test]
    fn upload_plan_is_top_k_own() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            FabTopK::new().upload_plan(10, 3, &mut rng),
            UploadPlan::TopKOwn
        );
        assert_eq!(FabTopK::new().name(), "FAB-top-k");
    }

    #[test]
    fn reset_indices_subset_of_uploads() {
        let clients = vec![
            vec![1.0, -2.0, 3.0, -4.0, 5.0],
            vec![5.0, -4.0, 3.0, -2.0, 1.0],
        ];
        let uploads = uploads_from_dense(&clients, 3);
        let result = FabTopK::new().select(&uploads, 5, 3);
        for (upload, resets) in uploads.iter().zip(result.reset_indices.iter()) {
            let uploaded: std::collections::HashSet<usize> =
                upload.entries.iter().map(|&(j, _)| j).collect();
            assert!(resets.iter().all(|j| uploaded.contains(j)));
            assert!(resets.iter().all(|j| result.aggregated.contains(*j)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_selection_size_and_fairness(
            seed in 0u64..500,
            n_clients in 1usize..6,
            dim in 4usize..40,
            k_raw in 1usize..20,
        ) {
            let k = 1 + k_raw % dim.min(16);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let clients: Vec<Vec<f32>> = (0..n_clients)
                .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
                .collect();
            let uploads = uploads_from_dense(&clients, k);
            let result = FabTopK::new().select(&uploads, dim, k);

            // select_indices returns a sorted set — the selection order is
            // part of the API contract now (the historical implementation
            // leaked hash-set iteration order).
            let indices = FabTopK::select_indices(&uploads, k);
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]),
                "select_indices must return sorted, duplicate-free indices");
            prop_assert_eq!(indices.len(), result.downlink_elements);

            // Never more than k downlink elements; exactly k when the clients
            // collectively uploaded at least k distinct nonzero-capable indices.
            prop_assert!(result.aggregated.nnz() <= k);
            let distinct: std::collections::HashSet<usize> = uploads
                .iter()
                .flat_map(|u| u.entries.iter().map(|&(j, _)| j))
                .collect();
            prop_assert_eq!(result.aggregated.nnz(), k.min(distinct.len()));

            // Fairness: every client contributes at least floor(k / N) elements
            // (as long as it uploaded that many).
            let floor_share = k / n_clients;
            for (upload, &contrib) in uploads.iter().zip(result.contributions().iter()) {
                prop_assert!(contrib >= floor_share.min(upload.len()),
                    "contribution {} < floor share {}", contrib, floor_share);
            }
        }
    }
}
