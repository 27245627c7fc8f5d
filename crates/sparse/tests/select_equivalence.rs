//! Reference-equivalence and scratch-soundness tests for the fast selection
//! pipeline.
//!
//! `Sparsifier::select_into` replaced the seed's hash-based selection with
//! epoch-stamped scratch buffers; these tests pin the fast paths to the seed
//! implementations kept in `agsfl_sparse::reference`:
//!
//! * for all five sparsifiers, random uploads/dims/k must produce
//!   **byte-identical** `SelectionResult`s (the aggregation accumulates in
//!   the same order, so even the floating point output is bit-equal);
//! * repeated `select_into` calls on one shared scratch must return
//!   identical results — i.e. epoch stamping really does isolate rounds and
//!   no stale generation ever leaks.

use agsfl_sparse::{
    reference, ClientUpload, FabTopK, FubTopK, PeriodicK, SelectionResult, SelectionScratch,
    SendAll, Sparsifier, UnidirectionalTopK,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds ranked top-k uploads from random dense per-client accumulators.
fn random_topk_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
    k: usize,
) -> Vec<ClientUpload> {
    (0..n_clients)
        .map(|i| {
            let dense: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            ClientUpload::new(
                i,
                1.0 / n_clients as f64,
                agsfl_sparse::topk::top_k_entries(&dense, k),
            )
        })
        .collect()
}

/// Builds uploads sharing one random sorted coordinate set (periodic-k).
fn random_coordinate_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
    k: usize,
) -> Vec<ClientUpload> {
    let mut pool: Vec<usize> = (0..dim).collect();
    let (chosen, _) = pool.partial_shuffle(rng, k.min(dim));
    let mut coords = chosen.to_vec();
    coords.sort_unstable();
    (0..n_clients)
        .map(|i| {
            let entries = coords
                .iter()
                .map(|&j| (j, rng.gen_range(-5.0f32..5.0)))
                .collect();
            ClientUpload::new(i, 1.0 / n_clients as f64, entries)
        })
        .collect()
}

/// Builds dense uploads (send-all).
fn random_dense_uploads(rng: &mut ChaCha8Rng, n_clients: usize, dim: usize) -> Vec<ClientUpload> {
    (0..n_clients)
        .map(|i| {
            let entries = (0..dim).map(|j| (j, rng.gen_range(-5.0f32..5.0))).collect();
            ClientUpload::new(i, 1.0 / n_clients as f64, entries)
        })
        .collect()
}

/// Asserts the fast path equals `expected` both through the default-method
/// wrapper and through an explicitly shared scratch called twice (scratch
/// reuse must be observationally pure).
fn assert_equivalent(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
    expected: &SelectionResult,
    scratch: &mut SelectionScratch,
) {
    let via_wrapper = sparsifier.select(uploads, dim, k);
    assert_eq!(
        &via_wrapper,
        expected,
        "{} select() diverged from the reference implementation",
        sparsifier.name()
    );
    let first = sparsifier.select_into(uploads, dim, k, scratch);
    let second = sparsifier.select_into(uploads, dim, k, scratch);
    assert_eq!(
        &first,
        expected,
        "{} select_into() diverged from the reference implementation",
        sparsifier.name()
    );
    assert_eq!(
        first,
        second,
        "{} select_into() is not idempotent on a reused scratch",
        sparsifier.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All five sparsifiers, random workloads, one shared scratch:
    /// byte-identical to the seed implementation.
    #[test]
    fn prop_select_into_matches_reference(
        seed in 0u64..10_000,
        n_clients in 1usize..7,
        dim in 2usize..48,
        k_raw in 1usize..24,
    ) {
        let k = 1 + k_raw % dim;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // One scratch shared by every sparsifier and both calls per check:
        // cross-sparsifier reuse is exactly what `Simulation::run_round`
        // does with its probe selection.
        let mut scratch = SelectionScratch::new();

        let topk_uploads = random_topk_uploads(&mut rng, n_clients, dim, k);
        let expected = reference::fab_select(&topk_uploads, dim, k);
        assert_equivalent(&FabTopK::new(), &topk_uploads, dim, k, &expected, &mut scratch);

        let expected = reference::fub_select(&topk_uploads, dim, k);
        assert_equivalent(&FubTopK::new(), &topk_uploads, dim, k, &expected, &mut scratch);

        let expected = reference::unidirectional_select(&topk_uploads, dim);
        assert_equivalent(
            &UnidirectionalTopK::new(), &topk_uploads, dim, k, &expected, &mut scratch,
        );

        let coord_uploads = random_coordinate_uploads(&mut rng, n_clients, dim, k);
        let expected = reference::periodic_select(&coord_uploads, dim);
        assert_equivalent(&PeriodicK::new(), &coord_uploads, dim, k, &expected, &mut scratch);

        let dense_uploads = random_dense_uploads(&mut rng, n_clients, dim);
        let expected = reference::send_all_select(&dense_uploads, dim);
        assert_equivalent(&SendAll::new(), &dense_uploads, dim, k, &expected, &mut scratch);
    }

    /// FAB's sorted `select_indices` equals the (sorted) reference selection.
    #[test]
    fn prop_fab_select_indices_sorted_and_equal(
        seed in 0u64..10_000,
        n_clients in 1usize..6,
        dim in 2usize..40,
        k_raw in 1usize..16,
    ) {
        let k = 1 + k_raw % dim;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let uploads = random_topk_uploads(&mut rng, n_clients, dim, k);
        let fast = FabTopK::select_indices(&uploads, k);
        let slow = reference::fab_select_indices(&uploads, k);
        prop_assert!(fast.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(fast, slow);
    }
}

/// Epoch-stamping soundness: many rounds of shifting workloads on one
/// scratch, each checked against a fresh-scratch run and the reference.
#[test]
fn scratch_reuse_across_shifting_workloads_is_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    let mut shared = SelectionScratch::new();
    let fab = FabTopK::new();
    // Dimensions intentionally shrink and grow to exercise buffer reuse with
    // stale high-index state present.
    for &(dim, n, k) in &[
        (64, 5, 9),
        (8, 2, 3),
        (128, 7, 17),
        (16, 3, 4),
        (128, 7, 17),
    ] {
        let uploads = random_topk_uploads(&mut rng, n, dim, k);
        let expected = reference::fab_select(&uploads, dim, k);
        let got = fab.select_into(&uploads, dim, k, &mut shared);
        assert_eq!(got, expected, "dim {dim}, n {n}, k {k}");
        let again = fab.select_into(&uploads, dim, k, &mut shared);
        assert_eq!(again, expected, "repeat on same scratch: dim {dim}");
    }
}

/// An upload index `>= dim` panics on every sparsifier, as
/// `Sparsifier::select_into` documents, with the sparsifier's own range
/// message rather than a slice-index panic inside the workspace.
#[test]
fn out_of_range_upload_index_panics() {
    let dim = 5;
    let uploads: Vec<ClientUpload> = (0..4)
        .map(|i| ClientUpload::new(i, 0.25, vec![(i, 1.0), (9, 1.0)]))
        .collect();
    let sparsifiers: [&dyn Sparsifier; 5] = [
        &FabTopK::new(),
        &FubTopK::new(),
        &UnidirectionalTopK::new(),
        &PeriodicK::new(),
        &SendAll::new(),
    ];
    for sparsifier in sparsifiers {
        let mut scratch = SelectionScratch::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sparsifier.select_into(&uploads, dim, 2, &mut scratch)
        }));
        let payload = match outcome {
            Ok(_) => panic!("{} accepted index 9 at dim {dim}", sparsifier.name()),
            Err(payload) => payload,
        };
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("out of range (dim 5)"),
            "{} panicked with {message:?}",
            sparsifier.name()
        );
    }
}

/// Degenerate inputs go through the same equivalence check.
#[test]
fn degenerate_inputs_match_reference() {
    let mut scratch = SelectionScratch::new();
    let fab = FabTopK::new();

    // No uploads at all.
    let expected = reference::fab_select(&[], 10, 3);
    assert_eq!(fab.select_into(&[], 10, 3, &mut scratch), expected);

    // k = 0.
    let uploads = vec![ClientUpload::new(0, 1.0, vec![(1, 2.0), (3, -1.0)])];
    let expected = reference::fab_select(&uploads, 5, 0);
    assert_eq!(fab.select_into(&uploads, 5, 0, &mut scratch), expected);

    // Clients with empty uploads mixed in.
    let uploads = vec![
        ClientUpload::new(0, 0.5, vec![]),
        ClientUpload::new(1, 0.5, vec![(2, 4.0), (0, -3.0)]),
    ];
    let expected = reference::fab_select(&uploads, 4, 2);
    assert_eq!(fab.select_into(&uploads, 4, 2, &mut scratch), expected);
}
