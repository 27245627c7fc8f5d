//! The struct-of-arrays client population behind the cohort engine.
//!
//! A million-client simulation cannot afford a [`Client`] per client: each
//! one owns a materialized shard, reusable scratch buffers, and a resident
//! residual vector. [`ClientPopulation`] keeps only what is genuinely
//! *persistent* across rounds — the private RNG stream, the residual
//! accumulator contents, the mini-batch sampler epoch, and the estimator
//! bookkeeping — in flat parallel columns, and only for clients that have
//! actually participated online at least once. Everything transient (the
//! shard, top-k scratch, wire scratch) lives in a small reusable arena of
//! cohort [`Slot`]s that is rebound to the round's sampled members.
//!
//! Resident memory is therefore `O(slots · shard + touched_clients · dim)`
//! rather than `O(N · (shard + dim))`: with a fixed round budget and cohort
//! size the footprint is flat in the population size `N`, which is the
//! tentpole claim audited by `figures::scale_sweep` in `agsfl-core` and the
//! bounded-RSS smoke step of `scripts/verify.sh`.
//!
//! # Determinism
//!
//! Hydration is split in two. The serial half binds each slot and performs
//! the pure O(1) row swap ([`Client::swap_persistent`]). The rest runs on
//! the pool workers at the top of the client pass: the shard is a pure
//! function of `(source, client id)` (materialized only when
//! [`Slot::shard_of`] names a different client), and a fresh client's
//! state is a pure function of `(simulation seed, client id)`
//! ([`Client::reset_persistent`]). Each worker writes only into the slot it
//! owns, so neither the worker schedule, nor which rounds touch which
//! clients, nor the slot a client lands in ever changes any stream. Cohort
//! draws ([`draw_cohort`]) advance a dedicated ChaCha8 stream serially
//! before the parallel client pass, and a full-population cohort makes *no*
//! draw at all, which pins the sampled engine bit-identical to the
//! historical owned-client path.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::client::Client;
use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// One reusable cohort slot: a transient [`Client`] arena entry plus the
/// round-scoped bookkeeping the engine needs between phases.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The transient client the round's member is hydrated into.
    pub client: Client,
    /// The population row this slot borrowed (`None` for a first-time
    /// participant, whose state was freshly reset instead).
    pub cached_row: Option<usize>,
    /// The member's position within this round's cohort vector.
    pub cohort_pos: usize,
    /// The member is mid-outage this round (fault plan).
    pub offline: bool,
    /// The member's upload is lost in transit this round (fault plan).
    pub dropped: bool,
    /// The member computed a gradient this round (not offline).
    pub online: bool,
    /// Mini-batch loss of this round's local step.
    pub loss: f32,
    /// The ranked upload entries built this round (reused buffer).
    pub entries: Vec<(usize, f32)>,
    /// The encoded uplink frame (reused buffer; empty on scalar rounds).
    pub frame: Vec<u8>,
    /// Per-entry quantization errors `(j, v - v̂)` of this round's lossy
    /// uplink (reused buffer; empty on lossless rounds), fed back into the
    /// residual at reset time.
    pub errors: Vec<(usize, f32)>,
    /// Which client id the slot's shard currently holds, so a member that
    /// lands in the same slot again skips re-materialization.
    pub shard_of: Option<usize>,
}

impl Slot {
    /// Creates an empty slot arena entry.
    pub fn new(feature_dim: usize, dim: usize, batch_size: usize) -> Self {
        Self {
            client: Client::placeholder(feature_dim, dim, batch_size),
            cached_row: None,
            cohort_pos: 0,
            offline: false,
            dropped: false,
            online: false,
            loss: 0.0,
            entries: Vec::new(),
            frame: Vec::new(),
            errors: Vec::new(),
            shard_of: None,
        }
    }
}

/// Persistent per-client state in struct-of-arrays layout, indexed by a
/// deterministic map from client id to row (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClientPopulation {
    /// Client id → row in the columns below. A `BTreeMap` keeps iteration
    /// (and therefore checkpoint bytes) deterministic.
    index: BTreeMap<usize, usize>,
    rng: Vec<ChaCha8Rng>,
    residual: Vec<Vec<f32>>,
    order: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    last_batch: Vec<Vec<usize>>,
    probe_sample: Vec<Option<usize>>,
}

impl ClientPopulation {
    /// An empty population: no client has participated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients with a stored row (participated online at least
    /// once) — the `touched_clients` factor of the memory bound.
    pub fn resident_rows(&self) -> usize {
        self.index.len()
    }

    /// Installs client `id`'s persistent state into `client` and returns
    /// the borrowed row, or `None` if the client has never participated
    /// (the caller must [`Client::reset_persistent`] the slot instead).
    pub fn hydrate(&mut self, id: usize, client: &mut Client) -> Option<usize> {
        let row = *self.index.get(&id)?;
        self.swap_row(row, client);
        Some(row)
    }

    /// Returns a slot's persistent state to the population after the round.
    ///
    /// A slot that borrowed a row swaps it back; a first-time participant
    /// gets a new row *only if it was online* — an offline first-timer's
    /// state is still pristine (offline clients advance no stream), so it
    /// is dropped and recreated identically on its next appearance.
    pub fn dehydrate(
        &mut self,
        id: usize,
        slot_row: Option<usize>,
        online: bool,
        client: &mut Client,
    ) {
        match slot_row {
            Some(row) => {
                debug_assert_eq!(self.index.get(&id), Some(&row), "row index out of sync");
                self.swap_row(row, client);
            }
            None if online => {
                let row = self.rng.len();
                self.rng.push(ChaCha8Rng::seed_from_u64(0));
                self.residual.push(Vec::new());
                self.order.push(Vec::new());
                self.cursor.push(0);
                self.last_batch.push(Vec::new());
                self.probe_sample.push(None);
                self.index.insert(id, row);
                self.swap_row(row, client);
            }
            None => {}
        }
    }

    /// O(1) state exchange between row `row` and `client`.
    fn swap_row(&mut self, row: usize, client: &mut Client) {
        client.swap_persistent(
            &mut self.rng[row],
            &mut self.residual[row],
            &mut self.order[row],
            &mut self.cursor[row],
            &mut self.last_batch[row],
            &mut self.probe_sample[row],
        );
    }

    /// Serializes every stored row in ascending client-id order.
    pub fn write_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.index.len());
        for (&id, &row) in &self.index {
            w.usize(id);
            w.rng(&self.rng[row]);
            w.f32s(&self.residual[row]);
            w.usizes(&self.order[row]);
            w.usize(self.cursor[row]);
            w.usizes(&self.last_batch[row]);
            w.opt_usize(self.probe_sample[row]);
        }
    }

    /// Rebuilds a population serialized by [`ClientPopulation::write_state`].
    ///
    /// `dim` is the model dimension every residual must match;
    /// `num_clients` bounds the ids; `shard_len(id)` is the sample count
    /// the sampler epoch and estimator indices are validated against.
    pub fn read_state(
        r: &mut SnapshotReader<'_>,
        dim: usize,
        num_clients: usize,
        shard_len: impl Fn(usize) -> usize,
    ) -> Result<Self, CheckpointError> {
        let rows = r.usize()?;
        let mut pop = Self::new();
        let mut previous: Option<usize> = None;
        for _ in 0..rows {
            let id = r.usize()?;
            if id >= num_clients || previous.is_some_and(|p| p >= id) {
                return Err(CheckpointError::Invalid("population row ids"));
            }
            previous = Some(id);
            let rng = r.rng()?;
            let residual = r.f32s()?;
            if residual.len() != dim {
                return Err(CheckpointError::Mismatch {
                    field: "client residual length",
                });
            }
            let len = shard_len(id);
            let order = r.usizes()?;
            if order.len() != len {
                return Err(CheckpointError::Mismatch {
                    field: "client sampler order length",
                });
            }
            let cursor = r.usize()?;
            if cursor >= order.len().max(1) {
                return Err(CheckpointError::Invalid("sampler cursor out of range"));
            }
            let mut seen = vec![false; order.len()];
            for &i in &order {
                if i >= order.len() || seen[i] {
                    return Err(CheckpointError::Invalid("sampler order not a permutation"));
                }
                seen[i] = true;
            }
            let last_batch = r.usizes()?;
            if last_batch.iter().any(|&i| i >= len) {
                return Err(CheckpointError::Invalid("batch index out of range"));
            }
            let probe_sample = r.opt_usize()?;
            if probe_sample.is_some_and(|i| i >= len) {
                return Err(CheckpointError::Invalid("probe sample out of range"));
            }
            let row = pop.rng.len();
            pop.rng.push(rng);
            pop.residual.push(residual);
            pop.order.push(order);
            pop.cursor.push(cursor);
            pop.last_batch.push(last_batch);
            pop.probe_sample.push(probe_sample);
            pop.index.insert(id, row);
        }
        Ok(pop)
    }
}

/// Draws one round's cohort into `out` (ascending client ids).
///
/// With `cohort` unset — or at least the population size — every client
/// participates and **no random draw happens**, so configuring
/// `cohort: Some(N)` is bit-identical to no cohort at all (and both leave
/// the cohort stream untouched for later rounds). A strict subset is drawn
/// with Floyd's sampling-without-replacement, which advances `rng` by
/// exactly `cohort` uniform draws regardless of the population size.
pub(crate) fn draw_cohort(
    rng: &mut ChaCha8Rng,
    num_clients: usize,
    cohort: Option<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    match cohort {
        Some(c) if c < num_clients => {
            debug_assert!(c > 0, "cohort size must be positive");
            let mut chosen = BTreeSet::new();
            for j in (num_clients - c)..num_clients {
                let t = rng.gen_range(0..=j);
                if !chosen.insert(t) {
                    chosen.insert(j);
                }
            }
            out.extend(chosen);
        }
        _ => out.extend(0..num_clients),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(rng: &mut ChaCha8Rng, n: usize, c: Option<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        draw_cohort(rng, n, c, &mut out);
        out
    }

    #[test]
    fn full_cohort_never_touches_the_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(cohort(&mut a, 7, None), (0..7).collect::<Vec<_>>());
        assert_eq!(cohort(&mut a, 7, Some(7)), (0..7).collect::<Vec<_>>());
        assert_eq!(cohort(&mut a, 7, Some(100)), (0..7).collect::<Vec<_>>());
        // The stream is untouched: both rngs still agree on the next draw.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn sampled_cohorts_are_sorted_exact_sized_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for round in 0..50 {
            let members = cohort(&mut rng, 100, Some(12));
            assert_eq!(members.len(), 12, "round {round}");
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(members.iter().all(|&m| m < 100));
        }
    }

    #[test]
    fn cohort_draws_are_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        let mut c = ChaCha8Rng::seed_from_u64(2);
        let mut differs = false;
        for _ in 0..20 {
            let x = cohort(&mut a, 1000, Some(8));
            assert_eq!(x, cohort(&mut b, 1000, Some(8)));
            differs |= x != cohort(&mut c, 1000, Some(8));
        }
        assert!(differs, "different seeds should draw different cohorts");
    }

    #[test]
    fn every_client_is_eventually_sampled() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut seen = [false; 30];
        for _ in 0..200 {
            for m in cohort(&mut rng, 30, Some(5)) {
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "sampler starves some clients");
    }
}
