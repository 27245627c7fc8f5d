//! A federated client: local data, mini-batch sampling, residual accumulator.

use agsfl_ml::data::{ClientShard, MinibatchSampler};
use agsfl_ml::model::Model;
use agsfl_sparse::{topk, ClientUpload, ResidualAccumulator, UploadPlan};
use agsfl_wire::{decode_frame, Codec, WireScratch};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One federated client of Algorithm 1.
///
/// The client owns its local shard, a mini-batch sampler, its residual
/// accumulator `a_i` and a private RNG (so the simulation is deterministic
/// regardless of the order in which clients are processed, including when
/// gradient computation is parallelized across threads).
#[derive(Debug, Clone)]
pub struct Client {
    id: usize,
    shard: ClientShard,
    weight: f64,
    sampler: MinibatchSampler,
    accumulator: ResidualAccumulator,
    rng: ChaCha8Rng,
    /// Indices (into the shard) of the most recent mini-batch, used by the
    /// derivative-sign estimator to re-evaluate a single sample's loss.
    last_batch: Vec<usize>,
    /// The sample within `last_batch` chosen for the estimator this round.
    probe_sample: Option<usize>,
    /// Reused candidate buffer for top-k extraction, so building the uplink
    /// message allocates no full-dimension temporary after the first round.
    topk_scratch: Vec<(usize, f32)>,
    /// Reused wire-encoding workspace; byte-priced rounds encode the uplink
    /// message here without per-round allocation beyond the emitted frame.
    wire_scratch: WireScratch,
    /// Reused buffer for the lossy tier's self-decode: the client decodes
    /// its own encoded frame to learn the exact values `v̂` the server will
    /// reconstruct. Round-transient — never part of the persistent state.
    decode_scratch: Vec<(usize, f32)>,
}

impl Client {
    /// Creates a client.
    ///
    /// `weight` is the aggregation weight `C_i / C`; `dim` the model
    /// dimension; `seed` the client's private RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty or `batch_size == 0`.
    pub fn new(
        id: usize,
        shard: ClientShard,
        weight: f64,
        dim: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(!shard.is_empty(), "client {id} has no local data");
        let sampler = MinibatchSampler::new(&shard, batch_size);
        Self {
            id,
            shard,
            weight,
            sampler,
            accumulator: ResidualAccumulator::new(dim),
            rng: ChaCha8Rng::seed_from_u64(seed),
            last_batch: Vec::new(),
            probe_sample: None,
            topk_scratch: Vec::new(),
            wire_scratch: WireScratch::new(),
            decode_scratch: Vec::new(),
        }
    }

    /// Creates an unbound cohort slot: an empty shard, zero weight, and a
    /// placeholder RNG. The cohort engine binds a real client onto the slot
    /// each round ([`Client::bind`], shard materialization, then either a
    /// population-row swap or [`Client::reset_persistent`]); a placeholder
    /// never computes a gradient on its own.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub(crate) fn placeholder(feature_dim: usize, dim: usize, batch_size: usize) -> Self {
        let shard = ClientShard::empty(feature_dim);
        let sampler = MinibatchSampler::new(&shard, batch_size);
        Self {
            id: usize::MAX,
            shard,
            weight: 0.0,
            sampler,
            accumulator: ResidualAccumulator::new(dim),
            rng: ChaCha8Rng::seed_from_u64(0),
            last_batch: Vec::new(),
            probe_sample: None,
            topk_scratch: Vec::new(),
            wire_scratch: WireScratch::new(),
            decode_scratch: Vec::new(),
        }
    }

    /// Rebinds this slot to client `id` with aggregation weight `weight`
    /// (cohort hydration; the persistent state is installed separately).
    pub(crate) fn bind(&mut self, id: usize, weight: f64) {
        self.id = id;
        self.weight = weight;
    }

    /// Mutable access to the local shard, so a [`ShardSource`] can
    /// materialize a cohort member's data into the slot's reused buffers.
    ///
    /// [`ShardSource`]: agsfl_ml::data::ShardSource
    pub(crate) fn shard_mut(&mut self) -> &mut ClientShard {
        &mut self.shard
    }

    /// Swaps the client's *persistent* state (RNG stream, residual, sampler
    /// epoch, estimator bookkeeping) with the caller's buffers in O(1).
    ///
    /// Symmetric: the cohort engine calls it once to install a population
    /// row into a slot and once more to put the (updated) row back after
    /// the round. No validation happens here — the buffers must come from
    /// the same client's row, which the population index guarantees.
    pub(crate) fn swap_persistent(
        &mut self,
        rng: &mut ChaCha8Rng,
        residual: &mut Vec<f32>,
        order: &mut Vec<usize>,
        cursor: &mut usize,
        last_batch: &mut Vec<usize>,
        probe_sample: &mut Option<usize>,
    ) {
        std::mem::swap(&mut self.rng, rng);
        self.accumulator.swap_storage(residual);
        self.sampler.swap_state(order, cursor);
        std::mem::swap(&mut self.last_batch, last_batch);
        std::mem::swap(&mut self.probe_sample, probe_sample);
    }

    /// Resets the slot to the pristine persistent state of a client that
    /// has never participated: a fresh RNG at `seed`, a zero residual of
    /// dimension `dim`, an identity sampler epoch over `shard_len` samples,
    /// and no estimator bookkeeping. Allocation-free once the slot's
    /// buffers have grown.
    pub(crate) fn reset_persistent(&mut self, seed: u64, dim: usize, shard_len: usize) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.accumulator.reset_to_dim(dim);
        self.sampler.reset_identity(shard_len);
        self.last_batch.clear();
        self.probe_sample = None;
    }

    /// Client identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Aggregation weight `C_i / C`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of local samples `C_i`.
    pub fn num_samples(&self) -> usize {
        self.shard.len()
    }

    /// Borrows the client's local shard.
    pub fn shard(&self) -> &ClientShard {
        &self.shard
    }

    /// Borrows the residual accumulator `a_i`.
    pub fn accumulator(&self) -> &ResidualAccumulator {
        &self.accumulator
    }

    /// Computes the local mini-batch gradient at `params`, adds it to the
    /// accumulator (Line 4 of Algorithm 1) and returns the mini-batch loss.
    ///
    /// Also draws the round's probe sample for the derivative-sign estimator.
    pub fn compute_local_gradient(&mut self, model: &dyn Model, params: &[f32]) -> f32 {
        let (features, labels, indices) = self.sampler.next_batch(&self.shard, &mut self.rng);
        let (loss, grad) = model.loss_and_grad(params, &features, &labels);
        self.accumulator.add(&grad);
        self.probe_sample = Some(indices[self.rng.gen_range(0..indices.len())]);
        self.last_batch = indices;
        loss
    }

    /// Builds the uplink message for the current round according to the
    /// sparsifier's [`UploadPlan`].
    ///
    /// Takes `&mut self` because top-k extraction reuses the client's scratch
    /// buffer instead of allocating a full-dimension temporary every round.
    pub fn build_upload(&mut self, plan: &UploadPlan, k: usize) -> ClientUpload {
        let entries = match plan {
            UploadPlan::TopKOwn => self
                .accumulator
                .top_k_entries_with(k, &mut self.topk_scratch),
            UploadPlan::Coordinates(coords) => self.accumulator.entries_at(coords),
            UploadPlan::Dense => self
                .accumulator
                .as_slice()
                .iter()
                .enumerate()
                .map(|(j, &v)| (j, v))
                .collect(),
        };
        ClientUpload::new(self.id, self.weight, entries)
    }

    /// Encodes an uplink message into a wire frame using the client's own
    /// reused [`WireScratch`] (the message's rank-ordered entries are
    /// staged index-sorted first — entry order is presentation, not
    /// payload; the server re-derives ranks from the decoded values).
    ///
    /// Returns the owned frame — the bytes that would actually cross the
    /// client's uplink.
    pub fn encode_upload(
        &mut self,
        codec: &dyn Codec,
        dim: usize,
        upload: &ClientUpload,
    ) -> Vec<u8> {
        self.wire_scratch
            .encode_unsorted(codec, dim, &upload.entries)
            .to_vec()
    }

    /// [`Client::build_upload`] writing the ranked entries into a
    /// caller-owned buffer instead of allocating a fresh message — the
    /// allocation-free uplink builder of the cohort engine. The entry
    /// sequence is identical to what `build_upload` would package.
    pub(crate) fn build_upload_into(
        &mut self,
        plan: &UploadPlan,
        k: usize,
        out: &mut Vec<(usize, f32)>,
    ) {
        match plan {
            UploadPlan::TopKOwn => {
                self.accumulator
                    .top_k_entries_into(k, &mut self.topk_scratch, out)
            }
            UploadPlan::Coordinates(coords) => self.accumulator.entries_at_into(coords, out),
            UploadPlan::Dense => self.accumulator.dense_entries_into(out),
        }
    }

    /// [`Client::encode_upload`] writing the frame into a caller-owned
    /// buffer (cleared first) instead of allocating one per round.
    pub(crate) fn encode_upload_into(
        &mut self,
        codec: &dyn Codec,
        dim: usize,
        entries: &[(usize, f32)],
        frame: &mut Vec<u8>,
    ) {
        frame.clear();
        frame.extend_from_slice(self.wire_scratch.encode_unsorted(codec, dim, entries));
    }

    /// [`Client::encode_upload_into`] for a lossy codec, with quantization
    /// error feedback.
    ///
    /// Encodes `entries` into `frame`, then *self-decodes* the frame to
    /// learn the exact reconstruction `v̂_j` the server will see, and
    /// reports the per-entry quantization error `(j, v_j - v̂_j)` into
    /// `errors` (index-sorted, exact deliveries omitted). The entry list is
    /// rewritten in place with the decoded values — and re-ranked by
    /// magnitude when `rerank` is set (the `TopKOwn` presentation order) —
    /// so it is bit-identical to what the server's own decode produces.
    ///
    /// The error entries later seed the residual reset
    /// ([`Client::apply_reset_with_errors`]): mass the quantizer dropped
    /// this round is carried forward exactly like sparsification residuals,
    /// in the same fused pass.
    pub(crate) fn encode_upload_lossy_into(
        &mut self,
        codec: &dyn Codec,
        dim: usize,
        rerank: bool,
        entries: &mut Vec<(usize, f32)>,
        frame: &mut Vec<u8>,
        errors: &mut Vec<(usize, f32)>,
    ) {
        entries.sort_unstable_by_key(|&(j, _)| j);
        frame.clear();
        frame.extend_from_slice(self.wire_scratch.encode_unsorted(codec, dim, entries));
        decode_frame(frame, &mut self.decode_scratch)
            .expect("a frame this client just encoded must decode");
        debug_assert_eq!(self.decode_scratch.len(), entries.len());
        errors.clear();
        errors.extend(
            entries
                .iter()
                .zip(&self.decode_scratch)
                .filter(|(&(_, v), &(_, vhat))| v != vhat)
                .map(|(&(j, v), &(_, vhat))| (j, v - vhat)),
        );
        entries.clear();
        entries.extend_from_slice(&self.decode_scratch);
        if rerank {
            topk::rank_by_magnitude(entries);
        }
    }

    /// Resets the accumulator coordinates the server actually used
    /// (Lines 16–17 of Algorithm 1).
    pub fn apply_reset(&mut self, indices: &[usize]) {
        self.accumulator.reset_indices(indices);
    }

    /// [`Client::apply_reset`] seeding each transmitted coordinate with its
    /// quantization error instead of zero — the lossy tier's error
    /// feedback. With an empty `errors` slice this is bit-identical to
    /// [`Client::apply_reset`].
    pub fn apply_reset_with_errors(&mut self, indices: &[usize], errors: &[(usize, f32)]) {
        self.accumulator.reset_indices_to(indices, errors);
    }

    /// Loss of the round's probe sample evaluated at `params` — the
    /// single-sample losses `f_{i,h}(·)` of the derivative-sign estimator
    /// (Section IV-E of the paper).
    ///
    /// Returns `None` if no gradient has been computed yet this run.
    pub fn probe_loss(&self, model: &dyn Model, params: &[f32]) -> Option<f32> {
        let idx = self.probe_sample?;
        let (features, label) = self.shard.sample(idx);
        Some(model.sample_loss(params, features, label))
    }

    /// Evaluates the round's probe sample at several weight vectors in one
    /// pass: the sample is fetched once and `f_{i,h}(·)` evaluated per
    /// vector. The estimator needs three losses per client per probe round
    /// (`w(m-1)`, `w(m)`, `w'(m)`); calling [`Client::probe_loss`] three
    /// times re-resolved the sample each time.
    ///
    /// Returns `None` if no gradient has been computed yet this run.
    pub fn probe_losses<const M: usize>(
        &self,
        model: &dyn Model,
        params: [&[f32]; M],
    ) -> Option<[f32; M]> {
        let idx = self.probe_sample?;
        let (features, label) = self.shard.sample(idx);
        Some(params.map(|w| model.sample_loss(w, features, label)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_ml::model::LinearSoftmax;
    use agsfl_tensor::Matrix;

    fn shard(n: usize, dim: usize, classes: usize) -> ClientShard {
        ClientShard::new(
            Matrix::from_fn(n, dim, |i, j| ((i * 3 + j) % 5) as f32 * 0.2 - 0.4),
            (0..n).map(|i| i % classes).collect(),
        )
    }

    fn client_and_model() -> (Client, LinearSoftmax, Vec<f32>) {
        let model = LinearSoftmax::new(4, 3);
        let shard = shard(12, 4, 3);
        let client = Client::new(0, shard, 0.5, model.num_params(), 4, 42);
        let params = vec![0.01; model.num_params()];
        (client, model, params)
    }

    #[test]
    fn gradient_accumulates_in_residual() {
        let (mut client, model, params) = client_and_model();
        assert_eq!(client.accumulator().residual_l1(), 0.0);
        let loss = client.compute_local_gradient(&model, &params);
        assert!(loss > 0.0);
        assert!(client.accumulator().residual_l1() > 0.0);
    }

    #[test]
    fn upload_plans_produce_expected_shapes() {
        let (mut client, model, params) = client_and_model();
        client.compute_local_gradient(&model, &params);
        let topk = client.build_upload(&UploadPlan::TopKOwn, 3);
        assert_eq!(topk.len(), 3);
        let coords = client.build_upload(&UploadPlan::Coordinates(vec![0, 5]), 3);
        assert_eq!(coords.len(), 2);
        assert_eq!(coords.entries[0].0, 0);
        let dense = client.build_upload(&UploadPlan::Dense, 3);
        assert_eq!(dense.len(), model.num_params());
    }

    #[test]
    fn reset_clears_only_used_coordinates() {
        let (mut client, model, params) = client_and_model();
        client.compute_local_gradient(&model, &params);
        let upload = client.build_upload(&UploadPlan::TopKOwn, 2);
        let used: Vec<usize> = upload.entries.iter().map(|&(j, _)| j).collect();
        let before = client.accumulator().residual_l1();
        client.apply_reset(&used);
        let after = client.accumulator().residual_l1();
        assert!(after < before);
        assert!(after > 0.0, "non-selected coordinates keep their residual");
    }

    #[test]
    fn probe_loss_available_after_gradient() {
        let (mut client, model, params) = client_and_model();
        assert!(client.probe_loss(&model, &params).is_none());
        client.compute_local_gradient(&model, &params);
        let loss = client.probe_loss(&model, &params).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn probe_losses_single_pass_matches_individual_calls() {
        let (mut client, model, params) = client_and_model();
        assert!(client.probe_losses(&model, [&params[..]]).is_none());
        client.compute_local_gradient(&model, &params);
        let w_b: Vec<f32> = params.iter().map(|p| p + 0.01).collect();
        let w_c: Vec<f32> = params.iter().map(|p| p - 0.02).collect();
        let [a, b, c] = client.probe_losses(&model, [&params, &w_b, &w_c]).unwrap();
        assert_eq!(Some(a), client.probe_loss(&model, &params));
        assert_eq!(Some(b), client.probe_loss(&model, &w_b));
        assert_eq!(Some(c), client.probe_loss(&model, &w_c));
    }

    #[test]
    fn clients_with_same_seed_are_deterministic() {
        let model = LinearSoftmax::new(4, 3);
        let params = vec![0.02; model.num_params()];
        let mut a = Client::new(0, shard(10, 4, 3), 0.5, model.num_params(), 4, 9);
        let mut b = Client::new(0, shard(10, 4, 3), 0.5, model.num_params(), 4, 9);
        for _ in 0..3 {
            let la = a.compute_local_gradient(&model, &params);
            let lb = b.compute_local_gradient(&model, &params);
            assert_eq!(la, lb);
        }
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
    }

    #[test]
    fn upload_into_matches_owned_builder() {
        let (mut client, model, params) = client_and_model();
        client.compute_local_gradient(&model, &params);
        let mut out = Vec::new();
        for plan in [
            UploadPlan::TopKOwn,
            UploadPlan::Coordinates(vec![0, 5, 7]),
            UploadPlan::Dense,
        ] {
            let owned = client.build_upload(&plan, 3);
            client.build_upload_into(&plan, 3, &mut out);
            assert_eq!(owned.entries, out, "{plan:?}");
        }
    }

    #[test]
    fn hydrated_placeholder_matches_fresh_client() {
        let model = LinearSoftmax::new(4, 3);
        let params = vec![0.02; model.num_params()];
        let data = shard(10, 4, 3);
        let mut fresh = Client::new(7, data.clone(), 0.5, model.num_params(), 4, 99);

        let mut slot = Client::placeholder(4, model.num_params(), 4);
        slot.bind(7, 0.5);
        *slot.shard_mut() = data;
        slot.reset_persistent(99, model.num_params(), 10);

        for _ in 0..3 {
            let lf = fresh.compute_local_gradient(&model, &params);
            let ls = slot.compute_local_gradient(&model, &params);
            assert_eq!(lf.to_bits(), ls.to_bits());
        }
        assert_eq!(
            fresh.accumulator().as_slice(),
            slot.accumulator().as_slice()
        );

        // Dehydrate the slot's persistent state, rehydrate it into another
        // placeholder, and the gradient stream continues bit-identically.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut residual = Vec::new();
        let mut order = Vec::new();
        let mut cursor = 0usize;
        let mut last_batch = Vec::new();
        let mut probe = None;
        slot.swap_persistent(
            &mut rng,
            &mut residual,
            &mut order,
            &mut cursor,
            &mut last_batch,
            &mut probe,
        );
        let mut slot2 = Client::placeholder(4, model.num_params(), 4);
        slot2.bind(7, 0.5);
        *slot2.shard_mut() = slot.shard().clone();
        slot2.swap_persistent(
            &mut rng,
            &mut residual,
            &mut order,
            &mut cursor,
            &mut last_batch,
            &mut probe,
        );
        let lf = fresh.compute_local_gradient(&model, &params);
        let ls = slot2.compute_local_gradient(&model, &params);
        assert_eq!(lf.to_bits(), ls.to_bits());
        assert_eq!(
            fresh.accumulator().as_slice(),
            slot2.accumulator().as_slice()
        );
    }

    #[test]
    #[should_panic]
    fn empty_shard_panics() {
        let _ = Client::new(0, ClientShard::empty(4), 0.1, 10, 4, 0);
    }

    #[test]
    fn state_roundtrip_resumes_gradient_stream() {
        use crate::population::ClientPopulation;
        use agsfl_wire::{SnapshotReader, SnapshotWriter};

        let (mut a, model, params) = client_and_model();
        for _ in 0..3 {
            a.compute_local_gradient(&model, &params);
        }
        // Park the client's persistent state in a population row and
        // serialize it, the shape every checkpoint now uses.
        let mut donor = a.clone();
        let mut pop = ClientPopulation::new();
        pop.dehydrate(0, None, true, &mut donor);
        let mut w = SnapshotWriter::new();
        pop.write_state(&mut w);
        let bytes = w.into_bytes();

        let (mut b, _, _) = client_and_model();
        let mut r = SnapshotReader::new(&bytes);
        let mut restored =
            ClientPopulation::read_state(&mut r, model.num_params(), 1, |_| 12).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.hydrate(0, &mut b), Some(0));
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
        for _ in 0..4 {
            let la = a.compute_local_gradient(&model, &params);
            let lb = b.compute_local_gradient(&model, &params);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
        assert_eq!(
            a.probe_loss(&model, &params).map(f32::to_bits),
            b.probe_loss(&model, &params).map(f32::to_bits)
        );
    }

    #[test]
    fn state_restore_rejects_wrong_shape() {
        use crate::population::ClientPopulation;
        use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

        let (mut a, model, params) = client_and_model();
        a.compute_local_gradient(&model, &params);
        let mut pop = ClientPopulation::new();
        pop.dehydrate(0, None, true, &mut a);
        let mut w = SnapshotWriter::new();
        pop.write_state(&mut w);
        let bytes = w.into_bytes();

        // A population over a different model dimension must refuse the
        // snapshot.
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            ClientPopulation::read_state(&mut r, model.num_params() - 1, 1, |_| 12),
            Err(CheckpointError::Mismatch { .. })
        ));
        // A shorter shard invalidates the serialized sampler epoch.
        let mut r = SnapshotReader::new(&bytes);
        assert!(
            ClientPopulation::read_state(&mut r, model.num_params(), 1, |_| 11).is_err(),
            "mismatched shard length must be rejected"
        );
        // Truncations surface as typed errors, never panics.
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            assert!(
                ClientPopulation::read_state(&mut r, model.num_params(), 1, |_| 12).is_err()
                    || r.finish().is_err(),
                "cut at {cut}"
            );
        }
    }
}
