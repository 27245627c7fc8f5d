//! The synchronized sparse-gradient FL simulation (Algorithm 1).

use std::time::Instant;

use agsfl_exec::{Executor, Parallelism};
use agsfl_ml::data::{ClientShard, FederatedDataset, ShardSource};
use agsfl_ml::metrics::{
    accuracy_parallel, global_accuracy_parallel, global_evaluation, global_loss_parallel,
    GlobalEvaluation,
};
use agsfl_ml::model::Model;
use agsfl_sparse::{topk, ClientUpload, SelectionResult, SelectionScratch, Sparsifier, UploadPlan};
use agsfl_telemetry::{span_end, span_start, CounterId, GaugeId, NoopRecorder, Recorder, SpanId};
use agsfl_wire::{
    decode_frame, decode_frame_with, frame_codec, Auto, Codec, CodecSpec, Precision, WireScratch,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::channel::ChannelModel;
use crate::fault::{ClientFaultPlan, FaultConfigError, FaultModel, FaultRoundReport, FaultState};
use crate::population::{draw_cohort, ClientPopulation, Slot};
use crate::round::{ProbeReport, RoundReport, WireRoundReport};
use crate::time::TimeModel;
use agsfl_wire::{CheckpointError, SnapshotReader, SnapshotWriter};

/// Byte-priced exchange configuration: which wire codec carries the
/// messages and what channel each client sits behind.
///
/// When [`SimulationConfig::wire`] is set, every round actually encodes the
/// uplink/downlink messages (`agsfl_wire`), the server decodes them before
/// aggregation, and the reported `round_time` is the [`ChannelModel`] price
/// of the emitted frames instead of the scalar-proxy
/// [`TimeModel`](crate::TimeModel) time. With a lossless codec the
/// trajectory is bit-identical to the un-wired run — the codecs round-trip
/// bit-exactly and the rank order of top-k uploads is a total order of the
/// values — so only the cost signal the controllers see changes.
///
/// A *lossy* uplink tier ([`agsfl_wire::CodecSpec::is_lossy`], or a
/// [`Precision`] override via [`Simulation::set_wire_precision`]) trades
/// that bit-identity-with-lossless for bytes: the server aggregates the
/// quantized reconstruction, and each client feeds its per-entry
/// quantization error back into its residual accumulator in the same fused
/// pass that handles sparsification residuals. What the lossy tier keeps is
/// **reproducibility** — quantization draws from its own seeded stream
/// keyed only on `(quantization seed, frame content)`, so a lossy run is
/// bit-identical to itself across 1–8 workers and across
/// checkpoint/resume. The downlink broadcast always stays lossless (the
/// server holds no residual to absorb a downlink error).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireConfig {
    /// The wire codec (use [`agsfl_wire::CodecSpec::Auto`] for per-message
    /// size-optimal encoding).
    pub codec: agsfl_wire::CodecSpec,
    /// Per-client channel conditions.
    pub channel: ChannelModel,
}

/// Static configuration of a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// SGD step size `η`. The paper uses 0.01.
    pub learning_rate: f32,
    /// Mini-batch size per client per round. The paper uses 32.
    pub batch_size: usize,
    /// Normalized time model (the paper's "scalars transmitted" proxy).
    pub time_model: TimeModel,
    /// Master seed; client RNGs and the server RNG are derived from it.
    pub seed: u64,
    /// Worker-thread policy for the round engine (client pass, server
    /// selection, probe evaluation). Results are bit-identical for every
    /// setting — parallelism only changes wall-clock time.
    pub parallelism: Parallelism,
    /// Optional byte-priced exchange: encode messages through a wire codec
    /// and price rounds on a per-client [`ChannelModel`] instead of the
    /// scalar proxy.
    pub wire: Option<WireConfig>,
    /// Optional deterministic fault injection: per-client upload dropout,
    /// multi-round crash outages, straggler slowdowns, a round deadline,
    /// and wire-frame corruption with bounded retry. Faults degrade rounds
    /// gracefully — the server aggregates over the surviving cohort and
    /// error feedback absorbs lost updates — and a model with every rate at
    /// zero is bit-identical to `None` (pinned by tests).
    pub fault: Option<FaultModel>,
    /// Optional cohort size: each round a seeded sample of this many
    /// clients participates instead of the whole population (partial
    /// participation, the standard million-client FL setting). Cohorts are
    /// drawn without replacement from a dedicated ChaCha8 stream, serially
    /// before any parallel work. `None` — or any value at least the
    /// population size — runs every client and never touches the cohort
    /// stream, so `Some(N)` is bit-identical to `None`.
    pub cohort: Option<usize>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            batch_size: 32,
            time_model: TimeModel::default(),
            seed: 0,
            parallelism: Parallelism::Auto,
            wire: None,
            fault: None,
            cohort: None,
        }
    }
}

impl SimulationConfig {
    /// Validates the configuration before a run starts, returning a typed
    /// error instead of panicking mid-round. Today this covers the fault
    /// model (out-of-range probabilities, non-positive deadlines, oversized
    /// retry limits, and byte-level faults configured without a wire to act
    /// on); the remaining fields are structurally valid by construction.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if let Some(fault) = &self.fault {
            fault.validate(self.wire.is_some())?;
        }
        Ok(())
    }
}

/// Runtime state of the byte-priced exchange path: the built codecs, the
/// channel, and the server-side encode workspace (downlink frames and
/// hypothetical-`k'` probe pricing reuse it across rounds).
struct WireState {
    /// The configured codec spec; the baseline the precision axis rebuilds
    /// from.
    spec: CodecSpec,
    /// Seed of the quantization RNG stream, derived from the config seed.
    /// Lossy codecs key their stochastic rounding on `(quant_seed, frame
    /// content)` only, so the stream survives any worker schedule and any
    /// checkpoint/resume point.
    quant_seed: u64,
    /// The controller's current precision override (`None` = run the
    /// configured spec). Not checkpointed: the runner re-proposes it from
    /// the restored controller state before the next round.
    precision: Option<Precision>,
    /// The uplink codec currently in force.
    codec: Box<dyn Codec>,
    /// The downlink codec — always lossless: the server holds no residual
    /// accumulator, so a downlink quantization error would be lost forever
    /// rather than fed back.
    downlink: Box<dyn Codec>,
    /// Whether the uplink codec currently in force is lossy (routes the
    /// fused pass through the error-feedback encoder).
    lossy: bool,
    channel: ChannelModel,
    scratch: WireScratch,
}

impl WireState {
    fn new(spec: CodecSpec, quant_seed: u64, channel: ChannelModel) -> Self {
        let downlink: Box<dyn Codec> = if spec.is_lossy() {
            Box::new(Auto)
        } else {
            spec.build()
        };
        Self {
            spec,
            quant_seed,
            precision: None,
            codec: spec.build_seeded(quant_seed),
            downlink,
            lossy: spec.is_lossy(),
            channel,
            scratch: WireScratch::new(),
        }
    }

    /// Installs a precision override for subsequent rounds: `None` restores
    /// the configured spec, [`Precision::F32`] pins a lossless uplink (the
    /// configured spec when it is lossless, [`Auto`] otherwise), and the
    /// lossy tiers swap in their codec seeded from the same quantization
    /// stream. Idempotent — re-proposing the current tier rebuilds nothing.
    fn set_precision(&mut self, precision: Option<Precision>) {
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        let spec = match precision {
            None => self.spec,
            Some(Precision::F32) if !self.spec.is_lossy() => self.spec,
            Some(p) => p.codec_spec(),
        };
        self.codec = spec.build_seeded(self.quant_seed);
        self.lossy = spec.is_lossy();
    }
    /// The channel-priced time a round with sparsity `k'` would have taken:
    /// each client's hypothetical uplink is the `k'`-element prefix of the
    /// message it actually built this round (for top-k plans the prefix is
    /// exactly its top-`k'` message), priced at its exact encoded length;
    /// the downlink is the probe selection's aggregate.
    ///
    /// Uploads are addressed by their carried client id (not their slot), so
    /// the pricing also holds under fault injection when only a surviving
    /// subset of clients delivered this round; for a full cohort the result
    /// is bit-identical to pricing the complete byte vector.
    fn probe_round_time(
        &mut self,
        round_idx: usize,
        dim: usize,
        probe_k: usize,
        uploads: &[ClientUpload],
        probe_selection: &SelectionResult,
    ) -> f64 {
        let uplink_phase = uploads
            .iter()
            .map(|upload| {
                let prefix = &upload.entries[..probe_k.min(upload.entries.len())];
                let bytes = self
                    .scratch
                    .encoded_len_unsorted(self.codec.as_ref(), dim, prefix);
                self.channel.uplink_time(round_idx, upload.client, bytes)
            })
            .fold(0.0f64, f64::max);
        let downlink_bytes = self
            .downlink
            .encoded_len_gradient(&probe_selection.aggregated);
        self.channel.compute_time()
            + uplink_phase
            + self.channel.downlink_phase_time(round_idx, downlink_bytes)
    }
}

/// A synchronized federated-learning run using sparse gradient aggregation.
///
/// The simulation owns the model architecture, a [`ShardSource`] describing
/// the client population, the persistent per-client state in a
/// struct-of-arrays `ClientPopulation`, a small arena of reusable cohort
/// `Slot`s, and a single global weight vector. Keeping one weight vector
/// is sound because every client applies exactly the same downlink update
/// (the paper's synchronization argument for Algorithm 1); an integration
/// test in `tests/` additionally verifies this by replaying updates on
/// independent per-client copies.
///
/// Each round binds the sampled cohort to the slot arena and swaps
/// returning members' persistent rows in (serial, O(1) per member). The
/// fused pass then runs over the slots on the workers: it materializes the
/// member's shard unless the slot already holds it, resets a first-timer's
/// state, computes the gradient and builds the upload. Surviving wire
/// frames stream straight into the reusable upload arena the server
/// aggregates from, and the persistent state is dehydrated back into the
/// population afterwards — so resident memory is
/// `O(cohort + touched_clients · dim)` rather than `O(N)`, and the
/// byte-priced round is allocation-free in steady state.
pub struct Simulation {
    model: Box<dyn Model>,
    source: Box<dyn ShardSource>,
    sparsifier: Box<dyn Sparsifier>,
    config: SimulationConfig,
    /// Persistent per-client state (RNG stream, residual, sampler epoch,
    /// probe bookkeeping), stored only for clients that have participated.
    population: ClientPopulation,
    /// The reusable cohort arena: one slot per cohort member, rebound to
    /// this round's sample and reused across rounds.
    slots: Vec<Slot>,
    /// Persistent aggregation inputs: the first `survivors` entries are
    /// rebuilt each round (decoded straight from the wire frames on the
    /// byte-priced path), reusing their entry buffers.
    uploads: Vec<ClientUpload>,
    params: Vec<f32>,
    server_rng: ChaCha8Rng,
    /// Dedicated stream for cohort draws; untouched on full-population
    /// rounds so sampling is opt-in without perturbing any other stream.
    cohort_rng: ChaCha8Rng,
    /// This round's sampled client ids, ascending (reused buffer).
    cohort: Vec<usize>,
    /// Slot indices of the members whose uploads reached the server
    /// (reused buffer, rebuilt each round).
    survivors: Vec<usize>,
    /// The server-side selection workspace. Selection and the probe's
    /// second selection both run `select_into` on it on the round thread;
    /// buffers are sized on the first round and reused, so the per-round
    /// server path allocates nothing beyond its results in steady state.
    /// Shrunk once per round when cohort demand drops, so a small cohort
    /// never stays priced at a big one's high-water mark.
    scratch: SelectionScratch,
    /// The round engine's executor, built once from the configured
    /// [`Parallelism`] and reused by every parallel region.
    executor: Executor,
    /// Byte-priced exchange state, present when the config carries a
    /// [`WireConfig`].
    wire: Option<WireState>,
    /// Fault injector state, present when the config carries a
    /// [`FaultModel`]. Owns its own RNG stream, so its presence never
    /// perturbs the data, client, or server streams.
    fault: Option<FaultState>,
    round: usize,
    elapsed: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("sparsifier", &self.sparsifier.name())
            .field("num_clients", &self.source.num_clients())
            .field("cohort_slots", &self.slots.len())
            .field("dim", &self.params.len())
            .field("round", &self.round)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation over a fully materialized dataset (the eager
    /// [`ShardSource`]).
    pub fn new(
        model: Box<dyn Model>,
        dataset: FederatedDataset,
        sparsifier: Box<dyn Sparsifier>,
        config: SimulationConfig,
    ) -> Self {
        Self::with_source(model, Box::new(dataset), sparsifier, config)
    }

    /// Creates a simulation over any [`ShardSource`] — eager datasets and
    /// lazily materialized million-client populations alike. Only the
    /// sampled cohort's shards are ever resident.
    pub fn with_source(
        model: Box<dyn Model>,
        source: Box<dyn ShardSource>,
        sparsifier: Box<dyn Sparsifier>,
        config: SimulationConfig,
    ) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid simulation config: {error}");
        }
        assert!(
            config.cohort != Some(0),
            "invalid simulation config: cohort size must be positive"
        );
        assert_eq!(
            model.input_dim(),
            source.feature_dim(),
            "model input dimension {} does not match dataset feature dimension {}",
            model.input_dim(),
            source.feature_dim()
        );
        assert!(
            model.num_classes() >= source.num_classes(),
            "model has fewer classes than the dataset"
        );
        let num_clients = source.num_clients();
        assert!(num_clients > 0, "population must not be empty");
        let mut init_rng = ChaCha8Rng::seed_from_u64(config.seed);
        let params = model.init_params(&mut init_rng);
        let dim = params.len();
        let slot_count = config.cohort.map_or(num_clients, |c| c.min(num_clients));
        let slots = (0..slot_count)
            .map(|_| Slot::new(source.feature_dim(), dim, config.batch_size))
            .collect();
        let wire = config.wire.as_ref().map(|w| {
            assert_eq!(
                w.channel.num_clients(),
                num_clients,
                "channel model covers {} clients but the dataset has {}",
                w.channel.num_clients(),
                num_clients
            );
            WireState::new(w.codec, config.seed ^ QUANT_STREAM, w.channel.clone())
        });
        let executor = config.parallelism.build();
        let server_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xABCD_EF01);
        let cohort_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5EED_C0C0_4071_0001);
        let fault = config
            .fault
            .clone()
            .map(|m| FaultState::new(m, num_clients));
        Self {
            model,
            source,
            sparsifier,
            config,
            population: ClientPopulation::new(),
            slots,
            uploads: Vec::new(),
            params,
            server_rng,
            cohort_rng,
            cohort: Vec::new(),
            survivors: Vec::new(),
            scratch: SelectionScratch::new(),
            executor,
            wire,
            fault,
            round: 0,
            elapsed: 0.0,
        }
    }

    /// Model dimension `D`.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.source.num_clients()
    }

    /// Number of cohort slots (the per-round participant count).
    pub fn cohort_size(&self) -> usize {
        self.slots.len()
    }

    /// Number of clients with persistent state resident in the population
    /// (participated online at least once) — the `touched_clients` factor
    /// of the memory bound, exposed for the scale sweep's audits.
    pub fn resident_clients(&self) -> usize {
        self.population.resident_rows()
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Cumulative normalized time consumed so far.
    pub fn elapsed_time(&self) -> f64 {
        self.elapsed
    }

    /// The current global weight vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The model architecture.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The sparsifier driving this run.
    pub fn sparsifier(&self) -> &dyn Sparsifier {
        self.sparsifier.as_ref()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The round engine's executor. Exposed so telemetry owners can enable
    /// the worker pool's observation-only metrics
    /// ([`Executor::set_metrics_enabled`]) and snapshot them between
    /// rounds; the executor's scheduling is not otherwise configurable
    /// after construction.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The shard source driving this run.
    pub fn source(&self) -> &dyn ShardSource {
        self.source.as_ref()
    }

    /// The federated dataset.
    ///
    /// # Panics
    ///
    /// Panics when the simulation runs over a lazy [`ShardSource`] with no
    /// resident dataset; use [`Simulation::source`] in source-generic code.
    pub fn dataset(&self) -> &FederatedDataset {
        self.source
            .as_dataset()
            .expect("simulation over a lazy source has no resident dataset")
    }

    /// Streams every shard of a lazy source through one reusable buffer and
    /// folds `per_shard(features, labels) * len` in shard order — exactly
    /// the serial association of `agsfl_ml::metrics::global_loss` /
    /// `global_accuracy`, so the lazy sweep is bit-identical to the eager
    /// one for a source that materializes the same shards.
    fn streamed_weighted_sweep(
        &self,
        per_shard: impl Fn(&agsfl_tensor::Matrix, &[usize]) -> f32,
    ) -> f32 {
        let total = self.source.total_samples();
        if total == 0 {
            return 0.0;
        }
        let mut shard = ClientShard::empty(self.source.feature_dim());
        let mut acc = 0.0f64;
        for id in 0..self.source.num_clients() {
            self.source.materialize_into(id, &mut shard);
            if shard.is_empty() {
                continue;
            }
            acc += per_shard(&shard.features, &shard.labels) as f64 * shard.len() as f64;
        }
        (acc / total as f64) as f32
    }

    /// Global training loss `L(w)` over all client data at the current
    /// weights. Over an eager dataset the sweep is client-parallel through
    /// the round engine's executor (bit-identical to the serial sweep; see
    /// `agsfl_ml::metrics`); over a lazy source the shards are streamed one
    /// at a time through a reusable buffer, so evaluation stays `O(shard)`
    /// resident even at a million clients.
    pub fn global_train_loss(&self) -> f64 {
        match self.source.as_dataset() {
            Some(ds) => global_loss_parallel(
                self.model.as_ref(),
                &self.params,
                ds.clients(),
                &self.executor,
            ) as f64,
            None => self
                .streamed_weighted_sweep(|x, labels| self.model.loss(&self.params, x, labels))
                as f64,
        }
    }

    /// Test-set accuracy at the current weights (row-chunked parallel sweep,
    /// bit-identical to the serial pass).
    pub fn test_accuracy(&self) -> f64 {
        let test = self.source.test();
        accuracy_parallel(
            self.model.as_ref(),
            &self.params,
            &test.features,
            &test.labels,
            &self.executor,
        ) as f64
    }

    /// Weighted training accuracy over all client data at the current
    /// weights (client-parallel over an eager dataset, shard-streamed over
    /// a lazy source; both bit-identical to the serial pass).
    pub fn global_train_accuracy(&self) -> f64 {
        match self.source.as_dataset() {
            Some(ds) => global_accuracy_parallel(
                self.model.as_ref(),
                &self.params,
                ds.clients(),
                &self.executor,
            ) as f64,
            None => self
                .streamed_weighted_sweep(|x, labels| self.model.accuracy(&self.params, x, labels))
                as f64,
        }
    }

    /// Everything an evaluation point reports — global train loss, global
    /// train accuracy and test accuracy — from **one** fused parallel sweep
    /// over one work list, so an `eval_every` point spawns a single worker
    /// region and forwards every client shard exactly once (the individual
    /// accessors forward the shards once per metric). Over a lazy source
    /// the train metrics stream shard-by-shard instead.
    ///
    /// Each metric is bit-identical to its individual accessor.
    pub fn evaluate(&self) -> GlobalEvaluation {
        self.evaluate_recorded(&mut NoopRecorder)
    }

    /// [`Simulation::evaluate`] with the sweep's wall time recorded as a
    /// [`SpanId::Evaluate`] span. Telemetry is observation only — the
    /// metrics returned are bit-identical to [`Simulation::evaluate`]'s.
    pub fn evaluate_recorded<R: Recorder>(&self, rec: &mut R) -> GlobalEvaluation {
        let t_eval = span_start(rec);
        let eval = self.evaluate_inner();
        span_end(rec, SpanId::Evaluate, t_eval);
        if rec.enabled() {
            drain_batched_forward(rec);
        }
        eval
    }

    fn evaluate_inner(&self) -> GlobalEvaluation {
        match self.source.as_dataset() {
            Some(ds) => global_evaluation(
                self.model.as_ref(),
                &self.params,
                ds.clients(),
                ds.test(),
                &self.executor,
            ),
            None => GlobalEvaluation {
                train_loss: self.global_train_loss() as f32,
                train_accuracy: self.global_train_accuracy() as f32,
                test_accuracy: self.test_accuracy() as f32,
            },
        }
    }

    /// Installs an uplink precision tier for subsequent rounds — the
    /// precision half of the controllers' 2-D `(k × precision)` action
    /// space. `None` restores the configured codec; [`Precision::F32`]
    /// pins a lossless uplink; the lossy tiers swap in their codec seeded
    /// from the run's dedicated quantization stream, so any sequence of
    /// tier switches stays bit-reproducible across worker counts and
    /// checkpoint/resume. A no-op on a simulation without a wire config
    /// (the scalar-proxy path has no bytes to save).
    ///
    /// The override is deliberately not checkpointed: it is controller
    /// policy, not simulation state, and the runner re-proposes it from the
    /// restored controller before the next round.
    pub fn set_wire_precision(&mut self, precision: Option<Precision>) {
        if let Some(wire) = &mut self.wire {
            wire.set_precision(precision);
        }
    }

    /// Name of the uplink codec currently in force, `None` without a wire
    /// config.
    pub fn wire_codec_name(&self) -> Option<&'static str> {
        self.wire.as_ref().map(|w| w.codec.name())
    }

    /// Runs one round of Algorithm 1 with `k`-element sparsification.
    ///
    /// If `probe_k` is given, the round additionally evaluates the
    /// hypothetical `probe_k`-element update needed by the derivative-sign
    /// estimator (Section IV-E) and attaches a [`ProbeReport`]; following the
    /// paper, the probe's extra single-sample loss computations and the small
    /// difference message are not charged to the round time.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn run_round(&mut self, k: usize, probe_k: Option<usize>) -> RoundReport {
        self.run_round_recorded(k, probe_k, &mut NoopRecorder)
    }

    /// [`Simulation::run_round`] with round-stage telemetry.
    ///
    /// Each stage of the round — hydration, the pipelined client pass with
    /// the wire-fault and decode work its consumer does, selection, the
    /// probe, the downlink, and the overlapped bookkeeping — is timed into
    /// a [`SpanId`] span, and the report's deterministic facts (cohort
    /// size, wire bytes, fault counts) are mirrored into
    /// [`CounterId`]/[`GaugeId`] streams.
    ///
    /// Telemetry is **observation only**: it draws no randomness, touches
    /// no simulation state, and the recorder is consulted through
    /// [`span_start`] so a [`NoopRecorder`] never even reads the clock —
    /// `run_round` compiles down to the uninstrumented round. The golden
    /// trajectories are pinned bit-identical with recording on and off at
    /// every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn run_round_recorded<R: Recorder>(
        &mut self,
        k: usize,
        probe_k: Option<usize>,
        rec: &mut R,
    ) -> RoundReport {
        assert!(k > 0, "k must be at least 1");
        let k = k.min(self.dim());
        self.round += 1;
        let dim = self.dim();
        let lr = self.config.learning_rate;
        let round_idx = self.round - 1;

        // The Hydrate span covers phases (0)–(0b): cohort draw, fault
        // plan, slot binding and the population row swap. Shard
        // materialization and first-timer resets run on the workers and
        // land in the ClientPass span.
        let t_hydrate = span_start(rec);

        // (0) Cohort draw, serial from its dedicated stream before any
        // parallel work (a full-population cohort makes no draw at all —
        // see `draw_cohort`). The buffer is taken out of `self` so the
        // round body can borrow members while mutating other fields.
        let mut cohort = std::mem::take(&mut self.cohort);
        draw_cohort(
            &mut self.cohort_rng,
            self.source.num_clients(),
            self.config.cohort,
            &mut cohort,
        );
        let c = cohort.len();
        debug_assert!(c <= self.slots.len(), "cohort exceeds the slot arena");
        // Aggregation weights are renormalized over the cohort's samples
        // (`C_i / Σ_{j∈cohort} C_j`); with every client participating the
        // denominator is the population total, exactly the historical
        // weighting.
        let cohort_samples: usize = cohort.iter().map(|&id| self.source.shard_len(id)).sum();
        assert!(cohort_samples > 0, "cohort holds no samples");

        // (0a) Fault plan for the round, drawn serially in cohort order from
        // the injector's dedicated stream *before* any parallel work: the
        // plan — never the worker schedule — decides every fault, so the
        // determinism invariant (identical seeds, identical bits, any
        // thread count) survives fault injection unchanged. Plans are
        // indexed parallel to the cohort.
        let plans = self.fault.as_mut().map(|f| {
            let max_attempts = f.model().max_retries + 1;
            f.plan_round_for(round_idx, max_attempts, &cohort)
        });

        // (0b) Binding, serial and O(1) per member: bind each slot to its
        // cohort member, set the round's slot flags from the fault plan, and
        // swap a returning participant's persistent row in from the
        // population. Shard materialization and first-timer resets are pure
        // functions of `(source, seed, id)` that write only into the slot,
        // so they run on the workers at the top of the client pass below.
        for (pos, &id) in cohort.iter().enumerate() {
            let slot = &mut self.slots[pos];
            slot.client
                .bind(id, self.source.shard_len(id) as f64 / cohort_samples as f64);
            slot.cohort_pos = pos;
            slot.offline = plans.as_ref().is_some_and(|p| p[pos].offline);
            slot.dropped = plans.as_ref().is_some_and(|p| p[pos].dropped);
            slot.online = false;
            slot.loss = 0.0;
            slot.errors.clear();
            slot.cached_row = self.population.hydrate(id, &mut slot.client);
        }
        span_end(rec, SpanId::Hydrate, t_hydrate);

        // (1) One pipelined pass over the cohort slots. The *producer* runs
        // on the workers: the rest of the member's hydration, then local
        // gradient computation (Line 4) immediately followed by building the
        // uplink message (Line 6) and, on the byte-priced path, encoding it
        // into the slot's wire frame — so each member's residual is still
        // hot in cache when its top-k runs. Each slot owns its member's
        // shard, RNG and sampler and writes only into its own reused
        // buffers, so the producer is allocation-free in steady state.
        //
        // The *consumer* runs on this thread in strict cohort order as
        // frames complete, so the server starts on early members while later
        // ones are still encoding. Per member it counts the offline and the
        // dropped, sends the frame through the fault model (corruption
        // replay, retries, backoff, slowdown and the deadline — a clean plan
        // when no model is configured), folds the time the server waited
        // into a running uplink-phase max, and decodes each survivor
        // straight into the next aggregation input. Every order-dependent
        // step — the loss reduction, the survivor list, the phase fold —
        // happens in that in-order consumer, which keeps the round
        // bit-identical to the sequential loop at every worker count.
        let plan = self.sparsifier.upload_plan(dim, k, &mut self.server_rng);
        let rerank = matches!(plan, UploadPlan::TopKOwn);
        let model = self.model.as_ref();
        let params = &self.params;
        let wire_codec: Option<(&dyn Codec, bool)> =
            self.wire.as_ref().map(|w| (w.codec.as_ref(), w.lossy));
        let source = self.source.as_ref();
        let seed = self.config.seed;
        let client_pass = |slot: &mut Slot| {
            // Hydration, finished on the worker and before the offline
            // exit: the probe sweep evaluates every hydrated member, offline
            // ones included, on its shard. The shard is materialized only
            // when the slot held a different client's last round, and a
            // first-timer's state is derived from `(seed, id)` — the same
            // derivation the owned-client path used at construction, so
            // lazy creation is invisible to the trajectory.
            let id = slot.client.id();
            if slot.shard_of != Some(id) {
                source.materialize_into(id, slot.client.shard_mut());
                slot.shard_of = Some(id);
            }
            if slot.cached_row.is_none() {
                let shard_len = slot.client.num_samples();
                slot.client.reset_persistent(
                    seed.wrapping_add(1)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(id as u64),
                    dim,
                    shard_len,
                );
            }
            if slot.offline {
                // Mid-outage: no compute, no upload, and none of the
                // member's streams advance, so recovery resumes them at
                // exactly the position an always-online run never left.
                return;
            }
            slot.loss = slot.client.compute_local_gradient(model, params);
            slot.client.build_upload_into(&plan, k, &mut slot.entries);
            match wire_codec {
                Some((codec, true)) => {
                    // Lossy tier: encode, self-decode to learn the server's
                    // exact reconstruction, capture the per-entry
                    // quantization error for the residual reset, and
                    // rewrite the entry list with the decoded values —
                    // still in this one fused pass, per slot, with no
                    // cross-slot state (the quantization stream is keyed on
                    // frame content, not worker schedule).
                    slot.client.encode_upload_lossy_into(
                        codec,
                        dim,
                        rerank,
                        &mut slot.entries,
                        &mut slot.frame,
                        &mut slot.errors,
                    );
                }
                Some((codec, false)) => {
                    slot.client
                        .encode_upload_into(codec, dim, &slot.entries, &mut slot.frame);
                }
                None => {}
            }
            slot.online = true;
        };
        let mut train_loss = 0.0f64;
        let mut fault_report = FaultRoundReport::default();
        let mut slowest_uplink = 0.0f64;
        let clean = ClientFaultPlan::clean();
        let no_faults = FaultModel::default();
        let policy = self.fault.as_ref().map_or(&no_faults, |f| f.model());
        let channel = self.wire.as_ref().map(|w| &w.channel);
        self.survivors.clear();
        while self.uploads.len() < c {
            self.uploads.push(ClientUpload::new(0, 0.0, Vec::new()));
        }
        let uploads = &mut self.uploads;
        let survivors = &mut self.survivors;
        // The consumer's fault and decode work is clocked per member (only
        // when recording) into the WireFault and ServerDecode spans;
        // ClientPass is the rest of the pass's wall time, so the three tile
        // the pass.
        let timed = rec.enabled();
        let lap = |t0: Option<Instant>| t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (mut wire_fault_ns, mut decode_ns) = (0u64, 0u64);
        let t_client = span_start(rec);
        self.executor
            .pipeline_mut(&mut self.slots[..c], client_pass, |pos, slot, ()| {
                if slot.offline {
                    fault_report.offline += 1;
                    return;
                }
                train_loss += slot.client.weight() * slot.loss as f64;
                if slot.dropped {
                    // Upload lost in transit, no retry. The computed gradient
                    // stays in the member's residual accumulator (no reset
                    // will target it), so error feedback re-sends the mass
                    // later.
                    fault_report.dropped += 1;
                    return;
                }
                if let Some(channel) = channel {
                    let t0 = timed.then(Instant::now);
                    let (waited, delivered) = policy.transmit(
                        channel,
                        round_idx,
                        slot.client.id(),
                        &slot.frame,
                        plans.as_ref().map_or(&clean, |p| &p[pos]),
                        &mut fault_report,
                    );
                    slowest_uplink = slowest_uplink.max(waited);
                    wire_fault_ns += lap(t0);
                    if !delivered {
                        return;
                    }
                }
                // Decode the surviving frame *directly into* its aggregation
                // input — no intermediate per-client gradient is allocated —
                // so selection genuinely runs on what crossed the wire.
                // Re-ranking the decoded entries reproduces the built upload
                // bit for bit: on the lossless tier because decode is exact
                // and the top-k rank order is a total order of the values
                // (`topk::compare_magnitude_then_index`); on the lossy tier
                // because the client already rewrote its entry list with its
                // own decode of the same frame. The debug assertion pins both
                // every test run.
                let t0 = timed.then(Instant::now);
                let upload = &mut uploads[survivors.len()];
                upload.client = slot.client.id();
                upload.weight = slot.client.weight();
                upload.entries.clear();
                if channel.is_some() {
                    let (frame_dim, _) = decode_frame(&slot.frame, &mut upload.entries)
                        .expect("self-encoded frame must decode");
                    debug_assert_eq!(frame_dim, dim);
                    if rerank {
                        topk::rank_by_magnitude(&mut upload.entries);
                    }
                    debug_assert!(
                        upload.entries.len() == slot.entries.len()
                            && upload
                                .entries
                                .iter()
                                .zip(slot.entries.iter())
                                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                        "decoded uploads must be bit-identical to the built ones"
                    );
                } else {
                    upload.entries.extend_from_slice(&slot.entries);
                }
                survivors.push(pos);
                decode_ns += lap(t0);
            });
        if let Some(t0) = t_client {
            let pass_ns = lap(Some(t0));
            rec.span(
                SpanId::ClientPass,
                pass_ns.saturating_sub(wire_fault_ns + decode_ns),
            );
            rec.span(SpanId::WireFault, wire_fault_ns);
            rec.span(SpanId::ServerDecode, decode_ns);
        }
        let s = self.survivors.len();
        fault_report.survivors = s;
        // The byte-priced uplink phase: the slowest delivery the server
        // waited out — retries, backoff and straggler slowdown included,
        // corrupt-lost members' futile attempts included — or the deadline,
        // which the server waits out in full whenever anyone is missing.
        let uplink_phase = match policy.deadline {
            Some(d) if fault_report.lost() > 0 => d,
            _ => slowest_uplink,
        };

        // (2) Server selection and aggregation: one serial `select_into`
        // on the round thread, reusing the round workspace.
        let t_select = span_start(rec);
        let selection = self
            .sparsifier
            .select_into(&self.uploads[..s], dim, k, &mut self.scratch);
        span_end(rec, SpanId::Selection, t_select);

        // Optional probe for the derivative-sign estimator; its second
        // selection shares the same workspace. On the byte-priced path the
        // hypothetical `θ_m(k')` is re-priced through the channel model
        // (over the surviving cohort when faults are active — the probe is
        // priced as a clean hypothetical round of those clients).
        let t_probe = span_start(rec);
        let probe = probe_k.map(|pk| {
            let pk = pk.clamp(1, dim);
            let probe_selection =
                self.sparsifier
                    .select_into(&self.uploads[..s], dim, pk, &mut self.scratch);
            let mut report = self.build_probe_report(c, pk, &selection, &probe_selection);
            if let Some(wire) = &mut self.wire {
                report.probe_round_time =
                    wire.probe_round_time(round_idx, dim, pk, &self.uploads[..s], &probe_selection);
            }
            report
        });
        span_end(rec, SpanId::Probe, t_probe);

        // (3) Downlink: every client applies the identical sparse update.
        // On the byte-priced path the broadcast is encoded, priced, and
        // *decoded* before application — the weights advance by what
        // crossed the wire (bit-identical to the local aggregate because
        // the codecs are lossless; debug-asserted below).
        //
        // The O(N)-links broadcast *pricing* sweep
        // (`ChannelModel::downlink_phase_time`) is deferred out of this
        // match: it reads only the channel, so phase (4) below overlaps it
        // with the end-of-round bookkeeping on a pool worker. Everything
        // that feeds the next round's gradients — the weight update itself
        // — still happens here, before the match ends: `params` is a true
        // dependency of the next round's compute and is never raced.
        // `time_before_downlink` carries the compute + uplink phases.
        let t_broadcast = span_start(rec);
        let (time_before_downlink, downlink_bytes, wire_report) = match &mut self.wire {
            None => {
                selection.aggregated.apply_sgd(&mut self.params, lr);
                let round_time = self.config.time_model.round_time(
                    dim,
                    selection.max_uplink_scalars(),
                    selection.downlink_scalars(),
                );
                (round_time, None, None)
            }
            Some(wire) => {
                let frame = wire
                    .downlink
                    .encode_gradient_into(&selection.aggregated, &mut wire.scratch);
                let downlink_bytes = frame.len();
                let downlink_codec = frame_codec(frame).expect("freshly encoded frame");
                #[cfg(debug_assertions)]
                {
                    let broadcast =
                        agsfl_wire::decode_gradient(frame).expect("self-encoded frame must decode");
                    debug_assert!(
                        broadcast
                            .entries()
                            .iter()
                            .zip(selection.aggregated.entries().iter())
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                            && broadcast.nnz() == selection.aggregated.nnz(),
                        "decoded broadcast must be bit-identical to the aggregate"
                    );
                }
                // Streaming application: the decoded broadcast coordinates
                // go straight into the weight vector, visiting them in
                // frame order — exactly the entry order `apply_sgd` on the
                // decoded gradient used to walk, with no intermediate
                // gradient materialized.
                let params = &mut self.params;
                decode_frame_with(frame, |j, v| params[j] -= lr * v)
                    .expect("self-encoded frame must decode");
                // Byte accounting is indexed parallel to the cohort, with
                // zero bytes for members that never delivered.
                let mut uplink_bytes = vec![0usize; c];
                for &pos in &self.survivors {
                    uplink_bytes[pos] = self.slots[pos].frame.len();
                }
                let uplink_codecs = self
                    .survivors
                    .iter()
                    .map(|&pos| frame_codec(&self.slots[pos].frame).expect("freshly encoded frame"))
                    .collect();
                let max_uplink_bytes = uplink_bytes.iter().copied().max().unwrap_or(0);
                let report = WireRoundReport {
                    uplink_bytes,
                    max_uplink_bytes,
                    downlink_bytes,
                    uplink_codecs,
                    downlink_codec,
                };
                // The broadcast is priced over every link (the server pushes
                // the global model to the whole population) and added after
                // the overlapped sweep below; for a full clean cohort the
                // total is exactly `ChannelModel::round_time`.
                let time_before_downlink = wire.channel.compute_time() + uplink_phase;
                (time_before_downlink, Some(downlink_bytes), Some(report))
            }
        };
        span_end(rec, SpanId::BroadcastApply, t_broadcast);
        // (4) End-of-round bookkeeping, overlapped with the deferred
        // broadcast-pricing sweep. The downlink phase price folds a max
        // over *every* link in the channel (the server pushes the global
        // model to the whole population), which is O(N) at million-client
        // scale — by far the priciest read-only computation left in the
        // round. It runs on a pool worker while this thread performs the
        // resets, contributions, and dehydration; neither side touches the
        // other's state (the sweep reads only the channel and two scalars),
        // and `f64` addition of the two finished phase times afterwards is
        // schedule-independent, so the overlap cannot change a single bit.
        //
        // Why not overlap the broadcast *application* with next-round
        // gradients, as the pipelining dream goes? Because that edge is a
        // true dependency: clients compute gradients at the post-broadcast
        // weights. The pricing sweep is the part of the downlink with no
        // consumer until `RoundReport`, so it is the part that legally
        // moves off the critical path.
        //
        // Bookkeeping on this thread: resets and contributions target the
        // surviving members' slots — exactly the members whose uploads were
        // aggregated get their used coordinates reset, so a lost member's
        // residual keeps its update. On the lossy tier each reset
        // coordinate is seeded with its quantization error instead of zero
        // (error feedback); `errors` is empty on lossless rounds, which
        // makes this bit-identical to a plain reset. Dehydration then
        // returns every member's persistent state to the population
        // (first-time online participants get a new row; pristine offline
        // first-timers are dropped and recreated identically on their next
        // appearance), and the selection workspace notes this round's
        // demand so a shrinking cohort or `k` releases capacity instead of
        // staying priced at its high-water mark.
        let downlink_elements = selection.downlink_elements;
        let max_uplink_scalars = selection.max_uplink_scalars();
        let mut contributions = vec![0usize; c];
        let channel = self.wire.as_ref().map(|w| &w.channel);
        let executor = &self.executor;
        let slots = &mut self.slots;
        let population = &mut self.population;
        let scratch = &mut self.scratch;
        let survivors = &self.survivors;
        // The Bookkeeping span covers the whole joined region; the
        // DownlinkPricing span is timed inside the overlapped closure (it
        // runs on a pool worker, so its nanoseconds come back with the
        // result and are recorded here on the round thread). The two spans
        // overlap by construction.
        let t_bookkeeping = span_start(rec);
        let want_pricing_span = rec.enabled();
        let ((), (downlink_time, pricing_ns)) = executor.join(
            || {
                for (u_idx, resets) in selection.reset_indices.iter().enumerate() {
                    let slot = &mut slots[survivors[u_idx]];
                    slot.client.apply_reset_with_errors(resets, &slot.errors);
                }
                for (u_idx, used) in selection.into_contributions().into_iter().enumerate() {
                    contributions[survivors[u_idx]] = used;
                }
                for (pos, &id) in cohort.iter().enumerate() {
                    let slot = &mut slots[pos];
                    population.dehydrate(id, slot.cached_row, slot.online, &mut slot.client);
                    slot.cached_row = None;
                }
                scratch.shrink_to_recent_demand();
            },
            || {
                let t0 = want_pricing_span.then(Instant::now);
                let time = match (channel, downlink_bytes) {
                    (Some(channel), Some(bytes)) => channel.downlink_phase_time(round_idx, bytes),
                    _ => 0.0,
                };
                (time, t0.map(|t0| t0.elapsed().as_nanos() as u64))
            },
        );
        span_end(rec, SpanId::Bookkeeping, t_bookkeeping);
        if let Some(ns) = pricing_ns {
            rec.span(SpanId::DownlinkPricing, ns);
        }
        let round_time = time_before_downlink + downlink_time;
        self.elapsed += round_time;

        let report = RoundReport {
            round: self.round,
            k_used: k,
            train_loss,
            round_time,
            elapsed_time: self.elapsed,
            downlink_elements,
            max_uplink_scalars,
            cohort: cohort.clone(),
            contributions,
            probe,
            wire: wire_report,
            fault: self.fault.is_some().then_some(fault_report),
        };
        if rec.enabled() {
            record_round_report(rec, &report);
            rec.gauge(
                GaugeId::ResidentClients,
                self.population.resident_rows() as u64,
            );
            drain_batched_forward(rec);
        }
        self.cohort = cohort;
        report
    }

    /// Evaluates the probe losses `L̃(w(m-1))`, `L̃(w(m))`, `L̃(w'(m))` of the
    /// derivative-sign estimator.
    fn build_probe_report(
        &self,
        cohort_len: usize,
        probe_k: usize,
        selection: &SelectionResult,
        probe_selection: &SelectionResult,
    ) -> ProbeReport {
        let lr = self.config.learning_rate;
        let model = self.model.as_ref();

        let mut w_now = self.params.clone();
        selection.aggregated.apply_sgd(&mut w_now, lr);
        let mut w_probe = self.params.clone();
        probe_selection.aggregated.apply_sgd(&mut w_probe, lr);

        // One pass per cohort slot (every hydrated member, offline ones
        // included — their stale probe sample is exactly what the
        // historical all-client sweep evaluated): the probe sample is
        // fetched once and the three weight vectors evaluated together.
        // The per-member results come back in cohort order, so the serial
        // reduction below accumulates exactly as a sequential loop would.
        let losses: Vec<Option<[f32; 3]>> =
            self.executor.map_ref(&self.slots[..cohort_len], |slot| {
                slot.client
                    .probe_losses(model, [&self.params, &w_now, &w_probe])
            });
        let mut prev_sum = 0.0f64;
        let mut now_sum = 0.0f64;
        let mut probe_sum = 0.0f64;
        let mut count = 0usize;
        for loss in losses {
            let Some([prev, now, probe]) = loss else {
                continue;
            };
            prev_sum += prev as f64;
            now_sum += now as f64;
            probe_sum += probe as f64;
            count += 1;
        }
        let n = count.max(1) as f64;
        ProbeReport {
            probe_k,
            loss_prev: prev_sum / n,
            loss_now: now_sum / n,
            loss_probe: probe_sum / n,
            probe_round_time: self
                .config
                .time_model
                .sparse_round_time(self.dim(), probe_k),
        }
    }

    /// Serializes the complete mutable simulation state — round counter,
    /// elapsed time, global weights, server RNG position, every client's
    /// RNG/residual/sampler/probe state, and the fault injector — prefixed
    /// by a configuration fingerprint. A run restored from these bytes into
    /// a simulation built from the same inputs continues *bit-identically*
    /// to the uninterrupted run (pinned by tests across sparsifiers, thread
    /// counts, and interrupt points).
    pub fn save_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.save_state_into(&mut buf);
        buf
    }

    /// [`Simulation::save_state`] writing into a caller-owned buffer
    /// (cleared first), so periodic checkpointing reuses one allocation
    /// across rounds.
    pub fn save_state_into(&self, buf: &mut Vec<u8>) {
        let mut w = SnapshotWriter::with_buf(std::mem::take(buf));
        w.header(SIM_MAGIC, SIM_VERSION);
        // Fingerprint: enough static configuration to reject a restore into
        // a differently-shaped simulation with a typed error.
        w.usize(self.params.len());
        w.usize(self.source.num_clients());
        w.u64(self.config.seed);
        w.usize(self.config.batch_size);
        w.str(self.sparsifier.name());
        w.bool(self.config.wire.is_some());
        w.bool(self.fault.is_some());
        w.opt_usize(self.config.cohort);
        // v3: the configured wire codec, so a lossy-tier checkpoint cannot
        // silently resume under a different quantization scheme.
        w.str(self.config.wire.as_ref().map_or("none", |w| w.codec.name()));
        // Mutable state. Only the *resident* population rows are written
        // (clients that participated online at least once) — an untouched
        // client's state is a pure function of `(seed, id)` and is
        // recreated on demand, so a million-client snapshot stays
        // proportional to the touched set, not `N`.
        w.usize(self.round);
        w.f64(self.elapsed);
        w.f32s(&self.params);
        w.rng(&self.server_rng);
        w.rng(&self.cohort_rng);
        self.population.write_state(&mut w);
        if let Some(fault) = &self.fault {
            fault.write_state(&mut w);
        }
        *buf = w.into_bytes();
    }

    /// Restores state produced by [`Simulation::save_state`] into a
    /// simulation built from the **same** model, dataset, sparsifier, and
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on malformed or truncated bytes,
    /// on an unsupported format version, and on any fingerprint mismatch
    /// (dimension, client count, seed, batch size, sparsifier, wire/fault
    /// presence, cohort size, wire codec). On error the simulation may be
    /// partially overwritten and must be discarded.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = SnapshotReader::new(bytes);
        let version = r.header(SIM_MAGIC, SIM_VERSION)?;
        if version != SIM_VERSION {
            // Version 1 serialized one dense row per client with no cohort
            // stream; the population layout cannot represent its bytes, so
            // the old format is rejected rather than silently misread.
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let checks: [(&'static str, bool); 9] = [
            ("dim", r.usize()? == self.params.len()),
            ("num_clients", r.usize()? == self.source.num_clients()),
            ("seed", r.u64()? == self.config.seed),
            ("batch_size", r.usize()? == self.config.batch_size),
            ("sparsifier", r.str()? == self.sparsifier.name()),
            (
                "wire configuration",
                r.bool()? == self.config.wire.is_some(),
            ),
            ("fault model", r.bool()? == self.fault.is_some()),
            ("cohort size", r.opt_usize()? == self.config.cohort),
            (
                "wire codec",
                r.str()? == self.config.wire.as_ref().map_or("none", |w| w.codec.name()),
            ),
        ];
        for (field, ok) in checks {
            if !ok {
                return Err(CheckpointError::Mismatch { field });
            }
        }
        let round = r.usize()?;
        let elapsed = r.f64()?;
        let params = r.f32s()?;
        if params.len() != self.params.len() {
            return Err(CheckpointError::Invalid("params length"));
        }
        let server_rng = r.rng()?;
        let cohort_rng = r.rng()?;
        let population = ClientPopulation::read_state(
            &mut r,
            self.params.len(),
            self.source.num_clients(),
            |id| self.source.shard_len(id),
        )?;
        if let Some(fault) = &mut self.fault {
            fault.read_state(&mut r)?;
        }
        r.finish()?;
        self.round = round;
        self.elapsed = elapsed;
        self.params = params;
        self.server_rng = server_rng;
        self.cohort_rng = cohort_rng;
        self.population = population;
        Ok(())
    }
}

/// Mirrors a finished round's deterministic facts — cohort size, wire
/// bytes, codec frame counts, fault tallies — into a recorder's counter and
/// gauge streams. Called by [`Simulation::run_round_recorded`] for every
/// round whose recorder is enabled; exposed so callers replaying stored
/// [`RoundReport`]s (the runner's resumed histories, report tooling) can
/// rebuild the same totals.
///
/// Every value recorded here is a pure function of the report, so two
/// bit-identical trajectories produce bit-identical counter streams — the
/// property the byte-identical `metrics.jsonl` contract rests on.
pub fn record_round_report<R: Recorder>(rec: &mut R, report: &RoundReport) {
    rec.counter(CounterId::Rounds, 1);
    rec.counter(CounterId::CohortClients, report.cohort.len() as u64);
    rec.counter(CounterId::DownlinkElements, report.downlink_elements as u64);
    rec.gauge(GaugeId::KUsed, report.k_used as u64);
    if let Some(wire) = &report.wire {
        let uplink: u64 = wire.uplink_bytes.iter().map(|&b| b as u64).sum();
        rec.counter(CounterId::UplinkBytes, uplink);
        rec.counter(CounterId::DownlinkBytes, wire.downlink_bytes as u64);
        rec.counter(CounterId::UplinkFrames, wire.uplink_codecs.len() as u64);
        rec.gauge(GaugeId::MaxUplinkBytes, wire.max_uplink_bytes as u64);
    }
    if let Some(fault) = &report.fault {
        rec.counter(CounterId::FaultOffline, fault.offline as u64);
        rec.counter(CounterId::FaultDropped, fault.dropped as u64);
        rec.counter(CounterId::FaultStragglers, fault.stragglers as u64);
        rec.counter(CounterId::FaultCorruptFrames, fault.corrupt_frames as u64);
        rec.counter(
            CounterId::FaultLost,
            (fault.corrupt_lost + fault.deadline_dropped) as u64,
        );
        rec.counter(CounterId::FaultRetries, fault.retries as u64);
        rec.counter(
            CounterId::FaultRetransmittedBytes,
            fault.retransmitted_bytes,
        );
    }
}

/// Drains the process-wide batched-forward pool (`agsfl_ml::stats`) into
/// the recorder: one [`SpanId::BatchedForward`] sample holding the drained
/// wall time, plus the produced logit rows. A no-op while the kernel-side
/// accounting is disabled (the pool stays empty).
fn drain_batched_forward<R: Recorder>(rec: &mut R) {
    let (calls, rows, nanos) = agsfl_ml::stats::take();
    if calls > 0 {
        rec.span(SpanId::BatchedForward, nanos);
        rec.counter(CounterId::BatchedForwardRows, rows);
    }
}

/// Magic bytes of a serialized [`Simulation`] state blob.
const SIM_MAGIC: [u8; 4] = *b"AGSF";
/// Current simulation state format version: v2 replaced the dense
/// per-client state section with the resident [`ClientPopulation`] rows and
/// added the cohort stream/fingerprint (v1 blobs are rejected); v3 added
/// the wire-codec fingerprint field guarding the lossy uplink tier.
const SIM_VERSION: u32 = 3;
/// XOR tweak deriving the quantization RNG stream's seed from the config
/// seed — its own stream, like the server (`^ 0xABCD_EF01`) and cohort
/// (`^ 0x5EED_C0C0_4071_0001`) streams, so enabling a lossy tier never
/// perturbs any other stream.
const QUANT_STREAM: u64 = 0x051A_771F_ED0C_0DEC;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ClientLink;
    use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
    use agsfl_ml::model::LinearSoftmax;
    use agsfl_sparse::{FabTopK, FubTopK, PeriodicK, SendAll, UnidirectionalTopK};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tiny_sim_with(
        sparsifier: Box<dyn Sparsifier>,
        beta: f64,
        seed: u64,
        parallelism: Parallelism,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(beta),
                seed,
                parallelism,
                wire: None,
                fault: None,
                cohort: None,
            },
        )
    }

    fn tiny_wire_sim(
        sparsifier: Box<dyn Sparsifier>,
        seed: u64,
        parallelism: Parallelism,
        codec: agsfl_wire::CodecSpec,
        channel: impl Fn(usize) -> ChannelModel,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let channel = channel(fed.num_clients());
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire: Some(WireConfig { codec, channel }),
                fault: None,
                cohort: None,
            },
        )
    }

    /// A tiny simulation with an optional fault model, wired (uniform
    /// channel, auto codec) or scalar-priced.
    fn tiny_fault_sim(
        sparsifier: Box<dyn Sparsifier>,
        seed: u64,
        parallelism: Parallelism,
        wired: bool,
        fault: Option<FaultModel>,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let wire = wired.then(|| WireConfig {
            codec: agsfl_wire::CodecSpec::Auto,
            channel: uniform_channel(fed.num_clients()),
        });
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire,
                fault,
                cohort: None,
            },
        )
    }

    /// An aggressive every-fault-at-once model for robustness tests.
    fn chaos_model(seed: u64) -> FaultModel {
        FaultModel {
            drop_prob: 0.2,
            crash_prob: 0.1,
            outage_rounds: (1, 2),
            straggle_prob: 0.25,
            straggle_factor: 5.0,
            deadline: Some(40.0),
            corrupt_prob: 0.3,
            max_retries: 2,
            retry_backoff: 0.01,
            seed,
        }
    }

    /// Runs rounds `[from, to)` with a probe on even rounds, collecting the
    /// reports.
    fn drive(sim: &mut Simulation, from: usize, to: usize, k: usize) -> Vec<RoundReport> {
        (from..to)
            .map(|round| {
                let probe = (round % 2 == 0).then(|| (k / 2).max(1));
                sim.run_round(k, probe)
            })
            .collect()
    }

    fn uniform_channel(n: usize) -> ChannelModel {
        ChannelModel::uniform(n, 1.0, 2_000.0, 4_000.0, 0.05)
    }

    fn tiny_sim(sparsifier: Box<dyn Sparsifier>, beta: f64, seed: u64) -> Simulation {
        tiny_sim_with(sparsifier, beta, seed, Parallelism::Auto)
    }

    #[test]
    fn round_advances_time_and_counter() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 0);
        let dim = sim.dim();
        let report = sim.run_round(dim / 10, None);
        assert_eq!(report.round, 1);
        assert_eq!(sim.round(), 1);
        assert!(report.round_time > 1.0);
        assert!((sim.elapsed_time() - report.round_time).abs() < 1e-12);
        assert_eq!(report.contributions.len(), sim.num_clients());
    }

    #[test]
    fn training_reduces_global_loss() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 1.0, 1);
        let k = sim.dim() / 5;
        let initial = sim.global_train_loss();
        for _ in 0..150 {
            sim.run_round(k, None);
        }
        let trained = sim.global_train_loss();
        assert!(
            trained < initial * 0.8,
            "global loss did not decrease: {initial} -> {trained}"
        );
        assert!(sim.test_accuracy() > 0.2);
    }

    #[test]
    fn send_all_round_costs_full_comm() {
        let mut sim = tiny_sim(Box::new(SendAll::new()), 10.0, 2);
        let report = sim.run_round(1, None);
        assert!((report.round_time - 11.0).abs() < 1e-9);
    }

    #[test]
    fn fab_round_time_matches_sparse_formula() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 3);
        let dim = sim.dim();
        let k = dim / 8;
        let report = sim.run_round(k, None);
        let expected = TimeModel::normalized(10.0).sparse_round_time(dim, k);
        assert!(
            (report.round_time - expected).abs() < 1e-9,
            "round time {} vs expected {expected}",
            report.round_time
        );
    }

    #[test]
    fn probe_report_is_produced_and_sensible() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 4);
        let dim = sim.dim();
        let report = sim.run_round(dim / 4, Some(dim / 8));
        let probe = report.probe.expect("probe requested");
        assert_eq!(probe.probe_k, dim / 8);
        assert!(probe.loss_prev.is_finite() && probe.loss_prev > 0.0);
        assert!(probe.loss_now.is_finite());
        assert!(probe.loss_probe.is_finite());
        assert!(probe.probe_round_time < report.round_time);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let mut a = tiny_sim(Box::new(FubTopK::new()), 5.0, 9);
        let mut b = tiny_sim(Box::new(FubTopK::new()), 5.0, 9);
        for _ in 0..5 {
            let ka = a.run_round(50, None);
            let kb = b.run_round(50, None);
            assert_eq!(ka, kb);
        }
        assert_eq!(a.params(), b.params());
    }

    /// The parallel round engine's load-bearing invariant: a serial run and
    /// a multi-threaded run of the same seed produce equal round reports
    /// (probes included) and bit-equal final weights, for every sparsifier
    /// family the engine shards.
    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 40 + which as u64;
            let mut serial = tiny_sim_with(make(), 5.0, seed, Parallelism::Serial);
            let mut parallel = tiny_sim_with(make(), 5.0, seed, Parallelism::Threads(4));
            let k = serial.dim() / 6;
            for round in 0..4 {
                let probe = if round % 2 == 0 { Some(k / 2) } else { None };
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "sparsifier {which}, round {round}");
            }
            assert_eq!(
                serial.params(),
                parallel.params(),
                "final weights diverged for sparsifier {which}"
            );
        }
    }

    /// The fused evaluation sweep must equal the individual accessors bit
    /// for bit, serial or parallel, across 1–8 workers.
    #[test]
    fn fused_evaluation_matches_accessors_for_any_worker_count() {
        for threads in [1usize, 2, 3, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut sim = tiny_sim_with(Box::new(FabTopK::new()), 5.0, 21, parallelism);
            for _ in 0..3 {
                sim.run_round(sim.dim() / 6, None);
            }
            let eval = sim.evaluate();
            assert_eq!(
                eval.train_loss as f64,
                sim.global_train_loss(),
                "threads={threads}"
            );
            assert_eq!(
                eval.train_accuracy as f64,
                sim.global_train_accuracy(),
                "threads={threads}"
            );
            assert_eq!(
                eval.test_accuracy as f64,
                sim.test_accuracy(),
                "threads={threads}"
            );
        }
    }

    /// Evaluation sweeps are part of the determinism invariant: the same
    /// trained state evaluates to identical bits for every worker count.
    #[test]
    fn serial_and_parallel_evaluations_are_identical() {
        let mut serial = tiny_sim_with(Box::new(FabTopK::new()), 5.0, 22, Parallelism::Serial);
        let mut parallel =
            tiny_sim_with(Box::new(FabTopK::new()), 5.0, 22, Parallelism::Threads(4));
        for _ in 0..3 {
            serial.run_round(40, None);
            parallel.run_round(40, None);
        }
        assert_eq!(serial.evaluate(), parallel.evaluate());
        assert_eq!(serial.global_train_loss(), parallel.global_train_loss());
        assert_eq!(serial.test_accuracy(), parallel.test_accuracy());
        assert_eq!(
            serial.global_train_accuracy(),
            parallel.global_train_accuracy()
        );
    }

    /// The byte-priced path must not perturb training by a single bit: the
    /// codecs are lossless and decode + re-rank reproduces every upload, so
    /// a wired and an un-wired run of the same seed walk the identical
    /// trajectory — only the cost signal (round_time, wire report) differs.
    #[test]
    fn wire_path_keeps_training_bit_identical() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 70 + which as u64;
            let mut plain = tiny_sim(make(), 5.0, seed);
            let mut wired = tiny_wire_sim(
                make(),
                seed,
                Parallelism::Auto,
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let k = plain.dim() / 6;
            for round in 0..3 {
                let probe = if round == 1 { Some(k / 2) } else { None };
                let rp = plain.run_round(k, probe);
                let rw = wired.run_round(k, probe);
                assert_eq!(rp.train_loss, rw.train_loss, "sparsifier {which}");
                assert_eq!(rp.contributions, rw.contributions, "sparsifier {which}");
                assert_eq!(rp.downlink_elements, rw.downlink_elements);
                let wire = rw.wire.expect("wire report present");
                assert_eq!(wire.uplink_bytes.len(), wired.num_clients());
                assert!(wire.downlink_bytes > 0);
                assert!(
                    rw.round_time > wired.config().wire.as_ref().unwrap().channel.compute_time()
                );
            }
            assert_eq!(
                plain.params(),
                wired.params(),
                "weights diverged for sparsifier {which}"
            );
        }
    }

    /// Acceptance invariant: byte-priced simulations stay serial-vs-parallel
    /// identical (full round reports, wire accounting included) across
    /// 1–8 workers.
    #[test]
    fn wire_serial_and_parallel_runs_are_identical() {
        for threads in [2usize, 3, 5, 8] {
            let mut serial = tiny_wire_sim(
                Box::new(FabTopK::new()),
                90,
                Parallelism::Serial,
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let mut parallel = tiny_wire_sim(
                Box::new(FabTopK::new()),
                90,
                Parallelism::Threads(threads),
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let k = serial.dim() / 6;
            for round in 0..3 {
                let probe = if round % 2 == 0 { Some(k / 2) } else { None };
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A straggler on a heterogeneous channel dominates the round time, and
    /// a bandwidth trace modulates it round by round.
    #[test]
    fn heterogeneous_channel_prices_the_straggler() {
        let mut fast = tiny_wire_sim(
            Box::new(FabTopK::new()),
            91,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| ChannelModel::uniform(n, 1.0, 10_000.0, 10_000.0, 0.0),
        );
        let mut straggler = tiny_wire_sim(
            Box::new(FabTopK::new()),
            91,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| {
                let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
                links[0] = ClientLink::new(100.0, 10_000.0, 0.0);
                ChannelModel::new(1.0, links)
            },
        );
        let k = fast.dim() / 6;
        let rf = fast.run_round(k, None);
        let rs = straggler.run_round(k, None);
        assert!(
            rs.round_time > rf.round_time * 2.0,
            "straggler {} vs uniform {}",
            rs.round_time,
            rf.round_time
        );
        // Same trajectory regardless of the channel: the channel only
        // prices rounds.
        assert_eq!(rf.train_loss, rs.train_loss);
        assert_eq!(fast.params(), straggler.params());
    }

    #[test]
    fn clean_wired_round_is_priced_by_the_channel_formula() {
        // The paper's synchronized price of a full clean cohort: compute,
        // plus the slowest upload, plus the broadcast to every link — on
        // heterogeneous links under a fluctuating trace, bit for bit.
        let channel = |n: usize| {
            let links = (0..n)
                .map(|i| {
                    ClientLink::new(
                        1_000.0 + 300.0 * i as f64,
                        2_500.0 - 100.0 * i as f64,
                        0.01 * i as f64,
                    )
                })
                .collect();
            let trace = vec![vec![1.0; n], (0..n).map(|i| 0.5 + 0.1 * i as f64).collect()];
            ChannelModel::new(1.0, links).with_trace(trace)
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let mut sim = tiny_wire_sim(
                Box::new(FabTopK::new()),
                93,
                parallelism,
                agsfl_wire::CodecSpec::Auto,
                channel,
            );
            let model = sim.config().wire.as_ref().expect("wired").channel.clone();
            for (round, report) in drive(&mut sim, 0, 4, 8).iter().enumerate() {
                let wire = report.wire.as_ref().expect("wire report");
                assert_eq!(wire.uplink_bytes.len(), model.num_clients());
                assert_eq!(
                    report.round_time.to_bits(),
                    model
                        .round_time(round, &wire.uplink_bytes, wire.downlink_bytes)
                        .to_bits(),
                    "round {round} under {parallelism:?}"
                );
            }
        }
    }

    #[test]
    fn bandwidth_trace_modulates_round_time() {
        let mut sim = tiny_wire_sim(
            Box::new(FabTopK::new()),
            92,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| {
                ChannelModel::uniform(n, 0.0, 1_000.0, 1_000.0, 0.0)
                    .with_trace(vec![vec![1.0; n], vec![0.25; n]])
            },
        );
        let k = sim.dim() / 8;
        let r0 = sim.run_round(k, None);
        let r1 = sim.run_round(k, None);
        // Round 1 runs at a quarter of the bandwidth: ~4x the comm time.
        assert!(
            r1.round_time > r0.round_time * 3.0,
            "trace did not slow round 1: {} vs {}",
            r1.round_time,
            r0.round_time
        );
    }

    #[test]
    fn periodic_sparsifier_runs() {
        let mut sim = tiny_sim(Box::new(PeriodicK::new()), 10.0, 5);
        let report = sim.run_round(sim.dim() / 10, None);
        assert_eq!(report.downlink_elements, sim.dim() / 10);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 1.0, 6);
        let _ = sim.run_round(0, None);
    }

    /// A fault model with every rate at zero must not perturb a single bit
    /// of the run — same reports (modulo the attached all-zero fault
    /// accounting), same weights — wired or not.
    #[test]
    fn zero_rate_fault_model_is_bit_identical_to_no_fault() {
        for wired in [false, true] {
            let mut plain = tiny_fault_sim(
                Box::new(FabTopK::new()),
                105,
                Parallelism::Auto,
                wired,
                None,
            );
            let mut faulted = tiny_fault_sim(
                Box::new(FabTopK::new()),
                105,
                Parallelism::Auto,
                wired,
                Some(FaultModel::default()),
            );
            let k = plain.dim() / 6;
            let n = plain.num_clients();
            for round in 0..4 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rp = plain.run_round(k, probe);
                let rf = faulted.run_round(k, probe);
                assert_eq!(
                    rf.fault.expect("fault accounting attached"),
                    FaultRoundReport {
                        survivors: n,
                        ..FaultRoundReport::default()
                    },
                    "wired={wired}, round={round}"
                );
                let stripped = RoundReport { fault: None, ..rf };
                assert_eq!(rp, stripped, "wired={wired}, round={round}");
            }
            assert_eq!(plain.params(), faulted.params(), "wired={wired}");
        }
    }

    /// Acceptance invariant: no fault configuration aborts a round. Chaos
    /// at high rates — dropouts, crashes, stragglers, corruption with
    /// retries, and a deadline all at once — still yields a completed run
    /// with coherent survivor accounting every round.
    #[test]
    fn faults_never_abort_a_round() {
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            106,
            Parallelism::Auto,
            true,
            Some(chaos_model(7)),
        );
        let n = sim.num_clients();
        let k = sim.dim() / 6;
        let mut lost_any = false;
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(k / 2);
            let report = sim.run_round(k, probe);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors + fault.lost(), n, "round {round}");
            assert_eq!(
                fault.corrupt_frames,
                fault.retries + fault.corrupt_lost,
                "round {round}: every corrupt frame is a retry or part of an exhausted client"
            );
            assert!(report.round_time.is_finite() && report.round_time > 0.0);
            assert_eq!(report.contributions.len(), n);
            lost_any |= fault.lost() > 0;
        }
        assert!(lost_any, "chaos rates should lose at least one upload");
    }

    /// Even a total blackout (every upload lost, zero survivors) completes
    /// rounds gracefully: empty aggregate, zero contributions, no panic.
    #[test]
    fn total_blackout_still_completes_rounds() {
        let model = FaultModel {
            drop_prob: 1.0,
            seed: 1,
            ..FaultModel::default()
        };
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            107,
            Parallelism::Auto,
            true,
            Some(model),
        );
        let before = sim.params().to_vec();
        for _ in 0..3 {
            let report = sim.run_round(sim.dim() / 6, None);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors, 0);
            assert_eq!(fault.dropped, sim.num_clients());
            assert!(report.contributions.iter().all(|&c| c == 0));
        }
        // Nothing was aggregated, so the weights never moved; the updates
        // wait in the residual accumulators.
        assert_eq!(sim.params(), &before[..]);
    }

    /// Fault injection preserves the serial-vs-parallel identity: the plan,
    /// drawn serially before the parallel client pass, decides every fault.
    #[test]
    fn faulty_serial_and_parallel_runs_are_identical() {
        for threads in [2usize, 4, 8] {
            let mut serial = tiny_fault_sim(
                Box::new(FabTopK::new()),
                108,
                Parallelism::Serial,
                true,
                Some(chaos_model(9)),
            );
            let mut parallel = tiny_fault_sim(
                Box::new(FabTopK::new()),
                108,
                Parallelism::Threads(threads),
                true,
                Some(chaos_model(9)),
            );
            let k = serial.dim() / 6;
            for round in 0..5 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A deadline drops the client whose uplink cannot finish in time, caps
    /// the uplink phase at the deadline, and leaves the fast clients'
    /// aggregation intact.
    #[test]
    fn deadline_drops_slow_clients_and_caps_the_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(160);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let n = fed.num_clients();
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
        links[0] = ClientLink::new(10.0, 10_000.0, 0.0); // crawling uplink
        let mut sim = Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed: 160,
                parallelism: Parallelism::Auto,
                wire: Some(WireConfig {
                    codec: agsfl_wire::CodecSpec::Auto,
                    channel: ChannelModel::new(1.0, links),
                }),
                fault: Some(FaultModel {
                    deadline: Some(5.0),
                    seed: 2,
                    ..FaultModel::default()
                }),
                cohort: None,
            },
        );
        let report = sim.run_round(sim.dim() / 6, None);
        let fault = report.fault.expect("fault accounting attached");
        assert_eq!(fault.deadline_dropped, 1);
        assert_eq!(fault.survivors, n - 1);
        assert_eq!(report.contributions[0], 0);
        // compute (1.0) + deadline (5.0) + a fast broadcast.
        assert!(
            report.round_time > 6.0 && report.round_time < 7.0,
            "phase not capped at the deadline: {}",
            report.round_time
        );
    }

    /// Stragglers slow the round they straggle in but never touch the
    /// training trajectory — the slowdown only scales link timing.
    #[test]
    fn stragglers_slow_the_round_but_not_training() {
        let mut clean = tiny_fault_sim(
            Box::new(FabTopK::new()),
            161,
            Parallelism::Auto,
            true,
            Some(FaultModel {
                seed: 3,
                ..FaultModel::default()
            }),
        );
        let mut straggly = tiny_fault_sim(
            Box::new(FabTopK::new()),
            161,
            Parallelism::Auto,
            true,
            Some(FaultModel {
                straggle_prob: 1.0,
                straggle_factor: 10.0,
                seed: 3,
                ..FaultModel::default()
            }),
        );
        let k = clean.dim() / 6;
        let n = clean.num_clients();
        for _ in 0..3 {
            let rc = clean.run_round(k, None);
            let rs = straggly.run_round(k, None);
            assert!(rs.round_time > rc.round_time);
            assert_eq!(rc.train_loss, rs.train_loss);
            assert_eq!(rs.fault.unwrap().stragglers, n);
        }
        assert_eq!(clean.params(), straggly.params());
    }

    /// Satellite 4, full grid: interrupt at the first round, mid-run, and
    /// last-but-one; resume from the saved bytes; the stitched run must be
    /// bit-identical to the uninterrupted one — for every sparsifier,
    /// serial and parallel, with chaos-level faults active.
    #[test]
    fn resume_is_bit_identical_for_every_sparsifier_and_interrupt() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 120 + which as u64;
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let fault = Some(chaos_model(seed));
                let mut reference = tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                let k = reference.dim() / 6;
                let full = drive(&mut reference, 0, 6, k);
                for interrupt in [1usize, 3, 5] {
                    let mut first = tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                    let before = drive(&mut first, 0, interrupt, k);
                    let bytes = first.save_state();
                    let mut resumed =
                        tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                    resumed.restore_state(&bytes).unwrap();
                    assert_eq!(resumed.round(), interrupt);
                    let after = drive(&mut resumed, interrupt, 6, k);
                    let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
                    assert_eq!(
                        full, stitched,
                        "sparsifier {which}, parallelism {parallelism:?}, interrupt {interrupt}"
                    );
                    assert_eq!(
                        reference.params(),
                        resumed.params(),
                        "sparsifier {which}, interrupt {interrupt}"
                    );
                }
            }
        }
    }

    /// Resume composes with the thread-count invariant: an interrupted run
    /// resumed under any worker count reproduces the serial uninterrupted
    /// run bit for bit.
    #[test]
    fn resume_matches_across_worker_counts() {
        let fault = Some(chaos_model(11));
        let mut reference = tiny_fault_sim(
            Box::new(FabTopK::new()),
            140,
            Parallelism::Serial,
            true,
            fault.clone(),
        );
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        for threads in [1usize, 2, 3, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut first = tiny_fault_sim(
                Box::new(FabTopK::new()),
                140,
                parallelism,
                true,
                fault.clone(),
            );
            let before = drive(&mut first, 0, 3, k);
            let bytes = first.save_state();
            let mut resumed = tiny_fault_sim(
                Box::new(FabTopK::new()),
                140,
                parallelism,
                true,
                fault.clone(),
            );
            resumed.restore_state(&bytes).unwrap();
            let after = drive(&mut resumed, 3, 6, k);
            let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
            assert_eq!(full, stitched, "threads={threads}");
            assert_eq!(reference.params(), resumed.params(), "threads={threads}");
        }
    }

    /// Save/resume also holds on the plain scalar-priced path with no fault
    /// model at all — checkpointing is independent of both subsystems.
    #[test]
    fn resume_without_wire_or_faults_is_bit_identical() {
        let mut reference = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        let mut first = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        let before = drive(&mut first, 0, 3, k);
        let bytes = first.save_state();
        let mut resumed = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        resumed.restore_state(&bytes).unwrap();
        let after = drive(&mut resumed, 3, 6, k);
        let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
        assert_eq!(full, stitched);
        assert_eq!(reference.params(), resumed.params());
    }

    /// Restore validates its input: fingerprint mismatches and truncations
    /// yield typed errors, never panics.
    #[test]
    fn restore_rejects_mismatched_or_corrupt_state() {
        let fault = Some(FaultModel::default());
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        let k = sim.dim() / 6;
        drive(&mut sim, 0, 2, k);
        let bytes = sim.save_state();

        let mut other_seed = tiny_fault_sim(
            Box::new(FabTopK::new()),
            151,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        assert!(matches!(
            other_seed.restore_state(&bytes),
            Err(CheckpointError::Mismatch { field: "seed" })
        ));
        let mut no_fault =
            tiny_fault_sim(Box::new(FabTopK::new()), 150, Parallelism::Auto, true, None);
        assert!(matches!(
            no_fault.restore_state(&bytes),
            Err(CheckpointError::Mismatch {
                field: "fault model"
            })
        ));
        let mut other_sparsifier = tiny_fault_sim(
            Box::new(FubTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        assert!(matches!(
            other_sparsifier.restore_state(&bytes),
            Err(CheckpointError::Mismatch {
                field: "sparsifier"
            })
        ));

        for cut in [0, 3, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let mut target = tiny_fault_sim(
                Box::new(FabTopK::new()),
                150,
                Parallelism::Auto,
                true,
                fault.clone(),
            );
            assert!(
                target.restore_state(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        let mut target = tiny_fault_sim(
            Box::new(FabTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault,
        );
        assert_eq!(
            target.restore_state(&extended),
            Err(CheckpointError::TrailingBytes)
        );
    }

    /// Misconfigured fault models are rejected before the run starts.
    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_fault_config_panics_at_construction() {
        let _ = tiny_fault_sim(
            Box::new(FabTopK::new()),
            155,
            Parallelism::Auto,
            false,
            Some(FaultModel {
                corrupt_prob: 0.5, // requires a wire configuration
                ..FaultModel::default()
            }),
        );
    }

    /// A tiny FAB-top-k simulation with cohort sampling enabled.
    fn tiny_cohort_sim(seed: u64, cohort: usize, parallelism: Parallelism) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire: None,
                fault: None,
                cohort: Some(cohort),
            },
        )
    }

    /// Partial participation basics: reports carry the sampled members in
    /// ascending order, contributions stay parallel to the cohort, every
    /// client is eventually drawn, and the persistent population grows only
    /// with touched clients.
    #[test]
    fn sampled_cohorts_report_members_and_grow_population_lazily() {
        let mut sim = tiny_cohort_sim(21, 3, Parallelism::Serial);
        let n = sim.num_clients();
        assert!(n > 3, "tiny dataset must be larger than the cohort");
        assert_eq!(sim.cohort_size(), 3);
        assert_eq!(sim.resident_clients(), 0);
        let mut seen = vec![false; n];
        for _ in 0..40 {
            let report = sim.run_round(8, None);
            assert_eq!(report.cohort.len(), 3);
            assert_eq!(report.contributions.len(), 3);
            assert!(report.cohort.windows(2).all(|w| w[0] < w[1]));
            assert!(report.cohort.iter().all(|&id| id < n));
            for &id in &report.cohort {
                seen[id] = true;
            }
            let touched = seen.iter().filter(|&&s| s).count();
            assert_eq!(sim.resident_clients(), touched);
        }
        assert!(seen.iter().all(|&s| s), "sampler starves some clients");
    }

    /// Cohort-sampled rounds are bit-identical for every worker count,
    /// probes included — parallelism stays a pure wall-clock knob under
    /// partial participation.
    #[test]
    fn sampled_cohort_runs_are_identical_across_worker_counts() {
        let mut serial = tiny_cohort_sim(27, 3, Parallelism::Serial);
        let mut runs: Vec<Simulation> = [2, 4, 8]
            .iter()
            .map(|&t| tiny_cohort_sim(27, 3, Parallelism::Threads(t)))
            .collect();
        for round in 0..6 {
            let probe = (round % 2 == 0).then_some(4);
            let reference = serial.run_round(8, probe);
            for sim in &mut runs {
                assert_eq!(sim.run_round(8, probe), reference, "round {round}");
            }
        }
        for sim in &runs {
            assert_eq!(sim.params(), serial.params());
        }
    }

    /// Wired, fault-injected cohort rounds keep the same determinism
    /// contract: byte pricing, retries, and outages are all decided by the
    /// serially drawn plan, never the worker schedule.
    #[test]
    fn wired_fault_cohort_runs_are_identical_across_worker_counts() {
        let build = |parallelism| {
            let mut rng = ChaCha8Rng::seed_from_u64(29);
            let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
            let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
            let channel = uniform_channel(fed.num_clients());
            Simulation::new(
                Box::new(model),
                fed,
                Box::new(FubTopK::new()),
                SimulationConfig {
                    learning_rate: 0.05,
                    batch_size: 8,
                    time_model: TimeModel::normalized(5.0),
                    seed: 29,
                    parallelism,
                    wire: Some(WireConfig {
                        codec: agsfl_wire::CodecSpec::Auto,
                        channel,
                    }),
                    fault: Some(chaos_model(29)),
                    cohort: Some(3),
                },
            )
        };
        let mut serial = build(Parallelism::Serial);
        let mut parallel = build(Parallelism::Threads(4));
        for round in 0..8 {
            let rs = serial.run_round(8, None);
            let rp = parallel.run_round(8, None);
            assert_eq!(rs, rp, "round {round}");
        }
        assert_eq!(serial.params(), parallel.params());
    }

    /// Checkpoint/resume under cohort sampling is bit-identical to the
    /// uninterrupted run at every interrupt point — the snapshot carries
    /// the cohort stream and exactly the resident population rows.
    #[test]
    fn sampled_cohort_resume_is_bit_identical() {
        let mut reference = tiny_cohort_sim(33, 3, Parallelism::Auto);
        let mut reports = Vec::new();
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(4);
            reports.push(reference.run_round(8, probe));
        }
        for interrupt in [0usize, 1, 3, 7] {
            let mut sim = tiny_cohort_sim(33, 3, Parallelism::Auto);
            for round in 0..interrupt {
                let probe = (round % 2 == 0).then_some(4);
                sim.run_round(8, probe);
            }
            let bytes = sim.save_state();
            let mut resumed = tiny_cohort_sim(33, 3, Parallelism::Serial);
            resumed.restore_state(&bytes).unwrap();
            for (round, report) in reports.iter().enumerate().skip(interrupt) {
                let probe = (round % 2 == 0).then_some(4);
                assert_eq!(
                    &resumed.run_round(8, probe),
                    report,
                    "interrupt {interrupt}, round {round}"
                );
            }
            assert_eq!(
                resumed.params(),
                reference.params(),
                "interrupt {interrupt}"
            );
        }
    }

    /// The v2 format explicitly rejects v1 blobs (the dense per-client
    /// layout cannot be reinterpreted as population rows) and a snapshot
    /// from a different cohort size fails the fingerprint.
    #[test]
    fn restore_rejects_v1_blobs_and_cohort_mismatch() {
        let mut w = SnapshotWriter::new();
        w.header(SIM_MAGIC, 1);
        let v1 = w.into_bytes();
        let mut target = tiny_cohort_sim(40, 3, Parallelism::Serial);
        assert_eq!(
            target.restore_state(&v1),
            Err(CheckpointError::UnsupportedVersion(1))
        );

        let mut donor = tiny_cohort_sim(41, 3, Parallelism::Serial);
        donor.run_round(8, None);
        let bytes = donor.save_state();
        let mut other = tiny_cohort_sim(41, 4, Parallelism::Serial);
        assert_eq!(
            other.restore_state(&bytes),
            Err(CheckpointError::Mismatch {
                field: "cohort size"
            })
        );
    }

    /// A lazy [`ShardSource`] behind `with_source` is indistinguishable
    /// from an eager dataset holding the same bytes: identical round
    /// reports, identical weights, and the streamed evaluation sweeps are
    /// bit-identical to the eager parallel ones.
    #[test]
    fn lazy_source_matches_eager_dataset_with_same_shards() {
        use agsfl_ml::data::LazySyntheticFemnist;

        let cfg = SyntheticFemnistConfig::tiny();
        let src = LazySyntheticFemnist::new(cfg, 5);
        let n = ShardSource::num_clients(&src);
        let mut shards = Vec::new();
        for i in 0..n {
            let mut shard = ClientShard::empty(cfg.feature_dim);
            src.materialize_into(i, &mut shard);
            shards.push(shard);
        }
        let fed = FederatedDataset::new(shards, src.test().clone(), cfg.num_classes);
        let config = SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(5.0),
            seed: 5,
            parallelism: Parallelism::Auto,
            wire: None,
            fault: None,
            cohort: Some(4),
        };
        let mut lazy = Simulation::with_source(
            Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
            Box::new(src),
            Box::new(FabTopK::new()),
            config.clone(),
        );
        let mut eager = Simulation::new(
            Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
            fed,
            Box::new(FabTopK::new()),
            config,
        );
        for round in 0..5 {
            let probe = (round % 2 == 0).then_some(4);
            assert_eq!(
                lazy.run_round(8, probe),
                eager.run_round(8, probe),
                "round {round}"
            );
        }
        assert_eq!(lazy.params(), eager.params());
        assert_eq!(
            lazy.global_train_loss().to_bits(),
            eager.global_train_loss().to_bits()
        );
        assert_eq!(
            lazy.global_train_accuracy().to_bits(),
            eager.global_train_accuracy().to_bits()
        );
        assert_eq!(
            lazy.test_accuracy().to_bits(),
            eager.test_accuracy().to_bits()
        );
        let (le, ee) = (lazy.evaluate(), eager.evaluate());
        assert_eq!(le.train_loss.to_bits(), ee.train_loss.to_bits());
        assert_eq!(le.train_accuracy.to_bits(), ee.train_accuracy.to_bits());
        assert_eq!(le.test_accuracy.to_bits(), ee.test_accuracy.to_bits());
    }

    /// A [`ShardSource`] wrapper counting `materialize_into` calls per
    /// client id. The counters are shared with the test through an `Arc`,
    /// so each instance counts only its own simulation's calls.
    #[derive(Debug)]
    struct CountingSource {
        inner: agsfl_ml::data::LazySyntheticFemnist,
        calls: Arc<Vec<AtomicUsize>>,
    }

    impl ShardSource for CountingSource {
        fn num_clients(&self) -> usize {
            self.inner.num_clients()
        }
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }
        fn feature_dim(&self) -> usize {
            self.inner.feature_dim()
        }
        fn shard_len(&self, client: usize) -> usize {
            self.inner.shard_len(client)
        }
        fn test(&self) -> &ClientShard {
            self.inner.test()
        }
        fn materialize_into(&self, client: usize, out: &mut ClientShard) {
            self.calls[client].fetch_add(1, Ordering::Relaxed);
            self.inner.materialize_into(client, out);
        }
    }

    /// A simulation over a counting lazy source, plus a reader for its
    /// per-client materialization counts.
    fn counting_sim(
        cohort: Option<usize>,
        fault: Option<FaultModel>,
        parallelism: Parallelism,
    ) -> (Simulation, impl Fn() -> Vec<usize>) {
        let cfg = SyntheticFemnistConfig::tiny();
        let inner = agsfl_ml::data::LazySyntheticFemnist::new(cfg, 11);
        let calls: Arc<Vec<AtomicUsize>> =
            Arc::new((0..cfg.num_clients).map(|_| AtomicUsize::new(0)).collect());
        let counts = {
            let calls = Arc::clone(&calls);
            move || calls.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let sim = Simulation::with_source(
            Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
            Box::new(CountingSource { inner, calls }),
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed: 11,
                parallelism,
                wire: None,
                fault,
                cohort,
            },
        );
        (sim, counts)
    }

    /// The one-shard slot cache (`Slot::shard_of`) materializes a
    /// full-population cohort's shards exactly once over many rounds: every
    /// member stays in its slot.
    #[test]
    fn full_cohort_materializes_each_shard_once() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let (mut sim, counts) = counting_sim(None, None, parallelism);
            for round in 0..5 {
                sim.run_round(8, (round % 2 == 0).then_some(4));
            }
            assert_eq!(counts(), vec![1; sim.num_clients()], "{parallelism:?}");
        }
    }

    /// A sampled cohort materializes a shard exactly when a slot's member
    /// changes (slot `pos` holds cohort member `pos`), never otherwise.
    #[test]
    fn sampled_cohort_materializes_exactly_when_a_slot_changes() {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let (mut sim, counts) = counting_sim(Some(3), None, parallelism);
            let mut expected = vec![0usize; sim.num_clients()];
            let mut held: Vec<Option<usize>> = vec![None; 3];
            let mut reuses = 0;
            for round in 0..12 {
                let report = sim.run_round(8, (round % 2 == 0).then_some(4));
                for (pos, &id) in report.cohort.iter().enumerate() {
                    if held[pos] == Some(id) {
                        reuses += 1;
                    } else {
                        expected[id] += 1;
                        held[pos] = Some(id);
                    }
                }
                assert_eq!(counts(), expected, "{parallelism:?}, round {round}");
            }
            assert!(reuses > 0, "no slot kept its member; the cache is untested");
        }
    }

    /// Offline members are materialized too: the probe sweep evaluates
    /// every hydrated member's stale probe sample on its shard, offline or
    /// not.
    #[test]
    fn offline_members_are_still_materialized() {
        let crashes = FaultModel {
            crash_prob: 0.5,
            outage_rounds: (2, 3),
            seed: 3,
            ..FaultModel::default()
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let (mut sim, counts) = counting_sim(None, Some(crashes.clone()), parallelism);
            let report = sim.run_round(8, Some(4));
            let offline = report.fault.as_ref().map_or(0, |f| f.offline);
            assert!(offline > 0, "the fault model must take members offline");
            assert_eq!(counts(), vec![1; sim.num_clients()], "{parallelism:?}");
            for round in 1..5 {
                sim.run_round(8, (round % 2 == 0).then_some(4));
            }
            assert_eq!(counts(), vec![1; sim.num_clients()], "{parallelism:?}");
        }
    }
}
