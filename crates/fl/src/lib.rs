//! Federated-learning simulator with sparse gradient aggregation.
//!
//! This crate drives Algorithm 1 of the paper: in every round `m` each client
//! adds its freshly computed local mini-batch gradient to its residual
//! accumulator, uploads a sparse message, the server selects and aggregates
//! `k` elements, broadcasts them, and every client applies the identical
//! sparse SGD step `w(m) = w(m-1) - η ∇_s L(w(m-1))`. Because all clients
//! apply the same update, the weight vector stays synchronized and the
//! simulator keeps a single copy of it.
//!
//! Time is *normalized* exactly as in the paper's evaluation (Section V): the
//! computation of one round (all clients in parallel) costs 1, and the
//! communication time is given for a full `D`-element exchange and scaled by
//! the number of scalars actually transmitted. See [`TimeModel`].
//!
//! The crate also contains the paper's baselines that are not plain
//! sparsifiers: [`FedAvgSimulation`] (send-all-or-nothing local SGD with
//! periodic weight averaging at equal average communication overhead).
//!
//! # Byte-priced exchange
//!
//! Alongside the scalar proxy, [`SimulationConfig::wire`] switches a run
//! onto the **byte-accurate** cost path: every uplink/downlink message is
//! encoded through an `agsfl_wire` codec, the server decodes the frames
//! before aggregation, and the round time comes from a per-client
//! [`ChannelModel`] (heterogeneous bandwidths, latency, optional per-round
//! bandwidth trace; round time = slowest upload + broadcast downlink). The
//! codecs are lossless and the top-k rank order is a total order of the
//! values, so the training trajectory is bit-identical to the un-wired run
//! — only the cost signal the adaptive-`k` controllers observe changes,
//! which is exactly the drop-in additive-cost swap the paper's online
//! formulation permits.
//!
//! # Sampled cohorts and million-client populations
//!
//! Per-client *persistent* state (residual accumulator, RNG stream,
//! sampler cursor) lives in a struct-of-arrays `ClientPopulation` holding
//! rows only for clients that have participated, and each round hydrates
//! the participating clients into a reusable arena of cohort slots.
//! [`SimulationConfig::cohort`] samples that many clients per round
//! (without replacement, from a dedicated seeded stream, drawn serially
//! before the parallel pass); `None` runs everyone and is bit-identical
//! to a full-population cohort. Combined with a lazy
//! [`agsfl_ml::data::ShardSource`] (see [`Simulation::with_source`]),
//! server memory is `O(cohort · k + touched_clients · D)` — independent
//! of the population size, so a million-client round runs in the same
//! resident set as a thousand-client one.
//!
//! # The parallel round engine
//!
//! Each round runs its parallel regions through one reusable
//! [`Executor`] (configured by [`SimulationConfig::parallelism`]): a fused
//! per-client pass that computes the local gradient and builds the uplink
//! message while the residual is hot in cache, and — on probe rounds — a
//! per-client probe-loss sweep that evaluates all three weight vectors in
//! a single sample fetch. Server selection
//! ([`agsfl_sparse::Sparsifier::select_into`]) runs serially on the round
//! thread between them. Parallelism is purely a wall-clock knob: every
//! client owns its RNG and sampler and results are consumed in client
//! order, so identical seeds give identical runs for every thread count. `crates/fl`'s
//! `simulation::tests::serial_and_parallel_runs_are_identical` pins this
//! end to end.
//!
//! # Checkpoints
//!
//! [`Simulation::save_state`] and [`Simulation::restore_state`] write and
//! validate the simulation's checkpoint blob through the snapshot codec of
//! `agsfl-wire`; its error type is re-exported here as [`CheckpointError`].
//! The run-level file that nests this blob next to the controller state is
//! written by `agsfl-core`.
//!
//! # Example
//!
//! ```
//! use agsfl_fl::{Simulation, SimulationConfig, TimeModel};
//! use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
//! use agsfl_ml::model::LinearSoftmax;
//! use agsfl_sparse::FabTopK;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
//! let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
//! let config = SimulationConfig {
//!     learning_rate: 0.05,
//!     batch_size: 8,
//!     time_model: TimeModel::new(1.0, 10.0),
//!     seed: 7,
//!     ..SimulationConfig::default()
//! };
//! let mut sim = Simulation::new(Box::new(model), fed, Box::new(FabTopK::new()), config);
//! let report = sim.run_round(16, None);
//! assert!(report.train_loss > 0.0);
//! assert!(report.round_time > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod client;
mod fault;
mod fedavg;
mod history;
mod population;
mod round;
mod simulation;
mod time;

pub use agsfl_exec::{Executor, Parallelism};
pub use agsfl_telemetry::{CounterId, GaugeId, NoopRecorder, Recorder, SpanId, StageRecorder};
pub use agsfl_wire::CheckpointError;
pub use channel::{ChannelModel, ClientLink};
pub use client::Client;
pub use fault::{FaultConfigError, FaultModel, FaultRoundReport, MAX_RETRY_LIMIT};
pub use fedavg::{FedAvgConfig, FedAvgSimulation};
pub use history::{FaultTotals, MetricPoint, RunHistory};
pub use round::{ProbeReport, RoundReport, WireRoundReport};
pub use simulation::{record_round_report, Simulation, SimulationConfig, WireConfig};
pub use time::TimeModel;
