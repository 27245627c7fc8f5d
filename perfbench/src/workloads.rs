//! The three workloads and one closed-loop trial of each.
//!
//! A trial builds the workload from scratch (that is the set-up time), runs
//! a fixed number of rounds, and returns the wall time of every round, the
//! trajectory digest and the live engine for replays. Trials are fixed in
//! length so that every trial of one seed must end in the same digest and
//! the same final loss; a run repeats trials until its time is used.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

use agsfl_core::{
    ChannelSpec, CheckpointSpec, CodecSpec, ControllerSpec, DatasetSpec, Experiment,
    ExperimentConfig, FaultModel, Histogram, ModelSpec, SparsifierSpec, StageRecorder,
    StopCondition, TelemetrySpec, WireSpec,
};
use agsfl_exec::metrics::PoolMetricsSnapshot;
use agsfl_exec::{Executor, Parallelism};
use agsfl_fl::{Simulation, SimulationConfig, TimeModel};
use agsfl_ml::data::{LazySyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::LinearSoftmax;
use agsfl_online::{KController, PrecisionController, RoundFeedback, StateError};
use agsfl_sparse::FabTopK;
use agsfl_wire::Precision;

use crate::stats::Digest;

/// The benchmark's workloads. Why each exists, and which layer it loads or
/// bypasses, is recorded in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's reference round: `SimpleCnn` at D = 419,582, FAB,
    /// Algorithm 3, `CodecSpec::Auto` on a uniform channel, no faults.
    PaperCnn,
    /// A 10⁶-client lazy population with cohort 256 and a tiny linear
    /// model at fixed k: the round is shard hydration.
    MillionCohort,
    /// A linear model at D = 418,624 with the precision controller, a
    /// heterogeneous channel, every fault class and periodic checkpoints.
    LossyFaults,
}

/// `paper_cnn`'s `SimpleCnn`: 1×28×28 inputs, 40 filters (D = 419,582 at
/// 62 classes).
const PAPER_CNN_SHAPE: (usize, usize, usize, usize) = (1, 28, 28, 40);

/// Label under which the `Experiment` workloads run.
const LABEL: &str = "perfbench";

/// The uplink codec the wired workloads configure; on `lossy_faults` the
/// pinned precision tier overrides it.
pub const CODEC: CodecSpec = CodecSpec::Auto;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::PaperCnn, Self::MillionCohort, Self::LossyFaults];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperCnn => "paper_cnn",
            Self::MillionCohort => "million_cohort",
            Self::LossyFaults => "lossy_faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds in one trial: the pinned schedules' length on the
    /// `Experiment` workloads, and on `million_cohort` enough rounds to
    /// reach ~50k resident clients, where peak RSS reads the population
    /// layer. `paper_cnn`'s eight rounds put five of eight at k ≥ 187k, so
    /// the median round lies inside that group rather than on its edge.
    pub fn trial_rounds(self) -> usize {
        match self {
            Self::PaperCnn => 8,
            Self::MillionCohort => 200,
            Self::LossyFaults => 10,
        }
    }

    /// Nominal wall time of one trial, set-up included, on the reference
    /// machine (2-core Xeon, `Threads(2)`); it converts `--seconds` into a
    /// trial count.
    pub fn trial_seconds(self) -> f64 {
        match self {
            Self::PaperCnn => 10.5,
            Self::MillionCohort => 6.0,
            Self::LossyFaults => 9.0,
        }
    }

    /// How many sub-seeds a run cycles its trials through. Faults, channel
    /// spread and data differ between seeds, so a run that averages over
    /// several is steadier than one that repeats a single seed; repeats of
    /// a sub-seed check that its digest does not change.
    pub fn subseeds(self) -> usize {
        match self {
            Self::PaperCnn | Self::MillionCohort => 2,
            Self::LossyFaults => 4,
        }
    }

    /// Rounds replayed at `Serial` and at the threaded setting by a traced
    /// run, for the parallel speed-up and the serial digest check.
    pub fn replay_rounds(self) -> usize {
        match self {
            Self::PaperCnn => 3,
            Self::MillionCohort => 40,
            Self::LossyFaults => 4,
        }
    }

    /// The pinned schedule of the `Experiment` workloads: the controller's
    /// own proposals (`k`, probe `k` and, on `lossy_faults`, the precision
    /// tier) over this workload's first rounds on reference seed 1.
    /// Algorithm 3's early trajectory is chaotic in the seed — over five
    /// seeds, between 30 % and 70 % of `paper_cnn`'s first ten rounds ran
    /// at k ≈ D/2, and a round there costs ten times one at k_min — and the
    /// precision controller's pick follows the noisy round times of its
    /// exploration rounds, so with live proposals the round time measures
    /// the seed, not the code. Pinning keeps Algorithm 3's swings (k_min to
    /// D/2) and all four tiers in every run, while the data, the initial
    /// model, the channel, the faults and every random stream still come
    /// from `--seed`.
    fn schedule(self) -> &'static [Pinned] {
        match self {
            Self::PaperCnn => &PAPER_CNN_SCHEDULE,
            Self::LossyFaults => &LOSSY_FAULTS_SCHEDULE,
            Self::MillionCohort => &[],
        }
    }

    /// Per-client mini-batch size.
    pub fn batch_size(self) -> usize {
        match self {
            Self::PaperCnn => 32,
            Self::MillionCohort | Self::LossyFaults => 8,
        }
    }

    /// Client learning rate. The `Experiment` workloads use small rates so
    /// the loss descends smoothly over the ten pinned rounds instead of
    /// spiking after the k ≈ D/2 rounds.
    fn learning_rate(self) -> f32 {
        match self {
            Self::PaperCnn => 0.003,
            Self::MillionCohort => 0.05,
            Self::LossyFaults => 0.002,
        }
    }

    /// `(channels, height, width, filters)` when the model is the CNN.
    pub fn cnn_shape(self) -> Option<(usize, usize, usize, usize)> {
        (self == Self::PaperCnn).then_some(PAPER_CNN_SHAPE)
    }

    /// The `Experiment` configuration, for the two `Experiment` workloads.
    fn experiment_config(self, seed: u64, parallelism: Parallelism) -> ExperimentConfig {
        // Bandwidths in bytes per normalized time unit: a dense lossless
        // upload of D = 419,582 costs ~10 units against a compute time of
        // 1, the communication-heavy regime where Algorithm 3 moves k.
        let channel = ChannelSpec::uniform(200_000.0, 800_000.0, 0.05);
        let femnist = |num_clients, samples_per_client, feature_dim| {
            DatasetSpec::Femnist(SyntheticFemnistConfig {
                num_clients,
                samples_per_client,
                feature_dim,
                num_classes: 62,
                classes_per_client: 12,
                writer_shift_std: 0.4,
                noise_std: 0.3,
                test_samples: 512,
            })
        };
        let builder = ExperimentConfig::builder()
            .sparsifier(SparsifierSpec::FabTopK)
            .learning_rate(self.learning_rate())
            .batch_size(self.batch_size())
            .eval_every(5)
            .seed(seed)
            .parallelism(parallelism);
        match self {
            Self::PaperCnn => builder
                .dataset(femnist(16, 64, 784))
                .model({
                    let (channels, height, width, filters) = PAPER_CNN_SHAPE;
                    ModelSpec::Cnn {
                        channels,
                        height,
                        width,
                        filters,
                    }
                })
                .wire(WireSpec {
                    codec: CODEC,
                    channel,
                })
                .build(),
            Self::LossyFaults => builder
                .dataset(femnist(16, 32, 6_751))
                .model(ModelSpec::Linear)
                .wire(WireSpec {
                    codec: CODEC,
                    channel: channel.with_spread(4.0),
                })
                .fault(FaultModel {
                    drop_prob: 0.1,
                    crash_prob: 0.02,
                    outage_rounds: (1, 3),
                    straggle_prob: 0.1,
                    straggle_factor: 4.0,
                    deadline: Some(40.0),
                    corrupt_prob: 0.05,
                    max_retries: 2,
                    retry_backoff: 0.05,
                    seed: seed ^ 0xFA17,
                })
                .build(),
            Self::MillionCohort => unreachable!("million_cohort drives a Simulation directly"),
        }
    }

    /// The `million_cohort` simulation: N = 10⁶ lazily materialized
    /// clients, cohort 256, `LinearSoftmax` 32 → 16, no probe and no wire.
    fn million_simulation(seed: u64, parallelism: Parallelism) -> Simulation {
        let source = LazySyntheticFemnist::new(
            SyntheticFemnistConfig {
                num_clients: 1_000_000,
                samples_per_client: 64,
                feature_dim: 32,
                num_classes: 16,
                classes_per_client: 8,
                writer_shift_std: 0.5,
                noise_std: 0.5,
                test_samples: 128,
            },
            seed,
        );
        Simulation::with_source(
            Box::new(LinearSoftmax::new(32, 16)),
            Box::new(source),
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: Self::MillionCohort.batch_size(),
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire: None,
                fault: None,
                cohort: Some(256),
            },
        )
    }
}

/// One round of a pinned schedule: what the real controller proposed for
/// that round on the reference seed.
#[derive(Debug, Clone, Copy)]
struct Pinned {
    k: f64,
    probe_k: f64,
    precision: Option<Precision>,
}

const fn pin(k: f64, probe_k: f64) -> Pinned {
    Pinned {
        k,
        probe_k,
        precision: None,
    }
}

const fn pin_tier(k: f64, probe_k: f64, tier: Precision) -> Pinned {
    Pinned {
        k,
        probe_k,
        precision: Some(tier),
    }
}

/// See [`Workload::schedule`].
const PAPER_CNN_SCHEDULE: [Pinned; 8] = [
    pin(209791.0, 61743.05054555682),
    pin(839.164, 1.0),
    pin(210210.582, 124735.05852950511),
    pin(39259.53505901023, 1.0),
    pin(39259.53505901023, 1.0),
    pin(187307.4845134534, 121098.42873153584),
    pin(319725.59607728856, 259285.27380583173),
    pin(198844.9515343749, 142888.0863387296),
];

/// See [`Workload::schedule`]. The tiers are the `PrecisionController`'s:
/// one exploration round per tier, then its pick.
const LOSSY_FAULTS_SCHEDULE: [Pinned; 10] = {
    use Precision::{Sign, F16, F32, Q8};
    [
        pin_tier(209312.0, 61602.07728544882, F32),
        pin_tier(837.248, 1.0, F16),
        pin_tier(209730.62399999998, 124450.26035877502, Q8),
        pin_tier(39169.89671755006, 1.0, Sign),
        pin_tier(39169.89671755006, 1.0, Q8),
        pin_tier(39169.89671755006, 1.0, Q8),
        pin_tier(39169.89671755006, 1.0, Q8),
        pin_tier(186879.81943210124, 120821.9338039059, Q8),
        pin_tier(54764.048175710544, 1.0, Q8),
        pin_tier(175368.69504124025, 119539.59194420122, F32),
    ]
};

/// The seed of sub-seed `index` of a run's `seed`; sub-seed 0 is the
/// run's seed itself.
pub fn trial_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64) << 32)
}

/// `million_cohort`'s fixed sparsity degree.
const MILLION_K: usize = 32;

/// Submits one parallel region of no-op tasks (one per worker, at least the
/// executor's serial-fallback threshold) — starts the pool on first use and
/// times pure dispatch afterwards.
pub fn empty_region(exec: &Executor) {
    let mut items = vec![(); exec.min_items().max(exec.threads())];
    exec.map_mut(&mut items, |_| ());
}

/// What a traced trial recorded.
#[derive(Debug)]
pub struct TraceData {
    /// The round engine's span/counter ledger.
    pub recorder: StageRecorder,
    /// Pool dispatch latency (submit → dequeue), in ns.
    pub dispatch: Histogram,
    /// Cumulative pool counters at the end of the trial.
    pub pool: Option<PoolMetricsSnapshot>,
}

/// The engine a trial drove, kept alive for the traced run's replays.
pub enum Engine {
    /// The `Experiment` workloads.
    Experiment(Box<Experiment>),
    /// `million_cohort`.
    Simulation(Box<Simulation>),
}

impl Engine {
    /// The live simulation.
    pub fn sim(&self) -> &Simulation {
        match self {
            Self::Experiment(exp) => exp.simulation(),
            Self::Simulation(sim) => sim,
        }
    }
}

/// One trial's measurements and outputs.
pub struct Trial {
    /// Construction time: data generation, model init, engine build and
    /// pool start.
    pub setup_s: f64,
    /// Wall time of each round: one `propose_k` to the next (the last round
    /// ends when the run returns).
    pub round_ms: Vec<f64>,
    /// `propose_k` → `observe` of each round.
    pub engine_ms: Vec<f64>,
    /// `observe` → next `propose_k` of each round.
    pub tail_ms: Vec<f64>,
    /// Time spent inside the controller's calls.
    pub controller_ns: u64,
    /// `k` used by each round.
    pub ks: Vec<usize>,
    /// Precision tier each round ran, where the controller set one.
    pub precisions: Vec<Option<Precision>>,
    /// Wall time of the round loop.
    pub loop_s: f64,
    /// Client training samples processed (cohort × batch × rounds).
    pub samples: u64,
    /// Global loss at the final evaluation (`Experiment` workloads) or the
    /// mean cohort training loss over the last quarter of the rounds
    /// (`million_cohort`).
    pub final_loss: f64,
    /// Bytes exchanged over the trial: encoded uplink + downlink bytes when
    /// a wire is configured, otherwise 4 B per scalar exchanged.
    pub comm_bytes: u64,
    /// Uploads lost to faults, and uploads attempted.
    pub lost_uploads: (u64, u64),
    /// Bytes spent on fault retransmissions.
    pub retransmit_bytes: u64,
    /// FNV-1a over per-round `k_used`, training-loss bits and bytes (the
    /// channel-priced round time where a wire prices the bytes) plus the
    /// run's byte and fault totals and the final parameter bits.
    pub digest: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// The trace, when the trial ran traced.
    pub trace: Option<TraceData>,
    /// Cohort of the last round.
    pub last_cohort: Vec<usize>,
    /// The engine, for replays; taken (and dropped) by runs that need no
    /// replay so that one trial's memory is free before the next.
    pub engine: Option<Engine>,
}

impl Trial {
    /// Rounds run.
    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }
}

/// Builds the workload as a trial would — data, model, engine, pool start —
/// and drops it, returning the build time in seconds.
pub fn setup_only(workload: Workload, seed: u64, parallelism: Parallelism) -> f64 {
    let t0 = Instant::now();
    match workload {
        Workload::MillionCohort => {
            let sim = Workload::million_simulation(seed, parallelism);
            empty_region(sim.executor());
        }
        _ => {
            let exp = Experiment::new(&workload.experiment_config(seed, parallelism));
            empty_region(exp.simulation().executor());
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Runs one trial of `workload`. A traced trial records the full telemetry
/// set and writes its JSONL stream under `scratch_dir`; checkpoints (on
/// `lossy_faults`) are written there too.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    parallelism: Parallelism,
    rounds: usize,
    traced: bool,
    scratch_dir: &Path,
) -> Trial {
    match workload {
        Workload::MillionCohort => run_simulation_trial(seed, parallelism, rounds, traced),
        _ => run_experiment_trial(workload, seed, parallelism, rounds, traced, scratch_dir),
    }
}

fn run_experiment_trial(
    workload: Workload,
    seed: u64,
    parallelism: Parallelism,
    rounds: usize,
    traced: bool,
    scratch_dir: &Path,
) -> Trial {
    let t0 = Instant::now();
    let mut exp = Experiment::new(&workload.experiment_config(seed, parallelism));
    empty_region(exp.simulation().executor());
    let setup_s = t0.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if traced {
        let jsonl = scratch_dir.join(format!("{}-metrics.jsonl", workload.name()));
        let spec = TelemetrySpec::full(jsonl).with_timings();
        if let Err(e) = exp.set_telemetry(spec) {
            problems.push(format!("telemetry sink: {e}"));
        }
    }

    let dim = exp.dim();
    let algorithm3 = ControllerSpec::Algorithm3.build(dim, seed);
    let controller: Box<dyn KController> = match workload {
        Workload::LossyFaults => Box::new(PrecisionController::new(algorithm3)),
        _ => algorithm3,
    };
    let mut timed = TimedController::new(controller, workload.schedule());
    let stop = StopCondition::after_rounds(rounds);
    let start = Instant::now();
    let history = match workload {
        Workload::LossyFaults => {
            let path = scratch_dir.join(format!("{}-{seed}.agck", workload.name()));
            let spec = CheckpointSpec::new(path, 5);
            exp.run_with_controller_checkpointed(&mut timed, &stop, LABEL, &spec)
                .unwrap_or_else(|e| {
                    problems.push(format!("checkpointed run failed: {e}"));
                    agsfl_fl::RunHistory::new(LABEL, 0)
                })
        }
        _ => exp.run_with_controller(&mut timed, &stop, LABEL),
    };
    let end = Instant::now();
    let loop_s = end.duration_since(start).as_secs_f64();

    let points = history.points();
    if points.len() != rounds || timed.feedback.len() != rounds {
        problems.push(format!(
            "ran {} rounds ({} observed), expected {rounds}",
            points.len(),
            timed.feedback.len()
        ));
    }
    if let Some(p) = points.iter().find(|p| !p.train_loss.is_finite()) {
        problems.push(format!("non-finite training loss in round {}", p.round));
    }
    let final_loss = history.final_global_loss().unwrap_or(f64::NAN);
    if !final_loss.is_finite() {
        problems.push(format!("final global loss {final_loss}"));
    }

    let (up, down) = history.wire_bytes();
    let faults = history.fault_totals();
    let mut digest = Digest::default();
    for (point, &(k, round_time)) in points.iter().zip(&timed.feedback) {
        digest.word(k as u64);
        digest.word(point.train_loss.to_bits());
        digest.word(round_time.to_bits());
    }
    for w in [
        up,
        down,
        faults.lost(),
        faults.retries,
        faults.retransmitted_bytes,
    ] {
        digest.word(w);
    }
    digest.params(exp.simulation().params());

    let trace = traced.then(|| {
        let pool = exp.simulation().executor().pool_metrics();
        let state = exp
            .take_telemetry()
            .expect("telemetry was installed for a traced trial");
        TraceData {
            recorder: state.recorder().clone(),
            dispatch: state.dispatch_histogram().clone(),
            pool,
        }
    });

    let timing = timed.timings(end);
    let clients = exp.num_clients();
    Trial {
        setup_s,
        round_ms: timing.round_ms,
        engine_ms: timing.engine_ms,
        tail_ms: timing.tail_ms,
        controller_ns: timed.inside_ns.get(),
        ks: timed.feedback.iter().map(|&(k, _)| k).collect(),
        precisions: timed.precisions.take(),
        loop_s,
        samples: (clients * workload.batch_size() * rounds) as u64,
        final_loss,
        comm_bytes: up + down,
        lost_uploads: (faults.lost(), (clients * points.len()) as u64),
        retransmit_bytes: faults.retransmitted_bytes,
        digest: digest.value(),
        problems,
        trace,
        last_cohort: (0..clients).collect(),
        engine: Some(Engine::Experiment(Box::new(exp))),
    }
}

fn run_simulation_trial(seed: u64, parallelism: Parallelism, rounds: usize, traced: bool) -> Trial {
    let t0 = Instant::now();
    let mut sim = Workload::million_simulation(seed, parallelism);
    empty_region(sim.executor());
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rec = StageRecorder::new();
    let mut dispatch = Histogram::new();
    if traced {
        sim.executor().set_metrics_enabled(true);
    }

    let k = MILLION_K.min(sim.dim());
    let mut digest = Digest::default();
    let (mut round_ms, mut engine_ms, mut tail_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut comm_bytes, mut samples, mut attempted) = (0u64, 0u64, 0u64);
    let mut problems = Vec::new();
    let mut losses = Vec::with_capacity(rounds);
    let mut ks = Vec::with_capacity(rounds);
    let mut last_cohort = Vec::new();
    let start = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let report = if traced {
            rec.begin_round();
            sim.run_round_recorded(k, None, &mut rec)
        } else {
            sim.run_round(k, None)
        };
        let t_engine = Instant::now();
        if traced {
            sim.executor().drain_dispatch_latency(&mut dispatch);
        }
        // FAB messages carry an index and a value per element, so the
        // downlink moves two scalars per broadcast element.
        let bytes =
            4 * (report.cohort.len() * report.max_uplink_scalars + 2 * report.downlink_elements);
        digest.word(report.k_used as u64);
        digest.word(report.train_loss.to_bits());
        digest.word(bytes as u64);
        if !report.train_loss.is_finite() {
            problems.push(format!(
                "non-finite training loss in round {}",
                report.round
            ));
        }
        comm_bytes += bytes as u64;
        samples += (report.cohort.len() * Workload::MillionCohort.batch_size()) as u64;
        attempted += report.cohort.len() as u64;
        losses.push(report.train_loss);
        ks.push(report.k_used);
        last_cohort = report.cohort;
        let done = Instant::now();
        round_ms.push(ms(done.duration_since(t)));
        engine_ms.push(ms(t_engine.duration_since(t)));
        tail_ms.push(ms(done.duration_since(t_engine)));
    }
    let loop_s = start.elapsed().as_secs_f64();
    // One cohort's loss is a 2,048-sample estimate; the mean over the last
    // quarter of the trial is the steadier reading of where training is.
    let last = &losses[losses.len() - losses.len().div_ceil(4)..];
    let final_loss = last.iter().sum::<f64>() / last.len().max(1) as f64;
    if sim.round() != rounds {
        problems.push(format!("ran {} rounds, expected {rounds}", sim.round()));
    }
    digest.params(sim.params());
    let trace = traced.then(|| TraceData {
        recorder: rec,
        dispatch,
        pool: sim.executor().pool_metrics(),
    });
    Trial {
        setup_s,
        round_ms,
        engine_ms,
        tail_ms,
        controller_ns: 0,
        ks,
        precisions: vec![None; rounds],
        loop_s,
        samples,
        final_loss,
        comm_bytes,
        lost_uploads: (0, attempted),
        retransmit_bytes: 0,
        digest: digest.value(),
        problems,
        trace,
        last_cohort,
        engine: Some(Engine::Simulation(Box::new(sim))),
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-round wall times derived from the controller's call instants.
struct RoundTimings {
    round_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    tail_ms: Vec<f64>,
}

/// The `KController` the `Experiment` workloads run with. It forwards every
/// call to the real controller, so the controller does its full work on
/// each round's real feedback, but the round's `k`, probe `k` and precision
/// tier come from the workload's pinned schedule (see
/// [`Workload::schedule`]). It also
/// notes when the runner calls it: a round runs from one `propose_k` to the
/// next, and its engine part from `propose_k` to `observe`. The runner
/// calls `propose_k` and `observe` exactly once per round.
#[derive(Debug)]
struct TimedController {
    inner: Box<dyn KController>,
    schedule: &'static [Pinned],
    proposed: RefCell<Vec<Instant>>,
    observed: Vec<Instant>,
    feedback: Vec<(usize, f64)>,
    precisions: RefCell<Vec<Option<Precision>>>,
    inside_ns: Cell<u64>,
}

impl TimedController {
    fn new(inner: Box<dyn KController>, schedule: &'static [Pinned]) -> Self {
        Self {
            inner,
            schedule,
            proposed: RefCell::new(Vec::new()),
            observed: Vec::new(),
            feedback: Vec::new(),
            precisions: RefCell::new(Vec::new()),
            inside_ns: Cell::new(0),
        }
    }

    /// The pinned proposals of the round being proposed.
    fn pinned(&self) -> Pinned {
        let round = self.observed.len();
        *self
            .schedule
            .get(round)
            .unwrap_or_else(|| panic!("no pinned k for round {}", round + 1))
    }

    fn charge(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.inside_ns.set(self.inside_ns.get() + ns);
    }

    /// Splits the run into rounds; `end` is when the run returned.
    fn timings(&self, end: Instant) -> RoundTimings {
        let proposed = self.proposed.borrow();
        let n = proposed.len().min(self.observed.len());
        let next = |i: usize| proposed.get(i + 1).copied().unwrap_or(end);
        RoundTimings {
            round_ms: (0..n).map(|i| ms(next(i) - proposed[i])).collect(),
            engine_ms: (0..n).map(|i| ms(self.observed[i] - proposed[i])).collect(),
            tail_ms: (0..n).map(|i| ms(next(i) - self.observed[i])).collect(),
        }
    }
}

impl KController for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose_k(&self) -> f64 {
        let t = Instant::now();
        self.proposed.borrow_mut().push(t);
        std::hint::black_box(self.inner.propose_k());
        self.charge(t);
        self.pinned().k
    }

    fn probe_k(&self) -> Option<f64> {
        let t = Instant::now();
        std::hint::black_box(self.inner.probe_k());
        self.charge(t);
        Some(self.pinned().probe_k)
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        let t = Instant::now();
        self.observed.push(t);
        self.feedback.push((feedback.k_used, feedback.round_time));
        self.inner.observe(feedback);
        self.charge(t);
    }

    fn propose_precision(&self) -> Option<Precision> {
        let t = Instant::now();
        std::hint::black_box(self.inner.propose_precision());
        let p = self.pinned().precision;
        self.precisions.borrow_mut().push(p);
        self.charge(t);
        p
    }

    fn save_state(&self) -> Vec<u8> {
        let t = Instant::now();
        let s = self.inner.save_state();
        self.charge(t);
        s
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.inner.restore_state(bytes)
    }
}
