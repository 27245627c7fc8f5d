//! Property tests for the sampled-cohort engine's determinism contract:
//! for *any* seed, cohort size, thread count and interrupt point, a
//! cohort-sampled run is bit-identical to its serial / uninterrupted twin.
//!
//! These generalize the hand-picked cases in `simulation.rs`'s unit tests
//! (and the historical pins in `golden_trajectory.rs`) across the whole
//! configuration space: cohort draws and RNG streams advance serially in
//! client order before any parallel region, and shard materialization and
//! first-timer resets run per slot on the workers, so neither the worker
//! count nor a checkpoint/restore cycle may perturb a single bit. Every
//! property covers both an eager `FederatedDataset` and a lazily
//! materialized `LazySyntheticFemnist`, with and without an outage-heavy
//! fault model (offline first-timers, dropped uploads, probes over offline
//! members).

use agsfl_exec::Parallelism;
use agsfl_fl::{ChannelModel, FaultModel, Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl_ml::data::{
    FederatedDataset, LazySyntheticFemnist, ShardSource, SyntheticFemnist, SyntheticFemnistConfig,
};
use agsfl_ml::model::LinearSoftmax;
use agsfl_sparse::FubTopK;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The tiny population, either eager (a generated `FederatedDataset`) or
/// lazy (a `LazySyntheticFemnist` that regenerates each shard on demand).
fn source(lazy: bool, seed: u64) -> Box<dyn ShardSource> {
    let config = SyntheticFemnistConfig::tiny();
    if lazy {
        return Box::new(LazySyntheticFemnist::new(config, seed));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let fed: FederatedDataset = SyntheticFemnist::new(config).generate(&mut rng);
    Box::new(fed)
}

/// Crash outages on a large share of every cohort (so first-timers are
/// often offline in their first round) plus upload dropout. Neither needs
/// a wire, so the model fits wired and scalar runs alike.
fn outage_heavy(seed: u64) -> FaultModel {
    FaultModel {
        drop_prob: 0.15,
        crash_prob: 0.35,
        outage_rounds: (1, 3),
        seed: seed ^ 0xFA17,
        ..FaultModel::default()
    }
}

fn build_sim(
    seed: u64,
    cohort: usize,
    parallelism: Parallelism,
    wired: bool,
    lazy: bool,
    fault: Option<FaultModel>,
) -> Simulation {
    let source = source(lazy, seed);
    let num_clients = source.num_clients();
    let model = LinearSoftmax::new(source.feature_dim(), source.num_classes());
    let wire = wired.then(|| WireConfig {
        codec: agsfl_wire::CodecSpec::Auto,
        channel: ChannelModel::uniform(num_clients, 1.0, 2_000.0, 4_000.0, 0.05),
    });
    Simulation::with_source(
        Box::new(model),
        source,
        Box::new(FubTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(5.0),
            seed,
            parallelism,
            wire,
            fault,
            cohort: Some(cohort),
        },
    )
}

/// Advances `rounds` rounds (k = 16, probes on even rounds) and returns a
/// bit-exact fingerprint: weight bits, elapsed-time bits, per-round cohort
/// members and contribution counts.
fn run_fingerprint(sim: &mut Simulation, rounds: usize) -> (Vec<u32>, u64, Vec<Vec<usize>>) {
    let mut cohorts = Vec::new();
    for round in 0..rounds {
        let probe = (round % 2 == 0).then_some(4);
        let report = sim.run_round(16, probe);
        cohorts.push(report.cohort.clone());
    }
    let params = sim.params().iter().map(|v| v.to_bits()).collect();
    (params, sim.elapsed_time().to_bits(), cohorts)
}

proptest! {
    // Each case runs several full simulations; a handful of cases per
    // property already sweeps seeds, cohort sizes and thread counts far
    // beyond the hand-picked unit tests.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial and 2–8-worker runs of the same sampled-cohort configuration
    /// are bit-identical — wired or not, eager or lazy, faulty or clean.
    #[test]
    fn prop_cohort_runs_identical_across_worker_counts(
        seed in 0u64..10_000,
        cohort in 1usize..9,
        threads in 2usize..9,
        wired_bit in 0u32..2,
        lazy_bit in 0u32..2,
        faulty_bit in 0u32..2,
        rounds in 1usize..6,
    ) {
        let wired = wired_bit == 1;
        let lazy = lazy_bit == 1;
        let fault = (faulty_bit == 1).then(|| outage_heavy(seed));
        let mut serial = build_sim(seed, cohort, Parallelism::Serial, wired, lazy, fault.clone());
        let mut threaded =
            build_sim(seed, cohort, Parallelism::Threads(threads), wired, lazy, fault);
        let a = run_fingerprint(&mut serial, rounds);
        let b = run_fingerprint(&mut threaded, rounds);
        prop_assert_eq!(a, b, "serial vs {} workers diverged", threads);
    }

    /// Interrupting a sampled-cohort run with a checkpoint/restore cycle at
    /// any round leaves the remainder bit-identical to the uninterrupted
    /// run — the cohort stream resumes exactly where it stopped.
    #[test]
    fn prop_cohort_resume_is_bit_identical(
        seed in 0u64..10_000,
        cohort in 1usize..9,
        interrupt in 0usize..6,
        wired_bit in 0u32..2,
        lazy_bit in 0u32..2,
        faulty_bit in 0u32..2,
    ) {
        let wired = wired_bit == 1;
        let lazy = lazy_bit == 1;
        let fault = (faulty_bit == 1).then(|| outage_heavy(seed));
        let build = || build_sim(seed, cohort, Parallelism::Serial, wired, lazy, fault.clone());
        let rounds = 6;
        let mut baseline = build();
        let want = run_fingerprint(&mut baseline, rounds);

        let mut first = build();
        let (_, _, mut cohorts) = run_fingerprint(&mut first, interrupt);
        let blob = first.save_state();
        let mut resumed = build();
        resumed.restore_state(&blob).expect("same-shape restore");
        for round in interrupt..rounds {
            let probe = (round % 2 == 0).then_some(4);
            let report = resumed.run_round(16, probe);
            cohorts.push(report.cohort.clone());
        }
        let got = (
            resumed.params().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            resumed.elapsed_time().to_bits(),
            cohorts,
        );
        prop_assert_eq!(got, want, "resume at round {} diverged", interrupt);
    }
}

/// The corner the properties above only sample at random, pinned so every
/// run covers it: a lazy, wired, outage-heavy cohort — offline
/// first-timers, dropped uploads and probes over offline members —
/// produces identical reports at Serial and at 2, 4 and 8 workers.
#[test]
fn lazy_faulty_cohort_reports_match_serial_at_every_worker_count() {
    let build = |parallelism| build_sim(17, 5, parallelism, true, true, Some(outage_heavy(17)));
    let mut serial = build(Parallelism::Serial);
    let mut pooled: Vec<Simulation> = [2, 4, 8]
        .iter()
        .map(|&t| build(Parallelism::Threads(t)))
        .collect();
    let mut offline = 0;
    for round in 0..8 {
        let probe = (round % 2 == 0).then_some(4);
        let reference = serial.run_round(16, probe);
        offline += reference.fault.as_ref().map_or(0, |f| f.offline);
        for sim in &mut pooled {
            assert_eq!(sim.run_round(16, probe), reference, "round {round}");
        }
    }
    assert!(offline > 0, "the fault model must take members offline");
    for sim in &pooled {
        assert_eq!(sim.params(), serial.params());
    }
}
