//! Byte pins for the AGCK run checkpoint file.
//!
//! A resumed run is only bit-identical to an uninterrupted one if the file
//! carries every byte of state, so the on-disk format is a contract: the
//! simulation blob (AGSF v3, including the population and fault sections),
//! the rounding RNG, the controller blob (including a nested controller
//! blob inside `PrecisionController`) and the run history. Each case runs a
//! short checkpointed experiment and pins the FNV-1a hash and length of the
//! file it leaves behind; the pins hold at every worker count.

use agsfl_core::{
    ChannelSpec, CheckpointSpec, CodecSpec, ControllerSpec, DatasetSpec, Experiment,
    ExperimentConfig, FaultModel, ModelSpec, Parallelism, StopCondition, WireSpec,
};
use agsfl_online::{KController, PrecisionController};

/// The FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The wire and fault settings a case runs under.
#[derive(Clone, Copy, Debug)]
enum Setup {
    Plain,
    Wired,
    WiredFaulty,
}

fn config(seed: u64, setup: Setup, parallelism: Parallelism) -> ExperimentConfig {
    let mut builder = ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Linear)
        .learning_rate(0.05)
        .batch_size(8)
        .comm_time(10.0)
        .eval_every(3)
        .seed(seed)
        .parallelism(parallelism);
    if !matches!(setup, Setup::Plain) {
        builder = builder.wire(WireSpec {
            codec: CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05),
        });
    }
    if matches!(setup, Setup::WiredFaulty) {
        builder = builder.fault(FaultModel {
            drop_prob: 0.15,
            crash_prob: 0.05,
            outage_rounds: (1, 2),
            straggle_prob: 0.2,
            straggle_factor: 4.0,
            deadline: None,
            corrupt_prob: 0.2,
            max_retries: 2,
            retry_backoff: 0.01,
            seed: seed ^ 0xFA,
        });
    }
    builder.build()
}

/// One pinned configuration: which controller, under which setup.
struct Case {
    name: &'static str,
    seed: u64,
    setup: Setup,
    controller: fn(usize, u64) -> Box<dyn KController>,
    /// `(file length, FNV-1a hash)` of the checkpoint a five-round run
    /// leaves behind (written after round four).
    pin: (usize, u64),
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "fixed_k",
            seed: 61,
            setup: Setup::Plain,
            controller: |dim, seed| ControllerSpec::Fixed(dim as f64 / 10.0).build(dim, seed),
            pin: (10_069, 0x223f_03eb_406f_8d35),
        },
        Case {
            name: "algorithm2_faulty",
            seed: 62,
            setup: Setup::WiredFaulty,
            controller: |dim, seed| ControllerSpec::Algorithm2.build(dim, seed),
            pin: (10_251, 0x663c_7f11_2ed5_1385),
        },
        Case {
            name: "algorithm3",
            seed: 63,
            setup: Setup::Wired,
            controller: |dim, seed| ControllerSpec::Algorithm3.build(dim, seed),
            pin: (10_184, 0xdd1b_af5d_c471_e96b),
        },
        Case {
            name: "exp3",
            seed: 64,
            setup: Setup::Plain,
            controller: |dim, seed| ControllerSpec::Exp3 { num_arms: 8 }.build(dim, seed),
            pin: (10_198, 0x7859_3888_f017_8bf2),
        },
        Case {
            name: "precision_sign_ogd_faulty",
            seed: 65,
            setup: Setup::WiredFaulty,
            controller: |dim, seed| {
                Box::new(PrecisionController::new(
                    ControllerSpec::Algorithm2.build(dim, seed),
                ))
            },
            pin: (10_304, 0x5407_41aa_0b34_312d),
        },
    ]
}

/// Runs `case` for five rounds with a checkpoint every two rounds and
/// returns the final file's length and hash.
fn checkpoint_pin(case: &Case, parallelism: Parallelism) -> (usize, u64) {
    let cfg = config(case.seed, case.setup, parallelism);
    let path = std::env::temp_dir().join(format!(
        "agsfl_ckpt_format_{}_{}_{parallelism:?}.bin",
        std::process::id(),
        case.name
    ));
    let spec = CheckpointSpec::new(&path, 2);
    let mut exp = Experiment::new(&cfg);
    let mut controller = (case.controller)(exp.dim(), cfg.seed);
    exp.run_with_controller_checkpointed(
        controller.as_mut(),
        &StopCondition::after_rounds(5),
        case.name,
        &spec,
    )
    .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(&bytes[..4], b"AGCK", "{}: run file magic", case.name);
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn checkpoint_files_match_their_byte_pins() {
    let got: Vec<_> = cases()
        .iter()
        .map(|case| (case.name, checkpoint_pin(case, Parallelism::Serial)))
        .collect();
    let want: Vec<_> = cases().iter().map(|case| (case.name, case.pin)).collect();
    assert_eq!(got, want, "checkpoint bytes changed");
}

#[test]
fn checkpoint_bytes_do_not_depend_on_the_worker_count() {
    for case in cases() {
        for threads in [2, 4, 8] {
            assert_eq!(
                checkpoint_pin(&case, Parallelism::Threads(threads)),
                case.pin,
                "{} at {threads} workers",
                case.name
            );
        }
    }
}
