//! Checkpoint fuzzing: hostile run files never panic the resume path.
//!
//! A run file is untrusted input as soon as it leaves the process: a torn
//! copy, a flipped bit on disk, a corrupt length prefix. Whatever
//! `resume_with_controller` is handed, it must either resume or return a
//! typed [`CheckpointError`]. Never a panic, and never an allocation sized
//! by a corrupt length. The cases start from a real AGCK file (a wired,
//! faulty LinearSoftmax run under a precision-wrapped sign-OGD controller,
//! so the fault section and a nested controller blob are present) and
//! mutate it:
//!
//! * every truncation must fail;
//! * every single-bit flip in the header, the controller blob, the history
//!   section and every length prefix must give `Ok` or a typed error (`Ok`
//!   is allowed: the format carries no checksum);
//! * a `u64::MAX / 2` length bomb in each length prefix must do the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

use agsfl_core::{
    ChannelSpec, CheckpointError, CheckpointSpec, CodecSpec, ControllerSpec, DatasetSpec,
    Experiment, ExperimentConfig, FaultModel, ModelSpec, Parallelism, StopCondition, WireSpec,
};
use agsfl_online::PrecisionController;
use agsfl_wire::SnapshotReader;

/// Forwards to the system allocator and, while armed on the current
/// thread, records the largest single request.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            PEAK.with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees under the `GlobalAlloc` contract (a valid,
// nonzero-size layout; a pointer this allocator returned with the same
// layout) are exactly what `System` requires. `note` only reads and writes
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The largest single allocation one resume may make. The run file is
/// about 10 KB, so no honest decode comes near it.
const ALLOC_LIMIT: usize = 1 << 20;

/// Rounds in the checkpointed run; the checkpoint is written after the
/// last one, which is also an evaluation round, so a resume that succeeds
/// runs nothing further.
const ROUNDS: usize = 3;

fn config() -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Linear)
        .learning_rate(0.05)
        .batch_size(8)
        .comm_time(10.0)
        .eval_every(ROUNDS)
        .seed(71)
        .parallelism(Parallelism::Serial)
        .wire(WireSpec {
            codec: CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05),
        })
        .fault(FaultModel {
            drop_prob: 0.15,
            crash_prob: 0.05,
            outage_rounds: (1, 2),
            straggle_prob: 0.2,
            straggle_factor: 4.0,
            deadline: None,
            corrupt_prob: 0.2,
            max_retries: 2,
            retry_backoff: 0.01,
            seed: 71 ^ 0xFA,
        })
        .build()
}

fn controller(exp: &Experiment, cfg: &ExperimentConfig) -> PrecisionController {
    PrecisionController::new(ControllerSpec::Algorithm2.build(exp.dim(), cfg.seed))
}

/// One experiment and controller, resumed again and again from mutated
/// copies of one run file. Reuse is sound: a failed restore leaves the
/// controller untouched, and a successful one overwrites all mutable state
/// of the simulation and the controller.
struct Harness {
    exp: Experiment,
    controller: PrecisionController,
    spec: CheckpointSpec,
    file: Vec<u8>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let cfg = config();
        let path =
            std::env::temp_dir().join(format!("agsfl_ckpt_fuzz_{}_{tag}.bin", std::process::id()));
        let spec = CheckpointSpec::new(path, ROUNDS);
        let mut exp = Experiment::new(&cfg);
        let mut c = controller(&exp, &cfg);
        let history = exp
            .run_with_controller_checkpointed(
                &mut c,
                &StopCondition::after_rounds(ROUNDS),
                "fuzz",
                &spec,
            )
            .unwrap();
        assert!(
            history.fault_totals().lost() + history.fault_totals().stragglers > 0,
            "the fault model was inert"
        );
        let file = std::fs::read(&spec.path).unwrap();
        let exp = Experiment::new(&cfg);
        let controller = controller(&exp, &cfg);
        let mut harness = Self {
            exp,
            controller,
            spec,
            file,
        };
        // The unmutated file resumes.
        let file = harness.file.clone();
        assert!(harness.resume(&file).is_ok());
        harness
    }

    /// Resumes from `bytes`, asserting no allocation exceeds the limit. An
    /// `Err` is always a decode error, never the I/O of a missing file.
    fn resume(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        std::fs::write(&self.spec.path, bytes).unwrap();
        PEAK.with(|peak| peak.set(0));
        ARMED.with(|armed| armed.set(true));
        let result = self.exp.resume_with_controller(
            &mut self.controller,
            &StopCondition::after_rounds(ROUNDS),
            &self.spec,
        );
        ARMED.with(|armed| armed.set(false));
        let peak = PEAK.with(Cell::get);
        assert!(
            peak <= ALLOC_LIMIT,
            "a resume allocated {peak} bytes at once"
        );
        match result {
            Ok(_) => Ok(()),
            Err(CheckpointError::Io(msg)) => panic!("decode failed as I/O: {msg}"),
            Err(e) => {
                // Error formatting must not panic either.
                let _ = e.to_string();
                Err(e)
            }
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_file(&self.spec.path).ok();
    }
}

/// Where the mutated regions lie in a run file, found by walking it with
/// the codec's own reader.
struct FileLayout {
    header: Range<usize>,
    controller: Range<usize>,
    history: Range<usize>,
    /// Offsets of every `u64` length or count prefix, nested blobs included.
    prefixes: Vec<usize>,
}

fn layout(file: &[u8]) -> FileLayout {
    let mut prefixes = Vec::new();
    let mut r = SnapshotReader::new(file);
    let at = |r: &SnapshotReader<'_>| file.len() - r.remaining();
    r.header(*b"AGCK", 1).unwrap();
    prefixes.push(at(&r));
    let sim = r.bytes().unwrap();
    walk_simulation(&sim, at(&r) - sim.len(), &mut prefixes);
    r.rng().unwrap();
    prefixes.push(at(&r));
    let blob = r.bytes().unwrap();
    let controller = at(&r) - blob.len()..at(&r);
    walk_precision_controller(&blob, controller.start, &mut prefixes);
    r.usize().unwrap();
    r.f64().unwrap();
    let history = at(&r)..file.len();
    prefixes.push(at(&r));
    r.str().unwrap();
    prefixes.push(at(&r));
    for _ in 0..r.usize().unwrap() {
        r.usize().unwrap();
        r.f64().unwrap();
        r.usize().unwrap();
        r.f64().unwrap();
        r.opt_f64().unwrap();
        r.opt_f64().unwrap();
    }
    prefixes.push(at(&r));
    r.u64s().unwrap();
    r.u64().unwrap();
    r.u64().unwrap();
    prefixes.push(at(&r));
    r.u64s().unwrap();
    for _ in 0..9 {
        r.u64().unwrap();
    }
    r.opt_usize().unwrap();
    r.finish().unwrap();
    FileLayout {
        header: 0..8,
        controller,
        history,
        prefixes,
    }
}

/// The AGSF v3 simulation blob: fingerprint, globals, population rows and
/// the fault section.
fn walk_simulation(blob: &[u8], base: usize, prefixes: &mut Vec<usize>) {
    let mut r = SnapshotReader::new(blob);
    let at = |r: &SnapshotReader<'_>| base + blob.len() - r.remaining();
    r.header(*b"AGSF", 3).unwrap();
    for _ in 0..4 {
        r.u64().unwrap();
    }
    prefixes.push(at(&r));
    r.str().unwrap();
    r.bool().unwrap();
    r.bool().unwrap();
    r.opt_usize().unwrap();
    prefixes.push(at(&r));
    r.str().unwrap();
    r.usize().unwrap();
    r.f64().unwrap();
    prefixes.push(at(&r));
    r.f32s().unwrap();
    r.rng().unwrap();
    r.rng().unwrap();
    prefixes.push(at(&r));
    for _ in 0..r.usize().unwrap() {
        r.usize().unwrap();
        r.rng().unwrap();
        prefixes.push(at(&r));
        r.f32s().unwrap();
        prefixes.push(at(&r));
        r.usizes().unwrap();
        r.usize().unwrap();
        prefixes.push(at(&r));
        r.usizes().unwrap();
        r.opt_usize().unwrap();
    }
    r.rng().unwrap();
    prefixes.push(at(&r));
    r.u64s().unwrap();
    prefixes.push(at(&r));
    r.u64s().unwrap();
    r.finish().unwrap();
}

/// The precision wrapper's blob: tag, round, period, four tier costs and
/// the nested inner-controller blob.
fn walk_precision_controller(blob: &[u8], base: usize, prefixes: &mut Vec<usize>) {
    let mut r = SnapshotReader::new(blob);
    r.u8().unwrap();
    r.usize().unwrap();
    r.usize().unwrap();
    for _ in 0..4 {
        r.opt_f64().unwrap();
    }
    prefixes.push(base + blob.len() - r.remaining());
    r.bytes().unwrap();
    r.finish().unwrap();
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut h = Harness::new("truncate");
    let file = h.file.clone();
    for cut in 0..file.len() {
        assert!(h.resume(&file[..cut]).is_err(), "cut at {cut} resumed");
    }
}

#[test]
fn single_bit_flips_resume_or_fail_typed() {
    let mut h = Harness::new("flip");
    let file = h.file.clone();
    let layout = layout(&file);
    let mut offsets: Vec<usize> = layout
        .header
        .clone()
        .chain(layout.controller.clone())
        .chain(layout.history.clone())
        .chain(layout.prefixes.iter().flat_map(|&p| p..p + 8))
        .collect();
    offsets.sort_unstable();
    offsets.dedup();
    for &at in &offsets {
        for bit in 0..8 {
            let mut bytes = file.clone();
            bytes[at] ^= 1 << bit;
            let result = h.resume(&bytes);
            // The magic, the version and the controller's type tag admit
            // no other value, so a flip there must fail.
            if layout.header.contains(&at) || at == layout.controller.start {
                assert!(result.is_err(), "flip of bit {bit} at {at} resumed");
            }
        }
    }
    // A flipped magic byte is named as such.
    let mut bytes = file.clone();
    bytes[0] ^= 1;
    assert_eq!(
        h.resume(&bytes),
        Err(CheckpointError::BadMagic { expected: *b"AGCK" })
    );
}

#[test]
fn length_bombs_fail_before_allocating() {
    let mut h = Harness::new("bomb");
    let file = h.file.clone();
    let layout = layout(&file);
    assert!(layout.prefixes.len() >= 20, "{:?}", layout.prefixes);
    for &at in &layout.prefixes {
        let mut bytes = file.clone();
        bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(h.resume(&bytes).is_err(), "bomb at {at} resumed");
    }
}
