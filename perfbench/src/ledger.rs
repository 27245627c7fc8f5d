//! Per-layer replays: the benchmark's own spans around single calls into
//! each crate's public functions, made on a traced trial's live state (its
//! parameters and last cohort, and one round's `k` and precision tier).

use std::time::Instant;

use agsfl_exec::Executor;
use agsfl_fl::Simulation;
use agsfl_ml::model::{Im2colScratch, SimpleCnn};
use agsfl_ml::ClientShard;
use agsfl_sparse::topk::top_k_entries_with;
use agsfl_sparse::{ClientUpload, SelectionScratch, ShardedScratch};
use agsfl_tensor::Matrix;
use agsfl_wire::{Precision, WireScratch};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::{empty_region, Workload, CODEC};

/// Timed repetitions of the whole-cohort calls (selection, evaluation,
/// checkpoint save), after one untimed warm-up call.
const REPS: usize = 3;
/// Timed repetitions of an empty parallel region.
const REGION_REPS: usize = 200;

/// The live state a replay runs on.
pub struct Live<'a> {
    /// The traced trial's simulation after its last round.
    pub sim: &'a Simulation,
    /// The workload, for its batch size, model shape and codec.
    pub workload: Workload,
    /// The last round's cohort.
    pub clients: &'a [usize],
    /// The `k` to replay at.
    pub k: usize,
    /// The precision tier to encode with, if the round overrode the codec.
    pub precision: Option<Precision>,
    /// Seed of the lossy codec's stochastic-rounding stream.
    pub seed: u64,
}

fn elapsed_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every replay and records its metrics. Output checks that fail are
/// appended to `problems`.
pub fn replay(live: &Live<'_>, metrics: &mut Metrics, problems: &mut Vec<String>) {
    let sim = live.sim;
    let source = sim.source();
    let model = sim.model();
    let params = sim.params();
    let dim = sim.dim();
    let batch = live.workload.batch_size();

    // agsfl-ml: materialize each cohort shard, then one mini-batch
    // gradient and forward pass per client.
    let (mut materialize_us, mut grad_ms, mut forward_ms, mut topk_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cnn = live
        .workload
        .cnn_shape()
        .map(|(c, h, w, f)| SimpleCnn::new(c, h, w, f, model.num_classes()));
    let mut im2col = Im2colScratch::new();
    let mut topk_scratch = Vec::new();
    let mut uploads = Vec::with_capacity(live.clients.len());
    let total: usize = live.clients.iter().map(|&c| source.shard_len(c)).sum();
    let mut shard = ClientShard::empty(source.feature_dim());
    for &client in live.clients {
        let t = Instant::now();
        source.materialize_into(client, &mut shard);
        materialize_us.push(elapsed_ms(t) * 1e3);

        let rows = batch.min(shard.len());
        let mut x = Vec::with_capacity(rows * shard.feature_dim());
        for i in 0..rows {
            x.extend_from_slice(shard.features.row(i));
        }
        let x = Matrix::from_vec(rows, shard.feature_dim(), x);
        let labels = &shard.labels[..rows];

        let t = Instant::now();
        let (loss, grad) = model.loss_and_grad(params, &x, labels);
        grad_ms.push(elapsed_ms(t));
        if !loss.is_finite() {
            problems.push(format!("replayed loss of client {client} is {loss}"));
        }

        let t = Instant::now();
        let logits = match &cnn {
            Some(cnn) => cnn.forward_with(params, &x, &mut im2col),
            None => model.forward(params, &x),
        };
        forward_ms.push(elapsed_ms(t));
        std::hint::black_box(logits);

        // agsfl-sparse: the client's top-k at the round's k.
        let t = Instant::now();
        let entries = top_k_entries_with(&grad, live.k, &mut topk_scratch);
        topk_ms.push(elapsed_ms(t));
        let weight = shard.len() as f64 / total.max(1) as f64;
        uploads.push(ClientUpload::new(client, weight, entries));
    }
    metrics.set("ml.materialize_us", median(&materialize_us));
    metrics.set("ml.loss_and_grad_ms", median(&grad_ms));
    metrics.set("ml.forward_ms", median(&forward_ms));
    metrics.set("sparse.client_topk_ms", median(&topk_ms));

    // agsfl-sparse: server selection, sharded on the engine's executor and
    // serial, on the same uploads; both must give the same result.
    let sparsifier = sim.sparsifier();
    let exec = sim.executor();
    let mut sharded = ShardedScratch::new();
    let mut serial = SelectionScratch::new();
    let (mut select_ms, mut serial_ms) = (Vec::new(), Vec::new());
    let mut results = None;
    for rep in 0..=REPS {
        let t = Instant::now();
        let par = sparsifier.select_parallel(&uploads, dim, live.k, &mut sharded, exec);
        let par_ms = elapsed_ms(t);
        let t = Instant::now();
        let ser = sparsifier.select_into(&uploads, dim, live.k, &mut serial);
        let ser_ms = elapsed_ms(t);
        if rep > 0 {
            select_ms.push(par_ms);
            serial_ms.push(ser_ms);
        }
        results = Some((par, ser));
    }
    if let Some((par, ser)) = results {
        if par != ser {
            problems.push("sharded and serial selection disagree".into());
        }
    }
    metrics.set("sparse.select_ms", median(&select_ms));
    metrics.set("sparse.select_serial_ms", median(&serial_ms));

    // agsfl-wire: one frame per upload in the tier in force (entries go on
    // the wire index-sorted); lossless tiers must decode exactly.
    let spec = live.precision.map_or(CODEC, Precision::codec_spec);
    let codec = spec.build_seeded(live.seed);
    let mut wire = WireScratch::new();
    let (mut encode_us, mut decode_us) = (Vec::new(), Vec::new());
    let mut sorted = Vec::new();
    let mut decoded = Vec::new();
    for upload in &uploads {
        sorted.clear();
        sorted.extend_from_slice(&upload.entries);
        sorted.sort_unstable_by_key(|&(j, _)| j);
        let t = Instant::now();
        let frame = codec.encode_into(dim, &sorted, &mut wire);
        encode_us.push(elapsed_ms(t) * 1e3);
        let t = Instant::now();
        let declared = codec.decode_into(frame, &mut decoded);
        decode_us.push(elapsed_ms(t) * 1e3);
        let exact = spec.is_lossy() || decoded == sorted;
        if declared != Ok(dim) || decoded.len() != sorted.len() || !exact {
            problems.push(format!("{} frame did not round-trip", spec.name()));
        }
    }
    metrics.set("wire.encode_us_per_frame", median(&encode_us));
    metrics.set("wire.decode_us_per_frame", median(&decode_us));

    // agsfl-ml: global evaluation. Over a lazy population it would stream
    // all 10⁶ shards, which no round of that workload does, so it is not
    // replayed there and reads 0.
    let eval_ms = if live.workload == Workload::MillionCohort {
        0.0
    } else {
        median(&timed_reps(|| {
            std::hint::black_box(sim.evaluate());
        }))
    };
    metrics.set("ml.eval_ms", eval_ms);

    // agsfl-fl: the simulation's checkpoint blob.
    let mut blob = Vec::new();
    let save_ms = timed_reps(|| sim.save_state_into(&mut blob));
    metrics.set("fl.checkpoint_save_ms", median(&save_ms));
    metrics.set("fl.checkpoint_bytes", blob.len() as f64);

    // agsfl-exec: dispatch of a region with no work.
    metrics.set("exec.empty_region_us", empty_region_us(exec));
}

/// One warm-up call, then [`REPS`] timed calls, in ms.
fn timed_reps(mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            elapsed_ms(t)
        })
        .collect()
}

/// Median wall time of an empty parallel region, in µs.
fn empty_region_us(exec: &Executor) -> f64 {
    empty_region(exec);
    let us: Vec<f64> = (0..REGION_REPS)
        .map(|_| {
            let t = Instant::now();
            empty_region(exec);
            elapsed_ms(t) * 1e3
        })
        .collect();
    median(&us)
}
