//! `bench-report`: times the selection kernels on the bench-scale workload,
//! writes machine-readable `BENCH_kernels.json` (current snapshot) and
//! appends one line of run metadata + timings to `BENCH_history.jsonl`, so
//! the perf trajectory of the server hot path is tracked *across* PRs
//! instead of each run overwriting the last.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agsfl-bench --bin bench-report [-- OUTPUT.json [HISTORY.jsonl]]
//! ```
//!
//! Three workload families are tracked. The FAB selection workload
//! (dim = 10⁵, N = 40, k = dim/100) is measured through the seed baseline
//! (`agsfl_sparse::reference`) and the serial scratch-reusing `select_into`
//! fast path, plus the client-side top-k kernel in both variants. The
//! `pool_dispatch` pair prices one parallel region's *dispatch* — the
//! historical spawn-per-region `thread::scope` baseline vs the persistent
//! channel-fed worker pool — over a trivially small region, so the per-round
//! overhead the pool saves is tracked explicitly. The `cnn_forward` pair
//! times the paper-shape (~420k-weight, batch 32) CNN forward pass through
//! the seed scalar loops (`agsfl_ml::reference`) and the im2col lowering.
//! The `eval_sweep` pair times one evaluation point's `O(N·D)` metric sweep
//! through the seed's three serial passes and the fused executor sweep
//! (`agsfl_ml::metrics::global_evaluation`), asserting on the way that both
//! return identical bits. The `wire_encode`/`wire_decode` pairs time the
//! delta-varint wire codec on a dim = 10⁵, k = 10³ message through the
//! allocating reference implementations (`agsfl_wire::reference`) and the
//! scratch-reusing fast paths, asserting byte-identical frames. The
//! `checkpoint_save`/`checkpoint_load` pairs time simulation snapshots at
//! the paper's >400k-weight scale: allocating `save_state` vs the
//! buffer-reusing `save_state_into`, and rebuilding the simulation from its
//! inputs vs `restore_state` of the serialized blob. The JSON reports
//! nanoseconds per iteration (mean of the fastest half of samples) and
//! baseline/optimized speedups.
//!
//! Beyond the kernels, the report records the process' peak RSS and runs
//! the `figures::scale_sweep` memory audit — fixed-cohort rounds at
//! N = 10³..10⁶ with per-population rounds/sec and resident-set bytes —
//! writing the points into `BENCH_kernels.json` (`"scale"`) and appending
//! a dedicated `scale_sweep` line to the history log, so the O(cohort·k)
//! memory claim is tracked across PRs alongside the timings.

use std::io::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use agsfl_bench::kernel_workload::{
    checkpoint_workload, cnn_workload, eval_workload, fab_workload, fresh_checkpoint_sim,
    telemetry_workload, wire_workload, CKPT_CLIENTS, CNN_BATCH, EVAL_CLIENTS, FAB_CLIENTS, FAB_DIM,
    FAB_K, TELEM_CLIENTS, TELEM_K,
};
use agsfl_core::figures::scale_sweep::{self, ScaleSweepConfig};
use agsfl_exec::{mem, Executor};
use agsfl_ml::metrics;
use agsfl_ml::model::{Im2colScratch, Model};
use agsfl_ml::reference as ml_reference;
use agsfl_sparse::{reference, topk, FabTopK, SelectionScratch, Sparsifier};
use agsfl_telemetry::{SpanId, StageRecorder};
use agsfl_wire::{
    decode_frame, reference as wire_reference, Codec, DeltaVarint, QLinear8, WireScratch,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Samples per kernel; each sample runs enough iterations to cover ~20 ms.
const SAMPLES: usize = 12;
const TARGET_SAMPLE_SECS: f64 = 0.02;

/// Times `f`, returning mean nanoseconds per iteration over the fastest
/// half of the samples.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up + calibration.
    let start = Instant::now();
    let mut warmup_iters = 0u64;
    while start.elapsed().as_secs_f64() < 0.05 {
        f();
        warmup_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warmup_iters as f64;
    let iters = (TARGET_SAMPLE_SECS / per_iter.max(1e-9)).ceil().max(1.0) as u64;

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let half = samples.len().div_ceil(2);
    samples[..half].iter().sum::<f64>() / half as f64 * 1e9
}

struct KernelReport {
    name: &'static str,
    dim: usize,
    clients: usize,
    k: usize,
    /// Worker threads used by the optimized variant (1 = serial kernel).
    threads: usize,
    seed_ns: f64,
    scratch_ns: f64,
}

impl KernelReport {
    fn speedup(&self) -> f64 {
        self.seed_ns / self.scratch_ns
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"kernel\": \"{}\",\n",
                "      \"dim\": {},\n",
                "      \"clients\": {},\n",
                "      \"k\": {},\n",
                "      \"threads\": {},\n",
                "      \"seed_ns_per_iter\": {:.1},\n",
                "      \"scratch_ns_per_iter\": {:.1},\n",
                "      \"speedup\": {:.2}\n",
                "    }}"
            ),
            self.name,
            self.dim,
            self.clients,
            self.k,
            self.threads,
            self.seed_ns,
            self.scratch_ns,
            self.speedup()
        )
    }

    fn to_history_json(&self) -> String {
        format!(
            "{{\"kernel\":\"{}\",\"threads\":{},\"seed_ns_per_iter\":{:.1},\"scratch_ns_per_iter\":{:.1},\"speedup\":{:.2}}}",
            self.name,
            self.threads,
            self.seed_ns,
            self.scratch_ns,
            self.speedup()
        )
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let history_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_history.jsonl".to_string());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The pool and eval pairs are always measured through the parallel
    // engine (at least two workers), so the machinery is exercised and its
    // overhead honestly recorded even on a single-core box.
    let parallel_threads = cores.max(2);

    eprintln!(
        "bench-report: FAB selection workload dim={FAB_DIM}, N={FAB_CLIENTS}, k={FAB_K} ({cores} core(s))"
    );

    // FAB server selection: seed vs serial scratch.
    let uploads = fab_workload();
    let seed_ns = time_ns(|| {
        black_box(reference::fab_select(black_box(&uploads), FAB_DIM, FAB_K));
    });
    let mut scratch = SelectionScratch::new();
    let scratch_ns = time_ns(|| {
        black_box(FabTopK::new().select_into(black_box(&uploads), FAB_DIM, FAB_K, &mut scratch));
    });
    let fab = KernelReport {
        name: "fab_select",
        dim: FAB_DIM,
        clients: FAB_CLIENTS,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  fab_select: seed {:.0} ns, scratch {:.0} ns -> {:.2}x",
        fab.seed_ns,
        fab.scratch_ns,
        fab.speedup()
    );

    // Parallel-region dispatch overhead: the historical spawn-per-region
    // `thread::scope` path (`map_mut_scoped`, the retained baseline) vs the
    // persistent channel-fed pool (`map_mut`), over a deliberately tiny
    // region — trivial per-item work on a small slice — so the pair
    // isolates what *dispatching* one region costs, not what the region
    // computes. The round engine pays this cost several times per round;
    // the acceptance bar is pool dispatch below the scope spawn cost.
    const DISPATCH_ITEMS: usize = 64;
    let dispatch_exec = Executor::new(parallel_threads).with_min_items(1);
    let mut dispatch_items = vec![0u64; DISPATCH_ITEMS];
    let seed_ns = time_ns(|| {
        black_box(
            dispatch_exec.map_mut_scoped(black_box(&mut dispatch_items), |x| {
                *x = x.wrapping_add(1);
                *x
            }),
        );
    });
    let scratch_ns = time_ns(|| {
        black_box(dispatch_exec.map_mut(black_box(&mut dispatch_items), |x| {
            *x = x.wrapping_add(1);
            *x
        }));
    });
    let pool_dispatch = KernelReport {
        name: "pool_dispatch",
        dim: DISPATCH_ITEMS,
        clients: DISPATCH_ITEMS,
        k: 0,
        threads: parallel_threads,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  pool_dispatch ({DISPATCH_ITEMS} items): scope spawn {:.0} ns, pool {:.0} ns -> {:.2}x",
        pool_dispatch.seed_ns,
        pool_dispatch.scratch_ns,
        pool_dispatch.speedup()
    );

    // Client-side top-k extraction: the seed full-dimension-copy baseline
    // (kept in `reference`) vs the streaming bounded-buffer select.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let values: Vec<f32> = (0..FAB_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let seed_ns = time_ns(|| {
        black_box(reference::top_k_entries(black_box(&values), FAB_K));
    });
    let mut topk_scratch = Vec::new();
    let scratch_ns = time_ns(|| {
        black_box(topk::top_k_entries_with(
            black_box(&values),
            FAB_K,
            &mut topk_scratch,
        ));
    });
    let topk_report = KernelReport {
        name: "client_top_k",
        dim: FAB_DIM,
        clients: 1,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  client_top_k: alloc {:.0} ns, scratch {:.0} ns -> {:.2}x",
        topk_report.seed_ns,
        topk_report.scratch_ns,
        topk_report.speedup()
    );

    // CNN forward at the paper shape (~420k weights, batch 32): the seed
    // scalar-loop kernel kept in `agsfl_ml::reference` vs the im2col
    // lowering with a reused column workspace.
    let (cnn, cnn_params, cnn_x, _) = cnn_workload();
    let seed_ns = time_ns(|| {
        black_box(ml_reference::cnn_forward(
            &cnn,
            black_box(&cnn_params),
            black_box(&cnn_x),
        ));
    });
    let mut im2col = Im2colScratch::new();
    let scratch_ns = time_ns(|| {
        black_box(cnn.forward_with(black_box(&cnn_params), black_box(&cnn_x), &mut im2col));
    });
    let cnn_report = KernelReport {
        name: "cnn_forward",
        dim: cnn.num_params(),
        clients: CNN_BATCH,
        k: cnn.filters(),
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  cnn_forward (D={}, batch={}): loops {:.0} ns, im2col {:.0} ns -> {:.2}x",
        cnn.num_params(),
        CNN_BATCH,
        cnn_report.seed_ns,
        cnn_report.scratch_ns,
        cnn_report.speedup()
    );

    // Per-evaluation metric sweep: the seed's three serial passes (global
    // loss, global accuracy, test accuracy) vs the fused executor sweep.
    let (eval_model, eval_params, eval_dataset) = eval_workload();
    let model = eval_model.as_ref();
    let shards = eval_dataset.clients();
    let test = eval_dataset.test();
    let seed_ns = time_ns(|| {
        black_box(metrics::global_loss(model, &eval_params, shards));
        black_box(metrics::global_accuracy(model, &eval_params, shards));
        black_box(metrics::accuracy(
            model,
            &eval_params,
            &test.features,
            &test.labels,
        ));
    });
    let eval_exec = Executor::new(parallel_threads);
    let sweep_ns = time_ns(|| {
        black_box(metrics::global_evaluation(
            model,
            &eval_params,
            shards,
            test,
            &eval_exec,
        ));
    });
    // The sweep must be bit-identical to the serial passes it replaces.
    let fused = metrics::global_evaluation(model, &eval_params, shards, test, &eval_exec);
    assert_eq!(
        fused.train_loss,
        metrics::global_loss(model, &eval_params, shards)
    );
    assert_eq!(
        fused.train_accuracy,
        metrics::global_accuracy(model, &eval_params, shards)
    );
    assert_eq!(
        fused.test_accuracy,
        metrics::accuracy(model, &eval_params, &test.features, &test.labels)
    );
    let eval_report = KernelReport {
        name: "eval_sweep",
        dim: eval_model.num_params(),
        clients: EVAL_CLIENTS,
        k: test.len(),
        threads: parallel_threads,
        seed_ns,
        scratch_ns: sweep_ns,
    };
    eprintln!(
        "  eval_sweep (D={}, N={}, test={}): serial x3 {:.0} ns, fused({} threads) {:.0} ns -> {:.2}x",
        eval_model.num_params(),
        EVAL_CLIENTS,
        test.len(),
        eval_report.seed_ns,
        parallel_threads,
        eval_report.scratch_ns,
        eval_report.speedup()
    );

    // Wire codec encode/decode at the acceptance shape (a dim = 10⁵
    // message with k = 10³ entries — what a k = D/100 round broadcasts):
    // the allocating byte-at-a-time reference encoder vs the
    // scratch-reusing `encode_into`, and the allocating reference decode
    // vs `decode_frame` into a caller-reused entry buffer. Frames are
    // byte-identical between the variants (the reference is the executable
    // spec), asserted below.
    let message = wire_workload();
    let seed_ns = time_ns(|| {
        black_box(wire_reference::delta_encode(
            message.dim(),
            black_box(message.entries()),
        ));
    });
    let mut wire_scratch = WireScratch::new();
    let scratch_ns = time_ns(|| {
        black_box(DeltaVarint.encode_gradient_into(black_box(&message), &mut wire_scratch));
    });
    let frame = DeltaVarint
        .encode_gradient_into(&message, &mut wire_scratch)
        .to_vec();
    assert_eq!(
        frame,
        wire_reference::delta_encode(message.dim(), message.entries()),
        "reference encoder must emit the identical frame"
    );
    let wire_encode = KernelReport {
        name: "wire_encode",
        dim: FAB_DIM,
        clients: 1,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  wire_encode (delta-varint, {} B frame): alloc {:.0} ns, scratch {:.0} ns -> {:.2}x",
        frame.len(),
        wire_encode.seed_ns,
        wire_encode.scratch_ns,
        wire_encode.speedup()
    );

    let seed_ns = time_ns(|| {
        black_box(wire_reference::decode(black_box(&frame)).expect("valid frame"));
    });
    let mut entries_buf = Vec::new();
    let scratch_ns = time_ns(|| {
        black_box(decode_frame(black_box(&frame), &mut entries_buf).expect("valid frame"));
    });
    decode_frame(&frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        message.entries(),
        "decode must invert encode bit-exactly"
    );
    let wire_decode = KernelReport {
        name: "wire_decode",
        dim: FAB_DIM,
        clients: 1,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  wire_decode (delta-varint): alloc {:.0} ns, reused-buffer {:.0} ns -> {:.2}x",
        wire_decode.seed_ns,
        wire_decode.scratch_ns,
        wire_decode.speedup()
    );

    // Lossy quantized codec on the same message: the allocating reference
    // QLinear8 encoder (the executable spec of the quantized frame format,
    // including the content-keyed stochastic-rounding stream) vs the
    // scratch-reusing fast path, and the allocating reference decode vs
    // `decode_frame` into a reused buffer. As with the lossless pair, the
    // two encoders must emit byte-identical frames.
    const QUANT_SEED: u64 = 0x9E37_79B9;
    let quant_codec = QLinear8::new(QUANT_SEED);
    let seed_ns = time_ns(|| {
        black_box(wire_reference::qlinear8_encode(
            QUANT_SEED,
            message.dim(),
            black_box(message.entries()),
        ));
    });
    let scratch_ns = time_ns(|| {
        black_box(quant_codec.encode_gradient_into(black_box(&message), &mut wire_scratch));
    });
    let quant_frame = quant_codec
        .encode_gradient_into(&message, &mut wire_scratch)
        .to_vec();
    assert_eq!(
        quant_frame,
        wire_reference::qlinear8_encode(QUANT_SEED, message.dim(), message.entries()),
        "reference quantizer must emit the identical frame"
    );
    let quant_encode = KernelReport {
        name: "quant_encode",
        dim: FAB_DIM,
        clients: 1,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  quant_encode (qlinear8, {} B frame): alloc {:.0} ns, scratch {:.0} ns -> {:.2}x",
        quant_frame.len(),
        quant_encode.seed_ns,
        quant_encode.scratch_ns,
        quant_encode.speedup()
    );

    let seed_ns = time_ns(|| {
        black_box(wire_reference::decode(black_box(&quant_frame)).expect("valid frame"));
    });
    let scratch_ns = time_ns(|| {
        black_box(decode_frame(black_box(&quant_frame), &mut entries_buf).expect("valid frame"));
    });
    decode_frame(&quant_frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        wire_reference::decode(&quant_frame).expect("valid frame").1,
        "both quantized decoders must reconstruct the same bits"
    );
    let quant_decode = KernelReport {
        name: "quant_decode",
        dim: FAB_DIM,
        clients: 1,
        k: FAB_K,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  quant_decode (qlinear8): alloc {:.0} ns, reused-buffer {:.0} ns -> {:.2}x",
        quant_decode.seed_ns,
        quant_decode.scratch_ns,
        quant_decode.speedup()
    );

    // Checkpoint save/load at the paper's >400k-weight scale: the fault
    // path's resume story priced as kernels. `checkpoint_save` compares the
    // allocating `save_state` against `save_state_into` reusing one buffer
    // across rounds (the shape periodic checkpointing actually runs);
    // `checkpoint_load` compares rebuilding the simulation from its inputs
    // (dataset regeneration + model init — the no-checkpoint baseline)
    // against `restore_state` of the serialized blob.
    let ckpt_sim = checkpoint_workload();
    let ckpt_dim = ckpt_sim.dim();
    let seed_ns = time_ns(|| {
        black_box(ckpt_sim.save_state());
    });
    let mut ckpt_buf = Vec::new();
    let scratch_ns = time_ns(|| {
        ckpt_sim.save_state_into(black_box(&mut ckpt_buf));
    });
    let ckpt_save = KernelReport {
        name: "checkpoint_save",
        dim: ckpt_dim,
        clients: CKPT_CLIENTS,
        k: 0,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  checkpoint_save (D={ckpt_dim}): alloc {:.0} ns, reused-buffer {:.0} ns -> {:.2}x",
        ckpt_save.seed_ns,
        ckpt_save.scratch_ns,
        ckpt_save.speedup()
    );

    let blob = ckpt_sim.save_state();
    let seed_ns = time_ns(|| {
        black_box(fresh_checkpoint_sim());
    });
    let mut target = fresh_checkpoint_sim();
    let scratch_ns = time_ns(|| {
        target
            .restore_state(black_box(&blob))
            .expect("same-fingerprint restore");
    });
    // The restore must reproduce the saved state bit-exactly.
    assert_eq!(target.save_state(), blob, "restore must be bit-exact");
    let ckpt_load = KernelReport {
        name: "checkpoint_load",
        dim: ckpt_dim,
        clients: CKPT_CLIENTS,
        k: 0,
        threads: 1,
        seed_ns,
        scratch_ns,
    };
    eprintln!(
        "  checkpoint_load (D={ckpt_dim}, {} B blob): rebuild {:.0} ns, restore {:.0} ns -> {:.2}x",
        blob.len(),
        ckpt_load.seed_ns,
        ckpt_load.scratch_ns,
        ckpt_load.speedup()
    );

    // Telemetry: the recorded-vs-noop round pair prices what full
    // instrumentation (stage clock reads, histogram buckets, pool
    // counters) costs per round, and the recorder's own output — stage
    // quantiles plus pool busy/idle fractions — goes into the snapshot so
    // stage-share regressions in the round engine are visible across PRs.
    let mut noop_sim = telemetry_workload();
    let telem_dim = noop_sim.dim();
    let seed_ns = time_ns(|| {
        black_box(noop_sim.run_round(TELEM_K, None));
    });
    let mut rec_sim = telemetry_workload();
    rec_sim.executor().set_metrics_enabled(true);
    let mut recorder = StageRecorder::new();
    let scratch_ns = time_ns(|| {
        recorder.begin_round();
        black_box(rec_sim.run_round_recorded(TELEM_K, None, &mut recorder));
    });
    let telemetry_record = KernelReport {
        name: "telemetry_record",
        dim: telem_dim,
        clients: TELEM_CLIENTS,
        k: TELEM_K,
        threads: 2,
        seed_ns,
        scratch_ns,
    };
    let (telem_seed_ns, telem_scratch_ns) = (telemetry_record.seed_ns, telemetry_record.scratch_ns);
    eprintln!(
        "  telemetry_record: noop {telem_seed_ns:.0} ns, recorded {telem_scratch_ns:.0} ns -> {:+.1}% overhead",
        (telem_scratch_ns / telem_seed_ns - 1.0) * 100.0
    );
    let telemetry_spans: Vec<String> = SpanId::ALL
        .into_iter()
        .filter_map(|id| {
            let h = recorder.span_histogram(id);
            (!h.is_empty()).then(|| {
                format!(
                    "{{\"span\":\"{}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    id.name(),
                    h.count(),
                    h.p50().unwrap_or(0),
                    h.p95().unwrap_or(0),
                    h.p99().unwrap_or(0)
                )
            })
        })
        .collect();
    let telemetry_spans_json: Vec<String> = telemetry_spans
        .iter()
        .map(|s| format!("      {s}"))
        .collect();
    let pool_snapshot = rec_sim.executor().pool_metrics();
    let telemetry_pool_json = pool_snapshot.as_ref().map_or_else(
        || "null".to_string(),
        |s| {
            format!(
                "{{\"workers\":{},\"busy_fraction\":{:.4},\"busy_ns\":{},\"idle_ns\":{},\"tasks\":{},\"queue_depth_peak\":{},\"imbalance\":{:.3}}}",
                s.workers.len(),
                s.busy_fraction(),
                s.total_busy_ns(),
                s.total_idle_ns(),
                s.total_tasks(),
                s.queue_depth_peak,
                s.imbalance_ratio()
            )
        },
    );
    if let Some(s) = &pool_snapshot {
        eprintln!(
            "  pool: {} workers, busy fraction {:.3}, {} tasks, imbalance {:.2}",
            s.workers.len(),
            s.busy_fraction(),
            s.total_tasks(),
            s.imbalance_ratio()
        );
    }

    // Population-scale sweep: fixed-cohort rounds over lazily materialized
    // populations, with resident memory observed by the OS. This is what
    // makes the O(cohort·k) scale claim auditable next to the ns/iter
    // numbers — the rss column must stay flat while N grows 1000x.
    let scale_config = ScaleSweepConfig::default();
    eprintln!(
        "bench-report: scale sweep over N={:?}, cohort={}",
        scale_config.populations, scale_config.cohort
    );
    let scale = scale_sweep::run(&scale_config);
    for p in &scale.points {
        eprintln!(
            "  scale N={}: {:.1} rounds/s, rss {} B (peak {} B), {} resident clients",
            p.population,
            p.rounds_per_sec,
            p.current_rss_bytes.unwrap_or(0),
            p.peak_rss_bytes.unwrap_or(0),
            p.resident_clients
        );
    }
    // Peak RSS of this whole process — an upper bound on every workload
    // above, recorded so memory regressions show up in the snapshot diff.
    let peak_rss = mem::peak_rss_bytes();
    let peak_rss_json = peak_rss.map_or_else(|| "null".to_string(), |b| b.to_string());
    let scale_points_json: Vec<String> = scale
        .points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"population\": {},\n",
                    "      \"cohort\": {},\n",
                    "      \"rounds_per_sec\": {:.1},\n",
                    "      \"resident_clients\": {},\n",
                    "      \"current_rss_bytes\": {},\n",
                    "      \"peak_rss_bytes\": {}\n",
                    "    }}"
                ),
                p.population,
                p.cohort,
                p.rounds_per_sec,
                p.resident_clients,
                p.current_rss_bytes
                    .map_or_else(|| "null".to_string(), |b| b.to_string()),
                p.peak_rss_bytes
                    .map_or_else(|| "null".to_string(), |b| b.to_string()),
            )
        })
        .collect();

    let kernels = [
        fab,
        pool_dispatch,
        topk_report,
        cnn_report,
        eval_report,
        wire_encode,
        wire_decode,
        quant_encode,
        quant_decode,
        ckpt_save,
        ckpt_load,
        telemetry_record,
    ];
    let body: Vec<String> = kernels.iter().map(KernelReport::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"selection_kernels\",\n",
            "  \"workload\": {{ \"dim\": {}, \"clients\": {}, \"k\": {} }},\n",
            "  \"cores\": {},\n",
            "  \"peak_rss_bytes\": {},\n",
            "  \"kernels\": [\n{}\n  ],\n",
            "  \"telemetry\": {{\n",
            "    \"spans\": [\n{}\n    ],\n",
            "    \"pool\": {}\n",
            "  }},\n",
            "  \"scale\": [\n{}\n  ]\n",
            "}}\n"
        ),
        FAB_DIM,
        FAB_CLIENTS,
        FAB_K,
        cores,
        peak_rss_json,
        body.join(",\n"),
        telemetry_spans_json.join(",\n"),
        telemetry_pool_json,
        scale_points_json.join(",\n")
    );
    std::fs::write(&out_path, json).expect("failed to write bench report");
    eprintln!("bench-report: wrote {out_path}");

    // Append this run to the history log (one JSON object per line), so
    // selection-kernel regressions across PRs stay visible.
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let history_kernels: Vec<String> = kernels.iter().map(KernelReport::to_history_json).collect();
    let line = format!(
        "{{\"unix_time\":{},\"suite\":\"selection_kernels\",\"workload\":{{\"dim\":{},\"clients\":{},\"k\":{}}},\"cores\":{},\"peak_rss_bytes\":{},\"kernels\":[{}]}}\n",
        unix_secs,
        FAB_DIM,
        FAB_CLIENTS,
        FAB_K,
        cores,
        peak_rss_json,
        history_kernels.join(",")
    );
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .expect("failed to open bench history");
    history
        .write_all(line.as_bytes())
        .expect("failed to append bench history");
    // The telemetry suite gets its own history line: the recorded-vs-noop
    // overhead pair plus the stage quantiles and pool occupancy from the
    // recorded rounds, so both the *cost* of instrumentation and the
    // *shape* of a round (stage shares, worker balance) are tracked.
    let telemetry_line = format!(
        "{{\"unix_time\":{},\"suite\":\"telemetry\",\"workload\":{{\"dim\":{},\"clients\":{},\"k\":{}}},\"noop_ns_per_round\":{:.1},\"recorded_ns_per_round\":{:.1},\"overhead_fraction\":{:.4},\"spans\":[{}],\"pool\":{}}}\n",
        unix_secs,
        telem_dim,
        TELEM_CLIENTS,
        TELEM_K,
        telem_seed_ns,
        telem_scratch_ns,
        telem_scratch_ns / telem_seed_ns - 1.0,
        telemetry_spans.join(","),
        telemetry_pool_json
    );
    history
        .write_all(telemetry_line.as_bytes())
        .expect("failed to append telemetry history");
    // The scale sweep gets its own history line (suite "scale_sweep"):
    // per-population rounds/sec and RSS, so the flat-memory claim is
    // tracked across PRs, not just asserted once.
    history
        .write_all(scale.history_json_line(unix_secs).as_bytes())
        .expect("failed to append scale-sweep history");
    eprintln!("bench-report: appended to {history_path}");
}
