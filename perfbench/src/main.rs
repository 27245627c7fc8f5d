//! The repository benchmark: end-to-end round metrics (untraced runs) and a
//! per-layer ledger (traced runs) on three closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cnn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run measures one workload in its own process, so `peak_rss_mb` is
//! that workload's alone. It runs as many fixed-length trials — each built
//! from scratch — as fit in `--seconds` on the reference machine, prints a
//! report with units and sample counts, and ends with one JSON line:
//! `correct`, `attempted` and `failed` rounds, and the metrics. A round
//! fails when its trial panics or an output check fails: a non-finite loss,
//! a wrong round count, a digest that differs from another trial of the
//! same seed or from an earlier run of the same code and seed on this
//! machine, or (traced) a serial replay that does not reproduce the
//! threaded digest.

mod ledger;
mod machine;
mod metrics;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use agsfl_exec::Parallelism;
use agsfl_telemetry::{CounterId, SpanId};

use machine::Stamp;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{check_metric_list, median, tail, tail_rounds, MAX_END_TO_END, MAX_PER_LAYER};
use workloads::{run_trial, setup_only, trial_seed, Trial, Workload};

const USAGE: &str =
    "usage: agsfl-perfbench --workload <paper_cnn|million_cohort|lossy_faults> --seed <n> --seconds <n> --trace <0|1>";

/// Fewest rounds an untraced run measures, so the tail percentile always
/// exists.
const MIN_ROUNDS: usize = 2 * stats::TAIL_BEYOND;

/// Fewest set-ups whose median an untraced run reports as `setup_s`.
const MIN_SETUPS: usize = 9;

/// Spans left out of `fl.span_coverage`: downlink pricing overlaps
/// bookkeeping, and the batched forward pass is nested in evaluation.
const OVERLAPPING_SPANS: [SpanId; 2] = [SpanId::DownlinkPricing, SpanId::BatchedForward];

/// A coverage below this is flagged in the report (not failed).
const COVERAGE_FLOOR: f64 = 0.95;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            _ => return Err(format!("unknown argument {flag}")),
        };
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("agsfl-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let stamp = Stamp::probe(args.workload.name(), args.seed, nproc, nproc);
    println!("machine {}", stamp.json());
    let dir = match run_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("agsfl-perfbench: cannot create the run directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut run = Run::new(&args, &stamp, &dir);
    for (list, max) in [
        (&END_TO_END[..], MAX_END_TO_END),
        (&PER_LAYER[..], MAX_PER_LAYER),
    ] {
        if let Err(e) = check_metric_list(list, max) {
            run.problems.push(format!("metric catalogue: {e}"));
        }
    }
    let catalogue: &[(&str, &str)] = if args.trace {
        run.traced();
        &PER_LAYER
    } else {
        run.untraced();
        &END_TO_END
    };
    for name in run.metrics.missing(catalogue) {
        run.problems.push(format!("metric {name} was not measured"));
    }
    for problem in &run.problems {
        println!("FAILED CHECK: {problem}");
    }
    let correct = run.problems.is_empty() && run.failed == 0;
    println!(
        "{}",
        run.metrics
            .result_line(catalogue, correct, run.attempted.max(1), run.failed)
    );
    ExitCode::SUCCESS
}

/// Where runs keep their checkpoints, telemetry streams and the digest
/// history: next to the binary, inside the build directory.
fn run_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| std::io::Error::other("binary has no build directory"))?;
    let dir = target.join("perfbench-runs");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One benchmark run: its trials, counters and the metrics it reports.
struct Run<'a> {
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: Parallelism,
    stamp: &'a Stamp,
    dir: &'a Path,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    /// The process's peak RSS when its first trial ended, in MB.
    first_trial_peak_mb: Option<f64>,
}

impl<'a> Run<'a> {
    fn new(args: &Args, stamp: &'a Stamp, dir: &'a Path) -> Self {
        Self {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            threads: Parallelism::Threads(stamp.threads),
            stamp,
            dir,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::default(),
            first_trial_peak_mb: None,
        }
    }

    /// Runs one trial, counting its rounds as attempted and, if it panics
    /// or fails an output check, as failed.
    fn trial(
        &mut self,
        seed: u64,
        parallelism: Parallelism,
        rounds: usize,
        traced: bool,
    ) -> Option<Trial> {
        let (workload, dir) = (self.workload, self.dir);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_trial(workload, seed, parallelism, rounds, traced, dir)
        }));
        self.attempted += rounds as u64;
        match outcome {
            Ok(trial) => {
                if !trial.problems.is_empty() {
                    self.failed += rounds as u64;
                    self.problems.extend(trial.problems.iter().cloned());
                }
                Some(trial)
            }
            Err(panic) => {
                self.failed += rounds as u64;
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.problems.push(format!("trial panicked: {msg}"));
                None
            }
        }
    }

    /// Trials an untraced run makes: as many as fit in `--seconds` at the
    /// workload's nominal trial time, but at least one per sub-seed and
    /// [`MIN_ROUNDS`] rounds. A count rather than a deadline, so every run
    /// measures the same rounds whatever the machine's speed, and the tail
    /// percentile (which the sample count picks) stays put.
    fn trial_count(&self) -> usize {
        let w = self.workload;
        let fit = (self.seconds / w.trial_seconds()) as usize;
        fit.max(w.subseeds())
            .max(MIN_ROUNDS.div_ceil(w.trial_rounds()))
    }

    /// Fails `trial` on a check made after it ran; its rounds count as
    /// failed once, however many checks it fails.
    fn fail(&mut self, trial: &mut Trial, problem: String) {
        if trial.problems.is_empty() {
            self.failed += trial.rounds() as u64;
        }
        trial.problems.push(problem.clone());
        self.problems.push(problem);
    }

    /// Runs `count` trials; trial `j` runs the workload's sub-seed `j mod K`
    /// of the run's seed (see [`Workload::subseeds`]). Engines are dropped
    /// except the last one's, which the traced run replays on.
    fn trials(&mut self, count: usize, traced: bool) -> Vec<Trial> {
        let rounds = self.workload.trial_rounds();
        let subseeds = self.workload.subseeds();
        let mut trials: Vec<Trial> = Vec::new();
        while trials.len() < count {
            if let Some(last) = trials.last_mut() {
                last.engine = None;
            }
            let seed = trial_seed(self.seed, trials.len() % subseeds);
            let Some(trial) = self.trial(seed, self.threads, rounds, traced) else {
                break;
            };
            println!(
                "trial {} (seed {seed}): setup {:.4} s, k {:?}, round ms {:?}",
                trials.len(),
                trial.setup_s,
                trial.ks,
                trial
                    .round_ms
                    .iter()
                    .map(|&ms| ms.round() as u64)
                    .collect::<Vec<_>>()
            );
            trials.push(trial);
            if self.first_trial_peak_mb.is_none() {
                self.first_trial_peak_mb =
                    agsfl_exec::mem::peak_rss_bytes().map(|b| b as f64 / 1e6);
            }
        }
        self.check_digests(&mut trials);
        trials
    }

    /// Trials of one sub-seed must end in the same digest, and so must
    /// earlier runs of the same code and seed on this machine.
    fn check_digests(&mut self, trials: &mut [Trial]) {
        let subseeds = self.workload.subseeds();
        for i in 0..trials.len() {
            let (first, seed) = (
                trials[i % subseeds].digest,
                trial_seed(self.seed, i % subseeds),
            );
            if i < subseeds {
                println!("digest (seed {seed}) {first:016x}");
                let history = self.dir.join("digests.tsv");
                let stamp = Stamp {
                    seed,
                    ..self.stamp.clone()
                };
                match stamp.check_digest(&history, first) {
                    Ok(None) => {}
                    Ok(Some(earlier)) => {
                        let msg = format!(
                            "digest {first:016x} (seed {seed}) differs from {earlier:016x}, recorded by an earlier run of the same code and seed on this machine"
                        );
                        self.fail(&mut trials[i], msg);
                    }
                    Err(e) => self.problems.push(format!("digest history: {e}")),
                }
            } else if trials[i].digest != first {
                let msg = format!(
                    "trial {i} digest {:016x} differs from trial {} digest {first:016x} (seed {seed})",
                    trials[i].digest,
                    i % subseeds
                );
                self.fail(&mut trials[i], msg);
            }
        }
    }

    /// End-to-end metrics, tracing off. Set-up-only builds join the
    /// trials' own set-ups so `setup_s` is a median of at least
    /// [`MIN_SETUPS`].
    fn untraced(&mut self) {
        let mut setups: Vec<f64> = (1..MIN_SETUPS)
            .map(|_| setup_only(self.workload, self.seed, self.threads))
            .collect();
        let trials = self.trials(self.trial_count(), false);
        if trials.is_empty() {
            return;
        }
        let rounds: Vec<f64> = trials
            .iter()
            .flat_map(|t| t.round_ms.iter().copied())
            .collect();
        let n = rounds.len();
        let m = &mut self.metrics;
        m.set("round_ms_p50", median(&rounds));
        println!(
            "round_ms_p50 = {:.3} ms (median of {n} rounds)",
            median(&rounds)
        );
        let per_trial: Vec<&[f64]> = trials.iter().map(|t| t.round_ms.as_slice()).collect();
        let (sample, folded) = tail_rounds(&per_trial);
        if let Some(t) = tail(&sample) {
            m.set("round_ms_tail", t.value);
            let of = if folded {
                format!(
                    "{} per-round-index medians over {} trials, {n} rounds",
                    sample.len(),
                    trials.len()
                )
            } else {
                format!("{n} rounds")
            };
            println!(
                "round_ms_tail = {:.3} ms (p{} of {of}, {} beyond)",
                t.value, t.percentile, t.beyond
            );
        }
        let samples: u64 = trials.iter().map(|t| t.samples).sum();
        let loop_s: f64 = trials.iter().map(|t| t.loop_s).sum();
        m.set("samples_per_s", samples as f64 / loop_s);
        println!(
            "samples_per_s = {:.1} 1/s ({samples} samples over {loop_s:.2} s of rounds)",
            samples as f64 / loop_s
        );
        setups.extend(trials.iter().map(|t| t.setup_s));
        m.set("setup_s", median(&setups));
        println!(
            "setup_s = {:.4} s (median of {} set-ups)",
            median(&setups),
            setups.len()
        );
        // Read after the first trial, so the figure does not depend on how
        // many trials fit in the run: the heap keeps some of each trial's
        // memory, and a faster build fits more trials.
        let peak = self.first_trial_peak_mb.unwrap_or(f64::NAN);
        m.set("peak_rss_mb", peak);
        println!(
            "peak_rss_mb = {peak:.1} MB (VmHWM of this process after its first trial, 1 sample)"
        );
        println!(
            "final_loss (seed {}) = {} nats (after {} rounds; reported as core.final_loss by traced runs)",
            self.seed,
            trials[0].final_loss,
            trials[0].rounds()
        );
        // Bytes depend on the sub-seed (faults, data), so they are averaged
        // over exactly one trial of each, however many trials fit.
        let first = &trials[..self.workload.subseeds().min(trials.len())];
        let bytes: u64 = first.iter().map(|t| t.comm_bytes).sum();
        let counted: usize = first.iter().map(Trial::rounds).sum();
        let per_round = bytes as f64 / counted.max(1) as f64;
        m.set("comm_bytes_per_round", per_round);
        println!(
            "comm_bytes_per_round = {per_round:.1} B (mean of {counted} rounds over {} seeds)",
            first.len()
        );
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        m.set("round_success_ratio", ok);
        println!(
            "round_success_ratio = {ok} ({} of {} rounds failed: failed_round_ratio {})",
            self.failed,
            self.attempted,
            1.0 - ok
        );
    }

    /// The per-layer ledger: untraced trials for the overhead baseline,
    /// traced trials for the span ledger, a serial-vs-threaded replay, and
    /// replays of single calls on the last traced trial's live state.
    fn traced(&mut self) {
        let mut untraced = self.trials(1, false);
        if let Some(last) = untraced.last_mut() {
            last.engine = None;
        }
        let mut traced = self.trials(1, true);
        if untraced.is_empty() || traced.is_empty() {
            return;
        }
        if untraced[0].digest != traced[0].digest {
            for t in &mut traced {
                self.fail(
                    t,
                    "recording telemetry changed the trajectory digest".into(),
                );
            }
        }
        let rounds: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.round_ms.iter().copied())
            .collect();
        let base: Vec<f64> = untraced
            .iter()
            .flat_map(|t| t.round_ms.iter().copied())
            .collect();
        let n = rounds.len() as f64;
        let per_round = |total: f64| total / n;
        let sum = |f: fn(&Trial) -> f64| traced.iter().map(f).sum::<f64>();

        let m = &mut self.metrics;
        m.set("core.final_loss", traced[0].final_loss);
        m.set("telemetry.traced_round_ms_p50", median(&rounds));
        m.set(
            "telemetry.overhead_frac",
            median(&rounds) / median(&base) - 1.0,
        );
        m.set(
            "core.engine_ms_per_round",
            per_round(sum(|t| t.engine_ms.iter().sum())),
        );
        m.set(
            "core.runner_tail_ms_per_round",
            per_round(sum(|t| t.tail_ms.iter().sum())),
        );
        m.set(
            "online.controller_us",
            per_round(sum(|t| t.controller_ns as f64)) / 1e3,
        );
        let ks: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.ks.iter().map(|&k| k as f64))
            .collect();
        m.set("online.k_p50", median(&ks));
        m.set("online.k_max", ks.iter().copied().fold(0.0, f64::max));
        let lossy = |t: &Trial| {
            t.precisions
                .iter()
                .filter(|p| p.is_some_and(|p| p.codec_spec().is_lossy()))
                .count() as f64
        };
        m.set("wire.lossy_round_share", per_round(sum(lossy)));
        let lost = sum(|t| t.lost_uploads.0 as f64);
        m.set(
            "fl.lost_upload_ratio",
            lost / sum(|t| t.lost_uploads.1 as f64).max(1.0),
        );
        m.set(
            "fl.retransmit_bytes_per_round",
            per_round(sum(|t| t.retransmit_bytes as f64)),
        );

        // The recorder's span ledger and pool counters, over all traced
        // trials.
        let mut rec = agsfl_telemetry::StageRecorder::new();
        let mut dispatch = agsfl_telemetry::Histogram::new();
        let (mut busy, mut idle, mut tasks, mut queue_peak) = (Vec::new(), 0u64, 0u64, 0u64);
        for data in traced.iter().filter_map(|t| t.trace.as_ref()) {
            rec.merge(&data.recorder);
            dispatch.merge(&data.dispatch);
            if let Some(pool) = &data.pool {
                busy.resize(busy.len().max(pool.workers.len()), 0u64);
                for (b, w) in busy.iter_mut().zip(&pool.workers) {
                    *b += w.busy_ns;
                }
                idle += pool.total_idle_ns();
                tasks += pool.total_tasks();
                queue_peak = queue_peak.max(pool.queue_depth_peak);
            }
        }
        let mut covered_ns = 0u64;
        for id in SpanId::ALL {
            let total = rec.span_histogram(id).sum();
            if !OVERLAPPING_SPANS.contains(&id) {
                covered_ns += total;
            }
            m.set(
                &format!("fl.{}_ms", id.name()),
                per_round(total as f64) / 1e6,
            );
        }
        let wall_ms: f64 = rounds.iter().sum();
        let coverage = covered_ns as f64 / 1e6 / wall_ms;
        m.set("fl.span_coverage", coverage);
        let flag = if coverage < COVERAGE_FLOOR {
            format!(" — FLAG: below {COVERAGE_FLOOR}")
        } else {
            String::new()
        };
        println!(
            "fl.span_coverage [{}] = {coverage:.4} (spans without downlink_pricing and batched_forward over {n} rounds of wall time){flag}",
            self.workload.name()
        );
        m.set(
            "wire.uplink_bytes_per_round",
            per_round(rec.counter_total(CounterId::UplinkBytes) as f64),
        );
        m.set(
            "wire.downlink_bytes_per_round",
            per_round(rec.counter_total(CounterId::DownlinkBytes) as f64),
        );
        let busy_total: u64 = busy.iter().sum();
        m.set(
            "exec.busy_frac",
            busy_total as f64 / (busy_total + idle).max(1) as f64,
        );
        let mean_busy = busy_total as f64 / busy.len().max(1) as f64;
        let max_busy = busy.iter().copied().max().unwrap_or(0) as f64;
        m.set(
            "exec.imbalance",
            if mean_busy > 0.0 {
                max_busy / mean_busy
            } else {
                0.0
            },
        );
        m.set("exec.tasks_per_round", per_round(tasks as f64));
        m.set("exec.queue_depth_peak", queue_peak as f64);
        m.set(
            "exec.dispatch_us_p50",
            dispatch.p50().map_or(0.0, |ns| ns as f64 / 1e3),
        );

        self.parallel_replay();

        let last = traced.last().expect("at least one traced trial");
        let Some(engine) = &last.engine else {
            return;
        };
        self.metrics.set(
            "fl.resident_clients",
            engine.sim().resident_clients() as f64,
        );
        // Replays run at the k and precision tier of the trial's median-k
        // round: the last round's k may be the schedule's cheapest.
        let mut order: Vec<usize> = (0..last.ks.len()).collect();
        order.sort_by_key(|&i| last.ks[i]);
        let round = order.get(order.len() / 2).copied().unwrap_or(0);
        let live = ledger::Live {
            sim: engine.sim(),
            workload: self.workload,
            clients: &last.last_cohort,
            k: last.ks.get(round).copied().unwrap_or(1),
            precision: last.precisions.get(round).copied().flatten(),
            seed: self.seed,
        };
        ledger::replay(&live, &mut self.metrics, &mut self.problems);
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.metrics.get(name) {
                println!("{name} = {v} {unit}");
            }
        }
    }

    /// The first rounds at `Serial` and at the threaded setting: the
    /// speed-up, and the serial run must reproduce the threaded digest.
    fn parallel_replay(&mut self) {
        let (rounds, threads) = (self.workload.replay_rounds(), self.threads);
        let mut replay = |parallelism| {
            let mut trial = self.trial(self.seed, parallelism, rounds, false)?;
            trial.engine = None;
            Some(trial)
        };
        let serial = replay(Parallelism::Serial);
        let threaded = replay(threads);
        let (Some(mut serial), Some(threaded)) = (serial, threaded) else {
            return;
        };
        if serial.digest != threaded.digest {
            let msg = format!(
                "serial digest {:016x} differs from threaded digest {:016x}",
                serial.digest, threaded.digest
            );
            self.fail(&mut serial, msg);
        }
        self.metrics
            .set("exec.parallel_speedup", serial.loop_s / threaded.loop_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = args("--workload lossy_faults --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::LossyFaults, 7, 30.0, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 30 --trace 1").is_err());
        assert!(args("--workload paper_cnn --seed 7 --seconds 30 --trace 2").is_err());
        assert!(args("--workload paper_cnn --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload paper_cnn --seed 7 --trace 0").is_err());
        assert!(args("--workload paper_cnn --seed 7 --seconds 30 --trace 0 --x 1").is_err());
    }
}
