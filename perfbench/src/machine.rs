//! The machine and build stamp every result carries, and the per-machine
//! digest history that catches a run disagreeing with an earlier run of
//! the same code and seed.

use std::io::Write as _;
use std::path::Path;

/// Machine and build facts. Results are comparable only when the machine
/// fields (`cpu`, `nproc`, `threads`) agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Worker-pool threads the workloads run with.
    pub threads: usize,
    /// `rustc --version` of the build.
    pub rustc: &'static str,
    /// Git revision of the build, `unknown` outside a git checkout.
    pub git_rev: &'static str,
    /// FNV-1a of the sources the binary was built from.
    pub source: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
}

impl Stamp {
    /// Probes the machine for a run of `workload` with `seed`.
    pub fn probe(workload: &'static str, seed: u64, nproc: usize, threads: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            nproc,
            threads,
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: env!("PERFBENCH_GIT_REV"),
            source: env!("PERFBENCH_SOURCE_FNV"),
            workload,
            seed,
        }
    }

    /// The stamp as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cpu\": {:?}, \"nproc\": {}, \"threads\": {}, \"rustc\": {:?}, \"git_rev\": {:?}, \"source_fnv\": {:?}, \"workload\": {:?}, \"seed\": {}}}",
            self.cpu,
            self.nproc,
            self.threads,
            self.rustc,
            self.git_rev,
            self.source,
            self.workload,
            self.seed
        )
    }

    /// The key under which digests are compared: same code, same machine,
    /// same workload, same seed.
    fn key(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.workload,
            self.seed,
            self.source,
            self.cpu.replace('\t', " "),
            self.nproc,
            self.threads
        )
    }

    /// Compares `digest` against the digests earlier runs with the same key
    /// recorded in `history`, then records it. Returns the earlier digest
    /// it disagrees with, if any.
    pub fn check_digest(&self, history: &Path, digest: u64) -> std::io::Result<Option<u64>> {
        let key = self.key();
        let earlier = std::fs::read_to_string(history).unwrap_or_default();
        let clash = earlier.lines().find_map(|line| {
            let (k, d) = line.rsplit_once('\t')?;
            let d = u64::from_str_radix(d, 16).ok()?;
            (k == key && d != digest).then_some(d)
        });
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(history)?;
        writeln!(file, "{key}\t{digest:016x}")?;
        Ok(clash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_history_flags_only_disagreeing_runs_with_the_same_key() {
        // Inside the build directory, next to the test binary.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.with_file_name(format!("perfbench-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let history = dir.join("digests.tsv");
        let _ = std::fs::remove_file(&history);
        let stamp = Stamp::probe("paper_cnn", 7, 2, 2);
        assert_eq!(stamp.check_digest(&history, 0xAB).unwrap(), None);
        assert_eq!(stamp.check_digest(&history, 0xAB).unwrap(), None);
        assert_eq!(stamp.check_digest(&history, 0xCD).unwrap(), Some(0xAB));
        // Another seed or another machine is not compared.
        let other_seed = Stamp {
            seed: 8,
            ..stamp.clone()
        };
        assert_eq!(other_seed.check_digest(&history, 0xEF).unwrap(), None);
        let other_machine = Stamp {
            threads: 4,
            ..stamp
        };
        assert_eq!(other_machine.check_digest(&history, 0xEF).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
