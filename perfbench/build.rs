//! Stamps the binary with the build facts every result carries: the rustc
//! version, the git revision (when the tree is a git checkout) and an
//! FNV-1a digest of the sources it was built from, which identifies the
//! code even where no git metadata exists.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Source trees whose contents decide the benchmark's behaviour.
const SOURCE_DIRS: [&str; 3] = ["../crates", "../vendor", "src"];

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    for dir in SOURCE_DIRS {
        println!("cargo:rerun-if-changed={dir}");
    }
    println!("cargo:rerun-if-changed=Cargo.toml");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = command_line(Command::new(rustc).arg("--version"));
    let git_rev = command_line(Command::new("git").arg("-C").arg(&manifest).args([
        "rev-parse",
        "--short=12",
        "HEAD",
    ]));

    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        collect(&manifest.join(dir), &mut files);
    }
    files.push(manifest.join("Cargo.toml"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(&manifest).unwrap_or(file);
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_FNV={hash:016x}");
}

/// First line of a command's standard output, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Every regular file under `path` (or `path` itself), skipping build
/// output directories.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        collect(&p, out);
    }
}
