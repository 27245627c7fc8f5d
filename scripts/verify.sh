#!/usr/bin/env bash
# Tier-1 verification plus the doc and formatting gates, so doc rot and
# formatting drift fail fast. Run from anywhere inside the repository.
#
#   scripts/verify.sh          # build + tests + clippy + docs + fmt
#   scripts/verify.sh --quick  # skip the full workspace test pass and clippy
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo test -q (tier-1: root integration tests)"
cargo test -q

step "resume equivalence (interrupted + resumed runs are bit-identical)"
cargo test -q -p agsfl-fl resume
cargo test -q -p agsfl-core resume

step "decode fuzz (hostile frames never panic the wire layer)"
cargo test -q -p agsfl-wire --test decode_fuzz

step "snapshot codec (one checkpoint codec: unit tests, AGCK byte pins, hostile run files)"
# agsfl_wire::snapshot writes every checkpoint byte: its unit tests, the
# run-file hashes pinned per controller type at every worker count, and
# truncated, bit-flipped and length-bombed run files that must resume or
# fail typed, never panic or allocate on a corrupt length.
cargo test -q -p agsfl-wire --lib snapshot
cargo test -q -p agsfl-core --test checkpoint_format
cargo test -q -p agsfl-core --test checkpoint_fuzz

step "lossy tier (quantize/dequantize contracts + seed-reproducibility pins)"
cargo test -q -p agsfl-wire --test quantized_roundtrip
cargo test -q -p agsfl-fl --test lossy_reproducibility
cargo test -q -p agsfl-core qlinear8

step "round path (zero-rate equivalence, faulty Serial-vs-parallel, deadline, pricing and resume unit tests)"
# The round engine's own unit tests: one pipelined pass for clean and
# faulty rounds alike, priced by one formula.
cargo test -q -p agsfl-fl --lib simulation::tests

step "selection (the one server selection path against the seed reference)"
# select_into is the only selection path: reference equivalence for all
# five sparsifiers, scratch reuse, degenerate inputs, out-of-range panics.
cargo test -q -p agsfl-sparse --test select_equivalence
cargo test -q -p agsfl-sparse --lib

step "pool gate (goldens + lossy pins bit-identical through the worker pool at every worker count)"
# golden_trajectory and lossy_reproducibility sweep Serial/2/4/8 workers
# internally, so one pass covers the serial reference and three pool
# configurations; pool_lifecycle pins reuse-without-respawn across rounds;
# cohort_determinism pins eager and lazy cohorts, clean and outage-heavy,
# Serial against 2-8 workers and through checkpoint/resume (shards are
# materialized on the workers).
cargo test -q -p agsfl-fl --test golden_trajectory
cargo test -q -p agsfl-fl --test lossy_reproducibility
cargo test -q -p agsfl-fl --test pool_lifecycle
cargo test -q -p agsfl-fl --test cohort_determinism

step "bounded-RSS smoke (N=10^5 cohort rounds under a 256 MiB peak-RSS assertion)"
cargo run --release --example million_clients -- --smoke

step "telemetry gate (recording is observation-only; metrics files byte-identical across runs)"
# telemetry_determinism pins recorded == unrecorded trajectories at
# Serial/2/4/8 workers and bounds the recorded round's overhead against
# the noop round; metrics_jsonl pins the JSONL sink output of two
# identical seeded runs byte-for-byte and the recorded checkpoint/resume
# path bit-identical.
cargo test -q -p agsfl-fl --test telemetry_determinism
cargo test -q -p agsfl-core --test metrics_jsonl

step "benchmark unit tests (perfbench's own logic: metric catalogue, tail rule, digests)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

if [[ "$quick" -eq 0 ]]; then
    step "cargo test --workspace -q (full suite)"
    cargo test --workspace -q

    step "cargo clippy --workspace (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "cargo fmt --check"
cargo fmt --check

printf '\nverify: all gates passed\n'
