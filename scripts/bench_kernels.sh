#!/usr/bin/env bash
# Kernel benchmark: serial reference kernels vs packed fast paths.
# Runs crates/bench/src/bin/bench_kernels.rs and writes
# results/BENCH_kernels.json.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results

# No target-cpu flag: the binary measures the program as shipped, whose
# packed microkernel picks its AVX-512/AVX2/baseline clone at runtime (the
# JSON header records which). A caller's own RUSTFLAGS still apply.
exec cargo run --release -p preqr-bench --bin bench_kernels
