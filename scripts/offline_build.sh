#!/bin/bash
# Builds the library crates the benchmark links, and their dependencies,
# with bare rustc, without cargo, into one directory of rlibs named by their
# extern names (`librand.rlib`, `libpreqr_nn.rlib`, ...). `perfbench/build.sh`
# (and so `perfbench/run.py`) builds its binary against these rlibs.
# `preqr-bench` and the facade are not built here; for them and everything
# else use cargo (`cargo build --release && cargo test -q`).
# Usage:
#   scripts/offline_build.sh [-O]     # build the benchmark's rlibs
# Env: OUT=/tmp/preqr-offline/out (default; -O appends "-O")
set -e
OPT=""
if [ "$1" = "-O" ]; then OPT="-O"; shift; fi
REPO=$(cd "$(dirname "$0")/.." && pwd)
OUT=${OUT:-/tmp/preqr-offline/out$OPT}
mkdir -p "$OUT"
RUSTC="rustc --edition 2021 $OPT -Awarnings -L $OUT --out-dir $OUT"

# The workspace RNG, under the extern name its dependents use.
$RUSTC --crate-type rlib --crate-name rand "$REPO/crates/rand/src/lib.rs"
RAND="--extern rand=$OUT/librand.rlib"

lib() { # lib <crate_name> <path> <externs...>
  local name=$1 path=$2; shift 2
  echo "[build] $name"
  $RUSTC --crate-type rlib --crate-name "$name" "$path" "$@"
}

X() { echo "--extern $1=$OUT/lib$1.rlib"; }

lib preqr_obs   "$REPO/crates/obs/src/lib.rs"
lib preqr_sql   "$REPO/crates/sql/src/lib.rs"
lib preqr_schema "$REPO/crates/schema/src/lib.rs"
lib preqr_automaton "$REPO/crates/automaton/src/lib.rs" $(X preqr_sql)
OBS=$(X preqr_obs)
lib preqr_nn    "$REPO/crates/nn/src/lib.rs" $RAND $OBS
lib preqr_train "$REPO/crates/train/src/lib.rs" $RAND $(X preqr_nn) $OBS
lib preqr_engine "$REPO/crates/engine/src/lib.rs" $RAND $(X preqr_sql) $(X preqr_schema) $OBS
lib preqr_data  "$REPO/crates/data/src/lib.rs" $RAND $(X preqr_sql) $(X preqr_schema) $(X preqr_engine)
lib preqr       "$REPO/crates/core/src/lib.rs" $RAND $(X preqr_nn) $(X preqr_train) $(X preqr_sql) $(X preqr_automaton) $(X preqr_schema) $OBS
lib preqr_baselines "$REPO/crates/baselines/src/lib.rs" $RAND $(X preqr_nn) $(X preqr_sql) $(X preqr_engine)
lib preqr_tasks "$REPO/crates/tasks/src/lib.rs" $RAND $(X preqr_nn) $(X preqr_train) $(X preqr_sql) $(X preqr_engine) $(X preqr_data) $(X preqr) $(X preqr_baselines) $OBS
lib preqr_serve "$REPO/crates/serve/src/lib.rs" $(X preqr_nn) $(X preqr_sql) $(X preqr) $OBS
echo "[build] done -> $OUT"
