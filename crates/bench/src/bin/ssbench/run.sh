#!/usr/bin/env bash
# Builds the production server and the benchmark from source, then runs
# the benchmark with the arguments given. Run it from the repository
# root: `bash crates/bench/src/bin/ssbench/run.sh --seed 1`.
#
# Both builds go to $CARGO_TARGET_DIR (default: target), which is also
# where ssbench looks for release/shapesearch and keeps its own files
# (ssbench/: server logs, trace.json). Nothing is written elsewhere.
set -euo pipefail
here="$(dirname "$0")"
if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "run.sh: run me from the root of a shapesearch checkout (no Cargo.toml and crates/server here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --bin shapesearch >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/ssbench" "$@"
