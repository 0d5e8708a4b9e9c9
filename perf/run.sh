#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; every argument goes to
# the `perf` binary. See perf/README.md for the modes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means relative to the caller's directory.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
  export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
# perf/.cargo/config.toml (target-dir = ../target) applies from here, and
# the binary writes its span files to ./out.
cd "$here"
cargo build --release --offline --quiet
exec "${CARGO_TARGET_DIR:-$here/../target}/release/perf" "$@"
