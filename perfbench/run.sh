#!/usr/bin/env bash
# Builds the `amnesiac` CLI and the benchmark binary from source (release,
# offline), then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the benchmark's last stdout line is the JSON
# result. Fails without a result when the repository sources are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" -p amnesiac-cli >&2
cargo build --release --offline -q --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/amnesiac-perfbench" --amnesiac "$CARGO_TARGET_DIR/release/amnesiac" "$@"
