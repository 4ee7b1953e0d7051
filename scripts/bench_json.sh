#!/usr/bin/env bash
# Record the performance benchmarks as machine-readable JSON.
#
# Builds the release `sd` binary, runs the three baseline-feeding
# experiments through the provenance harness (`sd lab run`), journaling
# every trial — full config, git commit + dirty flag, rustc version —
# into lab-journal.jsonl, then regenerates BENCH_fastpath.json,
# BENCH_slowpath.json and BENCH_flowstate.json from the journal with
# `sd lab emit`, all in the repo root, so the piece-automaton throughput
# trajectory, the slow-path dispatch speedup, and the flow-table
# occupancy sweep are checked in next to the code that changed them.
# `sd lab compare` diffs a fresh journal against the checked-in
# baselines: it is the one perf-regression gate, locally and in CI.
#
# Pass --smoke for the short CI profile, or extra `sd lab run` flags
# (e.g. --rounds N) through "$@". The journal is append-only: re-runs
# accumulate history, and emit always reads the latest run per
# experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p sd-cli
SD=target/release/sd

for experiment in fastpath-matcher-mix slowpath-lane-shed flowstate-occupancy; do
  "$SD" lab run "$experiment" --journal lab-journal.jsonl "$@"
done
"$SD" lab emit --journal lab-journal.jsonl --out-dir .
echo "journal: $PWD/lab-journal.jsonl"
