#!/bin/sh
# Rewrites every golden that crates/experiments/tests/scenario_golden.rs
# checks: the stdout of each expt_* binary (the bench snapshot excluded,
# its output is wall-clock timings) and each manifest a binary emits,
# all captured at one worker thread. Run it from the repository root
# only for a deliberate contract change, then review
# `git diff crates/experiments/golden/` and follow the
# golden-regeneration policy in DESIGN.md.
#
# golden/f6_faulted_manifest.json is written by no binary; its test in
# tests/obs_manifest.rs says how to regenerate it.
set -eu

cargo build --release --quiet -p ami-experiments
bin="${CARGO_TARGET_DIR:-target}/release"
golden=crates/experiments/golden

unset AMBIENCE_FAULTS AMBIENCE_MANIFEST AMBIENCE_SCENARIO
export AMBIENCE_THREADS=1

for src in crates/experiments/src/bin/expt_*.rs; do
    name=$(basename "$src" .rs)
    [ "$name" = expt_bench_snapshot ] && continue
    "$bin/$name" > "$golden/${name#expt_}.stdout.txt"
done

AMBIENCE_MANIFEST="$golden/f3_manifest.json" "$bin/expt_f3_cs1_duty_cycle" > /dev/null
AMBIENCE_MANIFEST="$golden/f6_manifest.json" "$bin/expt_f6_network_scaling" > /dev/null
AMBIENCE_MANIFEST="$golden/f13_manifest.json" "$bin/expt_f13_lossy_network" > /dev/null
AMBIENCE_MANIFEST="$golden/t3_manifest.json" "$bin/expt_t3_mac_comparison" > /dev/null
AMBIENCE_FAULTS="death=0.12,outage=0.2:40,link=0.15:30" \
    AMBIENCE_MANIFEST="$golden/f13_faulted_manifest.json" \
    "$bin/expt_f13_lossy_network" > /dev/null
