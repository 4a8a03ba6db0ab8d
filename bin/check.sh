#!/bin/sh
# CI entry point: full build, the whole test suite, one representative
# bench (fig4b reproduces the paper's headline warmup result) as a smoke
# test of the simulation + telemetry stack, and the quick interpreter
# perf A/B (validates its own JSON and fails on cached/uncached divergence).
set -e
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# Static verification gate: every example program and the synthetic
# codegen app must pass the bytecode verifier with zero error-severity
# diagnostics (the verify subcommand exits 3 otherwise).
for f in examples/*.mh; do
  dune exec bin/minihack_run.exe -- verify "$f" > /dev/null
done
dune exec bin/minihack_run.exe -- verify --codegen tiny > /dev/null

# Dataflow analysis gate: the same corpus must come through the full
# analysis (type state, constant propagation, liveness) with zero
# error-severity A4xx/V1xx diagnostics (the analyze subcommand exits 3
# otherwise; warnings are allowed).
for f in examples/*.mh; do
  dune exec bin/minihack_run.exe -- analyze "$f" > /dev/null
done
dune exec bin/minihack_run.exe -- analyze --codegen tiny > /dev/null

dune exec bench/main.exe -- fig4b
# §IV-A: exits 1 when the seeder pipeline does not fit the ~30 min C2 phase
dune exec bench/main.exe -- lifespan
dune exec bench/main.exe -- perf --quick
test -s BENCH_interp.quick.json
# on the macro app the translated loop must match the reference loop on
# results, echo output, step counts and the serialized tier-1 profile
grep -q '"outputs_identical": true' BENCH_interp.quick.json

# Interpreter differential: every example program must print the same
# output, result and step count on the translated loop as on the reference
# loop (--no-inline-cache).
for f in examples/*.mh; do
  dune exec bin/minihack_run.exe -- run "$f" > /tmp/interp_product.out
  dune exec bin/minihack_run.exe -- run --no-inline-cache "$f" > /tmp/interp_reference.out
  if ! diff /tmp/interp_product.out /tmp/interp_reference.out; then
    echo "interp differential: $f: translated loop differs from the reference loop" >&2
    exit 1
  fi
done
rm -f /tmp/interp_product.out /tmp/interp_reference.out

# Distribution ablation (~2 s, no wall-clock fields): a full rerun must
# reproduce the committed BENCH_dist.json byte for byte.
dune exec bench/main.exe -- dist --out /tmp/bench_dist.json
cmp /tmp/bench_dist.json BENCH_dist.json
rm -f /tmp/bench_dist.json

# §VI reliability ablations on the discrete-event push simulator; each exits
# 1 when its claim fails: crashes fall strictly from 1 to 8 seeders per
# bucket, catch rate 1.0 publishes no bad package, and fallback bounds the
# damage of an all-bad push while its absence leaves the fleet crash-looping.
dune exec bench/main.exe -- ablation-seeders ablation-validation ablation-fallback

# Discrete-event push smoke test: a short rolling push routed through a
# faulty delivery network must serve traffic (nonzero sim.* counters),
# jump-start every restarted server and finish with zero crashes.
dune exec bin/push_sim.exe -- --servers 16 --duration 300 --push-at 60 \
  --fetch-fail-rate 0.3 --fetch-timeout 1.0 --stale-rate 0.1 \
  --telemetry json > /tmp/push_smoke.json
grep -q '"sim.requests"' /tmp/push_smoke.json
grep -q '"sim.completed"' /tmp/push_smoke.json
grep -q '"sim.jump_started"' /tmp/push_smoke.json
if grep -q '"sim.crashes"' /tmp/push_smoke.json; then
  echo "push smoke: unexpected crashes" >&2
  exit 1
fi
rm -f /tmp/push_smoke.json

# Quick push A/B (Jump-Start vs baseline, warmup-aware vs random routing);
# validates its own JSON and fails if Jump-Start is statistically
# significantly worse than the recorded expectation on capacity loss or
# time-to-full-capacity (Exp.Gate paired significance tests over replicate
# seeds), or loses on push-window p99.
dune exec bench/main.exe -- push --quick
test -s BENCH_push.quick.json
grep -q '"gates"' BENCH_push.quick.json
grep -q '"js_capacity_loss_not_significantly_regressed": true' BENCH_push.quick.json

# The full push grid (no wall-clock fields): a rerun must reproduce the
# committed BENCH_push.json byte for byte, digests included.
dune exec bench/main.exe -- push --out /tmp/bench_push.json
cmp /tmp/bench_push.json BENCH_push.json
rm -f /tmp/bench_push.json

# Warmup-statistics bench: changepoint segmentation + warmup-taxonomy
# classification over a seeds x {nojs, js} matrix.  The criteria grepped
# here are the tentpole claims: classification is deterministic across a
# full matrix rerun, Jump-Start eliminates a pathological classification
# (slowdown / no-steady-state) that the baseline exhibits, and the fleet
# time-to-steady win clears its bootstrap CI gate (verdict "improved").
dune exec bench/main.exe -- warmup --quick
test -s BENCH_warmup.quick.json
grep -q '"classification_deterministic": true' BENCH_warmup.quick.json
grep -q '"js_eliminates_pathology": true' BENCH_warmup.quick.json
grep -q '"js_tts_ci_win": true' BENCH_warmup.quick.json
grep -q '"verdict": "improved"' BENCH_warmup.quick.json
# The full matrix drives the macro model through Region on its own server
# config: a rerun must reproduce the committed BENCH_warmup.json.
dune exec bench/main.exe -- warmup --out /tmp/bench_warmup.json
cmp /tmp/bench_warmup.json BENCH_warmup.json
rm -f /tmp/bench_warmup.json

# Multi-region disaster smoke test: a 3-region global fleet loses one whole
# region mid-push.  The loss must drain via generation bumps (zero crashes)
# while spillover reroutes the lost region's traffic (nonzero spill
# counters in the telemetry document).
dune exec bin/push_sim.exe -- --servers 12 --duration 300 --push-at 60 \
  --regions 3 --spillover --spill-latency 15 --epoch 15 \
  --lose-region 1 --lose-at 120 \
  --telemetry json > /tmp/region_smoke.json
grep -q '"sim.spill_out"' /tmp/region_smoke.json
grep -q '"sim.spill_in"' /tmp/region_smoke.json
grep -q '"sim.region_lost"' /tmp/region_smoke.json
if grep -q '"sim.crashes"' /tmp/region_smoke.json; then
  echo "region smoke: unexpected crashes" >&2
  exit 1
fi
rm -f /tmp/region_smoke.json

# Parallel-mode disaster smoke test: the same region-loss scenario on two
# OCaml domains must survive (zero crashes, spill + loss telemetry present)
# and produce the exact digest of the sequential epoch-barrier run.
dune exec bin/push_sim.exe -- --servers 12 --duration 300 --push-at 60 \
  --regions 3 --spillover --spill-latency 15 --epoch 15 \
  --lose-region 1 --lose-at 120 \
  --mode parallel --domains 2 \
  --telemetry json > /tmp/par_smoke.json
grep -q '"sim.spill_out"' /tmp/par_smoke.json
grep -q '"sim.region_lost"' /tmp/par_smoke.json
if grep -q '"sim.crashes"' /tmp/par_smoke.json; then
  echo "parallel smoke: unexpected crashes" >&2
  exit 1
fi
rm -f /tmp/par_smoke.json
epoch_digest=$(dune exec bin/push_sim.exe -- --servers 12 --duration 300 --push-at 60 \
  --regions 3 --spillover --spill-latency 15 --epoch 15 \
  --lose-region 1 --lose-at 120 --mode epoch --digest | grep 'global digest')
par_digest=$(dune exec bin/push_sim.exe -- --servers 12 --duration 300 --push-at 60 \
  --regions 3 --spillover --spill-latency 15 --epoch 15 \
  --lose-region 1 --lose-at 120 --mode parallel --domains 2 --digest | grep 'global digest')
if [ "$epoch_digest" != "$par_digest" ]; then
  echo "parallel smoke: digest diverged from epoch mode" >&2
  echo "  epoch:    $epoch_digest" >&2
  echo "  parallel: $par_digest" >&2
  exit 1
fi
# The merged run (every region on one shared queue) is the reference the
# barrier loop is checked against: same scenario, same digest.
merged_digest=$(dune exec bin/push_sim.exe -- --servers 12 --duration 300 --push-at 60 \
  --regions 3 --spillover --spill-latency 15 --epoch 15 \
  --lose-region 1 --lose-at 120 --mode merged --digest | grep 'global digest')
if [ "$epoch_digest" != "$merged_digest" ]; then
  echo "merged smoke: digest diverged from epoch mode" >&2
  echo "  epoch:  $epoch_digest" >&2
  echo "  merged: $merged_digest" >&2
  exit 1
fi

# A config the simulator rejects (a non-finite duration, no buckets, no
# replicate seeds, no regions, a bad fault record, a non-finite region
# phase or arrival setting) is a usage error: exit status 2, never a hang,
# a silently fault-free run or an uncaught exception.  The = form keeps
# cmdliner from reading -1 as an option.
for args in "--duration nan --regions 2 --epoch 15" "--buckets 0" \
  "--classify --seeds 0" "--regions 0" "--fetch-fail-rate=nan" \
  "--fetch-latency=-1" "--stale-rate=1.5" "--fetch-timeout=inf" \
  "--regions 2 --epoch 15 --region-phase=inf" "--diurnal-amp nan" \
  "--utilization inf"; do
  status=0
  timeout 60 dune exec bin/push_sim.exe -- --servers 8 $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "push_sim $args: exited $status, expected 2" >&2
    exit 1
  fi
done
# Extreme but finite diurnal settings must run to completion: a 1e-306 s
# period, or a 1e308 s region phase, once overflowed the sinusoid's
# argument and stalled the arrival process forever.
for args in "--diurnal-period 1e-306" "--regions 2 --epoch 15 --region-phase 1e308"; do
  status=0
  timeout 60 dune exec bin/push_sim.exe -- --servers 8 --duration 200 --push-at 60 \
    --diurnal-amp 0.5 $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "push_sim --diurnal-amp 0.5 $args: exited $status, expected 0" >&2
    exit 1
  fi
done

# Churn smoke test: a package seeded on build 0 must be salvaged against a
# churned build through the stale-profile matcher (nonzero match.* counters,
# churn-0 byte-identical transfer, salvaged boot beating no-Jump-Start on
# time-to-steady-state; the bench exits 1 if any criterion fails).
dune exec bench/main.exe -- churn --quick
test -s BENCH_churn.quick.json
grep -q '"churn0_digest_identical": true' BENCH_churn.quick.json
grep -q '"smallest_churn_salvaged": true' BENCH_churn.quick.json
grep -q '"salvage_beats_nojs_tts": true' BENCH_churn.quick.json
# The full churn sweep's macro columns call Server.make_package and the
# server model directly: a rerun must reproduce the committed BENCH_churn.json.
dune exec bench/main.exe -- churn --out /tmp/bench_churn.json
cmp /tmp/bench_churn.json BENCH_churn.json
rm -f /tmp/bench_churn.json

# Quick scale bench: a global fleet run on the barrier loop must match the
# merged queue and the parallel run byte-for-byte, and arrival batching must
# be digest-neutral; validates its own JSON and must emit the parallel and
# batching sections.
dune exec bench/main.exe -- scale --quick
test -s BENCH_scale.quick.json
grep -q '"parallel"' BENCH_scale.quick.json
grep -q '"batching"' BENCH_scale.quick.json
