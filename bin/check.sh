#!/bin/sh
# CI entry point: full build, the whole test suite, one representative
# bench (fig4b reproduces the paper's headline warmup result) as a smoke
# test of the simulation + telemetry stack, and the quick interpreter
# perf A/B (validates its own JSON and fails on cached/uncached divergence).
set -e
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# Every example runs to completion.  seeder_consumer drives the consumer
# boot path end to end: publish, jump-start, an all-corrupt store and a
# JIT-bug fallback.
for f in examples/*.ml; do
  dune exec "examples/$(basename "$f" .ml).exe" > /dev/null
done

# Block layout must not depend on the hash seed: the layout tests, golden
# block orders included, pass with randomized hash tables, and the layout
# ablation prints the same bytes with and without them.
OCAMLRUNPARAM=R dune exec test/test_layout.exe > /dev/null
dune exec bench/main.exe -- ablation-layout > /tmp/ablation_layout.out
OCAMLRUNPARAM=R dune exec bench/main.exe -- ablation-layout > /tmp/ablation_layout_r.out
cmp /tmp/ablation_layout.out /tmp/ablation_layout_r.out
rm -f /tmp/ablation_layout.out /tmp/ablation_layout_r.out

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

# Package tool: collect a package, then inspect, verify and replay it (each
# exits 0).  Verifying it against another program's repo, or verifying a
# truncated copy, is a decode failure and must exit exactly 3 (an uncaught
# exception exits 2).
dune exec bin/jspkg.exe -- collect examples/wordcount.mh -o /tmp/jspkg_wc.jspkg > /dev/null
for cmd in inspect verify replay; do
  dune exec bin/jspkg.exe -- $cmd /tmp/jspkg_wc.jspkg examples/wordcount.mh > /dev/null
done
head -c 100 /tmp/jspkg_wc.jspkg > /tmp/jspkg_wc_cut.jspkg
for args in "/tmp/jspkg_wc.jspkg examples/collatz.mh" \
  "/tmp/jspkg_wc_cut.jspkg examples/wordcount.mh"; do
  status=0
  dune exec bin/jspkg.exe -- verify $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 3 ]; then
    echo "jspkg verify $args: exited $status, expected 3" >&2
    exit 1
  fi
done
rm -f /tmp/jspkg_wc.jspkg /tmp/jspkg_wc_cut.jspkg

dune exec bench/main.exe -- fig4b
# §IV-A: exits 1 when the seeder pipeline does not fit the ~30 min C2 phase
dune exec bench/main.exe -- lifespan
dune exec bench/main.exe -- perf --quick
test -s BENCH_interp.quick.json
# on the macro app the translated loop must match the reference loop on
# results, echo output, step counts and the serialized tier-1 profile
grep -q '"outputs_identical": true' BENCH_interp.quick.json
# the artifact names the commit it measured (a full 40-digit hash)
grep -Eq '"commit": "[0-9a-f]{40}' BENCH_interp.quick.json
# it records each product probe path's overhead over the plain run (the
# quick run is too short to gate the ratios; a full run exits 1 past 1.5x)
grep -q '"schema": "jumpstart-bench-interp/4"' BENCH_interp.quick.json
for path in collector context_vasm_profile context_trace_adapter; do
  grep -Eq "\"$path\": \{ \"median\": [0-9.]+, \"min\": [0-9.]+, \"max\": [0-9.]+ \}" \
    BENCH_interp.quick.json
done

# Interpreter differential: every example program must print the same
# output, result and step count on the translated loop as on the reference
# loop (--no-inline-cache), and, profiled (--profile), the same tier-1
# profile summary: both loops bump the same resolved counters.
for f in examples/*.mh; do
  for profile in "" "--profile"; do
    dune exec bin/minihack_run.exe -- run $profile "$f" > /tmp/interp_product.out
    dune exec bin/minihack_run.exe -- run $profile --no-inline-cache "$f" > /tmp/interp_reference.out
    if ! diff /tmp/interp_product.out /tmp/interp_reference.out; then
      echo "interp differential: $f $profile: translated loop differs from the reference loop" >&2
      exit 1
    fi
  done
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

# One-CPU disaster smoke test: the barrier loop sizes itself to the CPUs the
# process may use, so pinned to one CPU (taskset -c 0) the same region-loss
# scenario runs on one domain.  It must survive (zero crashes, spill + loss
# telemetry present), say it ran on one domain, and print the digest of the
# unpinned run and of the merged run (every region on one shared queue, the
# reference the barrier loop is checked against).
command -v taskset > /dev/null || { echo "one-CPU smoke: taskset not found" >&2; exit 1; }
loss_scenario="--servers 12 --duration 300 --push-at 60 --regions 3 --spillover \
  --spill-latency 15 --epoch 15 --lose-region 1 --lose-at 120"
taskset -c 0 dune exec bin/push_sim.exe -- $loss_scenario --telemetry json > /tmp/one_cpu_smoke.json
grep -q '"sim.spill_out"' /tmp/one_cpu_smoke.json
grep -q '"sim.region_lost"' /tmp/one_cpu_smoke.json
if grep -q '"sim.crashes"' /tmp/one_cpu_smoke.json; then
  echo "one-CPU smoke: unexpected crashes" >&2
  exit 1
fi
rm -f /tmp/one_cpu_smoke.json
taskset -c 0 dune exec bin/push_sim.exe -- $loss_scenario --digest > /tmp/one_cpu_smoke.out
if ! grep -q 'epoch mode on 1 domain,' /tmp/one_cpu_smoke.out; then
  echo "one-CPU smoke: the pinned run did not report one domain" >&2
  exit 1
fi
pinned_digest=$(grep 'global digest' /tmp/one_cpu_smoke.out)
rm -f /tmp/one_cpu_smoke.out
epoch_digest=$(dune exec bin/push_sim.exe -- $loss_scenario --digest | grep 'global digest')
merged_digest=$(dune exec bin/push_sim.exe -- $loss_scenario --mode merged --digest \
  | grep 'global digest')
if [ "$pinned_digest" != "$epoch_digest" ] || [ "$merged_digest" != "$epoch_digest" ]; then
  echo "one-CPU smoke: digests diverged" >&2
  echo "  pinned:   $pinned_digest" >&2
  echo "  unpinned: $epoch_digest" >&2
  echo "  merged:   $merged_digest" >&2
  exit 1
fi

# A config the simulator rejects (a non-finite duration, no buckets, no
# replicate seeds, no regions, a bad fault record, a non-finite region
# phase or arrival setting, a NaN timeout or abort window, a rate outside
# [0, 1], a non-finite push stagger or spill latency, a spill threshold
# outside (0, 1] or a disaster in a region that does not exist, even where
# one region ignores the flag) is a usage error: exit status 2, never a
# hang, a silently fault-free run or an uncaught exception.  The = form
# keeps cmdliner from reading -1 as an option.
for args in "--duration nan --regions 2 --epoch 15" "--buckets 0" \
  "--classify --seeds 0" "--regions 0" "--fetch-fail-rate=nan" \
  "--fetch-latency=-1" "--stale-rate=1.5" "--fetch-timeout=inf" \
  "--regions 2 --epoch 15 --region-phase=inf" "--diurnal-amp nan" \
  "--utilization inf" "--timeout nan" "--abort-window nan" "--bad-rate 2" \
  "--thin-rate nan" "--validation nan" "--validation 2" \
  "--regions 2 --epoch 15 --spill-threshold nan" \
  "--regions 2 --epoch 15 --push-stagger inf" \
  "--regions 2 --epoch 15 --spillover --spill-latency inf" \
  "--regions 2 --epoch 15 --spillover --spill-latency nan" \
  "--duration 200 --push-at 60 --spill-threshold nan" \
  "--duration 200 --push-at 60 --lose-region 2"; do
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
# merged queue, pinned to one CPU and on all of them, byte-for-byte, and
# arrival batching must be digest-neutral; validates its own JSON, must emit
# the one-CPU and batching sections, and names the commit it measured.
dune exec bench/main.exe -- scale --quick
test -s BENCH_scale.quick.json
grep -q '"schema": "jumpstart-bench-scale/5"' BENCH_scale.quick.json
grep -q '"one_cpu"' BENCH_scale.quick.json
grep -q '"batching"' BENCH_scale.quick.json
grep -Eq '"commit": "[0-9a-f]{40}' BENCH_scale.quick.json
