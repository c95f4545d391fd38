#!/bin/sh
# Tier-1 CI gate: build everything, run every test suite, then exercise
# the fault-injection pipeline.
# Usage: sh ci/check.sh
set -eu
cd "$(dirname "$0")/.."
# Scratch files live in a private temp dir (honours TMPDIR), removed on exit.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
dune build
dune build bench/main.exe
dune runtest

# The README examples must run to completion, not only compile: they call
# the library the way a reader would, so an API change that breaks one
# fails here.
for example in quickstart leak_demo platform_tour microbench_explore \
  incremental_snapshots capacity_plan; do
  dune exec "examples/$example.exe" >/dev/null
done

# test/golden_trace.json is generated by examples/gen_golden.ml and must
# stay in lockstep with test_observability's golden_spans: the generator
# has to reproduce the committed file byte for byte.
dune exec examples/gen_golden.exe | cmp - test/golden_trace.json

# Fault suite under three fixed seeds: the plan schedules and the whole
# recovery pipeline must replay bit-identically from each.
for seed in 1 42 1337; do
  GH_FAULT_SEED=$seed dune exec test/test_fault.exe >/dev/null
done

# End-to-end smoke sweep. The subcommand exits nonzero if any request was
# served by a non-clean process (the fail-closed gate).
dune exec bin/gh_bench.exe -- fault --smoke --seed 42 >/dev/null

# Cluster fault sweep under three fixed seeds. The subcommand exits
# nonzero on any delivery violation (double-serve, serve-after-fail,
# unaccounted request, conservation breach) or if the failover arm
# misses its availability/latency acceptance gates.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- cluster --smoke --seed $seed >/dev/null
done

# Snapshot-integrity smoke sweep under three fixed seeds. The subcommand
# exits nonzero if any request is served from corrupted state under full
# verification (fail-closed), or if the unverified baseline fails to
# demonstrate the hazard the verification machinery closes.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- scrub --smoke --seed $seed >/dev/null
done

# Overload smoke sweep. The subcommand exits nonzero on any overload
# contract breach: a request completing after its deadline without being
# counted a miss, a shed request that consumed restore work, a non-clean
# serve, or cross-principal residue.
dune exec bin/gh_bench.exe -- overload --smoke --seed 42 >/dev/null

# SLO observability smoke under three fixed seeds. The subcommand exits
# nonzero on any observability contract breach on the failover-on arm: a
# gated objective (availability, sustained latency) breached with no
# prior burn-rate alert, a flight-recorder dump that fails schema
# validation or does not cover its pre-failure window, or an unclosed
# span tree.
for seed in 1 42 1337; do
  dune exec bin/gh_bench.exe -- slo --smoke --seed $seed >/dev/null
done

# Engine hot-loop bench: the event-queue churn and engine storm group must
# build and run (the queue's ordering property against a sorted-list model
# runs under `dune runtest` above) and write its record. The record goes to
# the scratch dir: the committed BENCH_engine.json is taken on purpose, and
# a CI run must not overwrite it with this host's timings.
dune exec bench/main.exe -- --engine-only --out-dir "$tmp" >/dev/null
test -s "$tmp/BENCH_engine.json"

# Memory-model bench, the same way: the bulk kernels against the scalar
# reference, the function model's range lists through the kernels against
# per-range calls, and the brk cycle must build, run and write a record.
dune exec bench/main.exe -- --mem-only --out-dir "$tmp" >/dev/null
test -s "$tmp/BENCH_mem.json"

# Bit-identity gate: the quick-profile evaluation sweep must replay
# byte-for-byte against the committed baseline — the determinism contract
# (time, seq) event order, RNG streams, formatting — all of it. The run
# has every collector attached (spans, metrics, series, SLOs):
# observability only reads the clock, so stdout must not move by a byte
# with the collectors attached. Regenerate ci/runall_quick.md5 only with
# an intentional, reviewed behavior change.
mkdir "$tmp/exports"
run_exported() {
  dune exec bin/gh_bench.exe -- run "$1" --seed 42 --profile quick \
    --trace-out "$tmp/exports/$1.trace.json" \
    --metrics-out "$tmp/exports/$1.metrics.txt" \
    --series-out "$tmp/exports/$1.series.txt" --slo "$tmp/exports/$1.slo.json"
}
run_exported all > "$tmp/runall_quick.txt"
md5sum "$tmp/runall_quick.txt" | awk '{print $1}' \
  | diff - ci/runall_quick.md5

# The ablations and extensions (including the fault, overload and scrub
# sweeps at their default grids) are pinned the same way: serial, on 2
# and on 4 domains (oversubscribed where there are fewer cores, as in
# the `run all -j 4` gate below), and serial with every collector
# attached.
for jobs in 1 2 4; do
  dune exec bin/gh_bench.exe -- run extras --seed 42 --profile quick -j $jobs \
    | md5sum | awk '{print $1}' | diff - ci/runextras_quick.md5
done
run_exported extras | md5sum | awk '{print $1}' | diff - ci/runextras_quick.md5

# Export pins: the four exports of both instrumented runs (the Chrome
# trace, the metrics snapshot, the series and the SLO document) must be
# byte-identical to the committed digests, so a change to how collectors
# are passed through the stack cannot move what they record. Regenerate
# ci/exports_quick.md5 only with an intentional change to what is
# recorded, by running this block against a temporary directory.
(cd "$tmp/exports" && md5sum all.trace.json all.metrics.txt all.series.txt all.slo.json \
  extras.trace.json extras.metrics.txt extras.series.txt extras.slo.json) \
  | diff - ci/exports_quick.md5

# Parallel bit-identity gate: the same sweep fanned across 4 domains must
# be byte-for-byte identical to the serial run (and hence to the committed
# baseline) — cells seed their own RNGs and merge in input order, so any
# difference means shared state leaked into a sweep.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick -j 4 \
  > "$tmp/runall_quick_j4.txt"
diff "$tmp/runall_quick.txt" "$tmp/runall_quick_j4.txt"
md5sum "$tmp/runall_quick_j4.txt" | awk '{print $1}' \
  | diff - ci/runall_quick.md5

# Domain-pool suite once more with an oversubscribed job count: the
# List.map-equivalence properties must hold when workers outnumber cores.
GH_JOBS=8 dune exec test/test_parallel.exe >/dev/null

# Observability smoke: export a trace + metrics snapshot from a fixed-seed
# run, validate the Chrome trace JSON against our own parser/schema check,
# and diff the metrics snapshot against the committed baseline — any
# counting drift (or nondeterminism) in the instrumented stack fails CI.
# The printed container timeline is pinned too (ci/trace_quick.md5), so a
# change to how the container formats its trace events cannot move a byte.
dune exec bin/gh_bench.exe -- trace "json (n)" --seed 42 \
  --trace-out "$tmp/trace.json" --metrics-out "$tmp/metrics.txt" \
  | md5sum | awk '{print $1}' | diff - ci/trace_quick.md5
dune exec bin/gh_bench.exe -- trace-validate "$tmp/trace.json" >/dev/null
diff -u ci/metrics_baseline.txt "$tmp/metrics.txt"

# Shared-collector downgrade: asking for -j with a collector attached
# must keep the run serial and say so on stderr, naming the causing flag.
dune exec bin/gh_bench.exe -- run all --seed 42 --profile quick -j 4 \
  --series-out "$tmp/series_warn.txt" \
  >/dev/null 2>"$tmp/downgrade_warn.txt"
grep -q -- '--series-out' "$tmp/downgrade_warn.txt"
grep -q 'ignoring -j 4' "$tmp/downgrade_warn.txt"

# Host-cost benchmark correctness: every operation of the figures and
# fleet workloads must reproduce the reference digests in perfbench/refs/
# for its seed, failures included. Seed 1 reproduces the pinned GH scrub
# failure and seed 28 the GH-NOP one (perfbench/NOTES.md), so a change
# that moves the integrity code's output fails here. figures-parallel runs
# the figures cells across domains. One traced run (--trace 1) of each
# workload also checks that the traced twin reproduces the untraced run;
# the traced figures-parallel run checks that its allocation is within 1%
# of a figures-serial run's. Scratch output goes to .perfbench/
# (gitignored).
perfbench_correct() {
  python3 perfbench/run.py "$@" > "$tmp/perfbench.out"
  if ! tail -n 1 "$tmp/perfbench.out" | grep -qF '"correct": true'; then
    cat "$tmp/perfbench.out" >&2
    echo "ci/check.sh: perfbench $* is not correct" >&2
    exit 1
  fi
}
for workload in figures-serial figures-parallel fleet-faults; do
  for seed in 1 28; do
    perfbench_correct --workload $workload --seed $seed --seconds 1
  done
done
for workload in figures-serial figures-parallel figures-observed fleet-faults; do
  perfbench_correct --workload $workload --seed 1 --seconds 1 --trace 1
done

# Bad input is rejected before any work runs: nonzero exit, nothing on
# stdout, and an error on stderr that names the offending value.
reject_by() {
  exe=$1
  needle=$2
  shift 2
  if dune exec "$exe" -- "$@" >"$tmp/reject.out" 2>"$tmp/reject.err"; then
    echo "ci/check.sh: $exe accepted bad input: $*" >&2
    exit 1
  fi
  if test -s "$tmp/reject.out" || ! grep -qF -- "$needle" "$tmp/reject.err"; then
    echo "ci/check.sh: $exe $* was not rejected up front naming '$needle'" >&2
    exit 1
  fi
}
reject() {
  reject_by bin/gh_bench.exe "$@"
}
reject bogus run fig4 bogus
reject -3 run table1 --jobs=-3
reject nope fault -b nope
reject /proc/nope run fig3-left -o /proc/nope
# The bench harness too: a mistyped flag used to run the whole bench.
reject_by bench/main.exe --engine-onyl --engine-onyl

echo "ci/check.sh: OK"
