#!/usr/bin/env bash
# Tier-1 verify with warnings promoted to errors, the hot-path
# throughput microbenchmark, and the sweep-engine determinism +
# wall-clock checks.  Emits BENCH_micro_pipeline.json (accesses/sec and
# per-policy ns/access) and BENCH_sweep.json (parallel speedup) so the
# perf trajectory is tracked across PRs.  Usage: scripts/ci.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure (-Wall -Wextra -Werror) =="
cmake -B "$build" -S "$repo" -DGARIBALDI_WERROR=ON

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

# ---- correctness gates (see README "Correctness tooling") ------------
# Determinism lint: hard gate; the fixture corpus that proves each rule
# fires runs as the lint_determinism_fixtures ctest above.
echo "== determinism lint (src/ bench/ examples/) =="
lint_status="pass"
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/scripts/lint_determinism.py" \
      --json "$build/lint_determinism.json" \
      "$repo/src" "$repo/bench" "$repo/examples"
  echo "determinism lint: clean"
else
  lint_status="skip (no python3)"
  echo "determinism lint: SKIP (no python3 on PATH)"
fi

# Sharing analyzer: hard gate at zero findings over src/; the emitted
# sharing map is the machine-readable contract the parallelism PR will
# consume (fixture corpus: sharing_lint_fixtures ctest; map shape:
# sharing_map_test ctest).
echo "== sharing analyzer (src/) =="
sharing_status="pass"
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/scripts/analyze_sharing.py" \
      --emit "$build/sharing_map.json" \
      --json "$build/analyze_sharing.json" "$repo/src"
  echo "sharing analyzer: clean (map: $build/sharing_map.json)"
else
  sharing_status="skip (no python3)"
  echo "sharing analyzer: SKIP (no python3 on PATH)"
fi

# Stat-semantics analyzer: hard gate at zero findings over src/; every
# StatSet::add site must match a declared kind, and the sharing-map
# cross-check rejects stats whose merge op cannot be derived from
# their producer's SIM_EPOCH_MERGED members.  The emitted stat map is
# the windowing/merge contract the parallelism PR consumes alongside
# sharing_map.json (fixture corpus: stat_lint_fixtures ctest; map
# shape: stat_map_test ctest; consumer drift: stat_refs_guard ctest).
echo "== stat-semantics analyzer (src/) =="
stats_status="pass"
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/scripts/analyze_stats.py" \
      --emit "$build/stat_map.json" \
      --sharing-map "$build/sharing_map.json" \
      --json "$build/analyze_stats.json" "$repo/src"
  echo "stat analyzer: clean (map: $build/stat_map.json)"
  # Cross-map wiring check: the merge cross-check above only bites if
  # the two contracts actually overlap, so pin that they share
  # producers and that site coverage is total.
  python3 - "$build/sharing_map.json" "$build/stat_map.json" <<'EOF'
import json, sys
sharing = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
cov = stats["coverage"]
if cov["add_sites"] == 0 or cov["add_sites"] != cov["matched_sites"]:
    sys.exit("stat map coverage gap: %(matched_sites)d/%(add_sites)d"
             % cov)
shared = set(sharing["classes"]) & set(stats["producers"])
if not shared:
    sys.exit("sharing_map and stat_map share no producer class; the "
             "merge cross-check is running on empty input")
print("cross-check: %d producer(s) in both maps (%s, ...)"
      % (len(shared), sorted(shared)[0]))
EOF
  # One aggregated machine-readable report across the three lints.
  python3 - "$build" <<'EOF'
import json, os, sys
build = sys.argv[1]
tools = ["lint_determinism", "analyze_sharing", "analyze_stats"]
report = {"schema": "garibaldi-lint-report-v1", "tools": {}}
for t in tools:
    p = os.path.join(build, t + ".json")
    doc = json.load(open(p))
    report["tools"][doc["tool"]] = doc["findings"]
out = os.path.join(build, "lint_report.json")
json.dump(report, open(out, "w"), indent=2, sort_keys=True)
total = sum(len(v) for v in report["tools"].values())
print("lint report: %d finding(s) across %d tools -> %s"
      % (total, len(tools), out))
EOF
else
  stats_status="skip (no python3)"
  echo "stat analyzer: SKIP (no python3 on PATH)"
fi

# clang-tidy gate: zero warnings via WarningsAsErrors in .clang-tidy;
# SKIPs on toolchains without clang-tidy (this container ships GCC
# only) rather than failing.
echo "== clang-tidy gate =="
tidy_out=$("$repo/scripts/tidy.sh" "$build") || { echo "$tidy_out"; exit 1; }
echo "$tidy_out"
case "$tidy_out" in
  *SKIP*) tidy_status="skip (no clang-tidy)" ;;
  *)      tidy_status="pass" ;;
esac

# Clang thread-safety lane: -Wthread-safety -Wthread-safety-beta as
# errors over every TU, driven by the src/common/sharing.hh
# annotations; SKIPs honestly on GCC-only hosts.
echo "== clang thread-safety lane =="
ts_out=$("$repo/scripts/thread_safety.sh") || { echo "$ts_out"; exit 1; }
echo "$ts_out"
case "$ts_out" in
  *SKIP*) thread_safety_status="skip (no clang)" ;;
  *)      thread_safety_status="pass" ;;
esac

# (sweep_test, run by the ctest pass above, pins the unit-level
# determinism properties; here we also pin the end-to-end bytes.
# The diff uses a fixed --jobs 8 so the multi-threaded path is
# exercised even on a 1-CPU host, where $(nproc) would compare the
# serial path against itself.)
echo "== sweep determinism (bank_sensitivity bytes, --jobs 1 vs 8) =="
bank_args=(--warmup 10000 --instr 20000 --mixes 1)
t1_start=$(date +%s.%N)
"$build/bank_sensitivity" "${bank_args[@]}" --jobs 1 > "$build/bank_j1.txt"
t1_end=$(date +%s.%N)
tn_start=$(date +%s.%N)
"$build/bank_sensitivity" "${bank_args[@]}" --jobs 8 > "$build/bank_j8.txt"
tn_end=$(date +%s.%N)
if ! diff -q "$build/bank_j1.txt" "$build/bank_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity output differs between --jobs 1 and --jobs 8"
  diff "$build/bank_j1.txt" "$build/bank_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity: --jobs 1 vs --jobs 8 byte-identical"

# Wall-clock speedup is only meaningful on multi-core hosts; the JSON
# records host_cpus so 1-CPU results read as the no-op they are.
t1=$(echo "$t1_end $t1_start" | awk '{printf "%.3f", $1 - $2}')
tn=$(echo "$tn_end $tn_start" | awk '{printf "%.3f", $1 - $2}')
speedup=$(echo "$t1 $tn" | awk '{printf "%.3f", $1 / $2}')
cat > "$build/BENCH_sweep.json" <<EOF
{
  "bench": "bank_sensitivity",
  "workers": 8,
  "host_cpus": $jobs,
  "serial_seconds": $t1,
  "parallel_seconds": $tn,
  "speedup": $speedup
}
EOF
echo "sweep wall-clock: ${t1}s serial vs ${tn}s with 8 workers on $jobs cpu(s) (speedup ${speedup}x)"
cat "$build/BENCH_sweep.json"

# Contention mode: the per-bank queuing model must keep the same
# byte-identity guarantee across --jobs, and its headline curve (avg
# LLC queuing delay falling as banks grow) is archived as a bench
# artifact for trend tracking.
echo "== bank contention (per-bank queuing model, --jobs 1 vs 8) =="
# --svc/--ports passed explicitly so the artifact's config label stays
# truthful even if the bench's defaults change.
cont_args=(--warmup 10000 --instr 20000 --mixes 1 --contention --svc 4 --ports 1)
"$build/bank_sensitivity" "${cont_args[@]}" --jobs 1 > "$build/bank_cont_j1.txt"
"$build/bank_sensitivity" "${cont_args[@]}" --jobs 8 > "$build/bank_cont_j8.txt"
if ! diff -q "$build/bank_cont_j1.txt" "$build/bank_cont_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --contention differs between --jobs 1 and 8"
  diff "$build/bank_cont_j1.txt" "$build/bank_cont_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --contention: --jobs 1 vs --jobs 8 byte-identical"

# Table columns: cores banks shift geomean_metric vs_monolithic
# avg_queue_delay; keep the cores=16 shift=0 curve.
banks_list=$(awk '$1 == 16 && $3 == 0 {printf "%s%s", sep, $2; sep=", "}' \
             "$build/bank_cont_j1.txt")
delay_list=$(awk '$1 == 16 && $3 == 0 {printf "%s%s", sep, $6; sep=", "}' \
             "$build/bank_cont_j1.txt")
cat > "$build/BENCH_bank_contention.json" <<EOF
{
  "bench": "bank_sensitivity --contention",
  "config": "16 cores, svc=4, ports=1, shift=0",
  "metric": "avg queuing delay per bank-array reservation (cycles)",
  "banks": [$banks_list],
  "avg_queue_delay_cycles": [$delay_list]
}
EOF
cat "$build/BENCH_bank_contention.json"

# DRAM contention: the channel-queueing model (arrival-keyed backfill,
# multi-slot channels, DRAM-fed LLC MSHRs) must hold the same
# byte-identity guarantee across --jobs, and its headline curve (avg
# DRAM queue delay falling as channels grow) is archived for trend
# tracking alongside the weighted-speedup column.
echo "== dram contention (channel sweep, --jobs 1 vs 8) =="
dram_args=(--warmup 10000 --instr 20000 --mixes 1 --contention --svc 4
           --ports 1 --dram-sweep --dram-ports 1)
"$build/bank_sensitivity" "${dram_args[@]}" --jobs 1 > "$build/dram_cont_j1.txt"
"$build/bank_sensitivity" "${dram_args[@]}" --jobs 8 > "$build/dram_cont_j8.txt"
if ! diff -q "$build/dram_cont_j1.txt" "$build/dram_cont_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --dram-sweep differs between --jobs 1 and 8"
  diff "$build/dram_cont_j1.txt" "$build/dram_cont_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --dram-sweep: --jobs 1 vs --jobs 8 byte-identical"

# Table columns: cores dramch geomean_metric vs_2ch
# avg_dram_queue_delay; keep the cores=16 curve.
chan_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $2; sep=", "}' \
            "$build/dram_cont_j1.txt")
dly_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $5; sep=", "}' \
           "$build/dram_cont_j1.txt")
spd_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $3; sep=", "}' \
           "$build/dram_cont_j1.txt")
cat > "$build/BENCH_dram_contention.json" <<EOF
{
  "bench": "bank_sensitivity --dram-sweep",
  "config": "16 cores, 4 llc banks, svc=4, dram-ports=1",
  "metric": "avg DRAM queue delay per access (cycles) + weighted speedup",
  "channels": [$chan_list],
  "avg_dram_queue_delay_cycles": [$dly_list],
  "weighted_speedup": [$spd_list]
}
EOF
cat "$build/BENCH_dram_contention.json"

# DRAM timing: the first-order DDR5 model (row-buffer split,
# read<->write turnaround, tREFI/tRFC refresh) must hold the same
# byte-identity guarantee across --jobs; its headline curve — row-hit
# rate and avg DRAM read latency over channel counts — is archived
# for trend tracking.  The knobs are passed explicitly so the
# artifact's config label stays truthful even if the bench defaults
# change.
echo "== dram timing (row/turnaround/refresh model, --jobs 1 vs 8) =="
timing_args=(--warmup 10000 --instr 20000 --mixes 1 --dram-timing
             --row-bits 7 --turnaround 12 --refresh-interval 11700
             --refresh-penalty 885)
"$build/bank_sensitivity" "${timing_args[@]}" --jobs 1 > "$build/dram_timing_j1.txt"
"$build/bank_sensitivity" "${timing_args[@]}" --jobs 8 > "$build/dram_timing_j8.txt"
if ! diff -q "$build/dram_timing_j1.txt" "$build/dram_timing_j8.txt" > /dev/null; then
  echo "FAIL: bank_sensitivity --dram-timing differs between --jobs 1 and 8"
  diff "$build/dram_timing_j1.txt" "$build/dram_timing_j8.txt" | head -20
  exit 1
fi
echo "bank_sensitivity --dram-timing: --jobs 1 vs --jobs 8 byte-identical"

# Table columns: cores dramch geomean_metric row_hit_rate avg_read_lat
# avg_hit_lat avg_miss_lat avg_conflict_lat; keep the cores=16 curve.
tch_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $2; sep=", "}' \
           "$build/dram_timing_j1.txt")
hitrate_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $4; sep=", "}' \
               "$build/dram_timing_j1.txt")
readlat_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $5; sep=", "}' \
               "$build/dram_timing_j1.txt")
cat > "$build/BENCH_dram_timing.json" <<EOF
{
  "bench": "bank_sensitivity --dram-timing",
  "config": "16 cores, 4 llc banks, row-bits=7, turnaround=12, refresh=11700/885",
  "metric": "row-buffer hit rate + avg DRAM read latency per access (cycles)",
  "channels": [$tch_list],
  "row_hit_rate": [$hitrate_list],
  "avg_dram_read_latency_cycles": [$readlat_list]
}
EOF
cat "$build/BENCH_dram_timing.json"

# Observability: with every obs knob off the tracer hook is a single
# null-pointer branch, so quickstart/fig04/fig11 must stay
# byte-identical to the committed goldens; with tracing on, artifacts
# must be byte-identical across --jobs; and the sampling overhead is
# measured on a fully-traced sweep and archived honestly.
echo "== obs: knobs-off byte-identity vs goldens =="
"$build/quickstart" --warmup 20000 --instr 50000 \
    > "$build/golden_quickstart.txt"
"$build/fig04_access_patterns" --warmup 10000 --instr 20000 --jobs 1 \
    > "$build/golden_fig04.txt"
"$build/fig11_end_to_end" --warmup 10000 --instr 20000 --mixes 2 \
    --jobs 1 > "$build/golden_fig11.txt"
for g in quickstart fig04 fig11; do
  if ! diff -q "$repo/scripts/goldens/$g.txt" "$build/golden_$g.txt" \
      > /dev/null; then
    echo "FAIL: $g output drifted from scripts/goldens/$g.txt with obs off"
    diff "$repo/scripts/goldens/$g.txt" "$build/golden_$g.txt" | head -20
    exit 1
  fi
done
echo "quickstart/fig04/fig11: byte-identical to goldens with obs off"

# Audit mode is a pure checker: enabling --audit must not perturb a
# single output byte on a healthy run.
echo "== audit: --audit byte-identity vs golden =="
"$build/quickstart" --warmup 20000 --instr 50000 --audit \
    > "$build/golden_quickstart_audit.txt"
if ! diff -q "$repo/scripts/goldens/quickstart.txt" \
    "$build/golden_quickstart_audit.txt" > /dev/null; then
  echo "FAIL: quickstart --audit output differs from the golden"
  diff "$repo/scripts/goldens/quickstart.txt" \
      "$build/golden_quickstart_audit.txt" | head -20
  exit 1
fi
echo "quickstart --audit: byte-identical to golden (checks are silent)"

echo "== obs: traced quickstart (Perfetto JSON + telemetry JSONL) =="
obs_dir="$build/obs"
rm -rf "$obs_dir"
"$build/quickstart" --warmup 20000 --instr 50000 \
    --trace-sample 64 --trace-out "$obs_dir/quickstart.trace.json" \
    --telemetry-window 50000 \
    --telemetry-out "$obs_dir/quickstart.telemetry.jsonl" \
    > "$build/quickstart_traced.txt"
for f in quickstart.trace.json quickstart.trace.json.csv \
         quickstart.telemetry.jsonl; do
  if [ ! -s "$obs_dir/$f" ]; then
    echo "FAIL: traced quickstart did not write $f"
    exit 1
  fi
done
# The trace must stay loadable by Perfetto / chrome://tracing: a JSON
# object opening with a traceEvents array.
if ! head -c 16 "$obs_dir/quickstart.trace.json" \
    | grep -q '{"traceEvents"'; then
  echo "FAIL: trace JSON does not open with a traceEvents object"
  exit 1
fi
events=$(grep -o '"ph":' "$obs_dir/quickstart.trace.json" | wc -l)
windows=$(wc -l < "$obs_dir/quickstart.telemetry.jsonl")
echo "traced quickstart: $events trace events, $windows telemetry windows"

echo "== obs: sweep artifacts byte-identical (--obs-dir, --jobs 1 vs 8) =="
obs_sweep_args=(--warmup 10000 --instr 20000 --mixes 1
                --trace-sample 16 --telemetry-window 50000)
rm -rf "$build/obs_j1" "$build/obs_j8"
"$build/bank_sensitivity" "${obs_sweep_args[@]}" --jobs 1 \
    --obs-dir "$build/obs_j1" > "$build/obs_bank_j1.txt"
"$build/bank_sensitivity" "${obs_sweep_args[@]}" --jobs 8 \
    --obs-dir "$build/obs_j8" > "$build/obs_bank_j8.txt"
if ! diff -q "$build/obs_bank_j1.txt" "$build/obs_bank_j8.txt" \
      > /dev/null \
   || ! diff -rq "$build/obs_j1" "$build/obs_j8" > /dev/null; then
  echo "FAIL: traced sweep differs between --jobs 1 and --jobs 8"
  diff "$build/obs_bank_j1.txt" "$build/obs_bank_j8.txt" | head -10
  diff -rq "$build/obs_j1" "$build/obs_j8" | head -10
  exit 1
fi
n_artifacts=$(ls "$build/obs_j1" | wc -l)
echo "traced sweep: stdout + $n_artifacts artifacts byte-identical across --jobs"

# Overhead is measured on the bank sweep because --obs-dir traces
# EVERY job there — quickstart would dilute the number with its two
# untraced policy runs.  Full tracing is dominated by trace-file
# serialization, which is the honest cost of asking for every
# transaction.
echo "== obs: sampling overhead (off / 1-in-64 / full) =="
ovh_args=(--warmup 10000 --instr 20000 --mixes 1 --jobs 1)
o_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" > /dev/null
o_end=$(date +%s.%N)
s_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" --trace-sample 64 \
    --telemetry-window 50000 --obs-dir "$build/obs_ovh64" > /dev/null
s_end=$(date +%s.%N)
f_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" --trace-sample 1 \
    --telemetry-window 50000 --obs-dir "$build/obs_ovh1" > /dev/null
f_end=$(date +%s.%N)
t_off=$(echo "$o_end $o_start" | awk '{printf "%.3f", $1 - $2}')
t_s64=$(echo "$s_end $s_start" | awk '{printf "%.3f", $1 - $2}')
t_full=$(echo "$f_end $f_start" | awk '{printf "%.3f", $1 - $2}')
p64=$(echo "$t_s64 $t_off" | awk '{printf "%.1f", ($1 / $2 - 1) * 100}')
pfull=$(echo "$t_full $t_off" | awk '{printf "%.1f", ($1/$2 - 1) * 100}')
cat > "$build/BENCH_obs_overhead.json" <<EOF
{
  "bench": "bank_sensitivity --warmup 10000 --instr 20000 --mixes 1 --jobs 1, every job traced via --obs-dir",
  "metric": "wall seconds; overhead percent relative to obs-off",
  "obs_off_seconds": $t_off,
  "trace_1in64_seconds": $t_s64,
  "trace_full_seconds": $t_full,
  "overhead_1in64_pct": $p64,
  "overhead_full_pct": $pfull
}
EOF
cat "$build/BENCH_obs_overhead.json"

echo "== hot-path throughput (accesses/sec; track across PRs) =="
# Keep the previous run's archive (if any) around for the regression
# warning below before this run overwrites it.
prev_rate16=""
if [ -f "$build/BENCH_micro_pipeline.json" ]; then
  prev_rate16=$(awk -F'[:,]' '/"accesses_per_sec_16core"/ {gsub(/ /,"",$2); print $2}' \
                "$build/BENCH_micro_pipeline.json")
fi
# One sample swings by more than the floor's margin on a shared host
# (490k..770k seen with no code change), so the gate judges the median
# of several --quick samples of each row.
perf_samples=5
: > "$build/micro_pipeline.txt"
for i in $(seq "$perf_samples"); do
  "$build/micro_pipeline" --quick | tee -a "$build/micro_pipeline.txt"
done
# Sorted samples of one (cores, llc_banks) row.
row_samples() {
  awk -v c="$1" -v b="$2" '$1 == c && $2 == b {print $3}' \
      "$build/micro_pipeline.txt" | sort -n
}
row_median() {
  row_samples "$1" "$2" | awk '{v[NR] = $1} END {if (NR) print v[int((NR + 1) / 2)]}'
}
rate=$(row_median 8 1)
rate16=$(row_median 16 1)
rate16_min=$(row_samples 16 1 | head -1)
rate16_max=$(row_samples 16 1 | tail -1)
# Per-policy cache churn rows ("policy <name> <ns/access>"): one
# baseline per PolicyKind, medians over the same samples.
policy_ns=""
for pol in lru random srrip drrip ship hawkeye mockingjay; do
  med=$(row_median policy "$pol")
  policy_ns="$policy_ns${policy_ns:+, }\"$pol\": ${med:-0}"
done
cat > "$build/BENCH_micro_pipeline.json" <<EOF
{
  "bench": "micro_pipeline",
  "config": "--quick x ${perf_samples}, medians; 8-core/1-bank row + 16-core/1-bank headline row + per-policy churn",
  "accesses_per_sec": ${rate:-0},
  "accesses_per_sec_16core": ${rate16:-0},
  "accesses_per_sec_16core_min": ${rate16_min:-0},
  "accesses_per_sec_16core_max": ${rate16_max:-0},
  "policy_ns_per_access": {${policy_ns}}
}
EOF
cat "$build/BENCH_micro_pipeline.json"

# Throughput-regression guard: the hard floor is the seed revision's
# measured rate (scripts/perf_floors.json, committed); a median below
# it fails CI.  Falling short of the previous archived run only warns —
# run-to-run noise on shared hosts is real, a trend is not a cliff.
floor=$(awk -F'[:,]' '/"micro_pipeline_16core_floor"/ {gsub(/ /,"",$2); print $2}' \
        "$repo/scripts/perf_floors.json")
if [ -z "${rate16:-}" ]; then
  echo "FAIL: micro_pipeline printed no 16-core/1-bank headline row"
  exit 1
fi
echo "micro_pipeline 16-core rate over ${perf_samples} samples:" \
     "min ${rate16_min} median ${rate16} max ${rate16_max}"
if awk "BEGIN{exit !(${rate16} < ${floor:-660000})}"; then
  echo "FAIL: micro_pipeline 16-core median ${rate16} below seed floor ${floor:-660000}"
  exit 1
fi
echo "micro_pipeline 16-core median ${rate16} >= seed floor ${floor:-660000}"
if [ -n "$prev_rate16" ] && awk "BEGIN{exit !(${rate16} < ${prev_rate16})}"; then
  echo "WARN: micro_pipeline 16-core rate ${rate16} below previous archived ${prev_rate16}"
fi

# ---- sanitizer lanes -------------------------------------------------
# Each lane is its own build tree (sanitizer runtimes must not mix):
# full ctest plus a short traced-free sweep at --jobs 8 with --audit on,
# so the thread pool, the solo-IPC cache, and every audit check run
# instrumented.  CI_SANITIZE=0 skips the lanes (e.g. quick local runs);
# the stamp below records the skip honestly.
run_sanitizer_lane() {
  lane_name="$1"; lane_flags="$2"; lane_build="$build-$1"
  echo "== sanitizer lane: $lane_name (-fsanitize=${lane_flags//;/,}) =="
  cmake -B "$lane_build" -S "$repo" -DSIM_SANITIZE="$lane_flags" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$lane_build" -j "$jobs"
  ctest --test-dir "$lane_build" --output-on-failure -j "$jobs"
  "$lane_build/quickstart" --warmup 5000 --instr 10000 --audit > /dev/null
  "$lane_build/bank_sensitivity" --warmup 2000 --instr 5000 --mixes 1 \
      --jobs 8 --audit > /dev/null
  echo "sanitizer lane $lane_name: clean"
}
if [ "${CI_SANITIZE:-1}" != "0" ]; then
  run_sanitizer_lane asan "address;undefined"
  asan_status="pass"
  run_sanitizer_lane tsan "thread"
  tsan_status="pass"
else
  asan_status="skip (CI_SANITIZE=0)"
  tsan_status="skip (CI_SANITIZE=0)"
  echo "== sanitizer lanes: SKIP (CI_SANITIZE=0) =="
fi

# One artifact recording what the correctness gates actually ran, so a
# lane silently skipping can never masquerade as a pass.
cat > "$build/BENCH_correctness.json" <<EOF
{
  "lint_determinism": "$lint_status",
  "sharing_lint": "$sharing_status",
  "stats_lint": "$stats_status",
  "clang_tidy": "$tidy_status",
  "thread_safety": "$thread_safety_status",
  "asan_ubsan_lane": "$asan_status",
  "tsan_lane": "$tsan_status",
  "audit_golden_identity": "pass"
}
EOF
cat "$build/BENCH_correctness.json"

echo "CI OK"
