#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite, then
# rebuild the library + tests under ThreadSanitizer and run the executor
# tests (the only concurrent code path) plus the pending-event-set oracle
# under it. Also replays a small study twice (and across thread counts) and
# requires byte-identical artifacts that match goldens recorded from an
# earlier commit (tests/data/efficiency_a32_s7.*) — the determinism
# contract every engine change must uphold.
#
#   tools/tier1.sh [build-dir] [tsan-build-dir]
#
# Set XRES_PERF_GATE=1 to additionally run the engine microbenchmarks and
# diff them against bench/BENCH_engine.baseline.json (>15% regression or a
# batch-scaling collapse fails; see docs/PERFORMANCE.md for the policy and
# baseline procedure). Set XRES_SMOKE_ALL=1 to additionally byte-compare
# every registered study's artifacts across --threads 1 vs 2, and to run
# the full surrogate differential matrix (tier-1 ctest runs fast subsets;
# see tests/study_smoke_test.cpp and tests/surrogate_diff_test.cpp). Each
# stage prints its wall time.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"

# Per-stage wall time: call `stage_done <name>` at the end of each stage so
# a slow tier-1 run says where the minutes went.
STAGE_T0=$SECONDS
stage_done() {
  echo "stage ${1}: $((SECONDS - STAGE_T0))s"
  STAGE_T0=$SECONDS
}

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"
BUILD="$(cd "$BUILD" && pwd)"
stage_done build
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
stage_done ctest

# TSAN pass: library + tests + the xres CLI (benches/examples just re-link
# the same library code and would double the build time for no extra
# coverage; the CLI is kept so the observed-executor path below runs under
# TSAN too).
cmake -B "$TSAN_BUILD" -S . -DXRES_TSAN=ON \
  -DXRES_BUILD_BENCH=OFF -DXRES_BUILD_EXAMPLES=OFF -DXRES_BUILD_TOOLS=ON
cmake --build "$TSAN_BUILD" -j "$(nproc)"
TSAN_BUILD="$(cd "$TSAN_BUILD" && pwd)"
stage_done tsan-build
ctest --test-dir "$TSAN_BUILD" --output-on-failure \
  -R "TrialExecutor|Integration|Obs|SimOracle|Surrogate"
stage_done tsan-ctest

# Every study run appends a record to ./results/ledger.jsonl by default. A
# stage that does not test the ledger passes --no-ledger; `xres suite` and
# `xres sweep` take no ledger option, so they run with the stage's temp dir
# as their working directory (`env -C`, which execs: `$!` stays the xres
# pid). The checkout's ledger stays untouched.

# Observability smoke under TSAN: a threaded study with per-trial metrics
# and tracing enabled exercises the observer hand-off between workers.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
"$TSAN_BUILD"/tools/xres efficiency --type A32 --trials 4 --threads 4 \
  --metrics "$OBS_TMP/m.json" --trace "$OBS_TMP/t.json" --log-level info \
  --no-ledger > /dev/null
test -s "$OBS_TMP/m.json" && test -s "$OBS_TMP/t.json"
stage_done tsan-obs-smoke

# Crash-safety (docs/ROBUSTNESS.md): SIGKILL a threaded, journaled study
# mid-run, resume it, and require the report and --metrics JSON to be
# byte-identical to an uninterrupted golden run. Also checks graceful
# SIGTERM: drain, flush, exit 75, then a resume that completes the study.
crash_resume_check() {
  local xres_bin="$1" tag="$2" trials="$3" kill_after="$4"
  local dir="$OBS_TMP/resume-$tag"
  mkdir -p "$dir"
  local args=(efficiency --type C64 --trials "$trials" --seed 99 --threads 4 --no-ledger)

  "$xres_bin" "${args[@]}" --metrics "$dir/golden.json" > "$dir/golden.txt"

  # Hard kill mid-run. If the race is lost and the run finishes first, the
  # resume below degenerates to a full journal replay — still a valid check.
  "$xres_bin" "${args[@]}" --journal "$dir/j.jsonl" --metrics "$dir/void.json" \
    > /dev/null 2>&1 &
  local pid=$!
  sleep "$kill_after"
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  test -s "$dir/j.jsonl"

  "$xres_bin" "${args[@]}" --journal "$dir/j.jsonl" --resume \
    --metrics "$dir/resumed.json" > "$dir/resumed.txt"
  # Drop the recovery banner and the artifact-path line (the paths differ by
  # construction; the artifact bytes are compared with cmp below).
  local filter=(grep -v -e '^journal ' -e '^recovery: ' -e '^metrics written to ')
  "${filter[@]}" "$dir/golden.txt" > "$dir/golden-clean.txt"
  "${filter[@]}" "$dir/resumed.txt" > "$dir/resumed-clean.txt"
  cmp "$dir/golden-clean.txt" "$dir/resumed-clean.txt"
  cmp "$dir/golden.json" "$dir/resumed.json"
  "$xres_bin" journal "$dir/j.jsonl" > /dev/null

  # Graceful shutdown: SIGTERM must drain, flush and exit 75 (or win the
  # race and exit 0), and the journal must then resume cleanly.
  "$xres_bin" "${args[@]}" --journal "$dir/j2.jsonl" --metrics "$dir/void2.json" \
    > /dev/null 2>&1 &
  pid=$!
  sleep "$kill_after"
  kill -TERM "$pid" 2> /dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  if [[ "$rc" != 75 && "$rc" != 0 ]]; then
    echo "crash+resume ($tag): expected exit 75 (interrupted) or 0, got $rc" >&2
    return 1
  fi
  "$xres_bin" "${args[@]}" --journal "$dir/j2.jsonl" --resume \
    --metrics "$dir/resumed2.json" > /dev/null
  cmp "$dir/golden.json" "$dir/resumed2.json"
  echo "crash+resume ($tag): OK (SIGTERM exit $rc)"
}
crash_resume_check "$BUILD"/tools/xres normal 1500 1
crash_resume_check "$TSAN_BUILD"/tools/xres tsan 200 2
stage_done crash-resume

# Determinism golden check: the same seeded study must produce byte-for-byte
# identical report, metrics and trace on a repeat run, and the report +
# metrics must not depend on the worker-thread count. All of them must also
# match cross-commit goldens (tests/data/efficiency_a32_s7.*; the trace, too
# large to commit, by its SHA-256) recorded from an earlier commit: repeat
# and threads checks cannot see an engine change that reorders events
# consistently; this can. A deliberate model change regenerates the goldens
# and says so.
determinism_check() {
  local dir="$OBS_TMP/determinism"
  mkdir -p "$dir"
  local args=(efficiency --type A32 --trials 64 --seed 7 --no-ledger)
  local golden=tests/data/efficiency_a32_s7
  "$BUILD"/tools/xres "${args[@]}" --threads 1 \
    --metrics "$dir/m1a.json" --trace "$dir/t1a.json" > "$dir/r1a.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 1 \
    --metrics "$dir/m1b.json" --trace "$dir/t1b.json" > "$dir/r1b.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 4 \
    --metrics "$dir/m4.json" > "$dir/r4.txt"
  # The reports differ only in the artifact-path lines (the file names are
  # different by construction) and the ledger banner; the artifact bytes
  # themselves are compared with cmp below.
  local filter=(grep -v -e '^metrics written to ' -e '^trace written to '
    -e '^run recorded in ledger ')
  "${filter[@]}" "$dir/r1a.txt" > "$dir/r1a-clean.txt"
  "${filter[@]}" "$dir/r1b.txt" > "$dir/r1b-clean.txt"
  "${filter[@]}" "$dir/r4.txt" > "$dir/r4-clean.txt"
  cmp "$dir/r1a-clean.txt" "$dir/r1b-clean.txt"
  cmp "$dir/m1a.json" "$dir/m1b.json"
  cmp "$dir/t1a.json" "$dir/t1b.json"
  cmp "$dir/r1a-clean.txt" "$dir/r4-clean.txt"
  cmp "$dir/m1a.json" "$dir/m4.json"
  cmp "$golden.txt" "$dir/r1a-clean.txt"
  cmp "$golden.metrics.json" "$dir/m1a.json"
  local trace_sha
  trace_sha=$(sha256sum < "$dir/t1a.json" | cut -d ' ' -f 1)
  if [[ "$trace_sha" != "$(cat "$golden.trace.sha256")" ]]; then
    echo "determinism: trace SHA-256 $trace_sha differs from $golden.trace.sha256" >&2
    return 1
  fi
  cmp "$golden.txt" "$dir/r4-clean.txt"
  cmp "$golden.metrics.json" "$dir/m4.json"
  # Unobserved runs (no --metrics, no --trace): trials with no observer at
  # all must reproduce the golden. Without --metrics the report lacks the
  # "Instrumented breakdown" table (and the blank line before it); every
  # other byte must match the golden report.
  awk '
    /^Instrumented breakdown/ { skip = 1; borders = 0; blank = 0; next }
    skip { if (/^\+/ && ++borders == 3) skip = 0; next }
    blank { print ""; blank = 0 }
    /^$/ { blank = 1; next }
    { print }
    END { if (blank) print "" }
  ' "$golden.txt" > "$dir/golden-tables.txt"
  local threads
  for threads in 1 4; do
    "$BUILD"/tools/xres "${args[@]}" --threads "$threads" \
      | "${filter[@]}" > "$dir/ru$threads.txt"
    cmp "$dir/golden-tables.txt" "$dir/ru$threads.txt"
  done
  echo "determinism: OK (repeat + threads 1 vs 4 + unobserved byte-identical;" \
    "cross-commit goldens matched)"
}
determinism_check
stage_done determinism

# Topology stage (docs/PLATFORM.md): the fat-tree platform must honor the
# same contracts as flat — artifacts invariant to --threads, an explicit
# `--platform.model flat` byte-identical to the default, and a SIGKILLed
# fattree run resuming to the golden bytes.
topology_check() {
  local dir="$OBS_TMP/topology"
  mkdir -p "$dir"
  # checkpoint-restart is the PFS-heavy technique: the storm actually hits
  # the queued device (the default parallel-recovery never touches the PFS).
  local args=(workload --patterns 3 --seed 11 --platform.model fattree
    --technique checkpoint-restart --no-ledger)
  "$BUILD"/tools/xres "${args[@]}" --threads 1 > "$dir/r1.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 4 > "$dir/r4.txt"
  cmp "$dir/r1.txt" "$dir/r4.txt"

  # Cross-commit goldens (tests/data/workload_*): the same two workload
  # runs must reproduce stdout and --metrics recorded from an earlier
  # commit, at any --threads. Threads-invariance and repeat checks cannot
  # see an engine change that reorders events consistently; this can. A
  # deliberate model change regenerates the goldens and says so.
  local gold_filter=(grep -v -e '^perf: ' -e '^metrics written to '
    -e '^run recorded in ledger ')
  local golden_sel=(workload --patterns 2 --seed 11 --technique selection
    --scheduler Random --no-ledger)
  local golden_ft=(workload --patterns 2 --seed 11 --platform.model fattree
    --platform.pfs.channels 4 --technique checkpoint-restart --no-ledger)
  local threads
  for threads in 1 4; do
    "$BUILD"/tools/xres "${golden_sel[@]}" --threads "$threads" \
      --metrics "$dir/gold-sel-$threads.json" 2> /dev/null \
      | "${gold_filter[@]}" > "$dir/gold-sel-$threads.txt"
    cmp tests/data/workload_selection_random.txt "$dir/gold-sel-$threads.txt"
    cmp tests/data/workload_selection_random.metrics.json "$dir/gold-sel-$threads.json"
    "$BUILD"/tools/xres "${golden_ft[@]}" --threads "$threads" \
      --metrics "$dir/gold-ft-$threads.json" 2> /dev/null \
      | "${gold_filter[@]}" > "$dir/gold-ft-$threads.txt"
    cmp tests/data/workload_fattree_cr4.txt "$dir/gold-ft-$threads.txt"
    cmp tests/data/workload_fattree_cr4.metrics.json "$dir/gold-ft-$threads.json"
  done

  # The flat default is the pre-topology model: spelling it out must not
  # perturb a single byte.
  "$BUILD"/tools/xres workload --patterns 2 --seed 11 --no-ledger > "$dir/flat-default.txt"
  "$BUILD"/tools/xres workload --patterns 2 --seed 11 --platform.model flat --no-ledger \
    > "$dir/flat-explicit.txt"
  cmp "$dir/flat-default.txt" "$dir/flat-explicit.txt"

  # Unknown models must be a usage error (exit 2), not a crash.
  local rc=0
  "$BUILD"/tools/xres workload --patterns 1 --platform.model hypercube --no-ledger \
    > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "topology: expected exit 2 for bad --platform.model, got $rc" >&2
    return 1
  fi

  # The flat-model PFS contention ablation refuses a non-flat platform up
  # front (usage exit 2, before any cell runs or is journaled).
  rc=0
  "$BUILD"/tools/xres run ablation_pfs_contention --set patterns=1 \
    --platform.model fattree --no-ledger > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "topology: expected exit 2 for ablation_pfs_contention on fattree, got $rc" >&2
    return 1
  fi

  # The contended flat PFS end to end (a shared PfsDevice with unbounded
  # admission): fresh, repeated, and journaled-then-resumed runs must agree
  # byte for byte on stdout and metrics. The study is serial, so there is
  # no threads axis.
  local pfs=(run ablation_pfs_contention --set patterns=2 --no-ledger)
  "$BUILD"/tools/xres "${pfs[@]}" --metrics "$dir/pfs-a.json" > "$dir/pfs-a.txt"
  "$BUILD"/tools/xres "${pfs[@]}" --metrics "$dir/pfs-b.json" > "$dir/pfs-b.txt"
  "$BUILD"/tools/xres "${pfs[@]}" --journal "$dir/pfs.jsonl" \
    --metrics "$dir/pfs-void.json" > /dev/null
  "$BUILD"/tools/xres "${pfs[@]}" --journal "$dir/pfs.jsonl" --resume \
    --metrics "$dir/pfs-r.json" > "$dir/pfs-r.txt"
  local pfs_filter=(grep -v -e '^journal ' -e '^recovery: ' -e '^metrics written to ')
  local run
  for run in a b r; do
    "${pfs_filter[@]}" "$dir/pfs-$run.txt" > "$dir/pfs-$run-clean.txt"
  done
  cmp "$dir/pfs-a-clean.txt" "$dir/pfs-b-clean.txt"
  cmp "$dir/pfs-a-clean.txt" "$dir/pfs-r-clean.txt"
  cmp "$dir/pfs-a.json" "$dir/pfs-b.json"
  cmp "$dir/pfs-a.json" "$dir/pfs-r.json"

  # SIGKILL a journaled fattree run mid-flight; --resume must reproduce the
  # golden bytes (if the race is lost the resume is a full replay — still a
  # valid check).
  "$BUILD"/tools/xres "${args[@]}" --threads 4 --journal "$dir/j.jsonl" \
    > /dev/null 2>&1 &
  local pid=$!
  sleep 1
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  "$BUILD"/tools/xres "${args[@]}" --threads 4 --journal "$dir/j.jsonl" --resume \
    > "$dir/resumed.txt"
  local filter=(grep -v -e '^journal ' -e '^recovery: ')
  "${filter[@]}" "$dir/r4.txt" > "$dir/r4-clean.txt"
  "${filter[@]}" "$dir/resumed.txt" > "$dir/resumed-clean.txt"
  cmp "$dir/r4-clean.txt" "$dir/resumed-clean.txt"
  echo "topology: OK (fattree threads 1 vs 4 + flat default + resume byte-identical;" \
    "workload goldens matched; contended flat PFS repeat + resume byte-identical," \
    "fattree rejected)"
}
topology_check
stage_done topology

# Suite stage (docs/STUDIES.md): `xres suite paper` must regenerate every
# figure/table artifact deterministically, validate its manifest CRCs, and
# after a SIGKILL mid-suite complete byte-identically under --resume.
suite_check() {
  local dir="$OBS_TMP/suite"
  mkdir -p "$dir"
  env -C "$dir" "$BUILD"/tools/xres suite paper --out-dir "$dir/ref" --trials 2 > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"

  # Hard kill mid-suite. If the race is lost and the suite finishes first,
  # the resume below degenerates to a full journal replay — still valid.
  env -C "$dir" "$BUILD"/tools/xres suite paper --out-dir "$dir/crash" --trials 2 \
    > /dev/null 2>&1 &
  local pid=$!
  sleep 0.25
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true

  env -C "$dir" "$BUILD"/tools/xres suite paper --out-dir "$dir/crash" --trials 2 --resume \
    > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
  # Journals hold the crashed run's partial progress and perf.json holds
  # wall-clock telemetry; both differ by design. Every artifact and the
  # manifest itself must match byte for byte.
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"
  echo "suite: OK (manifest CRCs valid, SIGKILL + --resume byte-identical)"
}
suite_check
stage_done suite

# Sweep stage (docs/SPECS.md): a spec-file-defined study must produce the
# same bytes as the equivalent compiled-in invocation, and `xres sweep`
# must fan a 2x2 grid deterministically — manifest CRCs valid, artifacts
# invariant across --threads, and byte-identical after SIGKILL + --resume.
sweep_check() {
  local dir="$OBS_TMP/sweep"
  mkdir -p "$dir"

  cat > "$dir/eff_spec.toml" << 'EOF'
[study]
name = "eff_spec"
base = "efficiency"

[params]
type = "A32"
trials = 3
EOF
  "$BUILD"/tools/xres run --from "$dir/eff_spec.toml" --no-ledger > "$dir/spec.txt"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 --no-ledger \
    > "$dir/compiled.txt"
  cmp "$dir/spec.txt" "$dir/compiled.txt"

  local axes=(--axis type=A32,C64 --axis mtbf-years=5,10 --set trials=2)
  env -C "$dir" "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/ref" > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"
  env -C "$dir" "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 1 \
    --out-dir "$dir/t1" > /dev/null
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/t1"

  # Hard kill mid-grid. If the race is lost and the sweep finishes first,
  # the resume below degenerates to a full journal replay — still valid.
  env -C "$dir" "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/crash" > /dev/null 2>&1 &
  local pid=$!
  sleep 0.25
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true

  env -C "$dir" "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/crash" --resume > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"
  echo "sweep: OK (spec == compiled-in, 2x2 grid threads-invariant + resumable)"
}
sweep_check
stage_done sweep

# Ledger stage (docs/OBSERVABILITY.md): wall-clock telemetry must stay
# outside the determinism boundary — perf.json is not manifest-CRC'd, two
# identical-seed runs show zero deterministic drift in `xres compare`, and
# the run ledger stays readable after a SIGKILL mid-run leaves a torn tail.
ledger_check() {
  local dir="$OBS_TMP/ledger"
  mkdir -p "$dir"
  local ledger="$dir/ledger.jsonl"

  # perf.json is telemetry, not an artifact: it must exist next to the
  # manifest, never be listed in it, and corrupting it must not trip
  # `suite verify`.
  env -C "$dir" "$BUILD"/tools/xres sweep efficiency --axis type=A32,C64 --set trials=2 \
    --out-dir "$dir/grid" > /dev/null
  test -s "$dir/grid/perf.json"
  if grep -q 'perf\.json' "$dir/grid/manifest.json"; then
    echo "ledger: perf.json leaked into the manifest" >&2
    return 1
  fi
  echo corrupted >> "$dir/grid/perf.json"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/grid"

  # Two identical-seed runs (different thread counts on purpose): compare
  # must exit 0 with zero deterministic drift.
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 4 --ledger "$ledger" > /dev/null
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 1 --ledger "$ledger" > /dev/null
  local a b
  a=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'NR==2 {print $1}')
  b=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'NR==3 {print $1}')
  "$BUILD"/tools/xres compare "$a" "$b" --ledger "$ledger"

  # SIGKILL mid-run: previously appended records must survive, a torn tail
  # must be skipped (not fatal), and the next run must still land readable.
  "$BUILD"/tools/xres run efficiency --set type=C64 --set trials=500 \
    --threads 4 --ledger "$ledger" > /dev/null 2>&1 &
  local pid=$!
  sleep 0.2
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  printf '{"c":"deadbeef","r":{"tr' >> "$ledger"  # simulated torn tail
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 1 --ledger "$ledger" > /dev/null
  local shown
  shown=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'END {print $1}')
  if [[ "$shown" -lt 3 ]]; then
    echo "ledger: expected >=3 surviving records after SIGKILL, got $shown" >&2
    return 1
  fi
  echo "ledger: OK (perf.json outside CRCs, zero-drift compare, SIGKILL-safe)"
}
ledger_check
stage_done ledger

# Fault-injection stage (docs/ROBUSTNESS.md, "Fault injection & I/O
# policy"): the harness must survive its own failure model. A seeded
# deterministic fault plan (util/io.hpp) injects EIO / short writes /
# fsync failures into a small sweep — artifacts must come out
# byte-identical to a fault-free golden run. An ENOSPC one-shot mid-suite
# must exit 75 with the journal intact and --resume (faults off) must
# complete byte-identically. A crash-point matrix _exit()s at every Nth
# I/O op across a reduced op range and requires every resume to converge
# to the same bytes. Finally the exit-code contract (0/1/2/75/86) is
# pinned at the CLI boundary.
fault_injection_check() {
  local dir="$OBS_TMP/faults"
  mkdir -p "$dir"
  local args=(sweep efficiency --axis type=A32,C64 --set trials=2 --threads 1)

  # Golden run doubles as the op-count probe: a count-only plan (rate 0)
  # prints `io-faults: ops=N ...` at exit, which sizes the matrix below.
  env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/ref" --io-faults 7:0 \
    > /dev/null 2> "$dir/ref.err"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"
  local total_ops
  total_ops=$(sed -n 's/^io-faults: ops=\([0-9]*\).*/\1/p' "$dir/ref.err" | tail -1)
  if [[ -z "$total_ops" || "$total_ops" -lt 5 ]]; then
    echo "fault: count-only probe reported no plausible op count" >&2
    return 1
  fi

  # Deterministic EIO/short-write/fsync sweep: every injected fault is
  # transient, so the retry policy must absorb all of them — exit 0 and
  # byte-identical artifacts.
  env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/eio" \
    --io-faults 7:0.05:eio,short,fsync > /dev/null 2> "$dir/eio.err"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/eio"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/eio"
  if ! grep -q '^io-fault: ' "$dir/eio.err"; then
    echo "fault: the 5% EIO sweep injected nothing — dead injection path?" >&2
    return 1
  fi

  # The same sweep under TSAN with worker threads: concurrent wrapped ops
  # and retries must be race-free and still land thread-invariant bytes.
  env -C "$dir" "$TSAN_BUILD"/tools/xres "${args[@]}" --out-dir "$dir/tsan-ref" > /dev/null
  env -C "$dir" "$TSAN_BUILD"/tools/xres sweep efficiency --axis type=A32,C64 --set trials=2 \
    --threads 4 --out-dir "$dir/tsan-eio" --io-faults 7:0.05:eio,short,fsync \
    > /dev/null 2>&1
  "$TSAN_BUILD"/tools/xres suite verify --out-dir "$dir/tsan-eio"
  diff -r --exclude=journals --exclude=perf.json "$dir/tsan-ref" "$dir/tsan-eio"

  # ENOSPC mid-suite: full disks are not retried — the run must stop with
  # the clean resumable exit 75, journal intact, and a faults-off --resume
  # must finish byte-identically.
  local mid=$((total_ops / 2)) rc=0
  env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/enospc" \
    --io-faults "7:0:enospc@$mid" > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 75 ]]; then
    echo "fault: ENOSPC at op $mid: expected exit 75 (resumable), got $rc" >&2
    return 1
  fi
  env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/enospc" --resume > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/enospc"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/enospc"

  # Crash-point matrix on a reduced op range (~12 points spread over the
  # whole run): _exit at op N simulates power loss mid-primitive; every
  # resume must converge to the golden bytes.
  local stride=$(((total_ops + 11) / 12)) n
  for ((n = 1; n <= total_ops; n += stride)); do
    rm -rf "$dir/crash"
    rc=0
    env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/crash" \
      --io-faults "7:0:crash@$n" > /dev/null 2>&1 || rc=$?
    if [[ "$rc" != 86 ]]; then
      echo "fault: crash@$n: expected injected-crash exit 86, got $rc" >&2
      return 1
    fi
    env -C "$dir" "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/crash" --resume > /dev/null
    "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
    diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"
  done

  # Best-effort artifacts degrade, never fail the run: a ledger pointed at
  # an unwritable path must warn once and leave the exit code and artifact
  # bytes alone.
  echo blocker > "$dir/not-a-dir"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --ledger "$dir/not-a-dir/ledger.jsonl" > "$dir/degraded.txt" 2> "$dir/degraded.err"
  grep -q 'run ledger degraded' "$dir/degraded.err"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --ledger "$dir/ok-ledger.jsonl" > "$dir/plain.txt"
  # Only the ledger success banner may differ; study output must not.
  grep -v '^run recorded in ledger ' "$dir/plain.txt" > "$dir/plain-clean.txt"
  cmp "$dir/degraded.txt" "$dir/plain-clean.txt"

  # Exit-code contract (docs/ROBUSTNESS.md): 0 ok, 1 failure, 2 usage,
  # 75 resumable, 86 injected crash — pinned at the CLI boundary.
  check_rc() {
    local want="$1" rc=0
    shift
    "$@" > /dev/null 2>&1 || rc=$?
    if [[ "$rc" != "$want" ]]; then
      echo "fault: expected exit $want from '$*', got $rc" >&2
      return 1
    fi
  }
  echo "wholly corrupt, not a journal" > "$dir/corrupt.jsonl"
  check_rc 0 "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=2 --no-ledger
  check_rc 1 "$BUILD"/tools/xres run no-such-study
  check_rc 2 "$BUILD"/tools/xres run efficiency --no-such-flag
  check_rc 2 "$BUILD"/tools/xres run efficiency --io-faults bogus-spec
  check_rc 2 "$BUILD"/tools/xres journal /nonexistent/journal.jsonl
  check_rc 2 "$BUILD"/tools/xres journal "$dir/corrupt.jsonl"
  check_rc 2 "$BUILD"/tools/xres show some-run --ledger /nonexistent/ledger.jsonl
  check_rc 2 "$BUILD"/tools/xres compare a b --ledger "$dir/corrupt.jsonl"
  echo "fault injection: OK (EIO sweep byte-identical, ENOSPC exit 75 +" \
    "resume, crash matrix x$(((total_ops + stride - 1) / stride)) converged," \
    "exit codes pinned)"
}
fault_injection_check
stage_done fault-injection

# Surrogate stage (docs/STUDIES.md): the analytic surrogate must be wired
# end to end at the CLI boundary — `--surrogate analytic|auto` runs, prints
# the per-cell provenance table with its error bounds, and rejects unknown
# modes as a usage error. The numerical contract (anchors bit-identical to
# the simulator, interior cells within the reported bound) is enforced by
# surrogate_diff_test.cpp: a fast subset in the tier-1 ctest pass above,
# the full differential matrix under XRES_SMOKE_ALL=1 below.
surrogate_check() {
  local dir="$OBS_TMP/surrogate"
  mkdir -p "$dir"
  local args=(run efficiency --set type=A32 --set trials=6 --seed 11 --threads 2
    --no-ledger)
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=analytic > "$dir/analytic.txt"
  grep -q 'Surrogate provenance' "$dir/analytic.txt"
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=auto > "$dir/auto.txt"
  grep -q 'Surrogate provenance' "$dir/auto.txt"
  local rc=0
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=bogus > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "surrogate: expected usage exit 2 for surrogate=bogus, got $rc" >&2
    return 1
  fi
  echo "surrogate: OK (analytic + auto provenance printed, bad mode exit 2)"
}
surrogate_check
stage_done surrogate

# Opt-in full-catalog smoke: every registered study at tiny trial counts,
# --threads 1 vs 2, artifacts byte-compared, plus the full surrogate
# differential matrix (the direct engine against the queued-callback oracle,
# plan knobs included) and the 200-config property test (tier-1 ctest
# covers fast subsets of all three unconditionally).
if [[ "${XRES_SMOKE_ALL:-0}" == "1" ]]; then
  XRES_SMOKE_ALL=1 "$BUILD"/tests/xres_tests \
    --gtest_filter='StudySmoke.FullCatalog*:SurrogateDiff.*:SurrogateProperty.*'
  stage_done smoke-all
fi

# Opt-in perf gate: compare engine microbenchmarks against the committed
# baseline. Off by default — shared/loaded runners are too noisy to block
# every run on wall-clock numbers.
if [[ "${XRES_PERF_GATE:-0}" == "1" ]]; then
  cmake --build "$BUILD" -j "$(nproc)" --target perf_engine
  "$BUILD"/bench/perf_engine --benchmark_min_time=0.2 --benchmark_repetitions=5 \
    --benchmark_filter='BM_EventQueue|BM_Simulation|BM_SingleAppTrialFailureHeavy|BM_TrialBatchFailureHeavy|BM_TrialExecutorBatch|BM_WorkloadFattreeStorm' \
    --out "$OBS_TMP/BENCH_engine.json"
  python3 tools/perf_gate.py "$OBS_TMP/BENCH_engine.json" \
    --baseline bench/BENCH_engine.baseline.json
fi

echo "tier-1 OK"
