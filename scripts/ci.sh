#!/usr/bin/env bash
# Staged CI driver. Each stage is individually invocable so the GitHub
# workflow (.github/workflows/ci.yml) can fan them out as separate jobs and a
# developer can reproduce exactly one job locally:
#
#   scripts/ci.sh release   # Release build with warnings as errors + FULL
#                           # ctest suite (tier1 + slow)
#   scripts/ci.sh asan      # ASan build + tier1 ctest + serving smoke with a
#                           # live /metrics scrape and access-log/trace join
#   scripts/ci.sh tsan      # TSan build (OpenMP off) + tier1 ctest + batch-
#                           # scheduler smoke under contention
#   scripts/ci.sh faults    # fault-injection matrix (NaN skip, crash/resume,
#                           # checkpoint corruption, artifact flush) on ASan;
#                           # --metrics-out files read back as exposition
#   scripts/ci.sh overload  # overload-resilience matrix: the Release
#                           # bench_overload sweep (no hung futures, typed
#                           # resolutions, >= 70% goodput kept at 10x), its
#                           # ASan and TSan smokes, serving fault injection
#                           # via $SES_FAULT_SPEC, and the shed/deadline/
#                           # fault paths race-checked under TSan
#   scripts/ci.sh kernels-dispatch
#                           # SIMD dispatch gate: kernel parity suite with
#                           # SES_KERNEL_VARIANT pinned per CPU-supported
#                           # tier (skips logged), the parity suite under
#                           # UBSan, and bench_kernels' within-run floors
#                           # (SIMD SpMM >= 1.5x scalar, transposed matmuls
#                           # >= 0.5x dense)
#   scripts/ci.sh scale     # million-node data-plane gate (DESIGN.md §16):
#                           # generator determinism double-run at 100k, the
#                           # Release 10k/100k/1M sweep whose exit status
#                           # holds bitwise shard parity and partition
#                           # sanity, and a 10k smoke under ASan
#   scripts/ci.sh forensics # request-forensics gate (DESIGN.md §15): Release
#                           # bench_serving with a deliberately tiny queue-
#                           # wait budget so the flight recorder's auto-dump
#                           # is guaranteed to trip; the live endpoints are
#                           # scraped mid-run (OpenMetrics exemplars on the
#                           # e2e histogram, /debug/slowest stage
#                           # monotonicity, the scheduler in /healthz)
#                           # and the dump + exemplar trace-ids are joined
#                           # offline against the access log and Chrome trace
#                           # (dumped e2e == logged submit->resolve offset)
#   scripts/ci.sh perfbench # repository benchmark (perfbench/README.md):
#                           # standalone perfbench/ build + perfbench_tests,
#                           # then a 1 s train run whose result line must
#                           # read correct with no failed operations
#
# Each bench binary enforces its own invariants in its exit status; no stage
# compares a timing against a committed BENCH_*.json.
# No arguments runs every stage in the order above. A numeric first argument
# is accepted as a job count for backward compatibility; JOBS=<n> works too.
# Stage logs and artifacts land in ci_artifacts/ (uploaded by CI on failure).
# Test tiers: ctest labels split the suite into `tier1` (fast unit tests, run
# on every variant) and `slow` (integration/fault/bench smokes, release only).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

# ccache transparently accelerates the CI matrix when present (the workflow
# installs and caches it); local runs without ccache are unaffected.
CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

mkdir -p ci_artifacts
SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT

# report_ccache STAGE — compiler-cache health, printed at the end of every
# stage. Fail-soft by design: a missing ccache, an unparseable stats format,
# or a cold cache must never fail CI — a low hit rate is a warning that the
# actions/cache key went stale, not an error.
report_ccache() {
  command -v ccache >/dev/null 2>&1 || return 0
  echo "=== [$1] ccache stats ==="
  ccache -s 2>/dev/null | tee "ci_artifacts/ccache-$1.log" || true
  local rate
  # ccache 4.x: "Hits: 123 / 456 (26.97 %)"; 3.x: "cache hit rate  26.97 %".
  rate="$(ccache -s 2>/dev/null \
    | sed -n -e 's/.*Hits:.*(\([0-9.]*\) *%).*/\1/p' \
             -e 's/.*cache hit rate[^0-9]*\([0-9.]*\) *%.*/\1/p' \
    | head -1)"
  if [[ -z "${rate}" ]]; then
    echo "note: [$1] could not parse a ccache hit rate (fail-soft)."
  elif python3 -c "import sys; sys.exit(0 if float('${rate}') < 50.0 else 1)" \
      2>/dev/null; then
    echo "WARNING: [$1] ccache hit rate ${rate}% is below 50% — cache cold" \
         "or key churn; builds are paying full compile cost (fail-soft)."
  else
    echo "[$1] ccache hit rate ${rate}%"
  fi
}

# build_variant NAME BUILD_DIR [cmake args...] — configure + build once.
build_variant() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . "${CMAKE_EXTRA[@]}" "$@"
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
}

ensure_release() {
  [[ -f build/CMakeCache.txt ]] || build_variant "release" build \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "${JOBS}"
}

ensure_asan() {
  [[ -f build-asan/CMakeCache.txt ]] || build_variant "asan" build-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSES_SANITIZE=address
  cmake --build build-asan -j "${JOBS}"
}

ensure_tsan() {
  [[ -f build-tsan/CMakeCache.txt ]] || build_variant "tsan" build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSES_SANITIZE=thread
  cmake --build build-tsan -j "${JOBS}"
}

ensure_ubsan() {
  [[ -f build-ubsan/CMakeCache.txt ]] || \
    cmake -B build-ubsan -S . "${CMAKE_EXTRA[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSES_SANITIZE=undefined
  # Only the kernel parity suite runs under UBSan; skip the full build.
  cmake --build build-ubsan -j "${JOBS}" --target kernels_test
}

# ---------------------------------------------------------------------------
stage_release() {
  # -Werror on top of the project's -Wall -Wextra: the Release build is
  # warning-clean, and a new warning fails this stage instead of scrolling by.
  build_variant "release" build -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
  echo "=== [release] full ctest suite (tier1 + slow) ==="
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

# ---------------------------------------------------------------------------
stage_asan() {
  build_variant "asan" build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSES_SANITIZE=address
  echo "=== [asan] tier1 ctest ==="
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L tier1

  # Serving smoke (under ASan: the tape-free fast path, the multi-threaded
  # query loop, the batch scheduler AND the embedded metrics server must be
  # memory-clean). The benchmark runs in the background with
  # the full observability surface on; the live /metrics endpoint is scraped
  # mid-run. Deliberately NOT --smoke: the run must last long enough (~15 s
  # of training under ASan; every metric family registers before training
  # starts) for the scraper to catch it alive.
  echo "=== [asan] bench_serving with live /metrics (2 threads) ==="
  ./build-asan/bench/bench_serving --scale=0.35 --epochs=150 --hidden=32 \
    --seeds=1 --threads=2 --queries=2000 \
    --sched-clients=2 --closed-queries=50 --open-queries=500 \
    --metrics-port=0 --access-log="${SCRATCH}/access.jsonl" \
    --trace-out="${SCRATCH}/serving-trace.json" \
    --out=ci_artifacts/BENCH_serving_asan.json \
    >"ci_artifacts/serving-asan.log" 2>&1 &
  local serving_pid=$!
  for _ in $(seq 1 200); do
    grep -q "metrics server on" "ci_artifacts/serving-asan.log" && break
    kill -0 "${serving_pid}" 2>/dev/null || break
    sleep 0.05
  done
  local port
  port="$(sed -n 's#.*localhost:\([0-9]*\)/metrics.*#\1#p' \
    "ci_artifacts/serving-asan.log" | head -1)"
  [[ -n "${port}" ]] || {
    cat "ci_artifacts/serving-asan.log"
    echo "FAIL: bench_serving never announced its metrics port"; exit 1; }
  python3 - "${port}" "${serving_pid}" <<'PY'
import os, sys, time, urllib.request

port, pid = sys.argv[1], int(sys.argv[2])
need = ["ses_infer_", "ses_sched_queue_wait_us_bucket",
        "ses_sched_", "ses_kernel_"]
body = ""
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(f"http://localhost:{port}/metrics",
                                    timeout=5) as resp:
            assert "version=0.0.4" in resp.headers["Content-Type"]
            body = resp.read().decode()
    except OSError:
        body = ""
    if all(n in body for n in need):
        break
    try:
        os.kill(pid, 0)  # benchmark still running?
    except ProcessLookupError:
        sys.exit(f"bench_serving (pid {pid}) exited before a complete scrape")
    time.sleep(0.05)
missing = [n for n in need if n not in body]
assert not missing, f"mid-run scrape missing families {missing}"
# Shape check: every non-comment line must be "name[{labels}] value", and the
# histogram series must close with a +Inf bucket.
for line in body.splitlines():
    if not line or line.startswith("#"):
        continue
    name_part = line.split("{")[0].split(" ")[0]
    assert name_part and name_part.replace("_", "a").replace(":", "a").isalnum(), line
    float(line.rsplit(" ", 1)[1])  # value parses as a number
assert 'le="+Inf"' in body, "histogram exposition lacks a +Inf bucket"
with urllib.request.urlopen(f"http://localhost:{port}/healthz",
                            timeout=5) as resp:
    import json
    health = json.load(resp)
assert health["status"] == "ok", health
print(f"mid-run scrape ok: {len(body.splitlines())} exposition lines, "
      f"all of {need} present")
PY
  # bench_serving aborts unless the fast-path and scheduled logits are
  # bitwise equal to the tape path's.
  wait "${serving_pid}" || {
    cat "ci_artifacts/serving-asan.log"
    echo "FAIL: bench_serving exited non-zero"; exit 1; }

  echo "=== [asan] every access-log trace-id resolves to trace spans ==="
  python3 - "${SCRATCH}/access.jsonl" "${SCRATCH}/serving-trace.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    entries = [json.loads(line) for line in f if line.strip()]
assert entries, "access log is empty"
with open(sys.argv[2]) as f:
    trace = json.load(f)
span_ids = {ev["args"]["trace_id"] for ev in trace["traceEvents"]
            if "args" in ev and "trace_id" in ev["args"]}
orphans = [e["trace_id"] for e in entries if e["trace_id"] not in span_ids]
assert not orphans, f"{len(orphans)} access-log requests have no spans, " \
                    f"e.g. trace_id {orphans[0]}"
ops = {e["op"] for e in entries}
assert {"infer.predict", "infer.explain"} <= ops, ops
assert {"sched.predict"} <= ops, \
    f"scheduled requests missing from the access log: {ops}"
print(f"{len(entries)} access-log lines joined against "
      f"{len(span_ids)} request trace-ids")
PY
}

# ---------------------------------------------------------------------------
stage_tsan() {
  build_variant "tsan" build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSES_SANITIZE=thread
  echo "=== [tsan] tier1 ctest ==="
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L tier1

  # Races are probabilistic: one clean pass proves little. Repeat the graph-
  # version snapshot, halo-exchange, queue-bound recovery and flight-recorder
  # dump-trigger race tests, each up to 20 times.
  echo "=== [tsan] snapshot, halo, queue-bound and dump-trigger race tests, repeated ==="
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    --repeat until-fail:20 -R \
    'ServeTest\.(Snapshot|ForwardLogitsIsSafeAgainstConcurrentArtifactRebuilds|AccessLogVersionsOneClientSeesNeverDecrease|AdmissionResumesOnceTheQueueDrains)|ShardedSessionTest\.HaloExchange|FlightRecorderTest\.ConcurrentBreachesDumpExactlyOnce'

  # Scheduler smoke under TSan: concurrent producers, micro-batch formation,
  # worker-pool execution, lock-free future completion, and the batched
  # metrics recording all race-checked in one run. --smoke keeps the
  # model tiny; the scheduler phase still pushes thousands of requests
  # through every flush path.
  echo "=== [tsan] bench_serving --smoke (scheduler under contention) ==="
  ./build-tsan/bench/bench_serving --smoke --sched-clients=4 \
    --out=ci_artifacts/BENCH_serving_tsan.json \
    | tee "ci_artifacts/serving-tsan.log"
}

# ---------------------------------------------------------------------------
stage_faults() {
  ensure_asan
  # Fault-injection matrix (under ASan: resume paths must also be
  # memory-clean). A tiny quickstart run keeps each scenario to seconds.
  local quickstart="./build-asan/examples/quickstart"
  local qs_args=(--scale=0.12 --epochs=12 --checkpoint-every=4)
  local fault_dir="${SCRATCH}/faults"
  mkdir -p "${fault_dir}"

  echo "=== [faults] NaN-loss injection: training must skip the step and finish ==="
  SES_FAULT_SPEC="nan_loss:phase=phase1,step=3" \
    "${quickstart}" "${qs_args[@]}" --metrics-out="${fault_dir}/nan-metrics.prom" \
    | tee "${fault_dir}/nan.log"
  grep -q "nan_skips=0" "${fault_dir}/nan.log" && {
    echo "FAIL: NaN injection did not register a skipped step"; exit 1; }
  check_exposition "${fault_dir}/nan-metrics.prom" nan_skips

  echo "=== [faults] crash at phase-1 epoch 8, then resume from checkpoint ==="
  set +e
  SES_FAULT_SPEC="crash:phase=phase1,epoch=8" \
    "${quickstart}" "${qs_args[@]}" --checkpoint-dir="${fault_dir}/ckpt-crash"
  local status=$?
  set -e
  [[ "${status}" -eq 42 ]] || {
    echo "FAIL: injected crash exited with ${status}, expected 42"; exit 1; }
  "${quickstart}" "${qs_args[@]}" --checkpoint-dir="${fault_dir}/ckpt-crash" \
    | tee "${fault_dir}/resume.log"
  grep -q "resume_ok=0" "${fault_dir}/resume.log" && {
    echo "FAIL: resume after crash did not load a checkpoint"; exit 1; }

  echo "=== [faults] corrupt newest checkpoint, resume must fall back ==="
  set +e
  SES_FAULT_SPEC="corrupt_ckpt:phase=phase1,epoch=8,mode=flip;crash:phase=phase1,epoch=10" \
    "${quickstart}" "${qs_args[@]}" --checkpoint-dir="${fault_dir}/ckpt-corrupt"
  status=$?
  set -e
  [[ "${status}" -eq 42 ]] || {
    echo "FAIL: injected crash exited with ${status}, expected 42"; exit 1; }
  "${quickstart}" "${qs_args[@]}" --checkpoint-dir="${fault_dir}/ckpt-corrupt" \
    | tee "${fault_dir}/fallback.log"
  grep -q "resume_corrupt=0" "${fault_dir}/fallback.log" && {
    echo "FAIL: corrupted checkpoint was not rejected on resume"; exit 1; }
  grep -q "resume_ok=0" "${fault_dir}/fallback.log" && {
    echo "FAIL: resume did not fall back to the previous rotation"; exit 1; }

  echo "=== [faults] crash must still flush the observability artifacts ==="
  set +e
  SES_FAULT_SPEC="crash:phase=phase1,epoch=8" \
    "${quickstart}" "${qs_args[@]}" --trace-out="${fault_dir}/crash-trace.json" \
    --metrics-out="${fault_dir}/crash-metrics.prom"
  status=$?
  set -e
  [[ "${status}" -eq 42 ]] || {
    echo "FAIL: injected crash exited with ${status}, expected 42"; exit 1; }
  python3 - "${fault_dir}/crash-trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
assert trace["traceEvents"], "crash-flushed trace has no spans"
PY
  check_exposition "${fault_dir}/crash-metrics.prom" crash
  echo "crashed run left a parseable trace and a metrics exposition"
}

# check_exposition FILE nan_skips|crash — reads a --metrics-out file as
# Prometheus exposition text (every line a `# TYPE` header or a sample whose
# value parses). A NaN run must count ses_train_nan_skips >= 1; a crashed
# run must carry the series a clean exit writes: the robustness counters,
# the ses_span_* aggregates and the ses_kernel_* table.
check_exposition() {
  python3 - "$1" "$2" <<'PY'
import sys

path, mode = sys.argv[1], sys.argv[2]
samples = {}
with open(path) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith("# TYPE "), f"{path}: bad comment {line!r}"
            continue
        series, value = line.rsplit(" ", 1)
        samples[series] = float(value)
assert samples, f"{path}: no samples"
names = {s.split("{", 1)[0] for s in samples}
for need in ("ses_train_nan_skips", "ses_train_rollbacks", "ses_ckpt_writes"):
    assert need in names, f"{path}: {need} missing"
if mode == "nan_skips":
    assert samples["ses_train_nan_skips"] >= 1, \
        f"{path}: ses_train_nan_skips = {samples['ses_train_nan_skips']}"
else:
    for need in ("ses_span_count", "ses_span_total_ms", "ses_kernel_calls"):
        assert need in names, f"{path}: {need} missing"
print(f"{path}: {len(samples)} exposition samples, {len(names)} names")
PY
}

# ---------------------------------------------------------------------------
stage_overload() {
  ensure_release
  # bench_overload exits non-zero on an unresolved future or an untyped
  # resolution, and on the full sweep when less than 70% of the 1x goodput
  # survives 10x offered load.
  echo "=== [overload] Release bench_overload sweep (goodput retention) ==="
  ./build/bench/bench_overload --out=ci_artifacts/BENCH_overload_release.json \
    | tee "ci_artifacts/overload-release.log"

  # Short sweep under ASan: queue-bound shedding (explains first), deadline
  # expiry, and the retry/backoff client loop must all be memory-clean.
  # --smoke checks the resolution invariants only.
  ensure_asan
  echo "=== [overload] ASan overload sweep (smoke) ==="
  ./build-asan/bench/bench_overload --smoke \
    --out=ci_artifacts/BENCH_overload_asan.json \
    | tee "ci_artifacts/overload-asan.log"

  # Env-driven serving faults: with no explicit plan the scheduler arms
  # $SES_FAULT_SPEC, so a stall + slow forward injected from the outside must
  # ride through a full serving benchmark without tripping any check.
  echo "=== [overload] env-injected worker stall + slow forward under ASan ==="
  SES_FAULT_SPEC="worker_stall:step=2,ms=30;slow_forward:step=5,ms=10" \
    ./build-asan/bench/bench_serving --smoke \
    --out=ci_artifacts/BENCH_serving_stall.json \
    | tee "ci_artifacts/overload-stall.log"

  # The deterministic serving fault matrix (poisoned request, thrown batch,
  # worker stall with clean drain, deadline semantics, queue-bound shedding
  # and recovery, post-stop rejection) lives in serve_test; run it under both
  # sanitizers — ASan proves the failure paths leak nothing, TSan proves the
  # shed / deadline paths are race-free under contention.
  echo "=== [overload] serving fault matrix under ASan ==="
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -R '^ServeTest\.'
  ensure_tsan
  echo "=== [overload] shed/deadline/fault paths under TSan ==="
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -R '^ServeTest\.'
  echo "=== [overload] TSan overload sweep (smoke) ==="
  ./build-tsan/bench/bench_overload --smoke --point-seconds=0.25 \
    --out=ci_artifacts/BENCH_overload_tsan.json \
    | tee "ci_artifacts/overload-tsan.log"
}

# ---------------------------------------------------------------------------
stage_kernels_dispatch() {
  ensure_release
  # SIMD dispatch gate: the full kernel parity suite (SIMD-vs-scalar parity
  # sweeps, NaN masking, fused epilogue, fused-op gradients) re-runs with
  # SES_KERNEL_VARIANT pinned to each tier the host CPU supports. Tiers the
  # host lacks are LOGGED as skipped, never silently dropped — a CI box
  # without AVX-512 must say so in the log.
  local parity_filter='DispatchTest.*:KernelParityTest.*:SpmmParityTest.*'
  parity_filter+=':SpmmNanTest.*:SpmmBiasActTest.*:SpmmGradTest.*'
  parity_filter+=':SparseOpTest.*:BackboneParityTest.*'
  local variant
  for variant in scalar avx2 avx512; do
    local supported=1
    case "${variant}" in
      avx2)
        grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo \
          || supported=0 ;;
      avx512)
        grep -qw avx512f /proc/cpuinfo && grep -qw fma /proc/cpuinfo \
          || supported=0 ;;
    esac
    if [[ "${supported}" -eq 0 ]]; then
      echo "=== [kernels-dispatch] SES_KERNEL_VARIANT=${variant} SKIPPED:" \
           "host CPU lacks ${variant} (parity for this tier not verified" \
           "on this box) ==="
      continue
    fi
    echo "=== [kernels-dispatch] parity suite with SES_KERNEL_VARIANT=${variant} ==="
    SES_KERNEL_VARIANT="${variant}" ./build/tests/kernels_test \
      --gtest_filter="${parity_filter}" \
      | tee "ci_artifacts/kernels-dispatch-${variant}.log"
  done

  # The parity sweeps double as sanitizer fodder: masked AVX-512 tails and
  # the CSR row-pointer walk over empty rows are exactly where an
  # out-of-bounds lane read or a signed overflow would hide. ASan covers
  # them via the tier1 suite in stage_asan; UBSan gets a dedicated build
  # here (kernels_test only).
  ensure_ubsan
  echo "=== [kernels-dispatch] parity suite under UBSan ==="
  ./build-ubsan/tests/kernels_test \
    | tee "ci_artifacts/kernels-dispatch-ubsan.log"

  # bench_kernels exits non-zero when, within its one run, SIMD SpMM falls
  # below 1.5x the scalar tier or a transposed matmul below 0.5x the dense
  # one. Both floors compare median per-call times, so a stall of a few ms
  # moves one call, not the verdict.
  echo "=== [kernels-dispatch] bench_kernels within-run floors ==="
  ./build/bench/bench_kernels --out=ci_artifacts/BENCH_kernels_release.json \
    | tee "ci_artifacts/kernels-release.log"
}

# ---------------------------------------------------------------------------
stage_scale() {
  ensure_release
  # Generator determinism: two independent 100k generations must agree on
  # the full-dataset digest (topology, labels, features, ground truth,
  # splits). This is the cheap canary for any nondeterminism creeping into
  # the per-node RNG stream forking.
  echo "=== [scale] generator determinism double-run at 100k ==="
  ./build/bench/bench_scale --digest --nodes=100000 \
    | tee "ci_artifacts/scale-digest.log"

  # Release sweep: 10k / 100k / 1M nodes, each point partitioned, sharded,
  # and proved bitwise-identical to the whole-graph session. bench_scale
  # exits non-zero on a parity break, an edge cut outside [0, 1] or a
  # balance below 1.
  echo "=== [scale] Release 10k/100k/1M sweep (parity + partition sanity) ==="
  ./build/bench/bench_scale --out=ci_artifacts/BENCH_scale_release.json \
    | tee "ci_artifacts/scale-release.log"

  # 10k smoke under ASan: the generator's two-pass streaming build, the
  # partitioner's scratch reuse, the halo BFS, and the per-shard mask
  # slicing must all be memory-clean.
  ensure_asan
  echo "=== [scale] ASan 10k smoke ==="
  ./build-asan/bench/bench_scale --smoke \
    --out=ci_artifacts/BENCH_scale_asan.json \
    | tee "ci_artifacts/scale-asan.log"
}

# ---------------------------------------------------------------------------
stage_forensics() {
  ensure_release
  # Request forensics end to end (DESIGN.md §15). One Release bench_serving
  # run with the whole forensics surface armed: exemplars and stage
  # attribution are always on; --flight-queue-budget-us=1 makes every
  # scheduled request breach the flight recorder's queue-wait budget, so its
  # auto-dump is guaranteed to trip on the very first batch. Generously sized closed-loop phase
  # (~1 s) so the mid-run scrape reliably catches the scheduler alive.
  echo "=== [forensics] bench_serving with flight recorder armed (live scrape) ==="
  rm -f ci_artifacts/flight-dump.json
  ./build/bench/bench_serving --scale=0.25 --epochs=40 --hidden=32 \
    --seeds=1 --threads=2 --queries=2000 \
    --sched-clients=4 --closed-queries=4000 --open-queries=4000 \
    --flight-queue-budget-us=1 \
    --flight-dump=ci_artifacts/flight-dump.json \
    --metrics-port=0 --access-log="${SCRATCH}/forensics-access.jsonl" \
    --trace-out="${SCRATCH}/forensics-trace.json" \
    --out=ci_artifacts/BENCH_serving_forensics.json \
    >"ci_artifacts/serving-forensics.log" 2>&1 &
  local serving_pid=$!
  for _ in $(seq 1 200); do
    grep -q "metrics server on" "ci_artifacts/serving-forensics.log" && break
    kill -0 "${serving_pid}" 2>/dev/null || break
    sleep 0.05
  done
  local port
  port="$(sed -n 's#.*localhost:\([0-9]*\)/metrics.*#\1#p' \
    "ci_artifacts/serving-forensics.log" | head -1)"
  [[ -n "${port}" ]] || {
    cat "ci_artifacts/serving-forensics.log"
    echo "FAIL: bench_serving never announced its metrics port"; exit 1; }

  # Live phase: poll /metrics until the scheduler's e2e histogram exposes an
  # OpenMetrics exemplar, then hit /debug/slowest and /healthz while the
  # process is still serving. The scraped exemplar trace-ids are written to
  # the scratch dir for the offline join below.
  python3 - "${port}" "${serving_pid}" "${SCRATCH}" <<'PY'
import json, os, sys, time, urllib.request

port, pid, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
base = f"http://localhost:{port}"

exemplar_ids = []
deadline = time.monotonic() + 300
while time.monotonic() < deadline:
    try:
        with urllib.request.urlopen(f"{base}/metrics", timeout=5) as resp:
            body = resp.read().decode()
    except OSError:
        body = ""
    exemplar_ids = []
    for line in body.splitlines():
        if not line.startswith("ses_sched_e2e_us_bucket"):
            continue
        head, sep, tail = line.partition(' # {trace_id="')
        if not sep:
            continue
        exemplar_ids.append(int(tail.split('"', 1)[0]))
        float(tail.rsplit(" ", 1)[1])   # exemplar value parses as a number
        float(head.rsplit(" ", 1)[1])   # so does the cumulative bucket count
    if exemplar_ids:
        break
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        sys.exit("FAIL: bench_serving exited before /metrics exposed an "
                 "exemplar on ses_sched_e2e_us")
    time.sleep(0.02)
assert exemplar_ids, "no OpenMetrics exemplar on ses_sched_e2e_us in 300 s"

with urllib.request.urlopen(f"{base}/debug/slowest", timeout=5) as resp:
    assert resp.headers["Content-Type"].startswith("application/json")
    slowest = json.load(resp)
records = slowest["records"]
assert records, "/debug/slowest served no records mid-run"
ORDER = ["submit", "admit", "seal", "forward_start", "forward_end", "resolve"]
for rec in records:
    stamps = [rec["stages_us"][k] for k in ORDER]
    assert stamps == sorted(stamps), \
        f"stage timestamps not monotonic: {rec}"
    assert rec["trace_id"] > 0 and rec["e2e_us"] >= 0, rec
e2es = [r["e2e_us"] for r in records]
assert e2es == sorted(e2es, reverse=True), "/debug/slowest not slowest-first"

with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
    health = json.load(resp)
schedulers = [c for c in health.get("components", {})
              if c.startswith("scheduler")]
assert schedulers, \
    f"no scheduler component in /healthz: {sorted(health.get('components', {}))}"

with open(os.path.join(scratch, "forensics-exemplars.json"), "w") as f:
    json.dump(exemplar_ids, f)
print(f"live forensics ok: {len(exemplar_ids)} e2e exemplars, "
      f"{len(records)} /debug/slowest records (top_k {slowest['top_k']}), "
      f"/healthz components {schedulers}")
PY
  wait "${serving_pid}" || {
    cat "ci_artifacts/serving-forensics.log"
    echo "FAIL: bench_serving exited non-zero"; exit 1; }

  echo "=== [forensics] dump + exemplars join the access log and Chrome trace ==="
  [[ -s ci_artifacts/flight-dump.json ]] || {
    echo "FAIL: the queue-wait breach never auto-dumped ci_artifacts/flight-dump.json"
    exit 1; }
  python3 - ci_artifacts/flight-dump.json \
    "${SCRATCH}/forensics-access.jsonl" "${SCRATCH}/forensics-trace.json" \
    "${SCRATCH}/forensics-exemplars.json" \
    ci_artifacts/BENCH_serving_forensics.json <<'PY'
import json, sys

dump_path, access_path, trace_path, exemplar_path, bench_path = sys.argv[1:6]

with open(dump_path) as f:
    dump = json.load(f)
records = dump["records"]
assert records, "flight-recorder dump has no records"
ORDER = ["submit", "admit", "seal", "forward_start", "forward_end", "resolve"]
for rec in records:
    stamps = [rec["stages_us"][k] for k in ORDER]
    assert stamps == sorted(stamps), f"dumped record not monotonic: {rec}"

with open(access_path) as f:
    entries = [json.loads(line) for line in f if line.strip()]
assert entries, "access log is empty"
missing_reason = [e["trace_id"] for e in entries if "reason" not in e]
assert not missing_reason, \
    f"{len(missing_reason)} access-log entries lack a reason field"
access_ids = {e["trace_id"] for e in entries}

with open(trace_path) as f:
    trace = json.load(f)
span_ids = {ev["args"]["trace_id"] for ev in trace["traceEvents"]
            if "args" in ev and "trace_id" in ev["args"]}
names = {ev.get("name", "") for ev in trace["traceEvents"]}
for stage in ("admit", "seal", "queue", "forward", "resolve"):
    assert f"sched/stage/{stage}" in names, \
        f"Chrome trace lacks the sched/stage/{stage} span"

dump_ids = {r["trace_id"] for r in records}
orphans = sorted(dump_ids - access_ids)
assert not orphans, f"{len(orphans)} dumped requests missing from the " \
                    f"access log, e.g. trace_id {orphans[0]}"
orphans = sorted(dump_ids - span_ids)
assert not orphans, f"{len(orphans)} dumped requests have no trace spans, " \
                    f"e.g. trace_id {orphans[0]}"

# Cross-sink join: the dump and the access log print the same request
# record. A dumped request's e2e_us must equal, to print precision, the
# submit -> resolve offset its access-log line reports: stages_us.resolve
# for a scheduled request, latency_us for a direct one (whose forward ends
# at resolve).
lines_by_id = {}
for e in entries:
    lines_by_id.setdefault(e["trace_id"], []).append(e)
for rec in records:
    logged = [e["stages_us"]["resolve"] if "stages_us" in e
              else e["latency_us"] for e in lines_by_id[rec["trace_id"]]]
    assert rec["e2e_us"] in logged, \
        f"dumped e2e_us {rec['e2e_us']} of trace_id {rec['trace_id']} " \
        f"matches no access-log line ({logged})"
STAGED = ["admit", "seal", "forward_start", "forward_end", "resolve"]
staged = [e for e in entries if "stages_us" in e]
assert staged, "no access-log line carries stages_us"
for e in staged:
    offsets = [e["stages_us"][k] for k in STAGED]
    assert offsets == sorted(offsets) and offsets[0] >= 0, \
        f"access-log stage offsets not monotonic: {e}"

with open(exemplar_path) as f:
    exemplar_ids = set(json.load(f))
assert exemplar_ids <= access_ids, \
    f"exemplar trace-ids missing from the access log: " \
    f"{sorted(exemplar_ids - access_ids)}"
assert exemplar_ids <= span_ids, \
    f"exemplar trace-ids missing from the Chrome trace: " \
    f"{sorted(exemplar_ids - span_ids)}"

with open(bench_path) as f:
    bench = json.load(f)
stages = bench["scheduler"]["stages"]
for stage in ("admit", "seal", "queue", "forward", "resolve"):
    assert stages[stage]["p99_us"] >= stages[stage]["p50_us"] >= 0.0, stages
print(f"{len(records)} dumped records and {len(exemplar_ids)} exemplars "
      f"joined against {len(entries)} access-log lines and "
      f"{len(span_ids)} span trace-ids; e2e matches the access log; "
      f"{len(staged)} staged lines monotonic; stages block present")
PY
}

# ---------------------------------------------------------------------------
stage_perfbench() {
  echo "=== [perfbench] standalone configure + perfbench_tests ==="
  cmake -B build-perfbench -S perfbench "${CMAKE_EXTRA[@]}" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build build-perfbench -j "${JOBS}" --target perfbench_tests
  ./build-perfbench/perfbench_tests

  # serve-write checks every sharded answer exactly against a whole-graph
  # session, so it gates bitwise shard parity end to end.
  local workload
  for workload in train serve-write; do
    echo "=== [perfbench] ${workload} workload, 1 s, untraced ==="
    python3 perfbench/run.py --workload "${workload}" --seed 0 --seconds 1 \
      --trace 0 > "ci_artifacts/perfbench-${workload}.out"
    python3 - "ci_artifacts/perfbench-${workload}.out" "${workload}" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
assert lines, "perfbench printed no result line"
result = json.loads(lines[-1])
assert result["correct"] is True, f"perfbench result not correct: {result}"
assert result["failed"] == 0, f"perfbench reported failures: {result}"
print(f"perfbench {sys.argv[2]} ok: {result['attempted']} operations, "
      f"train_s {result['metrics']['train_s']['value']:.2f} s")
PY
  done
}

# ---------------------------------------------------------------------------
STAGES=()
for arg in "$@"; do
  case "${arg}" in
    release|asan|tsan|faults|overload|kernels-dispatch|scale|forensics|perfbench) STAGES+=("${arg}") ;;
    ''|*[!0-9]*)
      echo "unknown stage '${arg}' (expected release|asan|tsan|faults|overload|kernels-dispatch|scale|forensics|perfbench)" >&2
      exit 2 ;;
    *) JOBS="${arg}" ;;  # back-compat: scripts/ci.sh [JOBS]
  esac
done
[[ ${#STAGES[@]} -gt 0 ]] || \
  STAGES=(release asan tsan faults overload kernels-dispatch scale forensics perfbench)

for stage in "${STAGES[@]}"; do
  "stage_${stage//-/_}"  # dashes in stage names map to underscores
  report_ccache "${stage}"
done
echo "=== stages passed: ${STAGES[*]} ==="
