#!/usr/bin/env bash
# Staged CI driver. Each stage is individually invocable so the GitHub
# workflow (.github/workflows/ci.yml) can fan them out as separate jobs and a
# developer can reproduce exactly one job locally:
#
#   scripts/ci.sh release   # Release build + FULL ctest suite (tier1 + slow)
#   scripts/ci.sh asan      # ASan build + tier1 ctest + serving smoke with a
#                           # live /metrics scrape and access-log/trace join
#   scripts/ci.sh tsan      # TSan build (OpenMP off) + tier1 ctest + batch-
#                           # scheduler smoke under contention
#   scripts/ci.sh faults    # fault-injection matrix (NaN skip, crash/resume,
#                           # checkpoint corruption, artifact flush) on ASan
#   scripts/ci.sh overload  # overload-resilience matrix: ASan overload sweep
#                           # (queue bound, deadlines) with the
#                           # no-hung-futures gate, serving fault injection
#                           # via $SES_FAULT_SPEC, and the shed/deadline/
#                           # fault paths race-checked under TSan
#   scripts/ci.sh bench     # Release bench_serving gated against the
#                           # committed BENCH_serving.json baseline
#   scripts/ci.sh kernels   # Release bench_kernels gated against the
#                           # committed BENCH_kernels.json baseline, JSON
#                           # schema validation, and a SES_PERF_DISABLE=1
#                           # run proving the clock-only fallback
#   scripts/ci.sh kernels-dispatch
#                           # SIMD dispatch gate: kernel parity suite with
#                           # SES_KERNEL_VARIANT pinned per CPU-supported
#                           # tier (skips logged), autotuner determinism
#                           # double-run, and the parity suite under UBSan
#   scripts/ci.sh scale     # million-node data-plane gate (DESIGN.md §16):
#                           # generator determinism double-run at 100k, the
#                           # Release 10k/100k/1M sweep with the bitwise
#                           # shard-parity + partition-quality gate
#                           # (bench_check.sh on BENCH_scale.json), and a
#                           # 10k smoke under ASan
#   scripts/ci.sh forensics # request-forensics gate (DESIGN.md §15): Release
#                           # bench_serving with a deliberately tiny queue-
#                           # wait SLO so the flight recorder's burn-triggered
#                           # auto-dump is guaranteed to trip; the live
#                           # endpoints are scraped mid-run (OpenMetrics
#                           # exemplars on the e2e histogram, /debug/slowest
#                           # stage monotonicity, anomaly_watch in /healthz)
#                           # and the dump + exemplar trace-ids are joined
#                           # offline against the access log and Chrome trace
#                           # (dumped e2e == logged submit->resolve offset)
#   scripts/ci.sh perfbench # repository benchmark (perfbench/README.md):
#                           # standalone perfbench/ build + perfbench_tests,
#                           # then a 1 s train run whose result line must
#                           # read correct with no failed operations
#
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
  build_variant "release" build -DCMAKE_BUILD_TYPE=Release
  echo "=== [release] full ctest suite (tier1 + slow) ==="
  ctest --test-dir build --output-on-failure -j "${JOBS}"
}

# ---------------------------------------------------------------------------
stage_asan() {
  build_variant "asan" build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSES_SANITIZE=address
  echo "=== [asan] tier1 ctest ==="
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L tier1

  # Serving smoke (under ASan: the tape-free fast path, workspace pool, the
  # multi-threaded query loop, the batch scheduler AND the embedded metrics
  # server must be memory-clean). The benchmark runs in the background with
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
need = ["ses_pool_", "ses_infer_", "ses_slo_", "ses_sched_", "ses_kernel_"]
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
  wait "${serving_pid}" || {
    cat "ci_artifacts/serving-asan.log"
    echo "FAIL: bench_serving exited non-zero"; exit 1; }
  grep -q '"logits_max_abs_diff": 0' ci_artifacts/BENCH_serving_asan.json || {
    echo "FAIL: fast-path logits diverged from the tape path"; exit 1; }

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
  # version snapshot, halo-exchange and queue-bound recovery race tests, each
  # up to 20 times.
  echo "=== [tsan] snapshot, halo and queue-bound race tests, repeated ==="
  ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    --repeat until-fail:20 -R \
    'ServeTest\.(Snapshot|ForwardLogitsIsSafeAgainstConcurrentArtifactRebuilds|AccessLogVersionsOneClientSeesNeverDecrease|AdmissionResumesOnceTheQueueDrains)|ShardedSessionTest\.HaloExchange'

  # Scheduler smoke under TSan: concurrent producers, micro-batch formation,
  # worker-pool execution, lock-free future completion, and the batched
  # metrics/SLO recording all race-checked in one run. --smoke keeps the
  # model tiny; the scheduler phase still pushes thousands of requests
  # through every flush path.
  echo "=== [tsan] bench_serving --smoke (scheduler under contention) ==="
  ./build-tsan/bench/bench_serving --smoke --sched-clients=4 \
    --out=ci_artifacts/BENCH_serving_tsan.json \
    | tee "ci_artifacts/serving-tsan.log"
  grep -q "speedup_vs_direct" ci_artifacts/BENCH_serving_tsan.json || {
    echo "FAIL: TSan smoke produced no scheduler block"; exit 1; }
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
    "${quickstart}" "${qs_args[@]}" --metrics-out="${fault_dir}/nan-metrics.jsonl" \
    | tee "${fault_dir}/nan.log"
  grep -q "nan_skips=0" "${fault_dir}/nan.log" && {
    echo "FAIL: NaN injection did not register a skipped step"; exit 1; }
  grep -q '"ses.train.nan_skips"' "${fault_dir}/nan-metrics.jsonl" || {
    echo "FAIL: nan_skips counter missing from metrics snapshot"; exit 1; }

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
    --metrics-out="${fault_dir}/crash-metrics.jsonl"
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
  [[ -s "${fault_dir}/crash-metrics.jsonl" ]] || {
    echo "FAIL: crash did not flush the metrics snapshot"; exit 1; }
  echo "crashed run left a parseable trace and a metrics snapshot"
}

# ---------------------------------------------------------------------------
stage_overload() {
  ensure_asan
  # Short overload sweep under ASan: queue-bound shedding (explains first),
  # deadline expiry, and the retry/backoff client loop must all be
  # memory-clean. Only the structural invariants are gated (unresolved
  # futures, typed resolution counts) — retention measured on a sanitizer
  # build is noise, so the floor is disabled.
  echo "=== [overload] ASan overload sweep (smoke, structural gates) ==="
  ./build-asan/bench/bench_overload --smoke \
    --out=ci_artifacts/BENCH_overload_asan.json \
    | tee "ci_artifacts/overload-asan.log"
  SES_BENCH_MIN_OVERLOAD_RETENTION=0 \
    scripts/bench_check.sh ci_artifacts/BENCH_overload_asan.json

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
  SES_BENCH_MIN_OVERLOAD_RETENTION=0 \
    scripts/bench_check.sh ci_artifacts/BENCH_overload_tsan.json
}

# ---------------------------------------------------------------------------
stage_bench() {
  ensure_release
  # Serving-performance gate: a fresh Release run must stay within the
  # allowed regression envelope of the committed baseline (see
  # scripts/bench_check.sh). The pre-bench load average is captured so the
  # gate can tell "this machine was already busy" apart from a regression.
  echo "=== [bench] Release bench_serving vs committed BENCH_serving.json ==="
  SES_BENCH_PRELOAD="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)"
  export SES_BENCH_PRELOAD
  ./build/bench/bench_serving --out=ci_artifacts/BENCH_serving_release.json \
    | tee "ci_artifacts/serving-release.log"
  scripts/bench_check.sh ci_artifacts/BENCH_serving_release.json

  # Overload-resilience gate: a fresh Release sweep must keep >= 70% of its
  # 1x goodput at 10x offered load and resolve every future typed (see
  # scripts/bench_check.sh; the committed reference is BENCH_overload.json).
  echo "=== [bench] Release bench_overload (goodput retention gate) ==="
  ./build/bench/bench_overload --out=ci_artifacts/BENCH_overload_release.json \
    | tee "ci_artifacts/overload-release.log"
  scripts/bench_check.sh ci_artifacts/BENCH_overload_release.json
}

# ---------------------------------------------------------------------------
stage_kernels() {
  ensure_release
  # Kernel observatory gate: a fresh Release bench_kernels run must hold its
  # per-kernel GFLOP/s within the regression envelope of the committed
  # BENCH_kernels.json (see scripts/bench_check.sh — both JSONs carry the
  # "kernels" block, which engages the per-kernel gate).
  echo "=== [kernels] Release bench_kernels vs committed BENCH_kernels.json ==="
  SES_BENCH_PRELOAD="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)"
  export SES_BENCH_PRELOAD
  ./build/bench/bench_kernels --out=ci_artifacts/BENCH_kernels_release.json \
    | tee "ci_artifacts/kernels-release.log"
  scripts/bench_check.sh ci_artifacts/BENCH_kernels_release.json

  echo "=== [kernels] JSON schema validation ==="
  python3 - ci_artifacts/BENCH_kernels_release.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 2, doc.get("schema_version")
assert doc["active_tier"] in ("scalar", "avx2", "avx512"), doc["active_tier"]
assert isinstance(doc["spmm_simd_speedup"], (int, float)) \
    and doc["spmm_simd_speedup"] >= 0, doc["spmm_simd_speedup"]
assert isinstance(doc["perf_available"], bool)
roof = doc["roofline"]
for key in ("peak_gflops", "peak_bw_gbs", "ridge_intensity"):
    assert roof[key] > 0, f"roofline.{key} = {roof[key]}"
kernels = doc["kernels"]
assert len(kernels) >= 5, f"expected >=5 kernels, got {len(kernels)}"
tiered = [n for n in kernels
          if n.endswith(("_scalar", "_avx2", "_avx512"))]
assert tiered, "schema 2 requires tier-suffixed variant labels"
spmm_variants = [n for n in kernels if n.startswith("spmm|")]
assert len(spmm_variants) >= 3, \
    f"expected a per-variant spmm sweep, got {spmm_variants}"
for name, k in kernels.items():
    assert k["calls"] > 0, name
    assert k["time_ms"] > 0, name
    for key in ("gflops", "gbps", "intensity", "ipc", "llc_miss_rate",
                "roofline_efficiency"):
        assert isinstance(k[key], (int, float)) and k[key] >= 0, \
            f"{name}.{key} = {k[key]}"
    if doc["perf_available"]:
        assert k["counters_valid"] and k["ipc"] > 0, \
            f"{name}: perf available but counters invalid"
print(f"schema ok: {len(kernels)} kernels ({len(spmm_variants)} spmm "
      f"variants), active_tier={doc['active_tier']}, "
      f"spmm_simd_speedup={doc['spmm_simd_speedup']:.2f}, "
      f"perf_available={doc['perf_available']}")
PY

  # The clock-only fallback is a supported mode, not an error: with perf
  # disabled the benchmark must still finish, report perf_available=false,
  # and compute wall-clock GFLOP/s for every kernel.
  echo "=== [kernels] SES_PERF_DISABLE=1 fallback run (smoke) ==="
  SES_PERF_DISABLE=1 ./build/bench/bench_kernels --smoke \
    --out=ci_artifacts/BENCH_kernels_fallback.json \
    | tee "ci_artifacts/kernels-fallback.log"
  python3 - ci_artifacts/BENCH_kernels_fallback.json <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["perf_available"] is False, "SES_PERF_DISABLE=1 was ignored"
for name, k in doc["kernels"].items():
    assert not k["counters_valid"], f"{name} has counters without perf"
    assert k["ipc"] == 0 and k["llc_miss_rate"] == 0, name
flop_kernels = [k for k in doc["kernels"].values() if k["intensity"] > 0]
assert flop_kernels and all(k["gflops"] > 0 for k in flop_kernels), \
    "clock-only GFLOP/s missing"
print(f"fallback ok: {len(doc['kernels'])} kernels clock-only, "
      f"reason: {doc['perf_unavailable_reason']!r}")
PY
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
  parity_filter+=':SpmmNanTest.*:SpmmBiasActTest.*'
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

  # Autotuner determinism: the variant decision must be a pure function of
  # the graph statistics — two back-to-back runs of the autotune suite (and
  # the in-test two-plans-same-choice assertions) must agree.
  echo "=== [kernels-dispatch] autotuner determinism (two runs) ==="
  ./build/tests/kernels_test --gtest_filter='AutotuneTest.*:BackboneParityTest.*' \
    | tee "ci_artifacts/kernels-dispatch-autotune-1.log"
  ./build/tests/kernels_test --gtest_filter='AutotuneTest.*' \
    | tee "ci_artifacts/kernels-dispatch-autotune-2.log"

  # The parity sweeps double as sanitizer fodder: masked AVX-512 tails and
  # the CSR row-pointer walk over empty rows are exactly where an
  # out-of-bounds lane read or a signed overflow would hide. ASan covers
  # them via the tier1 suite in stage_asan; UBSan gets a dedicated build
  # here (kernels_test only).
  ensure_ubsan
  echo "=== [kernels-dispatch] parity suite under UBSan ==="
  ./build-ubsan/tests/kernels_test \
    | tee "ci_artifacts/kernels-dispatch-ubsan.log"
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

  # Release sweep with the full gate: 10k / 100k / 1M nodes, each point
  # partitioned, sharded, and proved bitwise-identical to the whole-graph
  # session. bench_check.sh enforces parity + partition quality structurally
  # and compares latencies against the committed BENCH_scale.json.
  echo "=== [scale] Release 10k/100k/1M sweep vs committed BENCH_scale.json ==="
  SES_BENCH_PRELOAD="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)"
  export SES_BENCH_PRELOAD
  ./build/bench/bench_scale --out=ci_artifacts/BENCH_scale_release.json \
    | tee "ci_artifacts/scale-release.log"
  scripts/bench_check.sh ci_artifacts/BENCH_scale_release.json

  # 10k smoke under ASan: the generator's two-pass streaming build, the
  # partitioner's scratch reuse, the halo BFS, and the per-shard mask
  # slicing must all be memory-clean. Structural gates only.
  ensure_asan
  echo "=== [scale] ASan 10k smoke (structural gates) ==="
  ./build-asan/bench/bench_scale --smoke \
    --out=ci_artifacts/BENCH_scale_asan.json \
    | tee "ci_artifacts/scale-asan.log"
  scripts/bench_check.sh ci_artifacts/BENCH_scale_asan.json
}

# ---------------------------------------------------------------------------
stage_forensics() {
  ensure_release
  # Request forensics end to end (DESIGN.md §15). One Release bench_serving
  # run with the whole forensics surface armed: exemplars and stage
  # attribution are always on; --sched-queue-budget-us=1 makes every
  # scheduled request breach its queue-wait budget, so the burn rate crosses
  # --flight-burn on the very first batch and the flight recorder's
  # auto-dump is guaranteed to trip. Generously sized closed-loop phase
  # (~1 s) so the mid-run scrape reliably catches the scheduler alive.
  echo "=== [forensics] bench_serving with flight recorder armed (live scrape) ==="
  rm -f ci_artifacts/flight-dump.json
  ./build/bench/bench_serving --scale=0.25 --epochs=40 --hidden=32 \
    --seeds=1 --threads=2 --queries=2000 \
    --sched-clients=4 --closed-queries=4000 --open-queries=4000 \
    --sched-queue-budget-us=1 --flight-burn=0.05 \
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
assert "anomaly_watch" in health.get("components", {}), \
    f"anomaly_watch component missing from /healthz: {sorted(health)}"

with open(os.path.join(scratch, "forensics-exemplars.json"), "w") as f:
    json.dump(exemplar_ids, f)
print(f"live forensics ok: {len(exemplar_ids)} e2e exemplars, "
      f"{len(records)} /debug/slowest records (top_k {slowest['top_k']}), "
      f"anomaly_watch registered")
PY
  wait "${serving_pid}" || {
    cat "ci_artifacts/serving-forensics.log"
    echo "FAIL: bench_serving exited non-zero"; exit 1; }

  echo "=== [forensics] dump + exemplars join the access log and Chrome trace ==="
  [[ -s ci_artifacts/flight-dump.json ]] || {
    echo "FAIL: the SLO breach never auto-dumped ci_artifacts/flight-dump.json"
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
    release|asan|tsan|faults|overload|bench|kernels|kernels-dispatch|scale|forensics|perfbench) STAGES+=("${arg}") ;;
    ''|*[!0-9]*)
      echo "unknown stage '${arg}' (expected release|asan|tsan|faults|overload|bench|kernels|kernels-dispatch|scale|forensics|perfbench)" >&2
      exit 2 ;;
    *) JOBS="${arg}" ;;  # back-compat: scripts/ci.sh [JOBS]
  esac
done
[[ ${#STAGES[@]} -gt 0 ]] || \
  STAGES=(release asan tsan faults overload bench kernels kernels-dispatch scale forensics perfbench)

for stage in "${STAGES[@]}"; do
  "stage_${stage//-/_}"  # dashes in stage names map to underscores
  report_ccache "${stage}"
done
echo "=== stages passed: ${STAGES[*]} ==="
