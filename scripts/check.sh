#!/usr/bin/env bash
# Verification driver over the labeled test tiers:
#   tier1  every unit/integration/differential suite at its default
#          (fast) seed and iteration counts;
#   slow   nightly-scale re-runs of the randomized suites (3x the
#          differential seeds, 15x the fuzz iterations) selected via
#          MUVE_DIFF_SEEDS / MUVE_FUZZ_ITERS.
#
# The default run first checks that every src/ header is reachable from
# the serving code, then builds Release with -Werror, runs tier1, builds the
# perfbench harness with -Werror, then rebuilds with
# ThreadSanitizer and runs tier1 again to catch data races in the
# parallel executor / engine / planner / cache paths, then rebuilds with
# AddressSanitizer + UndefinedBehaviorSanitizer and runs tier1 a third
# time to catch memory errors (use after free, overflows, dangling views)
# and undefined behaviour. --full adds the slow label to every pass.
#
# Usage: scripts/check.sh [--skip-tsan] [--full]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
LABELS=(-L tier1)
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --full) LABELS=() ;;  # No label filter: tier1 + slow.
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# src/ holds only what the serving path reaches: every src/ header must be
# included from src/, tools/ or examples/ (its own .cc does not count),
# or from perfbench/, which builds from src/ alone. Test oracles and
# bench code live under tests/ and bench/.
echo "==> Unreached src/ headers"
unreached=()
while IFS= read -r header; do
  users="$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
    "#include \"${header#src/}\"" src tools examples perfbench || true)"
  users="$(grep -vxF -e "${header%.h}.cc" -e '' <<<"$users" || true)"
  [[ -n "$users" ]] || unreached+=("$header")
done < <(find src -name '*.h' | sort)
if (( ${#unreached[@]} > 0 )); then
  printf '%s\n' "${unreached[@]}"
  echo "unreached src/ headers: move them to tests/ or bench/" >&2
  exit 1
fi

# The Release (-O3) build is warning-free and must stay so: -Werror.
echo "==> Release build (-Werror) + tests"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
  >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)" "${LABELS[@]+"${LABELS[@]}"}")

# The benchmark harness (perfbench/, a standalone package over ../src)
# must keep building, warning-free, against the current src/ API: an
# API change that breaks it fails here rather than in a benchmark run.
echo "==> Benchmark build (perfbench muve_bench, -Werror)"
cmake -B build/perfbench -S perfbench -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build/perfbench -j "$(nproc)" --target muve_bench

# The bench_ilp_smoke tier1 test wrote machine-readable solver stats
# (nodes/sec, time-to-first-incumbent, timeout ratio); surface them.
if [[ -f build/BENCH_ilp.json ]]; then
  echo "==> Solver smoke stats (build/BENCH_ilp.json)"
  cat build/BENCH_ilp.json
fi

# The bench_serve_smoke tier1 test wrote serving-latency stats (p50/p99,
# deadline-hit ratio, degradation-rung histogram); surface them.
if [[ -f build/BENCH_serve.json ]]; then
  echo "==> Serving smoke stats (build/BENCH_serve.json)"
  cat build/BENCH_serve.json
fi

# The bench_vec_smoke tier1 test wrote scalar-vs-vectorized executor
# stats (per-workload scan times and speedups at 100k/1M rows); surface
# them.
if [[ -f build/BENCH_vec.json ]]; then
  echo "==> Vectorized executor smoke stats (build/BENCH_vec.json)"
  cat build/BENCH_vec.json
fi

# The bench_phonetics_smoke tier1 test wrote phonetic-index stats
# (index build time, brute vs indexed lookups/sec at 1k/10k/100k
# vocabulary, pruned fraction); surface them.
if [[ -f build/BENCH_phonetics.json ]]; then
  echo "==> Phonetic index smoke stats (build/BENCH_phonetics.json)"
  cat build/BENCH_phonetics.json
fi

# The bench_server_smoke tier1 test wrote concurrent-server stats
# (offered vs sustained QPS, shed ratio, single-flight hit ratio,
# deadline-hit ratio); surface them.
if [[ -f build/BENCH_server.json ]]; then
  echo "==> Concurrent server smoke stats (build/BENCH_server.json)"
  cat build/BENCH_server.json
  # Headline per-tenant isolation: the well-behaved "gold" tenant's p99
  # alone vs while a "flood" tenant offers 10x its quota (acceptance:
  # ratio <= 2x), and the quota clip that protects it.
  echo "==> Per-tenant isolation (from tenant_isolation above)"
  grep -E '"(gold_offered_qps|flood_offered_qps|gold_isolated_p99_ms|gold_contended_p99_ms|isolation_ratio|flood_rejected_quota)":' \
    build/BENCH_server.json || true
fi

# The bench_ingest_smoke tier1 test wrote live-ingest stats (achieved
# append rate, read p99 under ingest vs baseline); surface them.
if [[ -f build/BENCH_ingest.json ]]; then
  echo "==> Live-ingest smoke stats (build/BENCH_ingest.json)"
  cat build/BENCH_ingest.json
fi

# The bench_dist_smoke tier1 test wrote distributed scatter-gather
# stats (routed vs local QPS/p99 at 1/2/4 loopback shard endpoints with
# bitwise-identical answers, and the straggler p99 with hedging off vs
# on); surface them.
if [[ -f build/BENCH_dist.json ]]; then
  echo "==> Distributed scatter-gather smoke stats (build/BENCH_dist.json)"
  cat build/BENCH_dist.json
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "==> Skipping ThreadSanitizer pass (--skip-tsan)"
else
  echo "==> ThreadSanitizer build + tests"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMUVE_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)"
  (cd build-tsan && ctest --output-on-failure -j "$(nproc)" "${LABELS[@]+"${LABELS[@]}"}")
fi

echo "==> AddressSanitizer + UndefinedBehaviorSanitizer build + tests"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMUVE_SANITIZE=address+undefined >/dev/null
cmake --build build-asan -j "$(nproc)"
(cd build-asan && ASAN_OPTIONS=abort_on_error=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --output-on-failure -j "$(nproc)" "${LABELS[@]+"${LABELS[@]}"}")

echo "==> All checks passed"
