#!/usr/bin/env bash
# CI gate: the one command that must pass before merging.
#   scripts/check.sh [jobs]
#
# Stages:
#   0. lidi-check (scripts/lidi_check.py): AST-level static analysis —
#      must-check, reactor-blocking, sim-determinism, tsa-coverage. Runs
#      before any compilation because it needs no build tree and catches
#      discarded Status / blocked reactors / unannotated shared state in
#      seconds. Waiver policy: a deliberate discard is `(void)expr` plus a
#      `discard-ok: <reason>` comment within the three preceding lines (or
#      trailing on the same line); TSA exemptions use `tsa-ok: <reason>`;
#      reactor-path blocking uses `reactor-ok: <reason>`. Waivers are
#      counted and capped repo-wide (see scripts/lidi_check.py --help);
#      raising a cap is a code-review decision.
#   1. Configure + build with -DLIDI_THREAD_SAFETY=ON. Under Clang this
#      promotes -Wthread-safety to an error across the tree; under GCC the
#      attributes are no-ops and CMake prints a warning but the build (and
#      the runtime lock-order registry, LIDI_LOCK_ORDER=ON by default)
#      still gates.
#   2. Lint (scripts/lint.sh): clang-tidy when available + the repo-local
#      grep invariants (no raw std::mutex outside src/common/sync.{h,cc},
#      no std::fstream outside src/io, justified+capped TSA escapes,
#      justified+capped direct Sync() choke points outside src/io).
#   3. Full ctest suite — includes the >=200-seed group-commit crash sweeps
#      in faultfs_test (GroupCommitNeverLosesAnAcknowledgedAppend and the
#      Binlog equivalent) and the `workload` label (open-loop driver, sim
#      overload schedule).
#   3b. Open-loop overload smoke: bench_open_loop --smoke asserts the
#      graceful-degradation shape (zero sheds at trivial load, nonzero at
#      saturation) on the deterministic sim backend.
#   3c. Repo benchmark self-test (perfbench/test_perfbench.py): the result
#      summarizer and stamp contract, plus `run.py --smoke`, which builds
#      lidi_perfbench from src/ in its own Release tree (.bench_build/) and
#      runs every workload's correctness checks for a few hundred
#      operations, so a src/ change that breaks a workload fails here.
#      About 2 s with a warm build, a few minutes cold.
#   4. ThreadSanitizer pass over the concurrency-sensitive suites (faultfs
#      + every *concurrency*/sync test — which picks up
#      group_commit_concurrency_test: many appenders, one group-commit
#      leader, crash armed mid-batch) in a separate build tree, when the
#      toolchain supports -fsanitize=thread.
#   5. AddressSanitizer pass over the simulation suites (ctest -L sim) in a
#      separate build tree, when the toolchain supports -fsanitize=address —
#      the chaos schedules crash/restart every tier, so this is where
#      use-after-free on teardown paths would surface — then over the
#      transport (-L net), elasticity (-L rebalance) and crash/fault-injection
#      (-L faultfs) suites.
#
# Nightly-style deep sweep (not part of the merge gate; run it before
# release branches or after touching crash/recovery paths):
#   scripts/check.sh sweep        # 5000-seed x 50-event simulation sweep
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

say() { printf '\n==== check: %s ====\n' "$*"; }

# Deep simulation sweep: 5000 seeded random chaos schedules against the full
# invariant catalogue. Failures print a ddmin-shrunk reproducer; replay with
# LIDI_SIM_SEED=<seed>.
if [ "${1:-}" = "sweep" ]; then
  JOBS="$(nproc 2>/dev/null || echo 4)"
  say "simulation sweep (LIDI_SIM_SEEDS=${LIDI_SIM_SEEDS:-5000})"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j"$JOBS"
  LIDI_SIM_SEEDS="${LIDI_SIM_SEEDS:-5000}" \
    ctest --test-dir build --output-on-failure -L sim
  say "sweep OK"
  exit 0
fi

say "lidi-check (static analysis, pre-build)"
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/lidi_check.py
else
  echo "check: no python3; lidi-check deferred to lint.sh grep fallbacks"
fi

say "build (LIDI_THREAD_SAFETY=ON, LIDI_LOCK_ORDER=ON)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DLIDI_THREAD_SAFETY=ON -DLIDI_LOCK_ORDER=ON
cmake --build build -j"$JOBS"

say "lint"
scripts/lint.sh build

say "tests"
ctest --test-dir build --output-on-failure -j"$JOBS"

say "open-loop overload smoke (bench_open_loop --smoke)"
# Graceful-degradation gate on the deterministic sim backend: a trivial
# arrival rate must shed nothing, a saturating one must shed (typed
# Overloaded rejections, EXPERIMENTS.md open-loop methodology). The binary
# exits nonzero when the shed shape is wrong.
build/bench/bench_open_loop --smoke

say "repo benchmark self-test (perfbench, incl. run.py --smoke)"
if command -v python3 >/dev/null 2>&1; then
  python3 -m unittest discover -s perfbench -p 'test_*.py'
else
  echo "check: no python3; skipping the perfbench self-test"
fi

say "thread-sanitizer (faultfs + concurrency + sync suites)"
if printf 'int main(){return 0;}' | \
   ${CXX:-c++} -fsanitize=thread -x c++ - -o /tmp/lidi_tsan_probe 2>/dev/null; then
  rm -f /tmp/lidi_tsan_probe
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLIDI_SANITIZE=thread
  cmake --build build-tsan -j"$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" \
        -R 'faultfs|concurrency|sync'
  say "thread-sanitizer (transport suites, ctest -L net)"
  # The TCP backend is the one component with real cross-thread socket
  # hand-off (callers <-> reactors <-> workers); it must stay TSan-clean.
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" -L net
  say "thread-sanitizer (elasticity suite, ctest -L rebalance)"
  # Live partition movement exercises the metadata reader/writer locks and
  # the epoch-gated router retry under every cutover interleaving.
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" -L rebalance
else
  echo "check: toolchain lacks -fsanitize=thread; skipping TSan stage"
fi

say "address-sanitizer (simulation suites, ctest -L sim)"
if printf 'int main(){return 0;}' | \
   ${CXX:-c++} -fsanitize=address -x c++ - -o /tmp/lidi_asan_probe 2>/dev/null; then
  rm -f /tmp/lidi_asan_probe
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLIDI_SANITIZE=address
  cmake --build build-asan -j"$JOBS"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L sim
  say "address-sanitizer (transport suites, ctest -L net)"
  # Connection/listener teardown paths (reap, DropConnections, destructor)
  # are where a transport use-after-free would surface.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L net
  say "address-sanitizer (elasticity suite, ctest -L rebalance)"
  # Rebalance schedules add/crash/restart nodes of every tier mid-flight —
  # the dangling-server/broker pointers an elastic topology could leak
  # surface here.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L rebalance
  say "address-sanitizer (crash/fault-injection suite, ctest -L faultfs)"
  # The durable logs write slices of sealed chunks and stop at the first
  # short write; the seeded torn-write schedules cut those slices at
  # arbitrary offsets.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L faultfs
else
  echo "check: toolchain lacks -fsanitize=address; skipping ASan stage"
fi

say "OK"
