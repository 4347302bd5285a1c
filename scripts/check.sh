#!/usr/bin/env bash
# CI gate: the one command that must pass before merging.
#   scripts/check.sh [jobs]
#
# Stages:
#   1. Configure with -DLIDI_THREAD_SAFETY=ON and -DLIDI_LOCK_ORDER=ON. Under
#      Clang this promotes -Wthread-safety to an error across the tree;
#      under GCC the attributes are no-ops and CMake prints a warning but
#      the build (and the runtime lock-order registry) still gates.
#   2. Lint, before anything compiles: scripts/lidi_check.py, the one lint
#      entry point. Its nine checks (must-check, reactor-blocking,
#      sim-determinism, tsa-coverage, raw-locks, stream-io, tsa-escape,
#      sync-choke-point, raw-sockets) need no build tree; clang-tidy runs
#      too when installed, reading the compile_commands.json stage 1
#      exported. Waivers (`discard-ok:`, `tsa-ok:`, `reactor-ok:`,
#      `sync-choke-point`) and the populations they cover are capped by
#      constants in lidi_check.py; raising a cap is a code-review decision.
#      DESIGN.md §12 is the contract.
#   3. Build.
#   4. Full ctest suite — includes the >=200-seed group-commit crash sweeps
#      in faultfs_test (GroupCommitNeverLosesAnAcknowledgedAppend and the
#      Binlog equivalent) and the `workload` label (open-loop driver, sim
#      overload schedule).
#   4b. Open-loop overload smoke: bench_open_loop --smoke asserts the
#      graceful-degradation shape (zero sheds at trivial load, nonzero at
#      saturation) on the deterministic sim backend.
#   4c. Repo benchmark self-test (perfbench/test_perfbench.py): the result
#      summarizer and stamp contract, plus `run.py --smoke`, which builds
#      lidi_perfbench from src/ in its own Release tree (.bench_build/) and
#      runs every workload's correctness checks for a few hundred
#      operations, so a src/ change that breaks a workload fails here.
#      About 2 s with a warm build, a few minutes cold.
#   5. ThreadSanitizer pass over the concurrency-sensitive suites (faultfs
#      + every *concurrency*/sync test — which picks up
#      group_commit_concurrency_test: many appenders, one group-commit
#      leader, crash armed mid-batch) in a separate build tree, when the
#      toolchain supports -fsanitize=thread.
#   6. AddressSanitizer pass over the simulation suites (ctest -L sim) in a
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

say "configure (LIDI_THREAD_SAFETY=ON, LIDI_LOCK_ORDER=ON)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DLIDI_THREAD_SAFETY=ON -DLIDI_LOCK_ORDER=ON

say "lint (lidi-check, pre-build)"
python3 scripts/lidi_check.py --build-dir build

say "build"
cmake --build build -j"$JOBS"

say "tests"
ctest --test-dir build --output-on-failure -j"$JOBS"

say "open-loop overload smoke (bench_open_loop --smoke)"
# Graceful-degradation gate on the deterministic sim backend: a trivial
# arrival rate must shed nothing, a saturating one must shed (typed
# Overloaded rejections, EXPERIMENTS.md open-loop methodology). The binary
# exits nonzero when the shed shape is wrong.
build/bench/bench_open_loop --smoke

say "repo benchmark self-test (perfbench, incl. run.py --smoke)"
python3 -m unittest discover -s perfbench -p 'test_*.py'

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
