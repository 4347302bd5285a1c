#!/usr/bin/env bash
# CI gate: the one command that must pass before merging.
#   scripts/check.sh [jobs]
#
# Stages:
#   1. Configure with -DLIDI_LOCK_ORDER=ON, so every test runs under the
#      runtime lock-order registry, and with CMake's
#      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON (CMake >= 3.24), so the build
#      stage fails when the compiler prints a warning.
#   2. Lint, before anything compiles: scripts/lidi_check.py, the one lint
#      entry point. Its eight checks (must-check, sim-determinism,
#      tsa-coverage, raw-locks, stream-io, tsa-escape, sync-choke-point,
#      raw-sockets) need no build tree. Waivers
#      (`discard-ok:`, `tsa-ok:`, `sync-choke-point`) and the populations
#      they cover are capped by constants in lidi_check.py; raising a cap is
#      a code-review decision. DESIGN.md §12 is the contract.
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
#      toolchain supports -fsanitize=thread; then the transport suites
#      (-L net) twice, once on every CPU and once pinned to CPU 0 with
#      taskset, and the elasticity suite (-L rebalance).
#   6. AddressSanitizer + UndefinedBehaviorSanitizer pass (-DLIDI_SANITIZE=
#      address, which aborts on the first undefined-behaviour report) over
#      the simulation suites (ctest -L sim) in a separate build tree, when
#      the toolchain supports -fsanitize=address,undefined — the chaos
#      schedules crash/restart every tier, so this is where use-after-free
#      on teardown paths would surface — then over the transport (-L net),
#      elasticity (-L rebalance), crash/fault-injection (-L faultfs) and
#      codec (-L codec: common_test, databus_test, espresso_test,
#      kafka_test, property_kafka_test, sqlstore_test and voldemort_test —
#      the decoders of CRC-32, Kafka, Databus, Espresso and Voldemort wire
#      bytes and of binlog records; about a second) suites.
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

say "configure (LIDI_LOCK_ORDER=ON, warnings as errors)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLIDI_LOCK_ORDER=ON \
      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

say "lint (lidi-check, pre-build)"
python3 scripts/lidi_check.py

say "build (warnings are errors)"
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
  # hand-off (callers, accept threads, connection threads, and the
  # shutdown(2) calls of one thread on a socket another owns); it must stay
  # TSan-clean.
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" -L net
  say "thread-sanitizer (transport suites on one CPU, taskset -c 0)"
  # One-CPU schedules are where a dispatch-slot race once flaked a shed test,
  # and where a close racing a shutdown(2) would show up.
  if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 ctest --test-dir build-tsan --output-on-failure -L net
  else
    echo "check: taskset not installed; skipping the one-CPU TSan run"
  fi
  say "thread-sanitizer (elasticity suite, ctest -L rebalance)"
  # Live partition movement exercises the metadata reader/writer locks and
  # the epoch-gated router retry under every cutover interleaving.
  ctest --test-dir build-tsan --output-on-failure -j"$JOBS" -L rebalance
else
  echo "check: toolchain lacks -fsanitize=thread; skipping TSan stage"
fi

say "ASan+UBSan (simulation suites, ctest -L sim)"
if printf 'int main(){return 0;}' | \
   ${CXX:-c++} -fsanitize=address,undefined -x c++ - \
     -o /tmp/lidi_asan_probe 2>/dev/null; then
  rm -f /tmp/lidi_asan_probe
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DLIDI_SANITIZE=address
  cmake --build build-asan -j"$JOBS"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L sim
  say "ASan+UBSan (transport suites, ctest -L net)"
  # Connection/listener teardown paths (DropConnections, Unregister, the
  # destructor joining accept and connection threads) are where a transport
  # use-after-free would surface.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L net
  say "ASan+UBSan (elasticity suite, ctest -L rebalance)"
  # Rebalance schedules add/crash/restart nodes of every tier mid-flight —
  # the dangling-server/broker pointers an elastic topology could leak
  # surface here.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L rebalance
  say "ASan+UBSan (crash/fault-injection suite, ctest -L faultfs)"
  # The durable logs write slices of sealed chunks and stop at the first
  # short write; the seeded torn-write schedules cut those slices at
  # arbitrary offsets.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L faultfs
  say "ASan+UBSan (codec suites, ctest -L codec)"
  # Decoders of untrusted bytes: CRC-32 over every length and alignment,
  # torn and corrupt message sets, out-of-range Databus requests and events,
  # a torn Espresso snapshot, element counts beyond their input, seeded
  # damaged binlog files, and the watches a destroyed producer leaves behind.
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L codec
else
  echo "check: no -fsanitize=address,undefined; skipping ASan+UBSan stage"
fi

say "OK"
