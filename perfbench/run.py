#!/usr/bin/env python3
"""Repo benchmark: builds lidi_perfbench and runs one workload.

    python3 perfbench/run.py --workload serving|activity|capture --seed N
                             --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of the repository. Each run starts one fresh process
per repetition (a fixed number of operations, one closed-loop client thread,
pinned to one CPU) until --seconds are used, and reports the median over the
repetitions. --trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 interleaves untraced, traced and metrics-disabled repetitions and
prints the per-layer metrics. The last line of standard output is the result
object; the line before it is the stamp describing the build and host.

--smoke runs every workload for a few hundred operations, untraced and
traced, and fails unless every metric is present and no operation failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serving", "activity", "capture")
# Operations per repetition in smoke mode: a few hundred (activity rounds to
# windows of 8 batches of 50 messages, capture to windows of 32 commits).
SMOKE_OPS = {"serving": 300, "activity": 400, "capture": 320}
MIN_REPS = 3
# A repetition takes a second or two; a hung one must still let the run end
# well within three minutes.
REP_TIMEOUT_S = 60


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def build(root):
    """Configures (once) and builds the Release tree; returns the binary."""
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench-release")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "lidi_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return build_root, os.path.join(build_dir, "lidi_perfbench")


def usable_cpus():
    """The CPUs this process may use; [-1] (no pinning) if unknown."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return [-1]


def cpu_times(cpu):
    """(steal, total) jiffies of one CPU from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields[0] == "cpu%d" % cpu:
                    ticks = [int(x) for x in fields[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return None


def run_rep(binary, workload, seed, mode, cpu, ops, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--cpu", str(cpu), "--ops", str(ops)]
    if spans:
        cmd += ["--spans", spans]
    before = cpu_times(cpu)
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=REP_TIMEOUT_S)
    wall = time.monotonic() - started
    after = cpu_times(cpu)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s %s repetition exited %d" % (workload, mode, proc.returncode))
    rep = json.loads(lines[-1])
    rep["wall_s"] = wall
    rep["steal_pct"] = None
    if before and after and after[1] > before[1]:
        rep["steal_pct"] = 100.0 * (after[0] - before[0]) / (after[1] - before[1])
    for failure in rep["failures"]:
        log("%s %s: %s" % (workload, mode, failure))
    return rep


def run_reps(binary, build_root, workload, seed, seconds, modes, cpus, ops,
             min_reps):
    """Cycles through `modes` until `seconds` are used (at least `min_reps`
    rounds); every repetition gets its own input seed. Repetitions take the
    CPUs in turn: each CPU's speed wanders on its own for seconds at a time,
    so a run that used only one would measure that CPU's spell."""
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    reps = {mode: [] for mode in modes}
    started = time.monotonic()
    longest_round = 0.0
    rounds = 0
    # Start another round only if it should finish within `seconds`.
    while (rounds < min_reps or
           time.monotonic() - started + longest_round <= seconds):
        round_started = time.monotonic()
        for i, mode in enumerate(modes):
            spans = (os.path.join(trace_dir, workload + ".spans.tsv")
                     if mode == "traced" else None)
            cpu = cpus[(rounds * len(modes) + i) % len(cpus)]
            rep = run_rep(binary, workload, seed * 1000 + rounds, mode, cpu, ops, spans)
            reps[mode].append(rep)
        rounds += 1
        longest_round = max(longest_round, time.monotonic() - round_started)
    return reps


def median_of(reps, group, name):
    return statistics.median(rep[group][name] for rep in reps)


def overhead_pct(baseline_ops_s, slower_ops_s):
    """Extra time per operation of the slower configuration, in percent."""
    return (baseline_ops_s / slower_ops_s - 1.0) * 100.0 if slower_ops_s > 0 else 0.0


def source_digest(root):
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def stamp(root, build_root, workload, reps):
    all_reps = [rep for group in reps.values() for rep in group]
    steal = [rep["steal_pct"] for rep in all_reps if rep["steal_pct"] is not None]
    compiler = None
    cache = os.path.join(build_root, "perfbench-release", "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "build_type": "Release",
        "lidi_lock_order": "OFF",
        "sanitizer": "none",
        "compiler": compiler,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted({rep["cpu"] for rep in all_reps}),
        "workload": workload,
        "transport": all_reps[0]["transport"],
        "data_dir": all_reps[0]["data_dir"],
        "repetitions": {mode: len(group) for mode, group in reps.items()},
        "steal_pct_median": statistics.median(steal) if steal else None,
        "steal_pct_max": max(steal) if steal else None,
    }


def summarize(spec, reps, trace):
    """The result object: medians over repetitions, named and unit-tagged as
    in BENCHMARK.json."""
    plain = reps["plain"]
    if not trace:
        wanted = spec["end_to_end"]
        values = {m["name"]: median_of(plain, "metrics", m["name"]) for m in wanted}
    else:
        wanted = spec["per_layer"]
        traced = reps["traced"]
        ops_plain = median_of(plain, "metrics", "ops_s")
        values = {}
        for m in wanted:
            # Process counters come from the untraced repetitions, so the
            # tracing cost stays out of them; the rest need the spans.
            name = m["name"]
            source = plain if name.startswith("proc.") else traced
            if name in source[0]["layers"]:
                values[name] = median_of(source, "layers", name)
        values["obs.overhead_pct"] = overhead_pct(
            median_of(reps["obs_off"], "metrics", "ops_s"), ops_plain)
        values["bench.trace_overhead_pct"] = overhead_pct(
            ops_plain, median_of(traced, "metrics", "ops_s"))
    all_reps = [rep for group in reps.values() for rep in group]
    attempted = sum(rep["attempted"] for rep in all_reps)
    failed = sum(rep["failed"] for rep in all_reps)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }, missing


def measure(root, spec, binary, build_root, workload, seed, seconds, trace,
            ops=0, min_reps=MIN_REPS):
    modes = ("plain", "traced", "obs_off") if trace else ("plain",)
    reps = run_reps(binary, build_root, workload, seed, seconds, modes,
                    usable_cpus(), ops, min_reps)
    result, missing = summarize(spec, reps, trace)
    info = stamp(root, build_root, workload, reps)
    results_dir = os.path.join(build_root, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump({"stamp": info, "result": result, "repetitions": reps}, f, indent=1)
    for name in missing:
        log("%s: metric %s missing" % (workload, name))
    return info, result


def smoke(root, spec, binary, build_root):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = measure(root, spec, binary, build_root, workload, 1, 0,
                                trace, SMOKE_OPS[workload], min_reps=1)
            good = result["correct"] and result["failed"] == 0
            log("smoke %-8s trace=%d attempted=%d failed=%d metrics=%d %s" % (
                workload, trace, result["attempted"], result["failed"],
                len(result["metrics"]), "ok" if good else "FAILED"))
            ok = ok and good
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    spec = load_spec(root)
    build_root, binary = build(root)
    if args.smoke:
        return smoke(root, spec, binary, build_root)
    info, result = measure(root, spec, binary, build_root, args.workload,
                           args.seed, args.seconds, args.trace)
    print("stamp " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
