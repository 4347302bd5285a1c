#!/usr/bin/env python3
"""A/B of the repo benchmark: a base revision against the working tree.

    python3 scripts/perf_ab.py <rev> --workload serving|activity|capture
                               [--pairs N] [--seconds S] [--seed S]
                               [--trace 0|1]

Run it from the root of the repository. It extracts <rev> into
.bench_build/ab/<sha>/ (once; later runs reuse it and its build), then runs
pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

in that tree and in the working tree. Which side runs first alternates from
pair to pair, and pair i runs at seed S + i on both sides. Each side builds
into its own tree. At the end it prints, for each metric the runs report
(but those every run reports as 0), both sides' medians and quartiles, the
pairs the working tree won (ties count for neither), and whether the gap
between the medians exceeds the base's interquartile range; and the
operations each side attempted and failed. The records land in
.bench_build/ab/<sha>-<workload>-seed<S>-trace<X>.json.

It drives run.py only: a repetition, its build and its metrics are run.py's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

AB_DIR = os.path.join(".bench_build", "ab")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def extract(rev):
    """The base tree: <rev>'s committed files under AB_DIR, extracted once.
    A plain copy, not a worktree, so deleting .bench_build leaves nothing
    registered in .git."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    root = os.path.abspath(os.path.join(AB_DIR, sha))
    done = os.path.join(root, ".extracted")
    if not os.path.exists(done):
        os.makedirs(root, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % sha)
        open(done, "w").close()
    return sha, root


def run_side(root, env, args, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("run.py printed nothing in %s (exit %d)" %
                         (root, proc.returncode))
    result = json.loads(lines[-1])
    return {"seed": seed,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def directions():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["unit"])
            for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(pairs):
    better = directions()
    # A metric every run reports as 0 belongs to a layer the workload does
    # not use.
    names = [n for n in pairs[0]["base"]["metrics"]
             if all(n in p[side]["metrics"]
                    for p in pairs for side in ("base", "change"))
             and any(p[side]["metrics"][n] != 0
                     for p in pairs for side in ("base", "change"))]
    header = "%-34s %-6s %31s %31s %8s %6s %8s" % (
        "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "gap>IQR")
    print(header)
    print("-" * len(header))
    for name in names:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        direction, unit = better.get(name, ("lower", "?"))
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        mb, mc = statistics.median(base), statistics.median(change)
        bq1, bq3 = quartiles(base)
        cq1, cq3 = quartiles(change)
        delta = "%+.1f%%" % (100.0 * (mc - mb) / mb) if mb else "n/a"
        print("%-34s %-6s %31s %31s %8s %6s %8s" % (
            name, unit,
            "%.4g [%.4g, %.4g]" % (mb, bq1, bq3),
            "%.4g [%.4g, %.4g]" % (mc, cq1, cq3),
            delta, "%d/%d" % (wins, len(pairs)),
            "yes" if abs(mc - mb) > bq3 - bq1 else "no"))
    for side in ("base", "change"):
        print("%s: %d ops attempted, %d failed" % (
            side, sum(p[side]["attempted"] for p in pairs),
            sum(p[side]["failed"] for p in pairs)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True,
                        choices=("serving", "activity", "capture"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs at seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        parser.error("run from the root of the repository")

    sha, base_root = extract(args.rev)
    # The base builds inside its own tree even when CARGO_TARGET_DIR points
    # the working tree's build elsewhere.
    base_env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    sides = {"base": (base_root, base_env), "change": (os.getcwd(), None)}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            root, env = sides[side]
            log("pair %d/%d seed %d: %s" % (i + 1, args.pairs, seed, side))
            pair[side] = run_side(root, env, args, seed)
        pairs.append(pair)
    out = os.path.join(AB_DIR, "%s-%s-seed%d-trace%d.json" % (
        sha[:12], args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump({"base": sha, "workload": args.workload,
                   "seconds": args.seconds, "trace": args.trace,
                   "pairs": pairs}, f, indent=1)
    print("base %s vs working tree: %s, %d pairs of %gs, seeds %d-%d" % (
        sha[:12], args.workload, args.pairs, args.seconds, args.seed,
        args.seed + args.pairs - 1))
    summarize(pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
