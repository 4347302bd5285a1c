#!/usr/bin/env python3
"""A/B of the repo benchmark: a base revision against the working tree.

    python3 scripts/perf_ab.py <rev> --workload W[,W...]
                               [--pairs N] [--seconds S] [--seed S]
                               [--trace 0|1]

W is serving, activity or capture; a comma-separated list runs each in
turn. Run it from the root of the repository. It extracts <rev> into
.bench_build/ab/<sha>/ (once; later runs reuse it and its build), then runs
pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace X

in that tree and in the working tree. Which side runs first alternates from
pair to pair, and pair i runs at seed S + i on both sides. Each side builds
into its own tree. After each workload it prints, for each metric the runs
report (but those every run reports as 0), both sides' medians and
quartiles, the pairs the working tree won (ties count for neither), whether
the gap between the medians exceeds the base's interquartile range, and,
for an end-to-end metric, a verdict against its BENCHMARK.json bound; and
the operations each side attempted and failed. A verdict is one of:

  better        the working tree won at least 9 pairs in 10 and its median
                beats the base's by more than the base's IQR, or every
                working-tree run beats every base run;
  worse         the working tree's median is worse than the base's by more
                than the bound (a fraction of the base median);
  within bound  neither;
  unresolved    the base's IQR, relative to its median, is wider than the
                bound, so no gap the bound allows can be told from noise
                (unless every working-tree run beats every base run).

With several workloads, a last table lists every workload's verdicts. The
records land in .bench_build/ab/<sha>-<workload>-seed<S>-trace<X>.json.

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


WORKLOADS = ("serving", "activity", "capture")
# The share of pairs a gain must win.
WIN_SHARE = 0.9


def run_side(root, env, args, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
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


def load_spec():
    """name -> (better, unit, bound); bound is None for a per-layer metric."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m["unit"], m["bound"])
           for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], m["unit"], None)
                for m in spec["per_layer"]})
    return out


def verdict(base, change, direction, bound):
    """The end-to-end verdict for one metric's runs; see the module doc."""
    sign = 1 if direction == "higher" else -1
    if all(sign * (c - b) > 0 for c in change for b in base):
        return "better"
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if mb == 0:
        spread = 0 if q3 == q1 else float("inf")
        loss = float("inf") if sign * (mb - mc) > 0 else 0
    else:
        spread = (q3 - q1) / abs(mb)
        loss = sign * (mb - mc) / abs(mb)
    if spread > bound:
        return "unresolved"
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if (wins >= WIN_SHARE * len(base) and sign * (mc - mb) > 0
            and abs(mc - mb) > q3 - q1):
        return "better"
    return "worse" if loss > bound else "within bound"


def summarize(pairs):
    """Prints the per-metric table; returns {end-to-end metric: verdict}."""
    spec = load_spec()
    # A metric every run reports as 0 belongs to a layer the workload does
    # not use.
    names = [n for n in pairs[0]["base"]["metrics"]
             if all(n in p[side]["metrics"]
                    for p in pairs for side in ("base", "change"))
             and any(p[side]["metrics"][n] != 0
                     for p in pairs for side in ("base", "change"))]
    header = "%-34s %-6s %31s %31s %8s %6s %8s  %s" % (
        "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "gap>IQR", "verdict (bound)")
    print(header)
    print("-" * len(header))
    verdicts = {}
    for name in names:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        direction, unit, bound = spec.get(name, ("lower", "?", None))
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        mb, mc = statistics.median(base), statistics.median(change)
        bq1, bq3 = quartiles(base)
        cq1, cq3 = quartiles(change)
        delta = "%+.1f%%" % (100.0 * (mc - mb) / mb) if mb else "n/a"
        judged = "-"
        if bound is not None:
            verdicts[name] = verdict(base, change, direction, bound)
            judged = "%s (%g%%)" % (verdicts[name], 100 * bound)
        print("%-34s %-6s %31s %31s %8s %6s %8s  %s" % (
            name, unit,
            "%.4g [%.4g, %.4g]" % (mb, bq1, bq3),
            "%.4g [%.4g, %.4g]" % (mc, cq1, cq3),
            delta, "%d/%d" % (wins, len(pairs)),
            "yes" if abs(mc - mb) > bq3 - bq1 else "no", judged))
    for side in ("base", "change"):
        print("%s: %d ops attempted, %d failed" % (
            side, sum(p[side]["attempted"] for p in pairs),
            sum(p[side]["failed"] for p in pairs)))
    return verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True,
                        help="one of %s, or a comma-separated list" %
                        ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs at seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        parser.error("run from the root of the repository")
    workloads = args.workload.split(",")
    for workload in workloads:
        if workload not in WORKLOADS:
            parser.error("unknown workload %r (choose from %s)" %
                         (workload, ", ".join(WORKLOADS)))

    sha, base_root = extract(args.rev)
    # The base builds inside its own tree even when CARGO_TARGET_DIR points
    # the working tree's build elsewhere.
    base_env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    sides = {"base": (base_root, base_env), "change": (os.getcwd(), None)}
    all_verdicts = {}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {}
            for side in order:
                root, env = sides[side]
                log("%s pair %d/%d seed %d: %s" % (
                    workload, i + 1, args.pairs, seed, side))
                pair[side] = run_side(root, env, args, workload, seed)
            pairs.append(pair)
        out = os.path.join(AB_DIR, "%s-%s-seed%d-trace%d.json" % (
            sha[:12], workload, args.seed, args.trace))
        with open(out, "w") as f:
            json.dump({"base": sha, "workload": workload,
                       "seconds": args.seconds, "trace": args.trace,
                       "pairs": pairs}, f, indent=1)
        print("base %s vs working tree: %s, %d pairs of %gs, seeds %d-%d" % (
            sha[:12], workload, args.pairs, args.seconds, args.seed,
            args.seed + args.pairs - 1))
        all_verdicts[workload] = summarize(pairs)
        print()
    if len(workloads) > 1:
        print("%-10s %-14s %s" % ("workload", "metric", "verdict"))
        for workload, verdicts in all_verdicts.items():
            for name, judged in verdicts.items():
                print("%-10s %-14s %s" % (workload, name, judged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
