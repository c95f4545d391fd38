#!/usr/bin/env python3
"""Before/after benchmark protocol: a parent revision against HEAD.

    python3 ci/bench_pairs.py PARENT [WORKLOAD ...] [--pairs N]

Exports the committed trees of PARENT and HEAD (git archive) into a
temporary directory, removed on exit, and runs perfbench/run.py in each:

1. Correctness, on HEAD. Every workload checks its operations against
   the reference digests of its group (perfbench/run.py's GROUP: the three
   figures workloads share the figures refs, fleet-faults has the fleet
   refs).
   - `--seconds 1` at every reference seed (0-31, 42 and 1337) for
     figures-serial, figures-parallel and fleet-faults. Prints each seed's
     failed count and peak RSS.
   - `--trace 1` for all four workloads at seeds 1, 28 and 42. A traced
     run also checks that the traced twin reproduces the untraced run,
     and, for figures-parallel, that the -j(cores) allocation is within 1%
     of a figures-serial run's; its "alloc self-check" line is printed.
2. Pairs: N pairs (default 10) per workload (default: every workload of
   BENCHMARK.json) at seed 42, each side run for
   BENCHMARK.json's run_seconds. The side that runs first alternates
   from pair to pair.

Then prints, per workload and end-to-end metric of BENCHMARK.json: the
parent's and the change's medians, their ratio, the parent's spread (the
distance between its quartiles over its median), the pairs the change
won, the bound, and a verdict: "worse" when the change's median is worse
than the parent's by more than the bound, "unresolved" when the parent's
spread is wider than the bound and not every run of the change beats
every run of the parent, else "ok". The last line is the whole result as
JSON.

Exits 1, naming the run, when any run is not "correct": true, or when a
pair's two sides fail a different number of operations. The verdicts do
not set the exit status. The full protocol takes about 70 minutes on two
cores, of which the correctness pass takes about 20; it is not part of
ci/check.sh.
"""

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_SEEDS = list(range(32)) + [42, 1337]
REF_WORKLOADS = ["figures-serial", "figures-parallel", "fleet-faults"]
TRACE_SEEDS = [1, 28, 42]
PAIR_SEED = 42


class Failure(Exception):
    pass


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev, dest):
    """The committed files of [rev], as the benchmark sees them."""
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], check=True,
                          stdout=subprocess.PIPE).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def perfbench(tree, label, workload, seed, seconds, trace=0):
    """One perfbench/run.py run; its final JSON record, with the run's
    "alloc self-check" line, if it printed one, under "self_check"."""
    name = "%s %s seed %d --seconds %g --trace %d" % (label, workload, seed, seconds, trace)
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = None
    if r.returncode != 0 or not isinstance(rec, dict):
        sys.stderr.write(r.stdout)
        raise Failure("%s: exited %d without a result" % (name, r.returncode))
    if rec.get("correct") is not True:
        sys.stderr.write(r.stdout)
        raise Failure('%s: not "correct": true' % name)
    rec["self_check"] = next((line for line in lines if line.startswith("alloc self-check")),
                             None)
    return rec


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def judge(metric, parent, change):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / pm if pm else 0.0
    ratio = cm / pm if pm else float("nan")
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    separated = all(better(c, p) for c in change for p in parent)
    if spread > metric["bound"] and not separated:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "worse"
    else:
        verdict = "ok"
    return {
        "parent": parent, "change": change, "parent_median": pm, "change_median": cm,
        "ratio": ratio, "parent_spread": spread, "wins": wins, "bound": metric["bound"],
        "verdict": verdict,
    }


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT")
    ap.add_argument("workloads", metavar="WORKLOAD", nargs="*",
                    help="default: " + " ".join(names))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for w in args.workloads:
        if w not in names:
            ap.error("unknown workload %r (choose from %s)" % (w, ", ".join(names)))
    workloads = args.workloads or names
    seconds = bench["run_seconds"]
    parent_sha, head_sha = git("rev-parse", args.parent), git("rev-parse", "HEAD")
    result = {"parent": parent_sha, "head": head_sha, "host_cores": os.cpu_count(),
              "seed": PAIR_SEED, "pairs": args.pairs, "seconds": seconds,
              "correctness": {}, "metrics": {}}
    tmp = tempfile.mkdtemp(prefix="bench_pairs.")
    try:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export(parent_sha, trees["parent"])
        export(head_sha, trees["change"])
        print("parent %s, change %s, %d cores" % (parent_sha[:12], head_sha[:12],
                                                  os.cpu_count()), flush=True)

        for w in REF_WORKLOADS:
            per_seed = result["correctness"][w] = {}
            for s in REF_SEEDS:
                rec = perfbench(trees["change"], "change", w, s, 1)
                rss = rec["metrics"]["peak_rss_mib"]["value"]
                per_seed[str(s)] = {"failed": rec["failed"], "attempted": rec["attempted"],
                                    "peak_rss_mib": rss}
                print("correct: %-16s seed %4d failed %d of %d, peak_rss_mib %.1f" % (
                    w, s, rec["failed"], rec["attempted"], rss), flush=True)
        for w in names:
            per_seed = result["correctness"][w + " --trace 1"] = {}
            for s in TRACE_SEEDS:
                rec = perfbench(trees["change"], "change", w, s, 1, trace=1)
                per_seed[str(s)] = {"failed": rec["failed"], "attempted": rec["attempted"],
                                    "self_check": rec["self_check"]}
                print("correct: %-16s seed %4d failed %d of %d, --trace 1%s" % (
                    w, s, rec["failed"], rec["attempted"],
                    ", " + rec["self_check"] if rec["self_check"] else ""), flush=True)

        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for w in workloads:
                recs = {side: perfbench(trees[side], side, w, PAIR_SEED, seconds)
                        for side in order}
                if recs["parent"]["failed"] != recs["change"]["failed"]:
                    raise Failure("pair %d %s: parent failed %d operations, change %d" % (
                        i + 1, w, recs["parent"]["failed"], recs["change"]["failed"]))
                for side in order:
                    runs[w][side].append(recs[side])
                print("pair %2d %-16s failed %d, %s first" % (
                    i + 1, w, recs["change"]["failed"], order[0]), flush=True)

        print("%-16s %-13s %12s %12s %7s %8s %6s %6s  %s" % (
            "workload", "metric", "parent", "change", "ratio", "spread", "wins", "bound",
            "verdict"))
        for w in workloads:
            table = result["metrics"][w] = {}
            for m in bench["end_to_end"]:
                values = {side: [r["metrics"][m["name"]]["value"] for r in runs[w][side]]
                          for side in ("parent", "change")}
                j = table[m["name"]] = judge(m, values["parent"], values["change"])
                print("%-16s %-13s %12.3f %12.3f %7.3f %7.1f%% %3d/%-2d %5.0f%%  %s" % (
                    w, m["name"], j["parent_median"], j["change_median"], j["ratio"],
                    100 * j["parent_spread"], j["wins"], args.pairs, 100 * j["bound"],
                    j["verdict"]))
        result["ok"] = True
    except Failure as e:
        result["ok"] = False
        result["error"] = str(e)
        sys.stderr.write("bench_pairs: %s\n" % e)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(0 if result["ok"] else 1)


if __name__ == "__main__":
    main()
