#!/usr/bin/env python3
"""Host-cost benchmark of the Groundhog simulator.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...  # the four workloads in turn
    python3 perfbench/run.py --make-refs         # rewrite perfbench/refs/

Builds perfbench/ghperf.exe and perfbench/probe.exe with dune, then runs
workload W (see perfbench/NOTES.md) in fresh processes for about S
seconds. Every process must reproduce the committed reference digests
for its seed. With --trace 0 the last line of stdout is a JSON object
carrying the end-to-end metrics of BENCHMARK.json (medians over the
processes run, CPU times scaled by the probe run alongside them);
with --trace 1 it carries the per-layer metrics, taken from one run of
the traced twin, after checking that the twin reproduced the untraced
run byte for byte.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")
WORK = os.path.join(ROOT, ".perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ghperf.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")

GROUP = {
    "figures-serial": "figures",
    "figures-parallel": "figures",
    "figures-observed": "figures",
    "fleet-faults": "fleet",
}
# Operations whose output is checked by status only (their bytes are not
# pinned): the observability exports.
UNPINNED = {"exports"}
# Seeds with committed references; any other seed n runs as seed n mod 32.
REF_SEEDS = list(range(32)) + [42, 1337]
SETUP_BATCH = 7
# CPU seconds one round of perfbench/probe.exe takes on the quiet sizing
# host (2 vCPUs of an Intel Xeon, OCaml 5.1.1). CPU times are scaled by
# this over the round time the probe measured during the run; see
# NOTES.md.
PROBE_ROUND_S = 0.389 / 800
# The probe's result counts if it did at least this many rounds;
# otherwise a second probe runs in the foreground after the run.
PROBE_MIN_ROUNDS = 800
# A run times at least this many processes, however long they take.
MIN_TIMED = 2
DEADLINE_S = 170.0


class Failure(Exception):
    pass


def effective_seed(seed):
    return seed if seed in REF_SEEDS else seed % 32


def env_for_runs():
    env = dict(os.environ)
    env["OCAML_RUNTIME_EVENTS_DIR"] = WORK
    env["OCAML_RUNTIME_EVENTS_LOG_WSIZE"] = "18"
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAMLRUNPARAM", None)
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise Failure("no dune-project and lib/ here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ghperf.exe", "./perfbench/probe.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0 or not (os.path.isfile(EXE) and os.path.isfile(PROBE)):
        sys.stderr.write(r.stdout)
        raise Failure("build failed")


def steal_s():
    """Seconds the hypervisor took from this VM's vCPUs so far (all of
    them), or 0 where /proc/stat does not say."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def idle_priority():
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)


def probe_during(fn, background=True):
    """Runs fn() with the probe working alongside it; returns fn's result,
    the CPU seconds and number of the probe's rounds that count, and the
    number of rounds it did (see probe.ml). In the background the probe
    runs at idle priority, so it takes only CPU time that fn's processes
    leave unused."""
    p = subprocess.Popen(
        [PROBE, str(DEADLINE_S)], env=env_for_runs(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        preexec_fn=idle_priority if background else None,
    )
    try:
        result = fn()
        p.send_signal(signal.SIGTERM)
        out, err = p.communicate(timeout=30)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        sys.stderr.write(err)
        raise Failure("probe exited with %d" % p.returncode)
    res = json.loads(out.strip().splitlines()[-1])
    return result, res["probe_s"], res["rounds"], res["all_rounds"]


def launch(workload, seed, deadline, trace=False, setup_only=False):
    """One process; returns its record with process_s, outside_s (its
    wall time outside the timed section) and steal_s added. A
    --setup-only process returns only its set-up time: the CPU seconds
    it used, as the kernel accounts them when it is reaped."""
    out = os.path.join(WORK, workload + ("-trace" if trace else ""))
    os.makedirs(out, exist_ok=True)
    args = [EXE, workload, "--seed", str(seed), "--out", out]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise Failure("out of time before launching %s" % workload)
    if setup_only:
        p = subprocess.Popen(args, env=env_for_runs(), stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            raise Failure("%s exited with %d" % (" ".join(args[1:]), p.returncode))
        return {"setup_s": usage.ru_utime + usage.ru_stime}
    t0, s0 = time.monotonic(), steal_s()
    r = subprocess.run(
        args, env=env_for_runs(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=left,
    )
    process_s = time.monotonic() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise Failure("%s exited with %d" % (" ".join(args[1:]), r.returncode))
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    rec["process_s"] = process_s
    rec["outside_s"] = process_s - rec["wall_s"]
    rec["steal_s"] = steal_s() - s0
    return rec


def load_refs(group):
    with open(os.path.join(REFS, group + ".json")) as f:
        return json.load(f)


def op_key(op):
    return "%s:%s" % (op["status"], op["digest"][:12])


def check_record(rec, refs, seed):
    """Mismatches of one record against the references for its seed."""
    ref = refs["seeds"][str(seed)]
    want = dict(zip(refs["ops"], ref["ops"]))
    bad = []
    got = {op["name"]: op for op in rec["ops"]}
    for name, key in want.items():
        if name not in got:
            bad.append("%s: missing" % name)
        elif op_key(got[name]) != key:
            bad.append("%s: got %s, reference %s" % (name, op_key(got[name]), key))
    for name, op in got.items():
        if name in want:
            continue
        if name not in UNPINNED:
            bad.append("%s: not in the references" % name)
        elif op["status"] != "ok":
            bad.append("%s: %s %s" % (name, op["status"], op["detail"]))
    if "report" in ref and rec["report_md5"] != ref["report"]:
        bad.append("report md5 %s, reference %s" % (rec["report_md5"], ref["report"]))
    return bad


def op_outcomes(rec, mismatches):
    """(workload, operation) -> whether this execution of it failed."""
    names = {m.split(":")[0] for m in mismatches}
    return {(rec["workload"], op["name"]): op["status"] != "ok" or op["name"] in names
            for op in rec["ops"]}


def provenance():
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            ).stdout.strip() or "unknown"
        except OSError:
            pass
    return {"commit": commit, "source_md5": h.hexdigest()}


def record_line(rec, prov, seed):
    keep = ("workload", "profile", "jobs", "effective_jobs", "host_cores", "ocaml",
            "traced", "wall_s", "cpu_s", "outside_s", "steal_s", "alloc_mwords",
            "major_mwords", "peak_rss_mib", "report_md5")
    line = {k: rec[k] for k in keep if k in rec}
    line.update(prov)
    line["seed"] = seed
    line["run_seed"] = rec["seed"]
    line["failures"] = [
        "%s %s %s" % (op["name"], op["status"], op["detail"])
        for op in rec["ops"] if op["status"] != "ok"
    ]
    return line


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def ci_md5():
    path = os.path.join("ci", "runall_quick.md5")
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    return None


def run(args, workload):
    deadline = time.monotonic() + DEADLINE_S
    end_to_end, per_layer = load_spec()
    build()
    os.makedirs(WORK, exist_ok=True)
    print("== %s, seed %d" % (workload, args.seed))
    seed = effective_seed(args.seed)
    refs = load_refs(GROUP[workload])
    prov = provenance()
    problems = []
    # One outcome per operation: a run executes each operation of the
    # workload once per process, and an operation fails if any of its
    # executions does. So attempted and failed depend on the seed only,
    # not on how many processes fit into the run.
    outcomes = {}

    def checked(rec):
        bad = check_record(rec, refs, seed)
        if seed == 42 and GROUP[workload] == "figures" and ci_md5() not in (None, rec["report_md5"]):
            bad.append("report md5 differs from ci/runall_quick.md5")
        problems.extend("%s: %s" % (rec["workload"], b) for b in bad)
        for key, failed in op_outcomes(rec, bad).items():
            outcomes[key] = outcomes.get(key, False) or failed
        print("record: " + json.dumps(record_line(rec, prov, args.seed), sort_keys=True))
        return rec

    metrics = {}
    if args.trace == 0:
        # Set-up is a few milliseconds: it is timed on processes that
        # build their inputs and exit, a batch before each timed process,
        # and the median over the run is taken. The probe works at idle
        # priority through the whole run, and the run's CPU times are
        # scaled by PROBE_ROUND_S over its CPU time per counted round.
        # Another round starts only if at least half of it fits into
        # --seconds at the pace of the last one.
        setups, runs = [], []
        start = time.monotonic()

        def rounds_of_runs():
            while True:
                round_start = time.monotonic()
                setups.extend(launch(workload, seed, deadline, setup_only=True)["setup_s"]
                              for _ in range(SETUP_BATCH))
                runs.append(checked(launch(workload, seed, deadline)))
                now = time.monotonic()
                if len(runs) >= MIN_TIMED and now + (now - round_start) / 2 - start > args.seconds:
                    return

        _, probe_s, rounds, all_rounds = probe_during(rounds_of_runs)
        if rounds < PROBE_MIN_ROUNDS:
            _, more_s, more, more_all = probe_during(lambda: time.sleep(1.0), background=False)
            probe_s, rounds, all_rounds = probe_s + more_s, rounds + more, all_rounds + more_all
        if rounds == 0:
            raise Failure("the probe counted no rounds")
        scale = PROBE_ROUND_S * rounds / probe_s
        for r in runs:
            r["norm_cpu_s"] = r["cpu_s"] * scale
        setups = [s * scale for s in setups]
        for m in end_to_end:
            values = setups if m["name"] == "setup_s" else [r[m["name"]] for r in runs]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print("processes: %d timed, %d set-up" % (len(runs), len(setups)))
        print("not bounded: median wall_s %.3f, cpu_s %.3f, steal_s %.3f" % (
            statistics.median(r["wall_s"] for r in runs),
            statistics.median(r["cpu_s"] for r in runs),
            statistics.median(r["steal_s"] for r in runs)))
        print("scale: %.4f (probe: %d of %d rounds counted, %.3f s of CPU, %.1f us each)" % (
            scale, rounds, all_rounds, probe_s, 1e6 * probe_s / rounds))
    else:
        plain = checked(launch(workload, seed, deadline))
        twin = checked(launch(workload, seed, deadline, trace=True))
        if [op_key(o) for o in twin["ops"]] != [op_key(o) for o in plain["ops"]] \
                or twin["report_md5"] != plain["report_md5"]:
            problems.append("twin: simulated results differ from the untraced run")
        if twin["lost_events"] != 0:
            problems.append("twin: %d runtime events lost" % twin["lost_events"])
        if abs(twin["residual_s"]) > 1e-6:
            problems.append("twin: layer self times + idle + unattributed miss the "
                            "timeline by %g s" % twin["residual_s"])
        if workload == "figures-parallel":
            # Allocation is counted once across domains: the parallel
            # total must match the serial one.
            serial = checked(launch("figures-serial", seed, deadline))
            drift = abs(plain["alloc_mwords"] / serial["alloc_mwords"] - 1.0)
            print("alloc self-check: parallel %.3f vs serial %.3f Mwords (%.3f%%)"
                  % (plain["alloc_mwords"], serial["alloc_mwords"], 100 * drift))
            if drift > 0.01:
                problems.append("alloc_mwords at -j%d differs from -j1 by %.2f%%"
                                % (plain["jobs"], 100 * drift))
        layers = dict(twin["layers"])
        layers["trace_overhead_s"] = [twin["wall_s"] - plain["wall_s"], "s"]
        for m in per_layer:
            value, _ = layers[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("twin: %d spans written to %s" % (
            sum(1 for _ in open(os.path.join(WORK, workload + "-trace", "spans.tsv"))) - 1,
            os.path.relpath(os.path.join(WORK, workload + "-trace", "spans.tsv"))))
        absent = [m["name"] for m in per_layer if layers[m["name"]][0] == 0]
        if absent:
            print("not exercised by %s (reported as 0): %s" % (workload, ", ".join(absent)))

    attempted = len(outcomes)
    failed = sum(outcomes.values())
    for name, v in metrics.items():
        print("%-36s %16.6f %s" % (name, v["value"], v["unit"]))
    print("%-36s %16.6f ratio (%d of %d operations)" % (
        "failed_frac", failed / attempted, failed, attempted))
    for (w, name), bad in sorted(outcomes.items()):
        if bad:
            print("failed operation: %s %s" % (w, name))
    for p in problems:
        print("CHECK FAILED: " + p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def make_refs():
    """Regenerate perfbench/refs/ from this tree: two serial processes at
    a time, one per workload group."""
    build()
    os.makedirs(WORK, exist_ok=True)
    tables = {g: {"ops": None, "seeds": {}} for g in ("figures", "fleet")}
    jobs = [(g, s) for s in REF_SEEDS for g in ("figures", "fleet")]
    exe_for = {"figures": "figures-serial", "fleet": "fleet-faults"}
    running = []
    try:
        while jobs or running:
            while jobs and len(running) < 2:
                g, s = jobs.pop(0)
                out = os.path.join(WORK, "refs-" + g)
                os.makedirs(out, exist_ok=True)
                p = subprocess.Popen([EXE, exe_for[g], "--seed", str(s), "--out", out],
                                     stdout=subprocess.PIPE, text=True, env=env_for_runs())
                running.append((g, s, p))
            g, s, p = running[0]
            stdout, _ = p.communicate()
            running.pop(0)
            if p.returncode != 0:
                raise Failure("%s seed %d exited with %d" % (g, s, p.returncode))
            rec = json.loads(stdout.strip().splitlines()[-1])
            names = [op["name"] for op in rec["ops"]]
            t = tables[g]
            if t["ops"] is None:
                t["ops"] = names
            elif t["ops"] != names:
                raise Failure("%s seed %d ran a different set of operations" % (g, s))
            entry = {"ops": [op_key(op) for op in rec["ops"]]}
            if g == "figures":
                entry["report"] = rec["report_md5"]
            t["seeds"][str(s)] = entry
            bad = [op["name"] for op in rec["ops"] if op["status"] != "ok"]
            print("%s seed %d: %d ops, failing: %s"
                  % (g, s, len(names), ", ".join(bad) or "none"), flush=True)
    finally:
        for _, _, p in running:
            p.kill()
            p.wait()
    os.makedirs(REFS, exist_ok=True)
    for g, t in tables.items():
        with open(os.path.join(REFS, g + ".json"), "w") as f:
            json.dump(t, f, indent=0, sort_keys=True)
            f.write("\n")


def main():
    # On SIGTERM, unwind like on an error: subprocess.run kills and reaps
    # the process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(GROUP) + ["all"],
                    help="'all' runs the four workloads in turn")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-refs", action="store_true")
    args = ap.parse_args()
    try:
        if args.make_refs:
            make_refs()
        elif args.workload is None:
            ap.error("--workload is required")
        else:
            workloads = sorted(GROUP) if args.workload == "all" else [args.workload]
            results = {w: run(args, w) for w in workloads}
            print(json.dumps(results[args.workload] if args.workload in results else results))
    except (Failure, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)


if __name__ == "__main__":
    main()
