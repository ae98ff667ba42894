#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py [--workload W] [--seed S] [--seconds T]
                             [--trace [0|1]] [--repeat N] [--check RAW.json]

Builds benchmark/ as its own Release CMake tree in build-bench/, runs each
workload through build-bench/shmd_bench, evaluates the correctness gates on
its raw output, prints every metric as `workload metric value unit n=samples`
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. Exits nonzero when a gate fails.

--repeat N runs each workload N times with seeds S..S+N-1 and prints, per
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) next to the metric's bound in BENCHMARK.json.
--check re-evaluates the gates on a saved raw output of shmd_bench.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "shmd_bench")
WORKLOADS = ["scan", "monitor", "probe", "overload"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark's own Release tree."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "shmd_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("run.py: build failed: " + " ".join(cmd))


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- gates ---------------------------------------------------------------------

def fault_rate_gate(health):
    """Each epoch's realised fault rate must be > 0 and within 4 sigma
    (binomial) of the configured error rate, family-wise over the epochs,
    and the pooled rate over all epochs within 4 sigma."""
    er = health["error_rate"]
    epochs = [(e[0], e[1], e[2]) for e in health["epochs"] if e[1] > 0]
    folded_epochs, folded_ops, folded_faults = health["folded"]
    if folded_ops > 0:
        epochs.append(("folded", folded_ops, folded_faults))
    if not epochs:
        return ["health: no epoch scored any product"]
    normal = statistics.NormalDist()
    tail = 2.0 * (1.0 - normal.cdf(4.0))  # two-sided 4-sigma tail
    z = normal.inv_cdf(1.0 - tail / (2.0 * len(epochs)))  # Bonferroni over epochs
    failures = []
    for epoch_id, ops, faults in epochs:
        rate = faults / ops
        sigma = math.sqrt(er * (1.0 - er) / ops)
        if faults == 0 or abs(rate - er) > z * sigma:
            failures.append("health: epoch %s fault rate %.6f vs er %.4f (%.1f sigma, limit %.1f)"
                            % (epoch_id, rate, er, abs(rate - er) / sigma, z))
    ops = sum(e[1] for e in epochs)
    faults = sum(e[2] for e in epochs)
    sigma = math.sqrt(er * (1.0 - er) / ops)
    if abs(faults / ops - er) > 4.0 * sigma:
        failures.append("health: pooled fault rate %.6f vs er %.4f (%.1f sigma)"
                        % (faults / ops, er, abs(faults / ops - er) / sigma))
    return failures


def evaluate_gates(raw):
    """Return the list of failed correctness gates (empty = correct)."""
    failures = []
    a = raw["gates"]["accounting"]
    if a["in_flight"] != 0:
        failures.append("accounting: %d requests still in flight after drain" % a["in_flight"])
    terminal = a["scored"] + a["deadline_missed"] + a["failed"] + a["evicted"]
    if a["enqueued"] != terminal:
        failures.append("accounting: enqueued %d != scored + deadline_missed + failed + "
                        "evicted %d" % (a["enqueued"], terminal))
    for key in ("failed", "load_failed", "ladder_failed"):
        if a[key] != 0:
            failures.append("accounting: %s = %d" % (key, a[key]))
    if a["frames_in"] != a["frames_out"]:
        failures.append("accounting: server read %d frames but wrote %d replies"
                        % (a["frames_in"], a["frames_out"]))
    if a["client_frames_sent"] != a["client_replies"]:
        failures.append("accounting: clients sent %d frames but got %d replies"
                        % (a["client_frames_sent"], a["client_replies"]))
    p = raw["gates"]["parity"]
    scores = {p["score_inproc_batch1"], p["score_inproc_batch16"], p["score_uds"]}
    if len(scores) != 1:
        failures.append("parity: score hashes differ (in-process batch 1 %s, batch 16 %s, "
                        "UDS %s)" % (p["score_inproc_batch1"], p["score_inproc_batch16"],
                                     p["score_uds"]))
    if p["verdict_inproc"] != p["verdict_uds"]:
        failures.append("parity: verdict hashes differ (in-process %s, UDS %s)"
                        % (p["verdict_inproc"], p["verdict_uds"]))
    failures += fault_rate_gate(raw["gates"]["health"])
    return failures


def run_flags(raw):
    """Conditions that make a run unrepresentative; reported, never hidden."""
    flags = []
    ctx = raw["context"]
    if ctx["nproc"] < 4:
        flags.append("fewer than 4 CPUs (%d)" % ctx["nproc"])
    if ctx["build_type"] != "Release":
        flags.append("non-Release build (%s)" % ctx["build_type"])
    lag = raw["gates"].get("pacer_lag_p99_us")
    if lag is not None and lag > 1000.0:
        flags.append("INVALID: pacer lag p99 %.0f us exceeds 1 ms" % lag)
    return flags


# -- running -------------------------------------------------------------------

def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--trace-file", os.path.join("build-bench", "trace_%s.json" % workload),
           "--uds", os.path.join("build-bench", "bench_%d.sock" % os.getpid())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("run.py: shmd_bench --workload %s exited with %d"
                         % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    return "null" if value is None else "%.6g" % value


def report(raw, spec, commit):
    """Print one workload's run, write its result file, return the result."""
    workload = raw["workload"]
    wanted = [m["name"] for m in spec["per_layer" if raw["trace"] else "end_to_end"]]
    failures = evaluate_gates(raw)
    flags = run_flags(raw)
    ctx = raw["context"]
    print("%s context nproc=%d build=%s compiler=%s kernel=%s workers=%d generator_threads=%d "
          "connections=%d seed=%d commit=%s" % (
              workload, ctx["nproc"], ctx["build_type"], ctx["compiler"], ctx["kernel"],
              ctx["workers"], ctx["generator_threads"], ctx["connections"], raw["seed"],
              commit))
    for name, m in sorted(raw["metrics"].items()) + sorted(raw["detail"].items()):
        print("%s %s %s %s n=%d" % (workload, name, fmt(m["value"]), m["unit"], m["n"]))
    for flag in flags:
        print("%s FLAG %s" % (workload, flag))
    for failure in failures:
        print("%s GATE FAILED %s" % (workload, failure))
    missing = [n for n in wanted
               if n not in raw["metrics"] or raw["metrics"][n]["value"] is None]
    if missing:
        raise SystemExit("run.py: %s produced no value for %s" % (workload, ", ".join(missing)))
    result = {
        "correct": not failures,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": raw["metrics"][n]["value"], "unit": raw["metrics"][n]["unit"]}
                    for n in wanted},
    }
    record = dict(raw, commit=commit, flags=flags, gate_failures=failures, result=result)
    with open(os.path.join(BUILD, "result_%s.json" % workload), "w") as f:
        json.dump(record, f, indent=1)
    return result


def repeat(workloads, seed, seconds, n, spec, commit):
    """Run each workload n times on successive seeds; print medians,
    quartiles and spreads against the bounds in BENCHMARK.json."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    correct = True
    summary = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(n):
            raw = run_binary(workload, seed + i, seconds, False)
            correct &= not evaluate_gates(raw)
            for name in bounds:
                values[name].append(raw["metrics"][name]["value"])
            log("run.py: %s seed %d done" % (workload, seed + i))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary["%s.%s" % (workload, name)] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name],
                "values": vals}
            print("%-9s %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
                  "bound %5.1f%% spread/bound %.2f" % (
                      workload, name, med, q1, q3, 100 * spread, 100 * bounds[name],
                      spread / bounds[name]))
    with open(os.path.join(BUILD, "repeat.json"), "w") as f:
        json.dump({"commit": commit, "seed": seed, "runs": n, "seconds": seconds,
                   "metrics": summary}, f, indent=1)
    return correct


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--check", metavar="RAW_JSON")
    args = parser.parse_args()

    if args.check:
        with open(args.check) as f:
            raw = json.load(f)
        failures = evaluate_gates(raw)
        for failure in failures:
            print("GATE FAILED " + failure)
        print("gates: %s" % ("fail" if failures else "pass"))
        return 1 if failures else 0

    build()
    commit = git_commit()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.repeat > 0:
        return 0 if repeat(workloads, args.seed, args.seconds, args.repeat, spec, commit) else 1

    results = {w: report(run_binary(w, args.seed, args.seconds, args.trace), spec, commit)
               for w in workloads}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, n): m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
