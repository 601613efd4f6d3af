#!/usr/bin/env python3
"""Perf ledger of the ABase simulator: build, run, and compare.

Run one measurement (builds the ledger from source first):

  python3 perfbench/run.py --workload cache_hot --seed 1 --seconds 36 --trace 0

The last line of standard output is the JSON result
({"correct", "attempted", "failed", "metrics"}); build logs go to stderr.

Local A/B tooling:

    # run every workload on seeds 1..10 and append the results to a file
    python3 perfbench/run.py collect --out a.jsonl --seeds 1-10
    # spread of one result set against the bounds in BENCHMARK.json
    python3 perfbench/run.py report a.jsonl
    # per workload and end-to-end metric: medians, quartiles and the
    # delta of B against A, judged against the metric's bound
    python3 perfbench/run.py compare a.jsonl b.jsonl

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configures (once) and builds the ledger; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ledger", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    exe = os.path.join(out, "ledger")
    return exe if os.path.exists(exe) else None


def run_once(exe, workload, seed, seconds, trace):
    """Runs the ledger; returns (exit code, result dict or None, stdout)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: ledger exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None, ""
    lines = r.stdout.strip().splitlines()
    result = None
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result, r.stdout


def cmd_measure(args):
    exe = build()
    if exe is None:
        return 1
    code, result, stdout = run_once(exe, args.workload, args.seed,
                                    args.seconds, args.trace)
    if code != 0 or result is None:
        log("perfbench: ledger failed (exit %d)" % code)
        sys.stderr.write(stdout)
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cmd_collect(args):
    spec = load_spec()
    exe = build()
    if exe is None:
        return 1
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as f:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                t0 = time.time()
                code, result, stdout = run_once(exe, w, seed, seconds,
                                                args.trace)
                if result is None:
                    log("perfbench: %s seed %d failed" % (w, seed))
                    sys.stderr.write(stdout)
                    return 1
                f.write(json.dumps({"workload": w, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
                f.flush()
                log("%-14s seed %-4d %5.1f s correct=%s" %
                    (w, seed, time.time() - t0, result["correct"]))
    return 0


def load_results(path):
    """{workload: {metric: [values]}} of the untraced records in `path`."""
    out = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace", 0) != 0:
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_report(args):
    spec = load_spec()
    data = load_results(args.results)
    bad = 0
    print("%-14s %-14s %6s %14s %9s %7s %s" %
          ("workload", "metric", "runs", "median", "spread", "bound",
           "verdict"))
    for w in spec["workloads"]:
        per = data.get(w["name"], {})
        for m in spec["end_to_end"]:
            vals = per.get(m["name"], [])
            if not vals:
                continue
            s = spread(vals)
            if m["name"] == "setup_s":
                verdict = "n/a (setup)"
            elif s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                bad += 1
            print("%-14s %-14s %6d %14.6g %8.2f%% %6.0f%% %s" %
                  (w["name"], m["name"], len(vals), quartiles(vals)[1],
                   100 * s, 100 * m["bound"], verdict))
    return 1 if bad else 0


def cmd_compare(args):
    spec = load_spec()
    a = load_results(args.base)
    b = load_results(args.head)
    print("%-14s %-14s %12s %12s %8s %6s %s" %
          ("workload", "metric", "base med", "head med", "delta", "bound",
           "verdict"))
    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            va = a.get(w["name"], {}).get(m["name"], [])
            vb = b.get(w["name"], {}).get(m["name"], [])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            # Positive `gain` = head is better in the metric's direction.
            gain = -delta if m["better"] == "lower" else delta
            noisy = max(spread(va), spread(vb)) > m["bound"]
            if m["better"] == "lower":
                all_better = max(vb) < min(va)
            else:
                all_better = min(vb) > max(va)
            if gain < -m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif noisy and not all_better:
                verdict = "unresolved"
            elif gain > spread(va):
                verdict = "better"
            else:
                verdict = "unchanged"
            print("%-14s %-14s %12.6g %12.6g %+7.2f%% %5.0f%% %s" %
                  (w["name"], m["name"], qa[1], qb[1], 100 * delta,
                   100 * m["bound"], verdict))
            print("%-14s %-14s   base q1..q3 %.6g..%.6g  head q1..q3 %.6g..%.6g"
                  % ("", "", qa[0], qa[2], qb[0], qb[2]))
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] in ("collect", "report", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "collect":
            p.add_argument("--out", required=True)
            p.add_argument("--seeds", default="1-10")
            p.add_argument("--workloads", default="")
            p.add_argument("--seconds", type=int, default=0)
            p.add_argument("--trace", type=int, default=0, choices=(0, 1))
            return cmd_collect(p.parse_args(argv[1:]))
        if argv[0] == "report":
            p.add_argument("results")
            return cmd_report(p.parse_args(argv[1:]))
        p.add_argument("base")
        p.add_argument("head")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return cmd_measure(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
