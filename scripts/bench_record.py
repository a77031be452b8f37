#!/usr/bin/env python3
"""Records a parent/change benchmark datapoint as BENCH_<workload>.json.

Runs the repository benchmark (perfbench/run.py) on two checkouts — the
parent commit and the change — in alternating pairs (parent first on even
pairs, change first on odd ones, so slow drift of the machine hits both
sides alike), then writes, per end-to-end metric, every run's value, the
median and the quartiles of each side, how many pairs the change won, and
the machine stamp the benchmark printed.

Usage, from the repository root:

    python3 scripts/bench_record.py --parent <parent checkout> \\
        --workload serve_mixed --pairs 5 --seconds 30 --seed 1000

The change defaults to this checkout. Each checkout builds into its own
directory (<checkout>/.bench_build unless --parent-build/--change-build
say otherwise). Seeds are --seed, --seed+1, ... (one per pair, shared by
both sides of the pair). The output goes to BENCH_<workload>.json in the
change checkout unless --out names another file.
"""

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"[bench_record] {msg}", file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def run_once(checkout, build_dir, workload, seed, seconds):
    """One benchmark run; returns (json report, stamp dict, exit code)."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = build_dir
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    report, stamp = None, {}
    for line in proc.stdout.splitlines():
        if line.startswith("stamp:"):
            for field in shlex.split(line[len("stamp:"):]):
                if "=" in field:
                    key, value = field.split("=", 1)
                    stamp[key] = value
        elif line.startswith("{"):
            report = json.loads(line)
    if report is None:
        sys.stderr.write(proc.stderr[-4000:])
    return report, stamp, proc.returncode


def source_stamp(checkout, printed):
    """The commit the benchmark printed for `checkout`, unless the checkout's
    sources differ from that commit: then a digest of the sources (the one
    perfbench/run.py prints for a checkout without git), so the record names
    the code that ran."""
    status = subprocess.run(["git", "-C", checkout, "status", "--porcelain", "--",
                             "src", "perfbench"],
                            capture_output=True, text=True, check=False)
    if status.returncode == 0 and not status.stdout.strip():
        return printed
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(checkout, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, checkout).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def summarize(values):
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT, help="checkout of the change")
    parser.add_argument("--parent-build", help="build directory of the parent")
    parser.add_argument("--change-build", help="build directory of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", help="output file (default BENCH_<workload>.json)")
    args = parser.parse_args(argv)

    sides = {
        "parent": (os.path.abspath(args.parent),
                   os.path.abspath(args.parent_build or
                                   os.path.join(args.parent, ".bench_build"))),
        "change": (os.path.abspath(args.change),
                   os.path.abspath(args.change_build or
                                   os.path.join(args.change, ".bench_build"))),
    }
    with open(os.path.join(sides["change"][0], "BENCHMARK.json")) as f:
        contract = json.load(f)
    directions = {m["name"]: m["better"] for m in contract["end_to_end"]}

    values = {"parent": {}, "change": {}}
    failed = {"parent": [], "change": []}
    exit_codes = {"parent": [], "change": []}
    stamps = {"parent": {}, "change": {}}
    seeds = [args.seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout, build_dir = sides[side]
            log(f"pair {i + 1}/{args.pairs} seed {seed}: {side}")
            report, run_stamp, code = run_once(checkout, build_dir, args.workload, seed,
                                               args.seconds)
            exit_codes[side].append(code)
            if report is None:
                log(f"{side} run produced no report (exit {code})")
                return 2
            failed[side].append(report.get("failed", 0))
            for name, metric in report["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            stamps[side] = run_stamp

    metrics = {}
    for name, direction in directions.items():
        parent = values["parent"].get(name)
        change = values["change"].get(name)
        if not parent or not change:
            continue
        better = sum(1 for p, c in zip(parent, change)
                     if (c > p if direction == "higher" else c < p))
        metrics[name] = {
            "better": direction,
            "parent": summarize(parent),
            "change": summarize(change),
            "pairs_change_better": better,
        }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "order": "alternating, parent first on even pairs",
        "machine": {key: stamps["change"][key]
                    for key in ("nproc", "simd", "build", "compiler") if key in stamps["change"]},
        "commits": {side: source_stamp(sides[side][0], stamps[side].get("commit"))
                    for side in stamps},
        "failed": failed,
        "exit_codes": exit_codes,
        "metrics": metrics,
    }
    out = args.out or os.path.join(sides["change"][0], f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    log(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
