#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Standard library only. Run from the repository root.

    # ten seeds of every workload into a directory of result files
    python3 splitbench/compare.py collect OUT_DIR --seeds 1-10
    python3 splitbench/compare.py collect OUT_DIR --seeds 1-5 --workloads lossy-link

    # per workload and end-to-end metric: median, quartiles and spread of
    # one set; with a second set, its median and the delta against the
    # metric's bound from BENCHMARK.json
    python3 splitbench/compare.py table BASE_DIR [NEW_DIR]

A result file is OUT_DIR/<workload>/seed<n>.txt: the run's full standard
output, whose last line is the JSON result. The table is markdown, ready
to paste into CHANGES.md. `table` exits 1 when a spread or a delta is
outside its bound or the failed shares of the two sets differ.
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


def collect(args):
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for name in names:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            t0 = time.time()
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            path = os.path.join(args.out, name, "seed%d.txt" % seed)
            with open(path, "w") as f:
                f.write(run.stdout)
            last = run.stdout.strip().splitlines()[-1:] or [""]
            print("%-16s seed %-3d exit %d  %5.1f s  %s" % (
                name, seed, run.returncode, time.time() - t0, last[0][:90]),
                flush=True)


def read_set(directory):
    """{workload: [result dict, ...]} from a collect directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        sub = os.path.join(directory, name)
        if not os.path.isdir(sub):
            continue
        for fname in sorted(os.listdir(sub)):
            with open(os.path.join(sub, fname)) as f:
                lines = f.read().strip().splitlines()
            try:
                runs.setdefault(name, []).append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                print("unreadable result: %s/%s" % (name, fname),
                      file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(args):
    spec = load_spec()
    base = read_set(args.base)
    new = read_set(args.new) if args.new else None
    ok = True
    head = "| workload | metric | n | median | q1 | q3 | spread | bound |"
    rule = "|---|---|---|---|---|---|---|---|"
    if new is not None:
        head += " new median | delta | verdict |"
        rule += "---|---|---|"
    print(head)
    print(rule)
    for w in spec["workloads"]:
        name = w["name"]
        runs = base.get(name, [])
        if not runs:
            continue
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r.get("metrics", {})]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            row = "| %s | %s (%s) | %d | %.6g | %.6g | %.6g | %.3f | %.2f |" % (
                name, m["name"], m["unit"], len(vals), med, q1, q3, spread,
                m["bound"])
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
                row += " **spread over bound**"
            if new is not None:
                nvals = [r["metrics"][m["name"]]["value"]
                         for r in new.get(name, [])
                         if m["name"] in r.get("metrics", {})]
                if nvals:
                    nmed = statistics.median(nvals)
                    # Positive delta = worse, as a share of the base median.
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    delta = sign * (nmed - med) / med if med else 0.0
                    verdict = "within" if delta <= m["bound"] else "WORSE"
                    ok = ok and verdict == "within"
                    row += " %.6g | %+.3f | %s |" % (nmed, delta, verdict)
                else:
                    row += " - | - | missing |"
                    ok = False
            print(row)
        share = [r["failed"] / r["attempted"] for r in runs]
        line = "%s: %d runs, all correct: %s, failed share %s" % (
            name, len(runs), all(r["correct"] for r in runs),
            sorted(set(share)))
        ok = ok and all(r["correct"] for r in runs)
        if new is not None:
            nshare = [r["failed"] / r["attempted"] for r in new.get(name, [])]
            line += "; new set failed share %s" % sorted(set(nshare))
            if sorted(set(share)) != sorted(set(nshare)):
                ok = False
        print("\n" + line + "\n", file=sys.stderr)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run workloads x seeds")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0,
                   help="run length (default: BENCHMARK.json run_seconds)")
    c.add_argument("--trace", type=int, default=0)
    t = sub.add_parser("table", help="summarise one set, or compare two")
    t.add_argument("base")
    t.add_argument("new", nargs="?")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return table(args)


if __name__ == "__main__":
    sys.exit(main())
