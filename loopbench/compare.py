#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 loopbench/compare.py collect OUT --seeds 1-10 [--workload W ...]
    python3 loopbench/compare.py spread SET
    python3 loopbench/compare.py diff PARENT CHANGE

`collect` runs `loopbench/run.py` once per (workload, seed) with the run
length and trace flag from BENCHMARK.json (`--trace 1` with `--trace`) and
stores each run's standard output as `OUT/<workload>.<seed>.<trace>.out`.

`spread` prints, per workload and metric, the median, the quartiles and the
spread (distance between the quartiles as a share of the median) of one set.

`diff` pairs the runs of two sets by workload and seed and prints, per
workload and end-to-end metric: each side's median and quartiles, the
fraction of pairs the change wins (ties count for neither side), and a
verdict:

* `unresolved` when the parent's own spread exceeds the metric's bound and
  not every run of the change beats every run of the parent;
* `better` when the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's spread;
* `worse` when the change's median is worse than the parent's by more than
  the bound;
* `within bound` otherwise.

Quartiles are `statistics.quantiles(values, n=4)`.  Runs whose result is
not `correct` are reported and left out.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json(path):
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_set(directory):
    """{workload: {seed: result}} for every stored run of a set."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        workload, seed, _trace = path.name[: -len(".out")].rsplit(".", 2)
        result = last_json(path)
        if result is None or not result.get("correct"):
            print(f"skipping {path}: no correct result", file=sys.stderr)
            continue
        runs.setdefault(workload, {})[seed] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs.values() if metric in r["metrics"]]


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_collect(args):
    cfg = load_config()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or [w["name"] for w in cfg["workloads"]]
    trace = "1" if args.trace else "0"
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = [*cfg["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(cfg["run_seconds"]), "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            (out / f"{w}.{seed}.{trace}.out").write_text(proc.stdout)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"{w} seed {seed}: {status}", flush=True)
    return 0


def cmd_spread(args):
    cfg = load_config()
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    for workload, runs in load_set(args.set).items():
        print(f"== {workload} ({len(runs)} runs)")
        metrics = sorted({m for r in runs.values() for m in r["metrics"]})
        for m in metrics:
            vals = values_of(runs, m)
            q1, q2, q3 = quartiles(vals)
            bound = bounds.get(m)
            flag = ""
            if bound is not None:
                flag = "ok" if spread(vals) <= bound / 3 else ("within bound" if spread(vals) <= bound else "TOO NOISY")
            print(f"  {m:34s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread(vals):7.2%}  {flag}")
    return 0


def cmd_diff(args):
    cfg = load_config()
    parent, change = load_set(args.parent), load_set(args.change)
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        print(f"== {workload} ({len(seeds)} paired runs)")
        for m in cfg["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            b = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            if not a:
                continue
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(better(y, x) for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            rel = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)  # > 0 is worse
            if spread(a) > bound and not all(better(y, x) for x in a for y in b):
                verdict = "unresolved"
            elif wins >= 0.9 * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            elif rel > bound:
                verdict = "worse"
                worst = 1
            else:
                verdict = "within bound"
            print(f"  {name:26s} parent {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                  f"wins {wins}/{len(seeds)}  {rel:+.2%}  {verdict}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workload", action="append")
    c.add_argument("--trace", action="store_true")
    s = sub.add_parser("spread")
    s.add_argument("set")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = p.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
