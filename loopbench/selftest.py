#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of its exact counts and the shape
of its output.

    python3 loopbench/selftest.py [--seed N] [--seconds S]

For every workload in BENCHMARK.json this runs the benchmark twice traced
and once untraced with the same seed (short runs) and checks that

* every run is `correct` with zero failed operations;
* the untraced run reports exactly the `end_to_end` metrics and the traced
  runs exactly the `per_layer` metrics of BENCHMARK.json, each with its
  declared unit;
* the two traced runs report bit-identical exact counts (work, instruction
  and vectorization counts, shardable kernels, and the service's hit rate,
  compiles and evictions).

Exits non-zero on the first workload that fails any check.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXACT = [
    "vm.looplet_work",
    "vm.baseline_work",
    "opt.instrs",
    "opt.instrs_none",
    "vectorize.instrs_vectorized",
    "vectorize.instrs_vectorizable",
    "par.shardable",
    "service.hit_rate",
    "service.compiles",
    "service.evictions",
]


def run(cfg, workload, seed, seconds, trace):
    cmd = [*cfg["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(workload, result, declared):
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"not correct: attempted {result['attempted']}, failed {result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, units {units}")
    return [f"{workload}: {p}" for p in problems]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=3)
    args = p.parse_args()
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in (w["name"] for w in cfg["workloads"]):
        plain = run(cfg, w, args.seed, args.seconds, 0)
        first = run(cfg, w, args.seed, args.seconds, 1)
        second = run(cfg, w, args.seed, args.seconds, 1)
        failures += check_shape(w, plain, cfg["end_to_end"])
        failures += check_shape(w, first, cfg["per_layer"])
        failures += check_shape(w, second, cfg["per_layer"])
        for name in EXACT:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a is None or a != b:
                failures.append(f"{w}: {name} differs between runs: {a} vs {b}")
        print(f"{w}: {'ok' if not failures else 'FAILED'}", flush=True)
        if failures:
            break
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
