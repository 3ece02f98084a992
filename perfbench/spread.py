"""Run-to-run spread of the end-to-end metrics, next to their bounds.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 10                    # every workload
    python3 perfbench/spread.py --workloads serve_open_loop --seeds 5

Runs ``run.py --workload W --seed s --seconds <run_seconds> --trace 0``
once per seed (seeds ``first .. first + seeds - 1``) and prints, per
metric, the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the interquartile range as a share of the median, beside the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when every
share except that of ``setup_s`` stays below a third of its bound.
``--out`` also writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    steady = True
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in bounds}
        for seed in range(args.first, args.first + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}"
                for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {'metric':<16} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, series in values[workload].items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / med if med else 0.0
            ok = name == "setup_s" or share < bounds[name] / 3
            steady &= ok
            print(f"{'':>{len(workload) + 2}}{name:<16} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
                  f"{bounds[name]:>6} {'' if ok else '<- too wide'}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(values, handle, indent=1)
    return 0 if steady else 3


if __name__ == "__main__":
    raise SystemExit(main())
