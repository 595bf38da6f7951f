"""Measure every workload over several seeds and append one trajectory record.

Usage (from the repository root)::

    python3 perfbench/record.py --label "what changed"

For every workload of ``BENCHMARK.json`` the benchmark runs once per seed
(1 to 10) untraced, then once traced (seed 1).  The record keeps, per
end-to-end metric, the median and the quartile spread (Q3 - Q1 over the
median, the figure the acceptance rule bounds), and the traced run's
per-layer values.  Records accumulate in
``perfbench/trajectory.json``, one per change, so a later change can show
its before/after rows next to the seed's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


#: Every record covers every workload over these seeds, so records compare.
SEEDS = tuple(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    #: Whole run, set-up and oracle check included (the time budget's unit).
    result["run_s"] = time.perf_counter() - start
    result["properties"] = next(
        json.loads(line.split(": ", 1)[1])
        for line in lines if line.startswith("workload properties: ")
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {
        "label": args.label,
        "run_seconds": seconds,
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "workloads": {},
    }
    for name in (workload["name"] for workload in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            result = _run(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed} ({result['run_s']:.1f} s): " + ", ".join(
                f"{key} {value['value']:.4g}" for key, value in result["metrics"].items()
            ), flush=True)
        end_to_end = {}
        for metric in declared["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            middle = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "median": middle,
                "spread": (q3 - q1) / middle if middle else 0.0,
                "unit": metric["unit"],
            }
            print(f"  {name} {metric['name']}: median {middle:.4g}, "
                  f"spread {end_to_end[metric['name']]['spread']:.3f}", flush=True)
        traced = _run(name, SEEDS[0], seconds, 1)
        record["workloads"][name] = {
            "correct": all(run["correct"] for run in runs) and traced["correct"],
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "run_s_median": statistics.median(run["run_s"] for run in runs),
            "end_to_end": end_to_end,
            "per_layer": {key: value["value"] for key, value in traced["metrics"].items()},
            "properties": runs[0]["properties"],
        }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"records": []}
    trajectory["records"].append(record)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    print(f"appended record {args.label!r} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
