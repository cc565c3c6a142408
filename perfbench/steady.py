"""Steadiness check: is one commit's benchmark repeatable?

Runs every workload of BENCHMARK.json ten times per set, each run with
its own seed (1 to 10), in two sets with the same seeds, then prints for
each end-to-end metric the median and quartiles per set, the spread
(interquartile range over median) and the drift of the set medians, both
against the metric's bound.  Every run's result line must name exactly
the manifest's metrics of its kind, each in the manifest's unit.  It
then makes two traced runs of seed 1 per workload and flags every
per-layer count or byte figure that differs between them (times are
expected to differ; counts are not).

Usage (from the repository root)::

    python3 perfbench/steady.py

Exits 1 when a spread or drift exceeds its bound, a count differs, a
result line's metrics or units differ from the manifest, or a run fails
an operation or reports incorrect answers.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
SETS = 2
FIRST_SEED = 1
TRACE_REPEATS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, iqr / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def sound(workload: str, seed: int, out: dict, units: dict[str, str]) -> bool:
    """Every operation of the run succeeded, every answer checked, and
    the result names exactly the metrics ``units`` lists, in its units."""
    ok = True
    if not out["correct"] or out["failed"] != 0:
        ok = False
        print(f"{workload} seed {seed}: correct={out['correct']}, "
              f"{out['failed']} of {out['attempted']} operations failed")
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != units:
        ok = False
        for name in sorted(set(got) | set(units)):
            if got.get(name) != units.get(name):
                print(f"{workload} seed {seed}: metric {name} printed in "
                      f"{got.get(name)}, manifest says {units.get(name)}")
    return ok


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m for m in config["end_to_end"]}
    e2e_units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in config["per_layer"]}
    counts = {name for name, unit in layer_units.items()
              if unit in ("count", "B")}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sets: list[dict[str, list[float]]] = []
        for _ in range(SETS):
            values: dict[str, list[float]] = {}
            for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
                out = one_run(workload, seed, seconds, 0)
                ok &= sound(workload, seed, out, e2e_units)
                for name, metric in out["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"== {workload}: {RUNS} runs x {SETS} sets")
        for name, bound in bounds.items():
            medians = []
            cells = []
            for values in sets:
                q1, median, q3, rel = spread(values[name])
                medians.append(median)
                worse = rel > bound["bound"]
                ok &= not worse
                cells.append(f"q1 {q1:.4g} med {median:.4g} q3 {q3:.4g} "
                             f"spread {rel:.3f}{' OVER' if worse else ''}")
            sign = 1.0 if bound["better"] == "lower" else -1.0
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            over = drift > bound["bound"]
            ok &= not over
            print(f"  {name:<26} bound {bound['bound']:<5} "
                  + " | ".join(cells)
                  + f" | drift {drift:+.3f}{' OVER' if over else ''}")
        traced = [one_run(workload, FIRST_SEED, seconds, 1)
                  for _ in range(TRACE_REPEATS)]
        for out in traced:
            ok &= sound(workload, FIRST_SEED, out, layer_units)
        for name in sorted(counts):
            seen = {t["metrics"][name]["value"] for t in traced}
            if len(seen) > 1:
                ok = False
                print(f"  count {name} differs between runs: {sorted(seen)}")
        print(f"  traced: {len(counts)} counts compared over "
              f"{TRACE_REPEATS} runs")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
