"""RDF-TX benchmark: one closed-loop client per workload, every answer
checked, every time reported at nominal host speed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separately traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry the raw wall-clock figures and kernel readings.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every process the benchmark starts runs under this hash seed: the
#: generators' values and the program's work counts depend on it.
HASH_SEED = "0"

#: Hard limit on one host process (the whole run must end within 180 s).
HOST_TIMEOUT_S = 150

WORKLOADS = ("engine-cold", "http-rw", "cluster-scatter")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", type=int, default=0, metavar="K",
        help="self-test: corrupt every K-th answer before it is checked; "
             "the run must then report failures")
    return parser.parse_args(argv)


def make_inputs(workload: str, seed: int) -> tuple[dict, list]:
    """Inputs for the host process, and the specs the checker needs."""
    import inputs

    kind = "govtrack" if workload == "http-rw" else "wikipedia"
    triples = inputs.dataset(kind, seed)
    make_specs = {
        "engine-cold": inputs.engine_specs,
        "http-rw": inputs.http_specs,
        "cluster-scatter": inputs.cluster_specs,
    }[workload]
    specs = make_specs(triples, seed)
    data = {
        "triples": triples,
        "specs": [
            {"select": list(s.select), "patterns": [list(p) for p in s.patterns],
             "year": s.year, "before": s.before}
            for s in specs
        ],
        "edit_day": inputs.edit_start(triples),
        "edit_subjects": sorted({t[0] for t in triples}),
    }
    if workload == "http-rw":
        data["hot_order"] = inputs.hot_order(
            seed, len(specs), inputs.HTTP_HOT_READS_PER_ROUND)
    return data, specs


def check(data: dict, specs: list, result: dict) -> dict:
    """Replay the run's answer log against the evaluator."""
    import inputs
    from oracle import Oracle, digest

    oracle = Oracle.from_triples(data["triples"])
    attempted = failed = wrong = 0
    first_wrong = None
    by_text: dict[int, set[str]] = {}
    for event in result["events"]:
        kind = event[0]
        if kind == "f":
            attempted += 1
            failed += 1
            first_wrong = first_wrong or event
            continue
        if kind in ("i", "d"):
            attempted += 1
            subject, obj, t_in, t_out = inputs.edit(event[1], data)
            if kind == "i":
                oracle.insert(subject, inputs.EDIT_PREDICATE, obj, t_in)
            else:
                oracle.delete(subject, inputs.EDIT_PREDICATE, obj, t_out)
            continue
        attempted += 1
        if kind == "q":
            spec = specs[event[1]]
            by_text.setdefault(event[1], set()).add(event[2])
        else:  # "b": read-back of a written subject
            spec = inputs.readback(inputs.edit(event[1], data)[0])
        if digest(oracle.answer(spec)) != event[-1]:
            failed += 1
            wrong += 1
            first_wrong = first_wrong or [spec.text()]
    # Repeated texts (result-cache hits and misses alike) must agree.
    unstable = sum(1 for digests in by_text.values() if len(digests) > 1)
    properties = dict(result.get("properties", {}))
    properties["repeats_agree"] = unstable == 0
    return {"attempted": attempted, "failed": failed, "wrong": wrong,
            "first_wrong": first_wrong, "properties": properties}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def pair_means(updates: list[float]) -> list[float]:
    """Mean latency of each insert/delete pair.  An insert and a delete
    cost differently, so a plain median of both would sit in the gap
    between two modes and jump between them from run to run."""
    return [(a + b) / 2.0 for a, b in zip(updates[0::2], updates[1::2])]


def end_to_end(result: dict) -> dict:
    reads_ms = [v * 1000.0 for v in result["reads_s"]]
    updates_ms = [v * 1000.0 for v in pair_means(result["updates_s"])]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "read_p50_ms": (statistics.median(reads_ms), "ms"),
        "read_p99_ms": (quantile(reads_ms, 0.99), "ms"),
        "update_p50_ms": (statistics.median(updates_ms), "ms"),
        "ops_per_s": (result["phase_ops"] / result["phase_s"], "1/s"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
        "snapshot_bytes_per_triple": (
            result["snapshot_bytes"] / result["triples"], "B"),
    }


def report_raw(result: dict) -> None:
    """The figures behind the metrics: raw wall clock and kernel."""
    raw_reads = [v * 1000.0 for v in result["raw_reads_s"]]
    raw_updates = [v * 1000.0 for v in result["raw_updates_s"]]
    lines = {
        "reads": len(raw_reads),
        "reads_beyond_p99": len(raw_reads) - math.ceil(0.99 * len(raw_reads)),
        "raw_read_p50_ms": statistics.median(raw_reads),
        "raw_read_p99_ms": quantile(raw_reads, 0.99),
        "raw_update_p50_ms": statistics.median(pair_means(raw_updates)),
        "raw_setup_s": result["raw_setup_s"],
        "scaled_setup_s": result["setup_s"],
        "kernel": result["kernel"],
        "rounds": result.get("rounds"),
    }
    for key, value in lines.items():
        print(f"# {key}: {json.dumps(value)}")


def run_host(work: Path, args: argparse.Namespace) -> None:
    """Run the host process in its own process group, so that on a
    timeout the server or shard worker it started goes down with it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "host.py"), str(work), args.workload,
         str(args.seconds), str(args.trace), str(args.corrupt)],
        stdout=sys.stderr, env=dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=HOST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        try:  # whatever the failed host left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise RuntimeError(f"host process failed with exit code {code}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    # One CPU for every process of the run (inherited by children):
    # client, server and worker then share the core whose speed the
    # reference kernel measures.  Pinned whatever the caller's hash seed;
    # pinning again after the re-exec below keeps the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv], env)
    print(f"# cpu: {json.dumps(sorted(os.sched_getaffinity(0)))}")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data, specs = make_inputs(args.workload, args.seed)
        (work / "inputs.json").write_text(json.dumps(data))
        run_host(work, args)
        result = json.loads((work / "result.json").read_text())
        verdict = check(data, specs, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for name, held in verdict["properties"].items():
        print(f"# property {name}: {'ok' if held else 'VIOLATED'}")
    if verdict["first_wrong"] is not None:
        print(f"# first failure: {json.dumps(verdict['first_wrong'])}")
    correct = verdict["wrong"] == 0 and all(verdict["properties"].values())
    if args.trace:
        # End-to-end figures of the traced run, for the tracing overhead
        # only: end-to-end metrics come from untraced runs.
        for name, (value, unit) in end_to_end(result).items():
            print(f"# traced {name}: {value} {unit}")
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["layers"].items()
        }
    else:
        report_raw(result)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(result).items()
        }
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
