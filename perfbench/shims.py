"""Timing shims for the traced run.

The traced run wraps public functions of each program package in the
shims below.  Each call -- or, for a generator, each resume -- is a span
with a name, start, end and parent; a span's self time is its duration
minus the **union** of its children's intervals, so children that ran
concurrently on other threads (scatter RPCs) never push it below zero.
Spans are kept in memory and written out when the process ends; every
process that hosts a layer (this one, the HTTP server, the shard worker)
runs the same shims, and ``perf_counter`` is CLOCK_MONOTONIC, shared by
all processes on the host, so their spans line up on one timeline.

Counts come from the program's own ``repro.obs.metrics`` registry; this
module only adds the PeriodSet construction count and the codec and HTTP
byte counts, which the registry lacks.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

perf = time.perf_counter

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: Where every process writes its spans (set by the host).
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"

#: The outermost span of one request in each process that serves one:
#: in-process store, coordinator, HTTP handler, shard-worker dispatch.
REQUEST_SPANS = ("service.store", "cluster.query", "service.http",
                 "cluster.worker")


class _Frame:
    __slots__ = ("name", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: list[tuple[float, float]] = []


def _union_within(intervals, start: float, end: float) -> float:
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


class Tracer:
    """Span records of one process: ``[name, start, end, self, parent]``.

    A generator contributes one record per instance whose ``end - start``
    is replaced by its busy time (the sum of its resumes).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.periodsets = 0
        self.codec: _CodecJson | None = None

    # ------------------------------------------------------------ shims

    def call(self, name: str, fn):
        spans = self.spans
        tracer = self
        # Request-level spans also carry the process's PeriodSet count at
        # their start and end; RPC spans keep their child intervals for
        # the wire-time split.
        top = name in REQUEST_SPANS
        keep = name == "cluster.rpc"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            frame = _Frame(name)
            token = _CURRENT.set(frame)
            built = tracer.periodsets
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                _CURRENT.reset(token)
                own = end - start - _union_within(frame.children, start, end)
                record = [name, start, end, own,
                          parent.name if parent else None]
                if top:
                    record.append((built, tracer.periodsets))
                elif keep:
                    record.append(frame.children)
                spans.append(record)
                if parent is not None:
                    parent.children.append((start, end))

        return wrapper

    def generator(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = _Frame(name)
            busy = 0.0
            first = last = None
            parent_name = None
            try:
                while True:
                    parent = _CURRENT.get()
                    token = _CURRENT.set(frame)
                    start = perf()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf()
                        _CURRENT.reset(token)
                        busy += end - start
                        first = start if first is None else first
                        last = end
                        if parent is not None:
                            parent.children.append((start, end))
                            parent_name = parent.name
                    yield item
            finally:
                inner.close()
                if first is not None:
                    own = busy - _union_within(frame.children, first, last)
                    spans.append([name, first, first + busy, own,
                                  parent_name])

        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the program's public functions, layer by layer."""
        from repro.cluster import coordinator, executor as cexec, protocol
        from repro.cluster import worker
        from repro.engine import engine, executor, operators
        from repro.model import time as mtime
        from repro.mvbt import tree as mtree
        from repro.obs import trace as otrace
        from repro.optimizer import dp
        from repro.service import server, store, wal
        from repro.sparqlt import parser

        call, gen = self.call, self.generator

        def patch(owner, attr, name, kind=call):
            setattr(owner, attr, kind(name, getattr(owner, attr)))

        # repro.sparqlt -- every module that imported parse by name.
        parse = call("sparqlt.parse", parser.parse)
        for module in (parser, engine, coordinator):
            module.parse = parse
        # repro.optimizer / repro.mvsbt
        patch(dp.Optimizer, "choose_order", "optimizer.order")
        patch(dp.Optimizer, "rebuild", "optimizer.stats_build")
        patch(engine.RDFTX, "refresh_statistics", "optimizer.refresh")
        # repro.engine
        patch(engine.RDFTX, "_compile_parsed", "engine.compile")
        engine.execute = call("engine.execute", executor.execute)
        patch(executor, "index_scan", "engine.execute", gen)
        patch(executor, "_apply_ready_filters", "engine.filter")
        patch(executor, "apply_filters", "engine.filter", gen)
        for attr in ("hash_join_rows", "synchronized_join_rows",
                     "nested_loop_product"):
            patch(executor, attr, "engine.join", gen)
        patch(operators, "project", "engine.project")
        # repro.mvbt
        patch(operators, "scan_pieces", "mvbt.scan")
        patch(mtree.MVBT, "insert", "mvbt.update")
        patch(mtree.MVBT, "delete", "mvbt.update")
        # repro.model: count PeriodSet constructions (every path goes
        # through __new__, including the classmethod fast paths).
        tracer = self
        # Scatter RPCs build PeriodSets on several threads at once, and
        # ``+= 1`` on a shared int can lose an update between threads.
        lock = threading.Lock()

        def counting_new(cls, *args, **kwargs):
            with lock:
                tracer.periodsets += 1
            return object.__new__(cls)

        mtime.PeriodSet.__new__ = counting_new
        # repro.service
        patch(store, "save_snapshot", "service.snapshot_save")
        patch(store, "load_snapshot", "service.snapshot_load")
        patch(store.TemporalStore, "_replay", "service.replay")
        patch(store.TemporalStore, "query", "service.store")
        patch(store.TemporalStore, "_update", "service.store")
        patch(wal.WriteAheadLog, "append", "service.wal_append")
        patch(wal.WriteAheadLog, "sync", "service.wal_sync")
        patch(server._Handler, "do_POST", "service.http")
        # repro.cluster (coordinator side; the worker runs these too)
        patch(coordinator.ClusterStore, "_spawn_topology", "cluster.spawn")
        patch(coordinator.ClusterStore, "query", "cluster.query")
        patch(coordinator.ClusterStore, "_scatter_many", "cluster.scatter")
        patch(coordinator.ShardClient, "rpc", "cluster.rpc")
        patch(cexec, "distributed_query", "cluster.gather")
        for attr in ("encode_query", "decode_query", "encode_row",
                     "decode_row"):
            patch(protocol, attr, "cluster.codec")
        self.codec = _CodecJson(self)
        protocol.json = self.codec
        patch(worker, "_dispatch", "cluster.worker")
        coordinator.worker_main = traced_worker_main
        # Scatter RPCs run on a thread pool: carry the span context along
        # whether or not a program trace is live.
        otrace.submit = _submit_with_context

    # ----------------------------------------------------------- output

    def dump(self, directory: str | os.PathLike) -> None:
        from repro.mvbt.compression import memo_entries

        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(),
            "spans": self.spans,
            "memo_entries": memo_entries(),
        }))


class _CodecJson:
    """Stands in for ``json`` inside the cluster protocol module: times
    the encode/decode and counts the bytes each way."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.call("cluster.codec", self._dumps)
        self.loads = tracer.call("cluster.codec", self._loads)
        self.sent = 0
        self.received = 0

    def _dumps(self, obj, **kwargs):
        text = json.dumps(obj, **kwargs)
        self.sent += len(text)
        return text

    def _loads(self, data, **kwargs):
        self.received += len(data)
        return json.loads(data, **kwargs)


# ------------------------------------------------------------ the report

#: Per-operation self times: layer metric <- span name.
SELF_MS = {
    "sparqlt.parse_ms": "sparqlt.parse",
    "optimizer.order_ms": "optimizer.order",
    "engine.compile_ms": "engine.compile",
    "engine.execute_ms": "engine.execute",
    "engine.filter_ms": "engine.filter",
    "engine.join_ms": "engine.join",
    "engine.project_ms": "engine.project",
    "mvbt.scan_ms": "mvbt.scan",
    "mvbt.update_ms": "mvbt.update",
    "service.http_ms": "service.http",
    "service.wal_append_ms": "service.wal_append",
    "service.wal_sync_ms": "service.wal_sync",
    "cluster.codec_ms": "cluster.codec",
    "cluster.gather_ms": "cluster.gather",
}

#: Set-up seconds (summed durations within the last set-up).
SETUP_S = {
    "optimizer.stats_build_s": "optimizer.stats_build",
    "service.snapshot_save_s": "service.snapshot_save",
    "service.snapshot_load_s": "service.snapshot_load",
    "service.replay_s": "service.replay",
    "cluster.spawn_s": "cluster.spawn",
}

#: Per-operation counts: layer metric <- registry counter.
COUNTS = {
    "engine.filter_rows_in": "engine.filter_rows_in",
    "engine.filter_rows_out": "engine.filter_rows_out",
    "engine.hash_join_rows": "engine.hash_join_rows",
    "engine.sync_join_rows": "engine.sync_join_rows",
    "engine.index_scan_rows": "engine.index_scan_rows",
    "mvbt.leaves_visited": "mvbt.scan.leaves_visited",
    "mvbt.entries_examined": "mvbt.scan.entries_examined",
    "mvbt.entries_emitted": "mvbt.scan.entries_emitted",
    "mvbt.entries_decoded": "mvbt.compression.entries_decoded",
    "mvbt.bytes_decoded": "mvbt.compression.bytes_decoded",
    "mvbt.version_splits": "mvbt.tree.version_splits",
    "service.cache_invalidations": "service.cache.invalidations",
    "service.wal_syncs": "service.wal.syncs",
    "cluster.scatter_scans": "cluster.coordinator.scatter_scans",
}

#: Counters read at the phase boundaries (every process, summed).
WATCHED = sorted(set(COUNTS.values()) | {
    "engine.plan_cache.hits", "engine.plan_cache.misses",
    "service.cache.hits", "service.cache.misses",
})


def local_counts() -> dict[str, int]:
    from repro.obs import metrics

    return metrics.REGISTRY.counter_values(WATCHED)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(records: list[list], processes: list[dict],
                 phase: tuple[float, float], setup: tuple[float, float],
                 ops: int, reads: int, factor: float,
                 counts: dict[str, int], moved: tuple[int, int, int],
                 host_pid: int) -> dict:
    """Per-layer metrics of the timed phase, as ``name -> (value, unit)``.

    ``records`` are ``(pid, span)`` pairs from every process; ``counts``
    the registry deltas summed over processes; ``moved`` the bytes sent
    and received by the coordinator's codec and the HTTP response bytes;
    ``factor`` converts this host's wall time to nominal time.
    """
    begin, end = phase
    in_phase = [(pid, r) for pid, r in records
                if r[1] >= begin and r[2] <= end]
    in_setup = [r for _, r in records if r[1] >= setup[0] and r[2] <= setup[1]]
    per_op_ms = 1000.0 * factor / ops
    out: dict[str, tuple[float, str]] = {}
    self_by_name: dict[str, float] = {}
    for _, r in in_phase:
        self_by_name[r[0]] = self_by_name.get(r[0], 0.0) + r[3]
    for metric, name in SELF_MS.items():
        out[metric] = (self_by_name.get(name, 0.0) * per_op_ms, "ms")
    for metric, name in SETUP_S.items():
        out[metric] = (factor * sum(r[2] - r[1] for r in in_setup
                                    if r[0] == name), "s")
    refreshes = [r for _, r in in_phase if r[0] == "optimizer.refresh"]
    out["optimizer.refreshes"] = (len(refreshes) / ops, "count")
    out["optimizer.refresh_ms"] = (
        sum(r[2] - r[1] for r in refreshes) * per_op_ms, "ms")

    # Cluster: worker time is the dispatch span in the worker process;
    # wire time is what is left of each RPC once the coordinator's codec
    # and everything the worker did inside that RPC are taken out.
    remote = [r for pid, r in in_phase
              if pid != host_pid and r[0] in ("cluster.worker",
                                               "cluster.codec")]
    out["cluster.worker_ms"] = (
        sum(r[2] - r[1] for r in remote if r[0] == "cluster.worker")
        * per_op_ms, "ms")
    wire = 0.0
    for pid, r in in_phase:
        if pid == host_pid and r[0] == "cluster.rpc":
            inside = [tuple(c) for c in r[5]] + [(x[1], x[2]) for x in remote
                                   if x[1] >= r[1] and x[2] <= r[2]]
            wire += (r[2] - r[1]) - _union_within(inside, r[1], r[2])
    out["cluster.wire_ms"] = (wire * per_op_ms, "ms")
    if any(pid != host_pid and r[0] == "cluster.codec" for pid, r in in_phase):
        # The worker's own codec time is part of worker time, not ours.
        out["cluster.codec_ms"] = (
            sum(r[3] for pid, r in in_phase
                if pid == host_pid and r[0] == "cluster.codec")
            * per_op_ms, "ms")

    for metric, counter in COUNTS.items():
        unit = "B" if "bytes" in metric else "count"
        out[metric] = (counts.get(counter, 0) / ops, unit)
    out["engine.filter_yield"] = (_ratio(counts.get("engine.filter_rows_out", 0),
                                         counts.get("engine.filter_rows_in", 0)),
                                  "ratio")
    out["mvbt.scan_yield"] = (_ratio(counts.get("mvbt.scan.entries_emitted", 0),
                                     counts.get("mvbt.scan.entries_examined", 0)),
                              "ratio")
    hits, misses = (counts.get("engine.plan_cache.hits", 0),
                    counts.get("engine.plan_cache.misses", 0))
    out["engine.plan_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    hits, misses = (counts.get("service.cache.hits", 0),
                    counts.get("service.cache.misses", 0))
    out["service.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["cluster.request_bytes"] = (moved[0] / ops, "B")
    out["cluster.response_bytes"] = (moved[1] / ops, "B")
    out["service.response_bytes"] = (moved[2] / ops, "B")
    # PeriodSets each process built from the start of its first request
    # in the phase to the end of its last (requests overlap on a worker
    # serving concurrent RPCs, so per-request deltas would double count).
    marks: dict[int, list] = {}
    for pid, r in in_phase:
        if r[0] in REQUEST_SPANS and r[4] is None:
            marks.setdefault(pid, []).append(r[5])
    built = sum(max(m[1] for m in v) - min(m[0] for m in v)
                for v in marks.values())
    out["model.periodsets_per_read"] = (built / max(reads, 1), "count")
    out["mvbt.memo_entries"] = (
        float(sum(p.get("memo_entries", 0) for p in processes)), "count")
    return out


def _submit_with_context(pool, fn, /, *args, **kwargs):
    return pool.submit(contextvars.copy_context().run, fn, *args, **kwargs)


#: The tracer of this process, once installed.
TRACER: Tracer | None = None


def install() -> Tracer:
    global TRACER
    if TRACER is None:
        TRACER = Tracer()
        TRACER.install()
    return TRACER


def traced_worker_main(config, conn) -> None:
    """Shard-worker entry point with the shims installed; writes the
    worker's spans when it shuts down."""
    from repro.cluster import worker

    tracer = install()
    try:
        worker.worker_main(config, conn)
    finally:
        tracer.dump(os.environ[SPANS_DIR_ENV])


def main(argv: list[str]) -> int:
    """``shims.py serve ...``: ``repro-tx serve`` with the shims in.
    SIGTERM stops it the way Ctrl-C does, so the spans get written."""
    import signal

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    tracer = install()
    from repro import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(os.environ[SPANS_DIR_ENV])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
