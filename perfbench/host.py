"""The process that hosts the program during one run.

``run.py`` writes the generated inputs to ``inputs.json`` in a work
directory and starts this script; it sets the program up, drives one
closed-loop client for ``--seconds``, and writes ``result.json``: the
nominal-speed timings, the raw ones, the kernel readings, and one digest
per answer for ``run.py`` to check against its evaluator.  The evaluator
and its expected answers never enter this process, so its peak resident
memory is the program's.

Usage: python3 perfbench/host.py WORKDIR WORKLOAD SECONDS TRACE CORRUPT
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs as _inputs  # noqa: E402
from kernel import NOMINAL_S, NominalClock, reading  # noqa: E402
from oracle import Spec, canonical_encoded, digest  # noqa: E402

perf = time.perf_counter

#: Kernel readings are taken whenever this much time passed since the
#: last one, always between operations.
MARK_EVERY_S = 0.05

#: Nominal seconds of one round of each workload (its operations over
#: its ``ops_per_s`` at nominal speed); a run does ``--seconds`` worth.
ENGINE_ROUND_S = 4.4
HTTP_ROUND_S = 3.6
CLUSTER_ROUND_S = 4.3

#: Texts read once, untimed, before the timed phase (lazy set-up, first
#: leaf decodes); the timed rounds then do the same work in every run.
#: The warm-up reads the last texts of the cycle, which the caches have
#: long evicted by the time the cycle reaches them.
WARM_UP_TEXTS = 96

#: A run stops after the round that passes this many times ``--seconds``
#: of wall time.
WALL_CAP = 4

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Insert/delete pairs a read-only workload writes after its timed reads,
#: so every workload reports ``update_p50_ms``.  240 updates stay below
#: the 256-update statistics-refresh threshold.
PROBE_PAIRS = 120


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process, from /proc (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Run:
    """Timings, kernel readings and the answer log of one run."""

    def __init__(self, corrupt: int) -> None:
        self.clock = NominalClock()
        self.reads: list[float] = []
        self.updates: list[float] = []
        self.raw_reads: list[float] = []
        self.raw_updates: list[float] = []
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.events: list[list] = []
        self.answers = 0
        self.corrupt = corrupt
        self._last_mark = perf()

    def timed(self, fn, *, update: bool = False, record: bool = True):
        """Run one operation; returns its result, or None if it raised
        (logged as a failed operation).  ``record=False`` keeps its time
        out of the metrics."""
        start = perf()
        try:
            out = fn()
        except Exception as error:  # the run goes on; the checker counts it
            self.events.append(["f", "update" if update else "read",
                                f"{type(error).__name__}: {error}"])
            return None
        elapsed = perf() - start
        if not record:
            pass
        elif update:
            self.raw_updates.append(elapsed)
            self.clock.add(self.updates, elapsed)
        else:
            self.raw_reads.append(elapsed)
            self.clock.add(self.reads, elapsed)
        if perf() - self._last_mark >= MARK_EVERY_S:
            self.clock.mark()
            self._last_mark = perf()
        return out

    def timed_setup(self, fn):
        """Time one set-up, scaled by the kernel readings around it."""
        before = reading()
        start = perf()
        out = fn()
        elapsed = perf() - start
        after = reading()
        self.setup_window = (start, start + elapsed)
        self.raw_setup.append(elapsed)
        self.setup.append(elapsed * NOMINAL_S / ((before + after) / 2.0))
        return out

    def reset_timings(self) -> None:
        """Drop the warm-up timings (scaling what is still pending)."""
        self.clock.flush()
        for sink in (self.reads, self.raw_reads, self.updates,
                     self.raw_updates):
            sink.clear()

    def phase(self) -> dict:
        """Operations and nominal seconds of the timed phase so far."""
        self.clock.flush()
        return {"phase_ops": len(self.reads) + len(self.updates),
                "phase_s": sum(self.reads) + sum(self.updates)}

    def digest(self, rows: list[str]) -> str:
        """Digest of one canonical answer.  With ``corrupt`` set, every
        corrupt-th answer gains a bogus row first -- the self-test that
        the checker counts failures."""
        self.answers += 1
        if self.corrupt and self.answers % self.corrupt == 0:
            rows = rows + ['["corrupted"]']
        return digest(rows)

    def result(self) -> dict:
        self.clock.flush()
        return {
            "setup_s": self.setup,
            "raw_setup_s": self.raw_setup,
            "reads_s": self.reads,
            "raw_reads_s": self.raw_reads,
            "updates_s": self.updates,
            "raw_updates_s": self.raw_updates,
            "kernel": self.clock.summary(),
            "events": self.events,
        }


def canonical_rows(result, select) -> list[str]:
    """In-process ``QueryResult`` rows in the evaluator's canonical form."""
    from repro.model.time import NOW, PeriodSet

    out = set()
    for row in result.rows:
        values = []
        for name in select:
            value = row.get(name)
            if isinstance(value, PeriodSet):
                value = [[p.start, None if p.end == NOW else p.end]
                         for p in value]
            values.append(value)
        out.add(json.dumps(values))
    return sorted(out)


def build_graph(triples):
    from repro.model.graph import TemporalGraph
    from repro.model.time import NOW

    graph = TemporalGraph()
    for s, p, o, start, end in triples:
        graph.add(s, p, o, start, NOW if end is None else end)
    return graph


def closed_loop(seconds: float, round_nominal_s: float, one_round) -> int:
    """Run the whole rounds that take ``seconds`` at nominal speed.

    The count depends on ``seconds`` alone, never on how fast this host
    happens to be, so every run does the same work: a round's cost drifts
    as a run goes on (writes add versions, caches fill), and a faster
    host fitting in more rounds would otherwise read differently.  Only a
    host slowed past ``WALL_CAP`` times ``seconds`` stops early, so the
    run still ends in time.
    """
    rounds = max(1, round(seconds / round_nominal_s))
    cutoff = perf() + WALL_CAP * seconds
    for done in range(1, rounds + 1):
        one_round()
        if perf() > cutoff:
            break
    return done


def write_probe(run: Run, store, start_pair: int, pairs: int,
                data: dict, query, between=None,
                time_reads: bool = False) -> None:
    """Insert/delete pairs on the dataset's subjects, each read back
    (see :func:`inputs.edit`).  ``query``
    maps a :class:`Spec` to canonical rows; ``between`` runs after each
    read-back; ``time_reads`` counts the read-backs as timed reads."""
    for index in range(start_pair, start_pair + pairs):
        subject, obj, t_in, t_out = _inputs.edit(index, data)
        back = _inputs.readback(subject)
        if run.timed(lambda: store.insert(subject, _inputs.EDIT_PREDICATE,
                                          obj, t_in), update=True) is None:
            return
        run.events.append(["i", index])
        _read_back(run, index, back, query, time_reads)
        if between is not None:
            between()
        if run.timed(lambda: store.delete(subject, _inputs.EDIT_PREDICATE,
                                          obj, t_out), update=True) is None:
            return
        run.events.append(["d", index])
        _read_back(run, index, back, query, time_reads)
        if between is not None:
            between()


def _read_back(run: Run, index: int, spec: Spec, query,
               time_reads: bool) -> None:
    rows = run.timed(lambda: query(spec), record=time_reads)
    if rows is not None:
        run.events.append(["b", index, run.digest(rows)])


class TracePhase:
    """The traced run's bookkeeping around the timed phase: registry
    counts of every process hosting a layer, codec bytes, the window."""

    def __init__(self, run: Run, spans_dir: Path) -> None:
        import shims

        self.shims = shims
        self.tracer = shims.install()
        self.run = run
        self.spans_dir = spans_dir
        #: counters of the other process hosting layers, if any.
        self.remote = None
        #: HTTP response bytes read by the client so far, if any.
        self.http_bytes = lambda: 0

    def _counts(self) -> dict[str, int]:
        counts = dict(self.shims.local_counts())
        if self.remote is not None:
            for name, value in self.remote().items():
                if name in counts:
                    counts[name] += value
        return counts

    def _bytes(self) -> tuple[int, int, int]:
        codec = self.tracer.codec
        return codec.sent, codec.received, self.http_bytes()

    def begin(self) -> None:
        self.counts = self._counts()
        self.bytes = self._bytes()
        self.kernel_from = len(self.run.clock.readings)
        self.start = perf()

    def end(self) -> None:
        self.stop = perf()
        # Bytes before counts: the counts come over the same RPC socket.
        self.bytes = tuple(b - a for a, b in zip(self.bytes, self._bytes()))
        counts = self._counts()
        self.counts = {k: counts[k] - self.counts[k] for k in counts}
        self.kernel = self.run.clock.readings[self.kernel_from:]

    def report(self, ops: int, reads: int) -> dict:
        """Call after every traced process has ended."""
        self.tracer.dump(self.spans_dir)
        records, processes = [], []
        for path in sorted(self.spans_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            processes.append(data)
            records.extend((data["pid"], r) for r in data["spans"])
        readings = sorted(self.kernel)
        factor = NOMINAL_S / readings[len(readings) // 2]
        return self.shims.layer_report(
            records, processes, (self.start, self.stop),
            self.run.setup_window, ops, reads, factor, self.counts,
            self.bytes, os.getpid())


# --------------------------------------------------------------- workloads


def _specs(data: dict) -> list[Spec]:
    return [Spec(tuple(s["select"]), tuple(tuple(p) for p in s["patterns"]),
                 s["year"], s["before"]) for s in data["specs"]]


def engine_cold(data: dict, work: Path, seconds: float, run: Run,
                tracer) -> dict:
    """In-process TemporalStore over the Wikipedia-style history."""
    from repro.service.store import TemporalStore

    specs = _specs(data)
    texts = [spec.text() for spec in specs]
    triples = data["triples"]

    store = None
    for attempt in range(SETUP_REPEATS):
        if store is not None:
            store.close()
            store = None
            gc.collect()
        graph = build_graph(triples)
        directory = work / f"store-{attempt}"

        def set_up():
            fresh = TemporalStore(directory)
            fresh.load_dataset(graph)
            fresh.query(texts[-1])
            return fresh

        store = run.timed_setup(set_up)
        del graph
    snapshot_bytes = store.snapshot_path.stat().st_size

    def query_rows(spec: Spec) -> list[str]:
        return canonical_rows(store.query(spec.text()), spec.select)

    def one_round(record: bool, first: int = 0) -> None:
        for index in range(first, len(texts)):
            result = run.timed(lambda: store.query(texts[index]))
            if record and result is not None:
                run.events.append(
                    ["q", index,
                     run.digest(canonical_rows(result, specs[index].select))])

    one_round(False, len(texts) - WARM_UP_TEXTS)
    run.reset_timings()
    if tracer is not None:
        tracer.begin()
    rounds = closed_loop(seconds, ENGINE_ROUND_S, lambda: one_round(True))
    phase = run.phase()
    if tracer is not None:
        tracer.end()
    rss = vm_hwm_mb()
    write_probe(run, store, 0, PROBE_PAIRS, data, query_rows)
    store.close()
    return {"rss_mb": rss, "snapshot_bytes": snapshot_bytes,
            "triples": len(triples), "rounds": rounds, **phase}


class Server:
    """A ``repro-tx serve`` process and one keep-alive HTTP connection."""

    def __init__(self, directory: Path, traced: bool) -> None:
        import http.client

        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=str(HERE.parent / "src"))
        #: response-body bytes read so far.
        self.received = 0
        entry = ([str(HERE / "shims.py")] if traced
                 else ["-m", "repro.cli"])
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "serve", str(directory),
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = self.proc.stdout.readline()
            if " on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split(" on http://", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                                   timeout=60)
            health = self.get("/healthz")
            if health.get("status") != "ok":
                raise RuntimeError(f"unhealthy server: {health}")
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: {response.status} {body[:200]!r}")
        return json.loads(body)

    def post(self, path: str, payload: dict) -> dict:
        self.conn.request("POST", path, body=json.dumps(payload),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"POST {path}: {response.status} {body[:200]!r}")
        self.received += len(body)
        return json.loads(body)

    def query_rows(self, spec: Spec) -> list[str]:
        response = self.post("/query", {"query": spec.text()})
        return canonical_encoded(response["rows"], spec.select)

    def insert(self, subject, predicate, obj, day):
        return self.post("/update", {"op": "insert", "subject": subject,
                                     "predicate": predicate, "object": obj,
                                     "time": day})

    def delete(self, subject, predicate, obj, day):
        return self.post("/update", {"op": "delete", "subject": subject,
                                     "predicate": predicate, "object": obj,
                                     "time": day})

    def stop(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a shell running the benchmark in the
            # background starts it with SIGINT ignored, which the server
            # inherits.  Acknowledged updates are in the WAL already.
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


#: http-rw: insert/delete pairs per round -- 256 updates, so every round
#: crosses the store's 256-update statistics-refresh threshold once.
HTTP_PAIRS_PER_ROUND = 128

#: Hot reads after each update (and its read-back).
HTTP_READS_PER_UPDATE = 8

#: Pairs written before the restarts, left in the WAL for replay.
HTTP_WAL_TAIL_PAIRS = 50


def http_rw(data: dict, work: Path, seconds: float, run: Run,
            tracer) -> dict:
    """``repro-tx serve`` over the GovTrack-style history, one client."""
    from repro.service.store import TemporalStore

    specs = _specs(data)
    hot = data["hot_order"]
    directory = work / "store"
    seed_store = TemporalStore(directory)
    seed_store.load_dataset(build_graph(data["triples"]))
    seed_store.close()
    del seed_store
    gc.collect()
    snapshot_bytes = (directory / TemporalStore.SNAPSHOT_NAME).stat().st_size

    # A WAL tail for every restart to replay.
    server = Server(directory, tracer is not None)
    try:
        for index in range(HTTP_WAL_TAIL_PAIRS):
            subject, obj, t_in, t_out = _inputs.edit(index, data)
            server.insert(subject, _inputs.EDIT_PREDICATE, obj, t_in)
            run.events.append(["i", index])
            server.delete(subject, _inputs.EDIT_PREDICATE, obj, t_out)
            run.events.append(["d", index])
    finally:
        server.stop()

    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = run.timed_setup(
                lambda: Server(directory, tracer is not None))
        for spec in specs[:WARM_UP_TEXTS]:
            server.query_rows(spec)
        if tracer is not None:
            tracer.remote = lambda: server.get("/metrics")["counters"]
            tracer.http_bytes = lambda: server.received
        next_pair = HTTP_WAL_TAIL_PAIRS
        position = 0

        def hot_reads() -> None:
            nonlocal position
            for _ in range(HTTP_READS_PER_UPDATE):
                index = hot[position % len(hot)]
                position += 1
                spec = specs[index]
                response = run.timed(
                    lambda: server.post("/query", {"query": spec.text()}))
                if response is not None:
                    run.events.append(["q", index, run.digest(
                        canonical_encoded(response["rows"], spec.select))])

        def one_round() -> None:
            nonlocal next_pair
            for _ in range(HTTP_PAIRS_PER_ROUND):
                write_probe(run, server, next_pair, 1, data,
                            server.query_rows, between=hot_reads,
                            time_reads=True)
                next_pair += 1

        run.reset_timings()
        if tracer is not None:
            tracer.begin()
        rounds = closed_loop(seconds, HTTP_ROUND_S, one_round)
        phase = run.phase()
        if tracer is not None:
            tracer.end()
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    return {"rss_mb": rss, "snapshot_bytes": snapshot_bytes,
            "triples": len(data["triples"]), "rounds": rounds, **phase}


def cluster_scatter(data: dict, work: Path, seconds: float, run: Run,
                    tracer) -> dict:
    """A 1-shard, 0-replica ClusterStore (coordinator plus one worker)."""
    from repro.cluster.coordinator import ClusterStore
    from repro.service.store import TemporalStore

    specs = _specs(data)
    texts = [spec.text() for spec in specs]
    triples = data["triples"]
    store = None
    try:
        for attempt in range(SETUP_REPEATS):
            if store is not None:
                store.close()
                store = None
                gc.collect()
            graph = build_graph(triples)
            directory = work / f"cluster-{attempt}"

            def set_up():
                fresh = ClusterStore(directory, shards=1, replicas=0)
                try:
                    fresh.load_dataset(graph)
                    fresh.query(texts[-1])
                except BaseException:
                    fresh.close()
                    raise
                return fresh

            store = run.timed_setup(set_up)
            del graph
        snapshot_bytes = sum(
            path.stat().st_size for path in directory.glob("*/store.snap"))
        first_answer: dict[int, str] = {}

        def one_round(record: bool, first: int = 0) -> None:
            for index in range(first, len(texts)):
                result = run.timed(lambda: store.query(texts[index]))
                if record and result is not None:
                    answer = run.digest(
                        canonical_rows(result, specs[index].select))
                    first_answer.setdefault(index, answer)
                    run.events.append(["q", index, answer])

        one_round(False, len(texts) - WARM_UP_TEXTS)
        run.reset_timings()
        if tracer is not None:
            tracer.remote = lambda: store._members[0].primary.rpc(
                {"op": "metrics"})["metrics"]["counters"]
            tracer.begin()
        rounds = closed_loop(seconds, CLUSTER_ROUND_S,
                             lambda: one_round(True))
        phase = run.phase()
        if tracer is not None:
            tracer.end()
        worker_pid = store._members[0].primary.pid
        rss = vm_hwm_mb() + vm_hwm_mb(worker_pid)

        def query_rows(spec: Spec) -> list[str]:
            return canonical_rows(store.query(spec.text()), spec.select)

        write_probe(run, store, 0, PROBE_PAIRS, data, query_rows)
    finally:
        if store is not None:
            store.close()
    # Property: the cluster's rows equal an in-process store's.
    reference = TemporalStore(work / "reference")
    try:
        reference.load_dataset(build_graph(triples))
        agree = all(
            digest(canonical_rows(reference.query(texts[index]),
                                  specs[index].select)) == answer
            for index, answer in first_answer.items()
        )
    finally:
        reference.close()
    return {"rss_mb": rss, "snapshot_bytes": snapshot_bytes,
            "triples": len(triples), "rounds": rounds,
            "properties": {"cluster_equals_store": agree}, **phase}


WORKLOADS = {
    "engine-cold": engine_cold,
    "http-rw": http_rw,
    "cluster-scatter": cluster_scatter,
}


def main(argv: list[str]) -> int:
    work, workload, seconds, trace, corrupt = (
        Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1", int(argv[4])
    )
    data = json.loads((work / "inputs.json").read_text())
    run = Run(corrupt)
    tracer = None
    if trace:
        import shims

        spans_dir = work / "spans"
        spans_dir.mkdir()
        os.environ[shims.SPANS_DIR_ENV] = str(spans_dir)
        tracer = TracePhase(run, spans_dir)
    extra = WORKLOADS[workload](data, work, seconds, run, tracer)
    out = run.result()
    out.update(extra)
    if tracer is not None:
        out["layers"] = tracer.report(out["phase_ops"], len(run.reads))
    (work / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
