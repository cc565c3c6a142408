"""Workload inputs, made from ``--seed`` alone.

The datasets come from the program's own history generators (Wikipedia
infobox edits and GovTrack records, paper Section 7.1); the queries are
built here as :class:`~oracle.Spec` objects in the paper's fig9 shapes,
anchored to facts the dataset holds so that answers are not empty.
The mix weights -- shape shares, reads per write, the hot-read order and
the write stride -- are chosen values, not measured traffic: the paper
times each shape on its own and gives no mix (see README.md).
"""

from __future__ import annotations

import datetime as _dt
import random

from oracle import Spec, day_of, year_of

#: Dataset sizes in triples.  Load time grows faster than linearly with
#: size (about 2 s at 5k Wikipedia triples, 8 s at 10k), and set-up is
#: repeated within a run, so the stores stay small.
WIKIPEDIA_TRIPLES = 5000
GOVTRACK_TRIPLES = 3000

#: Distinct query texts per workload.  Each is read only a few times in a
#: run, so a p99 over a run's reads spans several texts' worth of tail
#: rather than one or two heavy texts that differ from seed to seed.
#: engine-cold's set exceeds the plan cache (512) and the result cache
#: (256) and is cycled, so both miss on every read; http-rw's set stays
#: within the plan cache (every write empties the result cache anyway).
ENGINE_TEXTS = 1600
HTTP_HOT_TEXTS = 384
CLUSTER_TEXTS = 672

#: engine-cold complex queries: every (pattern count 3-7, category, year)
#: combination once.  Subjects of a category list their predicates in one
#: order, so a combination fixes the text and no more are distinct.
ENGINE_COMPLEX = 160

#: http-rw hot reads per round: 8 after each of 256 updates.
HTTP_HOT_READS_PER_ROUND = 2048

#: Predicate of the benchmark's own writes; no read of the data uses it,
#: so the writes change only the read-back answers.
EDIT_PREDICATE = "bench_edit"


def dataset(kind: str, seed: int) -> list[tuple]:
    """``(s, p, o, start, end)`` tuples; ``end`` is None for live facts."""
    from repro.model.time import NOW

    if kind == "wikipedia":
        from repro.datasets import wikipedia

        graph = wikipedia.generate(WIKIPEDIA_TRIPLES, seed=seed).graph
    else:
        from repro.datasets import govtrack

        graph = govtrack.generate(GOVTRACK_TRIPLES, seed=seed).graph
    return [
        (t.subject, t.predicate, t.object, t.period.start,
         None if t.period.end == NOW else t.period.end)
        for t in graph.triples()
    ]


class _Cycle:
    """Hands out ``items`` in turn, so each has a fixed share of draws."""

    def __init__(self, items) -> None:
        self.items = list(items)
        self.drawn = 0

    def __call__(self):
        item = self.items[self.drawn % len(self.items)]
        self.drawn += 1
        return item


class _Facts:
    def __init__(self, triples: list[tuple]) -> None:
        self.triples = triples
        self.preds_of: dict[str, list[str]] = {}
        self.by_pred: dict[str, list[tuple]] = {}
        for fact in triples:
            preds = self.preds_of.setdefault(fact[0], [])
            if fact[1] not in preds:
                preds.append(fact[1])
            self.by_pred.setdefault(fact[1], []).append(fact)
        self.subjects = list(self.preds_of)
        self.first_fact: dict[tuple[str, str], tuple] = {}
        for fact in triples:
            self.first_fact.setdefault((fact[0], fact[1]), fact)
        #: predicate -> subjects that have it and at least one other.
        self.joinable: dict[str, list[str]] = {}
        for subject in self.subjects:
            preds = self.preds_of[subject]
            if len(preds) >= 2:
                for pred in preds:
                    self.joinable.setdefault(pred, []).append(subject)

    def predicates(self) -> "_Cycle":
        """A fresh round-robin over the predicates: each query kind
        draws its predicate from one, so every predicate gets a fixed
        share of every kind whatever the seed."""
        return _Cycle(sorted(self.by_pred))

    def join_predicates(self) -> "_Cycle":
        return _Cycle(sorted(self.joinable))


def _selection(rng: random.Random, facts: _Facts, shape: str,
               bound_subject: bool, pred: str) -> Spec:
    s, p, o, start, _ = rng.choice(facts.by_pred[pred])
    year = year_of(start)
    subj = s if bound_subject else "?s"
    if shape == "when" and bound_subject:
        return Spec(("t",), ((s, p, o, "?t"),))
    if shape == "year":
        select = ("o",) if bound_subject else ("s", "o")
        return Spec(select, ((subj, p, "?o", "?t"),), year=year)
    if shape == "before":
        select = ("o", "t") if bound_subject else ("s", "o", "t")
        return Spec(select, ((subj, p, "?o", "?t"),), before=start + 200)
    if shape == "snapshot":
        select = ("o",) if bound_subject else ("s", "o")
        return Spec(select, ((subj, p, "?o", start),))
    return Spec(("s", "o"), (("?s", p, "?o", "?t"),), year=year)


def _join(rng: random.Random, facts: _Facts, anchored: bool, p1: str,
          year: int | None = None) -> Spec:
    subject = rng.choice(facts.joinable[p1])
    p2 = rng.choice([p for p in facts.preds_of[subject] if p != p1])
    if anchored:
        obj = facts.first_fact[(subject, p1)][2]
        return Spec(("s", "v", "t"),
                    (("?s", p2, "?v", "?t"), ("?s", p1, obj, "?t")))
    if year is None:
        year = year_of(rng.choice(facts.by_pred[p1])[3])
    return Spec(("s", "v1", "v2"),
                (("?s", p1, "?v1", "?t"), ("?s", p2, "?v2", "?t")),
                year=year)


#: Years the YEAR-filtered joins and complex queries cycle through, so
#: how much history a filter admits does not depend on the seed.
YEARS = (2009, 2012, 2007, 2014, 2010, 2013, 2008, 2011)


def _complex(rng: random.Random, facts: _Facts, n: int,
             group: list[str], year: int) -> Spec:
    """``n`` patterns on one subject's predicates (repeated cyclically
    when it has fewer), sharing ``?s`` and ``?t`` under a YEAR filter."""
    subject = rng.choice(group)
    preds = facts.preds_of[subject]
    chosen = [preds[i % len(preds)] for i in range(n)]
    patterns = tuple(("?s", p, f"?v{i}", "?t") for i, p in enumerate(chosen))
    select = ("s",) + tuple(f"v{i}" for i in range(n))
    return Spec(select, patterns, year=year)


def _distinct(makers: list, count: int) -> list[Spec]:
    """``count`` distinct specs, drawn round-robin from ``makers`` so each
    stratum (shape, pattern count, category) has a fixed share whatever
    the seed; a duplicate text is redrawn from the same maker."""
    seen: dict[str, Spec] = {}
    attempts = 0
    while len(seen) < count:
        make = makers[len(seen) % len(makers)]
        attempts += 1
        if attempts > count * 50:
            raise RuntimeError("could not draw enough distinct queries")
        spec = make()
        seen.setdefault(spec.text(), spec)
    return list(seen.values())


_SELECTION_SHAPES = ("when", "year", "before", "snapshot", "predicate")


def _selections(rng, facts, kinds) -> list:
    makers = []
    for shape, bound in kinds:
        preds = facts.predicates()
        makers.append(lambda shape=shape, bound=bound, preds=preds:
                      _selection(rng, facts, shape, bound, preds()))
    return makers


def _joins(rng, facts, years=None) -> list:
    """Anchored and YEAR-filtered joins, half each; ``years`` fixes the
    filter years (Wikipedia), else they follow the data (GovTrack)."""
    anchored, filtered = facts.join_predicates(), facts.join_predicates()
    return [lambda: _join(rng, facts, True, anchored()),
            lambda: _join(rng, facts, False, filtered(),
                          years and years())]


def _categories(facts: _Facts) -> list[list[str]]:
    """Subjects grouped by predicate set (a Wikipedia infobox category),
    for groups with at least three predicates and eight subjects."""
    groups: dict[tuple, list[str]] = {}
    for subject in facts.subjects:
        preds = facts.preds_of[subject]
        if len(preds) >= 3:
            groups.setdefault(tuple(sorted(preds)), []).append(subject)
    return [members for _, members in sorted(groups.items())
            if len(members) >= 8]


def engine_specs(triples: list[tuple], seed: int) -> list[Spec]:
    """engine-cold: 50% selection (five shapes), 40% join (anchored and
    year-filtered), 10% complex (3-7 patterns over each category)."""
    rng = random.Random(seed * 7919 + 1)
    facts = _Facts(triples)
    n_cx = ENGINE_COMPLEX
    n_sel = ENGINE_TEXTS // 2
    n_join = ENGINE_TEXTS - n_sel - n_cx
    specs = _distinct(_selections(
        rng, facts, [(shape, True) for shape in _SELECTION_SHAPES]), n_sel)
    specs += _distinct(_joins(rng, facts, _Cycle(YEARS)), n_join)
    years = _Cycle(YEARS)
    specs += _distinct(
        [lambda n=n, group=group: _complex(rng, facts, n, group, years())
         for group in _categories(facts) for n in range(3, 8)], n_cx)
    rng.shuffle(specs)
    return specs


def http_specs(triples: list[tuple], seed: int) -> list[Spec]:
    """http-rw hot set: three quarters selections (subject bound and
    unbound), one quarter joins, over the GovTrack predicates."""
    rng = random.Random(seed * 7919 + 2)
    facts = _Facts(triples)
    kinds = [("when", True), ("year", True), ("year", False),
             ("before", True), ("before", False), ("snapshot", True),
             ("snapshot", False), ("predicate", False)]
    n_sel = HTTP_HOT_TEXTS * 3 // 4
    specs = _distinct(_selections(rng, facts, kinds), n_sel)
    specs += _distinct(_joins(rng, facts), HTTP_HOT_TEXTS - n_sel)
    rng.shuffle(specs)
    return specs


def cluster_specs(triples: list[tuple], seed: int) -> list[Spec]:
    """cluster-scatter: unbound-subject selections and joins only, so no
    query can take the single-shard fast path."""
    rng = random.Random(seed * 7919 + 3)
    facts = _Facts(triples)
    kinds = [("year", False), ("before", False), ("snapshot", False)]
    specs = _distinct(_selections(rng, facts, kinds), CLUSTER_TEXTS // 2)
    specs += _distinct(_joins(rng, facts, _Cycle(YEARS)),
                       CLUSTER_TEXTS - len(specs))
    rng.shuffle(specs)
    return specs


def edit_start(triples: list[tuple]) -> int:
    """First day of the benchmark's own writes: after every loaded fact."""
    last = max(max(t[3], t[4] or 0) for t in triples)
    return max(last + 1, day_of(_dt.date(2016, 1, 1)))


def edit(index: int, data: dict) -> tuple[str, str, int, int]:
    """The ``index``-th insert/delete pair: subject, object, insert day,
    delete day.  Pure, so the checker replays what the run did from the
    pair count alone.  Subjects are the dataset's own, strided so that
    writes land on compressed leaves across the key space rather than on
    the rightmost leaf alone."""
    subjects = data["edit_subjects"]
    start = data["edit_day"]
    return (subjects[(index * 7) % len(subjects)], f"v{index % 7}",
            start + 2 * index, start + 2 * index + 1)


def readback(subject: str) -> Spec:
    return Spec(("o", "t"), ((subject, EDIT_PREDICATE, "?o", "?t"),))


def hot_order(seed: int, texts: int, length: int) -> list[int]:
    """http-rw read sequence, in windows of eight reads between writes.

    Window ``w`` reads five texts ``a..e`` taken from a seeded
    permutation at offset ``5w`` in the order a b a c d a b e: three
    result-cache hits per window (every write empties the cache), and
    every text read equally often whatever the seed.
    """
    rng = random.Random(seed * 7919 + 4)
    perm = list(range(texts))
    rng.shuffle(perm)
    order = []
    for window in range(length // 8):
        pick = [perm[(5 * window + k) % texts] for k in range(5)]
        order.extend(pick[k] for k in (0, 1, 0, 2, 3, 0, 1, 4))
    return order
