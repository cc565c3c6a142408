"""An evaluator for the SPARQLT shapes the workloads send, written apart
from the program so that its answers can check the program's.

A query is a plain :class:`Spec` -- never parsed text -- and is rendered
to SPARQLT only for the program.  Supported: quad patterns with a
constant predicate, constant or variable subject and object sharing
``?s`` and ``?t``, a constant snapshot date in the time slot, and the
filters ``YEAR(?t) = n`` and ``?t <= date``.  Temporal bindings are sets
of days, kept as sorted, coalesced half-open ``[start, end)`` intervals;
``LIVE`` stands for a fact that still holds and is emitted as ``None``.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from dataclasses import dataclass, field

#: End of a live interval: above every day the generators produce.
LIVE = 2**31 - 1

_EPOCH = _dt.date(1970, 1, 1)


def day_of(date: _dt.date) -> int:
    return (date - _EPOCH).days


def date_text(day: int) -> str:
    return (_EPOCH + _dt.timedelta(days=day)).isoformat()


def year_window(year: int) -> tuple[int, int]:
    return day_of(_dt.date(year, 1, 1)), day_of(_dt.date(year + 1, 1, 1))


def year_of(day: int) -> int:
    return (_EPOCH + _dt.timedelta(days=day)).year


# ------------------------------------------------------------ intervals


def coalesce(intervals) -> tuple[tuple[int, int], ...]:
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple((a, b) for a, b in merged)


def intersect(left, right) -> tuple[tuple[int, int], ...]:
    """Intersection of two coalesced interval sets (merge walk)."""
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if lo < hi:
            out.append((lo, hi))
        if left[i][1] <= right[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


# ----------------------------------------------------------------- specs


@dataclass(frozen=True)
class Spec:
    """One conjunctive query.

    ``patterns`` holds ``(s, p, o, t)`` tuples: a term starting with
    ``?`` is a variable, ``t`` is ``"?t"`` or an int day (a snapshot).
    """

    select: tuple[str, ...]
    patterns: tuple[tuple, ...]
    year: int | None = None
    before: int | None = None

    def text(self) -> str:
        body = []
        for s, p, o, t in self.patterns:
            time = t if isinstance(t, str) else date_text(t)
            body.append(f"{s} {p} {o} {time}")
        filters = []
        if self.year is not None:
            filters.append(f"YEAR(?t) = {self.year}")
        if self.before is not None:
            filters.append(f"?t <= {date_text(self.before)}")
        if filters:
            body.append(f"FILTER({' && '.join(filters)})")
        select = " ".join(f"?{name}" for name in self.select)
        return f"SELECT {select} {{{' . '.join(body)}}}"

    def window(self) -> tuple[tuple[int, int], ...]:
        window = ((0, LIVE),)
        if self.year is not None:
            window = intersect(window, (year_window(self.year),))
        if self.before is not None:
            window = intersect(window, ((0, self.before + 1),))
        return window

    def predicates(self) -> set[str]:
        return {p for _, p, _, _ in self.patterns}


def _is_var(term) -> bool:
    return isinstance(term, str) and term.startswith("?")


# ------------------------------------------------------------- evaluator


@dataclass
class Oracle:
    """Brute-force evaluation over an in-memory fact table.

    ``facts`` maps ``(s, p, o)`` to its list of ``[start, end)`` pairs;
    :meth:`insert` / :meth:`delete` replay the benchmark's own updates.
    """

    facts: dict[tuple[str, str, str], list[list[int]]] = field(
        default_factory=dict
    )
    by_sp: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    by_p: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    #: per-predicate update count, so cached answers expire on writes.
    generation: dict[str, int] = field(default_factory=dict)
    _memo: dict[str, tuple[tuple, list[str]]] = field(default_factory=dict)
    _validity: dict[tuple[str, str, str], tuple] = field(default_factory=dict)

    @classmethod
    def from_triples(cls, triples) -> "Oracle":
        oracle = cls()
        for s, p, o, start, end in triples:
            oracle._add(s, p, o, start, LIVE if end is None else end)
        return oracle

    def _add(self, s: str, p: str, o: str, start: int, end: int) -> None:
        self.facts.setdefault((s, p, o), []).append([start, end])
        self._validity.pop((s, p, o), None)
        self.by_sp.setdefault((s, p), set()).add(o)
        self.by_p.setdefault(p, set()).add((s, o))

    def insert(self, s: str, p: str, o: str, day: int) -> None:
        self._add(s, p, o, day, LIVE)
        self.generation[p] = self.generation.get(p, 0) + 1

    def delete(self, s: str, p: str, o: str, day: int) -> None:
        periods = self.facts[(s, p, o)]
        live = [period for period in periods if period[1] == LIVE]
        if len(live) != 1 or live[0][0] > day:
            raise ValueError(f"oracle: no live ({s}, {p}, {o}) at {day}")
        live[0][1] = day
        self._validity.pop((s, p, o), None)
        self.generation[p] = self.generation.get(p, 0) + 1

    def answer(self, spec: Spec) -> list[str]:
        """Canonical answer: sorted JSON rows (see :func:`canonical`)."""
        text = spec.text()
        stamp = tuple(
            sorted((p, self.generation.get(p, 0)) for p in spec.predicates())
        )
        cached = self._memo.get(text)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        rows = self.evaluate(spec)
        out = canonical(rows, spec.select)
        self._memo[text] = (stamp, out)
        return out

    def evaluate(self, spec: Spec) -> list[dict]:
        window = spec.window()
        bindings: list[dict] = [{}]
        for pattern in spec.patterns:
            bindings = [
                extended
                for binding in bindings
                for extended in self._match(pattern, binding, window)
            ]
            if not bindings:
                return []
        return bindings

    def _match(self, pattern, binding: dict, window):
        s, p, o, t = pattern
        if _is_var(p):
            raise ValueError("oracle: variable predicates are not supported")
        s_var, o_var = _is_var(s), _is_var(o)
        s_val = binding.get(s) if s_var else s
        o_val = binding.get(o) if o_var else o
        if s_val is not None:
            candidates = [
                (s_val, obj) for obj in self.by_sp.get((s_val, p), ())
            ]
        else:
            candidates = self.by_p.get(p, ())
        snapshot = isinstance(t, int)
        joined = None if snapshot else binding.get(t)
        for subj, obj in candidates:
            if o_val is not None and obj != o_val:
                continue
            key = (subj, p, obj)
            validity = self._validity.get(key)
            if validity is None:
                validity = coalesce(self.facts[key])
                self._validity[key] = validity
            if snapshot:
                if not any(a <= t < b for a, b in validity):
                    continue
                held = None
            else:
                held = intersect(validity, window)
                if held and joined is not None:
                    held = intersect(held, joined)
                if not held:
                    continue
            out = dict(binding)
            if s_var:
                out[s] = subj
            if o_var:
                out[o] = obj
            if held is not None:
                out[t] = held
            yield out


# ------------------------------------------------------------- encoding


def encode_value(value):
    """A binding as the program's HTTP layer renders it."""
    if isinstance(value, tuple):
        return [[a, None if b == LIVE else b] for a, b in value]
    return value


def canonical(rows: list[dict], select) -> list[str]:
    """Projected, de-duplicated rows as sorted JSON strings."""
    seen = {
        json.dumps([encode_value(row.get("?" + name)) for name in select])
        for row in rows
    }
    return sorted(seen)


def canonical_encoded(rows: list[dict], select) -> list[str]:
    """The same canonical form for rows already in wire encoding."""
    return sorted(
        {json.dumps([row.get(name) for name in select]) for row in rows}
    )


def digest(rows: list[str]) -> str:
    """Short digest of one canonical answer."""
    return hashlib.sha1("\n".join(rows).encode()).hexdigest()[:16]
