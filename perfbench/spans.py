"""Spans and call counts recorded around the package's public functions.

Everything here works from outside the package.  While `installed` is
active, each binding named in SPANS is replaced by a wrapper that records
one span per call, and each method named in COUNTERS by a wrapper that
only counts calls (ring operations are too frequent to keep a span each).
The bindings are the names the caller looks up at run time: `decode`
calls `syndromes` through the `decoder` module's globals, so the span
for `keyeq.syndromes` wraps `decoder.syndromes`.  A name that no longer
exists is skipped and its metrics are reported as absent.

A span is a tuple (name, start_ns, end_ns, parent index, word id); the
list is kept in memory and written once, by `write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

PACKAGE = "z4negacyclic"

ROOT_DECODE = "decoder.decode"

# span name, module holding the binding, attribute
SPANS = (
    ("keyeq.syndromes", "decoder", "syndromes"),
    ("keyeq.odd_ratio", "decoder", "odd_ratio_coefficients"),
    ("keyeq.key_series", "decoder", "key_series"),
    ("polynomial.series_inverse", "keyeq", "series_inverse"),
    ("solver.solve", "decoder", "solve_by_approximations"),
    ("solver.minimal_regular", "decoder", "minimal_regular"),
    ("decoder.residue_locator", "decoder", "residue_locator"),
    ("decoder.locate", "decoder", "locate_error_positions"),
    ("decoder.resolve", "decoder", "resolve_unit_errors"),
    ("polynomial.root_multiplicity", "decoder", "root_multiplicity"),
)

# counter name, module, class, methods counted together
COUNTERS = (
    ("galois_ring.mul", "galois_ring", "RingElement", ("__mul__", "__rmul__")),
    ("galois_ring.add", "galois_ring", "RingElement", ("__add__", "__radd__", "__sub__", "__neg__")),
    ("galois_ring.inverse", "galois_ring", "RingElement", ("inverse",)),
    ("galois_ring.field_mul", "galois_ring", "GaloisField", ("mul",)),
)


class Tracer:
    """In-memory spans of one traced run, plus call counters."""

    def __init__(self):
        self.spans: list = []
        self.word = -1
        self.counts: dict[str, list[int]] = {}
        self.no_double_words: set[int] = set()
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`, child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.word)

    def root(self, name: str, fn):
        """fn wrapped as the root span of one word, numbering words 0, 1, ..."""
        def traced(*args):
            self.word += 1
            return self.call(name, fn, *args)
        return traced

    def write(self, path, header: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(header, fields=["name", "start_ns", "end_ns", "parent", "word"],
                       names=names,
                       spans=[[index[s[0]], *s[1:]] for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _span_wrapper(tracer: Tracer, name: str, fn):
    if name == "decoder.locate":
        # pass 1 found no doubled positions: pass 2 re-solves the same input
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if not result[0]:
                tracer.no_double_words.add(tracer.word)
            return result
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def _count_wrapper(cell: list, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _lookup(path: str):
    """The package module `path` names, or None when it is gone."""
    try:
        return importlib.import_module(f"{PACKAGE}.{path}")
    except ImportError:
        return None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch SPANS and COUNTERS for the duration of the block, then restore."""
    saved = []
    try:
        for name, module, attr in SPANS:
            owner = _lookup(module)
            fn = getattr(owner, attr, None)
            if fn is None:
                tracer.absent.add(name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _span_wrapper(tracer, name, fn))
        for name, module, cls, methods in COUNTERS:
            owner = getattr(_lookup(module), cls, None)
            fns = [getattr(owner, m, None) for m in methods]
            if owner is None or None in fns:
                tracer.absent.add(name)
                continue
            cell = tracer.counts.setdefault(name, [0])
            for method, fn in zip(methods, fns):
                saved.append((owner, method, fn))
                setattr(owner, method, _count_wrapper(cell, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans: list) -> tuple[dict[str, int], dict[str, int]]:
    """Total self time (ns) and call count per span name.

    Self time is a span's duration minus the part of it that its child
    spans cover.  Children are appended in start order, so the covered
    part is accumulated as a running union of intervals.
    """
    covered = [0] * len(spans)
    reach = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            lo = max(start, reach[parent])
            if end > lo:
                covered[parent] += end - lo
                reach[parent] = end
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), cov in zip(spans, covered):
        self_ns[name] = self_ns.get(name, 0) + (end - start - cov)
        calls[name] = calls.get(name, 0) + 1
    return self_ns, calls
