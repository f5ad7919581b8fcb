"""Span tracer that wraps the public functions of each qtmoments layer.

The tracer changes no library code.  It replaces functions from outside, after
import, and records one span (name, start, end, parent) per call in compact
in-memory arrays.  Self time is a span's duration minus the time covered by
its child spans; it is accumulated as spans close.

Span times come from ``clock``; a pass passes a clock that stops while its
speed probe calibrates, so no calibration time lands in a span.

Rules that keep the tracer valid while the library is refactored:

* every attribute of every loaded ``qtmoments`` module (and every class in
  them) that is bound to a wrapped function is patched, because modules such
  as ``cli`` import functions by name;
* a method is patched under each of its aliases, such as ``Poly.__rmul__``;
* a generator function is timed over each resumption of the generator, not
  over its creation;
* a listed name that no longer resolves is reported as absent, never as an
  error, and its metrics are left out.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from functools import wraps

#: Traced layer functions: metric prefix -> (module, attribute path).
TARGETS = {
    "ring.mul": ("qtmoments.ring", "Poly.__mul__"),
    "ring.add": ("qtmoments.ring", "Poly.__add__"),
    "ring.eval": ("qtmoments.ring", "Poly.eval"),
    "ring.canonical_str": ("qtmoments.ring", "Poly.canonical_str"),
    "qtnum.qt_number": ("qtmoments.qtnum", "qt_number"),
    "fock.moment_by_operator": ("qtmoments.fock", "moment_by_operator"),
    "fock.vacuum_expectation_word": ("qtmoments.fock", "vacuum_expectation_word"),
    "fock.check_adjointness": ("qtmoments.fock", "check_adjointness"),
    "fock.check_gram_positivity": ("qtmoments.fock", "check_gram_positivity"),
    "fock.word_inner_product": ("qtmoments.fock", "word_inner_product"),
    "fock.determinant": ("qtmoments.fock", "determinant"),
    "orthopoly.moments_by_motzkin": ("qtmoments.orthopoly", "moments_by_motzkin"),
    "orthopoly.jfraction_series_from_arrays":
        ("qtmoments.orthopoly", "jfraction_series_from_arrays"),
    "orthopoly.three_term_polys": ("qtmoments.orthopoly", "three_term_polys"),
    "orthopoly.check_orthogonality": ("qtmoments.orthopoly", "check_orthogonality"),
    "orthopoly.moment_functional": ("qtmoments.orthopoly", "moment_functional"),
    "orthopoly.poisson_limit_check": ("qtmoments.orthopoly", "poisson_limit_check"),
    "cfrac.cf_spec": ("qtmoments.cfrac", "cf_spec"),
    "cfrac.cf_series": ("qtmoments.cfrac", "cf_series"),
    "partitions.moment_by_partitions": ("qtmoments.partitions", "moment_by_partitions"),
    "partitions.enumerate_partitions": ("qtmoments.partitions", "enumerate_partitions"),
    "partitions.partition_record": ("qtmoments.partitions", "partition_record"),
    "cards.moment_by_cards": ("qtmoments.cards", "moment_by_cards"),
    "cards.enumerate_contributors": ("qtmoments.cards", "enumerate_contributors"),
    "cards.expand_arrangements": ("qtmoments.cards", "expand_arrangements"),
    "cards.arrangement_record": ("qtmoments.cards", "arrangement_record"),
    "cli.main": ("qtmoments.cli", "main"),
    "cli.build_parser": ("qtmoments.cli", "build_parser"),
}

#: Which of ``calls`` and ``self_s`` each span name reports.
REPORTED_STATS = {
    "fock.determinant": ("calls",),
    "cli.main": ("self_s",),
    "cli.build_parser": ("self_s",),
}

#: Counters beyond calls and self time: metric -> the span that feeds it.
COUNTERS = {
    "ring.mul.term_pairs": "ring.mul",
    "ring.mul.terms_out": "ring.mul",
    "partitions.visited": "partitions.moment_by_partitions",
}

SPAN_ARRAYS = (("name", "i"), ("parent", "q"), ("start", "d"), ("end", "d"))


def bell(n: int) -> int:
    """Bell number by the Bell triangle: the partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def _resolve(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """In-memory span log plus per-name call counts, self time and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.spans = {field: array(code) for field, code in SPAN_ARRAYS}
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {name: 0 for name in COUNTERS}
        self.absent: list = []
        self._stack: list = []  # [span index, time covered by children]

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name_id: int) -> None:
        spans = self.spans
        spans["name"].append(name_id)
        spans["parent"].append(self._stack[-1][0] if self._stack else -1)
        spans["end"].append(0.0)
        self._stack.append([len(spans["name"]) - 1, 0.0])
        spans["start"].append(self.clock())

    def _close(self) -> None:
        end = self.clock()
        index, covered = self._stack.pop()
        spans = self.spans
        spans["end"][index] = end
        duration = end - spans["start"][index]
        name = self.names[spans["name"][index]]
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        tracer, counts = self, self.counts

        if name == "ring.mul":
            @wraps(fn)
            def traced_mul(a, b):
                tracer.calls[name] += 1
                if isinstance(b, type(a)):
                    counts["ring.mul.term_pairs"] += len(a) * len(b)
                elif isinstance(b, int) and b:
                    counts["ring.mul.term_pairs"] += len(a)
                tracer._open(name_id)
                try:
                    out = fn(a, b)
                finally:
                    tracer._close()
                if out is not NotImplemented:
                    counts["ring.mul.terms_out"] += len(out)
                return out
            return traced_mul

        if inspect.isgeneratorfunction(fn):
            counted = name == "partitions.enumerate_partitions"

            @wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[name] += 1
                iterator = fn(*args, **kwargs)
                while True:
                    tracer._open(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close()
                    if counted:
                        counts["partitions.visited"] += 1
                    yield item
            return traced_generator

        # moment_by_partitions walks Bell(n) growth strings internally; the
        # count is computed from its argument, not observed.
        census = name == "partitions.moment_by_partitions"

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if census:
                counts["partitions.visited"] += bell(args[0] if args else kwargs["n"])
            tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded qtmoments module and class."""
        holders = []
        for module_name, module in list(sys.modules.items()):
            if module_name == "qtmoments" or module_name.startswith("qtmoments."):
                holders.append(module)
                holders.extend(v for v in vars(module).values()
                               if isinstance(v, type) and v.__module__ == module_name)
        for name, (module_name, path) in TARGETS.items():
            original = _resolve(module_name, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per name, then counters."""
        out = {}
        for name in self.names:
            stats = REPORTED_STATS.get(name, ("calls", "self_s"))
            if "calls" in stats:
                out[f"{name}.calls"] = self.calls[name]
            if "self_s" in stats:
                out[f"{name}.self_s"] = self.self_s[name]
        for counter, source in COUNTERS.items():
            if source in self.names:
                out[counter] = self.counts[counter]
        out["trace.spans"] = len(self.spans["name"])
        return out

    def write(self, stem: str, extra: dict) -> None:
        """Write ``<stem>.spans.bin`` (the span arrays, in ``SPAN_ARRAYS``
        order, native byte order) and ``<stem>.trace.json`` (names, layout,
        metrics and ``extra``)."""
        with open(f"{stem}.spans.bin", "wb") as fh:
            for field, _ in SPAN_ARRAYS:
                self.spans[field].tofile(fh)
        header = {
            "span_count": len(self.spans["name"]),
            "arrays": [list(pair) for pair in SPAN_ARRAYS],
            "byteorder": sys.byteorder,
            "names": self.names,
            "absent": self.absent,
            "metrics": self.metrics(),
            **extra,
        }
        with open(f"{stem}.trace.json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def load_spans(stem: str) -> tuple:
    """Read back a written trace: (header dict, {field: array})."""
    with open(f"{stem}.trace.json") as fh:
        header = json.load(fh)
    count = header["span_count"]
    spans = {}
    with open(f"{stem}.spans.bin", "rb") as fh:
        for field, code in header["arrays"]:
            spans[field] = array(code)
            spans[field].fromfile(fh, count)
    return header, spans
