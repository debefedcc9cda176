"""Span tracing of the package's public functions, installed from outside.

:class:`Tracer` replaces each traced function at every place it is bound:
the defining module's attribute and every ``from ... import`` name in the
other ``cuspidal`` modules (found by identity), or the class attribute for a
method.  Each call records a span (function, parent span, start, end) in
flat arrays kept in memory; self time is computed from the span tree after
the run, and the spans are written out once at the end.

Wrappers run only in the process that installed them, so a traced run must
use one worker.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, label).  A dotted attribute is a method of a class in
# that module.  The label's first component is the layer (the module).
TRACED = (
    ("semigroup", "bl_check_unicuspidal", "semigroup.bl_check"),
    ("semigroup", "generators_from_newton", "semigroup.generators"),
    ("enumerate", "enumerate_candidates", "enumerate.enumerate_candidates"),
    ("enumerate", "classify_range", "enumerate.classify_range"),
    ("enumerate", "classify_record", "enumerate.classify_record"),
    ("invariants", "newton_from_characteristic", "invariants.newton_from_characteristic"),
    ("invariants", "newton_to_puiseux", "invariants.newton_to_puiseux"),
    ("invariants", "validate_newton_pairs", "invariants.validate_newton_pairs"),
    ("invariants", "multiplicity_sequence", "invariants.multiplicity_sequence"),
    ("invariants", "delta_from_puiseux", "invariants.delta_from_puiseux"),
    ("invariants", "lct", "invariants.lct"),
    ("invariants", "self_intersection", "invariants.self_intersection"),
    ("records", "curve_record", "records.curve_record"),
    ("records", "OutputDocument.render", "records.render"),
    ("families", "family_curve", "families.family_curve"),
    ("families", "attribute_family", "families.attribute_family"),
    ("families", "invariant_closed_forms", "families.invariant_closed_forms"),
    ("existence", "resolve_existence", "existence.resolve_existence"),
    ("tables", "reproduce", "tables.reproduce"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("semigroup", "enumerate", "invariants", "records", "families", "existence", "tables", "cli")

NO_PARENT = -1


def _observe_bl_check(counts, args, kwargs, result):
    degree = args[0]
    bound = kwargs.get("bound", args[2] if len(args) > 2 else None)
    # computed from the arguments: the (d-2)d+1 default bound, plus bit 0
    counts["semigroup.bl_check.table_bits"] += ((degree - 2) * degree + 1 if bound is None else bound) + 1
    if result.passed:
        counts["semigroup.bl_check.passed"] += 1
    elif result.first_failing_j <= 1:  # j = 0 cannot fail: R(1) = 1 always
        counts["semigroup.bl_check.reject_j1"] += 1
    elif result.first_failing_j == 2:
        counts["semigroup.bl_check.reject_j2"] += 1
    else:
        counts["semigroup.bl_check.reject_j3plus"] += 1


def _observe_enumerate(counts, args, kwargs, result):
    counts["enumerate.records_out"] += len(result)


def _observe_attribute(counts, args, kwargs, result):
    counts["families.attribute_family.hits"] += result is not None


def _observe_existence(counts, args, kwargs, result):
    counts["existence.resolve_existence.proved"] += result[0] != "candidate"


def _observe_render(counts, args, kwargs, result):
    counts["records.render.bytes"] += len(result.encode())


OBSERVERS = {
    "semigroup.bl_check": _observe_bl_check,
    "enumerate.enumerate_candidates": _observe_enumerate,
    "families.attribute_family": _observe_attribute,
    "existence.resolve_existence": _observe_existence,
    "records.render": _observe_render,
}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self) -> None:
        self.labels = [label for _, _, label in TRACED]
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack = [NO_PARENT]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        counts, observe = self.counts, OBSERVERS.get(self.labels[index])
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name.append(index)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "cuspidal" or n.startswith("cuspidal.")]
        for index, (module_name, attr, _) in enumerate(TRACED):
            module = importlib.import_module(f"cuspidal.{module_name}")
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._replace(owner, method, original, self._wrap(original, index))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, index)
            for bound_in in modules:
                for key, value in list(vars(bound_in).items()):
                    if value is original:
                        self._replace(bound_in, key, original, wrapper)
        return self

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = own[:]
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                out[p] -= own[i]
        return out

    def calls_from(self, label: str, caller: str) -> int:
        """Calls of ``label`` whose innermost enclosing traced call is ``caller``."""
        target, by = self.labels.index(label), self.labels.index(caller)
        name = self.name
        return sum(1 for n, p in zip(name, self.parent) if n == target and p != NO_PARENT and name[p] == by)

    def per_function(self) -> dict[str, dict]:
        """Calls, self time and longest call of every traced function."""
        stats = {label: {"calls": 0, "self_s": 0.0, "max_call_s": 0.0} for label in self.labels}
        for n, own, s, e in zip(self.name, self.self_ns(), self.start, self.end):
            entry = stats[self.labels[n]]
            entry["calls"] += 1
            entry["self_s"] += own / 1e9
            entry["max_call_s"] = max(entry["max_call_s"], (e - s) / 1e9)
        return stats

    def write(self, path) -> None:
        """Write every span, columnar, as one JSON document.  Starts are
        relative to the first span; ``parent`` is an index into the columns."""
        origin = self.start[0] if self.start else 0
        payload = {
            "labels": self.labels,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [s - origin for s in self.start],
            "duration_ns": [e - s for s, e in zip(self.start, self.end)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
