"""Span tracer for the traced benchmark run.

It wraps the public entry points of every rieszops module from outside the
package: module-level functions, the methods of public classes, and every
name under which another rieszops module (or the package itself) imported
them, such as ``coerce_entries`` as bound in ``lattice`` and ``operators``.
Nothing under ``src/`` is edited; the untraced run never imports this file.

A span opens only when a call crosses from one layer (module) into another.
A call that stays inside the caller's layer runs unwrapped, apart from its
work counter, so a layer's self time includes its own internal calls. Spans
are aggregated per (name, parent name) as [calls, total seconds, self
seconds], where self time is span time minus the time of child spans. The
tracer's own bookkeeping is charged to no layer: a parent's child time
covers the whole wrapper of each child, not just the child's span.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from fractions import Fraction

#: The layers, named after the rieszops modules.
LAYERS = (
    "scalars",
    "lattice",
    "operators",
    "superop",
    "norms",
    "counterexample",
    "reports",
    "cli",
    "corpus",
)

#: The per-entry helpers of ``scalars`` (parse_scalar, eq, le, ...) cost less
#: than a span; their time stays with the layer that calls them.
SCALARS_ENTRY_POINTS = ("coerce_entries",)

WRAPPED_DUNDERS = frozenset(
    (
        "__init__",
        "__call__",
        "__add__",
        "__sub__",
        "__neg__",
        "__abs__",
        "__mul__",
        "__rmul__",
        "__matmul__",
    )
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_coerce(counts, args, kwargs, result, nested):
    entries, mode = result
    target = Fraction if mode == "exact" else float
    counts["scalars.coerce_calls"] += 1
    counts["scalars.coerce_entries"] += len(entries)
    counts["scalars.already_typed"] += sum(
        isinstance(v, target) for v in _arg(args, kwargs, 0, "values")
    )


def _counter(key):
    def count(counts, args, kwargs, result, nested):
        counts[key] += 1

    return count


def _count_oracle(counts, args, kwargs, result, nested):
    counts["operators.oracle_partitions"] += result.partitions_tried


def _count_kron(counts, args, kwargs, result, nested):
    counts["superop.kron_calls"] += 1
    counts["superop.kron_entries"] += len(result.entries)


def _count_extreme_points(counts, args, kwargs, result, nested):
    A = _arg(args, kwargs, 0, "A")
    B = _arg(args, kwargs, 1, "B")
    counts["norms.extreme_points"] += A.cols ** B.rows


def _count_batched(counts, args, kwargs, result, nested):
    counts["norms.batched_matrices"] += _arg(args, kwargs, 0, "stack").shape[0]


def _count_canonical(counts, args, kwargs, result, nested):
    # canonical_json recurses through its module global; count the outer call.
    if not nested:
        counts["reports.canonical_bytes"] += len(result)


#: Work counters, keyed by the qualified name of the wrapped entry point.
COUNTERS = {
    "scalars.coerce_entries": _count_coerce,
    "lattice.LatticeVector.__init__": _counter("lattice.vectors_built"),
    "lattice.Partition.__init__": _counter("lattice.partitions_built"),
    "operators.RegularOperator.__init__": _counter("operators.operators_built"),
    "operators.RegularOperator.compose": _counter("operators.compose_calls"),
    "operators.RegularOperator.apply": _counter("operators.apply_calls"),
    "operators.OperatorPartition.__init__": _counter("operators.operator_splits"),
    "operators.modulus_oracle": _count_oracle,
    "operators.meet_oracle": _count_oracle,
    "superop.Superoperator.build": _counter("superop.builds"),
    "superop.kron": _count_kron,
    "superop.operator_partition_sup": _counter("superop.partition_sup_calls"),
    "norms.operator_norm": _counter("norms.operator_norm_calls"),
    "norms.superop_regular_norm_1chain": _count_extreme_points,
    "norms.batched_operator_norm": _count_batched,
    "counterexample.inf_G_double_prime": _counter("counterexample.inf_G_calls"),
    "counterexample.g_double_prime_term": _counter("counterexample.g_terms"),
    "reports.make_report": _counter("reports.reports_made"),
    "reports.canonical_json": _count_canonical,
    "cli.main": _counter("cli.invocations"),
}


class Tracer:
    """Collects spans and work counters for one process."""

    def __init__(self):
        self.stack = []  # open spans: [name, layer, child seconds]
        self.spans = {}  # (name, parent name) -> [calls, total s, self s]
        self.counts = defaultdict(int)

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        """A traced stand-in for ``fn``; generators are timed per step."""
        if inspect.isgeneratorfunction(fn):
            step = self._wrap(layer, name, next)

            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    yield item

            traced_generator.__wrapped__ = fn
            return traced_generator

        stack = self.stack
        spans = self.spans
        counts = self.counts
        hook = COUNTERS.get(name)
        clock = time.perf_counter
        active = [0]

        def traced(*args, **kwargs):
            t_enter = clock()
            if hook is _count_coerce and args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            nested = active[0]
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == layer:
                active[0] = nested + 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    active[0] = nested
                if hook is not None:
                    hook(counts, args, kwargs, result, nested)
                return result
            frame = [name, layer, 0.0]
            stack.append(frame)
            active[0] = nested + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                active[0] = nested
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                record = spans.get(key)
                if record is None:
                    record = spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[2]
            if hook is not None:
                hook(counts, args, kwargs, result, nested)
            if parent is not None:
                parent[2] += clock() - t_enter
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name, fn):
        """Run ``fn()`` under a root span of the benchmark's own layer."""
        return self._wrap("bench", name, fn)()

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        spans, counts = dict(self.spans), dict(self.counts)
        self.spans.clear()  # the wrappers hold these two objects
        self.counts.clear()
        return spans, counts

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every public entry point of every rieszops layer."""
        package = importlib.import_module("rieszops")
        modules = {layer: importlib.import_module(f"rieszops.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "scalars" and attr not in SCALARS_ENTRY_POINTS:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # Rebind every name that points at a wrapped function, wherever it
        # was imported, so calls between modules go through the wrapper.
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(layer, name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(layer, name, obj.__func__)))


def layer_self_seconds(spans):
    """Self seconds per layer (the name's first component) from a span table."""
    totals = defaultdict(float)
    for (name, _parent), (_calls, _total, self_s) in spans.items():
        totals[name.split(".", 1)[0]] += self_s
    return totals


def spans_to_json(spans):
    return [
        {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
        for (name, parent), (calls, total, self_s) in sorted(
            spans.items(), key=lambda item: -item[1][2]
        )
    ]
