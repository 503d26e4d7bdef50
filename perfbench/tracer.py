"""Layer tracing from outside the package.

A Tracer replaces public functions at the module attributes their callers look
up (``reduction.restricted_target_minmax``, ``extmat.bool_product`` and so on)
with wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Nothing in ``src/`` changes; the originals are put back
when the ``installed`` block exits.

Counters that need extra work (popcounts, route codes, comparisons) run in
hooks after a span has closed.  Hook time is taken off the tracer's clock, so
no span, parent spans included, pays for it; the only cost left in the traced
times is the wrappers' own bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

MIB = float(1 << 20)

# (module, attribute) pairs to wrap; each is where the caller looks the name up
TRACE_POINTS = (
    ("reduction", "solve_apsp"),
    ("reduction", "apsp_minus_zero_one"),
    ("reduction", "canonical_adjacency"),
    ("reduction", "two_hop_target"),
    ("reduction", "one_regular_apsp"),
    ("reduction", "parity_masks"),
    ("reduction", "parity_products"),
    ("reduction", "assemble_distances"),
    ("reduction", "restricted_target_minmax"),
    ("graph", "bool_closure"),
    ("graph", "bool_product"),
    ("extmat", "bool_product"),
    ("extmat", "minplus_product"),
    ("products", "build_row_index"),
    ("products", "build_heavy_matrix"),
    ("products", "bool_product"),
    ("cli", "main"),
    ("cli", "parse_edge_list"),
    ("cli", "solve_apsp"),
    ("cli", "format_matrix"),
)


def _popcount(words) -> int:
    # padding bits past a BitMatrix's columns are zero, so every set bit counts
    return int(np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum())


def _bool_product_hook(tracer, args, kwargs, result):
    p, q = args
    bits = _popcount(p.words)
    gather = bits * q.words.shape[1] * q.words.itemsize / MIB
    tracer.counts["extmat.bool_product_left_bits"] += bits
    tracer.counts["extmat.bool_product_gather_mib"] += gather
    peak = "extmat.bool_product_peak_gather_mib"
    tracer.counts[peak] = max(tracer.counts[peak], gather)


def _minplus_hook(tracer, args, kwargs, result):
    n = np.asarray(args[0]).shape[0]
    tracer.counts["extmat.minplus_ops"] += n**3


def _two_hop_hook(tracer, args, kwargs, result):
    # a level whose halved closure equals its input repeats the level above
    if np.array_equal(result, args[0]):
        tracer.counts["reduction.two_hop_repeats"] += 1


def _row_index_hook(tracer, args, kwargs, result):
    tracer.counts["products.heavy_rows"] += result.heavy_rows
    cutoff = "products.cutoff"
    tracer.counts[cutoff] = max(tracer.counts[cutoff], result.cutoff)


def _routes_hook(tracer, args, kwargs, result, *, original, products):
    # a second, untimed call that also returns the per-entry route codes
    _, routes = original(*args, **dict(kwargs, return_routes=True))
    codes = np.bincount(routes.ravel(), minlength=4)
    for name in ("ABSENT", "HEAVY", "LIGHT", "TARGET_INF"):
        key = "products.route_" + name.lower()
        tracer.counts[key] += int(codes[getattr(products, "ROUTE_" + name)])


def _format_hook(tracer, args, kwargs, result):
    tracer.counts["cli.output_mib"] += len(result.encode("utf-8")) / MIB


class Tracer:
    """Spans and counters for the calls made inside one ``installed`` block."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._excluded = 0.0
        self._paused = False

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _wrap(self, fn, hook):
        name = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.now(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.now()
            if hook is not None:
                tic = time.perf_counter()
                self._paused = True
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self._paused = False
                    self._excluded += time.perf_counter() - tic
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, mods):
        """Wrap every trace point of the package ``mods`` for the block's duration."""
        hooks = {
            "bool_product": _bool_product_hook,
            "minplus_product": _minplus_hook,
            "two_hop_target": _two_hop_hook,
            "build_row_index": _row_index_hook,
            "format_matrix": _format_hook,
            "restricted_target_minmax": functools.partial(
                _routes_hook,
                original=mods.products.restricted_target_minmax,
                products=mods.products,
            ),
        }
        saved = []
        try:
            for module_name, attr in TRACE_POINTS:
                module = getattr(mods, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, hooks.get(attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


# self time of each span name, summed, lands in exactly one of these metrics
SELF_TIME_METRICS = {
    "reduction.solve_apsp": "reduction.glue_self_s",
    "reduction.apsp_minus_zero_one": "reduction.glue_self_s",
    "reduction.two_hop_target": "reduction.two_hop_target_self_s",
    "reduction.parity_masks": "reduction.parity_masks_s",
    "reduction.parity_products": "reduction.parity_products_self_s",
    "reduction.assemble_distances": "reduction.assemble_distances_s",
    "graph.canonical_adjacency": "graph.canonical_adjacency_self_s",
    "graph.one_regular_apsp": "graph.one_regular_apsp_self_s",
    "extmat.minplus_product": "extmat.minplus_product_s",
    "extmat.bool_product": "extmat.bool_product_s",
    "extmat.bool_closure": "extmat.bool_closure_self_s",
    "products.restricted_target_minmax": "products.restricted_target_minmax_self_s",
    "products.build_row_index": "products.build_row_index_s",
    "products.build_heavy_matrix": "products.build_heavy_matrix_s",
    "cli.main": "cli.main_self_s",
    "cli.parse_edge_list": "cli.parse_edge_list_s",
    "cli.format_matrix": "cli.format_matrix_s",
}

CALL_COUNT_METRICS = {
    "reduction.apsp_minus_zero_one": "reduction.levels",
    "reduction.two_hop_target": "reduction.two_hop_calls",
    "extmat.minplus_product": "extmat.minplus_product_calls",
    "extmat.bool_product": "extmat.bool_product_calls",
    "products.restricted_target_minmax": "products.restricted_target_minmax_calls",
}

COUNT_METRICS = (
    "extmat.minplus_product_calls",
    "extmat.minplus_ops",
    "extmat.bool_product_calls",
    "extmat.bool_product_left_bits",
    "extmat.bool_closure_squarings",
    "reduction.levels",
    "reduction.two_hop_calls",
    "reduction.two_hop_repeats",
    "products.restricted_target_minmax_calls",
    "products.heavy_rows",
    "products.cutoff",
    "products.route_heavy",
    "products.route_light",
    "products.route_absent",
    "products.route_target_inf",
)

MIB_METRICS = (
    "extmat.bool_product_gather_mib",
    "extmat.bool_product_peak_gather_mib",
    "cli.output_mib",
)


def layer_metrics(tracer):
    """Per-layer times, counts and computed sizes of one traced solve.

    ``trace.solve_s`` is the root span; the *_self_s and leaf *_s metrics
    partition it, so their sum equals it up to rounding.
    """
    metrics = {name: 0.0 for name in set(SELF_TIME_METRICS.values())}
    metrics.update({name: 0 for name in COUNT_METRICS})
    metrics.update({name: 0.0 for name in MIB_METRICS})
    metrics["products.heavy_product_s"] = 0.0
    for (name, start, end, parent), self_s in zip(tracer.spans, tracer.self_times()):
        metrics[SELF_TIME_METRICS[name]] += self_s
        if name in CALL_COUNT_METRICS:
            metrics[CALL_COUNT_METRICS[name]] += 1
        if name == "extmat.bool_product" and parent >= 0:
            parent_name = tracer.spans[parent][0]
            if parent_name == "products.restricted_target_minmax":
                metrics["products.heavy_product_s"] += end - start
            elif parent_name == "extmat.bool_closure":
                metrics["extmat.bool_closure_squarings"] += 1
    metrics.update(tracer.counts)
    roots = [(start, end) for _, start, end, parent in tracer.spans if parent < 0]
    metrics["trace.solve_s"] = sum(end - start for start, end in roots)
    return metrics
