"""Spans around the public functions of every ``ivprob`` layer.

The program holds no tracing code: :class:`Tracer` replaces each public
function, at every ``ivprob`` module attribute that refers to it (so names
imported with ``from .x import f`` are wrapped too), with a wrapper that
records a span ``(name, start, end, parent)`` in memory and bumps the
counters in ``COUNTS``.  :meth:`Tracer.uninstall` restores the
originals.  A layer's self time is the duration of its spans minus the time
covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np

#: Public functions wrapped per layer (``Class.method`` for model methods).
LAYERS = {
    "cli": ["main"],
    "docio": ["parse_document", "load_document", "serialize_document", "format_scalar"],
    "model": ["validate", "require_valid", "IntervalDistribution.violations",
              "IntervalDistribution.require_valid"],
    "polytope": ["constraints_from_database", "constraints_from_box", "normalization_row",
                 "optimize", "is_consistent"],
    "simplex": ["solve"],
    "extension": ["extension_star", "joint_intervals", "project_real", "project_interval",
                  "project_database", "reconstruct", "tighten"],
    "entropy": ["shannon_entropy", "conditional_entropy", "kl_divergence", "maxent_ipf",
                "box_maxent", "measure_u1", "box_minent", "measure_u2", "mvd_strength"],
    "measures": ["measure_u0", "distance_d0", "information_loss", "is_refinement",
                 "rank_schemes", "enumerate_schemes"],
}

#: Self-time metrics: metric -> span names whose self time it sums.  Every
#: span name belongs to exactly one metric, so the metrics add up to the time
#: spent under ``cli.main``.
SELF_TIME = {
    "cli.self_s": ["cli.main"],
    "docio.parse_s": ["docio.parse_document", "docio.load_document"],
    "docio.serialize_s": ["docio.serialize_document", "docio.format_scalar"],
    "model.validate_s": [f"model.{f}" for f in LAYERS["model"]],
    "polytope.build_s": ["polytope.constraints_from_database", "polytope.constraints_from_box",
                         "polytope.normalization_row"],
    "polytope.optimize_self_s": ["polytope.optimize", "polytope.is_consistent"],
    "simplex.solve_s": ["simplex.solve"],
    "extension.self_s": [f"extension.{f}" for f in LAYERS["extension"]],
    "entropy.ipf_s": ["entropy.maxent_ipf"],
    "entropy.minent_s": ["entropy.box_minent"],
    "entropy.maxent_box_s": ["entropy.box_maxent"],
    "entropy.other_s": [f"entropy.{f}" for f in LAYERS["entropy"]
                        if f not in ("maxent_ipf", "box_minent", "box_maxent")],
    "measures.self_s": [f"measures.{f}" for f in LAYERS["measures"]],
}

#: Counters and their units; they repeat exactly for one seed.
COUNTS = {
    "simplex.solve_calls": "count", "polytope.lp_calls": "count",
    "extension.box_lp_calls": "count", "extension.db_lp_calls": "count",
    "extension.endpoints": "count", "measures.schemes_scored": "count",
    "docio.bytes_in": "B", "docio.bytes_out": "B",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []  # open spans
        self._systems = weakref.WeakKeyDictionary()  # ConstraintSystem -> "box" | "db"
        self._saved: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ivprob" or n.startswith("ivprob.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"ivprob.{layer}"]
            for fname in names:
                owner, attr = module, fname
                if "." in fname:
                    cls, attr = fname.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                self._replace(owner, attr, original, wrapper)
                if owner is module:
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._replace(other, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        key = name.replace(".", "_")
        on_call = getattr(self, "_call_" + key, None)
        on_return = getattr(self, "_return_" + key, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, "")
            if on_call is not None:
                on_call(args, parent_name)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- counters: calls are counted on entry, results on return -----------

    def _call_simplex_solve(self, args, parent):
        if parent != "simplex.solve":  # the min direction re-enters solve once
            self.counts["simplex.solve_calls"] += 1

    def _call_polytope_optimize(self, args, parent):
        self.counts["polytope.lp_calls"] += 1
        if parent.startswith("extension."):
            kind = self._systems.get(args[0], "db")
            self.counts[f"extension.{kind}_lp_calls"] += 1

    def _return_polytope_constraints_from_box(self, result):
        self._systems[result] = "box"

    def _return_extension_extension_star(self, result):
        self.counts["extension.endpoints"] += 2 * result.space.cell_count

    _return_extension_project_interval = _return_extension_extension_star
    _return_extension_tighten = _return_extension_extension_star

    def _call_measures_information_loss(self, args, parent):
        self.counts["measures.schemes_scored"] += 1

    def _call_docio_parse_document(self, args, parent):
        self.counts["docio.bytes_in"] += len(args[0].encode())

    def _return_docio_serialize_document(self, result):
        self.counts["docio.bytes_out"] += len(result.encode())

    _return_docio_format_scalar = _return_docio_serialize_document

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        names = [s[0] for s in self.spans]
        duration = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.intp)
        child = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = Counter()
        for name, value in zip(names, duration - child):
            own[name] += float(value)
        return own

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        out = {metric: sum(own[n] for n in names) for metric, names in SELF_TIME.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        return out
