"""Reference checks of CLI outputs, run outside the timed region.

Envelopes (``extend``, ``project``, ``reconstruct``) are recomputed with
SciPy's HiGHS through ``scipy.optimize.linprog``; ``rank`` losses are
recomputed from those envelopes; ``u1`` and ``u2`` come from the brute-force
oracles in ``tests/oracles.py``; ``maxent`` is checked by how well its joint
reproduces the tables; the remaining scalars by their plain formulas.

``check(op, stdout)`` returns ``None`` when the output is right and a short
mismatch kind otherwise.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

import numpy as np
from scipy.optimize import linprog

import oracles
from workloads import UNIT, Doc, Op

LP_TOL = 1e-7  # HiGHS envelopes against the program's endpoints
FORMULA_TOL = 1e-8  # closed forms against 9-decimal output
U1_TOL = 1e-4  # the u1 oracle is a grid search at step 1e-3
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


def _bounds(doc: Doc):
    """Lower and upper bounds of a single-table document, as floats."""
    return doc.table.lower / UNIT, doc.table.upper / UNIT


def _fiber_matrix(doc: Doc, names) -> np.ndarray:
    """0/1 rows mapping the doc's ambient cells onto the cells over ``names``."""
    shape = [len(doc.labels[n]) for n in doc.labels]
    axes = [list(doc.labels).index(n) for n in names]
    idx = np.indices(shape).reshape(len(shape), -1)
    target = np.ravel_multi_index(idx[axes], [shape[a] for a in axes])
    fibers = np.zeros((int(np.prod([shape[a] for a in axes])), idx.shape[1]))
    fibers[target, np.arange(idx.shape[1])] = 1.0
    return fibers


def _envelope(objectives, a_ub=None, b_ub=None, lo=0.0, hi=1.0):
    """Min and max of each objective row over {A_ub p <= b_ub, sum p = 1, lo <= p <= hi}."""
    n = objectives.shape[1]
    bounds = np.column_stack([np.broadcast_to(lo, n), np.broadcast_to(hi, n)])
    out = np.empty((objectives.shape[0], 2))
    for t, c in enumerate(objectives):
        for side, sign in ((0, 1.0), (1, -1.0)):
            res = linprog(
                sign * c, A_ub=a_ub, b_ub=b_ub, A_eq=np.ones((1, n)), b_eq=[1.0],
                bounds=bounds, method="highs", options=HIGHS_OPTIONS,
            )
            if res.status != 0:
                return None
            out[t, side] = sign * res.fun
    return out


def database_envelope(doc: Doc, tables) -> np.ndarray | None:
    """Per-cell [min, max] over joints matching every (names, lower, upper) table."""
    rows, rhs = [], []
    for names, lower, upper in tables:
        fibers = _fiber_matrix(doc, names)
        rows += [fibers, -fibers]
        rhs += [upper, -lower]
    n = rows[0].shape[1]
    return _envelope(np.eye(n), np.vstack(rows), np.concatenate(rhs))


def box_projection(doc: Doc, names) -> np.ndarray | None:
    lo, hi = _bounds(doc)
    return _envelope(_fiber_matrix(doc, names), lo=lo, hi=hi)


def _parse_table(stdout: str) -> np.ndarray:
    rows = json.loads(stdout)["table"]["rows"]
    return np.array([r["p"] if isinstance(r["p"], list) else [r["p"]] * 2 for r in rows])


def _parse_scheme(text: str) -> frozenset:
    return frozenset(frozenset(part.split(",")) for part in text.split("|"))


def _ordered(doc: Doc, subset) -> tuple[str, ...]:
    return tuple(n for n in doc.labels if n in subset)


class Reference:
    """Reference results, cached per document so repeated ops cost nothing."""

    def __init__(self):
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def projection(self, doc: Doc, names):
        names = _ordered(doc, names)
        return self._memo(("project", doc.name, names), lambda: box_projection(doc, names))

    def reconstruction(self, doc: Doc, scheme: frozenset):
        def compute():
            tables = []
            for subset in sorted(scheme, key=sorted):
                names = _ordered(doc, subset)
                env = self.projection(doc, names)
                if env is None:
                    return None
                tables.append((names, env[:, 0], env[:, 1]))
            return database_envelope(doc, tables)

        return self._memo(("reconstruct", doc.name, scheme), compute)

    def loss(self, doc: Doc, scheme: frozenset) -> float:
        lo, hi = _bounds(doc)
        env = self.reconstruction(doc, scheme)
        return float(np.mean(np.abs(hi - env[:, 1]) + np.abs(lo - env[:, 0])))

    def check(self, op: Op, stdout: str) -> str | None:
        doc = op.docs[0]
        handler = getattr(self, "_check_" + op.kind)
        return handler(op, doc, stdout)

    # -- envelopes ---------------------------------------------------------

    def _check_table(self, got: np.ndarray, want) -> bool:
        return want is not None and got.shape == want.shape and np.allclose(
            got, want, rtol=0.0, atol=LP_TOL
        )

    def _check_extend(self, op, doc, stdout):
        tables = [(t.names, t.lower / UNIT, t.upper / UNIT) for t in doc.tables]
        want = self._memo(("extend", doc.name), lambda: database_envelope(doc, tables))
        return None if self._check_table(_parse_table(stdout), want) else "extend-envelope"

    def _check_project(self, op, doc, stdout):
        want = self.projection(doc, op.args[1].split(","))
        return None if self._check_table(_parse_table(stdout), want) else "project-envelope"

    def _check_reconstruct(self, op, doc, stdout):
        want = self.reconstruction(doc, _parse_scheme(op.args[1]))
        return None if self._check_table(_parse_table(stdout), want) else "reconstruct-envelope"

    def _check_rank(self, op, doc, stdout):
        lines = [line.split("\t") for line in stdout.splitlines()]
        got = [(_parse_scheme(s), float(loss)) for s, loss in lines]
        if op.args[0] == "--enumerate":
            wanted = Counter(covers(list(doc.labels), int(op.args[1])))
        else:
            wanted = Counter(_antichain(_parse_scheme(s)) for s in op.args[1:])
        if Counter(s for s, _ in got) != wanted:
            return "rank-schemes-set"
        losses = [self.loss(doc, s) for s, _ in got]
        if any(abs(a - b) > LP_TOL for a, b in zip(losses, (x for _, x in got))):
            return "rank-loss"
        if any(b < a - LP_TOL for a, b in zip(losses, losses[1:])):
            return "rank-order"
        return None

    # -- entropy and formulas ----------------------------------------------

    def _check_measure(self, op, doc, stdout):
        lo, hi = _bounds(doc)
        which = op.args[0]
        if which == "u0":
            want, tol = float(np.mean(hi - lo)), FORMULA_TOL
        elif which == "u1":
            want = self._memo(
                ("u1", doc.name),
                lambda: oracles.entropy_bits(oracles.transfer_ascent_max_entropy(lo, hi)),
            )
            tol = U1_TOL
        else:
            want = self._memo(("u2", doc.name), lambda: oracles.min_entropy_by_vertices(lo, hi))
            tol = FORMULA_TOL
        return None if abs(float(stdout) - want) <= tol else f"measure-{which}"

    def _check_distance(self, op, doc, stdout):
        (lo_a, hi_a), (lo_b, hi_b) = _bounds(op.docs[0]), _bounds(op.docs[1])
        want = float(np.mean(np.abs(hi_a - hi_b) + np.abs(lo_a - lo_b)))
        return None if abs(float(stdout) - want) <= FORMULA_TOL else "distance"

    def _check_validate(self, op, doc, stdout):
        return None if stdout == "OK\n" else "validate"

    def _check_mvd(self, op, doc, stdout):
        p, _ = _bounds(doc)
        w = op.args[op.args.index("--w") + 1].split(",")
        u = op.args[op.args.index("--u") + 1].split(",") if "--u" in op.args else []
        z = [n for n in doc.labels if n not in w and n not in u]

        def h(names):
            names = _ordered(doc, names)
            return oracles.entropy_bits(_fiber_matrix(doc, names) @ p) if names else 0.0

        # I(W; Z | U) = H(UW) + H(UZ) - H(U) - H(UWZ)
        want = max(0.0, h(u + w) + h(u + z) - h(u) - h(list(doc.labels)))
        return None if abs(float(stdout) - want) <= FORMULA_TOL else "mvd"

    def _check_maxent(self, op, doc, stdout):
        joint = _parse_table(stdout)[:, 0]
        if abs(joint.sum() - 1.0) > LP_TOL:
            return "maxent-mass"
        for t in doc.tables:
            got = _fiber_matrix(doc, t.names) @ joint
            if np.max(np.abs(got - t.lower / UNIT)) > LP_TOL:
                return "maxent-marginal"
        return None


def _antichain(scheme: frozenset) -> frozenset:
    return frozenset(s for s in scheme if not any(s < t for t in scheme))


def covers(names, max_subsets: int) -> set:
    """Every antichain of at most ``max_subsets`` subsets covering ``names``."""
    subsets = [
        frozenset(c)
        for size in range(1, len(names) + 1)
        for c in itertools.combinations(names, size)
    ]
    found = set()
    for count in range(1, max_subsets + 1):
        for combo in itertools.combinations(subsets, count):
            scheme = frozenset(combo)
            if frozenset().union(*combo) == frozenset(names) and _antichain(scheme) == scheme:
                found.add(scheme)
    return found
