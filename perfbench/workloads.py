"""Seeded document generators and op sequences for the three workloads.

Every probability is held as an integer count of 1e-9 units and written
with exactly 9 decimals, the precision of the ivprob document format, so the
benchmark knows the exact value the program parses.  The same seed gives the
same documents and the same op sequence, byte for byte.

Workloads (why each one is here):

* ``extend-chain`` -- ``extend`` on chain databases of 8 to 64 cells.  The
  database LPs carry a heavy phase 1: this is the polytope -> simplex path,
  with no box LPs and no entropy work.  A quarter of the databases in every
  size class are real-valued, and in half of those two tables disagree by
  1e-9 (see :func:`chain_database`): ``validate`` accepts them and the
  program rejects them.  Their failures are counted, not avoided.
* ``rank-schemes`` -- ``rank``, ``reconstruct`` and ``project`` on interval
  joints of 8 to 16 cells: thousands of one-row box LPs beside small
  database LPs, the same simplex layer used differently.
* ``entropy-measures`` -- ``measure``, ``maxent``, ``mvd``, ``distance`` and
  ``validate`` on documents of 4 to 27 cells.  No LP is solved, so a simplex
  change must leave it unchanged.  Half the ``maxent`` databases disagree by
  1e-9 as above, and their fits run to the sweep cap.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

UNIT = 10**9  # one document probability unit is 1e-9


@dataclass
class Table:
    names: tuple[str, ...]
    lower: np.ndarray  # int64 counts of 1e-9, row-major over ``names``
    upper: np.ndarray


@dataclass
class Doc:
    """One generated document: a single table or a database of tables."""

    name: str
    labels: dict[str, tuple[str, ...]]  # ambient variables in order
    tables: list[Table]
    is_database: bool

    @property
    def path(self) -> str:
        return f"{self.name}.json"

    @property
    def table(self) -> Table:
        return self.tables[0]

    def text(self) -> str:
        return render(self)


@dataclass
class Op:
    kind: str  # extend, project, reconstruct, rank, measure, maxent, ...
    args: list[str]  # CLI arguments after the document paths
    docs: list[Doc]

    def argv(self, workdir: str) -> list[str]:
        return [self.kind, *(f"{workdir}/{d.path}" for d in self.docs), *self.args]


# ---------------------------------------------------------------------------
# rendering


def _num(units: int) -> str:
    return f"{units // UNIT}.{units % UNIT:09d}"


def _p(lo: int, hi: int) -> str:
    return _num(lo) if lo == hi else f"[{_num(lo)}, {_num(hi)}]"


def _cells(names, labels):
    return itertools.product(*(labels[n] for n in names))


def _table_json(t: Table, labels, indent: str) -> list[str]:
    rows = [
        f'{indent}  {{"key": {json.dumps(list(key))}, "p": {_p(int(lo), int(hi))}}}'
        for key, lo, hi in zip(_cells(t.names, labels), t.lower, t.upper)
    ]
    return [
        f'{indent}"vars": {json.dumps(list(t.names))},',
        f'{indent}"rows": [',
        ",\n".join(rows),
        f"{indent}]",
    ]


def render(doc: Doc) -> str:
    var_lines = ",\n".join(
        f'    {{"name": {json.dumps(n)}, "domain": {json.dumps(list(d))}}}'
        for n, d in doc.labels.items()
    )
    lines = ["{", '  "variables": [', var_lines, "  ],"]
    if doc.is_database:
        blocks = [
            "\n".join(["    {", *_table_json(t, doc.labels, "      "), "    }"])
            for t in doc.tables
        ]
        lines += ['  "tables": [', ",\n".join(blocks), "  ]"]
    else:
        lines += ['  "table": {', *_table_json(doc.table, doc.labels, "    "), "  }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random tables


def _labels(shape) -> dict[str, tuple[str, ...]]:
    return {
        f"V{k + 1}": tuple(f"v{k + 1}.{m + 1}" for m in range(size))
        for k, size in enumerate(shape)
    }


def _hidden_joint(rng, shape) -> np.ndarray:
    p = rng.exponential(size=int(np.prod(shape)))
    return (p / p.sum()).reshape(shape)


def _marginal(p: np.ndarray, axes) -> np.ndarray:
    drop = tuple(a for a in range(p.ndim) if a not in axes)
    return p.sum(axis=drop).ravel()


def _round_units(p: np.ndarray) -> np.ndarray:
    """Largest-remainder rounding to 1e-9 units that sum to exactly one."""
    scaled = p * UNIT
    units = np.floor(scaled).astype(np.int64)
    short = UNIT - int(units.sum())
    order = np.argsort(-(scaled - units), kind="stable")
    units[order[:short]] += 1
    return units


#: Share of cells per interval table with a positive lower bound.  Each such
#: cell adds a row that phase 1 must satisfy, so fixing the share keeps the
#: LP cost of same-sized tables alike from seed to seed.
TIGHT_SHARE = 0.25


def _interval_table(rng, names, p: np.ndarray) -> Table:
    """Valid bounds of random width around ``p``, rounded outward to 1e-9.

    Every upper bound is 5-50% above ``p``.  Tight cells have a lower bound
    5-50% below ``p``; the others have lower bound 0 and up to 0.2 more on
    top.
    """
    n = p.size
    tight = rng.permutation(n) < round(TIGHT_SHARE * n)
    lo = np.where(tight, p * rng.uniform(0.5, 0.95, n), 0.0)
    slack = np.where(tight, 0.0, rng.uniform(0.0, 0.2, n))
    hi = np.minimum(p * rng.uniform(1.05, 1.5, n) + slack, 1.0)
    return Table(
        tuple(names),
        np.floor(lo * UNIT).astype(np.int64),
        np.minimum(np.ceil(hi * UNIT), UNIT).astype(np.int64),
    )


def chain_database(rng, name, shape, kind: str) -> Doc:
    """One table per pair of consecutive variables, marginals of one joint.

    ``kind`` is ``interval``, ``real`` (exact marginals of a joint on the
    9-decimal grid) or ``skewed``: real, but the second table moves one 1e-9
    unit between two values of the variable it shares with the first.  Each
    table still sums to one and passes ``validate``; the pair disagrees by the
    amount that rounding each table to 9 decimals on its own leaves in 30-70%
    of chains.  Built in rather than left to rounding, the number of such
    databases is the same for every seed.
    """
    labels = _labels(shape)
    names = list(labels)
    p = _hidden_joint(rng, shape)
    if kind != "interval":
        p = _round_units(p.ravel()).reshape(shape)
    tables = []
    for k in range(len(names) - 1):
        pair = tuple(names[k : k + 2])
        m = _marginal(p, (k, k + 1))
        if kind == "interval":
            tables.append(_interval_table(rng, pair, m))
            continue
        if kind == "skewed" and k == 1:
            m = m.reshape(shape[1], shape[2])
            j = int(np.argmax(m[0]))
            m[0, j] -= 1
            m[1, j] += 1
            m = m.ravel()
        tables.append(Table(pair, m, m.copy()))
    return Doc(name, labels, tables, is_database=True)


def interval_joint(rng, name, shape) -> Doc:
    labels = _labels(shape)
    p = _hidden_joint(rng, shape).ravel()
    table = _interval_table(rng, labels, p)
    return Doc(name, labels, [table], is_database=False)


def real_joint(rng, name, shape) -> Doc:
    labels = _labels(shape)
    units = _round_units(_hidden_joint(rng, shape).ravel())
    return Doc(name, labels, [Table(tuple(labels), units, units.copy())], is_database=False)


def _proper_subset(rng, names) -> tuple[str, ...]:
    size = int(rng.integers(1, len(names)))
    pick = sorted(rng.choice(len(names), size=size, replace=False))
    return tuple(names[k] for k in pick)


def _kinds(rng, count: int, round_up: bool) -> list[str]:
    """Database kinds for one size class, in random order: a quarter are
    real-valued, and half of those are skewed, the odd one rounded up when
    ``round_up``."""
    real = round(count * REAL_SHARE)
    skewed = (real + round_up) // 2
    kinds = ["skewed"] * skewed + ["real"] * (real - skewed)
    kinds += ["interval"] * (count - real)
    rng.shuffle(kinds)
    return kinds


# ---------------------------------------------------------------------------
# workloads


#: extend-chain size classes: cells -> (variable shape, ops per sequence).
#: Sorted by latency, the 16-cell class spans the median op and the 64-cell
#: class (a quarter of the ops) spans the 90th percentile, so op_p50_ms and
#: op_p90_ms each fall inside one class of like-sized LPs.  The sequence is
#: kept to 50 ops (about 10 s) so that a run times it more than once.
EXTEND_CLASSES = {
    8: ((2, 2, 2), 10),
    16: ((2, 2, 2, 2), 20),
    27: ((3, 3, 3), 4),
    32: ((2, 2, 2, 2, 2), 4),
    64: ((4, 4, 4), 12),
}
REAL_SHARE = 0.25


def extend_chain(rng) -> list[Op]:
    ops = []
    odd = 0  # classes with an odd number of real databases round up and down in turn
    for cells, (shape, count) in EXTEND_CLASSES.items():
        odd += round(count * REAL_SHARE) % 2
        for k, kind in enumerate(_kinds(rng, count, round_up=odd % 2 == 1)):
            doc = chain_database(rng, f"chain{cells}-{k}", shape, kind)
            ops.append(Op("extend", [], [doc]))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


#: Three-variable joints of 8 to 16 cells: 2-subset enumeration ranks 7 schemes.
RANK_SHAPES = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 4)]
#: Every cover of (V1, V2, V3) by two or three proper subsets.
COVERS = ["V1,V2|V3", "V1,V3|V2", "V2,V3|V1", "V1,V2|V1,V3", "V1,V2|V2,V3",
          "V1,V3|V2,V3", "V1|V2|V3", "V1,V2|V1,V3|V2,V3"]
JOINTS_PER_SHAPE = len(COVERS) // 2


def rank_schemes(rng) -> list[Op]:
    """Seven ops per joint: one rank by enumeration, one rank of two given
    schemes, two reconstructions and projections onto each single variable.
    Within each shape every cover is ranked once and reconstructed once, so
    every seed runs the same mix of LP sizes."""
    ops = []
    for shape in RANK_SHAPES:
        ranked, rebuilt = ([COVERS[i] for i in rng.permutation(len(COVERS))] for _ in range(2))
        for k in range(JOINTS_PER_SHAPE):
            doc = interval_joint(rng, f"joint{len(ops) // 7}", shape)
            ops.append(Op("rank", ["--enumerate", "2"], [doc]))
            ops.append(Op("rank", ["--schemes", *ranked[2 * k : 2 * k + 2]], [doc]))
            ops += [Op("reconstruct", ["--scheme", c], [doc]) for c in rebuilt[2 * k : 2 * k + 2]]
            ops += [Op("project", ["--onto", name], [doc]) for name in doc.labels]
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


ENTROPY_SHAPES = [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
ENTROPY_DOCS = 28
#: Exact u1/u2 oracles enumerate every vertex: seconds per document at 16 cells.
ORACLE_CELL_CAP = 12


def entropy_measures(rng) -> list[Op]:
    ops = []
    for k in range(ENTROPY_DOCS):
        shape = ENTROPY_SHAPES[k % len(ENTROPY_SHAPES)]
        cells = int(np.prod(shape))
        a = interval_joint(rng, f"ij{k}a", shape)
        b = interval_joint(rng, f"ij{k}b", shape)
        real = real_joint(rng, f"rj{k}", shape)
        kind = "skewed" if k % 2 else "real"  # half the fits meet disagreeing tables
        db = chain_database(rng, f"rdb{k}", shape, kind) if len(shape) > 2 else None
        names = list(a.labels)
        for doc in (a, b):
            ops.append(Op("measure", ["u0"], [doc]))
            ops.append(Op("validate", [], [doc]))
            if cells <= ORACLE_CELL_CAP:
                ops.append(Op("measure", ["u1"], [doc]))
                ops.append(Op("measure", ["u2"], [doc]))
        ops.append(Op("distance", [], [a, b]))
        ops.append(Op("validate", [], [real]))
        w = _proper_subset(rng, names)
        rest = [n for n in names if n not in w]
        u = _proper_subset(rng, rest) if len(rest) > 1 and rng.random() < 0.5 else ()
        args = ["--w", ",".join(w)] + (["--u", ",".join(u)] if u else [])
        ops.append(Op("mvd", args, [real]))
        if db is not None:
            ops.append(Op("validate", [], [db]))
            ops.append(Op("maxent", [], [db]))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


WORKLOADS = {
    "extend-chain": extend_chain,
    "rank-schemes": rank_schemes,
    "entropy-measures": entropy_measures,
}


def generate(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


def documents(ops: list[Op]) -> dict[str, Doc]:
    return {d.name: d for op in ops for d in op.docs}
