"""JSON document format for distributions and databases.

A document declares its variables and then either one ``"table"`` (a single
distribution) or a list of ``"tables"`` (a database of marginal tables)::

    {
      "variables": [
        {"name": "X", "domain": ["x1", "x2"]},
        {"name": "Y", "domain": ["y1", "y2"]}
      ],
      "table": {
        "vars": ["X", "Y"],
        "rows": [
          {"key": ["x1", "y1"], "p": [0.000000000, 0.300000000]},
          {"key": ["x1", "y2"], "p": 0.420000000}
        ]
      }
    }

A scalar ``"p"`` denotes a degenerate interval.  Input rows may come in any
order (keys identify cells) but must cover each cell exactly once.  A table is
parsed in one pass, each key looked up in a dict of the table's cells; a row
whose key misses it, names a cell already read or lacks ``"p"`` takes every
structural check, in order, so a problem raises the same
:class:`DocumentError` message as a check of every row would.  Output is
canonical: rows in row-major order, every number printed with 9 decimal
places, degenerate cells printed as scalars — so serialized documents are
byte-stable and diff-friendly.  A table's row keys are built once, from each
label's ``json.dumps``.
"""

from __future__ import annotations

import itertools
import json
import math

from .errors import DocumentError, UnknownVariableError
from .model import Database, IntervalDistribution, RealDistribution, Space, Variable


def _expect(condition: bool, message: str, *args) -> None:
    """Raise ``DocumentError`` unless ``condition``; format the message only then."""
    if not condition:
        raise DocumentError(message.format(*args))


def _parse_number(value, key) -> float:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        "row {}: expected a number, found {!r}", key, value,
    )
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _expect(math.isfinite(number), "row {}: number must be finite", key)
    return number


def _parse_p(value, key) -> tuple[float, float]:
    if isinstance(value, list):
        _expect(len(value) == 2, "row {}: interval must be a [lo, hi] pair", key)
        return _parse_number(value[0], key), _parse_number(value[1], key)
    v = _parse_number(value, key)
    return v, v


def _parse_variables(field) -> Space:
    _expect(
        isinstance(field, list) and field,
        '"variables" must be a non-empty list',
    )
    variables = []
    for entry in field:
        _expect(isinstance(entry, dict), "each variable must be an object")
        name = entry.get("name")
        domain = entry.get("domain")
        _expect(isinstance(name, str), 'variable "name" must be a string')
        _expect(
            isinstance(domain, list) and all(isinstance(x, str) for x in domain),
            'variable {!r}: "domain" must be a list of strings', name,
        )
        try:
            variables.append(Variable(name, tuple(domain)))
        except ValueError as exc:
            raise DocumentError(f"variable {name!r}: {exc}") from exc
    try:
        return Space(tuple(variables))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def _checked_index(row, names, space: Space, seen: list[bool]) -> int:
    """The cell of ``row``, after every structural check of its key and ``"p"``."""
    _expect(isinstance(row, dict), "each row must be an object")
    key = row.get("key")
    _expect(
        isinstance(key, list) and all(isinstance(x, str) for x in key),
        'row "key" must be a list of value labels',
    )
    _expect(
        len(key) == len(names),
        "row key {} must have one label per variable in {}", key, names,
    )
    try:
        idx = space.cell_index(key)
    except UnknownVariableError as exc:
        raise DocumentError(str(exc)) from exc
    _expect(not seen[idx], "duplicate row for key {}", key)
    _expect("p" in row, 'row {} is missing "p"', key)
    return idx


def _parse_table(obj, ambient: Space) -> IntervalDistribution:
    _expect(isinstance(obj, dict), "each table must be an object")
    names = obj.get("vars")
    _expect(
        isinstance(names, list) and names and all(isinstance(n, str) for n in names),
        'table "vars" must be a non-empty list of variable names',
    )
    _expect(len(set(names)) == len(names), "table variables {} repeat a name", names)
    try:
        space = Space(tuple(ambient.variable(n) for n in names))
    except UnknownVariableError as exc:
        raise DocumentError(str(exc)) from exc
    rows = obj.get("rows")
    _expect(isinstance(rows, list), 'table "rows" must be a list')

    cells = {labels: k for k, labels in enumerate(space.cells())}
    lower = [0.0] * space.cell_count
    upper = [0.0] * space.cell_count
    seen = [False] * space.cell_count
    for row in rows:
        key = row.get("key") if type(row) is dict else None
        try:
            idx = cells.get(tuple(key)) if type(key) is list else None
        except TypeError:  # an unhashable label
            idx = None
        if idx is None or seen[idx] or "p" not in row:
            # Only a row that fails a structural check gets here, and the
            # checks raise their message.
            idx = _checked_index(row, names, space, seen)
        seen[idx] = True
        lower[idx], upper[idx] = _parse_p(row["p"], key)
    if not all(seen):
        missing = space.cell_tuple(seen.index(False))
        raise DocumentError(f"missing row for cell {list(missing)}")
    return IntervalDistribution(space, lower, upper)


def parse_document(text: str) -> IntervalDistribution | Database:
    """Parse a JSON document into a distribution or database.

    Structural problems (bad JSON, unknown names or labels, missing or
    duplicate rows, non-numeric probabilities) raise :class:`DocumentError`.
    Domain-level validity (bound ordering, mass totals) is *not* checked here;
    use :meth:`IntervalDistribution.violations` / :func:`model.validate`.
    """
    # json.loads raises a JSONDecodeError, a plain ValueError for an integer
    # past the digit limit, and a RecursionError for nesting that is too deep.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "top level must be an object")
    ambient = _parse_variables(doc.get("variables"))
    has_single = "table" in doc
    has_many = "tables" in doc
    _expect(
        has_single != has_many,
        'document must contain exactly one of "table" or "tables"',
    )
    if has_single:
        return _parse_table(doc["table"], ambient)
    tables_field = doc["tables"]
    _expect(
        isinstance(tables_field, list) and tables_field,
        '"tables" must be a non-empty list',
    )
    tables = tuple(_parse_table(t, ambient) for t in tables_field)
    try:
        return Database(tables, space=ambient)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def load_document(path) -> IntervalDistribution | Database:
    """Read and parse a document file, which must be UTF-8 text."""
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_document(handle.read())
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{path}: not UTF-8 text: {exc}") from exc


def format_scalar(value: float) -> str:
    """Fixed 9-decimal rendering used for all numeric output."""
    return f"{float(value) + 0.0:.9f}"


def _format_p(lo: float, hi: float) -> str:
    if lo == hi:
        return format_scalar(lo)
    return f"[{format_scalar(lo)}, {format_scalar(hi)}]"


def _variable_lines(space: Space, indent: str) -> list[str]:
    lines = [f'{indent}"variables": [']
    for k, var in enumerate(space.variables):
        comma = "," if k + 1 < len(space.variables) else ""
        lines.append(
            f'{indent}  {{"name": {json.dumps(var.name)}, '
            f'"domain": {json.dumps(list(var.domain))}}}{comma}'
        )
    lines.append(f"{indent}],")
    return lines


def _row_keys(space: Space) -> list[str]:
    """Each cell's key as ``json.dumps`` renders its list of labels, in cell order."""
    labels = [[json.dumps(label) for label in var.domain] for var in space.variables]
    return [f"[{', '.join(cell)}]" for cell in itertools.product(*labels)]


def _table_lines(table: IntervalDistribution, indent: str) -> list[str]:
    space = table.space
    lines = [
        f'{indent}"vars": {json.dumps(list(space.names))},',
        f'{indent}"rows": [',
    ]
    rows = [
        f'{indent}  {{"key": {key}, "p": {_format_p(lo, hi)}}}'
        for key, lo, hi in zip(_row_keys(space), table.lower.tolist(), table.upper.tolist())
    ]
    lines.append(",\n".join(rows))
    lines.append(f"{indent}]")
    return lines


def _as_table(obj) -> IntervalDistribution:
    return obj.as_interval() if isinstance(obj, RealDistribution) else obj


def serialize_document(obj, fmt: str = "json") -> str:
    """Render a distribution or database canonically (``json`` or ``table``)."""
    if fmt == "table":
        return _serialize_text(obj)
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, Database):
        lines = ["{"]
        lines += _variable_lines(obj.space, "  ")
        lines.append('  "tables": [')
        for k, table in enumerate(obj.tables):
            comma = "," if k + 1 < len(obj.tables) else ""
            lines.append("    {")
            lines += _table_lines(table, "      ")
            lines.append(f"    }}{comma}")
        lines.append("  ]")
        lines.append("}")
        return "\n".join(lines)
    table = _as_table(obj)
    lines = ["{"]
    lines += _variable_lines(table.space, "  ")
    lines.append('  "table": {')
    lines += _table_lines(table, "    ")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _text_rows(table: IntervalDistribution) -> list[str]:
    space = table.space
    header = [*space.names, "p"]
    rows = [
        [*cell, _format_p(lo, hi)]
        for cell, lo, hi in zip(space.cells(), table.lower.tolist(), table.upper.tolist())
    ]
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    out = []
    for r in [header, *rows]:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return out


def _serialize_text(obj) -> str:
    if isinstance(obj, Database):
        blocks = ["\n".join(_text_rows(t)) for t in obj.tables]
        return "\n\n".join(blocks)
    return "\n".join(_text_rows(_as_table(obj)))
