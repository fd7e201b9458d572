"""Command-line interface over document files.

Commands read JSON documents (see :mod:`ivprob.docio`), run one library
operation, and print the result to standard output — documents in canonical
JSON (or aligned text with ``--format table``), scalars as one 9-decimal
number.  Exit codes are a stable contract: 0 success, 1 domain failure
(invalid tables, inconsistency, refused enumerations, spaces beyond
``model.SPACE_CELL_CAP`` cells), 2 usage or file/parse
failure, 3 internal solver failure (a bug, not bad input).

The command runs the OpenBLAS that numpy loaded on one thread unless
``OPENBLAS_NUM_THREADS`` sets a count; importing the package changes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from .docio import format_scalar, load_document, serialize_document
from .entropy import maxent_ipf, measure_u1, measure_u2, mvd_strength
from .errors import (
    ConvergenceError,
    DocumentError,
    EnumerationLimitError,
    InfeasibleError,
    SolverError,
    SpaceMismatchError,
    UnknownVariableError,
    ValidationError,
)
from .extension import extension_star, project_interval, reconstruct
from .measures import distance_d0, enumerate_schemes, measure_u0, rank_schemes
from .model import Database, IntervalDistribution, Scheme, validate


def _name_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",")]
    if any(not name for name in names):
        raise ValueError(f"malformed variable list {text!r}")
    return names


def _optional_name_list(text: str) -> list[str]:
    return _name_list(text) if text.strip() else []


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load_distribution(path: str) -> IntervalDistribution:
    doc = load_document(path)
    if isinstance(doc, Database):
        raise DocumentError(
            f"{path}: expected a single-distribution document, found a database"
        )
    return doc


def _load_database(path: str) -> Database:
    doc = load_document(path)
    if isinstance(doc, Database):
        return doc
    return Database((doc,))


def _emit(obj, fmt: str) -> int:
    print(serialize_document(obj, fmt))
    return 0


def _cmd_validate(args) -> int:
    doc = load_document(args.path)
    problems = validate(doc) if isinstance(doc, Database) else doc.violations()
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("OK")
    return 0


def _cmd_extend(args) -> int:
    return _emit(extension_star(_load_database(args.path)), args.format)


def _cmd_project(args) -> int:
    i = _load_distribution(args.path)
    return _emit(project_interval(i, args.onto), args.format)


def _cmd_reconstruct(args) -> int:
    i = _load_distribution(args.path)
    return _emit(reconstruct(i, args.scheme), args.format)


def _cmd_measure(args) -> int:
    i = _load_distribution(args.path).require_valid()
    measure = {"u0": measure_u0, "u1": measure_u1, "u2": measure_u2}[args.which]
    print(format_scalar(measure(i)))
    return 0


def _cmd_distance(args) -> int:
    i = _load_distribution(args.path).require_valid()
    i2 = _load_distribution(args.path2).require_valid()
    print(format_scalar(distance_d0(i, i2)))
    return 0


def _cmd_maxent(args) -> int:
    return _emit(maxent_ipf(_load_database(args.path)), args.format)


def _cmd_mvd(args) -> int:
    p = _load_distribution(args.path).require_valid().to_real()
    print(format_scalar(mvd_strength(p, args.u, args.w)))
    return 0


def _cmd_rank(args) -> int:
    i = _load_distribution(args.path)
    schemes = (
        list(args.schemes)
        if args.schemes
        else enumerate_schemes(i.space, args.enumerate)
    )
    for report in rank_schemes(i, schemes):
        print(f"{report.scheme}\t{format_scalar(report.loss)}")
    return 0


def _add_format(sub) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="output as canonical JSON (default) or an aligned text table",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every later call."""
    parser = argparse.ArgumentParser(
        prog="ivprob",
        description=(
            "Interval-valued probability tools: validate documents, compute "
            "joint envelopes, projections, reconstructions, uncertainty "
            "measures, and scheme rankings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check a document's tables for validity")
    s.add_argument("path")
    s.set_defaults(func=_cmd_validate)

    s = sub.add_parser(
        "extend", help="narrowest joint interval table consistent with a database"
    )
    s.add_argument("path")
    _add_format(s)
    s.set_defaults(func=_cmd_extend)

    s = sub.add_parser("project", help="marginal interval table on given variables")
    s.add_argument("path")
    s.add_argument(
        "--onto", required=True, type=_name_list, help="comma-separated variables"
    )
    _add_format(s)
    s.set_defaults(func=_cmd_project)

    s = sub.add_parser(
        "reconstruct", help="joint envelope recovered from a scheme's projections"
    )
    s.add_argument("path")
    s.add_argument(
        "--scheme",
        required=True,
        type=Scheme.parse,
        help='scheme notation, e.g. "A,B|B,C"',
    )
    _add_format(s)
    s.set_defaults(func=_cmd_reconstruct)

    s = sub.add_parser("measure", help="uncertainty measure of a distribution")
    s.add_argument("path")
    s.add_argument("which", choices=("u0", "u1", "u2"))
    s.set_defaults(func=_cmd_measure)

    s = sub.add_parser("distance", help="mean endpoint displacement between tables")
    s.add_argument("path")
    s.add_argument("path2")
    s.set_defaults(func=_cmd_distance)

    s = sub.add_parser(
        "maxent", help="maximum-entropy joint fitting real marginal tables"
    )
    s.add_argument("path")
    _add_format(s)
    s.set_defaults(func=_cmd_maxent)

    s = sub.add_parser(
        "mvd", help="strength of the multivalued dependency u ->> w (bits)"
    )
    s.add_argument("path")
    s.add_argument(
        "--w", required=True, type=_name_list, help="dependent variables"
    )
    s.add_argument(
        "--u",
        default=[],
        type=_optional_name_list,
        help="conditioning variables (may be omitted)",
    )
    s.set_defaults(func=_cmd_mvd)

    s = sub.add_parser("rank", help="rank database schemes by information loss")
    s.add_argument("path")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--schemes",
        nargs="+",
        type=Scheme.parse,
        help='one or more schemes, e.g. "A,B|B,C"',
    )
    group.add_argument(
        "--enumerate",
        type=_positive_int,
        metavar="MAX_SUBSETS",
        help="rank all covering schemes with at most this many subsets",
    )
    s.set_defaults(func=_cmd_rank)

    return parser


@functools.cache
def _one_blas_thread() -> None:
    """Run the OpenBLAS that numpy loaded on one thread, once per process.

    On two cores, default threading made the LP's basis refactorizations
    slower, and far slower beside a second run.  A count set in the
    environment is left alone, as is a BLAS without the OpenBLAS symbol.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads"):
            if hasattr(dll, symbol):
                set_threads = getattr(dll, symbol)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                return


def main(argv=None) -> int:
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except (
        InfeasibleError,
        ConvergenceError,
        EnumerationLimitError,
        SpaceMismatchError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DocumentError, UnknownVariableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: internal solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
