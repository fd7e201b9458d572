"""End-to-end CLI behaviour: commands, formats, and the exit-code contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivprob import parse_document
from ivprob.cli import main

from conftest import shift_kernel_end

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------- validate ---


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "db_d.json")
    assert code == 0
    assert out.strip() == "OK"


def test_validate_reports_violations(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "bad_lower_gt_upper.json")
    assert code == 1
    assert "x1" in out


def test_validate_malformed_document(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "malformed.json")
    assert code == 2
    assert "error" in err


def test_validate_non_utf8_document_exits_2(capsys, tmp_path):
    # A label holding byte 0xff is malformed input, not a domain failure.
    text = (FIXTURES / "db_d.json").read_bytes().replace(b'"x1"', b'"x\xff"')
    path = tmp_path / "latin.json"
    path.write_bytes(text)
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text: ")


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "no_such_file.json")
    assert code == 2


ABC_MID = (FIXTURES / "abc_mid.json").read_text()


@pytest.mark.parametrize(
    "text",
    [
        # 400 digits overflow a float; 5,000 pass Python's digit limit for
        # integers, which the JSON parser reports as a plain ValueError.
        pytest.param(ABC_MID.replace("0.250000000", "9" * 400, 1), id="400"),
        pytest.param(ABC_MID.replace("0.250000000", "9" * 5000, 1), id="5000"),
        # Nesting this deep exceeds the JSON parser's recursion limit.
        pytest.param('{"variables": ' + "[" * 100_000 + "}", id="nested-100000"),
    ],
)
def test_huge_integer_probability_is_a_document_error(capsys, tmp_path, text):
    """Documents that defeat the JSON parser itself exit 2 with one line."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# ----------------------------------------------------------------- extend ---


def test_extend_interval_database_matches_fixture_bytes(capsys):
    code, out, err = run(capsys, "extend", FIXTURES / "db_i.json")
    assert code == 0
    assert out == (FIXTURES / "ei_star.json").read_text()


def _marginals_document(path, x, y):
    """A database of real tables on X and on Y, written to ``path``."""
    tables = [
        {"vars": [name], "rows": [{"key": [f"{prefix}{k + 1}"], "p": v} for k, v in enumerate(p)]}
        for name, prefix, p in (("X", "x", x), ("Y", "y", y))
    ]
    variables = [{"name": n, "domain": [f"{n.lower()}1", f"{n.lower()}2"]} for n in ("X", "Y")]
    path.write_text(json.dumps({"variables": variables, "tables": tables}))
    return path


def test_extend_real_database_gives_joint_intervals(capsys, tmp_path, monkeypatch):
    code, out, err = run(capsys, "extend", FIXTURES / "db_d.json")
    assert code == 0
    doc = parse_document(out)
    np.testing.assert_allclose(doc.lower, [0.3, 0.1, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(doc.upper, [0.6, 0.4, 0.3, 0.3], atol=1e-9)

    # X sums to 1 + 8e-10, which validate accepts: such a table keeps the
    # joint LP, so the output is the LP's to the last printed digit.
    import ivprob.cli
    from ivprob.extension import _joint_envelope

    edge = _marginals_document(tmp_path / "edge.json", [0.7000000008, 0.3], [0.6, 0.4])
    code, out, err = run(capsys, "extend", edge)
    assert (code, err) == (0, "")
    monkeypatch.setattr(ivprob.cli, "extension_star", _joint_envelope)
    assert run(capsys, "extend", edge) == (0, out, "")


def test_extend_inconsistent_database(capsys, tmp_path):
    code, out, err = run(capsys, "extend", FIXTURES / "inconsistent_db.json")
    assert code == 1
    assert "error" in err

    # X sums to 1 + 8e-10 and Y to 1 - 8e-10: each passes validate, but no
    # joint has both as marginals.
    edge = _marginals_document(tmp_path / "edge.json", [0.7000000008, 0.3], [0.6, 0.3999999992])
    assert run(capsys, "validate", edge)[:2] == (0, "OK\n")
    code, out, err = run(capsys, "extend", edge)
    assert (code, out) == (1, "")
    assert err == "error: no joint distribution satisfies the constraints\n"


# ---------------------------------------------------------------- project ---


def test_project_extension_onto_xz(capsys):
    code, out, err = run(capsys, "project", FIXTURES / "ei_star.json", "--onto", "X,Z")
    assert code == 0
    doc = parse_document(out)
    np.testing.assert_allclose(doc.lower, [0.2, 0.0, 0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(doc.upper, [0.7, 0.7, 0.3, 0.3], atol=1e-9)


def test_project_abc_onto_ab(capsys):
    code, out, err = run(capsys, "project", FIXTURES / "abc_i.json", "--onto", "A,B")
    assert code == 0
    doc = parse_document(out)
    np.testing.assert_allclose(doc.lower, [0.48, 0.08, 0.08, 0.28], atol=1e-9)
    np.testing.assert_allclose(doc.upper, [0.52, 0.12, 0.12, 0.32], atol=1e-9)


def test_project_onto_all_variables_echoes_tight_input(capsys):
    code, out, err = run(capsys, "project", FIXTURES / "ei_star.json", "--onto", "X,Y,Z")
    assert code == 0
    assert out == (FIXTURES / "ei_star.json").read_text()


def test_project_unknown_variable(capsys):
    code, out, err = run(capsys, "project", FIXTURES / "abc_i.json", "--onto", "A,Q")
    assert code == 2


def test_project_requires_database_free_input(capsys):
    code, out, err = run(capsys, "project", FIXTURES / "db_d.json", "--onto", "X")
    assert code == 2  # a multi-table document is not a single distribution


# ------------------------------------------------------------ reconstruct ---


def test_reconstruct_known_scheme(capsys):
    code, out, err = run(
        capsys, "reconstruct", FIXTURES / "abc_i.json", "--scheme", "A,B|B,C"
    )
    assert code == 0
    doc = parse_document(out)
    np.testing.assert_allclose(
        doc.lower, [0.16, 0.16, 0.0, 0.0, 0.0, 0.0, 0.06, 0.06], atol=1e-9
    )
    np.testing.assert_allclose(
        doc.upper, [0.32, 0.32, 0.12, 0.12, 0.12, 0.12, 0.22, 0.22], atol=1e-9
    )


def test_reconstruct_bad_scheme_syntax(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "reconstruct", FIXTURES / "abc_i.json", "--scheme", "A,|B")
    assert exc.value.code == 2


# ---------------------------------------------------- measures and maxent ---


def test_measure_u0_degenerate(capsys):
    code, out, err = run(capsys, "measure", FIXTURES / "abc_mid.json", "u0")
    assert code == 0
    assert out.strip() == "0.000000000"


def test_measure_u0_interval(capsys):
    code, out, err = run(capsys, "measure", FIXTURES / "abc_i.json", "u0")
    assert code == 0
    assert out.strip() == "0.020000000"


def test_measure_u1_and_u2_run(capsys):
    code, u1_out, _ = run(capsys, "measure", FIXTURES / "abc_i.json", "u1")
    assert code == 0
    code, u2_out, _ = run(capsys, "measure", FIXTURES / "abc_i.json", "u2")
    assert code == 0
    assert float(u2_out) <= float(u1_out) + 1e-9


def test_sum_at_the_tolerance_edge_passes_every_command(capsys, tmp_path):
    # 0.500000001 + 0.5 is 1 + SUM_TOLERANCE in floats, which validate accepts.
    path = tmp_path / "edge.json"
    path.write_text(
        json.dumps(
            {
                "variables": [{"name": "X", "domain": ["x0", "x1"]}],
                "table": {
                    "vars": ["X"],
                    "rows": [
                        {"key": ["x0"], "p": 0.500000001},
                        {"key": ["x1"], "p": 0.5},
                    ],
                },
            }
        )
    )
    assert run(capsys, "validate", path)[:2] == (0, "OK\n")
    code, u1_out, _ = run(capsys, "measure", path, "u1")
    assert code == 0
    assert run(capsys, "measure", path, "u2") == (0, u1_out, "")
    code, out, err = run(capsys, "mvd", path, "--w", "X")
    assert (code, err) == (0, "")


def test_measure_invalid_distribution(capsys):
    code, out, err = run(capsys, "measure", FIXTURES / "bad_lower_gt_upper.json", "u0")
    assert code == 1
    assert "error" in err


def test_distance_between_input_and_reconstruction(capsys, tmp_path):
    code, recon_text, _ = run(
        capsys, "reconstruct", FIXTURES / "abc_i.json", "--scheme", "A,B|B,C"
    )
    assert code == 0
    recon_file = tmp_path / "recon.json"
    recon_file.write_text(recon_text)
    code, out, err = run(capsys, "distance", FIXTURES / "abc_i.json", recon_file)
    assert code == 0
    assert out.strip() == "0.120000000"


def test_distance_refuses_an_invalid_distribution(capsys, tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(
        json.dumps(
            {
                "variables": [{"name": "X", "domain": ["x1", "x2"]}],
                "table": {
                    "vars": ["X"],
                    "rows": [
                        {"key": ["x1"], "p": [0.3, 0.5]},
                        {"key": ["x2"], "p": [0.5, 0.7]},
                    ],
                },
            }
        )
    )
    bad = FIXTURES / "bad_lower_gt_upper.json"
    for pair in ((bad, ok), (ok, bad)):
        code, out, err = run(capsys, "distance", *pair)
        assert (code, out) == (1, "")
        assert err == "error: cell (x1): lower 0.8 > upper 0.2\n"


def test_maxent_fit(capsys):
    code, out, err = run(capsys, "maxent", FIXTURES / "db_d.json")
    assert code == 0
    doc = parse_document(out)
    np.testing.assert_allclose(doc.lower, [0.42, 0.28, 0.18, 0.12], atol=1e-9)
    assert doc.is_degenerate


def test_maxent_of_tables_that_disagree_by_1e9_fails_cleanly(capsys, tmp_path):
    """B's marginal is 0.4 in A,B and 0.4 - 1e-9 in B,C: each table passes
    validate, but no joint has both, so fitting runs to its sweep cap."""
    rows = {
        ("A", "B"): [0.1, 0.2, 0.3, 0.4],
        ("B", "C"): [0.249999999, 0.15, 0.350000001, 0.25],
    }
    tables = [
        {
            "vars": list(names),
            "rows": [
                {"key": [f"{names[0].lower()}{j}", f"{names[1].lower()}{k}"], "p": v}
                for (j, k), v in zip(((1, 1), (1, 2), (2, 1), (2, 2)), p)
            ],
        }
        for names, p in rows.items()
    ]
    variables = [{"name": n, "domain": [f"{n.lower()}1", f"{n.lower()}2"]} for n in "ABC"]
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps({"variables": variables, "tables": tables}))
    assert run(capsys, "validate", path)[:2] == (0, "OK\n")
    code, out, err = run(capsys, "maxent", path)
    assert (code, out) == (1, "")
    assert err == (
        "error: marginal fitting did not converge in 10000 sweeps "
        "(residual deviation 7.500e-10); the tables may be inconsistent\n"
    )


def test_mvd_conditional_independence(capsys):
    code, out, err = run(
        capsys, "mvd", FIXTURES / "abc_mid.json", "--w", "C", "--u", "B"
    )
    assert code == 0
    assert out.strip() == "0.000000000"
    code, out, err = run(
        capsys, "mvd", FIXTURES / "abc_mid.json", "--w", "B", "--u", "C"
    )
    assert code == 0
    assert float(out) > 0.01


def test_mvd_without_conditioning_set(capsys):
    code, out, err = run(capsys, "mvd", FIXTURES / "abc_mid.json", "--w", "B")
    assert code == 0
    assert float(out) >= 0.0


# ------------------------------------------------------------------- rank ---


def test_rank_known_schemes_in_order(capsys):
    code, out, err = run(
        capsys,
        "rank",
        FIXTURES / "abc_i.json",
        "--schemes",
        "A,C|B,C",
        "A,B|B,C",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A,B|B,C\t0.120000000"
    assert lines[1] == "A,C|B,C\t0.210000000"


def test_rank_enumerate_is_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        code, out, err = run(
            capsys, "rank", FIXTURES / "abc_i.json", "--enumerate", "2"
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    only = outputs.pop()
    assert "A,B|B,C\t" in only
    assert "A,C|B,C\t" in only
    losses = [float(line.split("\t")[1]) for line in only.splitlines()]
    assert losses == sorted(losses)


def test_rank_requires_scheme_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "rank", FIXTURES / "abc_i.json")
    assert exc.value.code == 2


@pytest.mark.parametrize("count", ["0", "-3", "two"])
def test_rank_enumerate_count_must_be_positive(capsys, count):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "rank", FIXTURES / "abc_i.json", "--enumerate", count)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ivprob rank")
    assert err.endswith(f"argument --enumerate: expected a positive integer, got {count!r}\n")


# ---------------------------------------------------------------- formats ---


def test_table_format_output(capsys):
    code, out, err = run(
        capsys, "extend", FIXTURES / "db_d.json", "--format", "table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["X", "Y", "p"]
    assert len(lines) == 5
    assert "x1" in lines[1]


def test_json_output_is_parseable_json(capsys):
    code, out, err = run(capsys, "maxent", FIXTURES / "db_d.json")
    payload = json.loads(out)
    assert "table" in payload


@pytest.mark.parametrize("variables, labels", [(10, 10), (30, 10)])
def test_oversized_space_is_refused_before_allocation(capsys, tmp_path, variables, labels):
    # 10 ** 10 cells would need 74.5 GiB per cell array, and 10 ** 30 more than
    # numpy can index: both are refused with exit 1 when the space is declared.
    domain = [f"v{k}" for k in range(labels)]
    doc = {
        "variables": [{"name": f"X{j}", "domain": domain} for j in range(variables)],
        "tables": [{"vars": ["X0"], "rows": [{"key": [v], "p": 1 / labels} for v in domain]}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "extend", "maxent"):
        code, out, err = run(capsys, command, path)
        assert code == 1
        assert out == ""
        assert err.startswith("error: a space of ") and err.endswith("refusing beyond 4096 cells\n")
        assert "Traceback" not in err


BLAS_PROBE = """
import ctypes, sys

def blas_threads():  # read as perfbench/run.py reads it
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return str(getattr(dll, symbol)())
    return "unknown"

import numpy
counts = [blas_threads()]
import ivprob
counts.append(blas_threads())
from ivprob.cli import main
main(["validate", sys.argv[1]])
main(["validate", sys.argv[1]])
counts.append(blas_threads())
print(*counts)
"""


@pytest.mark.parametrize("count", [None, "2"])
def test_cli_runs_one_blas_thread_unless_the_environment_sets_a_count(count):
    if not Path("/proc/self/maps").is_file():
        pytest.skip("no /proc/self/maps to find the BLAS library by")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if count is not None:
        env["OPENBLAS_NUM_THREADS"] = count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, str(FIXTURES / "db_d.json")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    loaded, imported, after_main = done.stdout.split()[-3:]
    if loaded == "unknown":
        pytest.skip("numpy did not load an OpenBLAS")
    assert imported == loaded  # importing the package changes nothing
    assert after_main == (count or "1")


def test_command_sequence_repeats_in_one_process(capsys):
    # The parser is built once per process: no command may leave state in it
    # that changes a later one.
    sequence = [
        ["rank", FIXTURES / "abc_i.json", "--schemes", "A,C|B,C", "A,B|B,C"],
        ["rank", FIXTURES / "abc_i.json", "--enumerate", "2"],
        ["rank", FIXTURES / "abc_i.json"],  # no scheme source: usage error
        ["measure", FIXTURES / "abc_mid.json", "u0"],
        ["extend", FIXTURES / "db_d.json", "--format", "table"],
        ["extend", FIXTURES / "db_d.json"],
    ]

    def outcome(argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in sequence]
    second = [outcome(argv) for argv in sequence]
    assert second == first
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 0]
    assert first[2][2].startswith("usage: ivprob rank")
    assert first[4][1].split()[:3] == ["X", "Y", "p"] and first[5][1].startswith("{")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2


def test_solver_failure_exits_3(capsys, monkeypatch):
    import ivprob.simplex
    from ivprob import SolverError

    def broken(*args, **kwargs):
        raise SolverError("singular basis")

    monkeypatch.setattr(ivprob.simplex, "solve", broken)
    code, out, err = run(capsys, "extend", FIXTURES / "db_i.json")
    assert code == 3
    assert out == ""
    assert err == "error: internal solver failure: singular basis\n"


def test_disjoint_tables_extend_without_the_solver(capsys, monkeypatch):
    # X and Y share no variable, so the envelope is the closed form: no LP runs.
    import ivprob.simplex
    from ivprob import SolverError

    def broken(*args, **kwargs):
        raise SolverError("singular basis")

    monkeypatch.setattr(ivprob.simplex, "solve", broken)
    code, out, err = run(capsys, "extend", FIXTURES / "db_d.json", "--format", "table")
    assert (code, err) == (0, "")
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command = "$ ivprob extend tests/fixtures/db_d.json --format table\n"
    example = readme[readme.index(command) + len(command):]
    assert out == example[: example.index("\n\n") + 1]


def test_bad_last_witness_exits_3(capsys, monkeypatch, kernel_runs):
    assert run(capsys, "extend", FIXTURES / "db_i.json")[0] == 0
    # Breaks the normalization of the last witness only.
    shift_kernel_end(monkeypatch, len(kernel_runs) - 1)
    code, out, err = run(capsys, "extend", FIXTURES / "db_i.json")
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal solver failure: witness violates constraints by ")
