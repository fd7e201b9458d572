"""Benchmark of the ivprob command line on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rank-schemes --seed 1 --seconds 50 --trace 0

Each workload (see ``workloads.py``) is a fixed op sequence made from the
seed.  One caller runs it in a closed loop through ``ivprob.cli.main(argv)``
in this process, with stdout captured: the next command starts when the
previous one returns.  The sequence runs again, on the same documents, while
another pass still fits in ``--seconds``, and always until at least 100 ops
are timed.  ``wall_s`` is the median pass wall time, and ``op_p50_ms`` and
``op_p90_ms`` are taken over the op latencies of every untraced pass.

Outputs are checked outside the timed region (``reference.py``), and the
last line of stdout is one JSON object.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer split (``spans.py``).  ``--workload all`` runs every
workload in its own process.

BLAS runs one thread unless OPENBLAS_NUM_THREADS says otherwise: on two
cores default threading was both slower and noisier.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads BLAS

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
MIN_OPS = 100  # timed ops per run, so ten samples lie beyond p90
CHECK_WORKERS = 2  # checking runs after timing, so it may use both cores of a 2-core host
IMPORT_PROBE = "import time; t = time.perf_counter(); import ivprob; print(time.perf_counter() - t)"


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        libs = []
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return str(getattr(dll, symbol)())
    return "unknown"


def import_seconds() -> float:
    """Time to import ivprob, measured inside a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def setup(workload: str, seed: int, docdir: Path):
    """Generate and write the documents; return (ops, setup seconds, repeatable)."""
    docdir.mkdir(parents=True, exist_ok=True)
    times, texts = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        ops = workloads.generate(workload, seed)
        written = {}
        for doc in workloads.documents(ops).values():
            written[doc.name] = doc.text()
            (docdir / doc.path).write_text(written[doc.name])
        times.append(imported + time.perf_counter() - start)
        texts.append(written)
    return ops, statistics.median(times), all(t == texts[0] for t in texts)


def run_pass(cli, argvs):
    """One closed-loop pass: (wall seconds, per-op seconds, per-op (exit, stdout))."""
    latencies, outcomes = [], []
    sink = io.StringIO()
    begin = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # an error the CLI let escape
                code = type(exc).__name__
            latencies.append(time.perf_counter() - start)
        outcomes.append((code, out.getvalue()))
    return time.perf_counter() - begin, latencies, outcomes


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for code, stdout in outcomes:
        h.update(f"{code}\n{stdout}\0".encode())
    return h.hexdigest()


def failure_kind(cli, argv, code) -> str:
    """Name the exception behind a non-zero exit by running the command again.

    The CLI maps exceptions to exit codes itself, so this goes one level
    down, to the parser's handler; without that private hook only the exit
    code is named.
    """
    if isinstance(code, str):
        return f"raised:{code}"
    build = getattr(cli, "_build_parser", None)
    if build is None:
        return f"exit{code}"
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = build().parse_args(argv)
            args.func(args)
    except Exception as exc:
        return f"exit{code}:{type(exc).__name__}"
    return f"exit{code}"


def code_id() -> str:
    """Hash of the program and benchmark sources, so records compare like with like."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def remember(key: str, record: dict) -> bool:
    """Compare ``record`` with the one stored for ``key`` by an earlier run of the same code."""
    path = WORK / "records.json"
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = {}
    previous = records.setdefault(key, {})
    same = all(previous.get(k, v) == v for k, v in record.items())
    previous.update(record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
    tmp.replace(path)
    return same


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def closed_loop(cli, argvs, seconds: float, trace: bool):
    """Run passes while another one fits in ``seconds``.

    At least enough untraced passes run to time MIN_OPS ops.  When tracing,
    passes alternate untraced / traced, and at least one is traced.
    Returns wall seconds by traced flag, untraced op latencies, the tracers
    and every pass's outcomes.
    """
    from spans import Tracer

    walls = {False: [], True: []}
    latencies, tracers, outcomes = [], [], []
    begin = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, lat, out = run_pass(cli, argvs)
        finally:
            if tracer:
                tracer.uninstall()
        walls[traced].append(wall)
        outcomes.append(out)
        if tracer:
            tracers.append(tracer)
        else:
            latencies += lat
        elapsed = time.perf_counter() - begin
        enough = len(walls[False]) * len(argvs) >= MIN_OPS and (not trace or walls[True])
        if enough and elapsed + wall > seconds:
            return walls, latencies, tracers, outcomes


def reference_mismatches(items) -> Counter:
    """Mismatch kinds of ``(op, stdout)`` pairs, by one :class:`Reference`."""
    from reference import Reference

    ref = Reference()
    return Counter(f"mismatch:{m}" for op, stdout in items if (m := ref.check(op, stdout)))


def check(cli, ops, argvs, outcomes, docdir: Path):
    """Failures by kind for one pass, and the documents ``validate`` rejects.

    The reference results are computed in CHECK_WORKERS forked processes,
    each given whole documents so its per-document cache still serves
    every op on them.  Fork, because this process runs no threads of its
    own, and a spawn pool would leave a resource-tracker process behind
    that outlives the run.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    kinds = Counter()
    shares = [[] for _ in range(CHECK_WORKERS)]
    owner = {}
    for op, argv, (code, stdout) in zip(ops, argvs, outcomes):
        if code != 0:
            kinds[failure_kind(cli, argv, code)] += 1
        else:
            share = owner.setdefault(op.docs[0].name, len(owner) % CHECK_WORKERS)
            shares[share].append((op, stdout))
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=multiprocessing.get_context("fork")) as pool:
        for found in pool.map(reference_mismatches, shares):
            kinds += found
    invalid = [
        doc.name for doc in workloads.documents(ops).values()
        if run_pass(cli, [["validate", str(docdir / doc.path)]])[2][0] != (0, "OK\n")
    ]
    return kinds, invalid


def trace_metrics(tracers, walls):
    """Per-layer metrics (medians over traced passes), the counts, and a report line."""
    from spans import COUNTS

    per_pass = [t.metrics() for t in tracers]
    counts = {k: per_pass[0][k] for k in COUNTS}
    repeat = all({k: m[k] for k in COUNTS} == counts for m in per_pass)
    metrics = {
        name: (statistics.median(m[name] for m in per_pass), COUNTS.get(name, "s"))
        for name in per_pass[0] if name != "extension.endpoints"
    }
    lp = counts["extension.box_lp_calls"] + counts["extension.db_lp_calls"]
    metrics["extension.lp_per_endpoint"] = (lp / max(counts["extension.endpoints"], 1), "ratio")
    traced_wall = statistics.median(walls[True])
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls[False]), "s")
    self_sum = sum(v for k, (v, u) in metrics.items() if u == "s" and k != "trace.overhead_s")
    line = (f"traced wall_s {traced_wall:.4f}  layer self-time sum {self_sum:.4f}"
            f" ({100 * self_sum / traced_wall:.1f}%)  counts repeat across traced passes: {repeat}")
    return metrics, counts, repeat, line


def run(args) -> int:
    if not (SRC / "ivprob" / "__init__.py").is_file():
        print(f"error: no ivprob sources under {SRC}", file=sys.stderr)
        return 2
    docdir = WORK / f"docs-{args.workload}-{args.seed}"
    ops, setup_s, repeatable = setup(args.workload, args.seed, docdir)
    argvs = [op.argv(str(docdir)) for op in ops]

    sys.path.insert(0, str(SRC))
    import numpy
    from ivprob import cli

    walls, latencies, tracers, outcomes = closed_loop(cli, argvs, args.seconds, args.trace == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is outside the timed region.  Passes share one digest
    # when they printed the same bytes, so checking the first checks them all.
    digests = {digest(out) for out in outcomes}
    run_digest = min(digests) if len(digests) == 1 else "differs-between-passes"
    kinds, invalid = check(cli, ops, argvs, outcomes[0], docdir)
    mismatches = sum(n for k, n in kinds.items() if k.startswith("mismatch:"))
    attempted = len(outcomes) * len(ops)
    failed = len(outcomes) * sum(kinds.values())

    lines = [
        f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  passes {len(outcomes)}"
        f"  closed loop, 1 caller, 1 process",
        f"env python {platform.python_version()}  numpy {numpy.__version__}"
        f"  blas_threads {blas_threads()}  nproc {os.cpu_count()}",
        f"output sha256 {run_digest}",
        f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})"
        + "".join(f"  {k}={n}" for k, n in sorted(kinds.items())),
    ]
    record = {"digest": run_digest}
    counts_repeat = True
    if args.trace == 0:
        p50, p90 = statistics.median(latencies), quantile(latencies, 90)
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines.append(f"latency samples {len(latencies)}, beyond p90 "
                     f"{sum(x > p90 for x in latencies)}")
    else:
        metrics, record["counts"], counts_repeat, line = trace_metrics(tracers, walls)
        lines.append(line)
        with gzip.open(WORK / f"trace-{args.workload}-{args.seed}.json.gz", "wt") as out:
            json.dump([t.spans for t in tracers], out)
    same_as_before = remember(f"{code_id()}/{args.workload}/{args.seed}/{args.trace}", record)

    if not repeatable:
        lines.append("error: the seed did not give identical documents")
    if invalid:
        lines.append(f"error: documents rejected by validate: {invalid}")
    if not same_as_before:
        lines.append("error: digest or counts differ from an earlier run of this seed")
    correct = (repeatable and not invalid and mismatches == 0 and len(digests) == 1
               and counts_repeat and same_as_before)
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run(args)
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
