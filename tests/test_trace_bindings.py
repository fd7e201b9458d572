"""The benchmark's tracer wraps ivprob functions by name; every name must resolve.

``perfbench/spans.py`` looks each entry of ``LAYERS`` up with ``getattr``, so a
renamed function breaks ``perfbench/run.py --trace 1`` and nothing else.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_name_resolves():
    missing = []
    count = 0
    for layer, names in _layers().items():
        module = importlib.import_module(f"ivprob.{layer}")
        for name in names:
            count += 1
            owner = module
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{layer}.{name}")
    assert missing == []
    assert count == 37
