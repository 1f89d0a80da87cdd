"""The benchmark's tracer wraps public rainbowfree names by ``getattr``; a
renamed or deleted one would crash every traced benchmark run."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # executed from its source text, so nothing is written under perfbench/
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_traced_names_resolve():
    tracer = _load_tracer()
    missing = [
        f"{layer}.{name}"
        for layer, names in {**tracer.LAYERS, **tracer.TOTAL_ONLY}.items()
        for name in names
        if not hasattr(importlib.import_module(f"rainbowfree.{layer}"), name)
    ]
    assert tracer.LAYERS and not missing
