"""The traced benchmark run wraps posheaf functions by name, so every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_benchmark_targets_resolve():
    # run_path compiles from source and writes no bytecode cache into perfbench/
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for module_name, fn_name, _, _ in targets:
        module = importlib.import_module(f"posheaf.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"posheaf.{module_name}.{fn_name}"
