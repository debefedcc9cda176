"""Every function the benchmark tracer wraps still exists in the package.

``perfbench/tracing.py`` names the traced functions as strings; a rename in
``src`` would otherwise surface only when the benchmark runs.  The module is
loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    traced = _load_tracing(monkeypatch).TRACED
    assert traced
    for module_name, attr, _ in traced:
        module = importlib.import_module(f"cuspidal.{module_name}")
        target = reduce(getattr, attr.split("."), module)
        assert callable(target), (module_name, attr)
