"""The library names that the benchmark's per-layer tracer wraps exist.

``perfbench/tracer.py`` wraps functions and ``Store`` methods by name, so a
rename or a removal in ``src/aobs`` would otherwise show only when a traced
benchmark runs.  The tracer is loaded from its file as it is.
"""
import importlib.util
from pathlib import Path

import aobs
from aobs import core

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_functions_and_methods_exist():
    tracer = _load_tracer()
    assert tracer._FUNCTIONS and tracer._METHODS
    missing = [f"{home.__name__}.{attr}"
               for home, attr, _, _ in tracer._FUNCTIONS
               if not callable(getattr(home, attr, None))]
    missing += [f"Store.{attr}" for attr in tracer._METHODS
                if not callable(getattr(core.Store, attr, None))]
    assert missing == []


def test_public_names_resolve():
    assert [name for name in aobs.__all__ if not hasattr(aobs, name)] == []
