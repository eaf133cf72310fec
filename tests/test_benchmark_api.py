"""The benchmark's tracer wraps slalom's public functions by name; each one it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_functions() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib imports only
    return [(module, function) for module, function, *_ in tracing.TRACED]


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
