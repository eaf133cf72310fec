"""The benchmark calls slalom by name and signature; each call it makes must still work and pass its check."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def traced_functions() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib imports only
    return [(module, function) for module, function, *_ in tracing.TRACED]


@pytest.mark.parametrize("module, function", traced_functions())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("workload", ["cli", "word-ladder", "braids", "invariants"])
def test_quick_round_passes_its_checks(workload, tmp_path, monkeypatch):
    # the worker and the checks import their siblings by bare name, as run.py starts them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks, inputs, worker = (importlib.import_module(m) for m in ("checks", "inputs", "worker"))
    run_op = {"cli": worker.op_cli_inprocess, "word-ladder": worker.op_ladder,
              "braids": worker.op_braid, "invariants": worker.op_invariant}[workload]
    for op in inputs.round_ops(workload, 1, 0, True, str(tmp_path)):
        _, out = run_op(op)
        assert checks.CHECKS[workload](op, out) is None, op
