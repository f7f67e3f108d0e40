"""Every function the benchmark tracer wraps exists under its traced name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_keys() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.TRACED)


@pytest.mark.parametrize("key", _traced_keys())
def test_traced_function_resolves(key):
    module, function = key.split(".")
    assert callable(getattr(importlib.import_module(f"arithring.{module}"), function))
