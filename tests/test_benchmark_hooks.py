"""The benchmark tracer's hook points must still name real attributes.

``perfbench/tracer.py`` skips a wrapped name that has gone missing, and
the per-layer metrics built on it then read 0 without any error. These
checks fail instead when a rename or deletion in ``src/`` drops a hook.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Hooked by the counting pass and by the FeasibilityGraph span, outside
# SPAN_POINTS.
COUNTER_POINTS = (
    ("sstap.policy", "eval_f"),
    ("sstap.policy", "assign_next"),
    ("sstap.dsstap", "_exact_prob"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_points():
    return [(module, attr) for _name, module, attr in load_tracer().SPAN_POINTS]


@pytest.mark.parametrize("module_name,attr", span_points() + list(COUNTER_POINTS))
def test_hook_point_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get(attr)), f"{module_name}.{attr} is gone"


def test_feasibility_graph_build_resolves():
    from sstap.oracle import FeasibilityGraph

    assert callable(FeasibilityGraph.__dict__["build"].__func__)
