"""The names the benchmark tracer wraps must exist in the package.

``perfbench/run.py`` lists them as ``"module.name"`` strings in ``TRACED``;
a rename that misses them would break the tracer only when the benchmark
runs.  The tuple is read with ``ast`` so the harness is never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_names() -> tuple:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {RUN_PY}")


def test_traced_tuple_is_nonempty():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves_to_callable(name):
    module, _, attr = name.partition(".")
    # cohcp re-exports some functions under their module's name
    # (cohcp.coherence), so the module comes from the import system
    mod = importlib.import_module(f"cohcp.{module}")
    assert callable(getattr(mod, attr, None)), f"cohcp.{module} has no callable {attr}"
