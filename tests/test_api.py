"""The names the benchmark tracer wraps and the layer rows import must
exist in the package.

``perfbench/run.py`` lists them as ``"module.name"`` strings in ``TRACED``,
and ``benchmarks/test_layers.py`` imports private kernels by name; a rename
that misses them would break either only when the benchmark runs.  Both
files are read with ``ast``, so neither is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
LAYERS_PY = ROOT / "benchmarks" / "test_layers.py"


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


def layer_imports() -> list:
    """``module.name`` for every name ``from cohcp.<module> import ...``
    brings into the layer rows."""
    return [f"{node.module.removeprefix('cohcp.')}.{alias.name}"
            for node in ast.walk(ast.parse(LAYERS_PY.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module.startswith("cohcp.")
            for alias in node.names]


def test_layer_rows_import_private_kernels():
    names = layer_imports()
    assert {"decompose._init_factors", "decompose._mode_solve",
            "norms._exact_fit", "simulate._refine_directions"} <= set(names)


@pytest.mark.parametrize("name", layer_imports())
def test_layer_import_resolves(name):
    module, _, attr = name.partition(".")
    mod = importlib.import_module(f"cohcp.{module}")
    assert hasattr(mod, attr), f"cohcp.{module} has no {attr}"
