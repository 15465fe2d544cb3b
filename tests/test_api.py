"""The names the benchmark tracer wraps and the benchmark's workloads call
must exist in the package.

``perfbench/run.py`` lists the traced names as ``"module.name"`` strings in
``TRACED``, and ``perfbench/workloads.py`` calls into cohcp only through
module attributes such as ``decompose.constrained_als``; a rename that
misses them would break the benchmark only when it runs.  Both files are
read with ``ast``, so neither is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


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


def workload_attributes() -> list:
    """``module.name`` for every attribute that ``workloads.py`` reads from
    the cohcp modules it binds at module level."""
    tree = ast.parse(WORKLOADS_PY.read_text())
    modules = next(
        {elt.id for elt in node.targets[0].elts} for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
        and "importlib.import_module" in ast.unparse(node.value))
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_workloads_bind_eight_modules_and_read_their_kernels():
    names = workload_attributes()
    assert {name.partition(".")[0] for name in names} == {
        "cli", "coherence", "conditions", "core", "decompose", "htns", "norms", "simulate"}
    assert {"decompose.constrained_als", "core.essentially_equal", "norms.NormConfig"} <= set(names)


@pytest.mark.parametrize("name", workload_attributes())
def test_workload_attribute_resolves(name):
    module, _, attr = name.partition(".")
    mod = importlib.import_module(f"cohcp.{module}")
    assert hasattr(mod, attr), f"cohcp.{module} has no {attr}"
