"""List the mutants of named cohcp functions that a test selection misses.

Run from the repository root::

    python3 benchmarks/mutate.py decompose _certified _row_margin _solve_gram \\
        --tests tests/test_decompose.py

Inside the named functions of ``src/cohcp/<module>.py`` it makes one mutant
per comparison operator (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=`` swap) and one per numeric constant 0, 1 or 2 (raised by one).  Each
mutant is written, through ``ast.unparse``, into a copy of ``src`` in a
temporary directory, so the checkout is never edited; the test selection
then runs with ``pytest -x`` against that copy.  A mutant survives when the
selection passes.  The unmutated module goes through ``ast.unparse`` and the
selection first, and must pass.

A survivor that changes a predicate needs a test at its boundary; one that
cannot change any result (an equivalent mutant) is listed with its reason.
The selection runs once per mutant, so choose a fast one.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!="}
TIMEOUT = 300.0  # seconds; a mutant that hangs the selection counts as caught


def sites(tree: ast.Module, functions: set) -> list:
    """(function, node, operator index or None) for every mutable site."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    found += [(fn.name, node, i) for i, op in enumerate(node.ops)
                              if type(op) in SWAPS]
                elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                      and node.value in (0, 1, 2)):
                    found.append((fn.name, node, None))
    return found


def mutate(node: ast.AST, index: int | None) -> str:
    """Apply one mutation in place and describe it."""
    if index is None:
        old = node.value
        node.value = old + 1
        return f"constant {old!r} -> {node.value!r}"
    old = type(node.ops[index])
    node.ops[index] = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def passes(source: str, module: str, tests: list, scratch: Path) -> bool:
    (scratch / "src" / "cohcp" / f"{module}.py").write_text(source)
    # no bytecode cache: two mutants of one size written within a second
    # would otherwise share the first one's cached .pyc
    env = dict(os.environ, PYTHONPATH=str(scratch / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                              "no:cacheprovider", *tests], cwd=ROOT, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module of src/cohcp, without .py")
    parser.add_argument("functions", nargs="+", help="functions to mutate")
    parser.add_argument("--tests", nargs="+", required=True, help="pytest selection")
    args = parser.parse_args(argv)
    path = ROOT / "src" / "cohcp" / f"{args.module}.py"
    tree = ast.parse(path.read_text())
    count = len(sites(tree, set(args.functions)))
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        shutil.copytree(ROOT / "src", scratch / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if not passes(ast.unparse(tree), args.module, args.tests, scratch):
            print("the unmutated module fails the selection", file=sys.stderr)
            return 2
        for i in range(count):
            mutant = copy.deepcopy(tree)
            fn, node, index = sites(mutant, set(args.functions))[i]
            label = f"{args.module}.py:{node.lineno} {fn}: {mutate(node, index)}"
            alive = passes(ast.unparse(mutant), args.module, args.tests, scratch)
            print(f"{'SURVIVED' if alive else 'killed  '} {label}", flush=True)
            if alive:
                survivors.append(label)
    print(f"{len(survivors)} of {count} mutants survived")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
