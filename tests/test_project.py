"""Checks on the project as a whole: the demos run, and four lints on src/.

Invariants in the package must hold under ``python -O``, which strips
``assert`` statements, so they raise typed errors instead; the first lint
keeps it that way.  Everything the catalog knows per space kind lives in its
kind table and model builders, so ``spaces`` never tests a kind's class; the
second lint keeps it that way.  The finite-field checks walk the matrices in
two places only, the census and the one walk behind both lemma checks; the
third lint keeps it that way.  Only that enumeration needs numpy, so the
fourth lint keeps numpy out of every other module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import completeforms
from completeforms import spaces

PACKAGE = Path(completeforms.__file__).parent
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # chamber_decompositions.py writes an SVG into the working directory
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_the_demos_are_found():
    assert len(DEMOS) == 5


def test_no_assert_in_the_package():
    found = [
        "%s:%d" % (module.name, node.lineno)
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_spaces_never_dispatches_on_a_kind_class():
    kinds = {cls.__name__ for cls in spaces._KINDS}
    tree = ast.parse(Path(spaces.__file__).read_text(encoding="utf-8"))
    found = [
        "spaces.py:%d" % node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("isinstance", "issubclass")
        and kinds & {name.id for name in ast.walk(node.args[1]) if isinstance(name, ast.Name)}
    ]
    assert len(kinds) == 7
    assert found == []


def test_matrices_are_walked_only_by_the_census_and_the_split_tally():
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(module.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and "_chunks" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.add("%s.%s" % (module.stem, getattr(statement, "name", "<module>")))
    assert found == {"determinantal.rank_census", "determinantal._split_tallies"}


def test_only_the_enumeration_imports_numpy():
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.add(module.stem)
    assert found == {"determinantal"}
