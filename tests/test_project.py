"""Checks on the project as a whole: the demos run, and src/ holds no assert.

Invariants in the package must hold under ``python -O``, which strips
``assert`` statements, so they raise typed errors instead; the lint below
keeps it that way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import completeforms

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
