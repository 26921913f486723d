"""Checks on the project as a whole: the demos, the README's Python examples
and the package's docstring examples run, and sixteen lints on src/.

Invariants in the package must hold under ``python -O``, which strips
``assert`` statements, so they raise typed errors instead; the first lint
keeps it that way.  Everything the catalog knows per space kind lives in its
kind table and model builders, so ``spaces`` never tests a kind's class; the
second lint keeps it that way.  The finite-field checks walk the matrices in
two places only, the census and the one walk behind both lemma checks, each
with the F_2 walk or the odd-q walk (over odd q the census walks in the
odd-q tally it calls); the third lint keeps it that way.  Only the odd-q
kernel needs numpy, so the fourth lint keeps numpy out of every module but
``_odd_q``, and the fifth keeps every module but ``determinantal``, which
loads numpy at import on purpose, from importing ``_odd_q`` or
``determinantal`` when it is itself imported.  In
``cones`` only the spanned hyperplanes and the basis cones come from subsets
of vectors; every other cone is cut from one it already has, and the sixth
lint keeps it that way.  The command line reads what it shows of a space off
one model, whose secant ``spaces`` evaluates, so it reads no private name of
``spaces`` but the kind table; the seventh lint keeps it that way.  Which
values count as an int and which as a rational is decided in ``lattice``
alone, by its int rule and its rational rule; the eighth lint keeps every
other module from testing a value against ``bool`` or ``float`` itself.
The form-space color classes ``D<i>`` are written by one rule,
``spaces._fibration_tower``; the ninth lint keeps the four model builders
(one for every tower, C, secS, Q and secV, with the shape half it shares
with the twins, and one per mapping space) from writing any themselves.  A
mapping space isomorphic to a form space (its twin) is that space renamed,
so its builder writes only its class coordinates, -K and dictionary, and
``spaces`` reads the rest off the form space's shape with the label rule,
without running the fibration rule; the tenth lint keeps the twin builders
from restating any of it.  Every
record is a dataclass over ``lattice._Record``, declared with no generated
method, because generating six methods for each of two dozen frozen
dataclasses was most of what a command line call spent importing the
package; the eleventh lint keeps every dataclass in src/ on that base,
declared the one generic way, with no generated ``__init__`` either (no
record is built often enough to need one: a generated ``__init__`` costs
more import time than it saves in a catalog pass).  For the same
reason the command line imports neither the symbolic minors nor the
enumeration (nor numpy) until a check needs them, which a fresh
interpreter checks; ``determinantal`` itself loads numpy at import and
defines its three checks as its own functions, which a fresh interpreter
checks too.  A census walks a tall format as its transpose, so it
ranks rows alone; only the split flags behind the lemma checks, which keep
each matrix's index, take the columns of a chunk, and the twelfth lint keeps
it that way.  Over F_2 the enumeration runs on Python ints, and the
thirteenth lint follows every F_2 code path from the public functions of
``determinantal`` into ``_enumeration``, through the preconditions each walk
checks first (format, budget, primality), and keeps it from naming numpy or
the odd-q kernel.  The cones, fans and models are memoised for the life of the
process, so the fourteenth lint keeps every ``functools`` memo a bounded
``lru_cache``.  A chamber complex builds its basis cones from the one kernel normal
of each (d - 1)-subset it has already computed for its hyperplanes, so the
fifteenth lint keeps ``_chamber_complex`` calling ``cone_from_rays`` once,
for the support.  A tower's basis, -K, colors and top boundary class are
written by one fibration rule, and its rank, its boundary, color, effective,
nef and moving labels and its stated chamber count by one label rule; both
read the one shape record of ``spaces._tower``.  Only the tower builder
calls the fibration rule, and only its shape half, which ``_spec`` also
calls for a twin, calls the label rule; the sixteenth lint keeps the two
halves from writing any of it themselves.
"""

import ast
import dataclasses
import doctest
import importlib
import itertools
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import completeforms
from completeforms import cones, lattice, spaces

PACKAGE = Path(completeforms.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_the_readme_python_examples_run_and_show_their_values():
    """Runs every ``python`` block of the README; ``expr  # literal`` lines must hold."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    shown = []
    for block in blocks:
        comments = {
            token.start[0]: token.string[1:].strip()
            for token in tokenize.generate_tokens(io.StringIO(block).readline)
            if token.type == tokenize.COMMENT
        }
        namespace: dict = {}
        for statement in ast.parse(block).body:
            if not isinstance(statement, ast.Expr):
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            try:
                expected = ast.literal_eval(comments.get(statement.lineno, ""))
            except (ValueError, SyntaxError):
                continue
            assert value == expected, ast.unparse(statement)
            shown.append(expected)
    assert len(blocks) == 2
    assert shown == [11, 3, "Z", 5, "FANO"]


def test_the_package_docstring_examples_run():
    """``testpaths`` collects tests/ only, so the ``>>>`` examples in src/ run here."""
    attempted = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "completeforms" if path.stem == "__init__" else "completeforms." + path.stem
        module = importlib.import_module(name)
        assert doctest.testmod(module).failed == 0, path.name
        attempted.update(t.name for t in doctest.DocTestFinder().find(module) if t.examples)
    assert attempted >= {
        "completeforms.cones.primitive_vector",
        "completeforms.lattice.IntegerMatrix.determinant",
        "completeforms.lattice.cokernel",
    }


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


def callers(name):
    """The top-level definitions in src/ that call ``name``, as ``module.definition``."""
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(module.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    found.add("%s.%s" % (module.stem, getattr(statement, "name", "<module>")))
    return found


def test_matrices_are_walked_only_by_the_census_and_the_split_tally():
    """Over F_2 both walk in ``_enumeration``; over odd q the census walks in
    the odd-q tally it calls, and only there."""
    assert callers("_f2_walk") == {"_enumeration.rank_census", "_enumeration._split_tallies"}
    assert callers("_walk") == {"_odd_q._rank_tallies", "_enumeration._split_tallies"}
    assert callers("_rank_tallies") == {"_enumeration.rank_census"}


def test_one_odd_q_kernel_serves_the_census_and_the_split():
    """The census tallies the kernel sizes directly, and the split's flags read
    ranks off them; neither has a Gray walk of its own."""
    assert callers("_kernel_sizes") == {"_odd_q._ranks", "_odd_q._rank_tallies"}
    assert callers("_ranks") == {"_odd_q._flags"}
    assert callers("_gray_steps") == {"_enumeration._f2_kernels", "_odd_q._kernel_sizes"}


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
    assert found == {"_odd_q"}


def test_no_module_imports_the_enumeration_when_it_is_imported():
    """The odd-q kernel ``_odd_q`` loads numpy, and so does ``determinantal``,
    which imports it at load on purpose; every other module imports either
    inside a function, if at all."""
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        pending = list(ast.parse(module.read_text(encoding="utf-8")).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    "%s.%s" % (node.module or "", alias.name) for alias in node.names
                ]
            else:
                pending.extend(ast.iter_child_nodes(node))
                continue
            if any(name.split(".")[-1] in ("determinantal", "_odd_q") for name in names):
                found.add(module.stem)
    assert found == {"determinantal"}


def test_cones_takes_subsets_only_for_hyperplanes_and_basis_cones():
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        elif isinstance(node, ast.Assign):
            where = where + tuple(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Name) and node.id == "combinations":
            found.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(Path(cones.__file__).read_text(encoding="utf-8")), ())
    assert sorted(found) == ["_chamber_complex.basis_cones", "_spanned_hyperplanes"]


def test_the_cli_reads_no_private_name_of_spaces_but_the_kind_table():
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "spaces":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("spaces"):
            names.update(alias.name for alias in node.names)
    assert sorted(name for name in names if name.startswith("_")) == ["_KINDS"]


def test_only_lattice_tests_a_value_against_bool_or_float():
    """The int rule and the rational rule have one home; other modules call them."""
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "isinstance",
                "issubclass",
            ):
                tested = node.args[1:]
            elif isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and getattr(side.func, "id", None) == "type"
                for side in [node.left, *node.comparators]
            ):
                tested = [node.left, *node.comparators]
            else:
                continue
            names = {name.id for side in tested for name in ast.walk(side) if isinstance(name, ast.Name)}
            if names & {"bool", "float"}:
                found.add(module.stem)
    assert found == {"lattice"}


def test_model_builders_leave_the_colors_to_the_color_rule():
    builders = {entry.model.__name__ for entry in spaces._KINDS.values()} | {"_tower_spec"}
    found = []
    for builder in ast.parse(Path(spaces.__file__).read_text(encoding="utf-8")).body:
        if not (isinstance(builder, ast.FunctionDef) and builder.name in builders):
            continue
        found += [
            "%s:%d" % (builder.name, key.lineno)
            for node in ast.walk(builder)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and re.fullmatch(r"D\d+", str(key.value))
        ]
    assert len(builders) == 5  # four builders and the tower builder's shape half
    assert found == []


def test_twin_builders_restate_nothing_of_their_form_space():
    builders = {entry.model.__name__ for entry in spaces._KINDS.values() if entry.twin is not None}
    restated = {"dimension", "rank", "stated", "automorphisms", "boundary", "colors", "eff", "nef",
                "mov"}

    def written_keys(node):
        if isinstance(node, ast.Call):
            return [keyword.arg for keyword in node.keywords]
        if isinstance(node, ast.Dict):
            return [key.value for key in node.keys if isinstance(key, ast.Constant)]
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return [getattr(node.slice, "value", None)]
        return []

    found = [
        "%s:%d:%s" % (builder.name, node.lineno, key)
        for builder in ast.parse(Path(spaces.__file__).read_text(encoding="utf-8")).body
        if isinstance(builder, ast.FunctionDef) and builder.name in builders
        for node in ast.walk(builder)
        for key in written_keys(node)
        if key in restated
    ]
    assert sorted(builders) == ["_kontsevich_p_model", "_kontsevich_pxp_model"]
    assert found == []


def test_importing_the_cli_loads_no_minors_no_enumeration_and_no_numpy():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, completeforms.cli; "
        "print(sorted(m for m in ('completeforms.polynomials', 'completeforms.determinantal', "
        "'completeforms._enumeration', 'completeforms._odd_q', 'numpy') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_public_enumeration_module_loads_numpy_and_defines_its_checks():
    """``determinantal`` loads numpy when it is imported, so a process that
    imports it once and runs many checks pays for numpy there and not in its
    first odd-q check; and its three checks are its own functions, not
    re-exports of ``_enumeration``, so a tracer that wraps a module's own
    functions wraps them."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "before = 'numpy' in sys.modules\n"
        "import completeforms.determinantal as d\n"
        "print(before, 'numpy' in sys.modules, sorted({f.__module__ for f in "
        "(d.rank_census, d.verify_rank_minor_lemma, d.verify_component_split)}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False True ['completeforms.determinantal']"


def test_every_dataclass_is_a_record_declared_without_generated_methods():
    declared = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    if "dataclass" in ast.unparse(decorator):
                        declared["%s.%s" % (module.stem, node.name)] = ast.unparse(decorator)
    generic = "dataclass(init=False, repr=False, eq=False)"
    assert sorted(name for name, how in declared.items() if how != generic) == []
    for name in declared:
        stem, cls = name.split(".")
        record = getattr(importlib.import_module("completeforms." + stem), cls)
        assert issubclass(record, lattice._Record), name
        # the base's methods read __dataclass_fields__ as the list of fields
        assert list(record.__dataclass_fields__) == [f.name for f in dataclasses.fields(record)]
        # without its own docstring @dataclass would build one from the signature
        assert record.__doc__ and not record.__doc__.startswith(cls + "("), name
    assert len(declared) == 26


# the two modules of the enumeration: the numpy-free walks, F_2 engine and
# checks, and the odd-q kernel, the one module that imports numpy
ENUMERATION = ("_enumeration", "_odd_q")


def test_only_the_split_flags_take_the_columns_of_a_chunk():
    """A transpose is ``swapaxes`` of a digit array, or ``zip(*entries)`` of the
    ints of an F_2 chunk; only the two engines' split flags take one."""
    found = set()
    for stem in ENUMERATION:
        tree = ast.parse((PACKAGE / (stem + ".py")).read_text(encoding="utf-8"))
        for function in tree.body:
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) == "swapaxes"
                    or getattr(node.func, "id", None) == "zip"
                    and any(isinstance(arg, ast.Starred) for arg in node.args)
                ):
                    found.add("%s.%s" % (stem, function.name))
    assert found == {"_odd_q._flags", "_enumeration._f2_flags"}


def test_no_f2_code_path_of_the_enumeration_names_numpy():
    """From the public functions of ``determinantal``, follows every function
    of ``determinantal`` and ``_enumeration`` they name (a bare name in its
    own module, or ``_enumeration.<name>``), transitively, skipping the odd-q
    side of each ``if q == 2``: nothing on that F_2 path may name ``np`` or
    the odd-q module ``_odd_q``, nor import numpy or ``_odd_q``."""
    functions = {}
    for stem in ("determinantal", "_enumeration"):
        tree = ast.parse((PACKAGE / (stem + ".py")).read_text(encoding="utf-8"))
        functions.update(
            {(stem, node.name): node for node in tree.body if isinstance(node, ast.FunctionDef)}
        )

    def f2_nodes(node):
        yield node
        if isinstance(node, ast.If) and ast.unparse(node.test) == "q == 2":
            children = [node.test, *node.body]
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            yield from f2_nodes(child)

    def named(node, stem):
        if isinstance(node, ast.Name):
            return stem, node.id
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_enumeration":
            return "_enumeration", node.attr
        return None

    public = [("determinantal", name) for name in ("rank_census", "verify_rank_minor_lemma",
                                                    "verify_component_split")]
    pending, reached, found = list(public), set(public), []
    while pending:
        stem, name = pending.pop()
        for node in f2_nodes(functions[stem, name]):
            if isinstance(node, ast.Name) and node.id in ("np", "_odd_q"):
                found.append("%s:%d" % (stem, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[0] in ("numpy", "_odd_q") for alias in node.names
            ):
                found.append("%s:%d" % (stem, node.lineno))
            target = named(node, stem)
            if target in functions and target not in reached:
                reached.add(target)
                pending.append(target)
    assert {"%s.%s" % key for key in reached} == {
        "determinantal.rank_census", "determinantal.verify_rank_minor_lemma",
        "determinantal.verify_component_split", "_enumeration.rank_census",
        "_enumeration.verify_rank_minor_lemma", "_enumeration.verify_component_split",
        "_enumeration._split_tallies", "_enumeration._f2_walk", "_enumeration._f2_kernels",
        "_enumeration._f2_flags", "_enumeration._gray_steps", "_enumeration._positions",
        "_enumeration._matrix", "_enumeration._census_preconditions",
    }
    assert found == []


def test_every_memo_in_the_package_is_a_bounded_lru_cache():
    """A memo keyed on a caller's input lives as long as the process, so it
    is an ``lru_cache`` with a given ``maxsize``.  Every name of a ``functools`` memo is a decorator, so none is applied
    by a call."""
    memo_names = {"cache", "lru_cache", "cached_property"}

    def named(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def bounded(decorator):
        if not isinstance(decorator, ast.Call) or named(decorator) != "lru_cache":
            return False
        sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
        return bool(sizes) and not (isinstance(sizes[0], ast.Constant) and sizes[0].value is None)

    memos, uses, decorators = {}, 0, 0
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and named(node) in memo_names:
                uses += 1
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    if named(decorator) in memo_names:
                        decorators += 1
                        memos["%s.%s" % (module.stem, node.name)] = bounded(decorator)
    assert uses == decorators
    assert sorted(name for name, ok in memos.items() if not ok) == []
    assert sorted(name for name, ok in memos.items() if ok) == [
        "cones._chamber_complex", "cones._cone", "spaces._model",
    ]


def test_the_chamber_complex_enumerates_only_its_support():
    """Basis cones are built from the normal table; ``cone_from_rays`` builds the support once."""
    tree = ast.parse(Path(cones.__file__).read_text(encoding="utf-8"))
    body = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_chamber_complex"
    )

    def enumerates(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cone_from_rays"

    assigned = [
        [t.id for t in node.targets]
        for node in ast.walk(body)
        if isinstance(node, ast.Assign) and any(map(enumerates, ast.walk(node.value)))
    ]
    assert sum(map(enumerates, ast.walk(body))) == 1 and assigned == [["support"]]


def test_tower_builders_leave_minus_k_and_the_top_class_to_the_rules(monkeypatch):
    """The tower builder writes no basis, no -K, no ``D<i>`` or ``E<i>``
    coordinate and no rank, label or stated count: the first come from
    ``_fibration_tower``, which only the builder calls, and the rank, the
    boundary, colors, eff, nef and mov labels and the stated count from
    ``_tower_labels``, which only its shape half ``_tower_spec`` calls, as
    ``_spec`` does for a twin.  Read off the source, neither half writes a
    ``basis``, ``minus_k``, ``table``, ``rank``, ``boundary``, ``colors``,
    ``eff``, ``nef``, ``mov`` or ``stated`` key, or a ``D<i>`` or ``E<i>``
    key, anywhere; built, every tower name with n, m <= 8 (so h <= 9) takes
    its basis, -K and class table from the rule, here replaced by markers,
    or has no coordinates, and the names that take them are the 140 with
    coordinates."""
    builders = {"_tower_model", "_tower_spec"}
    tree = ast.parse(Path(spaces.__file__).read_text(encoding="utf-8"))
    callers = {
        rule: {
            builder.name
            for builder in tree.body
            if isinstance(builder, ast.FunctionDef)
            for node in ast.walk(builder)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == rule
        }
        for rule in ("_fibration_tower", "_tower_labels", "_tower_spec")
    }
    assert callers == {
        "_fibration_tower": {"_tower_model"},
        "_tower_labels": {"_tower_spec"},
        "_tower_spec": {"_tower_model", "_spec"},
    }

    def written(node):
        if isinstance(node, ast.keyword):
            return [node.arg]
        if isinstance(node, ast.Dict):
            return [key.value for key in node.keys if isinstance(key, ast.Constant)]
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return [getattr(node.slice, "value", None)]
        return []

    found = [
        "%s:%d:%s" % (builder.name, node.lineno, key)
        for builder in tree.body
        if isinstance(builder, ast.FunctionDef) and builder.name in builders
        for node in ast.walk(builder)
        for key in written(node)
        if key in ("basis", "minus_k", "table", "rank", "boundary", "colors", "eff", "nef", "mov",
                   "stated")
        or re.fullmatch(r"[DE]\d+", str(key))
    ]
    assert found == []

    basis, minus_k, table = object(), object(), object()
    monkeypatch.setattr(
        spaces, "_fibration_tower", lambda *args: dict(basis=basis, minus_k=minus_k, table=table)
    )
    by_rule = 0
    for cls, entry in spaces._KINDS.items():
        if entry.model.__name__ not in builders:
            continue
        letters = [field.name for field in dataclasses.fields(cls)]
        for values in itertools.product(range(10), repeat=len(letters)):
            params = dict(zip(letters, values))
            if max(params["n"], params.get("m", 0)) > 8:
                continue
            try:
                kind = cls(**params)
            except ValueError:
                continue
            spec = entry.model(kind)
            written_by_rule = (spec.get("basis"), spec.get("minus_k"), spec.get("table"))
            assert written_by_rule in ((None,) * 3, (basis, minus_k, table)), spaces.space_name(kind)
            by_rule += written_by_rule == (basis, minus_k, table)
    # C(n,m,1) (36), C(n,m,2) and its secS name (72, C(1,m,2) among them),
    # Q(n,3) and its two secV names (21), secV(n,4;2) (6), Q(3,4) and
    # secV(3,4;3), and Q(1,2), secV(1,2;k=1) and the admitted secV(1,3;k=1)
    assert by_rule == 140
