"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cases
import oracles
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# ------------------------------------------------------------------ oracles


def _rank_mod(rows, q):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_counts_match_hand_values():
    # 2x2 over F2: one zero matrix, |GL_2(F2)| = 6 invertible, 9 of rank 1
    assert [oracles.rank_count(2, 2, r, 2) for r in range(3)] == [1, 9, 6]
    assert oracles.rank_count(1, 3, 1, 3) == 26
    assert oracles.rank_count(2, 3, 3, 2) == 0
    # symmetric 2x2 over F2: [[a,b],[b,c]], rank 2 when ac != b^2
    assert [oracles.symmetric_rank_count(2, r, 2) for r in range(3)] == [1, 3, 4]
    assert [oracles.symmetric_rank_count(2, r, 3) for r in range(3)] == [1, 8, 18]


def test_symmetric_count_matches_brute_force():
    for n, q in [(3, 2), (3, 3), (2, 5)]:
        tally = [0] * (n + 1)
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product(range(q), repeat=len(upper)):
            m = [[0] * n for _ in range(n)]
            for (i, j), v in zip(upper, values):
                m[i][j] = m[j][i] = v
            tally[_rank_mod(m, q)] += 1
        assert tally == [oracles.symmetric_rank_count(n, r, q) for r in range(n + 1)], (n, q)


def test_split_counts_match_brute_force():
    a, b, k, q = 3, 4, 2, 2
    locus = det_zero = h1 = h2 = 0
    for values in itertools.product(range(q), repeat=a * b):
        m = [list(values[i * b:(i + 1) * b]) for i in range(a)]
        if _rank_mod(m, q) > k:
            continue
        locus += 1
        det_zero += _rank_mod([row[:k] for row in m[:k]], q) < k
        h1 += _rank_mod(m[:k], q) < k
        h2 += _rank_mod([[m[i][j] for i in range(a)] for j in range(k)], q) < k
    want = oracles.split_counts(a, b, k, q, False)
    assert (want["rank_locus"], want["det_zero"], want["h1"], want["h2"]) == (locus, det_zero, h1, h2)
    assert oracles.split_counts(3, 3, 2, 2, False) == {
        "matrices": 512, "rank_locus": 344, "det_zero": 248, "h1": 176, "h2": 176, "overlap": 104,
    }
    assert oracles.split_counts(3, 3, 2, 2, True) == {"matrices": 64, "rank_locus": 36, "det_zero": 20}


def test_tangent_minor_count():
    assert oracles.tangent_minors(5, 5, 4, 1) == 25
    assert oracles.tangent_minors(5, 5, 3, 1) == 100
    assert oracles.tangent_minors(1, 1, 2, 1) == 0


def test_fan_check_accepts_the_true_fan_and_rejects_wrong_ones():
    rng = oracles.random.Random(0)
    vectors = [(1, 0), (0, 1), (1, 1)]
    good = [(((0, 1), (1, 1)), ((-1, 1), (1, 0))), (((1, 0), (1, 1)), ((0, 1), (1, -1)))]
    assert oracles.check_fan(vectors, good, rng) == []
    merged = [(((0, 1), (1, 0)), ((0, 1), (1, 0)))]
    assert oracles.check_fan(vectors, merged, rng)
    assert oracles.check_fan(vectors, good[:1], rng)


def test_orbit_text_and_titles_follow_the_recorded_renderings():
    assert oracles.orbit_text(2, ()) == "Z^2"
    assert oracles.orbit_text(1, (2,)) == "Z/2 + Z"
    assert oracles.orbit_text(0, (4,)) == "Z/4"
    assert oracles.space_title("secV", (4, 4, 2)) == "secV(4,4;k=2)"
    assert oracles.space_title("Q", (4, 3)) == "Q(4,3)"


# ------------------------------------------------------------------ generators


def test_case_lists_depend_only_on_the_seed():
    code = "import json, cases; print(json.dumps({w: f(7) for w, f in cases.WORKLOADS.items()}))"
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(BENCH), PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                      text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == json.loads(json.dumps({w: f(7) for w, f in cases.WORKLOADS.items()}))
    for make in cases.WORKLOADS.values():
        assert make(1) != make(2)
        assert all(case["why"] for case in make(3))


def test_every_catalog_family_is_drawn_twice_and_random_configurations_differ_by_seed():
    drawn = {}
    for case in cases.catalog_cases(5):
        if case["op"] == "kind":
            drawn.setdefault(case["family"], []).append(case["params"])
    assert set(drawn) == set(cases.FAMILY_BOXES)
    for params in drawn.values():
        assert len(params) == 2 and params[0] != params[1]
    first = cases.random_configuration(1, 3, 6)
    second = cases.random_configuration(2, 3, 6)
    assert first != second
    # a signed permutation keeps each vector's multiset of absolute values
    assert sorted(sorted(map(abs, v)) for v in first) == sorted(sorted(map(abs, v)) for v in second)


# ------------------------------------------------------------------ tracer


TRANSPARENCY = r"""
import json
from completeforms import cli, cones, lattice, spaces
from completeforms.errors import OutOfScope
import worker
from tracer import Tracer

def outputs():
    kind = spaces.Quadrics(4, 3)
    out = [
        worker.canonical(spaces.mori_chambers(kind)),
        worker.canonical(spaces.build_model(kind)),
        worker.canonical(cones.gkz_decomposition(iter([(1, 0), (0, 1), (1, 1)]))),
        worker.canonical(lattice.solve_rational([[1, 2], [3, 4]], [5, 6])),
        worker.canonical(cones.RationalCone.contains(spaces.nef_cone(kind), (1, 0, 0))),
    ]
    try:
        spaces.orbit_picard_group(spaces.KontsevichP(3))
    except OutOfScope as exc:
        out.append(str(exc))
    return out

before = outputs()
original = spaces.build_model
tracer = Tracer()
wrapped = tracer.install()
after = outputs()
summary = tracer.summary()
print(json.dumps({
    "same": before == after,
    "wrapped": wrapped,
    "rebound": spaces.build_model is not original and cli.spaces.build_model is spaces.build_model,
    "renderer_rebound": cli.chamber_svg.__wrapped__ is not None,
    "name": spaces.build_model.__name__,
    "doc": spaces.build_model.__doc__ == original.__doc__,
    "functions": summary["functions"],
    "errors": summary["module_errors"],
    "gkz_inputs": summary["gkz_inputs"],
}))
"""


def test_tracer_is_transparent_and_counts_calls():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", TRANSPARENCY], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    assert result["same"] and result["rebound"] and result["renderer_rebound"] and result["doc"]
    assert result["name"] == "build_model" and result["wrapped"] > 20
    functions = result["functions"]
    assert functions["cones.gkz_decomposition"]["calls"] == 2
    assert functions["spaces.orbit_picard_group"]["errors"] == 1
    assert result["errors"]["spaces"] == 1
    assert result["gkz_inputs"] == 2
    for stats in functions.values():
        assert stats["self_s"] >= 0


LATE_IMPORTS = r"""
import json
from tracer import ImportWatch, Tracer

clock = ImportWatch(lambda name: name == "numpy").install()
tracer = Tracer()
tracer.install()
from completeforms import cones, spaces
numpy_before = sorted(clock.seconds)
from completeforms import determinantal
spaces.build_model(spaces.Quadrics(4, 3))
print(json.dumps({
    "numpy_before": numpy_before,
    "numpy_after": sorted(clock.seconds),
    "wrapped": hasattr(spaces.build_model, "__wrapped__"),
    "rebound": hasattr(cones.gkz_decomposition, "__wrapped__")
               and spaces.gkz_decomposition is cones.gkz_decomposition,
    "census_wrapped": hasattr(determinantal.rank_census, "__wrapped__"),
    "calls": tracer.summary()["functions"]["spaces.build_model"]["calls"],
}))
"""


def test_tracer_wraps_layers_imported_later_and_times_numpy_only_when_imported():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    done = subprocess.run([sys.executable, "-c", LATE_IMPORTS], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    assert result["numpy_before"] == [] and result["numpy_after"] == ["numpy"]
    assert result["wrapped"] and result["rebound"] and result["census_wrapped"]
    assert result["calls"] >= 1


# ------------------------------------------------------------------ run.py


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(cases.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
    for name in ("pass_s", "ref_s", "cli_p50_s", "matrices_per_s", "failed_frac"):
        assert NAME.match(name)


def test_reference_units_divide_out_a_slow_spell_and_smooth_one_jittery_reference():
    case_s, ref_s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.01] * 6
    quiet = run.ref_costs(case_s, ref_s)
    assert quiet == [100.0, 200.0, 300.0, 400.0, 500.0, 600.0]
    slow = run.ref_costs([1.5 * c for c in case_s], [1.5 * r for r in ref_s])
    assert all(abs(a - b) < 1e-9 for a, b in zip(slow, quiet))
    assert run.ref_costs(case_s, [0.01, 0.01, 0.05, 0.01, 0.01, 0.01]) == quiet
    assert abs(run.case_median_sum([quiet, slow, [x + 1 for x in quiet]]) - sum(quiet)) < 1e-6


def test_cli_check_counts_the_svg_traceback_as_a_failure_and_bad_bytes_as_wrong(tmp_path):
    svg_case = next(c for c in cases.cli_cases(1) if "missing-dir" in " ".join(c["argv"]))
    wrong, failed = run.check_cli(svg_case, 1, b"", b"Traceback (most recent call last):\n", None, tmp_path)
    assert wrong == [] and failed
    wrong, failed = run.check_cli(svg_case, 2, b"", b"error: cannot write\n", None, tmp_path)
    assert wrong == [] and failed == []
    golden = ROOT / "tests" / "goldens"
    golden_case = next(c for c in cases.cli_cases(1) if c.get("golden") == "chambers_q_n4" and "svg" in c)
    good_svg = (golden / "chambers_q_n4.svg").read_bytes()
    good_json = (golden / "chambers_q_n4.json").read_bytes()
    assert run.check_cli(golden_case, 0, good_json, b"", good_svg, golden) == ([], [])
    wrong, failed = run.check_cli(golden_case, 0, good_json, b"", good_svg + b" ", golden)
    assert wrong and failed == []


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
