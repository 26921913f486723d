"""Acceptance suite: one test per criterion, each with a wall-clock budget.

Run with ``python3 -m pytest tests/test_acceptance.py -v`` for one line per
criterion, or add ``-s`` to see the timing printed by each as it passes.
Every check here is exact (integer or rational equality); the budgets are
generous on current hardware and exist to catch algorithmic regressions, not
scheduling noise.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

from completeforms import cli
from completeforms.cones import primitive_vector
from completeforms.determinantal import (
    rank_census,
    rank_count_closed_form,
    segre_secant_invariants,
    symmetric_rank_count_closed_form,
    verify_component_split,
    verify_rank_minor_lemma,
    veronese_secant_invariants,
)
from completeforms.polynomials import verify_tangent_cone
from completeforms.spaces import (
    Collineations,
    KontsevichGr,
    KontsevichP,
    PositivityClass,
    Quadrics,
    VeroneseBlowup,
    build_model,
    classify_positivity,
    kontsevich_dictionary,
    mori_chambers,
    orbit_picard_group,
    riemann_hurwitz_coefficients,
    sanity_check_knm,
    verify_riemann_hurwitz,
)

GOLDENS = Path(__file__).parent / "goldens"


@contextmanager
def budget(seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, "criterion %s took %.2fs, budget %ds" % (label, elapsed, seconds)
    print("criterion %s: pass (%.2fs)" % (label, elapsed))


def test_criterion_01_divisor_class_rank_table():
    with budget(1, "1 divisor class rank table"):
        for n in range(1, 7):
            for m in range(n, 7):
                for h in range(1, n + 2):
                    if h <= n:
                        expected = h + 1
                    elif n < m:
                        expected = h
                    else:
                        expected = h - 1
                    model = build_model(Collineations(n, m, h))
                    assert model.picard_rank == expected, (n, m, h)
        for n in range(1, 7):
            for h in range(1, n + 2):
                expected = h if h <= n else h - 1
                model = build_model(Quadrics(n, h))
                assert model.picard_rank == expected, (n, h)


def test_criterion_02_orbit_picard_groups():
    with budget(1, "2 orbit Picard groups"):
        for n in range(1, 9):
            for m in (n + 1, n + 2):
                for h in range(1, n + 1):
                    group = orbit_picard_group(Collineations(n, m, h))
                    assert (group.free_rank, group.invariant_factors) == (2, ()), (n, m, h)
            group = orbit_picard_group(Collineations(n, n + 1, n + 1))
            assert (group.free_rank, group.invariant_factors) == (1, ()), n
            group = orbit_picard_group(Collineations(n, n, n + 1))
            assert (group.free_rank, group.invariant_factors) == (0, (n + 1,)), n
            for h in range(1, n + 1):
                group = orbit_picard_group(Quadrics(n, h))
                torsion = () if h % 2 == 1 else (2,)
                assert (group.free_rank, group.invariant_factors) == (1, torsion), (n, h)
            group = orbit_picard_group(Quadrics(n, n + 1))
            assert (group.free_rank, group.invariant_factors) == (0, (n + 1,)), n


def test_criterion_03_degree_and_dimension_cross_checks():
    with budget(1, "3 degree and dimension cross checks"):
        for n in range(1, 6):
            for m in range(n, 6):
                assert segre_secant_invariants(n, m, 1).degree == comb(n + m, n), (n, m)
        for n in range(1, 7):
            assert veronese_secant_invariants(n, 1).degree == 2 ** n, n
            assert veronese_secant_invariants(n, n).degree == n + 1, n
        for n in range(1, 6):
            for m in range(n, 6):
                for h in range(1, min(n, m) + 2):
                    inv = segre_secant_invariants(n, m, h)
                    assert isinstance(inv.dimension, int)
                    assert 0 <= inv.dimension <= inv.ambient_dimension, (n, m, h)
                    assert inv.fills_ambient == (inv.dimension == inv.ambient_dimension)
        for n in range(1, 7):
            for h in range(1, n + 2):
                inv = veronese_secant_invariants(n, h)
                assert isinstance(inv.dimension, int)
                assert 0 <= inv.dimension <= inv.ambient_dimension, (n, h)
                assert inv.fills_ambient == (inv.dimension == inv.ambient_dimension)


# Terracini's lemma: the affine cone over the h-th secant is the image of
# (A, B) -> A B (Segre) or A -> A A^T (Veronese) with inner size h, so its
# dimension is the rank of the differential at a general point.  The rank is
# taken mod a large prime at a seeded random point; it never exceeds the
# generic rank, and a second seed rules out an unlucky point.
_ORACLE_PRIME = 2**31 - 1


def _rank_mod_p(rows):
    rows = [[x % _ORACLE_PRIME for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, _ORACLE_PRIME)
        top = [x * inv % _ORACLE_PRIME for x in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % _ORACLE_PRIME for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _terracini_dimension(n, m, h, symmetric, seed):
    """Rank of the differential of the secant parametrization, minus 1."""
    rng = random.Random(seed)
    a = [[rng.randrange(_ORACLE_PRIME) for _ in range(h)] for _ in range(n + 1)]
    if symmetric:
        # d(A A^T)[i][j] = sum_l dA[i][l] A[j][l] + A[i][l] dA[j][l], for i <= j
        jacobian = [
            [
                (a[j][l] if k == i else 0) + (a[i][l] if k == j else 0)
                for k in range(n + 1)
                for l in range(h)
            ]
            for i in range(n + 1)
            for j in range(i, n + 1)
        ]
    else:
        b = [[rng.randrange(_ORACLE_PRIME) for _ in range(m + 1)] for _ in range(h)]
        # d(A B)[i][j] = sum_l dA[i][l] B[l][j] + A[i][l] dB[l][j]
        jacobian = [
            [b[l][j] if k == i else 0 for k in range(n + 1) for l in range(h)]
            + [a[i][l] if k == j else 0 for l in range(h) for k in range(m + 1)]
            for i in range(n + 1)
            for j in range(m + 1)
        ]
    return _rank_mod_p(jacobian) - 1


def _terracini_agrees(n, m, h, symmetric, dimension):
    return any(_terracini_dimension(n, m, h, symmetric, seed) == dimension for seed in (1, 2))


def test_secant_dimensions_match_terracini_oracle():
    with budget(1, "secant dimensions by Terracini's lemma"):
        for n in range(1, 7):
            for h in range(1, n + 2):
                for m in range(n, 7):
                    dim = segre_secant_invariants(n, m, h).dimension
                    assert _terracini_agrees(n, m, h, False, dim), (n, m, h)
                dim = veronese_secant_invariants(n, h).dimension
                assert _terracini_agrees(n, n, h, True, dim), (n, h)


# Herzog-Trung (1992): the degree of the rank <= h locus of (n+1) x (m+1)
# matrices counts families of h non-intersecting lattice paths, which the
# Lindstrom-Gessel-Viennot lemma turns into det[C(n+m+2-i-j, n+1-i)] for
# i, j = 1..h.  The determinant is taken by exact elimination here, with no
# product formula, so it shares nothing with the secant formulas.
def _det(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, len(rows)):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def _lattice_path_degree(n, m, h):
    size = range(1, h + 1)
    return _det([[comb(n + m + 2 - i - j, n + 1 - i) for j in size] for i in size])


def test_segre_degrees_match_lattice_path_oracle():
    with budget(1, "Segre secant degrees by non-intersecting lattice paths"):
        checked = 0
        for n in range(1, 9):
            for m in range(n, 9):
                for h in range(1, n + 2):
                    want = _lattice_path_degree(n, m, h)
                    assert segre_secant_invariants(n, m, h).degree == want, (n, m, h)
                    checked += 1
        assert checked == 156


# Conca (1994): the degree of the rank <= h locus of symmetric (n+1) x (n+1)
# matrices counts families of h vertex-disjoint lattice paths in the triangle
# 1 <= i <= j <= n+1.  Path t starts at (t, n+1), steps to (i+1, j) or
# (i, j-1), and ends at its first diagonal point.  The families are counted
# by brute force, with no product formula.
def _triangle_paths(i, j):
    if i == j:
        return [((i, j),)]
    # from i < j both steps stay in the triangle
    return [((i, j),) + rest for step in ((i + 1, j), (i, j - 1)) for rest in _triangle_paths(*step)]


def _disjoint_families(path_sets, used=frozenset()):
    if not path_sets:
        return 1
    return sum(
        _disjoint_families(path_sets[1:], used.union(path))
        for path in path_sets[0]
        if used.isdisjoint(path)
    )


def _triangle_path_degree(n, h):
    return _disjoint_families([_triangle_paths(t, n + 1) for t in range(1, h + 1)])


def test_veronese_degrees_match_lattice_path_oracle():
    with budget(1, "Veronese secant degrees by non-intersecting lattice paths"):
        checked = 0
        for n in range(1, 7):
            # the oracle is pinned on the classical ends before it is trusted
            assert _triangle_path_degree(n, 1) == 2**n
            assert _triangle_path_degree(n, n) == n + 1
            for h in range(1, n + 2):
                want = _triangle_path_degree(n, h)
                assert veronese_secant_invariants(n, h).degree == want, (n, h)
                checked += 1
        assert checked == 27


def test_criterion_04_rank_census_matches_closed_form():
    with budget(30, "4 rank census vs closed form"):
        checked = 0
        for q in (2, 3):
            for a in range(1, 21):
                for b in range(1, 21):
                    if q ** (a * b) > 2 ** 20:
                        continue
                    census = rank_census(a, b, q).as_dict()
                    for r in range(min(a, b) + 1):
                        assert census[r] == rank_count_closed_form(a, b, r, q), (a, b, q, r)
                    checked += 1
        assert checked == 101


def test_symmetric_rank_census_matches_macwilliams_count():
    with budget(5, "4 symmetric rank census vs MacWilliams' count"):
        checked = 0
        for q, largest in ((2, 5), (3, 4), (5, 3)):
            for n in range(1, largest + 1):
                census = rank_census(n, n, q, symmetric=True).as_dict()
                for r in range(n + 1):
                    assert census[r] == symmetric_rank_count_closed_form(n, r, q), (n, q, r)
                checked += 1
        assert checked == 12


def test_criterion_05_rank_minor_lemma_and_component_split():
    with budget(60, "5 rank minor lemma and component split"):
        cases = [(3, 3, 1, 2), (3, 3, 2, 2), (3, 3, 3, 2), (3, 4, 2, 2), (3, 3, 2, 3)]
        for a, b, k, q in cases:
            lemma = verify_rank_minor_lemma(a, b, k, q)
            assert lemma.passed and lemma.counterexample is None, (a, b, k, q)
            split = verify_component_split(a, b, k, q)
            assert split.passed and split.counterexample is None, (a, b, k, q)
        split = verify_component_split(3, 3, 2, 2, symmetric=True)
        assert split.passed and split.counterexample is None


def test_criterion_06_tangent_cone_leading_forms():
    with budget(30, "6 tangent cone leading forms"):
        for n in range(1, 5):
            for m in range(n, 5):
                for h in range(1, n + 1):
                    for k in range(1, h + 1):
                        report = verify_tangent_cone(n, m, h, k)
                        assert report.passed, (n, m, h, k)
                        if n == m:
                            report = verify_tangent_cone(n, m, h, k, symmetric=True)
                            assert report.passed, (n, m, h, k, "symmetric")


def _nef_is_one_chamber(kind, decomposition):
    nef = build_model(kind).nef_cone()
    return sum(1 for chamber in decomposition.chambers if chamber == nef) == 1


def test_criterion_07_chamber_counts():
    with budget(5, "7 chamber counts"):
        for n in range(3, 7):
            kind = Quadrics(n, 3)
            dec = mori_chambers(kind)
            assert dec.chamber_count == 5, n
            assert _nef_is_one_chamber(kind, dec)
        for n in range(2, 5):
            for m in range(n, 5):
                kind = Collineations(n, m, 2)
                dec = mori_chambers(kind)
                assert dec.chamber_count == 3, (n, m)
                assert _nef_is_one_chamber(kind, dec)
        for n in range(3, 7):
            kind = VeroneseBlowup(n, 4, 2)
            dec = mori_chambers(kind)
            assert dec.chamber_count == 9, n
            assert (6, -3, -2) in dec.rays, n
            assert _nef_is_one_chamber(kind, dec)
        for n in range(2, 7):
            kind = KontsevichP(n)
            dec = mori_chambers(kind)
            assert dec.chamber_count == 3, n
            assert _nef_is_one_chamber(kind, dec)


def test_criterion_08_positivity_tables():
    with budget(2, "8 positivity tables"):
        for n in range(1, 13):
            if n <= 6:
                expected = PositivityClass.FANO
            elif n == 7:
                expected = PositivityClass.WEAK_FANO
            else:
                expected = PositivityClass.LOG_FANO_NUMERICAL
            assert classify_positivity(VeroneseBlowup(n, 3, 1)) is expected, n
        for n in range(3, 9):
            expected = PositivityClass.WEAK_FANO if n == 3 else PositivityClass.FANO
            assert classify_positivity(Quadrics(n, 3)) is expected, n
        for n in range(3, 11):
            if n <= 5:
                expected = PositivityClass.FANO
            elif n == 6:
                expected = PositivityClass.WEAK_FANO
            else:
                expected = PositivityClass.LOG_FANO_NUMERICAL
            assert classify_positivity(VeroneseBlowup(n, 4, 2)) is expected, n
        for n in range(1, 7):
            for m in range(n, 7):
                assert classify_positivity(Collineations(n, m, 2)) is PositivityClass.FANO, (n, m)


def test_criterion_09_double_cover_solve_and_product_identity():
    with budget(1, "9 double cover solve and product identity"):
        for n in range(4, 11):
            coeffs = riemann_hurwitz_coefficients(n)
            assert coeffs == (
                Fraction(2 * n + 2),
                Fraction(-(3 * n - 2), 2),
                Fraction(-(n - 2)),
            ), n
            assert verify_riemann_hurwitz(n).passed, n
        for n in range(1, 7):
            for m in range(1, 7):
                report = sanity_check_knm(n, m)
                assert report.passed, (n, m)
                assert report.details["reduced"] == {
                    "Kn": Fraction(n - 1),
                    "Km": Fraction(m - 1),
                    "Knm": Fraction(4),
                }, (n, m)


def test_criterion_10_dictionary_coherence():
    with budget(1, "10 dictionary coherence"):
        for n in range(4, 9):
            phi = kontsevich_dictionary(KontsevichGr(n))
            image = phi.apply((6, -3, -2))
            assert image == (Fraction(3, 2), Fraction(3, 2), Fraction(-1, 2)), n
            assert primitive_vector(image) == (3, 3, -1), n
        for n in range(2, 7):
            psi = kontsevich_dictionary(KontsevichP(n))
            tower = build_model(VeroneseBlowup(n, 3, 1))
            mapping = build_model(KontsevichP(n))
            images = {
                psi.apply(tower.class_coordinates(label))
                for label in tower.nef_generators
            }
            expected = {
                mapping.class_coordinates("T"),
                mapping.class_coordinates("H"),
            }
            assert images == expected, n
            pairs = {entry.target: entry.source for entry in psi.entries}
            assert {pairs[label] for label in tower.nef_generators} == {"T", "H"}, n


GOLDEN_COMMANDS = [
    ("chambers_q_n4", ["chambers", "--space", "Q", "--n", "4", "--h", "3"]),
    ("chambers_c_n2_m2", ["chambers", "--space", "C", "--n", "2", "--m", "2", "--h", "2"]),
    ("chambers_secv_n4", ["chambers", "--space", "secV", "--n", "4", "--h", "4", "--k", "2"]),
]


def test_criterion_11_cli_goldens_are_reproducible(tmp_path, capsys):
    with budget(5, "11 CLI goldens reproducible"):
        for stem, argv in GOLDEN_COMMANDS:
            runs = []
            for attempt in range(2):
                target = tmp_path / ("%s_%d.svg" % (stem, attempt))
                code = cli.main(argv + ["--svg", str(target)])
                captured = capsys.readouterr()
                assert code == 0, (stem, attempt)
                runs.append((captured.out, target.read_bytes()))
            assert runs[0] == runs[1], stem
            assert runs[0][0] == (GOLDENS / (stem + ".json")).read_text(encoding="utf-8")
            assert runs[0][1] == (GOLDENS / (stem + ".svg")).read_bytes()
            json.loads(runs[0][0])
