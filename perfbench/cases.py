"""Seeded case lists for the three workloads.

Nothing here imports the program: a case is plain data (ints, strings and
lists), so the program only ever receives the generated inputs.  The same
seed always gives the same list, because every draw comes from a
``random.Random`` seeded with a string built from the seed (string seeds are
hashed with SHA-512, so they do not depend on ``PYTHONHASHSEED``).

Each workload mixes fixed *anchor* cases, which carry most of the work and
keep a pass's cost the same from seed to seed, with seeded draws from the
parameter boxes that the acceptance tables cover.  Every case carries a
``why``.
"""

from __future__ import annotations

import itertools
import random
from math import gcd

# Parameter boxes per catalog family.  Each box lies inside the ranges of
# the literal tables in oracles.py, so every drawn instance has a known
# chamber count, positivity class or class rank to check against.
FAMILY_BOXES = {
    "C": [{"n": n, "m": m, "h": 2} for n in range(2, 5) for m in range(n, 5)],
    "Q": [{"n": n, "h": 3} for n in range(3, 7)],
    "secS": [
        {"n": 3, "m": 5, "h": 3, "k": 1},
        {"n": 3, "m": 3, "h": 4, "k": 3},
        {"n": 3, "m": 5, "h": 4, "k": 2},
    ],
    "secV1": [{"n": n, "h": 3, "k": 1} for n in range(2, 7)],
    "secV2": [{"n": n, "h": 4, "k": 2} for n in range(3, 7)],
    "mbar-p": [{"n": n} for n in range(2, 7)],
    "mbar-pxp": [{"n": n, "m": m} for n in range(2, 6) for m in range(n, 6)],
    "mbar-gr": [{"n": n} for n in range(4, 9)],
}

# The CLI name of each family and the parameters it takes, in flag order.
CLI_SPACE = {
    "C": ("C", ("n", "m", "h")),
    "Q": ("Q", ("n", "h")),
    "secS": ("secS", ("n", "m", "h", "k")),
    "secV1": ("secV", ("n", "h", "k")),
    "secV2": ("secV", ("n", "h", "k")),
    "mbar-p": ("mbar-p", ("n",)),
    "mbar-pxp": ("mbar-pxp", ("n", "m")),
    "mbar-gr": ("mbar-gr", ("n",)),
}


def _rng(seed: int, part: str) -> random.Random:
    return random.Random("perfbench:%d:%s" % (seed, part))


# ---------------------------------------------------------------- catalog

def det(rows) -> int:
    """Determinant of a square integer matrix by cofactor expansion."""
    rows = [list(r) for r in rows]
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _base_configuration(dim: int, size: int) -> list[tuple[int, ...]]:
    """A fixed random configuration: distinct primitive vectors with a
    positive last coordinate (so the cone is pointed) spanning the space."""
    rng = random.Random("perfbench:base:%d:%d" % (dim, size))
    while True:
        vectors: list[tuple[int, ...]] = []
        while len(vectors) < size:
            v = tuple(rng.randint(-2, 2) for _ in range(dim - 1)) + (rng.randint(1, 2),)
            g = gcd(*v)
            v = tuple(x // g for x in v)
            if v not in vectors:
                vectors.append(v)
        if any(det(sub) for sub in itertools.combinations(vectors, dim)):
            return vectors


# (ambient dimension, number of vectors) of the random configurations.
# Six vectors in ambient 4 take about a minute, so they stay out.
RANDOM_SHAPES = ((3, 5), (3, 6), (4, 5))


def random_configuration(seed: int, dim: int, size: int) -> list[list[int]]:
    """A seeded image of the fixed base configuration of this shape.

    A signed permutation of the coordinates and a shuffle of the vectors
    give every seed different vectors (so no cache shared between
    configurations or seeds can hit) with an isomorphic fan, so the cost of
    a pass does not depend on the seed.  A general unimodular image would
    grow the entries and move the cost by 15% from seed to seed.
    """
    rng = _rng(seed, "gkz:%d:%d" % (dim, size))
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    vectors = [[signs[i] * v[perm[i]] for i in range(dim)] for v in _base_configuration(dim, size)]
    rng.shuffle(vectors)
    return vectors


def catalog_cases(seed: int) -> list[dict]:
    """Two instances of each family, then the random configurations.

    Within a family the chamber configuration does not depend on the
    parameters (Q(3..6,3) all give the same 5 vectors), and C and mbar-pxp
    give the same one.  secS and mbar-gr refuse the chamber query.  So a
    pass sends 12 family configurations to gkz_decomposition of which 5 are
    distinct: a configuration cache hits 7 times in a pass, while the random
    configurations never repeat.
    """
    rng = _rng(seed, "catalog")
    cases = []
    for family, box in FAMILY_BOXES.items():
        for params in rng.sample(box, 2):
            cases.append({
                "op": "kind",
                "family": family,
                "params": params,
                "why": "full query set on a seeded %s space, one of two per family: where the "
                       "chamber query is answered, both send gkz the same configuration" % family,
            })
    for dim, size in RANDOM_SHAPES:
        cases.append({
            "op": "gkz",
            "vectors": random_configuration(seed, dim, size),
            "why": "random %d vectors in ambient %d straight to gkz_decomposition; "
                   "shares no vector with any other case" % (size, dim),
        })
    rng.shuffle(cases)
    return _numbered(cases)


# ---------------------------------------------------------------- verify

# The 101 acceptance shapes: q in {2, 3} and q^(ab) <= 2^20.
CENSUS_POOL = [
    (a, b, q)
    for q in (2, 3)
    for a in range(1, 21)
    for b in range(1, 21)
    if q ** (a * b) <= 2 ** 20
]
CENSUS_ANCHORS = [(4, 5, 2), (3, 4, 3), (1, 20, 2)]
# Tiers by matrix count; the seeded draws stay out of the heavy tier, whose
# costs differ by 7x and would make the pass time depend on the seed.
CENSUS_MEDIUM = [s for s in CENSUS_POOL if 2 ** 15 <= s[2] ** (s[0] * s[1]) <= 2 ** 17]
CENSUS_SMALL = [s for s in CENSUS_POOL if s[2] ** (s[0] * s[1]) < 2 ** 15]

# Symmetric n x n over F_q where the MacWilliams count was matched by hand:
# q=2 with n <= 5, q=3 with n <= 4, q=5 with n <= 3.  The largest of each
# field are anchors; the rest are drawn.
SYMMETRIC_ANCHORS = [(5, 2), (4, 3), (3, 5)]
SYMMETRIC_SMALL = [(n, 2) for n in range(1, 5)] + [(n, 3) for n in range(1, 4)] + [(n, 5) for n in range(1, 3)]

# The criterion-05 box (a, b, k, q).  3x3/F3 is the anchor.
LEMMA_ANCHOR = (3, 3, 2, 3)
LEMMA_SMALL = [(3, 3, 1, 2), (3, 3, 2, 2), (3, 3, 3, 2), (3, 4, 2, 2)]

TANGENT_ANCHOR = (5, 5, 4, 1)
# The criterion-06 box (n, m, h, k, symmetric).
TANGENT_SMALL = [
    (n, m, h, k, sym)
    for n in range(1, 5)
    for m in range(n, 5)
    for h in range(1, n + 1)
    for k in range(1, h + 1)
    for sym in ((False, True) if n == m else (False,))
]


def verify_cases(seed: int) -> list[dict]:
    # The order is fixed, anchors first, because the peak resident set
    # depends on the order of the large numpy allocations.
    rng = _rng(seed, "verify")
    cases = []
    for a, b, q in CENSUS_ANCHORS:
        cases.append(_census(a, b, q, False, "heavy census anchor"))
    for a, b, q in rng.sample(CENSUS_MEDIUM, 3):
        cases.append(_census(a, b, q, False, "seeded medium census (2^15..2^17 matrices)"))
    for a, b, q in rng.sample(CENSUS_SMALL, 4):
        cases.append(_census(a, b, q, False, "seeded small census (< 2^15 matrices)"))
    for n, q in SYMMETRIC_ANCHORS:
        cases.append(_census(n, n, q, True, "largest symmetric census with a MacWilliams check"))
    for n, q in rng.sample(SYMMETRIC_SMALL, 2):
        cases.append(_census(n, n, q, True, "seeded small symmetric census"))
    a, b, k, q = LEMMA_ANCHOR
    cases.append(_lemma("lemma", a, b, k, q, False, "pure-Python lemma loop anchor, 3^9 matrices"))
    cases.append(_lemma("split", a, b, k, q, False, "pure-Python split loop anchor, 3^9 matrices"))
    for a, b, k, q in rng.sample(LEMMA_SMALL, 2):
        cases.append(_lemma("lemma", a, b, k, q, False, "seeded criterion-05 lemma case"))
    for a, b, k, q in rng.sample(LEMMA_SMALL, 2):
        cases.append(_lemma("split", a, b, k, q, False, "seeded criterion-05 split case"))
    cases.append(_lemma("split", 3, 3, 2, 2, True, "the symmetric split of criterion 05"))
    n, m, h, k = TANGENT_ANCHOR
    cases.append(_tangent(n, m, h, k, False, "heaviest tangent cone within the 5x5 minor cap"))
    for n, m, h, k, sym in rng.sample(TANGENT_SMALL, 3):
        cases.append(_tangent(n, m, h, k, sym, "seeded criterion-06 tangent cone"))
    return _numbered(cases)


def _census(a, b, q, symmetric, why):
    return {"op": "census", "a": a, "b": b, "q": q, "symmetric": symmetric, "why": why}


def _lemma(op, a, b, k, q, symmetric, why):
    return {"op": op, "a": a, "b": b, "k": k, "q": q, "symmetric": symmetric, "why": why}


def _tangent(n, m, h, k, symmetric, why):
    return {"op": "tangent", "n": n, "m": m, "h": h, "k": k, "symmetric": symmetric, "why": why}


# ---------------------------------------------------------------- cli

# The commands shown in README.md, copied so that a README edit does not
# change the workload.  "chambers.svg" is written into the run directory.
README_COMMANDS = [
    "invariants --space Q --n 4 --h 3",
    "invariants --space secV --n 6 --h 7 --k 5",
    "invariants --space mbar-gr --n 5 --format markdown",
    "chambers --space C --n 2 --m 2 --h 2 --svg chambers.svg",
    "chambers --space Q --n 4 --h 3 --format markdown",
    "verify --check census --rows 2 --cols 3 --q 2",
    "verify --check rank-lemma --rows 3 --cols 3 --k 2 --q 2",
    "verify --check tangent-cone --n 3 --m 3 --h 3 --k 1 --symmetric",
    "verify --check rh-solve --n 4",
    "verify --check knm-identity --n 2 --m 3",
]

GOLDEN_COMMANDS = [
    ("chambers_q_n4", "chambers --space Q --n 4 --h 3"),
    ("chambers_c_n2_m2", "chambers --space C --n 2 --m 2 --h 2"),
    ("chambers_secv_n4", "chambers --space secV --n 4 --h 4 --k 2"),
]

SMALL_VERIFY_COMMANDS = [
    "verify --check component-split --rows 2 --cols 2 --k 1 --q 2",
    "verify --check census --rows 2 --cols 2 --q 3 --symmetric",
]

# (argv, expected exit code, why).  The last one is the known --svg defect:
# today it prints a traceback and exits 1, and it stays in the mix.
ERROR_COMMANDS = [
    ("invariants --space Q --n 0 --h 1", 2, "bad parameter"),
    ("verify --check census --rows 5 --cols 5 --q 2", 2, "refused enumeration budget"),
    ("chambers --space mbar-gr --n 4", 3, "out of scope"),
    ("chambers --space Q --n 4 --h 3 --svg missing-dir/chambers.svg", 2, "unwritable --svg path"),
]


def space_argv(family: str, params: dict) -> list[str]:
    name, order = CLI_SPACE[family]
    argv = ["--space", name]
    for key in order:
        argv += ["--%s" % key, str(params[key])]
    return argv


def cli_cases(seed: int) -> list[dict]:
    rng = _rng(seed, "cli")
    cases = []
    for line in README_COMMANDS:
        case = {"argv": line.split(), "expect": "ok", "why": "README command"}
        if "--svg" in line:
            case["svg"] = {"path": "chambers.svg", "golden": "chambers_c_n2_m2"}
            case["golden"] = "chambers_c_n2_m2"
        cases.append(case)
    for stem, line in GOLDEN_COMMANDS:
        cases.append({
            "argv": line.split() + ["--svg", stem + ".svg"],
            "expect": "ok",
            "golden": stem,
            "svg": {"path": stem + ".svg", "golden": stem},
            "why": "golden chambers query, byte-compared",
        })
    families = [f for f in FAMILY_BOXES if f != "secV2"]  # seven CLI kinds
    for family in families:
        params = rng.choice(FAMILY_BOXES[family])
        for fmt in ("json", "markdown"):
            cases.append({
                "argv": ["invariants"] + space_argv(family, params) + ["--format", fmt],
                "expect": "ok",
                "space": {"family": family, "params": params},
                "why": "invariants for a seeded %s space as %s" % (family, fmt),
            })
    for line in SMALL_VERIFY_COMMANDS:
        cases.append({"argv": line.split(), "expect": "ok", "why": "small verify check"})
    for line, code, why in ERROR_COMMANDS:
        cases.append({"argv": line.split(), "expect": code, "why": "error path: " + why})
    rng.shuffle(cases)
    return _numbered(cases)


def _numbered(cases: list[dict]) -> list[dict]:
    for i, case in enumerate(cases):
        case["id"] = i
    return cases


WORKLOADS = {"catalog": catalog_cases, "verify": verify_cases, "cli": cli_cases}
