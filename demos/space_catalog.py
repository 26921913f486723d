"""
The space catalog
=================

Build models for a sample of every kind the catalog knows, and print the
invariants side by side.  The assertions pin a few facts worth remembering.
"""

from completeforms.spaces import (
    Collineations,
    KontsevichGr,
    KontsevichP,
    KontsevichPxP,
    Quadrics,
    SegreBlowup,
    VeroneseBlowup,
    build_model,
    orbit_picard_group,
)
from completeforms.errors import OutOfScope

SAMPLE = [
    Collineations(2, 2, 2),
    Collineations(3, 5, 4),
    Quadrics(4, 3),
    Quadrics(3, 4),
    SegreBlowup(3, 3, 3, 2),
    VeroneseBlowup(4, 4, 2),
    KontsevichP(3),
    KontsevichPxP(2, 3),
    KontsevichGr(4),
]

print("%-14s %5s %5s %9s %20s" % ("space", "dim", "rank", "boundary", "positivity"))
for kind in SAMPLE:
    model = build_model(kind)
    try:
        positivity = model.positivity().value
    except OutOfScope:
        positivity = "-"
    print(
        "%-14s %5d %5d %9d %20s"
        % (model.name, model.dimension, model.picard_rank, len(model.boundary), positivity)
    )

# Complete quadric surfaces: rank three, two boundary classes, and a free
# orbit class group.
quadrics = build_model(Quadrics(4, 3))
assert quadrics.dimension == 11
assert quadrics.picard_rank == 3
assert len(quadrics.boundary) == 2
assert str(orbit_picard_group(Quadrics(4, 3))) == "Z"

# The class rank always splits as boundary count plus the free rank of the
# open orbit's class group.
for kind in [Collineations(2, 2, 2), Collineations(3, 5, 4), Quadrics(3, 4)]:
    model = build_model(kind)
    orbit = orbit_picard_group(kind)
    assert model.picard_rank == len(model.boundary) + orbit.free_rank
print("rank == boundary + orbit free rank on the samples")

# The full flag of complete conics is its own mapping space: the tower over
# plane conics agrees with the stable map model class by class.
tower = build_model(VeroneseBlowup(2, 3, 1))
maps = build_model(KontsevichP(2))
assert tower.dimension == maps.dimension == 5
assert tower.anticanonical.coordinates == (6, -2)
assert maps.picard_rank == 2

# A full tower answers to two names: the complete quadrics of P^3 are also
# the tower over P^9 stopped after two steps, whose last center would be the
# determinant divisor.
for kind in [Quadrics(3, 4), VeroneseBlowup(3, 4, 2)]:
    model = build_model(kind)
    assert model.anticanonical.coordinates == (10, -5, -2), model.name
    assert model.stated_chamber_count == 9, model.name

# Anticanonical classes are exact rational vectors in the class basis.
from fractions import Fraction

print("-K of Q(4,3):", quadrics.anticanonical.coordinates)
assert quadrics.anticanonical.coordinates == (
    Fraction(15, 2),
    Fraction(-3),
    Fraction(-1, 2),
)

# Automorphism descriptions are symbolic and render like the literature.
print("automorphisms of C(2,2,2):", build_model(Collineations(2, 2, 2)).automorphisms)
assert str(build_model(Collineations(2, 2, 2)).automorphisms) == "S2 ⋉ (PGL(3) × PGL(3))"
