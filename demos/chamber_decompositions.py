"""
Cones and chamber decompositions
================================

A walk from a single cone to the chamber structure of an effective cone,
ending with the SVG cross-section the command line tool draws.
"""

from completeforms.cones import cone_from_rays, gkz_decomposition
from completeforms.rendering import chamber_svg
from completeforms.spaces import Quadrics, build_model

# Start in the plane.  The cone over (1,0) and (1,2) contains (1,1) strictly
# and touches (1,0) only on the boundary.
cone = cone_from_rays([(1, 0), (1, 2)])
print("rays:", cone.rays)
print("facet normals:", cone.facet_normals)
assert cone.contains((1, 1), strict=True)
assert cone.contains((1, 0)) and not cone.contains((1, 0), strict=True)
assert not cone.contains((-1, 0))

# Four vectors in the plane: the two outer ones span the support, and each
# inner one cuts it, giving three chambers.
decomposition = gkz_decomposition([(1, 0), (2, 1), (1, 2), (0, 1)])
print("plane example chambers:", decomposition.chamber_count)
assert decomposition.chamber_count == 3
for chamber in decomposition.chambers:
    assert chamber.is_full_dimensional

# The same machinery applied to a catalog space.  The rank-three space of
# complete quadric surfaces decomposes into five chambers, one of which is
# the nef cone.
model = build_model(Quadrics(4, 3))
decomposition = model.chambers()
print("Q(4,3) chambers:", decomposition.chamber_count)
assert decomposition.chamber_count == 5

nef = model.nef_cone()
nef_hits = [chamber == nef for chamber in decomposition.chambers]
print("nef chamber index:", nef_hits.index(True))
assert nef_hits.count(True) == 1

# Interior points of distinct chambers are separated by at least one of the
# cutting hyperplanes; spot-check that the chamber interiors are disjoint by
# testing each chamber's ray sum against every other chamber.
for i, chamber in enumerate(decomposition.chambers):
    point = tuple(sum(coords) for coords in zip(*chamber.rays))
    for j, other in enumerate(decomposition.chambers):
        assert other.contains(point, strict=True) == (i == j)
print("chamber interiors are pairwise disjoint")

document = chamber_svg(model, decomposition)
with open("quadric_chambers.svg", "w", encoding="utf-8") as handle:
    handle.write(document)
print("wrote quadric_chambers.svg (%d bytes)" % len(document))
