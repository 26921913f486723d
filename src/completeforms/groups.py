"""Symbolic automorphism group expressions.

Groups are finite expression trees over two atoms: projective linear groups
and the order-two swap group.  Equality is structural and rendering is
deterministic, which is all the package needs (no group arithmetic happens
here; the trees are catalog answers).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import _Record

__all__ = [
    "GroupDescriptor",
    "PGL",
    "SwapGroup",
    "GroupProduct",
    "SemidirectLeft",
    "SemidirectRight",
]


class GroupDescriptor(_Record):
    """Base class; concrete nodes are records and implement render()."""

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


def _wrap(g: "GroupDescriptor") -> str:
    if isinstance(g, (PGL, SwapGroup)):
        return g.render()
    return "(%s)" % g.render()


@dataclass(init=False, repr=False, eq=False)
class PGL(GroupDescriptor):
    """Projective linear group acting on a space of the given matrix size."""

    size: int

    def render(self) -> str:
        return "PGL(%d)" % self.size


@dataclass(init=False, repr=False, eq=False)
class SwapGroup(GroupDescriptor):
    """The two-element group exchanging a pair of factors or a form with its dual."""

    def render(self) -> str:
        return "S2"


@dataclass(init=False, repr=False, eq=False)
class GroupProduct(GroupDescriptor):
    """The direct product of two groups."""

    left: GroupDescriptor
    right: GroupDescriptor

    def render(self) -> str:
        return "%s × %s" % (_wrap(self.left), _wrap(self.right))


@dataclass(init=False, repr=False, eq=False)
class SemidirectLeft(GroupDescriptor):
    """acting |x normal: the swap acts on the normal subgroup from the left."""

    acting: GroupDescriptor
    normal: GroupDescriptor

    def render(self) -> str:
        return "%s ⋉ %s" % (_wrap(self.acting), _wrap(self.normal))


@dataclass(init=False, repr=False, eq=False)
class SemidirectRight(GroupDescriptor):
    """normal x| acting: an outer swap glued on from the right."""

    normal: GroupDescriptor
    acting: GroupDescriptor

    def render(self) -> str:
        return "%s ⋊ %s" % (_wrap(self.normal), _wrap(self.acting))
