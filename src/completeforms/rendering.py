"""Drawing and text rendering for chamber decompositions.

The SVG renderer draws a cross-section of the effective cone: for rank-three
models a barycentric section with respect to the support cone's extreme rays
(an honest triangle no matter how lopsided the cone is), for rank-two models
a bar split into colored intervals.  Output is deterministic: fixed palette,
fixed viewBox, two-decimal coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cones import ChamberDecomposition, primitive_vector
from .errors import OutOfScope
from .lattice import solve_rational
from .spaces import SpaceModel

__all__ = ["chamber_svg", "markdown_report", "PALETTE"]

PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1")

_WIDTH = 600
_HEIGHT = 400


def _fmt(value: float) -> str:
    return "%.2f" % value


def _text(x: str, y: str, content: str, size: int = 12) -> str:
    """A centred label at already formatted coordinates."""
    return (
        '<text x="%s" y="%s" text-anchor="middle" font-family="sans-serif" '
        'font-size="%d">%s</text>' % (x, y, size, content)
    )


def _ray_labels(model: SpaceModel) -> Dict[Tuple[Fraction, ...], str]:
    """Map primitive ray directions to the lexicographically first class name."""

    table: Dict[Tuple[Fraction, ...], str] = {}
    for label in sorted(model.classes):
        cls = model.classes[label]
        if cls.coordinates is None or all(c == 0 for c in cls.coordinates):
            continue
        key = primitive_vector(cls.coordinates)
        table.setdefault(key, label)
    return table


def _label_for(ray, labels) -> str:
    name = labels.get(tuple(ray))
    if name is not None:
        return name
    return "(" + ", ".join(str(c) for c in ray) + ")"


def _barycentric(ray, support_rays) -> Tuple[Fraction, ...]:
    columns = list(support_rays)
    size = len(columns)
    rows = [[columns[j][i] for j in range(size)] for i in range(size)]
    weights = solve_rational(rows, list(ray))
    if weights is None or any(w < 0 for w in weights):
        raise OutOfScope("a chamber ray falls outside the support simplex")
    total = sum(weights, Fraction(0))
    return tuple(w / total for w in weights)


def _counted(count: int, noun: str) -> str:
    """``count`` and the noun, plural but for a count of 1."""
    return "%d %s%s" % (count, noun, "" if count == 1 else "s")


def _svg_header(model: SpaceModel, decomposition: ChamberDecomposition) -> List[str]:
    title = "%s chamber decomposition (%s)" % (
        model.name,
        _counted(decomposition.chamber_count, "chamber"),
    )
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">' % (_WIDTH, _HEIGHT),
        '<rect width="%d" height="%d" fill="#ffffff"/>' % (_WIDTH, _HEIGHT),
        _text(str(_WIDTH // 2), "24", title, size=15),
    ]


def _triangle_svg(model: SpaceModel, decomposition: ChamberDecomposition) -> str:
    support_rays = decomposition.support.rays
    if len(support_rays) != 3:
        raise OutOfScope("cross-section drawing needs a simplicial support cone")
    corners = ((70.0, 350.0), (530.0, 350.0), (300.0, 52.0))

    def to_plane(ray) -> Tuple[float, float]:
        weights = _barycentric(ray, support_rays)
        x = sum(float(w) * cx for w, (cx, _) in zip(weights, corners))
        y = sum(float(w) * cy for w, (_, cy) in zip(weights, corners))
        return x, y

    labels = _ray_labels(model)
    parts = _svg_header(model, decomposition)
    for index, chamber in enumerate(decomposition.chambers):
        points = [to_plane(ray) for ray in chamber.rays]
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        path = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in points)
        parts.append(
            '<polygon points="%s" fill="%s" fill-opacity="0.55" '
            'stroke="#333333" stroke-width="1"/>'
            % (path, PALETTE[index % len(PALETTE)])
        )
    center_x = sum(c[0] for c in corners) / 3
    center_y = sum(c[1] for c in corners) / 3
    for ray in decomposition.rays:
        x, y = to_plane(ray)
        dx, dy = x - center_x, y - center_y
        norm = math.hypot(dx, dy) or 1.0
        lx, ly = x + 18 * dx / norm, y + 18 * dy / norm
        parts.append('<circle cx="%s" cy="%s" r="3" fill="#222222"/>' % (_fmt(x), _fmt(y)))
        parts.append(_text(_fmt(lx), _fmt(ly), _label_for(ray, labels)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bar_svg(model: SpaceModel, decomposition: ChamberDecomposition) -> str:
    support_rays = decomposition.support.rays
    labels = _ray_labels(model)
    left, right, y0, height = 60.0, 540.0, 190.0, 30.0
    parts = _svg_header(model, decomposition)

    def chamber_rect(x_low: float, x_high: float, index: int) -> str:
        return (
            '<rect x="%s" y="%s" width="%s" height="%s" fill="%s" '
            'fill-opacity="0.55" stroke="#333333"/>'
            % (_fmt(x_low), _fmt(y0), _fmt(x_high - x_low), _fmt(height), PALETTE[index % len(PALETTE)])
        )

    if len(support_rays) == 1:
        # a single ray: the whole effective cone is one chamber
        parts.append(chamber_rect(left, right, 0))
        parts.append(
            _text(_fmt((left + right) / 2), _fmt(y0 + 55), _label_for(support_rays[0], labels))
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def parameter(ray) -> Fraction:
        return _barycentric(ray, support_rays)[1]

    def x_of(t: Fraction) -> float:
        return left + float(t) * (right - left)

    intervals = sorted(
        (min(parameter(r) for r in chamber.rays), max(parameter(r) for r in chamber.rays))
        for chamber in decomposition.chambers
    )
    for index, (t_low, t_high) in enumerate(intervals):
        parts.append(chamber_rect(x_of(t_low), x_of(t_high), index))
    for ray in decomposition.rays:
        t = parameter(ray)
        x = x_of(t)
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#222222" stroke-width="1"/>'
            % (_fmt(x), _fmt(y0 - 8), _fmt(x), _fmt(y0 + height + 8))
        )
        parts.append(_text(_fmt(x), _fmt(y0 + height + 26), _label_for(ray, labels)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def chamber_svg(model: SpaceModel, decomposition: ChamberDecomposition) -> str:
    """Render a chamber decomposition to a standalone SVG document."""

    if model.basis is None:
        raise OutOfScope("drawing needs a coordinate model")
    if len(model.basis) == 3:
        return _triangle_svg(model, decomposition)
    return _bar_svg(model, decomposition)


# ---------------------------------------------------------------------------
# markdown


def _kv_table(pairs) -> List[str]:
    lines = ["| quantity | value |", "| --- | --- |"]
    for key, value in pairs:
        lines.append("| %s | %s |" % (key, "-" if value is None else value))
    return lines


def _coords_text(coords: Optional[Sequence]) -> str:
    if coords is None:
        return "-"
    return "(" + ", ".join(str(c) for c in coords) + ")"


def markdown_report(payload: Dict) -> str:
    """Render a CLI payload (already JSON-ready) as a markdown document."""

    lines: List[str] = []
    space = payload.get("space")
    if space is not None:
        lines.append("# %s" % space["name"])
        lines.append("")
        invariants = payload.get("invariants") or {}
        pairs = [
            ("dimension", invariants.get("dimension")),
            ("class rank", invariants.get("picard_rank")),
            ("orbit Picard group", invariants.get("orbit_picard")),
            ("positivity", payload.get("positivity")),
            ("automorphisms", payload.get("automorphisms")),
        ]
        secant = invariants.get("secant")
        if secant is not None:
            pairs.append(("secant dimension", secant.get("dimension")))
            pairs.append(("secant degree", secant.get("degree")))
            pairs.append(("ambient dimension", secant.get("ambient_dimension")))
        lines.extend(_kv_table(pairs))
        lines.append("")
        if space.get("basis") is not None:
            lines.append("## Divisor classes (basis: %s)" % ", ".join(space["basis"]))
            lines.append("")
            lines.append("| class | coordinates |")
            lines.append("| --- | --- |")
            for label in sorted(space["classes"]):
                lines.append(
                    "| %s | %s |" % (label, _coords_text(space["classes"][label]))
                )
            lines.append("")
        cones = payload.get("cones")
        if cones is not None:
            lines.append("## Cones")
            lines.append("")
            for cone_name in ("effective", "nef", "moving"):
                entry = cones.get(cone_name)
                if entry is None:
                    continue
                generators = entry.get("generators")
                if generators is None:
                    continue
                lines.append("- %s: generated by %s" % (cone_name, ", ".join(generators)))
            lines.append("")
    chambers = payload.get("chambers")
    if chambers is not None:
        lines.append("## Chamber decomposition")
        lines.append("")
        count, rays = chambers["count"], len(chambers["rays"])
        lines.append("%s on %s" % (_counted(count, "chamber"), _counted(rays, "ray")))
        lines.append("")
        lines.append("| # | extreme rays | nef |")
        lines.append("| --- | --- | --- |")
        for index, chamber in enumerate(chambers["chambers"], start=1):
            rays = "; ".join(_coords_text(r) for r in chamber["rays"])
            lines.append(
                "| %d | %s | %s |" % (index, rays, "yes" if chamber["is_nef"] else "")
            )
        lines.append("")
    verifications = payload.get("verifications")
    if verifications is not None:
        lines.append("## Verifications")
        lines.append("")
        lines.append("| check | parameters | result |")
        lines.append("| --- | --- | --- |")
        for report in verifications:
            params = ", ".join(
                "%s=%s" % (k, v) for k, v in sorted(report["parameters"].items())
            )
            lines.append(
                "| %s | %s | %s |"
                % (report["name"], params, "pass" if report["passed"] else "FAIL")
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
