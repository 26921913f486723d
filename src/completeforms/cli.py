"""Command line interface.

Three subcommands:

``invariants``
    Catalog data for one space: dimension, class rank, orbit Picard group,
    divisor classes, cone generators, positivity, automorphisms.

``chambers``
    The chamber decomposition of the effective cone, optionally drawn to an
    SVG cross-section.

``verify``
    Run one of the exhaustive or symbolic verification routines and report
    pass/fail.

Exit codes: 0 success, 1 a verification ran and failed, 2 bad parameters,
an exceeded enumeration budget or an unwritable ``--svg`` path, 3 the space
has no recorded coordinate data for the request.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from . import determinantal, polynomials, spaces
from .errors import CoordinatesUnknown, OutOfScope
from .rendering import chamber_svg, markdown_report
from .reports import VerificationReport, jsonable

OUT_OF_SCOPE_MESSAGE = "class coordinates are not available for this space"

# --space name -> kind class, read off the catalog's kind table
_SPACES = {entry.cli_name: cls for cls, entry in spaces._KINDS.items()}


class _Check(NamedTuple):
    """One ``verify --check``: the flags it takes, and its runner."""

    params: Tuple[str, ...]
    takes_symmetric: bool
    run: Callable[[argparse.Namespace], VerificationReport]


_CHECKS = {
    "rank-lemma": _Check(
        ("rows", "cols", "k", "q"),
        False,
        lambda a: determinantal.verify_rank_minor_lemma(a.rows, a.cols, a.k, a.q),
    ),
    "component-split": _Check(
        ("rows", "cols", "k", "q"),
        True,
        lambda a: determinantal.verify_component_split(
            a.rows, a.cols, a.k, a.q, symmetric=a.symmetric
        ),
    ),
    "census": _Check(
        ("rows", "cols", "q"), True, lambda a: _census_report(a.rows, a.cols, a.q, a.symmetric)
    ),
    "tangent-cone": _Check(
        ("n", "m", "h", "k"),
        True,
        lambda a: polynomials.verify_tangent_cone(a.n, a.m, a.h, a.k, symmetric=a.symmetric),
    ),
    "rh-solve": _Check(("n",), False, lambda a: spaces.verify_riemann_hurwitz(a.n)),
    "knm-identity": _Check(("n", "m"), False, lambda a: spaces.sanity_check_knm(a.n, a.m)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="completeforms",
        description="invariants, cones, and verification for spaces of complete forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_arguments(p):
        p.add_argument("--space", required=True, choices=sorted(_SPACES))
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--h", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--format", choices=("json", "markdown"), default="json")

    p_inv = sub.add_parser("invariants", help="catalog data for one space")
    add_space_arguments(p_inv)

    p_cham = sub.add_parser("chambers", help="chamber decomposition of the effective cone")
    add_space_arguments(p_cham)
    p_cham.add_argument("--svg", metavar="PATH", help="also draw a cross-section to PATH")

    p_ver = sub.add_parser("verify", help="run one verification routine")
    p_ver.add_argument("--check", required=True, choices=sorted(_CHECKS))
    p_ver.add_argument("--rows", type=int)
    p_ver.add_argument("--cols", type=int)
    p_ver.add_argument("--k", type=int)
    p_ver.add_argument("--q", type=int)
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--h", type=int)
    p_ver.add_argument("--symmetric", action="store_true")
    p_ver.add_argument("--format", choices=("json", "markdown"), default="json")
    return parser


def _check_flags(parser, args, what: str, needed, flags) -> None:
    """Usage error unless exactly the ``needed`` ones among ``flags`` are given."""
    for name in flags:
        given = getattr(args, name)
        if name in needed and given is None:
            parser.error("%s requires --%s" % (what, name))
        if name not in needed and given is not None:
            parser.error("%s does not take --%s" % (what, name))


def _kind_from_args(parser, args) -> spaces.SpaceKind:
    cls = _SPACES[args.space]
    needed = [f.name for f in dataclasses.fields(cls)]
    _check_flags(parser, args, "--space %s" % args.space, needed, ("n", "m", "h", "k"))
    return cls(**{name: getattr(args, name) for name in needed})


# ---------------------------------------------------------------------------
# payload assembly


def _envelope() -> Dict:
    return {
        "space": None,
        "invariants": None,
        "cones": None,
        "chambers": None,
        "positivity": None,
        "automorphisms": None,
        "verifications": None,
    }


def _cone_entry(model, labels) -> Optional[Dict]:
    if labels is None:
        return None
    entry: Dict = {"generators": list(labels), "rays": None}
    if model.has_coordinates:
        try:
            cone = model.cone_spanned_by(labels)
        except CoordinatesUnknown:
            pass
        else:
            entry["rays"] = [list(r) for r in cone.rays]
    return entry


def _space_sections(kind) -> Dict:
    model = spaces.build_model(kind)
    payload = _envelope()
    payload["space"] = model.to_dict()
    secant = spaces._secant(kind)
    try:
        orbit = str(spaces.orbit_picard_group(kind))
    except OutOfScope:
        orbit = None
    payload["invariants"] = {
        "dimension": model.dimension,
        "picard_rank": model.picard_rank,
        "boundary_count": len(model.boundary),
        "orbit_picard": orbit,
        "secant": secant.to_dict() if secant is not None else None,
        "stated_chamber_count": model.stated_chamber_count,
    }
    payload["cones"] = {
        "effective": _cone_entry(model, model.eff_generators),
        "nef": _cone_entry(model, model.nef_generators),
        "moving": _cone_entry(model, model.mov_generators),
    }
    try:
        payload["positivity"] = spaces.classify_positivity(kind).value
    except (OutOfScope, CoordinatesUnknown):
        payload["positivity"] = None
    payload["automorphisms"] = payload["space"]["automorphisms"]
    return payload


def _emit(payload: Dict, fmt: str) -> None:
    data = jsonable(payload)
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(markdown_report(data), end="")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_invariants(parser, args) -> int:
    kind = _kind_from_args(parser, args)
    payload = _space_sections(kind)
    _emit(payload, args.format)
    return 0


def _cmd_chambers(parser, args) -> int:
    kind = _kind_from_args(parser, args)
    model = spaces.build_model(kind)
    decomposition = spaces.mori_chambers(kind)
    try:
        nef = model.nef_cone()
    except CoordinatesUnknown:
        nef = None
    payload = _space_sections(kind)
    payload["chambers"] = {
        "count": decomposition.chamber_count,
        "rays": [list(r) for r in decomposition.rays],
        "hyperplanes": [list(h) for h in decomposition.hyperplane_normals],
        "chambers": [
            {
                "rays": [list(r) for r in chamber.rays],
                "is_nef": nef is not None and chamber == nef,
            }
            for chamber in decomposition.chambers
        ],
    }
    if args.svg:
        document = chamber_svg(model, decomposition)
        try:
            with open(args.svg, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    _emit(payload, args.format)
    return 0


def _census_report(a: int, b: int, q: int, symmetric: bool) -> VerificationReport:
    census = determinantal.rank_census(a, b, q, symmetric=symmetric)
    if symmetric:
        key = "reference"
        expected = {
            r: determinantal.symmetric_rank_count_closed_form(a, r, q) for r in range(a + 1)
        }
    else:
        key = "closed_form"
        expected = {
            r: determinantal.rank_count_closed_form(a, b, r, q)
            for r in range(min(a, b) + 1)
        }
    observed = census.as_dict()
    passed = observed == expected
    details = {
        "counts": {str(r): c for r, c in sorted(observed.items())},
        key: {str(r): c for r, c in sorted(expected.items())},
    }
    return VerificationReport(
        name="rank-census",
        parameters={"rows": a, "cols": b, "q": q, "symmetric": symmetric},
        passed=passed,
        counts={"matrices": census.total},
        details=details,
        counterexample=None if passed else details,
    )


def _cmd_verify(parser, args) -> int:
    check = _CHECKS[args.check]
    what = "--check %s" % args.check
    _check_flags(parser, args, what, check.params, ("rows", "cols", "k", "q", "n", "m", "h"))
    if args.symmetric and not check.takes_symmetric:
        parser.error("%s does not take --symmetric" % what)
    report = check.run(args)

    payload = _envelope()
    payload["verifications"] = [report.to_dict()]
    _emit(payload, args.format)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "invariants":
            return _cmd_invariants(parser, args)
        if args.command == "chambers":
            return _cmd_chambers(parser, args)
        return _cmd_verify(parser, args)
    except (OutOfScope, CoordinatesUnknown):
        print(OUT_OF_SCOPE_MESSAGE, file=sys.stderr)
        return 3
    except (ValueError, TypeError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
