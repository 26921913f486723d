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
import json
import sys
from typing import Dict, Optional

from . import determinantal, polynomials, spaces
from .errors import CoordinatesUnknown, OutOfScope
from .rendering import chamber_svg, markdown_report
from .reports import VerificationReport, jsonable

OUT_OF_SCOPE_MESSAGE = "class coordinates are not available for this space"

_SPACE_PARAMS = {
    "C": ("n", "m", "h"),
    "Q": ("n", "h"),
    "secS": ("n", "m", "h", "k"),
    "secV": ("n", "h", "k"),
    "mbar-p": ("n",),
    "mbar-pxp": ("n", "m"),
    "mbar-gr": ("n",),
}

_CHECK_PARAMS = {
    "rank-lemma": ("rows", "cols", "k", "q"),
    "component-split": ("rows", "cols", "k", "q"),
    "census": ("rows", "cols", "q"),
    "tangent-cone": ("n", "m", "h", "k"),
    "rh-solve": ("n",),
    "knm-identity": ("n", "m"),
}

_CHECKS_WITH_SYMMETRIC = ("component-split", "census", "tangent-cone")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="completeforms",
        description="invariants, cones, and verification for spaces of complete forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_arguments(p):
        p.add_argument("--space", required=True, choices=sorted(_SPACE_PARAMS))
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
    p_ver.add_argument("--check", required=True, choices=sorted(_CHECK_PARAMS))
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


def _kind_from_args(parser, args) -> spaces.SpaceKind:
    needed = _SPACE_PARAMS[args.space]
    values = {}
    for name in ("n", "m", "h", "k"):
        given = getattr(args, name)
        if name in needed:
            if given is None:
                parser.error("--space %s requires --%s" % (args.space, name))
            values[name] = given
        elif given is not None:
            parser.error("--space %s does not take --%s" % (args.space, name))
    if args.space == "C":
        return spaces.Collineations(values["n"], values["m"], values["h"])
    if args.space == "Q":
        return spaces.Quadrics(values["n"], values["h"])
    if args.space == "secS":
        return spaces.SegreBlowup(values["n"], values["m"], values["h"], values["k"])
    if args.space == "secV":
        return spaces.VeroneseBlowup(values["n"], values["h"], values["k"])
    if args.space == "mbar-p":
        return spaces.KontsevichP(values["n"])
    if args.space == "mbar-pxp":
        return spaces.KontsevichPxP(values["n"], values["m"])
    return spaces.KontsevichGr(values["n"])


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


def _secant_summary(kind) -> Optional[Dict]:
    try:
        if isinstance(kind, (spaces.Collineations, spaces.SegreBlowup)):
            return determinantal.segre_secant_invariants(kind.n, kind.m, kind.h).to_dict()
        if isinstance(kind, (spaces.Quadrics, spaces.VeroneseBlowup)):
            return determinantal.veronese_secant_invariants(kind.n, kind.h).to_dict()
        if isinstance(kind, spaces.KontsevichP):
            return determinantal.veronese_secant_invariants(kind.n, 3).to_dict()
        if isinstance(kind, spaces.KontsevichPxP):
            return determinantal.segre_secant_invariants(kind.n, kind.m, 2).to_dict()
        if isinstance(kind, spaces.KontsevichGr):
            return determinantal.veronese_secant_invariants(kind.n, 4).to_dict()
    except ValueError:
        return None
    return None


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
    try:
        orbit = str(spaces.orbit_picard_group(kind))
    except OutOfScope:
        orbit = None
    payload["invariants"] = {
        "dimension": model.dimension,
        "picard_rank": model.picard_rank,
        "boundary_count": len(model.boundary),
        "orbit_picard": orbit,
        "secant": _secant_summary(kind),
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
    needed = _CHECK_PARAMS[args.check]
    for name in ("rows", "cols", "k", "q", "n", "m", "h"):
        given = getattr(args, name)
        if name in needed:
            if given is None:
                parser.error("--check %s requires --%s" % (args.check, name))
        elif given is not None:
            parser.error("--check %s does not take --%s" % (args.check, name))
    if args.symmetric and args.check not in _CHECKS_WITH_SYMMETRIC:
        parser.error("--check %s does not take --symmetric" % args.check)

    if args.check == "rank-lemma":
        report = determinantal.verify_rank_minor_lemma(args.rows, args.cols, args.k, args.q)
    elif args.check == "component-split":
        report = determinantal.verify_component_split(
            args.rows, args.cols, args.k, args.q, symmetric=args.symmetric
        )
    elif args.check == "census":
        report = _census_report(args.rows, args.cols, args.q, args.symmetric)
    elif args.check == "tangent-cone":
        report = polynomials.verify_tangent_cone(
            args.n, args.m, args.h, args.k, symmetric=args.symmetric
        )
    elif args.check == "rh-solve":
        report = spaces.verify_riemann_hurwitz(args.n)
    else:
        report = spaces.sanity_check_knm(args.n, args.m)

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
