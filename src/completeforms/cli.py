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

Only the checks that enumerate matrices (``census``, ``rank-lemma`` and
``component-split``) import the enumeration, the numpy-free
:mod:`completeforms._enumeration`; every other command starts without it.
The enumeration checks each request (format, budget, primality) before it
walks, and only a check over an odd q that passes goes on to load the odd-q
kernel, and with it numpy; an F_2 check or a refused request runs without
numpy.  Likewise only ``tangent-cone`` imports
:mod:`completeforms.polynomials`.

Exit codes: 0 success, 1 a verification ran and failed, 2 bad parameters,
an exceeded enumeration budget, an unwritable ``--svg`` path or an output
that cannot be written, 3 the space has no recorded coordinate data for the
request.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import namedtuple
from typing import Callable, Dict, Optional, Tuple

from . import secants, spaces
from .errors import CoordinatesUnknown, OutOfScope
from .rendering import chamber_svg, markdown_report
from .reports import VerificationReport, jsonable

OUT_OF_SCOPE_MESSAGE = "class coordinates are not available for this space"

# --space name -> kind class, read off the catalog's kind table
_SPACES = {entry.cli_name: cls for cls, entry in spaces._KINDS.items()}


def _determinantal():
    """The finite-field enumeration, imported on first use: the numpy-free
    module, which checks each request and loads numpy only to walk an odd q."""
    from . import _enumeration

    return _enumeration


def _tangent_cone(a: argparse.Namespace) -> VerificationReport:
    """The tangent-cone check; the symbolic minors load only for it."""
    from . import polynomials

    return polynomials.verify_tangent_cone(a.n, a.m, a.h, a.k, symmetric=a.symmetric)


_Check = namedtuple("_Check", "params takes_symmetric run")
_Check.__doc__ = """One ``verify --check``: the flags it takes, and its runner."""

_CHECKS = {
    "rank-lemma": _Check(
        ("rows", "cols", "k", "q"),
        False,
        lambda a: _determinantal().verify_rank_minor_lemma(a.rows, a.cols, a.k, a.q),
    ),
    "component-split": _Check(
        ("rows", "cols", "k", "q"),
        True,
        lambda a: _determinantal().verify_component_split(
            a.rows, a.cols, a.k, a.q, symmetric=a.symmetric
        ),
    ),
    "census": _Check(
        ("rows", "cols", "q"), True, lambda a: _census_report(a.rows, a.cols, a.q, a.symmetric)
    ),
    "tangent-cone": _Check(("n", "m", "h", "k"), True, _tangent_cone),
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
    return dict.fromkeys(
        ("space", "invariants", "cones", "chambers", "positivity", "automorphisms", "verifications")
    )


def _cone_entry(model, labels) -> Optional[Dict]:
    if labels is None:
        return None
    entry: Dict = {"generators": list(labels), "rays": None}
    try:
        cone = model.cone_spanned_by(labels)
    except CoordinatesUnknown:
        pass
    else:
        entry["rays"] = [list(r) for r in cone.rays]
    return entry


def _space_sections(model: spaces.SpaceModel) -> Dict:
    payload = _envelope()
    payload["space"] = model.to_dict()
    try:
        orbit = str(spaces.orbit_picard_group(model.kind))
    except OutOfScope:
        orbit = None
    payload["invariants"] = {
        "dimension": model.dimension,
        "picard_rank": model.picard_rank,
        "boundary_count": len(model.boundary),
        "orbit_picard": orbit,
        "secant": model.secant.to_dict() if model.secant is not None else None,
        "stated_chamber_count": model.stated_chamber_count,
    }
    payload["cones"] = {
        "effective": _cone_entry(model, model.eff_generators),
        "nef": _cone_entry(model, model.nef_generators),
        "moving": _cone_entry(model, model.mov_generators),
    }
    try:
        payload["positivity"] = model.positivity().value
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
    sys.stdout.flush()  # here a write error reaches main, not the flush at exit


# ---------------------------------------------------------------------------
# subcommands


def _cmd_invariants(parser, args) -> int:
    _emit(_space_sections(spaces.build_model(_kind_from_args(parser, args))), args.format)
    return 0


def _cmd_chambers(parser, args) -> int:
    model = spaces.build_model(_kind_from_args(parser, args))
    decomposition = model.chambers()
    payload = _space_sections(model)
    # a chamber is full dimensional, so its sorted extreme rays determine it
    nef = payload["cones"]["nef"] and payload["cones"]["nef"]["rays"]
    chambers = [[list(r) for r in chamber.rays] for chamber in decomposition.chambers]
    payload["chambers"] = {
        "count": decomposition.chamber_count,
        "rays": [list(r) for r in decomposition.rays],
        "hyperplanes": [list(h) for h in decomposition.hyperplane_normals],
        "chambers": [{"rays": rays, "is_nef": rays == nef} for rays in chambers],
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
    census = _determinantal().rank_census(a, b, q, symmetric=symmetric)
    if symmetric:
        key = "reference"
        expected = {
            r: secants.symmetric_rank_count_closed_form(a, r, q) for r in range(a + 1)
        }
    else:
        key = "closed_form"
        expected = {
            r: secants.rank_count_closed_form(a, b, r, q)
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
    # a secant degree in range runs past 90,000 digits: print it whole, past
    # the limit on str(int) of Python 3.11 on, and leave the limit as it was
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
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
    except OSError as exc:  # the output cannot be written: a closed pipe, a full disk
        # bytes still buffered go to devnull at the interpreter's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
