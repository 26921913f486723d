"""Uniform result type for the verification routines."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction


def jsonable(value):
    """Recursively convert Fractions and tuples into JSON-friendly values.

    Rationals render as 'p/q' strings (plain 'p' when the denominator is 1)
    so that exact values survive the trip through JSON unchanged.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    ``counterexample`` is None when the check passed; otherwise it holds
    enough data to reproduce the failure by hand.  ``counts`` carries
    whatever tallies the check accumulated, ``details`` any derived values
    worth reporting (predicted dimensions, solved coefficients and so on).
    """

    name: str
    parameters: dict
    passed: bool
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return jsonable(asdict(self))
