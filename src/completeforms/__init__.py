"""completeforms: exact invariants and cone geometry for spaces of complete forms.

The package is organized bottom up:

- :mod:`completeforms.lattice` - exact integer/rational linear algebra
  (Smith normal form with transforms, cokernels, strict rational solving).
- :mod:`completeforms.cones` - rational polyhedral cones, duality, and
  chamber decompositions of a cone relative to a finite vector configuration.
- :mod:`completeforms.polynomials` - sparse exact polynomials in matrix
  entries, symbolic minors, and the tangent-cone leading-form check.
- :mod:`completeforms.secants` - every closed form: secant dimensions and
  degrees, rank counts over F_q and the primality test; no numpy.
- :mod:`completeforms.determinantal` - exhaustive finite-field enumeration
  of determinantal loci and the verifications built on it.
- :mod:`completeforms.spaces` - the catalog of compactified spaces of forms:
  Picard data, boundary and color classes, cone generators, chamber counts,
  positivity classification, automorphism groups and comparison dictionaries.
- :mod:`completeforms.cli` - the ``completeforms`` command line tool.
"""

__version__ = "0.1.0"

from .errors import (
    AmbientTooLarge,
    BudgetExceeded,
    CoordinatesUnknown,
    DimensionMismatch,
    IndexOutOfRange,
    NonPrimeField,
    NotFullDimensional,
    NotPointed,
    OutOfScope,
    TooLarge,
    UnderDetermined,
)

__all__ = [
    "AmbientTooLarge",
    "BudgetExceeded",
    "CoordinatesUnknown",
    "DimensionMismatch",
    "IndexOutOfRange",
    "NonPrimeField",
    "NotFullDimensional",
    "NotPointed",
    "OutOfScope",
    "TooLarge",
    "UnderDetermined",
    "__version__",
]
