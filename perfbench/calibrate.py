"""Reference work, timed right before each case to read the machine's speed.

Other tenants of a shared machine slow every process on it down, by up to
half, for spells of tens of seconds, which a 30-second run cannot average
out.  A case's time divided by the time of reference work done just
before it is the case's cost in reference units (``ref``), which such
spells move far less than seconds.  The reference must slow down the way
the case does:

- ``catalog`` and ``verify`` workers run Python code, so they time
  ``compute_s``: exact fractions, as the cones layer uses them, and an
  integer loop.
- A ``cli`` invocation spends its time starting an interpreter and
  importing, so the ``cli`` driver times the start of a bare interpreter,
  ``python -c pass`` (``run.py``, ``startup_ref``).

In two sets of ten seeded runs per workload on a 2-vCPU VM, the pass cost
in ``ref`` spread (IQR over median) 0.042 and 0.047 on ``catalog``, 0.046
and 0.031 on ``verify``, and 0.020 and 0.017 on ``cli``.  The same runs
in seconds spread 0.122 and 0.217, 0.131 and 0.099, and 0.110 and 0.052.
"""

from fractions import Fraction
from time import perf_counter


def compute_s() -> float:
    """Seconds of pure-Python work, about 12 ms on a quiet 2-vCPU VM."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return perf_counter() - start
