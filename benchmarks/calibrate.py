"""Host-speed calibration: a fixed piece of pure-Python work.

It imports nothing from seriesforge, so no change to the package moves
its time.  The spawn helper of :mod:`procs` times :func:`work` between
every two timed jobs; the mean of the two calibrations around a job
tells how fast the host ran at that moment, and ``run.py`` scales the
job's wall time by it (see ``run.CAL_REF_S``).  The work mixes what
seriesforge spends its time on: big-integer sums of binomial products
and small Fractions in dicts.
"""

from fractions import Fraction
from math import comb


def work() -> int:
    # the labeled ultrametric recurrence at m = 4, as big integers
    p = [0, 1]
    for n in range(1, 64):
        p.append(p[n] + 3 * sum(comb(n, i) * p[i] * p[n + 1 - i] for i in range(1, n + 1)))
    # sparse polynomial-like accumulation over Q
    poly: dict = {}
    for i in range(1, 10000):
        key = (i % 31, i % 7)
        poly[key] = poly.get(key, Fraction(0)) + Fraction(i % 13, 1 + i % 5)
    return p[-1] % 1_000_003 + sum(poly.values()).numerator % 1_000_003
