"""Shared helpers for PSL(2,R) tests: seeded random elements and the
iterated translation-number estimate that serves as the oracle for the
closed form in psl2r.translation_number."""

import math

from blowupgate.psl2r import PSL2, mat_mul, rotation, sym_exp


def random_psl2(rng):
    m = mat_mul(rotation(rng.uniform(-3, 3)),
                sym_exp(rng.gauss(0, 1), rng.gauss(0, 1)))
    return PSL2(m)


def windowed_translation_number(lift, iterations):
    """(lift^n(0) - lift^h(0)) / ((n - h) pi) with n = iterations and
    h = n // 2.  Dropping the first h steps drops the bounded transient,
    so the error is below 2 / iterations."""
    half = iterations // 2
    x = x_half = 0.0
    for n in range(1, iterations + 1):
        x = lift.apply(x)
        if n == half:
            x_half = x
    return (x - x_half) / ((iterations - half) * math.pi)
