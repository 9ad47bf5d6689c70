"""Shared helper for Brieskorn census tests: the Jankins-Neumann class
count, in exact rational arithmetic."""

import itertools
from fractions import Fraction


def jankins_neumann_count(exponents):
    """1 for the trivial class, plus one class per angle triple l with
    sum l_i / p_i < 1; its mirror p - l, with sum > 2, is the same class
    up to PGL(2,R) conjugacy."""
    return 1 + sum(
        1 for angles in itertools.product(*(range(1, p) for p in exponents))
        if sum(Fraction(l, p) for l, p in zip(angles, exponents)) < 1)
