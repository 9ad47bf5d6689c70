"""Exact integer and Laurent-polynomial arithmetic.

Everything in here is arbitrary precision: Smith normal forms of integer
matrices, finitely generated abelian groups read off from them, and
integer Laurent polynomials compared up to units +-t^k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, prod
from operator import add

from .errors import BlowupgateError, InputError, _integer, _integers, _Record


class NonSquare(BlowupgateError, ValueError):
    """A determinant of a non-square matrix was requested."""


class ZeroEvaluationPoint(BlowupgateError, ValueError):
    """Laurent polynomials cannot be evaluated at 0."""


class IntMatrix(_Record):
    """Dense integer matrix, row-major, with exact arithmetic only."""

    rows: int
    cols: int
    entries: tuple

    def __init__(self, rows, cols, entries):
        if type(rows) is not int or type(cols) is not int:
            rows, cols = _integer(rows), _integer(cols)
        if rows < 0 or cols < 0:
            raise InputError("negative dimensions")
        # one type test over the tuple: _integers per entry would cost
        # about 130 ns each
        if type(entries) is not tuple or not set(map(type, entries)) <= {int}:
            entries = _integers(entries)
        if len(entries) != rows * cols:
            raise InputError("entry count does not match dimensions")
        self._store(rows, cols, entries)

    @staticmethod
    def from_rows(data) -> "IntMatrix":
        try:
            data = [list(row) for row in data]
        except TypeError:           # data or a row is not iterable
            raise InputError(f"{data!r} is not an array of arrays") from None
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise InputError("ragged rows")
        return IntMatrix(rows, cols, tuple(chain.from_iterable(data)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        n = _integer(n)
        return IntMatrix(n, n, tuple(1 if i == j else 0
                                     for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        rows, cols = _integer(rows), _integer(cols)
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list:
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix._of(c, self.rows, tuple(
            chain.from_iterable(e[j::c] for j in range(c))))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch")
        return IntMatrix._of(self.rows, self.cols,
                             tuple(map(add, self.entries, other.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError("shape mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix._of(self.rows, other.cols, tuple(out))

    def det(self) -> int:
        """Exact determinant: unit pivots first, then Bareiss elimination.

        _peel_units expands along every entry +-1 it can find, which
        costs one multiply-subtract per touched entry; fraction-free
        (Bareiss) elimination, which rescales every remaining row with
        two multiplications and an exact division per step, takes the
        rest.
        """
        if self.rows != self.cols:
            raise NonSquare(f"{self.rows}x{self.cols} matrix")
        a = self.to_rows()
        sign = _peel_units(a)
        n = len(a)
        if n == 0:
            return sign
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _peel_units(a: list) -> int:
    """Split the pivots +-1 off the row list a, in place; return the sign.

    While some entry p = +-1 remains, at row i and column j of the
    active rows, every other row with a nonzero entry x in column j has
    x * p times row i subtracted from it (p is its own inverse, so no
    division is needed), and row i and column j are removed.  The rows
    left hold a matrix with the same Smith form as the input, less one
    factor 1 per pivot; for a square input its determinant times the
    returned sign, the product of (-1)^(i+j) * p over the pivots, is
    the input's.  Rows before `start` are known to hold no unit.
    """
    sign = 1
    start = 0
    while True:
        for i in range(start, len(a)):
            row = a[i]
            if 1 in row:
                p = 1
                break
            if -1 in row:
                p = -1
                break
        else:
            return sign
        j = row.index(p)
        del a[i]
        del row[j]
        start = i
        sign = sign * p if (i + j) % 2 == 0 else -sign * p
        nz = [(c, y * p) for c, y in enumerate(row) if y]
        for k, other in enumerate(a):
            x = other.pop(j)
            if x:
                for c, y in nz:
                    other[c] -= x * y
                if k < start:
                    start = k


class AbelianGroup(_Record):
    """Finitely generated abelian group: free rank plus invariant factors.

    The torsion list d_1 | d_2 | ... is the divisor chain of a Smith
    normal form, each d_i >= 2.
    """

    rank: int
    torsion: tuple

    def __init__(self, rank, torsion=()):
        rank, torsion = _integer(rank), _integers(torsion)
        if rank < 0:
            raise InputError("negative rank")
        for d in torsion:
            if d < 2:
                raise InputError("torsion divisors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise InputError("divisor chain violated")
        self._store(rank, torsion)

    @property
    def order(self):
        """Group order, or None for infinite groups."""
        if self.rank > 0:
            return None
        return prod(self.torsion) if self.torsion else 1

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _eliminate(a: list, r: int, c: int) -> None:
    """Diagonalize the leading r x c block of the row list a in place.

    Rows may be longer than c and a may hold rows below the first r: row
    operations act on whole rows among the first r, column operations on
    the first c entries of every row, so identities bordering the block
    record the operations.

    Each round moves a least nonzero entry to (t, t): after a round that
    left remainders, the least of those; otherwise the least of the
    trailing block, ties going to the first in row-major order.  The
    round clears column t by row operations and, only once column t is
    clear, row t by column operations.  A remainder is smaller than the
    pivot, so the pivot shrinks from round to round.  With both clear, a
    row whose entries the pivot does not all divide is added to row t,
    so the pivot shrinks in the next rounds too; otherwise the pivot is
    made positive and t advances.  Least pivots keep intermediate growth
    down; the diagonal ends as a nonnegative divisor chain d_1 | d_2 ...
    """
    t, rest = 0, []
    while t < r and t < c:
        if not rest:
            rest = [(abs(x), i, j) for i in range(t, r)
                    for j, x in enumerate(a[i][t:c], t) if x]
            if not rest:
                return
        _, i, j = min(rest)
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        top = a[t]
        p = top[t]
        for i in range(t + 1, r):
            if a[i][t]:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        rest = [(abs(a[i][t]), i, t) for i in range(t + 1, r) if a[i][t]]
        if rest:
            continue
        for j in range(t + 1, c):
            if top[j]:
                q = top[j] // p
                for row in a:
                    row[j] -= q * row[t]
        rest = [(abs(x), t, j) for j, x in enumerate(top[t + 1:c], t + 1) if x]
        if rest:
            continue
        offender = next((row for row in a[t + 1:r]
                         if any(x % p for x in row[t + 1:c])), None)
        if offender is not None:
            a[t] = list(map(add, top, offender))
            continue
        if p < 0:
            a[t] = [-x for x in top]
        t += 1


def smith_normal_form(m: IntMatrix):
    """Diagonalize m over Z.

    Returns (U, D, V) with U @ m @ V == D, U and V unimodular, and D
    diagonal with a nonnegative divisor chain d_1 | d_2 | ...  U and V
    are read off the bordered matrix [[m, I_r], [I_c]]: the elimination
    that diagonalizes m applies its row operations to I_r and its column
    operations to I_c.  Use cokernel or invariant_factors when U and V
    are not needed; they eliminate the bare matrix.
    """
    r, c = m.rows, m.cols
    a = [row + e
         for row, e in zip(m.to_rows(), IntMatrix.identity(r).to_rows())]
    a += IntMatrix.identity(c).to_rows()
    _eliminate(a, r, c)
    return (IntMatrix.from_rows(row[c:] for row in a[:r]),
            IntMatrix.from_rows(row[:c] for row in a[:r]) if r
            else IntMatrix(0, c, ()),
            IntMatrix.from_rows(a[r:]))


def invariant_factors(m: IntMatrix) -> list:
    """Nonzero diagonal entries of the Smith normal form, in chain order.

    Integer-only and without the transforms: the pivots +-1 are split
    off first by _peel_units, one factor 1 each, and _eliminate
    diagonalizes the bare matrix that is left, so no U or V is built.
    """
    # zero rows add no relation, and the unit search would scan them
    a = [row for row in m.to_rows() if any(row)]
    rows = len(a)
    _peel_units(a)
    units = rows - len(a)
    r, c = len(a), m.cols - units
    _eliminate(a, r, c)
    return [1] * units + [a[i][i] for i in range(min(r, c)) if a[i][i] != 0]


def cokernel(m: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row span of m, from its invariant factors.

    Integer-only; no unimodular transforms are built, and the pivots
    +-1, which add only factors 1, are split off before the Smith
    elimination (see invariant_factors).
    """
    facs = invariant_factors(m)
    return AbelianGroup(rank=m.cols - len(facs),
                        torsion=tuple(d for d in facs if d >= 2))


class LaurentPoly:
    """Integer Laurent polynomial, stored as exponent -> nonzero coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        elif not isinstance(coeffs, dict):
            raise InputError(f"{coeffs!r} is not a dict of exponent -> "
                             "coefficient")
        if not {*map(type, coeffs), *map(type, coeffs.values())} <= {int}:
            coeffs = {_integer(e): _integer(k) for e, k in coeffs.items()}
        self._c = {e: k for e, k in coeffs.items() if k}

    @staticmethod
    def _of(c: dict) -> "LaurentPoly":
        """Wrap c itself, unchecked: c must map ints to nonzero ints and
        must not be changed afterwards.  For dicts the package built."""
        p = object.__new__(LaurentPoly)
        p._c = c
        return p

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def t(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @staticmethod
    def from_coeffs(coeffs, min_exp: int = 0) -> "LaurentPoly":
        return LaurentPoly({min_exp + i: c for i, c in enumerate(coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self):
        return min(self._c) if self._c else None

    @property
    def max_exp(self):
        return max(self._c) if self._c else None

    def items(self):
        return sorted(self._c.items())

    def coeff_list(self):
        """Dense coefficients from min_exp upward; ([], 0) for zero."""
        if not self._c:
            return [], 0
        lo, hi = self.min_exp, self.max_exp
        return [self._c.get(e, 0) for e in range(lo, hi + 1)], lo

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __neg__(self):
        return LaurentPoly({e: -k for e, k in self._c.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c = dict(self._c)
        for e, k in other._c.items():
            c[e] = c.get(e, 0) + k
        return LaurentPoly(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: k * other for e, k in self._c.items()})
        c = {}
        for e1, k1 in self._c.items():
            for e2, k2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + k1 * k2
        return LaurentPoly(c)

    __rmul__ = __mul__

    def eval_at(self, x) -> Fraction:
        """Exact value at a nonzero rational point: the sum of k x^e
        over the terms, in Fractions."""
        x = Fraction(x)
        if x == 0:
            raise ZeroEvaluationPoint("cannot evaluate at 0")
        return sum((k * x ** e for e, k in self._c.items()), Fraction(0))

    def unit_normalize(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k.

        Lowest exponent becomes 0 and the top coefficient positive; zero
        stays zero; idempotent.
        """
        if not self._c:
            return LaurentPoly()
        lo = self.min_exp
        sign = 1 if self._c[self.max_exp] > 0 else -1
        return LaurentPoly({e - lo: sign * k for e, k in self._c.items()})

    def unit_equal(self, other: "LaurentPoly") -> bool:
        return self.unit_normalize() == other.unit_normalize()

    def __repr__(self):
        if not self._c:
            return "LaurentPoly(0)"
        terms = []
        for e, k in self.items():
            if e == 0:
                terms.append(f"{k}")
            elif e == 1:
                terms.append(f"{k}*t")
            else:
                terms.append(f"{k}*t^{e}")
        return "LaurentPoly(" + " + ".join(terms) + ")"


def laurent_det(mat) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Kronecker substitution: each row is divided by t to its least
    exponent, every entry is evaluated at t = 2**bits, one integer
    determinant is taken with IntMatrix.det, and its coefficients are
    read off as balanced base-2**bits digits.  The product over rows of
    the sum of absolute coefficients in the row bounds every coefficient
    of the determinant, and 2**bits exceeds twice that bound, so the
    digits are exact.  The empty matrix has determinant 1.

    An entry +-t^k at its row's least exponent becomes +-1, and
    IntMatrix.det splits such pivots off before its Bareiss
    elimination: Wirtinger Fox minors (entries 1 - t, t and -1) and
    braid Seifert forms have one in most rows.
    """
    bound = 1
    lows, terms = [], []
    try:
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise NonSquare("matrix of Laurent polynomials is not square")
        # one pass over the terms of each row, which zero entries lack,
        # finds its least exponent and coefficient sum; the terms are kept
        # for the substitution, which needs bits from every row
        for row in mat:
            low, size, row_terms = None, 0, []
            for j, entry in enumerate(row):
                for e, k in entry._c.items():
                    if low is None or e < low:
                        low = e
                    size += abs(k)
                    row_terms.append((j, e, k))
            if low is None:
                return LaurentPoly.zero()
            lows.append(low)
            terms.append(row_terms)
            bound *= size
    except (TypeError, AttributeError):
        raise InputError("laurent_det takes an array of arrays of "
                         "LaurentPoly") from None
    bits = (2 * bound).bit_length()
    values = [0] * (n * n)
    for i, (row_terms, low) in enumerate(zip(terms, lows)):
        for j, e, k in row_terms:
            values[i * n + j] += k << (bits * (e - low))
    value = IntMatrix._of(n, n, tuple(values)).det()
    base = 1 << bits
    coeffs = {}
    exp = sum(lows)
    while value:
        digit = value & (base - 1)
        if digit >= base >> 1:
            digit -= base
        coeffs[exp] = digit
        value = (value - digit) >> bits
        exp += 1
    return LaurentPoly(coeffs)


def _int_content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    return g


def _primitive_int(coeffs):
    g = _int_content(coeffs)
    if g == 0:
        return []
    out = [c // g for c in coeffs]
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _poly_mod(a, b):
    # remainder of dense Fraction polynomial division, lists low -> high
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= q * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def laurent_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """gcd in Z[t, 1/t], unit-normalized.

    Computed as integer content gcd times the primitive-part gcd, the
    latter by the Euclidean algorithm over the rationals.
    """
    p = p.unit_normalize()
    q = q.unit_normalize()
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    ca, _ = p.coeff_list()
    cb, _ = q.coeff_list()
    content = gcd(_int_content(ca), _int_content(cb))
    a = [Fraction(c) for c in _primitive_int(ca)]
    b = [Fraction(c) for c in _primitive_int(cb)]
    while b:
        a, b = b, _poly_mod(a, b)
    num_lcm = 1
    for c in a:
        num_lcm = num_lcm * c.denominator // gcd(num_lcm, c.denominator)
    ints = [int(c * num_lcm) for c in a]
    prim = _primitive_int(ints)
    return (content * LaurentPoly.from_coeffs(prim)).unit_normalize()
