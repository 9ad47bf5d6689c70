"""SL(2,R) / PSL(2,R) arithmetic and circle dynamics.

Matrices are plain 4-tuples of floats in hot paths; PSL2 wraps one
such tuple, rescaled to determinant one by SL2 and with its sign fixed.
The projective line RP^1 is parametrized by the angle of a line in
[0, pi), so the full circle has length pi and deck translations of
lifts are multiples of pi.  A relator word whose image is +-identity
lifts, letter by letter with canonical lifts, to a deck translation
(relator_shift), and the Euler number of a surface-group representation
is that shift for the surface relator a1 b1 a1^-1 b1^-1 ... ag bg ag^-1
bg^-1 (surface_relator).  With this normalization the Euler number of a
Fuchsian genus-g representation is +-(2g - 2).  The fixed lines of an
element are computed here alone (fixed_lines), and tested by maps_line;
translation_number and the classifiers of repvar read them.
"""

from __future__ import annotations

import cmath
import math

from .errors import (BlowupgateError, InputError, _check_tol, _integer,
                     _integers, _Record)


class ResidualTooLarge(BlowupgateError, ValueError):
    """Relator images are too far from the identity to trust the lift."""


class RoundingAmbiguous(BlowupgateError, ArithmeticError):
    """Lifted relator evaluation is not close enough to an integer."""


class GenusZero(BlowupgateError, ValueError):
    """Surface genus below 1 has no admissible classes."""


# ---------------------------------------------------------------------------
# raw 2x2 helpers (row-major tuples (a, b, c, d))

IDENTITY = (1.0, 0.0, 0.0, 1.0)


def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_inv(x):
    # inverse of a determinant-one matrix
    return (x[3], -x[1], -x[2], x[0])


def psl_sign(x, y):
    """The sign s of the nearer of +-y to x, as 1.0 or -1.0.

    |x - y|^2 - |x + y|^2 = -4 <x, y>, so s is the sign of the inner
    product; a tie gives 1.0 and a NaN entry gives -1.0.
    """
    dot = x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3]
    return 1.0 if dot >= 0 else -1.0


def psl_dist_sq(x, y):
    """Squared Frobenius distance modulo overall sign."""
    s = psl_sign(x, y)
    d0, d1, d2, d3 = (a - s * b for a, b in zip(x, y))
    # d * d overflows to inf where d ** 2 raises OverflowError
    return d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3


def commutator(x, y):
    """x y x^-1 y^-1 of determinant-one matrices."""
    return mat_mul(mat_mul(x, y), mat_mul(mat_inv(x), mat_inv(y)))


def rotation(theta: float):
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s, s, c)


def sym_exp(x: float, y: float):
    """exp of the symmetric traceless matrix ((x, y), (y, -x))."""
    r = math.hypot(x, y)
    if r < 1e-300:
        return (1.0 + x, y, y, 1.0 - x)
    ch, sh = math.cosh(r), math.sinh(r) / r
    return (ch + sh * x, sh * y, sh * y, ch - sh * x)


def SL2(a, b, c, d) -> tuple:
    """(a, b, c, d) rescaled to determinant one.  Raises ValueError unless
    the determinant is positive and finite; a NaN or infinite entry makes
    it NaN or infinite."""
    det = a * d - b * c
    if not 0 < det < math.inf:
        raise ValueError(f"determinant {det} is not positive and finite")
    if abs(det - 1.0) > 1e-15:
        s = 1.0 / math.sqrt(det)
        return (a * s, b * s, c * s, d * s)
    return (a, b, c, d)


def _positive(t):
    """t or -t, whichever has its first entry above 1e-12 in size positive."""
    for x in t:
        if abs(x) > 1e-12:
            return t if x > 0 else (-t[0], -t[1], -t[2], -t[3])
    return t


class PSL2(_Record):
    """A determinant-one 4-tuple modulo sign, stored with its first entry
    above 1e-12 in size positive.  The constructor, from_matrix and @
    rescale their matrix by SL2, once; inv keeps the determinant and
    builds its result unchecked."""

    _t: tuple

    def __init__(self, m):
        try:
            t = SL2(*m)
        except TypeError:
            raise InputError(f"{m!r} is not four real entries") from None
        except ValueError as exc:   # determinant not positive and finite
            raise InputError(str(exc)) from None
        self._store(_positive(t))

    @staticmethod
    def from_matrix(rows) -> "PSL2":
        try:
            (a, b), (c, d) = rows
        except (TypeError, ValueError):
            raise InputError("matrix rows must be a 2x2 array") from None
        return PSL2((a, b, c, d))

    @staticmethod
    def identity() -> "PSL2":
        return PSL2(IDENTITY)

    def tuple(self):
        return self._t

    def matrix_rows(self):
        a, b, c, d = self._t
        return [[a, b], [c, d]]

    def __matmul__(self, other: "PSL2") -> "PSL2":
        return PSL2(mat_mul(self._t, other._t))

    def inv(self) -> "PSL2":
        return PSL2._of(_positive(mat_inv(self._t)))

    def is_identity(self, tol: float = 1e-9) -> bool:
        return psl_dist_sq(self._t, IDENTITY) < tol * tol


ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
IDENTITY_CLASS = "identity"


def classify(g: PSL2, tol: float = 1e-8) -> str:
    """Conjugacy type by |trace|: <2 elliptic, =2 parabolic or identity,
    >2 hyperbolic."""
    a, _, _, d = g.tuple()
    t = abs(a + d)
    if t < 2.0 - tol:
        return ELLIPTIC
    if t > 2.0 + tol:
        return HYPERBOLIC
    return IDENTITY_CLASS if g.is_identity(tol=math.sqrt(tol)) else PARABOLIC


def fixed_lines(m) -> list:
    """The fixed lines in CP^1 of the 2x2 matrix m, as complex unit
    vectors: the longer of the eigenvectors (b, lam - a) and (lam - d, c)
    of each eigenvalue lam, the one of larger modulus first.  A parabolic
    m gives its line twice, and +-identity, where both vanish, none."""
    a, b, c, d = m
    tr = a + d
    # sqrt(tr^2 - 4) as a product, which does not overflow for large tr;
    # its branch puts the eigenvalue of larger modulus first for either
    # sign of tr
    disc = cmath.sqrt(tr - 2) * cmath.sqrt(tr + 2)
    lines = []
    for lam in ((tr + disc) / 2, (tr - disc) / 2):
        v = max([(b, lam - a), (lam - d, c)], key=_length)
        norm = _length(v)
        if norm > 1e-12:
            lines.append((v[0] / norm, v[1] / norm))
    return lines


def maps_line(m, v, w, tol: float) -> bool:
    """True when the 2x2 matrix m maps the line of v to that of the unit
    vector w to within tol: |(m v) x w|, the sine of the angle between
    the lines times |m v|, is below tol |m v|, which is 0 for m v = 0."""
    a, b, c, d = m
    x, y = a * v[0] + b * v[1], c * v[0] + d * v[1]
    return abs(x * w[1] - y * w[0]) < tol * _length((x, y))


def _length(v) -> float:
    # hypot, unlike a sum of ** 2, does not overflow on large entries
    return math.hypot(abs(v[0]), abs(v[1]))


def act_rp1(g: PSL2, theta: float) -> float:
    """Image in [0, pi) of the line at angle theta under g."""
    a, b, c, d = g.tuple()
    x, y = math.cos(theta), math.sin(theta)
    return math.atan2(c * x + d * y, a * x + b * y) % math.pi


class CircleLift:
    """Lift to R of the action of a PSL2 element on RP^1.

    The base lift sends 0 into [0, pi); the offset adds whole deck
    translations (multiples of pi).  Lifts increase strictly, commute
    with x -> x + pi, and are closed under inverse().
    """

    __slots__ = ("g", "offset", "_f0")

    def __init__(self, g: PSL2, offset: int = 0):
        if not isinstance(g, PSL2):
            raise InputError(f"{g!r} is not a PSL2 element")
        self.g = g
        self.offset = _integer(offset)
        self._f0 = act_rp1(g, 0.0)

    def _base(self, x: float) -> float:
        k = math.floor(x / math.pi)
        x0 = x - k * math.pi
        if x0 >= math.pi:
            x0 -= math.pi
            k += 1
        # g u turns from g e1 by an angle in [0, pi] as u turns from e1 by
        # x0: their cross product is det g sin x0 = sin x0, and the sign of
        # their dot product (a^2 + c^2) cos x0 + (ab + cd) sin x0 decides
        # which end an angle near 0 or pi is at.  Both are divided by
        # n^2 = a^2 + c^2, so that no square overflows.
        a, b, c, d = self.g.tuple()
        n, s = math.hypot(a, c), math.sin(x0)
        turn = math.atan2(s / n / n,
                          math.cos(x0) + (a / n * b + c / n * d) / n * s)
        return self._f0 + turn + k * math.pi

    def apply(self, x: float) -> float:
        return self._base(x) + self.offset * math.pi

    def inverse(self) -> "CircleLift":
        """The lift of g^-1 whose apply is the inverse of this apply."""
        inv = CircleLift(self.g.inv())
        inv.offset = -(round(inv._base(self._base(0.0)) / math.pi)
                       + self.offset)
        return inv


def translation_number(lift: CircleLift) -> float:
    """Translation number lim (lift^n(x) - x) / (n pi), in closed form.

    The unit is one deck translation, so the base lift of the rotation
    by t in (0, pi) has translation number t / pi.  With a, b, c, d the
    entries of g and D = (a - d)^2 + 4 b c = tr^2 - 4:

    - D < 0 (elliptic): the sign of g with c > 0 is conjugate to the
      rotation by t in (0, pi) with cos t = tr / 2 and
      sin t = sqrt(-D) / 2, and the base lift moves every point forward
      by less than pi, so the number is offset + t / pi.  t is taken
      with atan2, which stays accurate near the identity, where
      acos(tr / 2) loses half the digits.  Near a parabolic element the
      number moves like sqrt(-D), so it is as accurate as D is.
    - D >= 0: g fixes the line theta of its first fixed_lines (0 for
      +-identity, which fixes every line), the lift sends theta to
      theta + k pi for an integer k, and k is the number, read from
      apply.
    """
    a, b, c, d = lift.g.tuple()
    tr = a + d
    disc = (a - d) ** 2 + 4.0 * b * c
    if disc < 0:
        t = math.atan2(math.sqrt(-disc), tr if c > 0 else -tr)
        return lift.offset + t / math.pi
    x, y = (fixed_lines(lift.g.tuple()) or [(0.0, 0.0)])[0]
    # the real parts; where rounding makes tr^2 - 4 negative, the
    # eigenvector of a parabolic g has an imaginary part of the same order
    theta = math.atan2(y.real, x.real) % math.pi
    return float(round((lift.apply(theta) - theta) / math.pi))


def surface_generator_names(genus: int):
    """The names a1, b1, ..., ag, bg, one at a time."""
    for i in range(1, genus + 1):
        yield f"a{i}"
        yield f"b{i}"


def surface_relator(genus: int) -> tuple:
    """The word prod [a_i, b_i] = a1 b1 a1^-1 b1^-1 ... over the
    generators in the order of surface_generator_names."""
    return tuple(letter for a in range(1, 2 * genus, 2)
                 for letter in (a, a + 1, -a, -a - 1))


def word_image(word, mats):
    """The product of mats[g - 1] for each letter g > 0 and of its inverse
    for each letter -g, left to right from the identity."""
    out = IDENTITY
    for letter in word:
        m = mats[abs(letter) - 1]
        out = mat_mul(out, m if letter > 0 else mat_inv(m))
    return out


def relator_shift(word, mats) -> int:
    """The deck translation, in units of pi, of a relator word lifted to
    the universal cover of PSL(2,R): the canonical lift CircleLift(g) of
    each letter g, and its inverse() for a letter -g, applied to 0 from
    the right.  mats holds one PSL2 per generator.  The word's image must
    be +-identity; the shift is then an integer up to rounding, and a
    value 0.1 or more from one raises RoundingAmbiguous."""
    x = 0.0
    for letter in reversed(word):
        lift = CircleLift(mats[abs(letter) - 1])
        x = (lift if letter > 0 else lift.inverse()).apply(x)
    e = x / math.pi
    rounded = round(e)
    if abs(e - rounded) >= 0.1:
        raise RoundingAmbiguous(f"lifted relator translation {e} is not integral")
    return int(rounded)


def euler_number(matrices, genus: int, tol: float = 1e-8) -> int:
    """Integer Euler number of a surface-group representation: the
    relator_shift of surface_relator(genus).

    matrices maps each name of surface_generator_names(genus) to a PSL2;
    they are read in that order, so a missing one is reported before
    anything of the size of genus is built.  The relator's squared
    distance to +-identity must be at most tol, which must be positive.
    """
    return _euler_and_residual(matrices, genus, tol)[0]


def _euler_and_residual(matrices, genus, tol) -> tuple:
    """(euler_number(matrices, genus, tol), the relator's squared distance
    to +-identity that it checks against tol)."""
    _check_tol(tol)
    genus = _integer(genus)
    if genus < 1:
        raise GenusZero("genus must be >= 1")
    gens = []
    for name in surface_generator_names(genus):
        try:
            g = matrices[name]
        except KeyError:
            raise InputError(f"missing generator {name}") from None
        except TypeError:
            raise InputError("matrices must map generator names to PSL2 "
                             "elements") from None
        if not isinstance(g, PSL2):
            raise InputError(f"generator {name} is not a PSL2 element")
        gens.append(g)
    rel = surface_relator(genus)
    res = psl_dist_sq(word_image(rel, [g.tuple() for g in gens]), IDENTITY)
    if not res <= tol:          # a NaN residual fails this test too
        raise ResidualTooLarge(f"relator residual {res:.3e} exceeds {tol:.3e}")
    return relator_shift(rel, gens), res


def milnor_wood_admissible(genera) -> list:
    """All integer vectors (n_1, ..., n_b) with |n_j| <= 2 g_j - 2."""
    genera = _integers(genera)
    for g in genera:
        if g < 1:
            raise GenusZero(f"genus {g} < 1 gives a negative bound")
    out = [()]
    for g in genera:
        bound = 2 * g - 2
        out = [vec + (n,) for vec in out for n in range(-bound, bound + 1)]
    return out


def fuchsian_genus2():
    """Explicit genus-2 surface-group representation saturating the
    Milnor-Wood bound.

    A one-holed torus group with hyperbolic boundary K = [A, B] is
    doubled across an order-two rotation J about a point on the axis of
    K; since J K J^{-1} = K^{-1} the standard relator holds exactly and
    the Euler number is +-2.
    """
    lam = 2.5
    A = (lam, 0.0, 0.0, 1.0 / lam)
    R = rotation(math.pi / 4)
    B = mat_mul(mat_mul(R, A), mat_inv(R))
    K = commutator(A, B)
    # fixed points of K on the boundary of the upper half-plane
    a, b, c, d = K
    disc = math.sqrt((a - d) ** 2 + 4.0 * b * c)
    x1 = ((a - d) - disc) / (2.0 * c)
    x2 = ((a - d) + disc) / (2.0 * c)
    cx = 0.5 * (x1 + x2)
    cy = 0.5 * abs(x2 - x1)
    # rotation by pi about the apex of the axis semicircle
    s = math.sqrt(cy)
    M = (s, cx / s, 0.0, 1.0 / s)
    J = mat_mul(mat_mul(M, (0.0, -1.0, 1.0, 0.0)), mat_inv(M))
    A2 = mat_mul(mat_mul(J, A), mat_inv(J))
    B2 = mat_mul(mat_mul(J, B), mat_inv(J))
    return dict(zip(surface_generator_names(2), map(PSL2, (A, B, A2, B2))))
