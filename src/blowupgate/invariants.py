"""Alexander polynomials and double-branched-cover homology.

Two independent routes to the one-variable Alexander polynomial are
provided: the Seifert-matrix determinant det(V - t V^T) for braid
closures, and one maximal minor of the reduced free-derivative Jacobian
of a Wirtinger presentation (all meridians sent to t).  Both agree up
to units +-t^k.  Each hands the terms of its matrix, row by row, to the
Kronecker determinant of exact; neither builds a polynomial per cell.
"""

from __future__ import annotations

from .errors import BlowupgateError, _Record
from .exact import (AbelianGroup, IntMatrix, LaurentPoly, NonSquare,
                    _kronecker_det, cokernel)
from .links import LinkDiagram, Presentation, from_braid
from .links import seifert_matrix as _seifert_of_braid
from .links import wirtinger as _wirtinger


class NotWirtinger(BlowupgateError, ValueError):
    """Presentation lacks the meridian markers of a Wirtinger presentation."""


class LinkInvariants(_Record):
    components: int
    alexander: LaurentPoly        # unit-normalized
    det_signed: int               # value of the normalized polynomial at -1
    det: int                      # |alexander(-1)|
    h1_branched: AbelianGroup
    b1_positive: bool
    h1_method: str                # "seifert" or "fox"


def alexander_seifert(v: IntMatrix) -> LaurentPoly:
    """det(V - t V^T) of a square Seifert matrix V, unit-normalized: row
    i holds V_ij t^0 and -V_ji t^1 for the nonzero entries of row i and
    column i of V."""
    m, e = v.rows, v.entries
    if v.cols != m:
        raise NonSquare(f"{m}x{v.cols} Seifert matrix")
    return _kronecker_det(
        [[(j, 0, a) for j, a in enumerate(e[i * m:(i + 1) * m]) if a]
         + [(j, 1, -b) for j, b in enumerate(e[i::m]) if b]
         for i in range(m)]).unit_normalize()


def fox_jacobian(p: Presentation) -> list:
    """Free-derivative Jacobian with every generator sent to t, dense:
    entry (r, g) is the image of the derivative of relator r by
    generator g under the abelianization onto <t>.  No route calls it;
    the tests check alexander_fox, which reads _fox_terms, against it."""
    rows = []
    for rel in p.relators:
        row = [LaurentPoly.zero()] * len(p.generators)
        for g, exp, sign in _fox_terms(rel):
            row[g] += LaurentPoly.t(exp, sign)
        rows.append(row)
    return rows


def _fox_terms(rel):
    """The terms sign * t^exp of the free derivatives of one relator.

    Yields (generator index, exp, sign) per letter: a letter +g adds t^e
    to the derivative by g and a letter -g adds -t^(e-1), where e is the
    exponent sum of the letters before it.
    """
    exp = 0
    for letter in rel:
        if letter > 0:
            yield letter - 1, exp, 1
            exp += 1
        else:
            exp -= 1
            yield -letter - 1, exp, -1


def _fox_matrix_at_minus_one(p: Presentation) -> list:
    """Integer rows of fox_jacobian(p) evaluated at t = -1."""
    n = len(p.generators)
    rows = []
    for rel in p.relators:
        row = [0] * n
        for g, exp, sign in _fox_terms(rel):
            row[g] += -sign if exp & 1 else sign
        rows.append(row)
    return rows


def alexander_fox(p: Presentation) -> LaurentPoly:
    """One maximal minor of the Jacobian with the first column removed.

    Every Wirtinger relator has exponent sum 0 and any one crossing
    relator follows from the others, so the rows satisfy a relation with
    unit coefficients and all maximal minors agree up to units +-t^k;
    the first n-1 relators are taken.  Their terms (see _fox_terms), less
    those by the first generator, go straight to the Kronecker
    determinant, which sums the repeated ones of kinks.  Requires meridian
    markers and at most as many relators as generators, as a diagram
    gives; without enough relators to form a maximal minor the
    polynomial vanishes (split closures).
    """
    if p.meridian_markers is None:
        raise NotWirtinger("presentation has no meridian markers")
    n = len(p.generators)
    if len(p.relators) > n:
        raise NotWirtinger(f"{len(p.relators)} relators for {n} generators")
    if len(p.relators) < n - 1:
        return LaurentPoly.zero()
    return _kronecker_det(
        [[(g - 1, exp, sign) for g, exp, sign in _fox_terms(rel) if g]
         for rel in p.relators[:n - 1]]).unit_normalize()


def determinant_at_minus_one(a: LaurentPoly) -> tuple:
    """(signed value, absolute value) of the polynomial at -1, both ints:
    the sum of the coefficients, each negated at an odd exponent.

    Unit normalization multiplies the value at -1 by +-1, so the
    absolute value of the one evaluation is the integer invariant.
    """
    signed = sum(-k if e & 1 else k for e, k in a.items())
    return signed, abs(signed)


def branched_cover_h1(v: IntMatrix) -> AbelianGroup:
    """H_1 of the double branched cover of a closure: coker(V + V^T)."""
    return cokernel(v + v.transpose())


def branched_cover_h1_fox(p: Presentation) -> AbelianGroup:
    """Branched double-cover homology from the Jacobian at t = -1.

    Used for diagrams without a braid word; cross-checked against the
    Seifert route on braid closures.  Integer-only: the Jacobian at
    t = -1 is built from the relator words directly, with no Laurent
    polynomials or fractions, and its cokernel needs no unimodular
    transforms.  The matrix is built unchecked from those integer rows.
    """
    if p.meridian_markers is None:
        raise NotWirtinger("presentation has no meridian markers")
    n = len(p.generators)
    if n <= 1:
        return AbelianGroup(rank=0)
    rows = [row[1:] for row in _fox_matrix_at_minus_one(p)]
    return cokernel(IntMatrix._of_rows(rows, n - 1))


def link_invariants(d: LinkDiagram) -> LinkInvariants:
    """Full invariant bundle for a diagram.

    A braid closure (d.braid is not None) takes the Seifert route; any
    other diagram takes the free-derivative route for both the
    polynomial and the branched-cover homology.
    """
    if d.braid is not None:
        v = _seifert_of_braid(d.braid)
        alex = alexander_seifert(v)
        h1 = branched_cover_h1(v)
        method = "seifert"
    else:
        pres = _wirtinger(d)
        alex = alexander_fox(pres)
        h1 = branched_cover_h1_fox(pres)
        method = "fox"
    signed, absval = determinant_at_minus_one(alex)
    return LinkInvariants(components=d.component_count,
                          alexander=alex,
                          det_signed=signed,
                          det=absval,
                          h1_branched=h1,
                          b1_positive=h1.rank > 0,
                          h1_method=method)


def braid_invariants(b) -> LinkInvariants:
    """Convenience wrapper: invariants of a braid closure."""
    return link_invariants(from_braid(b))
