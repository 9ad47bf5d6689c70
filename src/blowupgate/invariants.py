"""Alexander polynomials and double-branched-cover homology.

Three routes to the one-variable Alexander polynomial are provided: the
Seifert-matrix determinant det(V - t V^T) and the reduced Burau
determinant det(I - psi(b)) for braid closures, and one maximal minor of
the reduced free-derivative Jacobian of a Wirtinger presentation (all
meridians sent to t).  All agree up to units +-t^k.  The Seifert and
Fox routes hand the terms of their matrices, row by row, to the
Kronecker determinant of exact; the Burau route builds its matrix at
t = 2**bits directly.  None builds a polynomial per cell.  A braid
closure takes its polynomial by the Burau route, which costs a few
column updates per letter, and its branched-cover homology from V + V^T;
the Seifert route stays as an oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain
from math import prod
from operator import add, mul, or_

from .errors import BlowupgateError, InputError, _Record
from .exact import (AbelianGroup, IntMatrix, LaurentPoly, NonSquare,
                    _balanced_digits, _det, _kronecker_det, cokernel)
from .links import BraidWord, LinkDiagram, Presentation, from_braid
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
    h1_method: str                # the H1 route: "seifert" or "fox"


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


def alexander_burau(b: BraidWord) -> LaurentPoly:
    """det(I - psi(b)) / (1 + t + ... + t^(s-1)), unit-normalized, for the
    reduced Burau matrix psi(b) of a braid b on s strands (Burau 1936;
    Kassel-Turaev, Braid Groups, GTM 247, 2008).

    A closure that leaves a generator unused is split, and gives 0
    before anything is built.  A generator s_c used once joins the
    closures of the letters below c and of those above c by a connected
    sum: the two sets commute, so a conjugation moves s_c to the end of
    the word.  The polynomial is then the product of the pieces', each
    taken by _burau_quotient on its own strands, so that no matrix is
    larger than its piece.
    """
    if not isinstance(b, BraidWord):
        raise InputError(f"{b!r} is not a BraidWord")
    uses = Counter(map(abs, b.word))
    if len(uses) < b.strands - 1:
        return LaurentPoly.zero()
    cuts = [0, *sorted(g for g, k in uses.items() if k == 1), b.strands]
    pieces = [(b.strands, b.word)] if len(cuts) == 2 else [
        (hi - lo, [w - lo if w > 0 else w + lo for w in b.word
                   if lo < abs(w) < hi]) for lo, hi in zip(cuts, cuts[1:])]
    return reduce(mul, (_burau_quotient(*piece)
                        for piece in pieces)).unit_normalize()


def _burau_quotient(strands: int, word) -> LaurentPoly:
    """det(I - psi(w)) divided by 1 + t + ... + t^(strands-1), up to a
    unit, for the sequence of letters w on strands strands that uses
    every generator.

    psi(w) is the product of its letters' matrices, taken exactly at
    t = 2**bits.  Right multiplication by psi(s_i) maps the columns
    (c_{i-1}, c_i, c_{i+1}) to (c_{i-1} + t c_i, -t c_i, c_{i+1} + c_i),
    and by psi(s_i^-1) to (c_{i-1} + c_i, -c_i / t, c_{i+1} + c_i / t);
    columns 0 and strands do not exist.  Column j is kept as t^(-e_j)
    times an integer column, so a letter rewrites three columns and
    nothing is divided.  psi(w^-1) is the inverse of psi(w), whose
    determinant is a unit, so det(I - psi(w)) and det(I - psi(w^-1))
    agree up to a unit; the one of the two words with fewer inverse
    letters is taken, since each of those raises an exponent e_j.
    A pre-pass bounds each column's sum of absolute coefficients, and
    2**bits exceeds twice the product over the columns of 1 plus those
    sums, B, which bounds the sum of absolute coefficients of
    det(I - psi).  The one integer determinant is divided by the value of
    1 + t + ... + t^(strands-1), and must leave no remainder: the
    coefficients of the quotient and of the remainder of the polynomial
    division are differences of two sums of the determinant's over
    residue classes mod strands, so they too are at most B, each value
    has its polynomial's coefficients as its balanced digits, and the
    integer division leaves a remainder exactly when the polynomial one
    does.
    """
    if 2 * sum(w < 0 for w in word) > len(word):
        word = [-w for w in reversed(word)]
    n = strands - 1
    norms = [1] * n
    for w in word:
        i = abs(w) - 1
        if i:
            norms[i - 1] += norms[i]
        if i + 1 < n:
            norms[i + 1] += norms[i]
    bits = (2 * prod(x + 1 for x in norms)).bit_length()

    def plus(j, c, e):
        """Column j plus t^(-e) times the integer column c.  The powers
        of t that divide the sum come off its exponent f, down to 0: t
        divides a column exactly when 2**bits divides every entry, since
        each coefficient is less than 2**(bits-1) in absolute value."""
        f = max(exps[j], e)
        a, sa, sc = cols[j], bits * (f - exps[j]), bits * (f - e)
        col = [(x << sa) + (y << sc) for x, y in zip(a, c)]
        if f:
            low = reduce(or_, col)
            k = min(f, ((low & -low).bit_length() - 1) // bits)
            if k > 0:
                col = [x >> bits * k for x in col]
                f -= k
        cols[j], exps[j] = col, f

    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    exps = [0] * n
    for w in word:
        i = abs(w) - 1
        c, e = cols[i], exps[i]
        if w > 0:
            if i:
                plus(i - 1, c, e - 1)
            if i + 1 < n:
                plus(i + 1, c, e)
            if e:
                cols[i], exps[i] = [-x for x in c], e - 1
            else:
                cols[i] = [-x << bits for x in c]
        else:
            if i:
                plus(i - 1, c, e)
            if i + 1 < n:
                plus(i + 1, c, e + 1)
            cols[i], exps[i] = [-x for x in c], e + 1
    # column j of t^e_j (I - psi), as a row: the determinant is the same
    for j, (c, e) in enumerate(zip(cols, exps)):
        c[:] = [-x for x in c]
        c[j] += 1 << bits * e
    quotient, rest = divmod(_det(cols), ((1 << bits * strands) - 1)
                            // ((1 << bits) - 1))
    if rest:
        raise ArithmeticError(f"{strands}-strand Burau determinant is not a "
                              "multiple of 1 + t + ... + t^(s-1)")
    return LaurentPoly._of({e: k for e, k in
                            enumerate(_balanced_digits(quotient, bits)) if k})


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
    """H_1 of the double branched cover of a closure: coker(V + V^T),
    summed in one pass over the entries of the square matrix V and those
    of its columns, in order."""
    m, e = v.rows, v.entries
    if v.cols != m:
        raise NonSquare(f"{m}x{v.cols} Seifert matrix")
    return cokernel(IntMatrix._of(m, m, tuple(map(
        add, e, chain.from_iterable(e[j::m] for j in range(m))))))


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

    A braid closure (d.braid is not None) takes its polynomial by the
    Burau route and its branched-cover homology from its Seifert matrix,
    so h1_method, which names the homology route, is "seifert"; any other
    diagram takes the free-derivative route for both.
    """
    if d.braid is not None:
        alex = alexander_burau(d.braid)
        h1 = branched_cover_h1(_seifert_of_braid(d.braid))
        method = "seifert"
    else:
        pres = _wirtinger(d)
        alex = alexander_fox(pres)
        h1 = branched_cover_h1_fox(pres)
        method = "fox"
    signed, absval = determinant_at_minus_one(alex)
    return LinkInvariants._of(d.component_count, alex, signed, absval, h1,
                              h1.rank > 0, method)


def braid_invariants(b) -> LinkInvariants:
    """Convenience wrapper: invariants of a braid closure."""
    return link_invariants(from_braid(b))
