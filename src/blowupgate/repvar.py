"""Numerical PSL(2,R) representation varieties of finitely presented groups.

Representations are found by damped least squares on the polar
parametrization R(alpha) * exp(symmetric traceless) of SL(2,R), three
parameters per generator.  Relator signs are minimized pointwise, so a
word is trivial when its image is +-identity; residual sums the squares
of those relator entries.  Levenberg-Marquardt evaluates each point
once, and the exact Jacobian of the entries (prefix and suffix products
around the derivative of every letter) at each point it accepts.  Each
step factors the smaller normal matrix: J^T J with Marquardt's diagonal
damping when there are at least as many relator entries as parameters,
else J J^T with isotropic damping (_levmar).  A relator's four entries
depend only on the generators in it, so the presentation alone fixes
some entries of J at zero, and the step forms and factors only what
this pattern leaves (_lm_pattern).
solve sorts its solutions by their ordered trace coordinates, which are
invariant under conjugation and under the sign of each matrix, and
merges two solutions when those agree (trace_coordinates); the
Brieskorn census names each class by rotation numbers.
Every float sum is taken left to right from 0.0, by _sum or by a loop
written out, so the points printed do not depend on the Python version.
Where J and the residual are finite, a term that the pattern skips is
0.0 times a finite number, so +-0.0, and a sum from +0.0 is never -0.0,
so adding +-0.0 leaves it as it is: skipping moves no bit of any step.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import combinations, product

from .errors import (BlowupgateError, InputError, InvalidParameter,
                     _check_tol, _integer, _Record)
from .links import Presentation
from .psl2r import (PSL2, CircleLift, commutator, mat_inv, mat_mul,
                    psl_dist_sq, psl_sign, rotation, surface_generator_names,
                    surface_relator, sym_exp, translation_number, word_image,
                    IDENTITY)


class UnassignedGenerator(BlowupgateError, KeyError):
    """A presentation generator has no matrix assigned."""


class NotCoprime(BlowupgateError, ValueError):
    """Brieskorn exponents must be pairwise coprime."""


class CertificateFailed(BlowupgateError, ArithmeticError):
    """No closed-form solution of a census angle triple passes the
    certificates, so its class would be dropped silently."""


DEDUP_TOL = 1e-6
ROTATION_TOL = 1e-9
# classification: the sine of the angle between fixed lines below which
# they count as equal; a commutator within its square of +-I is central
CLASSIFY_TOL = 1e-7
# is_irreducible ignores a generator image within this squared distance
# of +-I, which fixes every line
CENTRAL_TOL = 1e-9
LM_MAX_ITER = 200
LM_COST_TARGET = 1e-28


class RepAssignment(_Record):
    """Matrices (mod sign) for every generator of a presentation."""

    matrices: dict
    residual: float | None = None

    def __getitem__(self, name: str) -> PSL2:
        return self.matrices[name]

    def conjugated(self, g: PSL2) -> "RepAssignment":
        gi = g.inv()
        return RepAssignment({k: g @ m @ gi for k, m in self.matrices.items()},
                             residual=self.residual)


def _sum(values):
    """The float sum of values, added left to right from 0.0.  The
    builtin sum does the same before CPython 3.12 and compensates from
    3.12 on, which moves the last bits that the LM search amplifies."""
    total = 0.0
    for v in values:
        total += v
    return total


def _signed_entries(img):
    """Entries of a relator image minus the nearer of +-identity."""
    sign = psl_sign(img, IDENTITY)
    return [img[0] - sign, img[1], img[2], img[3] - sign]


def _generator_mats(p: Presentation, rep) -> list:
    try:
        return [rep[name].tuple() for name in p.generators]
    except KeyError as exc:
        raise UnassignedGenerator(str(exc)) from exc


def residual(p: Presentation, rep) -> float:
    """Sum over relators of the squared Frobenius distance of the relator
    image to +-identity, the sum of squares that _levmar minimizes.  rep
    is a RepAssignment or any mapping of generator names to PSL2."""
    mats = _generator_mats(p, rep)
    return _sum(psl_dist_sq(word_image(w, mats), IDENTITY) for w in p.relators)


def trace_coordinates(p: Presentation, rep: RepAssignment) -> tuple:
    """Ordered trace coordinates that are invariant under conjugation and
    under the sign of each matrix (Goldman, "Trace coordinates on Fricke
    spaces", 2009): tr(g_i)^2, tr(g_i) tr(g_j) tr(g_i g_j) for i < j and
    tr(g_i) tr(g_j) tr(g_k) tr(g_i g_j g_k) for i < j < k, each product
    followed by the square of its last factor, which keeps it when a
    generator has trace 0."""
    mats = _generator_mats(p, rep)
    tr = [m[0] + m[3] for m in mats]
    key = [t * t for t in tr]
    for i, j in combinations(range(len(mats)), 2):
        m = mat_mul(mats[i], mats[j])
        t = m[0] + m[3]
        key += (tr[i] * tr[j] * t, t * t)
    for i, j, k in combinations(range(len(mats)), 3):
        m = mat_mul(mat_mul(mats[i], mats[j]), mats[k])
        t = m[0] + m[3]
        key += (tr[i] * tr[j] * tr[k] * t, t * t)
    return tuple(key)


# ---------------------------------------------------------------------------
# damped least squares


def _lm_pattern(p: Presentation):
    """Where the LM step of p can meet a nonzero, derived from p's
    relators alone; solve builds it once and _levmar reads it.

    Relator k gives rows 4k .. 4k + 3 of J, and they depend only on the
    generators in it, so in the three columns of any other generator
    they are exact zeros: _residual_and_jacobian never adds to them.
    Returns (rows, gram, starts):

    - rows[a], the rows of J where column a can be nonzero.
    - gram[i][j] for j <= i, the summation indices that vectors i and j
      of the factored matrix share.  That matrix is J^T J, over the
      columns of J grouped three to a generator, when there are at least
      as many relator entries as parameters (m >= n), else J J^T, over
      the rows grouped four to a relator.  The vectors of one group
      share one list, and two groups share one index tuple.
    - starts[i], where row i of that matrix's envelope begins: at the
      first group that shares an index with i's group, or at i's own
      group.  Cholesky fill stays inside the envelope: left of it, row
      i of the matrix is 0.0, so by induction along the row each entry
      of the factor is (0.0 - a sum of +-0.0) / pivot = +0.0.
    """
    gens = [{abs(letter) - 1 for letter in w} for w in p.relators]
    n_gens = len(p.generators)
    rows_of = [tuple(4 * k + e for k, g_k in enumerate(gens) if g in g_k
                     for e in range(4)) for g in range(n_gens)]
    if 4 * len(gens) >= 3 * n_gens:
        size, support = 3, [set(r) for r in rows_of]
    else:
        size, support = 4, [{3 * g + e for g in g_k for e in range(3)}
                            for g_k in gens]
    gram, starts = [], []
    for b, s_b in enumerate(support):
        shared = [tuple(sorted(s_b & s_c)) for s_c in support[:b + 1]]
        first = next(c for c, idx in enumerate(shared) if idx or c == b)
        row = [idx for idx in shared for _ in range(size)]
        gram += [row] * size
        starts += [size * first] * size
    return [r for r in rows_of for _ in range(3)], gram, starts


def _damped_solve(lower, shift, b, starts):
    """Solve (A + diag(shift)) x = b by Cholesky, where lower is the lower
    triangle of the symmetric A (row i holds A[i][:i + 1]) and starts[i]
    is where row i's envelope begins (_lm_pattern).

    _step passes lam A_ii + 1e-14 as shift[i] for J^T J and mu + 1e-14
    for every row of J J^T.  A pivot that is not positive, NaN included,
    raises ZeroDivisionError.  The factor is +0.0 left of each row's
    envelope, so a dot product of two rows starts at the later of their
    starts.  The back substitution runs over whole rows: it subtracts
    from y rather than summing from +0.0, and y - (-0.0) turns a -0.0
    into +0.0, so a skipped term there could flip the sign of a zero.
    """
    low, y = [], []
    for i, (row, si, bi, lo) in enumerate(zip(lower, shift, b, starts)):
        li = [0.0] * lo
        for j in range(lo, i):
            lj = low[j]
            k0 = starts[j]
            if k0 < lo:
                k0 = lo
            s = 0.0
            for k in range(k0, j):
                s += li[k] * lj[k]
            li.append((row[j] - s) / lj[j])
        s = 0.0
        for k in range(lo, i):
            s += li[k] * li[k]
        d = row[i] + si - s
        if not d > 0:
            raise ZeroDivisionError("damped system is not positive definite")
        li.append(math.sqrt(d))
        low.append(li)
        s = 0.0                                           # L y = b
        for k in range(lo, i):
            s += li[k] * y[k]
        y.append((bi - s) / li[i])
    for i in reversed(range(len(y))):                     # L^T x = y
        y[i] /= low[i][i]
        y[:i] = [yk - lik * y[i] for yk, lik in zip(y[:i], low[i])]
    return y


def _lower_gram(vectors, gram):
    """Lower triangle of the Gram matrix of vectors: row i holds the dot
    products of vectors[i] with vectors[:i + 1], each summed over the
    indices gram[i][j] that the two share."""
    lower = []
    for i, u in enumerate(vectors):
        row = []
        for v, idx in zip(vectors[:i + 1], gram[i]):
            s = 0.0
            for k in idx:
                s += u[k] * v[k]
            row.append(s)
        lower.append(row)
    return lower


def _normal_system(jac, r, neg_grad, pattern):
    """The lower triangle and right side that _step factors at one point.

    jac holds the n columns of J, each of length m.  This is J^T J with
    -J^T r, or J J^T with -r where pattern factors it: len(starts) < n.
    """
    _, gram, starts = pattern
    if len(starts) < len(jac):
        return _lower_gram(list(zip(*jac)), gram), [-v for v in r]
    return _lower_gram(jac, gram), neg_grad


def _step(jac, lower, rhs, lam, pattern):
    """The LM step for damping lam from a _normal_system of jac.

    On J^T J the damping is lam diag(J^T J) + 1e-14 I.  On J J^T it is
    isotropic, mu = lam tr(J J^T) / n, and the step is J^T z with
    (J J^T + (mu + 1e-14) I) z = -r.  By the push-through identity
    J^T (J J^T + mu' I)^-1 = (J^T J + mu' I)^-1 J^T, that is the step of
    J^T J damped by mu' I.  Raises ZeroDivisionError as _damped_solve.
    """
    rows, _, starts = pattern
    n = len(jac)
    if len(starts) < n:
        mu = lam * _sum(row[-1] for row in lower) / n
        z = _damped_solve(lower, [mu + 1e-14] * len(lower), rhs, starts)
        return _transposed_product(jac, rows, z)
    return _damped_solve(lower, [lam * row[-1] + 1e-14 for row in lower],
                         rhs, starts)


def _transposed_product(jac, rows, v):
    """J^T v for the columns jac of J, entry a summed over rows[a]
    (_lm_pattern) left to right from +0.0."""
    out = []
    for col, idx in zip(jac, rows):
        s = 0.0
        for k in idx:
            s += col[k] * v[k]
        out.append(s)
    return out


def _levmar(p: Presentation, x0, pattern):
    """Minimize the squared relator residual of p by Levenberg-Marquardt.

    Every point, the start and each trial, is evaluated once by
    _residual_and_jacobian, which gives the residual, and the exact
    Jacobian of a trial only once the trial is accepted.  Each step
    is a Cholesky solve (_damped_solve) in the smaller of the parameter
    space (n = 3 per generator) and the residual space (m = 4 per
    relator), picked by _lm_pattern from p alone.  For m >= n the matrix is
    J^T J + lam diag(J^T J) + 1e-14 I: Marquardt's scaling, under which
    the trefoil and Brieskorn groups converge more often than under
    isotropic damping.  For m < n, J^T J has rank at most m and the
    m x m system J J^T + (mu + 1e-14) I is factored instead (_step),
    damped isotropically, mu = lam tr(J^T J) / n.  The m x m form of a
    diagonal scaling D would need D^-1, which does not exist where a
    column of J vanishes; and on the genus-two surface group isotropic
    damping converges on 40 of 40 seeded restarts against 38.

    pattern is _lm_pattern(p).  J^T r, the normal matrix, its Cholesky
    factor and J^T z sum only the products that p's relators can make
    nonzero, each left to right from +0.0.  Every product left out is
    0.0 times a finite entry, so the steps equal, bit for bit, those of
    the dense sums of the whole of J wherever J and r are finite.  On
    surface1 x S^1, J^T J takes 252 of the 540 products of the dense
    sums; on a free product of two genus-one groups, J J^T is block
    diagonal (120 of 432) and so is its factor.
    """
    x = list(x0)
    r, jacobian = _residual_and_jacobian(p, x)
    jac = jacobian()
    cost = _sum(v * v for v in r)
    lam = 1e-3
    for _ in range(LM_MAX_ITER):
        if cost < LM_COST_TARGET:
            break
        neg_grad = [-s for s in _transposed_product(jac, pattern[0], r)]
        if max(map(abs, neg_grad), default=0.0) < 1e-17:
            break
        lower, rhs = _normal_system(jac, r, neg_grad, pattern)
        for _ in range(30):
            try:
                delta = _step(jac, lower, rhs, lam, pattern)
            except ZeroDivisionError:
                lam *= 10.0
                continue
            xn = [xi + di for xi, di in zip(x, delta)]
            try:
                rn, jacobian = _residual_and_jacobian(p, xn)
                cn = _sum(v * v for v in rn)
            except OverflowError:    # a step too long for cosh in sym_exp
                cn = math.inf
            if cn < cost:
                x, r, jac, cost = xn, rn, jacobian(), cn
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 4.0
        else:
            break
    return x, cost


JET_SERIES_R = 1e-2


def _generator_jet(alpha, x, y):
    """The generator matrix M = R(alpha) E(x, y) of one parameter triple,
    and its partial derivatives in alpha, x and y.

    dR/dalpha = R(alpha + pi/2).  With r = |(x, y)|, S = ((x, y), (y, -x)),
    f = sinh r / r and g = (cosh r - f) / r^2, E = cosh r I + f S, so
    dE/dx = x (f I + g S) + f diag(1, -1) and
    dE/dy = y (f I + g S) + f ((0, 1), (1, 0)).
    Below JET_SERIES_R, f and g are Taylor series (g -> 1/3), which
    avoids the cancellation in cosh r - f.
    """
    rot = rotation(alpha)
    e = sym_exp(x, y)
    r2 = x * x + y * y
    r = math.sqrt(r2)
    if r < JET_SERIES_R:
        f = 1.0 + r2 / 6.0 + r2 * r2 / 120.0
        g = 1.0 / 3.0 + r2 / 30.0 + r2 * r2 / 840.0
    else:
        f = math.sinh(r) / r
        g = (math.cosh(r) - f) / r2
    c, s = rot[0], rot[2]
    gx, gy = g * x, g * y
    d_alpha = mat_mul((-s, -c, c, -s), e)
    d_x = mat_mul(rot, (x * (f + gx) + f, gx * y, gx * y, x * (f - gx) - f))
    d_y = mat_mul(rot, (y * (f + gx), gy * y + f, gy * y + f, y * (f - gx)))
    return mat_mul(rot, e), (d_alpha, d_x, d_y)


def _random_params(rng, n_gens):
    out = []
    for _ in range(n_gens):
        out.extend([rng.uniform(-math.pi, math.pi),
                    rng.gauss(0.0, 0.9), rng.gauss(0.0, 0.9)])
    return out


def _residual_and_jacobian(p: Presentation, params):
    """The relator entries that _levmar drives to zero (_signed_entries),
    and a function of no arguments that returns their exact Jacobian as a
    list of columns, one per parameter.  _levmar calls it only at the
    points it accepts.

    A relator word N_1 ... N_L with prefix products P_k and suffix
    products S_k has the derivative sum_k P_{k-1} dN_k S_{k+1}.  An
    inverse letter is the adjugate of its generator's matrix, which is
    linear in the entries, so its derivative is the adjugate of the
    generator's derivative.  The sign of _signed_entries is locally
    constant and drops out.

    The 2x2 products are written out with mat_mul's operand order.  With
    m = 4 len(relators), the derivative of relator k with respect to
    parameter a is summed in acc[a m + 4 k:a m + 4 k + 4], which stays
    0.0 unless a's generator is in the relator, and column a is
    acc[a m:a m + m].
    """
    jets = [_generator_jet(*params[i:i + 3]) for i in range(0, len(params), 3)]
    mats = {}
    for g, (m, _) in enumerate(jets, 1):
        mats[g], mats[-g] = m, mat_inv(m)
    res, prefixes = [], []
    for word in p.relators:
        p0, p1, p2, p3 = IDENTITY
        prefix = [IDENTITY]           # P_0 ... P_L
        for letter in word:
            a, b, c, d = mats[letter]
            p0, p1, p2, p3 = (p0 * a + p1 * c, p0 * b + p1 * d,
                              p2 * a + p3 * c, p2 * b + p3 * d)
            prefix.append((p0, p1, p2, p3))
        res.extend(_signed_entries((p0, p1, p2, p3)))
        prefixes.append(prefix)

    def jacobian():
        m = len(res)
        derivs = {}
        for g, (_, ds) in enumerate(jets, 1):
            derivs[g], derivs[-g] = ds, [mat_inv(d) for d in ds]
        acc = [0.0] * (3 * len(jets) * m)
        for k, (word, prefix) in enumerate(zip(p.relators, prefixes)):
            s0, s1, s2, s3 = IDENTITY
            for letter, (p0, p1, p2, p3) in zip(reversed(word),
                                                prefix[-2::-1]):
                j = 3 * (abs(letter) - 1) * m + 4 * k
                for d0, d1, d2, d3 in derivs[letter]:
                    q0, q1 = p0 * d0 + p1 * d2, p0 * d1 + p1 * d3
                    q2, q3 = p2 * d0 + p3 * d2, p2 * d1 + p3 * d3
                    acc[j] += q0 * s0 + q1 * s2
                    acc[j + 1] += q0 * s1 + q1 * s3
                    acc[j + 2] += q2 * s0 + q3 * s2
                    acc[j + 3] += q2 * s1 + q3 * s3
                    j += m
                a, b, c, d = mats[letter]
                s0, s1, s2, s3 = (a * s0 + b * s2, a * s1 + b * s3,
                                  c * s0 + d * s2, c * s1 + d * s3)
        return [acc[a * m:a * m + m] for a in range(3 * len(jets))]

    return res, jacobian


def solve(p: Presentation, restarts: int = 20, tol: float = 1e-10,
          seed: int = 0) -> list:
    """Local searches for representations, one per class (_dedup).

    Each restart is a pure function of (presentation, seed, index), so
    results are reproducible.  Returns assignments with residual below
    tol, sorted by trace coordinates.
    """
    if _integer(restarts) < 1:
        raise InvalidParameter("restarts must be >= 1")
    _check_tol(tol)
    seed = _integer(seed)
    pattern = _lm_pattern(p)
    found = []
    # without relators every start is a solution, so one is enough
    for index in range(restarts if p.relators else 1):
        params, cost = _restart(p, seed, index, pattern)
        if not cost < tol:      # a NaN cost is rejected too
            continue
        found.append(RepAssignment(
            {name: PSL2(_generator_jet(*params[3 * i:3 * i + 3])[0])
             for i, name in enumerate(p.generators)},
            residual=cost))
    return _dedup(p, found)


def _dedup(p: Presentation, assignments) -> list:
    """assignments sorted by (trace_coordinates, residual), keeping the
    first of each class: a later one is dropped when every trace
    coordinate is within DEDUP_TOL, relative to the coordinate's size, of
    a kept one."""
    keyed = sorted(((trace_coordinates(p, rep), rep) for rep in assignments),
                   key=lambda kr: (kr[0], kr[1].residual))
    out, kept_keys = [], []
    for key, rep in keyed:
        if not any(_close(key, k) for k in kept_keys):
            kept_keys.append(key)
            out.append(rep)
    return out


def _close(u, v) -> bool:
    # <= is False on NaN, so a NaN coordinate is never close
    return all(abs(a - b) <= DEDUP_TOL * max(1.0, abs(a), abs(b))
               for a, b in zip(u, v))


def _restart(p: Presentation, seed: int, index: int, pattern):
    rng = random.Random(f"{seed}:{index}")
    return _levmar(p, _random_params(rng, len(p.generators)), pattern)


# ---------------------------------------------------------------------------
# classification


def _noncentral(mats, tol):
    """The matrices farther than squared distance tol from +-I; not <=,
    so that a NaN matrix counts as noncentral."""
    return [m for m in mats if not psl_dist_sq(m, IDENTITY) <= tol]


def _eigenlines(m):
    """Projective fixed lines of a 2x2 matrix over C, as (v0, v1) pairs."""
    a, b, c, d = (complex(x) for x in m)
    tr = a + d
    # sqrt(tr^2 - 4) as a product, which does not overflow for large tr
    disc = cmath.sqrt(tr - 2) * cmath.sqrt(tr + 2)
    lines = []
    for lam in ((tr + disc) / 2, (tr - disc) / 2):
        v = max([(b, lam - a), (lam - d, c)], key=_norm)
        norm = _norm(v)
        if norm > 1e-12:
            lines.append((v[0] / norm, v[1] / norm))
    # collapse the pair when the eigenvalues coincide (parabolic)
    if len(lines) == 2 and _line_dist(lines[0], lines[1]) < 1e-8:
        lines = lines[:1]
    return lines


def _norm(v):
    # hypot, unlike a sum of ** 2, does not overflow on large entries
    return math.hypot(abs(v[0]), abs(v[1]))


def _line_dist(u, v):
    # sine of the angle between complex projective lines
    cross = u[0] * v[1] - u[1] * v[0]
    return abs(cross)


def _image_line(m, v):
    """The line m v, normalized, or None when m v is numerically zero."""
    a, b, c, d = (complex(x) for x in m)
    w = (a * v[0] + b * v[1], c * v[0] + d * v[1])
    nw = _norm(w)
    if nw < 1e-12:
        return None
    return (w[0] / nw, w[1] / nw)


def _fixes_line(m, v) -> bool:
    w = _image_line(m, v)
    return w is None or _line_dist(v, w) < CLASSIFY_TOL


def _maps_to(m, v, w) -> bool:
    mv = _image_line(m, v)
    return mv is not None and _line_dist(mv, w) < CLASSIFY_TOL


def _noncentral_commutators(mats):
    """The generator commutators that are not +-identity, lazily."""
    for a, b in combinations(mats, 2):
        yield from _noncentral([commutator(a, b)], CLASSIFY_TOL * CLASSIFY_TOL)


def is_irreducible(rep: RepAssignment) -> bool:
    """True when no point of CP^1 is fixed by every generator image.

    Images within squared distance CENTRAL_TOL of +-I are left out, and
    a line counts as fixed to within CLASSIFY_TOL."""
    mats = [m.tuple() for m in rep.matrices.values()]
    core = _noncentral(mats, CENTRAL_TOL)
    if not core:
        return False
    for v in _eigenlines(core[0]):
        if all(_fixes_line(m, v) for m in core):
            return False
    return True


def is_abelian(rep: RepAssignment) -> bool:
    """All pairwise commutators of generator images are +-identity."""
    mats = [m.tuple() for m in rep.matrices.values()]
    return next(_noncentral_commutators(mats), None) is None


def is_metabelian(rep: RepAssignment) -> bool:
    """The commutator subgroup [G, G] of the generator images is abelian.

    Noncentral elements of PSL(2,R) commute exactly when they have the
    same fixed lines on CP^1, and [G, G] is the normal closure of the
    generator commutators.  So [G, G] is abelian exactly when every
    generator commutator is central, or when every generator maps the
    fixed-line set of one noncentral commutator to itself; G then fixes
    a point of CP^1 or preserves a pair of points, and either group is
    metabelian.
    """
    mats = [m.tuple() for m in rep.matrices.values()]
    c = next(_noncentral_commutators(mats), None)
    if c is None:
        return True
    lines = _eigenlines(c)
    return bool(lines) and all(any(_maps_to(m, v, w) for w in lines)
                               for m in mats for v in lines)


# ---------------------------------------------------------------------------
# standard presentations


def surface_presentation(genus: int) -> Presentation:
    """<a1, b1, ..., ag, bg | prod [ai, bi]>."""
    genus = _integer(genus)
    if genus < 1:
        raise InputError("genus must be >= 1")
    return Presentation(generators=tuple(surface_generator_names(genus)),
                        relators=(surface_relator(genus),))


def surface_times_circle_presentation(genus: int) -> Presentation:
    """Surface group times a central circle factor."""
    base = surface_presentation(genus)
    gens = base.generators + ("z",)
    z = len(gens)
    relators = [base.relators[0]]
    for i in range(1, z):
        relators.append((z, i, -z, -i))
    return Presentation(generators=gens, relators=tuple(relators))


def free_product(p1: Presentation, p2: Presentation) -> Presentation:
    """Free product with generators renamed side_1 / side_2."""
    gens = tuple(f"{g}_1" for g in p1.generators) + \
        tuple(f"{g}_2" for g in p2.generators)
    shift = len(p1.generators)
    relators = list(p1.relators)
    for rel in p2.relators:
        relators.append(tuple(l + shift if l > 0 else l - shift for l in rel))
    return Presentation(generators=gens, relators=tuple(relators))


def connected_sum_family(p1: Presentation, rep1: RepAssignment,
                         p2: Presentation, rep2: RepAssignment,
                         a: PSL2) -> RepAssignment:
    """Representation of the free product sending the second factor
    through conjugation by the parameter a.

    The residual is additive: relators split between the factors.
    """
    conj = rep2.conjugated(a)
    try:
        mats = [rep1[g] for g in p1.generators] + \
            [conj[g] for g in p2.generators]
    except KeyError as exc:
        raise UnassignedGenerator(str(exc)) from exc
    res = None
    if rep1.residual is not None and rep2.residual is not None:
        res = rep1.residual + rep2.residual
    return RepAssignment(dict(zip(free_product(p1, p2).generators, mats)),
                         residual=res)


# ---------------------------------------------------------------------------
# Brieskorn spheres


class BrieskornData(_Record):
    """Pairwise coprime exponents with normalized fibration constants.

    The constants satisfy b1*q*r + b2*p*r + b3*p*q = 1 exactly, so the
    presented space is an integral homology sphere.  The central
    exponent b0 is 0 in this normalization.
    """

    p: int
    q: int
    r: int
    cone: tuple                 # ((p, b1), (q, b2), (r, b3))
    b0 = 0

    def __init__(self, p, q, r):
        p, q, r = _integer(p), _integer(q), _integer(r)
        for x in (p, q, r):
            if x < 2:
                raise NotCoprime("exponents must be >= 2")
        if math.gcd(p, q) != 1 or math.gcd(p, r) != 1 or math.gcd(q, r) != 1:
            raise NotCoprime(f"({p}, {q}, {r}) are not pairwise coprime")
        b1 = pow(q * r, -1, p)
        b2 = pow(p * r, -1, q)
        # exact: the numerator vanishes mod p and mod q
        b3 = (1 - b1 * q * r - b2 * p * r) // (p * q)
        self._store(p, q, r, ((p, b1), (q, b2), (r, b3)))

    @property
    def exponents(self) -> tuple:
        return (self.p, self.q, self.r)


def brieskorn_presentation(data: BrieskornData) -> Presentation:
    """Standard Seifert-fibered presentation
    <x1, x2, x3, h | [h, xi], xi^pi h^bi, x1 x2 x3>."""
    h = 4
    commutators, powers = [], []
    for i, (pi, bi) in enumerate(data.cone, start=1):
        commutators.append((h, i, -h, -i))
        powers.append((i,) * pi + ((h,) * bi if bi >= 0 else (-h,) * -bi))
    return Presentation(generators=("x1", "x2", "x3", "h"),
                        relators=(*commutators, *powers, (1, 2, 3)))


class BrieskornClass(_Record):
    angles: tuple            # numerators (l1, l2, l3); (0, 0, 0) is trivial
    assignment: RepAssignment
    traces: tuple
    irreducible: bool

    @property
    def residual(self) -> float:
        return self.assignment.residual


def _rotation_solve(angles_num, exponents):
    """Solve x1 x2 x3 = +-identity with x_i elliptic of fixed angles.

    The parametrization is exact: x1 rotates about i, x2 is the same
    rotation conjugated a hyperbolic distance d down the imaginary axis
    (the residual conjugation gauge is a rotation about i, which this
    slice kills), and x3 is forced by the product.  The trace condition
    2 c1 c2 - 2 s1 s2 cosh d = +-2 c3 on x3 is solved in closed form for
    d, per sign branch of the product; d and -d give conjugate triples,
    so only d > 0 is kept.  Returns the matrix triples found.
    """
    th = [math.pi * l / p for l, p in zip(angles_num, exponents)]
    c1, s1 = math.cos(th[0]), math.sin(th[0])
    c2, s2 = math.cos(th[1]), math.sin(th[1])
    c3 = math.cos(th[2])
    hits = []
    for eps in (1.0, -1.0):
        arg = (c1 * c2 - eps * c3) / (s1 * s2)
        d = math.acosh(arg) if arg > 1.0 else 0.0
        if d > 1e-6:
            t_mat = (math.exp(d / 2), 0.0, 0.0, math.exp(-d / 2))
            x1 = rotation(th[0])
            x2 = mat_mul(mat_mul(t_mat, rotation(th[1])), mat_inv(t_mat))
            x3 = mat_inv(mat_mul(x1, x2))
            hits.append([x1, x2, x3])
    return hits


def brieskorn_enumerate(data: BrieskornData, tol: float = 1e-10) -> list:
    """Census of PSL(2,R) representation classes of a Brieskorn sphere,
    up to PGL(2,R) conjugacy.

    h maps to the identity and x_i to an elliptic element of rotation
    number l_i / p_i.  By Jankins-Neumann a class exists exactly when
    sum l_i / p_i < 1 or > 2 (tested in integers); the mirror p - l is
    its conjugate by a reflection, so only the lesser of l and p - l is
    solved.  The first closed-form solution whose residual is below tol,
    whose rotation numbers verify and which is irreducible is kept; a
    triple without one raises CertificateFailed.  The trivial class
    comes first, the rest in order of angles.
    """
    _check_tol(tol)
    pres = brieskorn_presentation(data)
    eye = PSL2.identity()
    trivial = RepAssignment({g: eye for g in pres.generators}, residual=0.0)
    census = [BrieskornClass(angles=(0, 0, 0), assignment=trivial,
                             traces=trace_coordinates(pres, trivial),
                             irreducible=False)]
    p1, p2, p3 = data.exponents
    whole = p1 * p2 * p3
    for angles in product(range(1, p1), range(1, p2), range(1, p3)):
        l1, l2, l3 = angles
        total = l1 * p2 * p3 + l2 * p1 * p3 + l3 * p1 * p2
        if whole <= total <= 2 * whole or (p1 - l1, p2 - l2, p3 - l3) < angles:
            continue
        for mats in _rotation_solve(angles, data.exponents):
            xs = [PSL2(m) for m in mats]
            matrices = dict(zip(pres.generators, (*xs, eye)))
            res = residual(pres, matrices)
            if not res < tol:
                continue
            rep = RepAssignment(matrices, residual=res)
            if (_rotation_numbers_verify(xs, angles, data.exponents)
                    and is_irreducible(rep)):
                census.append(BrieskornClass(
                    angles=angles, assignment=rep,
                    traces=trace_coordinates(pres, rep), irreducible=True))
                break
        else:
            raise CertificateFailed(
                f"angles {angles}: no closed-form solution passes the "
                f"residual, rotation-number and irreducibility "
                f"certificates at tol {tol}")
    return census


def _rotation_numbers_verify(xs, angles, exponents) -> bool:
    """True when the i-th element of xs has rotation number l_i / p_i
    mod 1, for each angle l_i and exponent p_i.

    translation_number is a closed form, so ROTATION_TOL only absorbs
    rounding; a NaN error fails the check.
    """
    for x, l, p in zip(xs, angles, exponents):
        tau = translation_number(CircleLift(x))
        target = (l / p) % 1.0
        err = min(abs(tau - target), abs(tau - target + 1),
                  abs(tau - target - 1))
        if not err <= ROTATION_TOL:
            return False
    return True
