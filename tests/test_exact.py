import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from blowupgate.errors import InputError
from blowupgate.exact import (AbelianGroup, IntMatrix, LaurentPoly, NonSquare,
                              ZeroEvaluationPoint, cokernel, invariant_factors,
                              laurent_det, laurent_gcd, smith_normal_form)
from blowupgate.exact import _kronecker_det
from blowupgate.links import Presentation

# ---------------------------------------------------------------------------
# oracles


def bareiss_det(rows) -> int:
    """Determinant by plain fraction-free (Bareiss) elimination, with no
    unit pivots split off first: the library's IntMatrix.det does that,
    and so do invariant_factors and cokernel, so the oracles below keep
    their own loop."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_of_minors_factors(m: IntMatrix):
    """Invariant factors via gcds of k x k minors, independent of the
    elimination code: d_k = gcd(k-minors), factor_k = d_k / d_{k-1}."""
    from math import gcd
    prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, abs(bareiss_det(
                    [[m.at(i, j) for j in cols] for i in rows])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def cofactor_det(mat):
    if not mat:
        return LaurentPoly.one()
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = LaurentPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def check_snf(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert abs(bareiss_det(u.to_rows())) == 1
    assert abs(bareiss_det(v.to_rows())) == 1
    diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x != 0]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))
    return nz


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_example_2x2():
    for rows, factors in (
            ([[2, 4], [6, 8]], [2, 4]),
            # the pivot 2 does not divide 3: a row is added to row 0
            ([[2, 0], [0, 3]], [1, 6]),
            # negative pivots, one in the wrong place
            ([[-3, 0], [0, -6]], [3, 6]),
            ([[0, -5], [-10, 0]], [5, 10]),
            # consecutive Fibonacci numbers: each round leaves one
            # remainder, the next round's pivot
            ([[34, 21], [21, 13]], [1, 1]),
            ([[89, 55], [55, 34]], [1, 1])):
        m = IntMatrix.from_rows(rows)
        assert check_snf(m) == gcd_of_minors_factors(m) == factors
        assert invariant_factors(m) == factors


def test_snf_identity():
    m = IntMatrix.identity(4)
    assert check_snf(m) == [1, 1, 1, 1]


def test_snf_zero():
    m = IntMatrix.zero(3, 2)
    _, d, _ = smith_normal_form(m)
    assert d.entries == (0,) * 6


@pytest.mark.parametrize("seed", range(4))
def test_snf_random_vs_minor_oracle(seed):
    rng = random.Random(seed)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                 for _ in range(rows)])
        assert check_snf(m) == gcd_of_minors_factors(m)
        assert invariant_factors(m) == gcd_of_minors_factors(m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)])
def test_invariant_factors_of_empty_and_zero_shapes(rows, cols):
    m = IntMatrix.zero(rows, cols)
    assert invariant_factors(m) == gcd_of_minors_factors(m) == []
    assert cokernel(m) == AbelianGroup(rank=cols)
    u, d, v = smith_normal_form(m)
    assert (u.rows, u.cols, v.rows, v.cols) == (rows, rows, cols, cols)
    assert (u @ m) @ v == d == m


def unit_dense_matrix(rng, rows, cols):
    """Entries mostly +-1, with some zeros and a few larger values, and
    now and then an all-zero row or column."""
    a = [[rng.choice([1, -1, 1, -1, 0, 0, 2, -3, 5])
          for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return IntMatrix(rows, cols, tuple(x for row in a for x in row))


def oracle_cokernel(m: IntMatrix) -> AbelianGroup:
    facs = gcd_of_minors_factors(m)
    return AbelianGroup(rank=m.cols - len(facs),
                        torsion=tuple(d for d in facs if d >= 2))


@pytest.mark.parametrize("seed", range(4))
def test_unit_dense_matrices_vs_minor_oracle(seed):
    rng = random.Random(1800 + seed)
    shapes = [(0, 3), (3, 0), (0, 0)]
    shapes += [(n, n) for n in range(1, 7)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)]
    for rows, cols in shapes:
        m = unit_dense_matrix(rng, rows, cols)
        if rows == cols:
            assert m.det() == bareiss_det(m.to_rows()), m
        assert invariant_factors(m) == gcd_of_minors_factors(m), m
        assert cokernel(m) == oracle_cokernel(m), m


def test_unit_dense_determinants_vs_bareiss_oracle():
    # sizes past the reach of the minor oracle, and signed permutation
    # matrices, whose determinant is the sign of the permutation times
    # the product of the entries
    rng = random.Random(1810)
    for n in range(1, 16):
        m = unit_dense_matrix(rng, n, n)
        assert m.det() == bareiss_det(m.to_rows()), m
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(n)]
        p = IntMatrix.from_rows([[signs[i] if j == perm[i] else 0
                                  for j in range(n)] for i in range(n)])
        inversions = sum(perm[i] > perm[j]
                         for i, j in combinations(range(n), 2))
        assert p.det() == (-1) ** inversions * prod(signs), perm
        assert invariant_factors(p) == [1] * n


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[-2, 1], [1, -2]])) == \
        AbelianGroup(rank=0, torsion=(3,))
    assert cokernel(IntMatrix.from_rows([[0]])) == AbelianGroup(rank=1)
    assert cokernel(IntMatrix.from_rows([[1]])) == AbelianGroup(rank=0)


def test_cokernel_order_matches_determinant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(n)]
                                 for _ in range(n)])
        det = m.det()
        group = cokernel(m)
        if det != 0:
            assert group.rank == 0
            assert group.order == abs(det)
        else:
            assert group.rank > 0


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, torsion=(3, 4))
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, torsion=(1,))
    # int() would truncate 2.7 and 1.5, parse "3" and read True as 1
    for rank, torsion in ((1, (2.7,)), (1.5, ()), (0, ("3",)), (True, ())):
        with pytest.raises(ValueError):
            AbelianGroup(rank, torsion)
    g = AbelianGroup(rank=2, torsion=(2, 6))
    assert str(g) == "Z^2 + Z/2 + Z/6"
    assert g.order is None


# ---------------------------------------------------------------------------
# Laurent polynomials


def t(exp=1, coeff=1):
    return LaurentPoly.t(exp, coeff)


def test_laurent_det_examples():
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    assert laurent_det([[one_minus_t]]) == one_minus_t
    m = [[LaurentPoly({1: 1, 0: -1}), LaurentPoly.one()],
         [LaurentPoly({1: -1}), LaurentPoly({1: 1, 0: -1})]]
    assert laurent_det(m) == LaurentPoly({2: 1, 1: -1, 0: 1})
    assert laurent_det([]) == LaurentPoly.one()


def test_laurent_det_nonsquare():
    with pytest.raises(NonSquare):
        laurent_det([[LaurentPoly.one(), LaurentPoly.one()]])


def test_laurent_det_matches_cofactor_oracle():
    rng = random.Random(5)
    mats = []
    for _ in range(25):
        n = rng.randint(1, 4)
        mats.append([[LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)})
                      for _ in range(n)] for _ in range(n)])
    # multi-term entries with large coefficients (digits carry), negative
    # exponents, up to 5 x 5
    for _ in range(60):
        n = rng.randint(1, 5)
        mats.append([[LaurentPoly({rng.randint(-3, 3): rng.choice(
            [rng.randint(-3, 3), rng.randint(-10**6, 10**6)])
            for _ in range(rng.randint(0, 3))})
            for _ in range(n)] for _ in range(n)])
    big = LaurentPoly({-2: 10**6, 0: -999_999, 3: 7})
    # an all-zero row, and a zero leading entry that forces a row swap
    mats.append([[big, t(-1, 3), t()],
                 [LaurentPoly.zero()] * 3,
                 [t(2, -5), big, t(-3)]])
    mats.append([[LaurentPoly.zero(), big, t(-1, -2)],
                 [big, t(1, 10**6), t()],
                 [t(-2, 4), t(), big * big]])
    for mat in mats:
        assert laurent_det(mat) == cofactor_det(mat)


def cells_of_terms(rows):
    """The square matrix of LaurentPoly whose cell (i, j) sums the terms
    k t^e of the (j, e, k) in rows[i]."""
    mat = [[LaurentPoly.zero()] * len(rows) for _ in rows]
    for row, terms in zip(mat, rows):
        for j, e, k in terms:
            row[j] = row[j] + t(e, k)
    return mat


def random_term_rows(rng, n):
    """n sparse rows of terms: repeated (column, exponent) pairs, some
    of which cancel, negative exponents, now and then a large
    coefficient or a row without terms."""
    rows = []
    for _ in range(n):
        terms = [(rng.randrange(n), rng.randint(-3, 3),
                  rng.choice([rng.randint(-3, 3) or 1,
                              rng.randint(-10**6, 10**6) or 1]))
                 for _ in range(rng.choice([0, 1, 2, 3, 4, 6]))]
        for j, e, k in list(terms):
            if rng.random() < 0.3:
                terms.append((j, e, rng.choice([-k, rng.randint(-3, 3) or 1])))
        rng.shuffle(terms)
        rows.append(terms)
    return rows


def test_kronecker_det_matches_cofactor_oracle():
    rng = random.Random(45)
    cases = [random_term_rows(rng, rng.randint(1, 5)) for _ in range(300)]
    # diag(3 + 3t) three times: 27 (1 + t)^3 has coefficients 81, which
    # a bound from the largest row sum, 6, would not hold
    cases.append([[(i, 0, 3), (i, 1, 3)] for i in range(3)])
    # the terms at a row's least exponent cancel, so the row holds t^1
    # and t^2 only; the matrix is [[t + 2t^2, 1], [-1, t^-2]]
    cases.append([[(0, -1, 4), (0, 1, 1), (0, -1, -4), (0, 2, 2), (1, 0, 1)],
                  [(0, 0, -1), (1, -2, 1)]])
    for rows in cases:
        assert _kronecker_det(rows) == cofactor_det(cells_of_terms(rows)), rows
    assert _kronecker_det(cases[-2]) == LaurentPoly.from_coeffs([27, 81, 81,
                                                                 27])
    assert _kronecker_det([[(0, 0, 1)], [(1, 2, 5)], []]).is_zero
    # a row whose terms all cancel
    assert _kronecker_det([[(0, 1, 2), (1, 0, 3)],
                           [(1, -1, 7), (0, 2, 1), (1, -1, -7), (0, 2, -1)]
                           ]).is_zero
    assert _kronecker_det([]) == LaurentPoly.one()


def test_laurent_det_commutes_with_substitution():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 3)
        mat = [[LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3),
                             rng.randint(-2, 2): rng.randint(-3, 3)})
                for _ in range(n)] for _ in range(n)]
        x = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        plugged = [[entry.eval_at(x) for entry in row] for row in mat]
        det_after = Fraction(1)
        # fraction Gaussian elimination
        rowsf = [row[:] for row in plugged]
        sign = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if rowsf[i][k] != 0), None)
            if piv is None:
                det_after = Fraction(0)
                break
            if piv != k:
                rowsf[k], rowsf[piv] = rowsf[piv], rowsf[k]
                sign = -sign
            for i in range(k + 1, n):
                f = rowsf[i][k] / rowsf[k][k]
                rowsf[i] = [a - f * b for a, b in zip(rowsf[i], rowsf[k])]
        else:
            for k in range(n):
                det_after *= rowsf[k][k]
            det_after *= sign
        assert laurent_det(mat).eval_at(x) == det_after


def test_eval_at_examples():
    p = LaurentPoly({2: 1, 1: -1, 0: 1})
    assert p.eval_at(-1) == 3
    assert LaurentPoly.zero().eval_at(-1) == 0
    assert LaurentPoly({-1: 1, 1: 1}).eval_at(-1) == -2
    assert LaurentPoly({-2: 3}).eval_at(2) == Fraction(3, 4)
    with pytest.raises(ZeroEvaluationPoint):
        p.eval_at(0)


def test_eval_at_matches_termwise_sum():
    rng = random.Random(13)
    points = [Fraction(v) for v in (-1, 1, 2, -2, "3/5", "-3/5", "7/2")]
    for _ in range(60):
        p = LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 5))})
        for x in points:
            termwise = sum((k * x ** e for e, k in p.items()), Fraction(0))
            value = p.eval_at(x)
            assert type(value) is Fraction and value == termwise


def test_subtraction_examples():
    p = LaurentPoly({-1: 2, 0: 3, 2: -1})
    assert p - 3 == p + LaurentPoly({0: -3})
    assert p - 3 == LaurentPoly({-1: 2, 2: -1})
    assert (p - p).is_zero
    assert LaurentPoly.zero() - 0 == LaurentPoly.zero()


def test_subtraction_matches_coefficientwise_oracle():
    rng = random.Random(29)
    for _ in range(200):
        p, q = ({rng.randint(-5, 5): rng.randint(-9, 9)
                 for _ in range(rng.randint(0, 5))} for _ in range(2))
        diff = {e: p.get(e, 0) - q.get(e, 0) for e in {*p, *q}}
        expected = {e: k for e, k in diff.items() if k}
        assert (LaurentPoly(p) - LaurentPoly(q)).items() == sorted(
            expected.items())


def test_unit_normalize_examples():
    p = LaurentPoly({3: -1, 4: 1})
    assert p.unit_normalize() == LaurentPoly({0: -1, 1: 1})
    assert LaurentPoly.one().unit_normalize() == LaurentPoly.one()
    assert LaurentPoly({-2: -1}).unit_normalize() == LaurentPoly.one()
    assert LaurentPoly.zero().unit_normalize() == LaurentPoly.zero()


def test_unit_normalize_idempotent_and_unit_invariant():
    rng = random.Random(7)
    for _ in range(60):
        p = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)
                         for _ in range(rng.randint(0, 4))})
        q = p.unit_normalize()
        assert q.unit_normalize() == q
        shifted = (p * LaurentPoly({rng.randint(-3, 3): rng.choice([1, -1])}))
        assert shifted.unit_normalize() == q
        assert p.unit_equal(shifted)


def test_laurent_gcd_basic():
    a = LaurentPoly({0: -1, 1: 1})          # t - 1
    b = LaurentPoly({0: 1, 1: -2, 2: 1})    # (t - 1)^2
    assert laurent_gcd(a, b) == a.unit_normalize()
    assert laurent_gcd(LaurentPoly.zero(), b) == b.unit_normalize()
    c = LaurentPoly({0: 2})
    d = LaurentPoly({0: 4, 1: 6})
    assert laurent_gcd(c, d) == LaurentPoly({0: 2})


def test_laurent_gcd_divides_common_factor():
    rng = random.Random(8)
    for _ in range(40):
        core = LaurentPoly({0: rng.randint(1, 3), 1: rng.randint(-3, 3),
                            2: rng.randint(-3, 3)})
        u = LaurentPoly({0: rng.randint(-2, 2), 1: rng.randint(-2, 2)})
        v = LaurentPoly({0: rng.randint(-2, 2), 1: rng.randint(-2, 2)})
        if core.is_zero or u.is_zero or v.is_zero:
            continue
        g = laurent_gcd(core * u, core * v)
        # the common factor divides the gcd: gcd(g, core) = core up to units
        assert laurent_gcd(g, core) == core.unit_normalize()


def test_intmatrix_shape_errors():
    with pytest.raises(NonSquare):
        IntMatrix.from_rows([[1, 2]]).det()
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    for rows, cols, entries in ((2, 2, (1, 2, 3)), (1, 2, (1, 2, 3)),
                                (0, 3, (0,))):
        with pytest.raises(InputError, match="entry count"):
            IntMatrix(rows, cols, entries)
    for build in (lambda: IntMatrix.identity(-1),
                  lambda: IntMatrix.zero(2, -1)):
        with pytest.raises(InputError, match="negative dimensions"):
            build()


@pytest.mark.parametrize("build", [
    lambda: IntMatrix.from_rows([[2.7]]),
    lambda: IntMatrix.from_rows([[True]]),
    lambda: IntMatrix(1, 1, (2.5,)),
    lambda: IntMatrix(1, 1, "5"),
    lambda: LaurentPoly({0: 1.5}),
    lambda: LaurentPoly({0: "3"}),
    lambda: LaurentPoly({0.5: 1, 0: 1}),
    lambda: LaurentPoly({True: 1}),
], ids=["float-row", "bool-row", "float-entry", "string-entries",
        "float-coeff", "string-coeff", "float-exponent", "bool-exponent"])
def test_exact_entries_are_integers(build):
    # int() used to truncate 2.7 and 1.5, read True as 1, parse "3" and
    # fold the exponent 0.5 onto 0, dropping a term
    with pytest.raises(InputError):
        build()


def test_exact_entries_accept_integral_floats():
    m = IntMatrix.from_rows([[2.0, -1], [0, 3.0]])
    assert m == IntMatrix(2, 2, (2, -1, 0, 3))
    assert set(map(type, m.entries)) == {int}
    assert LaurentPoly({1.0: 2.0, 0: 0.0}) == LaurentPoly.t(1, 2)


def test_built_matrices_equal_checked_ones():
    # transpose, + and @ wrap their entries unchecked; each result must
    # equal, and hash like, the same matrix from the public constructor
    rng = random.Random(4)
    for _ in range(30):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a, a2 = ([[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
                 for _ in range(2))
        b = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        ma = IntMatrix(r, k, tuple(sum(a, [])))
        mb = IntMatrix(k, c, tuple(sum(b, [])))
        expected = (
            (ma.transpose(), [[a[i][j] for i in range(r)] for j in range(k)]),
            (ma + IntMatrix(r, k, tuple(sum(a2, []))),
             [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)]),
            (ma @ mb, [[sum(a[i][t] * b[t][j] for t in range(k))
                        for j in range(c)] for i in range(r)]))
        for built, rows in expected:
            checked = IntMatrix(built.rows, built.cols, tuple(sum(rows, [])))
            assert built == checked and hash(built) == hash(checked)
    # a list of entries is read as a tuple; it was once kept, unhashable
    assert hash(IntMatrix(1, 1, [5])) == hash(IntMatrix(1, 1, (5,)))


def test_package_built_matrices_equal_checked_ones():
    # identity, zero, the Smith transforms and the exponent matrix are
    # stored unchecked; each must equal, and hash like, its checked copy
    rng = random.Random(9)
    built = [IntMatrix.identity(0), IntMatrix.identity(3),
             IntMatrix.zero(0, 2), IntMatrix.zero(2, 3)]
    for _ in range(20):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        built += smith_normal_form(m)
        gens = tuple(f"g{i}" for i in range(c))
        relators = tuple(tuple(rng.choice([1, -1]) * rng.randint(1, c)
                               for _ in range(rng.randint(1, 5)))
                         for _ in range(r)) if c else ()
        built.append(Presentation(gens, relators).exponent_matrix())
    for m in built:
        checked = IntMatrix(m.rows, m.cols, m.entries)
        assert type(m.entries) is tuple
        assert set(map(type, m.entries)) <= {int}
        assert m == checked and hash(m) == hash(checked)


def test_snf_arbitrary_precision_entries():
    big = 10 ** 30
    m = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
    factors = check_snf(m)
    # det = big^2 - (big^2 - 1) = 1, so the form is unimodular
    assert factors == [1, 1]
    m2 = IntMatrix.from_rows([[2 * big, 0], [0, 3 * big]])
    assert check_snf(m2) == gcd_of_minors_factors(m2)
    # bordered shapes with r != c: large Fibonacci entries give long
    # chains of remainders along a row and along a column
    f = [0, 1]
    while len(f) < 150:
        f.append(f[-1] + f[-2])
    for rows in ([[f[149], f[148], 6 * f[100]]],
                 [[f[149], f[147]], [f[148], -f[146]], [-f[120], 2]],
                 [[6, 10, 15], [-4, 0, 9]],
                 [[6, -10], [10, 15], [-15, 6]]):
        for m3 in (IntMatrix.from_rows(rows),
                   IntMatrix.from_rows(rows).transpose()):
            assert check_snf(m3) == gcd_of_minors_factors(m3) \
                == invariant_factors(m3)


def test_snf_larger_random_matrices():
    rng = random.Random(404)
    for _ in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = IntMatrix.from_rows([[rng.randint(-999, 999) for _ in range(cols)]
                                 for _ in range(rows)])
        check_snf(m)
        assert invariant_factors(m) == gcd_of_minors_factors(m)
