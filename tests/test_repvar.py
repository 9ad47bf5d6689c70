import ast
import itertools
import math
import random
from functools import reduce
from operator import add, mul
from pathlib import Path
from types import SimpleNamespace

import pytest

from census_helpers import jankins_neumann_count
from circle_helpers import random_psl2, windowed_translation_number
from presentation_helpers import EDGE_GROUPS

import blowupgate
from blowupgate.errors import InputError
from blowupgate.exact import AbelianGroup
from blowupgate.links import BraidWord, Presentation, from_braid, wirtinger
from blowupgate.psl2r import (IDENTITY, PSL2, CircleLift, commutator,
                              euler_number, fuchsian_genus2, mat_inv, mat_mul,
                              psl_dist_sq, rotation, sym_exp,
                              relator_shift, translation_number, word_image)
from blowupgate.repvar import (JET_SERIES_R, LM_COST_TARGET, LM_MAX_ITER,
                               BrieskornData, NotCoprime,
                               RepAssignment, UnassignedGenerator,
                               _damped_solve, _dedup, _levmar, _lm_pattern,
                               _normal_system, _random_params,
                               _residual_and_jacobian, _restart,
                               _signed_entries, _sum,
                               _rotation_numbers_verify, _rotation_solve,
                               _step,
                               brieskorn_enumerate,
                               brieskorn_presentation, connected_sum_family,
                               free_product, is_abelian, is_irreducible,
                               is_metabelian, residual, solve,
                               surface_presentation,
                               surface_times_circle_presentation,
                               trace_coordinates)

TREFOIL_GROUP = wirtinger(from_braid(BraidWord(2, (1, 1, 1))))

LM_GROUPS = {
    "surface1": surface_presentation(1),
    "surface2": surface_presentation(2),
    "surface1xS1": surface_times_circle_presentation(1),
    "surface1*surface1": free_product(surface_presentation(1),
                                      surface_presentation(1)),
    "trefoil": TREFOIL_GROUP,
    "figure_eight": wirtinger(from_braid(BraidWord(3, (1, -2, 1, -2)))),
    # repeated letters and h^+-b powers
    "brieskorn_2_3_7": brieskorn_presentation(BrieskornData(2, 3, 7)),
}


# ---------------------------------------------------------------------------
# residual


def test_residual_trivial_assignment():
    eye = PSL2.identity()
    rep = RepAssignment({g: eye for g in TREFOIL_GROUP.generators})
    assert residual(TREFOIL_GROUP, rep) == 0.0


def test_residual_meridians_to_common_elliptic():
    m = PSL2(rotation(0.7))
    rep = RepAssignment({g: m for g in TREFOIL_GROUP.generators})
    assert residual(TREFOIL_GROUP, rep) < 1e-28


def test_residual_positive_generically():
    rng = random.Random(10)
    hits = 0
    for _ in range(15):
        rep = RepAssignment({g: random_psl2(rng)
                             for g in TREFOIL_GROUP.generators})
        if residual(TREFOIL_GROUP, rep) > 1e-6:
            hits += 1
        # the entries LM minimizes measure the distance to +-identity
        mats = [rep[g].tuple() for g in TREFOIL_GROUP.generators]
        assert residual(TREFOIL_GROUP, rep) == _sum(
            psl_dist_sq(word_image(w, mats), IDENTITY)
            for w in TREFOIL_GROUP.relators)
    assert hits >= 14


def test_residual_equals_the_signed_entry_sum():
    # residual once summed the squares of _signed_entries, the entries LM
    # drives to zero; psl_dist_sq adds the same four squares in order
    rng = random.Random(12)
    for p in LM_GROUPS.values():
        for _ in range(40):
            rep = RepAssignment({g: random_psl2(rng) for g in p.generators})
            mats = [rep[g].tuple() for g in p.generators]
            assert residual(p, rep) == _sum(
                _sum(v * v for v in _signed_entries(word_image(w, mats)))
                for w in p.relators)


def test_residual_missing_generator():
    rep = RepAssignment({"x1": PSL2.identity()})
    with pytest.raises(UnassignedGenerator):
        residual(TREFOIL_GROUP, rep)


def test_residual_conjugation_invariant():
    rng = random.Random(6)
    sols = solve(TREFOIL_GROUP, restarts=6, tol=1e-10, seed=4)
    for rep in sols[:3]:
        base = residual(TREFOIL_GROUP, rep)
        for _ in range(3):
            conj = rep.conjugated(random_psl2(rng))
            assert abs(residual(TREFOIL_GROUP, conj) - base) < 1e-9


def test_trace_coordinates_conjugation_invariant():
    rng = random.Random(13)
    sols = solve(TREFOIL_GROUP, restarts=6, tol=1e-10, seed=4)
    for rep in sols[:3]:
        key = trace_coordinates(TREFOIL_GROUP, rep)
        for _ in range(3):
            conj = rep.conjugated(random_psl2(rng))
            key2 = trace_coordinates(TREFOIL_GROUP, conj)
            assert math.dist(key, key2) < 1e-7


def hyperbolic(trace):
    t = math.acosh(trace / 2.0)
    return PSL2((math.exp(t), 0.0, 0.0, math.exp(-t)))


def test_dedup_keeps_swapped_traces_apart():
    # two classes of Z^2 whose sorted |trace| vectors are equal; the
    # ordered trace coordinates tell them apart
    p = surface_presentation(1)
    a, b = hyperbolic(3.0), hyperbolic(4.0)
    reps = [RepAssignment({"a1": a, "b1": b}, residual=0.0),
            RepAssignment({"a1": b, "b1": a}, residual=0.0)]
    assert all(residual(p, rep) < 1e-28 for rep in reps)
    assert trace_coordinates(p, reps[0]) != trace_coordinates(p, reps[1])
    assert len(_dedup(p, reps)) == 2


def test_dedup_keeps_classes_apart_when_a_trace_vanishes():
    # tr(x) = 0 zeroes tr(x) tr(y) tr(xy); tr(xy) = 0 and 8/3 tell them apart
    p = Presentation(("x", "y"), ())
    x = PSL2(rotation(math.pi / 2))
    reps = [RepAssignment({"x": x, "y": y}, residual=0.0)
            for y in (hyperbolic(3.0), PSL2((1.0, 3.0, 1.0 / 3.0, 2.0)))]
    assert len(_dedup(p, reps)) == 2


def test_dedup_merges_one_class_found_twice():
    # large traces: the trace coordinates reach about 3e9 and differ by up
    # to about 1 between conjugates, so only a tolerance relative to their
    # size merges them
    rng = random.Random(21)
    p = Presentation(("x", "y", "z"), ())
    base = RepAssignment({g: PSL2(mat_mul(mat_mul(
        rotation(rng.uniform(0, math.pi)), hyperbolic(40.0 + 9 * i).tuple()),
        rotation(rng.uniform(0, math.pi))))
        for i, g in enumerate(p.generators)}, residual=0.0)
    copies = [base] + [base.conjugated(random_psl2(rng)) for _ in range(6)]
    kept = _dedup(p, copies)
    assert len(kept) == 1
    swapped = RepAssignment({"x": base["y"], "y": base["x"], "z": base["z"]},
                            residual=0.0)
    assert len(_dedup(p, copies + [swapped])) == 2
    # PSL2 would restore the sign, so the negated x goes in as an object
    # that has only tuple()
    negated = tuple(-v for v in base["x"].tuple())
    flipped = RepAssignment({**base.matrices,
                             "x": SimpleNamespace(tuple=lambda: negated)})
    assert trace_coordinates(p, flipped) == trace_coordinates(p, base)


# ---------------------------------------------------------------------------
# solve


def test_solve_forced_trivial():
    pres = Presentation(("x",), ((1,),))
    sols = solve(pres, restarts=5, tol=1e-10, seed=0)
    assert len(sols) == 1
    assert sols[0].matrices["x"].is_identity(tol=1e-6)


def test_solve_trefoil_finds_irreducible():
    sols = solve(TREFOIL_GROUP, restarts=25, tol=1e-10, seed=0)
    assert sols
    assert all(rep.residual < 1e-10 for rep in sols)
    assert any(is_irreducible(rep) for rep in sols)


def test_solve_free_group_every_restart_succeeds():
    pres = Presentation(("x", "y"), ())
    sols = solve(pres, restarts=4, tol=1e-10, seed=1)
    assert len(sols) == 1  # one assignment returned, residual exactly zero
    assert residual(pres, sols[0]) == 0.0


def test_solve_survives_an_overflowing_step():
    # a trial step of this search overflows cosh in sym_exp
    sols = solve(LM_GROUPS["brieskorn_2_3_7"], restarts=6, tol=1e-10, seed=1)
    assert sols
    assert all(rep.residual < 1e-10 for rep in sols)


def test_solve_reads_seed_as_an_integer():
    p = surface_presentation(1)
    assert solve(p, restarts=3, seed=1.0) == solve(p, restarts=3, seed=1)
    for seed in (True, 1.5, "x", None):
        with pytest.raises(InputError):
            solve(p, restarts=3, seed=seed)


def test_solve_deterministic_given_seed():
    a = solve(TREFOIL_GROUP, restarts=8, tol=1e-10, seed=7)
    b = solve(TREFOIL_GROUP, restarts=8, tol=1e-10, seed=7)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.matrices.keys() == rb.matrices.keys()
        for g in ra.matrices:
            assert ra.matrices[g].tuple() == rb.matrices[g].tuple()


# ---------------------------------------------------------------------------
# exact Jacobian of the LM core


def residual_vector(p, params):
    """The relator entries that _levmar drives to zero, four per relator,
    built from the generator matrices R(alpha) E(x, y) without jets: the
    oracle for the values of _residual_and_jacobian."""
    mats = [mat_mul(rotation(params[i]), sym_exp(params[i + 1], params[i + 2]))
            for i in range(0, len(params), 3)]
    out = []
    for w in p.relators:
        out.extend(_signed_entries(word_image(w, mats)))
    return out


def numeric_jacobian(p, params, h=1e-6):
    """Central differences of residual_vector, one column per parameter."""
    cols = []
    for j in range(len(params)):
        up, down = list(params), list(params)
        up[j] += h
        down[j] -= h
        cols.append([(a - b) / (2 * h) for a, b in
                     zip(residual_vector(p, up), residual_vector(p, down))])
    return cols


def jacobian_points(n, rng):
    """Random parameters, then the same with every (x, y) at the origin,
    at r = 1e-9 and on either side of the series switch of the jet."""
    points = [_random_params(rng, n) for _ in range(4)]
    s = JET_SERIES_R
    for x, y in ((0.0, 0.0), (1e-9, 0.0), (0.54 * s, 0.72 * s),
                 (0.66 * s, -0.88 * s)):
        point = _random_params(rng, n)
        point[1::3] = [x] * n
        point[2::3] = [y] * n
        points.append(point)
    return points


@pytest.mark.parametrize("name", sorted(LM_GROUPS))
def test_jacobian_matches_central_differences(name):
    p = LM_GROUPS[name]
    n = len(p.generators)
    rng = random.Random(f"jacobian:{name}")
    for params in jacobian_points(n, rng):
        res, jacobian = _residual_and_jacobian(p, params)
        jac = jacobian()
        assert res == residual_vector(p, params)
        oracle = numeric_jacobian(p, params)
        assert len(jac) == 3 * n
        for col, ref in zip(jac, oracle):
            assert len(col) == 4 * len(p.relators)
            for a, b in zip(col, ref):
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (params, a, b)


# restarts of seed 123 out of 40 that the central-difference Jacobian
# brought below 1e-10
@pytest.mark.parametrize("name, converged", [
    ("surface1", 40), ("surface2", 40), ("surface1xS1", 40),
    ("surface1*surface1", 40), ("trefoil", 35),
])
def test_restarts_converge_as_often_as_central_differences(name, converged):
    p = LM_GROUPS[name]
    pattern = _lm_pattern(p)
    hits = sum(_restart(p, 123, i, pattern)[1] < 1e-10 for i in range(40))
    assert hits >= converged


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("rows, cols, scale", [
    (8, 5, 1.0),     # full column rank
    (3, 6, 1.0),     # rank deficient: fewer rows than columns
    (4, 4, 0.0),     # zero
])
def test_damped_solve_residual(rows, cols, scale, lam):
    rng = random.Random(f"damped:{rows}:{cols}:{scale}:{lam}")
    for _ in range(5):
        jac = [[scale * rng.gauss(0.0, 1.0) for _ in range(rows)]
               for _ in range(cols)]
        a = [[sum(u * v for u, v in zip(ci, cj)) for cj in jac]
             for ci in jac]
        b = [rng.gauss(0.0, 1.0) for _ in range(cols)]
        shift = [lam * a[i][i] + 1e-14 for i in range(cols)]
        x = _damped_solve([row[:i + 1] for i, row in enumerate(a)], shift, b,
                          [0] * cols)
        damped = [[a[i][j] + (shift[i] if i == j else 0.0)
                   for j in range(cols)] for i in range(cols)]
        bound = 1e-12 * max(map(abs, x)) * max(
            sum(map(abs, row)) for row in damped)
        for row, bi in zip(damped, b):
            assert abs(sum(u * v for u, v in zip(row, x)) - bi) <= bound


@pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (2, 1), (2, 2)])
def test_damped_solve_rejects_nan(i, j):
    jtj = [[2.0], [0.5, 3.0], [0.1, 0.2, 4.0]]
    jtj[i][j] = math.nan
    with pytest.raises(ZeroDivisionError):
        _damped_solve(jtj, [1e-3 * row[-1] + 1e-14 for row in jtj],
                      [1.0, 2.0, 3.0], [0, 0, 0])


def test_damped_solve_rejects_nan_shift():
    jtj = [[2.0], [0.5, 3.0], [0.1, 0.2, 4.0]]
    with pytest.raises(ZeroDivisionError):
        _damped_solve(jtj, [1e-14, math.nan, 1e-14], [1.0, 2.0, 3.0],
                      [0, 0, 0])


def test_sum_adds_left_to_right():
    # compensated summation, which the builtin sum does from CPython 3.12
    # on, gives 1.0 and 1.0 here
    assert _sum([1e16, 1.0, -1e16]) == 0.0
    assert _sum([0.1] * 10) == 0.9999999999999999
    assert _sum(iter([2.5, -0.0])) == 2.5
    assert repr(_sum([])) == repr(_sum([-0.0])) == "0.0"
    rng = random.Random(32)
    for _ in range(500):
        values = [rng.gauss(0.0, 10.0 ** rng.randint(-20, 20))
                  for _ in range(rng.randint(1, 30))]
        assert _sum(values) == reduce(add, values, 0.0)


def test_numerical_layer_calls_no_builtin_sum():
    # the builtin sum of floats is compensated from CPython 3.12 on, and
    # math.sumprod (3.12 on) sums its products in extended precision, so
    # a call of either would make solve and brieskorn print other points
    for name in ("repvar.py", "psl2r.py"):
        path = Path(blowupgate.__file__).with_name(name)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        assert not {"sum", "fsum", "sumprod"} & (names | attrs), name


def dense_pattern(m, n):
    """The _lm_pattern of an m x n Jacobian with no structural zero."""
    k, shared = (m, tuple(range(n))) if m < n else (n, tuple(range(m)))
    return [tuple(range(m))] * n, [[shared] * k] * k, [0] * k


def low_rank_jacobian(rng, m, n, rank):
    """n columns of length m of a random m x n matrix of the given rank."""
    u = [[rng.gauss(0.0, 1.0) for _ in range(rank)] for _ in range(m)]
    v = [[rng.gauss(0.0, 1.0) for _ in range(rank)] for _ in range(n)]
    return [[sum(map(mul, ui, vj), 0.0) for ui in u] for vj in v]


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m, n, rank", [
    (4, 6, 4), (4, 12, 4), (8, 12, 8),   # the surface and free-product shapes
    (6, 12, 3),                          # rank deficient: J J^T is singular
    (4, 12, 0),                          # J = 0
])
def test_dual_step_matches_isotropic_primal_step(m, n, rank, lam):
    # J^T (J J^T + mu' I)^-1 (-r) = (J^T J + mu' I)^-1 (-J^T r)
    rng = random.Random(f"dual:{m}:{n}:{rank}:{lam}")
    for _ in range(5):
        jac = low_rank_jacobian(rng, m, n, rank)
        r = [rng.gauss(0.0, 1.0) for _ in range(m)]
        neg_grad = [-sum(map(mul, col, r)) for col in jac]
        pattern = dense_pattern(m, n)
        lower, rhs = _normal_system(jac, r, neg_grad, pattern)
        assert len(lower) == m
        step = _step(jac, lower, rhs, lam, pattern)
        mu = lam * sum(v * v for col in jac for v in col) / n
        jtj = [[sum(map(mul, ci, cj)) for cj in jac[:i + 1]]
               for i, ci in enumerate(jac)]
        ref = _damped_solve(jtj, [mu + 1e-14] * n, neg_grad, [0] * n)
        bound = 1e-10 * max(map(abs, ref))
        assert len(step) == n
        assert all(abs(a - b) <= bound for a, b in zip(step, ref)), (step, ref)
        if rank == 0:
            assert step == [0.0] * n


@pytest.mark.parametrize("m, n", [(12, 9), (16, 12), (28, 12), (4, 4)])
def test_primal_step_damps_the_diagonal(m, n):
    rng = random.Random(f"primal:{m}:{n}")
    jac = low_rank_jacobian(rng, m, n, min(m, n))
    r = [rng.gauss(0.0, 1.0) for _ in range(m)]
    neg_grad = [-sum(map(mul, col, r)) for col in jac]
    pattern = dense_pattern(m, n)
    lower, rhs = _normal_system(jac, r, neg_grad, pattern)
    assert rhs is neg_grad
    assert lower == [[_sum(map(mul, ci, cj)) for cj in jac[:i + 1]]
                     for i, ci in enumerate(jac)]
    shift = [0.5 * row[i] + 1e-14 for i, row in enumerate(lower)]
    assert (_step(jac, lower, rhs, 0.5, pattern)
            == _damped_solve(lower, shift, rhs, [0] * n))


# ---------------------------------------------------------------------------
# the structured LM step against the dense one

# b and c share no relator, so J^T J is 0.0 between them; both share one
# with a, which comes first, so the Cholesky factor fills in there
FILL_GROUP = Presentation(("a", "b", "c"),
                          ((1, 2, -1, -2), (1, 3, -1, -3), (1, 1, 1)))
ORACLE_GROUPS = {**LM_GROUPS, **EDGE_GROUPS, "fill": FILL_GROUP}


def dense_lower_gram(vectors):
    return [[_sum(map(mul, u, v)) for v in vectors[:i + 1]]
            for i, u in enumerate(vectors)]


def dense_damped_solve(lower, shift, b):
    low, y = [], []
    for i, (row, si, bi) in enumerate(zip(lower, shift, b)):
        li = []
        for j in range(i):
            li.append((row[j] - _sum(map(mul, li, low[j]))) / low[j][j])
        d = row[i] + si - _sum(map(mul, li, li))
        if not d > 0:
            raise ZeroDivisionError("damped system is not positive definite")
        li.append(math.sqrt(d))
        low.append(li)
        y.append((bi - _sum(map(mul, li, y))) / li[-1])
    for i in reversed(range(len(y))):
        y[i] /= low[i][i]
        y[:i] = [yk - lik * y[i] for yk, lik in zip(y[:i], low[i])]
    return y


def dense_normal_system(jac, r, neg_grad):
    if len(r) < len(jac):
        return dense_lower_gram(list(zip(*jac))), [-v for v in r]
    return dense_lower_gram(jac), neg_grad


def dense_step(jac, lower, rhs, lam):
    n = len(jac)
    if len(lower) == n:
        return dense_damped_solve(
            lower, [lam * row[-1] + 1e-14 for row in lower], rhs)
    mu = lam * _sum(row[-1] for row in lower) / n
    z = dense_damped_solve(lower, [mu + 1e-14] * len(lower), rhs)
    return [_sum(map(mul, col, z)) for col in jac]


def dense_levmar(p, x0):
    """_levmar with every sum over the whole of J and the Jacobian taken
    at every trial: the oracle that the structured search must equal."""
    x = list(x0)
    r, jacobian = _residual_and_jacobian(p, x)
    jac = jacobian()
    cost = _sum(v * v for v in r)
    lam = 1e-3
    for _ in range(LM_MAX_ITER):
        if cost < LM_COST_TARGET:
            break
        neg_grad = [-_sum(map(mul, col, r)) for col in jac]
        if max(map(abs, neg_grad), default=0.0) < 1e-17:
            break
        lower, rhs = dense_normal_system(jac, r, neg_grad)
        for _ in range(30):
            try:
                delta = dense_step(jac, lower, rhs, lam)
            except ZeroDivisionError:
                lam *= 10.0
                continue
            xn = [xi + di for xi, di in zip(x, delta)]
            try:
                rn, jacobian = _residual_and_jacobian(p, xn)
                jn = jacobian()
                cn = _sum(v * v for v in rn)
            except OverflowError:
                cn = math.inf
            if cn < cost:
                x, r, jac, cost = xn, rn, jn, cn
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 4.0
        else:
            break
    return x, cost


def outcome(f, *args):
    """repr of f(*args), which tells -0.0 from 0.0, or the error raised."""
    try:
        return repr(f(*args))
    except ZeroDivisionError:
        return "ZeroDivisionError"


def normal_systems(p, points):
    """(jac, lower, rhs) of the structured step at each point."""
    pattern = _lm_pattern(p)
    for params in points:
        r, jacobian = _residual_and_jacobian(p, params)
        jac = jacobian()
        neg_grad = [-_sum(map(mul, col, r)) for col in jac]
        lower, rhs = _normal_system(jac, r, neg_grad, pattern)
        assert repr((lower, rhs)) == repr(
            dense_normal_system(jac, r, neg_grad))
        yield jac, lower, rhs


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_structured_step_equals_dense_step(name):
    p = ORACLE_GROUPS[name]
    pattern = _lm_pattern(p)
    rng = random.Random(f"oracle:{name}")
    points = jacobian_points(len(p.generators), rng)
    for jac, lower, rhs in normal_systems(p, points):
        for lam in (1e-3, 1.0, 1e3):
            shift = [lam * row[-1] + 1e-14 for row in lower]
            assert (outcome(_damped_solve, lower, shift, rhs, pattern[2])
                    == outcome(dense_damped_solve, lower, shift, rhs))
            assert (outcome(_step, jac, lower, rhs, lam, pattern)
                    == outcome(dense_step, jac, lower, rhs, lam))


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_structured_levmar_equals_dense_levmar(name):
    p = ORACLE_GROUPS[name]
    pattern = _lm_pattern(p)
    rng = random.Random(f"levmar:{name}")
    for x0 in jacobian_points(len(p.generators), rng):
        assert repr(_levmar(p, x0, pattern)) == repr(dense_levmar(p, x0))


@pytest.mark.parametrize("name", sorted({**LM_GROUPS, "fill": FILL_GROUP}))
def test_envelope_one_entry_short_changes_the_step(name):
    # mutants of the pattern: each row whose envelope begins left of the
    # diagonal, begun one entry later, drops an entry of the factor
    p = ORACLE_GROUPS[name]
    starts = _lm_pattern(p)[2]
    rng = random.Random(f"mutant:{name}")
    points = [_random_params(rng, len(p.generators)) for _ in range(2)]
    systems = [(lower, [1e-3 * row[-1] + 1e-14 for row in lower], rhs)
               for _, lower, rhs in normal_systems(p, points)]
    for i, lo in enumerate(starts):
        if lo == i:
            continue
        short = starts[:i] + [lo + 1] + starts[i + 1:]
        assert any(outcome(_damped_solve, *system, short)
                   != outcome(_damped_solve, *system, starts)
                   for system in systems), (name, i)


def test_pattern_skips_what_the_relators_leave_zero():
    def products(p):
        _, gram, _ = _lm_pattern(p)
        return sum(len(idx) for i, row in enumerate(gram)
                   for idx in row[:i + 1])
    assert products(LM_GROUPS["surface1xS1"]) == 252       # of 45 x 12
    assert products(LM_GROUPS["trefoil"]) == 540           # dense
    assert products(LM_GROUPS["surface1*surface1"]) == 120  # of 36 x 12
    # J J^T of a free product is block diagonal, and so is its factor
    assert _lm_pattern(LM_GROUPS["surface1*surface1"])[2] == [0] * 4 + [4] * 4
    # the free generator's columns are zero, and the envelopes of the
    # rows after it begin after it
    rows, _, starts = _lm_pattern(EDGE_GROUPS["unused_generator"])
    assert rows[:3] == [()] * 3 and starts[3:] == [3] * 9
    rows, _, starts = _lm_pattern(EDGE_GROUPS["empty_relator"])
    assert all(min(r) == 4 for r in rows) and starts == [0] * 4 + [4] * 4
    # J^T J of FILL_GROUP is 0.0 between c and b, but the envelope of c
    # begins at a, so it holds the fill of the factor there
    _, gram, starts = _lm_pattern(FILL_GROUP)
    assert gram[6][3:6] == [()] * 3 and starts[6:] == [0] * 3


# ---------------------------------------------------------------------------
# classification predicates


def test_is_irreducible_rotations_share_fixed_points():
    rep = RepAssignment({"g1": PSL2(rotation(0.4)),
                         "g2": PSL2(rotation(1.2))})
    assert not is_irreducible(rep)
    assert is_abelian(rep)


def test_is_irreducible_diagonals_share_axis():
    rep = RepAssignment({"g1": PSL2((2.0, 0.0, 0.0, 0.5)),
                         "g2": PSL2((3.0, 0.0, 0.0, 1 / 3.0))})
    assert not is_irreducible(rep)
    assert is_abelian(rep)


def test_is_irreducible_fuchsian():
    rep = RepAssignment(fuchsian_genus2())
    assert is_irreducible(rep)
    assert not is_abelian(rep)
    assert not is_metabelian(rep)


def test_metabelian_dihedral_like_example():
    c, s = math.cosh(1.0), math.sinh(1.0)
    rep = RepAssignment({"g1": PSL2((c, s, s, c)),
                         "g2": PSL2((0.0, -1.0, 1.0, 0.0))})
    assert is_metabelian(rep)
    assert not is_abelian(rep)


def test_abelian_implies_metabelian():
    rep = RepAssignment({"g1": PSL2(rotation(0.4)),
                         "g2": PSL2(rotation(1.2))})
    assert is_metabelian(rep)


def test_free_group_is_not_metabelian():
    # at random x, y the commutator c = [x, y] does not commute with its
    # conjugate x c x^-1, both of which lie in [G, G]
    [rep] = solve(Presentation(("x", "y"), ()), seed=0)
    x, y = rep["x"].tuple(), rep["y"].tuple()
    c = commutator(x, y)
    conjugate = mat_mul(mat_mul(x, c), mat_inv(x))
    assert psl_dist_sq(commutator(c, conjugate), IDENTITY) > 1.0
    assert not is_metabelian(rep)
    assert not is_abelian(rep)


def test_nan_commutator_is_not_the_identity():
    a = PSL2((1e200, 0.0, 0.0, 1e-200))
    b = PSL2((1e200, 1.0, 0.0, 1e-200))
    assert any(math.isnan(x) for x in commutator(a.tuple(), b.tuple()))
    rep = RepAssignment({"a": a, "b": b})
    assert not is_abelian(rep)
    # both fix the line of (1, 0); large entries must not overflow
    assert not is_irreducible(rep)


# ---------------------------------------------------------------------------
# Brieskorn spheres


def test_brieskorn_presentation_shape():
    data = BrieskornData(2, 3, 5)
    pres = brieskorn_presentation(data)
    assert len(pres.generators) == 4
    assert len(pres.relators) == 7
    assert pres.abelianization() == AbelianGroup(rank=0)
    ident = data.p * data.q * data.r * data.b0
    for (pi, bi), others in zip(data.cone, ((3 * 5), (2 * 5), (2 * 3))):
        ident += bi * others
    assert ident == 1


def test_brieskorn_presentation_2_3_7():
    pres = brieskorn_presentation(BrieskornData(2, 3, 7))
    assert pres.abelianization() == AbelianGroup(rank=0)


def test_brieskorn_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        BrieskornData(2, 3, 4)
    with pytest.raises(NotCoprime):
        BrieskornData(2, 3, 1)


def test_brieskorn_poincare_sphere_census_is_trivial_only():
    census = brieskorn_enumerate(BrieskornData(2, 3, 5), tol=1e-10)
    assert len(census) == 1
    assert census[0].angles == (0, 0, 0)
    assert not census[0].irreducible


def test_brieskorn_2_3_7_census():
    census = brieskorn_enumerate(BrieskornData(2, 3, 7), tol=1e-10)
    assert len(census) >= 2
    nontrivial = [c for c in census if c.angles != (0, 0, 0)]
    assert nontrivial
    for cls in nontrivial:
        assert cls.irreducible
        assert cls.residual < 1e-10
    pres = brieskorn_presentation(BrieskornData(2, 3, 7))
    for cls in census:
        assert residual(pres, cls.assignment) < 1e-9


@pytest.mark.parametrize("exponents, angles", [
    ((2, 3, 5), {(0, 0, 0)}),
    ((2, 3, 7), {(0, 0, 0), (1, 1, 1)}),
    ((2, 3, 11), {(0, 0, 0), (1, 1, 1)}),
    ((2, 5, 7), {(0, 0, 0), (1, 1, 1), (1, 1, 2)}),
    ((3, 4, 5), {(0, 0, 0), (1, 1, 1), (1, 1, 2)}),
    ((2, 3, 13), {(0, 0, 0), (1, 1, 1), (1, 1, 2)}),
    ((3, 5, 7), {(0, 0, 0), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1)}),
])
def test_brieskorn_census_angle_sets(exponents, angles):
    census = brieskorn_enumerate(BrieskornData(*exponents))
    assert len(census) == len(angles)
    assert {cls.angles for cls in census} == angles


PINNED_COUNTS = [((3, 4, 13), 9), ((5, 7, 11), 31), ((7, 9, 11), 65)]
COPRIME_TRIPLES = [
    t for t in itertools.combinations((2, 3, 4, 5, 7, 9, 11, 13), 3)
    if all(math.gcd(a, b) == 1 for a, b in itertools.combinations(t, 2))]


@pytest.mark.parametrize("exponents, count", PINNED_COUNTS + [
    (t, jankins_neumann_count(t)) for t in COPRIME_TRIPLES
    if t not in dict(PINNED_COUNTS)])
def test_brieskorn_census_matches_jankins_neumann_count(exponents, count):
    assert jankins_neumann_count(exponents) == count
    census = brieskorn_enumerate(BrieskornData(*exponents))
    assert len(census) == count
    assert len({cls.angles for cls in census}) == count


def test_census_relator_shifts_match_jankins_neumann():
    # with h the identity and x_i of rotation number l_i / p_i, the lift
    # of x_i^p_i h^b_i is l_i deck translations, and that of x1 x2 x3 is 1
    # when sum l_i / p_i < 1 and 2 when it is > 2 (Jankins-Neumann)
    for exponents in COPRIME_TRIPLES:
        pres = brieskorn_presentation(BrieskornData(*exponents))
        whole = math.prod(exponents)
        for cls in brieskorn_enumerate(BrieskornData(*exponents)):
            mats = [cls.assignment[g] for g in pres.generators]
            shifts = [relator_shift(w, mats) for w in pres.relators]
            if cls.angles == (0, 0, 0):
                assert shifts == [0] * 7
                continue
            total = sum(l * whole // p for l, p in zip(cls.angles, exponents))
            assert shifts == [0, 0, 0, *cls.angles,
                              1 if total < whole else 2], (exponents, cls)
            assert total < whole or total > 2 * whole


def test_census_class_records_the_residual_of_its_matrices():
    # the census computes each residual once, from the matrices that the
    # class then holds; a dict of them gives the same float
    for exponents in COPRIME_TRIPLES:
        data = BrieskornData(*exponents)
        pres = brieskorn_presentation(data)
        for cls in brieskorn_enumerate(data):
            assert (repr(cls.residual)
                    == repr(residual(pres, cls.assignment))
                    == repr(residual(pres, cls.assignment.matrices))), (
                exponents, cls.angles)


@pytest.mark.parametrize("name, restarts", [
    ("trefoil", 12), ("figure_eight", 6), ("surface1xS1", 12),
    ("surface1*surface1", 12)])
def test_relator_shifts_are_integral_on_solve_classes(name, restarts):
    p = LM_GROUPS[name]
    sols = solve(p, restarts=restarts, seed=2)
    assert sols
    for rep in sols:
        mats = [rep[g] for g in p.generators]
        for w in p.relators:
            assert type(relator_shift(w, mats)) is int


def test_brieskorn_census_keeps_classes_with_equal_traces():
    census = {cls.angles: cls
              for cls in brieskorn_enumerate(BrieskornData(5, 7, 11))}
    # x3 has rotation number 4/11 in one and 7/11 in the other; their
    # sorted |trace| vectors agree to 1e-6, but the ordered trace
    # coordinates differ
    one, other = census[(1, 1, 4)], census[(1, 1, 7)]
    assert math.dist(one.traces, other.traces) > 1e-3


# ---------------------------------------------------------------------------
# connected sums and product presentations


def test_connected_sum_identity_parameter():
    p = surface_presentation(2)
    rep = RepAssignment(fuchsian_genus2(), residual=0.0)
    fam = connected_sum_family(p, rep, p, rep, PSL2.identity())
    for g in p.generators:
        assert fam.matrices[f"{g}_2"].tuple() == rep.matrices[g].tuple()
    assert fam.residual == 0.0


def test_connected_sum_distinct_parameters_distinct_traces():
    p = surface_presentation(2)
    rep = RepAssignment(fuchsian_genus2(), residual=0.0)
    fp = free_product(p, p)
    a = PSL2((2.0, 0.0, 0.0, 0.5))
    b = PSL2((3.0, 0.0, 0.0, 1 / 3.0))
    fam_a = connected_sum_family(p, rep, p, rep, a)
    fam_b = connected_sum_family(p, rep, p, rep, b)
    ka = trace_coordinates(fp, fam_a)
    kb = trace_coordinates(fp, fam_b)
    assert math.dist(ka, kb) > 1e-3
    assert residual(fp, fam_a) < 1e-18
    assert residual(fp, fam_b) < 1e-18


def test_connected_sum_is_the_conjugated_second_factor():
    rng = random.Random("connected-sum")
    p1, p2 = surface_presentation(1), surface_presentation(2)
    rep1 = RepAssignment({g: random_psl2(rng) for g in p1.generators})
    rep2 = RepAssignment(fuchsian_genus2(), residual=0.0)
    a = random_psl2(rng)
    fam = connected_sum_family(p1, rep1, p2, rep2, a)
    names = free_product(p1, p2).generators
    assert tuple(fam.matrices) == names
    conj = rep2.conjugated(a)
    expected = ([rep1[g] for g in p1.generators]
                + [conj[g] for g in p2.generators])
    assert [repr(fam[name]) for name in names] == list(map(repr, expected))
    assert fam.residual is None


def test_connected_sum_missing_generator():
    p = surface_presentation(1)
    full = RepAssignment({"a1": PSL2.identity(), "b1": PSL2.identity()})
    partial = RepAssignment({"a1": PSL2.identity()})
    for reps in ((partial, full), (full, partial)):
        with pytest.raises(UnassignedGenerator):
            connected_sum_family(p, reps[0], p, reps[1], PSL2.identity())


def test_connected_sum_residual_additive():
    p = surface_presentation(2)
    rep = RepAssignment(fuchsian_genus2(), residual=0.0)
    fp = free_product(p, p)
    fam = connected_sum_family(p, rep, p, rep, PSL2((5.0, 0.0, 0.0, 0.2)))
    full = residual(fp, fam)
    assert abs(full - residual(p, rep) * 2) < 1e-15


def test_surface_presentation_counts():
    p1 = surface_times_circle_presentation(1)
    assert len(p1.generators) == 3
    assert len(p1.relators) == 3
    assert p1.abelianization() == AbelianGroup(rank=3)
    p2 = surface_times_circle_presentation(2)
    assert len(p2.generators) == 5
    assert len(p2.relators) == 5


def test_surface_times_circle_irreducibles_kill_center():
    pres = surface_times_circle_presentation(2)
    sols = solve(pres, restarts=25, tol=1e-10, seed=2)
    checked = 0
    for rep in sols:
        if is_irreducible(rep):
            checked += 1
            assert rep.matrices["z"].is_identity(tol=1e-6)
    assert checked >= 3


def test_surface_solutions_respect_milnor_wood():
    pres = surface_presentation(2)
    sols = solve(pres, restarts=25, tol=1e-10, seed=5)
    assert sols
    for rep in sols:
        assert abs(euler_number(rep.matrices, 2, tol=1e-6)) <= 2


def test_is_irreducible_conjugation_invariant():
    rng = random.Random(29)
    sols = solve(TREFOIL_GROUP, restarts=10, tol=1e-10, seed=6)
    reps = [r for r in sols][:4]
    reps.append(RepAssignment({g: PSL2(rotation(0.5))
                               for g in TREFOIL_GROUP.generators}))
    for rep in reps:
        flag = is_irreducible(rep)
        for _ in range(3):
            assert is_irreducible(rep.conjugated(random_psl2(rng))) == flag


def test_brieskorn_rotation_numbers_verified():
    census = brieskorn_enumerate(BrieskornData(2, 3, 7), tol=1e-10)
    for cls in census:
        if cls.angles == (0, 0, 0):
            continue
        for i, (l, p) in enumerate(zip(cls.angles, (2, 3, 7)), start=1):
            tau = translation_number(
                CircleLift(cls.assignment.matrices[f"x{i}"]))
            err = min(abs(tau - l / p), abs(tau - l / p + 1),
                      abs(tau - l / p - 1))
            assert err < 1e-9, (cls.angles, i, tau)


def windowed_rotation_check(rep, angles, exponents, iterations=400):
    """The census rotation-number check as it was made by iterating each
    lift, with an error bound of 2 / iterations."""
    for i, (l, p) in enumerate(zip(angles, exponents), start=1):
        tau = windowed_translation_number(
            CircleLift(rep.matrices[f"x{i}"]), iterations)
        target = (l / p) % 1.0
        err = min(abs(tau - target), abs(tau - target + 1),
                  abs(tau - target - 1))
        if err > 2.0 / iterations + 1e-6:
            return False
    return True


def test_rotation_certificate_agrees_with_windowed_oracle():
    eye = PSL2.identity()
    decisions = set()
    for exponents in ((2, 3, 7), (2, 5, 7), (3, 4, 5), (3, 5, 7), (2, 3, 13),
                      (5, 7, 11)):
        p1, p2, p3 = exponents
        for angles in itertools.product(range(1, p1), range(1, p2),
                                        range(1, p3)):
            for mats in _rotation_solve(angles, exponents):
                matrices = {f"x{i + 1}": PSL2(m)
                            for i, m in enumerate(mats)}
                matrices["h"] = eye
                rep = RepAssignment(matrices)
                exact = _rotation_numbers_verify(
                    [matrices[g] for g in ("x1", "x2", "x3")], angles,
                    exponents)
                assert exact == windowed_rotation_check(rep, angles,
                                                        exponents), angles
                decisions.add(exact)
    assert decisions == {True, False}


def test_brieskorn_multi_class_census_2_5_7():
    census = brieskorn_enumerate(BrieskornData(2, 5, 7), tol=1e-10)
    nontrivial = [c for c in census if c.angles != (0, 0, 0)]
    assert len(nontrivial) >= 2
    assert all(c.irreducible for c in nontrivial)
    assert len({c.angles for c in census}) == len(census)
