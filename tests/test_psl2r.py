import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from blowupgate.psl2r import (CircleLift, GenusZero, IDENTITY, PSL2,
                              ResidualTooLarge, RoundingAmbiguous, SL2,
                              act_rp1, classify, euler_number, fuchsian_genus2,
                              mat_inv, mat_mul, milnor_wood_admissible,
                              psl_dist_sq, psl_sign, relator_shift, rotation,
                              surface_generator_names, surface_relator,
                              sym_exp, translation_number, word_image)
from blowupgate.repvar import solve, surface_presentation

from circle_helpers import random_psl2, windowed_translation_number

B = PSL2((0.0, -1.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# classification and the circle action


def test_classify_examples():
    assert classify(PSL2(rotation(0.3))) == "elliptic"
    assert classify(PSL2((math.e ** 0.5, 0, 0, math.e ** -0.5))) == "hyperbolic"
    assert classify(PSL2((1.0, 1.0, 0.0, 1.0))) == "parabolic"
    assert classify(PSL2.identity()) == "identity"


# rescaling this matrix twice moves its last digits, so a sign flip that
# rescaled again made PSL2 of m and of -m differ
M_RESCALED = (29.5503048780488, -81.6711128048781, 9.654878048780494,
              -26.650304878048797)


def test_sl2_normalizes_determinant():
    a, b, c, d = SL2(2.0, 0.0, 0.0, 2.0)
    assert abs(a * d - b * c - 1.0) < 1e-12
    with pytest.raises(ValueError):
        SL2(1.0, 0.0, 0.0, -1.0)
    g = PSL2(M_RESCALED)
    assert g.tuple()[0] > 0
    assert g == PSL2(tuple(-x for x in M_RESCALED))
    assert g.inv().inv() == g


@pytest.mark.parametrize("entries", [
    (math.nan, 0.0, 0.0, 1.0),
    (math.inf, 0.0, 0.0, 1.0),
    (1.0, -math.inf, 0.0, 1.0),
    (1e200, 0.0, 0.0, 1e200),       # finite entries, det overflows
])
def test_sl2_rejects_non_finite(entries):
    with pytest.raises(ValueError):
        SL2(*entries)


def test_act_rp1_examples():
    for theta in (0.0, 0.7, 1.5, 3.0):
        assert abs(act_rp1(PSL2.identity(), theta) - theta % math.pi) < 1e-12
    assert abs(act_rp1(B, 0.0) - math.pi / 2) < 1e-12
    diag = PSL2((2.0, 0.0, 0.0, 0.5))
    assert act_rp1(diag, 0.0) < 1e-12
    assert abs(act_rp1(diag, math.pi / 2) - math.pi / 2) < 1e-12


def nearer_sign_oracle(x, y):
    """Sign and squared distance of the nearer of +-y to x, computed from
    both distances, and the gap |x - y|^2 - |x + y|^2.  Squares are
    products, which round correctly; ** 2 can be off by one unit in the
    last place.  They are added left to right, as the package adds them
    (the builtin sum compensates from CPython 3.12 on)."""
    plus = reduce(add, ((a - b) * (a - b) for a, b in zip(x, y)), 0.0)
    minus = reduce(add, ((a + b) * (a + b) for a, b in zip(x, y)), 0.0)
    return (1.0 if plus <= minus else -1.0), min(plus, minus), plus - minus


def test_psl_sign_matches_nearer_of_plus_minus():
    rng = random.Random(23)
    pairs = [((math.nan, 0.0, 0.0, 1.0), IDENTITY)]
    for _ in range(3000):
        x = tuple(rng.gauss(0.0, rng.choice((0.1, 1.0, 10.0)))
                  for _ in range(4))
        y = IDENTITY if rng.random() < 0.5 else \
            tuple(rng.gauss(0.0, 1.0) for _ in range(4))
        pairs.append((x, y))
    for x, y in pairs:
        sign, dist, gap = nearer_sign_oracle(x, y)
        d = psl_dist_sq(x, y)
        if math.isnan(gap) or abs(gap) > 1e-9 * (1.0 + dist):
            assert psl_sign(x, y) == sign
            assert d == dist or (math.isnan(d) and math.isnan(dist))
        else:
            # near a tie both signs are equally far, up to rounding
            assert d == pytest.approx(dist, rel=1e-9)
    assert psl_sign((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)) == 1.0


def test_act_rp1_is_circle_homeomorphism():
    rng = random.Random(4)
    for _ in range(40):
        g = random_psl2(rng)
        thetas = [i * math.pi / 200 for i in range(200)]
        images = [act_rp1(g, th) for th in thetas]
        lifted = [images[0]]
        for y in images[1:]:
            while y < lifted[-1] - 1e-9:
                y += math.pi
            lifted.append(y)
        assert lifted[-1] - lifted[0] < math.pi + 1e-6
        assert all(b >= a - 1e-9 for a, b in zip(lifted, lifted[1:]))
        assert abs(act_rp1(g, 0.0) - act_rp1(g, math.pi)) < 1e-9


# ---------------------------------------------------------------------------
# lifts and translation numbers


def test_lift_deck_equivariance_and_inverse():
    rng = random.Random(12)
    for _ in range(60):
        g = random_psl2(rng)
        lift = CircleLift(g, offset=rng.randint(-2, 2))
        x = rng.uniform(-8, 8)
        assert abs(lift.apply(x + math.pi) - lift.apply(x) - math.pi) < 1e-8
        inv = lift.inverse()
        assert isinstance(inv, CircleLift) and inv.g == g.inv()
        assert abs(inv.apply(lift.apply(x)) - x) < 1e-8
        assert abs(lift.apply(inv.apply(x)) - x) < 1e-8
        assert abs(inv.inverse().apply(x) - lift.apply(x)) < 1e-8


def test_lift_reduces_a_point_just_below_a_period_into_the_next():
    # -1e-17 / pi floors to -1 and -1e-17 + pi rounds to pi, so the point
    # must be moved to 0 of the next period: left at pi, it would give
    # f0 + pi - pi, which can differ from f0 in the last bit
    rng = random.Random(31)
    for _ in range(40):
        lift = CircleLift(random_psl2(rng), offset=rng.randint(-2, 2))
        assert lift.apply(-1e-17) == lift.apply(0.0)


def test_translation_number_identity_offset():
    for m in (-2, 0, 2, 3):
        lift = CircleLift(PSL2.identity(), offset=m)
        assert translation_number(lift) == m


def test_translation_number_quarter_rotation():
    assert translation_number(CircleLift(B)) == 0.5


def test_translation_number_hyperbolic_zero():
    hyp = PSL2((2.0, 0.0, 0.0, 0.5))
    assert translation_number(CircleLift(hyp)) == 0.0


def test_translation_number_rotation_matches_angle():
    for t in (1e-9, 0.2, 0.9, 2.4, math.pi - 1e-9):
        lift = CircleLift(PSL2(rotation(t)))
        assert abs(translation_number(lift) - t / math.pi) < 1e-12


def conjugate(h, g):
    return h @ g @ h.inv()


def test_translation_number_conjugacy_invariant():
    rng = random.Random(3)
    for _ in range(200):
        g = random_psl2(rng)
        h = random_psl2(rng)
        tau_g = translation_number(CircleLift(g))
        tau_c = translation_number(CircleLift(conjugate(h, g)))
        delta = min(abs(tau_g - tau_c), abs(abs(tau_g - tau_c) - 1.0))
        assert delta < 1e-9


def oracle_elements():
    """Seeded elliptic, hyperbolic and parabolic elements with a class
    tag."""
    rng = random.Random(17)
    out = []
    for _ in range(30):
        h = random_psl2(rng)
        rot = PSL2(rotation(rng.uniform(0.01, math.pi - 0.01)))
        lam = math.exp(rng.uniform(0.05, 2.0))
        par = PSL2((1.0, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0),
                    0.0, 1.0))
        out.append(("elliptic", conjugate(h, rot)))
        out.append(("hyperbolic", conjugate(h, PSL2((lam, 0.0, 0.0,
                                                     1.0 / lam)))))
        out.append(("parabolic", conjugate(h, par)))
    return out


def tie_elements():
    """The identity, the two unit parabolics, and hyperbolic and parabolic
    elements with a fixed line within 1e-9 of pi (or of 0, the same line).
    Their lifts send 0 next to a multiple of pi."""
    out = [PSL2.identity(), PSL2((1.0, 1.0, 0.0, 1.0)),
           PSL2((1.0, 0.0, -1.0, 1.0))]
    bases = [PSL2((2.0, 0.0, 0.0, 0.5)), PSL2((0.5, 0.0, 0.0, 2.0)),
             PSL2((1.0 + 1e-4, 0.0, 0.0, 1.0 / (1.0 + 1e-4))),
             PSL2((1.0, 1.0, 0.0, 1.0)), PSL2((1.0, -1.0, 0.0, 1.0)),
             PSL2((1.0, 1e-6, 0.0, 1.0))]
    for delta in (0.0, 1e-12, 1e-10, 3e-10, 1e-9, -1e-12, -1e-10, -1e-9):
        r = PSL2(rotation(math.pi - delta))
        out.extend(conjugate(r, g) for g in bases)
    return out


def assert_integral_off_elliptic(kind, offset, tau):
    """Elliptic lifts translate by offset plus a fraction in (0, 1);
    hyperbolic lifts by an integer.  A parabolic float matrix may be
    elliptic by rounding, and near D = 0 the number moves like sqrt(-D),
    so it is integral only to about sqrt(eps) |g|."""
    if kind == "elliptic":
        assert offset < tau < offset + 1
    elif kind == "hyperbolic":
        assert tau == round(tau)
    else:
        assert abs(tau - round(tau)) < 1e-6


def test_translation_number_matches_windowed_oracle():
    seen = set()
    for kind, g in oracle_elements():
        assert classify(g) == kind
        seen.add(kind)
        for offset in range(-2, 3):
            lift = CircleLift(g, offset)
            tau = translation_number(lift)
            assert abs(tau - windowed_translation_number(lift, 400)) < 2 / 400
            assert_integral_off_elliptic(kind, offset, tau)
        if kind == "elliptic":
            lift = CircleLift(g)
            assert abs(translation_number(lift)
                       - windowed_translation_number(lift, 4000)) < 2 / 4000
    assert seen == {"elliptic", "hyperbolic", "parabolic"}


def test_translation_number_tie_cases_match_windowed_oracle():
    for g in tie_elements():
        kind = classify(g)
        assert kind != "elliptic"
        for offset in range(-2, 3):
            lift = CircleLift(g, offset)
            tau = translation_number(lift)
            assert_integral_off_elliptic(kind, offset, tau)
            assert abs(tau - windowed_translation_number(lift, 400)) \
                < 2 / 400, (g.tuple(), offset)


def large_elements():
    """Seeded hyperbolic, parabolic and elliptic elements with entries up
    to about 1e8: conjugates of diag(L, 1/L), of [[1, b], [0, 1]] and of
    rotations, by elements that stretch by up to e^4."""
    rng = random.Random(53)
    out = []
    for _ in range(60):
        h = PSL2(mat_mul(rotation(rng.uniform(0, math.pi)),
                         sym_exp(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        scale = 10 ** rng.uniform(0, 6.5)
        sign = rng.choice((-1.0, 1.0))
        out.append(conjugate(h, PSL2((scale, 0.0, 0.0, 1.0 / scale))))
        out.append(conjugate(h, PSL2((1.0, sign * scale, 0.0, 1.0))))
        out.append(conjugate(h, PSL2(rotation(rng.uniform(0.01, 3.13)))))
    return out


def exact_turn(g, x0):
    """The angle from g e1 to g u, u = (cos x0, sin x0), in [0, pi]: its
    cross and dot products over Fraction on the float entries, divided by
    |g e1|^2 and rounded once each."""
    a, b, c, d = map(Fraction, g.tuple())
    cu, su = Fraction(math.cos(x0)), Fraction(math.sin(x0))
    cross = (a * d - b * c) * su
    dot = a * (a * cu + b * su) + c * (c * cu + d * su)
    norm = a * a + c * c
    return math.atan2(float(cross / norm), float(dot / norm))


def test_lift_turns_as_the_exact_oracle_on_large_elements():
    rng = random.Random(54)
    elements = large_elements()
    assert max(max(map(abs, g.tuple())) for g in elements) > 1e7
    assert {classify(g) for g in elements} >= {"elliptic", "hyperbolic"}
    for g in elements:
        lift = CircleLift(g)
        for x0 in [rng.uniform(0, math.pi) for _ in range(20)]:
            turn = lift.apply(x0) - lift.apply(0.0)
            assert abs(turn - exact_turn(g, x0)) < 1e-9, (g.tuple(), x0)


def test_lift_near_the_float_limit_turns_as_the_exact_oracle():
    # a^2 and ab overflow here; g u crosses the vertical at x0 = 3 pi / 4
    for g in (PSL2((2e154, 2e154, 0.0, 5e-155)),
              PSL2((1e154, 0.0, 1e154, 1e-154))):
        lift = CircleLift(g)
        for x0 in (0.5, 2.0, 2.3, 2.4, 3.0):
            turn = lift.apply(x0) - lift.apply(0.0)
            assert abs(turn - exact_turn(g, x0)) < 1e-9, (g.tuple(), x0)


def test_lift_of_a_large_element_increases_and_commutes_with_pi():
    xs = [i * math.pi / 64 - 2 * math.pi for i in range(257)]
    for g in large_elements():
        lift = CircleLift(g, offset=1)
        ys = [lift.apply(x) for x in xs]
        # increasing up to rounding, where the lift is flat
        assert all(b > a - 1e-12 for a, b in zip(ys, ys[1:])), g.tuple()
        assert all(abs(lift.apply(x + math.pi) - y - math.pi) < 1e-9
                   for x, y in zip(xs, ys)), g.tuple()


def test_b_squared_is_identity_but_lift_translates():
    assert (B @ B).is_identity()
    lift = CircleLift(B)
    assert abs(lift.apply(lift.apply(0.0)) - math.pi) < 1e-12


def test_translation_number_single_iteration():
    lift = CircleLift(PSL2.identity(), offset=2)
    assert lift.apply(0.0) == 2 * math.pi
    # int() used to truncate 1.7 to an offset of 1
    for offset in (1.7, True, "2"):
        with pytest.raises(ValueError, match="not an integer"):
            CircleLift(PSL2.identity(), offset)
    assert translation_number(lift) == 2.0
    with pytest.raises(TypeError):
        translation_number(lift, 0)


# ---------------------------------------------------------------------------
# Euler numbers


def test_euler_trivial_representation():
    eye = PSL2.identity()
    rep = {"a1": eye, "b1": eye, "a2": eye, "b2": eye}
    assert euler_number(rep, 2) == 0


def test_euler_abelian_rotations():
    rng = random.Random(8)
    for _ in range(10):
        rep = {}
        for name in ("a1", "b1", "a2", "b2"):
            rep[name] = PSL2(rotation(rng.uniform(0, math.pi)))
        assert euler_number(rep, 2) == 0


def test_euler_fuchsian_saturates_bound():
    rep = fuchsian_genus2()
    rel = IDENTITY
    for i in (1, 2):
        ai = rep[f"a{i}"].tuple()
        bi = rep[f"b{i}"].tuple()
        rel = mat_mul(rel, mat_mul(mat_mul(ai, bi),
                                   mat_mul(mat_inv(ai), mat_inv(bi))))
    assert psl_dist_sq(rel, IDENTITY) < 1e-18
    # discreteness heuristic for the one-holed torus half
    a1 = rep["a1"].tuple()
    b1 = rep["b1"].tuple()
    k = mat_mul(mat_mul(a1, b1), mat_mul(mat_inv(a1), mat_inv(b1)))
    assert k[0] + k[3] < -2.0
    assert abs(euler_number(rep, 2)) == 2


def test_euler_conjugation_invariant():
    rng = random.Random(21)
    rep = fuchsian_genus2()
    e0 = euler_number(rep, 2)
    for _ in range(5):
        h = random_psl2(rng)
        hi = h.inv()
        conj = {k: h @ m @ hi for k, m in rep.items()}
        # conjugation amplifies float error in the relator image
        assert euler_number(conj, 2, tol=1e-6) == e0


def loop_euler_number(matrices, genus):
    """The Euler number by the loop euler_number ran before relator_shift:
    for i = g, ..., 1 the lifts of b_i^-1, a_i^-1, b_i, a_i applied to 0,
    rounded with the same 0.1 guard."""
    x = 0.0
    for i in range(genus, 0, -1):
        a, b = CircleLift(matrices[f"a{i}"]), CircleLift(matrices[f"b{i}"])
        for lift in (b.inverse(), a.inverse(), b, a):
            x = lift.apply(x)
    e = x / math.pi
    assert abs(e - round(e)) < 0.1
    return round(e)


def _golden_euler_records():
    path = Path(__file__).with_name("data") / "cli_numeric_golden.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        if case["argv"][0] == "euler" and case["exit"] == 0:
            yield case


def test_euler_unchanged_on_corpus_conjugates():
    records = list(_golden_euler_records())
    assert len(records) == 5
    for case in records:
        mats = {name: PSL2.from_matrix(rows)
                for name, rows in case["input"]["matrices"].items()}
        e = euler_number(mats, 2)
        assert e == loop_euler_number(mats, 2) == case["output"]["euler"]


@pytest.mark.parametrize("genus, restarts", [(2, 60), (3, 24)])
def test_euler_unchanged_on_solve_classes(genus, restarts):
    sols = solve(surface_presentation(genus), restarts=restarts, tol=1e-8,
                 seed=4)
    assert len(sols) > restarts // 2
    values = [euler_number(rep.matrices, genus) for rep in sols]
    assert values == [loop_euler_number(rep.matrices, genus) for rep in sols]
    assert max(map(abs, values)) <= 2 * genus - 2
    assert any(values)


def test_surface_relator_is_the_commutator_product():
    for genus in (1, 2, 5):
        names = list(surface_generator_names(genus))
        assert names == [f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
        word = []
        for i in range(1, genus + 1):
            a, b = names.index(f"a{i}") + 1, names.index(f"b{i}") + 1
            word += [a, b, -a, -b]
        assert surface_relator(genus) == tuple(word)
        assert surface_presentation(genus).relators == (tuple(word),)


def test_word_image_multiplies_left_to_right():
    rng = random.Random(30)
    x, y = random_psl2(rng).tuple(), random_psl2(rng).tuple()
    assert word_image((), [x, y]) == IDENTITY
    assert word_image((1, -2, 2), [x, y]) == mat_mul(
        mat_mul(x, mat_inv(y)), y)


def test_relator_shift_of_a_word_and_its_inverse_letter():
    # g g^-1 lifts to the identity for every g; lifting g^-1 by its own
    # canonical lift instead of the inverse lift moves the shift by one
    # for a rotation by t in (0, pi)
    rng = random.Random(31)
    for g in [PSL2(rotation(t)) for t in (0.3, 1.5, 2.9)] + \
            [random_psl2(rng) for _ in range(20)]:
        assert relator_shift((1, -1), [g]) == 0
        assert relator_shift((-1, 1), [g]) == 0
    # the rotation by pi / 3 (a line turns by pi / 3) to the third power
    # is one deck translation
    assert relator_shift((1, 1, 1), [PSL2(rotation(math.pi / 3))]) == 1
    assert relator_shift((-1, -1, -1), [PSL2(rotation(math.pi / 3))]) == -1


def test_relator_shift_refuses_a_non_integral_translation():
    with pytest.raises(RoundingAmbiguous):
        relator_shift((1,), [PSL2(rotation(math.pi / 2))])


def test_euler_residual_guard():
    rng = random.Random(2)
    rep = {name: random_psl2(rng) for name in ("a1", "b1", "a2", "b2")}
    with pytest.raises(ResidualTooLarge):
        euler_number(rep, 2, tol=1e-12)


# ---------------------------------------------------------------------------
# Milnor-Wood enumeration


def test_milnor_wood_examples():
    assert milnor_wood_admissible([2]) == [(n,) for n in range(-2, 3)]
    assert milnor_wood_admissible([1]) == [(0,)]
    assert len(milnor_wood_admissible([2, 3])) == 45


def test_milnor_wood_genus_zero():
    with pytest.raises(GenusZero):
        milnor_wood_admissible([0])
    with pytest.raises(GenusZero):
        milnor_wood_admissible([2, 0])
    # int() used to truncate 2.9 to genus 2
    for genera in ([2.9], [True], ["2"], "2"):
        with pytest.raises(ValueError, match="not an integer|string"):
            milnor_wood_admissible(genera)
