import math
import random

import pytest

from blowupgate.psl2r import (CircleLift, GenusZero, IDENTITY, PSL2,
                              ResidualTooLarge, SL2, act_rp1, classify,
                              euler_number, fuchsian_genus2, mat_inv, mat_mul,
                              milnor_wood_admissible, psl_dist_sq, psl_sign,
                              rotation, sym_exp, translation_number)

B = PSL2(SL2(0.0, -1.0, 1.0, 0.0))


def random_psl2(rng):
    m = mat_mul(rotation(rng.uniform(-3, 3)),
                sym_exp(rng.gauss(0, 1), rng.gauss(0, 1)))
    return PSL2(SL2(*m))


# ---------------------------------------------------------------------------
# classification and the circle action


def test_classify_examples():
    assert classify(PSL2(SL2(*rotation(0.3)))) == "elliptic"
    assert classify(PSL2(SL2(math.e ** 0.5, 0, 0, math.e ** -0.5))) == "hyperbolic"
    assert classify(PSL2(SL2(1.0, 1.0, 0.0, 1.0))) == "parabolic"
    assert classify(PSL2.identity()) == "identity"


def test_sl2_normalizes_determinant():
    m = SL2(2.0, 0.0, 0.0, 2.0)
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12
    with pytest.raises(ValueError):
        SL2(1.0, 0.0, 0.0, -1.0)


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
    diag = PSL2(SL2(2.0, 0.0, 0.0, 0.5))
    assert act_rp1(diag, 0.0) < 1e-12
    assert abs(act_rp1(diag, math.pi / 2) - math.pi / 2) < 1e-12


def nearer_sign_oracle(x, y):
    """Sign and squared distance of the nearer of +-y to x, computed from
    both distances, and the gap |x - y|^2 - |x + y|^2."""
    plus = sum((a - b) ** 2 for a, b in zip(x, y))
    minus = sum((a + b) ** 2 for a, b in zip(x, y))
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
        assert abs(lift.apply_inverse(lift.apply(x)) - x) < 1e-8


def test_translation_number_identity_offset():
    for m in (-2, 0, 3):
        lift = CircleLift(PSL2.identity(), offset=m)
        assert abs(translation_number(lift, 50) - m) < 1e-9


def test_translation_number_quarter_rotation():
    assert abs(translation_number(CircleLift(B), 200) - 0.5) < 1e-9


def test_translation_number_hyperbolic_zero():
    hyp = PSL2(SL2(2.0, 0.0, 0.0, 0.5))
    assert abs(translation_number(CircleLift(hyp), 300)) < 1e-9


def test_translation_number_rotation_matches_angle():
    for t in (0.2, 0.9, 2.4):
        lift = CircleLift(PSL2(SL2(*rotation(t))))
        tau = translation_number(lift, 4000)
        assert abs(tau - (t / math.pi) % 1.0) < 1e-3


def test_translation_number_conjugacy_invariant():
    rng = random.Random(3)
    n = 600
    for _ in range(20):
        g = random_psl2(rng)
        h = random_psl2(rng)
        tau_g = translation_number(CircleLift(g), n)
        conj = h @ g @ h.inv()
        tau_c = translation_number(CircleLift(conj), n)
        delta = min(abs(tau_g - tau_c), abs(abs(tau_g - tau_c) - 1.0))
        assert delta < 2.0 / n + 1e-9


def test_b_squared_is_identity_but_lift_translates():
    assert (B @ B).is_identity()
    lift = CircleLift(B)
    assert abs(lift.apply(lift.apply(0.0)) - math.pi) < 1e-12


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
            rep[name] = PSL2(SL2(*rotation(rng.uniform(0, math.pi))))
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


def test_translation_number_single_iteration():
    lift = CircleLift(PSL2.identity(), offset=2)
    assert abs(translation_number(lift, 1) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        translation_number(lift, 0)
