import random
from fractions import Fraction

import pytest

from blowupgate.gate import (ADMISSIBLE, INDETERMINATE, OBSTRUCTED, Flow,
                             FlowGraph, HomologyElement, LabelLengthMismatch,
                             NonIntegerWeights, SizeMismatch, flow_add, gate,
                             homology_class, is_flow, realizable_k,
                             reduce_element, scale_element)
from blowupgate.errors import InputError
from blowupgate.exact import AbelianGroup
from blowupgate.invariants import braid_invariants
from blowupgate.links import BraidWord, Presentation, from_braid

TREFOIL = from_braid(BraidWord(2, (1, 1, 1)))
HOPF = from_braid(BraidWord(2, (1, 1)))
UNLINK2 = from_braid(BraidWord(2, ()))
TREFOIL_UNKNOT = from_braid(BraidWord(3, (1, 1, 1)))


# ---------------------------------------------------------------------------
# gate


def test_gate_trefoil_obstructed_both_reasons():
    v = gate(TREFOIL, [True])
    assert v.status == OBSTRUCTED
    assert set(v.reasons) == {"ConnectedZ", "DeterminantNonzero"}
    assert v.invariants.det == 3
    assert v.invariants.components == 1


def test_gate_two_unlink_admissible():
    v = gate(UNLINK2, [True, True])
    assert v.status == ADMISSIBLE
    assert v.reasons == ()
    assert v.invariants.det == 0
    assert v.invariants.h1_branched == AbelianGroup(rank=1)


def test_gate_hopf_obstructed():
    v = gate(HOPF, [True, True])
    assert v.status == OBSTRUCTED
    assert v.reasons == ("DeterminantNonzero",)
    assert v.invariants.det == 2


def test_gate_empty_sublink_indeterminate():
    for labels in ([False, False], [0, 0]):
        v = gate(HOPF, labels)
        assert v.status == INDETERMINATE
        assert v.reasons == ("EmptyZ1",)
        assert v.invariants is None


def test_gate_partial_labels_use_sublink():
    v = gate(TREFOIL_UNKNOT, [True, False])
    assert v.status == OBSTRUCTED
    assert v.reasons == ("DeterminantNonzero",)
    assert v.invariants.det == 3
    v2 = gate(TREFOIL_UNKNOT, [0, 1])
    assert v2.status == OBSTRUCTED
    assert v2.invariants.det == 1


def test_gate_label_mismatch():
    with pytest.raises(LabelLengthMismatch):
        gate(HOPF, [True])
    # bool("0") is True, so a string label used to count as nontrivial
    for labels in (["0", "0"], [2, 0], [0.7, True], [None, False]):
        with pytest.raises(ValueError, match="^monodromy label "):
            gate(HOPF, labels)


def test_gate_single_component_always_obstructed(corpus):
    for name, braid in corpus:
        d = from_braid(braid)
        if len(d.components) != 1:
            continue
        for label in (True, False):
            v = gate(d, [label])
            assert v.status == OBSTRUCTED, name
            assert "ConnectedZ" in v.reasons


def test_gate_admissible_implies_positive_betti(corpus):
    seen_admissible = 0
    for name, braid in corpus:
        d = from_braid(braid)
        v = gate(d, [True] * len(d.components))
        if v.status == ADMISSIBLE:
            seen_admissible += 1
            assert v.invariants.h1_branched.rank > 0, name
    assert seen_admissible >= 3  # the split unions


# ---------------------------------------------------------------------------
# flows


def theta_graph():
    labels = (HomologyElement((1, 0)), HomologyElement((0, 1)),
              HomologyElement((0, 0)))
    return FlowGraph(2, ((0, 1), (0, 1), (0, 1)), labels)


def test_is_flow_loop():
    g = FlowGraph(1, ((0, 0),), (HomologyElement((1,)),))
    assert is_flow(g, Flow.from_weights((1,), (1,)))


def test_is_flow_theta():
    f = Flow.from_weights((2, 1, 1), (1, -1, -1))
    assert is_flow(theta_graph(), f)


def test_is_flow_unbalanced_cycle():
    g = FlowGraph(2, ((0, 1), (1, 0)))
    assert not is_flow(g, Flow.from_weights((1, 2), (1, 1)))


def test_is_flow_size_mismatch():
    with pytest.raises(SizeMismatch):
        is_flow(theta_graph(), Flow.from_weights((1,), (1,)))


def test_flow_graph_needs_one_label_per_edge():
    labels = (HomologyElement((1,)),) * 2
    with pytest.raises(SizeMismatch, match="one label per edge"):
        FlowGraph(2, ((0, 1), (0, 1), (0, 1)), labels)


def test_flow_add_refuses_flows_of_different_graphs():
    with pytest.raises(SizeMismatch, match="different graphs"):
        flow_add(Flow.zero(3), Flow.zero(2))


def test_homology_class_needs_labels():
    g = FlowGraph(2, ((0, 1), (0, 1), (0, 1)))
    f = Flow.from_weights((2, 1, 1), (1, -1, -1))
    assert is_flow(g, f)
    with pytest.raises(InputError, match="no homology labels"):
        homology_class(g, f, AbelianGroup(rank=1))


def test_homology_element_is_zero():
    assert HomologyElement((), ()).is_zero
    assert HomologyElement((0, 0), (0,)).is_zero
    assert not HomologyElement((0, 1), (0,)).is_zero
    assert not HomologyElement((0,), (0, 2)).is_zero


def test_flow_add_identity_and_inverse():
    f = Flow.from_weights((2, 1, 1), (1, -1, -1))
    zero = Flow.zero(3)
    assert flow_add(f, zero).signed == f.signed
    assert all(x == 0 for x in flow_add(f, -f).signed)
    doubled = flow_add(f, f)
    assert doubled.weights == (4, 2, 2)
    assert is_flow(theta_graph(), doubled)


def test_flow_rational_weights():
    f = Flow.from_weights((Fraction(1, 2), Fraction(1, 2)), (1, -1))
    g = FlowGraph(2, ((0, 1), (0, 1)))
    assert is_flow(g, f)
    assert not f.is_integral


def test_homology_class_examples():
    h = AbelianGroup(1)
    loop = FlowGraph(1, ((0, 0),), (HomologyElement((1,)),))
    cls = homology_class(loop, Flow.from_weights((3,), (1,)), h)
    assert cls == HomologyElement((3,))
    zero = homology_class(loop, Flow.zero(1), h)
    assert zero == HomologyElement((0,))
    h2 = AbelianGroup(2)
    f = Flow.from_weights((2, 1, 1), (1, -1, -1))
    cls2 = homology_class(theta_graph(), f, h2)
    assert cls2 == HomologyElement((2, -1))


def test_homology_class_without_edges_fails_closed_on_huge_rank():
    empty = FlowGraph(1, (), ())
    assert homology_class(empty, Flow(()), AbelianGroup(3)) == \
        HomologyElement((0, 0, 0))
    with pytest.raises(SizeMismatch):
        homology_class(empty, Flow(()), AbelianGroup(10 ** 20))


def test_homology_model_refuses_negative_rank():
    with pytest.raises(ValueError, match="rank"):
        AbelianGroup(-2)


def test_homology_class_rejects_rationals():
    h = AbelianGroup(1)
    loop = FlowGraph(1, ((0, 0),), (HomologyElement((1,)),))
    with pytest.raises(NonIntegerWeights):
        homology_class(loop, Flow((Fraction(1, 2),)), h)


def test_homology_class_refuses_a_non_flow():
    g = FlowGraph(2, ((0, 1),), (HomologyElement((1,)),))
    with pytest.raises(ValueError, match="not a flow"):
        homology_class(g, Flow.from_weights((3,), (1,)), AbelianGroup(1))


def test_homology_class_in_computed_groups():
    # the branched double cover of the Hopf link has H_1 = Z/2
    h1 = braid_invariants(BraidWord(2, (1, 1))).h1_branched
    loop = FlowGraph(1, ((0, 0),), (HomologyElement((), (1,)),))
    three = Flow.from_weights((3,), (1,))
    assert homology_class(loop, three, h1) == HomologyElement((), (1,))
    # <a, b | a^2> abelianizes to Z + Z/2
    ab = Presentation(("a", "b"), ((1, 1),)).abelianization()
    assert ab == AbelianGroup(1, (2,))
    with pytest.raises(SizeMismatch):   # a label without the free part
        homology_class(loop, three, ab)
    both = FlowGraph(1, ((0, 0),), (HomologyElement((1,), (1,)),))
    assert homology_class(both, three, ab) == HomologyElement((3,), (1,))


def test_homology_class_torsion_reduction():
    h = AbelianGroup(0, (4,))
    g = FlowGraph(1, ((0, 0),), (HomologyElement((), (3,)),))
    cls = homology_class(g, Flow.from_weights((2,), (1,)), h)
    assert cls == HomologyElement((), (2,))


# cycle-space oracle: decompose an integer flow into fundamental cycles of a
# spanning forest and sum labels around each cycle

from flow_helpers import (add_elements, fundamental_cycle_flow, random_graph,
                          random_integer_flow, spanning_forest, zero_element)


def test_random_flows_conservation_and_linearity():
    rng = random.Random(42)
    built = 0
    for _ in range(120):
        g, h = random_graph(rng)
        f = random_integer_flow(rng, g)
        assert is_flow(g, f)
        built += 1
        f2 = random_integer_flow(rng, g)
        assert is_flow(g, flow_add(f, f2))
        base = homology_class(g, f, h)
        for k in range(-5, 6):
            scaled = Flow(tuple(k * x for x in f.signed))
            assert is_flow(g, scaled)
            assert homology_class(g, scaled, h) == scale_element(h, k, base)
    assert built == 120


def test_homology_class_matches_cycle_basis_oracle():
    rng = random.Random(77)
    for _ in range(60):
        g, h = random_graph(rng)
        tree, extra = spanning_forest(g)
        total = Flow.zero(len(g.edges))
        expected = zero_element(h)
        for idx in extra:
            k = rng.randint(-3, 3)
            cyc = fundamental_cycle_flow(g, tree, idx)
            total = flow_add(total, Flow(tuple(k * x for x in cyc.signed)))
            expected = add_elements(
                h, expected, scale_element(h, k, homology_class(g, cyc, h)))
        assert homology_class(g, total, h) == expected


def test_flow_group_axioms_random():
    rng = random.Random(5)
    g, _h = random_graph(rng)
    flows = [random_integer_flow(rng, g) for _ in range(4)]
    f1, f2, f3, _ = flows
    assert flow_add(flow_add(f1, f2), f3).signed == \
        flow_add(f1, flow_add(f2, f3)).signed
    assert flow_add(f1, f2).signed == flow_add(f2, f1).signed
    zero = Flow.zero(len(g.edges))
    assert flow_add(f1, zero).signed == f1.signed
    assert all(x == 0 for x in flow_add(f1, -f1).signed)


# ---------------------------------------------------------------------------
# realizable_k


def test_realizable_k_examples():
    h = AbelianGroup(1)
    e1 = HomologyElement((1,))
    adm = [HomologyElement((0,)), e1, HomologyElement((2,))]
    out = realizable_k(e1, adm, h)
    assert out.finite and out.values == (0, 1, 2)

    zero = HomologyElement((0,))
    out2 = realizable_k(zero, [e1], h)
    assert out2.finite and out2.values == ()

    out3 = realizable_k(zero, [zero], h)
    assert not out3.finite
    assert out3.residues == (0,) and out3.modulus == 1


def test_realizable_k_torsion_family():
    h = AbelianGroup(0, (6,))
    c = HomologyElement((), (2,))  # order 3
    adm = [HomologyElement((), (4,))]
    out = realizable_k(c, adm, h)
    assert not out.finite
    assert out.modulus == 3 and out.residues == (2,)


def random_divisor_chain(rng):
    chain = []
    for _ in range(rng.randint(0, 3)):
        chain.append(rng.choice([2, 3, 4, 6]) * (chain[-1] if chain else 1))
    return tuple(chain)


def test_realizable_k_torsion_matches_enumeration():
    # oracle: try every k below the order of c
    rng = random.Random(47)
    for _ in range(400):
        torsion = random_divisor_chain(rng)
        h = AbelianGroup(rng.randint(0, 1), torsion)

        def element(free_range):
            return HomologyElement(
                tuple(rng.choice(free_range) for _ in range(h.rank)),
                tuple(rng.randrange(-d, 2 * d) for d in torsion))

        c = element([0])
        adm = [element([0, 0, 1]) for _ in range(rng.randint(0, 4))]
        out = realizable_k(c, adm, h)
        order = next(k for k in range(1, 10 ** 4)
                     if scale_element(h, k, c) == zero_element(h))
        expect = tuple(k for k in range(order)
                       if scale_element(h, k, c) in [reduce_element(h, a) for a in adm])
        if expect:
            assert not out.finite
            assert (out.residues, out.modulus) == (expect, order)
        else:
            assert out.finite and out.values == ()


def test_realizable_k_finite_for_free_classes():
    rng = random.Random(31)
    h = AbelianGroup(2, (4,))
    for _ in range(50):
        c = HomologyElement((rng.randint(-3, 3), rng.randint(-3, 3)),
                            (rng.randint(0, 3),))
        adm = [HomologyElement((rng.randint(-9, 9), rng.randint(-9, 9)),
                               (rng.randint(0, 3),)) for _ in range(6)]
        if not any(c.free):
            continue
        out = realizable_k(c, adm, h)
        assert out.finite
        for k in out.values:
            assert scale_element(h, k, c) in [reduce_element(h, a) for a in adm]


def test_flow_from_weights_validation():
    with pytest.raises(ValueError):
        Flow.from_weights((-1,), (1,))
    with pytest.raises(ValueError):
        Flow.from_weights((1,), (2,))
    with pytest.raises(SizeMismatch):
        Flow.from_weights((1, 2), (1,))
    # an orientation of 1.0 used to turn the weight 1/3 into a float
    assert Flow.from_weights((Fraction(1, 3),), (1.0,)).signed == \
        (Fraction(1, 3),)


def test_gate_on_pd_origin_diagram():
    from blowupgate.links import parse_pd
    d = parse_pd(from_braid(BraidWord(2, (1, 1))).to_pd())
    assert d.braid is None
    v = gate(d, [True, True])
    assert v.status == OBSTRUCTED
    assert v.invariants.det == 2
    assert v.invariants.h1_method == "fox"
    v2 = gate(d, [True, False])
    assert v2.status == OBSTRUCTED
    assert v2.invariants.det == 1
