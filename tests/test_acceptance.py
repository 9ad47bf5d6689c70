"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import io
import json
import math
import random
import time
from contextlib import contextmanager

from census_helpers import jankins_neumann_count

from blowupgate.cli import run as cli_run
from blowupgate.exact import IntMatrix, smith_normal_form
from blowupgate.gate import (ADMISSIBLE, OBSTRUCTED, Flow, HomologyElement,
                             flow_add, gate, homology_class, is_flow,
                             realizable_k, scale_element)
from blowupgate.invariants import (alexander_burau, alexander_fox,
                                   alexander_seifert, braid_invariants)
from blowupgate.links import BraidWord, from_braid, seifert_matrix, wirtinger
from blowupgate.psl2r import (PSL2, CircleLift, euler_number,
                              fuchsian_genus2, milnor_wood_admissible,
                              translation_number)
from blowupgate.repvar import (BrieskornData, RepAssignment,
                               brieskorn_enumerate, brieskorn_presentation,
                               connected_sum_family, free_product,
                               is_irreducible, residual, solve,
                               surface_presentation, trace_coordinates)
from blowupgate.psl2r import mat_mul


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{desc}]: FAIL")
        raise
    print(f"criterion {num} [{desc}]: PASS")


def test_criterion_1_alexander_oracle_equivalence(corpus):
    with criterion(1, "Alexander by the Seifert, Fox and Burau routes "
                      "agree on corpus"):
        assert len(corpus) >= 15
        start = time.perf_counter()
        for name, braid in corpus:
            via_seifert = alexander_seifert(seifert_matrix(braid))
            via_fox = alexander_fox(wirtinger(from_braid(braid)))
            assert via_seifert.unit_equal(via_fox), name
            assert alexander_burau(braid) == via_seifert, name
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"corpus took {elapsed:.2f}s"


def test_criterion_2_gate_mechanism(corpus):
    with criterion(2, "knots obstructed, 2-unlink admissible"):
        knots = 0
        for name, braid in corpus:
            d = from_braid(braid)
            if len(d.components) != 1:
                continue
            knots += 1
            inv = braid_invariants(braid)
            assert inv.det % 2 == 1 and inv.det != 0, name
            verdict = gate(d, [True])
            assert verdict.status == OBSTRUCTED, name
            assert "ConnectedZ" in verdict.reasons, name
        assert knots >= 8
        unlink = from_braid(BraidWord(2, ()))
        verdict = gate(unlink, [True, True])
        assert verdict.status == ADMISSIBLE
        assert verdict.invariants.det == 0
        assert verdict.invariants.h1_branched.rank == 1


def test_criterion_3_branched_cover_consistency(corpus):
    with criterion(3, "branched double cover homology vs determinant"):
        for name, braid in corpus:
            inv = braid_invariants(braid)
            if inv.det != 0:
                assert inv.h1_branched.rank == 0, name
                assert inv.h1_branched.order == inv.det, name
            else:
                assert inv.h1_branched.rank > 0, name
        spots = {
            "trefoil": (BraidWord(2, (1, 1, 1)), 0, (3,)),
            "figure_eight": (BraidWord(3, (1, -2, 1, -2)), 0, (5,)),
            "hopf": (BraidWord(2, (1, 1)), 0, (2,)),
        }
        for name, (braid, rank, torsion) in spots.items():
            h1 = braid_invariants(braid).h1_branched
            assert (h1.rank, h1.torsion) == (rank, torsion), name


def test_criterion_4_snf_property_suite():
    with criterion(4, "1000 random Smith normal forms, exact"):
        rng = random.Random(20240)
        for _ in range(1000):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                     for _ in range(rows)])
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert abs(u.det()) == 1
            assert abs(v.det()) == 1
            diag = [d.at(i, i) for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d.at(i, j) == 0
            nonzero = [x for x in diag if x]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


def test_criterion_5_milnor_wood():
    with criterion(5, "Milnor-Wood bound and Fuchsian saturation"):
        pres = surface_presentation(2)
        sols = solve(pres, restarts=50, tol=1e-10, seed=0)
        assert sols
        for rep in sols:
            e = euler_number(rep.matrices, 2, tol=1e-6)
            assert abs(e) <= 2
        saturating = fuchsian_genus2()
        assert abs(euler_number(saturating, 2)) == 2
        assert milnor_wood_admissible([2]) == [(n,) for n in range(-2, 3)]


def test_criterion_6_brieskorn_census_exact():
    with criterion(6, "Brieskorn census count is Jankins-Neumann, "
                   "every class certified"):
        for exponents in ((2, 3, 5), (2, 3, 7), (2, 5, 7), (5, 7, 11)):
            pres = brieskorn_presentation(BrieskornData(*exponents))
            census = brieskorn_enumerate(BrieskornData(*exponents))
            assert len(census) == jankins_neumann_count(exponents)
            assert len({cls.angles for cls in census}) == len(census)
            for cls in census:
                rep = cls.assignment
                assert residual(pres, rep) < 1e-10
                for l, p, g in zip(cls.angles, exponents, ("x1", "x2", "x3")):
                    tau = translation_number(CircleLift(rep.matrices[g]))
                    turns = tau - l / p
                    assert abs(turns - round(turns)) < 1e-9, (cls.angles, g)
                trivial = cls.angles == (0, 0, 0)
                assert cls.irreducible == is_irreducible(rep) == (not trivial)


def test_criterion_7_connected_sum_noncompactness():
    with criterion(7, "connected-sum family diverges"):
        pres = surface_presentation(2)
        rep = RepAssignment(fuchsian_genus2(), residual=0.0)
        product = free_product(pres, pres)
        previous = 0.0
        keys = []
        final_trace = 0.0
        for k in range(2, 65):
            a_k = PSL2((float(k), 0.0, 0.0, 1.0 / k))
            family = connected_sum_family(pres, rep, pres, rep, a_k)
            assert residual(product, family) < 1e-9
            keys.append(trace_coordinates(product, family))
            # designated mixed word: b1 of one factor times b1 of the other
            word = mat_mul(family.matrices["b1_1"].tuple(),
                           family.matrices["b1_2"].tuple())
            final_trace = abs(word[0] + word[3])
            assert final_trace > previous
            previous = final_trace
        assert final_trace > 1e3
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                assert math.dist(keys[i], keys[j]) > 1e-6


def test_criterion_8_flow_group_properties():
    with criterion(8, "flow group axioms and finiteness"):
        from flow_helpers import random_graph, random_integer_flow
        rng = random.Random(812)
        checked = 0
        while checked < 500:
            g, h = random_graph(rng)
            f1 = random_integer_flow(rng, g)
            f2 = random_integer_flow(rng, g)
            checked += 1
            assert is_flow(g, f1) and is_flow(g, f2)
            total = flow_add(f1, f2)
            assert is_flow(g, total)
            # abelian group axioms
            assert flow_add(f1, f2).signed == flow_add(f2, f1).signed
            zero = Flow.zero(len(g.edges))
            assert flow_add(f1, zero).signed == f1.signed
            assert all(x == 0 for x in flow_add(f1, -f1).signed)
            f3 = random_integer_flow(rng, g)
            assert flow_add(flow_add(f1, f2), f3).signed == \
                flow_add(f1, flow_add(f2, f3)).signed
            base = homology_class(g, f1, h)
            for k in range(-5, 6):
                scaled = Flow(tuple(k * x for x in f1.signed))
                assert homology_class(g, scaled, h) == scale_element(h, k, base)
            if any(base.free):
                adm = [HomologyElement((rng.randint(-9, 9), rng.randint(-9, 9)))
                       for _ in range(5)]
                out = realizable_k(base, adm, h)
                assert out.finite


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI byte-determinism"):
        trefoil = tmp_path / "trefoil.json"
        trefoil.write_text(json.dumps(
            {"braid": {"strands": 2, "word": [1, 1, 1]}}))
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(
            {"generators": ["x1", "x2", "x3"],
             "relators": [[3, 2, -1, -2], [1, 3, -2, -3]]}))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({
            "vertices": 2,
            "edges": [
                {"from": 0, "to": 1, "label": {"free": [1], "torsion": []}},
                {"from": 0, "to": 1, "label": {"free": [0], "torsion": []}}],
            "weights": [1, 1], "orientations": [1, -1],
            "model": {"rank": 1, "torsion": []},
            "admissible": [{"free": [0]}, {"free": [3]}],
        }))
        rep = fuchsian_genus2()
        repfile = tmp_path / "rep.json"
        repfile.write_text(json.dumps(
            {"matrices": {name: m.matrix_rows() for name, m in rep.items()}}))

        commands = [
            ["invariants", str(trefoil)],
            ["gate", str(trefoil), "--monodromy", "1"],
            ["flow", str(graph)],
            ["solve", str(pres), "--restarts", "6", "--seed", "11"],
            ["brieskorn", "2", "3", "5", "--restarts", "25", "--seed", "1"],
            ["euler", str(repfile), "--genus", "2"],
            ["mw-admissible", "--genera", "2,3"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                code = cli_run(argv, out=buf)
                assert code == 0, argv
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], argv
            assert outputs[0].endswith("\n")
