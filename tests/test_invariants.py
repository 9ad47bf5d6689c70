import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from blowupgate.exact import (AbelianGroup, IntMatrix, LaurentPoly, NonSquare,
                              cokernel, laurent_det, laurent_gcd)
from blowupgate.errors import InputError
from blowupgate.invariants import (LinkInvariants, NotWirtinger,
                                   alexander_burau, alexander_fox,
                                   alexander_seifert, braid_invariants,
                                   branched_cover_h1, branched_cover_h1_fox,
                                   determinant_at_minus_one, fox_jacobian,
                                   link_invariants)
from blowupgate import exact, invariants
from blowupgate.invariants import _fox_matrix_at_minus_one
from blowupgate.links import (BraidWord, Presentation, from_braid, parse_pd,
                              seifert_matrix, sublink, wirtinger)

TREFOIL = BraidWord(2, (1, 1, 1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
HOPF = BraidWord(2, (1, 1))


def mk_seifert(rows):
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, 0, ())


def test_alexander_seifert_examples():
    assert alexander_seifert(mk_seifert([[-1, 1], [0, -1]])).coeff_list() == \
        ([1, -1, 1], 0)
    hopf = alexander_seifert(mk_seifert([[1]]))
    assert hopf.unit_equal(LaurentPoly({0: 1, 1: -1}))
    assert alexander_seifert(mk_seifert([])).coeff_list() == ([1], 0)


def test_alexander_fox_examples():
    tre = alexander_fox(wirtinger(from_braid(TREFOIL)))
    assert tre.coeff_list() == ([1, -1, 1], 0)
    unknot = alexander_fox(wirtinger(from_braid(BraidWord(1, ()))))
    assert unknot.coeff_list() == ([1], 0)
    split = alexander_fox(wirtinger(from_braid(BraidWord(2, ()))))
    assert split.is_zero


def test_alexander_fox_requires_markers():
    pres = Presentation(("x", "y"), ((1, 2, -1, -2),))
    with pytest.raises(NotWirtinger):
        alexander_fox(pres)
    # no diagram has more crossings than arcs
    extra = Presentation(("x", "y"), ((1, 2, -1, -2),) * 3,
                         meridian_markers=(1,))
    with pytest.raises(NotWirtinger):
        alexander_fox(extra)


def test_branched_cover_h1_fox_requires_markers():
    pres = Presentation(("x", "y"), ((1, 2, -1, -2),))
    with pytest.raises(NotWirtinger, match="meridian markers"):
        branched_cover_h1_fox(pres)


def gcd_of_maximal_minors(p: Presentation) -> LaurentPoly:
    """Reference Fox route: gcd over every maximal minor of the Jacobian
    with the first column removed."""
    reduced = [row[1:] for row in fox_jacobian(p)]
    acc = LaurentPoly.zero()
    for rows in combinations(range(len(reduced)), len(p.generators) - 1):
        acc = laurent_gcd(acc, laurent_det([reduced[i] for i in rows]))
    return acc.unit_normalize()


def test_one_fox_minor_matches_gcd_of_all_minors(corpus):
    braids = [b for _name, b in corpus]
    # generators = relators + 1: a component passes under nowhere
    braids += [BraidWord(2, (1, -1)), BraidWord(3, (1,))]
    for braid in braids:
        d_braid = from_braid(braid)
        for d in (d_braid, parse_pd(d_braid.to_pd())):
            nc = len(d.components)
            for k in range(1, nc + 1):
                for keep in combinations(range(nc), k):
                    pres = wirtinger(sublink(d, keep))
                    assert alexander_fox(pres) == gcd_of_maximal_minors(pres), \
                        (braid, d.braid, keep)


def test_determinant_examples():
    tre = alexander_seifert(seifert_matrix(TREFOIL))
    assert determinant_at_minus_one(tre) == (Fraction(3), 3)
    fig8_s = alexander_seifert(seifert_matrix(FIG8))
    fig8_f = alexander_fox(wirtinger(from_braid(FIG8)))
    assert fig8_s.unit_equal(fig8_f)
    assert determinant_at_minus_one(fig8_s)[1] == 5
    split = alexander_fox(wirtinger(from_braid(BraidWord(2, ()))))
    assert determinant_at_minus_one(split) == (Fraction(0), 0)
    # random polynomials with shifted exponents and either top sign,
    # against evaluating the normalized polynomial a second time
    rng = random.Random(91)
    for _ in range(300):
        lo = rng.randint(-6, 6)
        p = LaurentPoly({lo + e: rng.randint(-9, 9)
                         for e in range(rng.randint(0, 6))})
        old = (p.eval_at(-1), abs(int(p.unit_normalize().eval_at(-1))))
        assert determinant_at_minus_one(p) == old, p


def test_branched_cover_h1_examples():
    assert branched_cover_h1(seifert_matrix(TREFOIL)) == \
        AbelianGroup(rank=0, torsion=(3,))
    assert branched_cover_h1(seifert_matrix(HOPF)) == \
        AbelianGroup(rank=0, torsion=(2,))
    annulus = mk_seifert([[0]])
    assert branched_cover_h1(annulus) == AbelianGroup(rank=1)


def test_branched_cover_h1_figure_eight():
    assert branched_cover_h1(seifert_matrix(FIG8)) == \
        AbelianGroup(rank=0, torsion=(5,))


def test_fox_h1_route_matches_seifert_route(corpus):
    for name, braid in corpus:
        h_seifert = branched_cover_h1(seifert_matrix(braid))
        h_fox = branched_cover_h1_fox(wirtinger(from_braid(braid)))
        assert h_seifert == h_fox, name


def fox_at_minus_one_oracle(p: Presentation) -> list:
    return [[int(e.eval_at(-1)) for e in row] for row in fox_jacobian(p)]


def random_presentations(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        relators = []
        for _ in range(rng.randint(0, 5)):
            word = []
            for _ in range(rng.randint(0, 12)):
                letter = rng.choice([1, -1]) * rng.randint(1, n)
                word += [letter] * rng.choice([1, 1, 2, 3])
            relators.append(tuple(word))
        yield Presentation(tuple(f"x{i}" for i in range(n)), tuple(relators),
                           meridian_markers=(1,))


def test_fox_matrix_at_minus_one_matches_jacobian(corpus):
    # d/dx and d/dy of x y x^-1 y^-1 are 1 - x y x^-1 and x - x y x^-1 y^-1,
    # that is 1 - t and t - 1; d/dx x^-1 x^-1 = -x^-1 - x^-2 -> -t^-1 - t^-2;
    # d/dx y x x = y + y x -> t + t^2 and d/dy y x x = 1
    hand = Presentation(("x", "y"), ((1, 2, -1, -2), (-1, -1), (2, 1, 1)))
    assert _fox_matrix_at_minus_one(hand) == [[2, -2], [0, 0], [0, 1]]
    presentations = [Presentation(("x",), ()), Presentation(("x", "y"), ((),))]
    for _name, braid in corpus:
        d = from_braid(braid)
        presentations += [wirtinger(d), wirtinger(parse_pd(d.to_pd()))]
    presentations += random_presentations(15, 400)
    for p in presentations:
        rows = fox_at_minus_one_oracle(p)
        assert _fox_matrix_at_minus_one(p) == rows, p
        if p.meridian_markers is None:
            continue
        n = len(p.generators)
        if n > 1 and rows:
            assert branched_cover_h1_fox(p) == \
                cokernel(IntMatrix.from_rows([row[1:] for row in rows])), p


def test_oracle_equivalence_on_corpus(corpus):
    for name, braid in corpus:
        ps = alexander_seifert(seifert_matrix(braid))
        pf = alexander_fox(wirtinger(from_braid(braid)))
        assert ps.unit_equal(pf), name


def test_rational_homology_sphere_dichotomy(corpus):
    for name, braid in corpus:
        inv = braid_invariants(braid)
        if inv.det != 0:
            assert inv.h1_branched.rank == 0, name
            assert inv.h1_branched.order == inv.det, name
            assert not inv.b1_positive
        else:
            assert inv.h1_branched.rank > 0, name
            assert inv.b1_positive


def test_knot_determinant_odd_nonzero(corpus):
    for name, braid in corpus:
        inv = braid_invariants(braid)
        if inv.components == 1:
            assert inv.det % 2 == 1, name
            assert inv.det >= 1, name


def test_alexander_symmetry(corpus):
    for name, braid in corpus:
        p = alexander_seifert(seifert_matrix(braid))
        assert p.unit_equal(LaurentPoly({-e: k for e, k in p.items()})), name


def test_link_invariants_bundles_pd_and_braid():
    d_braid = from_braid(TREFOIL)
    inv_b = link_invariants(d_braid)
    assert inv_b.h1_method == "seifert"
    d_pd = parse_pd(d_braid.to_pd())
    inv_p = link_invariants(d_pd)
    assert inv_p.h1_method == "fox"
    assert inv_b.alexander.unit_equal(inv_p.alexander)
    assert inv_b.h1_branched == inv_p.h1_branched
    assert inv_b.det == inv_p.det == 3
    assert inv_b.components == inv_p.components == 1


def test_invariants_consistency_fields(corpus):
    for _name, braid in corpus:
        inv = braid_invariants(braid)
        assert inv.b1_positive == (inv.h1_branched.rank > 0)
        normalized = inv.alexander.unit_normalize()
        assert normalized == inv.alexander  # stored normalized
        assert abs(int(normalized.eval_at(-1))) == inv.det


def test_det_signed_is_an_int_on_the_corpus(corpus):
    for name, braid in corpus:
        for d in (from_braid(braid), parse_pd(from_braid(braid).to_pd())):
            inv = link_invariants(d)
            assert type(inv.det_signed) is int, name
            assert inv.det_signed == inv.alexander.eval_at(-1), name
            assert abs(inv.det_signed) == inv.det, name


def test_pd_code_drops_crossingless_components():
    # the third strand of this closure meets no crossing: a split unknot,
    # which a PD code cannot state
    d = from_braid(BraidWord(3, (1, 1, 1)))
    inv = link_invariants(d)
    assert inv.components == 2
    assert inv.h1_branched == AbelianGroup(rank=1, torsion=(3,))
    parsed = link_invariants(parse_pd(d.to_pd()))
    assert parsed.components == 1
    assert parsed.h1_branched == AbelianGroup(rank=0, torsion=(3,))


def test_torus_two_strand_covers_are_lens_spaces():
    # the double cover branched over the closure of sigma_1^n is L(n, 1)
    for n in range(2, 8):
        h1 = branched_cover_h1(seifert_matrix(BraidWord(2, (1,) * n)))
        assert h1 == AbelianGroup(rank=0, torsion=(n,)), n


def test_odd_torus_knots_alternating_alexander():
    for n in (3, 5, 7):
        p = alexander_seifert(seifert_matrix(BraidWord(2, (1,) * n)))
        coeffs, min_exp = p.coeff_list()
        assert min_exp == 0
        assert coeffs == [(-1) ** i for i in range(n)]
        assert determinant_at_minus_one(p)[1] == n


def test_granny_and_square_knots_composite_homology():
    # connected sums of trefoils: determinant 9 splits as Z/3 + Z/3
    granny = BraidWord(3, (1, 1, 1, 2, 2, 2))
    square = BraidWord(3, (1, 1, 1, -2, -2, -2))
    trefoil_alex = alexander_seifert(seifert_matrix(TREFOIL))
    for braid in (granny, square):
        inv = braid_invariants(braid)
        assert inv.components == 1
        assert inv.det == 9
        assert inv.h1_branched == AbelianGroup(rank=0, torsion=(3, 3))
        assert inv.alexander.unit_equal(trefoil_alex * trefoil_alex)


@pytest.mark.parametrize("braid, coeffs, det", [
    # the (2, 101) torus knot: Seifert matrix 100 x 100, 101 Wirtinger arcs
    (BraidWord(2, (1,) * 101), [(-1) ** i for i in range(101)], 101),
    # the (2, 60) torus link as the closure of (s_1 ... s_59)^2
    (BraidWord(60, tuple(range(1, 60)) * 2), [(-1) ** (i + 1)
                                               for i in range(60)], 60),
], ids=["torus_2_101", "torus_2_60_on_60_strands"])
def test_large_links_agree_on_both_routes(braid, coeffs, det):
    d = from_braid(braid)
    seifert = link_invariants(d)
    fox = link_invariants(parse_pd(d.to_pd()))
    assert (seifert.h1_method, fox.h1_method) == ("seifert", "fox")
    for inv in (seifert, fox):
        assert inv.alexander.coeff_list() == (coeffs, 0)
        assert inv.det == det
        assert inv.h1_branched == AbelianGroup(rank=0, torsion=(det,))


# ---------------------------------------------------------------------------
# the term routes against the dense LaurentPoly matrices they replaced

DATA = Path(__file__).with_name("data")

# a trefoil with a Reidemeister-I loop (the closure of s1^3 s2), its kink
# crossing first, so that a relator with cancelling terms is among the
# n - 1 the minor takes
KINKED_TREFOIL = [[3, 3, 2, 8], [2, 5, 4, 1], [5, 7, 6, 4], [7, 8, 1, 6]]
KINKED = [[[1, 1, 2, 2]], [[2, 1, 1, 2]], KINKED_TREFOIL]


def seifert_cells(v: IntMatrix) -> list:
    """V - t V^T as a dense matrix of LaurentPoly, one per cell."""
    return [[LaurentPoly({0: a, 1: -b}) for a, b in zip(row, col)]
            for row, col in zip(v.to_rows(), v.transpose().to_rows())]


def dense_alexander_seifert(v: IntMatrix) -> LaurentPoly:
    return laurent_det(seifert_cells(v)).unit_normalize()


def dense_alexander_fox(p: Presentation) -> LaurentPoly:
    """One maximal minor of the dense Jacobian, as alexander_fox takes."""
    n = len(p.generators)
    if len(p.relators) < n - 1:
        return LaurentPoly.zero()
    minor = [row[1:] for row in fox_jacobian(p)[:n - 1]]
    return laurent_det(minor).unit_normalize()


def golden_links() -> list:
    """The diagram of each link input of both CLI golden corpora (the
    numeric one holds none today)."""
    codes = {}
    for name in ("cli_exact_golden.jsonl", "cli_numeric_golden.jsonl"):
        with (DATA / name).open(encoding="utf-8") as fh:
            for line in fh:
                data = json.loads(line)["input"]
                if isinstance(data, dict) and ("pd" in data or "braid" in data):
                    link = {k: data[k] for k in ("pd", "braid") if k in data}
                    codes[json.dumps(link, sort_keys=True)] = link
    out = []
    for link in codes.values():
        if "pd" in link:
            out.append(parse_pd(link["pd"]))
        else:
            braid = link["braid"]
            out.append(from_braid(BraidWord(braid["strands"], braid["word"])))
    return out


def random_closures(seed, count):
    """Closures of random braids on 1 to 6 strands, and the PD code of
    each that has one, its crossings shuffled so that any relator, a
    kink's among them, may be one of the n - 1 the Fox minor takes."""
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(1, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(0, 12) if strands > 1 else 0)]
        d = from_braid(BraidWord(strands, word))
        yield d
        if not d.free_arcs and d.crossings:
            pd = d.to_pd()
            rng.shuffle(pd)
            yield parse_pd(pd)


def route_diagrams() -> list:
    diagrams = golden_links() + list(random_closures(45, 120))
    diagrams += [parse_pd(code) for code in KINKED]
    # every sublink of those with few components, as gate asks for
    out = []
    for d in diagrams:
        nc = d.component_count
        out.append(d)
        if 1 < nc <= 4:
            out += [sublink(d, keep) for k in range(1, nc)
                    for keep in combinations(range(nc), k)]
    return out


def test_golden_links_are_read():
    links = golden_links()
    assert sum(d.braid is None for d in links) >= 10
    assert sum(d.braid is not None for d in links) >= 10


def test_routes_equal_their_dense_forms():
    for d in route_diagrams():
        p = wirtinger(d)
        assert alexander_fox(p) == dense_alexander_fox(p), d
        if d.braid is not None:
            v = seifert_matrix(d.braid)
            assert alexander_seifert(v) == dense_alexander_seifert(v), d


def test_kinked_fox_rows_cancel():
    # the kink relator x2 x3 x3^-1 x3^-1 has the terms t and -t by x3
    p = wirtinger(parse_pd(KINKED_TREFOIL))
    assert p.relators[0] == (2, 3, -3, -3)
    assert alexander_fox(p).coeff_list() == ([1, -1, 1], 0)
    for code in KINKED[:2]:
        assert alexander_fox(wirtinger(parse_pd(code))) == LaurentPoly.one()


def test_alexander_seifert_refuses_a_non_square_matrix():
    with pytest.raises(NonSquare):
        alexander_seifert(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_unchecked_builds_equal_checked_ones(monkeypatch):
    built = []

    def cokernel_spy(m):
        built.append(m)
        return cokernel(m)

    monkeypatch.setattr(invariants, "cokernel", cokernel_spy)
    for d in route_diagrams():
        p = wirtinger(d)
        assert Presentation(p.generators, p.relators,
                            p.meridian_markers) == p, d
        n = len(p.generators)
        if n <= 1:
            continue
        h1 = branched_cover_h1_fox(p)
        rows = [row[1:] for row in _fox_matrix_at_minus_one(p)]
        checked = IntMatrix.from_rows(rows) if rows else IntMatrix(0, n - 1, ())
        assert built.pop() == checked, d
        assert h1 == cokernel(checked), d


def test_unchecked_braid_records_equal_checked_ones(monkeypatch):
    built = []

    def cokernel_spy(m):
        built.append(m)
        return cokernel(m)

    monkeypatch.setattr(invariants, "cokernel", cokernel_spy)
    for d in route_diagrams():
        inv = link_invariants(d)
        assert inv == LinkInvariants(*map(inv.__getattribute__,
                                          LinkInvariants._fields)), d
        h1, alex = inv.h1_branched, inv.alexander
        assert h1 == AbelianGroup(h1.rank, h1.torsion), d
        assert alex == LaurentPoly(dict(alex.items())), d
        if d.braid is not None:
            v = seifert_matrix(d.braid)
            assert built.pop() == v + v.transpose(), d


# ---------------------------------------------------------------------------
# the Burau route against the Seifert and Fox routes


def golden_braids() -> list:
    """The braid of each closure in the golden corpora and of each of its
    proper sublinks."""
    out = []
    for d in golden_links():
        if d.braid is None:
            continue
        nc = d.component_count
        out.append(d.braid)
        out += [sublink(d, keep).braid for k in range(1, nc)
                for keep in combinations(range(nc), k)]
    return out


def random_words(seed, count, strands=(1, 7), letters=(0, 18)):
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.randint(*strands)
        yield BraidWord(s, [rng.choice([1, -1]) * rng.randint(1, s - 1)
                            for _ in range(rng.randint(*letters)
                                           if s > 1 else 0)])


def mirror(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, [-w for w in b.word])


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, [-w for w in reversed(b.word)])


def test_burau_route_equals_seifert_route_on_golden_braids():
    braids = golden_braids()
    assert len(braids) >= 30
    for b in braids:
        assert alexander_burau(b) == alexander_seifert(seifert_matrix(b)), b


def test_burau_route_equals_seifert_route_on_random_closures():
    braids = [BraidWord(s, ()) for s in range(1, 8)]
    for b in random_words(50, 700):
        braids += [b, mirror(b), inverse(b)]
    assert len(braids) >= 2000
    assert sum(len(b.word) == 0 for b in braids) >= 7
    assert sum(b.strands == 1 for b in braids) >= 50
    # a generator left unused splits the closure: Burau answers 0 at once
    assert sum(len({abs(w) for w in b.word}) < b.strands - 1
               for b in braids) >= 200
    for b in braids:
        assert alexander_burau(b) == alexander_seifert(seifert_matrix(b)), b


def test_burau_route_equals_fox_route_on_long_closures():
    braids = list(random_words(51, 100, strands=(3, 5), letters=(40, 100)))
    assert min(len(b.word) for b in braids) >= 40
    for b in braids:
        assert alexander_burau(b) == \
            alexander_fox(wirtinger(from_braid(b))), b


def test_burau_route_examples():
    tre = alexander_burau(TREFOIL)
    assert tre.coeff_list() == ([1, -1, 1], 0)
    assert alexander_burau(FIG8).coeff_list() == ([1, -3, 1], 0)
    assert alexander_burau(HOPF).coeff_list() == ([-1, 1], 0)
    assert alexander_burau(BraidWord(1, ())) == LaurentPoly.one()
    assert alexander_burau(BraidWord(3, (1, 1, 1))).is_zero
    # s2 used once: the granny knot, a connected sum of two trefoils
    granny = alexander_burau(BraidWord(4, (1, 1, 3, 2, 3, 1, 3)))
    assert granny == tre * tre
    # the 3-strand word of 100 letters, far beyond the Seifert route
    long = alexander_burau(BraidWord(3, (1, -2) * 50))
    assert long.coeff_list()[0][:3] == [1, -51, 1275]


def test_burau_division_guard(monkeypatch):
    # 2 is not a multiple of 1 + t
    monkeypatch.setattr(invariants, "_det", lambda rows: 2)
    with pytest.raises(ArithmeticError):
        alexander_burau(TREFOIL)


def test_burau_refuses_what_is_not_a_braid_word():
    for bad in ((1, 1, 1), [2, (1, 1, 1)], TREFOIL.word, None):
        with pytest.raises(InputError):
            alexander_burau(bad)


def test_branched_cover_h1_refuses_a_non_square_matrix():
    with pytest.raises(NonSquare):
        branched_cover_h1(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_braid_closures_never_take_the_seifert_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Seifert determinant ran")

    monkeypatch.setattr(invariants, "alexander_seifert", refuse)
    monkeypatch.setattr(invariants, "_kronecker_det", refuse)
    monkeypatch.setattr(exact, "_kronecker_det", refuse)
    for b in (TREFOIL, FIG8, HOPF, BraidWord(3, (1, -2) * 50),
              BraidWord(1000, (1, 2, 3, 4))):
        inv = link_invariants(from_braid(b))
        assert inv.alexander == alexander_burau(b)
        assert inv.h1_method == "seifert"


# ---------------------------------------------------------------------------
# H_1 of the double branched cover from the Burau matrix at t = -1, as an
# oracle of the Seifert route


def burau_at_minus_one(b: BraidWord) -> IntMatrix:
    """I - psi(b) at t = -1, dense: psi(s_i) is the identity with row i
    replaced by (t, -t, 1) in columns i - 1, i, i + 1, and psi(s_i^-1)
    with it replaced by (1, -1/t, 1/t)."""
    n = b.strands - 1
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for w in b.word:
        i = abs(w) - 1
        row = {i - 1: -1, i: 1, i + 1: 1} if w > 0 else \
            {i - 1: 1, i: 1, i + 1: -1}
        g = [[int(r == c) for c in range(n)] for r in range(n)]
        g[i] = [row.get(c, 0) for c in range(n)]
        m = [[sum(m[r][k] * g[k][c] for k in range(n)) for c in range(n)]
             for r in range(n)]
    return IntMatrix(n, n, tuple(int(r == c) - m[r][c] for r in range(n)
                                 for c in range(n)))


def stabilized(b: BraidWord) -> BraidWord:
    """b on an odd number of strands: b s_s on s + 1 strands when s is
    even, a closure of the same link; 1 + t + ... + t^(s-1) vanishes at
    t = -1 for even s."""
    s = b.strands
    return b if s % 2 else BraidWord(s + 1, b.word + (s,))


def test_burau_at_minus_one_presents_the_branched_cover():
    braids = list(random_words(52, 1000))
    assert sum(b.strands % 2 == 0 for b in braids) >= 300
    for b in braids:
        assert cokernel(burau_at_minus_one(stabilized(b))) == \
            branched_cover_h1(seifert_matrix(b)), b


def test_even_strands_need_the_stabilization():
    # the trefoil on 2 strands: psi(s_1^3) = 1 at t = -1, so I - psi is 0
    assert cokernel(burau_at_minus_one(TREFOIL)) == AbelianGroup(rank=1)
    assert cokernel(burau_at_minus_one(stabilized(TREFOIL))) == \
        branched_cover_h1(seifert_matrix(TREFOIL)) == \
        AbelianGroup(rank=0, torsion=(3,))
