import random
from fractions import Fraction

import pytest

from blowupgate.errors import InputError
from blowupgate.exact import AbelianGroup
from blowupgate.invariants import alexander_fox, alexander_seifert
from blowupgate.links import (BraidWord, EmptySelection, InvalidLetter,
                              MalformedPD, from_braid, parse_pd,
                              seifert_matrix, sublink, wirtinger)

TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF_PD = [[2, 4, 1, 3], [4, 2, 3, 1]]


# ---------------------------------------------------------------------------
# oracles


def component_count_unionfind(code):
    """Independent component count: union the through-pairs of each
    crossing and count classes."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a, b, c, d in code:
        union(a, c)
        union(b, d)
    return len({find(x) for x in parent})


def cycle_count_oracle(strands, word):
    """Cycle count of the closure permutation via a position walk."""
    perm = list(range(strands))
    for w in word:
        i = abs(w) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = set()
    cycles = 0
    for s in range(strands):
        if s in seen:
            continue
        cycles += 1
        # follow: the strand entering the closure at position s reappears
        # wherever the walk put it
        x = s
        while x not in seen:
            seen.add(x)
            x = perm.index(x)
    return cycles


def _braid_loops(b: BraidWord):
    """Basis loops of the disk-and-band surface of a braid closure.

    Bands hang between consecutive disks at the positions of the braid
    letters; one loop per consecutive pair of bands at the same level.
    Levels with no letters get a pair of parallel untwisted connector
    bands (one zero loop each) so the surface is connected; this keeps
    the closure type while making the determinant vanish and the
    homology pick up a free summand for split closures.
    """
    n = b.strands
    by_level = {i: [] for i in range(1, n)}
    for pos, w in enumerate(b.word, start=1):
        by_level[abs(w)].append((pos, 1 if w > 0 else -1))
    loops = []
    big = len(b.word) + 1
    for level in range(1, n):
        bands = by_level[level]
        if not bands:
            loops.append((level, big + 2 * level, big + 2 * level + 1, 0, 0))
            continue
        for (p1, s1), (p2, s2) in zip(bands, bands[1:]):
            loops.append((level, p1, p2, s1, s2))
    return loops


def _seifert_entry_pair(e, f):
    """(lk(e, f+), lk(f, e+)) for two distinct basis loops."""
    lev_e, u, v, su, sv = e
    lev_f, a, b2, sa, sb = f
    if lev_e == lev_f:
        if v == a:           # e left, shared band a with sign sa
            return (1, 0) if sa > 0 else (0, -1)
        if b2 == u:          # f left, shared band u with sign su
            pair = (1, 0) if su > 0 else (0, -1)
            return pair[1], pair[0]
        return 0, 0
    if abs(lev_e - lev_f) != 1:
        return 0, 0
    lo, hi = (e, f) if lev_e < lev_f else (f, e)
    _, lu, lv, _, _ = lo
    _, hu, hv, _, _ = hi
    if lu < hu < lv < hv:    # lower-level loop starts left
        pair = (0, 1)
    elif hu < lu < hv < lv:  # higher-level loop starts left
        pair = (0, -1)
    else:
        return 0, 0
    if lev_e < lev_f:
        return pair
    return pair[1], pair[0]


def seifert_rows_all_pairs(b: BraidWord):
    """Seifert matrix rows by testing every pair of disk-and-band loops,
    with placeholder band positions past the word for empty levels."""
    loops = _braid_loops(b)
    m = len(loops)
    rows = [[0] * m for _ in range(m)]
    for i, e in enumerate(loops):
        rows[i][i] = -(e[3] + e[4]) // 2
        for j in range(i + 1, m):
            rows[i][j], rows[j][i] = _seifert_entry_pair(e, loops[j])
    return rows


# ---------------------------------------------------------------------------
# parse_pd


def test_parse_pd_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert len(d.crossings) == 3
    assert len(d.components) == 1
    assert len(d.components[0]) == 6
    assert component_count_unionfind(TREFOIL_PD) == 1


def test_parse_pd_empty_is_unknot():
    d = parse_pd([])
    assert len(d.crossings) == 0
    assert d.components == ((1,),)


def test_parse_pd_rejects_bad_arc_counts():
    with pytest.raises(MalformedPD):
        parse_pd([[1, 4, 2, 5], [3, 6, 4, 1]])  # arc 5 appears once
    with pytest.raises(MalformedPD):
        parse_pd([[1, 1, 1, 1]])
    with pytest.raises(MalformedPD):
        parse_pd([[0, 1, 0, 1]])


def test_parse_pd_hopf_components():
    d = parse_pd(HOPF_PD)
    assert len(d.components) == 2
    assert component_count_unionfind(HOPF_PD) == 2


def test_parse_pd_roundtrip():
    for code in (TREFOIL_PD, HOPF_PD):
        d = parse_pd(code)
        again = parse_pd(d.to_pd())
        assert again.to_pd() == d.to_pd()
        assert again.components == d.components


def test_braid_pd_roundtrip_preserves_invariants():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 6)))
        d = from_braid(BraidWord(n, word))
        if d.free_arcs:
            continue  # bare PD cannot carry crossing-free components
        again = parse_pd(d.to_pd())
        assert len(again.components) == len(d.components)
        assert alexander_fox(wirtinger(again)).unit_equal(
            alexander_fox(wirtinger(d)))


# ---------------------------------------------------------------------------
# from_braid


def test_from_braid_examples():
    assert len(from_braid(BraidWord(2, (1, 1, 1))).components) == 1
    assert len(from_braid(BraidWord(2, (1, 1))).components) == 2
    d = from_braid(BraidWord(1, ()))
    assert len(d.components) == 1
    assert len(d.crossings) == 0


def test_from_braid_signs():
    d = from_braid(BraidWord(2, (1, -1)))
    assert [c.sign for c in d.crossings] == [1, -1]


def test_braid_letter_validation():
    with pytest.raises(InvalidLetter):
        BraidWord(2, (2,))
    with pytest.raises(InvalidLetter):
        BraidWord(3, (0,))
    with pytest.raises(InvalidLetter):
        BraidWord(0, ())
    # a float is an integer only when int() would not truncate it
    assert BraidWord(2.0, (1.0, -1)) == BraidWord(2, (1, -1))
    for strands, word in ((2, (1.7,)), (2.9, (1,)), (2, (float("inf"),)),
                          (2, (float("nan"),)), (2, (Fraction(7, 2),)),
                          (2, (Fraction(1),)), (True, ()),
                          (2, (True, True, True))):
        with pytest.raises(ValueError):
            BraidWord(strands, word)


def test_from_braid_component_count_matches_cycle_oracle():
    rng = random.Random(9)
    # closures with free strands, then random ones
    braids = [BraidWord(3, (1, 1)), BraidWord(4, (1, 1, 1, 3, 3)),
              BraidWord(1, ())]
    for _ in range(200):
        n = rng.randint(1, 5)
        length = rng.randint(0, 8) if n > 1 else 0
        braids.append(BraidWord(n, tuple(rng.choice([1, -1])
                                         * rng.randint(1, n - 1)
                                         for _ in range(length))))
    for b in braids:
        d = from_braid(b)
        count = d.component_count  # read before the code is assembled
        assert count == len(d.components) == d.component_count
        assert count == cycle_count_oracle(b.strands, b.word)
        if not d.free_arcs:
            pd = parse_pd(d.to_pd())
            assert pd.component_count == len(pd.components) == count


# ---------------------------------------------------------------------------
# seifert_matrix


def test_seifert_trefoil_matrix():
    b = BraidWord(2, (1, 1, 1))
    v = seifert_matrix(b)
    assert v.to_rows() == [[-1, 1], [0, -1]]
    assert alexander_seifert(v).coeff_list() == ([1, -1, 1], 0)
    assert (v.rows - len(b.strand_cycles()) + 1) // 2 == 1
    assert len(b.strand_cycles()) == 1


def test_seifert_hopf():
    v = seifert_matrix(BraidWord(2, (1, 1)))
    assert v.rows == 1
    assert abs(v.at(0, 0)) == 1
    assert alexander_seifert(v).unit_equal(
        alexander_fox(wirtinger(from_braid(BraidWord(2, (1, 1))))))


def test_seifert_unknot_empty():
    v = seifert_matrix(BraidWord(1, ()))
    assert v.rows == 0
    assert alexander_seifert(v).coeff_list() == ([1], 0)


def test_seifert_size_formula_connected():
    # connected closure surface: size = letters - (strands - 1)
    for strands, word in ((2, (1, 1, 1)), (3, (1, -2, 1, -2)),
                          (3, (1, 2, 1, 2, 1, 2)), (4, (1, 2, 3, 1, 2, 3))):
        v = seifert_matrix(BraidWord(strands, word))
        assert v.rows == len(word) - (strands - 1)


def test_seifert_split_closure_connectors():
    # empty level -> one zero loop; determinant route sees a split link
    v = seifert_matrix(BraidWord(3, (1, 1, 1)))
    assert v.rows == 3
    rows = v.to_rows()
    assert rows[2] == [0, 0, 0]
    assert [rows[i][2] for i in range(3)] == [0, 0, 0]
    assert alexander_seifert(v).is_zero


def test_seifert_fox_agreement_on_mixed_sweep(corpus):
    for _name, braid in corpus:
        ps = alexander_seifert(seifert_matrix(braid))
        pf = alexander_fox(wirtinger(from_braid(braid)))
        assert ps.unit_equal(pf), _name


def test_seifert_fox_agreement_random_braids():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 7)))
        b = BraidWord(n, word)
        assert alexander_seifert(seifert_matrix(b)).unit_equal(
            alexander_fox(wirtinger(from_braid(b)))), (n, word)


def test_seifert_matches_all_pairs_oracle_random_braids():
    rng = random.Random(2024)
    empty_levels = single_letter_levels = 0
    for _ in range(2500):
        n = rng.randint(1, 7)
        levels = [lvl for lvl in range(1, n) if rng.random() < 0.7]
        word = tuple(rng.choice((1, -1)) * rng.choice(levels)
                     for _ in range(rng.randint(0, 12) if levels else 0))
        b = BraidWord(n, word)
        used = [sum(abs(w) == lvl for w in word) for lvl in range(1, n)]
        empty_levels += used.count(0)
        single_letter_levels += used.count(1)
        v = seifert_matrix(b)
        assert v.to_rows() == seifert_rows_all_pairs(b), (n, word)
        assert len(b.strand_cycles()) == cycle_count_oracle(n, word), \
            (n, word)
    assert empty_levels > 1000 and single_letter_levels > 1000


def test_seifert_matches_all_pairs_oracle_wide_split_braid():
    b = BraidWord(1000, (1, 2, 3, 4))
    v = seifert_matrix(b)
    assert v.rows == 995
    assert v.to_rows() == seifert_rows_all_pairs(b)
    assert len(b.strand_cycles()) == cycle_count_oracle(1000, b.word) == 996


# ---------------------------------------------------------------------------
# wirtinger


def test_wirtinger_trefoil():
    p = wirtinger(from_braid(BraidWord(2, (1, 1, 1))))
    assert len(p.generators) == 3
    assert len(p.relators) == 3
    assert p.abelianization() == AbelianGroup(rank=1)
    assert p.meridian_markers is not None and len(p.meridian_markers) == 1


def test_wirtinger_unknot():
    p = wirtinger(from_braid(BraidWord(1, ())))
    assert len(p.generators) == 1
    assert len(p.relators) == 0
    assert p.abelianization() == AbelianGroup(rank=1)


def test_wirtinger_hopf_abelianization():
    p = wirtinger(parse_pd(HOPF_PD))
    assert p.abelianization() == AbelianGroup(rank=2)
    assert len(p.meridian_markers) == 2


def test_wirtinger_abelianization_counts_components(corpus):
    for _name, braid in corpus:
        d = from_braid(braid)
        p = wirtinger(d)
        assert p.abelianization() == AbelianGroup(rank=len(d.components))


# ---------------------------------------------------------------------------
# sublink


def test_sublink_hopf_keep_one_is_unknot():
    d = from_braid(BraidWord(2, (1, 1)))
    u = sublink(d, [0])
    assert len(u.components) == 1
    assert len(u.crossings) == 0


def test_sublink_keep_all_is_identity():
    d = from_braid(BraidWord(2, (1, 1, 1)))
    same = sublink(d, [0])
    assert len(same.components) == 1
    assert alexander_seifert(seifert_matrix(same.braid)).coeff_list() == \
        ([1, -1, 1], 0)


def test_sublink_split_case():
    d = from_braid(BraidWord(2, ()))
    u = sublink(d, [1])
    assert len(u.components) == 1
    assert len(u.crossings) == 0


def test_sublink_empty_selection():
    d = from_braid(BraidWord(2, (1, 1)))
    with pytest.raises(EmptySelection):
        sublink(d, [])
    with pytest.raises(InputError):
        sublink(d, [5])
    # int() used to truncate 0.7 to 0 and read True as 1
    for keep in ([0.7], [True], ["1"], "01"):
        with pytest.raises(ValueError):
            sublink(d, keep)


def test_sublink_pd_resplices_arcs():
    d = parse_pd(HOPF_PD)
    u = sublink(d, [0])
    assert len(u.components) == 1
    assert len(u.crossings) == 0


def test_sublink_braid_vs_pd_agree():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(2, 7)))
        d = from_braid(BraidWord(n, word))
        if len(d.components) < 2 or d.free_arcs:
            continue
        keep = [0]
        via_braid = sublink(d, keep)
        via_pd = sublink(parse_pd(d.to_pd()), keep)
        pa = alexander_fox(wirtinger(via_braid))
        pb = alexander_fox(wirtinger(via_pd))
        assert pa.unit_equal(pb), (n, word)


def test_sublink_random_keep_sets_braid_vs_pd():
    rng = random.Random(57)
    tried = 0
    while tried < 15:
        n = rng.randint(3, 5)
        word = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(3, 8)))
        d = from_braid(BraidWord(n, word))
        if len(d.components) < 3 or d.free_arcs:
            continue
        tried += 1
        keep = sorted(rng.sample(range(len(d.components)),
                                 rng.randint(1, len(d.components) - 1)))
        via_braid = sublink(d, keep)
        via_pd = sublink(parse_pd(d.to_pd()), keep)
        assert len(via_braid.components) == len(via_pd.components) == len(keep)
        pa = alexander_fox(wirtinger(via_braid))
        pb = alexander_fox(wirtinger(via_pd))
        assert pa.unit_equal(pb), (n, word, keep)


def test_all_over_component_orientation():
    # split unknot circle lying entirely over another: exercised through a
    # PD where one component never goes under
    d = from_braid(BraidWord(3, (1, 1, 2, 2)))
    code = d.to_pd()
    again = parse_pd(code)
    assert len(again.components) == len(d.components)


@pytest.mark.parametrize("code, components, signs", [
    ([[1, 2, 2, 1]], ((1, 2),), [-1]),
    ([[2, 1, 1, 2]], ((1, 2),), [-1]),
    # two split pieces: the planarity check allows two faces for each
    ([[1, 2, 2, 1], [3, 4, 4, 3]], ((1, 2), (3, 4)), [-1, -1]),
    # two-arc all-over component, run from its first position, as the
    # label rule leaves it: it lies over the other one, so its two
    # crossings have opposite signs
    ([[1, 5, 2, 6], [2, 5, 3, 6], [3, 1, 4, 4]], ((1, 2, 3, 4), (5, 6)),
     [-1, 1, 1]),
    # four-arc all-over component (the closure of s1 s2 s2^-1 s1^-1),
    # walked 1, 8, 7, 5 from its first position: the label rule turns it
    # round, and each other component crosses it with signs -1 and +1
    ([[2, 8, 4, 1], [3, 7, 6, 8], [6, 7, 3, 5], [4, 5, 2, 1]],
     ((1, 5, 7, 8), (2, 4), (3, 6)), [-1, -1, 1, 1]),
])
def test_traversal_edge_cases(code, components, signs):
    d = parse_pd(code)
    assert d.components == components
    assert [c.sign for c in d.crossings] == signs


@pytest.mark.parametrize("code", [
    # two circles crossing once; a one-arc component always crosses the
    # other strand of its crossing just once
    [[1, 2, 1, 2]],
    # the two-arc all-over component crossing with one sign only
    [[1, 5, 2, 6], [2, 6, 3, 5], [3, 1, 4, 4]],
    # one-arc components, and a three-arc all-over one, which needs an
    # odd number of crossings with the rest
    [[5, 6, 5, 2], [4, 6, 4, 3], [1, 2, 1, 3]],
    # Alexander t^2 - 1 and det 0, which no 2-crossing diagram has
    [[1, 2, 3, 4], [3, 4, 1, 2]],
])
def test_parse_pd_rejects_non_planar_codes(code):
    with pytest.raises(MalformedPD, match="^no planar diagram"):
        parse_pd(code)


def test_braid_closure_codes_are_planar():
    # from_braid and sublink build planar diagrams, so parse_pd takes
    # their codes back
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 12) if n > 1 else 0)]
        d = from_braid(BraidWord(n, word))
        again = parse_pd(d.to_pd())
        assert len(again.crossings) == len(d.crossings)
        keep = rng.sample(range(len(again.components)),
                          rng.randint(1, len(again.components)))
        parse_pd(sublink(again, keep).to_pd())


def test_traversal_inconsistent_orientation():
    # arc 1 is the incoming under arc at both of its ends
    with pytest.raises(MalformedPD, match="^inconsistent strand orientation$"):
        parse_pd([[1, 3, 2, 4], [1, 4, 2, 3]])


def test_braid_cycles_align_with_components():
    for braid, cycles in (
            (BraidWord(4, (1, 1, 1, 3, 3)), ((0, 1), (2,), (3,))),
            (BraidWord(3, (1, 1)), ((0,), (1,), (2,)))):
        d = from_braid(braid)
        assert d.braid.strand_cycles() == cycles
        assert len(d.components) == len(cycles)
        # arc s + 1 is the top arc of strand s
        for comp, cycle in zip(d.components, cycles):
            assert {s + 1 for s in cycle} <= set(comp)


def test_seifert_fox_agreement_exhaustive_small_braids():
    from itertools import product
    for strands, letters, max_len in ((2, (1, -1), 7), (3, (1, -1, 2, -2), 5)):
        for length in range(0, max_len + 1):
            for word in product(letters, repeat=length):
                b = BraidWord(strands, word)
                ps = alexander_seifert(seifert_matrix(b))
                pf = alexander_fox(wirtinger(from_braid(b)))
                assert ps.unit_equal(pf), (strands, word)
