"""The written-out 2x2 products of word_image, psl_dist_sq and
trace_coordinates (and so residual) against the mat_mul compositions of
kernel_helpers, bit for bit: results are compared as packed doubles, so
a signed zero must keep its sign and a NaN must sit where the oracle's
does.  Regrouping any one sum moves the last bit of some random case."""

import json
import math
import random
import struct
from pathlib import Path

import pytest

from blowupgate.links import Presentation
from blowupgate.psl2r import (IDENTITY, PSL2, psl_dist_sq,
                              surface_generator_names, word_image)
from blowupgate.repvar import (BrieskornData, brieskorn_presentation,
                               residual, surface_presentation,
                               trace_coordinates)

import kernel_helpers as oracle


def packed(values) -> bytes:
    """values as little-endian doubles, every NaN as the one pattern."""
    return struct.pack(f"<{len(values)}d",
                       *(math.nan if v != v else v for v in values))


def assert_kernels_agree(pres, rep):
    """word_image of every relator, psl_dist_sq of every pair of images
    and against IDENTITY, residual and trace_coordinates agree with the
    oracle's; returns every value compared."""
    mats = [rep[name].tuple() for name in pres.generators]
    images = [word_image(w, mats) for w in pres.relators]
    assert packed([v for m in images for v in m]) == packed(
        [v for w in pres.relators for v in oracle.word_image(w, mats)])
    pairs = [(x, y) for x in images + mats
             for y in images + mats + [IDENTITY]]
    dists = [psl_dist_sq(x, y) for x, y in pairs]
    assert packed(dists) == packed([oracle.psl_dist_sq(x, y)
                                    for x, y in pairs])
    res = residual(pres, rep)
    assert packed([res]) == packed([oracle.residual(pres, rep)])
    key = trace_coordinates(pres, rep)
    assert packed(key) == packed(oracle.trace_coordinates(pres, rep))
    return [v for m in images for v in m] + dists + [res, *key]


def random_group(rng, entry):
    """1-5 generators with entries drawn by entry, unchecked, and four
    words of up to 12 letters of both signs."""
    n = rng.randint(1, 5)
    names = tuple(f"g{i}" for i in range(1, n + 1))
    words = tuple(tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                        for _ in range(rng.randint(0, 12)))
                  for _ in range(4))
    rep = {name: PSL2._of(tuple(entry(rng) for _ in range(4)))
           for name in names}
    return Presentation(names, words), rep


def _random(rng):
    return rng.gauss(0.0, 1.0) * 10 ** rng.uniform(-3, 3)


def _signed_zero(rng):
    return rng.choice((0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.0))


def _huge(rng):
    # products of two entries near 1e154 overflow in a sum of squares,
    # and of entries near 1e300 in every product
    size = rng.choice((rng.uniform(153, 156), rng.uniform(298, 307),
                       rng.uniform(-1, 1)))
    return rng.choice((-1.0, 1.0)) * 10 ** size


def _nan(rng):
    if rng.random() < 0.1:
        return rng.choice((math.nan, math.inf, -math.inf))
    return rng.gauss(0.0, 1.0)


def _has_negative_zero(values):
    return any(v == 0 and math.copysign(1.0, v) < 0 for v in values)


@pytest.mark.parametrize("entry, seen", [
    (_random, lambda vs: all(map(math.isfinite, vs))),
    (_signed_zero, _has_negative_zero),
    (_huge, lambda vs: math.inf in vs and any(v != v for v in vs)),
    (_nan, lambda vs: any(v != v for v in vs)),
], ids=["random", "signed-zeros", "overflow", "nan"])
def test_kernels_match_the_mat_mul_oracle(entry, seen):
    rng = random.Random(f"kernels:{entry.__name__}")
    values = []
    for _ in range(150):
        values += assert_kernels_agree(*random_group(rng, entry))
    assert seen(values)


def _corpus_groups():
    """(presentation, assignment) for every class that the numeric golden
    corpus prints, and for every euler input it reads."""
    path = Path(__file__).with_name("data") / "cli_numeric_golden.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        case = json.loads(line)
        if case["exit"] != 0:
            continue
        command, out = case["argv"][0], case["output"]
        if command == "euler":
            pres = surface_presentation(2)
            classes = [case["input"]]
        elif command == "solve":
            pres = Presentation(case["input"]["generators"],
                                case["input"]["relators"])
            classes = out["solutions"]
        else:
            pres = brieskorn_presentation(BrieskornData(*out["exponents"]))
            classes = out["census"]
        for cls in classes:
            yield pres, {name: PSL2.from_matrix(rows)
                         for name, rows in cls["matrices"].items()}


def test_kernels_match_the_mat_mul_oracle_on_the_numeric_corpus():
    groups = list(_corpus_groups())
    assert len(groups) > 200
    assert {tuple(p.generators) for p, _ in groups} >= {
        ("x1", "x2", "x3", "h"), tuple(surface_generator_names(2))}
    for pres, rep in groups:
        assert_kernels_agree(pres, rep)


def test_psl_dist_sq_takes_the_sign_of_the_dot_product_left_to_right():
    # orthogonal to within rounding (found by a seeded search): summed
    # left to right and as x0 y0 + (x1 y1 + x2 y2) + x3 y3 the dot
    # product has opposite signs, and the two distances differ in the
    # last bit
    x = (-1.0746327428812226, -0.8438288140833818, -0.5124543820595373,
         -0.28679378157528723)
    y = (-0.9067038852377295, 0.42201196552540204, -0.5475100896942942,
         3.134104814003712)
    assert packed([psl_dist_sq(x, y)]) == packed([oracle.psl_dist_sq(x, y)])
