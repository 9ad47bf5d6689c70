"""The mat_mul compositions that psl2r.word_image, psl2r.psl_dist_sq and
repvar.trace_coordinates write out letter by letter, kept as the oracle
that test_kernels.py compares them with bit for bit."""

from itertools import combinations

from blowupgate.psl2r import IDENTITY, mat_inv, mat_mul, psl_sign
from blowupgate.repvar import _generator_mats, _sum


def word_image(word, mats):
    out = IDENTITY
    for letter in word:
        m = mats[abs(letter) - 1]
        out = mat_mul(out, m if letter > 0 else mat_inv(m))
    return out


def psl_dist_sq(x, y):
    s = psl_sign(x, y)
    d0, d1, d2, d3 = (a - s * b for a, b in zip(x, y))
    return d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3


def residual(p, rep):
    mats = _generator_mats(p, rep)
    return _sum(psl_dist_sq(word_image(w, mats), IDENTITY) for w in p.relators)


def trace_coordinates(p, rep):
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
