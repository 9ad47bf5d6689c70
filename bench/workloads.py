"""Seeded inputs, operations and output checks of the four workloads.

Every operation is one argv for ``blowupgate.cli.run``.  A workload
function writes its inputs to files before anything is timed.  The
checks run after timing and recompute what they compare with library
calls; only the census rule, that a triple's class set is the same for
every seed of a run, compares CLI outputs with each other.

Why these workloads:

- braid-links: Seifert route.  Per-call CLI work and one dense
  det(V - tV^T) per link in ``exact.laurent_det``, the largest library
  layer; the numerical layers are idle.
- pd-links: the same links as PD codes, so the Fox route runs instead:
  many sparse maximal minors and ``laurent_gcd``, PD traversal,
  ``wirtinger`` and PD ``sublink`` resplicing.
- rep-search: ``solve`` on surface groups of genus 1 and 2, surface1 x
  S^1, the trefoil group and free products of two genus-one groups,
  plus cheap ``euler`` calls on conjugates of ``fuchsian_genus2()``.
  The Levenberg-Marquardt loop and classification dominate; the exact
  layer is idle.
- census: ``brieskorn`` seed sweeps over small triples.  Thousands of
  one-dimensional LM restarts and rotation-number certificates.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from blowupgate.invariants import link_invariants
from blowupgate.links import BraidWord, from_braid, parse_pd, sublink, wirtinger
from blowupgate.psl2r import (PSL2, SL2, euler_number, fuchsian_genus2,
                              mat_inv, mat_mul, rotation)
from blowupgate.repvar import (BrieskornData, RepAssignment,
                               brieskorn_presentation, free_product,
                               is_irreducible, residual, surface_presentation,
                               surface_times_circle_presentation)

# (strands, Seifert size, links per repeat) of the generated braid
# closures.  A connected closure whose word uses every generator has
# Seifert size len(word) - strands + 1.  Larger three- and four-strand
# links are left out: there one link's Fox-route cost varies by a factor
# of ten between words of the same size, so a pass would not cost the
# same for every workload seed.  Two cells hold extra links, so that the
# median and the 90th latency percentile fall inside one cell each
# rather than between two cells.
LINK_CELLS = tuple([(2, size, 1) for size in (4, 6, 8)]
                   + [(2, 10, 4)]
                   + [(2, size, 1) for size in (12, 14, 16)]
                   + [(2, 18, 3)]
                   + [(3, size, 1) for size in (4, 6, 8, 10, 12)]
                   + [(4, size, 1) for size in (4, 6, 8)])
LINK_REPEATS = 12

TOL = 1e-10               # the CLI's default --tol of solve and brieskorn
EULER_PASS = 20           # euler operations per pass
CENSUS_TRIPLES = ((2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5))
CENSUS_SEEDS = 22         # seeds per triple
CENSUS_RESTARTS = 2


class CheckFailed(AssertionError):
    """A CLI output disagrees with its oracle."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    argv: list
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    check: object            # check(op, payload) raises CheckFailed
    pass_seconds: float      # one pass of the seed code on the reference host


def _write(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# links


def _random_braid(rng, strands, size, knot):
    """Random word using every generator, with a quarter of its letters
    negative, whose closure is a knot or has several components, as asked.

    The fixed share of negative letters keeps the cost of a cell steady:
    on two strands the closure is the torus knot T(2, positive - negative)
    whatever the word, and with free signs some words close up to the
    unknot, whose Fox route stops after the first minor.
    """
    length = size + strands - 1
    negative = max(1, length // 4)
    while True:
        signs = [-1] * negative + [1] * (length - negative)
        rng.shuffle(signs)
        word = tuple(sign * rng.randint(1, strands - 1) for sign in signs)
        if len({abs(w) for w in word}) != strands - 1:
            continue
        b = BraidWord(strands, word)
        if (len(b.strand_cycles()) == 1) != knot:
            continue
        db = from_braid(b)
        dp = parse_pd(db.to_pd())
        if {frozenset(c) for c in db.components} != \
                {frozenset(c) for c in dp.components}:
            continue
        return b, db, dp


def _links(rng, scale):
    """Seeded links with their monodromy labels.

    The share of knots, of links whose labels select one component, and
    of links with no labeled component is the same for every seed,
    because each changes the work of a gate operation.
    """
    repeats = max(1, round(LINK_REPEATS * scale))
    cells = [(strands, size) for strands, size, count in LINK_CELLS
             if scale >= 1 or size <= 6 for _ in range(count)]
    out = []
    for rep in range(repeats):
        for idx, (strands, size) in enumerate(cells):
            # two-strand closures of even Seifert size are knots
            knot = strands == 2 or rep % 2 == 0
            b, db, dp = _random_braid(rng, strands, size, knot)
            labels = [0] * len(db.components)
            # one link in eight, in a different cell each repeat, has no
            # labeled component
            if (idx + rep) % 8 != 7:
                labels[rng.randrange(len(labels))] = 1
            out.append((b, db, dp, labels))
    return out


def _poly(inv):
    coeffs, min_exp = inv.alexander.coeff_list()
    return {"coeffs": coeffs, "min_exp": min_exp}


def _check_h1(det, h1):
    if det != 0:
        _require(h1["rank"] == 0 and math.prod(h1["torsion"]) == det,
                 f"det {det} is not |H1| for {h1}")
    else:
        _require(h1["rank"] > 0, "det 0 but H1 has rank 0")


def _link_workload(rng, workdir, scale, via_pd, pass_seconds):
    ops = []
    for idx, (b, db, dp, labels) in enumerate(_links(rng, scale)):
        if via_pd:
            obj = {"pd": db.to_pd()}
        else:
            obj = {"braid": {"strands": b.strands, "word": list(b.word)}}
        path = _write(workdir, f"link{idx}.json", obj)
        # the diagram the CLI builds, and the one the oracle uses
        ours, other = (dp, db) if via_pd else (db, dp)
        data = {"ours": ours, "other": other, "labels": labels}
        ops.append(Op("invariants", ["invariants", path], data))
        ops.append(Op("gate", ["gate", path, "--monodromy",
                               ",".join(str(x) for x in labels)], data))
    rng.shuffle(ops)
    cache = {}

    def oracle(data, keep):
        """Invariants of the selected components by the other route."""
        ours, other = data["ours"], data["other"]
        key = (id(other), keep)
        if key not in cache:
            arcs = [frozenset(ours.components[i]) for i in keep]
            index = {frozenset(c): i for i, c in enumerate(other.components)}
            sel = sorted(index[a] for a in arcs)
            part = other if len(sel) == len(other.components) \
                else sublink(other, sel)
            cache[key] = link_invariants(part)
        return cache[key]

    def check(op, payload):
        data = op.data
        ours = data["ours"]
        ncomp = len(ours.components)
        route = "fox" if via_pd else "seifert"
        if op.kind == "invariants":
            ref = oracle(data, tuple(range(ncomp)))
            _require(ref.h1_method != route, "oracle used the same route")
            _require(payload["h1_method"] == route, "unexpected route")
            _require(payload["components"] == ncomp, "component count")
            _require(payload["alexander"] == _poly(ref), "Alexander polynomial")
            _require(payload["det"] == ref.det, "determinant")
            h1 = payload["h1_branched"]
            _require(h1 == {"rank": ref.h1_branched.rank,
                            "torsion": list(ref.h1_branched.torsion)}, "H1")
            _check_h1(payload["det"], h1)
            _require(payload["b1_positive"] == (h1["rank"] > 0), "b1_positive")
            return
        keep = tuple(i for i, flag in enumerate(data["labels"]) if flag)
        cert = payload["certificates"]
        status, reasons = payload["status"], payload["reasons"]
        _require(cert["z_components"] == ncomp, "z_components")
        _require(cert["z1_components"] == len(keep), "z1_components")
        _require(("ConnectedZ" in reasons) == (ncomp == 1), "ConnectedZ")
        if not keep:
            _require(cert["det"] is None, "certificates without a sublink")
            _require(status == ("obstructed" if ncomp == 1 else "indeterminate"),
                     "status with an empty labeled sublink")
            return
        ref = oracle(data, keep)
        _require(cert["h1_method"] == route, "unexpected sublink route")
        _require(cert["alexander_z1"] == _poly(ref), "sublink Alexander")
        _require(cert["det"] == ref.det, "sublink determinant")
        _require(cert["h1_branched"] == {"rank": ref.h1_branched.rank,
                                         "torsion": list(ref.h1_branched.torsion)},
                 "sublink H1")
        _check_h1(cert["det"], cert["h1_branched"])
        _require(("DeterminantNonzero" in reasons) == (ref.det != 0),
                 "DeterminantNonzero")
        _require(status == ("obstructed" if ncomp == 1 or ref.det != 0
                            else "admissible"), "gate status")

    return Workload(ops, check, pass_seconds)


def braid_links(rng, workdir, scale=1.0):
    return _link_workload(rng, workdir, scale, via_pd=False, pass_seconds=2.0)


def pd_links(rng, workdir, scale=1.0):
    return _link_workload(rng, workdir, scale, via_pd=True, pass_seconds=10.0)


# ---------------------------------------------------------------------------
# representation search


def _presentations():
    """(name, presentation, restarts per solve, solve operations per pass).

    The cost of one LM restart depends on its seed.  On the genus-one
    groups below it varies by 0.3 to 0.45 of its mean and never exceeds
    three times the mean; on the genus-two surface group and the trefoil
    group it varies by 1.6 of its mean, because a few restarts run to the
    iteration limit (surface2 x S^1 and the figure-eight group are worse
    still and are left out).  Most restarts therefore go to genus-one
    groups, so that a pass costs the same for every workload seed, and
    the heavy-tailed groups get few.  The median operation falls inside
    the surface1xS1 block and the 90th percentile inside the free-product
    block.
    """
    s1, s2 = surface_presentation(1), surface_presentation(2)
    sc1 = surface_times_circle_presentation(1)
    trefoil = wirtinger(from_braid(BraidWord(2, (1, 1, 1))))
    return [
        ("surface1", s1, 4, 12),
        ("surface2", s2, 1, 4),
        ("trefoil", trefoil, 1, 2),
        ("surface1xS1", sc1, 4, 80),
        ("surface1*surface1", free_product(s1, s1), 8, 36),
    ]


def _random_sl2(rng):
    d = rng.uniform(-1.0, 1.0)
    hyp = (math.exp(d), 0.0, 0.0, math.exp(-d))
    return mat_mul(mat_mul(rotation(rng.uniform(0, math.pi)), hyp),
                   rotation(rng.uniform(0, math.pi)))


def rep_search(rng, workdir, scale=1.0):
    ops = []
    for name, pres, restarts, count in _presentations():
        path = _write(workdir, f"pres_{name}.json",
                      {"generators": list(pres.generators),
                       "relators": [list(r) for r in pres.relators]})
        for _ in range(max(1, round(count * scale))):
            ops.append(Op("solve", ["solve", path, "--restarts", str(restarts),
                                    "--seed", str(rng.randrange(10 ** 6))],
                          {"pres": pres}))
    base = fuchsian_genus2()
    expected = euler_number(base, 2)
    for idx in range(max(1, round(EULER_PASS * scale))):
        g = _random_sl2(rng)
        gi = mat_inv(g)
        mats = {k: PSL2(SL2(*mat_mul(mat_mul(g, m.tuple()), gi))).matrix_rows()
                for k, m in base.items()}
        path = _write(workdir, f"rep{idx}.json", {"matrices": mats})
        ops.append(Op("euler", ["euler", path, "--genus", "2"],
                      {"expected": expected}))
    rng.shuffle(ops)

    def check(op, payload):
        if op.kind == "euler":
            e = payload["euler"]
            _require(abs(e) <= 2 * payload["genus"] - 2, "Milnor-Wood bound")
            _require(e == op.data["expected"] and abs(e) == 2,
                     f"Euler number {e} of a Fuchsian conjugate")
            return
        pres = op.data["pres"]
        sols = payload["solutions"]
        _require(payload["count"] == len(sols), "solution count")
        for sol in sols:
            rep = RepAssignment({g: PSL2.from_matrix(rows)
                                 for g, rows in sol["matrices"].items()})
            _require(sol["residual"] < TOL, "reported residual")
            _require(residual(pres, rep) < TOL, "recomputed residual")

    return Workload(ops, check, pass_seconds=7.0)


# ---------------------------------------------------------------------------
# Brieskorn census


def census(rng, workdir, scale=1.0):
    ops = []
    seeds = max(2, round(CENSUS_SEEDS * scale))
    triples = CENSUS_TRIPLES if scale >= 1 else CENSUS_TRIPLES[:2]
    for triple in triples:
        for _ in range(seeds):
            ops.append(Op("brieskorn",
                          ["brieskorn", *map(str, triple),
                           "--restarts", str(CENSUS_RESTARTS),
                           "--seed", str(rng.randrange(10 ** 6))],
                          {"triple": triple}))
    rng.shuffle(ops)
    class_sets = {}
    presentations = {t: brieskorn_presentation(BrieskornData(*t))
                     for t in triples}

    def check(op, payload):
        triple = op.data["triple"]
        pres = presentations[triple]
        keys = []
        for cls in payload["census"]:
            rep = RepAssignment({g: PSL2.from_matrix(rows)
                                 for g, rows in cls["matrices"].items()})
            trivial = cls["angles"] == [0, 0, 0]
            _require(cls["residual"] < TOL, "reported residual")
            _require(residual(pres, rep) < TOL, "recomputed residual")
            if not trivial:
                _require(cls["irreducible"] and is_irreducible(rep),
                         "nontrivial class is reducible")
            keys.append((tuple(cls["angles"]),
                         tuple(round(t, 6) for t in cls["traces"])))
        _require(payload["count"] == len(keys) and keys, "census size")
        _require(class_sets.setdefault(triple, keys) == keys,
                 f"census of {triple} differs between seeds")

    return Workload(ops, check, pass_seconds=5.5)


WORKLOADS = {
    "braid-links": braid_links,
    "pd-links": pd_links,
    "rep-search": rep_search,
    "census": census,
}
