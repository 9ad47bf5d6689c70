"""Admissibility gate for candidate degeneration links, plus weighted
flows on graphs with homology labels.

The gate combines two necessary conditions on a labeled link: the whole
link must be disconnected, and the sublink of components with nontrivial
meridian monodromy must have vanishing determinant (Alexander value at
-1).  Passing the gate means "not obstructed", never "realizable".

Flows assign positive rational weights and orientations to graph edges
subject to conservation at every vertex; integer flows map to first
homology by summing edge labels, and the multiples of a class that land
in a finite admissible set are enumerated, in an exact.AbelianGroup such
as link_invariants(d).h1_branched.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import BlowupgateError, InputError, _integer, _integers, _Record
from .exact import AbelianGroup
from .invariants import LinkInvariants, link_invariants
from .links import LinkDiagram, sublink


class LabelLengthMismatch(BlowupgateError, ValueError):
    """Monodromy label vector does not match the component count."""


class SizeMismatch(BlowupgateError, ValueError):
    """Flow data does not match the edge count of its graph."""


class NonIntegerWeights(BlowupgateError, ValueError):
    """Homology classes require integer flow weights."""


OBSTRUCTED = "obstructed"
ADMISSIBLE = "admissible"
INDETERMINATE = "indeterminate"

REASON_CONNECTED = "ConnectedZ"
REASON_DETERMINANT = "DeterminantNonzero"
REASON_EMPTY = "EmptyZ1"


class Verdict(_Record):
    """Outcome of gate: a status, its reason codes, and the invariants of
    the labeled sublink, or None when no component is labeled."""

    status: str
    reasons: tuple
    invariants: LinkInvariants | None

    def __init__(self, status, reasons, invariants):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "reasons", reasons)
        object.__setattr__(self, "invariants", invariants)


def _label(x):
    if not (isinstance(x, int) and x in (0, 1)):  # bools are ints
        raise InputError(f"monodromy label {x!r} is not True, False, 0 or 1")
    return x


def gate(d: LinkDiagram, labels) -> Verdict:
    """Evaluate the necessary conditions on a link with monodromy labels.

    labels[i] is True or 1 when the meridian monodromy of component i is
    nontrivial, False or 0 when it is trivial; other labels raise
    InputError.  A one-component link is always obstructed; a nonempty
    labeled sublink with nonzero determinant is obstructed; an empty
    labeled sublink leaves the test indeterminate.
    """
    labels = _integers(labels, _label)
    ncomp = d.component_count
    if len(labels) != ncomp:
        raise LabelLengthMismatch(
            f"{len(labels)} labels for {ncomp} components")

    keep = [i for i, flag in enumerate(labels) if flag]
    reasons = [REASON_CONNECTED] if ncomp == 1 else []
    inv = None
    if keep:
        inv = link_invariants(d if len(keep) == ncomp else sublink(d, keep))
        if inv.det != 0:
            reasons.append(REASON_DETERMINANT)
    elif not reasons:
        return Verdict(INDETERMINATE, (REASON_EMPTY,), None)
    return Verdict(OBSTRUCTED if reasons else ADMISSIBLE, tuple(reasons), inv)


# ---------------------------------------------------------------------------
# elements of a homology group


class HomologyElement(_Record):
    """Coordinates in an AbelianGroup: the free part, then torsion residues."""

    free: tuple
    torsion: tuple

    def __init__(self, free, torsion=()):
        object.__setattr__(self, "free", _integers(free))
        object.__setattr__(self, "torsion", _integers(torsion))

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


def _element(x) -> HomologyElement:
    if not isinstance(x, HomologyElement):
        raise InputError(f"{x!r} is not a HomologyElement")
    return x


def reduce_element(h: AbelianGroup, el: HomologyElement) -> HomologyElement:
    """el with each torsion coordinate reduced modulo its divisor in h."""
    if len(el.free) != h.rank or len(el.torsion) != len(h.torsion):
        raise SizeMismatch("element does not fit the homology group")
    return HomologyElement(el.free,
                           tuple(r % d for r, d in zip(el.torsion, h.torsion)))


def scale_element(h: AbelianGroup, k: int, el: HomologyElement) -> HomologyElement:
    """k times el, reduced in h."""
    return reduce_element(h, HomologyElement(tuple(k * x for x in el.free),
                                             tuple(k * x for x in el.torsion)))


class FlowGraph(_Record):
    """Directed multigraph (loops allowed) with optional homology labels."""

    vertices: int
    edges: tuple                 # (tail, head) pairs, reference orientation
    labels: tuple | None         # HomologyElement per edge

    def __init__(self, vertices, edges, labels=None):
        vertices = _integer(vertices)
        edges = _integers(edges, _integers)
        for edge in edges:
            if len(edge) != 2:
                raise InputError(f"edge {edge} is not a (tail, head) pair")
            a, b = edge
            if not (0 <= a < vertices and 0 <= b < vertices):
                raise InputError(f"edge ({a}, {b}) references a missing vertex")
        if labels is not None:
            labels = _integers(labels, _element)
            if len(labels) != len(edges):
                raise SizeMismatch("one label per edge required")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)


def _fraction(x) -> Fraction:
    """x as a Fraction, refusing with InputError what Fraction() refuses."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise InputError(f"{x!r} is not a rational number") from None


class Flow(_Record):
    """Signed rational weight per edge; sign flips the reference orientation.

    Zero entries mean the edge is outside the support.
    """

    signed: tuple

    def __init__(self, signed):
        object.__setattr__(self, "signed", _integers(signed, _fraction))

    @staticmethod
    def from_weights(weights, orientations) -> "Flow":
        weights = _integers(weights, _fraction)
        orientations = _integers(orientations)
        if len(weights) != len(orientations):
            raise SizeMismatch("weights and orientations differ in length")
        if any(w < 0 for w in weights):
            raise InputError("weights must be positive")
        if any(o not in (1, -1) for o in orientations):
            raise InputError("orientations must be +-1")
        return Flow(tuple(map(mul, weights, orientations)))

    @staticmethod
    def zero(n_edges: int) -> "Flow":
        return Flow((Fraction(0),) * _integer(n_edges))

    @property
    def weights(self) -> tuple:
        return tuple(abs(x) for x in self.signed)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.signed)

    def __neg__(self) -> "Flow":
        return Flow(tuple(-x for x in self.signed))


def _check_sizes(g: FlowGraph, f: Flow):
    if len(f.signed) != len(g.edges):
        raise SizeMismatch(
            f"flow has {len(f.signed)} entries for {len(g.edges)} edges")


def is_flow(g: FlowGraph, f: Flow) -> bool:
    """Conservation at every vertex: inflow equals outflow.

    Loop edges feed both sides equally, so they are unconstrained.
    """
    _check_sizes(g, f)
    net = {}  # vertex -> inflow minus outflow
    for (tail, head), w in zip(g.edges, f.signed):
        net[head] = net.get(head, 0) + w
        net[tail] = net.get(tail, 0) - w
    return not any(net.values())


def flow_add(f1: Flow, f2: Flow) -> Flow:
    if len(f1.signed) != len(f2.signed):
        raise SizeMismatch("flows live on different graphs")
    return Flow(tuple(a + b for a, b in zip(f1.signed, f2.signed)))


def homology_class(g: FlowGraph, f: Flow, h: AbelianGroup) -> HomologyElement:
    """Sum of signed edge labels, reduced in the homology group h, such as
    link_invariants(d).h1_branched or Presentation.abelianization().

    Requires a flow (see is_flow) with integer weights: only integer
    multiples of cycles carry a homology class.  A chain that is not a
    flow, or a graph without labels, raises InputError.
    """
    if not is_flow(g, f):
        raise InputError("a chain that is not a flow has no homology class")
    if g.labels is None:
        raise InputError("graph has no homology labels")
    if not f.is_integral:
        raise NonIntegerWeights("homology classes need integer weights")
    # check the shapes first: a rank the labels lack is a SizeMismatch,
    # not a zero element of that rank
    labels = [reduce_element(h, label) for label in g.labels]
    try:
        total = [0] * (h.rank + len(h.torsion))
    except (OverflowError, MemoryError) as exc:
        # only a graph without edges reaches this with an unchecked rank
        raise SizeMismatch(f"rank {h.rank} is too large") from exc
    for label, w in zip(labels, f.signed):
        total = [t + int(w) * x
                 for t, x in zip(total, label.free + label.torsion)]
    return reduce_element(h, HomologyElement(total[:h.rank], total[h.rank:]))


class RealizableK(_Record):
    """Integers k with k*c inside a finite admissible set.

    Finite whenever c has nonzero free part; for torsion classes the
    solutions recur modulo the class order and are reported as residues,
    not enumerated.
    """

    finite: bool
    values: tuple
    residues: tuple
    modulus: int

    def __init__(self, finite, values=(), residues=(), modulus=0):
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "modulus", modulus)


def realizable_k(c: HomologyElement, admissible, h: AbelianGroup) -> RealizableK:
    """The k with k*c in admissible, elements of h (see RealizableK)."""
    admissible = [reduce_element(h, a) for a in admissible]
    c = reduce_element(h, c)
    if any(c.free):
        pivot = next(i for i, x in enumerate(c.free) if x)
        ks = set()
        for a in admissible:
            q, r = divmod(a.free[pivot], c.free[pivot])
            if r != 0:
                continue
            if scale_element(h, q, c) == a:
                ks.add(q)
        return RealizableK(finite=True, values=tuple(sorted(ks)))
    # torsion class: k*c only depends on k modulo the order of c
    order = 1
    for res, d in zip(c.torsion, h.torsion):
        if res % d:
            part = d // gcd(d, res)
            order = order * part // gcd(order, part)
    # each admissible element with no free part fixes at most one residue
    hits = (_torsion_multiple(c.torsion, a.torsion, h.torsion)
            for a in admissible if not any(a.free))
    residues = tuple(sorted({k for k in hits if k is not None}))
    if not residues:
        return RealizableK(finite=True, values=())
    return RealizableK(finite=False, residues=residues, modulus=order)


def _torsion_multiple(c, a, moduli):
    """The residue k modulo the order of c with k c_j = a_j (mod d_j) for
    every factor j, or None when there is none.

    With g = gcd(c_j, d_j), factor j needs g | a_j and then gives
    k = (a_j / g) (c_j / g)^-1 modulo d_j / g; the factors combine by
    the Chinese remainder theorem for moduli that need not be coprime.
    """
    k, m = 0, 1
    for cj, aj, d in zip(c, a, moduli):
        g = gcd(cj, d)
        if aj % g:
            return None
        dj = d // g
        kj = aj // g * pow(cj // g, -1, dj) % dj
        e = gcd(m, dj)      # merge k mod m with kj mod dj
        if (kj - k) % e:
            return None
        k += m * ((kj - k) // e * pow(m // e, -1, dj // e) % (dj // e))
        m = m // e * dj
    return k
