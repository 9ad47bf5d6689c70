"""Combinatorial link diagrams from PD codes and braid words.

Conventions used throughout:

- A PD crossing (a, b, c, d) lists the four incident arc labels
  counterclockwise starting from the incoming under-arc, so the under
  strand runs a -> c.
- The over strand runs d -> b at a positive crossing and b -> d at a
  negative one.
- The positive braid generator is a right-handed crossing.

Components with no crossings (split unknot pieces) are carried as
single free arcs that appear in no crossing record.
"""

from __future__ import annotations

from bisect import bisect
from itertools import count

from .errors import BlowupgateError, InputError, _integer, _integers, _Record
from .exact import IntMatrix, AbelianGroup, cokernel


class MalformedPD(BlowupgateError, ValueError):
    """PD code fails validation (arc counts or traversal)."""


class InvalidLetter(BlowupgateError, ValueError):
    """Braid letter out of range for the declared strand count."""


class EmptySelection(BlowupgateError, ValueError):
    """Sublink extraction with no components selected."""


class BraidWord(_Record):
    """A word in the braid group B_n; letter +-i is the i-th generator."""

    strands: int
    word: tuple

    def __init__(self, strands, word=()):
        strands, word = _integer(strands), _integers(word)
        if strands < 1:
            raise InvalidLetter("strand count must be >= 1")
        for w in word:
            if w == 0 or abs(w) > strands - 1:
                raise InvalidLetter(f"letter {w} invalid for {strands} strands")
        self._store(strands, word)

    def permutation(self) -> tuple:
        """perm[s] = closure successor of the strand starting at position s."""
        n = self.strands
        occ = list(range(n))
        for w in self.word:
            i = abs(w) - 1
            occ[i], occ[i + 1] = occ[i + 1], occ[i]
        perm = [0] * n
        for pos, s in enumerate(occ):
            perm[s] = pos
        return tuple(perm)

    def strand_cycles(self) -> tuple:
        """Cycles of the closure permutation (see _cycles)."""
        return _cycles(self.permutation())


def _cycles(perm) -> tuple:
    """Cycles of the permutation perm of range(len(perm)), each starting
    at its minimum, in the order of their minima."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        if cyc:
            cycles.append(tuple(cyc))
    return tuple(cycles)


class Crossing(_Record):
    arcs: tuple  # (a, b, c, d), counterclockwise from the incoming under-arc
    sign: int    # +1 right-handed, -1 left-handed


class LinkDiagram(_Record):
    """A link diagram; braid is the word it is the closure of, or None.

    braid alone marks the braid routes.  On a closure, component i holds
    the top arc of each strand in cycle i of braid.strand_cycles().

    A closure made by from_braid holds only its braid at first.  Its
    crossings and components are assembled from the braid the first time
    either is read, and then kept; component_count and the braid routes
    read neither.
    """

    crossings: tuple
    components: tuple  # tuples of arc labels in traversal order, sorted by min arc
    braid: BraidWord | None = None

    def __getattr__(self, name):
        # runs only for an attribute the instance lacks: the code of a
        # closure that has not been assembled yet
        if (name not in ("crossings", "components")
                or "braid" not in vars(self)):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        self._store(*_braid_pd(self.braid))
        return vars(self)[name]

    @property
    def component_count(self) -> int:
        """len(self.components); a closure not yet assembled counts the
        cycles of its braid instead."""
        if "components" in vars(self):
            return len(self.components)
        return len(self.braid.strand_cycles())

    @property
    def arcs(self) -> frozenset:
        labels = set()
        for comp in self.components:
            labels.update(comp)
        return frozenset(labels)

    @property
    def free_arcs(self) -> frozenset:
        used = set()
        for c in self.crossings:
            used.update(c.arcs)
        return frozenset(a for a in self.arcs if a not in used)

    def to_pd(self) -> list:
        """The PD code of the crossings.  A PD code cannot hold a
        component without crossings: parse_pd(d.to_pd()) drops each one."""
        return [list(c.arcs) for c in self.crossings]


def _generator_name(x) -> str:
    if not isinstance(x, str):
        raise InputError(f"generator name {x!r} is not a string")
    return x


class Presentation(_Record):
    """Finitely presented group; relators are words of signed 1-based indices."""

    generators: tuple
    relators: tuple
    meridian_markers: tuple | None  # per component, 1-based generator index

    def __init__(self, generators, relators, meridian_markers=None):
        generators = _integers(generators, _generator_name)
        relators = _integers(relators, _integers)
        n = len(generators)
        if len(set(generators)) != n:
            raise InputError("generator names must be distinct")
        for r in relators:
            for letter in r:
                if letter == 0 or abs(letter) > n:
                    raise InputError(f"relator letter {letter} out of range")
        if meridian_markers is not None:
            meridian_markers = _integers(meridian_markers)
            for m in meridian_markers:
                if not 1 <= m <= n:
                    raise InputError(f"meridian marker {m} out of range")
        self._store(generators, relators, meridian_markers)

    def exponent_matrix(self) -> IntMatrix:
        rows = []
        for r in self.relators:
            row = [0] * len(self.generators)
            for letter in r:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return IntMatrix._of_rows(rows, len(self.generators))

    def abelianization(self) -> AbelianGroup:
        return cokernel(self.exponent_matrix())


# ---------------------------------------------------------------------------
# diagram assembly


def _arc_ends(rows) -> dict:
    """arc -> the (crossing, slot) positions it fills in the arc rows
    (a, b, c, d), in order."""
    ends = {}
    for idx, arcs in enumerate(rows):
        for slot, arc in enumerate(arcs):
            ends.setdefault(arc, []).append((idx, slot))
    return ends


def _traverse(rows, ends):
    """Component cycles of arcs and the direction of each over strand.

    ends maps each arc to its two (crossing, slot) positions in the arc
    rows (see _arc_ends); the walk uses it up.  The walk leaves an arc
    at slot s, arrives at slot s ^ 2 of the same crossing (the other end
    of the under path 0-2 or the over path 1-3) and leaves the arc found
    there through that arc's other position.  It alternates between two
    perfect matchings of the positions, so it always comes back to the
    arc it started from.  Under paths vote on the direction of each
    component: the under strand runs slot 0 -> 2.  Returns (components,
    over_forward) where over_forward[i] is True when the over strand of
    crossing i runs slot 1 -> 3.
    """
    components, over_forward = [], {}
    for start in sorted(ends):
        if start not in ends:  # already walked
            continue
        cyc, steps = [start], []  # start is the least arc of its component
        idx, slot = ends.pop(start)[0]
        while True:
            steps.append((idx, slot))
            arc = rows[idx][slot ^ 2]
            if arc == start:
                break
            first, second = ends.pop(arc)
            idx, slot = second if first == (idx, slot ^ 2) else first
            cyc.append(arc)

        votes = {slot == 0 for _idx, slot in steps if slot % 2 == 0}
        if len(votes) > 1:
            raise MalformedPD("inconsistent strand orientation")
        if votes:
            flip = not votes.pop()
        else:
            # all-over component: run it so the arc after the minimum is
            # its smaller neighbour (labels increase along the strand)
            flip = len(cyc) > 1 and cyc[-1] < cyc[1]
        if flip:
            cyc = cyc[:1] + cyc[:0:-1]
        for idx, slot in steps:
            if slot % 2:
                over_forward[idx] = (slot == 1) != flip
        components.append(tuple(cyc))
    return components, over_forward


def _check_planar(n: int, ends) -> None:
    """Refuse a code with n crossings that no diagram on the sphere has.

    The faces of the counterclockwise rotation system are the orbits of
    one step: leave slot s along its arc, arrive at slot s' of the
    crossing at its other end and go on from slot (s' + 1) % 4 there.
    By Euler's formula a diagram on the sphere with n crossings, 2n arcs
    and k connected pieces has n + 2k faces; with fewer, the code only
    fits a surface of higher genus.  Two closed curves in the plane
    cross an even number of times, which such a code need not respect.
    """
    step = [0] * (4 * n)  # position 4 * crossing + slot -> next position
    for (i, s), (j, t) in ends.values():
        step[4 * i + s] = 4 * j + (t + 1) % 4
        step[4 * j + t] = 4 * i + (s + 1) % 4
    faces = len(_cycles(step))
    find, union = _union_find(range(n))
    for (i, _s), (j, _t) in ends.values():  # the crossings at an arc's ends
        union(i, j)
    pieces = len({find(i) for i in range(n)})
    if faces != n + 2 * pieces:
        raise MalformedPD(f"no planar diagram has this code: {faces} faces, "
                          f"{n} crossings, {pieces} connected pieces")


def parse_pd(code) -> LinkDiagram:
    """Build a diagram from a PD code (list of 4-tuples of arc labels).

    The empty code is the one-component zero-crossing unknot.  A code
    that no planar diagram has raises MalformedPD (see _check_planar).
    """
    code = _integers(code, _integers)
    if not code:
        return LinkDiagram(crossings=(), components=((1,),))
    for row in code:
        if len(row) != 4:
            raise MalformedPD(f"crossing {row} does not have 4 arcs")
        for a in row:
            if a <= 0:
                raise MalformedPD(f"arc label {a} is not a positive integer")
    ends = _arc_ends(code)
    for a, where in ends.items():
        if len(where) != 2:
            raise MalformedPD(f"arc {a} appears {len(where)} times, "
                              "expected 2")
    _check_planar(len(code), ends)
    comps, over_forward = _traverse(code, ends)
    # over strand running d -> b is a right-handed crossing
    crossings = tuple(Crossing(row, -1 if over_forward[idx] else 1)
                      for idx, row in enumerate(code))
    return LinkDiagram(crossings=crossings, components=tuple(sorted(comps)))


def _union_find(items):
    """find and union functions over items.  find halves paths; the least
    element of each class is its representative."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    return find, union


def _assemble(raw, signs, arcs, find) -> tuple:
    """(crossings, components) of the diagram with the arc rows raw and
    these crossing signs, once the classes of arcs under find are
    renamed 1, 2, ... in order of their least member.  A class that
    meets no crossing becomes a free arc."""
    reps = sorted({find(a) for a in arcs})
    label = {rep: i for i, rep in enumerate(reps, 1)}
    rows = [tuple(label[find(a)] for a in row) for row in raw]
    ends = _arc_ends(rows)
    free = [(a,) for a in label.values() if a not in ends]
    comps, _over = _traverse(rows, ends)
    return tuple(map(Crossing, rows, signs)), tuple(sorted(comps + free))


def from_braid(b: BraidWord) -> LinkDiagram:
    """Diagram of the braid closure.

    Component count equals the cycle count of the strand permutation;
    strands that meet no crossing close up into free unknot components.
    Its crossings and components are assembled from b the first time
    either is read; component_count and the braid routes read neither.
    """
    if not isinstance(b, BraidWord):
        raise InputError(f"{b!r} is not a BraidWord")
    return LinkDiagram._of(braid=b)


def _braid_pd(b: BraidWord) -> tuple:
    """(crossings, components) of the closure of b."""
    occ = list(range(1, b.strands + 1))  # strand pos starts at arc pos + 1
    fresh = count(b.strands + 1)
    raw, signs = [], []
    for w in b.word:
        i = abs(w) - 1
        u, v = occ[i], occ[i + 1]
        x, y = next(fresh), next(fresh)
        raw.append((v, y, x, u) if w > 0 else (u, v, y, x))
        signs.append(1 if w > 0 else -1)
        occ[i], occ[i + 1] = x, y
    # the bottom arc at pos closes up with the top arc pos + 1, and no
    # other arc does: a top arc stays at its own pos until a letter
    # replaces it.  So arc pos + 1 is the least arc of its class and keeps
    # its label, and the components come in the order of the strand cycles
    top = {last: first for first, last in enumerate(occ, 1)}
    return _assemble(raw, signs, range(1, next(fresh)),
                     lambda a: top.get(a, a))


# ---------------------------------------------------------------------------
# Seifert matrices for braid closures


def seifert_matrix(b: BraidWord) -> IntMatrix:
    """Seifert matrix V of the braid closure from disk-and-band loops:
    the linking form of a basis of the first homology of the surface.

    Bands hang between consecutive disks at the positions of the braid
    letters; there is one loop per consecutive pair of bands at the same
    level, taken level by level from left to right.  A level with no
    letters gets one zero loop (a pair of parallel untwisted connector
    bands) so the surface is connected; this keeps the closure type
    while making the determinant vanish and the homology pick up a free
    summand for split closures.  A loop links only its neighbours on
    the same level and the loops one level down whose band interval
    crosses its own.

    det(V - t V^T) is the one-variable Alexander polynomial up to units,
    and V + V^T presents the first homology of the double branched cover.
    The surface has genus (V.rows - len(b.strand_cycles()) + 1) // 2.
    """
    bands = [[] for _ in range(b.strands - 1)]  # (position, sign) per level
    for pos, w in enumerate(b.word):
        bands[abs(w) - 1].append((pos, 1 if w > 0 else -1))
    sizes = [len(level) - 1 if level else 1 for level in bands]
    m = sum(sizes)
    rows = [[0] * m for _ in range(m)]
    first, below, below_first = 0, [], 0
    for level, size in zip(bands, sizes):
        for k in range(1, len(level)):  # loop i runs from band k-1 to band k
            i = first + k - 1
            (u, su), (v, sv) = level[k - 1], level[k]
            rows[i][i] = -(su + sv) // 2
            if k > 1:  # shares band k-1 with the loop to its left
                if su > 0:
                    rows[i - 1][i] = 1
                else:
                    rows[i][i - 1] = -1
            # a loop one level down from below[j-1] to below[j] crosses
            # (u, v) when it holds just one of its ends
            j = bisect(below, u)
            if 0 < j < len(below) and below[j] < v:
                rows[i][below_first + j - 1] = 1
            j = bisect(below, v)
            if 0 < j < len(below) and below[j - 1] > u:
                rows[i][below_first + j - 1] = -1
        below, below_first = [p for p, _s in level], first
        first += size
    return IntMatrix._of_rows(rows, m)


# ---------------------------------------------------------------------------
# Wirtinger presentations


def wirtinger(d: LinkDiagram) -> Presentation:
    """Wirtinger presentation of the closure complement.

    One generator per over-arc class, one conjugation relator per
    crossing; meridian markers pick the generator of each component's
    first arc.  The presentation is built unchecked: the names x1...xn
    are distinct, and every letter and marker is an index from gen_index.
    """
    arcs = sorted(d.arcs)
    find, union = _union_find(arcs)
    for c in d.crossings:
        union(c.arcs[1], c.arcs[3])

    root = {a: find(a) for a in arcs}
    reps = sorted(set(root.values()))
    gen_index = {rep: i + 1 for i, rep in enumerate(reps)}  # 1-based
    gen_of = {a: gen_index[r] for a, r in root.items()}

    relators = []
    for c in d.crossings:
        a, b2, cc, _d2 = c.arcs
        i, k, j = gen_of[a], gen_of[cc], gen_of[b2]
        if c.sign >= 0:
            relators.append((k, j, -i, -j))
        else:
            relators.append((k, -j, -i, j))

    markers = tuple(gen_of[comp[0]] for comp in d.components)
    generators = tuple(f"x{i}" for i in range(1, len(reps) + 1))
    return Presentation._of(generators, tuple(relators), markers)


# ---------------------------------------------------------------------------
# sublinks


def _delete_strands(b: BraidWord, keep_positions) -> BraidWord:
    keep = set(keep_positions)
    occ = list(range(b.strands))
    word = []
    for w in b.word:
        i = abs(w) - 1
        s, t = occ[i], occ[i + 1]
        if s in keep and t in keep:
            idx = 1 + sum(1 for p in range(i) if occ[p] in keep)
            word.append(idx if w > 0 else -idx)
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
    return BraidWord(len(keep), tuple(word))


def sublink(d: LinkDiagram, keep) -> LinkDiagram:
    """Diagram of the components with the integer indices in keep, an
    array or a set; neither the order of keep nor repeats in it matter.

    A braid closure stays one, with the strands of the removed components
    deleted from its word; otherwise crossings with removed components
    disappear and the cut arcs are respliced into a diagram without one.
    """
    if isinstance(keep, (set, frozenset)):  # which _integers refuses
        keep = tuple(keep)
    keep = sorted(set(_integers(keep)))
    if not keep:
        raise EmptySelection("no components selected")
    # a closure's components are its strand cycles, in the same order
    parts = d.components if d.braid is None else d.braid.strand_cycles()
    for i in keep:
        if i < 0 or i >= len(parts):
            raise InputError(f"component index {i} out of range")

    if d.braid is not None:
        positions = [s for i in keep for s in parts[i]]
        return from_braid(_delete_strands(d.braid, positions))

    kept_arcs = {a for i in keep for a in parts[i]}
    find, union = _union_find(kept_arcs)

    raw, signs = [], []
    for c in d.crossings:
        a, b2, cc, d2 = c.arcs
        if a in kept_arcs and b2 in kept_arcs:
            raw.append(c.arcs)
            signs.append(c.sign)
        elif a in kept_arcs:      # the under strand is kept
            union(a, cc)
        elif b2 in kept_arcs:     # the over strand is kept
            union(b2, d2)
    return LinkDiagram(*_assemble(raw, signs, kept_arcs, find))
