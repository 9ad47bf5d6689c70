"""Shared oracles for flow tests: random labeled graphs and integer flows
built from spanning-forest fundamental cycles."""

from fractions import Fraction

from blowupgate.exact import AbelianGroup
from blowupgate.gate import (Flow, FlowGraph, HomologyElement, flow_add,
                             reduce_element)


def random_graph(rng, max_vertices=8):
    n = rng.randint(2, max_vertices)
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        edges.append((rng.randrange(n), rng.randrange(n)))
    labels = tuple(HomologyElement((rng.randint(-3, 3), rng.randint(-3, 3)))
                   for _ in edges)
    return FlowGraph(n, tuple(edges), labels), AbelianGroup(2)


def zero_element(h):
    return HomologyElement((0,) * h.rank, (0,) * len(h.torsion))


def add_elements(h, a, b):
    return reduce_element(h, HomologyElement(
        tuple(x + y for x, y in zip(a.free, b.free)),
        tuple(x + y for x, y in zip(a.torsion, b.torsion))))


def spanning_forest(g):
    parent = list(range(g.vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    extra = []
    for idx, (a, b) in enumerate(g.edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append(idx)
        else:
            extra.append(idx)
    return tree, extra


def fundamental_cycle_flow(g, tree, edge_idx):
    """Unit flow around the cycle closed by a non-tree edge."""
    adj = {}
    for idx in tree:
        a, b = g.edges[idx]
        adj.setdefault(a, []).append((b, idx, 1))
        adj.setdefault(b, []).append((a, idx, -1))
    a, b = g.edges[edge_idx]
    signed = [Fraction(0)] * len(g.edges)
    signed[edge_idx] = Fraction(1)
    if a == b:
        return Flow(tuple(signed))
    prev = {b: None}
    stack = [b]
    while stack:
        x = stack.pop()
        if x == a:
            break
        for y, idx, sgn in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, idx, sgn)
                stack.append(y)
    x = a
    while prev[x] is not None:
        y, idx, sgn = prev[x]
        signed[idx] += sgn  # traversed y -> x
        x = y
    return Flow(tuple(signed))


def random_integer_flow(rng, g):
    tree, extra = spanning_forest(g)
    total = Flow.zero(len(g.edges))
    for idx in extra:
        k = rng.randint(-3, 3)
        cyc = fundamental_cycle_flow(g, tree, idx)
        total = flow_add(total, Flow(tuple(k * x for x in cyc.signed)))
    return total
