import cProfile
import pstats
import random

import pytest

from iceflower.graph import Graph, is_connected
from iceflower.coloring import TotalColoring


def place_calls(fn, module):
    """Calls of the search function `place` in the module file `module`
    (e.g. "coloring.py") while fn runs, counted by cProfile."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(
        stat[1]
        for (path, _, name), stat in pstats.Stats(prof).stats.items()
        if name == "place" and path.endswith(module)
    )


def random_connected_graph(rng, p, extra_edges=0):
    """A random tree on p vertices plus up to extra_edges chords."""
    edges = []
    for v in range(2, p + 1):
        edges.append((rng.randrange(1, v), v))
    present = set(edges)
    attempts = 0
    while extra_edges > 0 and attempts < 50 * extra_edges:
        attempts += 1
        u = rng.randrange(1, p + 1)
        v = rng.randrange(1, p + 1)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in present:
            continue
        present.add(e)
        extra_edges -= 1
    return Graph(p, sorted(present))


def count_free_trees(p):
    """Number of trees on p vertices up to isomorphism (OEIS A000055).

    Otter, *The number of trees* (1948): with r(n) the rooted-tree counts
    of OEIS A000081, t(p) = r(p) - (sum_{i+j=p} r(i) r(j) - [p even] r(p/2)) / 2.
    An oracle for families.free_trees.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    r = [0, 1]  # r[n] = rooted trees on n vertices
    for n in range(1, p):
        # r(n+1) = (1/n) sum_{k=1..n} (sum_{d | k} d r(d)) r(n-k+1)
        total = sum(
            sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[n - k + 1]
            for k in range(1, n + 1)
        )
        r.append(total // n)
    pairs = sum(r[i] * r[p - i] for i in range(1, p))
    if p % 2 == 0:
        pairs -= r[p // 2]
    return r[p] - pairs // 2


def random_tree(rng, p):
    return random_connected_graph(rng, p, 0)


def greedy_proper_total(g):
    """Any proper total coloring, found greedily over a roomy palette."""
    maxdeg = max((g.degree(v) for v in g.vertices()), default=0)
    palette = 2 * maxdeg + 2
    vc = {}
    ec = {}
    for v in g.vertices():
        used = {vc[u] for u in g.neighbors(v) if u in vc}
        used |= {
            ec[(min(v, u), max(v, u))]
            for u in g.neighbors(v)
            if (min(v, u), max(v, u)) in ec
        }
        vc[v] = next(c for c in range(1, palette + 1) if c not in used)
    for u, v in g.edges():
        used = {vc[u], vc[v]}
        for w in g.neighbors(u):
            key = (min(u, w), max(u, w))
            if key in ec:
                used.add(ec[key])
        for w in g.neighbors(v):
            key = (min(v, w), max(v, w))
            if key in ec:
                used.add(ec[key])
        ec[(u, v)] = next(c for c in range(1, palette + 1) if c not in used)
    return TotalColoring(palette, vc, ec)


def random_distinct_label_tree(rng, q):
    """A tree with q edges whose vertex labels are distinct values <= 99,
    mostly two-digit so number strings exercise both segment widths."""
    p = q + 1
    t = random_tree(rng, p)
    labels = rng.sample(range(10, 100), p)
    # a few one-digit labels keep 1-segment cuts in play
    for i in rng.sample(range(p), min(2, p)):
        small = rng.randrange(1, 10)
        if small not in labels:
            labels[i] = small
    vc = {v: labels[v - 1] for v in t.vertices()}
    ec = {}
    for u, v in t.edges():
        ec[(u, v)] = rng.randrange(1, 100)
    return t, TotalColoring(99, vc, ec)


@pytest.fixture
def rng():
    return random.Random(20260822)
