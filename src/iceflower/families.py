"""Named graph families, exhaustive catalogs, and slow reference checks.

The enumeration helpers here are used to drive whole-catalog tests: every
graph up to isomorphism on p vertices, the connected ones, and the free
trees (with Otter's count of them).  The brute-force hamilton and
Kuratowski searches exist only to cross-check the fast implementations in
graph.py and are not meant to be fast themselves.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import (
    Graph,
    canonical_form,
    is_connected,
    is_hamilton_cycle,
)


# -- constructors ----------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(1, n + 1), 2)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: part one is 1..a, part two is a+1..a+b."""
    if a < 1 or b < 1:
        raise ValueError("both parts need at least one vertex")
    return Graph(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def star_graph(m: int) -> Graph:
    """K_{1,m} with center 1 and leaves 2..m+1."""
    if m < 1:
        raise ValueError("star needs m >= 1")
    return Graph(m + 1, [(1, j) for j in range(2, m + 2)])


# -- exhaustive catalogs ---------------------------------------------------


@lru_cache(maxsize=None)
def graph_classes(p: int) -> Tuple[Graph, ...]:
    """All graphs on p vertices up to isomorphism, canonically labeled.

    Built by augmentation: each class on p vertices arises from a class on
    p-1 vertices plus a neighborhood for the new vertex.  Only augmentations
    in which the new vertex has minimum degree are canonicalized.  Every
    class H has a vertex v of minimum degree and H - v is one of the bases,
    so the copy of H that adds v back last passes and no class is lost.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if p == 1:
        return (Graph(1),)
    seen: Dict[Tuple[int, Tuple], Graph] = {}
    for g in graph_classes(p - 1):
        base = g.edges()
        deg = [g.degree(i + 1) for i in range(p - 1)]
        for mask in range(1 << (p - 1)):
            k = mask.bit_count()
            if any(k > deg[i] + (mask >> i & 1) for i in range(p - 1)):
                continue
            edges = list(base)
            for i in range(p - 1):
                if mask >> i & 1:
                    edges.append((i + 1, p))
            h = Graph(p, edges)
            key = canonical_form(h)
            if key not in seen:
                seen[key] = Graph(p, key[1])
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def connected_classes(p: int) -> Tuple[Graph, ...]:
    """Connected graphs on p vertices up to isomorphism."""
    return tuple(g for g in graph_classes(p) if is_connected(g))


def prufer_to_tree(seq: Sequence[int], m: int) -> Graph:
    """Decode a Prufer sequence over {1..m} (length m-2) into a labeled tree.

    Textbook procedure: repeatedly join the smallest remaining leaf to the
    next sequence entry, then join the last two leftovers.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    if len(seq) != m - 2:
        raise ValueError("sequence length must be m-2")
    deg = [1] * (m + 1)
    for x in seq:
        if not 1 <= x <= m:
            raise ValueError("sequence entry %r out of range" % (x,))
        deg[x] += 1
    edges: List[Tuple[int, int]] = []
    for x in seq:
        for v in range(1, m + 1):
            if deg[v] == 1:
                edges.append((v, x))
                deg[v] -= 1
                deg[x] -= 1
                break
    u, v = (v for v in range(1, m + 1) if deg[v] == 1)
    edges.append((u, v))
    return Graph(m, edges)


def tree_encoding(g: Graph) -> Tuple:
    """AHU encoding of a free tree: equal iff isomorphic."""
    if g.p == 1:
        return ("t",)
    # strip leaves to find the one- or two-vertex center
    alive = set(g.vertices())
    deg = {v: g.degree(v) for v in alive}
    while len(alive) > 2:
        shed = [v for v in alive if deg[v] == 1]
        for v in shed:
            alive.discard(v)
            for w in g._adj[v]:
                if w in alive:
                    deg[w] -= 1

    def encode(root: int, parent: Optional[int]) -> Tuple:
        subs = sorted(
            encode(w, root) for w in g._adj[root] if w != parent
        )
        return tuple(subs)

    return min(encode(c, None) for c in sorted(alive))


def count_free_trees(p: int) -> int:
    """Number of trees on p vertices up to isomorphism (OEIS A000055).

    Otter, *The number of trees* (1948): with r(n) the rooted-tree counts
    of OEIS A000081, t(p) = r(p) - (sum_{i+j=p} r(i) r(j) - [p even] r(p/2)) / 2.
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


@lru_cache(maxsize=None)
def free_trees(p: int) -> Tuple[Graph, ...]:
    """All trees on p vertices up to isomorphism, sorted by AHU encoding.

    Prufer sweep, stopped at Otter's count, + AHU dedup.  Each class is
    represented by the first sequence in lexicographic order that decodes
    to it, so stopping once every class is seen changes no output.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if p == 1:
        return (Graph(1),)
    target = count_free_trees(p)
    reps: Dict[Tuple, Graph] = {}
    for seq in product(range(1, p + 1), repeat=p - 2):
        t = prufer_to_tree(seq, p)
        key = tree_encoding(t)
        if key not in reps:
            reps[key] = t
            if len(reps) == target:
                break
    return tuple(reps[k] for k in sorted(reps))


# -- brute-force reference checks ------------------------------------------


def hamilton_cycle_bruteforce(g: Graph) -> Optional[List[int]]:
    """Try every vertex order starting at 1.  Only sane for p <= 8."""
    p = g.p
    if p < 3:
        return None
    for rest in permutations(range(2, p + 1)):
        cyc = [1] + list(rest)
        if is_hamilton_cycle(g, cyc):
            return cyc
    return None


def _pack_paths(
    g: Graph, demands: List[Tuple[int, int]], spare: List[int], used: set
) -> bool:
    """Can the vertex-disjoint path demands be met through spare vertices?"""
    if not demands:
        return True
    a, b = demands[0]

    def walk(cur: int, inner: List[int]) -> bool:
        if g.has_edge(cur, b):
            if _pack_paths(g, demands[1:], spare, used):
                return True
        for w in g.neighbors(cur):
            if w in used or w == b or w not in spare_set or w in inner_set:
                continue
            inner.append(w)
            inner_set.add(w)
            used.add(w)
            ok = walk(w, inner)
            used.discard(w)
            inner_set.discard(w)
            inner.pop()
            if ok:
                return True
        return False

    spare_set = set(spare) - used
    inner_set: set = set()
    return walk(a, [])


def kuratowski_planar(g: Graph) -> bool:
    """Planarity by direct search for a K5 or K3,3 subdivision.

    Exhaustive over branch-vertex choices with disjoint connecting paths
    routed through the remaining vertices.  Exponential; fine for small p.
    """
    verts = list(g.vertices())

    # K5 subdivisions
    for branch in combinations(verts, 5):
        if any(g.degree(v) < 4 for v in branch):
            continue
        pairs = [(a, b) for a, b in combinations(branch, 2)]
        if _pack_paths(g, pairs, [v for v in verts if v not in branch], set()):
            return False
    # K3,3 subdivisions
    for six in combinations(verts, 6):
        if any(g.degree(v) < 3 for v in six):
            continue
        rest = [v for v in verts if v not in six]
        for left in combinations(six, 3):
            if left[0] != six[0]:
                continue  # fix the first vertex into the left part
            right = [v for v in six if v not in left]
            pairs = [(a, b) for a in left for b in right]
            if _pack_paths(g, pairs, rest, set()):
                return False
    return True
