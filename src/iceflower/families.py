"""Named graph families, exhaustive catalogs, and slow reference checks.

The enumeration helpers here are used to drive whole-catalog tests: every
graph up to isomorphism on p vertices, the connected ones, and the free
trees, listed through the restricted-growth sequences that also split
topcode labels into vertices.  The brute-force hamilton and Kuratowski
searches exist only to cross-check the fast implementations in graph.py
and are not meant to be fast themselves.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graph import (
    Graph,
    _automorphism_generators,
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

    Built by augmentation: each class on p vertices arises from a class g
    on p-1 vertices plus a neighborhood mask for the new vertex.

    - Only augmentations in which the new vertex has minimum degree are
      canonicalized.  Every class H has a vertex v of minimum degree and
      H - v is one of the bases, so the copy of H that adds v back last
      passes and no class is lost.
    - Only one mask per orbit of Aut(g) is canonicalized (McKay,
      Isomorph-free exhaustive generation, J. Algorithms 26, 1998).  An
      automorphism a of g maps the mask m to a(m), and a extended by the
      new vertex maps g + m onto g + a(m), so the two are isomorphic.  a
      keeps degrees, so the min-degree test gives the same answer on the
      whole orbit.  The masks are walked in ascending order; each one not
      yet marked is canonicalized, and its orbit is marked.  The orbit is
      closed on a stack under the generators that g's own canonical search
      reads off its tied layouts, which generate Aut(g) (McKay, Practical
      graph isomorphism, Congr. Numer. 30, 1981), so the group itself is
      never listed.  An edgeless g has Aut(g) = Sym(p-1), which the
      search finds like any other group.
    - Only augmentations in which the new vertex could be the canonical
      deletion are canonicalized (McKay 1998 again).  Let σ(v) be the
      sorted list of the degrees of v's neighbors.  A mask is dropped
      when some vertex of minimum degree k has a σ strictly smaller than
      the new vertex's; ties pass.  The degrees of g + mask are g's plus
      the mask's bits, so a dropped mask builds no graph.  No class is
      lost: take any class H and a vertex v of minimum degree in H whose
      σ is smallest.  H - v is isomorphic to a base g, and v's neighbors
      map to a mask m that passes the min-degree test.  The walk
      canonicalizes one mask m' = a(m) of m's Aut(g)-orbit, and an
      isomorphism g + m' -> H sends the new vertex to v and keeps degrees
      and σ, so m' passes too.  The test keeps degrees and adjacency
      only, so it gives the same answer on a whole orbit and runs once
      per orbit, after the marking.

    Each class is stored as its canonical form, so which copy of it is
    met first changes no output.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if p == 1:
        return (Graph(1),)
    seen: Dict[Tuple[int, Tuple], Graph] = {}
    for g in graph_classes(p - 1):
        base = g.edges()
        deg = [g.degree(i + 1) for i in range(p - 1)]
        nbrs = [[w - 1 for w in g._adj[i + 1]] for i in range(p - 1)]
        # bit i (vertex i + 1) goes to bit image[i] under each generator
        images = [[w - 1 for w in a] for a in _automorphism_generators(g)]
        marked = set()
        for mask in range(1 << (p - 1)):
            if mask in marked:
                continue
            k = mask.bit_count()
            if any(k > deg[i] + (mask >> i & 1) for i in range(p - 1)):
                continue
            stack = [mask]
            while stack:
                m = stack.pop()
                mbits = [i for i in range(p - 1) if m >> i & 1]
                for image in images:
                    m2 = sum(1 << image[i] for i in mbits)
                    if m2 not in marked:
                        marked.add(m2)
                        stack.append(m2)
            d = [deg[i] + (mask >> i & 1) for i in range(p - 1)]
            sigma = sorted(d[i] for i in range(p - 1) if mask >> i & 1)
            if any(
                d[i] == k
                and sorted([d[w] for w in nbrs[i]] + [k] * (mask >> i & 1)) < sigma
                for i in range(p - 1)
            ):
                continue
            edges = base + [(i + 1, p) for i in range(p - 1) if mask >> i & 1]
            key = canonical_form(Graph(p, edges))
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


def restricted_growth(n: int, low: int = 0) -> Iterator[Tuple[int, ...]]:
    """Restricted-growth sequences of length n, in lexicographic order.

    The first entry is low, and each later entry is at most one more than
    the largest entry before it.  With low = 0 these are the set
    partitions of n items (item j goes to block s[j]), the single block
    first; there are B(n) of them (Bell numbers).  n = 0 gives ().
    """

    def rec(prefix: Tuple[int, ...], top: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for v in range(low, top + 2):
            yield from rec(prefix + (v,), max(top, v))

    return rec((low,), low) if n else iter([()])


@lru_cache(maxsize=None)
def free_trees(p: int) -> Tuple[Graph, ...]:
    """All trees on p vertices up to isomorphism, sorted by AHU encoding.

    Each class is represented by the tree of the first Prufer sequence,
    in lexicographic order, that decodes to it.  Only the
    restricted-growth sequences (s1 = 1, si <= 1 + max(s1..si-1)) are
    decoded, B(p-2) of the p^(p-2): 4,140 at p = 10.  They hold every
    class's first sequence, so the result is that of the full sweep.

    Proof.  Take a labeling of a tree T whose Prufer sequence s is
    lexicographically smallest, and suppose s is not restricted-growth.
    Let i be the first position with a = si > b = 1 + max(s1..si-1)
    (max of nothing is 0), and let y be the vertex labeled a.

    - y is not a leaf at any step <= i.  At step i it is adjacent to the
      removed leaf while at least 3 vertices remain, and a leaf stays a
      leaf until it is removed.
    - Relabel by sigma: a -> b, c -> c+1 for b <= c < a, every other
      label fixed.  sigma keeps the order of every label but a, so at
      each step <= i the same vertex is the smallest leaf.  Steps before
      i record labels below b, which sigma fixes; step i records
      sigma(a) = b < a.  That is a smaller sequence for T, a
      contradiction.

    So the first sequence of every class is restricted-growth, and the
    sweep, being in lexicographic order too, meets each class first at
    that same sequence.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    if p == 1:
        return (Graph(1),)
    reps: Dict[Tuple, Graph] = {}
    for seq in restricted_growth(p - 2, 1):
        t = prufer_to_tree(seq, p)
        reps.setdefault(tree_encoding(t), t)
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
