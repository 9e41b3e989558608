"""Leaf surgery: splitting internal edges into leaf pairs and the inverse.

Splitting an internal edge uv removes it and hangs a new leaf on each
endpoint; coinciding two leaf-edges deletes both leaves and joins their
supports.  The colored variants carry a total coloring through the same
moves: a split copies the cut edge's color onto both new leaf-edges and
the far endpoint's color onto each new leaf, and a coincide is allowed
only when the two leaf-edges agree color-wise (support of one matches
leaf of the other, and the edge colors are equal).

Operations that delete vertices renumber the survivors densely and
return the old-id -> new-id map, so sequences of moves stay replayable.
A whole batch of merges runs through one Surgery on fixed ids and is
renumbered once at the end, with the same result as the one-step chain.
A Surgery keeps only a delta over its starting graph, the deleted
leaves and the merged support pairs, and never copies the graph: no
merge changes the degree of a vertex it keeps, so every degree test
reads the starting graph.  Every side-by-side layout of graphs or
stars, colored or not, comes from one function, _lay_out, and every
merge obeys one color rule, written once as a key and its mirror by
_color_key.
"""
from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graph import Edge, Graph, _check_order, _norm_edge
from .coloring import TotalColoring, is_proper_total


class LeafEdge(NamedTuple):
    support: int
    leaf: int


def _color_key(vc: Dict[int, int], ec: Dict[Edge, int], e: Tuple[int, int]) -> Tuple[tuple, tuple]:
    """The one color rule for merging two leaf-edges, as a key: the colors
    of e = (support x, leaf y) and its edge c, and the colors (y, x, c)
    that its partner must have.  So each support has the other leaf's
    color, and the two edge colors are equal."""
    s, l = e
    x, y, c = vc[s], vc[l], ec[_norm_edge(s, l)]
    return (x, y, c), (y, x, c)


def _compatible(
    vc: Dict[int, int], ec: Dict[Edge, int], e1: Tuple[int, int], e2: Tuple[int, int]
) -> bool:
    """e2's colors are the colors that e1's partner must have."""
    return _color_key(vc, ec, e2)[0] == _color_key(vc, ec, e1)[1]


def _require_leaf_edge(
    adj: Sequence[Set[int]], s: int, x: int, is_edge: bool, label: Callable[[int], int]
) -> None:
    """Reject (s, x) unless it is an edge (the caller's verdict) whose end
    x has degree 1 and whose end s has degree >= 2 in adj."""
    if not is_edge:
        raise ValueError("(%d,%d) is not an edge" % (label(s), label(x)))
    if len(adj[x]) != 1:
        raise ValueError("vertex %d is not a leaf" % label(x))
    if len(adj[s]) < 2:
        raise ValueError("support %d has no eligible degree" % label(s))


def check_leaf_edge(adj: Sequence[Set[int]], e: LeafEdge) -> None:
    """Reject e unless it is a leaf-edge of the adjacency sets adj (indexed
    by vertex id, slot 0 unused)."""
    s, x = e
    _require_leaf_edge(adj, s, x, 1 <= s < len(adj) and x in adj[s], int)


def leaf_edges(g: Graph) -> list:
    """All leaf-edges of g as LeafEdge pairs, sorted by (support, leaf)."""
    out = []
    for v in g.vertices():
        if g.degree(v) == 1:
            (u,) = g.neighbors(v)
            if g.degree(u) >= 2:
                out.append(LeafEdge(u, v))
    return sorted(out)


class SplitResult(NamedTuple):
    graph: Graph
    leaf_at_u: int  # the new leaf hanging on u (the first endpoint given)
    leaf_at_v: int  # the new leaf hanging on v


class CoincideResult(NamedTuple):
    graph: Graph
    vertex_map: Dict[int, int]  # old id -> new id for every surviving vertex


def leaf_split(g: Graph, u: int, v: int) -> SplitResult:
    """Cut the internal edge uv into two leaf-edges.

    The new leaf adjacent to u takes id p+1, the one adjacent to v takes
    p+2.  Both endpoints must have degree >= 2 (the move is undefined at
    a leaf-edge).
    """
    if not g.has_edge(u, v):
        raise ValueError("(%d,%d) is not an edge" % (u, v))
    if g.degree(u) < 2 or g.degree(v) < 2:
        raise ValueError("edge (%d,%d) touches a leaf; split undefined" % (u, v))
    p = g.p
    edges = [e for e in g.edges() if e != _norm_edge(u, v)]
    edges.append((u, p + 1))
    edges.append((v, p + 2))
    out = Graph(p + 2, edges)
    assert out.p == g.p + 2 and out.q == g.q + 1
    return SplitResult(out, p + 1, p + 2)


class Surgery:
    """A batch of leaf merges, kept as a delta over one starting graph.

    The state is the set `gone` of deleted leaves and the map `joined`
    from each merged support pair (u, v), u < v, to the color of its new
    edge (None without a coloring).  The starting graph's adjacency sets
    are only read: a merge adds two ids to `gone` and one entry to
    `joined`, and nothing is copied, whatever the size of the graph.

    Reading degrees off the starting graph is sound because no survivor's
    degree ever changes.  A merge deletes two degree-1 vertices, and each
    of its supports loses its leaf and gains the other support in its
    place.  So every vertex that is not gone has its starting degree, and
    every degree test reads it there.  (s, x) is an edge exactly when
    neither end is gone and x is a starting neighbor of s or {s, x} is a
    merged pair: merges delete only edges at a gone leaf and add only
    merged pairs.  A leaf-edge is always a starting edge, since both ends
    of a merged pair keep degree >= 2, so its colors never change and are
    read off the starting coloring.

    finish() builds the merged graph once, with the survivors renumbered
    densely in id order.  A chain of one-step merges renumbers in that
    same order, so the graph, vertex map and coloring come out identical
    to the chain's, and error messages name vertices by the ids the chain
    would show.

    With a coloring every merge is checked for color compatibility.  On
    a proper total coloring that check alone keeps the coloring proper,
    so no properness check is made here.  For leaf-edges (u, l1) and
    (v, l2) with f(u) = f(l2), f(v) = f(l1) and c = f(u l1) = f(v l2):
    f(u) = f(l2) != f(v); c = f(v l2) != f(l2) = f(u), and likewise
    c != f(v); and the other edges at u (at v) already differ from
    f(u l1) = c (from f(v l2) = c).  A coloring that is not proper is
    left for the caller to reject.
    """

    def __init__(self, g: Graph, theta: Optional[TotalColoring] = None):
        self.p = g.p
        self._adj = g._adj  # read, never written
        self.gone: Set[int] = set()  # deleted leaves
        self.joined: Dict[Edge, Optional[int]] = {}  # merged support pair -> edge color
        self.theta = theta
        if theta is not None:
            vc, ec = theta.vertex_colors, theta.edge_colors
            if any(v not in vc for v in g.vertices()) or any(
                (u, w) not in ec for u, a in enumerate(g._adj) for w in a if u < w
            ):
                raise ValueError("coloring does not cover the graph")

    def _label(self, v: int) -> int:
        return v - sum(1 for x in self.gone if x < v)

    def _check(self, s: int, x: int) -> None:
        """check_leaf_edge on the merged graph, read off the delta."""
        adj, gone = self._adj, self.gone
        is_edge = (
            1 <= s < len(adj)
            and s not in gone
            and x not in gone
            and (x in adj[s] or _norm_edge(s, x) in self.joined)
        )
        _require_leaf_edge(adj, s, x, is_edge, self._label)

    def merge(self, e1: Tuple[int, int], e2: Tuple[int, int]) -> None:
        """Delete both leaves and join the supports of the leaf-edges e1
        and e2, each a LeafEdge or a plain (support, leaf) pair.  The state
        is left untouched when the merge is rejected."""
        (u, l1), (v, l2) = e1, e2
        self._check(u, l1)
        self._check(v, l2)
        theta = self.theta
        if theta is not None and not _compatible(theta.vertex_colors, theta.edge_colors, e1, e2):
            raise ValueError("leaf-edges are not color-compatible")
        if l1 == l2:
            raise ValueError("need two distinct leaf-edges")
        if u == v:
            raise ValueError("leaf-edges share the support %d" % self._label(u))
        pair = _norm_edge(u, v)
        if v in self._adj[u] or pair in self.joined:
            raise ValueError(
                "supports %d,%d already adjacent; merge would double the edge"
                % (self._label(u), self._label(v))
            )
        self.gone.add(l1)
        self.gone.add(l2)
        self.joined[pair] = None if theta is None else theta.edge_colors[_norm_edge(u, l1)]

    def finish(self) -> Tuple[Graph, Dict[int, int], Optional[TotalColoring]]:
        """The merged graph with survivors renumbered densely in id order,
        the old-id -> new-id map, and the carried coloring (or None)."""
        gone = self.gone
        keep = [v for v in range(1, self.p + 1) if v not in gone]
        new = dict(zip(keep, range(1, len(keep) + 1)))
        # the starting edges that no merge deleted
        kept = [(u, w) for u in keep for w in self._adj[u] if u < w and w not in gone]
        adj: List[Set[int]] = [set() for _ in range(len(keep) + 1)]
        for u, v in chain(kept, self.joined):
            a, b = new[u], new[v]
            adj[a].add(b)
            adj[b].add(a)
        g = Graph._trusted(len(keep), adj)
        if self.theta is None:
            return g, new, None
        vc, ec = self.theta.vertex_colors, self.theta.edge_colors
        colors = {e: ec[e] for e in kept}
        colors.update(self.joined)
        merged_ec = {(new[a], new[b]): colors[a, b] for a, b in sorted(colors)}
        return g, new, TotalColoring(self.theta.palette, {new[v]: vc[v] for v in keep}, merged_ec)


def leaf_coincide(g: Graph, e1: LeafEdge, e2: LeafEdge) -> CoincideResult:
    """Merge two leaf-edges into one edge joining their supports.

    The leaves are deleted and the edge (support1, support2) is added.
    Rejected when the supports coincide or are already adjacent (the
    result must stay simple).
    """
    surgery = Surgery(g)
    surgery.merge(e1, e2)
    out, vertex_map, _ = surgery.finish()
    assert out.p == g.p - 2 and out.q == g.q - 1
    return CoincideResult(out, vertex_map)


class AcrossResult(NamedTuple):
    graph: Graph
    map1: Dict[int, int]  # vertex of H1 -> vertex of the result
    map2: Dict[int, int]  # vertex of H2 -> vertex of the result


def _lay_out(
    parts: Sequence, counts: Sequence[int], colorings: Optional[Sequence[TotalColoring]] = None
) -> Tuple[Graph, Optional[TotalColoring], List[int]]:
    """counts[i] disjoint copies of parts[i], in order, each copy's ids
    shifted up past the copies before it.

    A part is anything with an order `p` and an `edges()` list: a Graph,
    or a system Star, which gives its edges from its size and so builds
    no Graph.  Each part's edges are read once.  With colorings (one per
    part, covering it exactly) the copies carry their part's colors, over
    the largest palette bound among them.  Returns the graph, the
    combined coloring (None without colorings) and each copy's id shift.
    The total order is checked against MAX_VERTICES before anything is
    allocated.  Every caller lays out at least one copy, and copies of
    valid parts are valid side by side, so the graph is built through
    Graph._trusted.
    """
    p = sum(part.p * a for part, a in zip(parts, counts))
    _check_order(p)
    adj: List[Set[int]] = [set() for _ in range(p + 1)]
    vc: Dict[int, int] = {}
    ec: Dict[Edge, int] = {}
    shifts: List[int] = []
    s = 0
    for part, a, f in zip(parts, counts, colorings or [None] * len(parts)):
        part_edges = part.edges()
        for _ in range(a):
            shifts.append(s)
            for u, v in part_edges:
                adj[u + s].add(v + s)
                adj[v + s].add(u + s)
            if f is not None:
                vc.update((v + s, c) for v, c in f.vertex_colors.items())
                ec.update(((u + s, v + s), c) for (u, v), c in f.edge_colors.items())
            s += part.p
    theta = None if colorings is None else TotalColoring(max(f.palette for f in colorings), vc, ec)
    return Graph._trusted(p, adj), theta, shifts


def disjoint_union(g1: Graph, g2: Graph) -> Tuple[Graph, int]:
    """g1 alongside g2 with g2's ids shifted up by g1.p; returns the shift."""
    g, _, shifts = _lay_out((g1, g2), (1, 1))
    return g, shifts[1]


def leaf_coincide_across(g1: Graph, e1: LeafEdge, g2: Graph, e2: LeafEdge) -> AcrossResult:
    """Coincide a leaf-edge of g1 with one of g2 after a disjoint union."""
    check_leaf_edge(g1._adj, e1)
    check_leaf_edge(g2._adj, e2)
    union, shift = disjoint_union(g1, g2)
    res = leaf_coincide(
        union, e1, LeafEdge(e2.support + shift, e2.leaf + shift)
    )
    map1 = {v: res.vertex_map[v] for v in g1.vertices() if v != e1.leaf}
    map2 = {
        v: res.vertex_map[v + shift] for v in g2.vertices() if v != e2.leaf
    }
    return AcrossResult(res.graph, map1, map2)


# -- colored variants ------------------------------------------------------


def colored_leaf_split(
    g: Graph, f: TotalColoring, u: int, v: int
) -> Tuple[SplitResult, TotalColoring]:
    """Split uv and extend the coloring: both new leaf-edges take the old
    edge color, and each new leaf copies the color of the far endpoint."""
    if not is_proper_total(g, f):
        raise ValueError("coloring must be proper total before a colored split")
    res = leaf_split(g, u, v)
    c_edge = f.edge(u, v)
    vc = dict(f.vertex_colors)
    vc[res.leaf_at_u] = f.vertex(v)  # v' copies v
    vc[res.leaf_at_v] = f.vertex(u)  # u' copies u
    ec = {e: c for e, c in f.edge_colors.items() if e != _norm_edge(u, v)}
    ec[_norm_edge(u, res.leaf_at_u)] = c_edge
    ec[_norm_edge(v, res.leaf_at_v)] = c_edge
    out = TotalColoring(f.palette, vc, ec)
    assert is_proper_total(res.graph, out)
    return res, out


def colored_compatible(
    g: Graph, theta: TotalColoring, e1: LeafEdge, e2: LeafEdge
) -> bool:
    """The three color equalities that allow two leaf-edges to merge:
    support of each matches the leaf of the other, and edge colors agree.
    A coloring missing one of the six colors raises ValueError."""
    check_leaf_edge(g._adj, e1)
    check_leaf_edge(g._adj, e2)
    if any(v not in theta.vertex_colors for v in e1 + e2) or any(
        _norm_edge(*e) not in theta.edge_colors for e in (e1, e2)
    ):
        raise ValueError("coloring does not cover the graph")
    return _compatible(theta.vertex_colors, theta.edge_colors, e1, e2)


def colored_leaf_coincide(
    g: Graph, theta: TotalColoring, e1: LeafEdge, e2: LeafEdge
) -> Tuple[CoincideResult, TotalColoring]:
    """Color-aware merge of two leaf-edges.

    Requires colored_compatible plus the uncolored preconditions; the
    merged edge takes the shared edge color.  The color equalities alone
    do not guarantee a sound coloring around the merged vertices (the
    input coloring is not assumed proper), so the result is re-validated
    and rejected if it is not proper total.  A coloring that misses a
    vertex or edge of g is rejected with ValueError.
    """
    surgery = Surgery(g, theta)
    surgery.merge(e1, e2)
    out, vertex_map, merged = surgery.finish()
    if not is_proper_total(out, merged):
        raise ValueError("merged coloring is not proper total; merge rejected")
    return CoincideResult(out, vertex_map), merged
