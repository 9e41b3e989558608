"""Ice-flower systems: ordered collections of stars and their coinciding algebra.

A system is an ordered list of stars K_{1,m_j} (m_j >= 2).  A colored
system attaches a proper total coloring to each star; it is *strongly
colored* when every pair of distinct stars can be merged through some
pair of color-compatible leaf-edges.  The uniform construction below
builds, for every k >= 0, n stars on n-1 leaves each whose every edge
weight equals k, and is strongly colored by design: star j has center
color j, leaf colors [1,n] minus j, and the edge to the leaf colored l
gets color j + l + k, so the coupling edge colors agree automatically
for every star pair.  saturate merges star copies greedily, finding each
leaf-edge's partners by the color key of leafops._color_key.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .graph import Edge, Graph, _FrozenRecord, _Record, _check_order, is_delta_saturated
from .coloring import TotalColoring, is_proper_total, bfdt
from .leafops import LeafEdge, Surgery, _color_key, _lay_out, leaf_coincide_across, leaf_edges


class Star(_FrozenRecord):
    """K_{1,m} in canonical layout: center 1, leaves 2..m+1.  Systems
    exclude single-leaf stars, so m < 2 is rejected here, once."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("stars in a system need m >= 2, got %d" % m)
        self._set(m)

    @property
    def graph(self) -> Graph:
        return Graph(self.p, self.edges())

    @property
    def p(self) -> int:
        return self.m + 1

    def edges(self) -> List[Edge]:
        """The edges of self.graph, read off m without building it."""
        return [(1, l) for l in self.leaves]

    @property
    def center(self) -> int:
        return 1

    @property
    def leaves(self) -> range:
        return range(2, self.m + 2)


def make_star(m: int) -> Star:
    """A star with m >= 2 leaves; Star itself rejects smaller m."""
    return Star(m)


def star_coincide(s_i: Star, s_j: Star) -> Graph:
    """Coincide two stars on canonical leaf-edges: the last leaf of s_i
    against the first leaf of s_j, joining the centers by a new edge."""
    g1, g2 = s_i.graph, s_j.graph
    res = leaf_coincide_across(
        g1, LeafEdge(1, s_i.m + 1), g2, LeafEdge(1, 2)
    )
    return res.graph


class IceFlowerSystem(_Record):
    """Ordered star collection (the uncolored backbone of a system)."""

    __slots__ = _fields = ("stars",)

    def __init__(self, stars: List[Star]):
        if not stars:
            raise ValueError("a system needs at least one star")
        self._set(stars)

    @property
    def n(self) -> int:
        return len(self.stars)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(s.m for s in self.stars)


class ColoredIceFlowerSystem(IceFlowerSystem):
    """Stars plus one proper total coloring per star.

    fdt_constant, when present, promises that every edge of every star
    has weight exactly that constant (validated on construction).
    """

    __slots__ = ("colorings", "fdt_constant")
    _fields = ("stars", "colorings", "fdt_constant")

    def __init__(self, stars: List[Star], colorings: List[TotalColoring], fdt_constant: Optional[int] = None):
        super().__init__(stars)
        if len(stars) != len(colorings):
            raise ValueError("one coloring per star required")
        for s, f in zip(stars, colorings):
            g = s.graph
            if not is_proper_total(g, f):
                raise ValueError("star coloring is not proper total")
            if fdt_constant is not None and bfdt(g, f).k != fdt_constant:
                raise ValueError("star edge weights do not equal the declared constant")
        self._set(stars, colorings, fdt_constant)

    @property
    def uniform(self) -> bool:
        return len({s.m for s in self.stars}) == 1

    def backbone(self) -> IceFlowerSystem:
        return IceFlowerSystem(list(self.stars))


def is_strongly_colored(s: ColoredIceFlowerSystem) -> bool:
    """Every pair of distinct stars admits some compatible leaf-edge pair
    whose merge stays proper total.  A single-star system passes vacuously.

    Leaf-edges of two different stars pass every structural check of a
    merge, and on proper star colorings compatibility keeps the merge
    proper (see leafops.Surgery).  So a pair of stars merges exactly when
    some leaf-edge of one star has the colors that a leaf-edge of the
    other wants, by leafops._color_key.  (The rule is symmetric, so
    unordered pairs suffice.)
    """
    keys = [
        [_color_key(f.vertex_colors, f.edge_colors, LeafEdge(1, l)) for l in star.leaves]
        for star, f in zip(s.stars, s.colorings)
    ]
    have = [{own for own, _ in ks} for ks in keys]
    return all(
        any(want in have[j] for _, want in keys[i])
        for i in range(s.n)
        for j in range(i + 1, s.n)
    )


def build_uniform_fdt_system(n: int, k: int) -> ColoredIceFlowerSystem:
    """n stars K_{1,n-1} with every edge weight equal to k, for any k >= 0.

    Star j: center colored j; leaves colored [1,n] \\ {j} in ascending
    order; the edge to the leaf colored l is colored j + l + k, over the
    palette 2n - 1 + k, which holds the largest edge color n + (n-1) + k.
    Every weight is |j + l - (j + l + k)| = k.  Each star is proper: the
    leaf colors differ from the center's j, the edge color j + l + k
    exceeds both j and l, and it differs across the leaves because l does.
    The system is strongly colored: star i's leaf colored j and star j's
    leaf colored i share the edge color i + j + k, so their leaf-edges are
    compatible.  A negative k is no weight and is refused.  The n stars
    hold n^2 vertices in all; more than MAX_VERTICES is refused before any
    is built.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    if k < 0:
        raise ValueError("k >= 0 required, got k = %d" % k)
    _check_order(n * n)
    stars: List[Star] = []
    colorings: List[TotalColoring] = []
    for j in range(1, n + 1):
        leaf_colors = [l for l in range(1, n + 1) if l != j]
        vc = {1: j}
        ec: Dict[Tuple[int, int], int] = {}
        for idx, l in enumerate(leaf_colors):
            vc[2 + idx] = l
            ec[(1, 2 + idx)] = j + l + k
        stars.append(make_star(n - 1))
        colorings.append(TotalColoring(2 * n - 1 + k, vc, ec))
    return ColoredIceFlowerSystem(stars, colorings, fdt_constant=k)


class SaturateResult(NamedTuple):
    graph: Graph
    coloring: TotalColoring
    saturated: bool  # is every vertex at degree 1 or Delta?


def saturate(s: ColoredIceFlowerSystem, copies: List[int]) -> SaturateResult:
    """Greedy colored coinciding over a multiset of star copies.

    Lays out copies[j] disjoint copies of star j.  Then, in ascending
    (star instance, leaf color) order, each leaf-edge that is still there
    merges with the first later leaf-edge that Surgery.merge accepts.
    Whether the result is Delta-saturated is reported, not required.  It
    does not depend on the merges: every merge deletes one leaf at each
    support and joins the two supports, so no center's degree ever
    changes.  So the result is Delta-saturated exactly when every star
    with copies > 0 has the same m, whatever was merged.
    """
    if len(copies) != s.n:
        raise ValueError("need one multiplicity per star")
    if any(c < 0 for c in copies):
        raise ValueError("multiplicities must be non-negative")
    if sum(copies) < 1:
        raise ValueError("at least one star copy required")

    g, theta, _ = _lay_out(s.stars, copies, s.colorings)
    # Each leaf-edge's support is its star instance's center, so sorting by
    # support orders by instance.  Merges never create or revive a
    # leaf-edge, never recolor a vertex or change the set of edge colors
    # at a vertex, and only add edges between supports: a pair rejected
    # once stays rejected, so one pass finds every merge a rescan would.
    # Nor do merges change a leaf-edge's color key, and Surgery.merge
    # rejects every pair whose keys do not match.  So e1 need only try the
    # later entries of the group keyed by the colors it wants, in order.
    les = sorted(leaf_edges(g), key=lambda e: (e.support, theta.vertex(e.leaf), e.leaf))
    keys = [_color_key(theta.vertex_colors, theta.edge_colors, e) for e in les]
    # Each group holds its key's indices into les last first, so the next
    # in processing order is on top.  Processed entries are popped off the
    # top, and a merged partner is deleted where it stands.  A leaf goes
    # only as an e1, then processed, or as a partner, so no entry left
    # above ai names a deleted leaf.
    groups: Dict[tuple, List[int]] = {}
    for i in reversed(range(len(les))):
        groups.setdefault(keys[i][0], []).append(i)
    surgery = Surgery(g, theta)
    for ai, e1 in enumerate(les):
        if e1.leaf in surgery.gone:
            continue
        group = groups.get(keys[ai][1], [])
        while group and group[-1] <= ai:
            group.pop()
        for pos in range(len(group) - 1, -1, -1):
            try:
                surgery.merge(e1, les[group[pos]])
            except ValueError:
                continue
            del group[pos]
            break
    g, _, theta = surgery.finish()
    return SaturateResult(g, theta, is_delta_saturated(g))
