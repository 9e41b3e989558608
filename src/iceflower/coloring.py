"""Proper total colorings and the felicitous-difference solver.

A total coloring assigns a color to every vertex and every edge from a
palette {1..M}.  It is proper when adjacent vertices differ, incident
edges differ, and every edge differs from both its ends.  The weight of
an edge uv is |f(u) + f(v) - f(uv)|; the spread of these weights over
the whole graph is the quantity being minimized here, and the solver
looks for colorings where every edge has the same weight k (spread 0).

Color values are non-negative integers.  Realizations decoded from
number strings may legitimately carry color 0; properness additionally
requires every color to sit inside {1..M}.
"""
from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Tuple

from .graph import Graph, _Record, _norm_edge

EdgeKey = Tuple[int, int]


class TotalColoring(_Record):
    """Vertex and edge colors drawn from the palette bound `palette`."""

    __slots__ = _fields = ("palette", "vertex_colors", "edge_colors")

    def __init__(self, palette: int, vertex_colors: Dict[int, int], edge_colors: Dict[EdgeKey, int]):
        if palette < 1:
            raise ValueError("palette bound must be >= 1")
        edge_colors = {_norm_edge(*e): c for e, c in edge_colors.items()}
        for v, c in vertex_colors.items():
            if not 0 <= c <= palette:
                raise ValueError("vertex %d color %d outside 0..%d" % (v, c, palette))
        for e, c in edge_colors.items():
            if not 0 <= c <= palette:
                raise ValueError("edge %s color %d outside 0..%d" % (e, c, palette))
        self._set(palette, vertex_colors, edge_colors)

    @classmethod
    def _trusted(cls, palette: int, vertex_colors: Dict[int, int], edge_colors: Dict[EdgeKey, int]):
        """A coloring built without __init__'s checks, for a caller that
        already holds its invariants: palette >= 1, every edge key (u, v)
        with u < v, and every color in 0..palette.  Topcode realizations
        (topcode._color, for realize_topcode and solve_dnsp) hold them by
        construction (keys from _norm_edge, palette the largest label, at
        least 1)."""
        tc = object.__new__(cls)
        tc.palette, tc.vertex_colors, tc.edge_colors = palette, vertex_colors, edge_colors
        return tc

    def vertex(self, v: int) -> int:
        return self.vertex_colors[v]

    def edge(self, u: int, v: int) -> int:
        return self.edge_colors[_norm_edge(u, v)]

    def relabel(self, mapping: Dict[int, int]) -> "TotalColoring":
        """Carry the coloring across a vertex relabeling."""
        vc = {mapping[v]: c for v, c in self.vertex_colors.items()}
        ec = {_norm_edge(mapping[u], mapping[v]): c for (u, v), c in self.edge_colors.items()}
        return TotalColoring(self.palette, vc, ec)


def is_proper_total(g: Graph, tc: TotalColoring) -> bool:
    """Proper total coloring check against g (domains must match exactly)."""
    vc, ec = tc.vertex_colors, tc.edge_colors
    if set(vc) != set(g.vertices()) or len(ec) != g.q:
        return False
    # q distinct keys, each an edge of g, are exactly g's edge set
    if not all(u < v and g.has_edge(u, v) for u, v in ec):
        return False
    if any(not 1 <= c <= tc.palette for c in (*vc.values(), *ec.values())):
        return False
    for u in g.vertices():
        cu = vc[u]
        seen = set()
        for w in g._adj[u]:
            e = ec[(u, w) if u < w else (w, u)]
            if vc[w] == cu or e == cu or e in seen:
                return False
            seen.add(e)
    return True


def edge_weight(tc: TotalColoring, u: int, v: int) -> int:
    """|f(u) + f(v) - f(uv)| for one edge."""
    return abs(tc.vertex(u) + tc.vertex(v) - tc.edge(u, v))


class FdtReport(NamedTuple):
    """Edge-weight summary of a total coloring."""

    weights: Dict[EdgeKey, int]
    wmin: int
    wmax: int
    bfdt: int
    k: Optional[int]  # the common weight, present only when bfdt == 0


def bfdt(g: Graph, tc: TotalColoring) -> FdtReport:
    """Weight spread max - min over all edges.  Needs at least one edge."""
    if g.q == 0:
        raise ValueError("weight spread is undefined without edges")
    w = {(u, v): edge_weight(tc, u, v) for u, v in g.edges()}
    wmin = min(w.values())
    wmax = max(w.values())
    return FdtReport(w, wmin, wmax, wmax - wmin, wmin if wmax == wmin else None)


# -- the equal-weight solver -----------------------------------------------

# The search recurses once per vertex and once per edge back to an earlier
# vertex, except that a vertex with two earlier neighbors colors both its
# edges in its own frame, so p + q + 2 stack frames is still an upper
# bound.  Python's default recursion limit is 1000; this leaves about 200
# frames to the callers.
MAX_SEARCH_ELEMENTS = 800


def _search_order(g: Graph) -> List[int]:
    """Maximum-adjacency vertex order: each next vertex sees as many
    already-ordered neighbors as possible (ties: degree, then id)."""
    p = g.p
    order: List[int] = []
    placed = [False] * (p + 1)
    start = max(g.vertices(), key=lambda v: (g.degree(v), -v))
    order.append(start)
    placed[start] = True
    back = [0] * (p + 1)
    for _ in range(p - 1):
        for w in g._adj[order[-1]]:
            if not placed[w]:
                back[w] += 1
        nxt = max(
            (v for v in g.vertices() if not placed[v]),
            key=lambda v: (back[v], g.degree(v), -v),
        )
        order.append(nxt)
        placed[nxt] = True
    return order


def _candidate_colors(full: int, k: int, back: List[int], vcol: List[int], emask: List[int]) -> int:
    """Bitmask of the colors c in `full` (bits 1..M) left to a vertex whose
    earlier neighbors sit at positions `back`, for common weight k.

    c stays when, at every earlier neighbor j, it differs from f(j) and
    one of the edge colors c + f(j) - k, c + f(j) + k is in range,
    differs from c and f(j), and is not yet used at j.  This is the
    inverse of the edge table of _tables: it shifts the colors open at j
    back to the vertex colors that reach them.
    """
    cand = full
    for j in back:
        cj = vcol[j]
        a = full & ~(emask[j] | 1 << cj)
        m = a >> (cj + k)
        # the minus color equals c itself when f(j) == k, and repeats the
        # plus color when k == 0
        if k and cj != k:
            m |= a >> (cj - k) if cj > k else a << (k - cj)
        cand &= m & ~(1 << cj)
    return cand


@functools.lru_cache(maxsize=128)
def _tables(M: int, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """(reach, fit, edge) for palette M and common weight k, built once per
    pair.

    edge[s], for s in 0..2M, is the bitmask of {s - k, s + k} in 1..M:
    the edge colors of weight k between two vertex colors that sum to s.
    It is the one statement of that rule.  An edge between colors c and
    c' may take the colors of edge[c + c'] other than c and c'.  Those
    two exclusions are all the special cases there are: s - k is c' when
    c == k and c when c' == k, and at k == 0 it is s + k, one color.

    reach[c], for c in 1..M, is the bitmask of the edge colors a vertex of
    color c can carry: the union of those colors over every c' in 1..M
    other than c (reach[0] is 0).  fit[d], for d in 0..M, is the bitmask
    of the colors c whose reach[c] holds at least d edge colors.

    The search reads edge for every edge it colors and masks each
    vertex's colors by fit of its degree, and the pendant completion
    gives each pendant's edge a color of its support's reach.  All three
    depend on (M, k) alone, so every graph and every palette sweep shares
    them.  The cache is bounded because one pair is O(M^2) bits, and an
    unbounded cache would keep every k of every palette searched.
    """
    full = (1 << (M + 1)) - 2
    edge = tuple(((1 << s - k if s > k else 0) | 1 << s + k) & full for s in range(2 * M + 1))
    reach = [0] * (M + 1)
    fit = [0] * (M + 1)
    for c in range(1, M + 1):
        # the pair c' < c gave reach[c] its colors when c' was visited
        r = reach[c]
        for c2 in range(c + 1, M + 1):
            colors = edge[c + c2] & ~(1 << c | 1 << c2)
            r |= colors
            reach[c2] |= colors
        reach[c] = r
        for d in range(r.bit_count() + 1):
            fit[d] |= 1 << c
    return tuple(reach), tuple(fit), edge


class _Plan(NamedTuple):
    """The palette-independent layout of one graph's search, by position
    in the search order."""

    order: List[int]  # the vertex at each position
    earlier: List[List[int]]  # positions of the earlier neighbors, ascending
    is_pendant: List[bool]  # degree 1, with its support placed earlier
    deg: List[int]


def _plan(g: Graph) -> _Plan:
    """Lay out g's search once for every palette.  Raises ValueError when
    p + q exceeds MAX_SEARCH_ELEMENTS."""
    if g.p + g.q > MAX_SEARCH_ELEMENTS:
        raise ValueError(
            "coloring search takes graphs with p + q <= %d, got p + q = %d"
            % (MAX_SEARCH_ELEMENTS, g.p + g.q)
        )
    order = _search_order(g)
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        sorted(pos[w] for w in g._adj[v] if pos[w] < i)
        for i, v in enumerate(order)
    ]
    is_pendant = [
        g.degree(order[i]) == 1 and len(earlier[i]) == 1 for i in range(g.p)
    ]
    deg = [g.degree(v) for v in order]
    return _Plan(order, earlier, is_pendant, deg)


def find_fdt_coloring(g: Graph, palette: int) -> Optional[TotalColoring]:
    """Search for a proper total coloring with every edge weight equal.

    Tries the common weight k = 0, 1, ... in turn; within each k,
    backtracks over the vertices that are not pendants (colors
    ascending) and derives edge colors, which have at most two
    candidates per edge once both ends are known: the colors of
    edge[c + c'] in the tables of _tables(M, k), other than the end
    colors c and c' and the colors already used.  A pendant is a vertex
    of degree 1 whose support, its one neighbor, comes earlier in the
    search order.  Each vertex starts from a bitmask of candidate
    colors: c stays only if it differs from every earlier neighbor j and
    the edge color c + f(j) - k or c + f(j) + k is still free at j, so
    the edge step only has to keep the new edges distinct.  One capacity
    check reads the table fit of _tables(M, k): a vertex of degree d
    keeps only the colors whose reach, the edge colors that vertex color
    can carry, holds at least d colors.  An edgeless graph takes the
    same search: at k = 0 every vertex gets color 1.

    fit implies that no placed vertex runs out of edge colors later.
    Every edge color that the edge step or the pendant completion puts
    between colors c and c' lies in both reach[c] and reach[c'], and a
    vertex's edge colors are distinct.  So a non-pendant vertex j of
    degree d, with e edges colored, still has at least d - e unused
    colors of reach[f(j)], one for each neighbor left to color.

    Pendants are colored after the search, in search order, once every
    other vertex is placed.  The edge from pendant i to its support j
    gets the lowest color e of reach[f(j)] not yet used at j, and i gets
    l = e - k - f(j) when 0 < l <= M and l != f(j), else e + k - f(j).
    This is exact:

    - Nothing else depends on a pendant.  A pendant touches only its
      support, and no vertex has a pendant among its earlier neighbors,
      since a pendant's only neighbor is its support, which comes
      before it.
    - A pendant's edge colors are exactly reach[f(j)]: e is in it just
      when some l in 1..M, other than f(j) and e, has l + f(j) + k = e,
      or l + f(j) - k = e with k != 0, and that l is the pendant color
      chosen above.
    - Every pendant can still be colored.  The support is not a
      pendant, so by the fit argument it keeps an unused reach color
      for each of its pendants left to color.  Every placement of the
      other vertices extends to the pendants, and None is still the
      outcome of an exhaustive search.
    - The choices are those of a search that also backtracks over
      pendants, edge colors ascending, with the pendants of one support
      in ascending edge colors.  The search order takes a pendant only
      once every vertex left in its component is a pendant, so every
      other edge at j is colored before it.  The lowest unused color
      then lies above the previous sibling's, and it is the first
      choice that search makes, with the same pendant color.  A
      pendant choice never fails, so the other vertices are placed as
      in that search, and the witness is the same.

    The mask and fit drop only subtrees that hold no completion, so the
    nodes that remain are visited in the same order as when every color
    is tried: the first witness is the same, and None is the outcome of
    an exhaustive search.  They add no recursion, so the search depth,
    and with it MAX_SEARCH_ELEMENTS, is unchanged.

    A vertex with exactly two earlier neighbors, the most common kind on
    random graphs, takes one fused step instead of _candidate_colors and
    a color_edges call per edge.  It reads both neighbors' colors and
    open edge colors once, builds the same candidate mask, fit included,
    and for each color walks its two edges' colors, read from edge as
    color_edges reads them, in one loop nest:
    each edge's colors ascending, the second edge's other than the
    first's, then the next vertex.  These are the nodes color_edges
    visits, in its order, in one frame instead of three.  The step
    writes its edge colors to echoice only when the rest of the search
    has succeeded.  That is exact because nothing reads echoice while
    the search runs: only the assembly of the witness does, after every
    position on the path to it has returned True.

    The layout of the search (_plan) depends on g alone, and the tables
    (_tables) on (M, k) alone; chi_fdt lays g out once for all its
    palettes.  The tables are cached for the 128 most recent (M, k)
    pairs, at most about 15 MB for palettes near M = 400.

    Raises ValueError when p + q exceeds MAX_SEARCH_ELEMENTS, the size
    whose search depth still fits Python's default recursion limit.
    """
    return _search(g, _plan(g), palette)


def _search(g: Graph, plan: _Plan, M: int) -> Optional[TotalColoring]:
    """find_fdt_coloring(g, M) on the layout plan = _plan(g), with the
    tables _tables(M, k) for each k in turn."""
    if M < g.max_degree() + 1:
        return None

    order, earlier, is_pendant, deg = plan
    p = g.p
    vcol = [0] * p
    emask = [0] * p  # bitmask of edge colors used at each position
    # edge colors from each position to its earlier neighbors, in order
    echoice = [[0] * len(back) for back in earlier]
    full = (1 << (M + 1)) - 2  # bits 1..M
    k = 0  # the common weight being searched
    fit: Tuple[int, ...] = ()  # fit[d]: the colors c with at least d colors in reach[c]
    edge: Tuple[int, ...] = ()  # edge[s]: the edge colors s - k, s + k in 1..M

    def place(i: int) -> bool:
        if i == p:
            return True
        if is_pendant[i]:
            return place(i + 1)
        back = earlier[i]
        if len(back) == 2:
            # _candidate_colors and color_edges fused for two earlier
            # neighbors j0 < j1: the same mask, the same nodes in the same
            # order, one frame per vertex instead of three
            j0, j1 = back
            c0, c1 = vcol[j0], vcol[j1]
            a0 = full & ~(emask[j0] | 1 << c0)
            a1 = full & ~(emask[j1] | 1 << c1)
            m0 = a0 >> (c0 + k)
            if k and c0 != k:
                m0 |= a0 >> (c0 - k) if c0 > k else a0 << (k - c0)
            m1 = a1 >> (c1 + k)
            if k and c1 != k:
                m1 |= a1 >> (c1 - k) if c1 > k else a1 << (k - c1)
            cand = m0 & m1 & fit[deg[i]] & ~(1 << c0 | 1 << c1)
            while cand:
                low = cand & -cand
                cand ^= low
                c = low.bit_length() - 1
                vcol[i] = c
                # each edge's colors of edge, other than c, f(j) and
                # the colors used at j
                o0 = edge[c + c0] & a0 & ~low
                o1 = edge[c + c1] & a1 & ~low
                while o0:
                    b0 = o0 & -o0
                    o0 ^= b0
                    emask[j0] |= b0
                    o = o1 & ~b0
                    while o:
                        b1 = o & -o
                        o ^= b1
                        emask[j1] |= b1
                        emask[i] = b0 | b1
                        if place(i + 1):
                            chosen = echoice[i]
                            chosen[0] = b0.bit_length() - 1
                            chosen[1] = b1.bit_length() - 1
                            return True
                        emask[i] = 0
                        emask[j1] ^= b1
                    emask[j0] ^= b0
            vcol[i] = 0
            return False
        cand = _candidate_colors(full, k, back, vcol, emask) & fit[deg[i]]
        while cand:
            low = cand & -cand
            cand ^= low
            c = low.bit_length() - 1
            vcol[i] = c
            if color_edges(i, c, back, echoice[i], 0, 0) if back else place(i + 1):
                return True
        vcol[i] = 0
        return False

    def color_edges(i: int, c: int, back: List[int], chosen: List[int], idx: int, local: int) -> bool:
        """Color the edges from position i to back[idx:], then place i + 1.
        back and chosen are earlier[i] and echoice[i]; local holds the
        edge colors already given to i's edges to back[:idx]."""
        j = back[idx]
        cj = vcol[j]
        opts = edge[c + cj] & ~(emask[j] | local | 1 << c | 1 << cj)
        last = idx + 1 == len(back)
        while opts:
            bit = opts & -opts
            opts ^= bit
            emask[j] |= bit
            chosen[idx] = bit.bit_length() - 1
            if last:
                emask[i] = local | bit
                if place(i + 1):
                    return True
                emask[i] = 0
            elif color_edges(i, c, back, chosen, idx + 1, local | bit):
                return True
            emask[j] ^= bit
        return False

    # a search that fails undoes every vertex and edge color it set, so
    # each k starts from all-zero vcol and emask
    for k in range(0, 2 * M - 1):
        reach, fit, edge = _tables(M, k)
        if place(0):
            ec: Dict[EdgeKey, int] = {}
            for i in range(p):
                if is_pendant[i]:
                    # the support's lowest unused reach color, and a
                    # pendant color that gives the edge weight k
                    j = earlier[i][0]
                    cj = vcol[j]
                    left = reach[cj] & ~emask[j]
                    assert left, "no edge color left at support %d" % order[j]
                    bit = left & -left
                    emask[j] |= bit
                    e = echoice[i][0] = bit.bit_length() - 1
                    l = e - k - cj
                    vcol[i] = l if 0 < l <= M and l != cj else e + k - cj
                for j, e in zip(earlier[i], echoice[i]):
                    ec[_norm_edge(order[i], order[j])] = e
            vc = {order[i]: vcol[i] for i in range(p)}
            tc = TotalColoring(M, vc, ec)
            assert is_proper_total(g, tc)
            assert g.q == 0 or bfdt(g, tc).k == k
            return tc
    return None


class ChiFdtResult(NamedTuple):
    """Outcome of the minimum-palette search."""

    m: Optional[int]  # smallest palette admitting spread 0, if found
    coloring: Optional[TotalColoring]
    searched_up_to: int  # largest palette exhausted (or where the witness sits)


def chi_fdt(g: Graph, max_palette: int) -> ChiFdtResult:
    """Smallest palette M <= max_palette with an equal-weight proper total
    coloring.  Walks M upward from Delta+1, so absence below the answer is
    proved exhaustively.  m is None when the budget is exhausted.

    g is laid out for the search once, and every palette reuses that
    layout.  Each (M, k) table is built once and kept in a cache of the
    128 most recent pairs (at most about 114 KB a pair at M = 400, so
    at most about 15 MB).  The answers are those of
    find_fdt_coloring(g, M) for each M in turn.  Graphs above find_fdt_coloring's size limit raise
    ValueError, unless max_palette <= Delta leaves no palette to search."""
    lo = g.max_degree() + 1
    if max_palette >= lo:
        plan = _plan(g)
        for M in range(lo, max_palette + 1):
            tc = _search(g, plan, M)
            if tc is not None:
                return ChiFdtResult(M, tc, M)
    return ChiFdtResult(None, None, max_palette)
