"""Core simple-graph type and the standard predicates used everywhere else.

Graphs are undirected, simple (no loops, no multi-edges), with vertices
numbered 1..p.  Isolated vertices are allowed.  All operations that return
graphs return new objects; Graph instances are treated as immutable.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# The largest order of any graph built here.  Graph allocates one
# adjacency set per vertex up front, so a document or argument that
# declares a huge p is refused with ValueError (CLI exit 2) instead of
# exhausting memory; the builders that lay out many vertices check their
# total against it before they allocate anything.
MAX_VERTICES = 100_000


def _check_order(p: int) -> None:
    if p > MAX_VERTICES:
        raise ValueError("graphs take p <= %d vertices, got p = %d" % (MAX_VERTICES, p))


class _Record:
    """Base of the validated value types (a coloring, a star, a system...).

    A subclass lists its field names, in __init__ order, as `_fields` and
    as its `__slots__`, and its __init__ checks the values, then stores
    them with _set.  == and repr read the fields: two records are equal
    only when they are of one class and their fields are equal, and the
    repr is `Name(field=value, ...)`.  A record is unhashable unless it is
    frozen.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Store the field values, given in `_fields` order."""
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):  # with no __hash__ beside it, Python sets __hash__ = None
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()


class _FrozenRecord(_Record):
    """A record whose fields are set once: assigning or deleting one
    afterwards raises AttributeError, and the record hashes as the tuple
    of its field values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._values())


class Graph:
    """Simple undirected graph on the vertex set {1, ..., p}."""

    __slots__ = ("p", "q", "_adj")

    def __init__(self, p: int, edges: Iterable[Tuple[int, int]] = ()):
        if p < 1:
            raise ValueError("graph needs at least one vertex, got p=%d" % p)
        _check_order(p)
        self.p = p
        adj: List[set] = [set() for _ in range(p + 1)]
        q = 0
        for u, v in edges:
            if not (1 <= u <= p and 1 <= v <= p):
                raise ValueError("edge (%d,%d) out of range 1..%d" % (u, v, p))
            if u == v:
                raise ValueError("loop at vertex %d not allowed" % u)
            if v in adj[u]:
                raise ValueError("duplicate edge (%d,%d)" % _norm_edge(u, v))
            adj[u].add(v)
            adj[v].add(u)
            q += 1
        self.q = q
        self._adj = adj

    @classmethod
    def _trusted(cls, p: int, adj: List[set]) -> "Graph":
        """A graph on adjacency sets built without __init__'s checks, for a
        caller that already holds its invariants: 1 <= p <= MAX_VERTICES,
        adj[0] empty, adj[1..p] symmetric sets of ids in 1..p with no
        loops.  Leaf surgery holds them by construction (leafops._lay_out
        shifts valid parts past each other; Surgery.finish renumbers a
        valid graph's survivors).  The graph owns adj afterwards."""
        g = object.__new__(cls)
        g.p, g.q, g._adj = p, sum(map(len, adj)) // 2, adj
        return g

    # -- basic accessors ---------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.p + 1)

    def edges(self) -> List[Edge]:
        """Edge list sorted ascending by (u, v)."""
        return sorted([(u, v) for u, a in enumerate(self._adj) for v in a if u < v])

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self.p and v in self._adj[u]

    def neighbors(self, v: int) -> List[int]:
        return sorted(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(len(self._adj[v]) for v in self.vertices())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.p == other.p
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.edges())))

    def __repr__(self):
        return "Graph(p=%d, q=%d)" % (self.p, self.q)

    def relabel(self, mapping: Dict[int, int], new_p: Optional[int] = None) -> "Graph":
        """Apply a vertex relabeling.  `mapping` must be injective on V."""
        if new_p is None:
            new_p = self.p
        return Graph(new_p, [(mapping[u], mapping[v]) for u, v in self.edges()])


# -- degree sequences ------------------------------------------------------


def degree_sequence(g: Graph) -> Tuple[int, ...]:
    """Degrees of g sorted non-increasing."""
    return tuple(sorted((g.degree(v) for v in g.vertices()), reverse=True))


def degree_counts(g: Graph) -> Dict[int, int]:
    """Map degree d -> number of vertices of degree d (only nonzero counts)."""
    counts: Dict[int, int] = {}
    for v in g.vertices():
        d = g.degree(v)
        counts[d] = counts.get(d, 0) + 1
    return counts


def _normalize_sequence(seq: Sequence[int]) -> Tuple[int, ...]:
    s = tuple(sorted(seq, reverse=True))
    if any(d < 0 for d in s):
        raise ValueError("degree sequence entries must be non-negative")
    return s


def is_graphical(seq: Sequence[int]) -> bool:
    """Erdos-Gallai test: does some simple graph realize these degrees?

    The argument is normalized (sorted non-increasing) internally, so any
    ordering is accepted.
    """
    d = _normalize_sequence(seq)
    n = len(d)
    if n == 0:
        return True
    if sum(d) % 2 != 0:
        return False
    if d[0] >= n:
        return False
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(d[i], k) for i in range(k, n))
        if lhs > rhs:
            return False
    return True


def realize_sequence(seq: Sequence[int]) -> Optional[Graph]:
    """Havel-Hakimi construction of a realization, or None.

    Vertex i of the result carries the i-th entry of the normalized
    (non-increasing) sequence as its degree.  Deterministic: the highest
    remaining vertex is always joined to the next-highest ones, ties broken
    by vertex id.
    """
    d = _normalize_sequence(seq)
    n = len(d)
    if n == 0:
        return None
    # residual degrees per vertex id 1..n
    residual = {i + 1: d[i] for i in range(n)}
    edges: List[Edge] = []
    while True:
        # pick the vertex with largest residual, smallest id on ties
        v = max(residual, key=lambda x: (residual[x], -x))
        dv = residual[v]
        if dv == 0:
            break
        residual[v] = 0
        targets = sorted(
            (u for u in residual if u != v and residual[u] > 0),
            key=lambda x: (-residual[x], x),
        )[:dv]
        if len(targets) < dv:
            return None
        for u in targets:
            residual[u] -= 1
            edges.append(_norm_edge(v, u))
    g = Graph(n, edges)
    assert degree_sequence(g) == d
    return g


# -- connectivity and trees ------------------------------------------------


def connected_components(g: Graph) -> List[List[int]]:
    seen = [False] * (g.p + 1)
    comps = []
    for s in g.vertices():
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g._adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    """One depth-first search from vertex 1: does it reach all p vertices?"""
    adj = g._adj
    seen = [False] * (g.p + 1)
    seen[1] = True
    stack = [1]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == g.p


def is_tree(g: Graph) -> bool:
    """Connected and q = p - 1; double-checked against the leaf identity."""
    ok = g.q == g.p - 1 and is_connected(g)
    if ok and g.p >= 2:
        # a tree's leaf count is forced by its higher-degree counts
        counts = degree_counts(g)
        n1 = counts.get(1, 0)
        assert n1 == 2 + sum((d - 2) * c for d, c in counts.items() if d >= 3)
    return ok


def leaves(g: Graph) -> List[int]:
    return [v for v in g.vertices() if g.degree(v) == 1]


# -- hamilton cycles -------------------------------------------------------


def is_hamilton_cycle(g: Graph, cycle: Sequence[int]) -> bool:
    """Does `cycle` list every vertex once and trace a closed walk in g?"""
    if len(cycle) != g.p or g.p < 3:
        return False
    if sorted(cycle) != list(g.vertices()):
        return False
    return all(
        g.has_edge(cycle[i], cycle[(i + 1) % g.p]) for i in range(g.p)
    )


def find_hamilton_cycle(g: Graph) -> Optional[List[int]]:
    """Exact backtracking search for a hamilton cycle.

    Returns the lexicographically smallest cycle as a vertex sequence
    starting at 1, or None.  Prunes on connectivity of the unvisited
    region and on unvisited vertices that have run out of usable
    neighbors.
    """
    p = g.p
    if p < 3:
        return None
    if min(g.degree(v) for v in g.vertices()) < 2:
        return None
    adj = [None] + [g.neighbors(v) for v in g.vertices()]
    visited = [False] * (p + 1)
    visited[1] = True
    path = [1]

    def unvisited_ok(cur: int) -> bool:
        # every unvisited vertex needs >= 2 usable contacts, and the
        # unvisited region plus the path ends must hang together
        start = None
        for v in range(2, p + 1):
            if not visited[v]:
                free = 0
                for w in adj[v]:
                    if not visited[w] or w == cur or w == 1:
                        free += 1
                if free < 2:
                    return False
                start = v
        # BFS over unvisited vertices only; tries runs only while the path
        # is short of p, so some vertex in 2..p is unvisited and start is set
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if not visited[w] and w not in seen:
                    seen.add(w)
                    queue.append(w)
        touches_cur = False
        touches_one = False
        for v in range(2, p + 1):
            if not visited[v]:
                if v not in seen:
                    return False
                if not touches_cur and cur in adj[v]:
                    touches_cur = True
                if not touches_one and 1 in adj[v]:
                    touches_one = True
        return touches_cur and touches_one

    def tries(cur: int):
        # the neighbors to try after cur, ascending; none once a prune fails
        return iter(adj[cur] if unvisited_ok(cur) else ())

    # explicit stack: stack[d] holds the untried neighbors of path[d]
    stack = [tries(1)]
    while stack:
        w = next((w for w in stack[-1] if not visited[w]), None)
        if w is None:
            stack.pop()
            visited[path.pop()] = False
            continue
        visited[w] = True
        path.append(w)
        if len(path) == p and g.has_edge(w, 1):
            return path
        stack.append(tries(w) if len(path) < p else iter(()))
    return None


# -- planarity -------------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Exact planarity (left-right test via networkx)."""
    import networkx as nx  # here, not at the top: it is most of `import iceflower`

    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(h)
    return ok


# -- isomorphism via canonical forms ---------------------------------------


def _refine_colors(g: Graph) -> List[List[int]]:
    """Stable color refinement; cells returned in a canonical order.

    Starting from degrees, vertices are repeatedly re-colored by the
    multiset of their neighbors' colors.  The final cells are sorted by
    their signature history, which is identical for isomorphic graphs.
    """
    adj = g._adj
    verts = g.vertices()
    # color[v] for v in 1..p; slot 0 is unused
    color = [len(a) for a in adj]
    ncells = len(set(color[1:]))
    while True:
        sig = [(color[v], tuple(sorted([color[w] for w in adj[v]]))) for v in verts]
        ordered = sorted(set(sig))
        index = {s: i for i, s in enumerate(ordered)}
        color = [0] + [index[s] for s in sig]
        if len(ordered) == ncells:
            break
        ncells = len(ordered)
    cells: List[List[int]] = [[] for _ in ordered]
    for v in verts:
        cells[color[v]].append(v)
    return cells


# canonical_form's search recurses once per vertex, so it needs p + 1
# stack frames.  Python's default recursion limit is 1000; this leaves
# about 200 frames to the callers.
MAX_CANONICAL_VERTICES = 800


def _canonical_search(g: Graph, gens: Optional[List[Tuple[int, ...]]] = None) -> List[int]:
    """The columns of g's smallest layout; appends generators of Aut(g) to `gens`.

    A layout puts every vertex at a position 0..p-1, each inside its
    refined color cell, and is read as one bitmask column per position.
    The search backtracks over layouts and keeps the lexicographically
    smallest column list.  Two cuts keep it from walking every layout:

    - A subtree is cut as soon as its prefix exceeds the best columns
      found so far.  The smallest layouts are never cut this way.
    - When a leaf path ties with the best layout B, the map
      a: B[t] -> path[t] is an automorphism, since the columns are the
      adjacency of each position to the earlier ones.  Let c be the first
      position where the two differ.  a fixes B[0..c-1] = path[0..c-1]
      and maps B[c] to path[c]; it keeps the refined cells, so it maps
      the subtree under the prefix B[0..c] onto the subtree under
      path[0..c], column for column.  The search left the first before
      it tried path[c] at position c, so it jumps back to position c
      and tries the next vertex there.  By induction on the time a
      subtree is left, no abandoned subtree holds a layout below the
      best of its time, and every smallest layout is a(L) for a product
      a of tie automorphisms and a smallest layout L that the search
      reached.  So the columns returned are the smallest.

    McKay (Practical graph isomorphism, Congr. Numer. 30, 1981; McKay and
    Piperno, Practical graph isomorphism II, J. Symb. Comput. 60, 2014)
    shows that the automorphisms read off such ties generate Aut(g): by
    the induction above, every smallest layout is h(B) for the final
    best B and some h in the group they generate, and for any
    automorphism a, a(B) is a smallest layout, so a = h.  Given a list,
    the search appends each of them as the tuple (a(1), ..., a(p)).
    """
    p = g.p
    cells = _refine_colors(g)
    # position i (0-based) draws from slot_cell[i]
    slot_cell: List[int] = []
    for ci, cell in enumerate(cells):
        slot_cell.extend([ci] * len(cell))
    remaining = [list(c) for c in cells]
    adj = g._adj

    best_cols: Optional[List[int]] = None
    best_path: List[int] = []
    # bumped on every new best; a new best found below a node shares its
    # prefix, so a prefix marked "below the best" at an older generation
    # equals the best again
    gen = 0
    # pos_of[v] is the position of vertex v on the path, or -1
    pos_of = [-1] * (p + 1)
    path: List[int] = []
    cols: List[int] = []

    def place(i: int, below: int) -> int:
        # below: the generation at which this prefix fell below the best,
        # or -1 while it equals the best (or no best exists yet).
        # Returns the position to resume at: p when nothing jumps.
        nonlocal best_cols, best_path, gen
        if i == p:
            # a leaf is never above the best, so a leaf not below it ties
            if best_cols is None or below == gen:
                best_cols = list(cols)
                best_path = list(path)
                gen += 1
                return p
            c = 0
            while path[c] == best_path[c]:
                c += 1
            if gens is not None:
                a = [0] * p
                for u, v in zip(best_path, path):
                    a[u - 1] = v
                gens.append(tuple(a))
            return c
        cell = remaining[slot_cell[i]]
        for v in list(cell):
            col = 0
            for w in adj[v]:
                j = pos_of[w]
                if j >= 0:
                    col |= 1 << j
            mark = below
            if best_cols is not None and below != gen:
                if col > best_cols[i]:
                    continue
                mark = gen if col < best_cols[i] else -1
            cell.remove(v)
            pos_of[v] = i
            path.append(v)
            cols.append(col)
            back = place(i + 1, mark)
            cols.pop()
            path.pop()
            pos_of[v] = -1
            cell.append(v)
            if back < i:
                return back
        return p

    place(0, -1)
    assert best_cols is not None
    return best_cols


def canonical_form(g: Graph) -> Tuple[int, Tuple[Edge, ...]]:
    """(p, edge tuple) invariant under relabeling: equal iff isomorphic.

    The edges of g's smallest layout (see _canonical_search).  An edgeless
    graph needs no search.

    Raises ValueError when p exceeds MAX_CANONICAL_VERTICES, the size
    whose search depth still fits Python's default recursion limit.
    """
    p = g.p
    if p > MAX_CANONICAL_VERTICES:
        raise ValueError(
            "canonical form takes graphs with p <= %d, got p = %d"
            % (MAX_CANONICAL_VERTICES, p)
        )
    if g.q == 0:
        return (p, ())
    best_cols = _canonical_search(g)
    # bit j of column i says whether positions j < i are adjacent
    edges = tuple(
        (j + 1, i + 1) for j in range(p) for i in range(j + 1, p) if best_cols[i] >> j & 1
    )
    return (p, edges)


def _automorphism_generators(g: Graph) -> List[Tuple[int, ...]]:
    """Generators of Aut(g), each automorphism a as the tuple (a(1), ..., a(p)).

    These are the automorphisms that _canonical_search reads off the
    layouts that tie with its best one; its docstring shows that they
    generate Aut(g) (McKay, Practical graph isomorphism, 1981).  The
    list is empty when Aut(g) is trivial.  It is not a group: close it
    under composition for the elements.
    """
    gens: List[Tuple[int, ...]] = []
    _canonical_search(g, gens)
    return gens


def canonical_relabel(g: Graph) -> Graph:
    """Relabel g into its canonical layout."""
    p, edges = canonical_form(g)
    return Graph(p, edges)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.p != h.p or g.q != h.q:
        return False
    if degree_sequence(g) != degree_sequence(h):
        return False
    return canonical_form(g) == canonical_form(h)


# -- saturation and vertex coloring ----------------------------------------


def is_delta_saturated(g: Graph) -> bool:
    """Every vertex has degree 1 or degree Delta(g)."""
    dmax = g.max_degree()
    return all(g.degree(v) in (1, dmax) for v in g.vertices())


def find_proper_vertex_coloring(g: Graph, colors: int) -> Optional[Dict[int, int]]:
    """Exact backtracking proper vertex coloring with at most `colors` colors.

    Deterministic: vertices in order of decreasing degree (id on ties),
    colors tried ascending.  Returns {vertex: color} or None.
    """
    if colors < 1:
        return None
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    assign: Dict[int, int] = {}
    # explicit stack: next_color[i] is the next color to try at order[i]
    next_color = [1] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        assign.pop(v, None)
        used = {assign[w] for w in g._adj[v] if w in assign}
        c = next_color[i]
        while c in used:
            c += 1
        if c > colors:
            next_color[i] = 1
            i -= 1
            continue
        assign[v] = c
        next_color[i] = c + 1
        i += 1
    if i < 0:
        return None
    return dict(sorted(assign.items()))
