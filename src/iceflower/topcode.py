"""Topcode-matrices, number strings, and the decomposition solver.

A colored graph flattens to a 3 x q matrix (one column per edge:
endpoint color, edge color, endpoint color), the matrix flattens to a
digit string, and the hard direction — cutting an arbitrary digit
string back into matrices that realize trees — is a search problem.
Caterpillar topological vectors and their additive lattice live here
too, since they ride on the same matrix machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graph import Graph, _norm_edge, is_connected, is_tree
from .coloring import TotalColoring


@dataclass(frozen=True)
class TopcodeMatrix:
    """Three parallel rows X, E, Y; column i encodes one edge."""

    X: Tuple[int, ...]
    E: Tuple[int, ...]
    Y: Tuple[int, ...]

    def __post_init__(self):
        if not (len(self.X) == len(self.E) == len(self.Y)):
            raise ValueError("rows must have equal length")
        if len(self.X) < 1:
            raise ValueError("at least one column required")
        for row in (self.X, self.E, self.Y):
            if any(v < 0 for v in row):
                raise ValueError("entries must be non-negative")

    @property
    def q(self) -> int:
        return len(self.X)

    def columns(self) -> List[Tuple[int, int, int]]:
        return [(self.X[i], self.E[i], self.Y[i]) for i in range(self.q)]

    def canonical(self) -> "TopcodeMatrix":
        """Endpoints ordered within each column, columns sorted by
        (edge value, endpoints) — the form topcode_from_graph emits."""
        cols = []
        for x, e, y in self.columns():
            a, b = (x, y) if x <= y else (y, x)
            cols.append((e, a, b))
        cols.sort()
        return TopcodeMatrix(
            tuple(c[1] for c in cols),
            tuple(c[0] for c in cols),
            tuple(c[2] for c in cols),
        )


def topcode_from_graph(g: Graph, f: TotalColoring) -> TopcodeMatrix:
    """One column (f(u), f(uv), f(v)) per edge, smaller endpoint color
    first, columns sorted by (edge color, endpoint colors)."""
    if g.q == 0:
        raise ValueError("a matrix needs at least one edge")
    cols = []
    for u, v in g.edges():
        a, b = f.vertex(u), f.vertex(v)
        if a > b:
            a, b = b, a
        cols.append((f.edge(u, v), a, b))
    cols.sort()
    return TopcodeMatrix(
        tuple(c[1] for c in cols),
        tuple(c[0] for c in cols),
        tuple(c[2] for c in cols),
    )


def string_from_topcode(t: TopcodeMatrix) -> str:
    """Row-major digit string: all of X, then E, then Y, each entry in
    minimal decimal form.  Entries above 99 have no 1-2 digit form."""
    for row in (t.X, t.E, t.Y):
        for v in row:
            if v > 99:
                raise ValueError("entry %d does not fit in two digits" % v)
    return "".join(
        str(v) for row in (t.X, t.E, t.Y) for v in row
    )


def _check_number_string(d: str) -> None:
    if not d or not d.isdigit():
        raise ValueError("a number string is a non-empty run of digits 0-9")


def _segmentations(
    d: str, start: int, count: int, memo: Dict[Tuple[int, int], list]
) -> List[Tuple[Tuple[int, ...], int]]:
    """All ways to read `count` segments of 1-2 digits from position
    `start`, wider-first at every position, as (values, end) pairs.

    Two-digit segments may not start with '0': their value would
    re-serialize one digit short, breaking the bit-exact inverse.
    """
    key = (start, count)
    if key in memo:
        return memo[key]
    if count == 0:
        memo[key] = [((), start)]
        return memo[key]
    out: List[Tuple[Tuple[int, ...], int]] = []
    if start + 2 <= len(d) and d[start] != "0":
        head = int(d[start : start + 2])
        for vals, end in _segmentations(d, start + 2, count - 1, memo):
            out.append(((head,) + vals, end))
    if start + 1 <= len(d):
        head = int(d[start])
        for vals, end in _segmentations(d, start + 1, count - 1, memo):
            out.append(((head,) + vals, end))
    memo[key] = out
    return out


def cuttings(d: str, q: int) -> Iterator[TopcodeMatrix]:
    """Every split of d into 3q contiguous 1-2 digit segments, assembled
    row-major; wider segments tried first, so the stream order is fixed."""
    _check_number_string(d)
    if q < 1:
        raise ValueError("q must be positive")
    if not 3 * q <= len(d) <= 6 * q:
        raise ValueError(
            "string of length %d cannot split into %d segments of 1-2 digits"
            % (len(d), 3 * q)
        )
    memo: Dict[Tuple[int, int], list] = {}
    for vals, end in _segmentations(d, 0, 3 * q, memo):
        if end == len(d):
            yield TopcodeMatrix(vals[:q], vals[q : 2 * q], vals[2 * q :])


def _assemble(
    cols: Sequence[Tuple[int, int, int]],
    ends: Sequence[Tuple[int, int]],
    p: int,
) -> Optional[Tuple[Graph, TotalColoring]]:
    """Graph on 1..p whose column i joins the vertices ends[i], colored by
    the column's labels, or None on loop/duplicate/disconnect."""
    edges = []
    vc: Dict[int, int] = {}
    ec: Dict[Tuple[int, int], int] = {}
    for (x, e, y), (u, v) in zip(cols, ends):
        if u == v:
            return None
        uv = _norm_edge(u, v)
        if uv in ec:
            return None
        edges.append(uv)
        ec[uv] = e
        vc[u] = x
        vc[v] = y
    g = Graph(p, edges)
    if not is_connected(g):
        return None
    palette = max(
        1, max(vc.values(), default=0), max(ec.values(), default=0)
    )
    return g, TotalColoring(palette, vc, ec)


def realize_topcode(
    t: TopcodeMatrix, identify: bool = False
) -> Optional[Tuple[Graph, TotalColoring]]:
    """Rebuild a colored graph whose matrix is t, or None.

    Default mode reads each distinct endpoint value as one vertex; the
    result must come out simple and connected.  Vertex colors are the
    label values themselves, so the coloring is total but usually not
    proper.

    With identify=True (q <= 6 only) occurrences of an endpoint value
    may also split into several vertices of that color; candidate
    splits are tried coarsest first and the first graph that works is
    returned, so the distinct-labels reading wins whenever it succeeds.
    """
    cols = t.columns()
    labels = sorted({v for x, _, y in cols for v in (x, y)})
    if not identify:
        vertex_of = {l: i + 1 for i, l in enumerate(labels)}
        ends = [(vertex_of[x], vertex_of[y]) for x, _, y in cols]
        return _assemble(cols, ends, len(labels))

    if t.q > 6:
        raise ValueError("identification search is limited to q <= 6")
    # occurrence slots per label value, in column order (x before y)
    slots: Dict[int, List[int]] = {l: [] for l in labels}
    slot_id = 0
    slot_of_col: List[Tuple[int, int]] = []
    for x, _, y in cols:
        slots[x].append(slot_id)
        sx = slot_id
        slot_id += 1
        slots[y].append(slot_id)
        sy = slot_id
        slot_id += 1
        slot_of_col.append((sx, sy))

    def partitions(items: List[int]) -> Iterator[List[List[int]]]:
        # restricted-growth order: the single-block partition comes first
        n = len(items)
        rgs = [0] * n

        def rec(i: int, maxb: int) -> Iterator[List[List[int]]]:
            if i == n:
                blocks: Dict[int, List[int]] = {}
                for j, b in enumerate(rgs):
                    blocks.setdefault(b, []).append(items[j])
                yield [blocks[b] for b in sorted(blocks)]
                return
            for b in range(maxb + 2):
                rgs[i] = b
                yield from rec(i + 1, max(maxb, b))

        return rec(1, 0) if n else iter([[]])

    def product(groups: List[List[int]], idx: int, slot_vertex: Dict[int, int], next_id: List[int]) -> Iterator[Dict[int, int]]:
        if idx == len(groups):
            yield dict(slot_vertex)
            return
        label = groups[idx]
        for part in partitions(slots[label]):
            added = []
            for block in part:
                vid = next_id[0]
                next_id[0] += 1
                for s in block:
                    slot_vertex[s] = vid
                added.append(block)
            yield from product(groups, idx + 1, slot_vertex, next_id)
            for block in added:
                next_id[0] -= 1
                for s in block:
                    del slot_vertex[s]

    for slot_vertex in product(list(labels), 0, {}, [1]):
        ends = [(slot_vertex[sx], slot_vertex[sy]) for sx, sy in slot_of_col]
        realized = _assemble(cols, ends, max(slot_vertex.values()))
        if realized is not None:
            return realized
    return None


def _tree_columns(
    xs: Sequence[int], ys: Sequence[int]
) -> bool:
    """Do the endpoint pairs form a tree on their distinct values?"""
    q = len(xs)
    parent: Dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen_pairs = set()
    for i in range(q):
        x, y = xs[i], ys[i]
        if x == y:
            return False
        pair = (x, y) if x < y else (y, x)
        if pair in seen_pairs:
            return False
        seen_pairs.add(pair)
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx == ry:
            return False  # cycle
        parent[rx] = ry
    return len(parent) == q + 1


def solve_dnsp(
    d: str, q_values: Sequence[int]
) -> List[Tuple[TopcodeMatrix, Graph, TotalColoring]]:
    """All cuttings of d whose distinct-labels realization is a tree.

    The sweep factors row by row: X segmentations of a prefix, then Y
    segmentations of each feasible suffix with the tree test applied to
    (X, Y) pairs, and only for passing pairs the middle row E — whose
    values the tree test never constrains — is expanded.  Results come
    out in cutting-stream order per q, deduplicated by matrix equality.
    """
    _check_number_string(d)
    qs = sorted(set(q_values))
    if not qs or any(q < 1 for q in qs):
        raise ValueError("q values must be positive")
    n = len(d)
    viable = [q for q in qs if 3 * q <= n <= 6 * q]
    if not viable:
        raise ValueError(
            "string of length %d fits no requested q (needs 3q <= %d <= 6q)"
            % (n, n)
        )
    out: List[Tuple[TopcodeMatrix, Graph, TotalColoring]] = []
    seen_matrices = set()
    for q in viable:
        memo: Dict[Tuple[int, int], list] = {}
        x_list = _segmentations(d, 0, q, memo)
        y_cache: Dict[int, List[Tuple[int, ...]]] = {}

        def y_rows(o2: int) -> List[Tuple[int, ...]]:
            if o2 not in y_cache:
                y_cache[o2] = [
                    vals
                    for vals, end in _segmentations(d, o2, q, memo)
                    if end == n
                ]
            return y_cache[o2]

        for xs, o1 in x_list:
            mid = _segmentations(d, o1, q, memo)
            passing: Dict[int, List[Tuple[int, ...]]] = {}
            for o2 in sorted({end for _, end in mid}):
                good = [ys for ys in y_rows(o2) if _tree_columns(xs, ys)]
                if good:
                    passing[o2] = good
            if not passing:
                continue
            for es, o2 in mid:
                for ys in passing.get(o2, []):
                    m = TopcodeMatrix(xs, es, ys)
                    key = (m.X, m.E, m.Y)
                    if key in seen_matrices:
                        continue
                    seen_matrices.add(key)
                    realized = realize_topcode(m)
                    assert realized is not None
                    g, f = realized
                    assert is_tree(g)
                    out.append((m, g, f))
    return out


# -- caterpillar topological vectors ---------------------------------------


def topological_vector(t: Graph) -> Tuple[int, ...]:
    """Pendant counts along a caterpillar's spine, read in whichever
    direction is lexicographically smaller."""
    if not is_tree(t):
        raise ValueError("topological vectors are defined for trees")
    leaves = {v for v in t.vertices() if t.degree(v) == 1}
    spine = [v for v in t.vertices() if v not in leaves]
    if not spine:
        if t.p == 1:
            return (0,)
        raise ValueError("not a caterpillar: no spine after leaf removal")
    spine_set = set(spine)
    spine_deg = {v: sum(1 for u in t.neighbors(v) if u in spine_set) for v in spine}
    if any(dv > 2 for dv in spine_deg.values()):
        raise ValueError("not a caterpillar: spine is not a path")
    # the spine inherits connectivity from t minus leaves; with max
    # degree 2 and no cycle (t is a tree) it is a path
    if len(spine) == 1:
        order = spine
    else:
        ends = [v for v in spine if spine_deg[v] == 1]
        if len(ends) != 2:
            raise ValueError("not a caterpillar: spine is not a path")
        order = [ends[0]]
        prev = None
        while len(order) < len(spine):
            nxt = [
                u
                for u in t.neighbors(order[-1])
                if u in spine_set and u != prev
            ]
            if len(nxt) != 1:
                raise ValueError("not a caterpillar: spine is not a path")
            prev = order[-1]
            order.append(nxt[0])
    counts = tuple(
        sum(1 for u in t.neighbors(v) if u in leaves) for v in order
    )
    return min(counts, counts[::-1])


def vector_lattice_member(
    v: Sequence[int],
    bases: Sequence[Sequence[int]],
    all_solutions: bool = False,
) -> Optional[List[Tuple[int, ...]]]:
    """Non-negative integer combinations of the base vectors summing to v.

    Vectors are right-padded with zeros to a common length.  At least
    one copy must be used overall.  Coefficients are bounded by the
    largest target entry (1 for the zero target), searched in ascending
    lexicographic order; the first hit is returned unless all are asked
    for.  None when no combination exists within the bound.
    """
    if not bases:
        raise ValueError("at least one base vector required")
    width = max(len(v), max(len(b) for b in bases))
    target = tuple(v) + (0,) * (width - len(v))
    padded = [tuple(b) + (0,) * (width - len(b)) for b in bases]
    if any(e < 0 for e in target) or any(e < 0 for b in padded for e in b):
        raise ValueError("vector entries must be non-negative")
    bound = max(max(target, default=0), 1)
    found: List[Tuple[int, ...]] = []
    coeff = [0] * len(padded)

    def rec(idx: int, partial: Tuple[int, ...]) -> bool:
        if any(partial[j] > target[j] for j in range(width)):
            return False
        if idx == len(padded):
            if partial == target and sum(coeff) >= 1:
                found.append(tuple(coeff))
                return not all_solutions
            return False
        for a in range(bound + 1):
            coeff[idx] = a
            add = tuple(
                partial[j] + a * padded[idx][j] for j in range(width)
            )
            if rec(idx + 1, add):
                return True
            if any(add[j] > target[j] for j in range(width)):
                break
        coeff[idx] = 0
        return False

    rec(0, (0,) * width)
    return found if found else None
