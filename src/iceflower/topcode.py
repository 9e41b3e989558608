"""Topcode-matrices, number strings, and the decomposition solver.

A colored graph flattens to a 3 x q matrix (one column per edge:
endpoint color, edge color, endpoint color), the matrix flattens to a
digit string, and the hard direction — cutting an arbitrary digit
string back into matrices that realize trees — is a search problem.
Caterpillar topological vectors and their additive lattice live here
too, since they ride on the same matrix machinery.
"""
from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .graph import Graph, _FrozenRecord, _norm_edge, is_connected, is_tree
from .coloring import TotalColoring
from .families import restricted_growth


class TopcodeMatrix(_FrozenRecord):
    """Three parallel rows X, E, Y; column i encodes one edge."""

    __slots__ = _fields = ("X", "E", "Y")

    def __init__(self, X: Tuple[int, ...], E: Tuple[int, ...], Y: Tuple[int, ...]):
        if not (len(X) == len(E) == len(Y)):
            raise ValueError("rows must have equal length")
        if len(X) < 1:
            raise ValueError("at least one column required")
        for row in (X, E, Y):
            if any(v < 0 for v in row):
                raise ValueError("entries must be non-negative")
        self._set(X, E, Y)

    @classmethod
    def _trusted(cls, X: Tuple[int, ...], E: Tuple[int, ...], Y: Tuple[int, ...]) -> "TopcodeMatrix":
        """A matrix built without __init__'s checks, for a caller whose rows
        are tuples of the same length q >= 1 with no entry negative by
        construction: solve_dnsp reads them from digits, and _canonical
        sorts the columns of a valid matrix or of a coloring's colors."""
        m = object.__new__(cls)
        object.__setattr__(m, "X", X)
        object.__setattr__(m, "E", E)
        object.__setattr__(m, "Y", Y)
        return m

    @property
    def q(self) -> int:
        return len(self.X)

    def columns(self) -> List[Tuple[int, int, int]]:
        return [(self.X[i], self.E[i], self.Y[i]) for i in range(self.q)]

    def canonical(self) -> "TopcodeMatrix":
        """Endpoints ordered within each column, columns sorted by
        (edge value, endpoints) — the form topcode_from_graph emits."""
        return _canonical(zip(self.X, self.E, self.Y))


def _canonical(cols: Iterable[Tuple[int, int, int]]) -> TopcodeMatrix:
    """The canonical matrix of the columns (x, e, y), at least one.  Its
    entries are a valid matrix's or a coloring's colors, none negative,
    so it is built without the checks."""
    E, X, Y = zip(*sorted((e, x, y) if x <= y else (e, y, x) for x, e, y in cols))
    return TopcodeMatrix._trusted(X, E, Y)


def topcode_from_graph(g: Graph, f: TotalColoring) -> TopcodeMatrix:
    """One column (f(u), f(uv), f(v)) per edge, smaller endpoint color
    first, columns sorted by (edge color, endpoint colors)."""
    if g.q == 0:
        raise ValueError("a matrix needs at least one edge")
    return _canonical((f.vertex(u), f.edge(u, v), f.vertex(v)) for u, v in g.edges())


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


def _is_number_string(d: str) -> bool:
    """A non-empty run of the ASCII digits 0-9.  str.isdigit() alone also
    takes other scripts' digits, which int() reads as different ASCII
    digits, and superscripts, which int() refuses."""
    return d.isascii() and d.isdigit()


def _check_number_string(d: str) -> None:
    if not _is_number_string(d):
        raise ValueError("a number string is a non-empty run of digits 0-9")


_Reads = List[Tuple[Tuple[int, int], ...]]


def _digit_reads(d: str) -> _Reads:
    """reads[p]: the (end, value) readings of one segment that starts at
    d[p], wider first: two digits unless they would start with '0' or run
    past the end, then one.  This is the only place digits become values:
    cuttings and solve_dnsp read d once into this list, and _readings and
    every step table take their values from it.

    Two-digit segments may not start with '0': their value would
    re-serialize one digit short, breaking the bit-exact inverse.  So a
    value below 10 always came from one digit and any other from two.

    The list runs on to 2 len(d) with no readings, since a Y-row table
    visits positions up to len(d) + q - 2 (see _row_steps)."""
    n = len(d)
    digits = [int(c) for c in d]
    reads: _Reads = [
        ((p + 2, 10 * a + digits[p + 1]), (p + 1, a)) if a and p + 1 < n else ((p + 1, a),)
        for p, a in enumerate(digits)
    ]
    return reads + [()] * n


def _readings(reads: _Reads, start: int, stop: int, count: int) -> Iterator[Tuple[int, ...]]:
    """Every way to read d[start:stop] as `count` segments, where reads =
    _digit_reads(d), wider first at every position, lazily and on an
    explicit stack of the positions' reading iterators.  A reading is
    taken only when the segments after it can fill the rest of the
    window, 1-2 digits each."""
    vals: List[int] = []
    stack = [iter(reads[start])]
    while stack:
        left = count - len(stack)  # segments after the one read here
        for end, v in stack[-1]:
            if left <= stop - end <= 2 * left:
                vals.append(v)
                if left:
                    stack.append(iter(reads[end]))
                else:
                    yield tuple(vals)
                    vals.pop()
                break
        else:
            stack.pop()
            if vals:
                vals.pop()


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
    for vals in _readings(_digit_reads(d), 0, len(d), 3 * q):
        yield TopcodeMatrix(vals[:q], vals[q : 2 * q], vals[2 * q :])


_Frame = Tuple[Graph, List[Tuple[int, int]], Dict[int, int], int]


def _assemble(
    xy: Sequence[Tuple[int, int]],
    ends: Sequence[Tuple[int, int]],
    p: int,
) -> Optional[_Frame]:
    """The uncolored half of a realization, shared by realize_topcode and
    solve_dnsp: the graph on 1..p whose column i joins the vertices
    ends[i], its edges in column order, its vertex colors (the X and Y
    labels) and the palette floor max(1, labels), or None on
    loop/duplicate (Graph rejects both) or disconnect.

    It depends on the X and Y rows only, so solve_dnsp builds it once for
    each (X, Y) pair and hands the same Graph to every middle row E read
    with it; a Graph is never changed after it is built.  _color adds
    each E's edge colors.
    """
    edges = [_norm_edge(u, v) for u, v in ends]
    try:
        g = Graph(p, edges)
    except ValueError:
        return None
    if not is_connected(g):
        return None
    vc: Dict[int, int] = {}
    for (x, y), (u, v) in zip(xy, ends):
        vc[u] = x
        vc[v] = y
    return g, edges, vc, max(1, *vc.values())


def _color(frame: _Frame, es: Sequence[int], top: int) -> TotalColoring:
    """The total coloring of an assembled graph whose column i's edge
    has color es[i], where top = max(es), read once for every frame an E
    row colors; the palette bound is the largest label, at least 1.
    Its invariants hold by construction (keys from _norm_edge, labels of
    a TopcodeMatrix or digits, so none negative), so it skips the checks."""
    _, edges, vc, floor = frame
    return TotalColoring._trusted(floor if floor > top else top, dict(vc), dict(zip(edges, es)))


def _distinct_labels(X: Sequence[int], Y: Sequence[int]) -> Optional[_Frame]:
    """_assemble with each distinct endpoint value read as one vertex,
    numbered 1.. in ascending value order."""
    labels = sorted({*X, *Y})
    vertex_of = {l: i + 1 for i, l in enumerate(labels)}
    ends = [(vertex_of[x], vertex_of[y]) for x, y in zip(X, Y)]
    return _assemble(list(zip(X, Y)), ends, len(labels))


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
    if not identify:
        frame = _distinct_labels(t.X, t.Y)
        return None if frame is None else (frame[0], _color(frame, t.E, max(t.E)))

    if t.q > 6:
        raise ValueError("identification search is limited to q <= 6")
    xy = list(zip(t.X, t.Y))
    labels = sorted({*t.X, *t.Y})
    # occurrence slots per label value, in column order: column i's x
    # end is slot 2i and its y end slot 2i+1
    slots: Dict[int, List[int]] = {l: [] for l in labels}
    for i, (x, y) in enumerate(xy):
        slots[x].append(2 * i)
        slots[y].append(2 * i + 1)

    def product(idx: int, slot_vertex: Dict[int, int], next_id: int) -> Iterator[Dict[int, int]]:
        # each label's slots split by a restricted-growth string, the
        # single block first; every slot is assigned on the way down, so
        # nothing is undone
        if idx == len(labels):
            yield slot_vertex
            return
        items = slots[labels[idx]]
        for rgs in restricted_growth(len(items)):
            for s, b in zip(items, rgs):
                slot_vertex[s] = next_id + b
            yield from product(idx + 1, slot_vertex, next_id + max(rgs) + 1)

    for slot_vertex in product(0, {}, 1):
        ends = [(slot_vertex[2 * i], slot_vertex[2 * i + 1]) for i in range(t.q)]
        frame = _assemble(xy, ends, max(slot_vertex.values()))
        if frame is not None:
            return frame[0], _color(frame, t.E, max(t.E))
    return None


_Steps = List[Dict[int, List[Tuple[int, int, int]]]]


def _row_steps(
    reads: _Reads, start: int, q: int, lo: int, hi: int, last_start: Optional[int] = None
) -> _Steps:
    """steps[i][p]: the (end, value, forced) readings of segment i at
    position p of a row of q segments that starts at start (or at any
    position up to last_start) and ends anywhere in lo..hi, wider first.

    The readings come from reads = _digit_reads(d), which holds every
    position's values for the whole string; only which of them a table
    keeps, and their forced masks, depend on lo..hi.  A reading is kept
    only when the row has a completion from it: the segments after it can
    be read to an end in lo..hi.  The X row, read from 0, ends in the
    range its Y row leaves it; the Y row ends at len(d) exactly, so its
    entries depend on i, p and len(d) only, and one table with last_start
    serves every Y-row start.

    forced is a bitmask of the values that every completion of the row
    from this reading reads: the reading's own value, and those that all
    of the next segment's readings at `end` force.  The table is built
    backward, last segment first, to fill it in.
    """
    last = start if last_start is None else last_start
    steps: _Steps = [{} for _ in range(q)]
    after: Dict[int, List[Tuple[int, int, int]]] = {}
    for i in range(q - 1, -1, -1):
        left = q - 1 - i
        first_end, last_end = lo - 2 * left, hi - left  # each later segment reads 1-2 digits
        table = steps[i]
        for p in range(start + i, last + 2 * i + 1):
            readings = []
            for end, v in reads[p]:
                if first_end <= end <= last_end:
                    if not left:
                        readings.append((end, v, 1 << v))
                    elif nxt := after[end]:  # leading zeros leave the rest no reading
                        readings.append((end, v, 1 << v | (nxt[0][2] & nxt[-1][2])))  # one or two
            table[p] = readings
        after = table
    return steps


_Pairs = List[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def _tree_rows(reads: _Reads, n: int, q: int) -> Iterator[Tuple[int, int, _Pairs]]:
    """(o1, o2, pairs) for every X-row end o1 and Y-row start o2 of a
    string of n digits, where reads = _digit_reads(d), cut into 3q
    segments: pairs lists every (X, Y) read from d[:o1] and d[o2:] whose
    columns (x_i, y_i) are the edges of a tree on q+1 labels.  Each o2
    comes once, its o1 in the order its search first reached them, and
    only the o1 with a pair.

    There is one search for each o2.  It places x_i and y_i together and
    lets the X row end at any o1 in lo..hi, the range o2 leaves for it
    (o1 in q..2q and o2 - o1 in q..2q), so an (X, Y) prefix is searched
    once for all the X-row ends it can still reach.  The Y row's step
    table is built once for all o2 (see _row_steps); each o2 builds its
    own X table, since which readings fit the end range lo..hi, and their
    forced masks, depend on o2.  The union-find, the row buffers and the
    search itself are made once per call and serve every o2: the search
    undoes each union on backtrack, so it leaves them as it found them.

    The labels seen are an int bitmask and connectivity is a union-find
    over the values 0-99 (Tarjan 1975).  A branch dies when its columns
    cannot reach q+1 labels, and when a column's two ends already share a
    root: a loop, a repeated pair or a cycle.

    It also dies when the labels seen, together with the forced values of
    the x and y readings (see _row_steps), are more than q+1.  That cut
    is sound: every completion of the branch reads all those values, so
    its label set holds their union, and a tree with q edges has exactly
    q+1 labels.  It removes only branches without a completion, so the
    pairs found are the same.  The forced values hold the readings' own,
    so the cut also covers a label count above q+1, and it mostly fires
    a level or two before that count would overflow.
    """
    most = q + 1
    first, last = max(2 * q, n - 2 * q), min(4 * q, n - q)
    y_steps = _row_steps(reads, first, q, n, n, last)
    parent = list(range(100))
    xs, ys = [0] * q, [0] * q
    found: Dict[int, _Pairs] = {}

    def place(i: int, px: int, py: int, seen: int) -> None:
        if i == q:
            found.setdefault(px, []).append((tuple(xs), tuple(ys)))
            return
        fewest = most - 2 * (q - i - 1)  # each column left adds <= 2 labels
        y_readings = y_steps[i][py]
        for ex, x, fx in x_steps[i][px]:
            bound = seen | fx
            if bound.bit_count() > most:
                continue
            rx = x  # find(x), inlined like find(y) below
            while parent[rx] != rx:
                rx = parent[rx]
            xs[i] = x
            seen_x = seen | 1 << x
            for ey, y, fy in y_readings:
                if (bound | fy).bit_count() > most:
                    continue
                grown = seen_x | 1 << y
                if grown.bit_count() < fewest:
                    continue
                ry = y
                while parent[ry] != ry:
                    ry = parent[ry]
                if rx == ry:
                    continue
                parent[rx] = ry
                ys[i] = y
                place(i + 1, ex, ey, grown)
                parent[rx] = rx

    for o2 in range(first, last + 1):
        x_steps = _row_steps(reads, 0, q, max(q, o2 - 2 * q), min(2 * q, o2 - q))
        place(0, 0, o2, 0)
        for o1, pairs in found.items():
            yield o1, o2, pairs
        found.clear()


def _widths(row: Tuple[int, ...]) -> Tuple[bool, ...]:
    """The row's segment widths as its place in the cutting-stream order:
    False for two digits, True for one (a value below 10 was read from one
    digit, any other from two, since no segment has a leading zero)."""
    return tuple([v < 10 for v in row])


def solve_dnsp(
    d: str, q_values: Collection[int]
) -> List[Tuple[TopcodeMatrix, Graph, TotalColoring]]:
    """All cuttings of d whose distinct-labels realization is a tree.

    Only the q with 3q <= len(d) <= 6q can fit, and only those are
    looked up in q_values, so it may be a range of any size.

    The digit values are read once per call (_digit_reads), and one pair
    search per q (_tree_rows) finds every (X, Y) whose columns form a
    tree, under each split (o1, o2) of d into X | E | Y.  It prunes on
    loops, repeated pairs, cycles, label counts and the values each row
    must still read.

    Each passing (X, Y) is realized once (_assemble) and its Graph is
    shared by every solution it is part of.  The middle row E = d[o1:o2],
    which the tree test never constrains, is read out once for each
    split with a passing (X, Y), and each reading only adds its edge
    colors.  The solver builds these outputs itself, so it makes them
    through the _trusted constructors, which skip the checks of values it
    already holds to.  Results come out per q in cutting-stream order:
    segment widths of X, then E, then Y, width 2 before width 1.  No two
    cuttings share a width pattern, so that sort key alone fixes the
    order, whatever order the searches found them in.  Each pair's X and
    Y widths and each E reading's widths are made once, and a solution's
    key is their concatenation.  There is no dedup: a cutting is
    bit-exact, so different cuttings give different matrices.

    Every value is at most 99, so a matrix has at most 100 distinct
    labels, while a tree with q edges needs q+1 of them: every q >= 100
    has no solution and is skipped without search.  This also bounds the
    search's recursion depth by 99.
    """
    _check_number_string(d)
    # a range may be vast: read its ends, never list it
    qs: Collection[int] = q_values if isinstance(q_values, range) else set(q_values)
    if not qs:
        raise ValueError("no q value was given")
    lowest = min(qs[0], qs[-1]) if isinstance(qs, range) else min(qs)
    if lowest < 1:
        raise ValueError("q values must be positive")
    n = len(d)
    viable = [q for q in range(-(-n // 6), n // 3 + 1) if q in qs]
    if not viable:
        raise ValueError(
            "string of length %d fits no requested q (needs 3q <= %d <= 6q)"
            % (n, n)
        )
    out: List[Tuple[TopcodeMatrix, Graph, TotalColoring]] = []
    reads = _digit_reads(d)
    for q in viable:
        if q >= 100:
            continue
        found: List[Tuple[Tuple[bool, ...], TopcodeMatrix, Graph, TotalColoring]] = []
        for o1, o2, pairs in _tree_rows(reads, n, q):
            frames = []
            for xs, ys in pairs:
                frame = _distinct_labels(xs, ys)
                if frame is None:
                    raise RuntimeError(
                        "rows X=%s Y=%s passed the tree search but do not realize as a tree"
                        % (xs, ys)
                    )
                frames.append((xs, ys, frame, _widths(xs), _widths(ys)))
            for es in _readings(reads, o1, o2, q):
                top, w_es = max(es), _widths(es)
                found.extend(
                    (
                        w_xs + w_es + w_ys,
                        TopcodeMatrix._trusted(xs, es, ys),
                        frame[0],
                        _color(frame, es, top),
                    )
                    for xs, ys, frame, w_xs, w_ys in frames
                )
        found.sort(key=lambda s: s[0])
        out.extend(s[1:] for s in found)
    return out


# -- caterpillar topological vectors ---------------------------------------


def topological_vector(t: Graph) -> Tuple[int, ...]:
    """Pendant counts along a caterpillar's spine, read in whichever
    direction is lexicographically smaller."""
    if not is_tree(t):
        raise ValueError("topological vectors are defined for trees")
    spine = {v: [] for v in t.vertices() if t.degree(v) != 1}
    if not spine:
        raise ValueError("not a caterpillar: no spine after leaf removal")
    for v, nbrs in spine.items():
        nbrs.extend(u for u in t.neighbors(v) if u in spine)
        if len(nbrs) > 2:
            raise ValueError("not a caterpillar: spine is not a path")
    # t minus its leaves is a tree of max degree 2, so a path: walk it
    # from its smallest end
    order = [min(v for v, nbrs in spine.items() if len(nbrs) < 2)]
    while len(order) < len(spine):
        order.append(next(u for u in spine[order[-1]] if u not in order[-2:]))
    counts = tuple(t.degree(v) - len(spine[v]) for v in order)
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
    for.  None when no combination exists within the bound.  The partial
    sums are kept on an explicit stack, so any number of bases fits.
    """
    if not bases:
        raise ValueError("at least one base vector required")
    width = max(len(v), max(len(b) for b in bases))
    target = tuple(v) + (0,) * (width - len(v))
    padded = [tuple(b) + (0,) * (width - len(b)) for b in bases]
    if any(e < 0 for e in target) or any(e < 0 for b in padded for e in b):
        raise ValueError("vector entries must be non-negative")
    bound = max(max(target, default=0), 1)
    n = len(padded)
    found: List[Tuple[int, ...]] = []
    coeff = [0] * n
    sums = [(0,) * width]  # sums[i]: the first i bases' terms added up
    while True:
        sums += [sums[-1]] * (n + 1 - len(sums))  # the bases not yet set start at 0
        if sums[-1] == target and any(coeff):
            found.append(tuple(coeff))
            if not all_solutions:
                break
        # raise the last coefficient that can grow without passing the
        # target; the ones after it restart at 0
        while len(sums) > 1:
            i = len(sums) - 2
            raised = tuple(s + b for s, b in zip(sums.pop(), padded[i]))
            if coeff[i] < bound and all(s <= t for s, t in zip(raised, target)):
                coeff[i] += 1
                sums.append(raised)
                break
            coeff[i] = 0
        else:
            break
    return found if found else None
