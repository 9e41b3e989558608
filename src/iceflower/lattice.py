"""Star expressions of graphs and the lattices they generate.

Any connected graph with an internal vertex is a coinciding-combination
of stars, one star K_{1,deg(w)} per non-leaf vertex w; the script type
below records the star multiset and the merge steps so the expression
can be replayed.  On top of that sit the membership/construction views:
haired cycles closed into hamiltonian graphs, planar members with their
4-colorings, the labeled spanning trees with rainbow colors, Euler
expressions, and color-preserving membership against a colored system.
"""
from __future__ import annotations

import random
from itertools import accumulate, islice, product
from typing import Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .graph import (
    Graph,
    _Record,
    _check_order,
    _norm_edge,
    canonical_form,
    find_hamilton_cycle,
    find_proper_vertex_coloring,
    is_connected,
    is_planar,
)
from .families import prufer_to_tree
from .coloring import TotalColoring, is_proper_total
from .leafops import Surgery, _lay_out
from .system import ColoredIceFlowerSystem, IceFlowerSystem, Star, make_star

Step = Tuple[int, int, int, int]  # (instance, leaf slot, instance, leaf slot)


class CoincideScript(_Record):
    """A star multiset plus merge steps; replaying rebuilds one graph.

    Star instances are numbered 1..sum(coefficients), grouped by base
    position and copy order.  Leaf slot l of an instance of K_{1,m}
    means the l-th canonical leaf (1-based); each slot can be consumed
    by at most one step.
    """

    __slots__ = _fields = ("base", "coefficients", "steps")

    def __init__(self, base: IceFlowerSystem, coefficients: Tuple[int, ...], steps: Tuple[Step, ...]):
        if len(coefficients) != base.n:
            raise ValueError("one coefficient per base star required")
        if any(a < 0 for a in coefficients):
            raise ValueError("coefficients must be non-negative")
        if sum(coefficients) < 1:
            raise ValueError("at least one star copy required")
        self._set(base, coefficients, steps)


def _replay(
    script: CoincideScript,
    system: Optional[ColoredIceFlowerSystem] = None,
) -> Tuple[Graph, Optional[TotalColoring]]:
    """Lay out the star copies and run the merge steps in order.

    Copy t occupies the ids shift + 1 .. shift + m + 1, center first, so
    leaf slot l of it is vertex shift + 1 + l for the whole replay, and
    a consumed slot is a deleted leaf.  With a colored system every step
    is also checked for color compatibility.
    """
    if system is not None and system.sizes() != script.base.sizes():
        raise ValueError("system stars do not match the script base")
    colorings = system.colorings if system is not None else None
    g, theta, shifts = _lay_out(script.base.stars, script.coefficients, colorings)
    centers = [s + 1 for s in shifts]
    leaves = [star.m for star, a in zip(script.base.stars, script.coefficients) for _ in range(a)]

    surgery = Surgery(g, theta)
    for t1, l1, t2, l2 in script.steps:
        for t, l in ((t1, l1), (t2, l2)):
            if not (1 <= t <= len(centers) and 0 <= l <= leaves[t - 1]):
                raise ValueError("step references unknown slot (%d,%d)" % (t, l))
            if l < 1:
                raise ValueError("steps must consume leaf slots, not centers")
            if centers[t - 1] + l in surgery.gone:
                raise ValueError("slot (%d,%d) already consumed" % (t, l))
        c1, c2 = centers[t1 - 1], centers[t2 - 1]
        surgery.merge((c1, c1 + l1), (c2, c2 + l2))
    g, _, theta = surgery.finish()
    return g, theta


def recompose(script: CoincideScript) -> Graph:
    """Replay a script into its graph."""
    g, _ = _replay(script)
    return g


def recompose_colored(
    script: CoincideScript, system: ColoredIceFlowerSystem
) -> Tuple[Graph, TotalColoring]:
    """Replay a script with the system's star colorings carried along."""
    g, theta = _replay(script, system)
    assert theta is not None
    return g, theta


def _express(
    g: Graph,
    stars: Sequence[Star],
    keys: Sequence[Tuple[Hashable, Sequence[int]]],
    star_at: Callable[[int], Tuple[Hashable, Sequence[int]]],
) -> Optional[CoincideScript]:
    """Express g over the given base stars, or None when some split star
    matches no base star.

    Splitting every internal edge leaves one star per internal vertex w.
    star_at(w) is that star's signature with w's neighbors in matching
    order; keys[i] is base star i's signature with its leaf slots in the
    same order.  w goes on the first base star of equal signature, its
    neighbors onto that star's slots, and every internal edge becomes a
    step.  Instances are numbered by base position, then by vertex id.
    """
    if g.q == 0:
        raise ValueError("edgeless graph has no star expression")
    if not is_connected(g):
        raise ValueError("star expressions need a connected graph")
    non_leaf = [w for w in g.vertices() if g.degree(w) >= 2]
    if not non_leaf:
        raise ValueError("no internal vertex (p <= 2); nothing to express")

    first: Dict[Hashable, int] = {}
    for i, (sig, _) in enumerate(keys):
        first.setdefault(sig, i)
    assigned: Dict[int, int] = {}  # internal vertex -> base position
    slot_of: Dict[int, Dict[int, int]] = {}  # internal vertex -> neighbor -> slot
    for w in non_leaf:
        sig, nbrs = star_at(w)
        if sig not in first:
            return None
        assigned[w] = first[sig]
        slot_of[w] = dict(zip(nbrs, keys[first[sig]][1]))

    coefficients = [0] * len(stars)
    for i in assigned.values():
        coefficients[i] += 1
    order = sorted(assigned, key=lambda w: (assigned[w], w))
    instance = {w: t for t, w in enumerate(order, start=1)}
    steps = tuple(
        (instance[u], slot_of[u][v], instance[v], slot_of[v][u])
        for u, v in g.edges()
        if u in instance and v in instance
    )
    assert g.q == sum(a * s.m for a, s in zip(coefficients, stars)) - len(steps)
    return CoincideScript(IceFlowerSystem(list(stars)), tuple(coefficients), steps)


def _express_by_degree(g: Graph, stars: Sequence[Star]) -> Optional[CoincideScript]:
    """Match internal vertices to stars by degree alone; leaf slots follow
    ascending neighbor order, so scripts are canonical."""
    keys = [(s.m, range(1, s.m + 1)) for s in stars]
    return _express(g, stars, keys, lambda w: (g.degree(w), g.neighbors(w)))


def decompose_to_stars(g: Graph) -> CoincideScript:
    """Star expression of a connected graph: one K_{1,deg(w)} per internal
    vertex w, merged along the internal edges.  Base stars are the
    distinct internal degrees, ascending."""
    sizes = sorted({g.degree(w) for w in g.vertices() if g.degree(w) >= 2})
    script = _express_by_degree(g, [make_star(m) for m in sizes])
    assert script is not None  # sizes were read off g itself
    return script


def uncolored_lattice_member(
    g: Graph, base: IceFlowerSystem
) -> Optional[CoincideScript]:
    """A script over the given base, or None when some internal degree of
    g has no star of matching size."""
    return _express_by_degree(g, base.stars)


def euler_expression(g: Graph) -> Optional[CoincideScript]:
    """Star expression when g is connected with all degrees even (and has
    at least one edge); None otherwise."""
    if g.q == 0 or not is_connected(g):
        return None
    if any(g.degree(v) % 2 for v in g.vertices()):
        return None
    return decompose_to_stars(g)


# -- haired cycles and the hamiltonian view --------------------------------


class HairedCycle(NamedTuple):
    """A cycle of former star centers with leftover pendant leaves."""

    graph: Graph
    spine: List[int]  # cyclic order of centers
    pendants: Dict[int, List[int]]  # spine vertex -> its pendant leaf ids

    def pendant_count(self) -> int:
        return sum(len(v) for v in self.pendants.values())


def build_haired_cycle(degrees: Sequence[int]) -> HairedCycle:
    """Chain stars K_{1,m_i} into a cycle of their centers.

    Star i donates its last leaf to reach star i+1's first leaf; the
    cycle closes between star n's last leaf and star 1's first leaf.
    Spine vertex i keeps m_i - 2 pendant leaves.  The graph is built
    directly on the ids that merge chain renumbers to: star i keeps its
    center and its middle leaves, so its center is 1 + sum_{k<i}(m_k - 1)
    and its pendants follow it.  The sum(m) - n vertices are checked
    against MAX_VERTICES before anything is allocated.
    """
    n = len(degrees)
    if n < 3:
        raise ValueError("a cycle needs at least 3 spine vertices")
    if any(m < 2 for m in degrees):
        raise ValueError("every spine degree must be >= 2")
    _check_order(sum(degrees) - n)

    centers = list(accumulate((m - 1 for m in degrees[:-1]), initial=1))
    pendants = {c: list(range(c + 1, c + m - 1)) for c, m in zip(centers, degrees)}
    edges = [(centers[i], centers[(i + 1) % n]) for i in range(n)]
    edges.extend((c, x) for c, hair in pendants.items() for x in hair)
    g = Graph(sum(degrees) - n, edges)

    hc = HairedCycle(g, centers, pendants)
    for i in range(n):
        assert g.degree(centers[i]) == degrees[i]
        assert g.has_edge(centers[i], centers[(i + 1) % n])
    assert g.p == sum(degrees) - n and g.q == sum(degrees) - n
    return hc


class ClosureResult(NamedTuple):
    graphs: List[Graph]  # canonically labeled, sorted, deduplicated
    partial: bool  # True when sampling replaced the exhaustive sweep


class NoClosure(ValueError):
    """No pairing of a haired cycle's pendants closes it: a proven "no",
    unlike a ValueError for input beyond a size limit."""


def _chord_graphs(
    n: int, residual: List[int]
) -> Iterator[List[Tuple[int, int]]]:
    """Yield every simple chord set on spine positions 0..n-1 realizing the
    given degrees while avoiding the n cycle edges.

    The lowest position that still needs chords takes its next one, to a
    partner beyond its previous one.  That builds each set in one order
    only (its sorted order).  The chosen chords are the search stack, so
    a set of any size needs no recursion.
    """
    res = list(residual)
    chosen: List[Tuple[int, int]] = []
    i, j = 0, 0  # the position taking a chord, and its last partner tried
    while True:
        while i < n and res[i] == 0:
            i, j = i + 1, i + 1
        if i == n:
            yield list(chosen)
        else:
            j += 1
            while j < n and not (res[j] and 1 < j - i < n - 1):
                j += 1
            if j < n:
                res[i] -= 1
                res[j] -= 1
                chosen.append((i, j))
                continue
        if not chosen:
            return
        i, j = chosen.pop()
        res[i] += 1
        res[j] += 1


def close_to_hamiltonian(
    hc: HairedCycle,
    exhaustive_limit: int = 20,
    seed: int = 0,
    samples: int = 2000,
) -> ClosureResult:
    """Every way to pair off the pendant leaves without multi-edges.

    Pendants at one spine vertex are interchangeable, so pairings are
    enumerated as chord sets on the spine: simple, loop-free, disjoint
    from the cycle, with chord-degree m_i - 2 at spine vertex i.  Merging
    two pendants deletes both leaves and joins their supports, so a chord
    set closes the haired cycle into the spine cycle plus those chords;
    each closure is built as that graph on spine positions 1..n, and the
    results are deduplicated up to isomorphism (canonical labels, sorted),
    which no vertex labeling changes.

    Beyond `exhaustive_limit` pendants the sweep switches to seeded
    random pairings and the result is flagged partial.  When no sample
    avoids multi-edges, the first chord set of the exhaustive order
    stands in for them, so NoClosure (a ValueError) is always the
    outcome of an exhaustive search.  Spines beyond canonical_form's
    MAX_CANONICAL_VERTICES raise a plain ValueError.
    """
    n = len(hc.spine)
    residual = [len(hc.pendants[v]) for v in hc.spine]
    total = sum(residual)
    if total % 2:
        raise NoClosure("odd pendant count: no perfect pairing exists")

    partial = total > max(exhaustive_limit, 0)  # no pendants: one empty chord set, never partial
    if not partial:
        chord_sets = list(_chord_graphs(n, residual))
    else:
        rng = random.Random(seed)
        slots = [i for i in range(n) for _ in range(residual[i])]
        seen_sets = set()
        for _ in range(samples):
            order = list(slots)
            rng.shuffle(order)
            pairing = [_norm_edge(a, b) for a, b in zip(order[::2], order[1::2])]
            # a chord is neither a loop nor a cycle edge, and no pair repeats
            if all(1 < b - a < n - 1 for a, b in pairing) and len(set(pairing)) == len(pairing):
                seen_sets.add(tuple(sorted(pairing)))
        chord_sets = [list(s) for s in sorted(seen_sets)]
        if not chord_sets:
            chord_sets = list(islice(_chord_graphs(n, residual), 1))

    if not chord_sets:
        raise NoClosure("no pairing avoids multi-edges")

    cycle = [(i, i % n + 1) for i in range(1, n + 1)]
    results: Dict[Tuple, Graph] = {}
    for chords in chord_sets:
        key = canonical_form(Graph(n, cycle + [(i + 1, j + 1) for i, j in chords]))
        if key not in results:
            results[key] = Graph(key[0], key[1])
    ordered = [results[k] for k in sorted(results)]
    return ClosureResult(ordered, partial)


def hamiltonian_lattice_member(g: Graph) -> bool:
    """g carries a full closed tour (so it is connected, min degree >= 2)."""
    return find_hamilton_cycle(g) is not None


def hamiltonian_witness(g: Graph) -> Optional[HairedCycle]:
    """Split every off-tour edge of a hamiltonian graph, exposing the
    haired cycle it came from (inverse of the closing construction).

    The haired cycle is built in one pass on the ids a chain of
    leaf_split calls would give: the i-th off-tour edge (u, v), in
    g.edges() order, leaves p+2i+1 on u and p+2i+2 on v.
    """
    cycle = find_hamilton_cycle(g)
    if cycle is None:
        return None
    p = len(cycle)
    on_cycle = {_norm_edge(cycle[i], cycle[(i + 1) % p]) for i in range(p)}
    off_tour = [e for e in g.edges() if e not in on_cycle]
    pendants: Dict[int, List[int]] = {v: [] for v in cycle}
    for i, (u, v) in enumerate(off_tour):
        pendants[u].append(p + 2 * i + 1)
        pendants[v].append(p + 2 * i + 2)
    edges = list(on_cycle)
    edges.extend((c, x) for c, hair in pendants.items() for x in hair)
    hc = HairedCycle(Graph(p + 2 * len(off_tour), edges), list(cycle), pendants)
    for x in cycle:
        assert hc.graph.degree(x) == g.degree(x)
    return hc


# -- planar, spanning, colored views ---------------------------------------


def planar_lattice_member(g: Graph) -> Optional[Dict[int, int]]:
    """A 4-palette proper vertex coloring iff g is connected, planar and
    leafless; None otherwise."""
    if not is_connected(g) or not is_planar(g):
        return None
    if any(g.degree(v) == 1 for v in g.vertices()):
        return None
    coloring = find_proper_vertex_coloring(g, 4)
    assert coloring is not None  # guaranteed for planar graphs
    return coloring


def spanning_lattice_count(m: int) -> int:
    """Number of labeled trees on m vertices."""
    if m < 2:
        raise ValueError("m >= 2 required")
    return m ** (m - 2)


def spanning_lattice_enumerate(m: int) -> List[Tuple[Graph, Dict[int, int]]]:
    """All labeled trees on m vertices, each with the rainbow coloring
    v_i -> i.  Trees are distinguishable by their labels, so there is
    deliberately no isomorphism dedup; order follows the code sweep."""
    if m < 2:
        raise ValueError("m >= 2 required")
    rainbow = {i: i for i in range(1, m + 1)}
    return [
        (prufer_to_tree(seq, m), dict(rainbow))
        for seq in product(range(1, m + 1), repeat=m - 2)
    ]


def colored_lattice_member(
    g: Graph, f: TotalColoring, base: ColoredIceFlowerSystem
) -> Optional[CoincideScript]:
    """Express (g, f) over the colored base, color-preservingly.

    Splitting every internal edge of g turns it into one colored star
    per internal vertex w: center colored f(w), each leaf copying the
    far endpoint's color, each leaf-edge keeping its edge color.  Each
    such star must match a base star with the same center color and
    (edge color, leaf color) multiset; leaves and base slots are paired
    off in the order of those pairs, ties broken by id.  Inputs that
    have no uncolored star expression are refused in the same way.
    """
    if not is_proper_total(g, f):
        raise ValueError("membership is defined for proper total colorings")

    def split(h: Graph, c: TotalColoring, w: int) -> Tuple[Hashable, List[int]]:
        order = sorted(h.neighbors(w), key=lambda u: (c.edge(w, u), c.vertex(u)))
        return (c.vertex(w), tuple((c.edge(w, u), c.vertex(u)) for u in order)), order

    # base star leaf l + 1 (canonical layout, center 1) is slot l
    split_base = [split(s.graph, bf, 1) for s, bf in zip(base.stars, base.colorings)]
    keys = [(sig, [u - 1 for u in leaves]) for sig, leaves in split_base]
    return _express(g, base.stars, keys, lambda w: split(g, f, w))
