import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest

import iceflower
from iceflower import families
from iceflower.graph import (
    MAX_CANONICAL_VERTICES,
    MAX_VERTICES,
    Graph,
    _automorphism_generators,
    _refine_colors,
    are_isomorphic,
    canonical_form,
    canonical_relabel,
    connected_components,
    degree_sequence,
    find_hamilton_cycle,
    find_proper_vertex_coloring,
    is_connected,
    is_delta_saturated,
    is_graphical,
    is_hamilton_cycle,
    is_planar,
    is_tree,
    leaves,
    realize_sequence,
)
from iceflower.families import (
    complete_bipartite_graph,
    complete_graph,
    connected_classes,
    cycle_graph,
    free_trees,
    graph_classes,
    hamilton_cycle_bruteforce,
    kuratowski_planar,
    path_graph,
    prufer_to_tree,
    restricted_growth,
    star_graph,
    tree_encoding,
)
from tests.conftest import count_free_trees, place_calls, random_connected_graph


def test_graph_validation():
    g = Graph(3, [(1, 2), (2, 3)])
    assert g.p == 3 and g.q == 2
    for p, edges, msg in [
        (0, [], "graph needs at least one vertex, got p=0"),
        (-2, [], "graph needs at least one vertex, got p=-2"),
        (3, [(1, 4)], "edge (1,4) out of range 1..3"),
        (3, [(0, 2)], "edge (0,2) out of range 1..3"),
        (3, [(2, 2)], "loop at vertex 2 not allowed"),
        (3, [(1, 2), (2, 1)], "duplicate edge (1,2)"),
        (3, [(3, 1), (1, 3)], "duplicate edge (1,3)"),
    ]:
        with pytest.raises(ValueError) as exc:
            Graph(p, edges)
        assert str(exc.value) == msg


def test_has_edge_outside_vertex_range_and_on_non_edges():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1) and g.has_edge(4, 3)
    assert not g.has_edge(1, 3) and not g.has_edge(1, 4)
    for bad in (0, -1, g.p + 1):
        assert not g.has_edge(bad, 1) and not g.has_edge(1, bad)
        assert not g.has_edge(bad, g.p) and not g.has_edge(g.p, bad)


def test_edges_q_equality_and_hash_ignore_input_order():
    edges = [(1, 2), (1, 4), (2, 3), (3, 5), (4, 5), (2, 5)]
    rng = random.Random(7)
    graphs = []
    for _ in range(10):
        shuffled = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(shuffled)
        graphs.append(Graph(5, shuffled))
    for g in graphs:
        assert g.edges() == sorted(edges) and g.q == len(edges)
        assert g == graphs[0] and hash(g) == hash(graphs[0])
    assert len(set(graphs)) == 1
    wider = Graph(6, edges)
    assert wider.edges() == graphs[0].edges() and wider != graphs[0]
    assert Graph(5, edges[:-1]) != graphs[0]
    assert Graph(1).edges() == [] and Graph(1).q == 0


def test_edges_sorted_and_neighbors():
    g = Graph(4, [(3, 4), (1, 2), (1, 4)])
    assert g.edges() == [(1, 2), (1, 4), (3, 4)]
    assert g.neighbors(4) == [1, 3]
    assert g.degree(1) == 2


def test_degree_sequence_and_graphical():
    assert degree_sequence(complete_graph(4)) == (3, 3, 3, 3)
    assert is_graphical([3, 3, 2, 2, 2])
    assert not is_graphical([3, 3, 3])  # odd sum
    assert not is_graphical([5, 1, 1, 1])  # fails the bound
    assert is_graphical([0])
    assert is_graphical([])
    assert realize_sequence([]) is None  # graphical, but no graph has 0 vertices


def test_graphical_matches_realization_presence():
    # every non-increasing sequence of length <= 5, entries <= 4
    def all_seqs(length, cap):
        if length == 0:
            yield ()
            return
        for first in range(cap, -1, -1):
            for rest in all_seqs(length - 1, first):
                yield (first,) + rest

    for n in range(1, 6):
        for seq in all_seqs(n, 4):
            g = realize_sequence(list(seq))
            if is_graphical(list(seq)):
                assert g is not None
                assert degree_sequence(g) == tuple(sorted(seq, reverse=True))
            else:
                assert g is None


def test_connectivity_and_trees():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert connected_components(Graph(4, [(1, 2), (3, 4)])) == [[1, 2], [3, 4]]
    assert is_tree(path_graph(4))
    assert not is_tree(cycle_graph(4))
    assert leaves(star_graph(3)) == [2, 3, 4]


def test_is_connected_equals_one_component():
    rng = random.Random(3700)
    graphs = [Graph(1), Graph(2), Graph(5)]  # edgeless, p = 1 included
    for _ in range(300):
        p = rng.randrange(1, 13)
        g = random_connected_graph(rng, p, rng.randrange(0, p + 1))
        # drop a few edges so that some graphs fall apart
        kept = [e for e in g.edges() if rng.random() < 0.8]
        graphs += [g, Graph(p, kept)]
    assert any(not is_connected(g) for g in graphs)
    for g in graphs:
        assert is_connected(g) == (len(connected_components(g)) == 1)


def test_hamilton_cycle_small():
    c = find_hamilton_cycle(complete_graph(4))
    assert c is not None and is_hamilton_cycle(complete_graph(4), c)
    assert c[0] == 1  # deterministic anchor
    assert find_hamilton_cycle(path_graph(4)) is None
    assert find_hamilton_cycle(complete_bipartite_graph(2, 3)) is None
    assert find_hamilton_cycle(complete_bipartite_graph(3, 3)) is not None
    assert not is_hamilton_cycle(cycle_graph(4), [1, 2, 3])  # misses vertex 4
    assert not is_hamilton_cycle(cycle_graph(4), [1, 2, 2, 4])  # repeats vertex 2
    assert hamilton_cycle_bruteforce(path_graph(2)) is None  # fewer than 3 vertices


def test_hamilton_against_bruteforce():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.randrange(4, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        fast = find_hamilton_cycle(g)
        slow = hamilton_cycle_bruteforce(g)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert is_hamilton_cycle(g, fast)


def _hamilton_cycle_recursive(g):
    """The earlier find_hamilton_cycle: one recursion level per vertex,
    neighbors ascending, the same unvisited-region prune."""
    p = g.p
    if p < 3 or min(g.degree(v) for v in g.vertices()) < 2:
        return None
    adj = [None] + [g.neighbors(v) for v in g.vertices()]
    visited = [False] * (p + 1)
    visited[1] = True
    path = [1]

    def unvisited_ok(cur):
        start = None
        for v in range(2, p + 1):
            if not visited[v]:
                free = sum(1 for w in adj[v] if not visited[w] or w == cur or w == 1)
                if free < 2:
                    return False
                start = v
        if start is None:
            return True
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if not visited[w] and w not in seen:
                    seen.add(w)
                    queue.append(w)
        rest = [v for v in range(2, p + 1) if not visited[v]]
        return (
            all(v in seen for v in rest)
            and any(cur in adj[v] for v in rest)
            and any(1 in adj[v] for v in rest)
        )

    def extend(cur):
        if len(path) == p:
            return g.has_edge(cur, 1)
        if not unvisited_ok(cur):
            return False
        for w in adj[cur]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                if extend(w):
                    return True
                path.pop()
                visited[w] = False
        return False

    return list(path) if extend(1) else None


def test_hamilton_stack_search_matches_the_recursive_search():
    rng = random.Random(17)
    graphs = []
    for p in range(1, 8):
        for g in graph_classes(p):
            perm = list(g.vertices())
            rng.shuffle(perm)
            graphs += [g, g.relabel({v: perm[v - 1] for v in g.vertices()})]
    for _ in range(200):
        p = rng.randint(8, 12)
        graphs.append(random_connected_graph(rng, p, rng.randrange(p, 3 * p)))
    found = 0
    for g in graphs:
        cycle = find_hamilton_cycle(g)
        assert cycle == _hamilton_cycle_recursive(g), g
        found += cycle is not None
    assert found > 300


def test_planarity_against_subdivision_search():
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite_graph(3, 3))
    assert is_planar(complete_graph(4))
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randrange(5, 8)
        g = random_connected_graph(rng, p, rng.randrange(0, 2 * p))
        assert is_planar(g) == kuratowski_planar(g)


def test_import_iceflower_leaves_networkx_unloaded():
    # networkx backs is_planar alone and is most of the import time
    src = os.path.dirname(os.path.dirname(iceflower.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, iceflower; print('networkx' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@pytest.mark.parametrize("module", ["iceflower", "iceflower.cli"])
def test_import_iceflower_leaves_dataclasses_and_inspect_unloaded(module):
    # the records are NamedTuples and __slots__ classes, so no import
    # pulls in dataclasses and the inspect/ast/dis modules behind it
    src = os.path.dirname(os.path.dirname(iceflower.__file__))
    code = (
        "import sys; before = set(sys.modules); import %s; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))" % module
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.randrange(2, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        perm = list(range(1, p + 1))
        rng.shuffle(perm)
        h = g.relabel({v: perm[v - 1] for v in g.vertices()}, p)
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)


def test_canonical_form_separates_non_isomorphic():
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))
    assert not are_isomorphic(cycle_graph(6), complete_bipartite_graph(3, 3))
    # same p and q, different degrees: told apart before any canonical form
    assert not are_isomorphic(path_graph(4), star_graph(3))
    g = canonical_relabel(cycle_graph(5))
    assert are_isomorphic(g, cycle_graph(5))


def test_catalog_counts():
    # graphs on p nodes up to isomorphism: 1, 2, 4, 11, 34
    assert [len(graph_classes(p)) for p in range(1, 6)] == [1, 2, 4, 11, 34]
    # connected graphs: 1, 1, 2, 6, 21, 112
    assert [len(connected_classes(p)) for p in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_free_tree_counts():
    # free trees on p nodes: 1, 1, 1, 2, 3, 6, 11, 23
    assert [len(free_trees(p)) for p in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]
    assert tree_encoding(Graph(1)) == ("t",)
    for t in free_trees(7):
        assert is_tree(t)


def test_count_free_trees_matches_a000055():
    assert [count_free_trees(p) for p in range(1, 13)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551,
    ]
    assert [len(free_trees(p)) for p in range(1, 11)] == [
        count_free_trees(p) for p in range(1, 11)
    ]


def test_restricted_growth_is_the_lex_ordered_filter_of_all_sequences():
    assert list(restricted_growth(0)) == [()] == list(restricted_growth(0, 1))
    for n in range(1, 7):
        for low in (0, 1):
            want = [
                s
                for s in product(range(low, low + n), repeat=n)
                if all(s[i] <= 1 + max(s[:i], default=low - 1) for i in range(n))
            ]
            assert list(restricted_growth(n, low)) == want
    # Bell numbers B(1..8)
    assert [sum(1 for _ in restricted_growth(n)) for n in range(1, 9)] == [
        1, 2, 5, 15, 52, 203, 877, 4140,
    ]


def _free_trees_full_sweep(p):
    """Every Prufer sequence decoded, the first tree of each AHU class kept."""
    if p == 1:
        return (Graph(1),)
    reps = {}
    for seq in product(range(1, p + 1), repeat=p - 2):
        t = prufer_to_tree(seq, p)
        reps.setdefault(tree_encoding(t), t)
    return tuple(reps[k] for k in sorted(reps))


@pytest.mark.parametrize("p", range(1, 8))
def test_free_trees_stopped_sweep_equals_full_sweep(p):
    # free_trees decodes only the restricted-growth sequences; the full
    # sweep decodes every one
    got = free_trees(p)
    want = _free_trees_full_sweep(p)
    assert [(t.p, t.edges()) for t in got] == [(t.p, t.edges()) for t in want]


def test_free_trees_and_count_reject_p_0():
    with pytest.raises(ValueError):
        free_trees(0)
    with pytest.raises(ValueError):
        count_free_trees(0)


def test_prufer_bijection():
    seen = set()
    m = 5
    seqs = [(a, b, c) for a in range(1, 6) for b in range(1, 6) for c in range(1, 6)]
    for seq in seqs:
        t = prufer_to_tree(seq, m)
        assert is_tree(t)
        seen.add(tuple(t.edges()))
    assert len(seen) == m ** (m - 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: path_graph(0), "path needs n >= 1"),
        (lambda: cycle_graph(2), "cycle needs n >= 3"),
        (lambda: complete_bipartite_graph(0, 2), "both parts need at least one vertex"),
        (lambda: star_graph(0), "star needs m >= 1"),
        (lambda: graph_classes(0), "p >= 1 required"),
        (lambda: prufer_to_tree([], 1), "m >= 2 required"),
        (lambda: prufer_to_tree([1], 4), "sequence length must be m-2"),
        (lambda: prufer_to_tree([5, 1], 4), "sequence entry 5 out of range"),
    ],
    ids=["path", "cycle", "bipartite", "star", "graph-classes", "prufer-m", "prufer-length", "prufer-entry"],
)
def test_family_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_delta_saturated():
    assert is_delta_saturated(star_graph(4))
    assert is_delta_saturated(path_graph(4))  # degrees 1 and 2 only
    assert not is_delta_saturated(Graph(4, [(1, 2), (2, 3), (2, 4), (3, 4)]))


def test_proper_vertex_coloring():
    f = find_proper_vertex_coloring(cycle_graph(5), 3)
    assert f is not None
    for u, v in cycle_graph(5).edges():
        assert f[u] != f[v]
    assert find_proper_vertex_coloring(complete_graph(4), 3) is None


def test_proper_vertex_coloring_of_a_1500_cycle_needs_no_recursion():
    g = cycle_graph(1500)
    f = find_proper_vertex_coloring(g, 4)
    assert f is not None and sorted(f) == list(g.vertices())
    assert all(f[u] != f[v] for u, v in g.edges())
    assert set(f.values()) == {1, 2}  # even cycle, colors tried ascending


def _proper_vertex_coloring_recursive(g, colors):
    """The recursive search that find_proper_vertex_coloring replaced."""
    if colors < 1:
        return None
    order = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    assign = {}

    def go(i):
        if i == len(order):
            return True
        v = order[i]
        used = {assign[w] for w in g.neighbors(v) if w in assign}
        for c in range(1, colors + 1):
            if c in used:
                continue
            assign[v] = c
            if go(i + 1):
                return True
            del assign[v]
        return False

    if go(0):
        return dict(sorted(assign.items()))
    return None


def test_proper_vertex_coloring_matches_the_recursive_search():
    rng = random.Random(1500)
    for _ in range(150):
        p = rng.randrange(1, 13)
        g = random_connected_graph(rng, p, rng.randrange(0, 2 * p + 1))
        for colors in range(0, 6):
            assert find_proper_vertex_coloring(g, colors) == (
                _proper_vertex_coloring_recursive(g, colors)
            )


def _graph_classes_sweep(p, min_degree):
    """Augmentations of every class on p - 1 vertices, canonicalized: all
    of them, or only those whose new vertex has minimum degree."""
    if p == 1:
        return (Graph(1),)
    seen = {}
    for g in _graph_classes_sweep(p - 1, min_degree):
        deg = [g.degree(i + 1) for i in range(p - 1)]
        for mask in range(1 << (p - 1)):
            k = mask.bit_count()
            if min_degree and any(k > deg[i] + (mask >> i & 1) for i in range(p - 1)):
                continue
            edges = g.edges() + [(i + 1, p) for i in range(p - 1) if mask >> i & 1]
            key = canonical_form(Graph(p, edges))
            seen.setdefault(key, Graph(p, key[1]))
    return tuple(seen[k] for k in sorted(seen))


@pytest.mark.parametrize("p", range(1, 7))
def test_graph_classes_min_degree_filter_equals_full_sweep(p):
    got = graph_classes(p)
    want = _graph_classes_sweep(p, min_degree=False)
    assert [(g.p, g.edges()) for g in got] == [(g.p, g.edges()) for g in want]


def test_graph_classes_7_counts_a000088_and_a001349():
    assert len(graph_classes(7)) == 1044
    assert len(connected_classes(7)) == 853


def _count_canonical_calls(monkeypatch, prebuilt, p):
    """The orders of the graphs canonical_form sees while graph_classes(p)
    is built, with graph_classes(prebuilt) already cached (none if 0), and
    the classes on 1..p vertices built that way."""
    real = families.canonical_form
    calls = []

    def counting(g):
        calls.append(g.p)
        return real(g)

    graph_classes.cache_clear()
    try:
        if prebuilt:
            graph_classes(prebuilt)
        monkeypatch.setattr(families, "canonical_form", counting)
        classes = [graph_classes(q) for q in range(1, p + 1)]
    finally:
        monkeypatch.undo()
        # drop every tuple built under the wrapper; later callers rebuild
        graph_classes.cache_clear()
    return calls, classes


def test_graph_classes_7_canonicalizes_1078_augmentations(monkeypatch):
    calls, _ = _count_canonical_calls(monkeypatch, 6, 7)
    assert len(calls) == 1078 and set(calls) == {7}


def test_graph_classes_canonicalizes_one_passing_mask_per_orbit_for_p_2_to_6(monkeypatch):
    calls, _ = _count_canonical_calls(monkeypatch, 0, 6)
    assert [calls.count(p) for p in range(1, 7)] == [0, 2, 4, 11, 34, 157]


def test_graph_classes_8_from_a_cold_cache(monkeypatch):
    # about 2 s: the largest catalog any test builds
    calls, classes = _count_canonical_calls(monkeypatch, 0, 8)
    assert len(classes[7]) == 12346  # OEIS A000088
    assert sum(map(is_connected, classes[7])) == 11117  # OEIS A001349
    assert calls.count(8) == 13065
    listing = repr([(g.p, g.edges()) for gs in classes for g in gs])
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "5841f7303c42087124d9c60b8e19e4306b0825602d71a441e0bad30ea21f09c1"
    )


def test_graph_classes_1_to_7_makes_29959_place_calls():
    # the canonical search's work from a cold cache; it made 87,022 calls
    # when it still walked every layout that ties with its best one, and
    # 35,332 before augmentations whose new vertex is not the canonical
    # deletion were dropped
    graph_classes.cache_clear()
    try:
        calls = place_calls(lambda: graph_classes(7), "graph.py")
    finally:
        graph_classes.cache_clear()
    assert calls == 29959


def test_graph_classes_7_equals_the_min_degree_sweep():
    got = graph_classes(7)
    want = _graph_classes_sweep(7, min_degree=True)
    assert [(g.p, g.edges()) for g in got] == [(g.p, g.edges()) for g in want]


def _automorphisms_bruteforce(g):
    """Every vertex permutation that keeps the edge set."""
    edges = {frozenset(e) for e in g.edges()}
    return {
        perm
        for perm in permutations(g.vertices())
        if {frozenset((perm[u - 1], perm[v - 1])) for u, v in edges} == edges
    }


def _union(*graphs):
    """The disjoint union, each graph shifted past the ones before it."""
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in g.edges()]
        shift += g.p
    return Graph(shift, edges)


def _petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(10, outer + spokes + inner)


def _hypercube(d):
    """Q_d: vertex x + 1 for each bit string x, joined when one bit differs."""
    n = 1 << d
    return Graph(n, [(x + 1, (x | 1 << b) + 1) for x in range(n) for b in range(d) if not x >> b & 1])


def _wheel(n):
    """The hub 1 joined to every vertex of the cycle 2..n."""
    rim = [(i, i + 1) for i in range(2, n)] + [(2, n)]
    return Graph(n, rim + [(1, i) for i in range(2, n + 1)])


def _generated_group(gens, p):
    """Every product of the generators, the identity included."""
    group = {tuple(range(1, p + 1))}
    stack = list(group)
    while stack:
        a = stack.pop()
        for b in gens:
            ab = tuple(b[a[v] - 1] for v in range(p))
            if ab not in group:
                group.add(ab)
                stack.append(ab)
    return group


def _keeps_edges(g, a):
    edges = set(g.edges())
    return {tuple(sorted((a[u - 1], a[v - 1]))) for u, v in edges} == edges


def test_automorphisms_equal_the_brute_force_group():
    graphs = [g for p in range(1, 7) for g in graph_classes(p)]
    graphs += [complete_graph(6), cycle_graph(6), path_graph(6)]
    graphs += [Graph(p) for p in range(1, 7)]
    for g in graphs:
        gens = _automorphism_generators(g)
        assert all(_keeps_edges(g, a) for a in gens), g.edges()
        assert _generated_group(gens, g.p) == _automorphisms_bruteforce(g), g.edges()


def test_automorphism_generators_give_the_group_orders_of_larger_graphs():
    # graphs too big for the brute-force group, with their known orders
    cases = [
        (_petersen(), 120),
        (_hypercube(3), 48),
        (_hypercube(4), 384),
        (cycle_graph(12), 24),
        (complete_bipartite_graph(3, 4), 144),
        (_union(*[complete_graph(3)] * 3), 1296),
        (Graph(7), 5040),
    ]
    for g, order in cases:
        gens = _automorphism_generators(g)
        assert all(_keeps_edges(g, a) for a in gens), g.edges()
        assert len(_generated_group(gens, g.p)) == order, g.edges()


def _refine_colors_reference(g):
    """_refine_colors as it was on dicts keyed by vertex."""
    color = {v: g.degree(v) for v in g.vertices()}
    ncells = len(set(color.values()))
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in g.neighbors(v))))
            for v in g.vertices()
        }
        ordered = sorted(set(sig.values()))
        index = {s: i for i, s in enumerate(ordered)}
        color = {v: index[sig[v]] for v in g.vertices()}
        if len(ordered) == ncells:
            break
        ncells = len(ordered)
    cells = {}
    for v in g.vertices():
        cells.setdefault(color[v], []).append(v)
    return [sorted(cells[c]) for c in sorted(cells)]


def test_refine_colors_equals_the_dict_reference():
    # canonical_form's bytes depend on the cells and on their order
    rng = random.Random(14)
    graphs = [_shuffled(rng, g) for p in range(1, 8) for g in graph_classes(p)]
    for _ in range(200):
        p = rng.randrange(8, 15)
        density = rng.random()
        graphs.append(Graph(p, [e for e in combinations(range(1, p + 1), 2) if rng.random() < density]))
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [complete_bipartite_graph(a, b) for a in range(1, 7) for b in range(a, 7)]
    graphs += [_petersen(), _hypercube(3), _hypercube(4)]
    for g in graphs:
        assert _refine_colors(g) == _refine_colors_reference(g), g.edges()


def _canonical_form_reference(g):
    """canonical_form as it was before it pruned on the current best."""
    p = g.p
    if g.q == 0:
        return (p, ())
    cells = _refine_colors(g)
    slot_cell = []
    for ci, cell in enumerate(cells):
        slot_cell.extend([ci] * len(cell))
    remaining = [list(c) for c in cells]
    best = {}
    layout, pos_of, cols = [], {}, []

    def place(i, tight):
        if i == p:
            if "cols" not in best or cols < best["cols"]:
                best["cols"], best["layout"] = list(cols), list(layout)
            return
        cell = remaining[slot_cell[i]]
        for v in list(cell):
            col = 0
            for w in g.neighbors(v):
                j = pos_of.get(w)
                if j is not None:
                    col |= 1 << j
            t = tight
            if "cols" in best and t:
                if col > best["cols"][i]:
                    continue
                if col < best["cols"][i]:
                    t = False
            cell.remove(v)
            layout.append(v)
            pos_of[v] = i
            cols.append(col)
            place(i + 1, t)
            cols.pop()
            del pos_of[v]
            layout.pop()
            cell.append(v)

    place(0, True)
    newid = {v: i + 1 for i, v in enumerate(best["layout"])}
    return (p, tuple(sorted(
        (min(newid[u], newid[v]), max(newid[u], newid[v])) for u, v in g.edges()
    )))


def _shuffled(rng, g):
    perm = list(g.vertices())
    rng.shuffle(perm)
    return g.relabel({v: perm[v - 1] for v in g.vertices()})


def test_canonical_form_equals_the_unpruned_reference():
    rng = random.Random(31)
    for p in range(1, 7):
        for g in graph_classes(p):
            h = _shuffled(rng, g)
            assert canonical_form(h) == _canonical_form_reference(h)
    for _ in range(200):
        p = rng.randrange(8, 11)
        h = random_connected_graph(rng, p, rng.randrange(0, 2 * p))
        assert canonical_form(h) == _canonical_form_reference(h)


def test_canonical_form_equals_the_reference_where_tied_layouts_jump_back():
    # graphs with large automorphism groups, where most leaves tie
    rng = random.Random(26)
    graphs = [complete_graph(n) for n in range(1, 9)]
    graphs += [complete_bipartite_graph(a, b) for a in range(1, 8) for b in range(a, 9 - a)]
    k1, k2 = Graph(1), complete_graph(2)
    graphs += [_union(*[k2] * 4), _union(*[complete_graph(3)] * 2),
               _union(*[cycle_graph(4)] * 2), _union(k1, k2, k2, k2)]
    graphs += [_wheel(n) for n in range(4, 9)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [_petersen(), _hypercube(3)]
    for g in graphs:
        want = canonical_form(g)
        for _ in range(3):
            h = _shuffled(rng, g)
            assert canonical_form(h) == _canonical_form_reference(h) == want, g.edges()


def test_canonical_form_of_graphs_with_large_groups_is_fast_and_invariant():
    # K_11 alone has 11! layouts that tie; the search reads only a few
    rng = random.Random(11)
    graphs = [complete_graph(11), complete_bipartite_graph(6, 6),
              _union(*[complete_graph(2)] * 6), _hypercube(4)]
    for g in graphs:
        assert canonical_form(_shuffled(rng, g)) == canonical_form(g)
    for n in range(1, 12):
        assert canonical_form(complete_graph(n)) == (n, tuple(combinations(range(1, n + 1), 2)))


def test_canonical_form_of_symmetric_12_vertex_graphs_is_fast_and_invariant():
    # each of these calls took about 10 s before the search pruned on the
    # current best
    rng = random.Random(12)
    cycle = cycle_graph(12)
    mobius = Graph(12, cycle.edges() + [(i, i + 6) for i in range(1, 7)])
    for g in (cycle, mobius):
        assert canonical_form(_shuffled(rng, g)) == canonical_form(g)


def test_canonical_form_above_its_vertex_limit_is_a_value_error_not_a_recursion_error():
    # only above the limit: at or below it a long cycle is exponential
    g = cycle_graph(MAX_CANONICAL_VERTICES + 1)
    with pytest.raises(ValueError, match="p <= %d" % MAX_CANONICAL_VERTICES):
        canonical_form(g)
    with pytest.raises(ValueError, match="p <= %d" % MAX_CANONICAL_VERTICES):
        are_isomorphic(g, g)


def test_graph_order_above_the_vertex_limit_is_refused_before_allocation():
    assert Graph(1).p == 1
    for p in (MAX_VERTICES + 1, 10 ** 15):
        with pytest.raises(ValueError, match="graphs take p <= %d vertices, got p = %d" % (MAX_VERTICES, p)):
            Graph(p, [(1, 2)])
