import itertools
import random

import pytest

from iceflower.graph import Graph, _norm_edge, find_proper_vertex_coloring
from iceflower.families import (
    complete_bipartite_graph,
    complete_graph,
    connected_classes,
    cycle_graph,
    free_trees,
    path_graph,
    star_graph,
)
from iceflower.coloring import (
    MAX_SEARCH_ELEMENTS,
    ChiFdtResult,
    TotalColoring,
    _candidate_colors,
    _search_order,
    _tables,
    bfdt,
    chi_fdt,
    edge_weight,
    find_fdt_coloring,
    is_proper_total,
)
from iceflower.leafops import disjoint_union
from tests.conftest import greedy_proper_total, place_calls, random_connected_graph


def brute_force_min_palette(g):
    """Smallest M admitting a proper total coloring with all edge weights
    equal, by raw enumeration.  Oracle for the real solver."""
    elements = list(g.vertices()) + g.edges()
    for M in range(1, 10):
        for combo in itertools.product(range(1, M + 1), repeat=len(elements)):
            vc = {v: combo[i] for i, v in enumerate(g.vertices())}
            ec = {
                e: combo[g.p + j] for j, e in enumerate(g.edges())
            }
            f = TotalColoring(M, vc, ec)
            if not is_proper_total(g, f):
                continue
            weights = {
                abs(vc[u] + vc[v] - ec[(u, v)]) for u, v in g.edges()
            }
            if len(weights) == 1:
                return M
    return None


def test_total_coloring_validation():
    g = path_graph(2)
    f = TotalColoring(3, {1: 1, 2: 2}, {(1, 2): 3})
    assert f.vertex(1) == 1 and f.edge(2, 1) == 3
    with pytest.raises(ValueError):
        TotalColoring(0, {}, {})
    with pytest.raises(ValueError):
        TotalColoring(2, {1: 3}, {})  # color above palette
    with pytest.raises(ValueError) as err:
        TotalColoring(2, {1: 1, 2: 2}, {(1, 2): 3})
    assert str(err.value) == "edge (1, 2) color 3 outside 0..2"


def test_is_proper_total_catches_each_violation():
    g = path_graph(3)
    good = TotalColoring(5, {1: 1, 2: 2, 3: 1}, {(1, 2): 3, (2, 3): 4})
    assert is_proper_total(g, good)
    # adjacent vertices equal
    assert not is_proper_total(
        g, TotalColoring(5, {1: 2, 2: 2, 3: 1}, {(1, 2): 3, (2, 3): 4})
    )
    # edge equals endpoint
    assert not is_proper_total(
        g, TotalColoring(5, {1: 1, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 4})
    )
    # incident edges equal
    assert not is_proper_total(
        g, TotalColoring(5, {1: 1, 2: 2, 3: 1}, {(1, 2): 3, (2, 3): 3})
    )
    # color 0 is allowed in the type but never proper
    assert not is_proper_total(
        g, TotalColoring(5, {1: 0, 2: 2, 3: 1}, {(1, 2): 3, (2, 3): 4})
    )
    # missing element
    assert not is_proper_total(
        g, TotalColoring(5, {1: 1, 2: 2}, {(1, 2): 3, (2, 3): 4})
    )


def test_edge_weight_and_report():
    g = path_graph(2)
    f = TotalColoring(4, {1: 1, 2: 2}, {(1, 2): 4})
    assert edge_weight(f, 1, 2) == abs(1 + 2 - 4) == 1
    rep = bfdt(g, f)
    assert rep.wmin == rep.wmax == 1 and rep.bfdt == 0 and rep.k == 1
    with pytest.raises(ValueError):
        bfdt(Graph(1, []), TotalColoring(1, {1: 1}, {}))


def test_find_fdt_witness_is_verified():
    for g in (path_graph(4), cycle_graph(5), star_graph(4), complete_graph(4)):
        found = None
        for M in range(1, 10):
            f = find_fdt_coloring(g, M)
            if f is not None:
                found = (M, f)
                break
        assert found is not None
        M, f = found
        assert is_proper_total(g, f)
        assert bfdt(g, f).bfdt == 0


def test_chi_fdt_matches_brute_force_on_small_graphs():
    targets = [path_graph(2), path_graph(3), path_graph(4), cycle_graph(3),
               star_graph(3), cycle_graph(4)]
    for g in targets:
        want = brute_force_min_palette(g)
        got = chi_fdt(g, 9)
        assert got.coloring is not None
        assert got.m == want, (g.edges(), got.m, want)


def test_chi_fdt_k22_is_five():
    # the minimum for K_{2,2} under |f(u)+f(v)-f(uv)| constant: 5.
    # witness at 5 and exhaustive absence below are both checked against
    # the independent brute-force enumerator.
    g = complete_bipartite_graph(2, 2)
    res = chi_fdt(g, 8)
    assert res.m == 5
    assert is_proper_total(g, res.coloring)
    assert bfdt(g, res.coloring).bfdt == 0
    assert brute_force_min_palette(g) == 5


def test_chi_fdt_k11():
    assert chi_fdt(path_graph(2), 8).m == 3


def test_fdt_absence_below_minimum():
    g = complete_bipartite_graph(2, 2)
    for M in (3, 4):
        assert find_fdt_coloring(g, M) is None


def test_tree_bound_small():
    # every tree admits a constant-weight proper total coloring within
    # 1 + 2*maxdeg colors
    for p in range(2, 8):
        for t in free_trees(p):
            delta = max(t.degree(v) for v in t.vertices())
            res = chi_fdt(t, 1 + 2 * delta)
            assert res.coloring is not None
            assert res.m <= 1 + 2 * delta


def test_solver_deterministic():
    g = cycle_graph(5)
    a = chi_fdt(g, 9)
    b = chi_fdt(g, 9)
    assert a.m == b.m
    assert a.coloring.vertex_colors == b.coloring.vertex_colors
    assert a.coloring.edge_colors == b.coloring.edge_colors


def test_random_properness_checker_agreement(rng):
    # greedy colorings are proper; perturbing one element breaks them
    for _ in range(30):
        p = rng.randrange(3, 8)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        f = greedy_proper_total(g)
        assert is_proper_total(g, f)
        v = rng.randrange(1, p + 1)
        u = g.neighbors(v)[0]
        vc = dict(f.vertex_colors)
        vc[v] = f.vertex(u)
        broken = TotalColoring(f.palette, vc, dict(f.edge_colors))
        assert not is_proper_total(g, broken)


def set_based_is_proper_total(g, tc):
    """is_proper_total as it was before its one-pass walk: domains compared
    as sets, then each edge and each vertex's incident edges checked apart.
    Oracle for the one-pass check."""
    if set(tc.vertex_colors) != set(g.vertices()):
        return False
    if set(tc.edge_colors) != set(g.edges()):
        return False
    vals = list(tc.vertex_colors.values()) + list(tc.edge_colors.values())
    if any(not 1 <= c <= tc.palette for c in vals):
        return False
    for u, v in g.edges():
        fe = tc.edge(u, v)
        if tc.vertex(u) == tc.vertex(v):
            return False
        if fe == tc.vertex(u) or fe == tc.vertex(v):
            return False
    for v in g.vertices():
        inc = [tc.edge(v, w) for w in g.neighbors(v)]
        if len(inc) != len(set(inc)):
            return False
    return True


def _one_defect_of_each_kind(rng, g, f):
    """(kind, vertex colors, edge colors): f with one defect of each kind."""
    vc, ec = f.vertex_colors, f.edge_colors
    u, v = rng.choice(g.edges())
    hub = rng.choice([x for x in g.vertices() if g.degree(x) >= 2])
    a, b = (_norm_edge(hub, w) for w in rng.sample(g.neighbors(hub), 2))
    yield "vertex clash", {**vc, v: vc[u]}, ec
    yield "edge equals an end", vc, {**ec, (u, v): vc[rng.choice((u, v))]}
    yield "incident edges equal", vc, {**ec, b: ec[a]}
    yield "color 0", {**vc, rng.choice(g.vertices()): 0}, ec
    rest = {e: c for e, c in ec.items() if e != (u, v)}
    yield "missing edge key", vc, rest
    yield "extra vertex key", {**vc, g.p + 1: 1}, ec
    non_edges = [e for e in itertools.combinations(g.vertices(), 2) if not g.has_edge(*e)]
    if non_edges:
        yield "non-edge key", vc, {**rest, rng.choice(non_edges): ec[(u, v)]}


def test_one_pass_properness_agrees_with_the_set_based_check():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.randrange(3, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        f = greedy_proper_total(g)
        assert is_proper_total(g, f) and set_based_is_proper_total(g, f)
        for kind, vc, ec in _one_defect_of_each_kind(rng, g, f):
            bad = TotalColoring(f.palette, vc, ec)
            assert not set_based_is_proper_total(g, bad), kind
            assert not is_proper_total(g, bad), (kind, g.edges())
    # the same number of edge keys, one of them not an edge of the path 1-2-3
    path = path_graph(3)
    swapped = TotalColoring(5, {1: 1, 2: 2, 3: 1}, {(1, 2): 3, (1, 3): 4})
    assert not set_based_is_proper_total(path, swapped)
    assert not is_proper_total(path, swapped)


def reference_find_fdt_coloring(g, palette):
    """The solver as it was before candidate-color masks: every vertex tries
    each color 1..M, and each edge checks its range, its end colors and its
    use at the earlier end on its own.  Oracle for the differential test."""
    M = palette
    if M < 1:
        return None
    if g.q == 0:
        vc = find_proper_vertex_coloring(g, M)
        if vc is None:
            return None
        return TotalColoring(M, vc, {})
    if M < g.max_degree() + 1:
        return None

    order = _search_order(g)
    p = g.p
    pos = {v: i for i, v in enumerate(order)}
    earlier = [
        sorted(pos[w] for w in g._adj[v] if pos[w] < i)
        for i, v in enumerate(order)
    ]
    is_pendant = [
        g.degree(order[i]) == 1 and len(earlier[i]) == 1 for i in range(p)
    ]
    prev_sibling = [-1] * p
    last_at = {}
    for i in range(p):
        if is_pendant[i]:
            sup = earlier[i][0]
            if sup in last_at:
                prev_sibling[i] = last_at[sup]
            last_at[sup] = i

    vcol = [0] * p
    emask = [0] * p
    echoice = [dict() for _ in range(p)]
    pend_ecol = [0] * p

    def color_edges(i, c, idx, local, k):
        if idx == len(earlier[i]):
            vcol[i] = c
            emask[i] |= local
            if place(i + 1, k):
                return True
            emask[i] &= ~local
            vcol[i] = 0
            return False
        j = earlier[i][idx]
        s = c + vcol[j]
        opts = (s - k,) if k == 0 else (s - k, s + k)
        for e in opts:
            if e < 1 or e > M or e == c or e == vcol[j]:
                continue
            bit = 1 << e
            if emask[j] & bit or local & bit:
                continue
            emask[j] |= bit
            echoice[i][j] = e
            if color_edges(i, c, idx + 1, local | bit, k):
                return True
            emask[j] &= ~bit
            del echoice[i][j]
        return False

    def place(i, k):
        if i == p:
            return True
        if is_pendant[i]:
            j = earlier[i][0]
            cj = vcol[j]
            lo = pend_ecol[prev_sibling[i]] + 1 if prev_sibling[i] >= 0 else 1
            for e in range(lo, M + 1):
                bit = 1 << e
                if e == cj or emask[j] & bit:
                    continue
                for l in ((e - k - cj,) if k == 0 else (e - k - cj, e + k - cj)):
                    if l < 1 or l > M or l == cj or l == e:
                        continue
                    vcol[i] = l
                    emask[j] |= bit
                    emask[i] = bit
                    pend_ecol[i] = e
                    echoice[i][j] = e
                    if place(i + 1, k):
                        return True
                    del echoice[i][j]
                    emask[i] = 0
                    emask[j] &= ~bit
                    vcol[i] = 0
            return False
        nbr_cols = {vcol[pos[w]] for w in g._adj[order[i]] if pos[w] < i}
        for c in range(1, M + 1):
            if c in nbr_cols:
                continue
            if color_edges(i, c, 0, 0, k):
                return True
        return False

    for k in range(0, 2 * M - 1):
        for arr in (vcol, emask, pend_ecol):
            for i in range(p):
                arr[i] = 0
        for d in echoice:
            d.clear()
        if place(0, k):
            vc = {order[i]: vcol[i] for i in range(p)}
            ec = {}
            for i in range(p):
                for j, e in echoice[i].items():
                    ec[_norm_edge(order[i], order[j])] = e
            return TotalColoring(M, vc, ec)
    return None


def _palette_shaped_graphs():
    """40 graphs shaped like the palette benchmark: p = 10-11, p/2 to p
    chords on a random tree."""
    rng = random.Random(13)
    gs = []
    for _ in range(40):
        p = rng.choice((10, 11))
        gs.append(random_connected_graph(rng, p, rng.randint(p // 2, p)))
    return gs


def _differential_graphs():
    """(graph, palettes) pairs: small graphs at every palette up to
    2 Delta + 2, and the palette-shaped graphs at Delta + 1..Delta + 3,
    where most palettes have no coloring and the fit bound cuts hardest."""
    gs = [t for p in range(1, 9) for t in free_trees(p)]
    gs += [complete_graph(n) for n in range(1, 6)]
    gs += [cycle_graph(n) for n in range(3, 9)]
    gs += [star_graph(n) for n in range(1, 7)]
    gs += [complete_bipartite_graph(a, b) for a in range(1, 4) for b in range(a, 4)]
    rng = random.Random(7)
    for _ in range(300):
        p = rng.randrange(2, 10)
        gs.append(random_connected_graph(rng, p, rng.randrange(0, p + 1)))
    cases = [(g, range(1, 2 * g.max_degree() + 3)) for g in gs]
    cases += [(g, range(g.max_degree() + 1, g.max_degree() + 4)) for g in _palette_shaped_graphs()]
    return cases


def test_masked_search_returns_the_reference_witness_at_every_palette():
    for g, palettes in _differential_graphs():
        for M in palettes:
            want = reference_find_fdt_coloring(g, M)
            got = find_fdt_coloring(g, M)
            if want is None:
                assert got is None, (g.edges(), M)
            else:
                assert got is not None, (g.edges(), M)
                assert got.vertex_colors == want.vertex_colors, (g.edges(), M)
                assert got.edge_colors == want.edge_colors, (g.edges(), M)


def _disconnected_graphs():
    """Graphs whose first component searched is rich in pendants, with
    more components after it: a pendant choice there never decides a
    later component, so these are where coloring the pendants after the
    search saves work."""
    gs = [
        disjoint_union(star_graph(m), complete_graph(n))[0]
        for m in range(1, 5)
        for n in range(1, 5)
    ]
    gs += [
        disjoint_union(t, cycle_graph(n))[0]
        for p in range(2, 6)
        for t in free_trees(p)
        for n in (3, 4)
    ]
    rng = random.Random(17)
    for _ in range(120):
        p = rng.randrange(2, 9)
        pairs = itertools.combinations(range(1, p + 1), 2)
        gs.append(Graph(p, [e for e in pairs if rng.random() < 0.3]))
    return gs


def test_disconnected_graphs_take_the_reference_witness_at_every_palette():
    for g in _disconnected_graphs():
        for M in range(1, 2 * g.max_degree() + 3):
            want = reference_find_fdt_coloring(g, M)
            assert _coloring_fields(find_fdt_coloring(g, M)) == _coloring_fields(want), (g.edges(), M)


def test_chi_fdt_on_a_star_beside_k6_makes_2137_place_calls():
    # the star is searched first; re-trying its pendants' colors before
    # each proof that K_6 has no coloring took 95,487 calls
    g = disjoint_union(star_graph(6), complete_graph(6))[0]
    res = []
    assert place_calls(lambda: res.append(chi_fdt(g, 10)), "coloring.py") == 2137
    assert res[0].m == 9
    assert res[0].coloring == find_fdt_coloring(g, 9)


def _coloring_fields(f):
    if f is None:
        return None
    return (f.palette, list(f.vertex_colors.items()), list(f.edge_colors.items()))


def test_edgeless_graphs_take_the_one_search():
    for p in range(1, 7):
        g = Graph(p, [])
        for M in range(-1, 4):
            want = reference_find_fdt_coloring(g, M)
            assert _coloring_fields(find_fdt_coloring(g, M)) == _coloring_fields(want), (p, M)
    # one search frame per vertex: the largest edgeless graph still fits
    f = find_fdt_coloring(Graph(MAX_SEARCH_ELEMENTS, []), 1)
    assert list(f.vertex_colors.items()) == [(v, 1) for v in range(1, MAX_SEARCH_ELEMENTS + 1)]
    assert f.edge_colors == {}
    with pytest.raises(ValueError, match="p \\+ q <= %d" % MAX_SEARCH_ELEMENTS):
        find_fdt_coloring(Graph(MAX_SEARCH_ELEMENTS + 1, []), 1)


def test_candidate_mask_is_exactly_the_colors_passing_the_edge_checks():
    """On random partial states the mask holds every color whose edges to
    the earlier neighbors each have one option passing the one-edge checks
    of the reference solver, and no other color."""
    rng = random.Random(11)
    for _ in range(4000):
        M = rng.randrange(1, 13)
        k = rng.randrange(0, 2 * M - 1)
        n = rng.randrange(0, 5)
        vcol = [rng.randrange(1, M + 1) for _ in range(n)]
        emask = [sum(1 << e for e in range(1, M + 1) if rng.random() < 0.3) for _ in range(n)]
        full = (1 << (M + 1)) - 2
        cand = _candidate_colors(full, k, list(range(n)), vcol, emask)

        def edge_ok(e, c, j):
            return 1 <= e <= M and e != c and e != vcol[j] and not emask[j] >> e & 1

        want = {
            c
            for c in range(1, M + 1)
            if c not in vcol
            and all(
                any(edge_ok(e, c, j) for e in ((c + vcol[j] - k,) if k == 0 else (c + vcol[j] - k, c + vcol[j] + k)))
                for j in range(n)
            )
        }
        assert {c for c in range(M + 2) if cand >> c & 1} == want, (M, k, vcol, emask)


def test_reach_is_every_edge_color_a_vertex_color_can_carry():
    for M in range(1, 13):
        for k in range(0, 2 * M - 1):
            reach = _tables(M, k)[0]
            assert len(reach) == M + 1 and reach[0] == 0
            for c in range(1, M + 1):
                want = {
                    e
                    for c2 in range(1, M + 1)
                    if c2 != c
                    for e in ((c2 + c + k, c2 + c - k) if k and c != k else (c2 + c + k,))
                    if 1 <= e <= M and e != c
                }
                assert {e for e in range(M + 2) if reach[c] >> e & 1} == want, (M, k, c)


def _edge_step_colors(M, k, c, cj):
    """The edge colors the edge step can give the edge from a vertex of
    color c to an earlier neighbor of color cj, before it drops the
    colors already used at either end."""
    s = c + cj
    opts = {s + k}
    if k and cj != k and s > k:
        opts.add(s - k)
    return {e for e in opts if 1 <= e <= M and e != cj}


def _pendant_edge_colors(M, k, c, cj):
    """The edge colors the pendant completion can give the edge from a
    pendant of color c to its support of color cj."""
    return {
        e
        for e in range(1, M + 1)
        if e != cj
        for l in ((e - k - cj,) if k == 0 else (e - k - cj, e + k - cj))
        if l == c and 1 <= l <= M and l != cj and l != e
    }


def test_every_edge_color_the_search_places_is_in_the_reach_of_both_ends():
    """With fit, this is why no vertex runs out of edge colors after it is
    placed: its edge colors are distinct and all in its reach, and fit
    gave it a reach of at least its degree."""
    placed_somewhere = 0
    for M in range(1, 13):
        for k in range(0, 2 * M - 1):
            reach = _tables(M, k)[0]
            for c in range(1, M + 1):
                for cj in range(1, M + 1):
                    if cj == c:
                        continue
                    placed = _edge_step_colors(M, k, c, cj) | _pendant_edge_colors(M, k, c, cj)
                    both = reach[c] & reach[cj]
                    assert all(both >> e & 1 for e in placed), (M, k, c, cj, placed)
                    placed_somewhere += len(placed)
    assert placed_somewhere > 0


def test_chi_fdt_on_the_palette_shaped_graphs_makes_30420_place_calls():
    # the search's work; it was the same when every placement also checked
    # that each earlier neighbor could still color its remaining edges,
    # a check the fit bound implies
    gs = _palette_shaped_graphs()
    res = []
    calls = place_calls(lambda: res.extend(chi_fdt(g, 3 * g.max_degree() + 2) for g in gs), "coloring.py")
    assert calls == 30420
    assert all(r.m is not None for r in res)


def test_search_size_limit_is_a_value_error_not_a_recursion_error():
    with pytest.raises(ValueError, match="p \\+ q <= %d" % MAX_SEARCH_ELEMENTS):
        find_fdt_coloring(path_graph(900), 6)
    with pytest.raises(ValueError):
        chi_fdt(path_graph(900), 6)
    largest = MAX_SEARCH_ELEMENTS // 2  # a path has p + q = 2p - 1
    assert 2 * largest - 1 <= MAX_SEARCH_ELEMENTS < 2 * (largest + 1) - 1
    res = chi_fdt(path_graph(largest), 6)
    assert res.m is not None
    assert is_proper_total(path_graph(largest), res.coloring)
    with pytest.raises(ValueError):
        chi_fdt(path_graph(largest + 1), 6)


def former_chi_fdt(g, max_palette):
    """chi_fdt as it was before it laid g out once: one find_fdt_coloring
    call, with its own layout, per palette."""
    for M in range(g.max_degree() + 1, max_palette + 1):
        tc = find_fdt_coloring(g, M)
        if tc is not None:
            return ChiFdtResult(M, tc, M)
    return ChiFdtResult(None, None, max_palette)


def _result_fields(r):
    if r.coloring is None:
        return (r.m, r.searched_up_to, None)
    f = r.coloring
    return (r.m, r.searched_up_to, f.palette, list(f.vertex_colors.items()), list(f.edge_colors.items()))


def test_one_layout_per_graph_gives_the_per_palette_answers():
    cases = [(g, max(palettes)) for g, palettes in _differential_graphs()]
    for p in range(1, 8):
        for t in free_trees(p):
            cases.append((t, 1 + 2 * t.max_degree()))
    # edgeless, an isolated vertex, max_palette <= Delta, max_palette 0
    cases += [(Graph(3, []), 2), (Graph(1, []), 1), (Graph(4, [(1, 2), (2, 3)]), 6)]
    cases += [(star_graph(4), 4), (star_graph(4), 1), (complete_graph(4), 3)]
    cases += [(path_graph(3), 0), (Graph(2, []), 0)]
    for g, max_palette in cases:
        want = former_chi_fdt(g, max_palette)
        got = chi_fdt(g, max_palette)
        assert _result_fields(got) == _result_fields(want), (g.edges(), max_palette)


def test_chi_fdt_at_or_below_delta_searches_nothing_even_above_the_size_limit():
    res = chi_fdt(star_graph(900), 900)
    assert (res.m, res.coloring, res.searched_up_to) == (None, None, 900)


def _reference_reach(M, k):
    """reach[c] from its definition: every edge color of weight k between
    color c and some other color c' in 1..M, other than c and c'."""
    return [
        sum(
            1 << e
            for e in range(1, M + 1)
            if any(e in (c + c2 - k, c + c2 + k) and e not in (c, c2) for c2 in range(1, M + 1) if c2 != c)
        )
        if c
        else 0
        for c in range(M + 1)
    ]


def test_cached_tables_are_reach_and_every_fit_count():
    assert _tables.cache_info().maxsize is not None
    pairs = [(M, k) for M in range(1, 13) for k in range(0, 2 * M - 1)]
    pairs += [(M, k) for M in (31, 32, 39) for k in (0, 1, M // 2, M, M + 1, 2 * M - 2)]
    for M, k in pairs:
        reach, fit, edge = _tables(M, k)
        assert type(reach) is tuple and type(fit) is tuple and type(edge) is tuple
        assert list(edge) == [
            sum(1 << e for e in {s - k, s + k} if 1 <= e <= M) for s in range(2 * M + 1)
        ], (M, k)
        assert list(reach) == _reference_reach(M, k), (M, k)
        sizes = [len([e for e in range(M + 2) if reach[c] >> e & 1]) for c in range(M + 1)]
        want = [
            sum(1 << c for c in range(1, M + 1) if sizes[c] >= d) for d in range(M + 1)
        ]
        assert list(fit) == want, (M, k)
        assert _tables(M, k) == (reach, fit, edge)


def test_table_cache_stays_within_its_bound_on_a_wide_palette_sweep():
    g = star_graph(60)
    bound = _tables.cache_info().maxsize
    _tables.cache_clear()
    for M in range(61, 61 + bound + 20):
        f = find_fdt_coloring(g, M)
        assert f is not None and bfdt(g, f).bfdt == 0
    info = _tables.cache_info()
    assert info.misses > bound
    assert info.currsize <= bound
