import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from iceflower.graph import (
    MAX_CANONICAL_VERTICES,
    MAX_VERTICES,
    Graph,
    _norm_edge,
    are_isomorphic,
    canonical_form,
    degree_sequence,
    find_hamilton_cycle,
    is_connected,
    is_planar,
    is_tree,
)
from iceflower.families import (
    complete_bipartite_graph,
    complete_graph,
    connected_classes,
    cycle_graph,
    graph_classes,
    path_graph,
    star_graph,
)
from iceflower.coloring import TotalColoring, is_proper_total
from iceflower.leafops import (
    LeafEdge,
    Surgery,
    colored_leaf_coincide,
    colored_leaf_split,
    disjoint_union,
    leaf_coincide,
    leaf_split,
)
from iceflower.lattice import (
    ClosureResult,
    CoincideScript,
    HairedCycle,
    NoClosure,
    _chord_graphs,
    build_haired_cycle,
    close_to_hamiltonian,
    colored_lattice_member,
    decompose_to_stars,
    euler_expression,
    hamiltonian_lattice_member,
    hamiltonian_witness,
    planar_lattice_member,
    recompose,
    recompose_colored,
    spanning_lattice_count,
    spanning_lattice_enumerate,
    uncolored_lattice_member,
)
from iceflower.system import (
    ColoredIceFlowerSystem,
    IceFlowerSystem,
    build_uniform_fdt_system,
    make_star,
    saturate,
)
from iceflower.topcode import cuttings, vector_lattice_member
from tests.test_formats import _graphs
from tests.conftest import random_connected_graph


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CoincideScript(IceFlowerSystem([make_star(2)]), (-1,), ()), "coefficients must be non-negative"),
        (
            lambda: recompose_colored(decompose_to_stars(path_graph(3)), build_uniform_fdt_system(3, 0)),
            "system stars do not match the script base",
        ),
        (lambda: spanning_lattice_count(1), "m >= 2 required"),
        (lambda: spanning_lattice_enumerate(1), "m >= 2 required"),
        (lambda: saturate(build_uniform_fdt_system(3, 0), [1, -1, 1]), "multiplicities must be non-negative"),
        (lambda: next(cuttings("123", 0)), "q must be positive"),
        (lambda: vector_lattice_member((1,), [(-1,)]), "vector entries must be non-negative"),
        (
            lambda: colored_leaf_split(
                path_graph(3), TotalColoring(3, {1: 1, 2: 1, 3: 2}, {(1, 2): 2, (2, 3): 3}), 1, 2
            ),
            "coloring must be proper total before a colored split",
        ),
        (
            # the leaf-edges are color-compatible, but 1 and 3 share color 1
            # and stay adjacent after the merge
            lambda: colored_leaf_coincide(
                Graph(6, [(1, 2), (1, 3), (4, 5), (4, 6)]),
                TotalColoring(
                    4, {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 3}, {(1, 2): 3, (1, 3): 4, (4, 5): 3, (4, 6): 4}
                ),
                LeafEdge(1, 2),
                LeafEdge(4, 5),
            ),
            "merged coloring is not proper total; merge rejected",
        ),
    ],
)
def test_input_errors_raise_value_error_with_their_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_script_validation():
    base = IceFlowerSystem([make_star(2)])
    with pytest.raises(ValueError):
        CoincideScript(base, (0,), ())  # no copies at all
    with pytest.raises(ValueError):
        CoincideScript(base, (1, 1), ())  # coefficient count mismatch


def test_decompose_shape_on_path():
    sc = decompose_to_stars(path_graph(5))
    assert sc.base.sizes() == (2,)
    assert sc.coefficients == (3,)
    assert len(sc.steps) == 2
    assert sum(sc.coefficients) == 3  # one star per internal vertex


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose_to_stars(Graph(3, []))  # edgeless
    with pytest.raises(ValueError):
        decompose_to_stars(Graph(4, [(1, 2), (3, 4)]))  # disconnected
    with pytest.raises(ValueError):
        decompose_to_stars(path_graph(2))  # no internal vertex


def test_replay_rejects_spent_slots():
    base = IceFlowerSystem([make_star(2)])
    sc = CoincideScript(base, (2,), ((1, 1, 2, 1), (1, 1, 2, 2)))
    with pytest.raises(ValueError):
        recompose(sc)


def test_roundtrip_exhaustive_p_le_6():
    for p in range(3, 7):
        for g in connected_classes(p):
            if g.q == 0 or all(g.degree(v) <= 1 for v in g.vertices()):
                continue
            sc = decompose_to_stars(g)
            non_leaf = sum(1 for v in g.vertices() if g.degree(v) >= 2)
            assert sum(sc.coefficients) == non_leaf
            assert are_isomorphic(recompose(sc), g)


def test_roundtrip_random_p_le_12():
    rng = random.Random(31)
    for _ in range(60):
        p = rng.randrange(4, 13)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        sc = decompose_to_stars(g)
        assert are_isomorphic(recompose(sc), g)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


@settings(max_examples=100, deadline=None)
@given(_graphs(connected=True))
def test_recompose_of_decompose_is_isomorphic(g):
    # networkx as the oracle: canonical_form is exponential on dense graphs
    assert nx.is_isomorphic(_nx(recompose(decompose_to_stars(g))), _nx(g))


def test_uncolored_member_checks_degrees():
    g = path_graph(5)
    assert uncolored_lattice_member(g, IceFlowerSystem([make_star(3)])) is None
    sc = uncolored_lattice_member(g, IceFlowerSystem([make_star(2), make_star(3)]))
    assert sc is not None
    assert sc.coefficients == (3, 0)
    assert are_isomorphic(recompose(sc), g)


def test_haired_cycle_shapes():
    hc = build_haired_cycle([2, 2, 2, 2])
    assert are_isomorphic(hc.graph, cycle_graph(4))
    assert hc.pendant_count() == 0

    hc = build_haired_cycle([4, 2, 3, 2])
    assert hc.pendant_count() == (4 - 2) + (3 - 2)
    assert [hc.graph.degree(v) for v in hc.spine] == [4, 2, 3, 2]
    # stripping the pendants leaves the spine cycle
    assert hc.graph.p == sum([4, 2, 3, 2]) - 4

    with pytest.raises(ValueError):
        build_haired_cycle([2, 2])
    with pytest.raises(ValueError):
        build_haired_cycle([2, 1, 2])


def test_close_pendant_free_cycle():
    res = close_to_hamiltonian(build_haired_cycle([2, 2, 2, 2, 2]))
    assert not res.partial and len(res.graphs) == 1
    assert are_isomorphic(res.graphs[0], cycle_graph(5))


def test_close_3333_gives_k4():
    res = close_to_hamiltonian(build_haired_cycle([3, 3, 3, 3]))
    assert len(res.graphs) == 1
    assert are_isomorphic(res.graphs[0], complete_graph(4))


def test_close_errors():
    with pytest.raises(ValueError):
        close_to_hamiltonian(build_haired_cycle([3, 2, 2]))  # odd pendants
    with pytest.raises(ValueError):
        # the two pendants sit on cycle-adjacent spine vertices
        close_to_hamiltonian(build_haired_cycle([3, 3, 2]))


def test_only_a_proven_no_closure_is_a_no_closure():
    with pytest.raises(NoClosure):
        close_to_hamiltonian(build_haired_cycle([3, 2, 2]))
    with pytest.raises(NoClosure):
        close_to_hamiltonian(build_haired_cycle([3, 3, 2]))
    # a spine above canonical_form's vertex limit is refused, not a "no"
    with pytest.raises(ValueError) as err:
        close_to_hamiltonian(build_haired_cycle([2] * (MAX_CANONICAL_VERTICES + 1)))
    assert not isinstance(err.value, NoClosure)


def test_close_results_are_hamiltonian_with_right_degrees():
    for degs in ([3, 3, 3, 3, 3, 3], [3, 3, 2, 3, 3], [4, 2, 4, 2, 4, 2]):
        res = close_to_hamiltonian(build_haired_cycle(degs))
        assert not res.partial
        assert res.graphs
        for g in res.graphs:
            assert degree_sequence(g) == tuple(sorted(degs, reverse=True))
            assert hamiltonian_lattice_member(g)


def test_close_infeasible_residuals_raise():
    # C4 with every pendant count 2: only the two diagonals are available,
    # so chord-degree 2 everywhere is impossible in a simple chord set
    with pytest.raises(ValueError):
        close_to_hamiltonian(build_haired_cycle([4, 4, 4, 4]))


def test_sampled_mode_flags_partial():
    # force the sampling path by dropping the limit below the pendant count
    hc = build_haired_cycle([3] * 6)
    res = close_to_hamiltonian(hc, exhaustive_limit=4, seed=1, samples=60)
    assert res.partial
    full = close_to_hamiltonian(hc)
    assert not full.partial
    full_keys = {canonical_form(g) for g in full.graphs}
    for g in res.graphs:
        assert degree_sequence(g) == tuple([3] * 6)
        assert canonical_form(g) in full_keys  # sampling never invents graphs
    again = close_to_hamiltonian(hc, exhaustive_limit=4, seed=1, samples=60)
    assert [canonical_form(g) for g in res.graphs] == [
        canonical_form(g) for g in again.graphs
    ]


def test_membership_and_witness_agree():
    rng = random.Random(41)
    for _ in range(25):
        p = rng.randrange(4, 9)
        # keep chord counts small enough for the exhaustive closing sweep
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        member = hamiltonian_lattice_member(g)
        w = hamiltonian_witness(g)
        assert member == (w is not None)
        if w is not None:
            assert w.pendant_count() % 2 == 0
            back = close_to_hamiltonian(w)
            assert any(are_isomorphic(h, g) for h in back.graphs)



def _split_chain_witness(g):
    """The former witness: one leaf_split per off-tour edge, in g.edges()
    order, each rebuilding the whole graph."""
    cycle = find_hamilton_cycle(g)
    if cycle is None:
        return None
    on_cycle = {_norm_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))}
    cur, pendants = g, {v: [] for v in cycle}
    for u, v in g.edges():
        if (u, v) not in on_cycle:
            res = leaf_split(cur, u, v)
            cur = res.graph
            pendants[u].append(res.leaf_at_u)
            pendants[v].append(res.leaf_at_v)
    return HairedCycle(cur, list(cycle), pendants)


def _hamiltonian_graphs(seed, count):
    """A shuffled tour on p = 3..9 vertices plus random chords."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randrange(3, 10)
        tour = rng.sample(range(1, p + 1), p)
        edges = {_norm_edge(tour[i], tour[(i + 1) % p]) for i in range(p)}
        for _ in range(rng.randrange(0, p * (p - 1) // 2 + 1)):
            edges.add(_norm_edge(*rng.sample(range(1, p + 1), 2)))
        yield Graph(p, sorted(edges))


def test_hamiltonian_witness_equals_the_leaf_split_chain():
    graphs = list(_hamiltonian_graphs(67, 160))
    graphs += [complete_graph(p) for p in range(3, 10)]
    graphs += [path_graph(5), star_graph(4), complete_bipartite_graph(2, 3), Graph(1, [])]
    witnessed = 0
    for g in graphs:
        got = hamiltonian_witness(g)
        assert got == _split_chain_witness(g), g.edges()
        witnessed += got is not None and got.pendant_count() > 0
    assert witnessed > 110


def test_pairing_the_witness_pendants_along_the_off_tour_edges_gives_g():
    for g in [*_hamiltonian_graphs(71, 60), complete_graph(60)]:
        w = hamiltonian_witness(g)
        support = {x: c for c, hair in w.pendants.items() for x in hair}
        assert sorted(support) == list(range(g.p + 1, w.graph.p + 1))
        surgery = Surgery(w.graph)
        for x in range(g.p + 1, w.graph.p + 1, 2):
            surgery.merge(LeafEdge(support[x], x), LeafEdge(support[x + 1], x + 1))
        assert surgery.finish()[0] == g

def test_planar_member():
    f = planar_lattice_member(cycle_graph(6))
    assert f is not None and len(set(f.values())) <= 4
    assert planar_lattice_member(complete_graph(5)) is None
    assert planar_lattice_member(path_graph(5)) is None  # leaves
    assert planar_lattice_member(Graph(4, [(1, 2), (3, 4)])) is None
    k4 = complete_graph(4)
    f = planar_lattice_member(k4)
    assert f is not None
    for u, v in k4.edges():
        assert f[u] != f[v]


def test_spanning_enumeration():
    for m in range(2, 8):
        assert spanning_lattice_count(m) == m ** (m - 2)
    for m in (2, 3, 4, 5):
        trees = spanning_lattice_enumerate(m)
        assert len(trees) == m ** (m - 2)
        edge_sets = {tuple(t.edges()) for t, _ in trees}
        assert len(edge_sets) == len(trees)  # labeled: all distinct
        for t, f in trees:
            assert is_tree(t)
            assert f == {i: i for i in range(1, m + 1)}


def test_euler_expression():
    assert euler_expression(cycle_graph(7)) is not None
    assert euler_expression(complete_graph(5)) is not None
    assert euler_expression(complete_graph(4)) is None  # odd degrees
    assert euler_expression(path_graph(4)) is None
    assert euler_expression(Graph(2, [])) is None
    sc = euler_expression(complete_graph(5))
    assert are_isomorphic(recompose(sc), complete_graph(5))


def test_colored_member_roundtrip():
    S = build_uniform_fdt_system(4, 0)
    base = S.backbone()
    sc = CoincideScript(base, (1, 1, 1, 0), ((1, 1, 2, 1), (1, 2, 3, 1)))
    g, f = recompose_colored(sc, S)
    assert is_proper_total(g, f)
    back = colored_lattice_member(g, f, S)
    assert back is not None
    g2, f2 = recompose_colored(back, S)
    assert are_isomorphic(g, g2)

    def profile(gr, fc):
        return sorted(
            (
                gr.degree(v),
                fc.vertex(v),
                tuple(sorted(fc.edge(v, u) for u in gr.neighbors(v))),
            )
            for v in gr.vertices()
        )

    assert profile(g, f) == profile(g2, f2)


def test_colored_member_rejections():
    S = build_uniform_fdt_system(4, 0)
    from iceflower.coloring import find_fdt_coloring

    c4 = cycle_graph(4)
    f = find_fdt_coloring(c4, 5)
    assert colored_lattice_member(c4, f, S) is None  # sizes do not match
    bad = CoincideScript(S.backbone(), (2, 0, 0, 0), ((1, 1, 2, 1),))
    with pytest.raises(ValueError):
        recompose_colored(bad, S)  # identical stars are never compatible


# -- batch replay against one public merge per step --------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return "ValueError: %s" % e


def _one_step_replay(script, system=None):
    """Reference replay: lay the copies out by disjoint unions, then run one
    public leaf_coincide / colored_leaf_coincide per step and push every
    slot through the returned vertex_map."""
    if system is not None and system.sizes() != script.base.sizes():
        raise ValueError("system stars do not match the script base")
    g = None
    vc, ec = {}, {}
    where = {}
    t = 0
    for j, count in enumerate(script.coefficients):
        star = script.base.stars[j]
        for _ in range(count):
            t += 1
            if g is None:
                g, shift = star.graph, 0
            else:
                g, shift = disjoint_union(g, star.graph)
            for l in range(star.m + 1):
                where[(t, l)] = 1 + l + shift
            if system is not None:
                f = system.colorings[j]
                vc.update({v + shift: c for v, c in f.vertex_colors.items()})
                ec.update({(u + shift, v + shift): c for (u, v), c in f.edge_colors.items()})
    theta = None
    if system is not None:
        theta = TotalColoring(max(f.palette for f in system.colorings), vc, ec)
    for t1, l1, t2, l2 in script.steps:
        for t, l in ((t1, l1), (t2, l2)):
            if (t, l) not in where:
                raise ValueError("step references unknown slot (%d,%d)" % (t, l))
            if l < 1:
                raise ValueError("steps must consume leaf slots, not centers")
            if where[(t, l)] is None:
                raise ValueError("slot (%d,%d) already consumed" % (t, l))
        e1 = LeafEdge(where[(t1, 0)], where[(t1, l1)])
        e2 = LeafEdge(where[(t2, 0)], where[(t2, l2)])
        if theta is None:
            res = leaf_coincide(g, e1, e2)
        else:
            res, theta = colored_leaf_coincide(g, theta, e1, e2)
        g = res.graph
        where = {key: res.vertex_map.get(v) for key, v in where.items()}
    return g, theta


def _random_script(rng, base, colorings=None):
    """Random coefficients and steps: mostly two free slots on different
    copies (only color-compatible ones when colorings are given),
    sometimes any slot at all, so spent, unknown, center and same-copy slots and
    repeated copy pairs all occur."""
    coefficients = [rng.randrange(0, 3) for _ in base.stars]
    if sum(coefficients) == 0:
        coefficients[rng.randrange(base.n)] = 1
    kind = [j for j, a in enumerate(coefficients) for _ in range(a)]
    free = [(t, l) for t, j in enumerate(kind, 1) for l in range(1, base.stars[j].m + 1)]

    def colors(t, l):
        f = colorings[kind[t - 1]]
        return f.vertex(1), f.vertex(1 + l), f.edge(1, 1 + l)

    steps = []
    for _ in range(rng.randrange(0, len(free) // 2 + 2)):
        if len(free) < 2 or rng.random() < 0.1:
            t = rng.randrange(0, len(kind) + 2)
            steps.append((t, rng.randrange(-1, 4), rng.randrange(1, len(kind) + 1), rng.randrange(0, 4)))
            continue
        s1 = rng.choice(free)
        others = [s for s in free if s[0] != s1[0]] or free
        if colorings is not None:
            c1, leaf1, e1 = colors(*s1)
            others = [s for s in others if colors(*s) == (leaf1, c1, e1)]
            if not others:
                continue
        s2 = rng.choice(others)
        if s2 == s1:
            continue
        steps.append(s1 + s2)
        free = [s for s in free if s not in (s1, s2)]
    return CoincideScript(base, tuple(coefficients), tuple(steps))


def test_recompose_matches_one_step_replay():
    rng = random.Random(41)
    for _ in range(300):
        base = IceFlowerSystem([make_star(rng.randrange(2, 5)) for _ in range(rng.randrange(1, 4))])
        sc = _random_script(rng, base)
        assert _outcome(recompose, sc) == _outcome(lambda s: _one_step_replay(s)[0], sc)
    for _ in range(60):
        p = rng.randrange(4, 13)
        sc = decompose_to_stars(random_connected_graph(rng, p, rng.randrange(0, p)))
        assert recompose(sc) == _one_step_replay(sc)[0]


def test_recompose_colored_matches_one_step_replay():
    rng = random.Random(43)
    merged = 0
    for _ in range(300):
        S = build_uniform_fdt_system(rng.randrange(3, 6), 0)
        sc = _random_script(rng, S.backbone(), S.colorings)
        got = _outcome(recompose_colored, sc, S)
        assert got == _outcome(_one_step_replay, sc, S)
        if not isinstance(got, str):
            merged += len(sc.steps)
    assert merged > 200  # the random scripts do reach long colored replays


def _one_step_haired_cycle(degrees):
    """Reference chain: add one star at a time by disjoint union and close
    the cycle with public leaf_coincide calls, remapping after each."""
    n = len(degrees)
    g = make_star(degrees[0]).graph
    centers = [1]
    free = [[1 + l for l in range(1, degrees[0] + 1)]]

    def remap(m):
        for i in range(len(centers)):
            centers[i] = m[centers[i]]
            free[i] = [m[v] for v in free[i]]

    for i in range(1, n):
        g, shift = disjoint_union(g, make_star(degrees[i]).graph)
        centers.append(1 + shift)
        free.append([1 + l + shift for l in range(1, degrees[i] + 1)])
        res = leaf_coincide(
            g, LeafEdge(centers[i - 1], free[i - 1].pop()), LeafEdge(centers[i], free[i].pop(0))
        )
        g = res.graph
        remap(res.vertex_map)
    res = leaf_coincide(
        g, LeafEdge(centers[n - 1], free[n - 1].pop()), LeafEdge(centers[0], free[0].pop(0))
    )
    remap(res.vertex_map)
    return res.graph, centers, {centers[i]: free[i] for i in range(n)}


def _one_step_closures(hc):
    residual = [len(hc.pendants[v]) for v in hc.spine]
    chord_sets = list(_chord_graphs(len(hc.spine), residual))
    if not chord_sets:
        raise ValueError("no pairing avoids multi-edges")
    keys = set()
    for chords in chord_sets:
        g = hc.graph
        centers = list(hc.spine)
        pend = [list(hc.pendants[v]) for v in hc.spine]
        for i, j in sorted(chords):
            res = leaf_coincide(
                g, LeafEdge(centers[i], pend[i].pop(0)), LeafEdge(centers[j], pend[j].pop(0))
            )
            g, m = res.graph, res.vertex_map
            centers = [m[c] for c in centers]
            pend = [[m[x] for x in lst] for lst in pend]
        keys.add(canonical_form(g))
    return [Graph(*k) for k in sorted(keys)]


def test_haired_cycles_and_closures_match_one_step_chain():
    """The degree sequences of gate c08, each in a few spine orders."""
    rng = random.Random(47)
    checked = 0
    for n in (4, 5, 6):
        for c in itertools.combinations_with_replacement(range(2, min(5, n - 1) + 1), n):
            if sum(c) % 2:
                continue
            orders = {c, c[::-1]}
            for _ in range(2):
                order = list(c)
                rng.shuffle(order)
                orders.add(tuple(order))
            for order in sorted(orders):
                hc = build_haired_cycle(list(order))
                assert (hc.graph, hc.spine, hc.pendants) == _one_step_haired_cycle(order)
                if sum(len(p) for p in hc.pendants.values()) == 0:
                    continue
                got = _outcome(lambda h: close_to_hamiltonian(h).graphs, hc)
                assert got == _outcome(_one_step_closures, hc)
                checked += 1
    assert checked > 100


def _surgery_closures(hc, exhaustive_limit=20, seed=0, samples=2000):
    """The earlier closing sweep: the same chord sets, each replayed
    through leaf merges on hc.graph itself, spine vertex by spine vertex."""
    n = len(hc.spine)
    residual = [len(hc.pendants[v]) for v in hc.spine]
    total = sum(residual)
    if total % 2:
        raise NoClosure("odd pendant count: no perfect pairing exists")
    if total == 0:
        return ClosureResult([Graph(*canonical_form(hc.graph))], False)
    partial = total > exhaustive_limit
    if not partial:
        chord_sets = list(_chord_graphs(n, residual))
    else:
        rng = random.Random(seed)
        slots = [i for i in range(n) for _ in range(residual[i])]
        seen_sets = set()
        for _ in range(samples):
            order = list(slots)
            rng.shuffle(order)
            pairing = [tuple(sorted(pair)) for pair in zip(order[::2], order[1::2])]
            if all(1 < b - a < n - 1 for a, b in pairing) and len(set(pairing)) == len(pairing):
                seen_sets.add(tuple(sorted(pairing)))
        chord_sets = [list(c) for c in sorted(seen_sets)]
        if not chord_sets:
            chord_sets = list(itertools.islice(_chord_graphs(n, residual), 1))
    if not chord_sets:
        raise NoClosure("no pairing avoids multi-edges")
    keys = set()
    for chords in chord_sets:
        surgery = Surgery(hc.graph)
        pend = [iter(hc.pendants[v]) for v in hc.spine]
        for i, j in sorted(chords):
            surgery.merge(LeafEdge(hc.spine[i], next(pend[i])), LeafEdge(hc.spine[j], next(pend[j])))
        keys.add(canonical_form(surgery.finish()[0]))
    return ClosureResult([Graph(*k) for k in sorted(keys)], partial)


def test_closures_of_witness_haired_cycles_match_the_merge_replay():
    """Witness haired cycles keep the graph's own ids on the spine, in
    tour order, with pendants numbered past them; the closures built on
    spine positions must equal the ones replayed through leaf merges."""
    rng = random.Random(53)
    witnesses = []
    while len(witnesses) < 40:
        p = rng.randrange(4, 9)
        w = hamiltonian_witness(random_connected_graph(rng, p, rng.randrange(0, 2 * p)))
        if w is not None:
            witnesses.append(w)
    sampled = 0
    for w in witnesses:
        for kwargs in ({}, {"exhaustive_limit": 0, "samples": 1}, {"exhaustive_limit": 0, "samples": 10},
                       {"exhaustive_limit": 2, "seed": 7, "samples": 200}):
            got = _outcome(lambda h: close_to_hamiltonian(h, **kwargs), w)
            assert got == _outcome(lambda h: _surgery_closures(h, **kwargs), w), kwargs
            sampled += not isinstance(got, str) and got.partial
    assert sum(w.pendant_count() > 20 for w in witnesses) > 0 and sampled > 60


def test_builders_check_the_vertex_limit_before_they_allocate():
    limit = "graphs take p <= %d vertices, got p = %d"
    hc = build_haired_cycle([MAX_VERTICES - 1, 2, 2])  # exactly at the limit
    assert hc.graph.p == MAX_VERTICES and hc.pendant_count() == MAX_VERTICES - 3
    huge = 10 ** 12  # a layout this size would need terabytes
    with pytest.raises(ValueError, match=limit % (MAX_VERTICES, MAX_VERTICES + 1)):
        build_haired_cycle([MAX_VERTICES, 2, 2])
    with pytest.raises(ValueError, match=limit % (MAX_VERTICES, huge + 1)):
        build_haired_cycle([huge, 2, 2])
    base = IceFlowerSystem([make_star(2)])
    with pytest.raises(ValueError, match=limit % (MAX_VERTICES, 3 * huge)):
        recompose(CoincideScript(base, (huge,), ()))
    S = build_uniform_fdt_system(3, 0)
    with pytest.raises(ValueError, match=limit % (MAX_VERTICES, 3 * huge + 3)):
        saturate(S, [huge, 1, 0])
    side = int(MAX_VERTICES ** 0.5) + 1  # side stars of side vertices each
    with pytest.raises(ValueError, match=limit % (MAX_VERTICES, side * side)):
        build_uniform_fdt_system(side, 0)


def _chord_graphs_reference(n, residual):
    """The earlier chord search: one decision per spine pair, in pair
    order, with a prune on how many undecided pairs each position has."""
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (j - i == 1 or (i == 0 and j == n - 1))
    ]
    avail = [0] * n
    for i, j in pairs:
        avail[i] += 1
        avail[j] += 1
    out = []
    chosen = []
    res = list(residual)

    def rec(idx):
        if all(r == 0 for r in res):
            out.append(list(chosen))
            return
        if idx == len(pairs):
            return
        i, j = pairs[idx]
        avail[i] -= 1
        avail[j] -= 1
        if res[i] > 0 and res[j] > 0:
            res[i] -= 1
            res[j] -= 1
            chosen.append((i, j))
            rec(idx + 1)
            chosen.pop()
            res[i] += 1
            res[j] += 1
        if all(res[v] <= avail[v] for v in range(n)):
            rec(idx + 1)
        avail[i] += 1
        avail[j] += 1

    rec(0)
    return out


def _residual_vectors():
    for n in range(3, 8):
        for res in itertools.product(range(3), repeat=n):
            if sum(res) % 2 == 0:
                yield n, list(res)
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(9, 14)
        res = [0] * n
        for _ in range(2 * rng.randint(1, 6)):
            res[rng.choice([i for i in range(n) if res[i] < 3])] += 1
        yield n, res


def test_chord_graphs_match_the_pair_search_exactly_once():
    checked = 0
    for n, res in _residual_vectors():
        got = [tuple(sorted(c)) for c in _chord_graphs(n, res)]
        assert len(set(got)) == len(got), (n, res)
        assert set(got) == {tuple(sorted(c)) for c in _chord_graphs_reference(n, res)}, (n, res)
        checked += 1
    assert checked == 1836


def test_chord_graphs_recurse_once_per_chord_on_a_long_spine():
    # 60 spine positions, one chord to place: the pair search recursed
    # once per candidate pair and overflowed the stack here
    res = [0] * 60
    res[57] = res[59] = 1
    assert list(_chord_graphs(60, res)) == [[(57, 59)]]


def test_chord_graphs_build_a_set_of_1500_chords_without_recursion():
    first = next(_chord_graphs(3000, [1] * 3000))
    assert len(first) == 1500 and first[:2] == [(0, 2), (1, 3)]
    assert sorted(v for chord in first for v in chord) == list(range(3000))


def test_sampled_closures_drop_pairings_that_repeat_a_chord():
    # the only chord-degree-respecting pairing joins spine 0 and 2 twice
    with pytest.raises(ValueError, match="no pairing avoids multi-edges"):
        close_to_hamiltonian(build_haired_cycle([4, 2, 4, 2]), exhaustive_limit=0)


def test_sampled_sweep_that_draws_no_valid_pairing_falls_back_to_the_first_chord_set():
    # 30 pendants: spine 0's fifteen must pair one-to-one with the other
    # fifteen, which about one random pairing in 5,000 does
    hc = build_haired_cycle([17, 2] + [3] * 15 + [2])
    sampled = close_to_hamiltonian(hc)
    exhaustive = close_to_hamiltonian(hc, exhaustive_limit=100)
    assert (len(exhaustive.graphs), exhaustive.partial) == (1, False)
    assert sampled.partial and sampled.graphs == exhaustive.graphs


def test_sampled_closures_are_exhaustive_closures_and_raise_only_without_any():
    rng = random.Random(85)
    raised = fewer = 0
    for _ in range(80):
        n = rng.randint(4, 10)
        degrees = [2] * n
        for _ in range(2 * rng.randint(1, min(12, n + 2))):
            degrees[rng.randrange(n)] += 1
        hc = build_haired_cycle(degrees)
        want = _outcome(lambda h: close_to_hamiltonian(h, exhaustive_limit=100).graphs, hc)
        samples = rng.choice((1, 10, 2000))
        got = _outcome(
            lambda h: close_to_hamiltonian(h, exhaustive_limit=0, samples=samples).graphs, hc
        )
        if isinstance(want, str):
            assert got == want, degrees
            raised += 1
        else:
            assert not isinstance(got, str), (degrees, samples)
            assert got and all(g in want for g in got), (degrees, samples)
            fewer += len(got) < len(want)
    assert raised > 10 and fewer > 10


def test_decompose_names_the_failed_precondition():
    for g, msg in (
        (Graph(3), "edgeless"),
        (Graph(2, [(1, 2)]), "no internal vertex"),
        (Graph(4, [(1, 2), (3, 4)]), "connected graph"),
    ):
        with pytest.raises(ValueError, match=msg):
            decompose_to_stars(g)


def _hamiltonian_member_reference(g):
    """Connected, min degree >= 2, and carrying a full closed tour."""
    if not is_connected(g):
        return False
    if min(g.degree(v) for v in g.vertices()) < 2:
        return False
    return find_hamilton_cycle(g) is not None


def test_hamiltonian_member_matches_the_three_check_definition():
    rng = random.Random(13)
    checked = 0
    for p in range(1, 8):
        for g in graph_classes(p):
            perm = list(g.vertices())
            rng.shuffle(perm)
            for h in (g, g.relabel({v: perm[v - 1] for v in g.vertices()})):
                assert hamiltonian_lattice_member(h) == _hamiltonian_member_reference(h)
                checked += 1
    assert checked == 2504


# -- one star-expression matcher against the two matchers it replaced --------


def _reference_script_over_base(g, sizes):
    """The former uncolored matcher: first star of equal size, leaf slots
    in ascending neighbor order, instances by base position then id."""
    if g.q == 0:
        raise ValueError("edgeless graph has no star expression")
    if not is_connected(g):
        raise ValueError("star expressions need a connected graph")
    non_leaf = [w for w in g.vertices() if g.degree(w) >= 2]
    if not non_leaf:
        raise ValueError("no internal vertex (p <= 2); nothing to express")
    assigned = {}
    for w in non_leaf:
        for bi, m in enumerate(sizes):
            if m == g.degree(w):
                assigned[w] = bi
                break
        else:
            return None
    slot_of = {w: {u: i + 1 for i, u in enumerate(g.neighbors(w))} for w in non_leaf}
    return _reference_script(g, IceFlowerSystem([make_star(m) for m in sizes]), assigned, slot_of)


def _reference_script(g, base, assigned, slot_of):
    coefficients = [0] * base.n
    for bi in assigned.values():
        coefficients[bi] += 1
    order = sorted(assigned, key=lambda w: (assigned[w], w))
    instance = {w: t for t, w in enumerate(order, start=1)}
    steps = tuple(
        (instance[u], slot_of[u][v], instance[v], slot_of[v][u])
        for u, v in g.edges()
        if u in instance and v in instance
    )
    return CoincideScript(base, tuple(coefficients), steps)


def _reference_colored_member(g, f, base):
    """The former colored matcher, which answered None on any input
    without an internal vertex or that was disconnected."""
    if not is_proper_total(g, f):
        raise ValueError("membership is defined for proper total colorings")
    non_leaf = [w for w in g.vertices() if g.degree(w) >= 2]
    if not non_leaf or not is_connected(g):
        return None

    def signature(center_color, pairs):
        return (len(pairs), center_color, tuple(sorted(pairs)))

    base_sigs, base_slot_order = [], []
    for star, bf in zip(base.stars, base.colorings):
        pairs = [(bf.edge(1, l), bf.vertex(l)) for l in star.leaves]
        base_sigs.append(signature(bf.vertex(1), pairs))
        base_slot_order.append(sorted(range(1, star.m + 1), key=lambda l: pairs[l - 1]))
    assigned, slot_map = {}, {}
    for w in non_leaf:
        sig = signature(f.vertex(w), [(f.edge(w, u), f.vertex(u)) for u in g.neighbors(w)])
        for bi, bsig in enumerate(base_sigs):
            if sig == bsig:
                assigned[w] = bi
                nbr_order = sorted(g.neighbors(w), key=lambda u: (f.edge(w, u), f.vertex(u)))
                slot_map[w] = {u: base_slot_order[bi][i] for i, u in enumerate(nbr_order)}
                break
        else:
            return None
    return _reference_script(g, base.backbone(), assigned, slot_map)


def test_uncolored_matcher_equals_the_former_one_on_every_class_p_le_7():
    bases = ([2], [3], [2, 3], [3, 2], [2, 3, 4], [4, 3, 2, 3])
    compared = answered = 0
    for p in range(1, 8):
        for g in connected_classes(p):
            sizes = sorted({g.degree(w) for w in g.vertices() if g.degree(w) >= 2})
            assert _outcome(decompose_to_stars, g) == _outcome(_reference_script_over_base, g, sizes)
            for b in bases:
                got = _outcome(uncolored_lattice_member, g, IceFlowerSystem([make_star(m) for m in b]))
                assert got == _outcome(_reference_script_over_base, g, b)
                answered += got is not None and not isinstance(got, str)
            compared += 1 + len(bases)
    assert compared == 6972 and answered > 500


def _shuffled_leaves(rng, system):
    """The system with each star's leaf colors dealt to its leaves in a
    random order, so slot order and leaf id order differ."""
    colorings = []
    for star, f in zip(system.stars, system.colorings):
        moved = list(star.leaves)
        rng.shuffle(moved)
        to = dict(zip(star.leaves, moved))
        colorings.append(
            TotalColoring(
                f.palette,
                {1: f.vertex(1), **{to[l]: f.vertex(l) for l in star.leaves}},
                {(1, to[l]): f.edge(1, l) for l in star.leaves},
            )
        )
    return ColoredIceFlowerSystem(list(system.stars), colorings)


def test_colored_matcher_equals_the_former_one_on_seeded_scripts():
    rng = random.Random(47)
    connected = refused = 0
    for _ in range(3000):
        S = _shuffled_leaves(rng, build_uniform_fdt_system(rng.randrange(3, 7), 0))
        sc = _random_script(rng, S.backbone(), S.colorings)
        try:
            g, f = recompose_colored(sc, S)
        except ValueError:
            continue
        got = _outcome(colored_lattice_member, g, f, S)
        if is_connected(g):
            assert got == _reference_colored_member(g, f, S)
            assert got is not None  # every split star is one of S's stars
            connected += 1
        else:
            # refused as the uncolored matcher refuses it, never a "no"
            assert got == _outcome(_reference_script_over_base, g, S.sizes())
            assert got.startswith("ValueError: ")
            refused += 1
    assert connected >= 350 and refused >= 1000


def test_colored_member_of_a_disconnected_replay_is_refused_not_a_no():
    S = build_uniform_fdt_system(4, 0)
    g, f = recompose_colored(CoincideScript(S.backbone(), (1, 1, 0, 0), ()), S)
    assert (g.p, g.q) == (8, 6)
    with pytest.raises(ValueError, match="^star expressions need a connected graph$"):
        colored_lattice_member(g, f, S)
