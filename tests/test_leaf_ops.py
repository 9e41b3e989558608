import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from iceflower.graph import Graph, are_isomorphic, connected_components, is_connected
from iceflower.families import cycle_graph, path_graph, star_graph
from iceflower.coloring import TotalColoring, is_proper_total
from iceflower.leafops import (
    LeafEdge,
    Surgery,
    _lay_out,
    colored_compatible,
    colored_leaf_coincide,
    colored_leaf_split,
    disjoint_union,
    leaf_coincide,
    leaf_coincide_across,
    leaf_edges,
    leaf_split,
)
from iceflower.system import make_star
from tests.conftest import greedy_proper_total, random_connected_graph


def test_leaf_edges_listing():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    assert leaf_edges(g) == [LeafEdge(2, 1), LeafEdge(2, 3), LeafEdge(2, 4)]
    assert leaf_edges(cycle_graph(4)) == []


def test_split_counts_and_leaves():
    g = cycle_graph(4)
    res = leaf_split(g, 1, 2)
    assert res.graph.p == g.p + 2
    assert res.graph.q == g.q + 1
    assert res.graph.degree(res.leaf_at_u) == 1
    assert res.graph.degree(res.leaf_at_v) == 1
    assert res.graph.has_edge(1, res.leaf_at_u)
    assert res.graph.has_edge(2, res.leaf_at_v)
    assert not res.graph.has_edge(1, 2)


def test_split_rejects_leaf_endpoints_and_missing_edges():
    g = path_graph(3)
    with pytest.raises(ValueError):
        leaf_split(g, 1, 2)  # endpoint 1 is a leaf
    with pytest.raises(ValueError):
        leaf_split(cycle_graph(4), 1, 3)  # no such edge


def test_split_on_bridge_disconnects():
    # splitting an internal bridge leaves two components; the op itself
    # promises only the p/q bookkeeping, not connectivity
    g = path_graph(4)
    res = leaf_split(g, 2, 3)
    assert len(connected_components(res.graph)) == 2


def test_coincide_undoes_split():
    rng = random.Random(5)
    done = 0
    while done < 500:
        p = rng.randrange(4, 10)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        internal = [
            (u, v)
            for u, v in g.edges()
            if g.degree(u) >= 2 and g.degree(v) >= 2
        ]
        if not internal:
            continue
        u, v = internal[rng.randrange(len(internal))]
        split = leaf_split(g, u, v)
        back = leaf_coincide(
            split.graph,
            LeafEdge(u, split.leaf_at_u),
            LeafEdge(v, split.leaf_at_v),
        )
        assert back.graph.p == g.p and back.graph.q == g.q
        assert are_isomorphic(back.graph, g)
        done += 1


def test_coincide_guards():
    g = path_graph(4)  # leaves 1 and 4
    with pytest.raises(ValueError):
        leaf_coincide(g, LeafEdge(2, 1), LeafEdge(2, 1))  # same edge
    star = star_graph(3)
    with pytest.raises(ValueError):
        leaf_coincide(star, LeafEdge(1, 2), LeafEdge(1, 3))  # shared support
    # adjacent supports would merge into a multi-edge
    h = Graph(4, [(1, 2), (1, 3), (2, 4)])
    with pytest.raises(ValueError):
        leaf_coincide(h, LeafEdge(1, 3), LeafEdge(2, 4))


def test_coincide_across_two_stars():
    g1, g2 = star_graph(2), star_graph(2)
    res = leaf_coincide_across(g1, LeafEdge(1, 3), g2, LeafEdge(1, 2))
    assert res.graph.p == 4 and res.graph.q == 3
    assert are_isomorphic(res.graph, path_graph(4))
    # maps track both sides into the merged graph
    assert res.map1[1] != res.map2[1]
    assert res.graph.has_edge(res.map1[1], res.map2[1])


def test_disjoint_union_offsets():
    g, shift = disjoint_union(path_graph(2), path_graph(3))
    assert shift == 2
    assert g.p == 5 and g.q == 3
    assert g.has_edge(3, 4) and g.has_edge(4, 5)


def test_lay_out_is_the_disjoint_union_chain_with_colors_carried():
    rng = random.Random(17)
    for _ in range(60):
        parts = [random_connected_graph(rng, rng.randrange(2, 6), rng.randrange(0, 3))
                 for _ in range(rng.randrange(1, 4))]
        counts = [rng.randrange(0, 3) for _ in parts]
        counts[rng.randrange(len(parts))] += 1
        colorings = [greedy_proper_total(h) for h in parts]
        g, theta, shifts = _lay_out(parts, counts, colorings)
        copies = [(h, f) for h, f, a in zip(parts, colorings, counts) for _ in range(a)]
        want, want_shifts = copies[0][0], [0]
        for h, _ in copies[1:]:
            want, shift = disjoint_union(want, h)
            want_shifts.append(shift)
        assert (g, shifts) == (want, want_shifts)
        assert _lay_out(parts, counts) == (g, None, shifts)
        assert theta.palette == max(f.palette for f in colorings)
        for (h, f), s in zip(copies, shifts):
            assert all(theta.vertex(v + s) == f.vertex(v) for v in h.vertices())
            assert all(theta.edge(u + s, v + s) == f.edge(u, v) for u, v in h.edges())
        assert len(theta.vertex_colors) == g.p and len(theta.edge_colors) == g.q


def test_stars_lay_out_as_their_graphs_do():
    stars = [make_star(m) for m in (2, 4, 3)]
    assert _lay_out(stars, (2, 0, 3)) == _lay_out([s.graph for s in stars], (2, 0, 3))


def test_surgery_merges_exactly_the_pairs_colored_compatible_allows():
    """One color rule: on colorings drawn at random, proper or not,
    colored_compatible holds exactly when each support has the other
    leaf's color and the edge colors agree, and a merge of leaf-edges on
    two stars is refused for color exactly when it does not hold."""
    rng = random.Random(23)
    g, _ = disjoint_union(star_graph(3), star_graph(2))
    allowed = 0
    for _ in range(200):
        vc = {v: rng.randint(1, 2) for v in g.vertices()}
        f = TotalColoring(2, vc, {e: rng.randint(1, 2) for e in g.edges()})
        for e1 in (LeafEdge(1, 2), LeafEdge(1, 3), LeafEdge(1, 4)):
            for e2 in (LeafEdge(5, 6), LeafEdge(5, 7)):
                ok = colored_compatible(g, f, e1, e2)
                assert ok == (
                    vc[e1.support] == vc[e2.leaf]
                    and vc[e2.support] == vc[e1.leaf]
                    and f.edge(*e1) == f.edge(*e2)
                )
                try:
                    Surgery(g, f).merge(e1, e2)
                except ValueError as err:
                    assert str(err) == "leaf-edges are not color-compatible" and not ok
                else:
                    assert ok
                    allowed += 1
    assert 50 < allowed < 1000


def test_colored_split_preserves_properness():
    rng = random.Random(9)
    done = 0
    while done < 500:
        p = rng.randrange(4, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        internal = [
            (u, v)
            for u, v in g.edges()
            if g.degree(u) >= 2 and g.degree(v) >= 2
        ]
        if not internal:
            continue
        f = greedy_proper_total(g)
        assert is_proper_total(g, f)
        u, v = internal[rng.randrange(len(internal))]
        res, f2 = colored_leaf_split(g, f, u, v)
        assert is_proper_total(res.graph, f2)
        # leaves copy the far endpoint's color; leaf-edges keep the cut color
        assert f2.vertex(res.leaf_at_u) == f.vertex(v)
        assert f2.vertex(res.leaf_at_v) == f.vertex(u)
        assert f2.edge(u, res.leaf_at_u) == f.edge(u, v)
        assert f2.edge(v, res.leaf_at_v) == f.edge(u, v)
        done += 1


def test_colored_coincide_requires_compatibility():
    # two colored 2-stars that cannot merge: leaf colors do not cross-match
    g1 = star_graph(2)
    f1 = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (1, 3): 5})
    g2 = star_graph(2)
    f2 = TotalColoring(5, {1: 2, 2: 1, 3: 4}, {(1, 2): 4, (1, 3): 5})
    g, shift = disjoint_union(g1, g2)
    pal = max(f1.palette, f2.palette)
    vc = dict(f1.vertex_colors)
    vc.update({v + shift: c for v, c in f2.vertex_colors.items()})
    ec = dict(f1.edge_colors)
    ec.update({(a + shift, b + shift): c for (a, b), c in f2.edge_colors.items()})
    f = TotalColoring(pal, vc, ec)
    # e1 = (1,2): edge color 4, leaf color 2; e2 = (4,5): edge color 4, leaf 1
    ok = colored_compatible(g, f, LeafEdge(1, 2), LeafEdge(4, 5))
    assert ok  # theta(leaf1)=2=theta(center2), theta(leaf2)=1=theta(center1)
    res, merged = colored_leaf_coincide(g, f, LeafEdge(1, 2), LeafEdge(4, 5))
    assert is_proper_total(res.graph, merged)
    # the mismatched pair is rejected
    assert not colored_compatible(g, f, LeafEdge(1, 3), LeafEdge(4, 6))
    with pytest.raises(ValueError):
        colored_leaf_coincide(g, f, LeafEdge(1, 3), LeafEdge(4, 6))


def test_colored_coincide_rejects_partial_coloring_with_value_error():
    g = Graph(6, [(1, 2), (1, 3), (4, 5), (4, 6)])
    f = TotalColoring(
        6,
        {1: 1, 2: 2, 3: 4, 4: 2, 5: 1, 6: 3},
        {(1, 2): 3, (1, 3): 5, (4, 5): 3, (4, 6): 4},
    )
    e1, e2 = LeafEdge(1, 2), LeafEdge(4, 5)
    res, merged = colored_leaf_coincide(g, f, e1, e2)
    assert is_proper_total(res.graph, merged)
    for drop in [(1, 3), (1, 2)]:  # an edge beside the merge, a merged leaf-edge
        ec = {e: c for e, c in f.edge_colors.items() if e != drop}
        with pytest.raises(ValueError):
            colored_leaf_coincide(g, TotalColoring(6, f.vertex_colors, ec), e1, e2)
    vc = {v: c for v, c in f.vertex_colors.items() if v != 5}
    with pytest.raises(ValueError):
        colored_leaf_coincide(g, TotalColoring(6, vc, f.edge_colors), e1, e2)


def test_colored_compatible_rejects_partial_coloring_with_value_error():
    g = Graph(6, [(1, 2), (1, 3), (4, 5), (4, 6)])
    vc = {1: 1, 2: 2, 3: 4, 4: 2, 5: 1, 6: 3}
    ec = {(1, 2): 3, (1, 3): 5, (4, 5): 3, (4, 6): 4}
    e1, e2 = LeafEdge(1, 2), LeafEdge(4, 5)
    assert colored_compatible(g, TotalColoring(6, vc, ec), e1, e2)
    for drop in [(1, 2), (4, 5)]:  # both vertex equalities still hold
        partial = {e: c for e, c in ec.items() if e != drop}
        with pytest.raises(ValueError, match="coloring does not cover the graph"):
            colored_compatible(g, TotalColoring(6, vc, partial), e1, e2)
    for drop in [1, 2, 4, 5]:
        partial = {v: c for v, c in vc.items() if v != drop}
        with pytest.raises(ValueError, match="coloring does not cover the graph"):
            colored_compatible(g, TotalColoring(6, partial, ec), e1, e2)


def test_colored_coincide_round_trip_on_random_cases():
    rng = random.Random(13)
    done = 0
    while done < 500:
        p = rng.randrange(4, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        internal = [
            (u, v)
            for u, v in g.edges()
            if g.degree(u) >= 2 and g.degree(v) >= 2
        ]
        if not internal:
            continue
        f = greedy_proper_total(g)
        u, v = internal[rng.randrange(len(internal))]
        split, f2 = colored_leaf_split(g, f, u, v)
        e1 = LeafEdge(u, split.leaf_at_u)
        e2 = LeafEdge(v, split.leaf_at_v)
        assert colored_compatible(split.graph, f2, e1, e2)
        back, f3 = colored_leaf_coincide(split.graph, f2, e1, e2)
        assert is_proper_total(back.graph, f3)
        assert back.graph.p == g.p and back.graph.q == g.q
        assert are_isomorphic(back.graph, g)
        done += 1


@st.composite
def _graph_and_internal_edge(draw):
    """A random simple graph on 3..9 vertices, possibly disconnected, with
    one of its internal edges (both ends of degree >= 2)."""
    p = draw(st.integers(3, 9))
    pairs = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1)]
    g = Graph(p, sorted(draw(st.sets(st.sampled_from(pairs), min_size=2))))
    internal = [(u, v) for u, v in g.edges() if g.degree(u) >= 2 and g.degree(v) >= 2]
    assume(internal)
    return g, draw(st.sampled_from(internal))


def _relabeled(g, mapping):
    return Graph(g.p, [(mapping[u], mapping[v]) for u, v in g.edges()])


@settings(max_examples=200, deadline=None)
@given(_graph_and_internal_edge())
def test_leaf_split_then_coincide_gives_back_the_graph(ge):
    g, (u, v) = ge
    split = leaf_split(g, u, v)
    back = leaf_coincide(split.graph, LeafEdge(u, split.leaf_at_u), LeafEdge(v, split.leaf_at_v))
    assert sorted(back.vertex_map) == list(g.vertices())
    assert _relabeled(g, back.vertex_map) == back.graph


@settings(max_examples=200, deadline=None)
@given(_graph_and_internal_edge(), st.randoms(use_true_random=False))
def test_colored_leaf_split_then_coincide_gives_back_graph_and_coloring(ge, rnd):
    g, (u, v) = ge
    f = greedy_proper_total(g)
    colors = list(range(1, f.palette + 1))
    rnd.shuffle(colors)  # renaming colors keeps a total coloring proper
    f = TotalColoring(
        f.palette,
        {w: colors[c - 1] for w, c in f.vertex_colors.items()},
        {e: colors[c - 1] for e, c in f.edge_colors.items()},
    )
    split, f2 = colored_leaf_split(g, f, u, v)
    back, f3 = colored_leaf_coincide(
        split.graph, f2, LeafEdge(u, split.leaf_at_u), LeafEdge(v, split.leaf_at_v)
    )
    assert sorted(back.vertex_map) == list(g.vertices())
    assert _relabeled(g, back.vertex_map) == back.graph
    assert f.relabel(back.vertex_map) == f3


@st.composite
def _leafy_proper_total(draw):
    """A random graph with pairs of leaves hung on non-adjacent vertices,
    under a random proper total coloring.  A leaf copies the color of the
    other leaf's support and a leaf-edge the color of the other leaf-edge
    where that stays proper, so compatible pairs are common; every other
    color is drawn among the two smallest free ones."""
    p = draw(st.integers(2, 6))
    hangs = draw(
        st.lists(
            st.tuples(st.integers(1, p), st.integers(1, p)).filter(lambda h: h[0] != h[1]),
            min_size=1,
            max_size=4,
        )
    )
    apart = {(min(h), max(h)) for h in hangs}
    pairs = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1) if (u, v) not in apart]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    twin = {}  # leaf -> (support, leaf) of the other half of its pair
    for s, t in hangs:
        a, b = p + 1 + len(twin), p + 2 + len(twin)
        edges += [(s, a), (t, b)]
        twin[a], twin[b] = (t, b), (s, a)
    g = Graph(p + len(twin), edges)
    palette = 2 * max(g.degree(v) for v in g.vertices()) + 3
    vc, ec = {}, {}

    def pick(used, wish):
        if wish is not None and wish not in used:
            return wish
        return draw(st.sampled_from([c for c in range(1, palette + 1) if c not in used][:2]))

    for v in g.vertices():
        used = {vc[u] for u in g.neighbors(v) if u in vc}
        vc[v] = pick(used, vc[twin[v][0]] if v in twin else None)
    for u, v in g.edges():  # a leaf's id is above its support's
        used = {vc[u], vc[v]} | {c for e, c in ec.items() if u in e or v in e}
        ec[(u, v)] = pick(used, ec.get(twin[v]) if v in twin else None)
    return g, TotalColoring(palette, vc, ec)


@settings(max_examples=300, deadline=None)
@given(_leafy_proper_total())
def test_compatible_leaf_edges_of_a_proper_coloring_always_merge(gf):
    """Surgery.merge checks compatibility only: on a proper total coloring
    that alone keeps the merged coloring proper."""
    g, f = gf
    assert is_proper_total(g, f)
    les = leaf_edges(g)
    for i, e1 in enumerate(les):
        for e2 in les[i + 1 :]:
            if (
                e1.support == e2.support
                or g.has_edge(e1.support, e2.support)
                or not colored_compatible(g, f, e1, e2)
            ):
                continue
            surgery = Surgery(g, f)
            surgery.merge(e1, e2)
            out, _, merged = surgery.finish()
            assert is_proper_total(out, merged)


def test_leaf_edge_errors_name_the_ids_a_one_step_chain_shows():
    g = Graph(10, [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8), (9, 10)])
    surgery = Surgery(g)
    surgery.merge(LeafEdge(1, 2), LeafEdge(5, 6))
    chain = leaf_coincide(g, LeafEdge(1, 2), LeafEdge(5, 6))
    m = chain.vertex_map
    for bad, msg in (
        (LeafEdge(3, 8), "(2,6) is not an edge"),
        (LeafEdge(7, 5), "vertex 4 is not a leaf"),
        (LeafEdge(9, 10), "support 7 has no eligible degree"),
    ):
        with pytest.raises(ValueError) as batch:
            surgery.merge(bad, LeafEdge(1, 4))
        assert str(batch.value) == msg
        with pytest.raises(ValueError) as one:
            leaf_coincide(chain.graph, LeafEdge(m[bad.support], m[bad.leaf]), LeafEdge(m[1], m[4]))
        assert str(one.value) == msg
    with pytest.raises(ValueError, match="support 9 has no eligible degree"):
        leaf_coincide_across(g, LeafEdge(9, 10), g, LeafEdge(1, 4))
    with pytest.raises(ValueError, match="vertex 5 is not a leaf"):
        colored_compatible(g, greedy_proper_total(g), LeafEdge(1, 4), LeafEdge(7, 5))


def test_a_merged_support_pair_is_an_edge_of_the_batch():
    """An edge made by a merge joins two supports, so offered as a
    leaf-edge it fails the leaf test, as it does on the one-step chain,
    and a second merge of the same supports would double it."""
    g = Graph(8, [(1, 2), (2, 3), (4, 5), (5, 6), (2, 7), (5, 8)])
    surgery = Surgery(g)
    surgery.merge(LeafEdge(2, 1), LeafEdge(5, 4))
    chain = leaf_coincide(g, LeafEdge(2, 1), LeafEdge(5, 4))
    m = chain.vertex_map
    for bad, other, msg in (
        (LeafEdge(2, 5), LeafEdge(5, 6), "vertex 3 is not a leaf"),
        (LeafEdge(5, 2), LeafEdge(2, 3), "vertex 1 is not a leaf"),
        (LeafEdge(2, 3), LeafEdge(5, 6), "supports 1,3 already adjacent; merge would double the edge"),
    ):
        with pytest.raises(ValueError) as batch:
            surgery.merge(bad, other)
        assert str(batch.value) == msg
        with pytest.raises(ValueError) as one:
            leaf_coincide(chain.graph, LeafEdge(m[bad.support], m[bad.leaf]), LeafEdge(m[other.support], m[other.leaf]))
        assert str(one.value) == msg
    assert surgery.finish()[:2] == chain


def _leafy_graph(rng):
    """A random connected graph with extra leaves hung on random vertices,
    sometimes beside a lone edge, whose ends are both leaves."""
    p = rng.randrange(2, 10)
    edges = random_connected_graph(rng, p, rng.randrange(0, 3)).edges()
    hair = rng.randrange(0, 8)
    edges += [(rng.randrange(1, p + 1), p + i) for i in range(1, hair + 1)]
    if rng.random() < 0.3:
        edges.append((p + hair + 1, p + hair + 2))
        hair += 2
    return Graph(p + hair, edges)


def test_batch_merges_equal_a_chain_of_public_merges():
    """Random accepted and rejected merges: the batch accepts exactly what
    the one-step chain accepts, with the same message otherwise; no
    survivor's degree changes; and the result is the chain's."""
    rng = random.Random(61)
    outcomes = {"merged": 0, "refused": 0, "unknown to the chain": 0}
    for _ in range(400):
        g = _leafy_graph(rng)
        surgery = Surgery(g)
        chain, m = g, {v: v for v in g.vertices()}  # starting id -> chain id, survivors only
        for _ in range(rng.randrange(1, 10)):
            back = {c: v for v, c in m.items()}
            les = leaf_edges(chain)
            r = rng.random()
            if r < 0.5 and len(les) >= 2:
                pair = [LeafEdge(back[s], back[x]) for s, x in rng.sample(les, 2)]
            elif r < 0.6 and surgery.joined:
                u, v = rng.choice(sorted(surgery.joined))  # an edge the batch made
                pair = rng.sample([LeafEdge(u, v), LeafEdge(v, u)], 2)
            elif r < 0.7 and surgery.gone:
                leaf = rng.choice(sorted(surgery.gone))
                (s,) = g.neighbors(leaf)  # the support it had
                pair = rng.sample([LeafEdge(s, leaf), LeafEdge(leaf, s)], 2)
                ids = tuple(v - sum(1 for x in surgery.gone if x < v) for v in pair[0])
                with pytest.raises(ValueError, match=re.escape("(%d,%d) is not an edge" % ids)):
                    surgery.merge(*pair)
                outcomes["unknown to the chain"] += 1
                continue
            else:
                pair = [LeafEdge(rng.randrange(0, g.p + 2), rng.randrange(0, g.p + 2)) for _ in range(2)]
            try:
                surgery.merge(*pair)
                got = None
            except ValueError as err:
                got = str(err)
            if not all(v in m for e in pair for v in e):
                assert got is not None  # a gone or unknown vertex is never part of an edge
                outcomes["unknown to the chain"] += 1
                continue
            try:
                res = leaf_coincide(chain, *(LeafEdge(m[s], m[x]) for s, x in pair))
                want = None
            except ValueError as err:
                want = str(err)
            assert got == want
            outcomes["merged" if want is None else "refused"] += 1
            if want is None:
                chain = res.graph
                m = {v: res.vertex_map[c] for v, c in m.items() if c in res.vertex_map}
        out, vertex_map, _ = surgery.finish()
        assert (out, vertex_map) == (chain, m)
        assert all(out.degree(vertex_map[v]) == g.degree(v) for v in vertex_map)
    assert min(outcomes.values()) > 200, outcomes
