import random

import pytest

from iceflower.graph import Graph, are_isomorphic, degree_sequence, is_delta_saturated
from iceflower.families import path_graph, star_graph
from iceflower.coloring import TotalColoring, bfdt, is_proper_total
from iceflower.leafops import (
    LeafEdge,
    Surgery,
    colored_compatible,
    colored_leaf_coincide,
    disjoint_union,
    leaf_edges,
)
from iceflower.system import (
    ColoredIceFlowerSystem,
    IceFlowerSystem,
    Star,
    build_uniform_fdt_system,
    is_strongly_colored,
    make_star,
    saturate,
    star_coincide,
)
from iceflower.formats import write_system


def test_star_layout():
    s = make_star(3)
    assert s.center == 1 and list(s.leaves) == [2, 3, 4]
    assert are_isomorphic(s.graph, star_graph(3))
    with pytest.raises(ValueError):
        make_star(1)
    for m in (1, 0, -1):
        with pytest.raises(ValueError) as exc:
            Star(m)
        assert str(exc.value) == "stars in a system need m >= 2, got %d" % m


def test_star_coincide_shape():
    g = star_coincide(make_star(2), make_star(2))
    assert are_isomorphic(g, path_graph(4))
    g = star_coincide(make_star(3), make_star(3))
    assert degree_sequence(g) == (3, 3, 1, 1, 1, 1)


def test_system_validation():
    with pytest.raises(ValueError):
        IceFlowerSystem([])
    s = IceFlowerSystem([make_star(2), make_star(3)])
    assert s.n == 2 and s.sizes() == (2, 3)


def test_colored_system_rejects_improper_star():
    star = make_star(2)
    bad = TotalColoring(5, {1: 1, 2: 1, 3: 3}, {(1, 2): 4, (1, 3): 5})
    with pytest.raises(ValueError):
        ColoredIceFlowerSystem([star], [bad])


def test_colored_system_checks_declared_constant():
    star = make_star(2)
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 3, (1, 3): 4})
    # weights |1+2-3| = 0 and |1+3-4| = 0
    s = ColoredIceFlowerSystem([star], [f], fdt_constant=0)
    assert s.fdt_constant == 0
    with pytest.raises(ValueError):
        ColoredIceFlowerSystem([star], [f], fdt_constant=2)


def test_colored_system_is_a_system():
    f2 = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 3, (1, 3): 4})
    f3 = TotalColoring(7, {1: 1, 2: 2, 3: 3, 4: 4}, {(1, 2): 5, (1, 3): 6, (1, 4): 7})
    s = ColoredIceFlowerSystem([make_star(2), make_star(3)], [f2, f3])
    assert isinstance(s, IceFlowerSystem)
    assert s.n == 2 and s.sizes() == (2, 3) and not s.uniform
    assert s.backbone() == IceFlowerSystem([make_star(2), make_star(3)])
    same = ColoredIceFlowerSystem([make_star(2), make_star(2)], [f2, f2])
    assert same.n == 2 and same.sizes() == (2, 2) and same.uniform
    with pytest.raises(ValueError):
        ColoredIceFlowerSystem([], [])
    with pytest.raises(ValueError):
        ColoredIceFlowerSystem([make_star(2)], [f2, f2])


def test_uniform_construction_shape():
    for n in range(3, 9):
        s = build_uniform_fdt_system(n, 0)
        assert s.n == n and s.uniform
        assert s.sizes() == tuple([n - 1] * n)
        assert s.fdt_constant == 0
        for star, f in zip(s.stars, s.colorings):
            assert is_proper_total(star.graph, f)
            rep = bfdt(star.graph, f)
            assert rep.bfdt == 0 and rep.k == 0
            assert f.palette == 2 * n - 1


def test_uniform_construction_center_colors_are_distinct():
    s = build_uniform_fdt_system(5, 0)
    centers = [f.vertex(1) for f in s.colorings]
    assert centers == [1, 2, 3, 4, 5]
    # star j's leaf colors are [1,n] minus j
    for j, f in enumerate(s.colorings, start=1):
        leaf_colors = sorted(f.vertex(l) for l in s.stars[j - 1].leaves)
        assert leaf_colors == [c for c in range(1, 6) if c != j]


def test_uniform_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_uniform_fdt_system(2, 0)
    for n in range(3, 12):
        with pytest.raises(ValueError, match="k >= 0 required, got k = -1"):
            build_uniform_fdt_system(n, -1)


def test_uniform_construction_at_every_constant():
    for n in range(3, 13):
        for k in range(1, 3 * n):
            s = build_uniform_fdt_system(n, k)
            assert s.fdt_constant == k and s.sizes() == tuple([n - 1] * n)
            assert all(f.palette == 2 * n - 1 + k for f in s.colorings)
            assert is_strongly_colored(s)
    for n, k in ((3, 1), (3, 5), (4, 2), (5, 7)):
        assert _strongly_colored_by_trial_merges(build_uniform_fdt_system(n, k))


def _shifted_uniform_system(n, k):
    """The construction with edge colors j + l - k over the palette
    2n - 1 - k, raising where a color falls below 1 or meets an endpoint."""
    if n < 3 or k < 0 or 2 * n - 1 - k < n:
        raise ValueError("no palette")
    stars, colorings = [], []
    for j in range(1, n + 1):
        vc, ec = {1: j}, {}
        for idx, l in enumerate(l for l in range(1, n + 1) if l != j):
            c = j + l - k
            if c < 1 or c in (j, l):
                raise ValueError("bad edge color")
            vc[2 + idx] = l
            ec[(1, 2 + idx)] = c
        stars.append(make_star(n - 1))
        colorings.append(TotalColoring(2 * n - 1 - k, vc, ec))
    return ColoredIceFlowerSystem(stars, colorings, fdt_constant=k)


def test_uniform_construction_is_the_shifted_one_at_its_only_constant():
    for n in range(3, 13):
        assert write_system(build_uniform_fdt_system(n, 0)) == write_system(_shifted_uniform_system(n, 0))
        for k in range(1, 2 * n + 1):
            with pytest.raises(ValueError):
                _shifted_uniform_system(n, k)


def test_strongly_colored():
    for n in (3, 4, 5, 6):
        assert is_strongly_colored(build_uniform_fdt_system(n, 0))


def test_not_strongly_colored_when_colors_cannot_cross():
    # two identical colored stars: leaf colors never match the twin's
    # center color, so no pair of leaf-edges is compatible
    star = make_star(2)
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (1, 3): 5})
    s = ColoredIceFlowerSystem([star, star], [f, f])
    assert not is_strongly_colored(s)


def _strongly_colored_by_trial_merges(s):
    """Reference: lay out each pair of stars side by side and try every
    pair of their leaf-edges through colored_leaf_coincide."""

    def merges(g, theta, e1, e2):
        if not colored_compatible(g, theta, e1, e2):
            return False
        try:
            colored_leaf_coincide(g, theta, e1, e2)
        except ValueError:
            return False
        return True

    for i in range(s.n):
        for j in range(i + 1, s.n):
            (si, fi), (sj, fj) = (s.stars[i], s.colorings[i]), (s.stars[j], s.colorings[j])
            g, shift = disjoint_union(si.graph, sj.graph)
            vc = dict(fi.vertex_colors)
            vc.update({v + shift: c for v, c in fj.vertex_colors.items()})
            ec = dict(fi.edge_colors)
            ec.update({(a + shift, b + shift): c for (a, b), c in fj.edge_colors.items()})
            theta = TotalColoring(max(fi.palette, fj.palette), vc, ec)
            if not any(
                merges(g, theta, LeafEdge(1, a), LeafEdge(1 + shift, b + shift))
                for a in si.leaves
                for b in sj.leaves
            ):
                return False
    return True


def _random_colored_star(rng, m):
    """K_{1,m} under a random proper total coloring over a tight palette."""
    palette = m + 1
    center = rng.randrange(1, palette + 1)
    edge_colors = rng.sample([c for c in range(1, palette + 1) if c != center], m)
    vc, ec = {1: center}, {}
    for leaf, c in zip(make_star(m).leaves, edge_colors):
        vc[leaf] = rng.choice([x for x in range(1, palette + 1) if x not in (center, c)])
        ec[(1, leaf)] = c
    return TotalColoring(palette, vc, ec)


def _random_colored_system(rng):
    sizes = [rng.randrange(2, 5) for _ in range(rng.choice((2, 2, 3)))]
    return ColoredIceFlowerSystem(
        [make_star(m) for m in sizes], [_random_colored_star(rng, m) for m in sizes]
    )


def test_strongly_colored_matches_trial_merges_on_random_systems():
    rng = random.Random(59)
    answers = []
    for _ in range(400):
        s = _random_colored_system(rng)
        answers.append(is_strongly_colored(s))
        assert answers[-1] == _strongly_colored_by_trial_merges(s)
    assert answers.count(True) >= 40 and answers.count(False) >= 40


def test_saturate_two_paths_gives_p4():
    s = build_uniform_fdt_system(3, 0)
    res = saturate(s, [1, 1, 0])
    assert are_isomorphic(res.graph, path_graph(4))
    assert is_proper_total(res.graph, res.coloring)
    assert bfdt(res.graph, res.coloring).bfdt == 0
    assert res.saturated
    assert is_delta_saturated(res.graph)


def test_saturate_full_rounds_keep_invariants():
    s = build_uniform_fdt_system(4, 0)
    res = saturate(s, [1, 1, 1, 1])
    assert is_proper_total(res.graph, res.coloring)
    assert bfdt(res.graph, res.coloring).bfdt == 0
    assert res.saturated == is_delta_saturated(res.graph)


def test_saturate_rejects_empty_copies():
    s = build_uniform_fdt_system(3, 0)
    with pytest.raises(ValueError):
        saturate(s, [0, 0, 0])
    with pytest.raises(ValueError):
        saturate(s, [1, 1])  # wrong length


def _rescan_saturate(s, copies):
    """Reference saturation: after every merge, renumber through the public
    colored_leaf_coincide and rescan the leaf-edges from the first pair."""
    palette = max(f.palette for f in s.colorings)
    edges, vc, ec, origin = [], {}, {}, {}
    offset = instance = 0
    for j, count in enumerate(copies):
        for _ in range(count):
            instance += 1
            star, f = s.stars[j], s.colorings[j]
            for u, v in star.graph.edges():
                edges.append((u + offset, v + offset))
                ec[(u + offset, v + offset)] = f.edge(u, v)
            for v in star.graph.vertices():
                vc[v + offset] = f.vertex(v)
                origin[v + offset] = instance
            offset += star.graph.p
    g, theta = Graph(offset, edges), TotalColoring(palette, vc, ec)
    while True:
        les = sorted(
            leaf_edges(g),
            key=lambda e: (origin[e.leaf], theta.vertex(e.leaf), e.support, e.leaf),
        )
        for ai in range(len(les)):
            for e2 in les[ai + 1 :]:
                if not colored_compatible(g, theta, les[ai], e2):
                    continue
                try:
                    res, theta = colored_leaf_coincide(g, theta, les[ai], e2)
                except ValueError:
                    continue
                g = res.graph
                origin = {res.vertex_map[v]: o for v, o in origin.items() if v in res.vertex_map}
                break
            else:
                continue
            break
        else:
            return g, theta, is_delta_saturated(g)


def test_saturate_matches_rescan_on_random_subsystems():
    rng = random.Random(53)
    cases = []
    while len(cases) < 120:
        n, k = rng.randrange(3, 7), rng.randrange(0, 3)
        full = build_uniform_fdt_system(n, k)
        picked = rng.sample(range(n), rng.randrange(1, n + 1))
        colorings = []
        for j in picked:  # shuffle the leaves so leaf ids and colors disagree in order
            leaves = list(full.stars[j].leaves)
            shuffled = rng.sample(leaves, len(leaves))
            colorings.append(full.colorings[j].relabel({1: 1, **dict(zip(leaves, shuffled))}))
        sub = ColoredIceFlowerSystem(
            [full.stars[j] for j in picked], colorings, fdt_constant=k
        )
        copies = [rng.randrange(0, 4) for _ in picked]
        if sum(copies) > 0:
            cases.append((sub, copies))
    for _ in range(150):  # mixed star sizes under random proper colorings
        s = _random_colored_system(rng)
        copies = [rng.randrange(0, 4) for _ in range(s.n)]
        if sum(copies) == 0:
            copies[0] = 1
        cases.append((s, copies))
    flags = []
    for s, copies in cases:
        res = saturate(s, copies)
        assert (res.graph, res.coloring, res.saturated) == _rescan_saturate(s, copies)
        used = {star.m for star, c in zip(s.stars, copies) if c > 0}
        assert res.saturated == (len(used) == 1)
        flags.append(res.saturated)
    assert flags.count(True) >= 50 and flags.count(False) >= 50


def test_saturate_tries_only_color_partners(monkeypatch):
    calls = []
    merge = Surgery.merge

    def counted(self, e1, e2):
        calls.append((e1, e2))
        return merge(self, e1, e2)

    monkeypatch.setattr(Surgery, "merge", counted)
    res = saturate(build_uniform_fdt_system(3, 0), [50, 0, 0])
    assert calls == [] and res.graph.q == 100 and res.saturated
    for c in (2, 16):
        calls.clear()
        res = saturate(build_uniform_fdt_system(6, 0), [c] * 6)
        merges = 6 * c * 5 - res.graph.q
        assert merges > 0 and len(calls) == merges
