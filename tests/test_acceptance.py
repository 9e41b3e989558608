"""End-to-end checks, one test per delivery gate.

Each test carries its full runtime budget in an assert so a slow run fails
loudly instead of silently blowing the gate.  Run with -v to get the one
pass/fail line per gate.
"""

import itertools
import random
import time

import pytest

from iceflower import (
    LeafEdge,
    TotalColoring,
    are_isomorphic,
    bfdt,
    build_haired_cycle,
    build_uniform_fdt_system,
    canonical_form,
    chi_fdt,
    close_to_hamiltonian,
    colored_leaf_coincide,
    colored_leaf_split,
    complete_bipartite_graph,
    connected_classes,
    cycle_graph,
    decompose_to_stars,
    degree_sequence,
    find_fdt_coloring,
    find_hamilton_cycle,
    find_proper_vertex_coloring,
    free_trees,
    is_delta_saturated,
    is_graphical,
    is_planar,
    is_proper_total,
    is_strongly_colored,
    is_tree,
    leaf_coincide,
    leaf_edges,
    leaf_split,
    make_star,
    realize_sequence,
    recompose,
    saturate,
    solve_dnsp,
    spanning_lattice_enumerate,
    string_from_topcode,
    topcode_from_graph,
)
from iceflower.families import kuratowski_planar
from iceflower.graph import Graph
from iceflower.system import ColoredIceFlowerSystem
from tests.conftest import (
    greedy_proper_total,
    random_connected_graph,
    random_distinct_label_tree,
)

# Fixed 60-character digit string used as the standing stress input for the
# number-string solver; the single letter o stands for the digit 0 and is
# resolved by the documented substitution flag before solving.
DIGIT_STRING_60 = "21262432252222746922221188132020151012172o201914162120182316"


def test_c01_balanced_bipartite_exact_values():
    """K_{1,1} needs exactly 3 colors, K_{2,2} exactly 6, K_{3,3} admits 9."""
    t0 = time.time()
    r11 = chi_fdt(complete_bipartite_graph(1, 1), 3)
    k22 = complete_bipartite_graph(2, 2)
    r22 = chi_fdt(k22, 6)
    witness9 = find_fdt_coloring(complete_bipartite_graph(3, 3), 9)
    elapsed = time.time() - t0
    assert elapsed < 600.0

    assert r11.m == 3 and r11.searched_up_to >= 2
    assert witness9 is not None
    assert is_proper_total(complete_bipartite_graph(3, 3), witness9)
    assert bfdt(complete_bipartite_graph(3, 3), witness9).bfdt == 0

    # the 2m-by-2m contract value: 3m colors with none to spare
    assert r22.coloring is not None and is_proper_total(k22, r22.coloring)
    assert bfdt(k22, r22.coloring).bfdt == 0
    assert r22.m == 6, (
        "a constant-difference proper total coloring of K_{2,2} exists on "
        "%d colors (vertices %r, edges %r), so the minimum is %d, not 6"
        % (r22.m, r22.coloring.vertex_colors, r22.coloring.edge_colors, r22.m)
    )


def test_c02_tree_palette_bound():
    """Every tree with p <= 8 has exact minimum palette <= 1 + 2*Delta."""
    t0 = time.time()
    checked = 0
    for p in range(2, 9):
        trees = free_trees(p)
        for t in trees:
            dmax = max(degree_sequence(t))
            r = chi_fdt(t, 1 + 2 * dmax)
            assert r.m is not None and r.m <= 1 + 2 * dmax, (p, t.edges())
            checked += 1
    assert checked == 1 + 1 + 2 + 3 + 6 + 11 + 23
    assert time.time() - t0 < 600.0


def test_tree_palette_within_two_of_delta_plus_one():
    """Every tree with 2 <= p <= 10 has Delta+1 <= chi_fdt <= Delta+3.

    A measured observation, not a claim of the paper: the per-p counts of
    trees at excess 0, 1 and 2 over Delta+1 are pinned below."""
    counts = {}
    for p in range(2, 11):
        excess = [0, 0, 0]
        for t in free_trees(p):
            dmax = max(degree_sequence(t))
            r = chi_fdt(t, dmax + 3)
            assert r.m is not None and r.m >= dmax + 1, (p, t.edges())
            excess[r.m - dmax - 1] += 1
        counts[p] = tuple(excess)
    assert counts == {
        2: (0, 1, 0), 3: (0, 1, 0), 4: (0, 1, 1), 5: (1, 1, 1), 6: (2, 2, 2),
        7: (4, 3, 4), 8: (7, 9, 7), 9: (15, 18, 14), 10: (34, 40, 32),
    }


def test_c03_bipartite_palette_bound():
    """Every connected bipartite graph with p <= 6: exact minimum <= 3*Delta."""
    t0 = time.time()
    checked = 0
    for p in range(2, 7):
        for g in connected_classes(p):
            if find_proper_vertex_coloring(g, 2) is None:
                continue
            dmax = max(degree_sequence(g))
            r = chi_fdt(g, 3 * dmax)
            assert r.m is not None and r.m <= 3 * dmax, (p, g.edges())
            checked += 1
    assert checked == 27
    assert time.time() - t0 < 600.0


def test_bipartite_palette_excess_over_delta_plus_one():
    """Every connected bipartite graph with 2 <= p <= 7 has
    Delta+1 <= chi_fdt <= 3*Delta, 71 classes in all.

    A measured observation, not a claim of the paper: the per-p counts of
    classes at excess 0, 1, 2 and 3 over Delta+1 are pinned below."""
    counts = {}
    for p in range(2, 8):
        excess = [0, 0, 0, 0]
        for g in connected_classes(p):
            if find_proper_vertex_coloring(g, 2) is None:
                continue
            dmax = max(degree_sequence(g))
            r = chi_fdt(g, 3 * dmax)
            assert r.m is not None and dmax + 1 <= r.m <= 3 * dmax, (p, g.edges())
            excess[r.m - dmax - 1] += 1
        counts[p] = tuple(excess)
    assert sum(map(sum, counts.values())) == 71
    assert counts == {
        2: (0, 1, 0, 0), 3: (0, 1, 0, 0), 4: (0, 1, 2, 0), 5: (1, 1, 3, 0),
        6: (2, 4, 9, 2), 7: (5, 15, 22, 2),
    }


def test_c04_spanning_enumeration_counts():
    """Labeled spanning trees of K_m number m^(m-2) for m = 2..7."""
    t0 = time.time()
    expected = {2: 1, 3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807}
    for m, count in expected.items():
        out = spanning_lattice_enumerate(m)
        assert len(out) == count, (m, len(out))
        assert len({tuple(g.edges()) for g, _ in out}) == count
    assert time.time() - t0 < 60.0


def test_c05_star_decomposition_round_trip(rng):
    """recompose(decompose(G)) is isomorphic to G; one star per internal vertex."""
    t0 = time.time()
    cases = 0
    for p in range(3, 8):
        for g in connected_classes(p):
            script = decompose_to_stars(g)
            internal = sum(1 for v in range(1, g.p + 1) if g.degree(v) > 1)
            assert sum(script.coefficients) == internal
            assert are_isomorphic(recompose(script), g)
            cases += 1
    assert cases == 2 + 6 + 21 + 112 + 853
    for _ in range(200):
        p = rng.randrange(3, 13)
        g = random_connected_graph(rng, p, rng.randrange(0, 2 * p))
        script = decompose_to_stars(g)
        internal = sum(1 for v in range(1, g.p + 1) if g.degree(v) > 1)
        assert sum(script.coefficients) == internal
        assert are_isomorphic(recompose(script), g)
    assert time.time() - t0 < 600.0


def test_c06_leaf_operation_inversion(rng):
    """Merging undoes cutting on 500 plain and 500 colored cases."""
    plain = 0
    while plain < 500:
        p = rng.randrange(3, 10)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        internal = [
            (u, v) for u, v in g.edges() if g.degree(u) > 1 and g.degree(v) > 1
        ]
        if not internal:
            continue
        u, v = internal[rng.randrange(len(internal))]
        res = leaf_split(g, u, v)
        merged = leaf_coincide(
            res.graph,
            LeafEdge(u, res.leaf_at_u),
            LeafEdge(v, res.leaf_at_v),
        )
        assert are_isomorphic(merged.graph, g)
        plain += 1

    colored = 0
    while colored < 500:
        p = rng.randrange(3, 9)
        g = random_connected_graph(rng, p, rng.randrange(0, p))
        internal = [
            (u, v) for u, v in g.edges() if g.degree(u) > 1 and g.degree(v) > 1
        ]
        if not internal:
            continue
        f = greedy_proper_total(g)
        u, v = internal[rng.randrange(len(internal))]
        res, fs = colored_leaf_split(g, f, u, v)
        assert is_proper_total(res.graph, fs)
        back, fb = colored_leaf_coincide(
            res.graph, fs, LeafEdge(u, res.leaf_at_u), LeafEdge(v, res.leaf_at_v)
        )
        assert is_proper_total(back.graph, fb)
        assert are_isomorphic(back.graph, g)
        colored += 1


def test_c07_graphical_sequence_oracle_agreement():
    """Counting criterion and constructive realization agree on every sequence."""
    t0 = time.time()
    agree = 0
    for n in range(1, 8):
        for seq in itertools.combinations_with_replacement(range(6, -1, -1), n):
            seq = tuple(sorted(seq, reverse=True))
            by_count = is_graphical(list(seq))
            realized = realize_sequence(list(seq))
            assert by_count == (realized is not None), seq
            if realized is not None:
                assert tuple(sorted(degree_sequence(realized), reverse=True)) == seq
            agree += 1
    assert agree > 3000
    assert time.time() - t0 < 60.0


def test_c08_hamiltonian_closure_characterization():
    """Chained-star closures generate exactly the hamiltonian graphs of each
    degree sequence (length 4-6, entries 2..5)."""
    t0 = time.time()
    checked = 0
    for n in (4, 5, 6):
        pool = connected_classes(n)
        seqs = {
            tuple(sorted(c, reverse=True))
            for c in itertools.combinations_with_replacement(
                range(2, min(5, n - 1) + 1), n
            )
            if sum(c) % 2 == 0 and is_graphical(sorted(c, reverse=True))
        }
        for seq in sorted(seqs):
            census = {
                canonical_form(g)
                for g in pool
                if tuple(sorted(degree_sequence(g), reverse=True)) == seq
                and find_hamilton_cycle(g) is not None
            }
            produced = set()
            for order in set(itertools.permutations(seq)):
                try:
                    hc = build_haired_cycle(list(order))
                    res = close_to_hamiltonian(hc)
                except ValueError:
                    continue
                assert not res.partial
                produced.update(canonical_form(g) for g in res.graphs)
            assert produced == census, seq
            checked += 1
    assert checked == 49  # graphical sequences, length 4-6, entries 2..5
    assert time.time() - t0 < 600.0


def test_c09_planarity_and_four_coloring(rng):
    """Planarity matches forbidden-subdivision search; planar members 4-color."""
    for p in range(1, 7):
        for g in connected_classes(p):
            assert is_planar(g) == kuratowski_planar(g), g.edges()
    assert not is_planar(Graph(5, list(itertools.combinations(range(1, 6), 2))))
    assert not is_planar(complete_bipartite_graph(3, 3))

    from iceflower import planar_lattice_member

    done = 0
    while done < 50:
        p = rng.randrange(4, 13)
        g = cycle_graph(p)
        chords = [
            (u, v)
            for u in range(1, p + 1)
            for v in range(u + 1, p + 1)
            if (u, v) not in set(g.edges())
        ]
        rng.shuffle(chords)
        for u, v in chords:
            cand = Graph(p, g.edges() + [(u, v)])
            if is_planar(cand):
                g = cand
        coloring = planar_lattice_member(g)
        assert coloring is not None
        assert all(
            coloring[u] != coloring[v] and 1 <= coloring[u] <= 4
            for u, v in g.edges()
        )
        done += 1


def test_c10_uniform_system_and_saturation():
    """Uniform star systems are proper with zero spread and strongly colored;
    two merged 2-stars reach the saturated 4-path."""
    t0 = time.time()
    for n in range(3, 9):
        s = build_uniform_fdt_system(n, 0)
        assert s.uniform and s.fdt_constant == 0
        for star, f in zip(s.stars, s.colorings):
            assert is_proper_total(star.graph, f)
            assert bfdt(star.graph, f).k == 0
        assert is_strongly_colored(s)

    s3 = build_uniform_fdt_system(3, 0)
    two = ColoredIceFlowerSystem(
        (s3.stars[0], s3.stars[1]), (s3.colorings[0], s3.colorings[1])
    )
    res = saturate(two, [1, 1])
    assert res.saturated
    assert is_delta_saturated(res.graph)
    assert are_isomorphic(res.graph, Graph(4, [(1, 2), (2, 3), (3, 4)]))
    assert is_proper_total(res.graph, res.coloring)
    assert time.time() - t0 < 60.0


def test_c11_matrix_string_round_trip(rng):
    """100 random colored trees survive encode -> digit string -> solve."""
    t0 = time.time()
    for _ in range(100):
        q = rng.randrange(1, 9)
        t, f = random_distinct_label_tree(rng, q)
        m = topcode_from_graph(t, f)
        d = string_from_topcode(m)
        sols = solve_dnsp(d, [q])
        keys = [(s.X, s.E, s.Y) for s, _, _ in sols]
        assert (m.X, m.E, m.Y) in keys, (d, q)
        g2 = sols[keys.index((m.X, m.E, m.Y))][1]
        assert are_isomorphic(g2, t)
    assert time.time() - t0 < 300.0


def test_c12_sixty_digit_string_deterministic_report():
    """The fixed 60-digit input yields a reproducible full solver report."""
    t0 = time.time()

    def report():
        digits = DIGIT_STRING_60.replace("o", "0")
        sols = solve_dnsp(digits, [12])
        for m, g, f in sols:
            assert string_from_topcode(m) == digits
            assert is_tree(g) and g.q == 12
        return [(m.X, m.E, m.Y) for m, _, _ in sols]

    first = report()
    second = report()
    assert first == second
    assert len(first) >= 1
    assert time.time() - t0 < 900.0
