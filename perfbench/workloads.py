"""The four benchmark workloads, as streams of items.

An item is one user question: a few calls into the public API of
``iceflower``, an independent check of what came back, the canonical text
of the answer (hashed into the workload digest) and the exact work counts
read from it.  Every library call an item makes goes through
``tracer.call`` so that a traced pass can put a span around it.

Inputs come from the benchmark's own seeded generators.  Items marked
``fixed`` do not depend on the seed; their digest is checked on every seed.
"""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

import networkx as nx

from iceflower import (
    are_isomorphic,
    bfdt,
    build_haired_cycle,
    build_uniform_fdt_system,
    canonical_form,
    chi_fdt,
    close_to_hamiltonian,
    connected_classes,
    decompose_to_stars,
    find_fdt_coloring,
    free_trees,
    is_graphical,
    is_proper_total,
    is_tree,
    path_graph,
    realize_topcode,
    recompose,
    saturate,
    solve_dnsp,
    string_from_topcode,
    topcode_from_graph,
)
from iceflower import cli, formats
from iceflower.coloring import ChiFdtResult, TotalColoring
from iceflower.graph import Graph

# The 60-digit stress string of acceptance gate c12; the letter o is the digit 0.
C12_DIGITS = "21262432252222746922221188132020151012172o201914162120182316".replace("o", "0")

# Trees and connected graphs on p unlabeled vertices (OEIS A000055, A001349).
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

SIZES = {
    "full": {
        "fixed_string": (C12_DIGITS, 12),
        "roundtrips": 1000,
        "roundtrip_q": (2, 3, 4, 5, 6),
        "tree_p": 8,
        "graph_p": 7,
        "classify": 600,
        "palette_graphs": 800,
        "paths": (250, 500, 1000),
        "copies": (2, 4, 8, 16),
        "cycle_lengths": (4, 5, 6),
        "cli_graphs": 250,
    },
    "tiny": {
        "fixed_string": (C12_DIGITS[:30], 7),
        "roundtrips": 16,
        "roundtrip_q": (2, 3, 4, 5),
        "tree_p": 5,
        "graph_p": 5,
        "classify": 10,
        "palette_graphs": 8,
        "paths": (25, 50, 100),
        "copies": (1, 2),
        "cycle_lengths": (4,),
        "cli_graphs": 5,
    },
}


class CheckFailed(Exception):
    """An output did not pass its independent check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Item:
    kind: str
    work: Callable  # work(tracer) -> output
    check: Callable  # check(output) -> None; raises CheckFailed
    canon: Callable  # canon(output) -> str, the answer as canonical text
    counts: Callable = lambda out: {}  # exact work counts read from the output
    fixed: bool = False
    output: object = None


# -- seeded input generators -----------------------------------------------


def random_connected_graph(rng: random.Random, p: int, extra: int) -> Graph:
    """A random recursive tree on p vertices plus `extra` distinct chords."""
    edges = {(rng.randrange(1, v), v) for v in range(2, p + 1)}
    extra = min(extra, p * (p - 1) // 2 - len(edges))
    while extra > 0:
        u, v = sorted(rng.sample(range(1, p + 1), 2))
        if (u, v) not in edges:
            edges.add((u, v))
            extra -= 1
    return Graph(p, sorted(edges))


def random_colored_tree(rng: random.Random, q: int):
    """A tree with q edges, distinct vertex labels <= 99 (mostly two-digit,
    up to two one-digit) and edge colors 1..99: the shape of gate c11."""
    t = random_connected_graph(rng, q + 1, 0)
    labels = rng.sample(range(10, 100), q + 1)
    for i in rng.sample(range(q + 1), min(2, q + 1)):
        small = rng.randrange(1, 10)
        if small not in labels:
            labels[i] = small
    vc = {v: labels[v - 1] for v in t.vertices()}
    ec = {e: rng.randrange(1, 100) for e in t.edges()}
    return t, TotalColoring(99, vc, ec)


def is_bipartite(g: Graph) -> bool:
    side: Dict[int, int] = {}
    for s in g.vertices():
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


# -- canonical text --------------------------------------------------------


def graph_text(g: Graph) -> str:
    return "%d:%s" % (g.p, g.edges())


def coloring_text(f: TotalColoring) -> str:
    return "%d;%s;%s" % (
        f.palette,
        sorted(f.vertex_colors.items()),
        sorted(f.edge_colors.items()),
    )


def solutions_text(sols) -> str:
    return "\n".join(
        "%s|%s|%s %s %s" % (m.X, m.E, m.Y, graph_text(g), coloring_text(f))
        for m, g, f in sols
    )


# -- shared item pieces ----------------------------------------------------


def chi(tracer, g: Graph, max_palette: int) -> ChiFdtResult:
    """chi_fdt, or, in a traced pass, the per-palette calls it makes.

    The split gives every palette that returns None a ``proof`` span and
    the palette with the witness a ``witness`` span.
    """
    if not tracer.traced:
        return tracer.call("coloring.chi_fdt", chi_fdt, g, max_palette)
    for m in range(g.max_degree() + 1, max_palette + 1):
        tc = tracer.call("coloring.find_fdt_coloring", find_fdt_coloring, g, m, tag="proof")
        if tc is not None:
            tracer.retag_last("witness")
            return ChiFdtResult(m, tc, m)
    return ChiFdtResult(None, None, max_palette)


def chi_item(g: Graph, max_palette: int, kind: str, fixed: bool) -> Item:
    def check(r: ChiFdtResult) -> None:
        require(r.m is not None, "no coloring within %d colors" % max_palette)
        require(g.max_degree() + 1 <= r.m <= max_palette, "palette %d out of range" % r.m)
        require(r.coloring.palette == r.m, "witness palette differs from m")
        require(is_proper_total(g, r.coloring), "witness is not a proper total coloring")
        require(bfdt(g, r.coloring).bfdt == 0, "witness weights are not constant")

    def palettes(r: ChiFdtResult) -> Dict[str, int]:
        top = r.m if r.m is not None else max_palette
        return {"coloring.palettes_tried": top - g.max_degree()}

    return Item(
        kind,
        lambda tr: chi(tr, g, max_palette),
        check,
        lambda r: "%s %s" % (r.m, coloring_text(r.coloring) if r.coloring else None),
        palettes,
        fixed,
    )


# -- dnsp ------------------------------------------------------------------


def dnsp_items(rng: random.Random, size: dict, workdir: str) -> Iterator[Item]:
    """The c12 solve, encode -> string -> solve round-trips with q cycling
    through the sizes of `roundtrip_q`, then a realize_topcode probe of
    every c12 solution."""
    digits, q_fixed = size["fixed_string"]

    def solution_checks(d: str, q: int, sols) -> None:
        for m, g, f in sols:
            require(string_from_topcode(m) == d, "solution does not spell the string")
            require(is_tree(g) and g.q == q, "solution graph is not a tree with q edges")

    def fixed_check(sols) -> None:
        require(len(sols) >= 1, "the fixed string has no solution")
        solution_checks(digits, q_fixed, sols)

    fixed = Item(
        "c12",
        lambda tr: tr.call("topcode.solve_dnsp", solve_dnsp, digits, [q_fixed], tag="c12"),
        fixed_check,
        solutions_text,
        lambda sols: {"topcode.solutions": len(sols), "topcode.solutions.c12": len(sols)},
        fixed=True,
    )
    yield fixed
    solutions = [] if isinstance(fixed.output, Exception) else fixed.output

    inputs = []
    for i in range(size["roundtrips"]):
        q = size["roundtrip_q"][i % len(size["roundtrip_q"])]
        t, f = random_colored_tree(rng, q)
        inputs.append((q, t, f))

    for q, t, f in inputs:
        def work(tr, q=q, t=t, f=f):
            m = tr.call("topcode.topcode_from_graph", topcode_from_graph, t, f)
            d = tr.call("topcode.string_from_topcode", string_from_topcode, m)
            return m, d, tr.call("topcode.solve_dnsp", solve_dnsp, d, [q], tag="small")

        def check(out, q=q, t=t) -> None:
            m, d, sols = out
            solution_checks(d, q, sols)
            keys = [(s.X, s.E, s.Y) for s, _, _ in sols]
            require((m.X, m.E, m.Y) in keys, "the encoded matrix is not among the solutions")
            g2 = sols[keys.index((m.X, m.E, m.Y))][1]
            require(are_isomorphic(g2, t), "the matching solution is not the encoded tree")

        yield Item(
            "roundtrip",
            work,
            check,
            lambda out: out[1] + "\n" + solutions_text(out[2]),
            lambda out: {"topcode.solutions": len(out[2])},
        )

    def probe(tr):
        return [tr.call("topcode.realize_topcode", realize_topcode, m) for m, _, _ in solutions]

    def probe_check(out) -> None:
        require(len(out) == len(solutions), "the probe skipped a solution")
        for (m, g, f), got in zip(solutions, out):
            require(got is not None, "realize_topcode rejected a solution matrix")
            require(got == (g, f), "realize_topcode disagrees with the solver")

    yield Item("probe", probe, probe_check, lambda out: "%d" % len(out), fixed=True)


# -- catalog ---------------------------------------------------------------


def catalog_items(rng: random.Random, size: dict, workdir: str) -> Iterator[Item]:
    """Catalog generation, chi_fdt over the catalogs (gates c02 and c03),
    then classification of randomly relabeled graphs by canonical_form."""
    trees: Dict[int, tuple] = {}
    graphs: Dict[int, tuple] = {}

    for p in range(1, size["tree_p"] + 1):
        def check(out, p=p) -> None:
            require(len(out) == TREE_COUNTS[p], "free_trees(%d) has %d trees" % (p, len(out)))
            require(all(g.p == p and is_tree(g) for g in out), "free_trees(%d) has a non-tree" % p)
            nxs = [to_nx(g) for g in out]
            for a, b in itertools.combinations(nxs, 2):
                require(not nx.is_isomorphic(a, b), "free_trees(%d) repeats a tree" % p)

        item = Item(
            "free_trees",
            lambda tr, p=p: tr.call("families.free_trees", free_trees, p, tag="p%d" % p),
            check,
            lambda out: "\n".join(graph_text(g) for g in out),
            lambda out: {"families.trees": len(out)},
            fixed=True,
        )
        yield item
        trees[p] = item.output

    for p in range(1, size["graph_p"] + 1):
        def check(out, p=p) -> None:
            require(len(out) == CONNECTED_COUNTS[p], "connected_classes(%d) has %d" % (p, len(out)))
            require(
                all(g.p == p and nx.is_connected(to_nx(g)) for g in out),
                "connected_classes(%d) has a disconnected graph" % p,
            )

        item = Item(
            "connected_classes",
            lambda tr, p=p: tr.call("families.connected_classes", connected_classes, p, tag="p%d" % p),
            check,
            lambda out: "\n".join(graph_text(g) for g in out),
            lambda out: {"families.graphs": len(out)},
            fixed=True,
        )
        yield item
        graphs[p] = item.output

    for p in range(2, size["tree_p"] + 1):
        if isinstance(trees[p], Exception):
            continue
        for t in trees[p]:
            yield chi_item(t, 1 + 2 * t.max_degree(), "chi_tree", fixed=True)

    for p in range(2, size["graph_p"] + 1):
        if isinstance(graphs[p], Exception):
            continue
        for g in graphs[p]:
            if is_bipartite(g):
                yield chi_item(g, 3 * g.max_degree(), "chi_bipartite", fixed=True)

    index = {
        (g.p, tuple(g.edges())): (p, i)
        for p, cls in graphs.items()
        if not isinstance(cls, Exception)
        for i, g in enumerate(cls)
    }
    catalog = sorted(index.values())
    for _ in range(size["classify"]):
        p, i = catalog[rng.randrange(len(catalog))]
        perm = list(range(1, p + 1))
        rng.shuffle(perm)
        h = graphs[p][i].relabel({v: perm[v - 1] for v in range(1, p + 1)})

        def check(key, want=(p, i)) -> None:
            require(index.get(key) == want, "relabeled graph classified as %r" % (index.get(key),))

        yield Item(
            "classify",
            lambda tr, h=h: tr.call("graph.canonical_form", canonical_form, h),
            check,
            lambda key: "%d %s" % (key[0], key[1]),
        )


# -- palette ---------------------------------------------------------------


def palette_items(rng: random.Random, size: dict, workdir: str) -> Iterator[Item]:
    """chi_fdt(g, 3*Delta + 2) on random connected graphs, p cycling 8..11,
    with p/2 to p chords on top of a random tree."""
    inputs = []
    for i in range(size["palette_graphs"]):
        p = 8 + i % 4
        inputs.append(random_connected_graph(rng, p, rng.randint(p // 2, p)))
    for g in inputs:
        yield chi_item(g, 3 * g.max_degree() + 2, "chi", fixed=False)


# -- surgery ---------------------------------------------------------------


def is_path(g: Graph) -> bool:
    degrees = Counter(g.degree(v) for v in g.vertices())
    return g.q == g.p - 1 and degrees[1] == 2 and degrees[2] == g.p - 2 and nx.is_connected(to_nx(g))


def has_hamilton_cycle(g: Graph) -> bool:
    rest = range(2, g.p + 1)
    return any(
        all(g.has_edge(a, b) for a, b in zip((1,) + order, order + (1,)))
        for order in itertools.permutations(rest)
    )


def surgery_items(rng: random.Random, size: dict, workdir: str) -> Iterator[Item]:
    """Star decomposition and recomposition of long paths, colored
    saturation of the uniform 6-star system, the haired-cycle closure sweep
    of gate c08, then decompose -> recompose round-trips through the CLI."""
    for n in size["paths"]:
        g = path_graph(n)

        def work(tr, g=g, n=n):
            script = tr.call("lattice.decompose_to_stars", decompose_to_stars, g, tag="n%d" % n)
            return script, tr.call("lattice.recompose", recompose, script, tag="n%d" % n)

        def check(out, n=n) -> None:
            script, h = out
            require(sum(script.coefficients) == n - 2, "one star per internal vertex")
            require(h.p == n and is_path(h), "recomposed graph is not the path")

        yield Item(
            "path",
            work,
            check,
            lambda out: formats.write_script(out[0]) + graph_text(out[1]),
            lambda out: {"lattice.recompose.merges": len(out[0].steps)},
            fixed=True,
        )

    system = build_uniform_fdt_system(6, 0)
    for c in size["copies"]:
        copies = [c] * system.n
        q_before = sum(c * s.m for s in system.stars)

        def check(res) -> None:
            require(is_proper_total(res.graph, res.coloring), "saturation result is not properly colored")

        yield Item(
            "saturate",
            lambda tr, copies=copies, c=c: tr.call("system.saturate", saturate, system, copies, tag="c%d" % c),
            check,
            lambda res: "%s %s %s" % (res.saturated, graph_text(res.graph), coloring_text(res.coloring)),
            lambda res, q_before=q_before: {"system.saturate.merges": q_before - res.graph.q},
            fixed=True,
        )

    for n in size["cycle_lengths"]:
        seqs = sorted(
            {
                tuple(sorted(c, reverse=True))
                for c in itertools.combinations_with_replacement(range(2, min(5, n - 1) + 1), n)
                if sum(c) % 2 == 0 and is_graphical(sorted(c, reverse=True))
            }
        )
        for seq in seqs:
            orders = sorted(set(itertools.permutations(seq)))

            def work(tr, orders=orders):
                out = []
                for order in orders:
                    hc = tr.call("lattice.build_haired_cycle", build_haired_cycle, list(order))
                    try:
                        res = tr.call("lattice.close_to_hamiltonian", close_to_hamiltonian, hc)
                    except ValueError:
                        out.append((order, None))  # a proven "no closure"
                        continue
                    keys = [tr.call("graph.canonical_form", canonical_form, g) for g in res.graphs]
                    out.append((order, keys))
                return out

            def check(out, seq=seq) -> None:
                for order, keys in out:
                    if keys is None:
                        continue
                    for p, edges in keys:
                        g = Graph(p, edges)
                        require(
                            sorted((g.degree(v) for v in g.vertices()), reverse=True) == list(seq),
                            "closure has the wrong degree sequence",
                        )
                        require(has_hamilton_cycle(g), "closure is not hamiltonian")

            yield Item(
                "closure",
                work,
                check,
                lambda out: "\n".join("%s %s" % (order, keys) for order, keys in out),
                lambda out: {"lattice.closures": sum(len(k) for _, k in out if k is not None)},
                fixed=True,
            )

    inputs = []
    for _ in range(size["cli_graphs"]):
        p = rng.randint(20, 80)
        inputs.append(random_connected_graph(rng, p, rng.randint(0, p // 2)))
    graph_path = os.path.join(workdir, "graph.txt")
    script_path = os.path.join(workdir, "script.txt")

    for g in inputs:
        def work(tr, g=g):
            with open(graph_path, "w") as fh:
                fh.write(tr.call("formats.write_graph", formats.write_graph, g))
            dec = tr.call("cli.run", cli.run, ["decompose", graph_path], tag="decompose")
            with open(script_path, "w") as fh:
                fh.write(dec.payload)
            rec = tr.call("cli.run", cli.run, ["recompose", script_path], tag="recompose")
            return dec, rec, tr.call("formats.read_graph", formats.read_graph, rec.payload)

        def check(out, g=g) -> None:
            dec, rec, h = out
            require(dec.exit_code == 0 and rec.exit_code == 0, "CLI exit codes %d, %d" % (dec.exit_code, rec.exit_code))
            internal = sum(1 for v in g.vertices() if g.degree(v) > 1)
            require(sum(formats.read_script(dec.payload).coefficients) == internal, "one star per internal vertex")
            require(nx.is_isomorphic(to_nx(g), to_nx(h)), "recomposed graph is not the input")

        yield Item("cli", work, check, lambda out: out[0].payload + out[1].payload)


ITEMS = {
    "dnsp": dnsp_items,
    "catalog": catalog_items,
    "palette": palette_items,
    "surgery": surgery_items,
}


def corrupt(item: Item) -> bool:
    """Drop the encoded tree's solution from a dnsp round-trip, for the
    benchmark's self-test.  Returns True once an output was damaged."""
    if item.kind != "roundtrip" or isinstance(item.output, Exception):
        return False
    m, d, sols = item.output
    item.output = (m, d, [s for s in sols if (s[0].X, s[0].E, s[0].Y) != (m.X, m.E, m.Y)])
    return True


# -- per-layer metrics from spans ------------------------------------------

LAYER_MODULES = ("graph", "families", "coloring", "system", "lattice", "topcode", "formats", "cli")


def layer_metrics(totals: Dict[str, Dict[str, float]], counts: Dict[str, int], size: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    `totals` maps a span name, or ``name#tag``, to its call count and
    total and self seconds; `counts` holds the exact work counts read
    from the outputs.  The two ratios compare the largest path, and the
    most copies, with the next size down.
    """

    def s(key: str, field: str = "s") -> float:
        return totals.get(key, {}).get(field, 0.0)

    def ratio(name: str, tags: List[str]) -> float:
        if len(tags) < 2 or not s(name + "#" + tags[-2]):
            return 0.0
        return s(name + "#" + tags[-1]) / s(name + "#" + tags[-2])

    merges = counts.get("lattice.recompose.merges", 0)
    m = {
        "topcode.solve_dnsp.c12_s": s("topcode.solve_dnsp#c12"),
        "topcode.solve_dnsp.small_s": s("topcode.solve_dnsp#small"),
        "topcode.encode_s": s("topcode.topcode_from_graph") + s("topcode.string_from_topcode"),
        "topcode.realize_topcode.s": s("topcode.realize_topcode"),
        "topcode.solutions": counts.get("topcode.solutions", 0),
        "families.free_trees.s": s("families.free_trees"),
        "families.connected_classes.s": s("families.connected_classes"),
        "families.trees": counts.get("families.trees", 0),
        "families.graphs": counts.get("families.graphs", 0),
        "graph.canonical_form.s": s("graph.canonical_form"),
        "graph.canonical_form.calls": int(s("graph.canonical_form", "calls")),
        "coloring.proof_s": s("coloring.find_fdt_coloring#proof"),
        "coloring.witness_s": s("coloring.find_fdt_coloring#witness"),
        "coloring.palettes_tried": counts.get("coloring.palettes_tried", 0),
        "lattice.recompose.s": s("lattice.recompose"),
        "lattice.recompose.merges": merges,
        "lattice.recompose.us_per_merge": s("lattice.recompose") / merges * 1e6 if merges else 0.0,
        "lattice.recompose.n1000_over_n500": ratio("lattice.recompose", ["n%d" % n for n in size["paths"]]),
        "lattice.decompose_to_stars.s": s("lattice.decompose_to_stars"),
        "system.saturate.s": s("system.saturate"),
        "system.saturate.merges": counts.get("system.saturate.merges", 0),
        "system.saturate.c16_over_c8": ratio("system.saturate", ["c%d" % c for c in size["copies"]]),
        "lattice.close_to_hamiltonian.s": s("lattice.close_to_hamiltonian"),
        "lattice.closures": counts.get("lattice.closures", 0),
        "cli.run.s": s("cli.run"),
        "formats.s": sum((v["s"] for k, v in totals.items() if k.startswith("formats.") and "#" not in k), 0.0),
    }
    for mod in LAYER_MODULES:
        m["layer.%s.self_s" % mod] = sum(
            (v["self_s"] for k, v in totals.items() if k.startswith(mod + ".") and "#" not in k), 0.0
        )
    m["layer.bench.self_s"] = s("item", "self_s")
    return m
