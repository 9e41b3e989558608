import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from iceflower.graph import Graph
from iceflower.families import complete_graph, path_graph
from iceflower.coloring import TotalColoring, is_proper_total
from iceflower.lattice import CoincideScript, decompose_to_stars
from iceflower.system import ColoredIceFlowerSystem, build_uniform_fdt_system, make_star
from iceflower.topcode import TopcodeMatrix
from iceflower.formats import (
    FormatError,
    export_dot,
    read_any_graph,
    read_colored,
    read_graph,
    read_number_string,
    read_script,
    read_system,
    read_topcode,
    sniff,
    write_colored,
    write_graph,
    write_script,
    write_system,
    write_topcode,
)


def test_graph_round_trip():
    g = complete_graph(4)
    doc = write_graph(g)
    g2 = read_graph(doc)
    assert g2.p == g.p and g2.edges() == g.edges()
    assert read_graph(write_graph(Graph(3, []))).q == 0


def test_graph_errors():
    with pytest.raises(FormatError):
        read_graph("")
    with pytest.raises(FormatError):
        read_graph("3")
    with pytest.raises(FormatError):
        read_graph("3 2\n1 2\n")  # promised two edges, gave one
    with pytest.raises(FormatError):
        read_graph("3 1\n1 2\n2 3\n")  # promised one, gave two
    with pytest.raises(FormatError):
        read_graph("3 1\n1 4\n")  # endpoint out of range
    with pytest.raises(FormatError):
        read_graph("x y\n")


def test_colored_round_trip():
    g = path_graph(3)
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})
    doc = write_colored(g, f)
    g2, f2 = read_colored(doc)
    assert g2.edges() == g.edges()
    assert f2.palette == 5
    assert f2.vertex_colors == f.vertex_colors
    assert f2.edge_colors == f.edge_colors
    assert is_proper_total(g2, f2)


def test_colored_errors():
    with pytest.raises(FormatError):
        read_colored("3 2\n1 2 3\n")  # missing palette in header
    with pytest.raises(FormatError):
        read_colored("3 2 5\n1 2\n1 2 4\n2 3 5\n")  # short color row
    with pytest.raises(FormatError):
        read_colored("3 2 5\n1 2 3\n1 2 4\n")  # missing an edge line
    with pytest.raises(FormatError):
        read_colored("3 2 5\n1 2 3\n1 2 4\n2 4 5\n")  # edge endpoint range


def test_system_round_trip():
    s = build_uniform_fdt_system(4, 0)
    doc = write_system(s)
    s2 = read_system(doc)
    assert s2.n == s.n
    assert s2.fdt_constant == 0
    assert [st.m for st in s2.stars] == [st.m for st in s.stars]
    assert s2.colorings == s.colorings


def test_system_header_dash_means_unchecked_constant():
    s = build_uniform_fdt_system(3, 0)
    doc = write_system(s)
    head, rest = doc.split("\n", 1)
    doc = "system 3 1 -\n" + rest
    s2 = read_system(doc)
    assert s2.fdt_constant is None


def test_system_header_uniform_flag_must_match_the_stars():
    doc = write_system(build_uniform_fdt_system(3, 0))
    rest = doc.split("\n", 1)[1]
    assert read_system("system 3 1 0\n" + rest).uniform
    for flag in ("banana", "7", "0", "-1", "01"):
        with pytest.raises(FormatError, match="system header: "):
            read_system("system 3 %s 0\n" % flag + rest)
    mixed = ColoredIceFlowerSystem(
        [make_star(2), make_star(3)],
        [TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (1, 3): 5}),
         TotalColoring(5, {1: 1, 2: 2, 3: 3, 4: 4}, {(1, 2): 5, (1, 3): 4, (1, 4): 3})],
    )
    mixed_doc = write_system(mixed)
    assert mixed_doc.startswith("system 2 0 -\n")
    assert read_system(mixed_doc).colorings == mixed.colorings
    with pytest.raises(FormatError, match="system header: "):
        read_system(mixed_doc.replace("system 2 0", "system 2 1", 1))


def test_system_errors():
    s = build_uniform_fdt_system(3, 0)
    doc = write_system(s)
    with pytest.raises(FormatError):
        read_system(doc.replace("system", "sistem", 1))
    with pytest.raises(FormatError):
        read_system("system 1 uniform 0\n")
    lines = doc.strip().splitlines()
    with pytest.raises(FormatError):
        read_system("\n".join(lines[:-1]) + "\n")  # truncated final star


def test_script_round_trip():
    g = complete_graph(3)
    script = decompose_to_stars(g)
    doc = write_script(script)
    s2 = read_script(doc)
    assert s2.coefficients == script.coefficients
    assert s2.steps == script.steps
    assert [st.m for st in s2.base.stars] == [st.m for st in script.base.stars]


def test_script_errors():
    g = complete_graph(3)
    doc = write_script(decompose_to_stars(g))
    with pytest.raises(FormatError):
        read_script(doc.replace("base", "node", 1))
    with pytest.raises(FormatError):
        read_script(doc.rsplit("\n", 2)[0] + "\n")  # drop a promised step


def test_topcode_round_trip():
    m = TopcodeMatrix((1, 2), (3, 5), (2, 4))
    doc = write_topcode(m)
    m2 = read_topcode(doc)
    assert (m2.X, m2.E, m2.Y) == (m.X, m.E, m.Y)


def test_topcode_errors():
    m = TopcodeMatrix((1,), (3,), (2,))
    doc = write_topcode(m)
    with pytest.raises(FormatError):
        read_topcode(doc.replace("row-major", "column-major"))
    with pytest.raises(FormatError):
        read_topcode("topcode 2 row-major/1-2digit\n1,2\n3\n2,4\n")


def test_number_string_reading():
    assert read_number_string("132") == "132"
    assert read_number_string(" 13 2\n") == "132"
    assert read_number_string("13o2", substitute_o=True) == "1302"
    assert read_number_string("13O2", substitute_o=True) == "1302"
    with pytest.raises(FormatError) as info:
        read_number_string("13o2")
    assert "flag" in str(info.value)
    with pytest.raises(FormatError):
        read_number_string("13x2", substitute_o=True)
    for other_digits in ("\u0661\u0663\u0662", "1\u00b22"):  # Arabic-Indic 132, superscript 2
        with pytest.raises(FormatError):
            read_number_string(other_digits)


def test_sniff_and_read_any():
    g = complete_graph(4)
    assert sniff(write_graph(g)) == "graph"
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})
    assert sniff(write_colored(path_graph(3), f)) == "colored"
    assert sniff(write_system(build_uniform_fdt_system(3, 0))) == "system"
    assert sniff(write_script(decompose_to_stars(g))) == "script"
    assert sniff(write_topcode(TopcodeMatrix((1,), (3,), (2,)))) == "topcode"
    with pytest.raises(FormatError):
        sniff("")

    got = read_any_graph(write_graph(g))
    assert got[0].edges() == g.edges() and got[1] is None
    got2 = read_any_graph(write_colored(path_graph(3), f))
    assert got2[1] is not None and got2[1].palette == 5


_WRITTEN = {  # kind -> (its reader, one writer's output)
    "graph": (read_graph, write_graph(path_graph(3))),
    "colored": (
        read_colored,
        write_colored(path_graph(3), TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})),
    ),
    "system": (read_system, write_system(build_uniform_fdt_system(3, 0))),
    "script": (read_script, write_script(decompose_to_stars(complete_graph(3)))),
    "topcode": (read_topcode, write_topcode(TopcodeMatrix((1, 2), (3, 5), (2, 4)))),
}
_BAD_INTEGERS = ("+3", "1_0", "007", "-0", "\u0663", "\uff14")  # the last two: Arabic-Indic 3, fullwidth 4
_BAD_KEYWORDS = {"systemX": "system", "baseball": "base", "stepsX": "steps", "topcodes": "topcode"}


def _mutants(token):
    """(kind, text, line index) for each written document with `token` in
    place of one of its integer fields, or of the keyword it spoils."""
    for kind, (_, doc) in _WRITTEN.items():
        lines = doc.splitlines()
        for i, ln in enumerate(lines):
            sep = "," if "," in ln else " "
            fields = ln.split(sep)
            for j, f in enumerate(fields):
                if f == _BAD_KEYWORDS.get(token) or (token in _BAD_INTEGERS and re.fullmatch(r"-?[0-9]+", f)):
                    line = sep.join(fields[:j] + [token] + fields[j + 1 :])
                    yield kind, "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n", i


def _sniffed(text):
    try:
        return sniff(text)
    except FormatError:
        return None


@pytest.mark.parametrize("token", _BAD_INTEGERS + tuple(_BAD_KEYWORDS))
def test_readers_and_sniff_reject_tokens_no_writer_emits(token):
    mutants = list(_mutants(token))
    assert mutants
    for kind, text, i in mutants:
        with pytest.raises(FormatError, match="non-integer field" if token in _BAD_INTEGERS else "missing"):
            _WRITTEN[kind][0](text)
        if i == 0:
            with pytest.raises(FormatError):
                sniff(text)


def test_sniff_names_a_kind_exactly_when_its_reader_takes_the_header():
    for kind, (reader, doc) in _WRITTEN.items():
        head, rest = doc.split("\n", 1)
        texts = [doc, head + " 1\n" + rest, head.rsplit(" ", 1)[0] + "\n" + rest]
        for token in _BAD_INTEGERS + tuple(_BAD_KEYWORDS):
            texts.extend(text for k, text, i in _mutants(token) if k == kind and i == 0)
        for text in texts:
            try:
                reader(text)
                accepted = True
            except FormatError:
                accepted = False
            assert (_sniffed(text) == kind) == accepted, text


def test_export_dot():
    g = path_graph(3)
    dot = export_dot(g)
    assert dot.startswith("graph")
    assert "v1 -- v2" in dot and "v2 -- v3" in dot
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})
    dotc = export_dot(g, f)
    assert 'label="1"' in dotc and 'label="4"' in dotc


@st.composite
def _graphs(draw, connected=False):
    """Random simple graphs on 1..10 vertices; connected ones grow a random
    spanning tree first, then add chords."""
    p = draw(st.integers(3 if connected else 1, 10))
    edges = set()
    if connected:
        edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, p + 1)}
    pairs = list(combinations(range(1, p + 1), 2))
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return Graph(p, sorted(edges))


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_graph_document_round_trip_on_random_graphs(g):
    assert read_graph(write_graph(g)) == g


@settings(max_examples=100, deadline=None)
@given(_graphs(connected=True))
def test_script_document_round_trip_on_star_decompositions(g):
    sc = decompose_to_stars(g)
    assert read_script(write_script(sc)) == sc


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_graph, "3 2\n1\n2\n", "edge: expected 2 fields, got '1'"),
        (read_graph, "3 2\n1 2\n2\n3\n", "graph: expected 2 edge lines, got 3"),
        (read_graph, "3 1\n1\x0b2\n", "graph: expected 1 edge lines, got 2"),  # \v ends a line
        (read_graph, "3 2\n1 x\n2\n", "edge: non-integer field in '1 x'"),  # the first bad line
        (read_colored, "3 2 5\n1 2 3\n1 2\n4\n", "colored edge: expected 3 fields, got '1 2'"),
        (read_script, "base 2\n2\n1\nsteps 0\n", "base star: expected 2 fields, got '2'"),
        (read_script, "base 1\n2 2\nsteps 2\n1 1\n1 2\n", "step: expected 4 fields, got '1 1'"),
        (read_script, "base 1\n2 1\nsteps 1\n1 1 1 +1\n", "step: non-integer field in '1 1 1 +1'"),
    ],
)
def test_no_table_row_crosses_a_line(reader, text, message):
    """A row split over two lines is two short rows, never one row: the
    error names the first bad line, as the per-line reading does."""
    with pytest.raises(FormatError) as info:
        reader(text)
    assert str(info.value) == message


def test_blank_lines_and_tabs_inside_rows_are_whitespace():
    f = TotalColoring(5, {1: 1, 2: 2, 3: 3}, {(1, 2): 4, (2, 3): 5})
    assert read_graph("3 2\n\n1\t2\n \n2 \t3\n\n") == path_graph(3)
    assert read_graph("3 2\n1\u00a02\n2\u30003\n") == path_graph(3)  # so do Unicode spaces
    assert read_colored("3 2 5\n1\t2 3\n\n1 2\t4\n2\t 3 5\n") == (path_graph(3), f)
    sc = decompose_to_stars(complete_graph(4))
    doc = write_script(sc).replace(" ", "\t").replace("\n", "\n \n")
    assert read_script(doc) == sc
