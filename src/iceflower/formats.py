"""Plain-text documents for graphs, colorings, systems, scripts, and
topcode matrices, plus DOT export.

Every writer here produces byte-stable output (ascending edge order,
fixed field order) and every reader accepts exactly what the writers
emit, so round-tripping is the norm, not a special case.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import Graph, _norm_edge
from .coloring import TotalColoring
from .system import ColoredIceFlowerSystem, IceFlowerSystem, make_star
from .lattice import CoincideScript
from .topcode import TopcodeMatrix, _is_number_string

TOPCODE_CONVENTION = "row-major/1-2digit"


class FormatError(ValueError):
    """Malformed document text."""


def _int_fields(line: str, n: int, what: str) -> List[int]:
    parts = line.split()
    if len(parts) != n:
        raise FormatError("%s: expected %d fields, got %r" % (what, n, line))
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise FormatError("%s: non-integer field in %r" % (what, line))


def _lines(text: str) -> List[str]:
    return [ln.strip() for ln in text.strip().splitlines() if ln.strip()]


# -- graph documents -------------------------------------------------------


def write_graph(g: Graph) -> str:
    out = ["%d %d" % (g.p, g.q)]
    out.extend("%d %d" % e for e in g.edges())
    return "\n".join(out) + "\n"


def read_graph(text: str) -> Graph:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty graph document")
    p, q = _int_fields(lines[0], 2, "graph header")
    if len(lines) != 1 + q:
        raise FormatError("graph: expected %d edge lines, got %d" % (q, len(lines) - 1))
    edges = [tuple(_int_fields(ln, 2, "edge")) for ln in lines[1:]]
    try:
        return Graph(p, edges)
    except ValueError as e:
        raise FormatError("graph: %s" % e)


# -- colored-graph documents -----------------------------------------------


def write_colored(g: Graph, f: TotalColoring) -> str:
    out = ["%d %d %d" % (g.p, g.q, f.palette)]
    out.append(" ".join(str(f.vertex(v)) for v in g.vertices()))
    out.extend("%d %d %d" % (u, v, f.edge(u, v)) for u, v in g.edges())
    return "\n".join(out) + "\n"


def read_colored(text: str) -> Tuple[Graph, TotalColoring]:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty colored document")
    p, q, palette = _int_fields(lines[0], 3, "colored header")
    if q < 0:
        raise FormatError("colored header: negative edge count %d" % q)
    if len(lines) != 2 + q:
        raise FormatError("colored: expected %d lines after header" % (1 + q))
    vcolors = _int_fields(lines[1], p, "vertex colors")
    edges = []
    ec: Dict[Tuple[int, int], int] = {}
    for ln in lines[2:]:
        u, v, c = _int_fields(ln, 3, "colored edge")
        uv = _norm_edge(u, v)
        edges.append(uv)
        ec[uv] = c
    try:
        g = Graph(p, edges)
        f = TotalColoring(palette, {i + 1: vcolors[i] for i in range(p)}, ec)
    except ValueError as e:
        raise FormatError("colored: %s" % e)
    return g, f


# -- system documents ------------------------------------------------------


def write_system(s: ColoredIceFlowerSystem) -> str:
    k = str(s.fdt_constant) if s.fdt_constant is not None else "-"
    out = ["system %d %d %s" % (s.n, 1 if s.uniform else 0, k)]
    for star, f in zip(s.stars, s.colorings):
        out.append(write_colored(star.graph, f).rstrip("\n"))
    return "\n".join(out) + "\n"


def read_system(text: str) -> ColoredIceFlowerSystem:
    lines = _lines(text)
    if not lines or not lines[0].startswith("system"):
        raise FormatError("missing system header")
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError("system header: expected 'system n uniform k'")
    try:
        n = int(head[1])
        declared_k = None if head[3] == "-" else int(head[3])
    except ValueError:
        raise FormatError("system header: bad count or constant")
    pos = 1
    sizes: List[int] = []
    colorings: List[TotalColoring] = []
    for _ in range(n):
        if pos >= len(lines):
            raise FormatError("system: fewer star documents than declared")
        p, q, _pal = _int_fields(lines[pos], 3, "star header")
        doc = "\n".join(lines[pos : pos + 2 + q])
        g, f = read_colored(doc)
        if q != p - 1 or g.degree(1) != p - 1:
            raise FormatError("system: star %d is not a canonical star" % (len(sizes) + 1))
        sizes.append(p - 1)
        colorings.append(f)
        pos += 2 + q
    if pos != len(lines):
        raise FormatError("system: trailing lines after %d stars" % n)
    try:
        s = ColoredIceFlowerSystem([make_star(m) for m in sizes], colorings, fdt_constant=declared_k)
    except ValueError as e:
        raise FormatError("system: %s" % e)
    uniform = "1" if s.uniform else "0"
    if head[2] != uniform:
        raise FormatError("system header: uniform flag must be %s for these stars, got %r" % (uniform, head[2]))
    return s


# -- script documents ------------------------------------------------------


def write_script(sc: CoincideScript) -> str:
    out = ["base %d" % sc.base.n]
    for star, a in zip(sc.base.stars, sc.coefficients):
        out.append("%d %d" % (star.m, a))
    out.append("steps %d" % len(sc.steps))
    out.extend("%d %d %d %d" % s for s in sc.steps)
    return "\n".join(out) + "\n"


def read_script(text: str) -> CoincideScript:
    lines = _lines(text)
    if not lines or not lines[0].startswith("base"):
        raise FormatError("missing base header")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("base header: expected 'base n'")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError("base header: bad count")
    if len(lines) < 1 + n + 1:
        raise FormatError("script: truncated base table")
    sizes = []
    coeffs = []
    for ln in lines[1 : 1 + n]:
        m, a = _int_fields(ln, 2, "base star")
        sizes.append(m)
        coeffs.append(a)
    steps_head = lines[1 + n].split()
    if len(steps_head) != 2 or steps_head[0] != "steps":
        raise FormatError("script: expected 'steps t' after base table")
    try:
        t = int(steps_head[1])
    except ValueError:
        raise FormatError("script: bad step count")
    step_lines = lines[2 + n :]
    if len(step_lines) != t:
        raise FormatError("script: expected %d step lines, got %d" % (t, len(step_lines)))
    steps = [tuple(_int_fields(ln, 4, "step")) for ln in step_lines]
    try:
        base = IceFlowerSystem([make_star(m) for m in sizes])
        return CoincideScript(base, tuple(coeffs), tuple(steps))
    except ValueError as e:
        raise FormatError("script: %s" % e)


# -- topcode documents and number strings ----------------------------------


def write_topcode(t: TopcodeMatrix) -> str:
    out = ["topcode %s" % TOPCODE_CONVENTION]
    for row in (t.X, t.E, t.Y):
        out.append(",".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def read_topcode(text: str) -> TopcodeMatrix:
    lines = _lines(text)
    if not lines or not lines[0].startswith("topcode"):
        raise FormatError("missing topcode header")
    head = lines[0].split()
    if len(head) != 2 or head[1] != TOPCODE_CONVENTION:
        raise FormatError("unsupported topcode convention (want %s)" % TOPCODE_CONVENTION)
    if len(lines) != 4:
        raise FormatError("topcode: expected exactly three row lines")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append(tuple(int(x) for x in ln.split(",")))
        except ValueError:
            raise FormatError("topcode: non-integer entry in %r" % ln)
    try:
        return TopcodeMatrix(*rows)
    except ValueError as e:
        raise FormatError("topcode: %s" % e)


def read_number_string(text: str, substitute_o: bool = False) -> str:
    """A digit run, optionally mapping the letter o/O to zero first.

    The substitution is opt-in and reported by the caller; it is never
    applied silently.
    """
    d = "".join(text.split())
    if substitute_o:
        d = d.replace("o", "0").replace("O", "0")
    if not _is_number_string(d):
        raise FormatError("number string must be digits 0-9 only (use the o->0 flag for the letter o)")
    return d


# -- document sniffing -----------------------------------------------------


def sniff(text: str) -> str:
    """Which document kind a text is: graph, colored, system, script, or
    topcode.  Decides on the first non-blank line only."""
    lines = _lines(text)
    if not lines:
        raise FormatError("empty document")
    first = lines[0].split()
    if first[0] == "system":
        return "system"
    if first[0] == "base":
        return "script"
    if first[0] == "topcode":
        return "topcode"
    if len(first) == 2 and all(w.lstrip("-").isdigit() for w in first):
        return "graph"
    if len(first) == 3 and all(w.lstrip("-").isdigit() for w in first):
        return "colored"
    raise FormatError("unrecognized document header: %r" % lines[0])


def read_any_graph(text: str) -> Tuple[Graph, Optional[TotalColoring]]:
    """A graph with or without colors, by sniffing."""
    kind = sniff(text)
    if kind == "graph":
        return read_graph(text), None
    if kind == "colored":
        return read_colored(text)
    raise FormatError("expected a graph or colored-graph document, found %s" % kind)


# -- DOT export ------------------------------------------------------------


def export_dot(g: Graph, f: Optional[TotalColoring] = None) -> str:
    out = ["graph G {"]
    for v in g.vertices():
        if f is not None:
            out.append('  v%d [label="%d"];' % (v, f.vertex(v)))
        else:
            out.append("  v%d;" % v)
    for u, v in g.edges():
        if f is not None:
            out.append('  v%d -- v%d [label="%d"];' % (u, v, f.edge(u, v)))
        else:
            out.append("  v%d -- v%d;" % (u, v))
    out.append("}")
    return "\n".join(out) + "\n"
