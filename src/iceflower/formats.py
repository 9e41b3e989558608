"""Plain-text documents for graphs, colorings, systems, scripts, and
topcode matrices, plus DOT export.

Every writer here produces byte-stable output (ascending edge order,
fixed field order) and every reader accepts exactly what the writers
emit, so round-tripping is the norm, not a special case.

One token grammar serves every reader and `sniff`.  An integer field is
what ``%d`` writes: ASCII ``0|-?[1-9][0-9]*``, so ``+3``, ``1_0``,
``007``, ``-0`` and other scripts' digits are rejected.  A header is its
exact first word (``system``, ``base``, ``steps``, ``topcode``) plus a
fixed number of fields.  Whitespace stays free: lines are stripped,
blank lines are skipped, and fields are split on any run of whitespace,
except in topcode rows, whose entries are separated by single commas.

A table of rows of n integers (graph edges, colored edges, a script's
base table and its steps) is read by _table in one match of one module
pattern per row width n over the joined lines.  Fields in a row are
apart by whitespace that is not a newline, so no row crosses a line.
When the match fails, the lines are read one at a time, and the first
bad line raises its own error, the one a per-line reader gives.
"""
from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .graph import Graph, _norm_edge
from .coloring import TotalColoring
from .system import ColoredIceFlowerSystem, IceFlowerSystem, make_star
from .lattice import CoincideScript
from .topcode import TopcodeMatrix, _is_number_string

TOPCODE_CONVENTION = "row-major/1-2digit"


class FormatError(ValueError):
    """Malformed document text."""


_INT = r"(?:0|-?[1-9][0-9]*)"  # what %d writes, in ASCII digits
_FIELDS = {sep: re.compile("%s(?:%s%s)*" % (_INT, sep or r"\s+", _INT)) for sep in (None, ",")}


def _int_fields(line: str, n: Optional[int], what: str, sep: Optional[str] = None) -> List[int]:
    """The fields of `line` as integers: split on whitespace runs, or on
    `sep`, and n of them unless n is None.  One pattern per separator
    checks the whole line at once."""
    parts = line.split(sep)
    if n is not None and len(parts) != n:
        raise FormatError("%s: expected %d fields, got %r" % (what, n, line))
    if not _FIELDS[sep].fullmatch(line):
        raise FormatError("%s: non-integer field in %r" % (what, line))
    return [int(x) for x in parts]


_ROWS = {n: r"%s(?:[^\S\n]+%s){%d}" % (_INT, _INT, n - 1) for n in (2, 3, 4)}
_TABLES = {n: re.compile(r"%s(?:\n%s)*" % (row, row)) for n, row in _ROWS.items()}


def _table(lines: List[str], n: int, what: str) -> List[int]:
    """The fields of every line, in order, each line n integers: one match
    over the joined lines, or, when that fails, the per-line reading,
    which raises the first bad line's own error."""
    body = "\n".join(lines)
    if _TABLES[n].fullmatch(body):
        return list(map(int, body.split()))
    return [v for ln in lines for v in _int_fields(ln, n, what)]


def _header(lines: List[str], usage: str) -> List[str]:
    """The fields of the first line, which must be shaped like `usage`:
    its exact first word, then one field per further word."""
    head, want = (lines[0].split() if lines else []), usage.split()
    if head[:1] != want[:1]:
        raise FormatError("missing %s header" % want[0])
    if len(head) != len(want):
        raise FormatError("%s header: expected %r" % (want[0], usage))
    return head[1:]


def _lines(text: str) -> List[str]:
    return [ln for ln in map(str.strip, text.splitlines()) if ln]


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
    if q < 0:
        raise FormatError("graph header: negative edge count %d" % q)
    if len(lines) != 1 + q:
        raise FormatError("graph: expected %d edge lines, got %d" % (q, len(lines) - 1))
    ends = _table(lines[1:], 2, "edge")
    edges = list(zip(ends[::2], ends[1::2]))
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
    rows = _table(lines[2:], 3, "colored edge")
    for u, v, c in zip(rows[::3], rows[1::3], rows[2::3]):
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


def _system_header(lines: List[str]) -> Tuple[int, int, Optional[int]]:
    """n, the uniform flag and the declared constant (None for "-")."""
    n, uniform, k = _header(lines, "system n uniform k")
    n, uniform = _int_fields(n + " " + uniform, 2, "system header")
    return n, uniform, None if k == "-" else _int_fields(k, 1, "system header")[0]


def read_system(text: str) -> ColoredIceFlowerSystem:
    lines = _lines(text)
    n, uniform, declared_k = _system_header(lines)
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
    if uniform != s.uniform:
        raise FormatError("system header: uniform flag must be %d for these stars, got %d" % (s.uniform, uniform))
    return s


# -- script documents ------------------------------------------------------


def write_script(sc: CoincideScript) -> str:
    out = ["base %d" % sc.base.n]
    for star, a in zip(sc.base.stars, sc.coefficients):
        out.append("%d %d" % (star.m, a))
    out.append("steps %d" % len(sc.steps))
    out.extend("%d %d %d %d" % s for s in sc.steps)
    return "\n".join(out) + "\n"


def _base_header(lines: List[str]) -> int:
    return _int_fields(_header(lines, "base n")[0], 1, "base header")[0]


def read_script(text: str) -> CoincideScript:
    lines = _lines(text)
    n = _base_header(lines)
    if n < 0:
        raise FormatError("base header: negative star count %d" % n)
    if len(lines) < 2 + n:
        raise FormatError("script: truncated base table")
    table = _table(lines[1 : 1 + n], 2, "base star")
    sizes, coeffs = table[::2], table[1::2]
    t = _int_fields(_header(lines[1 + n :], "steps t")[0], 1, "steps header")[0]
    if t < 0:
        raise FormatError("steps header: negative step count %d" % t)
    step_lines = lines[2 + n :]
    if len(step_lines) != t:
        raise FormatError("script: expected %d step lines, got %d" % (t, len(step_lines)))
    fields = _table(step_lines, 4, "step")
    steps = list(zip(fields[::4], fields[1::4], fields[2::4], fields[3::4]))
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


def _topcode_header(lines: List[str]) -> None:
    if _header(lines, "topcode convention") != [TOPCODE_CONVENTION]:
        raise FormatError("unsupported topcode convention (want %s)" % TOPCODE_CONVENTION)


def read_topcode(text: str) -> TopcodeMatrix:
    lines = _lines(text)
    _topcode_header(lines)
    if len(lines) != 4:
        raise FormatError("topcode: expected exactly three row lines")
    rows = [tuple(_int_fields(ln, None, "topcode row", ",")) for ln in lines[1:]]
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


_HEADERS = (
    ("graph", lambda lines: _int_fields(lines[0], 2, "graph header")),
    ("colored", lambda lines: _int_fields(lines[0], 3, "colored header")),
    ("system", _system_header),
    ("script", _base_header),
    ("topcode", _topcode_header),
)


def sniff(text: str) -> str:
    """Which document kind a text is: graph, colored, system, script, or
    topcode.  Decides on the first non-blank line only: the kind is the
    one whose reader accepts it as a header."""
    lines = _lines(text)
    if not lines:
        raise FormatError("empty document")
    for kind, read_header in _HEADERS:
        try:
            read_header(lines)
        except FormatError:
            continue
        return kind
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
