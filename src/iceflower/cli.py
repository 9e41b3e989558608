"""Command-line front end.

Exit codes separate four situations so shell pipelines can branch:
0 = success, 1 = a negative mathematical answer (not a member, not
planar, nothing found within the budget...), 2 = unusable input or
usage, 3 = an internal error, never an answer.  A "no" is an answer,
never a usage error.  `run` alone maps exceptions to exit codes: a
ValueError (FormatError included) is 2, any other exception is 3.
"""
from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from typing import List, NamedTuple, Sequence

from . import formats
from .coloring import bfdt, chi_fdt, is_proper_total
from .graph import is_tree
from .graph import find_hamilton_cycle, is_connected, is_planar, is_graphical, realize_sequence
from .lattice import (
    NoClosure,
    build_haired_cycle,
    close_to_hamiltonian,
    colored_lattice_member,
    decompose_to_stars,
    planar_lattice_member,
    recompose,
    uncolored_lattice_member,
)
from .system import IceFlowerSystem, build_uniform_fdt_system, is_strongly_colored, make_star, saturate
from .topcode import realize_topcode, solve_dnsp, string_from_topcode, topcode_from_graph


class CommandResult(NamedTuple):
    exit_code: int  # 0 success / 1 negative answer / 2 usage or format / 3 internal
    payload: str = ""  # stdout
    note: str = ""  # stderr


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we report instead
        raise ValueError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e))


def _int(text: str) -> int:
    """An integer argument, read by the document fields' one rule: what
    %d writes, so one token of ASCII 0|-?[1-9][0-9]*."""
    return formats._int_fields(text, 1, "argument")[0]


_int.__name__ = "int"  # argparse names the type: "invalid int value: 'x'"


def _ints(text: str, what: str) -> List[int]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("%s: empty list" % what)
    try:
        return [_int(x) for x in parts]
    except ValueError:
        raise ValueError("%s: expected integers, got %r" % (what, text))


def _q_values(text: str) -> Sequence[int]:
    """--q as a list, or LO:HI as a range: solve_dnsp looks up in it only
    the q that can fit the string, so a range is never listed."""
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            a, b = _int(lo), _int(hi)
        except ValueError:
            raise ValueError("--q: expected N or LO:HI, got %r" % text)
        if a > b:
            raise ValueError("--q: empty range %r" % text)
        return range(a, b + 1)
    return _ints(text, "--q")


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """Built once per process: parse_args keeps no state in the parser."""
    p = _Parser(prog="iceflower", description="star systems, lattices, and topcode strings")
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("decompose", help="graph -> star script")
    d.add_argument("input")

    r = sub.add_parser("recompose", help="star script -> graph")
    r.add_argument("input")

    lat = sub.add_parser("lattice", help="lattice membership checks")
    latsub = lat.add_subparsers(dest="sub", required=True)
    lc = latsub.add_parser("check")
    lc.add_argument("kind", choices=["uncolored", "hamiltonian", "planar", "spanning", "colored"])
    lc.add_argument("input")
    lc.add_argument("--base", help="star sizes m1,m2,... (uncolored) or a system file (colored)")

    seq = sub.add_parser("seq", help="degree-sequence checks")
    seqsub = seq.add_subparsers(dest="sub", required=True)
    sc = seqsub.add_parser("check")
    sc.add_argument("sequence", help="degree sequence, e.g. 3,2,2,1")

    ham = sub.add_parser("hamiltonian", help="haired-cycle constructions")
    hamsub = ham.add_subparsers(dest="sub", required=True)
    hb = hamsub.add_parser("build")
    hb.add_argument("degrees", help="spine degrees in cyclic order, e.g. 3,3,3,3")
    hb.add_argument("--budget", type=_int, default=20, help="max pendants for the exhaustive sweep")
    hb.add_argument("--seed", type=_int, default=0)

    col = sub.add_parser("coloring", help="total-coloring operations")
    colsub = col.add_subparsers(dest="sub", required=True)
    cv = colsub.add_parser("verify")
    cv.add_argument("input")
    cc = colsub.add_parser("chi-fdt")
    cc.add_argument("input")
    cc.add_argument("--max-colors", type=_int, default=16)

    ice = sub.add_parser("iceflower", help="star-system operations")
    icesub = ice.add_subparsers(dest="sub", required=True)
    ib = icesub.add_parser("build")
    ib.add_argument("n", type=_int)
    ib.add_argument("k", type=_int)
    isc = icesub.add_parser("strong-check")
    isc.add_argument("input")

    sat = sub.add_parser("saturate", help="merge star copies toward saturation")
    sat.add_argument("input")
    sat.add_argument("--copies", required=True, help="copies per star, e.g. 1,1,0")

    top = sub.add_parser("topcode", help="matrix encode/decode/solve")
    topsub = top.add_subparsers(dest="sub", required=True)
    te = topsub.add_parser("encode")
    te.add_argument("input")
    te.add_argument("--string", action="store_true", help="emit the number string instead of the matrix")
    td = topsub.add_parser("decode")
    td.add_argument("input")
    td.add_argument("--identify", action="store_true")
    ts = topsub.add_parser("solve")
    ts.add_argument("input")
    ts.add_argument("--q", required=True, help="edge count: N, LO:HI, or a,b,c")
    ts.add_argument("--substitute-o", action="store_true",
                    help="read the letter o as the digit 0 (reported, never silent)")
    ts.add_argument("--limit", type=_int, default=10, help="solutions to print in full (0 = all)")

    ex = sub.add_parser("export", help="visualization export")
    exsub = ex.add_subparsers(dest="sub", required=True)
    ed = exsub.add_parser("dot")
    ed.add_argument("input")

    for subparser in (d, r, lc, sc, hb, cv, cc, ib, isc, sat, te, td, ts, ed):
        subparser.add_argument("--threads", type=_int, default=1,
                               help="parallelism hint (results never depend on it)")
    return p


def run(argv: List[str]) -> CommandResult:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except formats.FormatError as e:
        return CommandResult(2, note="format error: %s" % e)
    except ValueError as e:
        return CommandResult(2, note="error: %s" % e)
    except Exception as e:
        return CommandResult(3, note="internal error: %s: %s" % (type(e).__name__, e))


def _dispatch(args) -> CommandResult:
    if args.cmd == "decompose":
        g, _ = formats.read_any_graph(_read_file(args.input))
        script = decompose_to_stars(g)
        return CommandResult(0, formats.write_script(script))

    if args.cmd == "recompose":
        script = formats.read_script(_read_file(args.input))
        g = recompose(script)
        return CommandResult(0, formats.write_graph(g))

    if args.cmd == "lattice":
        return _lattice_check(args)

    if args.cmd == "seq":
        degs = _ints(args.sequence, "sequence")
        if not is_graphical(degs):
            return CommandResult(1, note="not graphical")
        g = realize_sequence(degs)
        return CommandResult(0, formats.write_graph(g))

    if args.cmd == "hamiltonian":
        if args.budget < 0:
            raise ValueError("--budget: expected a count >= 0, got %d" % args.budget)
        degs = _ints(args.degrees, "degrees")
        hc = build_haired_cycle(degs)
        try:
            res = close_to_hamiltonian(hc, exhaustive_limit=args.budget, seed=args.seed)
        except NoClosure as e:
            return CommandResult(1, note="no closure: %s" % e)
        head = "closures %d partial %d" % (len(res.graphs), 1 if res.partial else 0)
        docs = [formats.write_graph(g).rstrip("\n") for g in res.graphs]
        return CommandResult(0, "\n\n".join([head] + docs) + "\n")

    if args.cmd == "coloring":
        if args.sub == "verify":
            g, f = formats.read_colored(_read_file(args.input))
            if not is_proper_total(g, f):
                return CommandResult(1, note="not a proper total coloring")
            if g.q == 0:
                return CommandResult(0, "proper total; palette %d; no edges\n" % f.palette)
            rep = bfdt(g, f)
            return CommandResult(
                0,
                "proper total; palette %d; weights %d..%d; spread %d\n"
                % (f.palette, rep.wmin, rep.wmax, rep.bfdt),
            )
        if args.max_colors < 1:
            raise ValueError("--max-colors: expected a count >= 1, got %d" % args.max_colors)
        g, _ = formats.read_any_graph(_read_file(args.input))
        result = chi_fdt(g, args.max_colors)
        if result.coloring is None:
            return CommandResult(
                1,
                note="no constant-weight coloring within %d colors" % result.searched_up_to,
            )
        return CommandResult(
            0, "%d\n" % result.m + formats.write_colored(g, result.coloring)
        )

    if args.cmd == "iceflower":
        if args.sub == "build":
            s = build_uniform_fdt_system(args.n, args.k)
            return CommandResult(0, formats.write_system(s))
        s = formats.read_system(_read_file(args.input))
        if is_strongly_colored(s):
            return CommandResult(0, "strongly colored\n")
        return CommandResult(1, note="not strongly colored")

    if args.cmd == "saturate":
        s = formats.read_system(_read_file(args.input))
        copies = _ints(args.copies, "--copies")
        res = saturate(s, copies)
        doc = formats.write_colored(res.graph, res.coloring)
        if res.saturated:
            return CommandResult(0, doc, note="saturated")
        return CommandResult(1, doc, note="not saturated")

    if args.cmd == "topcode":
        return _topcode(args)

    if args.cmd == "export":
        g, f = formats.read_any_graph(_read_file(args.input))
        return CommandResult(0, formats.export_dot(g, f))

    raise RuntimeError("unknown command")


def _lattice_check(args) -> CommandResult:
    text = _read_file(args.input)
    kind = args.kind

    if kind == "uncolored":
        if not args.base:
            raise ValueError("lattice check uncolored needs --base m1,m2,...")
        sizes = _ints(args.base, "--base")
        base = IceFlowerSystem([make_star(m) for m in sizes])
        g, _ = formats.read_any_graph(text)
        script = uncolored_lattice_member(g, base)
        if script is None:
            return CommandResult(1, note="not a member: some internal degree has no base star")
        return CommandResult(0, formats.write_script(script))

    if kind == "hamiltonian":
        g, _ = formats.read_any_graph(text)
        if not is_connected(g):
            return CommandResult(1, note="not a member: disconnected")
        if any(g.degree(v) < 2 for v in g.vertices()):
            return CommandResult(1, note="not a member: vertex of degree < 2")
        cycle = find_hamilton_cycle(g)
        if cycle is None:
            return CommandResult(1, note="not a member: no spanning cycle")
        return CommandResult(0, "cycle " + " ".join(str(v) for v in cycle) + "\n")

    if kind == "planar":
        g, _ = formats.read_any_graph(text)
        coloring = planar_lattice_member(g)
        if coloring is None:
            if not is_connected(g):
                return CommandResult(1, note="not a member: disconnected")
            if not is_planar(g):
                return CommandResult(1, note="not planar")
            return CommandResult(1, note="not a member: has a leaf")
        line = " ".join(str(coloring[v]) for v in g.vertices())
        return CommandResult(0, "4-coloring " + line + "\n")

    if kind == "spanning":
        g, _ = formats.read_any_graph(text)
        if not is_tree(g):
            return CommandResult(1, note="not a member: not a tree")
        line = " ".join(str(v) for v in g.vertices())
        return CommandResult(0, "rainbow " + line + "\n")

    if kind == "colored":
        if not args.base:
            raise ValueError("lattice check colored needs --base SYSTEMFILE")
        system = formats.read_system(_read_file(args.base))
        g, f = formats.read_colored(text)
        script = colored_lattice_member(g, f, system)
        if script is None:
            return CommandResult(1, note="not a member: some split star matches no base star")
        return CommandResult(0, formats.write_script(script))

    raise RuntimeError("unknown lattice check kind")


def _topcode(args) -> CommandResult:
    if args.sub == "encode":
        g, f = formats.read_colored(_read_file(args.input))
        t = topcode_from_graph(g, f)
        if args.string:
            return CommandResult(0, string_from_topcode(t) + "\n")
        return CommandResult(0, formats.write_topcode(t))

    if args.sub == "decode":
        t = formats.read_topcode(_read_file(args.input))
        realized = realize_topcode(t, identify=args.identify)
        if realized is None:
            return CommandResult(1, note="unrealizable matrix")
        g, f = realized
        return CommandResult(0, formats.write_colored(g, f))

    if args.sub == "solve":
        if args.limit < 0:
            raise ValueError("--limit: expected a count >= 0, got %d" % args.limit)
        raw = _read_file(args.input)
        d = formats.read_number_string(raw, substitute_o=args.substitute_o)
        sols = solve_dnsp(d, _q_values(args.q))
        head = "solutions %d" % len(sols)
        if args.substitute_o:
            head += " (letter o read as 0)"
        if not sols:
            return CommandResult(1, note="no tree cutting found; " + head)
        shown = sols if args.limit == 0 else sols[: args.limit]
        blocks = [head]
        for m, g, f in shown:
            blocks.append(
                formats.write_topcode(m).rstrip("\n")
                + "\n"
                + formats.write_colored(g, f).rstrip("\n")
            )
        if len(shown) < len(sols):
            blocks.append("... %d more not shown (raise --limit)" % (len(sols) - len(shown)))
        return CommandResult(0, "\n\n".join(blocks) + "\n")

    raise RuntimeError("unknown topcode subcommand")


def main() -> None:
    res = run(sys.argv[1:])
    if res.payload:
        sys.stdout.write(res.payload)
    if res.note:
        sys.stderr.write(res.note + "\n")
    sys.exit(res.exit_code)


if __name__ == "__main__":
    main()
