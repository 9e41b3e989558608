"""Command-line front end.

Exit codes separate four situations so shell pipelines can branch:
0 = success, 1 = a negative mathematical answer (not a member, not
planar, nothing found within the budget...), 2 = unusable input or
usage, 3 = an internal error, never an answer.  A "no" is an answer,
never a usage error.  `run` alone maps exceptions to exit codes: a
ValueError (FormatError included) is 2, any other exception is 3.

Each command's parser names its handler, so `run` dispatches by calling
it: a handler takes the parsed arguments and returns a CommandResult.
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
    leaves = []

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="sub", required=True)

    def leaf(parent, name, handler, *positionals, **kw):
        """A command's parser: its positionals and the handler `run` calls."""
        lp = parent.add_parser(name, **kw)
        for positional in positionals:
            lp.add_argument(positional)
        lp.set_defaults(run=handler)
        leaves.append(lp)
        return lp

    leaf(sub, "decompose", _decompose, "input", help="graph -> star script")
    leaf(sub, "recompose", _recompose, "input", help="star script -> graph")

    lc = leaf(group("lattice", "lattice membership checks"), "check",
              lambda args: _LATTICE_CHECKS[args.kind](args, _read_file(args.input)))
    lc.add_argument("kind", choices=_LATTICE_CHECKS)
    lc.add_argument("input")
    lc.add_argument("--base", help="star sizes m1,m2,... (uncolored) or a system file (colored)")

    sc = leaf(group("seq", "degree-sequence checks"), "check", _seq_check)
    sc.add_argument("sequence", help="degree sequence, e.g. 3,2,2,1")

    hb = leaf(group("hamiltonian", "haired-cycle constructions"), "build", _hamiltonian_build)
    hb.add_argument("degrees", help="spine degrees in cyclic order, e.g. 3,3,3,3")
    hb.add_argument("--budget", type=_int, default=20, help="max pendants for the exhaustive sweep")
    hb.add_argument("--seed", type=_int, default=0)

    col = group("coloring", "total-coloring operations")
    leaf(col, "verify", _coloring_verify, "input")
    leaf(col, "chi-fdt", _chi_fdt, "input").add_argument("--max-colors", type=_int, default=16)

    ice = group("iceflower", "star-system operations")
    ib = leaf(ice, "build", _iceflower_build)
    ib.add_argument("n", type=_int)
    ib.add_argument("k", type=_int)
    leaf(ice, "strong-check", _strong_check, "input")

    sat = leaf(sub, "saturate", _saturate, "input", help="merge star copies toward saturation")
    sat.add_argument("--copies", required=True, help="copies per star, e.g. 1,1,0")

    top = group("topcode", "matrix encode/decode/solve")
    leaf(top, "encode", _topcode_encode, "input").add_argument(
        "--string", action="store_true", help="emit the number string instead of the matrix")
    leaf(top, "decode", _topcode_decode, "input").add_argument("--identify", action="store_true")
    ts = leaf(top, "solve", _topcode_solve, "input")
    ts.add_argument("--q", required=True, help="edge count: N, LO:HI, or a,b,c")
    ts.add_argument("--substitute-o", action="store_true",
                    help="read the letter o as the digit 0 (reported, never silent)")
    ts.add_argument("--limit", type=_int, default=10, help="solutions to print in full (0 = all)")

    leaf(group("export", "visualization export"), "dot", _export_dot, "input")

    for lp in leaves:  # last, so each leaf's help lists its own options first
        lp.add_argument("--threads", type=_int, default=1,
                        help="parallelism hint (results never depend on it)")
    return p


def run(argv: List[str]) -> CommandResult:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except formats.FormatError as e:
        return CommandResult(2, note="format error: %s" % e)
    except ValueError as e:
        return CommandResult(2, note="error: %s" % e)
    except Exception as e:
        return CommandResult(3, note="internal error: %s: %s" % (type(e).__name__, e))


def _graph(args):
    """The graph, and its coloring if any, in the file named by args.input."""
    return formats.read_any_graph(_read_file(args.input))


def _decompose(args) -> CommandResult:
    g, _ = _graph(args)
    return CommandResult(0, formats.write_script(decompose_to_stars(g)))


def _recompose(args) -> CommandResult:
    script = formats.read_script(_read_file(args.input))
    return CommandResult(0, formats.write_graph(recompose(script)))


def _check_uncolored(args, text: str) -> CommandResult:
    if not args.base:
        raise ValueError("lattice check uncolored needs --base m1,m2,...")
    sizes = _ints(args.base, "--base")
    base = IceFlowerSystem([make_star(m) for m in sizes])
    g, _ = formats.read_any_graph(text)
    script = uncolored_lattice_member(g, base)
    if script is None:
        return CommandResult(1, note="not a member: some internal degree has no base star")
    return CommandResult(0, formats.write_script(script))


def _check_hamiltonian(args, text: str) -> CommandResult:
    g, _ = formats.read_any_graph(text)
    if not is_connected(g):
        return CommandResult(1, note="not a member: disconnected")
    if any(g.degree(v) < 2 for v in g.vertices()):
        return CommandResult(1, note="not a member: vertex of degree < 2")
    cycle = find_hamilton_cycle(g)
    if cycle is None:
        return CommandResult(1, note="not a member: no spanning cycle")
    return CommandResult(0, "cycle " + " ".join(str(v) for v in cycle) + "\n")


def _check_planar(args, text: str) -> CommandResult:
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


def _check_spanning(args, text: str) -> CommandResult:
    g, _ = formats.read_any_graph(text)
    if not is_tree(g):
        return CommandResult(1, note="not a member: not a tree")
    line = " ".join(str(v) for v in g.vertices())
    return CommandResult(0, "rainbow " + line + "\n")


def _check_colored(args, text: str) -> CommandResult:
    if not args.base:
        raise ValueError("lattice check colored needs --base SYSTEMFILE")
    system = formats.read_system(_read_file(args.base))
    g, f = formats.read_colored(text)
    script = colored_lattice_member(g, f, system)
    if script is None:
        return CommandResult(1, note="not a member: some split star matches no base star")
    return CommandResult(0, formats.write_script(script))


# `lattice check KIND`: the kinds the parser accepts, each with its check,
# which gets the input file's text already read.
_LATTICE_CHECKS = {
    "uncolored": _check_uncolored,
    "hamiltonian": _check_hamiltonian,
    "planar": _check_planar,
    "spanning": _check_spanning,
    "colored": _check_colored,
}


def _seq_check(args) -> CommandResult:
    degs = _ints(args.sequence, "sequence")
    if not is_graphical(degs):
        return CommandResult(1, note="not graphical")
    return CommandResult(0, formats.write_graph(realize_sequence(degs)))


def _hamiltonian_build(args) -> CommandResult:
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


def _coloring_verify(args) -> CommandResult:
    g, f = formats.read_colored(_read_file(args.input))
    if not is_proper_total(g, f):
        return CommandResult(1, note="not a proper total coloring")
    if g.q == 0:
        return CommandResult(0, "proper total; palette %d; no edges\n" % f.palette)
    rep = bfdt(g, f)
    line = "proper total; palette %d; weights %d..%d; spread %d\n"
    return CommandResult(0, line % (f.palette, rep.wmin, rep.wmax, rep.bfdt))


def _chi_fdt(args) -> CommandResult:
    if args.max_colors < 1:
        raise ValueError("--max-colors: expected a count >= 1, got %d" % args.max_colors)
    g, _ = _graph(args)
    result = chi_fdt(g, args.max_colors)
    if result.coloring is None:
        return CommandResult(
            1, note="no constant-weight coloring within %d colors" % result.searched_up_to)
    return CommandResult(0, "%d\n" % result.m + formats.write_colored(g, result.coloring))


def _iceflower_build(args) -> CommandResult:
    return CommandResult(0, formats.write_system(build_uniform_fdt_system(args.n, args.k)))


def _strong_check(args) -> CommandResult:
    s = formats.read_system(_read_file(args.input))
    if is_strongly_colored(s):
        return CommandResult(0, "strongly colored\n")
    return CommandResult(1, note="not strongly colored")


def _saturate(args) -> CommandResult:
    s = formats.read_system(_read_file(args.input))
    res = saturate(s, _ints(args.copies, "--copies"))
    doc = formats.write_colored(res.graph, res.coloring)
    if res.saturated:
        return CommandResult(0, doc, note="saturated")
    return CommandResult(1, doc, note="not saturated")


def _topcode_encode(args) -> CommandResult:
    g, f = formats.read_colored(_read_file(args.input))
    t = topcode_from_graph(g, f)
    if args.string:
        return CommandResult(0, string_from_topcode(t) + "\n")
    return CommandResult(0, formats.write_topcode(t))


def _topcode_decode(args) -> CommandResult:
    t = formats.read_topcode(_read_file(args.input))
    realized = realize_topcode(t, identify=args.identify)
    if realized is None:
        return CommandResult(1, note="unrealizable matrix")
    g, f = realized
    return CommandResult(0, formats.write_colored(g, f))


def _topcode_solve(args) -> CommandResult:
    if args.limit < 0:
        raise ValueError("--limit: expected a count >= 0, got %d" % args.limit)
    d = formats.read_number_string(_read_file(args.input), substitute_o=args.substitute_o)
    sols = solve_dnsp(d, _q_values(args.q))
    head = "solutions %d" % len(sols)
    if args.substitute_o:
        head += " (letter o read as 0)"
    if not sols:
        return CommandResult(1, note="no tree cutting found; " + head)
    shown = sols if args.limit == 0 else sols[: args.limit]
    blocks = [head]
    for m, g, f in shown:
        blocks.append(formats.write_topcode(m).rstrip("\n") + "\n"
                      + formats.write_colored(g, f).rstrip("\n"))
    if len(shown) < len(sols):
        blocks.append("... %d more not shown (raise --limit)" % (len(sols) - len(shown)))
    return CommandResult(0, "\n\n".join(blocks) + "\n")


def _export_dot(args) -> CommandResult:
    g, f = _graph(args)
    return CommandResult(0, formats.export_dot(g, f))


def main() -> None:
    res = run(sys.argv[1:])
    if res.payload:
        sys.stdout.write(res.payload)
    if res.note:
        sys.stderr.write(res.note + "\n")
    sys.exit(res.exit_code)


if __name__ == "__main__":
    main()
