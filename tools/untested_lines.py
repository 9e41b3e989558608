"""Print each executable line of src/iceflower that no tier-1 test runs.

Runs the tier-1 suite (pytest over tests/) in this process under
sys.settrace and prints every line of the package that compiles to code
but never ran, as PATH:LINE: SOURCE, then a count per module.  No
coverage package is needed: the line table of each compiled code object
gives the executable lines, and the trace's line events give the ones
that ran.  Code that tests run in a child process is not seen.  Each
module's source and executable lines are read before the suite starts,
so a file edited during the run does not shift the report.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Run it from the repository root.  Tracing makes the suite several times
slower.  The exit code is pytest's.
"""
from __future__ import annotations

import os
import sys
import threading
from types import CodeType
from typing import Dict, Iterator, Optional, Set

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "iceflower")


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: str, text: str) -> Set[int]:
    """The lines of the source text of one file that hold at least one
    instruction."""
    code = compile(text, path, "exec")
    return {
        line
        for co in _code_objects(code)
        for _, _, line in co.co_lines()
        if line
    }


def main(argv) -> int:
    import pytest

    modules = sorted(
        os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")
    )
    sources: Dict[str, str] = {}
    for path in modules:
        with open(path, encoding="utf-8") as fh:
            sources[path] = fh.read()
    lines_of = {path: executable_lines(path, text) for path, text in sources.items()}
    ran: Dict[str, Set[int]] = {path: set() for path in modules}
    watched: Dict[str, Optional[Set[int]]] = {}  # co_filename -> its set in ran, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            watched[name] = ran.get(os.path.realpath(name))
        lines = watched[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print()
    total = 0
    summary = []
    for path in modules:
        source = sources[path].splitlines()
        missed = sorted(lines_of[path] - ran[path])
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print("%s:%d: %s" % (rel, line, source[line - 1].strip()))
        summary.append("%6d  %s" % (len(missed), rel))
        total += len(missed)
    print()
    print("\n".join(summary))
    print("%6d  untested lines in all" % total)
    return int(code)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)  # as `python -m pytest` run from the root has it
    sys.exit(main(sys.argv[1:]))
