"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/onepass.py --workload dnsp --seed 0 --size full --trace 0

Runs every item of the workload once and times it on the reference clock
of refclock.py; the wall-clock total is reported beside it.  Between items,
outside the timed regions, it checks the item's output, hashes its canonical
text and adds up its exact work counts.  The last line of standard output
is one JSON object with the results.  With --trace 1 every library call
gets a span; the spans are written to --spans-out when the pass ends and
the per-layer numbers are derived from them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="file for the spans of a traced pass")
    ap.add_argument("--corrupt", action="store_true", help="damage one output (self-test only)")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import iceflower
    if not Path(iceflower.__file__).resolve().is_relative_to(SRC.resolve()):
        print("iceflower was imported from %s, not from %s" % (iceflower.__file__, SRC), file=sys.stderr)
        return 2

    import networkx
    import refclock
    import tracer
    import workloads

    size = workloads.SIZES[args.size]
    clock = refclock.RefClock()
    tr = tracer.Tracer(clock.now) if args.trace else tracer.NoTrace()
    failures = []
    digest = hashlib.sha256()
    fixed_digest = hashlib.sha256()
    counts: Counter = Counter()
    latencies = []
    wall_s = 0.0
    corrupted = not args.corrupt
    workdir = ROOT / ".perfbench_out" / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.ITEMS[args.workload](random.Random(args.seed), size, str(workdir))
        gc.collect()
        clock.start()
        # The stream generates each item's input when asked for it; an
        # output is dropped after its check unless the stream keeps it.
        for n, item in enumerate(items):
            w0, x0, t0 = time.perf_counter(), clock.wall_excluded, clock.now()
            try:
                with tr.span("item", item.kind):
                    item.output = item.work(tr)
            except Exception as e:  # an item that raises is a failed item
                item.output = e
            latencies.append(clock.now() - t0)
            wall_s += time.perf_counter() - w0 - (clock.wall_excluded - x0)
            if not corrupted:
                corrupted = workloads.corrupt(item)
            try:
                if isinstance(item.output, Exception):
                    raise item.output
                item.check(item.output)
                text = item.canon(item.output)
                counts.update(item.counts(item.output))
            except Exception as e:  # a failed check, or an output too broken to check
                failures.append("item %d (%s): %s: %s" % (n, item.kind, type(e).__name__, e))
                text = "failed"
            chunk = ("%s\n%s\n" % (item.kind, text)).encode()
            digest.update(chunk)
            if item.fixed:
                fixed_digest.update(chunk)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "wall_s": sum(latencies),
        "raw_wall_s": wall_s,
        "reference_loop_s": statistics.median(clock.samples),
        "latencies_s": latencies,
        "rss_mb": rss_mb,
        "items": len(latencies),
        "failures": failures,
        "digest": digest.hexdigest(),
        "fixed_digest": fixed_digest.hexdigest(),
        "counts": dict(sorted(counts.items())),
        "python": sys.version.split()[0],
        "networkx": networkx.__version__,
    }
    if args.trace:
        result["layers"] = workloads.layer_metrics(tr.totals(), counts, size)
        result["spans"] = len(tr.spans)
        if args.spans_out:
            tr.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
