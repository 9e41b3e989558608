"""The iceflower benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload dnsp --seed 0 --seconds 28 --trace 0

One client, closed loop: each item starts when the previous one returns.
Every pass runs in a fresh interpreter (perfbench/onepass.py), one at a
time, so per-process caches start cold and peak RSS is per pass.  Passes
repeat while the next one is expected to end within --seconds; there is
always at least one.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced passes and reports
the per-layer metrics, the tracing overhead among them.  Every time is read
on the reference clock of refclock.py, which takes out the drift of the
machine's speed.

Every output is checked; the canonical outputs are hashed and compared with
perfbench/digests.json.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # per pass, and once more after the last
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the passes import iceflower from this checkout only
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list, deadline: float) -> str:
    """Run a fresh interpreter to completion and return its standard output."""
    try:
        proc = subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish within %.0f s" % RUN_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d:\n%s" % (argv[0], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def setup_probe(deadline: float) -> float:
    """Reference-speed seconds a fresh interpreter takes to import iceflower."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import refclock; clock = refclock.RefClock(0.01); "
        "clock.start(); t = clock.now(); import iceflower; t = clock.now() - t; clock.stop(); print(t)"
        % (str(SRC), str(HERE))
    )
    return float(run_child(["-c", code], deadline).split()[-1])


def one_pass(args, traced: bool, deadline: float) -> dict:
    argv = [
        str(HERE / "onepass.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", "1" if traced else "0",
    ]
    if traced:
        argv += ["--spans-out", str(OUT / ("spans_%s_%s_seed%d.json" % (args.workload, args.size, args.seed)))]
    if args.corrupt:
        argv.append("--corrupt")
    return json.loads(run_child(argv, deadline).splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "iceflower" / "__init__.py").is_file():
        raise BenchError("run from a checkout of iceflower: %s or %s is missing" % (spec_path, SRC / "iceflower"))
    spec = json.loads(spec_path.read_text())

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke size of the self-test")
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    recorded = json.loads((HERE / "digests.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    # Set-up is probed before every pass and once more at the end, so that
    # its median spans the whole run.
    setup = []
    probes = SETUP_PROBES if not args.trace else 0
    setup_probe(deadline)  # the first import in a checkout also compiles bytecode
    passes = {False: [], True: []}
    needed = (False, True) if args.trace else (False,)
    modes = itertools.cycle(needed)
    durations = []
    window = time.monotonic()
    while True:
        setup += [setup_probe(deadline) for _ in range(probes)]
        traced = next(modes)
        t0 = time.monotonic()
        passes[traced].append(one_pass(args, traced, deadline))
        durations.append(time.monotonic() - t0)
        if all(passes[m] for m in needed):
            now = time.monotonic()
            expected = statistics.mean(durations)
            if now - window + expected > args.seconds or now + 1.5 * max(durations) > deadline:
                break
    setup += [setup_probe(deadline) for _ in range(probes)]
    everything = passes[False] + passes[True]

    # -- correctness ------------------------------------------------------
    failures = [f for p in everything for f in p["failures"]]
    problems = []
    if len({p["digest"] for p in everything}) > 1:
        problems.append("outputs differ between passes of one seed")
    if len({json.dumps(p["counts"]) for p in everything}) > 1:
        problems.append("exact work counts differ between passes of one seed")
    want = recorded[args.size]
    first = everything[0]
    fixed_ok = first["fixed_digest"] == want["fixed"].get(args.workload)
    if not fixed_ok:
        problems.append("seed-independent outputs differ from the recorded digest")
    default_seed = args.seed == recorded["default_seed"]
    seed_ok = first["digest"] == want["default_seed"].get(args.workload)
    if default_seed and not seed_ok:
        problems.append("outputs of the default seed differ from the recorded digest")
    attempted = sum(p["items"] for p in everything)
    failed = min(attempted, len(failures) + len(problems))

    # -- metrics ----------------------------------------------------------
    plain = passes[False]
    computed = {}
    if args.trace:
        for name in passes[True][0]["layers"]:
            computed[name] = statistics.median(p["layers"][name] for p in passes[True])
        computed["trace.spans"] = statistics.median(p["spans"] for p in passes[True])
        computed["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes[True])
            - statistics.median(p["wall_s"] for p in plain)
        )
        wanted = spec["per_layer"]
    else:
        latencies_ms = [x * 1e3 for p in plain for x in p["latencies_s"]]
        computed = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "item_p50_ms": statistics.median(latencies_ms),
            "item_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    # -- report -----------------------------------------------------------
    host = machine()
    print("# iceflower benchmark: workload=%s seed=%d size=%s trace=%d seconds=%g"
          % (args.workload, args.seed, args.size, args.trace, args.seconds))
    print("# commit=%s python=%s networkx=%s" % (host["commit"], first["python"], first["networkx"]))
    print("# cpu=%s nproc=%d" % (host["cpu"], host["nproc"]))
    print("# passes: %d untraced, %d traced; items per pass: %d; setup probes: %d"
          % (len(plain), len(passes[True]), first["items"], len(setup)))
    print("# attempted=%d failed=%d fail_frac=%.6f" % (attempted, failed, failed / attempted))
    for line in (failures + problems)[:20]:
        print("# FAIL %s" % line)
    print("# digest=%s (%s)" % (first["digest"], "matches the record" if default_seed and seed_ok
                                else "no record for this seed" if not default_seed else "MISMATCH"))
    print("# fixed digest=%s (%s)" % (first["fixed_digest"], "matches the record" if fixed_ok else "MISMATCH"))
    for name, value in first["counts"].items():
        print("# count %s = %d" % (name, value))
    print("# reference loop: median %.1f us against %.1f us; wall-clock wall_s median %.6f s"
          % (statistics.median(p["reference_loop_s"] for p in everything) * 1e6, refclock.REFERENCE_S * 1e6,
             statistics.median(p["raw_wall_s"] for p in everything)))
    if not args.trace:
        print("# item latencies: %d samples, %d beyond p90"
              % (len(latencies_ms), sum(x > computed["item_p90_ms"] for x in latencies_ms)))
    for name, m in metrics.items():
        print("%-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        sys.exit(2)
