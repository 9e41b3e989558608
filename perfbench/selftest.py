"""Self-tests of the benchmark, at the tiny smoke size.

    python3 perfbench/selftest.py

Checks that every workload runs and prints every metric of BENCHMARK.json
with its unit, that a damaged output raises the failure count and breaks
the digest, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "tiny"] + list(extra),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        proc = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0][-1], m["unit"], m["name"])
        if not trace:
            for name in ("wall_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb"):
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_every_workload_untraced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_every_workload_traced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)


class CorruptionTest(unittest.TestCase):
    def test_dropped_solution_fails_and_breaks_digest(self) -> None:
        proc = bench("--workload", "dnsp", "--seed", "0", "--trace", "0", "--corrupt")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("the encoded matrix is not among the solutions", proc.stdout)
        self.assertIn("outputs of the default seed differ from the recorded digest", proc.stdout)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_program(self) -> None:
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench("--workload", "palette", "--seed", "0", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
