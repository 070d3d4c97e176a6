"""Self-tests of haac-bench: canary, metric coverage, replay and
determinism cross-checks, Chrome trace shape, and the build gate.

Build the benchmark first (any run.py call does), then from the
repository root:

    python3 -m unittest discover -s haacbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (haacbench/run.py)

ROOT = HERE.parent.parent
BINARY = run.build_dir() / "haac_bench"
SECONDS = "0.5"
SESSION_WORKLOADS = ("session_cold", "session_warm", "session_chained")
WORKLOADS = SESSION_WORKLOADS + ("compile_sim",)

# The end-to-end metrics under their descriptive names, per kind.
SESSION_RECORD = {
    "session_p50_ms": "ms", "session_p90_ms": "ms",
    "sessions_per_s": "1/s", "cpu_ms_per_session": "ms",
    "bytes_per_session": "B", "failed_frac": "ratio", "setup_s": "s",
    "peak_rss_mb": "MiB",
}
COMPILE_RECORD = {
    "suite_s": "s", "suite_p90_s": "s", "sim_cycles": "cycles", "failed_frac": "ratio",
    "setup_s": "s", "peak_rss_mb": "MiB",
}


def bench(workload, seed=1, trace=0, extra=()):
    """Run the binary; return (exit code, record, summary)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    summary = json.loads(lines[-1])
    return proc.returncode, record, summary


class HaacBenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        if not BINARY.exists():
            raise unittest.SkipTest(f"build the benchmark first: {BINARY}")
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def cached(self, workload, seed=1, trace=0):
        key = (workload, seed, trace)
        if key not in self.runs:
            self.runs[key] = bench(workload, seed, trace)
        return self.runs[key]

    def test_canary_flipped_expected_bit_fails_every_attempt(self):
        for workload in ("session_chained", "compile_sim"):
            code, record, summary = bench(workload,
                                          extra=("--inject-defect",))
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(summary["correct"])
            self.assertEqual(summary["failed"], summary["attempted"])
            self.assertEqual(record["metrics"]["failed_frac"]["value"], 1)

    def test_every_metric_printed_with_unit(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in WORKLOADS:
            code, record, summary = self.cached(workload)
            self.assertEqual(code, 0, workload)
            self.assertTrue(summary["correct"])
            self.assertEqual(record["metrics"]["failed_frac"]["value"], 0)
            want = (COMPILE_RECORD if workload == "compile_sim"
                    else SESSION_RECORD)
            for name, unit in want.items():
                self.assertEqual(record["metrics"][name]["unit"], unit,
                                 f"{workload} {name}")
            self.assertEqual({k: v["unit"] for k, v in
                              summary["metrics"].items()}, e2e)
            for v in summary["metrics"].values():
                self.assertGreater(v["value"], 0, workload)

            code, _, traced = self.cached(workload, trace=1)
            self.assertEqual(code, 0, workload)
            self.assertEqual({k: v["unit"] for k, v in
                              traced["metrics"].items()}, layers)

    def test_traced_replay_traffic_equals_real_sessions(self):
        for workload in SESSION_WORKLOADS:
            code, record, summary = self.cached(workload, trace=1)
            self.assertEqual(code, 0, workload)
            m = summary["metrics"]
            self.assertEqual(m["trace.replay_mismatches"]["value"], 0,
                             workload)
            self.assertEqual(m["net.bytes_per_session"]["value"],
                             record["metrics"]["bytes_per_session"]["value"])
            self.assertLess(abs(m["trace.unattributed_frac"]["value"]),
                            0.5, workload)

    def test_breakdown_matches_workload_design(self):
        cold = self.cached("session_cold", trace=1)[2]["metrics"]
        warm = self.cached("session_warm", trace=1)[2]["metrics"]
        setup = (cold["gc.ot_setup.garbler_ms"]["value"] +
                 cold["gc.ot_setup.evaluator_ms"]["value"]) / 2
        self.assertGreater(setup,
                           0.5 * cold["trace.session_p50_ms"]["value"])
        self.assertEqual(warm["gc.ot_setup.garbler_ms"]["value"], 0)
        self.assertEqual(warm["gc.ot_setup.evaluator_ms"]["value"], 0)
        sim = self.cached("compile_sim", trace=1)[2]["metrics"]
        self.assertLess(sim["trace.unattributed_frac"]["value"], 0.1)

    def test_counts_repeat_exactly_across_seeds(self):
        for workload in WORKLOADS:
            name = ("sim_cycles" if workload == "compile_sim"
                    else "bytes_per_session")
            a = self.cached(workload, seed=1)[1]["metrics"][name]["value"]
            b = self.cached(workload, seed=2)[1]["metrics"][name]["value"]
            self.assertEqual(a, b, workload)

    def test_chrome_trace_loads_with_span_fields(self):
        out = run.build_dir() / "traces" / "test-session_warm.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        code, _, _ = bench("session_warm", trace=1,
                           extra=("--trace-out", str(out)))
        self.assertEqual(code, 0)
        events = json.loads(out.read_text())["traceEvents"]
        self.assertTrue(events)
        names = set()
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            for key in ("id", "parent", "session", "party"):
                self.assertIn(key, e["args"])
            names.add(e["name"])
        for span in ("session", "net.request", "gc.ot_ext.evaluator",
                     "gc.evaluate", "net.table_wait", "gc.garble"):
            self.assertIn(span, names)

    def test_refuses_to_run_without_the_source_tree(self):
        tmp = run.build_dir() / "tests-bare-checkout"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE.parent, tmp / "haacbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "haacbench/run.py", "--workload",
                 "session_warm", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170,
                env={**os.environ,
                     "CARGO_TARGET_DIR": str(tmp / ".bench_build")})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
