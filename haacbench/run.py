#!/usr/bin/env python3
"""haac-bench entry point: build the benchmark, run one workload, relay
its result.

    python3 haacbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
haacbench/ (which builds the haac library from ../src) in Release into
$CARGO_TARGET_DIR/haacbench, default .bench_build/haacbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON summary. The traced run also
writes a Chrome trace-event file to <build dir>/traces/.

Exit status: the benchmark's own (0 = every output correct), or nonzero
if the build fails or the summary does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "haacbench"


def build(out):
    """Configure once, then build the benchmark binary incrementally."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "haac_bench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return out / "haac_bench"


def expected_metrics(trace):
    """Metric names the summary must carry, from BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    bench = json.loads(spec.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="Chrome trace path (traced run)")
    ap.add_argument("--inject-defect", action="store_true",
                    help="flip one expected output bit (canary)")
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_out = args.trace_out
        if trace_out is None:
            traces = out / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_out = traces / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    if args.inject_defect:
        cmd.append("--inject-defect")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: benchmark exited {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 3

    summary = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    if want is not None and got != want:
        print(f"run.py: metrics {sorted(got)} do not match "
              f"BENCHMARK.json {sorted(want)}", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
