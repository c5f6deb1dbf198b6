"""Run the benchmark several times and summarise each metric across runs.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workload hit-64 --seeds 1-10 --seconds 10

Each run gets its own ``--seed``.  For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, the spread a later change is
compared against, and the same for each timing as measured, before the
host-speed correction.  Each run's host (``nproc`` and load average) is
printed beside its figures, so a run on a busy host can be recognised.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from stats import summarize

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> List[int]:
    """``"1-5"`` or ``"1,4,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """One benchmark run: its result object, host line and wall time."""
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((m.group(1) for m in map(re.compile(r"# host (.*)").match, lines) if m), "")
    result["host"] = host
    result["measured"] = {m.group(1): float(m.group(2)) for m in map(
        re.compile(r"# (\S+) = \S+ \S+ \(measured (\S+)\)").match, lines) if m}
    result["wall_s"] = time.perf_counter() - began
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s {result['host']} | "
              f"{figures}", flush=True)
    print(f"{'metric':30} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        s = summarize([r["metrics"][name]["value"] for r in runs])
        print(f"{name:30} {first['unit']:>8} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:8.2%}")
    for name in runs[0]["measured"]:
        s = summarize([r["measured"][name] for r in runs])
        print(f"{name + ' (measured)':30} {'':>8} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:8.2%}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
