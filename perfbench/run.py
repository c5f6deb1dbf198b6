"""Plan-service benchmark: one closed-loop workload against ``fupermod serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hit-64 --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it spawns the
server (``--http``, ``--cache-file`` in a fresh directory) once untimed so
the file caches are warm, then the workload's ``launches`` times to time
set-up, and runs the untimed warm phase and the timed phase on the last
launch.  With ``--trace 1`` it runs the timed phase twice on fresh
servers, plain and then through ``launcher.py``, and reports the
per-layer metrics from the spans.  Timings are expressed in reference
time (see ``hostspeed.py``).

Every response is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from layers import UNITS, layer_metrics, load_trace
from loadgen import ServerError, ServerProcess
from stats import percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout; removed at the end of every run.
WORK_ROOT = ROOT / ".perfbench_work"
#: Seconds after which every remaining request fails at once, so a stuck
#: server still yields a result well inside the 180-second run limit.
RUN_BUDGET = 140.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One invocation: the workload, its scratch directory, the checks'
    outcome, the run's deadline and the wall time of each phase."""

    def __init__(self, workload, work: Path, outcome) -> None:
        self.workload = workload
        self.work = work
        self.outcome = outcome
        self.deadline = time.monotonic() + RUN_BUDGET
        self.phases = {}
        self.samples = []
        self._mark = time.perf_counter()

    def done(self, phase: str) -> None:
        """Close the current phase under the name ``phase``."""
        now = time.perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + now - self._mark
        self._mark = now

    def server(self, tag: str, extra=(), trace_dir=None) -> ServerProcess:
        """``fupermod serve`` on the workload's points, caching under a
        fresh directory of its own."""
        cache = self.work / f"cache-{tag}"
        cache.mkdir()
        return ServerProcess(
            ROOT,
            ["--points", str(self.workload.points), "--cache-file",
             str(cache / "plans"), *extra],
            trace_dir=trace_dir, deadline=self.deadline,
        )


class Launch:
    """One server launch: spawned and probed (the set-up time), then driven.

    Reference-task samples taken before the spawn, every 50 ms while the
    server starts, and after the probe's answer give ``setup_speed``, the
    host speed over the set-up time.
    """

    def __init__(self, run: Run, tag: str, trace_dir=None) -> None:
        from workloads import exchange

        self.run = run
        samples = [hostspeed.sample()]
        self.server = run.server(tag, run.workload.serve_args, trace_dir).start(
            tick=lambda: samples.append(hostspeed.sample()))
        try:
            self.client = self.server.client()
            probe = exchange(self.client, "plan", f"s-{tag}",
                             run.workload.probe_payload())
            self.setup_s = probe.start + probe.rtt - self.server.started_at
            samples.append(hostspeed.sample())
            self.setup_speed = statistics.fmean(samples)
            run.outcome.ops.append(probe)
            run.workload.check_probe(probe, run.outcome)
        except BaseException:
            self.server.stop()
            raise

    def warm(self) -> None:
        """The workload's untimed warm phase."""
        self.run.workload.warm(self.client, self.run.outcome)

    def timed(self, steps: range):
        """The timed phase over ``steps``, in the workload's slices, with a
        reference-task sample before each and after the last.  Returns
        ``(host speed, seconds, ops)`` per slice, the speed being the mean
        of the samples either side of it; only the slices are timed."""
        workload, outcome = self.run.workload, self.run.outcome
        samples, parts = [hostspeed.sample()], []
        for lo in range(steps.start, steps.stop, workload.slice):
            first = len(outcome.ops)
            start = time.perf_counter()
            workload.timed(self.client, outcome,
                           range(lo, min(lo + workload.slice, steps.stop)))
            parts.append((time.perf_counter() - start, outcome.ops[first:]))
            samples.append(hostspeed.sample())
        self.run.samples = samples
        return [((before + after) / 2, seconds, ops) for before, after, (seconds, ops)
                in zip(samples, samples[1:], parts)]

    def finish(self):
        """``(metrics document, peak RSS in MB)``, then stop the server."""
        try:
            metrics = self.client.get("/metrics").get("metrics", {})
        except ServerError as exc:
            self.run.outcome.problems.append(f"no /metrics: {exc}")
            metrics = {}
        try:
            rss = self.server.rss_mb()
        finally:
            self.client.close()
            self.server.stop()
        return metrics, rss


def end_to_end(run: Run, slices, setups, rss):
    """The end-to-end metrics of one run in reference time, and the same
    timings as measured (``raw``, for the log).

    Each operation's round trip and each slice's duration are scaled by
    the host speed around its slice, and each launch's set-up time by the
    host speed over it.
    """
    plans, raw_plans, done, seconds, raw_seconds = [], [], 0, 0.0, 0.0
    for speed, elapsed, ops in slices:
        for op in ops:
            if op.kind == "plan" and op.ok:
                raw_plans.append(op.rtt * 1e3)
                plans.append(hostspeed.reference(op.rtt * 1e3, speed))
        done += sum(1 for op in ops if op.ok)
        seconds += hostspeed.reference(elapsed, speed)
        raw_seconds += elapsed
    if samples_beyond(len(plans), 90) < 10:
        run.outcome.problems.append(
            f"{len(plans)} plan samples leave fewer than ten beyond p90")

    def p(values, q):
        return percentile(values, q) if values else 0.0

    raw = {
        "setup_s": statistics.median(s for s, _speed in setups),
        "throughput_rps": done / raw_seconds,
        "latency_p50_ms": p(raw_plans, 50),
        "latency_p90_ms": p(raw_plans, 90),
    }
    return {
        "setup_s": (statistics.median(
            hostspeed.reference(s, speed) for s, speed in setups), "s"),
        "throughput_rps": (done / seconds, "1/s"),
        "latency_p50_ms": (p(plans, 50), "ms"),
        "latency_p90_ms": (p(plans, 90), "ms"),
        "server_rss_mb": (rss, "MB"),
    }, raw


def measure(run: Run):
    """``--trace 0``: one untimed launch, then the workload's launches.

    The untimed launch only warms the file caches (interpreter, modules,
    point files): a single server, stopped once it has bound its port.
    The last timed launch runs the warm phase and the timed phase.
    """
    run.server("untimed").start().stop()
    run.done("untimed_launch")
    setups, launch = [], None
    for i in range(run.workload.launches):
        if launch is not None:
            launch.finish()
        launch = Launch(run, str(i))
        setups.append((launch.setup_s, launch.setup_speed))
    run.done("launches")
    try:
        launch.warm()
        slices = launch.timed(range(run.workload.steps()))
    finally:
        metrics, rss = launch.finish()
    run.done("timed")
    run.workload.verify(metrics, run.outcome)
    run.done("verify")
    return end_to_end(run, slices, setups, rss)


def trace(run: Run):
    """``--trace 1``: the timed phase plain, then traced; per-layer metrics.

    ``trace.overhead_frac`` compares the two timed phases in reference
    time, so a host phase that covers one run and not the other cancels.
    """
    everything = range(run.workload.steps())
    durations = []
    for tag in ("plain", "traced"):
        trace_dir = None
        if tag == "traced":
            trace_dir = run.work / "trace"
            trace_dir.mkdir()
        launch = Launch(run, tag, trace_dir=trace_dir)
        try:
            launch.warm()
            slices = launch.timed(everything)
        finally:
            metrics, _rss = launch.finish()
        run.workload.verify(metrics, run.outcome)
        run.done(f"{tag}_run")
        durations.append(sum(hostspeed.reference(elapsed, speed)
                             for speed, elapsed, _ops in slices))
    spans, leaves = load_trace(trace_dir)
    ops = [op for _speed, _s, part in slices for op in part]
    values = layer_metrics(spans, leaves, ops, metrics, run.workload.refit_outcomes(),
                           durations[1] / durations[0] - 1.0)
    return {name: (values[name], unit) for name, unit in UNITS.items()}, {}


def pin_to_one_cpu() -> int:
    """Pin this process, and so every server it spawns from now on, to
    one CPU, and return that CPU.  The reference task then runs on the
    CPU the server runs on, so it sees the host phase the server sees.
    In a closed loop with one client only one process runs at a time, so
    the request path loses no parallelism; a fleet's background threads
    (health polls, replica pushes) share the CPU with it, so the figures
    are those of a single-CPU deployment."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    run = Run(WORKLOADS[args.workload](work, args.seed, args.seconds), work, Outcome())
    try:
        run.workload.prepare()
        run.done("prepare")
        nproc = len(os.sched_getaffinity(0))
        cpu = pin_to_one_cpu()
        metrics, raw = trace(run) if args.trace else measure(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass   # another run still uses it
    outcome = run.outcome
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    for note in outcome.notes:
        print(f"# note: {note}")
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"# host nproc={nproc} loadavg={load} pinned_cpu={cpu}")
    print("# phases " + " ".join(f"{k}={v:.2f}s" for k, v in run.phases.items()))
    if run.samples:
        print(f"# reference task: {len(run.samples)} samples, median "
              f"{percentile(run.samples, 50) * 1e6:.1f} us, p90 "
              f"{percentile(run.samples, 90) * 1e6:.1f} us "
              f"(nominal {hostspeed.NOMINAL_S * 1e6:.0f} us)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}"
              + (f" (measured {raw[name]:.6g})" if name in raw else ""))
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": len(outcome.ops),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
