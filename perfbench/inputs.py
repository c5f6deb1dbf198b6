"""Seeded inputs of the plan-service benchmark.

Everything a workload sends is derived here from ``(workload, seed)``:

* a device mix drawn from the repo's own speed profiles -- the paper's
  Fig. 2 shapes: :class:`CacheHierarchyProfile` CPU cores,
  :class:`GpuProfile` accelerators and :class:`WigglyProfile` BLAS-like
  curves -- measured through :class:`PlatformBenchmark` in virtual time,
  so the point files are identical on every run with the same seed;
* the request stream (which totals, in which order);
* the feedback oracle: the times an app "observes" when it runs a plan
  on the generating devices, with a seeded drift and noise.

All of it is computed before the server is spawned, outside both the
set-up time and the timed phase.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.core.benchmark import PlatformBenchmark
from repro.io.files import save_points
from repro.platform.cluster import Node, Platform
from repro.platform.device import Device, DeviceKind
from repro.platform.noise import GaussianNoise
from repro.platform.profiles import (
    CacheHierarchyProfile,
    GpuProfile,
    WigglyProfile,
)

#: Arithmetic operations per computation unit (the CLI's default kernel,
#: one 32x32 block update).
UNIT_FLOPS = 2.0 * 32**3
#: Measured sizes per device; the partitioner's models interpolate them.
POINTS_PER_DEVICE = 24
#: Smallest measured size.
MIN_SIZE = 16


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair."""
    return np.random.default_rng([int(seed), *stream])


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def make_devices(count: int, seed: int) -> List[Device]:
    """A seeded heterogeneous mix: half CPU cores, a fifth GPUs, the rest
    BLAS-like wiggly curves, each with jittered parameters.

    The seed shuffles the order and draws the parameters; the share of
    each family is fixed, so seeds differ less in what a request costs.
    """
    rng = _rng(seed, 1, count)
    cpus, gpus = round(count * 0.5), round(count * 0.2)
    families = [0] * cpus + [1] * gpus + [2] * (count - cpus - gpus)
    rng.shuffle(families)
    devices: List[Device] = []
    for rank, family in enumerate(families):
        if family == 0:
            peak = _log_uniform(rng, 2.0e9, 6.0e9)
            profile = CacheHierarchyProfile(
                levels=[(_log_uniform(rng, 300.0, 800.0), peak),
                        (_log_uniform(rng, 3000.0, 8000.0), 0.75 * peak)],
                paged_flops=0.12 * peak,
                transition_width=0.15,
            )
            kind = DeviceKind.CPU_CORE
        elif family == 1:
            profile = GpuProfile(
                peak_flops=_log_uniform(rng, 4.0e10, 1.2e11),
                ramp_units=_log_uniform(rng, 1500.0, 4000.0),
                memory_limit_units=_log_uniform(rng, 40000.0, 80000.0),
                out_of_core_factor=float(rng.uniform(0.4, 0.7)),
            )
            kind = DeviceKind.GPU
        else:
            scale = _log_uniform(rng, 0.6, 1.6)
            humps = [
                (float(c) * scale, float(rng.uniform(-0.18, 0.12)),
                 float(rng.uniform(120.0, 250.0)) * scale)
                for c in sorted(rng.uniform(500.0, 4000.0, size=3))
            ]
            profile = WigglyProfile(
                peak_flops=_log_uniform(rng, 3.0e9, 6.0e9),
                rise_units=_log_uniform(rng, 100.0, 200.0),
                decay_per_unit=_log_uniform(rng, 2.0e-5, 6.0e-5),
                humps=humps,
            )
            kind = DeviceKind.CPU_CORE
        devices.append(Device(f"dev{rank:03d}", profile, kind=kind,
                              noise=GaussianNoise(0.02)))
    return devices


def measured_sizes(max_total: int) -> List[int]:
    """Geometric sizes from :data:`MIN_SIZE` up to ``max_total``, so every
    share of every requested total lies inside the measured range."""
    raw = np.geomspace(MIN_SIZE, max_total, POINTS_PER_DEVICE)
    return sorted({int(round(d)) for d in raw})


def write_point_files(
    devices: Sequence[Device], max_total: int, seed: int, out: Path
) -> None:
    """Measure every device at :func:`measured_sizes` and write one
    ``rankNNN.points`` file per device, as ``fupermod build`` does."""
    platform = Platform([Node(f"n{r:03d}", [d]) for r, d in enumerate(devices)])
    bench = PlatformBenchmark(platform, UNIT_FLOPS, seed=int(seed))
    sizes = measured_sizes(max_total)
    out.mkdir(parents=True, exist_ok=True)
    for rank in range(len(devices)):
        save_points(out / f"rank{rank:03d}.points",
                    [bench.measure(rank, d) for d in sizes])


def distinct_totals(count: int, lo: int, hi: int, seed: int, stream: int) -> List[int]:
    """``count`` distinct totals drawn uniformly from ``[lo, hi)``."""
    rng = _rng(seed, 2, stream)
    out: List[int] = []
    seen = set()
    while len(out) < count:
        total = int(rng.integers(lo, hi))
        if total not in seen:
            seen.add(total)
            out.append(total)
    return out


def uniform_picks(count: int, choices: int, seed: int, stream: int) -> List[int]:
    """``count`` seeded uniform indices into ``range(choices)``."""
    rng = _rng(seed, 3, stream)
    return [int(i) for i in rng.integers(0, choices, size=count)]


def sample_indices(count: int, population: int, seed: int, stream: int) -> List[int]:
    """``count`` distinct seeded indices into ``range(population)``, sorted."""
    rng = _rng(seed, 4, stream)
    return sorted(int(i) for i in rng.choice(population, size=count, replace=False))


class FeedbackOracle:
    """The times an app observes when it runs a plan on the real devices.

    A seeded eighth of the devices slows down linearly over the run, up to
    :attr:`DRIFT` times slower by the last round; every observed time also
    carries uniform noise of +-:attr:`NOISE`.  The oracle is a pure
    function of ``(seed, round, sizes)``, so a replay observes the same.
    """

    DRIFT = 1.5
    NOISE = 0.03

    def __init__(self, devices: Sequence[Device], rounds: int, seed: int) -> None:
        self.devices = list(devices)
        self.rounds = max(1, int(rounds))
        self.seed = int(seed)
        count = len(self.devices)
        rng = _rng(seed, 5, count)
        self.drifting = frozenset(
            int(i) for i in rng.choice(count, size=max(1, count // 8), replace=False)
        )

    def slowdown(self, rank: int, round_no: int) -> float:
        """Multiplicative drift of ``rank`` at round ``round_no``."""
        if rank not in self.drifting:
            return 1.0
        frac = min(1.0, round_no / max(1, self.rounds - 1))
        return 1.0 + (self.DRIFT - 1.0) * frac

    def observe(self, round_no: int, app: int, sizes: Sequence[int]) -> List[float]:
        """Per-rank seconds for running ``sizes`` at ``round_no``."""
        rng = _rng(self.seed, 6, round_no, app)
        noise = rng.uniform(-self.NOISE, self.NOISE, size=len(sizes))
        out = []
        for rank, (device, d) in enumerate(zip(self.devices, sizes)):
            ideal = device.ideal_time(UNIT_FLOPS * d, d)
            out.append(float(ideal * self.slowdown(rank, round_no) * (1.0 + noise[rank])))
        return out
