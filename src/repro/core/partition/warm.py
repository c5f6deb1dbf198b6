"""Warm starts for the iterative partitioners.

The serving layer (:mod:`repro.serve`) answers near-identical partition
requests over and over: the same fitted models, queried at a sequence of
nearby totals.  The solution of one request is an excellent *seed* for the
next -- the equal-time level ``T`` of the geometrical algorithm scales
almost proportionally with the total, and the per-process shares scale
with it.

A :class:`WarmStart` packages that seed: the source plan's total, its
equal-time level (the predicted makespan) and its integer shares.  The
iterative partitioners accept one through their ``warm_start`` parameter
and use it only to *skip work* -- never to change the probed levels, the
stopping criterion or the rounding -- so a warm-started solve converges
to the same distribution a cold solve finds, in fewer (or at worst
equally many) iterations.  That invariant is what lets the plan
cache substitute warm results for cold ones bit-for-bit; the parity suite
(``tests/test_serve_warm_parity.py``) enforces it for every registered
partitioner and model family.

A hint that turns out to be wrong (e.g. from unrelated models) cannot
produce a wrong answer: bracket candidates are validated against the
bisection invariant before the bisection trusts their signs.

Skipping is exact only over models whose ``allocation_batch`` depends on
the level alone (``exact_inverse``: the closed-form constant, linear and
piecewise inversions).  The generic inversion narrows its own search by
the allocations of earlier bisection steps, so a skipped step would
change its last bits; over such models the hint is ignored and the solve
runs cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import PartitionError


@dataclass(frozen=True)
class WarmStart:
    """A previously solved plan, offered as a seed for a nearby request.

    Attributes:
        total: the source plan's problem size ``D`` in computation units.
        level: the source plan's equal-time level ``T`` in seconds
            (its predicted makespan).
        sizes: the source plan's integer per-process shares.
    """

    total: int
    level: float
    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise PartitionError(
                f"warm start needs a positive source total, got {self.total}"
            )
        if not self.level > 0.0:
            raise PartitionError(
                f"warm start needs a positive level, got {self.level}"
            )
        if any(d < 0 for d in self.sizes):
            raise PartitionError(
                f"warm start sizes must be non-negative: {list(self.sizes)}"
            )

    def scaled_level(self, total: int) -> float:
        """The equal-time level hint for a problem of size ``total``.

        First-order scaling: the level grows proportionally with the
        total (exact for constant-speed models, a good bracket centre for
        any FPM shape).
        """
        return self.level * float(total) / float(self.total)

    def scaled_sizes(self, total: int) -> List[float]:
        """Continuous per-process shares rescaled to sum to ``total``."""
        src = float(sum(self.sizes))
        if src <= 0.0:
            n = max(len(self.sizes), 1)
            return [float(total) / n] * len(self.sizes)
        return [d * float(total) / src for d in self.sizes]


def warm_start_from(dist, total: int = 0) -> WarmStart:
    """Extract a :class:`WarmStart` from a solved distribution.

    Args:
        dist: a :class:`~repro.core.partition.dist.Distribution` with
            model-predicted part times (any partitioner output).
        total: override for the source total (defaults to ``dist.total``).

    Raises:
        PartitionError: if the distribution carries no positive predicted
            time (a warm start needs a level to scale).
    """
    src_total = total if total > 0 else dist.total
    level = max((p.t for p in dist.parts), default=0.0)
    if not level > 0.0:
        raise PartitionError(
            "cannot derive a warm start: distribution has no positive "
            "predicted time"
        )
    return WarmStart(
        total=src_total, level=level, sizes=tuple(p.d for p in dist.parts)
    )


#: Candidate levels probed around a hint, as multiples of its scaled level.
_LADDER = (0.5, 0.9, 0.97, 0.99, 0.997, 1.003, 1.01, 1.03, 1.1, 2.0)


def warm_bracket(
    warm: WarmStart,
    total: int,
    models: Sequence,
    cap: float,
    t_hi: float,
) -> Optional[Tuple[float, float]]:
    """The root bracket a warm hint certifies for the geometric bisection.

    Probes a small batch of candidate levels around the scaled hint (one
    :func:`~repro.core.partition.batch.allocations_at_levels` call) and
    keeps the tightest pair ``(lo, hi)`` with ``excess(lo) < 0 <
    excess(hi)`` (strictly: the bisection stops early on an exact zero,
    so a level whose sign is to be trusted must not be one).  Candidates
    that break the invariant are simply discarded, so a misleading hint
    degrades to ``None`` -- a cold solve -- rather than to a wrong answer.

    The bisection does not *start* from this bracket: it replays the cold
    solve's own probe levels and takes, without evaluating the models,
    every step whose probes all fall outside ``(lo, hi]`` -- their signs
    follow from the excess being monotone in the level.  The levels it
    visits, and so its answer, are therefore the cold solve's exactly.

    Returns:
        ``(lo, hi)``, or ``None`` when the hint narrows nothing.
    """
    import numpy as np

    from repro.core.partition.batch import allocations_at_levels

    t_est = warm.scaled_level(total)
    if not (0.0 < t_est < t_hi):
        return None
    # A ladder of ever looser pairs around the hint, all probed in one
    # batched call; sorted and unique.  Each ninefold tightening of the
    # pair that holds saves the default 8-probe bisection about a step.
    candidates = np.unique(np.clip(
        t_est * np.asarray(_LADDER), 0.0, t_hi,
    ))
    candidates = candidates[(candidates > 0.0) & (candidates < t_hi)]
    if candidates.size == 0:
        return None
    residuals = allocations_at_levels(models, candidates, cap).sum(axis=0) - cap
    lo, hi = 0.0, t_hi
    for level, residual in zip(candidates.tolist(), residuals.tolist()):
        if residual < 0.0:
            lo = level
        elif residual > 0.0:
            hi = level
            break  # candidates are sorted; later ones are looser
    if lo == 0.0 and hi == t_hi:
        return None
    return lo, hi
