"""The piecewise-linear functional performance model.

This FPM interpolates the *speed* function (units/second) piecewise-linearly
through the measured points, after :func:`~repro.interp.coarsen_to_fpm_shape`
has clipped the data to the canonical shape of Lastovetsky--Reddy (every ray
from the origin crosses the curve once).  Outside the measured range the
speed is extended as a constant (flat), which preserves the shape property:

* left of the first point: ``s(x) = s(x_min)`` -- the time function tends to
  zero at zero size, as it must;
* right of the last point: ``s(x) = s(x_max)`` -- a conservative prediction
  for sizes never benchmarked.

The derived time function ``t(x) = x / s(x)`` is then strictly increasing,
which is exactly what the geometrical partitioning algorithm requires to
converge.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.errors import ModelError
from repro.interp.coarsening import coarsen_to_fpm_shape
from repro.interp.piecewise_linear import PiecewiseLinear


class PiecewiseModel(PerformanceModel):
    """FPM with coarsened piecewise-linear speed interpolation."""

    min_points = 1
    exact_inverse = True

    def __init__(self) -> None:
        super().__init__()
        self._speed_interp: PiecewiseLinear | None = None
        self._x_min: float = 0.0
        self._x_max: float = 0.0
        self._knot_times: Optional[np.ndarray] = None

    def _rebuild(self) -> None:
        speed_points: List[Tuple[float, float]] = [
            (float(p.d), p.d / p.t) for p in self._points
        ]
        coarsened = coarsen_to_fpm_shape(speed_points)
        self._speed_interp = PiecewiseLinear(coarsened, min_y=1e-12)
        self._x_min = coarsened[0][0]
        self._x_max = coarsened[-1][0]
        self._knot_times = None  # inversion cache, filled on demand

    @property
    def coarsened_speed_points(self) -> "tuple[Tuple[float, float], ...]":
        """The (size, speed) knots after coarsening (for plots like Fig. 2a)."""
        self._require_ready()
        assert self._speed_interp is not None
        return tuple(zip(self._speed_interp.xs, self._speed_interp.ys))

    def fingerprint_state(self) -> tuple:
        """Fitted state is the coarsened (size, speed) knot sequence.

        Points that coarsen to the same knots (e.g. re-measurements of an
        already-converged dynamic loop on a noise-free device) fingerprint
        identically, which is what lets the plan cache serve them.
        """
        self._require_ready()
        assert self._speed_interp is not None
        return (
            "PiecewiseModel",
            "knots",
            tuple(self._speed_interp.xs),
            tuple(self._speed_interp.ys),
        )

    def speed(self, x: float) -> float:
        self._require_ready()
        assert self._speed_interp is not None
        # Flat extension outside the measured range keeps the FPM shape.
        x_eval = min(max(x, self._x_min), self._x_max)
        return max(self._speed_interp(x_eval), 1e-12)

    def time(self, x: float) -> float:
        self._require_ready()
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        if x == 0.0:
            return 0.0
        return x / self.speed(x)

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        assert self._speed_interp is not None
        x_eval = np.clip(xs, self._x_min, self._x_max)
        speeds = np.maximum(self._speed_interp.evaluate_batch(x_eval), 1e-12)
        return np.where(xs == 0.0, 0.0, xs / speeds)

    def _inversion_tables(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Cached ``(knot_xs, knot_speeds, knot_times)`` of the speed knots."""
        assert self._speed_interp is not None
        if self._knot_times is None:
            xk = np.asarray(self._speed_interp.xs, dtype=float)
            sk = np.maximum(np.asarray(self._speed_interp.ys, dtype=float), 1e-12)
            self._knot_xs = xk
            self._knot_speeds = sk
            self._knot_times = xk / sk
        return self._knot_xs, self._knot_speeds, self._knot_times

    def allocation_batch(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
        tol: float = 1e-9,
    ) -> np.ndarray:
        """Closed-form inversion of the coarsened piecewise time function.

        The speed is linear on each knot interval, so ``t(x) = T`` solves
        to ``x = T (s_k - m_k x_k) / (1 - T m_k)`` within the interval, and
        to ``x = T s`` in the constant-speed extensions.  The FPM shape
        restriction makes the knot times strictly increasing, so interval
        lookup is one ``searchsorted``.
        """
        self._require_ready()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        cap = float(cap)
        xk, sk, tk = self._inversion_tables()
        n = xk.size
        if n == 1:
            return np.clip(levels * sk[0], 0.0, cap)
        # Interval index: -1 left of the first knot, n-1 right of the last.
        j = np.searchsorted(tk, levels, side="right") - 1
        left = j < 0
        right = j >= n - 1
        inner = ~(left | right)
        x = np.empty(levels.shape)
        # Constant-speed extensions on both sides.
        x[left] = levels[left] * sk[0]
        x[right] = levels[right] * sk[-1]
        if np.any(inner):
            ji = j[inner]
            t = levels[inner]
            mk = (sk[ji + 1] - sk[ji]) / (xk[ji + 1] - xk[ji])
            denom = 1.0 - t * mk
            # t strictly increasing on the interval => denominator > 0 at
            # the root; guard float dust by falling back to the right knot.
            xi = np.where(
                denom > 1e-300,
                t * (sk[ji] - mk * xk[ji]) / np.where(denom > 1e-300, denom, 1.0),
                xk[ji + 1],
            )
            x[inner] = np.clip(xi, xk[ji], xk[ji + 1])
        return np.clip(x, 0.0, cap)
