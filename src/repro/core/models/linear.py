"""Linear analytical performance model (Qilin-style, ref. [12]).

Section 3 of the paper surveys application-specific analytical models: in
Qilin (Luk, Hong, Kim -- ref. [12]) the execution time of each device is
approximated by a *linear* function of problem size, ``t(x) = a + b x``,
fitted empirically.  The paper then notes (via ref. [14]) that linear
models "might not fit the actual performance in the case of resource
contention" -- the motivation for the general functional models.

We implement the linear model as a first-class ``fupermod_model`` so the
comparison can be made quantitatively (ablation A8): least-squares fit over
the measurement points, with the intercept clamped at zero (a negative
startup time is unphysical and would break partitioning).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.models.base import PerformanceModel
from repro.errors import ModelError


class LinearModel(PerformanceModel):
    """Analytical model ``t(x) = a + b x`` fitted by least squares.

    A single point yields the pure-bandwidth model ``t = (t0/d0) x``;
    two or more points fit both coefficients.  The slope must come out
    positive -- measurement sets for which it does not (time decreasing
    with size) are rejected, because no workload balancing is possible
    against a negative marginal cost.
    """

    min_points = 1
    exact_inverse = True

    def __init__(self) -> None:
        super().__init__()
        self._a: float = 0.0
        self._b: float = 0.0

    def _rebuild(self) -> None:
        if len(self._points) == 1:
            p = self._points[0]
            self._a = 0.0
            self._b = p.t / p.d
            return
        x = np.asarray([float(p.d) for p in self._points])
        t = np.asarray([p.t for p in self._points])
        design = np.column_stack([np.ones_like(x), x])
        (a, b), *_ = np.linalg.lstsq(design, t, rcond=None)
        if b <= 0.0:
            raise ModelError(
                f"linear fit has non-positive slope {b}; "
                "times do not grow with problem size"
            )
        self._a = max(float(a), 0.0)
        self._b = float(b)

    @property
    def coefficients(self) -> "tuple[float, float]":
        """The fitted ``(a, b)`` of ``t(x) = a + b x``."""
        self._require_ready()
        return (self._a, self._b)

    def time(self, x: float) -> float:
        self._require_ready()
        if x < 0.0:
            raise ModelError(f"size must be non-negative, got {x}")
        if x == 0.0:
            return 0.0
        return self._a + self._b * x

    def _time_batch_impl(self, xs: np.ndarray) -> np.ndarray:
        return np.where(xs == 0.0, 0.0, self._a + self._b * xs)

    def allocation_batch(
        self,
        levels,
        cap: float,
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
        tol: float = 1e-9,
    ) -> np.ndarray:
        # Closed form: t(x) = a + b x  =>  x = (T - a) / b, clamped.
        self._require_ready()
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        cap = float(cap)
        x = np.clip((levels - self._a) / self._b, 0.0, cap)
        # When b is vanishingly small the division cancels badly; pin the
        # contract's boundary cases explicitly.
        return np.where(levels >= self._a + self._b * cap, cap, x)

    def time_derivative(self, x: float) -> float:
        """Constant slope ``b`` (used by the numerical partitioner)."""
        self._require_ready()
        return self._b

    def fingerprint_state(self) -> tuple:
        """Fitted state is the regression coefficients ``(a, b)``."""
        self._require_ready()
        return ("LinearModel", "coefficients", self._a, self._b)
