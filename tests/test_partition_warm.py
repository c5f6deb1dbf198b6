"""Warm-started geometric solves replay the cold solve exactly.

A warm hint certifies a bracket around the equal-time level; the
bisection uses it only to take, unevaluated, the steps whose probe signs
it pins.  The levels probed are the cold solve's, so the answer is the
cold answer bit for bit -- also where the time function is nearly flat
at the root and a level difference far inside the solver tolerance
would move a share by a whole unit.
"""

from __future__ import annotations

import pytest

from tests.conftest import model_from_time_fn
from repro.core.models import AkimaModel, LinearModel, PiecewiseModel
from repro.core.partition.geometric import partition_geometric
from repro.core.partition.warm import warm_start_from
from repro.core.point import MeasurementPoint

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIT_SIZES = [16, 128, 1024, 4096, 16384]
DEVICES = [(400.0, 1e-4), (250.0, 3e-4), (120.0, 5e-5), (60.0, 2e-4)]


def device_models(model_cls=PiecewiseModel, devices=DEVICES):
    return [
        model_from_time_fn(model_cls, lambda d, s=s, c=c: d / s + c, FIT_SIZES)
        for s, c in devices
    ]


def assert_replays_cold(total, models, seed_total, **kwargs):
    warm = warm_start_from(partition_geometric(seed_total, models, **kwargs))
    cold = partition_geometric(total, models, **kwargs)
    warmed = partition_geometric(total, models, warm_start=warm, **kwargs)
    assert warmed.sizes == cold.sizes
    assert warmed.convergence.residual == cold.convergence.residual
    assert warmed.convergence.tolerance == cold.convergence.tolerance
    assert warmed.convergence.iterations <= cold.convergence.iterations
    return cold, warmed


def test_flat_time_function_at_the_root():
    # Refit points measured at the equal-time level itself (1.75x drift):
    # the slowest rank's coarsened time function is nearly flat there,
    # so a bracket a few 1e-11 s off the cold one moves its share from
    # 90.11 to 90.50 units and rounding hands the unit to another rank.
    models = device_models()
    for model, (d, (speed, overhead)) in zip(
        models, zip((595, 372, 178, 89), DEVICES)
    ):
        model.update(MeasurementPoint(d=d, t=1.75 * (d / speed + overhead)))
    cold, _ = assert_replays_cold(1234, models, seed_total=97)
    assert cold.sizes == [594, 372, 178, 90]


def test_a_good_hint_saves_iterations():
    models = device_models()
    cold, warmed = assert_replays_cold(10_000, models, seed_total=9_900)
    assert warmed.convergence.iterations < cold.convergence.iterations


def test_generic_inversion_ignores_the_hint():
    # Akima inverts by a bisection narrowed by earlier steps' allocations;
    # skipping steps would change its last bits, so the solve runs cold.
    models = device_models(AkimaModel)
    cold, warmed = assert_replays_cold(10_000, models, seed_total=9_900)
    assert warmed.convergence.iterations == cold.convergence.iterations


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([PiecewiseModel, LinearModel]),
    speeds=st.lists(st.floats(5.0, 500.0), min_size=2, max_size=8),
    drift=st.lists(st.floats(0.5, 3.0), min_size=8, max_size=8),
    seed_total=st.integers(1, 50_000),
    total=st.integers(1, 50_000),
    probes=st.sampled_from([1, 8]),
)
def test_warm_equals_cold(family, speeds, drift, seed_total, total, probes):
    models = device_models(family, [(s, 1e-4) for s in speeds])
    # One off-curve point per device, as a feedback refit would add.
    for model, (s, factor) in zip(models, zip(speeds, drift)):
        d = max(1, total // len(speeds))
        model.update(MeasurementPoint(d=d, t=factor * (d / s + 1e-4)))
    assert_replays_cold(total, models, seed_total, probes=probes)
