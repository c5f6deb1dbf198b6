"""Stale-memo state machine: served plans track the *current* models.

The hit path memoises each model's fingerprint against the model's
mutation counter, and the feedback loop swaps whole model sets under
live traffic.  Either could leave a cache answering for parameters that
are no longer served.  This Hypothesis state machine drives a
:class:`PlanServer` with a :class:`FeedbackController` over 3-6
piecewise models through arbitrary interleavings of:

* plan requests (blocking path and the asyncio fast lane's
  ``try_cached``);
* in-place ``update`` / ``update_many`` on a served model;
* honest, drifted feedback that triggers refit commits (idle, size-0
  ranks report time 0.0);
* adversarial feedback (NaN, outliers, wrong sums, busy idle ranks);

and after every step checks that:

* every served plan -- fresh or cached -- equals a cold
  ``partition_geometric`` on the current ``server.models``;
* every served model's fingerprint equals an uncached digest of its
  current fitted state;
* the lineage epoch never decreases.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from tests.conftest import model_from_time_fn  # noqa: E402
from repro.core.models import PiecewiseModel  # noqa: E402
from repro.core.partition.geometric import partition_geometric  # noqa: E402
from repro.core.point import MeasurementPoint  # noqa: E402
from repro.errors import FeedbackRejected, QuarantineError  # noqa: E402
from repro.serve import (  # noqa: E402
    FeedbackController,
    FeedbackQuarantine,
    ModelLineage,
    PlanServer,
)
from repro.serve.fingerprint import digest, fingerprint_model  # noqa: E402

pytestmark = [pytest.mark.serve, pytest.mark.feedback]

FIT_SIZES = [16, 128, 1024, 4096, 16384]
#: Small totals leave slow ranks idle (size-0 shares); repeats hit.
TOTALS = [1, 3, 7, 97, 500, 1234, 5000, 20000]
UPDATE_SIZES = [48, 256, 2048, 8192]
REFIT_EVERY = 2

#: (units per second, fixed overhead seconds) per synthetic device.
DEVICES = [
    (400.0, 1e-4), (250.0, 3e-4), (120.0, 5e-5),
    (60.0, 2e-4), (30.0, 1e-3), (15.0, 5e-4),
]


def base_time(rank: int, d: int) -> float:
    speed, overhead = DEVICES[rank]
    return d / speed + overhead


def cold_sizes(total, models):
    return tuple(partition_geometric(total, models).sizes)


class ServedModelsMachine(RuleBasedStateMachine):
    @initialize(ranks=st.integers(min_value=3, max_value=6))
    def build(self, ranks):
        models = [
            model_from_time_fn(
                PiecewiseModel, lambda d, r=r: base_time(r, d), FIT_SIZES
            )
            for r in range(ranks)
        ]
        self.server = PlanServer(models, max_workers=1)
        self.lineage = ModelLineage(self.server.models)
        self.controller = FeedbackController(
            self.server, self.lineage,
            quarantine=FeedbackQuarantine(),
            refit_every=REFIT_EVERY,
        )
        self.server.attach_feedback(self.controller)
        self.served = set()
        self.epoch = 0
        self.reports = 0

    def teardown(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.close()

    # -- rules -------------------------------------------------------------

    @rule(total=st.sampled_from(TOTALS), fast_lane=st.booleans())
    def plan(self, total, fast_lane):
        plan = self.server.try_cached(total) if fast_lane else None
        if plan is None:
            plan = self.server.request(total)
        assert tuple(plan.sizes) == cold_sizes(total, self.server.models)
        self.served.add(total)

    @rule(
        data=st.data(),
        factor=st.floats(min_value=0.5, max_value=3.0),
        many=st.booleans(),
    )
    def update_in_place(self, data, factor, many):
        rank = data.draw(st.integers(0, len(self.server.models) - 1))
        sizes = data.draw(
            st.lists(st.sampled_from(UPDATE_SIZES), min_size=1,
                     max_size=3 if many else 1, unique=True)
        )
        points = [MeasurementPoint(d=d, t=factor * base_time(rank, d))
                  for d in sizes]
        model = self.server.models[rank]
        if many:
            model.update_many(points)
        else:
            model.update(points[0])

    @rule(total=st.sampled_from(TOTALS),
          drift=st.floats(min_value=1.2, max_value=2.5))
    def honest_refit(self, total, drift):
        """``REFIT_EVERY`` drifted reports in a row: one refit attempt."""
        for _ in range(REFIT_EVERY):
            sizes = self.server.request(total).sizes
            self.reports += 1
            payload = {
                "source": f"app{self.reports}",
                "total": total,
                "sizes": list(sizes),
                "times": [
                    drift * base_time(r, d) if d else 0.0
                    for r, d in enumerate(sizes)
                ],
            }
            try:
                self.controller.handle(payload)
            except FeedbackRejected as exc:
                # In-place updates can move a model far enough from the
                # device that an honest report breaks the ratio gate --
                # but nothing else may refuse it (idle ranks included).
                assert exc.reasons == ("outlier",), exc
        self.served.add(total)

    @rule(total=st.sampled_from(TOTALS[3:]),
          attack=st.sampled_from(
              ["nan", "outlier", "sum", "busy-zero", "idle-busy"]))
    def adversarial(self, total, attack):
        models_before = self.server.models
        epoch_before = self.lineage.epoch
        sizes = list(self.server.request(total).sizes)
        busiest = max(range(len(sizes)), key=sizes.__getitem__)
        if attack == "idle-busy":
            # Every unit on one rank, and an idle rank claiming a time.
            sizes = [0] * len(sizes)
            sizes[busiest] = total
        times = [base_time(r, d) if d else 0.0 for r, d in enumerate(sizes)]
        if attack == "nan":
            times[busiest] = float("nan")
        elif attack == "outlier":
            times[busiest] *= 1000.0
        elif attack == "sum":
            sizes[busiest] += 1
        elif attack == "busy-zero":
            times[busiest] = 0.0
        else:
            times[busiest - 1] = 0.5
        with pytest.raises((FeedbackRejected, QuarantineError)):
            self.controller.handle({
                "source": "evil", "total": total,
                "sizes": sizes, "times": times,
            })
        assert self.server.models is models_before
        assert self.lineage.epoch == epoch_before
        self.served.add(total)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def served_plans_match_cold_solves(self):
        for total in sorted(self.served):
            plan = self.server.try_cached(total)
            if plan is not None:
                assert tuple(plan.sizes) == cold_sizes(
                    total, self.server.models
                ), f"stale plan served for total={total}"

    @invariant()
    def fingerprints_are_fresh(self):
        for model in self.server.models:
            assert fingerprint_model(model) == digest(
                "model", model.fingerprint_state()
            )

    @invariant()
    def epoch_never_decreases(self):
        assert self.lineage.epoch >= self.epoch
        self.epoch = self.lineage.epoch


ServedModelsMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServedModels = ServedModelsMachine.TestCase
