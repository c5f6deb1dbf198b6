"""The feedback trust boundary, the regression-gated refit, the taxonomy.

The closed loop treats every report as hostile until proven otherwise.
The layers under test, inside out:

* schema validation (:meth:`FeedbackReport.from_payload`): structural
  garbage raises the bare-``FuPerModError``/400 contract, while NaN --
  which Python's ``json`` parses happily -- crosses to the quarantine
  on purpose;
* :class:`FeedbackQuarantine`: each rejection reason fires and is named
  in the :class:`QuarantineReport`, strikes accumulate into a
  quarantine, rate limiting answers with a retry hint;
* the model families themselves: every registered family refuses
  non-finite and non-positive ingest with :class:`ModelError`, and
  ``update_many`` is atomic (no partial ingest);
* :class:`FeedbackController`: honest feedback commits epochs and
  re-solves invalidated plans; a refit the regression gate dislikes
  rolls back and changes nothing served;
* the wire: both taxonomy mappings (400/403/429) through
  :func:`handle_request`, and :meth:`PlanClient.feedback` retrying 429
  with the server's hint while refusing to resend a 400/403.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tests.conftest import model_from_time_fn, points_from_time_fn
from repro.core.models import PiecewiseModel
from repro.core.registry import model_factory
from repro.errors import (
    FeedbackRejected,
    FuPerModError,
    ModelError,
    QuarantineError,
)
from repro.serve import (
    FeedbackController,
    FeedbackQuarantine,
    FeedbackReport,
    ModelLineage,
    PlanClient,
    PlanServer,
    handle_request,
)

pytestmark = [pytest.mark.serve, pytest.mark.feedback]

SPEEDS = (100.0, 200.0, 400.0)


def make_models(speeds=SPEEDS):
    return [
        model_from_time_fn(PiecewiseModel, lambda d, s=s: d / s,
                           [16, 128, 1024, 4096])
        for s in speeds
    ]


def honest_payload(source="app0", total=700, sizes=(100, 200, 400),
                   factor=1.0, speeds=SPEEDS):
    """A report whose times are exactly ``factor`` x the true time."""
    return {
        "cmd": "feedback",
        "source": source,
        "total": total,
        "sizes": list(sizes),
        "times": [factor * d / s for d, s in zip(sizes, speeds)],
    }


def make_loop(refit_every=4, **quarantine_kw):
    server = PlanServer(make_models(), max_workers=2)
    lineage = ModelLineage(server.models)
    controller = FeedbackController(
        server, lineage,
        quarantine=FeedbackQuarantine(**quarantine_kw),
        refit_every=refit_every,
    )
    server.attach_feedback(controller)
    return server, lineage, controller


class TestSchemaLayer:
    @pytest.mark.parametrize("payload", [
        "not an object",
        {},
        {"source": "", "total": 10, "sizes": [10], "times": [0.1]},
        {"source": "a", "total": "ten", "sizes": [10], "times": [0.1]},
        {"source": "a", "total": 10, "sizes": [], "times": []},
        {"source": "a", "total": 10, "sizes": [5, 5], "times": [0.1]},
        {"source": "a", "total": 10, "sizes": [5.0, 5.0], "times": [0.1, 0.1]},
        {"source": "a", "total": 10, "sizes": [5, 5], "times": ["x", 0.1]},
        {"source": "a", "total": 10, "sizes": [5, 5], "times": [0.1, 0.1],
         "partitioner": 7},
        {"source": "a", "total": 10, "sizes": [5, 5], "times": [0.1, 0.1],
         "options": "fast"},
    ])
    def test_structural_garbage_is_a_bare_400(self, payload):
        with pytest.raises(FuPerModError) as excinfo:
            FeedbackReport.from_payload(payload)
        assert type(excinfo.value) is FuPerModError

    def test_nan_crosses_the_schema_layer(self):
        # json.loads('NaN') yields float('nan'); stopping it is the
        # quarantine's job, where it gets named and counted.
        report = FeedbackReport.from_payload({
            "source": "a", "total": 10, "sizes": [5, 5],
            "times": [float("nan"), 0.1],
        })
        assert math.isnan(report.times[0])


class TestQuarantineScoring:
    def admit(self, payload, **kw):
        quarantine = FeedbackQuarantine(**kw)
        quarantine.admit(FeedbackReport.from_payload(payload), make_models())
        return quarantine

    def reject(self, payload, **kw):
        quarantine = FeedbackQuarantine(**kw)
        with pytest.raises(FeedbackRejected) as excinfo:
            quarantine.admit(
                FeedbackReport.from_payload(payload), make_models()
            )
        return quarantine, excinfo.value

    def test_honest_report_accepted(self):
        quarantine = self.admit(honest_payload())
        assert quarantine.report.accepted == 1
        assert not quarantine.report.rejections

    def test_honest_drift_passes_the_gate(self):
        # 3x platform drift is honest reality, not an attack.
        self.admit(honest_payload(factor=3.0))

    @pytest.mark.parametrize("mangle,reason", [
        (lambda p: p.update(sizes=[100, 200], times=p["times"][:2]),
         "impossible-sizes"),
        (lambda p: p.update(sizes=[0, 300, 400]), "impossible-sizes"),
        (lambda p: p.update(total=9999), "impossible-sizes"),
        (lambda p: p["times"].__setitem__(0, float("nan")), "non-finite"),
        (lambda p: p["times"].__setitem__(1, float("inf")), "non-finite"),
        (lambda p: p["times"].__setitem__(0, -0.5), "negative"),
        (lambda p: p["times"].__setitem__(0, 0.0), "negative"),
        (lambda p: p["times"].__setitem__(2, p["times"][2] * 64.0), "outlier"),
        (lambda p: p["times"].__setitem__(2, p["times"][2] / 64.0), "outlier"),
    ])
    def test_each_reason_fires_and_is_named(self, mangle, reason):
        payload = honest_payload()
        mangle(payload)
        quarantine, exc = self.reject(payload)
        assert reason in exc.reasons
        assert exc.source == "app0"
        assert quarantine.report.rejections[0].reasons == exc.reasons
        assert "app0" in quarantine.report.sources_named

    def test_rejection_is_whole_report_atomic(self):
        # Two honest ranks riding alongside one NaN must not get in.
        payload = honest_payload()
        payload["times"][1] = float("nan")
        quarantine, _ = self.reject(payload)
        assert quarantine.report.accepted == 0

    def test_strikes_accumulate_into_quarantine(self):
        quarantine = FeedbackQuarantine(max_strikes=3)
        models = make_models()
        bad = honest_payload(factor=100.0)  # far outside k=8
        for _ in range(3):
            with pytest.raises(FeedbackRejected):
                quarantine.admit(FeedbackReport.from_payload(bad), models)
        assert quarantine.quarantined_sources() == ["app0"]
        # Standing quarantine: even an honest report is now refused.
        with pytest.raises(QuarantineError) as excinfo:
            quarantine.admit(
                FeedbackReport.from_payload(honest_payload()), models
            )
        assert excinfo.value.source == "app0"

    def test_accepted_report_resets_the_streak(self):
        quarantine = FeedbackQuarantine(max_strikes=3)
        models = make_models()
        bad = honest_payload(factor=100.0)
        for _ in range(2):
            with pytest.raises(FeedbackRejected):
                quarantine.admit(FeedbackReport.from_payload(bad), models)
        quarantine.admit(FeedbackReport.from_payload(honest_payload()), models)
        for _ in range(2):
            with pytest.raises(FeedbackRejected):
                quarantine.admit(FeedbackReport.from_payload(bad), models)
        assert quarantine.quarantined_sources() == []

    def test_rate_limit_answers_with_a_retry_hint(self):
        clock = SimpleNamespace(now=0.0)
        quarantine = FeedbackQuarantine(
            rate_limit=2, rate_window=60.0, clock=lambda: clock.now
        )
        models = make_models()
        for _ in range(2):
            quarantine.admit(
                FeedbackReport.from_payload(honest_payload()), models
            )
        clock.now = 10.0
        with pytest.raises(FeedbackRejected) as excinfo:
            quarantine.admit(
                FeedbackReport.from_payload(honest_payload()), models
            )
        assert excinfo.value.reasons == ("rate-limit",)
        assert excinfo.value.retry_after == pytest.approx(50.0)
        # The window drains: the same source is welcome again later.
        clock.now = 70.0
        quarantine.admit(FeedbackReport.from_payload(honest_payload()), models)

    def test_report_to_dict_is_deterministic(self):
        def run():
            quarantine = FeedbackQuarantine(max_strikes=2)
            models = make_models()
            for factor in (1.0, 100.0, 100.0):
                try:
                    quarantine.admit(
                        FeedbackReport.from_payload(
                            honest_payload(factor=factor)
                        ),
                        models,
                    )
                except FeedbackRejected:
                    pass
            return quarantine.report.to_dict()

        assert run() == run()


FAMILIES = ["constant", "piecewise", "akima", "linear", "pchip", "segmented"]


class TestIdleRanks:
    """A solve may give a rank zero units; its honest report is time 0.0."""

    def idle_payload(self, **kw):
        # Rank 2 idle: its 400 units moved to rank 1.
        return honest_payload(sizes=(100, 600, 0), **kw)

    def test_idle_rank_reporting_zero_time_is_accepted(self):
        quarantine = FeedbackQuarantine()
        payload = self.idle_payload()
        assert payload["times"][2] == 0.0
        quarantine.admit(FeedbackReport.from_payload(payload), make_models())
        assert quarantine.report.accepted == 1

    def test_idle_rank_skips_the_ratio_gate(self):
        # A model that cannot predict at all for the idle rank is never
        # consulted: the idle rank has nothing to gate.
        class Unpredictable:
            def time(self, x):
                raise AssertionError("idle rank was scored")

        models = make_models()
        models[2] = Unpredictable()
        FeedbackQuarantine().admit(
            FeedbackReport.from_payload(self.idle_payload()), models
        )

    @pytest.mark.parametrize("total,sizes,times,detail", [
        # An idle rank claiming it worked: any nonzero time, NaN included.
        (700, (100, 600, 0), (1.0, 3.0, 0.5), "rank 2: size 0"),
        (700, (100, 600, 0), (1.0, 3.0, float("nan")), "rank 2: size 0"),
        (700, (100, 600, 0), (1.0, 3.0, -1e-9), "rank 2: size 0"),
        # Negative sizes and wrong sums stay impossible with idle ranks.
        (700, (800, -100, 0), (8.0, 0.0, 0.0), "cannot come from a plan"),
        (699, (100, 600, 0), (1.0, 3.0, 0.0), "cannot come from a plan"),
    ])
    def test_impossible_idle_reports_are_rejected(
        self, total, sizes, times, detail
    ):
        payload = honest_payload(total=total, sizes=sizes)
        payload["times"] = list(times)
        with pytest.raises(FeedbackRejected) as excinfo:
            FeedbackQuarantine().admit(
                FeedbackReport.from_payload(payload), make_models()
            )
        assert excinfo.value.reasons == ("impossible-sizes",)
        assert detail in str(excinfo.value)

    def test_all_idle_report_for_a_zero_total_is_rejected(self):
        payload = honest_payload(total=0, sizes=(0, 0, 0))
        with pytest.raises(FeedbackRejected) as excinfo:
            FeedbackQuarantine().admit(
                FeedbackReport.from_payload(payload), make_models()
            )
        assert excinfo.value.reasons == ("impossible-sizes",)

    def test_idle_rank_adds_no_point_to_the_refit(self):
        server, lineage, controller = make_loop(refit_every=4)
        counts = [model.count for model in server.models]
        for _ in range(4):
            out = server.feedback.handle(self.idle_payload(factor=2.0))
        assert out["refit"] == "committed"
        # Three reports trained (one held back): ranks 0 and 1 gained a
        # point each, idle rank 2 gained none.
        assert [model.count for model in server.models] == [
            counts[0] + 3, counts[1] + 3, counts[2]
        ]
        assert controller.counters.refits == 1


class TestModelIngestBoundary:
    """Every family shares one typed rejection at the ingest boundary.

    ``MeasurementPoint`` cannot even hold NaN, so the hostile values
    arrive as duck-typed point objects -- exactly how a buggy caller or
    a hand-built feedback path would smuggle them in.
    """

    GOOD = [SimpleNamespace(d=d, t=d / 100.0) for d in (16, 128, 1024, 4096)]
    BAD = [
        SimpleNamespace(d=64, t=float("nan")),
        SimpleNamespace(d=64, t=float("inf")),
        SimpleNamespace(d=64, t=-1.0),
        SimpleNamespace(d=64, t=0.0),
        SimpleNamespace(d=float("nan"), t=0.5),
        SimpleNamespace(d=0, t=0.5),
    ]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("bad", BAD, ids=lambda p: f"d={p.d},t={p.t}")
    def test_update_rejects_with_model_error(self, family, bad):
        model = model_factory(family)()
        with pytest.raises(ModelError):
            model.update(bad)
        assert model.count == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_update_many_is_atomic(self, family):
        model = model_factory(family)()
        batch = list(self.GOOD)
        batch.insert(2, SimpleNamespace(d=64, t=float("nan")))
        with pytest.raises(ModelError):
            model.update_many(batch)
        # Nothing before the offender got in either.
        assert model.count == 0
        model.update_many(self.GOOD)
        assert model.count == len(self.GOOD)


class TestControllerRefit:
    def test_accepted_reports_buffer_until_refit(self):
        server, lineage, controller = make_loop(refit_every=4)
        for i in range(3):
            out = server.feedback.handle(honest_payload(source=f"app{i}"))
            assert out["status"] == "accepted"
            assert out["refit"] is None
        assert controller.pending() == 3
        assert lineage.epoch == 0

    def test_honest_feedback_commits_an_epoch(self):
        server, lineage, controller = make_loop(refit_every=4)
        root_models = server.models
        root_fp = lineage.fingerprint
        outs = [
            server.feedback.handle(honest_payload(factor=2.0))
            for _ in range(4)
        ]
        assert outs[-1]["refit"] == "committed"
        assert lineage.epoch == 1
        assert lineage.parent_fp == root_fp
        assert server.models is lineage.models
        assert server.models is not root_models
        assert controller.counters.refits == 1
        # Holdback returns to the buffer; train was consumed.
        assert controller.pending() == 1

    def test_commit_converges_predictions_toward_reports(self):
        server, lineage, _ = make_loop(refit_every=8)
        before = server.models[0].time(100.0)
        for _ in range(8):
            server.feedback.handle(honest_payload(factor=2.5))
        assert lineage.epoch == 1
        after = server.models[0].time(100.0)
        truth = 2.5 * 100.0 / SPEEDS[0]
        assert abs(after - truth) < abs(before - truth)

    def test_regression_gate_rolls_back(self):
        # Train on 3x-drifted reports, hold back an honest one: the
        # candidate predicts the holdback worse than the parent does.
        server, lineage, controller = make_loop(refit_every=4)
        root_models = server.models
        root_fp = lineage.fingerprint
        for _ in range(3):
            server.feedback.handle(honest_payload(factor=3.0))
        out = server.feedback.handle(honest_payload(factor=1.0))
        assert out["refit"] == "rolled-back"
        assert lineage.epoch == 0
        assert lineage.fingerprint == root_fp
        assert server.models is root_models
        assert controller.counters.rollbacks == 1
        # Nothing was folded in: every report stays pending.
        assert controller.pending() == 4

    def test_commit_invalidates_and_resolves_cached_plans(self):
        server, lineage, controller = make_loop(refit_every=4)
        stale = server.request(700)
        assert not stale.cached
        for _ in range(4):
            server.feedback.handle(honest_payload(factor=2.0))
        assert lineage.epoch == 1
        assert controller.counters.invalidated_plans == 1
        assert controller.counters.resolved_plans == 1
        # The re-solve pre-warmed the child epoch's entry off the
        # request path: the next request is a hit under the new models.
        fresh = server.request(700)
        assert fresh.cached
        assert fresh.key != stale.key

    def test_metrics_surface_the_loop(self):
        server, _, _ = make_loop(refit_every=100, max_strikes=2)
        server.feedback.handle(honest_payload())
        for _ in range(2):
            with pytest.raises(FeedbackRejected):
                server.feedback.handle(honest_payload(factor=100.0))
        feedback = server.metrics()["feedback"]
        assert feedback["accepted"] == 1
        assert feedback["rejected"] == {"outlier": 2}
        assert feedback["quarantined_sources"] == ["app0"]
        assert feedback["lineage"]["epoch"] == 0


class TestWireTaxonomy:
    def test_malformed_payload_maps_to_400(self):
        server, _, controller = make_loop()
        out = handle_request(server, {"cmd": "feedback", "source": "a"})
        assert out["code"] == 400 and "rejected" not in out
        assert controller.counters.malformed == 1

    def test_content_rejection_maps_to_400_with_reasons(self):
        server, _, _ = make_loop()
        out = handle_request(server, honest_payload(factor=100.0))
        assert out["code"] == 400
        assert out["rejected"] == ["outlier"]
        assert out["source"] == "app0"
        assert "retry_after" not in out

    def test_quarantined_source_maps_to_403(self):
        server, _, _ = make_loop(max_strikes=1)
        handle_request(server, honest_payload(factor=100.0))
        out = handle_request(server, honest_payload())
        assert out["code"] == 403
        assert out["quarantined"] is True
        assert out["source"] == "app0"

    def test_rate_limit_maps_to_429_with_retry_after(self):
        server, _, _ = make_loop(rate_limit=1, rate_window=30.0)
        handle_request(server, honest_payload())
        out = handle_request(server, honest_payload())
        assert out["code"] == 429
        assert out["rejected"] == ["rate-limit"]
        assert out["retry_after"] == pytest.approx(30.0, abs=1.0)

    def test_server_without_a_loop_answers_400(self):
        server = PlanServer(make_models(), max_workers=2)
        out = handle_request(server, honest_payload())
        assert out["code"] == 400
        assert "no feedback loop" in out["error"]

    def test_acceptance_flows_through_the_front_end(self):
        server, _, _ = make_loop()
        out = handle_request(server, honest_payload())
        assert out["status"] == "accepted"
        assert out["epoch"] == 0 and out["buffered"] == 1


class TestClientFeedback:
    def test_429_retries_with_the_servers_floor(self):
        script = [
            {"error": "slow down", "code": 429, "rejected": ["rate-limit"],
             "retry_after": 1.5},
            {"status": "accepted", "epoch": 0, "buffered": 1, "refit": None},
        ]
        sleeps = []
        client = PlanClient(
            lambda p: script.pop(0), max_attempts=3, base_delay=0.01,
            rng=np.random.default_rng(0), sleep=sleeps.append,
        )
        out = client.feedback("app0", 700, (100, 200, 400), (1.0, 1.0, 1.0))
        assert out["status"] == "accepted"
        assert client.retries == 1
        assert sleeps == [pytest.approx(1.5)]  # hint floors the jitter

    def test_content_rejection_is_not_retried(self):
        calls = []

        def transport(payload):
            calls.append(payload)
            return {"error": "rejected: outlier", "code": 400,
                    "rejected": ["outlier"], "source": "app0"}

        client = PlanClient(transport, max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(FeedbackRejected) as excinfo:
            client.feedback("app0", 700, (100, 200, 400), (9e9, 1.0, 1.0))
        assert len(calls) == 1  # resending a lie is a strike, not a retry
        assert excinfo.value.reasons == ("outlier",)

    def test_quarantine_is_not_retried(self):
        calls = []

        def transport(payload):
            calls.append(payload)
            return {"error": "quarantined", "code": 403, "quarantined": True,
                    "source": "app0"}

        client = PlanClient(transport, max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(QuarantineError) as excinfo:
            client.feedback("app0", 700, (100, 200, 400), (1.0, 1.0, 1.0))
        assert len(calls) == 1
        assert excinfo.value.source == "app0"

    def test_payload_shape_on_the_wire(self):
        seen = {}

        def transport(payload):
            seen.update(payload)
            return {"status": "accepted"}

        PlanClient(transport).feedback(
            "app0", 700, [100.0, 200.0, 400.0], [1, 2, 3],
            partitioner="geometric",
        )
        assert seen["cmd"] == "feedback"
        assert seen["sizes"] == [100, 200, 400]  # coerced to ints
        assert seen["times"] == [1.0, 2.0, 3.0]  # coerced to floats
        assert seen["partitioner"] == "geometric"
