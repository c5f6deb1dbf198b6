"""The response checks that decide which operations failed."""

from pathlib import Path

import pytest

from loadgen import ServerError
from workloads import Op, Outcome, Workload, exchange, reportable


class FakeClient:
    """Answers every POST with a canned ``(status, body)``."""

    def __init__(self, status, body=None, error=None):
        self.status, self.body, self.error = status, body, error
        self.sent = []

    def post(self, path, payload):
        self.sent.append((path, dict(payload)))
        if self.error:
            raise ServerError(self.error)
        body = self.body(payload) if callable(self.body) else self.body
        return self.status, body, 1.0, 0.002


class FourDevices(Workload):
    name = "test"
    devices = 4


def workload():
    return FourDevices(Path("."), seed=0, seconds=1)


def plan(total, sizes, cached):
    return lambda payload: {"id": payload["id"], "total": total, "sizes": sizes,
                            "cached": cached}


def test_exchange_tags_the_request_and_times_it():
    client = FakeClient(200, plan(10, [1, 2, 3, 4], True))
    op = exchange(client, "plan", "t-7", {"total": 10})
    assert op.ok and op.rtt == 0.002 and op.start == 1.0
    assert client.sent == [("/plan", {"total": 10, "id": "t-7"})]
    assert exchange(client, "feedback", "t-8", {}).ok
    assert client.sent[-1][0] == "/feedback"


@pytest.mark.parametrize("client, why", [
    (FakeClient(503, {"error": "overloaded"}), "request failed"),
    (FakeClient(200, {"id": "other", "total": 10}), "request failed"),
    (FakeClient(0, error="connection refused"), "request failed"),
    (FakeClient(200, plan(10, [1, 2, 3], True)), "expected 4 sizes"),
    (FakeClient(200, plan(10, [1, 2, 3, 5], True)), "do not sum"),
    (FakeClient(200, plan(10, [1, 2, 3, 4], False)), "cached=True"),
    (FakeClient(200, plan(10, [4, 3, 2, 1], True)), "reference solve"),
])
def test_bad_answers_fail_the_op(client, why):
    outcome = Outcome()
    op = exchange(client, "plan", "t-0", {"total": 10})
    outcome.ops.append(op)
    workload().check_plan(op, outcome, 10, cached=True, expect=(1, 2, 3, 4))
    assert outcome.failed == 1
    assert why in outcome.problems[0]


def test_good_answer_passes_and_failures_are_counted_once():
    outcome = Outcome()
    good = exchange(FakeClient(200, plan(10, [1, 2, 3, 4], True)), "plan", "t-0",
                    {"total": 10})
    outcome.ops.append(good)
    workload().check_plan(good, outcome, 10, cached=True, expect=(1, 2, 3, 4))
    assert outcome.failed == 0 and not outcome.problems
    bad = Op(kind="plan", rid="t-1", ok=True, response={})
    outcome.ops.append(bad)
    outcome.fail(bad, "first")
    outcome.fail(bad, "second")
    assert outcome.failed == 1


def test_a_plan_with_an_empty_rank_is_not_reportable():
    assert reportable([1, 5, 9])
    assert not reportable([0, 5, 10])
