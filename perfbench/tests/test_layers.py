"""Per-layer metrics from synthetic spans."""

from types import SimpleNamespace

import pytest

from layers import UNITS, layer_metrics


def span(pid, sid, name, rid, t0, t1, parent=None, attrs=None):
    return {"pid": pid, "sid": sid, "parent": parent, "name": name, "rid": rid,
            "t0": t0, "t1": t1, "attrs": attrs}


def op(rid, rtt_s, kind="plan", client_s=0.0001):
    return SimpleNamespace(rid=rid, kind=kind, rtt=rtt_s, client_s=client_s, ok=True)


def test_hit_path_metrics():
    ms = 1_000_000
    spans = [
        # request t-0: fast lane 0..4 ms with fingerprint 0.5..3.5, encode 4..4.5
        span(1, 1, "aio.fast_lane", "t-0", 0, 4 * ms, attrs={"hit": True}),
        span(1, 2, "server.try_cached", "t-0", ms // 4, 4 * ms, parent=1),
        span(1, 3, "fingerprint.models", "t-0", ms // 2, 7 * ms // 2, parent=2),
        span(1, 4, "cache.peek", "t-0", 7 * ms // 2, 15 * ms // 4, parent=2),
        span(1, 5, "cache.get", "t-0", 15 * ms // 4, 4 * ms, parent=2,
             attrs={"hit": True}),
        span(1, 6, "aio.encode", "t-0", 4 * ms, 9 * ms // 2),
    ]
    out = layer_metrics(spans, [], [op("t-0", 0.005)], {"cache": {}}, [], 0.1)
    assert set(out) == set(UNITS)
    assert out["fingerprint.models_ms"] == pytest.approx(3.0)
    assert out["fingerprint.calls_per_op"] == 1.0
    assert out["fingerprint.share"] == pytest.approx(3.0 / 4.5)
    assert out["aio.overhead_ms"] == pytest.approx(0.5)
    assert out["aio.fast_lane_ratio"] == 1.0
    assert out["cache.hit_ratio"] == 1.0
    assert out["cache.lookup_ms"] == pytest.approx(0.25)
    assert out["partition.solve_ms"] == 0.0
    assert out["client.ms"] == pytest.approx(0.1)
    assert out["trace.overhead_frac"] == 0.1


def test_cold_path_solve_and_executor_wait():
    spans = [
        span(1, 1, "aio.fast_lane", "t-0", 0, 10),
        span(1, 2, "frontend.handle", "t-0", 30, 1000),
        span(1, 3, "engine.plan", "t-0", 100, 900, attrs={"cached": False, "warm": True}),
        span(1, 4, "partition.solve", "t-0", 200, 800, parent=3,
             attrs={"iterations": 9}),
        span(1, 5, "wal.fsync", "t-0", 850, 860),
        span(1, 6, "wal.fsync", None, 400, 410),   # no request id: left out
    ]
    leaves = [{"pid": 1, "leaf": "models.eval", "parent": 4, "calls": 640, "ns": 480}]
    out = layer_metrics(spans, leaves, [op("t-0", 2e-6)], {}, [], 0.0)
    assert out["aio.executor_wait_ms"] == pytest.approx(20 / 1e6)
    assert out["partition.iterations"] == 9
    assert out["models.eval_calls_per_solve"] == 640
    assert out["models.eval_share"] == pytest.approx(0.8)
    assert out["engine.warm_ratio"] == 1.0
    assert out["wal.fsyncs_per_op"] == 1.0
    assert out["aio.fast_lane_ratio"] == 0.0


def test_router_self_time_and_fleet_counters():
    spans = [
        span(1, 1, "shard.connect", None, 0, 5),    # a health poll's
        span(1, 2, "router.relay", "t-0", 100, 200),
        span(1, 3, "shard.call", "t-0", 120, 180, parent=2),
        span(1, 4, "shard.connect", "t-0", 120, 125, parent=3),
        span(2, 1, "aio.fast_lane", "t-0", 130, 170, attrs={"hit": True}),
    ]
    metrics = {"shards": {"a": {"cache": {"evictions": 2},
                                "feedback": {"resolved_plans": 1}},
                          "b": {"cache": {"evictions": 3}}}}
    out = layer_metrics(spans, [], [op("t-0", 150e-9)], metrics,
                        ["committed", "rolled-back"], 0.0)
    assert out["router.relay_ms"] == pytest.approx(40 / 1e6)
    assert out["shard.call_ms"] == pytest.approx(60 / 1e6)
    assert out["shard.connections_opened"] == 1.0
    assert out["cache.evictions"] == 5.0
    assert out["feedback.resolved_plans"] == 1.0
    assert out["feedback.commit_ratio"] == 0.5
    assert out["aio.overhead_ms"] == pytest.approx(50 / 1e6)
