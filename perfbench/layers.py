"""Per-layer metrics from a traced run's spans.

Spans come from every process of the server tree (``spans-<pid>.jsonl``
files written by ``launcher.py``); the client's round trips come from the
benchmark itself.  A span belongs to the timed phase when it carries the
id of a timed request; spans without one (the router's periodic health
polls, for instance) are left out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from stats import self_time, union_length

#: Every per-layer metric, in report order, with its unit.
UNITS = {
    "fingerprint.models_ms": "ms",
    "fingerprint.calls_per_op": "count",
    "fingerprint.share": "fraction",
    "server.try_cached_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "fraction",
    "aio.overhead_ms": "ms",
    "aio.encode_ms": "ms",
    "aio.fast_lane_ratio": "fraction",
    "aio.executor_wait_ms": "ms",
    "partition.solve_ms": "ms",
    "partition.iterations": "count",
    "models.eval_calls_per_solve": "count",
    "models.eval_share": "fraction",
    "engine.plan_ms": "ms",
    "engine.warm_ratio": "fraction",
    "cache.nearest_ms": "ms",
    "cache.evictions": "count",
    "wal.put_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_op": "count",
    "frontend.handle_ms": "ms",
    "server.request_ms": "ms",
    "feedback.admit_ms": "ms",
    "feedback.refit_ms": "ms",
    "feedback.commit_ratio": "fraction",
    "feedback.resolved_plans": "count",
    "lineage.propose_ms": "ms",
    "lineage.commit_ms": "ms",
    "router.relay_ms": "ms",
    "shard.call_ms": "ms",
    "shard.connections_opened": "count",
    "client.ms": "ms",
    "trace.overhead_frac": "fraction",
}


def load_trace(trace_dir: Path) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """``(spans, leaf counts)`` from every span file in ``trace_dir``."""
    spans: List[Dict[str, Any]] = []
    leaves: List[Dict[str, Any]] = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                (leaves if "leaf" in record else spans).append(record)
    return spans, leaves


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def server_metrics(metrics: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """Each serving process's ``/metrics`` section (one, or one per shard)."""
    shards = metrics.get("shards")
    if isinstance(shards, dict):
        return [m for m in shards.values() if isinstance(m, dict)]
    return [metrics]


def layer_metrics(
    spans: Sequence[Dict[str, Any]],
    leaves: Sequence[Dict[str, Any]],
    ops: Sequence[Any],
    metrics: Dict[str, Any],
    refit_outcomes: Sequence[str],
    overhead_frac: float,
) -> Dict[str, float]:
    """Every metric of :data:`UNITS` for one traced timed phase.

    Args:
        spans / leaves: the traced run's records (:func:`load_trace`).
        ops: the timed phase's client operations (``rid``, ``kind``,
            ``rtt``, ``client_s``, ``ok``).
        metrics: the server's ``/metrics`` document at the end of the run.
        refit_outcomes: refit outcomes the client saw, in order.
        overhead_frac: traced over untraced timed-phase duration, minus 1.
    A layer the workload never enters reports 0.
    """
    rids = {op.rid for op in ops}
    timed = [s for s in spans if s["rid"] in rids]
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    by_rid: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    children: Dict[Tuple[int, int], List[Dict[str, Any]]] = defaultdict(list)
    for span in timed:
        by_name[span["name"]].append(span)
        by_rid[span["rid"]].append(span)
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)

    def dur(span: Dict[str, Any]) -> int:
        return span["t1"] - span["t0"]

    def mean_ms(*names: str) -> float:
        return _mean([dur(s) for n in names for s in by_name[n]]) / 1e6

    def count(name: str) -> int:
        return len(by_name[name])

    n_ops = len(ops)
    plans = [op for op in ops if op.kind == "plan"]
    out: Dict[str, float] = {}

    # Fingerprint share of the server's time: per request, the union of
    # its spans across every process on the shared monotonic clock.
    served = {rid: union_length((s["t0"], s["t1"]) for s in group)
              for rid, group in by_rid.items()}
    out["fingerprint.models_ms"] = mean_ms("fingerprint.models")
    out["fingerprint.calls_per_op"] = _ratio(count("fingerprint.models"), n_ops)
    out["fingerprint.share"] = _ratio(
        sum(dur(s) for s in by_name["fingerprint.models"]), sum(served.values()))

    out["server.try_cached_ms"] = mean_ms("server.try_cached")
    out["cache.lookup_ms"] = mean_ms("cache.peek", "cache.get")
    gets = by_name["cache.get"]
    out["cache.hit_ratio"] = _ratio(
        sum(1 for s in gets if (s["attrs"] or {}).get("hit")), len(gets))

    out["aio.overhead_ms"] = _mean([
        op.rtt * 1e3 - served.get(op.rid, 0) / 1e6 for op in ops if op.ok
    ])
    out["aio.encode_ms"] = mean_ms("aio.encode")
    out["aio.fast_lane_ratio"] = _ratio(
        sum(1 for s in by_name["aio.fast_lane"] if (s["attrs"] or {}).get("hit")),
        len(plans))
    lane_end = {(s["pid"], s["rid"]): s["t1"] for s in by_name["aio.fast_lane"]}
    waits = [s["t0"] - lane_end[(s["pid"], s["rid"])]
             for s in by_name["frontend.handle"] if (s["pid"], s["rid"]) in lane_end]
    out["aio.executor_wait_ms"] = _mean(waits) / 1e6

    solves = by_name["partition.solve"]
    solve_ids = {(s["pid"], s["sid"]) for s in solves}
    evals = [leaf for leaf in leaves if leaf["leaf"] == "models.eval"
             and (leaf["pid"], leaf["parent"]) in solve_ids]
    out["partition.solve_ms"] = mean_ms("partition.solve")
    out["partition.iterations"] = _mean(
        [(s["attrs"] or {}).get("iterations", 0) for s in solves])
    out["models.eval_calls_per_solve"] = _ratio(sum(e["calls"] for e in evals), len(solves))
    out["models.eval_share"] = _ratio(sum(e["ns"] for e in evals),
                                      sum(dur(s) for s in solves))

    engine = by_name["engine.plan"]
    computed = [s for s in engine if not (s["attrs"] or {}).get("cached", True)]
    out["engine.plan_ms"] = mean_ms("engine.plan")
    out["engine.warm_ratio"] = _ratio(
        sum(1 for s in computed if s["attrs"].get("warm")), len(computed))
    out["cache.nearest_ms"] = mean_ms("cache.nearest")
    out["cache.evictions"] = float(sum(
        m.get("cache", {}).get("evictions", 0) for m in server_metrics(metrics)))

    out["wal.put_ms"] = mean_ms("wal.put")
    out["wal.fsync_ms"] = mean_ms("wal.fsync")
    out["wal.fsyncs_per_op"] = _ratio(count("wal.fsync"), n_ops)

    out["frontend.handle_ms"] = mean_ms("frontend.handle")
    out["server.request_ms"] = mean_ms("server.request")

    out["feedback.admit_ms"] = mean_ms("feedback.admit")
    out["feedback.refit_ms"] = mean_ms("feedback.refit")
    out["feedback.commit_ratio"] = _ratio(
        sum(1 for o in refit_outcomes if o == "committed"), len(refit_outcomes))
    out["feedback.resolved_plans"] = float(sum(
        m.get("feedback", {}).get("resolved_plans", 0) for m in server_metrics(metrics)))
    out["lineage.propose_ms"] = mean_ms("lineage.propose")
    out["lineage.commit_ms"] = mean_ms("lineage.commit")

    relays = by_name["router.relay"]
    out["router.relay_ms"] = _mean([
        self_time((s["t0"], s["t1"]),
                  [(c["t0"], c["t1"]) for c in children[(s["pid"], s["sid"])]])
        for s in relays
    ]) / 1e6
    out["shard.call_ms"] = mean_ms("shard.call")
    # Opened while relaying timed requests: 0 while the keep-alive links
    # hold; a health poll holding a link's only connection can add one.
    out["shard.connections_opened"] = float(count("shard.connect"))

    out["client.ms"] = _mean([op.client_s * 1e3 for op in ops])
    out["trace.overhead_frac"] = overhead_frac
    return out
