"""Run ``fupermod serve`` (or one fleet worker) with span tracing.

Usage (the benchmark's traced run does this; ``PERFBENCH_TRACE_DIR``
names the directory the spans are written to)::

    PERFBENCH_TRACE_DIR=DIR python perfbench/launcher.py serve SERVE_ARGS...
    PERFBENCH_TRACE_DIR=DIR python perfbench/launcher.py worker WORKER_ARGS...

It wraps the public functions of each serving layer where their callers
look them up, then hands over to ``repro.cli.main`` (or the worker's
``main``).  Nothing under ``src/`` changes.  A fleet's workers are
started through this launcher too, so every process of the server tree
is traced.  Spans are kept in memory and written out when the process
exits, after the server's own SIGTERM drain.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path
from typing import Any, Optional

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

from tracing import Tracer  # noqa: E402

_RID = re.compile(rb'"id":\s*"([^"\\]*)"')


def _payload_rid(payload: Any) -> Optional[str]:
    """The request id in a decoded payload, or in raw JSON bytes."""
    if isinstance(payload, dict):
        rid = payload.get("id")
        return rid if isinstance(rid, str) else None
    if isinstance(payload, (bytes, bytearray)):
        match = _RID.search(payload)
        return match.group(1).decode("ascii", "replace") if match else None
    return None


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of this process."""
    import asyncio

    import repro.serve.aio as aio
    import repro.serve.engine as engine_mod
    import repro.serve.lineage as lineage_mod
    from repro.core import registry
    from repro.core.models import PiecewiseModel
    from repro.serve.cache import PlanCache
    from repro.serve.engine import PlanEngine
    from repro.serve.feedback import FeedbackController, FeedbackQuarantine
    from repro.serve.fleet import PlanFleet
    from repro.serve.lineage import ModelLineage
    from repro.serve.router import PlanRouter, WorkerLink
    from repro.serve.server import PlanServer
    from repro.serve.wal import DurablePlanCache

    wrap = tracer.wrap

    def arg_rid(index):
        return lambda args, kwargs: _payload_rid(args[index]) if len(args) > index else None

    def hit(args, kwargs, result):
        return {"hit": True}

    # aio: the fast lane, the executor path and response encoding.
    aio.try_fast_plan = wrap(aio.try_fast_plan, "aio.fast_lane", rid_of=arg_rid(1),
                             attrs_of=hit)
    aio.handle_request = wrap(aio.handle_request, "frontend.handle", rid_of=arg_rid(1))
    aio.encode_response = wrap(aio.encode_response, "aio.encode", rid_of=arg_rid(1))

    # Fingerprinting, looked up by the engine and by the lineage.
    engine_mod.fingerprint_models = wrap(engine_mod.fingerprint_models,
                                         "fingerprint.models")
    lineage_mod.fingerprint_models = wrap(lineage_mod.fingerprint_models,
                                          "fingerprint.models")

    # Server, engine, cache and WAL.
    PlanServer.try_cached = wrap(PlanServer.try_cached, "server.try_cached")
    PlanServer.request = wrap(PlanServer.request, "server.request")

    request = PlanEngine.request

    def remember_owner(*args, **kwargs):
        # Not a span: record which open span (try_cached or request) built
        # this plan key, so the pool thread that solves it can link back.
        result = request(*args, **kwargs)
        current = tracer.current()
        if current is not None:
            tracer.key_owner[result.key] = current
        return result

    def plan_parent(args, kwargs):
        return tracer.key_owner.get(args[2].key)

    def plan_attrs(args, kwargs, result):
        return {"cached": bool(result.cached), "warm": bool(result.warm)}

    PlanEngine.request = remember_owner
    PlanEngine.plan_request = wrap(PlanEngine.plan_request, "engine.plan",
                                   parent_of=plan_parent, attrs_of=plan_attrs)
    PlanCache.peek = wrap(PlanCache.peek, "cache.peek")
    PlanCache.get = wrap(PlanCache.get, "cache.get", attrs_of=hit)
    PlanCache.nearest = wrap(PlanCache.nearest, "cache.nearest")
    PlanCache.put = wrap(PlanCache.put, "cache.put")
    DurablePlanCache.put = wrap(DurablePlanCache.put, "wal.put")
    os.fsync = wrap(os.fsync, "wal.fsync")

    # The registered geometric partitioner and the models' batch kernels.
    def iterations(args, kwargs, result):
        cert = getattr(result, "convergence", None)
        return {"iterations": cert.iterations} if cert is not None else None

    registry.register_partitioner(
        "geometric",
        wrap(registry.partitioner("geometric"), "partition.solve",
             attrs_of=iterations),
        overwrite=True,
    )
    PiecewiseModel.allocation_batch = tracer.count(
        PiecewiseModel.allocation_batch, "models.eval")
    PiecewiseModel.time_batch = tracer.count(PiecewiseModel.time_batch, "models.eval")

    # Closed-loop refinement.
    FeedbackController.handle = wrap(FeedbackController.handle, "feedback.handle")
    FeedbackQuarantine.admit = wrap(FeedbackQuarantine.admit, "feedback.admit")
    FeedbackController._refit = wrap(FeedbackController._refit, "feedback.refit")
    ModelLineage.propose = wrap(ModelLineage.propose, "lineage.propose")
    ModelLineage.commit = wrap(ModelLineage.commit, "lineage.commit")

    # Fleet: the router's relay, its keep-alive links to the shards, and
    # the connections those links open.  Workers run through this launcher.
    PlanRouter._route_plan = wrap(PlanRouter._route_plan, "router.relay",
                                  rid_of=arg_rid(1))
    WorkerLink.request = wrap(WorkerLink.request, "shard.call")
    asyncio.open_connection = wrap(asyncio.open_connection, "shard.connect")
    worker_cmd = PlanFleet._worker_cmd

    def traced_worker_cmd(self, shard):
        cmd = worker_cmd(self, shard)
        module = cmd.index("-m")
        return [cmd[0], str(Path(__file__).resolve()), "worker", *cmd[module + 2:]]

    PlanFleet._worker_cmd = traced_worker_cmd


def main(argv) -> int:
    """Trace one server process: ``serve ARGS`` or ``worker ARGS``."""
    if not argv or argv[0] not in ("serve", "worker"):
        print("usage: launcher.py serve|worker ARGS...", file=sys.stderr)
        return 2
    trace_dir = Path(os.environ["PERFBENCH_TRACE_DIR"])
    tracer = Tracer()
    install(tracer)
    try:
        if argv[0] == "serve":
            from repro.cli import main as entry

            return entry(["serve", *argv[1:]])
        from repro.serve.worker import main as entry

        return entry(list(argv[1:]))
    finally:
        tracer.dump(trace_dir / f"spans-{os.getpid()}.jsonl")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
