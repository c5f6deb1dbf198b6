"""In-memory span tracer for the benchmark's traced run.

A span records one call into a layer's public function: its name, the
span that caused it, the request id it serves, and start/end instants on
``time.perf_counter_ns`` -- ``CLOCK_MONOTONIC`` on Linux, shared by the
load generator and every server process, so spans from the router, the
shards and the client line up on one timeline.

Spans stay in memory and are written out once, when the traced process
exits (:meth:`Tracer.dump`).  Hot leaf calls (a model evaluation runs
thousands of times per solve) are not spans: :meth:`Tracer.count` adds
their call count and time to the enclosing span instead.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span id, request id)`` of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

RidOf = Callable[[tuple, dict], Optional[str]]
AttrsOf = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


class Tracer:
    """Collects spans and leaf counts for one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, Optional[str], int, int,
                               Optional[Dict[str, Any]]]] = []
        self.leaves: Dict[Tuple[Optional[int], str], List[int]] = {}
        self._ids = itertools.count(1)
        #: Plan key -> ``(span id, request id)`` of the span that built it.
        #: A plan computed on the server's worker pool runs in a thread
        #: with no open span; this links it back to the request.
        self.key_owner: Dict[str, Tuple[int, Optional[str]]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, rid: Optional[str], parent: Optional[Tuple[int, Optional[str]]]):
        sid = next(self._ids)
        if rid is None and parent is not None:
            rid = parent[1]
        token = _CURRENT.set((sid, rid))
        return sid, rid, token

    def _close(self, sid, parent_sid, name, rid, t0, attrs, token) -> None:
        t1 = time.perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append((sid, parent_sid, name, rid, t0, t1, attrs))

    def wrap(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[RidOf] = None,
        attrs_of: Optional[AttrsOf] = None,
        parent_of: Optional[Callable[[tuple, dict], Optional[Tuple[int, Optional[str]]]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``rid_of`` reads the request id from the arguments (otherwise the
        enclosing span's id is inherited); ``attrs_of`` derives span
        attributes from the result; ``parent_of`` supplies a parent when
        the call runs outside any open span.
        """

        def begin(args, kwargs):
            parent = _CURRENT.get()
            if parent is None and parent_of is not None:
                parent = parent_of(args, kwargs)
            rid = rid_of(args, kwargs) if rid_of is not None else None
            sid, rid, token = self._open(rid, parent)
            return sid, (parent[0] if parent else None), rid, token

        def end(sid, parent_sid, rid, t0, token, args, kwargs, result):
            attrs = None
            if attrs_of is not None and result is not None:
                try:
                    attrs = attrs_of(args, kwargs, result)
                except Exception:  # a tracer must never break the call
                    attrs = None
            self._close(sid, parent_sid, name, rid, t0, attrs, token)

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                sid, parent_sid, rid, token = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(sid, parent_sid, rid, t0, token, args, kwargs, result)
        else:
            def wrapper(*args, **kwargs):
                sid, parent_sid, rid, token = begin(args, kwargs)
                t0 = time.perf_counter_ns()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end(sid, parent_sid, rid, t0, token, args, kwargs, result)

        # functools.wraps sets __wrapped__, so inspect.signature still sees
        # the original parameters (the engine probes for ``warm_start``).
        return functools.wraps(fn)(wrapper)

    def count(self, fn: Callable, key: str) -> Callable:
        """``fn`` adding its calls and time to the enclosing span's ``key``."""
        leaves = self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                current = _CURRENT.get()
                slot = leaves.setdefault((current[0] if current else None, key), [0, 0])
                slot[0] += 1
                slot[1] += elapsed

        return wrapper

    def current(self) -> Optional[Tuple[int, Optional[str]]]:
        """The innermost open span ``(span id, request id)``, if any."""
        return _CURRENT.get()

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span and leaf count as JSON lines to ``path``."""
        pid = os.getpid()
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for sid, parent, name, rid, t0, t1, attrs in list(self.spans):
                fh.write(json.dumps({
                    "pid": pid, "sid": sid, "parent": parent, "name": name,
                    "rid": rid, "t0": t0, "t1": t1, "attrs": attrs,
                }) + "\n")
            for (parent, key), (calls, ns) in list(self.leaves.items()):
                fh.write(json.dumps({
                    "pid": pid, "leaf": key, "parent": parent,
                    "calls": calls, "ns": ns,
                }) + "\n")
        os.replace(tmp, path)
