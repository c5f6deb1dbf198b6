"""A host-speed reference, timed beside the server, that timing metrics are
expressed against.

The benchmark's reference host, a 2-vCPU virtual machine, runs its CPUs
at one of two speeds about 1.4-2x apart, and a phase can last from a
second to several minutes.  A run of half a minute can fall wholly into
either phase, or straddle both, so raw wall-clock figures of identical
code move by a quarter or more from run to run.  No run length the
benchmark can afford averages that out.

So the client times a fixed **reference task** on the CPU the server is
pinned to, between slices of the timed phase, while the server is idle
in the closed loop.  The task mixes the kinds of work the server does,
using only the standard library and numpy, so nothing a change to
``src/`` does can make it faster or slower.  A timing is reported in
*reference time*: multiplied by :data:`NOMINAL_S` over the task's time
around it.  A host phase then scales both and mostly cancels; a change
to the server scales only the measured figure.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import time

import numpy as np

#: The reference task's time, in seconds, on the fast phase of the
#: reference host (Xeon, 2.1 GHz); scales reference time to seconds.
NOMINAL_S = 0.0002

_rng = random.Random(20130917)
#: A fixed document shaped like a model set: 4 models of 8 points.
DOCUMENT = [
    {"model": f"piecewise-{i}", "points": [[_rng.random() * 1e6, _rng.random()]
                                           for _ in range(8)]}
    for i in range(4)
]
#: Fixed curves for the vector part: 256 points, as in a 256-device set.
_X = np.linspace(1.0, 2.0, 256)
_Y = np.linspace(0.5, 3.0, 256)
#: A connected local socket pair for the system-call part.
_LEFT, _RIGHT = socket.socketpair()


def reference_task() -> float:
    """Seconds one run of the task takes.  It mixes, in roughly equal
    parts, the kinds of work the server's request paths do: interpreted
    Python, canonical JSON encoding and SHA-256 hashing, small vector
    operations, and local socket round trips.  A host phase does not slow
    every kind alike, so a mix follows all four workloads better than
    any one kind."""
    began = time.perf_counter()
    total = 0
    for i in range(1000):
        total += i * i
    text = json.dumps(DOCUMENT, sort_keys=True, separators=(",", ":"))
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    for _ in range(6):
        y = np.interp(_X * 1.1, _X, _Y)
        float((y * _Y).sum()) + int(np.searchsorted(_X, y[0]))
    for _ in range(40):
        _LEFT.send(b"x" * 64)
        _RIGHT.recv(64)
    return time.perf_counter() - began


def sample() -> float:
    """Time the task three times and keep the fastest, so a stray
    preemption does not read as a slow host."""
    return min(reference_task() for _ in range(3))


def reference(seconds: float, sample_s: float) -> float:
    """``seconds`` measured while the task took ``sample_s``, in reference
    time."""
    return seconds * NOMINAL_S / sample_s
