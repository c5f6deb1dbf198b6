"""The four closed-loop workloads and the checks on their outputs.

Each workload owns its inputs (generated from the seed before the server
is spawned), the payload of the set-up probe (the first plan request of
every launch), an untimed warm phase, a timed phase of a fixed number of
operations, and the checks that decide which operations failed.

Every payload carries an ``id`` (``s-``/``w-``/``t-`` for probe, warm and
timed operations); both front ends echo it, and the traced run joins
server spans to client round trips by it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
from loadgen import Client, ServerError


@dataclass
class Op:
    """One request of the closed loop and what the client saw."""

    kind: str            # "plan" or "feedback"
    rid: str
    start: float = 0.0   # perf_counter at send
    rtt: float = 0.0     # seconds from send to the last response byte
    client_s: float = 0.0  # client-side seconds outside the round trip
    ok: bool = False
    response: Any = None


@dataclass
class Outcome:
    """The checks' verdict on one launch."""

    ops: List[Op] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)   # printed, not failures

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def fail(self, op: Op, why: str) -> None:
        """Mark ``op`` failed; the first few reasons are kept for the log."""
        if len(self.problems) < 20:
            self.problems.append(f"{op.rid}: {why}")
        op.ok = False


def load_models(points_dir: Path) -> List[Any]:
    """Fit the models exactly as ``fupermod serve`` does with its defaults."""
    from repro.cli import build_parser
    from repro.core.registry import model_factory
    from repro.io.files import load_points

    defaults = build_parser().parse_args(["serve", "--points", str(points_dir)])
    factory = model_factory(defaults.model)
    models = []
    for path in sorted(points_dir.glob("rank*.points")):
        model = factory()
        model.update_many(load_points(path)[0])
        models.append(model)
    return models


def reference_sizes(models: Sequence[Any], total: int) -> Tuple[int, ...]:
    """A cold ``partition_geometric`` solve in this process."""
    from repro.core.partition import partition_geometric

    return tuple(p.d for p in partition_geometric(total, models).parts)


def exchange(client: Client, kind: str, rid: str, payload: Dict[str, Any]) -> Op:
    """One closed-loop request; the round trip is timed by the client."""
    began = time.perf_counter()
    op = Op(kind=kind, rid=rid)
    payload["id"] = rid
    try:
        status, body, op.start, op.rtt = client.post(
            "/plan" if kind == "plan" else "/feedback", payload)
    except ServerError as exc:
        op.response = {"error": str(exc)}
        op.client_s = time.perf_counter() - began - op.rtt
        return op
    op.ok = status == 200 and isinstance(body, dict) and body.get("id") == rid
    op.response = body if isinstance(body, dict) else {"error": f"status {status}"}
    if status != 200:
        op.response.setdefault("error", f"status {status}")
    op.client_s = time.perf_counter() - began - op.rtt
    return op


class Workload:
    """Base: a named traffic mix over a generated device set."""

    name = ""
    devices = 0
    hi = 0                # largest requested total: the measured sizes reach it
    serve_args: Tuple[str, ...] = ()
    launches = 5          # timed launches per run; setup_s is their median
    slice = 1             # timed steps between two reference-task samples

    def __init__(self, work: Path, seed: int, seconds: int) -> None:
        self.work = work
        self.seed = int(seed)
        self.seconds = int(seconds)
        self.points = work / "points"

    # -- inputs --------------------------------------------------------------

    def prepare(self) -> None:
        """Generate point files and the request stream (before any spawn)."""
        self.device_set = inputs.make_devices(self.devices, self.seed)
        inputs.write_point_files(self.device_set, self.hi, self.seed, self.points)

    # -- phases --------------------------------------------------------------

    def probe_payload(self) -> Dict[str, Any]:
        """The set-up probe: the first plan request of a launch."""
        raise NotImplementedError

    def check_probe(self, op: Op, outcome: Outcome) -> None:
        """Check the probe's response (a cold solve)."""
        self.check_plan(op, outcome, self.probe_payload()["total"], cached=False)

    def warm(self, client: Client, outcome: Outcome) -> None:
        """Untimed requests that bring the server to its steady state."""

    def steps(self) -> int:
        """How many steps the timed phase has (operations, or rounds)."""
        raise NotImplementedError

    def timed(self, client: Client, outcome: Outcome, steps: range) -> None:
        """Run the timed phase's ``steps``: a fixed number of closed-loop
        operations.  Consecutive slices of ``range(steps())`` may run with
        pauses between them; together they are the timed phase."""
        raise NotImplementedError

    def verify(self, metrics: Dict[str, Any], outcome: Outcome) -> None:
        """Checks that need the whole run (after the timed phase)."""

    def refit_outcomes(self) -> List[str]:
        """Refit outcomes the client saw in the timed phase, in order."""
        return []

    # -- shared checks -------------------------------------------------------

    def check_plan(self, op: Op, outcome: Outcome, total: int,
                   cached: Optional[bool] = None,
                   expect: Optional[Tuple[int, ...]] = None) -> None:
        """A plan response: right total, one share per device, and, where
        given, the expected cache state and bit-identical sizes."""
        body = op.response
        if not op.ok:
            outcome.fail(op, f"request failed: {body.get('error', body)}")
            return
        sizes = body.get("sizes")
        if not isinstance(sizes, list) or len(sizes) != self.devices:
            outcome.fail(op, f"expected {self.devices} sizes")
        elif body.get("total") != total or sum(sizes) != total:
            outcome.fail(op, f"sizes do not sum to {total}")
        elif cached is not None and body.get("cached") is not cached:
            outcome.fail(op, f"expected cached={cached}, got {body.get('cached')}")
        elif expect is not None and tuple(sizes) != expect:
            outcome.fail(op, "sizes differ from the reference solve")


class HitWorkload(Workload):
    """Cache hits: warm ``keys`` distinct totals, then draw among them."""

    name = "hit-64"
    devices = 64
    keys = 32
    rate = 250            # ops per second of the timed phase on a 2-vCPU host
    slice = 8
    lo, hi = 200_000, 800_000

    def prepare(self) -> None:
        super().prepare()
        self.totals = inputs.distinct_totals(self.keys, self.lo, self.hi, self.seed, 1)
        self.picks = inputs.uniform_picks(round(self.rate * self.seconds), self.keys,
                                          self.seed, 1)
        models = load_models(self.points)
        self.expect = {t: reference_sizes(models, t) for t in self.totals}

    def probe_payload(self) -> Dict[str, Any]:
        return {"total": self.totals[0]}

    def check_probe(self, op: Op, outcome: Outcome) -> None:
        self.check_plan(op, outcome, self.totals[0], cached=False,
                        expect=self.expect[self.totals[0]])

    def warm(self, client: Client, outcome: Outcome) -> None:
        for i, total in enumerate(self.totals[1:]):
            op = exchange(client, "plan", f"w-{i}", {"total": total})
            outcome.ops.append(op)
            self.check_plan(op, outcome, total, cached=False, expect=self.expect[total])

    def steps(self) -> int:
        return len(self.picks)

    def timed(self, client: Client, outcome: Outcome, steps: range) -> None:
        for i in steps:
            total = self.totals[self.picks[i]]
            op = exchange(client, "plan", f"t-{i}", {"total": total})
            outcome.ops.append(op)
            self.check_plan(op, outcome, total, cached=True, expect=self.expect[total])


class FleetWorkload(HitWorkload):
    """Cache hits through the router of a two-worker fleet."""

    name = "fleet-4"
    devices = 4
    keys = 64
    rate = 750
    slice = 24
    lo, hi = 20_000, 200_000
    serve_args = ("--workers", "2")
    launches = 4          # a fleet launch costs three processes' start-up

    def warm(self, client: Client, outcome: Outcome) -> None:
        """Warm every key, then wait until each solve has reached its
        replica, so no background push lands in the timed phase."""
        super().warm(client, outcome)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                shards = client.get("/metrics")["metrics"]["shards"].values()
            except ServerError as exc:
                outcome.problems.append(f"no fleet /metrics: {exc}")
                return
            solved = sum(m["serve"]["computations"] for m in shards)
            received = sum(m["replication"].get("replicas_received", 0) for m in shards)
            if received >= solved:
                return
            time.sleep(0.05)
        outcome.problems.append("replication did not catch up before the timed phase")


class ColdWorkload(Workload):
    """Every operation a fresh distinct total: a warm-started cold solve."""

    name = "cold-256"
    devices = 256
    rate = 9
    min_ops = 100         # p90 needs ten samples beyond it
    samples = 3           # timed responses re-solved in-process afterwards
    lo, hi = 500_000, 2_000_000

    def prepare(self) -> None:
        super().prepare()
        count = max(self.min_ops, round(self.rate * self.seconds))
        totals = inputs.distinct_totals(count + 1, self.lo, self.hi, self.seed, 2)
        self.probe_total, self.totals = totals[0], totals[1:]
        self.sampled = inputs.sample_indices(self.samples, count, self.seed, 2)

    def probe_payload(self) -> Dict[str, Any]:
        return {"total": self.probe_total}

    def warm(self, client: Client, outcome: Outcome) -> None:
        self.served: Dict[int, Op] = {}

    def steps(self) -> int:
        return len(self.totals)

    def timed(self, client: Client, outcome: Outcome, steps: range) -> None:
        for i in steps:
            total = self.totals[i]
            op = exchange(client, "plan", f"t-{i}", {"total": total})
            outcome.ops.append(op)
            self.check_plan(op, outcome, total, cached=False)
            if i in self.sampled:
                self.served[i] = op

    def verify(self, metrics: Dict[str, Any], outcome: Outcome) -> None:
        models = load_models(self.points)
        for i, op in self.served.items():
            if op.ok and tuple(op.response["sizes"]) != reference_sizes(
                    models, self.totals[i]):
                outcome.fail(op, "sizes differ from the reference solve")


class FeedbackWorkload(Workload):
    """Eight apps in round robin: plan, run on the devices, report times."""

    name = "feedback-64"
    devices = 64
    apps = 8
    rounds_per_second = 2.7
    min_rounds = 14       # >= 100 plan samples for p90
    lo, hi = 200_000, 800_000

    def prepare(self) -> None:
        super().prepare()
        self.totals = inputs.distinct_totals(self.apps, self.lo, self.hi, self.seed, 3)
        rounds = max(self.min_rounds, round(self.rounds_per_second * self.seconds))
        self.rounds = rounds + rounds % 2   # whole refit cycles of 16 reports
        self.oracle = inputs.FeedbackOracle(self.device_set, self.rounds, self.seed)
        self.replay: Optional[Dict[str, Any]] = None

    def probe_payload(self) -> Dict[str, Any]:
        return {"total": self.totals[0]}

    def warm(self, client: Client, outcome: Outcome) -> None:
        self.plans: List[Op] = []
        self.reports: List[Op] = []
        for app, total in enumerate(self.totals[1:], start=1):
            op = exchange(client, "plan", f"w-{app}", {"total": total})
            outcome.ops.append(op)
            self.check_plan(op, outcome, total, cached=False)

    def steps(self) -> int:
        """One step per app per round: its plan, then its report."""
        return self.rounds * self.apps

    def report(self, round_no: int, app: int, sizes: Sequence[int]) -> Dict[str, Any]:
        """The feedback payload app ``app`` posts after running ``sizes``."""
        return {
            "source": f"app{app}",
            "total": self.totals[app],
            "sizes": list(sizes),
            "times": self.oracle.observe(round_no, app, sizes),
        }

    def timed(self, client: Client, outcome: Outcome, steps: range) -> None:
        for step in steps:
            round_no, app = divmod(step, self.apps)
            total = self.totals[app]
            plan = exchange(client, "plan", f"t-{2 * step}", {"total": total})
            outcome.ops.append(plan)
            self.plans.append(plan)
            self.check_plan(plan, outcome, total)
            if not plan.ok or not reportable(plan.response["sizes"]):
                continue
            began = time.perf_counter()
            payload = self.report(round_no, app, plan.response["sizes"])
            spent = time.perf_counter() - began
            fb = exchange(client, "feedback", f"t-{2 * step + 1}", payload)
            fb.client_s += spent
            outcome.ops.append(fb)
            self.reports.append(fb)
            if not fb.ok or fb.response.get("status") != "accepted":
                outcome.fail(fb, f"report not accepted: {fb.response}")

    def refit_outcomes(self) -> List[str]:
        """The served refit outcomes, in order."""
        return [op.response.get("refit") for op in self.reports
                if op.ok and op.response.get("refit") is not None]

    def verify(self, metrics: Dict[str, Any], outcome: Outcome) -> None:
        unreported = sum(1 for op in self.plans
                         if op.ok and not reportable(op.response["sizes"]))
        if unreported:
            outcome.notes.append(f"{unreported} plans left a rank with no share "
                                 "and were not reported")
        served = self.refit_outcomes()
        commits = served.count("committed")
        epoch = metrics.get("feedback", {}).get("lineage", {}).get("epoch")
        if epoch != commits:
            outcome.problems.append(
                f"/metrics epoch {epoch} != {commits} committed refits")
        if self.replay is None:   # computed once, shared by both traced runs
            self.replay = replay_feedback(self)
        replay = self.replay
        if replay["outcomes"] != served:
            outcome.problems.append(
                f"refit outcomes {served} differ from the replay {replay['outcomes']}")
        for op, sizes in zip(self.plans, replay["sizes"]):
            if op.ok and tuple(op.response["sizes"]) != sizes:
                outcome.fail(op, "plan differs from the in-process replay")


def reportable(sizes: Sequence[int]) -> bool:
    """Whether an app can report on a plan: the feedback contract needs
    a share of at least one unit on every rank, but a solve on refitted
    models can leave a rank with none.  Such a plan is run and not
    reported, by the client and by the replay alike."""
    return min(sizes) >= 1


def replay_feedback(workload: FeedbackWorkload) -> Dict[str, Any]:
    """Re-run the feedback workload in-process through the same library
    objects ``fupermod serve`` wires with its default flags, returning the
    plan sizes and refit outcomes a correct server must have produced."""
    from repro.cli import build_parser
    from repro.serve import (
        BreakerBoard, FeedbackController, FeedbackQuarantine, ModelLineage,
        PlanCache, PlanEngine, PlanServer,
    )

    args = build_parser().parse_args(["serve", "--points", str(workload.points)])
    models = load_models(workload.points)
    engine = PlanEngine(
        cache=PlanCache(capacity=args.cache_size, ttl=args.ttl),
        partitioner=args.algorithm, warm=not args.no_warm,
        breakers=BreakerBoard(cooldown=args.breaker_cooldown),
    )
    server = PlanServer(models, engine=engine, max_workers=1)
    lineage = ModelLineage(models)
    server.models = lineage.models
    controller = FeedbackController(
        server, lineage,
        quarantine=FeedbackQuarantine(
            k=args.feedback_k, max_strikes=args.feedback_strikes,
            rate_limit=args.feedback_rate,
        ),
        refit_every=args.refit_every,
    )
    sizes: List[Tuple[int, ...]] = []
    outcomes: List[str] = []
    try:
        for total in workload.totals:
            server.request(total)
        for round_no in range(workload.rounds):
            for app, total in enumerate(workload.totals):
                plan = tuple(server.request(total).sizes)
                sizes.append(plan)
                if not reportable(plan):
                    continue
                refit = controller.handle(workload.report(round_no, app, plan))["refit"]
                if refit is not None:
                    outcomes.append(refit)
    finally:
        server.close()
    return {"sizes": sizes, "outcomes": outcomes}


WORKLOADS = {w.name: w for w in (HitWorkload, ColdWorkload, FeedbackWorkload,
                                 FleetWorkload)}
