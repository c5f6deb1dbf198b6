"""Closed-loop model refinement behind an adversarial-feedback quarantine.

The serving stack's models were fitted offline; running apps know the
*actual* per-rank timings.  This module closes the loop -- apps report
timings, accepted points fold back into the models -- while treating
every report as **untrusted input**, because a single lying or
NaN-emitting rank must never poison the models every cached plan depends
on.  The trust boundary has three layers:

1. **Schema validation** (:meth:`FeedbackReport.from_payload`): a payload
   that is not even a well-formed report (missing fields, wrong types,
   mismatched lengths) raises a bare :class:`~repro.errors.FuPerModError`
   -- the front ends map it to HTTP 400 -- and never reaches scoring.
2. **Quarantine scoring** (:class:`FeedbackQuarantine`): a well-formed
   report is scored against the *current* models.  Non-finite or
   non-positive timings, timings outside the ``k``-ratio outlier gate,
   impossible size vectors (including an idle, size-0 rank reporting a
   nonzero time) and rate-limit violations reject the whole
   report with :class:`~repro.errors.FeedbackRejected` (reasons named),
   and every rejection is recorded -- source and all -- in a
   :class:`QuarantineReport` (the :mod:`repro.faults` reporting idiom).
   Sources that keep offending exhaust a strike budget and are
   quarantined outright: later reports get
   :class:`~repro.errors.QuarantineError` (HTTP 403) without scoring.
3. **The regression gate** (:meth:`FeedbackController._refit`): even
   *accepted* feedback only reaches served plans through a refit that
   must predict a held-back window of accepted reports at least as well
   as the parent models.  A refit that predicts worse rolls the lineage
   back -- counted, journalled, surfaced in ``/metrics``.

The outlier gate deliberately uses a **fixed ratio bound** ``k`` against
the current model's prediction (accept ``t`` iff ``pred/k <= t <=
k*pred``) rather than a dispersion learned from accepted residuals: a
learned sigma is itself a poisoning target (feed plausible-but-drifting
reports until the gate widens, then strike), while the fixed bound admits
honest platform drift (2-3x) and rejects the adversarial regime (orders
of magnitude, NaN) without being trainable by the adversary.

Plan consistency across refits is *staleness-bounded*, documented in
``docs/API.md``: served plans change only when the lineage commits an
epoch, rejected feedback never advances the epoch (so adversarial storms
leave served plans bit-identical), and after a commit the stale entries
are invalidated synchronously before the commit call returns -- a plan
observed after an epoch commit lags accepted feedback by at most the
``refit_every`` reports still buffered, never a whole epoch.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    FeedbackRejected,
    FuPerModError,
    ModelError,
    QuarantineError,
)
from repro.serve.lineage import ModelLineage

#: Rejection-reason slugs, in the order checks run.
REASONS = ("rate-limit", "impossible-sizes", "non-finite", "negative", "outlier")


@dataclass(frozen=True)
class FeedbackReport:
    """One app's actual per-rank timings for a plan it executed.

    Attributes:
        source: reporting source's identity (app instance, job id, ...).
        total: the problem size the plan distributed.
        sizes: per-rank sizes the app actually ran with.
        times: per-rank kernel seconds actually observed.
        partitioner: the partitioner the plan came from (provenance and
            fleet routing; not scored).
        options: partitioner options (same role).
    """

    source: str
    total: int
    sizes: Tuple[int, ...]
    times: Tuple[float, ...]
    partitioner: Optional[str] = None
    options: Optional[Mapping[str, Any]] = None

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FeedbackReport":
        """Parse and schema-validate a wire payload.

        Raises a *bare* :class:`~repro.errors.FuPerModError` (the front
        ends' 400 contract) on anything structurally wrong.  Content
        checks -- finiteness, outliers, size plausibility -- belong to
        the quarantine, not here; NaN *parses* as a float and crosses
        this layer deliberately, so the quarantine can name and count it.
        """
        if not isinstance(payload, Mapping):
            raise FuPerModError(
                f"feedback payload must be an object, got {type(payload).__name__}"
            )
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise FuPerModError(
                "feedback needs a non-empty string 'source'"
            )
        total = payload.get("total")
        if isinstance(total, bool) or not isinstance(total, int):
            raise FuPerModError(
                f"feedback 'total' must be an integer, got {total!r}"
            )
        sizes = payload.get("sizes")
        times = payload.get("times")
        if not isinstance(sizes, (list, tuple)) or not sizes:
            raise FuPerModError("feedback needs a non-empty 'sizes' array")
        if not isinstance(times, (list, tuple)) or not times:
            raise FuPerModError("feedback needs a non-empty 'times' array")
        if len(sizes) != len(times):
            raise FuPerModError(
                f"feedback has {len(sizes)} sizes but {len(times)} times"
            )
        clean_sizes: List[int] = []
        for value in sizes:
            if isinstance(value, bool) or not isinstance(value, int):
                raise FuPerModError(
                    f"feedback sizes must be integers, got {value!r}"
                )
            clean_sizes.append(value)
        clean_times: List[float] = []
        for value in times:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FuPerModError(
                    f"feedback times must be numbers, got {value!r}"
                )
            clean_times.append(float(value))
        partitioner = payload.get("partitioner")
        if partitioner is not None and not isinstance(partitioner, str):
            raise FuPerModError(
                f"feedback 'partitioner' must be a string, got {partitioner!r}"
            )
        options = payload.get("options")
        if options is not None and not isinstance(options, Mapping):
            raise FuPerModError(
                f"feedback 'options' must be an object, got {options!r}"
            )
        return cls(
            source=source,
            total=total,
            sizes=tuple(clean_sizes),
            times=tuple(clean_times),
            partitioner=partitioner,
            options=dict(options) if options is not None else None,
        )


@dataclass(frozen=True)
class FeedbackRejection:
    """One report the quarantine refused (the audit-trail unit).

    Attributes:
        source: who sent it.
        reasons: rejection-reason slugs, in check order.
        detail: human-readable specifics (ranks, values, limits).
    """

    source: str
    reasons: Tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class SourceQuarantined:
    """A source excluded from the feedback loop instead of poisoning it.

    Attributes:
        source: the quarantined source's identity.
        strikes: consecutive rejections accumulated at the decision.
        reason: the final straw (last rejection's reason slugs, joined).
    """

    source: str
    strikes: int
    reason: str


@dataclass
class QuarantineReport:
    """Aggregated audit trail of the feedback trust boundary.

    Mirrors :class:`~repro.faults.ResilienceReport`: nothing is hidden --
    every rejection becomes a :class:`FeedbackRejection` naming its
    source, every exclusion a :class:`SourceQuarantined` -- and the
    report is built from deterministic quantities only, so a seeded
    :class:`~repro.faults.FeedbackStorm` replays to a bit-identical
    :meth:`to_dict`.

    Attributes:
        rejections: every refused report, in arrival order.
        quarantined: sources excluded from the loop.
        accepted: reports that passed every check.
    """

    rejections: List[FeedbackRejection] = field(default_factory=list)
    quarantined: List[SourceQuarantined] = field(default_factory=list)
    accepted: int = 0

    def record(
        self, source: str, reasons: Sequence[str], detail: str = ""
    ) -> None:
        """Append one rejection."""
        self.rejections.append(
            FeedbackRejection(
                source=source, reasons=tuple(reasons), detail=detail
            )
        )

    def quarantine(self, source: str, strikes: int, reason: str) -> None:
        """Mark ``source`` as quarantined (idempotent)."""
        if self.is_quarantined(source):
            return
        self.quarantined.append(
            SourceQuarantined(source=source, strikes=strikes, reason=reason)
        )

    def is_quarantined(self, source: str) -> bool:
        """Whether ``source`` has been quarantined."""
        return any(q.source == source for q in self.quarantined)

    @property
    def sources_named(self) -> List[str]:
        """Every source with at least one rejection, sorted."""
        return sorted({r.source for r in self.rejections})

    def to_dict(self) -> Dict[str, Any]:
        """Fully deterministic representation, for equality checks and JSON."""
        return {
            "rejections": [
                {"source": r.source, "reasons": list(r.reasons),
                 "detail": r.detail}
                for r in self.rejections
            ],
            "quarantined": [
                {"source": q.source, "strikes": q.strikes, "reason": q.reason}
                for q in self.quarantined
            ],
            "accepted": self.accepted,
        }

    def summary(self) -> str:
        """One-paragraph human summary for CLI output."""
        lines = [
            f"feedback quarantine: {self.accepted} accepted, "
            f"{len(self.rejections)} rejected, "
            f"{len(self.quarantined)} sources quarantined"
        ]
        for q in self.quarantined:
            lines.append(
                f"  quarantined {q.source!r}: {q.reason} "
                f"after {q.strikes} strikes"
            )
        return "\n".join(lines)


class FeedbackQuarantine:
    """Per-source trust scoring for feedback reports.

    Args:
        k: the outlier ratio bound -- a reported time ``t`` for a rank
            whose current model predicts ``pred`` is accepted iff
            ``pred/k <= t <= k*pred``.  This is the k-sigma gate with the
            dispersion pinned to the model's own prediction scale
            (deliberately not learned from residuals; see the module
            docstring).
        max_strikes: consecutive rejections before a source is
            quarantined outright.  An accepted report resets the streak.
        rate_limit: maximum reports per source per ``rate_window``
            seconds (``None`` disables rate limiting).
        rate_window: the rate-limit window in seconds.
        clock: monotonic-seconds source, injectable for deterministic
            rate-limit tests.

    Not internally locked: :class:`FeedbackController` serialises calls
    under its own lock, keeping streak and rate bookkeeping ordered with
    the accept/refit pipeline.
    """

    def __init__(
        self,
        k: float = 8.0,
        max_strikes: int = 3,
        rate_limit: Optional[int] = None,
        rate_window: float = 60.0,
        clock=None,
    ) -> None:
        if k <= 1.0:
            raise ValueError(f"outlier bound k must exceed 1, got {k}")
        if max_strikes <= 0:
            raise ValueError(f"max_strikes must be positive, got {max_strikes}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {rate_limit}")
        if rate_window <= 0:
            raise ValueError(f"rate_window must be positive, got {rate_window}")
        self.k = k
        self.max_strikes = max_strikes
        self.rate_limit = rate_limit
        self.rate_window = rate_window
        if clock is None:
            import time

            clock = time.monotonic
        self._clock = clock
        self.report = QuarantineReport()
        self._strikes: Dict[str, int] = {}
        self._arrivals: Dict[str, Deque[float]] = {}

    # -- individual checks -------------------------------------------------

    def _check_rate(self, source: str) -> Optional[float]:
        """Record an arrival; seconds until a slot frees if over limit."""
        if self.rate_limit is None:
            return None
        now = self._clock()
        window = self._arrivals.setdefault(source, deque())
        while window and now - window[0] > self.rate_window:
            window.popleft()
        if len(window) >= self.rate_limit:
            return max(0.0, self.rate_window - (now - window[0]))
        window.append(now)
        return None

    def _score_content(
        self, report: FeedbackReport, models: Sequence
    ) -> Tuple[List[str], List[str]]:
        """Content reasons and per-rank details for one report."""
        reasons: List[str] = []
        details: List[str] = []
        if (
            len(report.sizes) != len(models)
            or report.total < 1
            or any(size < 0 for size in report.sizes)
            or sum(report.sizes) != report.total
        ):
            reasons.append("impossible-sizes")
            details.append(
                f"sizes {list(report.sizes)} cannot come from a plan for "
                f"total={report.total} over {len(models)} ranks"
            )
            return reasons, details
        # A plan may leave a rank idle (size 0); an idle rank did no work,
        # so the only honest time it can report is 0.0.
        busy_idle = [
            rank for rank, (size, t) in enumerate(zip(report.sizes, report.times))
            if size == 0 and t != 0.0
        ]
        if busy_idle:
            reasons.append("impossible-sizes")
            details.extend(
                f"rank {rank}: size 0 with time {report.times[rank]!r}"
                for rank in busy_idle
            )
            return reasons, details
        for rank, (size, t) in enumerate(zip(report.sizes, report.times)):
            if size == 0:
                continue  # idle: nothing measured, nothing to gate
            if not math.isfinite(t):
                if "non-finite" not in reasons:
                    reasons.append("non-finite")
                details.append(f"rank {rank}: non-finite time {t!r}")
                continue
            if t <= 0.0:
                if "negative" not in reasons:
                    reasons.append("negative")
                details.append(f"rank {rank}: non-positive time {t!r}")
                continue
            pred = self._predict(models[rank], size)
            if pred is None:
                continue
            if not (pred / self.k <= t <= pred * self.k):
                if "outlier" not in reasons:
                    reasons.append("outlier")
                details.append(
                    f"rank {rank}: time {t!r} vs predicted {pred!r} "
                    f"breaks the k={self.k:g} ratio gate"
                )
        return reasons, details

    @staticmethod
    def _predict(model: Any, size: int) -> Optional[float]:
        """The model's prediction at ``size``, or None when unscorable.

        A model that cannot predict (not enough points, size outside any
        fittable range) yields no gate for that rank -- the finiteness
        and positivity checks still apply, and sizes were already bounded
        by the impossible-sizes check, so this is not an adversarial
        bypass, just honesty about what the model knows.
        """
        try:
            pred = float(model.time(float(size)))
        except (ModelError, FuPerModError, ValueError, OverflowError):
            return None
        if not math.isfinite(pred) or pred <= 0.0:
            return None
        return pred

    # -- the boundary ------------------------------------------------------

    def admit(self, report: FeedbackReport, models: Sequence) -> None:
        """Pass ``report`` through the trust boundary, or raise.

        Check order: standing quarantine (403), rate limit (429), then
        content scoring (400).  Rejection is whole-report atomic -- one
        offending rank refuses the lot, because partial acceptance would
        let an adversary smuggle subtle poison alongside plausible
        values.  Every rejection is recorded in :attr:`report` and
        counts a strike; :attr:`max_strikes` consecutive strikes
        quarantine the source.

        Raises:
            QuarantineError: the source is quarantined (before or by
                this report).
            FeedbackRejected: the report failed rate limiting
                (``retry_after`` set) or content scoring.
        """
        source = report.source
        if self.report.is_quarantined(source):
            raise QuarantineError(
                f"source {source!r} is quarantined; report refused",
                source=source,
            )
        retry_after = self._check_rate(source)
        if retry_after is not None:
            self._strike(source, ("rate-limit",),
                         f"over {self.rate_limit}/{self.rate_window:g}s")
            raise FeedbackRejected(
                f"source {source!r} exceeded {self.rate_limit} reports per "
                f"{self.rate_window:g}s",
                reasons=("rate-limit",),
                source=source,
                retry_after=retry_after,
            )
        reasons, details = self._score_content(report, models)
        if reasons:
            self._strike(source, tuple(reasons), "; ".join(details))
            raise FeedbackRejected(
                f"report from {source!r} rejected: {'; '.join(details)}",
                reasons=tuple(reasons),
                source=source,
            )
        self._strikes.pop(source, None)
        self.report.accepted += 1

    def _strike(
        self, source: str, reasons: Tuple[str, ...], detail: str
    ) -> None:
        self.report.record(source, reasons, detail)
        strikes = self._strikes.get(source, 0) + 1
        self._strikes[source] = strikes
        if strikes >= self.max_strikes:
            self.report.quarantine(source, strikes, ",".join(reasons))

    def quarantined_sources(self) -> List[str]:
        """Sorted identities of quarantined sources."""
        return sorted(q.source for q in self.report.quarantined)


@dataclass
class FeedbackCounters:
    """Mutable feedback-loop counters, surfaced in ``/metrics``.

    Attributes:
        accepted: reports that passed the trust boundary.
        rejected: rejections keyed by reason slug (a multi-reason
            rejection counts once per reason).
        malformed: payloads refused at the schema layer (HTTP 400 before
            scoring; not attributable to a source).
        refits: lineage epochs committed from accepted feedback.
        rollbacks: refits the regression gate refused.
        refit_failures: refit attempts that failed to fit at all.
        invalidated_plans: cache entries dropped because their model
            fingerprint was superseded by an epoch commit.
        resolved_plans: invalidated plans re-solved against the child
            models off the request path.
    """

    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    malformed: int = 0
    refits: int = 0
    rollbacks: int = 0
    refit_failures: int = 0
    invalidated_plans: int = 0
    resolved_plans: int = 0

    def count_rejection(self, reasons: Sequence[str]) -> None:
        """Bump the per-reason counters for one rejection."""
        for reason in reasons:
            self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation (stable key order)."""
        return {
            "accepted": self.accepted,
            "rejected": {key: self.rejected[key] for key in sorted(self.rejected)},
            "malformed": self.malformed,
            "refits": self.refits,
            "rollbacks": self.rollbacks,
            "refit_failures": self.refit_failures,
            "invalidated_plans": self.invalidated_plans,
            "resolved_plans": self.resolved_plans,
        }


class FeedbackController:
    """The closed loop: quarantine -> buffer -> gated refit -> re-solve.

    Wires a :class:`FeedbackQuarantine` and a
    :class:`~repro.serve.lineage.ModelLineage` to a running
    :class:`~repro.serve.server.PlanServer`.  :meth:`handle` is the
    single entry point the front ends dispatch ``{"cmd": "feedback"}``
    to; its pipeline per report:

    1. schema-parse (:meth:`FeedbackReport.from_payload`, 400 on garbage);
    2. quarantine :meth:`~FeedbackQuarantine.admit` (403/429/400);
    3. buffer the accepted per-rank points;
    4. every ``refit_every`` accepted reports, attempt a refit: hold back
       the newest ``holdback_frac`` of the buffer, clone-and-extend the
       models with the rest (:meth:`ModelLineage.propose`), and score
       candidate vs parent on the held-back reports (mean relative
       prediction error).  Candidate no worse -> commit the epoch, swap
       ``server.models`` (one reference assignment -- in-flight requests
       keep the parent set, consistently), invalidate the parent
       fingerprint's cache entries and warm-re-solve their recorded
       specs ascending by total (each solve warm-starts from the last
       via the cache's ``nearest``).  Candidate worse -> journalled
       rollback; nothing served changes.

    The held-back reports return to the buffer either way -- they were
    never trained on, and they fold into the next epoch.

    Thread safety: :meth:`handle` serialises under one lock.  Plan
    serving never takes it; the only shared state is ``server.models``,
    swapped atomically.

    Args:
        server: the plan server whose models this loop refines.
        lineage: the versioned model set (must hold the same model list
            the server serves).
        quarantine: trust boundary (a default one is built if omitted).
        refit_every: accepted reports between refit attempts.
        holdback_frac: fraction of the buffer (newest first) reserved
            for the regression gate, never trained on.
        resolve_limit: maximum invalidated plans to re-solve per commit
            (the rest stay invalidated and re-solve lazily on demand).
    """

    def __init__(
        self,
        server: Any,
        lineage: ModelLineage,
        quarantine: Optional[FeedbackQuarantine] = None,
        refit_every: int = 16,
        holdback_frac: float = 0.25,
        resolve_limit: int = 32,
    ) -> None:
        if refit_every <= 0:
            raise ValueError(f"refit_every must be positive, got {refit_every}")
        if not 0.0 < holdback_frac < 1.0:
            raise ValueError(
                f"holdback_frac must be in (0, 1), got {holdback_frac}"
            )
        if resolve_limit < 0:
            raise ValueError(
                f"resolve_limit must be non-negative, got {resolve_limit}"
            )
        self.server = server
        self.lineage = lineage
        self.quarantine = quarantine if quarantine is not None else FeedbackQuarantine()
        self.refit_every = refit_every
        self.holdback_frac = holdback_frac
        self.resolve_limit = resolve_limit
        self.counters = FeedbackCounters()
        self._pending: List[FeedbackReport] = []
        self._since_refit = 0
        self._lock = threading.Lock()

    # -- the front-end entry point -----------------------------------------

    def handle(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Process one feedback payload end to end.

        Returns the response body for an accepted report:
        ``{"status": "accepted", "epoch", "buffered", "refit"}`` where
        ``refit`` is None unless this report triggered an attempt (then
        ``"committed"``, ``"rolled-back"`` or ``"failed"``).  Raises the
        taxonomy errors documented on :meth:`FeedbackQuarantine.admit`
        and :meth:`FeedbackReport.from_payload` for the front ends to map.
        """
        try:
            report = FeedbackReport.from_payload(payload)
        except FuPerModError:
            with self._lock:
                self.counters.malformed += 1
            raise
        with self._lock:
            try:
                self.quarantine.admit(report, self.server.models)
            except FeedbackRejected as exc:
                self.counters.count_rejection(exc.reasons)
                raise
            self.counters.accepted += 1
            self._pending.append(report)
            self._since_refit += 1
            refit_outcome: Optional[str] = None
            if self._since_refit >= self.refit_every:
                self._since_refit = 0
                refit_outcome = self._refit()
            return {
                "status": "accepted",
                "source": report.source,
                "epoch": self.lineage.epoch,
                "buffered": len(self._pending),
                "refit": refit_outcome,
            }

    # -- refit pipeline (caller holds the lock) ----------------------------

    def _refit(self) -> str:
        """One gated refit attempt; returns its outcome slug."""
        holdback_n = max(1, int(len(self._pending) * self.holdback_frac))
        train = self._pending[:-holdback_n]
        holdback = self._pending[-holdback_n:]
        if not train:
            return "skipped"
        points_per_rank = self._points_by_rank(train)
        try:
            candidate = self.lineage.propose(points_per_rank)
        except FuPerModError as exc:
            self.counters.refit_failures += 1
            self.lineage.rollback(f"refit failed to fit: {exc}")
            return "failed"
        parent_err = self._score(self.server.models, holdback)
        child_err = self._score(candidate.models, holdback)
        if child_err > parent_err:
            self.counters.rollbacks += 1
            self.lineage.rollback(
                f"regression gate: candidate err {child_err:.4g} > "
                f"parent err {parent_err:.4g} on {len(holdback)} held-back "
                f"reports"
            )
            # Holdback AND train stay pending: nothing was folded in, and
            # future accepted reports change the mix before the next try.
            return "rolled-back"
        old_fp = self.lineage.fingerprint
        self.lineage.commit(candidate)
        # One reference assignment: in-flight requests hold the parent
        # list; new requests fingerprint the child.  This *is* the
        # hit-path lineage check -- no lock, no epoch counter per request.
        self.server.models = self.lineage.models
        self.counters.refits += 1
        self._pending = list(holdback)
        self._reconcile_cache(old_fp)
        return "committed"

    def _points_by_rank(
        self, reports: Sequence[FeedbackReport]
    ) -> List[List[Any]]:
        """Accepted reports as per-rank MeasurementPoint lists."""
        from repro.core.point import MeasurementPoint

        ranks = len(self.server.models)
        out: List[List[Any]] = [[] for _ in range(ranks)]
        for report in reports:
            for rank, (size, t) in enumerate(zip(report.sizes, report.times)):
                if size > 0:  # an idle rank measured nothing
                    out[rank].append(MeasurementPoint(d=int(size), t=float(t)))
        return out

    @staticmethod
    def _score(models: Sequence, holdback: Sequence[FeedbackReport]) -> float:
        """Mean relative prediction error of ``models`` on ``holdback``.

        The regression gate's metric: ``|pred - t| / max(t, eps)``
        averaged over every busy (rank, point) in the held-back reports
        (idle, size-0 ranks measured nothing and are skipped).
        Unscorable ranks (model cannot predict) contribute the worst
        case, so a candidate that *lost* the ability to predict cannot
        pass the gate by silence.
        """
        errors: List[float] = []
        for report in holdback:
            for rank, (size, t) in enumerate(zip(report.sizes, report.times)):
                if size == 0:
                    continue  # an idle rank has nothing to predict
                try:
                    pred = float(models[rank].time(float(size)))
                except (FuPerModError, ValueError, OverflowError):
                    errors.append(float("inf"))
                    continue
                if not math.isfinite(pred):
                    errors.append(float("inf"))
                    continue
                errors.append(abs(pred - t) / max(t, 1e-12))
        if not errors:
            return float("inf")
        return sum(errors) / len(errors)

    def _reconcile_cache(self, old_fp: str) -> None:
        """Invalidate the parent epoch's plans; warm-re-solve their specs.

        Runs on the feedback thread -- off the plan request path -- after
        the model swap.  Re-solves ascend by total so each solve
        warm-starts from its predecessor's fresh entry via the cache's
        ``nearest`` lookup; at most :attr:`resolve_limit` specs are
        re-solved (the remainder re-solve lazily on first demand).
        """
        cache = self.server.engine.cache
        specs = cache.invalidate_models(old_fp)
        self.counters.invalidated_plans += len(specs)
        todo = sorted(
            (spec for spec in specs if spec is not None),
            key=lambda spec: spec[0],
        )[: self.resolve_limit]
        models = self.server.models
        for spec in todo:
            total, partitioner, options = spec[0], spec[1], spec[2]
            # Kinded specs (bi-objective plans) append (kind, objective);
            # legacy 3-tuples are time plans.
            kind = str(spec[3]) if len(spec) >= 4 else "time"
            objective = spec[4] if len(spec) >= 5 else None
            energy = getattr(self.server, "energy_models", None)
            if kind != "time" and energy is None:
                continue  # energy side detached: re-solve lazily on demand
            try:
                self.server.engine.plan(
                    models, int(total), partitioner, options,
                    kind=kind, objective=objective,
                    energy_models=energy if kind != "time" else None,
                )
                self.counters.resolved_plans += 1
            except FuPerModError:
                # A spec that no longer solves stays uncached; the next
                # live request for it will surface the error to a caller.
                continue

    # -- introspection -----------------------------------------------------

    def pending(self) -> int:
        """Accepted reports buffered toward the next refit attempt."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> Dict[str, Any]:
        """Feedback-loop snapshot for ``/stats`` and ``/metrics``."""
        with self._lock:
            out = self.counters.to_dict()
            out["quarantined_sources"] = self.quarantine.quarantined_sources()
            out["pending"] = len(self._pending)
            out["lineage"] = self.lineage.stats()
            return out
