"""Fingerprint stability: the contract the plan cache is built on."""

from __future__ import annotations

import sys
import threading

import pytest

from tests.conftest import model_from_time_fn
from repro.core.models import (
    AkimaModel,
    ConstantModel,
    LinearModel,
    PchipModel,
    PiecewiseModel,
    SegmentedLinearModel,
)
from repro.core.models.energy import (
    ConstantEnergyModel,
    LinearEnergyModel,
    PiecewiseEnergyModel,
)
from repro.core.partition.pareto import BlendedModel
from repro.core.point import MeasurementPoint
from repro.errors import FuPerModError
from repro.serve.fingerprint import (
    canonical,
    digest,
    fingerprint_model,
    fingerprint_models,
    fingerprint_request,
)

pytestmark = pytest.mark.serve

MODEL_CLASSES = [
    ConstantModel,
    PiecewiseModel,
    AkimaModel,
    LinearModel,
    PchipModel,
    SegmentedLinearModel,
]

SIZES = [16, 64, 256, 1024]


def _time_fn(d):
    return d / 150.0 + 1e-4


class TestCanonical:
    """The canonical encoding underlying every digest."""

    def test_floats_bit_exact(self):
        assert canonical(0.1) == repr(0.1)
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_negative_zero_distinguished(self):
        assert canonical(-0.0) != canonical(0.0)

    def test_bool_not_confused_with_int(self):
        assert canonical(True) != canonical(1)

    def test_mapping_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_numpy_scalars_match_python(self):
        np = pytest.importorskip("numpy")
        assert canonical(np.float64(0.25)) == canonical(0.25)
        assert canonical(np.int64(7)) == canonical(7)

    def test_unsupported_type_raises(self):
        with pytest.raises(FuPerModError, match="canonicalise"):
            canonical(object())

    def test_digest_sensitive_to_part_boundaries(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert digest("ab", "c") != digest("a", "bc")


class TestModelFingerprints:
    """Fingerprints follow fitted parameters, not object identity."""

    @pytest.mark.parametrize("model_cls", MODEL_CLASSES)
    def test_same_fit_same_fingerprint(self, model_cls):
        a = model_from_time_fn(model_cls, _time_fn, SIZES)
        b = model_from_time_fn(model_cls, _time_fn, SIZES)
        assert fingerprint_model(a) == fingerprint_model(b)

    @pytest.mark.parametrize("model_cls", MODEL_CLASSES)
    def test_different_fit_different_fingerprint(self, model_cls):
        a = model_from_time_fn(model_cls, _time_fn, SIZES)
        b = model_from_time_fn(model_cls, lambda d: d / 75.0 + 1e-4, SIZES)
        assert fingerprint_model(a) != fingerprint_model(b)

    def test_families_never_collide(self):
        fps = {
            fingerprint_model(model_from_time_fn(cls, _time_fn, SIZES))
            for cls in MODEL_CLASSES
        }
        assert len(fps) == len(MODEL_CLASSES)

    def test_fingerprint_resolves_lazy_fit(self):
        model = PiecewiseModel()
        model.update_many(
            [MeasurementPoint(d=d, t=_time_fn(d), reps=1, ci=0.0)
             for d in SIZES]
        )
        # No evaluation has happened yet; fingerprinting must force the
        # fit rather than hash an unfitted placeholder.
        fp_lazy = fingerprint_model(model)
        model.time(100)
        assert fingerprint_model(model) == fp_lazy

    def test_refit_changes_fingerprint(self):
        model = model_from_time_fn(PiecewiseModel, _time_fn, SIZES)
        before = fingerprint_model(model)
        model.update(MeasurementPoint(d=2048, t=_time_fn(2048) * 2, reps=1,
                                      ci=0.0))
        assert fingerprint_model(model) != before

    def test_unfingerprintable_object_raises(self):
        with pytest.raises(FuPerModError, match="fingerprint_state"):
            fingerprint_model(object())


#: Every speed family and energy twin, mapped to the model of the other
#: objective fitted alongside it (``energy_model_for`` and its inverse).
OBJECTIVE_TWIN = {
    ConstantModel: ConstantEnergyModel,
    LinearModel: LinearEnergyModel,
    PiecewiseModel: PiecewiseEnergyModel,
    AkimaModel: PiecewiseEnergyModel,
    PchipModel: PiecewiseEnergyModel,
    SegmentedLinearModel: PiecewiseEnergyModel,
    ConstantEnergyModel: ConstantModel,
    LinearEnergyModel: LinearModel,
    PiecewiseEnergyModel: PiecewiseModel,
}


def _point(d, slowdown):
    return MeasurementPoint(d=d, t=_time_fn(d) * slowdown, reps=1, ci=0.0)


class TestFingerprintMemo:
    """Per-model memo keyed on the mutation counter: never stale."""

    @pytest.mark.parametrize(
        "model_cls", list(OBJECTIVE_TWIN), ids=lambda cls: cls.__name__
    )
    def test_memo_follows_every_ingest(self, model_cls):
        model = model_from_time_fn(model_cls, _time_fn, SIZES)
        twin = model_from_time_fn(OBJECTIVE_TWIN[model_cls], _time_fn, SIZES)
        real_state = model.fingerprint_state
        calls = []

        def spy():
            calls.append(1)
            return real_state()

        model.fingerprint_state = spy
        ingests = [
            lambda m: None,
            lambda m: m.update(_point(2048, 2.0)),
            lambda m: m.update_many([_point(512, 1.5), _point(8192, 1.5)]),
        ]
        seen = set()
        for ingest in ingests:
            ingest(model)
            ingest(twin)
            fp = fingerprint_model(model)
            assert fp == digest("model", real_state())
            assert fp not in seen, "an ingest left the fingerprint unchanged"
            seen.add(fp)
            calls.clear()
            assert fingerprint_model(model) == fp
            assert calls == [], "a repeat call re-derived the fitted state"
            assert fingerprint_model(twin) != fp

    def test_ingest_racing_the_digest_only_costs_a_miss(self):
        model = model_from_time_fn(PiecewiseModel, _time_fn, SIZES)
        real_state = model.fingerprint_state

        def state_then_ingest():
            # The state is taken, then another thread ingests before the
            # memo is stored: the memo must not pass for the new version.
            state = real_state()
            model.update(_point(2048, 2.0))
            return state

        model.fingerprint_state = state_then_ingest
        fingerprint_model(model)
        model.fingerprint_state = real_state
        assert fingerprint_model(model) == digest("model", real_state())

    def test_blend_memo_follows_its_components(self):
        speed = model_from_time_fn(PiecewiseModel, _time_fn, SIZES)
        energy = model_from_time_fn(PiecewiseEnergyModel, _time_fn, SIZES)
        blend = BlendedModel(speed, energy, 0.5, 0.5)
        before = fingerprint_model(blend)
        energy.update(_point(2048, 2.0))
        after = fingerprint_model(blend)
        assert after != before
        assert after == digest("model", blend.fingerprint_state())

    def test_concurrent_ingest_never_serves_an_older_version(self):
        # A model whose state is a thread-safe snapshot, so the race under
        # test is the memo's alone: every fingerprint a reader gets must
        # be of a version at least as new as the one it saw before asking.
        class Growing:
            def __init__(self):
                self._points = []
                self._version = 0

            def ingest(self, value):
                self._points.append(value)
                self._version += 1

            def fingerprint_state(self):
                return ("Growing", tuple(self._points))

        model = Growing()
        done = threading.Event()
        seen = []

        def reader():
            while not done.is_set():
                before = model._version
                seen.append((before, fingerprint_model(model)))

        readers = [threading.Thread(target=reader) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for i in range(200):
                model.ingest(i)
                fingerprint_model(model)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        version_of = {
            digest("model", ("Growing", tuple(range(k)))): k
            for k in range(201)
        }
        assert seen
        for before, fp in seen:
            assert version_of[fp] >= before
        assert version_of[fingerprint_model(model)] == 200

    def test_unversioned_model_is_digested_every_call(self):
        calls = []

        class DuckModel:
            def fingerprint_state(self):
                calls.append(1)
                return ("DuckModel", len(calls))

        duck = DuckModel()
        assert fingerprint_model(duck) != fingerprint_model(duck)
        assert len(calls) == 2


class TestModelSetAndRequest:
    """Set and request fingerprints."""

    def test_rank_order_matters(self):
        fast = model_from_time_fn(ConstantModel, lambda d: d / 200.0, [64])
        slow = model_from_time_fn(ConstantModel, lambda d: d / 50.0, [64])
        assert fingerprint_models([fast, slow]) != fingerprint_models(
            [slow, fast]
        )

    def test_request_varies_with_every_field(self):
        base = fingerprint_request("mfp", 1000, "geometric", {})
        assert fingerprint_request("mfp2", 1000, "geometric", {}) != base
        assert fingerprint_request("mfp", 1001, "geometric", {}) != base
        assert fingerprint_request("mfp", 1000, "numerical", {}) != base
        assert fingerprint_request(
            "mfp", 1000, "geometric", {"probes": 4}
        ) != base

    def test_request_option_order_insensitive(self):
        a = fingerprint_request("m", 10, "geometric", {"a": 1, "b": 2.5})
        b = fingerprint_request("m", 10, "geometric", {"b": 2.5, "a": 1})
        assert a == b
