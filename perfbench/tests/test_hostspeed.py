"""The host-speed reference that timings are expressed against."""

import pytest

import hostspeed
from hostspeed import NOMINAL_S, reference


def test_reference_time_cancels_a_uniformly_slower_host():
    fast = reference(0.004, NOMINAL_S)
    slow = reference(0.004 * 1.7, NOMINAL_S * 1.7)
    assert fast == pytest.approx(0.004)
    assert slow == pytest.approx(fast)


def test_reference_time_keeps_a_slower_server_on_the_same_host():
    assert reference(0.006, NOMINAL_S * 1.7) == pytest.approx(
        1.5 * reference(0.004, NOMINAL_S * 1.7))


def test_sample_is_positive_and_repeatable_in_magnitude():
    first, second = hostspeed.sample(), hostspeed.sample()
    assert 0 < first < 1 and 0 < second < 1


class _Outcome:
    def __init__(self):
        self.problems = []


class _Run:
    def __init__(self):
        self.outcome = _Outcome()


def _slices(phases):
    """Slices of ten plan ops each; ``phases`` is ``(slowdown, count)``."""
    from workloads import Op

    out = []
    for slowdown, count in phases:
        for _ in range(count):
            ops = [Op(kind="plan", rid="t", rtt=0.002 * slowdown, ok=True)
                   for _ in range(10)]
            out.append((NOMINAL_S * slowdown, 0.02 * slowdown, ops))
    return out


def test_end_to_end_reports_one_figure_across_host_phases():
    from run import end_to_end

    setups = [(1.0, NOMINAL_S), (1.7, NOMINAL_S * 1.7)]
    for phases in ([(1.0, 20)], [(1.7, 20)], [(1.0, 10), (1.7, 10)]):
        run = _Run()
        metrics, raw = end_to_end(run, _slices(phases), setups, 100.0)
        assert metrics["latency_p50_ms"][0] == pytest.approx(2.0)
        assert metrics["latency_p90_ms"][0] == pytest.approx(2.0)
        assert metrics["throughput_rps"][0] == pytest.approx(500.0)
        assert metrics["setup_s"][0] == pytest.approx(1.0)
        assert metrics["server_rss_mb"] == (100.0, "MB")
        assert not run.outcome.problems
    assert raw["latency_p90_ms"] == pytest.approx(3.4)


def test_end_to_end_flags_too_few_samples_for_p90():
    from run import end_to_end

    run = _Run()
    end_to_end(run, _slices([(1.0, 5)]), [(1.0, NOMINAL_S)], 1.0)
    assert "beyond p90" in run.outcome.problems[0]


def test_timed_brackets_each_slice_with_samples(monkeypatch):
    from run import Launch
    from workloads import Op, Outcome

    class Steps:
        slice = 2

        def timed(self, client, outcome, steps):
            outcome.ops.extend(Op(kind="plan", rid=f"t-{i}") for i in steps)

    class FakeRun:
        workload, outcome = Steps(), Outcome()

    samples = iter([1.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    launch = Launch.__new__(Launch)
    launch.run, launch.client = FakeRun(), None
    slices = launch.timed(range(5))
    assert [speed for speed, _s, _ops in slices] == [2.0, 4.0, 6.0]
    assert [[op.rid for op in ops] for _speed, _s, ops in slices] == [
        ["t-0", "t-1"], ["t-2", "t-3"], ["t-4"]]
    assert launch.run.samples == [1.0, 3.0, 5.0, 7.0]
