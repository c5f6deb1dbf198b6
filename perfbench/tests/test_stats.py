"""Percentiles, quartile spreads, interval unions and self time."""

import statistics

import pytest

from stats import percentile, samples_beyond, self_time, summarize, union_length


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(list(range(11)), 90) == 9.0


def test_percentile_of_one_sample_and_bad_input():
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_p90_needs_a_hundred_samples():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(2500, 90) == 250


def test_summarize_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 10.2, 11.8]
    q1, median, q3 = statistics.quantiles(values, n=4)
    s = summarize(values)
    assert (s["q1"], s["median"], s["q3"]) == (q1, median, q3)
    assert s["spread"] == pytest.approx((q3 - q1) / median)
    assert summarize([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "spread": 0.0}


def test_union_counts_overlaps_once():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(5, 5), (7, 6)]) == 0


def test_self_time_subtracts_children_clipped_to_the_span():
    assert self_time((0, 100), []) == 100
    assert self_time((0, 100), [(10, 20), (30, 50)]) == 70
    # Overlapping children (another thread) count once; a child running
    # past the span's end is clipped.
    assert self_time((0, 100), [(10, 40), (20, 50), (90, 130)]) == 50
