"""The benchmark's arithmetic on hand-made inputs."""

import pytest

from perfbench import stats


def test_percentile_nearest_rank_and_samples_beyond():
    values = list(range(1000, 0, -1))  # unsorted on purpose
    assert stats.percentile(values, 50) == 500
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values, 100) == 1000
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(1000, 50) == 500
    # p99 of fewer than 1000 samples has fewer than ten beyond it.
    assert stats.samples_beyond(512, 99) == 5
    assert stats.percentile([7.5], 99) == 7.5
    assert stats.samples_beyond(1, 99) == 0


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_bad_rank(q):
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], q)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_decay_ratio_steady_is_one():
    times = [0.5 * (i + 1) for i in range(16)]
    assert stats.decay_ratio(times, 16) == pytest.approx(1.0)


def test_decay_ratio_skips_the_fill_and_compares_fixed_windows():
    # k=16: the first 2 completions are the fill; the early window is
    # completions 3-6 (4 in the 4 s after completion 2), the late one
    # 13-16 (4 in the 8 s after completion 12).
    times = [10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34]
    assert stats.decay_ratio(times[::-1], 16) == pytest.approx(2.0)
    # Only the first k completions count.
    assert stats.decay_ratio(times + [100, 200], 16) == pytest.approx(2.0)


def test_decay_ratio_needs_k_completions():
    with pytest.raises(ValueError):
        stats.decay_ratio([1.0, 2.0], 16)
    with pytest.raises(ValueError):
        stats.decay_ratio([1.0, 2.0, 3.0], 3)


def test_self_time_overlapping_children():
    # Children cover [1, 6] and [8, 10] of the parent's [0, 10]; the
    # overlap of the first two counts once, the third is clipped.
    children = [(1, 4), (3, 6), (8, 12)]
    assert stats.union_length(children, 0, 10) == pytest.approx(7)
    assert stats.self_time(0, 10, children) == pytest.approx(3)


def test_self_time_without_children_or_outside_them():
    assert stats.self_time(2.0, 5.0, []) == pytest.approx(3.0)
    assert stats.self_time(2.0, 5.0, [(0.0, 1.0), (6.0, 7.0)]) == pytest.approx(3.0)
    assert stats.self_time(2.0, 5.0, [(1.0, 9.0)]) == pytest.approx(0.0)


def test_error_rate_counts_each_kind_once():
    assert stats.lost(100, completed=94, failed=1, shed=2) == 3
    rate = stats.error_rate(100, failed=1, shed=2, lost=3, mismatched=4)
    assert rate == pytest.approx(0.10)
    assert stats.error_rate(5, failed=0, shed=0, lost=0, mismatched=0) == 0.0
    with pytest.raises(ValueError):
        stats.error_rate(0, failed=0, shed=0, lost=0, mismatched=0)


def test_spread_is_iqr_over_median():
    values = [8, 9, 10, 11, 12]
    # statistics.quantiles(n=4) on these gives 8.5, 10, 11.5.
    assert stats.spread(values) == pytest.approx(3 / 10)
