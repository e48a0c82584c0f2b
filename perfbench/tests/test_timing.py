"""The arithmetic that turns CPU seconds into reported figures."""

import pytest

from run import WorkerFailed, percentile, speed_scales, summarize
from worker import REFERENCE_S, REFERENCE_WINDOW, reference_work


def test_speed_scales_use_the_reference_calls_near_each_item():
    assert speed_scales([REFERENCE_S / 2] * 5) == pytest.approx([2.0] * 5)
    # the machine ran at half speed for the last items only
    reference = [REFERENCE_S] * 40 + [2 * REFERENCE_S] * 40
    scales = speed_scales(reference)
    assert scales[0] == pytest.approx(1.0)
    assert scales[-1] == pytest.approx(0.5)
    assert scales[39] == pytest.approx(21 / 31)  # 10 slow calls in its window of 21
    assert len(scales) == len(reference)
    assert REFERENCE_WINDOW == 10


def test_percentile_is_harrell_davis():
    assert percentile([4.0], 0.5) == 4.0
    assert percentile(list(range(1, 100)), 0.5) == pytest.approx(50.0)
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.4, abs=0.01)
    # a boundary between two clusters: the estimate moves smoothly as one
    # item changes sides, where a single order statistic would jump
    low, high = [1.0] * 50, [10.0] * 50
    a = percentile(low + high, 0.5)
    b = percentile(low[:-1] + high + [10.0], 0.5)
    assert 1.0 < a < b < 10.0 and b - a < 2.0


def test_reference_work_is_fixed():
    assert reference_work() == 8  # rank 6, and 10007 * 10009 split into its two primes


def test_summarize_scales_items_and_keeps_refusals_out_of_failed():
    result = {
        "attempts": [[0, 0.01, "ok"], [1, 0.03, "ok"], [2, 0.02, "refused"], [3, 0.01, "wrong_verdict"]],
        "reference": [REFERENCE_S * 2] * 4,  # the machine ran at half speed
        "timed_s": 0.07,
        "first": {},
        "peak_rss_kb": 2048,
    }
    s = summarize([result])
    assert (s["attempted"], s["correct"], s["failed"]) == (4, 2, 1)
    assert (s["items"], s["correct_items"]) == (4, 2)
    assert s["timed_s"] == pytest.approx(0.035) and s["cpu_s"] == 0.07
    assert s["items_per_s"] == pytest.approx(2 / 0.035)
    assert s["peak_rss_mb"] == 2.0


def test_summarize_counts_each_item_at_its_least_time_over_the_passes():
    def result(times, statuses):
        return {"attempts": [[i, t, st] for i, (t, st) in enumerate(zip(times, statuses))],
                "reference": [REFERENCE_S] * len(times), "timed_s": sum(times),
                "first": {}, "peak_rss_kb": 1024}

    # the first pass ran slow on item 0, the second on item 1
    first = result([0.04, 0.01, 0.02], ["ok", "ok", "wrong_verdict"])
    second = result([0.01, 0.05, 0.02], ["ok", "ok", "ok"])
    s = summarize([first, second])
    assert s["timed_s"] == pytest.approx(0.04)
    assert (s["attempted"], s["correct"], s["failed"]) == (6, 5, 1)
    assert s["correct_items"] == 2  # item 2 was wrong in one pass
    assert s["items_per_s"] == pytest.approx(2 / 0.04)
    assert s["p50_ms"] == pytest.approx(10.0)
    with pytest.raises(WorkerFailed):
        summarize([first, result([0.01, 0.01], ["ok", "ok"])])
