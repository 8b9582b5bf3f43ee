"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import pytest

from layers import self_times, served_times
from stats import distribution, failed_frac, percentile, tail_percentile


def span(sid, name, start, end, parent=-1, trace=0):
    return (sid, name, start, end, parent, trace)


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, "kernel", 0.0, 10.0),
        span(1, "cpu", 1.0, 7.0, parent=0),
        span(2, "core", 2.0, 5.0, parent=1),
    ]
    own = self_times(spans)
    # The grandchild is covered by its parent, not by the root again.
    assert own == pytest.approx({"kernel": 4.0, "cpu": 3.0, "core": 3.0})


def test_self_time_back_to_back_children():
    spans = [
        span(0, "cpu", 0.0, 10.0),
        span(1, "core", 2.0, 4.0, parent=0),
        span(2, "core", 4.0, 6.0, parent=0),
        span(3, "core", 6.0, 7.5, parent=0),
    ]
    own = self_times(spans)
    assert own["cpu"] == pytest.approx(4.5)
    assert own["core"] == pytest.approx(5.5)


def test_self_time_overlapping_and_overhanging_children_not_double_counted():
    spans = [
        span(0, "cpu", 0.0, 10.0),
        span(1, "core", 2.0, 6.0, parent=0),
        span(2, "core", 4.0, 8.0, parent=0),
        span(3, "core", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)["cpu"] == pytest.approx(3.0)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    ("n", "expected_q"),
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_q):
    values = [float(i) for i in range(n)]
    tail = tail_percentile(values)
    if expected_q is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected_q
    assert sum(v > value for v in values) >= 10


def test_distribution_reports_sample_count():
    assert distribution([]) == {"n": 0}
    summary = distribution([float(i) for i in range(100)])
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(49.5)
    assert "p90" in summary and "p99" not in summary


def test_failed_frac_counts_raised_and_lost_points():
    # 10 points attempted: 1 raised, 1 lost with the daemon, 1 failed
    # verification; 7 produced verified outcomes.
    assert failed_frac(10, 7) == pytest.approx(0.3)
    assert failed_frac(4, 4) == 0.0
    assert failed_frac(3, 0) == 1.0
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(2, 3)


def test_served_times_split_queue_slices_and_ipc():
    events = [
        ("submit", 7, 0.0),
        ("enqueue", 7, 0.1),
        ("dequeue", 7, 0.5),
        ("running", 7, 0.6),
        ("enqueue", 7, 2.0),
        ("preempted", 7, 2.1),
        ("dequeue", 7, 3.0),
        ("done", 7, 5.0),
    ]
    spans = [
        span(0, "sim.slice", 0.6, 1.9, trace=7),
        span(1, "sim.slice", 3.1, 4.8, trace=7),
    ]
    waits, ipc = served_times(events, spans)
    assert waits == [pytest.approx(0.6)]
    # 5.0 observed - (0.4 + 1.0) queued - 3.0 in slices.
    assert ipc == pytest.approx(0.6)


def test_scaled_time_follows_the_reference_speed():
    from hostspeed import REFERENCE_S as REF
    from hostspeed import scaled

    assert scaled([(REF, 2.0, REF)]) == pytest.approx(2.0)
    # At half speed the reference takes twice as long: the same work
    # would have taken half the time at the reference speed.
    assert scaled([(2 * REF, 2.0, 2 * REF)]) == pytest.approx(1.0)
    # Each piece by the mean of the timings on either side of it.
    assert scaled([(REF, 1.0, 3 * REF), (REF, 1.0, REF)]) == (
        pytest.approx(0.5 + 1.0)
    )


def test_a_raising_point_counts_as_failed_without_hiding_the_others():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from points import Point
    from repro.sim.experiment import ExperimentSpec
    from run import run_in_process

    ok = ExperimentSpec(workload="alpha", instances=1, items=4)
    broken = ExperimentSpec(workload="alpha", instances=1, pfu_count=0)
    result = run_in_process(
        [Point("broken", broken), Point("ok", ok), Point("broken", broken)]
    )
    assert [outcome is None for outcome in result.outcomes] == [
        True, False, True
    ]
    assert len(result.errors) == 2
    assert result.hermetic
    assert 0 < result.wall_s and 0 < result.scaled_s
    assert failed_frac(3, result.succeeded) == pytest.approx(2 / 3)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import json
    from pathlib import Path

    from layers import SpanRecorder, layer_metrics

    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    metrics, _ = layer_metrics(
        SpanRecorder(), [], 1.0, 1, build_s=0.1, default_over_block=1.0,
        overhead_s=0.0, journal_appends=0,
    )
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
