"""Tests for the two-tree comparison that ``bench/record.py`` writes into a record."""

from __future__ import annotations

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}


def runs(ops: list[float], p50: list[float]) -> list[dict]:
    """Per-seed results as ``perfbench/run.py`` prints them, for ``record.summary``."""
    return [
        {
            "metrics": {
                "ops_per_s": {"value": a, "unit": "ops/s"},
                "op_p50_ms": {"value": b, "unit": "ms"},
            },
            "failed": 0,
            "attempted": 100,
            "environment": None,
        }
        for a, b in zip(ops, p50)
    ]


def compare(first: list[dict], second: list[dict]) -> dict:
    workload = {"lib-density": record.summary(first)}
    return record.comparison(workload, {"lib-density": record.summary(second)}, BETTER)[
        "lib-density"
    ]


class TestComparison:
    def test_wins_follow_the_direction_of_each_metric(self):
        parent = runs([300, 310, 320, 330], [3.0, 3.1, 3.2, 3.3])
        change = runs([340, 300, 350, 360], [2.5, 3.4, 2.6, 2.7])
        result = compare(parent, change)
        assert result["ops_per_s"]["second_won"] == 3  # higher is better
        assert result["op_p50_ms"]["second_won"] == 3  # lower is better
        assert result["ops_per_s"]["pairs"] == result["op_p50_ms"]["pairs"] == 4

    def test_a_tie_counts_for_neither_tree(self):
        parent = runs([300, 310, 320], [3.0, 3.0, 3.0])
        change = runs([300, 311, 319], [3.0, 2.9, 3.1])
        result = compare(parent, change)
        assert result["ops_per_s"]["second_won"] == 1
        assert result["op_p50_ms"]["second_won"] == 1
        reverse = compare(change, parent)
        assert reverse["ops_per_s"]["second_won"] == 1
        assert reverse["op_p50_ms"]["second_won"] == 1

    def test_wins_pair_the_runs_of_one_seed(self):
        # sorted, each change value would beat the parent value of the same rank
        parent = runs([300, 360], [3.0, 3.0])
        change = runs([370, 310], [3.0, 3.0])
        assert compare(parent, change)["ops_per_s"]["second_won"] == 1
        assert compare(change, parent)["ops_per_s"]["second_won"] == 1

    @pytest.mark.parametrize(
        "shift, apart",
        [(0.0, False), (0.5, False), (-1.0, False), (1.5, False), (2.0, True), (-2.0, True)],
    )
    def test_medians_apart_against_the_first_trees_quartile_spread(self, shift, apart):
        parent_ops = [300.0, 301.0, 302.0, 303.0, 304.0]
        q1, _, q3 = statistics.quantiles(parent_ops, n=4)
        assert q3 - q1 == 3.0
        change_ops = [value + 2 * shift for value in parent_ops]  # medians 2 * shift apart
        result = compare(runs(parent_ops, [1.0] * 5), runs(change_ops, [1.0] * 5))
        assert result["ops_per_s"]["medians_apart"] is apart

    def test_the_spread_is_the_first_trees_not_the_seconds(self):
        steady = runs([300.0, 300.0, 300.0, 300.0], [1.0] * 4)
        noisy = runs([250.0, 305.0, 305.0, 360.0], [1.0] * 4)  # median 305, wide quartiles
        assert compare(steady, noisy)["ops_per_s"]["medians_apart"] is True
        assert compare(noisy, steady)["ops_per_s"]["medians_apart"] is False

    def test_every_workload_and_named_metric_is_compared(self):
        first = {w: record.summary(runs([1, 2], [1, 2])) for w in record.WORKLOADS}
        second = {w: record.summary(runs([2, 3], [0, 1])) for w in record.WORKLOADS}
        result = record.comparison(first, second, BETTER)
        assert sorted(result) == sorted(record.WORKLOADS)
        for metrics in result.values():
            assert sorted(metrics) == sorted(BETTER)
            assert metrics["ops_per_s"]["second_won"] == metrics["op_p50_ms"]["second_won"] == 2
