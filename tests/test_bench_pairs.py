"""Tests for the pair summary of ``tools/bench_pairs.py`` on fixed input."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "run_ms_p50", "better": "lower", "bound": 0.25},
    {"name": "runs_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "iter_us_p50", "better": "lower", "bound": 0.25},
]


def _pairs(parent: dict, change: dict) -> list[dict]:
    return [
        {"seed": 301 + i,
         "parent": {"metrics": {k: v[i] for k, v in parent.items()}},
         "change": {"metrics": {k: v[i] for k, v in change.items()}}}
        for i in range(len(next(iter(parent.values()))))
    ]


def test_spread_is_median_and_iqr():
    assert bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 2.0)
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.5)


def test_summarize_verdicts():
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    parent = {name: base for name in ("run_ms_p50", "runs_per_s", "peak_rss_mb",
                                      "setup_s", "iter_us_p50")}
    change = {
        # 30 % faster in every pair: a gain.
        "run_ms_p50": [0.7 * v for v in base],
        # 30 % lower throughput: worse than its 0.25 bound.
        "runs_per_s": [0.7 * v for v in base],
        # Equal: neither.
        "peak_rss_mb": list(base),
        # 20 % better in 8 of 10 pairs only: not a gain, not a regression.
        "setup_s": [0.8 * v for v in base[:8]] + [1.1 * v for v in base[8:]],
        # 1 % better in every pair, inside the parent's IQR of 1.5: neutral.
        "iter_us_p50": [0.99 * v for v in base],
    }
    out = bench_pairs.summarize(_pairs(parent, change), METRICS)
    assert {k: v["verdict"] for k, v in out.items()} == {
        "run_ms_p50": "gain",
        "runs_per_s": "regressed",
        "peak_rss_mb": "neutral",
        "setup_s": "neutral",
        "iter_us_p50": "neutral",
    }
    run = out["run_ms_p50"]
    assert run["parent_median"] == 100.0
    assert run["change_median"] == pytest.approx(70.0)
    assert run["parent_iqr_over_median"] == pytest.approx(0.015)
    assert run["ratio"] == pytest.approx(0.7)
    assert (run["change_wins"], run["pairs"]) == (10, 10)
    assert out["peak_rss_mb"]["change_wins"] == 0
    assert out["setup_s"]["change_wins"] == 8
    assert out["runs_per_s"]["change_wins"] == 0


def test_summarize_regression_is_relative_to_the_bound():
    base = [10.0] * 10
    parent = {"peak_rss_mb": base}
    within = bench_pairs.summarize(_pairs(parent, {"peak_rss_mb": [10.9] * 10}), METRICS[2:3])
    beyond = bench_pairs.summarize(_pairs(parent, {"peak_rss_mb": [11.2] * 10}), METRICS[2:3])
    assert within["peak_rss_mb"]["verdict"] == "neutral"
    assert beyond["peak_rss_mb"]["verdict"] == "regressed"
