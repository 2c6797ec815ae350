"""Tests for the call comparison of ``tools/same_results.py`` on fixed input."""

import copy
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)

RUNS = [
    {"seed": 1, "workload": "hyp-bound", "calls": [
        {"config": "(0, 'dpcp', 11)", "fingerprint": "(b'\\x01', 60, 'ab')", "failure": None},
        {"config": "(1, 'dpcp', 12)", "fingerprint": "('failed', 'cd')",
         "failure": "raised EstimationFailedError('no model')"},
    ]},
    {"seed": 1, "workload": "lo-sweep", "calls": [
        {"config": 0, "fingerprint": "('F240-60,dlt,0.0025,0,...',)", "failure": None},
    ]},
]


def test_same_runs_have_no_difference():
    assert same_results.first_difference(RUNS, copy.deepcopy(RUNS)) is None


def test_first_differing_call_is_named_with_its_config():
    change = copy.deepcopy(RUNS)
    change[0]["calls"][1]["fingerprint"] = "(b'\\x02', 59, 'cd')"
    change[1]["calls"][0]["failure"] = "validation error 3.1 px above bound 3 px"
    out = same_results.first_difference(RUNS, change)
    assert out.startswith("workload hyp-bound seed 1 call 1 config (1, 'dpcp', 12): fingerprint")
    assert "parent: ('failed', 'cd')" in out and "change: (b'\\x02', 59, 'cd')" in out


def test_a_failure_alone_is_a_difference():
    change = copy.deepcopy(RUNS)
    change[1]["calls"][0]["failure"] = "validation error 3.1 px above bound 3 px"
    out = same_results.first_difference(RUNS, change)
    assert out.startswith("workload lo-sweep seed 1 call 0 config 0: failure differs")


def test_missing_calls_and_cycles_are_differences():
    fewer_calls = copy.deepcopy(RUNS)
    fewer_calls[0]["calls"].pop()
    assert "2 calls on the parent, 1 on the change" in same_results.first_difference(RUNS, fewer_calls)
    assert "2 workload cycles on the parent, 1 on the change" in \
        same_results.first_difference(RUNS, RUNS[:1])
    swapped = [RUNS[1], RUNS[0]]
    assert "the change ran workload lo-sweep" in same_results.first_difference(RUNS, swapped)


def test_default_seeds():
    assert same_results.DEFAULT_SEEDS == (1, *range(301, 311), 20261017)
