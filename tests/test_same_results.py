"""Tests for the call comparison and the per-seed report of
``tools/same_results.py`` on fixed input."""

import copy
import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)

RUNS = [
    {"seed": 1, "workload": "hyp-bound", "calls": [
        {"config": "(0, 'dpcp', 11)", "fingerprint": "(b'\\x01', 60, 'ab')", "failure": None,
         "error_px": 1.25},
        {"config": "(1, 'dpcp', 12)", "fingerprint": "('failed', 'cd')",
         "failure": "raised EstimationFailedError('no model')", "error_px": math.nan},
    ]},
    {"seed": 1, "workload": "lo-sweep", "calls": [
        {"config": 0, "fingerprint": "('F240-60,dlt,0.0025,0,...',)", "failure": None,
         "error_px": 0.5},
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


def _cycle(errors, failures=(), seed=301):
    """A hyp-bound cycle whose call i has validation error errors[i]; the
    calls in ``failures`` failed."""
    return {"seed": seed, "workload": "hyp-bound", "calls": [
        {"config": str(i), "fingerprint": repr((i, e)), "error_px": e,
         "failure": "gate" if i in failures else None} for i, e in enumerate(errors)]}


def test_cycle_report_of_equal_cycles():
    cycle = _cycle([1.0, 2.0, math.nan, 4.0], failures=(2,))
    assert same_results.cycle_report(cycle, copy.deepcopy(cycle)) == (
        "hyp-bound seed 301: 0 of 4 calls differ, failed 1 -> 1, error over 3 calls: "
        "mean 2.33333 -> 2.33333 px, median 2 -> 2 px, 0 worse, 0 better")


def test_cycle_report_pairs_the_calls_finite_on_both_sides():
    parent = _cycle([1.0, 2.0, math.nan, 4.0, 3.5], failures=(2, 4))
    change = _cycle([1.5, 2.0, 3.0, 3.0, math.inf], failures=(4,))
    assert same_results.cycle_report(parent, change) == (
        "hyp-bound seed 301: 4 of 5 calls differ, failed 2 -> 1, error over 3 calls: "
        "mean 2.33333 -> 2.16667 px, median 2 -> 2 px, 1 worse, 1 better")


def test_cycle_report_without_finite_pairs():
    assert same_results.cycle_report(_cycle([math.nan]), _cycle([2.0])) == (
        "hyp-bound seed 301: 1 of 1 calls differ, failed 0 -> 0, "
        "no call with a finite error on both sides")


def test_every_seed_is_reported_before_the_verdict(monkeypatch, capsys):
    """A difference on the first seed does not stop the run: each seed gets
    its lines, and the last line and exit code give the verdict."""
    class Checkout:
        @staticmethod
        def checkout(revision, dest):
            return Path(revision), {"revision": revision, "commit": revision * 2}

    def run_cycles(root, seeds):
        changed = str(root) == "c" and seeds == [1]
        return [_cycle([1.0, 2.5 if changed else 2.0], seed=seeds[0])]

    monkeypatch.setattr(same_results, "_bench_pairs", lambda: Checkout)
    monkeypatch.setattr(same_results, "run_cycles", run_cycles)
    assert same_results.main(["--parent", "p", "--change", "c", "--seeds", "1", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "parent: p = pp",
        "change: c = cc",
        "hyp-bound seed 1: 1 of 2 calls differ, failed 0 -> 0, error over 2 calls: "
        "mean 1.5 -> 1.75 px, median 1.5 -> 1.75 px, 1 worse, 0 better",
        "hyp-bound seed 2: 0 of 2 calls differ, failed 0 -> 0, error over 2 calls: "
        "mean 1.5 -> 1.5 px, median 1.5 -> 1.5 px, 0 worse, 0 better",
        "DIFFERENT: workload hyp-bound seed 1 call 1 config 1: fingerprint differs",
        "  parent: (1, 2.0)",
        "  change: (1, 2.5)",
    ]
    assert same_results.main(["--parent", "p", "--change", "c", "--seeds", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "SAME: 2 calls over 1 seeds"
