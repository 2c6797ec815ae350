"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/bench_tests.py

The file name keeps these out of the repository's default test collection:
the smoke runs make full-size ``run_ransac`` calls (``hyp-bound`` alone takes
about a minute on a 2-core machine).
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import robustfit  # noqa: E402
from robustfit import bench, fileio, ransac  # noqa: E402
from tracing import SPAN_NAMES, Tracer, per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int) -> dict:
    """One reduced-length run: a single cycle per phase."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_metric_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_shares_sum_to_at_most_one(workload):
    metrics = smoke_run(workload, 1)["metrics"]
    assert sum(metrics[f"{s}.self_share"]["value"] for s in SPAN_NAMES) <= 1.0
    assert metrics["ransac.run_ransac.calls"]["value"] >= 1


def _scene(problem, n_in, n_out, seed):
    ds = robustfit.synth_dataset(robustfit.SynthConfig(problem, n_in, n_out, 1.0, seed=seed))
    return fileio.CorrespondenceFile(problem, ds.image_size, ds.x1, ds.x2, ds.labels)


def _run_all(scenes):
    out = []
    for data in scenes:
        for lo in ransac.LO_METHODS:
            cfg = robustfit.RansacConfig(epsilon=3.0, lo_method=lo, seed=5)
            rep = robustfit.run_ransac(data.problem, data.x1, data.x2, cfg, data.image_size)
            out.append((rep.best.model.m.tobytes(), rep.best.inlier_count, rep.sample_digest,
                        rep.iterations_used, rep.score_history))
    return out


def test_wrappers_leave_outputs_unchanged():
    scenes = [_scene("fundamental", 80, 40, 1), _scene("homography", 60, 40, 2)]
    sweep = dict(datasets=[("F", scenes[0]), ("H", scenes[1])], methods=["dlt", "huber", "dpcp"],
                 sigmas=[0.005], trials=2, master_seed=9)

    def masked_csv(records):
        return fileio.records_to_csv(
            [fileio.BenchRecord(**{**r.__dict__, "wall_ms": 0.0}) for r in records]
        )

    plain = _run_all(scenes)
    plain_csv = masked_csv(bench.run_bench(**sweep))
    original = robustfit.run_ransac
    tracer = Tracer()
    with tracer:
        assert robustfit.run_ransac is not original
        traced = _run_all(scenes)
        traced_csv = masked_csv(bench.run_bench(**sweep))
    assert robustfit.run_ransac is original
    assert traced == plain
    assert traced_csv == plain_csv
    assert len(tracer.start) > 0 and tracer.irls_iters and min(tracer.irls_iters) >= 1
    _, self_time = tracer.durations()
    assert min(self_time) >= 0.0
    assert all(tracer.parent[run] == -1 for run in tracer.run)
