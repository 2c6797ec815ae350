"""Golden outputs: ``run_ransac`` and the LO refit solvers, compared bit for bit.

``golden_ransac.json`` records, for 320 seeded runs and 16 coverage runs
(``COVERAGE``), the model bytes, score,
inlier count, iteration and LO counts, sample digest and score history, plus
the raw outputs (vector and objective trace) of the refit solvers on seeded
embeddings. A refactor must reproduce every entry exactly.

The file is regenerated only by a change that means to alter results, and
that change says so in CHANGES.md. To regenerate it from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustfit.exceptions import EstimationFailedError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    epipolar_embeddings,
    hartley_normalize,
    homographic_embeddings,
)
from robustfit.ransac import LO_METHODS, RansacConfig, run_ransac
from robustfit.solvers import dlt_refit
from robustfit.subspace import dpcp_irls, dpcp_irls_group, huber_irls
from robustfit.synth import SynthConfig, synth_dataset

GOLDEN = Path(__file__).with_name("golden_ransac.json")

# (name, problem, inliers, outliers); noise 1 px, threshold 3 px.
SCENES = (
    ("F120/80", FUNDAMENTAL, 120, 80),
    ("H100/100", HOMOGRAPHY, 100, 100),
    ("F240/60", FUNDAMENTAL, 240, 60),
    ("H160/40", HOMOGRAPHY, 160, 40),
)
SCENE_SEEDS = range(4)
RANSAC_SEEDS = range(5)
NOISE_PX = 1.0
EPSILON_PX = 3.0


def _hex(a) -> str:
    return np.ascontiguousarray(a, dtype="<f8").tobytes().hex()


def _scene(problem: str, n_in: int, n_out: int, seed: int):
    return synth_dataset(SynthConfig(problem, n_in, n_out, noise_sigma=NOISE_PX, seed=seed))


def _records(problem: str, x1, x2, image_size, method: str, seeds, **options) -> list[dict]:
    """One entry per RANSAC seed."""
    out = []
    for seed in seeds:
        cfg = RansacConfig(epsilon=EPSILON_PX, lo_method=method, seed=seed, **options)
        try:
            report = run_ransac(problem, x1, x2, cfg, image_size)
        except EstimationFailedError as exc:
            report = exc.report
        best = report.best
        out.append({
            "seed": seed,
            "model": _hex(best.model.m) if best else None,
            "score": best.score.hex() if best else None,
            "inlier_count": best.inlier_count if best else None,
            "iterations_used": report.iterations_used,
            "lo_invocations": report.lo_invocations,
            "sample_digest": report.sample_digest,
            "score_history": [s.hex() for s in report.score_history],
        })
    return out


def run_record(scene: str, scene_seed: int, method: str) -> list[dict]:
    """One entry per RANSAC seed for a scene and LO method."""
    _, problem, n_in, n_out = next(s for s in SCENES if s[0] == scene)
    ds = _scene(problem, n_in, n_out, scene_seed)
    return _records(problem, ds.x1, ds.x2, ds.image_size, method, RANSAC_SEEDS)


def _degenerate_scene(problem: str, n_in: int, n_out: int, seed: int):
    """A scene whose samples often trip the degeneracy guards: 30 points on
    one line in both views, mapped affinely along it, and 10 repeated points."""
    ds = _scene(problem, n_in, n_out, seed)
    x1, x2 = ds.x1.copy(), ds.x2.copy()
    t = np.linspace(0.0, 1.0, 30)[:, None]
    x1[:30] = [100.0, 80.0] + t * [400.0, 300.0]
    x2[:30] = [120.0, 60.0] + t * [350.0, 320.0]
    x1[30:40], x2[30:40] = x1[40:50], x2[40:50]
    return replace(ds, x1=x1, x2=x2)


# Paths the runs above barely reach: a budget that never shrinks (F with 20 %
# inliers under a 2 000 cap) and samples that hit the collinearity and rank
# guards.
# (key, problem, scene builder, inliers, outliers, scene seeds, LO methods,
#  RANSAC seeds, RansacConfig options)
COVERAGE = (
    ("F60/240/t_max=2000", FUNDAMENTAL, _scene, 60, 240, range(2), ("none", "dpcp"), range(1),
     {"t_max": 2000}),
    ("F50/50/degenerate", FUNDAMENTAL, _degenerate_scene, 50, 50, range(1), ("none", "dpcp"),
     range(3), {}),
    ("H40/60/degenerate", HOMOGRAPHY, _degenerate_scene, 40, 60, range(1), ("none", "dpcp"),
     range(3), {}),
)


def coverage_record(case: str, scene_seed: int, method: str) -> list[dict]:
    _, problem, build, n_in, n_out, _, _, seeds, options = next(c for c in COVERAGE if c[0] == case)
    ds = build(problem, n_in, n_out, scene_seed)
    return _records(problem, ds.x1, ds.x2, ds.image_size, method, seeds, **options)


def _solver_inputs() -> dict[str, np.ndarray]:
    """Seeded (9, n) epipolar columns and (n, 9, 2) homographic blocks."""
    f = _scene(FUNDAMENTAL, 120, 80, 0)
    h = _scene(HOMOGRAPHY, 100, 100, 0)
    return {
        "columns": epipolar_embeddings(hartley_normalize(f.x1)[1], hartley_normalize(f.x2)[1]),
        "blocks": homographic_embeddings(hartley_normalize(h.x1)[1], hartley_normalize(h.x2)[1]),
    }


SOLVER_CASES = (
    ("dpcp_irls/columns", lambda data, trace: dpcp_irls(data, trace=trace), "columns"),
    ("dpcp_irls_group/columns", lambda data, trace: dpcp_irls_group(data, trace=trace), "columns"),
    ("dpcp_irls_group/blocks", lambda data, trace: dpcp_irls_group(data, trace=trace), "blocks"),
    ("huber_irls/columns", lambda data, trace: huber_irls(data, 0.01, trace=trace), "columns"),
    ("huber_irls/blocks", lambda data, trace: huber_irls(data, 0.01, trace=trace), "blocks"),
    ("dlt_refit/columns", lambda data, trace: dlt_refit(data), "columns"),
    ("dlt_refit/blocks", lambda data, trace: dlt_refit(data), "blocks"),
)


def solver_record(case: str) -> dict:
    _, solve, layout = next(c for c in SOLVER_CASES if c[0] == case)
    trace: list[float] = []
    v = solve(_solver_inputs()[layout], trace)
    return {"vector": _hex(v), "trace": [t.hex() for t in trace]}


def generate() -> dict:
    return {
        "coverage": {
            f"{case}/{scene_seed}/{method}": coverage_record(case, scene_seed, method)
            for case, *_, scene_seeds, methods, _, _ in COVERAGE
            for scene_seed in scene_seeds
            for method in methods
        },
        "runs": {
            f"{scene}/{scene_seed}/{method}": run_record(scene, scene_seed, method)
            for scene, *_ in SCENES
            for scene_seed in SCENE_SEEDS
            for method in LO_METHODS
        },
        "solvers": {case: solver_record(case) for case, *_ in SOLVER_CASES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


@pytest.mark.parametrize("method", LO_METHODS)
@pytest.mark.parametrize("scene", [s[0] for s in SCENES])
def test_run_ransac_matches_golden(golden, scene, method):
    for scene_seed in SCENE_SEEDS:
        key = f"{scene}/{scene_seed}/{method}"
        assert run_record(scene, scene_seed, method) == golden["runs"][key], key


@pytest.mark.parametrize("case", [c[0] for c in COVERAGE])
def test_coverage_run_matches_golden(golden, case):
    _, _, _, _, _, scene_seeds, methods, _, _ = next(c for c in COVERAGE if c[0] == case)
    for scene_seed in scene_seeds:
        for method in methods:
            key = f"{case}/{scene_seed}/{method}"
            assert coverage_record(case, scene_seed, method) == golden["coverage"][key], key


@pytest.mark.parametrize("case", [c[0] for c in SOLVER_CASES])
def test_refit_solver_matches_golden(golden, case):
    assert solver_record(case) == golden["solvers"][case]


# A wide scene, H 5000/5000 (the large-n benchmark's shape, scene seed 0),
# run once per case with RANSAC seed 0. The golden file holds nothing above
# n = 400, and the wide kernels' layouts only matter at this size; like the
# golden file, these fingerprints are regenerated only by a change that means
# to alter results.
WIDE_RUNS = {
    "dpcp": {
        "model_sha256": "c9c0bfb1ccd740d1bc52959619e73f515fe88aa459ac18bb95a477e63ca43f76",
        "score": "0x1.e733ab2e9f012p+11", "inlier_count": 4941, "iterations_used": 49,
        "sample_digest": "7d92fe00cfa945a8de3036b411076f9192d6d6580eaec76e39a4f0661694254b"},
    "none": {
        "model_sha256": "1a6f518aa92b54c269c9a320dfecafbbe2c756602c9e51d0a2ecc3903cfa7b7f",
        "score": "0x1.58dbf8b2019cep+11", "inlier_count": 4122, "iterations_used": 108,
        "sample_digest": "7b17d21fb1450bf2f9767420ea282ddd65adb28f6e9149e78f66fb76eab40502"},
}


@pytest.mark.parametrize("case", WIDE_RUNS)
def test_wide_scene_matches_its_fingerprint(case):
    want = WIDE_RUNS[case]
    ds = _scene(HOMOGRAPHY, 5000, 5000, 0)
    cfg = RansacConfig(epsilon=EPSILON_PX, lo_method=case, seed=0)
    report = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    best = report.best
    assert {
        "model_sha256": hashlib.sha256(np.ascontiguousarray(best.model.m, "<f8")).hexdigest(),
        "score": best.score.hex(), "inlier_count": best.inlier_count,
        "iterations_used": report.iterations_used, "sample_digest": report.sample_digest,
    } == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n", encoding="ascii")
