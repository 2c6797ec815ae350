"""Golden outputs: ``run_ransac`` and the LO refit solvers, compared bit for bit.

``golden_ransac.json`` records, for 320 seeded runs, the model bytes, score,
inlier count, iteration and LO counts, sample digest and score history, plus
the raw outputs (vector and objective trace) of the refit solvers on seeded
embeddings. A refactor must reproduce every entry exactly.

The file is regenerated only by a change that means to alter results, and
that change says so in CHANGES.md. To regenerate it from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
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


def run_record(scene: str, scene_seed: int, method: str) -> list[dict]:
    """One entry per RANSAC seed for a scene and LO method."""
    _, problem, n_in, n_out = next(s for s in SCENES if s[0] == scene)
    ds = _scene(problem, n_in, n_out, scene_seed)
    out = []
    for seed in RANSAC_SEEDS:
        cfg = RansacConfig(epsilon=EPSILON_PX, lo_method=method, seed=seed)
        try:
            report = run_ransac(problem, ds.x1, ds.x2, cfg, ds.image_size)
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


@pytest.mark.parametrize("case", [c[0] for c in SOLVER_CASES])
def test_refit_solver_matches_golden(golden, case):
    assert solver_record(case) == golden["solvers"][case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n", encoding="ascii")
