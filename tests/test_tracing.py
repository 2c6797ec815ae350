"""The benchmark tracer (perfbench/tracing.py), loaded as it is, still reaches
the names it wraps: a renamed or dropped import, or a kernel bound before the
tracer is installed, would leave its spans empty."""

import importlib.util
from pathlib import Path

import pytest

import robustfit
from robustfit import ransac, solvers
from robustfit.geometry import FUNDAMENTAL, HOMOGRAPHY
from robustfit.ransac import RansacConfig
from robustfit.synth import SynthConfig, synth_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("problem, solver", [
    (FUNDAMENTAL, "solvers.fundamental_7pt"),
    (HOMOGRAPHY, "solvers.homography_4pt"),
])
def test_tracer_records_solver_and_dpcp_spans(problem, solver):
    ds = synth_dataset(SynthConfig(problem, n_inliers=60, n_outliers=20, noise_sigma=0.5, seed=3))
    cfg = RansacConfig(epsilon=2.0, lo_method="dpcp", t_max=200, seed=4)
    with load_tracing().Tracer() as tracer:
        robustfit.run_ransac(problem, ds.x1, ds.x2, cfg, ds.image_size)
    assert robustfit.run_ransac is ransac.run_ransac
    assert ransac.fundamental_7pt is solvers.fundamental_7pt
    metrics = tracer.layer_metrics(1.0)
    for span in (solver, "subspace.dpcp_irls_group", "ransac.refit", "ransac.minimal_solve"):
        assert metrics[f"{span}.calls"] >= 1, span
