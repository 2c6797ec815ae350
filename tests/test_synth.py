"""Tests for the synthetic scene generators."""

import numpy as np
import pytest

from robustfit.exceptions import InvalidInputError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    angle_between,
    epipolar_embeddings,
    hartley_normalize,
    homographic_embeddings,
    sampson_distance,
    transfer_error,
    vec_model,
)
from robustfit.solvers import dlt_refit
from robustfit.synth import SynthConfig, synth_fundamental, synth_homography


def test_homography_noiseless_exact():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=80, seed=0))
    errs = transfer_error(ds.truth.m, ds.x1, ds.x2)
    assert np.max(errs) <= 1e-9
    assert ds.metadata["condition"] <= ds.metadata["max_condition"]


def test_homography_noise_rms():
    # Noise hits the two view-2 coordinates, so the RMS transfer error
    # against the exact warp is sqrt(2) * sigma.
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4000, noise_sigma=1.0, seed=1))
    errs = transfer_error(ds.truth.m, ds.x1[ds.labels], ds.x2[ds.labels])
    rms = np.sqrt(np.mean(errs**2))
    assert abs(rms - np.sqrt(2.0)) <= 0.1 * np.sqrt(2.0)


def test_homography_determinism_and_labels():
    cfg = SynthConfig(HOMOGRAPHY, n_inliers=60, n_outliers=40, noise_sigma=0.5, seed=2)
    a = synth_homography(cfg)
    b = synth_homography(cfg)
    np.testing.assert_array_equal(a.x1, b.x1)
    np.testing.assert_array_equal(a.x2, b.x2)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert int(np.count_nonzero(a.labels)) == 60
    assert a.outlier_fraction == pytest.approx(0.4)


def test_labels_are_shuffled():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=50, n_outliers=50, seed=3))
    first_half = ds.labels[:50]
    assert 0 < int(np.count_nonzero(first_half)) < 50


def test_fundamental_noiseless_exact():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=100, seed=4))
    h2Fh1 = np.abs(
        np.einsum(
            "ij,ij->i",
            np.hstack([ds.x2, np.ones((ds.n, 1))]) @ ds.truth.m,
            np.hstack([ds.x1, np.ones((ds.n, 1))]),
        )
    )
    assert np.max(h2Fh1) <= 1e-9
    assert np.max(sampson_distance(ds.truth.m, ds.x1, ds.x2)) <= 1e-7
    assert abs(np.linalg.det(ds.truth.m)) <= 1e-12
    assert ds.metadata["baseline"] >= ds.metadata["min_baseline"]


def test_fundamental_planar_nullspace_spectrum():
    ds = synth_fundamental(
        SynthConfig(FUNDAMENTAL, n_inliers=100, seed=5, degenerate_planar=True)
    )
    _, x1n = hartley_normalize(ds.x1)
    _, x2n = hartley_normalize(ds.x2)
    emb = epipolar_embeddings(x1n, x2n)
    s = np.linalg.svd(emb.T, compute_uv=False)
    assert np.all(s[6:] <= 1e-6 * s[0])
    assert s[5] > 1e-3 * s[0]  # exactly 3-dimensional, not more


def test_fundamental_outlier_fraction_exact():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=60, n_outliers=40, seed=6))
    assert ds.outlier_fraction == pytest.approx(0.4)
    assert ds.n == 100


def test_truth_reestimated_by_dlt():
    hds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=50, seed=7))
    t1, x1n = hartley_normalize(hds.x1)
    t2, x2n = hartley_normalize(hds.x2)
    v = dlt_refit(homographic_embeddings(x1n, x2n))
    hn = t2 @ hds.truth.m @ np.linalg.inv(t1)
    assert angle_between(v, vec_model(hn)) <= 1e-7

    fds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=50, seed=8))
    t1, x1n = hartley_normalize(fds.x1)
    t2, x2n = hartley_normalize(fds.x2)
    v = dlt_refit(epipolar_embeddings(x1n, x2n))
    fn = np.linalg.inv(t2).T @ fds.truth.m @ np.linalg.inv(t1)
    assert angle_between(v, vec_model(fn)) <= 1e-7


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SynthConfig(HOMOGRAPHY, n_inliers=3)
    with pytest.raises(InvalidInputError):
        SynthConfig(FUNDAMENTAL, n_inliers=6)
    with pytest.raises(InvalidInputError):
        SynthConfig(HOMOGRAPHY, n_inliers=10, degenerate_planar=True)
    with pytest.raises(InvalidInputError):
        SynthConfig("essential", n_inliers=10)


@pytest.mark.parametrize("kwargs", [
    {"noise_sigma": -1.0},
    {"noise_sigma": float("nan")},
    {"noise_sigma": float("inf")},
    {"image_size": (float("nan"), 480)},
    {"image_size": (640, float("inf"))},
    {"image_size": (0, 480)},
    {"n_outliers": -1},
    {"n_inliers": 80.5},
    {"n_inliers": "80"},
    {"n_outliers": 2.5},
])
def test_config_rejects_out_of_range_values(kwargs):
    # NaN fails every comparison, so only a range check that must hold rejects it.
    # A non-integer count is rejected before any comparison reads it.
    with pytest.raises(InvalidInputError):
        SynthConfig(HOMOGRAPHY, **{"n_inliers": 20, **kwargs})
