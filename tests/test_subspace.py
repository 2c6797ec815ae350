"""Tests for the IRLS hyperplane/nullspace solvers."""

import numpy as np
import pytest

from robustfit.exceptions import InsufficientDataError, InvalidInputError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    angle_between,
    epipolar_embeddings,
    hartley_normalize,
    homographic_embeddings,
    vec_model,
)
from robustfit.linalg import least_singular_vector
from robustfit.subspace import (
    IrlsConfig,
    dpcp_irls,
    dpcp_irls_basis,
    dpcp_irls_group,
    huber_irls,
    nullspace_weights,
    weighted_principal_subspace,
)
from robustfit.synth import SynthConfig, synth_fundamental, synth_homography


def hyperplane_data(rng, d, n_in, n_out, normal=None):
    """Unit columns: n_in on the hyperplane normal^T y = 0, n_out uniform."""
    if normal is None:
        normal = rng.normal(size=d)
        normal /= np.linalg.norm(normal)
    basis = np.linalg.svd(normal[None, :])[2][1:].T  # d x (d-1)
    inliers = basis @ rng.normal(size=(d - 1, n_in))
    inliers /= np.linalg.norm(inliers, axis=0)
    outliers = rng.normal(size=(d, n_out))
    if n_out:
        outliers /= np.linalg.norm(outliers, axis=0)
    y = np.hstack([inliers, outliers])
    return y[:, rng.permutation(n_in + n_out)], normal


def principal_angle_sines(a, b):
    """Sines of the principal angles between two orthonormal column spans.

    Sine-based (projection residual), so tiny angles are measured accurately
    where arccos of an inner product would saturate near 1e-8.
    """
    resid = b - a @ (a.T @ b)
    return np.linalg.svd(resid, compute_uv=False)[: b.shape[1]]


def test_dpcp_exact_nullspace_r3():
    rng = np.random.default_rng(0)
    y = np.vstack([rng.normal(size=(2, 20)), np.zeros((1, 20))])
    b = dpcp_irls(y)
    np.testing.assert_allclose(np.abs(b), [0.0, 0.0, 1.0], atol=1e-12)


def test_dpcp_recovery_with_outliers():
    rng = np.random.default_rng(1)
    y, normal = hyperplane_data(rng, 9, 500, 300)
    trace = []
    b = dpcp_irls(y, trace=trace)
    assert np.degrees(angle_between(b, normal)) <= 0.1
    assert len(trace) <= 101


def test_dpcp_sign_flip_invariance():
    rng = np.random.default_rng(2)
    y, _ = hyperplane_data(rng, 5, 60, 30)
    b1 = dpcp_irls(y)
    y2 = y.copy()
    y2[:, 7] *= -1.0
    # Mathematically identical (the objective is even in each column); BLAS
    # reductions may differ by an ulp, hence the tight tolerance.
    np.testing.assert_allclose(dpcp_irls(y2), b1, atol=1e-12)


def test_dpcp_insufficient_data():
    rng = np.random.default_rng(3)
    with pytest.raises(InsufficientDataError):
        dpcp_irls(rng.normal(size=(9, 7)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solver", [
    dpcp_irls, dpcp_irls_group, lambda y: huber_irls(y, 0.01), dpcp_irls_basis,
], ids=["dpcp_irls", "dpcp_irls_group", "huber_irls", "dpcp_irls_basis"])
def test_non_finite_data_rejected(solver, bad):
    y, _ = hyperplane_data(np.random.default_rng(6), 9, 40, 10)
    y[3, 17] = bad
    with pytest.raises(InvalidInputError):
        solver(y)


def test_group_exact_homography_blocks():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=60, seed=4))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    blocks = homographic_embeddings(x1n, x2n)
    b = dpcp_irls_group(blocks)
    hn = t2 @ ds.truth.m @ np.linalg.inv(t1)
    assert angle_between(b, vec_model(hn)) <= 1e-7


def test_group_size_one_matches_single():
    rng = np.random.default_rng(5)
    y, _ = hyperplane_data(rng, 7, 80, 40)
    np.testing.assert_array_equal(dpcp_irls_group(y.T[:, :, None]), dpcp_irls(y))


def test_group_recovery_with_outlier_blocks():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=200, n_outliers=200, seed=6))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    blocks = homographic_embeddings(x1n, x2n)
    b = dpcp_irls_group(blocks)
    hn = t2 @ ds.truth.m @ np.linalg.inv(t1)
    assert np.degrees(angle_between(b, vec_model(hn))) <= 0.1


def test_basis_exact_complement():
    rng = np.random.default_rng(7)
    d, c = 9, 3
    span = np.linalg.qr(rng.normal(size=(d, d - c)))[0]
    y = span @ rng.normal(size=(d - c, 100))
    basis = dpcp_irls_basis(y, codim=c)
    complement = np.linalg.svd(span.T, full_matrices=True)[2][d - c :].T
    assert np.max(principal_angle_sines(basis, complement)) <= 1e-8


def test_basis_codim_one_matches_single():
    rng = np.random.default_rng(8)
    y, _ = hyperplane_data(rng, 6, 60, 20)
    np.testing.assert_array_equal(dpcp_irls_basis(y, codim=1)[:, 0], dpcp_irls(y))


def test_basis_separates_planar_epipolar_data():
    ds = synth_fundamental(
        SynthConfig(FUNDAMENTAL, n_inliers=150, n_outliers=100, seed=9, degenerate_planar=True)
    )
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    emb = epipolar_embeddings(x1n, x2n)
    basis = dpcp_irls_basis(emb, codim=3)
    dist = nullspace_weights(basis, emb)
    inlier_dist = dist[ds.labels]
    outlier_dist = dist[~ds.labels]
    assert np.max(inlier_dist) < np.percentile(outlier_dist, 5.0)


def test_huber_exact_nullspace():
    rng = np.random.default_rng(10)
    y, normal = hyperplane_data(rng, 9, 120, 0)
    b = huber_irls(y, c_huber=0.01)
    assert angle_between(b, normal) <= 1e-8


def test_huber_large_c_limit_is_lsv():
    rng = np.random.default_rng(11)
    y, _ = hyperplane_data(rng, 9, 100, 50)
    np.testing.assert_allclose(
        huber_irls(y, c_huber=1e9), least_singular_vector(y.T), atol=1e-12
    )


def test_huber_recovery_with_outliers():
    rng = np.random.default_rng(12)
    y, normal = hyperplane_data(rng, 9, 200, 200)
    b = huber_irls(y, c_huber=0.01)
    assert np.degrees(angle_between(b, normal)) <= 1.0


def test_huber_rejects_bad_parameter():
    rng = np.random.default_rng(13)
    y, _ = hyperplane_data(rng, 5, 40, 0)
    with pytest.raises(InvalidInputError):
        huber_irls(y, c_huber=0.0)


def test_nullspace_weights_cases():
    rng = np.random.default_rng(14)
    basis = np.linalg.qr(rng.normal(size=(9, 3)))[0]
    perp = np.linalg.svd(basis.T, full_matrices=True)[2][3:].T @ rng.normal(size=6)
    inplane = basis @ rng.normal(size=3)
    inplane /= np.linalg.norm(inplane)
    y = np.stack([perp, inplane], axis=1)
    w = nullspace_weights(basis, y)
    assert abs(w[0]) <= 1e-12
    assert abs(w[1] - 1.0) <= 1e-12
    y_rand = rng.normal(size=(9, 50))
    np.testing.assert_allclose(
        nullspace_weights(basis, y_rand),
        np.linalg.norm(basis.T @ y_rand, axis=0),
        atol=1e-12,
    )


def test_weighted_principal_subspace_uniform_weights():
    rng = np.random.default_rng(15)
    y = rng.normal(size=(9, 80))
    sub = weighted_principal_subspace(y, np.full(80, 2.0), k=5)
    u = np.linalg.svd(y)[0][:, :5]
    assert np.max(principal_angle_sines(sub, u)) <= 1e-8


def test_weighted_principal_subspace_zero_weights_drop_outliers():
    rng = np.random.default_rng(16)
    y = rng.normal(size=(9, 60))
    w = np.ones(60)
    w[40:] = 0.0
    sub = weighted_principal_subspace(y, w, k=5)
    u = np.linalg.svd(y[:, :40])[0][:, :5]
    assert np.max(principal_angle_sines(sub, u)) <= 1e-8


def test_weighted_principal_subspace_matches_scaled_svd():
    rng = np.random.default_rng(17)
    y = rng.normal(size=(9, 70))
    w = rng.uniform(0.1, 3.0, size=70)
    sub = weighted_principal_subspace(y, w, k=5)
    u = np.linalg.svd(y * w)[0][:, :5]
    assert np.max(principal_angle_sines(sub, u)) <= 1e-8


def _relative_monotone(trace):
    return all(
        trace[i + 1] <= trace[i] + 1e-12 * max(1.0, abs(trace[i]))
        for i in range(len(trace) - 1)
    )


def test_objective_monotonicity_random_inputs():
    rng = np.random.default_rng(18)
    cfg = IrlsConfig(tau_max=30, tol=1e-12)
    for _ in range(100):
        d = int(rng.integers(4, 10))
        n = int(rng.integers(d + 2, 4 * d))
        y = rng.normal(size=(d, n))
        y /= np.linalg.norm(y, axis=0)
        trace = []
        dpcp_irls(y, cfg, trace=trace)
        assert _relative_monotone(trace)
        trace = []
        dpcp_irls_basis(y, codim=2, cfg=cfg, trace=trace)
        assert _relative_monotone(trace)
        trace = []
        huber_irls(y, c_huber=0.05, cfg=cfg, trace=trace)
        assert _relative_monotone(trace)
        blocks = y.T.reshape(-1, d, 1)
        trace = []
        dpcp_irls_group(blocks, cfg, trace=trace)
        assert _relative_monotone(trace)


def test_permutation_invariance():
    rng = np.random.default_rng(19)
    y, _ = hyperplane_data(rng, 7, 60, 30)
    perm = rng.permutation(90)
    np.testing.assert_allclose(dpcp_irls(y[:, perm]), dpcp_irls(y), atol=1e-12)


def test_scale_equivariance():
    rng = np.random.default_rng(20)
    y, _ = hyperplane_data(rng, 7, 60, 30)
    np.testing.assert_allclose(dpcp_irls(3.7 * y), dpcp_irls(y), atol=1e-9)
