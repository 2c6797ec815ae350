"""Tests for the minimal solvers and DLT refits."""

import numpy as np
import pytest

from robustfit.exceptions import DegenerateSampleError, InsufficientDataError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    angle_between,
    dehomogenize,
    epipolar_embeddings,
    hartley_normalize,
    homogeneous,
    homographic_embeddings,
    normalize_model,
    vec_model,
)
from robustfit.ransac import ProblemSetup
from robustfit.solvers import dlt_refit, fundamental_7pt, homography_4pt, rank2_project
from robustfit.synth import SynthConfig, synth_fundamental, synth_homography


def solve_7pt_pixel(x1, x2):
    """Normalize, solve, denormalize: the solver as the engine drives it."""
    setup = ProblemSetup(FUNDAMENTAL, x1, x2)
    return setup.minimal_solve(np.arange(7))


def test_7pt_recovers_truth_on_exact_scene():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=0))
    cands = solve_7pt_pixel(ds.x1, ds.x2)
    best = min(angle_between(c.vec, ds.truth.vec) for c in cands)
    assert best <= 1e-6
    for c in cands:
        assert abs(np.linalg.det(c.m)) <= 1e-9


def test_7pt_candidates_annihilate_embeddings():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=1))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    emb = epipolar_embeddings(x1n, x2n)
    for cand in fundamental_7pt(x1n, x2n):
        assert np.max(np.abs(emb.T @ cand.vec)) <= 1e-8
        assert abs(np.linalg.det(cand.m)) <= 1e-9


def test_7pt_duplicate_correspondence_degenerate():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=2))
    x1 = ds.x1.copy()
    x2 = ds.x2.copy()
    x1[6], x2[6] = x1[0], x2[0]
    t1, x1n = hartley_normalize(x1)
    t2, x2n = hartley_normalize(x2)
    with pytest.raises(DegenerateSampleError):
        fundamental_7pt(x1n, x2n)


def test_7pt_truth_recovery_sweep():
    for seed in range(100):
        ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=seed))
        cands = solve_7pt_pixel(ds.x1, ds.x2)
        assert min(angle_between(c.vec, ds.truth.vec) for c in cands) <= 1e-6


def test_4pt_identity_square():
    pts = homogeneous(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    h = homography_4pt(pts, pts)
    np.testing.assert_allclose(h.m, np.eye(3) / np.sqrt(3.0), atol=1e-12)


def test_4pt_known_warp():
    rng = np.random.default_rng(3)
    for seed in range(50):
        ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4, seed=seed))
        setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
        h = setup.minimal_solve(np.arange(4))[0]
        assert angle_between(h.vec, ds.truth.vec) <= 1e-7


def test_4pt_collinear_degenerate():
    x1 = homogeneous(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]))
    x2 = homogeneous(np.array([[0.0, 0.1], [1.0, 1.2], [2.0, 2.1], [0.3, 1.0]]))
    with pytest.raises(DegenerateSampleError):
        homography_4pt(x1, x2)


def test_4pt_involution_with_synthesis():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4, seed=9))
    setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
    h = setup.minimal_solve(np.arange(4))[0]
    resynth = dehomogenize(homogeneous(ds.x1) @ h.m.T)
    assert np.max(np.linalg.norm(resynth - ds.x2, axis=1)) <= 1e-8


def test_dlt_refit_exact_homography():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=40, seed=4))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    blocks = homographic_embeddings(x1n, x2n)
    v = dlt_refit(blocks)
    hn = t2 @ ds.truth.m @ np.linalg.inv(t1)
    assert angle_between(v, vec_model(hn)) <= 1e-7


def test_dlt_refit_duplication_and_permutation_invariance():
    rng = np.random.default_rng(6)
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=20, noise_sigma=0.5, seed=6))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    blocks = homographic_embeddings(x1n, x2n)
    v = dlt_refit(blocks)
    np.testing.assert_allclose(dlt_refit(np.vstack([blocks, blocks])), v, atol=1e-9)
    np.testing.assert_allclose(dlt_refit(blocks[rng.permutation(len(blocks))]), v, atol=1e-9)


def test_dlt_refit_insufficient_rows():
    rng = np.random.default_rng(7)
    with pytest.raises(InsufficientDataError):
        dlt_refit(rng.normal(size=(9, 7)))  # 7 single-constraint columns


def test_rank2_project_fixed_point():
    rng = np.random.default_rng(8)
    f = np.linalg.svd(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.6, 0.0])
    model = normalize_model(f, FUNDAMENTAL)
    out = rank2_project(model)
    np.testing.assert_allclose(out.m, model.m, atol=1e-12)


def test_rank2_project_diagonal():
    model = normalize_model(np.diag([3.0, 2.0, 1.0]), FUNDAMENTAL)
    out = rank2_project(model)
    np.testing.assert_allclose(out.m, np.diag([3.0, 2.0, 0.0]) / np.sqrt(13.0), atol=1e-12)


def test_rank2_project_determinant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        model = normalize_model(rng.normal(size=(3, 3)), FUNDAMENTAL)
        assert abs(np.linalg.det(rank2_project(model).m)) <= 1e-12
