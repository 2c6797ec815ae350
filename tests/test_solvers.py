"""Tests for the minimal solvers and DLT refits."""

import numpy as np
import pytest

from robustfit.exceptions import InsufficientDataError, InvalidInputError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    angle_between,
    dehomogenize,
    epipolar_embeddings,
    hartley_normalize,
    homogeneous,
    homographic_embeddings,
    normalize_model,
    vec_model,
)
from robustfit.ransac import ProblemSetup, draw_minimal_sample
from robustfit.solvers import dlt_refit, fundamental_7pt, homography_4pt, rank2_project
from robustfit.synth import SynthConfig, synth_dataset, synth_fundamental, synth_homography


def solve_7pt_pixel(x1, x2):
    """Normalize, solve, denormalize: the solver as the engine drives it, on a
    stack of one sample. Returns the (K, 3, 3) candidate matrices."""
    setup = ProblemSetup(FUNDAMENTAL, x1, x2)
    return setup.minimal_solve(np.arange(7)[None]).models.m


def test_7pt_recovers_truth_on_exact_scene():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=0))
    cands = solve_7pt_pixel(ds.x1, ds.x2)
    best = min(angle_between(c, ds.truth.m) for c in cands)
    assert best <= 1e-6
    for c in cands:
        assert abs(np.linalg.det(c)) <= 1e-9


def test_7pt_candidates_annihilate_embeddings():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=1))
    t1, x1n = hartley_normalize(ds.x1)
    t2, x2n = hartley_normalize(ds.x2)
    emb = epipolar_embeddings(x1n, x2n)
    found = fundamental_7pt(x1n[None], x2n[None])
    assert len(found) >= 1
    for cand in found.models.m:
        assert np.max(np.abs(emb.T @ vec_model(cand))) <= 1e-8
        assert abs(np.linalg.det(cand)) <= 1e-9


def test_7pt_duplicate_correspondence_degenerate():
    ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=2))
    x1 = ds.x1.copy()
    x2 = ds.x2.copy()
    x1[6], x2[6] = x1[0], x2[0]
    t1, x1n = hartley_normalize(x1)
    t2, x2n = hartley_normalize(x2)
    assert len(fundamental_7pt(x1n[None], x2n[None])) == 0


def test_7pt_truth_recovery_sweep():
    for seed in range(100):
        ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=seed))
        cands = solve_7pt_pixel(ds.x1, ds.x2)
        assert min(angle_between(c, ds.truth.m) for c in cands) <= 1e-6


def test_4pt_identity_square():
    pts = homogeneous(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    found = homography_4pt(pts[None], pts[None])
    assert len(found) == 1
    np.testing.assert_allclose(found.models.m[0], np.eye(3) / np.sqrt(3.0), atol=1e-12)


def test_4pt_known_warp():
    rng = np.random.default_rng(3)
    for seed in range(50):
        ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4, seed=seed))
        setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
        h = setup.minimal_solve(np.arange(4)[None]).models.m[0]
        assert angle_between(h, ds.truth.m) <= 1e-7


def test_4pt_collinear_degenerate():
    x1 = homogeneous(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]))
    x2 = homogeneous(np.array([[0.0, 0.1], [1.0, 1.2], [2.0, 2.1], [0.3, 1.0]]))
    assert len(homography_4pt(x1[None], x2[None])) == 0


def test_4pt_involution_with_synthesis():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4, seed=9))
    setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
    h = setup.minimal_solve(np.arange(4)[None]).models.m[0]
    resynth = dehomogenize(homogeneous(ds.x1) @ h.T)
    assert np.max(np.linalg.norm(resynth - ds.x2, axis=1)) <= 1e-8


@pytest.mark.parametrize("solver, s", [(fundamental_7pt, 7), (homography_4pt, 4)])
def test_solvers_take_only_sample_stacks(solver, s):
    for shape1, shape2 in [
        ((s, 3), (s, 3)),  # one sample without its stack axis
        ((1, s, 2), (1, s, 2)),  # pixel instead of homogeneous points
        ((1, s, 3), (2, s, 3)),  # stacks of different lengths
        ((1, s + 1, 3), (1, s + 1, 3)),  # one point too many
    ]:
        with pytest.raises(InvalidInputError, match=rf"\(B, {s}, 3\) stacks"):
            solver(np.ones(shape1), np.ones(shape2))


def test_minimal_solve_takes_only_index_stacks():
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=10, seed=2))
    setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
    assert len(setup.minimal_solve(np.arange(4)[None])) == 1
    with pytest.raises(InvalidInputError, match=r"\(B, 4, 3\) stacks"):
        setup.minimal_solve(np.arange(4))


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


@pytest.mark.parametrize("problem, n_in, n_out, count", [
    (FUNDAMENTAL, 50, 50, 200),
    (HOMOGRAPHY, 40, 60, 200),
    # n = 9 000 and 10 000: 2**14 // n == 1, so the (K, n) block of a stack is
    # wider than the cap a run puts on one batch.
    (FUNDAMENTAL, 4500, 4500, 8),
    (HOMOGRAPHY, 5000, 5000, 8),
])
def test_stacked_solve_and_score_equal_single_calls(problem, n_in, n_out, count):
    """A stack of B samples gives every sample the bytes it gets in a stack
    of one: its candidates, whether it is degenerate, and every candidate's
    score, residuals and inlier count."""
    ds = synth_dataset(SynthConfig(problem, n_in, n_out, noise_sigma=1.0, seed=4))
    x1, x2 = ds.x1.copy(), ds.x2.copy()
    # 30 points on one line in both views and 10 repeated points.
    t = np.linspace(0.0, 1.0, 30)[:, None]
    x1[:30] = [100.0, 80.0] + t * [400.0, 300.0]
    x2[:30] = [120.0, 60.0] + t * [350.0, 320.0]
    x1[30:40], x2[30:40] = x1[40:50], x2[40:50]
    setup = ProblemSetup(problem, x1, x2)
    rng = np.random.default_rng(7)
    samples = draw_minimal_sample(rng, setup.n, setup.sample_size, count)
    samples[0] = np.arange(setup.sample_size)  # all on the line
    samples[1] = np.arange(30, 30 + setup.sample_size)
    samples[1, -1] = 40  # the same point as index 30
    found = setup.minimal_solve(samples)
    batch = setup.score(found.models, 3.0)
    assert len(found) * setup.n > 2**14
    degenerate = []
    for j, sample in enumerate(samples):
        single = setup.minimal_solve(sample[None])
        degenerate.append(len(single) == 0)
        mine = np.flatnonzero(found.sample == j)
        assert len(mine) == len(single)
        for k, model in zip(mine, single.models.m):
            assert found.models.m[k].tobytes() == model.tobytes()
            scored = setup.score(ModelMatrix(model, problem), 3.0)
            assert batch.score[k].hex() == scored.score.hex()
            assert batch.residuals[k].tobytes() == scored.residuals.tobytes()
            assert batch.inlier_count[k] == scored.inlier_count
    assert degenerate[0] and degenerate[1] and not all(degenerate)
