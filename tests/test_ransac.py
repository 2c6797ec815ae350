"""Tests for the RANSAC engine: budgeting, scoring, sampling, LO, full runs."""

import numpy as np
import pytest

from robustfit.exceptions import (
    EstimationFailedError,
    InsufficientDataError,
    InvalidInputError,
)
from robustfit.geometry import FUNDAMENTAL, HOMOGRAPHY, sampson_distance, transfer_error
from robustfit.ransac import (
    ProblemSetup,
    RansacConfig,
    classify_inliers,
    draw_minimal_sample,
    local_optimize,
    required_iterations,
    run_ransac,
    sample_stream_digest,
    truncated_quadratic_score,
)
from robustfit.synth import SynthConfig, synth_dataset


def test_required_iterations_reference_values():
    assert required_iterations(0.95, 0.5, 7) == 382
    assert required_iterations(0.95, 0.5, 4) == 47


def test_required_iterations_edge_cases():
    assert required_iterations(0.95, 1.0, 7) == 1
    assert required_iterations(0.95, 0.0, 7, cap=1234) == 1234
    assert required_iterations(0.95, 0.0, 7) > 10**9
    with pytest.raises(InvalidInputError):
        required_iterations(1.0, 0.5, 7)
    with pytest.raises(InvalidInputError):
        required_iterations(0.95, 1.5, 7)


def test_truncated_quadratic_score_values():
    eps = 2.0
    assert truncated_quadratic_score(np.array([0.0, eps / 2, 2 * eps]), eps) == pytest.approx(1.75)
    assert truncated_quadratic_score(np.zeros(17), eps) == 17.0
    assert truncated_quadratic_score(np.array([eps, 3 * eps, np.inf]), eps) == 0.0


def test_classify_inliers_boundary_inclusive():
    eps = 2.0
    mask = classify_inliers(np.array([0.5 * eps, eps, 1.0001 * eps]), eps)
    assert mask.tolist() == [True, True, False]
    assert not classify_inliers(np.full(5, np.inf), eps).any()


def test_classify_inliers_gaussian_recall():
    # Sampson residual of a noisy inlier is, to first order, |N(0, sigma)|;
    # the 3-sigma threshold keeps ~99.7% of true inliers.
    ds = synth_dataset(SynthConfig(FUNDAMENTAL, n_inliers=4000, noise_sigma=1.0, seed=21))
    residuals = sampson_distance(ds.truth.m, ds.x1, ds.x2)
    recall = np.mean(residuals <= 3.0)
    assert recall >= 0.99


def test_draw_minimal_sample_identity_and_determinism():
    rng = np.random.default_rng(1)
    s = draw_minimal_sample(rng, 5, 5)
    assert sorted(s.tolist()) == [0, 1, 2, 3, 4]

    a = np.random.Generator(np.random.PCG64(7))
    b = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        np.testing.assert_array_equal(
            draw_minimal_sample(a, 100, 7), draw_minimal_sample(b, 100, 7)
        )
    with pytest.raises(InvalidInputError):
        draw_minimal_sample(rng, 3, 4)


def test_draw_minimal_sample_uniform_frequency():
    rng = np.random.default_rng(2)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        counts[draw_minimal_sample(rng, 10, 4)] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.4) <= 0.01)


def _setup_and_cfg(problem, noise, outliers, seed, eps, lo):
    n_in = 100
    ds = synth_dataset(
        SynthConfig(problem, n_inliers=n_in, n_outliers=outliers, noise_sigma=noise, seed=seed)
    )
    setup = ProblemSetup(problem, ds.x1, ds.x2, ds.image_size)
    cfg = RansacConfig(epsilon=eps, lo_method=lo, seed=seed)
    return ds, setup, cfg


def test_local_optimize_never_worse_and_fixed_point():
    ds, setup, cfg = _setup_and_cfg(HOMOGRAPHY, 0.0, 0, 3, 1.0, "dlt")
    truth_scored = setup.score(ds.truth, cfg.epsilon)
    out = local_optimize(truth_scored, setup, cfg, cfg.epsilon)
    assert out.score >= truth_scored.score
    # Noiseless data: the truth is already optimal, one non-improving round.
    assert out.score == pytest.approx(truth_scored.score, abs=1e-9)


def test_local_optimize_improves_minimal_model():
    ds, setup, cfg = _setup_and_cfg(HOMOGRAPHY, 1.0, 50, 4, 3.0, "dpcp")
    rng = np.random.default_rng(0)
    inlier_idx = np.flatnonzero(
        transfer_error(ds.truth.m, ds.x1, ds.x2) <= 3.0
    )
    sample = rng.choice(inlier_idx, 4, replace=False)
    model = setup.minimal_solve(sample)[0]
    scored = setup.score(model, cfg.epsilon)
    out = local_optimize(scored, setup, cfg, cfg.epsilon)
    assert out.score >= scored.score


def test_run_ransac_perfect_data():
    for problem in (HOMOGRAPHY, FUNDAMENTAL):
        ds = synth_dataset(SynthConfig(problem, n_inliers=100, seed=5))
        cfg = RansacConfig(epsilon=1.0, lo_method="dlt", seed=9)
        report = run_ransac(problem, ds.x1, ds.x2, cfg, ds.image_size)
        assert report.best.inlier_count == ds.n
        assert report.best.score >= ds.n - 1e-6
        assert np.max(report.best.residuals) <= 1e-7


def test_run_ransac_deterministic():
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 80, 80, noise_sigma=1.0, seed=6))
    cfg = RansacConfig(epsilon=3.0, lo_method="dpcp", seed=1234)
    r1 = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    r2 = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    assert r1.sample_digest == r2.sample_digest
    assert r1.iterations_used == r2.iterations_used
    assert r1.score_history == r2.score_history
    np.testing.assert_array_equal(r1.best.model.m, r2.best.model.m)


def test_run_ransac_score_history_monotone():
    ds = synth_dataset(SynthConfig(FUNDAMENTAL, 120, 80, noise_sigma=0.5, seed=7))
    for lo in ("none", "dlt", "huber", "dpcp"):
        cfg = RansacConfig(epsilon=2.0, lo_method=lo, seed=5)
        report = run_ransac(FUNDAMENTAL, ds.x1, ds.x2, cfg, ds.image_size)
        hist = report.score_history
        assert all(hist[i] < hist[i + 1] for i in range(len(hist) - 1))


def test_run_ransac_shared_sample_stream_across_methods():
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 80, 80, noise_sigma=1.0, seed=8))
    reports = {
        lo: run_ransac(
            HOMOGRAPHY, ds.x1, ds.x2, RansacConfig(epsilon=3.0, lo_method=lo, seed=77), ds.image_size
        )
        for lo in ("none", "dpcp")
    }
    # Both runs drew prefixes of one stream: digest(prefix(k)) must match.
    for lo, rep in reports.items():
        assert rep.sample_digest == sample_stream_digest(
            77, ds.n, 4, rep.iterations_used
        ), lo


def test_run_ransac_dpcp_beats_plain_on_fundamental_benchmark():
    # 300 points, 40% outliers, 0.5 px noise, 2 px threshold, 100 paired seeds.
    errs = {"none": [], "dpcp": []}
    for seed in range(100):
        ds = synth_dataset(SynthConfig(FUNDAMENTAL, 180, 120, noise_sigma=0.5, seed=seed))
        val = ds.labels
        for method in errs:
            cfg = RansacConfig(epsilon=2.0, lo_method=method, seed=seed)
            rep = run_ransac(FUNDAMENTAL, ds.x1, ds.x2, cfg, ds.image_size)
            errs[method].append(
                float(np.mean(sampson_distance(rep.best.model.m, ds.x1[val], ds.x2[val])))
            )
    assert np.mean(errs["dpcp"]) < np.mean(errs["none"])


def test_run_ransac_budget_respected_and_epsilon_from_sigma():
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 100, 0, seed=9))
    cfg = RansacConfig(sigma=0.0025, lo_method="none", seed=2, t_max=500)
    report = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    assert report.epsilon == pytest.approx(0.0025 * 800.0)
    assert report.iterations_used <= 500


def test_run_ransac_insufficient_data():
    ds = synth_dataset(SynthConfig(FUNDAMENTAL, 7, seed=10))
    cfg = RansacConfig(epsilon=1.0, seed=0)
    with pytest.raises(InsufficientDataError):
        run_ransac(FUNDAMENTAL, ds.x1[:5], ds.x2[:5], cfg, ds.image_size)


def test_run_ransac_estimation_failed_carries_report():
    # Every 4-point sample from collinear view-1 points is degenerate.
    n = 30
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, n)
    x1 = np.stack([10.0 + 600.0 * t, 20.0 + 400.0 * t], axis=1)
    x2 = rng.uniform(0, 640, size=(n, 2))
    cfg = RansacConfig(epsilon=2.0, lo_method="none", seed=3, t_max=40)
    with pytest.raises(EstimationFailedError) as exc_info:
        run_ransac(HOMOGRAPHY, x1, x2, cfg, (640, 480))
    assert exc_info.value.report.iterations_used == 40
    assert exc_info.value.report.best is None


def test_symmetric_transfer_scoring():
    from robustfit.geometry import symmetric_transfer_error

    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 60, 40, noise_sigma=1.0, seed=12))
    cfg = RansacConfig(epsilon=4.0, lo_method="dlt", seed=2, symmetric_transfer=True)
    report = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    expected = symmetric_transfer_error(report.best.model.m, ds.x1, ds.x2)
    np.testing.assert_allclose(report.best.residuals, expected, atol=1e-12)
    # The two-directional residual cannot be below the one-directional one.
    assert np.all(expected >= transfer_error(report.best.model.m, ds.x1, ds.x2) - 1e-12)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        RansacConfig(epsilon=1.0, sigma=0.01)
    with pytest.raises(InvalidInputError):
        RansacConfig()
    with pytest.raises(InvalidInputError):
        RansacConfig(epsilon=1.0, confidence_p=1.2)
    with pytest.raises(InvalidInputError):
        RansacConfig(epsilon=1.0, lo_method="newton")
    with pytest.raises(InvalidInputError):
        RansacConfig(sigma=0.01).resolve_epsilon(None)
