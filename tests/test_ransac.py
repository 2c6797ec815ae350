"""Tests for the RANSAC engine: budgeting, scoring, sampling, LO, full runs."""

import math
from dataclasses import fields

import numpy as np
import pytest

from robustfit import ransac

from robustfit.exceptions import (
    EstimationFailedError,
    InsufficientDataError,
    InvalidInputError,
)
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    sampson_distance,
    transfer_error,
)
from robustfit.ransac import (
    ProblemSetup,
    RansacConfig,
    RunReport,
    ScoredModel,
    classify_inliers,
    draw_minimal_sample,
    local_optimize,
    required_iterations,
    run_ransac,
    sample_stream_digest,
    truncated_quadratic_score,
)
from robustfit.solvers import SAMPLE_SIZE
from robustfit.subspace import IrlsConfig
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
    s = draw_minimal_sample(rng, 5, 5, count=1)[0]
    assert sorted(s.tolist()) == [0, 1, 2, 3, 4]

    a = np.random.Generator(np.random.PCG64(7))
    b = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        np.testing.assert_array_equal(
            draw_minimal_sample(a, 100, 7, count=1), draw_minimal_sample(b, 100, 7, count=1)
        )
    with pytest.raises(InvalidInputError):
        draw_minimal_sample(rng, 3, 4, count=1)
    with pytest.raises(InvalidInputError):
        draw_minimal_sample(rng, 10, 3, count=-1)
    assert draw_minimal_sample(rng, 10, 3, count=0).shape == (0, 3)
    assert draw_minimal_sample(rng, 10, 0, count=1).shape == (1, 0)
    assert draw_minimal_sample(rng, 10, 0, count=2).shape == (2, 0)


@pytest.mark.parametrize("draw", [
    lambda: draw_minimal_sample(np.random.default_rng(0), 10, -2, 1),
    lambda: draw_minimal_sample(np.random.default_rng(0), 10, -2, 3),
    lambda: sample_stream_digest(0, 10, 4, -1),
    lambda: sample_stream_digest(0, 10, -1, 5),
    lambda: sample_stream_digest(0, 10, -1, 0),
], ids=["sample", "stack", "digest-count", "digest-size", "digest-size-empty"])
def test_negative_sample_size_or_count_rejected(draw):
    with pytest.raises(InvalidInputError):
        draw()


def test_draw_minimal_sample_uniform_frequency():
    rng = np.random.default_rng(2)
    draws = 100_000
    # One call of 100,000 samples reads the stream as 100,000 calls of one would.
    counts = np.bincount(draw_minimal_sample(rng, 10, 4, draws).ravel(), minlength=10)
    freq = counts / draws
    assert np.all(np.abs(freq - 0.4) <= 0.01)


def _setup_and_cfg(problem, noise, outliers, seed, eps, lo):
    n_in = 100
    ds = synth_dataset(
        SynthConfig(problem, n_inliers=n_in, n_outliers=outliers, noise_sigma=noise, seed=seed)
    )
    setup = ProblemSetup(problem, ds.x1, ds.x2)
    cfg = RansacConfig(epsilon=eps, lo_method=lo, seed=seed)
    return ds, setup, cfg


def test_local_optimize_never_worse_and_fixed_point():
    ds, setup, cfg = _setup_and_cfg(HOMOGRAPHY, 0.0, 0, 3, 1.0, "dlt")
    truth_scored = setup.score(ds.truth, cfg.epsilon)
    out = local_optimize(truth_scored, setup, cfg)
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
    found = setup.minimal_solve(sample[None])
    scored = setup.score(ModelMatrix(found.models.m[0], HOMOGRAPHY), cfg.epsilon)
    out = local_optimize(scored, setup, cfg)
    assert out.score >= scored.score


def test_local_optimize_scores_at_the_input_threshold():
    """LO rescores at the threshold its input was scored at, not at cfg's:
    a model scored at 3 px comes back scored at 3 px."""
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 100, 100, noise_sigma=1.0, seed=0))
    setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
    cfg = RansacConfig(epsilon=30.0, lo_method="dpcp")
    scored = setup.score(ds.truth, 3.0)
    out = local_optimize(scored, setup, cfg)
    assert out.epsilon == 3.0
    assert out.score == setup.score(out.model, 3.0).score
    assert scored.score <= out.score < setup.score(ds.truth, 30.0).score


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


@pytest.mark.parametrize("problem, n_in, n_out", [(FUNDAMENTAL, 120, 80), (HOMOGRAPHY, 100, 100)])
def test_scale_and_shift_with_scaled_epsilon_keeps_the_inliers(problem, n_in, n_out):
    """Scaling both images by 2, shifting them by (5, -3) and (-2, 7), and
    doubling epsilon gives the same inlier mask on every seed."""
    differ = []
    for seed in range(30):
        ds = synth_dataset(SynthConfig(problem, n_in, n_out, noise_sigma=1.0, seed=seed))
        runs = [
            run_ransac(problem, x1, x2, RansacConfig(epsilon=eps, lo_method="dpcp", seed=seed))
            for x1, x2, eps in [(ds.x1, ds.x2, 3.0),
                                (2.0 * ds.x1 + [5.0, -3.0], 2.0 * ds.x2 + [-2.0, 7.0], 6.0)]
        ]
        if not np.array_equal(runs[0].best.inlier_mask, runs[1].best.inlier_mask):
            differ.append(seed)
    assert differ == []


def test_run_ransac_insufficient_data():
    ds = synth_dataset(SynthConfig(FUNDAMENTAL, 7, seed=10))
    cfg = RansacConfig(epsilon=1.0, seed=0)
    with pytest.raises(InsufficientDataError):
        run_ransac(FUNDAMENTAL, ds.x1[:5], ds.x2[:5], cfg, ds.image_size)


@pytest.mark.parametrize("problem", [FUNDAMENTAL, HOMOGRAPHY])
def test_fewer_points_than_one_sample_is_insufficient_data(problem):
    """Every n below the sample size raises InsufficientDataError, n = 0 and
    1 (which normalization cannot take) included."""
    ds = synth_dataset(SynthConfig(problem, 8, seed=10))
    cfg = RansacConfig(epsilon=1.0)
    for n in range(SAMPLE_SIZE[problem]):
        with pytest.raises(InsufficientDataError, match=f"^{n} correspondences"):
            ProblemSetup(problem, ds.x1[:n], ds.x2[:n])
        with pytest.raises(InsufficientDataError, match=f"^{n} correspondences"):
            run_ransac(problem, ds.x1[:n], ds.x2[:n], cfg)


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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("config, options", [
    (RansacConfig, {"epsilon": NAN}),
    (RansacConfig, {"epsilon": INF}),
    (RansacConfig, {"sigma": NAN}),
    (RansacConfig, {"sigma": INF}),
    (RansacConfig, {"epsilon": 1.0, "huber_c": NAN}),
    (RansacConfig, {"epsilon": 1.0, "huber_c": INF}),
    (IrlsConfig, {"tol": NAN}),
    (IrlsConfig, {"tol": INF}),
    (IrlsConfig, {"weight_floor": NAN}),
    (IrlsConfig, {"weight_floor": INF}),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_non_finite_config_rejected(config, options):
    with pytest.raises(InvalidInputError):
        config(**options)


@pytest.mark.parametrize("image_size", [(NAN, 480), (0, 0), (INF, 480), (-640, -480), (640, 0)])
def test_sigma_threshold_needs_a_positive_finite_image_size(image_size):
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 60, 20, noise_sigma=1.0, seed=1))
    cfg = RansacConfig(sigma=0.005, t_max=2000, seed=0)
    with pytest.raises(InvalidInputError, match="image_size"):
        cfg.resolve_epsilon(image_size)
    with pytest.raises(InvalidInputError, match="image_size"):
        run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, image_size)


@pytest.mark.parametrize("config, options", [
    (RansacConfig, {"epsilon": 1.0, "seed": -1}),
    (RansacConfig, {"epsilon": 1.0, "seed": 1.5}),
    (SynthConfig, {"problem": HOMOGRAPHY, "n_inliers": 20, "seed": -1}),
    (SynthConfig, {"problem": HOMOGRAPHY, "n_inliers": 20, "seed": 1.5}),
], ids=lambda v: v.__name__ if isinstance(v, type) else f"seed={v['seed']}")
def test_bad_seed_rejected(config, options):
    with pytest.raises(InvalidInputError):
        config(**options)


@pytest.mark.parametrize("config, options", [
    (RansacConfig, {"epsilon": 1.0, "t_max": 2.5}),
    (RansacConfig, {"epsilon": 1.0, "t_max": 100.0}),
    (RansacConfig, {"epsilon": 1.0, "lo_k_max": 1.5}),
    (IrlsConfig, {"tau_max": 2.5}),
    (IrlsConfig, {"tau_max": "10"}),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x!r}" for k, x in v.items()))
def test_non_integer_config_rejected(config, options):
    with pytest.raises(InvalidInputError):
        config(**options)


def test_numpy_integer_config_accepted():
    ds = synth_dataset(SynthConfig(HOMOGRAPHY, 40, 10, noise_sigma=0.5, seed=3))
    cfg = RansacConfig(epsilon=2.0, t_max=np.int64(50), lo_k_max=np.int32(3), seed=np.int64(1))
    assert IrlsConfig(tau_max=np.int64(5)).tau_max == 5
    report = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
    assert 1 <= report.iterations_used <= 50


# ---------------------------------------------------------------------------
# Solve batches and score chunks
# ---------------------------------------------------------------------------


def _plain(value):
    """A report value with its arrays as (dtype, shape, bytes), for exact comparison."""
    if isinstance(value, ScoredModel):
        return tuple(_plain(getattr(value, name)) for name in
                     [f.name for f in fields(value)] + ["inlier_mask", "inlier_count"])
    if isinstance(value, ModelMatrix):
        return value.kind, _plain(value.m)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


def _report(problem, ds, cfg) -> dict:
    """Every RunReport field but the wall time, a failed run's report included."""
    try:
        report = run_ransac(problem, ds.x1, ds.x2, cfg, ds.image_size)
    except EstimationFailedError as exc:
        report = exc.report
    return {f.name: _plain(getattr(report, f.name)) for f in fields(RunReport)
            if f.name != "wall_time_ms"}


class _BatchLog:
    """Wraps ProblemSetup to record the residual count of every score call
    and, per solve batch, its candidate count and how many score chunks the
    walk scored (LO's single-model rescoring aside)."""

    def __init__(self, monkeypatch):
        self.sizes: list[int] = []
        self.batches: list[list[int]] = []  # [candidates, chunks scored, n]
        solve, score = ProblemSetup.minimal_solve, ProblemSetup.score

        def logged_solve(setup, indices):
            found = solve(setup, indices)
            self.batches.append([len(found), 0, setup.n])
            return found

        def logged_score(setup, model, epsilon):
            scored = score(setup, model, epsilon)
            self.sizes.append(scored.residuals.size)
            if model.m.ndim == 3:
                self.batches[-1][1] += 1
            return scored

        monkeypatch.setattr(ProblemSetup, "minimal_solve", logged_solve)
        monkeypatch.setattr(ProblemSetup, "score", logged_score)

    def cut_in_later_chunk(self) -> bool:
        """Some batch was cut by the budget after its first score chunk: the
        walk scored two or more chunks but not all of them."""
        for candidates, scored, n in self.batches:
            rows = max(1, ransac._BLOCK // n)
            if 2 <= scored < math.ceil(candidates / rows):
                return True
        return False


# (problem, inliers, outliers, scene seed, options, cut inside a later chunk)
BATCH_CASES = [
    (FUNDAMENTAL, 120, 80, 0, {"lo_method": "dpcp", "seed": 3}, False),
    (FUNDAMENTAL, 60, 240, 1, {"lo_method": "none", "seed": 2, "t_max": 600}, False),
    (HOMOGRAPHY, 100, 100, 2, {"lo_method": "dlt", "seed": 4}, False),
    (HOMOGRAPHY, 100, 100, 3, {"lo_method": "huber", "seed": 5}, False),
    # The 128-sample batch at iteration 128 is cut at sample 62, in its second chunk of 40.
    (HOMOGRAPHY, 160, 240, 0, {"lo_method": "none", "seed": 3}, True),
]


@pytest.mark.parametrize("problem, n_in, n_out, scene, options, later_chunk", BATCH_CASES)
def test_batched_run_equals_sample_at_a_time(monkeypatch, problem, n_in, n_out, scene,
                                             options, later_chunk):
    """Solve batches and lazily scored chunks give the report of a run that
    solves and scores one sample at a time."""
    ds = synth_dataset(SynthConfig(problem, n_in, n_out, noise_sigma=1.0, seed=scene))
    cfg = RansacConfig(epsilon=3.0, **options)
    log = _BatchLog(monkeypatch)
    batched = _report(problem, ds, cfg)
    if later_chunk:
        assert log.cut_in_later_chunk()
    monkeypatch.setattr(ransac, "_SOLVE", 1)
    monkeypatch.setattr(ransac, "_BLOCK", 1)
    assert _report(problem, ds, cfg) == batched


@pytest.mark.parametrize("problem, n_in, n_out, options", [
    (FUNDAMENTAL, 60, 240, {"lo_method": "dpcp", "t_max": 1500}),
    (HOMOGRAPHY, 100, 100, {"lo_method": "dlt"}),
    (HOMOGRAPHY, ransac._BLOCK + 100, 0, {"lo_method": "dpcp", "t_max": 20}),
], ids=["F", "H", "H-wider-than-block"])
def test_no_score_call_exceeds_the_block(monkeypatch, problem, n_in, n_out, options):
    ds = synth_dataset(SynthConfig(problem, n_in, n_out, noise_sigma=0.5, seed=7))
    log = _BatchLog(monkeypatch)
    run_ransac(problem, ds.x1, ds.x2, RansacConfig(epsilon=2.0, seed=1, **options), ds.image_size)
    assert log.sizes and max(log.sizes) <= max(ransac._BLOCK, ds.n)


# ---------------------------------------------------------------------------
# ScoredModel reads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("problem", [FUNDAMENTAL, HOMOGRAPHY], ids=["F", "H"])
def test_stack_row_equals_single_score(problem):
    """Row k of a stacked score is the single-model score of model k, field
    for field, the inlier mask and count computed on demand included."""
    ds = synth_dataset(SynthConfig(problem, 80, 40, noise_sigma=1.0, seed=4))
    setup = ProblemSetup(problem, ds.x1, ds.x2)
    samples = draw_minimal_sample(np.random.default_rng(0), setup.n, setup.sample_size, 12)
    found = setup.minimal_solve(samples)
    stack = setup.score(found.models, 3.0)
    k_models = len(found)
    assert stack.inlier_mask.dtype == bool and stack.inlier_mask.shape == (k_models, setup.n)
    assert isinstance(stack.inlier_count, np.ndarray) and stack.inlier_count.shape == (k_models,)
    assert stack.inlier_count.any()
    for k in range(k_models):
        row = stack.row(k)
        single = setup.score(ModelMatrix(found.models.m[k], problem), 3.0)
        assert _plain(row) == _plain(single)
        assert type(row.inlier_count) is int and type(single.inlier_count) is int
        assert row.inlier_mask.dtype == bool and row.inlier_mask.shape == (setup.n,)
        assert row.inlier_count == stack.inlier_count[k]
        assert row.inlier_mask.tobytes() == stack.inlier_mask[k].tobytes()
        assert row.inlier_mask.tobytes() == classify_inliers(single.residuals, 3.0).tobytes()


def test_mask_and_count_follow_the_threshold():
    """The on-demand mask is residual <= epsilon, boundary inclusive, with
    inf and NaN residuals outside; the count is per model."""
    eps = 3.0
    r = np.array([[0.0, eps, np.nextafter(eps, np.inf), np.inf, np.nan],
                  [eps, eps, 1.0, 4.0, 0.5]])
    stack = ScoredModel(ModelMatrix(np.stack([np.eye(3)] * 2), HOMOGRAPHY), np.zeros(2), r, eps)
    assert stack.inlier_mask.tolist() == [[True, True, False, False, False],
                                          [True, True, True, False, True]]
    assert stack.inlier_count.tolist() == [2, 4]
    row = stack.row(0)
    assert row.inlier_mask.tolist() == [True, True, False, False, False]
    assert type(row.inlier_count) is int and row.inlier_count == 2
