"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured value and runtime (run with ``pytest -s``
or read the captured output). Tolerances are pinned here, not configurable.

Run: pytest tests/test_acceptance.py -v
"""

import time

import numpy as np

from robustfit import (
    IrlsConfig,
    ProblemSetup,
    RansacConfig,
    SynthConfig,
    angle_between,
    dpcp_irls,
    dpcp_irls_basis,
    dpcp_irls_group,
    epipolar_embeddings,
    hartley_normalize,
    huber_irls,
    model_residuals,
    required_iterations,
    run_ransac,
    synth_dataset,
    synth_fundamental,
    synth_homography,
)
from robustfit.bench import BenchSettings, run_bench
from robustfit.fileio import (
    BenchRecord,
    CorrespondenceFile,
    correspondences_to_text,
    parse_correspondences_text,
    parse_records_text,
    records_to_csv,
)
from robustfit.geometry import FUNDAMENTAL, HOMOGRAPHY


class Budget:
    """Asserts the criterion's stated runtime bound and prints one line."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {status} {self.name} ({elapsed:.2f}s / limit {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.name}: runtime {elapsed:.2f}s over budget"
        return False


def test_c1_iteration_budget_unit_check():
    with Budget("1 iteration-budget formula", 1e-3):
        assert required_iterations(0.95, 0.5, 7) == 382
        assert required_iterations(0.95, 0.5, 4) == 47


def test_c2_minimal_solver_oracles():
    with Budget("2 minimal-solver oracles (1000 scenes each)", 10.0):
        for seed in range(1000):
            ds = synth_fundamental(SynthConfig(FUNDAMENTAL, n_inliers=7, seed=seed))
            setup = ProblemSetup(FUNDAMENTAL, ds.x1, ds.x2)
            cands = setup.minimal_solve(np.arange(7)[None]).models.m
            assert min(angle_between(c, ds.truth.m) for c in cands) <= 1e-6
            assert all(abs(np.linalg.det(c)) <= 1e-9 for c in cands)
        for seed in range(1000):
            ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=4, seed=seed))
            setup = ProblemSetup(HOMOGRAPHY, ds.x1, ds.x2)
            h = setup.minimal_solve(np.arange(4)[None]).models.m[0]
            assert angle_between(h, ds.truth.m) <= 1e-7


def test_c3_dpcp_exact_recovery():
    with Budget("3 DPCP exact recovery (500+500, 100 seeds)", 30.0):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            normal = rng.normal(size=9)
            normal /= np.linalg.norm(normal)
            basis = np.linalg.svd(normal[None, :])[2][1:].T
            inliers = basis @ rng.normal(size=(8, 500))
            inliers /= np.linalg.norm(inliers, axis=0)
            outliers = rng.normal(size=(9, 500))
            outliers /= np.linalg.norm(outliers, axis=0)
            y = np.hstack([inliers, outliers])
            trace = []
            b = dpcp_irls(y, trace=trace)
            assert len(trace) <= 101  # at most 100 IRLS iterations
            if np.degrees(angle_between(b, normal)) <= 0.1:
                hits += 1
        assert hits >= 99, f"only {hits}/100 seeds recovered the normal"


def _monotone(trace):
    return all(
        trace[i + 1] <= trace[i] + 1e-12 * max(1.0, abs(trace[i]))
        for i in range(len(trace) - 1)
    )


def test_c4_irls_monotonicity():
    with Budget("4 IRLS objective monotonicity (1000 random inputs)", 60.0):
        rng = np.random.default_rng(0)
        cfg = IrlsConfig(tau_max=40, tol=1e-10)
        for _ in range(1000):
            d = int(rng.integers(4, 10))
            n = int(rng.integers(d + 2, 5 * d))
            y = rng.normal(size=(d, n))
            y /= np.linalg.norm(y, axis=0)
            blocks = np.stack([y.T, np.roll(y.T, 1, axis=0)], axis=2)

            trace = []
            dpcp_irls(y, cfg, trace=trace)
            assert _monotone(trace)
            trace = []
            dpcp_irls_group(blocks, cfg, trace=trace)
            assert _monotone(trace)
            trace = []
            dpcp_irls_basis(y, codim=min(3, d - 1), cfg=cfg, trace=trace)
            assert _monotone(trace)
            trace = []
            huber_irls(y, c_huber=float(rng.uniform(0.005, 0.5)), cfg=cfg, trace=trace)
            assert _monotone(trace)


def test_c5_degenerate_epipolar_nullspace():
    with Budget("5 planar-scene 3-d nullspace (40% outliers)", 10.0):
        for seed in range(5):
            ds = synth_fundamental(
                SynthConfig(FUNDAMENTAL, n_inliers=120, n_outliers=80, seed=seed,
                            degenerate_planar=True)
            )
            _, x1n = hartley_normalize(ds.x1)
            _, x2n = hartley_normalize(ds.x2)
            emb = epipolar_embeddings(x1n, x2n)
            inlier_emb = emb[:, ds.labels]
            s = np.linalg.svd(inlier_emb.T, compute_uv=False)
            assert np.all(s[6:] <= 1e-6 * s[0])

            truth_ns = np.linalg.svd(inlier_emb.T)[2][6:].T  # (9, 3)
            basis = dpcp_irls_basis(emb, codim=3)
            resid = truth_ns - basis @ (basis.T @ truth_ns)
            sines = np.linalg.svd(resid, compute_uv=False)[:3]
            angles_deg = np.degrees(np.arcsin(np.clip(sines, 0.0, 1.0)))
            assert np.max(angles_deg) <= 1.0


def _paired_errors(problem, n_in, n_out, noise, eps, seeds, methods):
    errors = {m: [] for m in methods}
    for seed in range(seeds):
        ds = synth_dataset(
            SynthConfig(problem, n_inliers=n_in, n_outliers=n_out, noise_sigma=noise, seed=seed)
        )
        val = ds.labels
        for m in methods:
            cfg = RansacConfig(epsilon=eps, lo_method=m, seed=seed)
            rep = run_ransac(problem, ds.x1, ds.x2, cfg, ds.image_size)
            errors[m].append(
                float(np.mean(model_residuals(rep.best.model, ds.x1[val], ds.x2[val])))
            )
    return {m: np.array(v) for m, v in errors.items()}


def test_c6_lo_ordering_on_paired_seeds():
    with Budget("6 LO error ordering dpcp <= dlt <= none (100 paired seeds)", 300.0):
        for problem, n_in, n_out in ((HOMOGRAPHY, 100, 100), (FUNDAMENTAL, 120, 80)):
            e = _paired_errors(problem, n_in, n_out, 1.0, 3.0, 100, ("none", "dlt", "dpcp"))
            means = {m: float(v.mean()) for m, v in e.items()}
            assert means["dpcp"] <= means["dlt"] <= means["none"], (problem, means)
            assert means["dpcp"] <= 0.8 * means["none"], (problem, means)
            # Paired per-seed comparison: the robust refit wins in the majority.
            assert np.mean(e["dpcp"] <= e["dlt"]) > 0.5, problem


def test_c7_score_monotonicity_and_determinism(tmp_path):
    with Budget("7 score monotonicity + sequential/parallel determinism", 60.0):
        ds = synth_dataset(SynthConfig(HOMOGRAPHY, 60, 60, noise_sigma=1.0, seed=3))
        for lo in ("none", "dlt", "huber", "dpcp"):
            cfg = RansacConfig(epsilon=3.0, lo_method=lo, seed=5)
            report = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
            hist = report.score_history
            assert all(hist[i] < hist[i + 1] for i in range(len(hist) - 1))

        data = CorrespondenceFile(HOMOGRAPHY, ds.image_size, ds.x1, ds.x2, ds.labels)
        kwargs = dict(
            datasets=[("ds", data)],
            methods=["none", "dpcp"],
            sigmas=[0.0025, 0.005],
            trials=4,
            master_seed=11,
            settings=BenchSettings(t_max=200),
        )
        seq = run_bench(**kwargs, jobs=1)
        par = run_bench(**kwargs, jobs=3)

        def mask_wall(records):
            return records_to_csv(
                [BenchRecord(**{**r.__dict__, "wall_ms": 0.0}) for r in records]
            )

        assert mask_wall(seq) == mask_wall(par)


def test_c8_threshold_sensitivity():
    with Budget("8 threshold sensitivity: dpcp flatter than dlt", 600.0):
        eps_grid = [1.0, 2.0, 4.0, 8.0]
        methods = ("dlt", "dpcp")
        curves = {m: {e: [] for e in eps_grid} for m in methods}
        for seed in range(100):
            ds = synth_dataset(
                SynthConfig(HOMOGRAPHY, n_inliers=100, n_outliers=100, noise_sigma=1.0, seed=seed)
            )
            val = ds.labels
            for m in methods:
                for eps in eps_grid:
                    # Default (effectively unconstrained) budget: a tight cap
                    # would measure budget starvation, not threshold response.
                    cfg = RansacConfig(epsilon=eps, lo_method=m, seed=seed)
                    rep = run_ransac(HOMOGRAPHY, ds.x1, ds.x2, cfg, ds.image_size)
                    curves[m][eps].append(
                        float(np.mean(model_residuals(rep.best.model, ds.x1[val], ds.x2[val])))
                    )
        ratios = {}
        for m in methods:
            means = [float(np.mean(curves[m][e])) for e in eps_grid]
            ratios[m] = max(means) / min(means)
        assert ratios["dpcp"] <= ratios["dlt"], ratios


def test_c9_file_format_and_aggregation_round_trips():
    with Budget("9 file-format and aggregation round trips", 10.0):
        ds = synth_homography(
            SynthConfig(HOMOGRAPHY, n_inliers=40, n_outliers=30, noise_sigma=1.0, seed=9)
        )
        text = correspondences_to_text(HOMOGRAPHY, ds.image_size, ds.x1, ds.x2, ds.labels)
        parsed = parse_correspondences_text(text)
        again = correspondences_to_text(
            parsed.problem, parsed.image_size, parsed.x1, parsed.x2, parsed.labels
        )
        assert again == text

        rng = np.random.default_rng(1)
        records = [
            BenchRecord(
                dataset=f"d{i % 3}", method="dpcp", sigma=0.005, trial=i, seed=i,
                error_px=float(rng.uniform(0.1, 3.0)), inliers=float(rng.integers(20, 60)),
                iterations=float(rng.integers(30, 200)), lo_count=float(rng.integers(0, 6)),
                wall_ms=float(rng.uniform(0.5, 20.0)),
            )
            for i in range(60)
        ]
        csv_text = records_to_csv(records)
        parsed_records = parse_records_text(csv_text)
        assert records_to_csv(parsed_records) == csv_text

        from robustfit.bench import summarize

        cell = summarize(parsed_records)[0]
        pooled = np.array([r.error_px for r in parsed_records])
        by_dataset = {}
        for r in parsed_records:
            by_dataset.setdefault(r.dataset, []).append(r.error_px)
        mean_of_means = float(np.mean([np.mean(vals) for _, vals in sorted(by_dataset.items())]))
        assert abs(cell["mean_error_px"] - mean_of_means) <= 1e-12
        assert abs(cell["median_error_px"] - np.percentile(pooled, 50)) <= 1e-12
        expected_iqr = np.percentile(pooled, 75) - np.percentile(pooled, 25)
        assert abs(cell["iqr_error_px"] - expected_iqr) <= 1e-12
