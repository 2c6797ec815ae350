"""Benchmark sweeps over thresholds and LO methods, plus aggregation.

Seeding rule: trial ``t`` of a sweep with master seed ``s`` runs with
``derive_trial_seed(s, t)`` for every method, sigma and dataset, so all
methods (and all thresholds) consume identical minimal-sample sequences and
comparisons are paired. Trials are embarrassingly parallel; records are
sorted before writing so parallel and sequential runs emit identical CSVs.

Aggregation: the reported mean for a (method, sigma) cell is the equal-weight
mean over datasets of the per-dataset trial means; median and IQR are pooled
over all records in the cell (numpy 'linear' percentiles; a failed trial's
inf error makes a percentile inf only where it takes part in it).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import EstimationFailedError, InvalidInputError
from .fileio import BenchRecord, CorrespondenceFile, csv_safe
from .geometry import model_residuals
from .ransac import LO_METHODS, RansacConfig, RunReport, check_seed, run_ransac

HUBER_SWEEP = (0.1, 0.01, 0.001)

# Relative error slack of select_thresholds, and the CLI's --tolerance default.
SELECT_TOLERANCE = 0.01


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial 64-bit seed: first word of SeedSequence([master_seed, trial])."""
    ss = np.random.SeedSequence([int(master_seed), int(trial)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class BenchSettings:
    """Engine settings shared by every run in a sweep (threshold varies);
    the defaults are RansacConfig's."""

    confidence_p: float = RansacConfig.confidence_p
    t_max: int = RansacConfig.t_max
    lo_k_max: int = RansacConfig.lo_k_max
    huber_c: float = RansacConfig.huber_c
    huber_sweep: bool = False


def validation_error(report: RunReport, data: CorrespondenceFile) -> float:
    """Mean pixel residual of the estimated model over validation inliers."""
    mask = data.validation_mask()
    return float(np.mean(model_residuals(report.best.model, data.x1[mask], data.x2[mask])))


def run_trial(
    dataset_id: str,
    data: CorrespondenceFile,
    method: str,
    sigma: float,
    trial: int,
    master_seed: int,
    settings: BenchSettings,
) -> BenchRecord:
    """One bench row; the Huber sweep averages three runs with shared sampling."""
    seed = derive_trial_seed(master_seed, trial)
    huber_cs = HUBER_SWEEP if (method == "huber" and settings.huber_sweep) else (settings.huber_c,)
    errors, inliers, iterations, lo_counts, walls = [], [], [], [], []
    for c in huber_cs:
        cfg = RansacConfig(
            sigma=sigma,
            confidence_p=settings.confidence_p,
            t_max=settings.t_max,
            lo_method=method,
            lo_k_max=settings.lo_k_max,
            huber_c=c,
            seed=seed,
        )
        try:
            report = run_ransac(data.problem, data.x1, data.x2, cfg, data.image_size)
            errors.append(validation_error(report, data))
            inliers.append(report.best.inlier_count)
        except EstimationFailedError as exc:
            report = exc.report
            errors.append(float("inf"))
            inliers.append(0)
        iterations.append(report.iterations_used)
        lo_counts.append(report.lo_invocations)
        walls.append(report.wall_time_ms)
    return BenchRecord(
        dataset=dataset_id,
        method=method,
        sigma=float(sigma),
        trial=trial,
        seed=seed,
        error_px=float(np.mean(errors)),
        inliers=float(np.mean(inliers)),
        iterations=float(np.mean(iterations)),
        lo_count=float(np.mean(lo_counts)),
        wall_ms=float(np.mean(walls)),
    )


def _trial_task(args) -> BenchRecord:
    return run_trial(*args)


def run_bench(
    datasets: list[tuple[str, CorrespondenceFile]],
    methods: list[str],
    sigmas: list[float],
    trials: int,
    master_seed: int,
    settings: BenchSettings = BenchSettings(),
    jobs: int = 1,
) -> list[BenchRecord]:
    """Full sweep: one record per (dataset, method, sigma, trial)."""
    if not isinstance(trials, (int, np.integer)):
        raise InvalidInputError(f"trials must be an integer, got {trials!r}")
    if not datasets or not methods or not sigmas or trials < 1:
        raise InvalidInputError("datasets, methods, sigmas and trials must be non-empty")
    check_seed(master_seed)
    for method in methods:
        if method not in LO_METHODS:
            raise InvalidInputError(f"unknown method {method!r}")
    for dataset_id, data in datasets:
        if not csv_safe(dataset_id):
            raise InvalidInputError(f"dataset id {dataset_id!r} does not fit a CSV cell")
        data.validation_mask()  # fail fast when labels are missing

    tasks = [
        (dataset_id, data, method, float(sigma), trial, master_seed, settings)
        for dataset_id, data in datasets
        for method in methods
        for sigma in sigmas
        for trial in range(trials)
    ]
    # A pool starts all its workers at once, so it gets no more than there
    # are tasks or CPUs.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        records = [_trial_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_task, tasks, chunksize=8))
    return sorted(records, key=BenchRecord.sort_key)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """numpy's 'linear' percentile of sorted errors, without the NaN that an
    inf gives it: a percentile on an order statistic is that value, and one
    interpolated toward an inf is inf."""
    pos = q / 100.0 * (len(ordered) - 1)
    upper = float(ordered[math.ceil(pos)])
    if pos.is_integer() or upper == math.inf:
        return upper
    return float(np.percentile(ordered, q))


def summarize(records: list[BenchRecord]) -> list[dict]:
    """Per-(method, sigma) summary: equal-dataset-weight means, pooled median/IQR."""
    cells: dict[tuple[str, float], list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.method, rec.sigma), []).append(rec)

    out = []
    for (method, sigma), recs in sorted(cells.items()):
        per_dataset: dict[str, list[BenchRecord]] = {}
        for rec in recs:
            per_dataset.setdefault(rec.dataset, []).append(rec)
        dataset_error_means = [
            float(np.mean([r.error_px for r in drecs])) for drecs in per_dataset.values()
        ]
        dataset_wall_means = [
            float(np.mean([r.wall_ms for r in drecs])) for drecs in per_dataset.values()
        ]
        pooled = np.sort([r.error_px for r in recs])
        q25, q50, q75 = (_percentile(pooled, q) for q in (25.0, 50.0, 75.0))
        out.append(
            {
                "method": method,
                "sigma": sigma,
                "mean_error_px": float(np.mean(dataset_error_means)),
                "median_error_px": q50,
                "iqr_error_px": math.inf if q75 == math.inf else q75 - q25,
                "mean_wall_ms": float(np.mean(dataset_wall_means)),
                "records": len(recs),
            }
        )
    return out


def select_thresholds(records: list[BenchRecord],
                      tolerance: float = SELECT_TOLERANCE) -> dict[str, dict]:
    """Per-method threshold choice: fastest sigma whose mean error is within
    ``tolerance`` (relative) of that method's minimum mean error."""
    if not 0.0 <= tolerance < np.inf:
        raise InvalidInputError(f"tolerance must be non-negative and finite, got {tolerance!r}")
    summary = summarize(records)
    by_method: dict[str, list[dict]] = {}
    for cell in summary:
        by_method.setdefault(cell["method"], []).append(cell)

    chosen = {}
    for method, cells in sorted(by_method.items()):
        best_error = min(c["mean_error_px"] for c in cells)
        limit = best_error * (1.0 + tolerance)
        eligible = [c for c in cells if c["mean_error_px"] <= limit]
        pick = min(eligible, key=lambda c: (c["mean_wall_ms"], c["sigma"]))
        chosen[method] = {
            "sigma": pick["sigma"],
            "mean_error_px": pick["mean_error_px"],
            "mean_wall_ms": pick["mean_wall_ms"],
        }
    return chosen
