"""The benchmark's three workloads, built only from robustfit's public API.

Every workload is a closed loop: one process issues a call, waits for its
result and issues the next. A workload is a fixed *cycle* of steps (one
``run_ransac`` call, or one ``run_bench`` sweep); the timed loop runs whole
cycles until the run length is reached, so every call of the cycle is made
equally often and the accuracy figures (validation error, fail rate) do not
depend on how fast the machine was.

Every scene and RANSAC seed is derived from the benchmark's ``--seed``; the
library receives only the generated inputs. Each scene is written to the
``.rf`` text format and parsed back before use, as a user of the CLI would.

Layer shares quoted below are the ``<span>.share`` values of the traced run
(``--trace 1``) on a 2-core Intel Xeon machine, seed 1, 15 s per phase.
"""

from __future__ import annotations

import functools
import math
import time
import traceback
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import robustfit
from robustfit import bench, fileio, synth
from robustfit.exceptions import EstimationFailedError
from robustfit.geometry import FUNDAMENTAL, HOMOGRAPHY, model_residuals

NOISE_SIGMA = 1.0  # pixels, every scene
EPSILON = 3.0  # pixels, the RANSAC threshold of the direct workloads


def derive_seed(seed: int, tag: str, index: int = 0) -> int:
    """32-bit seed for one scene or run, derived from the benchmark seed."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode()), int(index)])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class SceneSpec:
    name: str
    problem: str
    n_inliers: int
    n_outliers: int


def make_scene(spec: SceneSpec, seed: int) -> fileio.CorrespondenceFile:
    """Synthesize a labelled scene and pass it through the text format."""
    data = synth.synth_dataset(
        robustfit.SynthConfig(
            spec.problem, spec.n_inliers, spec.n_outliers, NOISE_SIGMA,
            seed=derive_seed(seed, "scene:" + spec.name),
        )
    )
    text = fileio.correspondences_to_text(
        spec.problem, data.image_size, data.x1, data.x2, data.labels
    )
    return fileio.parse_correspondences_text(text)


@dataclass
class Call:
    """Outcome of one ``run_ransac`` call, as seen from outside the library."""

    config: int
    wall_ms: float
    iterations: int | None
    fingerprint: tuple
    error_px: float  # validation error; not finite when no model came back
    failure: str | None  # None, or why the call counts as failed


def _gate(call: Call, bound: float) -> Call:
    """Count a returned model whose validation error exceeds ``bound`` as failed."""
    if call.failure is None and not (call.error_px <= bound):
        call.failure = f"validation error {call.error_px:.4g} px above bound {bound:.4g} px"
    return call


class DirectWorkload:
    """``run_ransac`` called back to back over scenes x LO methods x seeds.

    The correctness bound is the RANSAC threshold: a returned model must
    explain the ground-truth inliers with a mean residual of at most epsilon.
    """

    max_jobs = 1

    def __init__(self, name: str, scenes: tuple[SceneSpec, ...],
                 lo_methods: tuple[tuple[str, int], ...], ransac_seeds: int):
        """``lo_methods`` pairs each LO method with a stride: the method runs
        on every stride-th RANSAC seed of every scene."""
        self.name = name
        self.scenes = scenes
        self.lo_methods = lo_methods
        self.ransac_seeds = ransac_seeds

    def setup(self, seed: int) -> dict:
        data = [make_scene(spec, seed) for spec in self.scenes]
        configs = [
            (scene, method, derive_seed(seed, f"ransac:{self.name}:{scene}", s))
            for s in range(self.ransac_seeds)
            for scene in range(len(self.scenes))
            for method, stride in self.lo_methods
            if s % stride == 0
        ]
        return {"data": data, "configs": configs}

    def call(self, state: dict, index: int) -> Call:
        scene, method, rseed = state["configs"][index]
        data = state["data"][scene]
        cfg = robustfit.RansacConfig(epsilon=EPSILON, lo_method=method, seed=rseed)
        t0 = time.perf_counter()
        try:
            report = robustfit.run_ransac(data.problem, data.x1, data.x2, cfg, data.image_size)
        except EstimationFailedError as exc:
            wall_ms = (time.perf_counter() - t0) * 1e3
            return Call(index, wall_ms, exc.report.iterations_used,
                        ("failed", exc.report.sample_digest), math.nan, f"raised {exc!r}")
        except Exception as exc:  # any exception is a counted failure, never fatal
            wall_ms = (time.perf_counter() - t0) * 1e3
            traceback.print_exc()
            return Call(index, wall_ms, None, ("raised", repr(exc)), math.nan, f"raised {exc!r}")
        wall_ms = (time.perf_counter() - t0) * 1e3
        m = report.best.model.m
        fingerprint = (m.tobytes(), report.best.inlier_count, report.sample_digest)
        if not np.all(np.isfinite(m)):
            return Call(index, wall_ms, report.iterations_used, fingerprint, math.nan,
                        "non-finite model")
        mask = data.validation_mask()
        error = float(np.mean(model_residuals(report.best.model, data.x1[mask], data.x2[mask])))
        return _gate(Call(index, wall_ms, report.iterations_used, fingerprint, error, None),
                     EPSILON)

    def warmup(self, state: dict) -> Call:
        return self.call(state, 0)

    def steps(self, state: dict, jobs: int) -> list[Callable[[], list[Call]]]:
        """One step per call of the cycle."""
        def step(index: int) -> list[Call]:
            return [self.call(state, index)]

        return [functools.partial(step, i) for i in range(len(state["configs"]))]


class SweepWorkload:
    """One ``run_bench`` sweep per cycle, then the records CSV, as
    ``robustfit bench`` does. Pool start-up is inside the cycle because every
    sweep pays for it. The correctness bound of a record is its threshold,
    ``sigma`` times the image diagonal."""

    def __init__(self, name: str, scenes: tuple[SceneSpec, ...], methods: tuple[str, ...],
                 sigmas: tuple[float, ...], trials: int, max_jobs: int):
        self.name = name
        self.scenes = scenes
        self.methods = methods
        self.sigmas = sigmas
        self.trials = trials
        self.max_jobs = max_jobs

    def setup(self, seed: int) -> dict:
        datasets = [(spec.name, make_scene(spec, seed)) for spec in self.scenes]
        return {"datasets": datasets, "master_seed": derive_seed(seed, "bench:" + self.name)}

    def _bound(self, data: fileio.CorrespondenceFile, sigma: float) -> float:
        return sigma * math.hypot(*data.image_size)

    def warmup(self, state: dict) -> Call:
        """The trial that sorts first in the sweep's records, run in this process."""
        name, data = min(state["datasets"], key=lambda d: d[0])
        sigma = min(self.sigmas)
        record = bench.run_trial(name, data, min(self.methods), sigma, 0,
                                 state["master_seed"], bench.BenchSettings())
        return self._record_call(0, record, self._bound(data, sigma))

    def _record_call(self, index: int, record: fileio.BenchRecord, bound: float) -> Call:
        """The fingerprint is the record's CSV row with wall_ms masked, so
        equal fingerprints across sweeps mean equal masked records CSVs."""
        masked = fileio.BenchRecord(**{**record.__dict__, "wall_ms": 0.0})
        return _gate(
            Call(index, record.wall_ms, int(record.iterations), (masked.to_csv_row(),),
                 record.error_px,
                 None if math.isfinite(record.error_px) else "no model returned"),
            bound,
        )

    def sweep(self, state: dict, jobs: int) -> list[Call]:
        datasets = state["datasets"]
        try:
            records = bench.run_bench(datasets, list(self.methods), list(self.sigmas),
                                      self.trials, state["master_seed"], jobs=jobs)
            fileio.records_to_csv(records)
        except Exception as exc:  # a failed sweep counts every call as failed
            traceback.print_exc()
            n_tasks = len(datasets) * len(self.methods) * len(self.sigmas) * self.trials
            return [Call(i, math.nan, None, ("raised", repr(exc)), math.nan, f"raised {exc!r}")
                    for i in range(n_tasks)]
        data_by_name = dict(datasets)
        return [
            self._record_call(i, rec, self._bound(data_by_name[rec.dataset], rec.sigma))
            for i, rec in enumerate(records)
        ]

    def steps(self, state: dict, jobs: int) -> list[Callable[[], list[Call]]]:
        """The whole sweep is one step."""
        return [functools.partial(self.sweep, state, jobs)]


# hyp-bound -- stresses hypothesis generation and scoring.
# Why: F with 20 % inliers. An all-inlier 7-point sample has probability
# 0.2**7, so the budget never falls below t_max = 10 000: every call draws,
# solves and scores 10 000 samples, and LO runs only on the few so-far-best
# models. A batched hypothesis pipeline must show its gain here; an LO
# change must not. Six scenes, one RANSAC seed each (about 7 s per call):
# with three, the machine's speed drift alone spread the per-run medians by
# up to a quarter.
# Measured shares: minimal_solve 0.54 (fundamental_7pt 0.40, of which
# solve_cubic_real 0.09; denormalize_model 0.11), score 0.37
# (model_residuals 0.27), draw_minimal_sample 0.05, local_optimize 0.005,
# ProblemSetup < 0.001. 2.48 candidates per sample, no degenerate samples.
# Finding: some calls return a wrong model (mean validation residual above
# epsilon); they count as failed. Seeds 11-60: 14 of 180 calls (3.0 to
# 7.1 px).
HYP_BOUND = DirectWorkload(
    "hyp-bound",
    scenes=tuple(SceneSpec(f"F60-240-{k}", FUNDAMENTAL, 60, 240) for k in "abcdef"),
    lo_methods=(("dpcp", 1),),
    ransac_seeds=1,
)

# lo-sweep -- stresses local optimization and the refits, plus bench and fileio.
# Why: the paired sweep researchers run, {dlt, huber, dpcp} x sigma in
# {0.0025, 0.005} x 8 trials on two 80 %-inlier scenes (F 240/60, H 160/40),
# through run_bench with 2 jobs, then the records CSV. Runs need few
# iterations, so LO and the refits take a large part of each call. The
# H 100/100 and F 120/80 scenes were not used: LO is only about 9 % of their
# run time, too little for a refit change to show.
# Measured shares (traced with one job): local_optimize 0.44 (refit 0.38;
# dpcp_irls_group 0.24, least_eigvecs 0.17, huber_irls 0.05), minimal_solve
# 0.29, score 0.22, run_trial self 0.02, records_to_csv < 0.001. Pool
# efficiency 0.93 with 2 jobs; 4.3 refits per LO call, 7.2 IRLS iterations
# per refit on average.
LO_SWEEP = SweepWorkload(
    "lo-sweep",
    scenes=(SceneSpec("F240-60", FUNDAMENTAL, 240, 60),
            SceneSpec("H160-40", HOMOGRAPHY, 160, 40)),
    methods=("dlt", "huber", "dpcp"),
    sigmas=(0.0025, 0.005),
    trials=8,
    max_jobs=2,
)

# large-n -- stresses wide scoring and per-call set-up.
# Why: homography, 5 000 inliers + 5 000 outliers. Few iterations, each
# scoring one candidate over 10 000 points, plus the per-call ProblemSetup
# (normalization and embeddings) and DPCP refits on 20 000 constraint rows.
# It uses the scoring layer the opposite way from hyp-bound (few wide scores
# instead of many narrow ones), so a batched scorer that helps one and costs
# the other shows. Four scenes x 16 RANSAC seeds with dpcp, and `none` on
# every second seed: with equal counts the median per-call figures fell in
# the gap between the two methods' modes and jumped between runs.
# Measured shares: score 0.57 (model_residuals 0.52), minimal_solve 0.19,
# local_optimize 0.16 (refit 0.11, dpcp_irls_group 0.10), ProblemSetup 0.05,
# parse_correspondences_text 0.02 (set-up).
# Finding: `none` calls occasionally return a model whose mean validation
# residual is just above epsilon; they count as failed. Seeds 11-60: 19 of
# 4 800 calls (3.00 to 3.68 px; on seed 32 all three were `none` calls,
# whose errors run up to 3.7 px while `dpcp` stays near 1.25 px).
LARGE_N = DirectWorkload(
    "large-n",
    scenes=tuple(SceneSpec(f"H5000-5000-{k}", HOMOGRAPHY, 5000, 5000) for k in "abcd"),
    lo_methods=(("dpcp", 1), ("none", 2)),
    ransac_seeds=16,
)

WORKLOADS = {w.name: w for w in (HYP_BOUND, LO_SWEEP, LARGE_N)}
