"""Locally optimized RANSAC: control loop, scoring, and pluggable refits.

The engine draws uniform minimal samples, scores every candidate with the
truncated quadratic cost, and whenever a candidate beats the best score so
far, runs the local-optimization loop (classify inliers with the pixel
threshold, refit on them, rescore on all points, stop on non-improvement)
before shrinking the iteration budget from the refined inlier count.

Model fitting is done in Hartley-normalized coordinates on unit-scaled
embeddings; scoring and classification use pixel residuals of the
denormalized model. A run is fully deterministic given (data, config, seed):
sampling is the only consumer of randomness and local optimization never
touches the generator, so every LO variant sees the same sample sequence for
the same seed.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DegenerateSampleError,
    EstimationFailedError,
    InsufficientDataError,
    InvalidInputError,
)
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    denormalize_model,
    epipolar_embeddings,
    hartley_normalize,
    model_residuals,
    normalize_model,
    homographic_embeddings,
    unvec_model,
)
from .solvers import (
    FUNDAMENTAL_SAMPLE_SIZE,
    HOMOGRAPHY_SAMPLE_SIZE,
    dlt_refit,
    fundamental_7pt,
    homography_4pt,
    rank2_project,
)
from .subspace import IrlsConfig, dpcp_irls, dpcp_irls_group, huber_irls

LO_METHODS = ("none", "dlt", "huber", "dpcp")

# Sentinel budget when the inlier ratio is zero and no cap is supplied.
_UNBOUNDED = 2**62


@dataclass(frozen=True)
class RansacConfig:
    """Engine settings; exactly one of ``epsilon`` (pixels) or ``sigma``
    (multiplier on the image diagonal) must be given."""

    epsilon: float | None = None
    sigma: float | None = None
    confidence_p: float = 0.95
    t_max: int = 10_000
    lo_method: str = "dpcp"
    lo_k_max: int = 20
    huber_c: float = 0.01
    seed: int = 0
    irls: IrlsConfig = field(default_factory=IrlsConfig)
    # Homography residual variant: score with forward + backward transfer error.
    symmetric_transfer: bool = False

    def __post_init__(self):
        if (self.epsilon is None) == (self.sigma is None):
            raise InvalidInputError("exactly one of epsilon or sigma must be set")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise InvalidInputError("epsilon must be positive")
        if self.sigma is not None and self.sigma <= 0.0:
            raise InvalidInputError("sigma must be positive")
        if not 0.0 < self.confidence_p < 1.0:
            raise InvalidInputError("confidence_p must lie in (0, 1)")
        if self.t_max < 1 or self.lo_k_max < 1:
            raise InvalidInputError("t_max and lo_k_max must be at least 1")
        if self.lo_method not in LO_METHODS:
            raise InvalidInputError(f"lo_method must be one of {LO_METHODS}")
        if self.huber_c <= 0.0:
            raise InvalidInputError("huber_c must be positive")

    def resolve_epsilon(self, image_size: tuple[float, float] | None) -> float:
        """Pixel threshold; ``sigma`` is scaled by the image diagonal."""
        if self.epsilon is not None:
            return float(self.epsilon)
        if image_size is None:
            raise InvalidInputError("sigma-based threshold needs the image size")
        w, h = image_size
        return float(self.sigma) * math.hypot(w, h)


@dataclass(frozen=True)
class ScoredModel:
    model: ModelMatrix
    score: float
    residuals: np.ndarray
    inlier_mask: np.ndarray
    inlier_count: int


@dataclass(frozen=True)
class RunReport:
    best: ScoredModel | None
    iterations_used: int
    lo_invocations: int
    wall_time_ms: float
    sample_digest: str
    epsilon: float
    # Scores of the accepted so-far-the-best models, in acceptance order.
    score_history: tuple[float, ...] = ()


def required_iterations(p: float, inlier_ratio: float, sample_size: int, cap: int | None = None) -> int:
    """Iteration budget to hit confidence ``p``: ceil(log(1-p)/log(1-w^Ns)).

    ``w`` is the inlier ratio. Ratio 1 needs a single iteration; ratio 0 (or
    an underflowing w^Ns) returns ``cap`` (or a huge sentinel when uncapped).
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError("confidence must lie in (0, 1)")
    if not 0.0 <= inlier_ratio <= 1.0:
        raise InvalidInputError("inlier_ratio must lie in [0, 1]")
    if sample_size < 1:
        raise InvalidInputError("sample_size must be at least 1")
    if inlier_ratio >= 1.0:
        return 1
    w = inlier_ratio**sample_size
    if w <= 0.0:
        return cap if cap is not None else _UNBOUNDED
    t = math.ceil(math.log(1.0 - p) / math.log(1.0 - w))
    t = max(t, 1)
    return min(t, cap) if cap is not None else t


def truncated_quadratic_score(residuals: np.ndarray, epsilon: float) -> float:
    """Consensus score sum_i max(0, 1 - (r_i/eps)^2); inf residuals add 0."""
    r = np.asarray(residuals, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        gain = 1.0 - np.square(r / epsilon)
    return float(np.sum(np.maximum(0.0, np.where(np.isfinite(gain), gain, 0.0))))


def classify_inliers(residuals: np.ndarray, epsilon: float) -> np.ndarray:
    """Hard threshold, boundary inclusive: residual <= epsilon."""
    return np.asarray(residuals) <= epsilon


def draw_minimal_sample(rng: np.random.Generator, n: int, sample_size: int) -> np.ndarray:
    """Uniform sample of ``sample_size`` distinct indices from range(n).

    Partial Fisher-Yates with a sparse swap table: exactly ``sample_size``
    integer draws from ``rng`` per call, uniform over all subsets. Returns
    the (sample_size,) int64 index array in draw order.
    """
    if sample_size > n:
        raise InvalidInputError(f"cannot draw {sample_size} distinct indices from {n}")
    swaps: dict[int, int] = {}
    out = np.empty(sample_size, dtype=np.int64)
    for j in range(sample_size):
        r = int(rng.integers(j, n))
        vj = swaps.get(j, j)
        vr = swaps.get(r, r)
        swaps[j], swaps[r] = vr, vj
        out[j] = vr
    return out


class ProblemSetup:
    """Precomputed per-dataset state: normalization, embeddings, residuals."""

    def __init__(self, problem: str, x1: np.ndarray, x2: np.ndarray,
                 image_size: tuple[float, float] | None = None,
                 symmetric_transfer: bool = False):
        if problem not in (FUNDAMENTAL, HOMOGRAPHY):
            raise InvalidInputError(f"unknown problem {problem!r}")
        self.problem = problem
        self.symmetric_transfer = symmetric_transfer
        self.x1 = np.asarray(x1, dtype=np.float64)
        self.x2 = np.asarray(x2, dtype=np.float64)
        if self.x1.shape != self.x2.shape or self.x1.ndim != 2 or self.x1.shape[1] != 2:
            raise InvalidInputError("x1 and x2 must both have shape (n, 2)")
        self.n = self.x1.shape[0]
        self.image_size = image_size
        self.sample_size = (
            FUNDAMENTAL_SAMPLE_SIZE if problem == FUNDAMENTAL else HOMOGRAPHY_SAMPLE_SIZE
        )
        self.t1, self.x1n = hartley_normalize(self.x1)
        self.t2, self.x2n = hartley_normalize(self.x2)
        # (n, 9, m) blocks: m = 1 epipolar or m = 2 homographic constraints.
        if problem == FUNDAMENTAL:
            self.embeddings = epipolar_embeddings(self.x1n, self.x2n).T[:, :, None]
        else:
            self.embeddings = homographic_embeddings(self.x1n, self.x2n)

    def residuals(self, model: ModelMatrix) -> np.ndarray:
        return model_residuals(model, self.x1, self.x2, self.symmetric_transfer)

    def score(self, model: ModelMatrix, epsilon: float) -> ScoredModel:
        r = self.residuals(model)
        mask = classify_inliers(r, epsilon)
        return ScoredModel(
            model=model,
            score=truncated_quadratic_score(r, epsilon),
            residuals=r,
            inlier_mask=mask,
            inlier_count=int(np.count_nonzero(mask)),
        )

    def minimal_solve(self, indices: np.ndarray) -> list[ModelMatrix]:
        """Run the minimal solver on a sample; models returned in pixel space."""
        a = self.x1n[indices]
        b = self.x2n[indices]
        if self.problem == FUNDAMENTAL:
            candidates = fundamental_7pt(a, b)
        else:
            candidates = [homography_4pt(a, b)]
        return [denormalize_model(self.t1, self.t2, m) for m in candidates]

    def refit(self, inlier_mask: np.ndarray, method: str, cfg: RansacConfig) -> ModelMatrix | None:
        """Refit a model from the masked inliers; None below 8 constraint rows."""
        data = self.embeddings[inlier_mask]
        if data.shape[0] * data.shape[2] < 8:
            return None
        if method == "dlt":
            v = dlt_refit(data)
        elif method == "huber":
            v = huber_irls(data, cfg.huber_c, cfg.irls)
        elif method == "dpcp":
            if self.problem == FUNDAMENTAL:
                v = dpcp_irls(data, cfg.irls)
            else:
                v = dpcp_irls_group(data, cfg.irls)
        else:
            raise InvalidInputError(f"unknown refit method {method!r}")
        model = normalize_model(unvec_model(v), self.problem)
        if self.problem == FUNDAMENTAL:
            model = rank2_project(model)
        return denormalize_model(self.t1, self.t2, model)


def local_optimize(scored: ScoredModel, setup: ProblemSetup, cfg: RansacConfig,
                   epsilon: float) -> ScoredModel:
    """Local-optimization loop: classify, refit, rescore, stop when no gain.

    Returns the best scored model seen, never worse than the input.
    """
    best = scored
    current = scored
    for _ in range(cfg.lo_k_max):
        refit = setup.refit(classify_inliers(current.residuals, epsilon), cfg.lo_method, cfg)
        if refit is None:
            break
        rescored = setup.score(refit, epsilon)
        if rescored.score <= best.score:
            break
        best = rescored
        current = rescored
    return best


def _seed_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _digest_update(digest, indices: np.ndarray) -> None:
    digest.update(np.asarray(indices, dtype="<u4").tobytes())


def sample_stream_digest(seed: int, n: int, sample_size: int, count: int) -> str:
    """Digest of the first ``count`` samples of the stream a run would draw.

    Lets the bench harness verify that two runs with the same seed consumed
    the same minimal-sample sequence (possibly stopping at different points).
    """
    rng = _seed_rng(seed)
    digest = hashlib.sha256()
    for _ in range(count):
        _digest_update(digest, draw_minimal_sample(rng, n, sample_size))
    return digest.hexdigest()


def run_ransac(problem: str, x1: np.ndarray, x2: np.ndarray, cfg: RansacConfig,
               image_size: tuple[float, float] | None = None) -> RunReport:
    """Locally optimized RANSAC over point correspondences.

    Parameters
    ----------
    problem : "fundamental" or "homography".
    x1, x2 : (n, 2) matched pixel coordinates.
    cfg : engine settings (threshold, confidence, caps, LO method, seed).
    image_size : (width, height); required when cfg.sigma is used.

    Returns
    -------
    RunReport with the best scored model, iteration and LO counts, wall time
    and the digest of the consumed sample sequence.

    Raises
    ------
    EstimationFailedError : no sample yielded a model within the budget.
    """
    t_start = time.perf_counter()
    setup = ProblemSetup(problem, x1, x2, image_size, cfg.symmetric_transfer)
    epsilon = cfg.resolve_epsilon(image_size)
    if setup.n < setup.sample_size:
        raise InsufficientDataError(
            f"{setup.n} correspondences < minimal sample size {setup.sample_size}"
        )

    rng = _seed_rng(cfg.seed)
    digest = hashlib.sha256()
    budget = cfg.t_max
    best: ScoredModel | None = None
    iterations = 0
    lo_invocations = 0
    score_history: list[float] = []

    while iterations < budget:
        sample = draw_minimal_sample(rng, setup.n, setup.sample_size)
        _digest_update(digest, sample)
        iterations += 1
        try:
            candidates = setup.minimal_solve(sample)
        except DegenerateSampleError:
            continue
        for candidate in candidates:
            scored = setup.score(candidate, epsilon)
            if best is not None and scored.score <= best.score:
                continue
            if cfg.lo_method != "none":
                lo_invocations += 1
                scored = local_optimize(scored, setup, cfg, epsilon)
            best = scored
            score_history.append(best.score)
            budget = min(
                budget,
                required_iterations(
                    cfg.confidence_p,
                    best.inlier_count / setup.n,
                    setup.sample_size,
                    cap=cfg.t_max,
                ),
            )

    wall_ms = (time.perf_counter() - t_start) * 1e3
    report = RunReport(
        best=best,
        iterations_used=iterations,
        lo_invocations=lo_invocations,
        wall_time_ms=wall_ms,
        sample_digest=digest.hexdigest(),
        epsilon=epsilon,
        score_history=tuple(score_history),
    )
    if best is None:
        raise EstimationFailedError(
            f"no non-degenerate sample in {iterations} draws", report=report
        )
    return report
