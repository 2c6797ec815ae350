"""Locally optimized RANSAC: control loop, scoring, and pluggable refits.

The engine draws uniform minimal samples, scores every candidate with the
truncated quadratic cost, and whenever a candidate beats the best score so
far, runs the local-optimization loop (classify inliers with the pixel
threshold, refit on them, rescore on all points, stop on non-improvement)
before shrinking the iteration budget from the refined inlier count.

Hypotheses are made in batches: a batch of up to ``_SOLVE`` samples is drawn
ahead from the same generator stream and solved as one stack, and its
candidates are walked in draw order with the rules above. They are scored
in chunks of ``_BLOCK // n`` candidates (at least one), each chunk as one
residual block when the walk reaches it. A budget cut inside a batch stops
the walk, so the rest of the batch is never scored, and the results, the
iteration count and the sample digest are those of one sample at a time.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import EstimationFailedError, InsufficientDataError, InvalidInputError
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    denormalize_model,
    epipolar_embeddings,
    hartley_normalize,
    homogeneous,
    model_residuals,
    normalize_model,
    homographic_embeddings,
    unvec_model,
)
from .solvers import (
    SAMPLE_SIZE,
    Candidates,
    dlt_refit,
    fundamental_7pt,
    homography_4pt,
    rank2_project,
)
# Nothing here calls dpcp_irls; it stays for the tracer, which wraps it in this namespace.
from .subspace import dpcp_irls, dpcp_irls_group, huber_irls  # noqa: F401

LO_METHODS = ("none", "dlt", "huber", "dpcp")

# Sentinel budget when the inlier ratio is zero and no cap is supplied.
_UNBOUNDED = 2**62

# Most samples one batch of hypotheses solves at once.
_SOLVE = 2**8

# Most residuals (K * n) one score chunk may hold (at least one model).
_BLOCK = 2**14


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

    def __post_init__(self):
        if (self.epsilon is None) == (self.sigma is None):
            raise InvalidInputError("exactly one of epsilon or sigma must be set")
        # Chained comparisons reject NaN as well as infinities.
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise InvalidInputError("epsilon must be positive and finite")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise InvalidInputError("sigma must be positive and finite")
        if not 0.0 < self.confidence_p < 1.0:
            raise InvalidInputError("confidence_p must lie in (0, 1)")
        if not all(isinstance(v, (int, np.integer)) for v in (self.t_max, self.lo_k_max)):
            raise InvalidInputError("t_max and lo_k_max must be integers")
        if self.t_max < 1 or self.lo_k_max < 1:
            raise InvalidInputError("t_max and lo_k_max must be at least 1")
        if self.lo_method not in LO_METHODS:
            raise InvalidInputError(f"lo_method must be one of {LO_METHODS}")
        if not 0.0 < self.huber_c < math.inf:
            raise InvalidInputError("huber_c must be positive and finite")
        check_seed(self.seed)

    def resolve_epsilon(self, image_size: tuple[float, float] | None) -> float:
        """Pixel threshold; ``sigma`` is scaled by the image diagonal."""
        if self.epsilon is not None:
            return float(self.epsilon)
        if image_size is None:
            raise InvalidInputError("sigma-based threshold needs the image size")
        w, h = image_size
        # Chained comparisons reject NaN as well as infinities.
        if not (0.0 < w < math.inf and 0.0 < h < math.inf):
            raise InvalidInputError(f"image_size must be positive and finite, got {image_size!r}")
        return float(self.sigma) * math.hypot(w, h)


@dataclass(frozen=True)
class ScoredModel:
    """A scored model; for a stack of K models every field is stacked:
    (K,) scores and (K, n) residuals. The inlier mask and count follow from
    the residuals and ``epsilon``; each is computed when first read, so the
    rows a run never keeps cost no classification."""

    model: ModelMatrix
    score: float
    residuals: np.ndarray
    epsilon: float

    @cached_property
    def inlier_mask(self) -> np.ndarray:
        """(n,) or (K, n) booleans, residual <= epsilon."""
        return classify_inliers(self.residuals, self.epsilon)

    @cached_property
    def inlier_count(self) -> int | np.ndarray:
        """An ``int`` for one model, a (K,) array for a stack."""
        count = np.count_nonzero(self.inlier_mask, axis=-1)
        return int(count) if self.residuals.ndim == 1 else count

    def row(self, k: int) -> ScoredModel:
        """The k-th model of a stack."""
        return ScoredModel(
            model=ModelMatrix(self.model.m[k], self.model.kind),
            score=float(self.score[k]),
            residuals=self.residuals[k],
            epsilon=self.epsilon,
        )


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


def truncated_quadratic_score(residuals: np.ndarray, epsilon: float) -> float | np.ndarray:
    """Consensus score sum_i max(0, 1 - (r_i/eps)^2); inf residuals add 0.

    (n,) residuals give a float, (K, n) rows a (K,) array.
    """
    r = np.asarray(residuals, dtype=np.float64)
    # Past 2 the gain is negative anyway; the cap keeps the square finite,
    # and fmax drops the NaN of a NaN residual.
    gain = r / epsilon
    np.minimum(gain, 2.0, out=gain)
    np.square(gain, out=gain)
    np.subtract(1.0, gain, out=gain)
    total = np.sum(np.fmax(gain, 0.0, out=gain), axis=-1)
    return float(total) if r.ndim == 1 else total


def classify_inliers(residuals: np.ndarray, epsilon: float) -> np.ndarray:
    """Hard threshold, boundary inclusive: residual <= epsilon."""
    return np.asarray(residuals) <= epsilon


def draw_minimal_sample(rng: np.random.Generator, n: int, sample_size: int, count: int) -> np.ndarray:
    """``count`` uniform samples of ``sample_size`` distinct indices from range(n).

    Partial Fisher-Yates with a sparse swap table: exactly ``sample_size``
    integer draws from ``rng`` per sample, uniform over all subsets. All the
    draws are taken in one ``rng.integers`` call on an array of lower bounds,
    which reads the generator stream exactly as one scalar call per draw
    would. Returns the (count, sample_size) int64 stack of samples in draw
    order.
    """
    if not 0 <= sample_size <= n or count < 0:
        raise InvalidInputError(f"cannot draw {count} samples of {sample_size} distinct indices from {n}")
    draws = rng.integers(np.tile(np.arange(sample_size), count), n).tolist()
    out: list[int] = []
    for i in range(count):
        start = i * sample_size
        swaps: dict[int, int] = {}
        for j in range(sample_size):
            r = draws[start + j]
            vj = swaps.get(j, j)
            vr = swaps.get(r, r)
            swaps[j], swaps[r] = vr, vj
            out.append(vr)
    return np.array(out, dtype=np.int64).reshape(count, sample_size)


class ProblemSetup:
    """Precomputed per-dataset state: normalization, embeddings, residuals.

    Fewer correspondences than one minimal sample raise InsufficientDataError.
    """

    def __init__(self, problem: str, x1: np.ndarray, x2: np.ndarray):
        if problem not in (FUNDAMENTAL, HOMOGRAPHY):
            raise InvalidInputError(f"unknown problem {problem!r}")
        self.problem = problem
        self.x1 = np.asarray(x1, dtype=np.float64)
        self.x2 = np.asarray(x2, dtype=np.float64)
        if self.x1.shape != self.x2.shape or self.x1.ndim != 2 or self.x1.shape[1] != 2:
            raise InvalidInputError("x1 and x2 must both have shape (n, 2)")
        self.n = self.x1.shape[0]
        self.sample_size = SAMPLE_SIZE[problem]
        if self.n < self.sample_size:
            raise InsufficientDataError(
                f"{self.n} correspondences < minimal sample size {self.sample_size}"
            )
        self.t1, self.x1n = hartley_normalize(self.x1)
        self.t2, self.x2n = hartley_normalize(self.x2)
        # The one per-problem branch. Kernels are bound per instance, so a
        # tracer that wrapped the module globals before the run reaches them.
        if problem == FUNDAMENTAL:
            self.solver, self.constrain = fundamental_7pt, rank2_project
            self.embeddings = epipolar_embeddings(self.x1n, self.x2n).T[:, :, None]
            self.h1, self.h2 = homogeneous(self.x1), homogeneous(self.x2)
        else:
            self.solver, self.constrain = homography_4pt, None
            self.embeddings = homographic_embeddings(self.x1n, self.x2n)
            # The lifted points column-major, as (3, n) coordinate planes, so
            # the transfer residuals read contiguous operands.
            planes = np.ones((2, 3, self.n))
            planes[0, :2], planes[1, :2] = self.x1.T, self.x2.T
            self.h1, self.h2 = planes.transpose(0, 2, 1)

    def score(self, model: ModelMatrix, epsilon: float) -> ScoredModel:
        """Score one model, or a stack of them as one (K, n) residual block."""
        r = model_residuals(model, self.h1, self.h2)
        return ScoredModel(model, truncated_quadratic_score(r, epsilon), r, epsilon)

    def minimal_solve(self, samples: np.ndarray) -> Candidates:
        """Solve a (B, s) stack of index samples; the candidates in pixel space."""
        found = self.solver(self.x1n[samples], self.x2n[samples])
        return Candidates(denormalize_model(self.t1, self.t2, found.models), found.sample)

    def refit(self, inlier_mask: np.ndarray, cfg: RansacConfig) -> ModelMatrix | None:
        """Refit a model from the masked inliers with ``cfg.lo_method``; None
        below 8 constraint rows."""
        data = self.embeddings[inlier_mask]
        if data.shape[0] * data.shape[2] < 8:
            return None
        if cfg.lo_method == "dlt":
            v = dlt_refit(data)
        elif cfg.lo_method == "huber":
            v = huber_irls(data, cfg.huber_c)
        elif cfg.lo_method == "dpcp":
            # On (n, 9, 1) epipolar blocks this is the _irls call of dpcp_irls.
            v = dpcp_irls_group(data)
        else:
            raise InvalidInputError(f"unknown refit method {cfg.lo_method!r}")
        model = normalize_model(unvec_model(v), self.problem)
        if self.constrain is not None:
            model = self.constrain(model)
        return denormalize_model(self.t1, self.t2, model)


def local_optimize(scored: ScoredModel, setup: ProblemSetup, cfg: RansacConfig) -> ScoredModel:
    """Local-optimization loop: classify, refit, rescore, stop when no gain.

    Every refit is scored at the input's threshold. Returns the best scored
    model seen, never worse than the input.
    """
    best = scored
    for _ in range(cfg.lo_k_max):
        refit = setup.refit(best.inlier_mask, cfg)
        if refit is None:
            break
        rescored = setup.score(refit, best.epsilon)
        if rescored.score <= best.score:
            break
        best = rescored
    return best


def check_seed(seed) -> None:
    """Reject a negative or non-integer seed, which ``np.random.SeedSequence`` refuses."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")


def _seed_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _digest_update(digest, indices: np.ndarray) -> None:
    digest.update(np.asarray(indices, dtype="<u4").tobytes())


def sample_stream_digest(seed: int, n: int, sample_size: int, count: int) -> str:
    """Digest of the first ``count`` samples of the stream a run would draw.

    Lets the bench harness verify that two runs with the same seed consumed
    the same minimal-sample sequence (possibly stopping at different points).
    """
    if count < 0 or sample_size < 0:
        raise InvalidInputError(f"cannot draw {count} samples of {sample_size} indices")
    rng = _seed_rng(seed)
    digest = hashlib.sha256()
    for start in range(0, count, _BLOCK):  # chunks bound the memory of a long stream
        chunk = min(_BLOCK, count - start)
        _digest_update(digest, draw_minimal_sample(rng, n, sample_size, chunk))
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
    InsufficientDataError : fewer correspondences than one minimal sample.
    EstimationFailedError : no sample yielded a model within the budget.
    """
    t_start = time.perf_counter()
    setup = ProblemSetup(problem, x1, x2)
    epsilon = cfg.resolve_epsilon(image_size)

    rng = _seed_rng(cfg.seed)
    digest = hashlib.sha256()
    budget = cfg.t_max
    best: ScoredModel | None = None
    iterations = 0
    lo_invocations = 0
    score_history: list[float] = []
    # Candidates per score chunk: at most _BLOCK residuals (or one model).
    rows = max(1, _BLOCK // setup.n)

    while iterations < budget:
        # Solve batches double from one sample, so an early budget cut
        # wastes few draws, up to _SOLVE samples.
        size = min(budget - iterations, max(1, iterations), _SOLVE)
        samples = draw_minimal_sample(rng, setup.n, setup.sample_size, size)
        found = setup.minimal_solve(samples)
        # Samples of the batch consumed so far. A sample is drawn only while
        # the budget allows it; once drawn, all of its candidates are walked.
        used = 0
        for k, j in enumerate(found.sample.tolist()):
            if j >= used and iterations + j >= budget:
                break
            used = j + 1
            i = k % rows  # place in the current score chunk
            if i == 0:  # the walk reaches the next chunk: score it
                chunk = setup.score(ModelMatrix(found.models.m[k:k + rows], setup.problem), epsilon)
                scores = chunk.score.tolist()
            if best is not None and scores[i] <= best.score:
                continue
            scored = chunk.row(i)
            if cfg.lo_method != "none":
                lo_invocations += 1
                scored = local_optimize(scored, setup, cfg)
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
        used = max(used, min(size, budget - iterations))
        _digest_update(digest, samples[:used])
        iterations += used

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
