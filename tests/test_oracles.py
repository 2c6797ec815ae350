"""Reference oracles for the hypothesis, scoring, set-up and IRLS kernels.

The per-draw Fisher-Yates sampler and the numpy-scalar cubic solver below are
verbatim copies of the implementations that ``tests/golden_ransac.json`` was
recorded with (only the public names carry a ``reference_`` prefix). The
production kernels take all of a batch's draws in one ``rng.integers`` call
and solve the cubic on Python floats; these tests require the same samples,
the same generator state afterwards and the same root bytes.

The transfer residuals, the truncated quadratic score, the homographic
embeddings, the Hartley normalization and the IRLS loop are verbatim copies
of the row-wise numpy kernels that the production code replaced with
contiguous coordinate planes and entry-order sums. The golden file holds no
scene above n = 400, so these tests require the same bytes on seeded inputs
up to n = 10 000 and on edge rows: points at infinity, NaN models, overflowing
coordinates and residuals, and empty inputs. The transfer kernels must give
those bytes on row-major and on column-major points (the layout
``ProblemSetup`` holds for homographies), and the IRLS loop on a wide scene's
blocks as well. ``reference_smoothed_abs`` is the smoothing that the IRLS
objective applied to its row norms before ``_smoothed_norms``.
"""

import hashlib
import math

import numpy as np
import pytest

from robustfit.exceptions import DegenerateInputError, InsufficientDataError, InvalidInputError
from robustfit.geometry import (
    constraint_rows,
    epipolar_embeddings,
    hartley_normalize,
    homogeneous,
    homographic_embeddings,
    transfer_error,
)
from robustfit.linalg import apply_sign_convention, least_eigvecs, row_norms, solve_cubic_real
from robustfit.ransac import draw_minimal_sample, sample_stream_digest, truncated_quadratic_score
from robustfit.subspace import IrlsConfig, _irls, _smoothed_norms, huber_loss

# ---------------------------------------------------------------------------
# Reference implementations (verbatim, renamed)
# ---------------------------------------------------------------------------


def reference_draw_minimal_sample(rng: np.random.Generator, n: int, sample_size: int) -> np.ndarray:
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


def reference_solve_cubic_real(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0, multiplicity collapsed.

    Degenerates gracefully to the quadratic/linear case when leading
    coefficients vanish. Three-real-root cubics use the trigonometric method,
    the single-real-root case uses Cardano with sign-stable cube roots, and
    every root gets a couple of Newton polish steps, so the residual
    |p(r)| <= 1e-9 * max(1, |r|^3 * max|c_i|) holds across random
    coefficient draws.

    Raises
    ------
    InvalidInputError : all four coefficients are zero.
    """
    coeffs = np.array([c3, c2, c1, c0], dtype=np.float64)
    if not np.all(np.isfinite(coeffs)):
        raise InvalidInputError("non-finite coefficient")
    if np.all(coeffs == 0.0):
        raise InvalidInputError("all coefficients are zero")

    if c3 == 0.0:
        roots = _solve_quadratic(c2, c1, c0)
    else:
        roots = _cubic_roots(c3, c2, c1, c0)
        roots = [_newton_polish(r, c3, c2, c1, c0) for r in roots]
    return _collapse(roots)


def _solve_quadratic(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        if b == 0.0:
            return []  # constant, nonzero by caller's check: no roots
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-b / (2.0 * a)]
    # Citardauq form: avoids cancellation when b dominates.
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b if b != 0.0 else 1.0))
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / a - r1
    return [r1, r2]


def _cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    # Normalize and depress: x = t - b/3 turns x^3 + b x^2 + c x + d
    # into t^3 + p t + q.
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d

    if p == 0.0 and q == 0.0:
        return [-shift]

    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        # One real root (Cardano, sign-stable).
        sq = np.sqrt(disc)
        u = np.cbrt(-q / 2.0 + sq)
        v = np.cbrt(-q / 2.0 - sq)
        return [u + v - shift]
    if disc == 0.0:
        # Repeated roots: one single, one double.
        u = np.cbrt(-q / 2.0)
        return [2.0 * u - shift, -u - shift]
    # Three distinct real roots: trigonometric method (p < 0 here).
    m = 2.0 * np.sqrt(-p / 3.0)
    arg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
    theta = np.arccos(arg) / 3.0
    return [m * np.cos(theta - 2.0 * np.pi * i / 3.0) - shift for i in range(3)]


def _eval_poly(r: float, c3: float, c2: float, c1: float, c0: float) -> float:
    return ((c3 * r + c2) * r + c1) * r + c0


def _newton_polish(r: float, c3: float, c2: float, c1: float, c0: float) -> float:
    for _ in range(2):
        f = _eval_poly(r, c3, c2, c1, c0)
        df = (3.0 * c3 * r + 2.0 * c2) * r + c1
        if df == 0.0:
            break
        step = f / df
        if not np.isfinite(step):
            break
        cand = r - step
        if abs(_eval_poly(cand, c3, c2, c1, c0)) >= abs(f):
            break
        r = cand
    return float(r)


def _collapse(roots: list[float]) -> list[float]:
    """Merge roots that coincide up to floating-point noise."""
    out: list[float] = []
    for r in sorted(float(x) + 0.0 for x in roots):
        if not out or abs(r - out[-1]) > 1e-7 * max(1.0, abs(r)):
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

DRAW_SHAPES = [(5, 5), (7, 7), (160, 4), (300, 7), (10_000, 4), (2**33, 4)]


@pytest.mark.parametrize("n, s", DRAW_SHAPES)
@pytest.mark.parametrize("count", [1, 2, 37])
def test_batched_draws_equal_per_draw_reference(n, s, count):
    """Same samples, same generator state after them, same next draw."""
    for seed in range(25):
        mine = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        got = draw_minimal_sample(mine, n, s, count)
        want = np.stack([reference_draw_minimal_sample(ref, n, s) for _ in range(count)])
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert mine.bit_generator.state == ref.bit_generator.state
        assert draw_minimal_sample(mine, n, s, 1)[0].tobytes() == \
            reference_draw_minimal_sample(ref, n, s).tobytes()


def test_stream_digest_equals_per_draw_reference():
    """Across the digest's chunk boundary, the digest is the one of the
    per-draw samples."""
    count = 2**14 + 3
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    digest = hashlib.sha256()
    for _ in range(count):
        digest.update(reference_draw_minimal_sample(rng, 300, 7).astype("<u4").tobytes())
    assert sample_stream_digest(5, 300, 7, count) == digest.hexdigest()


# ---------------------------------------------------------------------------
# Cubic roots
# ---------------------------------------------------------------------------


def _outcome(fn, row):
    try:
        return np.array(fn(*row), dtype=np.float64).tobytes()
    except InvalidInputError:
        return "raised"


def _assert_matches_reference(rows: np.ndarray) -> None:
    """Equal root bytes on float and float64 input. The one allowed
    difference: where the reference's depressed cubic overflowed it returned
    only non-finite roots, which give no candidate; the solver raises there."""
    for row in rows:
        with np.errstate(all="ignore"):
            want = _outcome(reference_solve_cubic_real, row)
        got = _outcome(solve_cubic_real, row.tolist())
        assert _outcome(solve_cubic_real, row) == got
        if got == "raised" and want != "raised":
            assert not np.any(np.isfinite(np.frombuffer(want))), row
        else:
            assert got == want, row


def _cubic_rows(seed: int) -> np.ndarray:
    """Seeded coefficient rows with magnitudes 1e-6..1e6: random rows (one
    or three real roots), rows built from three real roots, and random rows
    with some coefficients zeroed."""
    rng = np.random.default_rng(seed)

    def mags(*shape):
        return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)

    free = mags(8_000, 4)
    roots = rng.choice([-1.0, 1.0], size=(8_000, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (8_000, 3))
    lead = mags(8_000)
    built = lead[:, None] * np.stack([
        np.ones(8_000),
        -roots.sum(axis=1),
        roots[:, 0] * roots[:, 1] + roots[:, 0] * roots[:, 2] + roots[:, 1] * roots[:, 2],
        -roots.prod(axis=1),
    ], axis=1)
    sparse = mags(4_000, 4) * (rng.uniform(size=(4_000, 4)) > 0.3)
    return np.concatenate([free, built, sparse])


def test_cubic_equals_reference_on_seeded_rows():
    rows = _cubic_rows(20261018)
    assert len(rows) >= 20_000
    _assert_matches_reference(rows)


EDGE_ROWS = [
    (0.0, 1.0, 0.0, -4.0),  # c3 = 0: quadratic
    (0.0, 2.0, 4.0, 2.0),  # quadratic, double root
    (0.0, 1.0, 0.0, 4.0),  # quadratic, no real root
    (0.0, 0.0, 2.0, -5.0),  # linear
    (0.0, 0.0, 0.0, 3.0),  # nonzero constant
    (1.0, -3.0, 3.0, -1.0),  # triple root
    (1.0, 0.0, 0.0, 0.0),  # triple root at 0
    (1.0, -4.0, 5.0, -2.0),  # double root: (x - 1)^2 (x - 2)
    (2.0, -8.0, 10.0, -4.0),
    (1.0, -6.0, 11.0, -6.0),  # three roots
    (-0.0, 0.0, -0.0, 0.0),  # all zero
    (0.0, 0.0, 0.0, 0.0),
    (math.nan, 1.0, 1.0, 1.0),
    (1.0, math.inf, 1.0, 1.0),
    (1.0, 1.0, -math.inf, 1.0),
    (1.0, 1.0, 1.0, math.nan),
    (1e-300, 1.0, 1.0, 1.0),  # the depressed cubic overflows
    (1e-300, -1.0, 1.0, -1.0),
    (1e-200, 1.0, 1.0, 1.0),
    (1e-60, 1.0, 1.0, 1.0),  # finite p and q, overflowing discriminant
    (1e-60, -1.0, -1.0, 1.0),
    (1e-40, 1.0, 1e-30, 1.0),
    (1e-120, 1e-60, 1.0, 1e300),
    (5e-324, 5e-324, 5e-324, 5e-324),
    (1e300, 1e300, 1e300, 1e300),
    (1.0, 1e-200, -1e-200, 1e-300),
]


def test_cubic_equals_reference_on_edge_rows():
    _assert_matches_reference(np.array(EDGE_ROWS))


# ---------------------------------------------------------------------------
# Row-wise kernels (verbatim, renamed)
# ---------------------------------------------------------------------------


def reference_transfer(h: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    # Works on (K, n) coordinate planes: the same operations as dehomogenize
    # and a norm over the last axis of (K, n, 2), at a fraction of the cost.
    mapped = h1 @ np.swapaxes(h, 1, 2)
    w = mapped[..., 2]
    safe = np.abs(w) >= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(safe, w, 1.0)
        px = np.where(safe, mapped[..., 0] / w, np.inf)
        py = np.where(safe, mapped[..., 1] / w, np.inf)
        dx = px - h2[:, 0]
        dy = py - h2[:, 1]
        return np.where(np.isfinite(px) & np.isfinite(py), np.sqrt(dx * dx + dy * dy), np.inf)


def reference_smoothed_abs(r: np.ndarray, delta: float) -> np.ndarray:
    """Huber-style smoothing of |r|: r^2/(2 delta) + delta/2 inside |r| <= delta."""
    r = np.abs(r)
    return np.where(r <= delta, r * r / (2.0 * delta) + delta / 2.0, r)


def reference_truncated_quadratic_score(residuals: np.ndarray, epsilon: float) -> float | np.ndarray:
    """Consensus score sum_i max(0, 1 - (r_i/eps)^2); inf residuals add 0.

    (n,) residuals give a float, (K, n) rows a (K,) array.
    """
    r = np.asarray(residuals, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        gain = 1.0 - np.square(r / epsilon)
    total = np.sum(np.maximum(0.0, np.where(np.isfinite(gain), gain, 0.0)), axis=-1)
    return float(total) if r.ndim == 1 else total


def reference_homographic_embeddings(x1h: np.ndarray, x2h: np.ndarray, unit: bool = True) -> np.ndarray:
    """Two linear forms per correspondence that vanish on vec(H) iff x2 ~ H x1.

    They are rows 1 and 2 of the cross-product constraint x2 x (H x1) = 0,
    rewritten in vec(H): psi_j = kron(x1, row_j([x2]_x)).

    Returns (n, 9, 2) blocks, columns unit-normalized unless ``unit=False``.
    """
    x1h = np.atleast_2d(x1h)
    x2h = np.atleast_2d(x2h)
    n = x1h.shape[0]
    a, b, c = x2h[:, 0], x2h[:, 1], x2h[:, 2]
    zeros = np.zeros(n)
    # First two rows of the cross-product matrix of x2.
    r1 = np.stack([zeros, -c, b], axis=1)
    r2 = np.stack([c, zeros, -a], axis=1)
    psi1 = (x1h[:, :, None] * r1[:, None, :]).reshape(n, 9)
    psi2 = (x1h[:, :, None] * r2[:, None, :]).reshape(n, 9)
    blocks = np.stack([psi1, psi2], axis=2)
    if unit:
        norms = np.linalg.norm(blocks, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise InvalidInputError("zero homographic embedding")
        blocks = blocks / norms
    return blocks


def reference_hartley_normalize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity transform taking points to zero centroid, mean distance sqrt(2).

    Parameters
    ----------
    points : (n, 2) pixel coordinates, n >= 2 with at least 2 distinct points.

    Returns
    -------
    (T, hpoints) where T is the (3, 3) upper-triangular transform and
    hpoints is the (n, 3) array of transformed homogeneous points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] < 2 or points.shape[1] != 2:
        raise InvalidInputError(f"expected (n>=2, 2) points, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points contain non-finite coordinates")

    centroid = points.mean(axis=0)
    dists = np.linalg.norm(points - centroid, axis=1)
    mean_dist = dists.mean()
    if mean_dist <= 0.0:
        raise DegenerateInputError("all points identical: normalization scale undefined")

    s = np.sqrt(2.0) / mean_dist
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return T, homogeneous(points) @ T.T


def reference_irls(data: np.ndarray, codim: int, cfg: IrlsConfig, trace: list | None,
                   c_huber: float | None = None) -> np.ndarray:
    """The IRLS loop behind every solver: a robust (d, codim) nullspace basis.

    ``data`` is (d, n) columns or (n, d, m) blocks; the residual of
    correspondence i is ||B^T Y_i||_F over its m constraint rows. Weights and
    objective are DPCP's (inverse residual with a floor, smoothed |r|) or,
    given ``c_huber``, Huber's. The weighted covariance sum_i w_i Y_i Y_i^T is
    one gemm on the stacked rows, which keeps the per-iteration reduction
    order fixed (bit-reproducible) and fast; all ``codim`` directions are
    updated jointly, so B stays orthonormal.
    """
    rows, m = constraint_rows(data)
    rows = np.ascontiguousarray(rows)
    n_rows, d = rows.shape
    if not 1 <= codim < d:
        raise InvalidInputError(f"codimension {codim} out of range for d={d}")
    if n_rows < d - codim:
        raise InsufficientDataError(f"need at least d-c={d - codim} constraints, got {n_rows}")
    delta = cfg.weight_floor

    def weights(r: np.ndarray) -> np.ndarray:
        if c_huber is None:
            return 1.0 / np.maximum(r, delta)
        return np.where(r <= c_huber, 1.0, c_huber / np.maximum(r, c_huber))

    def objective(basis: np.ndarray) -> tuple[np.ndarray, float]:
        r = np.linalg.norm((rows @ basis).reshape(-1, m * codim), axis=1)
        loss = reference_smoothed_abs(r, delta) if c_huber is None else huber_loss(r, c_huber)
        return r, float(np.sum(loss))

    # Only this first update validates (a NaN or inf in the data reaches
    # rows^T rows); the reweighted ones are a bare eigh on the same rows.
    basis = least_eigvecs(rows.T @ rows, codim)
    resid, obj = objective(basis)
    if trace is not None:
        trace.append(obj)
    for _ in range(cfg.tau_max):
        w_rows = np.repeat(weights(resid), m)
        _, vecs = np.linalg.eigh((rows * w_rows[:, None]).T @ rows)
        basis = apply_sign_convention(np.ascontiguousarray(vecs[:, :codim]))
        resid, new_obj = objective(basis)
        if trace is not None:
            trace.append(new_obj)
        if obj - new_obj < cfg.tol:
            break
        obj = new_obj
    return basis


# ---------------------------------------------------------------------------
# Scoring: transfer residuals and the truncated quadratic score
# ---------------------------------------------------------------------------


def _bytes(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _homographies(rng: np.random.Generator, k: int) -> np.ndarray:
    """(k, 3, 3) pixel-space homographies near the identity, alternately in
    row-major and column-major (``unvec_model``) layout."""
    h = np.eye(3) + 0.1 * rng.standard_normal((k, 3, 3))
    h[:, :2, 2] *= 1000.0
    h[:, 2, :2] *= 1e-3
    if rng.integers(2):
        h = np.swapaxes(np.ascontiguousarray(np.swapaxes(h, 1, 2)), 1, 2)
    return h


def _lifted(rng: np.random.Generator, n: int) -> np.ndarray:
    return homogeneous(rng.uniform(-200.0, 1200.0, (n, 2))) if n else np.empty((0, 3))


TRANSFER_KERNELS = [(transfer_error, reference_transfer)]


# The points in the row-major layout the references were recorded on, and in
# the column-major one that ProblemSetup holds for homographies.
POINT_LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


@pytest.mark.parametrize("kernel, reference", TRANSFER_KERNELS, ids=["forward"])
@pytest.mark.parametrize("k", [1, 3, 54])
@pytest.mark.parametrize("n", [0, 1, 7, 300, 10_000])
def test_transfer_equals_reference_on_seeded_stacks(kernel, reference, k, n):
    rng = np.random.default_rng(1000 * k + n)
    for _ in range(3 if n < 10_000 else 1):
        h, h1, h2 = _homographies(rng, k), _lifted(rng, n), _lifted(rng, n)
        want = _bytes(reference(h, h1, h2))
        for layout in POINT_LAYOUTS:
            got = kernel(h, layout(h1), layout(h2))
            assert _bytes(got) == want, layout.__name__
            assert not np.isnan(got).any()


def _edge_stacks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Models whose third row is (1, 0, 0), so w is the point's x, on points
    with x = 0, +-1e-13, +-1e-12 and 1e305; a NaN entry; a zero third row; a
    1e300-scaled model; a singular one; and one ordinary model."""
    rng = np.random.default_rng(7)
    x = np.array([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, 1e305, -1e305, 3.0, 250.0])
    y = np.array([1.0, 2.0, -5.0, 1e305, 7.0, 0.0, 1.0, 4.0, 1e-13, 80.0])
    h1 = homogeneous(np.stack([x, y], axis=1))
    h2 = homogeneous(rng.uniform(-10.0, 10.0, (len(x), 2)))
    h2[3] = [1e305, -1e305, 1.0]
    h = np.repeat(np.eye(3)[None], 7, axis=0)
    h[0, 2] = [1.0, 0.0, 0.0]
    h[1, 2] = [1.0, 0.5, 0.0]
    h[2, 0, 1] = np.nan
    h[3, 2] = 0.0
    h[4] *= 1e300
    h[5, 1] = h[5, 0]  # singular
    h[6] += 0.01 * rng.standard_normal((3, 3))
    return h, h1, h2


@pytest.mark.parametrize("kernel, reference", TRANSFER_KERNELS, ids=["forward"])
def test_transfer_equals_reference_on_edge_rows(kernel, reference):
    h, h1, h2 = _edge_stacks()
    with np.errstate(all="ignore"):  # overflowing products
        want = reference(h, h1, h2)
    for layout in POINT_LAYOUTS:
        p1, p2 = layout(h1), layout(h2)
        with np.errstate(all="ignore"):
            got = kernel(h, p1, p2)
            rows = [(kernel(h[k], p1, p2), kernel(h[k:k + 1], p1, p2)) for k in range(len(h))]
        assert _bytes(got) == _bytes(want), layout.__name__
        assert np.isinf(got).any() and not np.isnan(got).any()
        for k, (alone, stacked) in enumerate(rows):  # one model at a time gives the stack's rows
            assert _bytes(alone) == _bytes(got[k])
            assert _bytes(stacked) == _bytes(got[k:k + 1])


def _residual_rows(rng: np.random.Generator, k: int, n: int, epsilon: float) -> np.ndarray:
    """Residuals mostly in [0, 3 eps], some exactly 0 or eps, some inf, NaN
    or with r / eps above 1e154."""
    r = epsilon * rng.uniform(0.0, 3.0, (k, n))
    pick = rng.integers(0, 12, (k, n))
    r[pick == 0] = 0.0
    r[pick == 1] = epsilon
    r[pick == 2] = np.inf
    r[pick == 3] = np.nan
    r[pick == 4] = epsilon * 10.0 ** rng.uniform(154.5, 300.0, np.count_nonzero(pick == 4))
    return r


@pytest.mark.parametrize("epsilon", [3.0, 0.5, 1e-3])
@pytest.mark.parametrize("k", [1, 3, 54])
@pytest.mark.parametrize("n", [0, 1, 7, 300, 10_000])
def test_truncated_score_equals_reference(epsilon, k, n):
    rng = np.random.default_rng(int(1e6 * epsilon) + 100 * k + n)
    r = _residual_rows(rng, k, n, epsilon)
    with np.errstate(all="ignore"):
        want = reference_truncated_quadratic_score(r, epsilon)
    assert _bytes(truncated_quadratic_score(r, epsilon)) == _bytes(want)
    for row in r:
        with np.errstate(all="ignore"):
            want = reference_truncated_quadratic_score(row, epsilon)
        got = truncated_quadratic_score(row, epsilon)
        assert type(got) is float and got.hex() == want.hex()


# ---------------------------------------------------------------------------
# Set-up: Hartley normalization and homographic embeddings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 7, 300, 10_000])
def test_hartley_equals_reference(n):
    rng = np.random.default_rng(n)
    for scale, offset in ((1.0, 0.0), (640.0, 320.0), (1e-6, 1e6), (1e150, 0.0)):
        points = offset + scale * rng.standard_normal((n, 2))
        with np.errstate(all="ignore"):
            want = reference_hartley_normalize(points)
            got = hartley_normalize(points)
        assert [_bytes(a) for a in got] == [_bytes(a) for a in want]


@pytest.mark.parametrize("unit", [True, False])
@pytest.mark.parametrize("n", [0, 1, 7, 300, 10_000])
def test_homographic_embeddings_equal_reference(n, unit):
    rng = np.random.default_rng(n)
    for lift in (_lifted, lambda rng, n: hartley_normalize(rng.uniform(0, 640, (max(n, 2), 2)))[1][:n]):
        x1h, x2h = lift(rng, n), lift(rng, n)
        if n:
            x1h[0, :2] = [-0.0, -3.0]  # a signed zero and negative coordinates
            x2h[-1, :2] = [0.0, -1e-300]
        got = homographic_embeddings(x1h, x2h, unit=unit)
        assert got.shape == (n, 9, 2)
        assert _bytes(got) == _bytes(reference_homographic_embeddings(x1h, x2h, unit=unit))
        assert _bytes(constraint_rows(got)[0]) == \
            _bytes(constraint_rows(reference_homographic_embeddings(x1h, x2h, unit=unit))[0])


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_homographic_embeddings_equal_reference_on_other_dtypes(dtype):
    """Integer and float32 points multiply in float64, as the reference's
    type promotion does; int64 products of large coordinates would round or
    wrap differently."""
    rng = np.random.default_rng(5)
    big = 2.0**40 if dtype is np.int64 else 1e3
    x1h, x2h = (np.hstack([rng.uniform(-big, big, (50, 2)), np.ones((50, 1))]).astype(dtype)
                for _ in range(2))
    for unit in (True, False):
        assert _bytes(homographic_embeddings(x1h, x2h, unit=unit)) == \
            _bytes(reference_homographic_embeddings(x1h, x2h, unit=unit))


def test_homographic_embeddings_zero_block_raises_as_reference():
    x1h = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
    x2h = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 1.0]])
    for embed in (homographic_embeddings, reference_homographic_embeddings):
        with pytest.raises(InvalidInputError):
            embed(x1h, x2h)


@pytest.mark.parametrize("width", range(1, 8))
def test_row_norms_equal_linalg_norm_below_eight_entries(width):
    rng = np.random.default_rng(width)
    a = rng.standard_normal((5000, width)) * 10.0 ** rng.uniform(-150.0, 150.0, (5000, width))
    with np.errstate(all="ignore"):
        assert _bytes(row_norms(a)) == _bytes(np.linalg.norm(a, axis=1))


# ---------------------------------------------------------------------------
# IRLS
# ---------------------------------------------------------------------------


def _scene_embeddings(rng: np.random.Generator, n: int, outliers: int):
    """Hartley-normalized points of n correspondences under one homography,
    0.5 px noise, the first ``outliers`` replaced by uniform points."""
    x1 = rng.uniform(0.0, 640.0, (n, 2))
    h = np.array([[1.02, 0.05, 12.0], [-0.03, 0.98, -7.0], [2e-5, -1e-5, 1.0]])
    mapped = homogeneous(x1) @ h.T
    x2 = mapped[:, :2] / mapped[:, 2:] + rng.normal(0.0, 0.5, (n, 2))
    x2[:outliers] = rng.uniform(0.0, 640.0, (outliers, 2))
    return hartley_normalize(x1)[1], hartley_normalize(x2)[1]


def _irls_inputs() -> dict[str, np.ndarray]:
    """Seeded (9, n) epipolar columns and (n, 9, 2) homographic blocks with
    about 30 % gross outliers, a (9, 2000) random matrix, and the
    homographic blocks of a wide scene: 6 000 correspondences, half of them
    outliers, as the large-n benchmark refits."""
    rng = np.random.default_rng(11)
    x1n, x2n = _scene_embeddings(rng, 3000, 900)
    return {
        "blocks": homographic_embeddings(x1n, x2n),
        "columns": epipolar_embeddings(x1n, x2n),
        "random": rng.standard_normal((9, 2000)),
        "wide-blocks": homographic_embeddings(*_scene_embeddings(rng, 6000, 3000)),
    }


@pytest.mark.parametrize("delta", [1e-9, 0.5])
def test_objective_smoothing_equals_smoothed_abs_on_norms(delta):
    """The objective's smoothing of row norms gives ``reference_smoothed_abs``'s bytes,
    with entries below, at and above ``delta``, zeros, inf and NaN."""
    rng = np.random.default_rng(3)
    r = delta * 10.0 ** rng.uniform(-3.0, 3.0, 5000)
    r[:6] = [0.0, delta, np.nextafter(delta, 0.0), np.nextafter(delta, 1.0), np.inf, np.nan]
    for norms in (r, r[r > delta], r[:0]):
        assert _bytes(_smoothed_norms(norms, delta)) == _bytes(reference_smoothed_abs(norms, delta))


IRLS_CASES = [
    ("blocks", 1, None), ("blocks", 1, 0.01), ("blocks", 2, None), ("blocks", 3, None),
    ("columns", 1, None), ("columns", 1, 0.01), ("columns", 3, None),
    ("random", 1, None), ("random", 2, 0.5), ("random", 5, None), ("random", 7, None),
    ("wide-blocks", 1, None),
]


@pytest.mark.parametrize("layout, codim, c_huber", IRLS_CASES)
def test_irls_equals_reference(layout, codim, c_huber):
    """Same basis bytes and the same objective trace, so the same iteration
    count, for the sign-once loop with entry-order row norms."""
    data = _irls_inputs()[layout]
    for cfg in (IrlsConfig(), IrlsConfig(tau_max=3), IrlsConfig(tol=1e-12)):
        want_trace: list[float] = []
        got_trace: list[float] = []
        want = reference_irls(data, codim, cfg, want_trace, c_huber)
        got = _irls(data, codim, cfg, got_trace, c_huber)
        assert _bytes(got) == _bytes(want)
        assert [t.hex() for t in got_trace] == [t.hex() for t in want_trace]
        assert len(want_trace) > 2
