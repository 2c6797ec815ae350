"""Coordinate normalization, constraint embeddings and their rows, residuals.

Conventions used throughout the package
---------------------------------------
* ``vec`` is column-major: ``vec(M) = M.flatten(order="F")``, so the epipolar
  constraint reads literally ``kron(x, x2) . vec(F) = x2^T F x``.
* Model matrices are stored with unit Frobenius norm and the sign fixed so
  that the largest-magnitude entry of ``vec(M)`` is non-negative.
* Model fitting happens in Hartley-normalized coordinates; residuals for
  scoring and inlier classification are evaluated in pixel coordinates on
  the denormalized model, so thresholds in pixels are meaningful.
* Degenerate residuals return ``inf`` (never NaN) so comparisons stay total.
* Models, the normalization and the residuals also take (K, 3, 3) stacks, so
  a batch of hypotheses is denormalized and scored in one call. A stack gives
  each model the bits it gets alone: every reduction keeps the per-model
  element order and memory layout of the single case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, InvalidInputError
from .linalg import apply_sign_convention, row_norms

FUNDAMENTAL = "fundamental"
HOMOGRAPHY = "homography"
FAR_W = 1e-12  # the far-point rule: a lifted point with |w| below this maps to inf

@dataclass(frozen=True)
class ModelMatrix:
    """A 3x3 fundamental or homography matrix, unit Frobenius norm, or a
    (K, 3, 3) stack of them of one kind."""

    m: np.ndarray
    kind: str


def vec_model(m: np.ndarray) -> np.ndarray:
    """(3, 3) -> (9,), or (K, 3, 3) -> (K, 9) rows (a view of ``unvec_model`` output)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 2:
        return m.flatten(order="F")
    return np.swapaxes(m, 1, 2).reshape(-1, 9)


def unvec_model(v: np.ndarray) -> np.ndarray:
    """(9,) -> (3, 3), or (K, 9) rows -> (K, 3, 3); views in column-major layout."""
    v = np.asarray(v, dtype=np.float64)
    return np.swapaxes(v.reshape(v.shape[:-1] + (3, 3)), -1, -2)


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """(K,) Frobenius norms of a (K, 3, 3) stack, bit for bit as ``np.linalg.norm``
    takes each one alone: BLAS ``ddot`` over the entries in memory order.
    That order follows the layout (column-major for ``unvec_model`` views,
    row-major for products), and the last bit depends on it."""
    if stack.strides[1] < stack.strides[2]:
        stack = np.swapaxes(stack, 1, 2)
    rows = stack.reshape(-1, 9)
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def normalize_model(m: np.ndarray, kind: str) -> ModelMatrix:
    """Scale to unit Frobenius norm and apply the sign convention.

    ``m`` is one (3, 3) matrix or a (K, 3, 3) stack (then one model each).
    """
    m = np.asarray(m, dtype=np.float64)
    stack = m if m.ndim == 3 else m[None]
    norm = frobenius_norms(stack)
    if not np.all(np.isfinite(norm)) or np.any(norm == 0.0):
        raise InvalidInputError("model matrix is zero or non-finite")
    v = vec_model(stack) / norm[:, None]
    apply_sign_convention(v.T)
    return ModelMatrix(m=unvec_model(v if m.ndim == 3 else v[0]), kind=kind)


def homogeneous(points: np.ndarray) -> np.ndarray:
    """Lift (n, 2) pixel points to (n, 3) with third coordinate 1."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.hstack([points, np.ones((points.shape[0], 1))])


def dehomogenize(h: np.ndarray) -> np.ndarray:
    """(n, 3) -> (n, 2); rows with |w| below ``FAR_W`` map to inf."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    w = h[:, 2:3]
    safe = np.abs(w) >= FAR_W
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(safe, h[:, :2] / np.where(safe, w, 1.0), np.inf)
    return out


def _lift(points: np.ndarray) -> np.ndarray:
    """(n, 2) pixel points or (2,) to homogeneous (n, 3); (n, 3) passes through."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return points if points.shape[1] == 3 else homogeneous(points)


def hartley_normalize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    dists = row_norms(points - centroid)
    mean_dist = dists.mean()
    if mean_dist <= 0.0:
        raise DegenerateInputError("all points identical: normalization scale undefined")

    s = np.sqrt(2.0) / mean_dist
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return T, homogeneous(points) @ T.T


def epipolar_embeddings(x1h: np.ndarray, x2h: np.ndarray, unit: bool = True) -> np.ndarray:
    """Kronecker lift of the epipolar constraint, one column per correspondence.

    For homogeneous points with third coordinate 1, column i satisfies
    ``emb[:, i] . vec(F) == x2_i^T F x1_i`` exactly for every 3x3 F.

    Returns a (9, n) matrix; columns scaled to unit norm unless ``unit=False``.
    """
    x1h = np.atleast_2d(x1h)
    x2h = np.atleast_2d(x2h)
    # kron(x1, x2): block i of the 9-vector is x1[i] * x2.
    emb = (x1h[:, :, None] * x2h[:, None, :]).reshape(-1, 9).T
    if unit:
        norms = np.linalg.norm(emb, axis=0)
        if np.any(norms == 0.0):
            raise InvalidInputError("zero epipolar embedding")
        emb = emb / norms
    return emb


def homographic_embeddings(x1h: np.ndarray, x2h: np.ndarray, unit: bool = True) -> np.ndarray:
    """Two linear forms per correspondence that vanish on vec(H) iff x2 ~ H x1.

    They are rows 1 and 2 of the cross-product constraint x2 x (H x1) = 0,
    rewritten in vec(H): psi_j = kron(x1, row_j([x2]_x)).

    Returns (n, 9, 2) blocks, columns unit-normalized unless ``unit=False``.
    """
    x1h = np.atleast_2d(x1h)
    x2h = np.atleast_2d(x2h)
    x1 = np.ascontiguousarray(x1h.T, dtype=np.float64)
    a, b, c = np.ascontiguousarray(x2h.T, dtype=np.float64)
    # Built in one buffer of coordinate planes, n innermost: psi[r, 3 i + j]
    # = x1_i * row_r[j] for the first two rows (0, -c, b) and (c, 0, -a) of
    # the cross-product matrix of x2. The zero entries are x1_i * 0.0, which
    # is -0.0 for a negative x1_i, so they keep the sign a product gives.
    planes = np.empty((2, 3, 3, x1.shape[1]))
    for r, row in enumerate(((0.0, -c, b), (c, 0.0, -a))):
        for j, entry in enumerate(row):
            np.multiply(x1, entry, out=planes[r, :, j])
    planes = planes.reshape(2, 9, -1)
    if unit:
        # The 9 squares summed in entry order through one (2, n) temporary,
        # as a norm over axis 1 of (n, 9, 2) blocks sums them.
        norms = planes[:, 0] * planes[:, 0]
        square = np.empty_like(norms)
        for j in range(1, 9):
            norms += np.multiply(planes[:, j], planes[:, j], out=square)
        np.sqrt(norms, out=norms)
        if np.any(norms == 0.0):
            raise InvalidInputError("zero homographic embedding")
        planes /= norms[:, None, :]
    return planes.transpose(2, 1, 0)


def constraint_rows(data: np.ndarray) -> tuple[np.ndarray, int]:
    """Stack constraint embeddings into a matrix with one row per constraint.

    ``data`` is (d, n) single-constraint columns or (n, d, m) blocks of m
    constraints per correspondence. Returns the (n*m, d) rows, grouped by
    correspondence, and m. The only place that knows the row layout.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        return data.T, 1
    if data.ndim != 3:
        raise InvalidInputError(f"expected (d, n) columns or (n, d, m) blocks, got {data.shape}")
    n, d, m = data.shape
    return data.transpose(0, 2, 1).reshape(n * m, d), m


# The residuals below take one (3, 3) matrix or a (K, 3, 3) stack, and (2,)
# points, (n, 2) pixel arrays or their (n, 3) homogeneous lifts. They return
# a scalar, (n,) or (K, n) array.


def _residuals(kernel, m: np.ndarray, x1: np.ndarray, x2: np.ndarray):
    m = np.asarray(m, dtype=np.float64)
    r = kernel(m if m.ndim == 3 else m[None], _lift(x1), _lift(x2))
    if m.ndim == 3:
        return r
    return float(r[0, 0]) if np.asarray(x1).ndim == 1 else r[0]


def _sampson(f: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    fx1 = h1 @ np.swapaxes(f, 1, 2)  # rows: F @ x1_i
    ftx2 = h2 @ np.ascontiguousarray(f)  # rows: F^T @ x2_i; row-major takes the BLAS path
    num = np.abs(np.einsum("kni,ni->kn", fx1, h2))
    den = np.sqrt(fx1[..., 0] ** 2 + fx1[..., 1] ** 2 + ftx2[..., 0] ** 2 + ftx2[..., 1] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den >= 1e-15, num / np.where(den >= 1e-15, den, 1.0), np.inf)


def _transfer(h: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    # Works in place on the contiguous (K, n) rows of (K, 3, n) coordinate
    # planes: the same operations as dehomogenize and a norm over (x, y).
    # A non-finite mapped point gives inf or NaN, which fmin turns into inf.
    # On column-major points (as ProblemSetup holds them) h1.T and the
    # columns of h2 are contiguous; the bits do not depend on the layout.
    x, y, w = np.swapaxes(h @ h1.T, 0, 1)
    far = np.abs(w) < FAR_W
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x /= w
        x -= h2[:, 0]
        x *= x
        y /= w
        y -= h2[:, 1]
        y *= y
        x += y
        r = np.fmin(np.sqrt(x, out=x), np.inf)
    if far.any():
        r[far] = np.inf
    return r


def sampson_distance(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order geometric (Sampson) distance to the epipolar constraint.

    |x2^T F x1| / sqrt((Fx1)_1^2 + (Fx1)_2^2 + (F^T x2)_1^2 + (F^T x2)_2^2),
    evaluated in pixel coordinates. Denominators below 1e-15 give inf.
    """
    return _residuals(_sampson, f, x1, x2)


def transfer_error(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """One-directional transfer error ||dehom(H x1) - x2|| in pixels.

    Points mapped to infinity ((Hx)_3 below ``FAR_W`` in magnitude) give inf.
    """
    return _residuals(_transfer, h, x1, x2)


def model_residuals(model: ModelMatrix, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Pixel residuals of ``model`` (one or a stack) on correspondence arrays
    (Sampson or transfer)."""
    if model.kind == FUNDAMENTAL:
        return sampson_distance(model.m, x1, x2)
    return transfer_error(model.m, x1, x2)


def denormalize_model(t1: np.ndarray, t2: np.ndarray, mn: ModelMatrix) -> ModelMatrix:
    """Map a model fitted in normalized coordinates back to pixel coordinates.

    Fundamental: F = T2^T Fn T1; homography: H = T2^{-1} Hn T1. The result is
    re-normalized to unit Frobenius norm with the sign convention. Takes one
    model or a stack.
    """
    if abs(np.linalg.det(t1)) < 1e-15 or abs(np.linalg.det(t2)) < 1e-15:
        raise InvalidInputError("singular normalization transform")
    if mn.kind == FUNDAMENTAL:
        m = t2.T @ mn.m @ t1
    else:
        m = np.linalg.solve(t2, mn.m @ t1)
    return normalize_model(m, mn.kind)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between two vectors, ignoring sign (range [0, pi/2])."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
