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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, InvalidInputError
from .linalg import apply_sign_convention

FUNDAMENTAL = "fundamental"
HOMOGRAPHY = "homography"

@dataclass(frozen=True)
class ModelMatrix:
    """A 3x3 fundamental or homography matrix, unit Frobenius norm."""

    m: np.ndarray
    kind: str

    @property
    def vec(self) -> np.ndarray:
        """Column-major vectorization (the shared embedding convention)."""
        return self.m.flatten(order="F")


def vec_model(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=np.float64).flatten(order="F")


def unvec_model(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=np.float64).reshape(3, 3, order="F")


def normalize_model(m: np.ndarray, kind: str) -> ModelMatrix:
    """Scale to unit Frobenius norm and apply the sign convention."""
    m = np.asarray(m, dtype=np.float64)
    norm = np.linalg.norm(m)
    if not np.isfinite(norm) or norm == 0.0:
        raise InvalidInputError("model matrix is zero or non-finite")
    v = apply_sign_convention(m.flatten(order="F") / norm)
    return ModelMatrix(m=unvec_model(v), kind=kind)


def homogeneous(points: np.ndarray) -> np.ndarray:
    """Lift (n, 2) pixel points to (n, 3) with third coordinate 1."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.hstack([points, np.ones((points.shape[0], 1))])


def dehomogenize(h: np.ndarray, min_w: float = 1e-12) -> np.ndarray:
    """(n, 3) -> (n, 2); rows with |w| below ``min_w`` map to inf."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    w = h[:, 2:3]
    safe = np.abs(w) >= min_w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(safe, h[:, :2] / np.where(safe, w, 1.0), np.inf)
    return out


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
    dists = np.linalg.norm(points - centroid, axis=1)
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


def sampson_distance(f: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """First-order geometric (Sampson) distance to the epipolar constraint.

    |x2^T F x1| / sqrt((Fx1)_1^2 + (Fx1)_2^2 + (F^T x2)_1^2 + (F^T x2)_2^2),
    evaluated in pixel coordinates. Denominators below 1e-15 give inf.

    Accepts (2,) points or (n, 2) arrays; returns a scalar or (n,) array.
    """
    scalar = np.asarray(x1).ndim == 1
    h1 = homogeneous(x1)
    h2 = homogeneous(x2)
    fx1 = h1 @ f.T  # rows: F @ x1_i
    ftx2 = h2 @ f  # rows: F^T @ x2_i
    num = np.abs(np.einsum("ij,ij->i", h2, fx1))
    den = np.sqrt(fx1[:, 0] ** 2 + fx1[:, 1] ** 2 + ftx2[:, 0] ** 2 + ftx2[:, 1] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(den >= 1e-15, num / np.where(den >= 1e-15, den, 1.0), np.inf)
    return float(d[0]) if scalar else d


def transfer_error(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """One-directional transfer error ||dehom(H x1) - x2|| in pixels.

    Points mapped to infinity ((Hx)_3 below 1e-12 in magnitude) give inf.
    Accepts (2,) points or (n, 2) arrays; returns a scalar or (n,) array.
    """
    scalar = np.asarray(x1).ndim == 1
    mapped = homogeneous(x1) @ h.T
    proj = dehomogenize(mapped)
    with np.errstate(invalid="ignore"):
        diff = proj - np.atleast_2d(x2)
        err = np.where(
            np.all(np.isfinite(proj), axis=1), np.linalg.norm(diff, axis=1), np.inf
        )
    return float(err[0]) if scalar else err


def symmetric_transfer_error(h: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Two-directional transfer error: forward plus backward mapping.

    inf when the matrix is not invertible or either direction degenerates.
    """
    if abs(np.linalg.det(h)) < 1e-15:
        if np.asarray(x1).ndim == 1:
            return np.inf
        return np.full(np.atleast_2d(x1).shape[0], np.inf)
    return transfer_error(h, x1, x2) + transfer_error(np.linalg.inv(h), x2, x1)


def model_residuals(
    model: ModelMatrix, x1: np.ndarray, x2: np.ndarray, symmetric_transfer: bool = False
) -> np.ndarray:
    """Pixel residuals of ``model`` on correspondence arrays (Sampson or transfer)."""
    if model.kind == FUNDAMENTAL:
        return sampson_distance(model.m, x1, x2)
    if symmetric_transfer:
        return symmetric_transfer_error(model.m, x1, x2)
    return transfer_error(model.m, x1, x2)


def denormalize_model(t1: np.ndarray, t2: np.ndarray, mn: ModelMatrix) -> ModelMatrix:
    """Map a model fitted in normalized coordinates back to pixel coordinates.

    Fundamental: F = T2^T Fn T1; homography: H = T2^{-1} Hn T1. The result is
    re-normalized to unit Frobenius norm with the sign convention.
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
