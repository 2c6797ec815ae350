"""Robust hyperplane and nullspace solvers used by local optimization.

All solvers share one IRLS skeleton: starting from the least-singular
direction(s) of the data, they alternate reweighting (inverse residual with a
small floor, or Huber) with a weighted eigen-update, and stop once the
corresponding surrogate objective decreases by less than ``tol`` or after
``tau_max`` iterations. The reweighting is a majorize-minimize step, so each
objective is non-increasing along iterates; tests rely on that guarantee.

Every solver accepts an optional ``trace`` list that receives the objective
value at the initial point and after each update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientDataError, InvalidInputError
from .geometry import constraint_rows
from .linalg import least_eigvecs, top_eigvecs


@dataclass(frozen=True)
class IrlsConfig:
    """Shared IRLS settings.

    tau_max : iteration cap.
    tol : convergence accuracy on the objective decrease.
    weight_floor : denominator regularizer for inverse-residual weights;
        distinct from ``tol`` (the floor smooths |r| near zero, the tolerance
        stops the outer loop).
    """

    tau_max: int = 100
    tol: float = 1e-5
    weight_floor: float = 1e-9

    def __post_init__(self):
        if self.tau_max < 1 or self.tol <= 0.0 or self.weight_floor <= 0.0:
            raise InvalidInputError("tau_max >= 1, tol > 0 and weight_floor > 0 required")


def smoothed_abs(r: np.ndarray, delta: float) -> np.ndarray:
    """Huber-style smoothing of |r|: r^2/(2 delta) + delta/2 inside |r| <= delta."""
    r = np.abs(r)
    return np.where(r <= delta, r * r / (2.0 * delta) + delta / 2.0, r)


def huber_loss(r: np.ndarray, c: float) -> np.ndarray:
    r = np.abs(r)
    return np.where(r <= c, 0.5 * r * r, c * r - 0.5 * c * c)


def _as_data_matrix(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise InvalidInputError(f"expected a (d, n) data matrix, got shape {y.shape}")
    return y


def _irls(data: np.ndarray, codim: int, cfg: IrlsConfig, trace: list | None,
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
        loss = smoothed_abs(r, delta) if c_huber is None else huber_loss(r, c_huber)
        return r, float(np.sum(loss))

    basis = least_eigvecs(rows.T @ rows, codim)
    resid, obj = objective(basis)
    if trace is not None:
        trace.append(obj)
    for _ in range(cfg.tau_max):
        w_rows = np.repeat(weights(resid), m)
        basis = least_eigvecs((rows * w_rows[:, None]).T @ rows, codim)
        resid, new_obj = objective(basis)
        if trace is not None:
            trace.append(new_obj)
        if obj - new_obj < cfg.tol:
            break
        obj = new_obj
    return basis


def dpcp_irls(y: np.ndarray, cfg: IrlsConfig = IrlsConfig(), trace: list | None = None) -> np.ndarray:
    """Robust hyperplane normal minimizing the sum of |b^T y_i| on the sphere.

    Parameters
    ----------
    y : (d, n) data matrix or (n, d, 1) blocks, one (typically unit)
        embedding per correspondence, n >= d-1.
    cfg : IRLS settings.
    trace : optional list collecting the smoothed objective per iterate.

    Returns
    -------
    Unit d-vector, the fixed point of reweighted least-eigenvector iterations
    with weights 1 / max(|b^T y_i|, weight_floor), initialized at the least
    singular direction of the data.
    """
    if np.ndim(y) == 3 and np.shape(y)[2] != 1:
        raise InvalidInputError(f"expected one constraint per block, got shape {np.shape(y)}")
    return _irls(y, 1, cfg, trace)[:, 0]


def dpcp_irls_group(blocks: np.ndarray, cfg: IrlsConfig = IrlsConfig(), trace: list | None = None) -> np.ndarray:
    """Group variant: minimize the sum of ||B_i^T b||_2 over unit b.

    ``blocks`` is (n, d, m) (or (d, n) columns); for m = 1 this is exactly
    :func:`dpcp_irls` on the same columns. Used for the two-constraint
    homography blocks (and any group-structured embedding).
    """
    return _irls(blocks, 1, cfg, trace)[:, 0]


def huber_irls(
    data: np.ndarray,
    c_huber: float,
    cfg: IrlsConfig = IrlsConfig(),
    trace: list | None = None,
) -> np.ndarray:
    """Huber-loss analogue of :func:`dpcp_irls` / :func:`dpcp_irls_group`.

    ``data`` may be a (d, n) column matrix or (n, d, m) blocks. Weights are 1
    for residuals within ``c_huber`` and c_huber/|r| beyond it, so the large
    c_huber limit reproduces the plain least-singular-vector fit.
    """
    if c_huber <= 0.0:
        raise InvalidInputError("c_huber must be positive")
    return _irls(data, 1, cfg, trace, c_huber)[:, 0]


def dpcp_irls_basis(
    y: np.ndarray,
    codim: int = 3,
    cfg: IrlsConfig = IrlsConfig(),
    trace: list | None = None,
) -> np.ndarray:
    """Robust orthonormal basis of a ``codim``-dimensional nullspace.

    Minimizes the sum of ||B^T y_i||_2 over orthonormal (d, codim) B for a
    (d, n) data matrix; the same loop as :func:`dpcp_irls`, which is the
    ``codim = 1`` case.
    """
    return _irls(_as_data_matrix(y), codim, cfg, trace)


def nullspace_weights(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column distances ||B^T y_i||_2 from the data to the nullspace basis."""
    basis = np.asarray(basis, dtype=np.float64)
    y = _as_data_matrix(y)
    return np.linalg.norm(basis.T @ y, axis=0)


def weighted_principal_subspace(y: np.ndarray, weights: np.ndarray, k: int = 5) -> np.ndarray:
    """Top-k principal directions of the weighted data (descending eigenvalue).

    Eigenvectors of sum_i w_i^2 y_i y_i^T, i.e. the principal directions of
    the column-scaled matrix [w_1 y_1, ..., w_n y_n].
    """
    y = _as_data_matrix(y)
    weights = np.asarray(weights, dtype=np.float64)
    d, n = y.shape
    if n < k:
        raise InsufficientDataError(f"need at least k={k} columns, got {n}")
    if weights.shape != (n,) or np.any(weights < 0.0):
        raise InvalidInputError("weights must be one non-negative value per column")
    return top_eigvecs((y * weights**2) @ y.T, k)
