"""Minimal solvers (7-point fundamental, 4-point homography) and the DLT refit.

All solvers expect Hartley-normalized coordinates for conditioning; callers
denormalize the results. Rank decisions use a scale-free singular-value gap:
sigma_{k+1} < 1e-8 * sigma_1 marks the rank boundary.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateSampleError, InsufficientDataError, InvalidInputError
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    constraint_rows,
    epipolar_embeddings,
    homographic_embeddings,
    normalize_model,
    unvec_model,
)
from .linalg import least_singular_vector, solve_cubic_real

_RANK_GAP = 1e-8

FUNDAMENTAL_SAMPLE_SIZE = 7
HOMOGRAPHY_SAMPLE_SIZE = 4


def fundamental_7pt(x1h: np.ndarray, x2h: np.ndarray) -> list[ModelMatrix]:
    """7-point fundamental-matrix solver.

    Parameters
    ----------
    x1h, x2h : (7, 3) homogeneous points (third coordinate 1), normalized.

    Returns
    -------
    1 to 3 unit-Frobenius rank-2 candidates. The stacked constraint matrix
    must have a 2-dimensional nullspace {F1, F2}; each real root of the cubic
    det(a*F1 + (1-a)*F2) = 0 yields one candidate.

    Raises
    ------
    DegenerateSampleError : rank-deficient sample (caller should resample).
    """
    if x1h.shape[0] != 7 or x2h.shape[0] != 7:
        raise InvalidInputError("the 7-point solver needs exactly 7 correspondences")
    a = epipolar_embeddings(x1h, x2h).T  # (7, 9)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    if s[6] < _RANK_GAP * s[0]:
        raise DegenerateSampleError("7-point sample is rank-deficient")

    f1 = unvec_model(vt[7])
    f2 = unvec_model(vt[8])

    # det(a*F1 + (1-a)*F2) is cubic in a; recover its coefficients by
    # interpolation at a = 0, 1, -1, 2 (exact for a cubic).
    d0 = np.linalg.det(f2)
    d1 = np.linalg.det(f1)
    dm1 = np.linalg.det(-f1 + 2.0 * f2)
    d2 = np.linalg.det(2.0 * f1 - f2)
    c0 = d0
    c2 = 0.5 * (d1 + dm1) - d0
    c3 = (d2 - 4.0 * c2 - c0 - d1 + dm1) / 6.0
    c1 = 0.5 * (d1 - dm1) - c3

    try:
        alphas = solve_cubic_real(c3, c2, c1, c0)
    except Exception as exc:
        raise DegenerateSampleError("degenerate determinant polynomial") from exc
    if not alphas:
        raise DegenerateSampleError("determinant polynomial has no real roots")

    candidates = []
    for alpha in alphas:
        f = alpha * f1 + (1.0 - alpha) * f2
        norm = np.linalg.norm(f)
        if norm < 1e-12:
            continue
        model = normalize_model(f, FUNDAMENTAL)
        if abs(np.linalg.det(model.m)) <= 1e-9:
            candidates.append(model)
    if not candidates:
        raise DegenerateSampleError("no rank-2 candidate from the cubic roots")
    return candidates


def _has_collinear_triple(xh: np.ndarray) -> bool:
    """True when any 3 of the 4 homogeneous points are (near-)collinear."""
    for i in range(2):
        for j in range(i + 1, 3):
            for k in range(j + 1, 4):
                if abs(np.linalg.det(xh[[i, j, k]])) < 1e-9:
                    return True
    return False


def homography_4pt(x1h: np.ndarray, x2h: np.ndarray) -> ModelMatrix:
    """4-point homography solver (DLT on the 8 stacked constraint rows).

    Raises DegenerateSampleError for 3 collinear points in either view (the
    solution is not unique there even when the 8x9 system keeps rank 8) and
    for any other rank-deficient sample.
    """
    if x1h.shape[0] != 4 or x2h.shape[0] != 4:
        raise InvalidInputError("the 4-point solver needs exactly 4 correspondences")
    if _has_collinear_triple(x1h) or _has_collinear_triple(x2h):
        raise DegenerateSampleError("3 collinear points in one view")
    a, _ = constraint_rows(homographic_embeddings(x1h, x2h))  # (8, 9)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    if s[7] < _RANK_GAP * s[0]:
        raise DegenerateSampleError("4-point sample is rank-deficient")
    return normalize_model(unvec_model(vt[8]), HOMOGRAPHY)


def dlt_refit(blocks: np.ndarray) -> np.ndarray:
    """Plain DLT: least singular vector of the stacked constraint rows.

    ``blocks`` is (9, n) columns or (n, 9, m) blocks. Needs at least 8 rows.
    """
    rows, _ = constraint_rows(blocks)
    if rows.shape[0] < 8:
        raise InsufficientDataError(f"DLT refit needs >= 8 constraint rows, got {rows.shape[0]}")
    return least_singular_vector(rows)


def rank2_project(model: ModelMatrix) -> ModelMatrix:
    """Nearest rank-2 matrix in Frobenius norm (zero the smallest singular value)."""
    u, s, vt = np.linalg.svd(model.m)
    s[2] = 0.0
    return normalize_model(u @ np.diag(s) @ vt, model.kind)
