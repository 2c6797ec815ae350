"""Minimal solvers (7-point fundamental, 4-point homography) and the DLT refit.

All solvers expect Hartley-normalized coordinates for conditioning; callers
denormalize the results. Rank decisions use a scale-free singular-value gap:
sigma_{k+1} < 1e-8 * sigma_1 marks the rank boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientDataError, InvalidInputError
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    constraint_rows,
    epipolar_embeddings,
    frobenius_norms,
    homographic_embeddings,
    normalize_model,
    unvec_model,
    vec_model,
)
from .linalg import least_singular_vector, solve_cubic_real

_RANK_GAP = 1e-8

# Points in one minimal sample, per problem.
SAMPLE_SIZE = {FUNDAMENTAL: 7, HOMOGRAPHY: 4}


@dataclass(frozen=True)
class Candidates:
    """Models solved from a (B, s) stack of minimal samples, in sample order."""

    models: ModelMatrix  # (K, 3, 3) stack
    sample: np.ndarray  # (K,) index of the sample each model came from

    def __len__(self) -> int:
        return len(self.sample)


def _stacked(x1h: np.ndarray, x2h: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    size = SAMPLE_SIZE[kind]
    x1s, x2s = (np.asarray(x, dtype=np.float64) for x in (x1h, x2h))
    if x1s.shape[1:] != (size, 3) or x2s.shape != x1s.shape:
        raise InvalidInputError(
            f"the {size}-point solver needs two (B, {size}, 3) stacks, got {x1s.shape} and {x2s.shape}"
        )
    return x1s, x2s


def fundamental_7pt(x1h: np.ndarray, x2h: np.ndarray) -> Candidates:
    """7-point fundamental-matrix solver on (B, 7, 3) stacks of normalized
    homogeneous points (third coordinate 1).

    A sample whose constraint matrix has a 2-dimensional nullspace {F1, F2}
    yields one unit-Frobenius rank-2 candidate per real root of the cubic
    det(a*F1 + (1-a)*F2) = 0. A degenerate sample adds no candidates.
    """
    x1s, x2s = _stacked(x1h, x2h, FUNDAMENTAL)
    b = x1s.shape[0]
    a = epipolar_embeddings(x1s.reshape(-1, 3), x2s.reshape(-1, 3)).T.reshape(b, 7, 9)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    full_rank = ~(s[:, 6] < _RANK_GAP * s[:, 0])

    f1 = vt[:, 7]
    f2 = vt[:, 8]
    m1 = unvec_model(f1)
    m2 = unvec_model(f2)

    # det(a*F1 + (1-a)*F2) is cubic in a; recover its coefficients by
    # interpolation at a = 0, 1, -1, 2 (exact for a cubic).
    d0 = np.linalg.det(m2)
    d1 = np.linalg.det(m1)
    dm1 = np.linalg.det(-m1 + 2.0 * m2)
    d2 = np.linalg.det(2.0 * m1 - m2)
    c0 = d0
    c2 = 0.5 * (d1 + dm1) - d0
    c3 = (d2 - 4.0 * c2 - c0 - d1 + dm1) / 6.0
    c1 = 0.5 * (d1 - dm1) - c3

    # The roots stay one cubic per sample, on Python floats; a failing cubic
    # marks its sample degenerate.
    coeffs = np.stack([c3, c2, c1, c0], axis=1).tolist()
    owners: list[int] = []
    alphas: list[float] = []
    for j in np.flatnonzero(full_rank).tolist():
        try:
            roots = solve_cubic_real(*coeffs[j])
        except Exception:
            continue
        owners.extend([j] * len(roots))
        alphas.extend(roots)
    owner = np.array(owners, dtype=np.int64)
    alpha = np.array(alphas, dtype=np.float64)[:, None]
    f = alpha * f1[owner] + (1.0 - alpha) * f2[owner]
    keep = ~(frobenius_norms(unvec_model(f)) < 1e-12)
    owner = owner[keep]
    models = normalize_model(unvec_model(f[keep]), FUNDAMENTAL).m
    rank2 = np.abs(np.linalg.det(models)) <= 1e-9
    return Candidates(ModelMatrix(unvec_model(vec_model(models)[rank2]), FUNDAMENTAL),
                      owner[rank2])


# The four ways to pick 3 of a sample's 4 points.
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def homography_4pt(x1h: np.ndarray, x2h: np.ndarray) -> Candidates:
    """4-point homography solver (DLT on the 8 stacked constraint rows) on
    (B, 4, 3) stacks of normalized homogeneous points.

    A sample is degenerate with 3 collinear points in either view (the
    solution is not unique there even when the 8x9 system keeps rank 8) or
    any other rank deficiency. A degenerate sample adds no candidates.
    """
    x1s, x2s = _stacked(x1h, x2h, HOMOGRAPHY)
    b = x1s.shape[0]
    collinear = np.zeros(b, dtype=bool)
    for xs in (x1s, x2s):
        collinear |= np.any(np.abs(np.linalg.det(xs[:, _TRIPLES])) < 1e-9, axis=1)
    sample = np.flatnonzero(~collinear)
    blocks = homographic_embeddings(x1s[sample].reshape(-1, 3), x2s[sample].reshape(-1, 3))
    a, _ = constraint_rows(blocks)  # (8 * len(sample), 9)
    _, s, vt = np.linalg.svd(a.reshape(-1, 8, 9), full_matrices=True)
    full_rank = ~(s[:, 7] < _RANK_GAP * s[:, 0])
    models = normalize_model(unvec_model(vt[full_rank, 8]), HOMOGRAPHY)
    return Candidates(models, sample[full_rank])


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
