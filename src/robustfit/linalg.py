"""Small dense linear-algebra kernels: extremal eigenvectors and real cubic roots.

Everything here operates on matrices of dimension at most a few dozen, so the
LAPACK symmetric eigensolver behind ``numpy.linalg.eigh`` is both fast and
accurate; the contracts below are residual bounds, not algorithm choices.
All outputs follow one deterministic sign convention so downstream model
estimates are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import InvalidInputError

# Relative asymmetry tolerated before an input is rejected as non-symmetric.
_SYM_TOL = 1e-12


def apply_sign_convention(v: np.ndarray) -> np.ndarray:
    """Flip each column of the (d, k) matrix ``v`` (in place) so its
    largest-magnitude entry is non-negative.

    Ties are broken by the lowest index, which is what ``argmax`` returns.
    """
    cols = np.arange(v.shape[1])
    v[:, v[np.argmax(np.abs(v), axis=0), cols] < 0] *= -1.0
    return v


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, the squares summed in entry order.

    One vectorized add per entry instead of a reduction per row. For fewer
    than 8 entries (and over a non-innermost axis of any length) that is the
    order ``np.linalg.norm(..., axis=...)`` sums in, so the bits are its bits.
    """
    sq = a * a
    return np.sqrt(sum(sq[..., j] for j in range(a.shape[-1])))


def least_eigvecs(sym: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal eigenvectors of the ``k`` smallest eigenvalues of ``sym``.

    Parameters
    ----------
    sym : (d, d) symmetric real matrix.
    k : number of eigenvectors, 1 <= k <= d.

    Returns
    -------
    (d, k) array whose columns are unit eigenvectors ordered by ascending
    eigenvalue, each signed so its largest-magnitude entry is non-negative.

    Raises
    ------
    InvalidInputError : non-square, non-symmetric or non-finite input, bad k.
    """
    sym = np.asarray(sym, dtype=np.float64)
    if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {sym.shape}")
    if not np.all(np.isfinite(sym)):
        raise InvalidInputError("matrix contains non-finite entries")
    scale = np.max(np.abs(sym)) if sym.size else 0.0
    if np.max(np.abs(sym - sym.T)) > _SYM_TOL * max(scale, 1.0):
        raise InvalidInputError("matrix is not symmetric")
    if not 1 <= k <= sym.shape[0]:
        raise InvalidInputError(f"k={k} out of range for dim {sym.shape[0]}")

    _, vecs = np.linalg.eigh(sym)  # ascending eigenvalues
    return apply_sign_convention(np.ascontiguousarray(vecs[:, :k]))


def top_eigvecs(sym: np.ndarray, k: int) -> np.ndarray:
    """Like :func:`least_eigvecs` but for the ``k`` largest eigenvalues.

    Columns are ordered by descending eigenvalue, same sign convention.
    """
    sym = np.asarray(sym, dtype=np.float64)
    vecs = least_eigvecs(sym, sym.shape[0])
    return np.ascontiguousarray(vecs[:, ::-1][:, :k])


def least_singular_vector(a: np.ndarray) -> np.ndarray:
    """Unit vector ``v`` minimizing ``||A v||_2``.

    Computed as the least eigenvector of the Gram matrix A^T A, which for the
    d <= 27 problems in this package is accurate well past the contract's
    1e-10 residual bound. Same sign convention as :func:`least_eigvecs`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-d matrix, got shape {a.shape}")
    if a.shape[1] < 2:
        raise InvalidInputError("need at least 2 columns")
    # least_eigvecs rejects a non-finite Gram matrix, hence a non-finite ``a``.
    return least_eigvecs(a.T @ a, 1)[:, 0]


def solve_cubic_real(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0, multiplicity collapsed.

    Degenerates gracefully to the quadratic/linear case when leading
    coefficients vanish. Three-real-root cubics use the trigonometric method,
    the single-real-root case uses Cardano with sign-stable cube roots, and
    every root gets a couple of Newton polish steps, so the residual
    |p(r)| <= 1e-9 * max(1, |r|^3 * max|c_i|) holds across random
    coefficient draws.

    The arithmetic runs on Python floats and gives the bits numpy float64
    scalars give: IEEE operations, ``math.sqrt`` and ``math.cos`` agree with
    numpy on this kernel's inputs, while the cube root and arccos stay
    ``np.cbrt`` and ``np.arccos``, which ``math.cbrt`` and ``math.acos`` do
    not always match.

    Raises
    ------
    InvalidInputError : a non-finite coefficient, all four coefficients zero,
        or a depressed cubic t^3 + p*t + q whose p or q overflows.
    """
    c3, c2, c1, c0 = float(c3), float(c2), float(c1), float(c0)
    if not (math.isfinite(c3) and math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0)):
        raise InvalidInputError("non-finite coefficient")
    if c3 == 0.0 and c2 == 0.0 and c1 == 0.0 and c0 == 0.0:
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
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0.0 else 1.0))
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
    try:
        q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    except OverflowError:  # a float power raises where a float64 one gives inf
        q = math.inf
    if not (math.isfinite(p) and math.isfinite(q)):
        raise InvalidInputError("the depressed cubic overflows")

    if p == 0.0 and q == 0.0:
        return [-shift]

    try:
        disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    except OverflowError:
        # Finite p and q can still overflow here; float64 powers give the
        # infinities (and the roots) the float64 kernel gave.
        with np.errstate(over="ignore", invalid="ignore"):
            disc = float(np.float64(q / 2.0) ** 2 + np.float64(p / 3.0) ** 3)
    if disc > 0.0:
        # One real root (Cardano, sign-stable).
        sq = math.sqrt(disc)
        u = float(np.cbrt(-q / 2.0 + sq))
        v = float(np.cbrt(-q / 2.0 - sq))
        return [u + v - shift]
    if disc == 0.0:
        # Repeated roots: one single, one double.
        u = float(np.cbrt(-q / 2.0))
        return [2.0 * u - shift, -u - shift]
    # Three distinct real roots: trigonometric method (p < 0 here).
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = min(max(3.0 * q / (p * m), -1.0), 1.0)  # keeps NaN, as np.clip does
    theta = float(np.arccos(arg)) / 3.0
    return [m * math.cos(theta - 2.0 * math.pi * i / 3.0) - shift for i in range(3)]


def _eval_poly(r: float, c3: float, c2: float, c1: float, c0: float) -> float:
    return ((c3 * r + c2) * r + c1) * r + c0


def _newton_polish(r: float, c3: float, c2: float, c1: float, c0: float) -> float:
    for _ in range(2):
        f = _eval_poly(r, c3, c2, c1, c0)
        df = (3.0 * c3 * r + 2.0 * c2) * r + c1
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step):
            break
        cand = r - step
        if abs(_eval_poly(cand, c3, c2, c1, c0)) >= abs(f):
            break
        r = cand
    return r


def _collapse(roots: list[float]) -> list[float]:
    """Merge roots that coincide up to floating-point noise."""
    out: list[float] = []
    for r in sorted(x + 0.0 for x in roots):
        if not out or abs(r - out[-1]) > 1e-7 * max(1.0, abs(r)):
            out.append(r)
    return out
