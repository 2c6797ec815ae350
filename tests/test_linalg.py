"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from robustfit.exceptions import InvalidInputError
from robustfit.linalg import least_eigvecs, least_singular_vector, solve_cubic_real


def charpoly_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: roots of the characteristic polynomial."""
    coeffs = np.poly(sym)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def test_identity_returns_e1():
    v = least_eigvecs(np.eye(3), 1)
    np.testing.assert_allclose(v[:, 0], [1.0, 0.0, 0.0], atol=1e-14)


def test_diagonal_picks_smallest():
    v = least_eigvecs(np.diag([3.0, 1.0, 2.0]), 1)
    np.testing.assert_allclose(v[:, 0], [0.0, 1.0, 0.0], atol=1e-14)


def test_random_spd_matches_charpoly_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 9))
    s = a @ a.T + 0.5 * np.eye(9)
    vecs = least_eigvecs(s, 3)
    oracle = charpoly_eigenvalues(s)[:3]
    norm_s = np.linalg.norm(s)
    for j in range(3):
        v = vecs[:, j]
        lam = oracle[j]
        assert np.linalg.norm(s @ v - lam * v) <= 1e-10 * norm_s


def test_orthonormal_and_rayleigh_ordered():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(6, 6))
        s = a + a.T
        k = int(rng.integers(1, 7))
        vecs = least_eigvecs(s, k)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), atol=1e-10)
        rayleigh = [vecs[:, j] @ s @ vecs[:, j] for j in range(k)]
        assert all(rayleigh[j] <= rayleigh[j + 1] + 1e-10 for j in range(k - 1))


def test_sign_convention():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        vecs = least_eigvecs(a + a.T, 5)
        for j in range(5):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] >= 0.0


def test_invalid_inputs():
    with pytest.raises(InvalidInputError):
        least_eigvecs(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)  # not symmetric
    with pytest.raises(InvalidInputError):
        least_eigvecs(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)
    with pytest.raises(InvalidInputError):
        least_eigvecs(np.eye(3), 4)
    with pytest.raises(InvalidInputError):
        least_singular_vector(np.empty((0, 3)))


def test_least_singular_vector_explicit_nullspace():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(least_singular_vector(a), [0.0, 0.0, 1.0], atol=1e-14)


def test_least_singular_vector_known_hyperplane():
    rng = np.random.default_rng(5)
    b = rng.normal(size=4)
    b /= np.linalg.norm(b)
    basis = np.linalg.svd(b[None, :])[2][1:]  # orthonormal complement rows
    rows = rng.normal(size=(30, 3)) @ basis
    v = least_singular_vector(rows)
    angle = np.arccos(np.clip(abs(v @ b), -1, 1))
    assert angle <= 1e-8


def test_least_singular_vector_random_probe_oracle():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(50, 9))
    v = least_singular_vector(a)
    probes = rng.normal(size=(10_000, 9))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    best = np.linalg.norm(a @ v)
    assert np.all(best <= np.linalg.norm(probes @ a.T, axis=1) + 1e-9)


def test_least_singular_vector_row_permutation_invariant():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(20, 5))
    v1 = least_singular_vector(a)
    v2 = least_singular_vector(a[rng.permutation(20)])
    np.testing.assert_allclose(v1, v2, atol=1e-10)


def test_cubic_triple_root():
    assert solve_cubic_real(1, 0, 0, 0) == [0.0]


def test_cubic_three_roots():
    roots = solve_cubic_real(1, -6, 11, -6)
    np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)


def test_cubic_quadratic_degenerate():
    roots = solve_cubic_real(0, 1, 0, -4)
    np.testing.assert_allclose(roots, [-2.0, 2.0], atol=1e-12)


def test_cubic_linear_degenerate():
    assert solve_cubic_real(0, 0, 2, -5) == [2.5]


def test_cubic_all_zero_rejected():
    with pytest.raises(InvalidInputError):
        solve_cubic_real(0, 0, 0, 0)


@pytest.mark.parametrize("row", [(1e-300, 1.0, 1.0, 1.0), (1e-200, -1.0, 1.0, -1.0)])
def test_cubic_overflowing_depressed_cubic_rejected(row):
    # float64 scalars overflowed to inf (roots [nan]), float powers raised
    # OverflowError; both are the same invalid input.
    with pytest.raises(InvalidInputError):
        solve_cubic_real(*np.array(row))
    with pytest.raises(InvalidInputError):
        solve_cubic_real(*row)


def _cubic_residual_ok(c, roots) -> bool:
    bound = 1e-9
    for r in roots:
        res = abs(((c[0] * r + c[1]) * r + c[2]) * r + c[3])
        if res > bound * max(1.0, abs(r) ** 3 * np.max(np.abs(c))):
            return False
    return True


def test_cubic_random_residual_property():
    rng = np.random.default_rng(17)
    for _ in range(100_000):
        c = rng.uniform(-10.0, 10.0, size=4)
        if np.all(c == 0.0):
            continue
        roots = solve_cubic_real(*c)
        if abs(c[0]) > 1e-12:
            assert len(roots) >= 1
        assert _cubic_residual_ok(c, roots)
