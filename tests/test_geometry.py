"""Tests for normalization, embeddings and residuals."""

import numpy as np
import pytest

from robustfit.exceptions import DegenerateInputError, InvalidInputError
from robustfit.geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    angle_between,
    dehomogenize,
    denormalize_model,
    epipolar_embeddings,
    hartley_normalize,
    homogeneous,
    homographic_embeddings,
    normalize_model,
    sampson_distance,
    transfer_error,
    unvec_model,
    vec_model,
)


def rand_homography(rng):
    while True:
        h = rng.normal(size=(3, 3))
        if abs(np.linalg.det(h)) > 0.1:
            return h


def test_vec_round_trip_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    assert np.array_equal(unvec_model(vec_model(m)), m)


def test_hartley_unit_square():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    t, hp = hartley_normalize(pts)
    expected = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(t, expected, atol=1e-12)
    np.testing.assert_allclose(hp, homogeneous(pts) @ t.T, atol=1e-12)


def test_hartley_fixed_point():
    # Already centered with mean distance sqrt(2): transform is the identity.
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]) * np.sqrt(2.0)
    t, _ = hartley_normalize(pts)
    np.testing.assert_allclose(t, np.eye(3), atol=1e-12)


def test_hartley_postconditions_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        scale = 10.0 ** rng.uniform(-2, 4)
        pts = rng.uniform(-scale, scale, size=(n, 2))
        if np.allclose(pts, pts[0]):
            continue
        t, hp = hartley_normalize(pts)
        centroid = hp[:, :2].mean(axis=0)
        mean_dist = np.linalg.norm(hp[:, :2], axis=1).mean()
        assert np.all(np.abs(centroid) <= 1e-9)
        assert abs(mean_dist - np.sqrt(2.0)) <= 1e-9
        np.testing.assert_allclose(hp, homogeneous(pts) @ t.T, atol=1e-12)


def test_hartley_identical_points_degenerate():
    with pytest.raises(DegenerateInputError):
        hartley_normalize(np.ones((5, 2)))


def test_epipolar_embedding_unit_points():
    emb = epipolar_embeddings(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, 1.0]]), unit=False)
    expected = np.zeros(9)
    expected[8] = 1.0  # only the F33 slot
    np.testing.assert_allclose(emb[:, 0], expected, atol=0)


def test_epipolar_bilinear_identity():
    rng = np.random.default_rng(2)
    x1 = homogeneous(rng.normal(size=(200, 2)))
    x2 = homogeneous(rng.normal(size=(200, 2)))
    f = rng.normal(size=(3, 3))
    emb = epipolar_embeddings(x1, x2, unit=False)
    direct = np.einsum("ij,jk,ik->i", x2, f, x1)
    np.testing.assert_allclose(emb.T @ vec_model(f), direct, atol=1e-12)


def test_homographic_embedding_identity_case():
    x = np.array([[1.0, 2.0, 1.0]])
    blocks = homographic_embeddings(x, x, unit=False)
    forms = blocks[0].T @ vec_model(np.eye(3))
    np.testing.assert_allclose(forms, [0.0, 0.0], atol=1e-12)


def test_homographic_embedding_forward_synthesis():
    rng = np.random.default_rng(3)
    for _ in range(100):
        h = rand_homography(rng)
        x1 = homogeneous(rng.normal(size=(1, 2)))
        x2 = homogeneous(dehomogenize(x1 @ h.T))
        blocks = homographic_embeddings(x1, x2)
        forms = blocks[0].T @ (vec_model(h) / np.linalg.norm(h))
        assert np.max(np.abs(forms)) <= 1e-9


def test_homographic_embedding_generic_position():
    rng = np.random.default_rng(4)
    h = rand_homography(rng)
    x1 = homogeneous(rng.normal(size=(1, 2)))
    x2 = homogeneous(rng.normal(size=(1, 2)))  # not a correspondence
    blocks = homographic_embeddings(x1, x2)
    forms = blocks[0].T @ (vec_model(h) / np.linalg.norm(h))
    assert np.max(np.abs(forms)) > 1e-6


def test_embedding_annihilation_sweep():
    rng = np.random.default_rng(5)
    n = 10_000
    # Homography side.
    h = rand_homography(rng)
    x1 = homogeneous(rng.uniform(-2, 2, size=(n, 2)))
    x2 = homogeneous(dehomogenize(x1 @ h.T))
    blocks = homographic_embeddings(x1, x2)
    vals = np.einsum("ndm,d->nm", blocks, vec_model(h) / np.linalg.norm(h))
    assert np.max(np.abs(vals)) <= 1e-9
    # Fundamental side: any rank-2 F and points satisfying the constraint.
    f = np.linalg.svd(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.5, 0.0])
    f /= np.linalg.norm(f)
    x1 = homogeneous(rng.uniform(-2, 2, size=(n, 2)))
    lines = x1 @ f.T  # epipolar lines in view 2
    # Pick x2 on its epipolar line: x2 = point with x-coordinate t solving the line.
    ok = np.abs(lines[:, 1]) > 1e-3
    x1, lines = x1[ok], lines[ok]
    t = rng.uniform(-2, 2, size=x1.shape[0])
    y = -(lines[:, 0] * t + lines[:, 2]) / lines[:, 1]
    x2 = np.stack([t, y, np.ones_like(t)], axis=1)
    emb = epipolar_embeddings(x1, x2)
    assert np.max(np.abs(emb.T @ vec_model(f))) <= 1e-9


def test_sampson_hand_value():
    f = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    d = sampson_distance(f, np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(d - 1.0 / np.sqrt(2.0)) <= 1e-12


def test_sampson_exact_inlier_and_scale_invariance():
    rng = np.random.default_rng(6)
    f = np.linalg.svd(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.3, 0.0])
    x1 = np.array([0.3, -0.7])
    line = f @ np.append(x1, 1.0)
    x2 = np.array([1.0, -(line[0] + line[2]) / line[1]])
    assert sampson_distance(f, x1, x2) <= 1e-9
    x2b = x2 + np.array([0.0, 0.05])
    d1 = sampson_distance(f, x1, x2b)
    d2 = sampson_distance(-2.5 * f, x1, x2b)
    assert abs(d1 - d2) <= 1e-12 * max(1.0, d1)


def test_sampson_degenerate_denominator_is_inf():
    assert sampson_distance(np.zeros((3, 3)), np.array([1.0, 2.0]), np.array([3.0, 4.0])) == np.inf


def test_transfer_error_basics():
    assert transfer_error(np.eye(3), np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert transfer_error(np.eye(3), np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_transfer_error_construction_and_infinity():
    rng = np.random.default_rng(7)
    h = rand_homography(rng)
    x1 = np.array([0.4, 1.3])
    x2 = dehomogenize(homogeneous(x1) @ h.T)[0] + np.array([0.5, 0.0])
    assert abs(transfer_error(h, x1, x2) - 0.5) <= 1e-9
    hz = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    assert transfer_error(hz, np.array([1.0, 1.0]), np.array([0.0, 0.0])) == np.inf
    d = transfer_error(-3.0 * h, x1, x2)
    assert abs(d - 0.5) <= 1e-9  # model-scale invariance


def test_denormalize_identity():
    rng = np.random.default_rng(8)
    m = normalize_model(rand_homography(rng), HOMOGRAPHY)
    out = denormalize_model(np.eye(3), np.eye(3), m)
    np.testing.assert_allclose(out.m, m.m, atol=1e-14)


def test_denormalize_recovers_pixel_homography():
    rng = np.random.default_rng(9)
    h_true = rand_homography(rng)
    x1 = rng.uniform(0, 640, size=(60, 2))
    x2 = dehomogenize(homogeneous(x1) @ h_true.T)
    t1, x1n = hartley_normalize(x1)
    t2, x2n = hartley_normalize(x2)
    hn = t2 @ h_true @ np.linalg.inv(t1)  # model in normalized frames
    rec = denormalize_model(t1, t2, normalize_model(hn, HOMOGRAPHY))
    assert angle_between(rec.m, h_true) <= 1e-8


def test_denormalize_preserves_fundamental_residuals():
    rng = np.random.default_rng(10)
    f = np.linalg.svd(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.4, 0.0])
    x1 = rng.uniform(0, 640, size=(40, 2))
    lines = homogeneous(x1) @ f.T
    ok = np.abs(lines[:, 1]) > 1e-2
    x1, lines = x1[ok], lines[ok]
    t = rng.uniform(0, 640, size=x1.shape[0])
    x2 = np.stack([t, -(lines[:, 0] * t + lines[:, 2]) / lines[:, 1]], axis=1)
    t1, _ = hartley_normalize(x1)
    t2, _ = hartley_normalize(x2)
    fn = np.linalg.inv(t2).T @ f @ np.linalg.inv(t1)  # normalized-frame model
    rec = denormalize_model(t1, t2, normalize_model(fn, FUNDAMENTAL))
    before = sampson_distance(f / np.linalg.norm(f), x1, x2)
    after = sampson_distance(rec.m, x1, x2)
    np.testing.assert_allclose(after, before, atol=1e-8)


def test_denormalize_singular_transform_rejected():
    m = normalize_model(np.eye(3), HOMOGRAPHY)
    with pytest.raises(InvalidInputError):
        denormalize_model(np.zeros((3, 3)), np.eye(3), m)
