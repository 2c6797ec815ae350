"""Deterministic synthetic scenes with exact ground truth.

Inlier correspondences are exact projections of a shared geometric model
(noise, when requested, is added to the view-2 coordinates afterwards);
outliers are independent uniform point pairs. Scenes are drawn until they
pass conditioning guards (homography condition number, quad containment,
camera baseline) so tests never see vacuous geometry. Output order is
shuffled so no consumer can exploit the inlier/outlier layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import GenerationFailedError, InvalidInputError
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ModelMatrix,
    dehomogenize,
    homogeneous,
    normalize_model,
    sampson_distance,
    transfer_error,
)
from .ransac import check_seed
from .solvers import SAMPLE_SIZE

_MAX_SCENE_TRIES = 64
_MAX_POINT_ROUNDS = 64
_MAX_COND = 1e3  # condition-number guard for generated homographies
_GUARD_FACTOR = 4.0  # image quad must map inside a 4x guard region
_MIN_BASELINE_FRAC = 0.1  # of the scene scale


@dataclass(frozen=True)
class SynthConfig:
    problem: str
    n_inliers: int
    n_outliers: int = 0
    noise_sigma: float = 0.0
    image_size: tuple[int, int] = (640, 480)
    seed: int = 0
    degenerate_planar: bool = False  # fundamental only: coplanar 3-d points

    def __post_init__(self):
        if self.problem not in (FUNDAMENTAL, HOMOGRAPHY):
            raise InvalidInputError(f"unknown problem {self.problem!r}")
        min_n = SAMPLE_SIZE[self.problem]
        if self.n_inliers < min_n:
            raise InvalidInputError(f"need at least {min_n} inliers for {self.problem}")
        if self.n_outliers < 0:
            raise InvalidInputError("n_outliers must be non-negative")
        # Chained comparisons reject NaN as well as infinities.
        if not 0.0 <= self.noise_sigma < math.inf:
            raise InvalidInputError("noise_sigma must be non-negative and finite")
        if not (0.0 < self.image_size[0] < math.inf and 0.0 < self.image_size[1] < math.inf):
            raise InvalidInputError("image_size must be positive and finite")
        if self.degenerate_planar and self.problem != FUNDAMENTAL:
            raise InvalidInputError("degenerate_planar applies to fundamental scenes only")
        check_seed(self.seed)


@dataclass(frozen=True)
class SynthDataset:
    """Correspondences with ground-truth labels and the generating model.

    ``metadata`` records the conditioning guards the scene passed (thresholds
    and measured values), so tests can assert the scene is non-vacuous.
    """

    x1: np.ndarray  # (n, 2) pixels, view 1
    x2: np.ndarray  # (n, 2) pixels, view 2
    labels: np.ndarray  # (n,) bool, True = inlier
    truth: ModelMatrix
    image_size: tuple[int, int]
    metadata: dict

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    @property
    def outlier_fraction(self) -> float:
        return 1.0 - float(np.count_nonzero(self.labels)) / self.n


def synth_dataset(cfg: SynthConfig) -> SynthDataset:
    """Dispatch on the configured problem kind."""
    if cfg.problem == HOMOGRAPHY:
        return synth_homography(cfg)
    return synth_fundamental(cfg)


def _camera_matrix(image_size: tuple[int, int]) -> np.ndarray:
    w, h = image_size
    f = 0.9 * max(w, h)
    return np.array([[f, 0.0, w / 2.0], [0.0, f, h / 2.0], [0.0, 0.0, 1.0]])


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(np.array([0.0, 1.0, 0.0]), fwd)
    right = right / np.linalg.norm(right)
    up = np.cross(fwd, right)
    return np.stack([right, up, fwd])


def _in_image(points: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    w, h = image_size
    finite = np.all(np.isfinite(points), axis=1)
    inside = (
        (points[:, 0] >= 0.0)
        & (points[:, 0] <= w)
        & (points[:, 1] >= 0.0)
        & (points[:, 1] <= h)
    )
    return finite & inside


def _uniform_points(rng: np.random.Generator, count: int, image_size: tuple[int, int]) -> np.ndarray:
    w, h = image_size
    return rng.uniform(0.0, 1.0, size=(count, 2)) * np.array([w, h])


def _assemble(
    rng: np.random.Generator,
    cfg: SynthConfig,
    in1: np.ndarray,
    in2: np.ndarray,
    truth: ModelMatrix,
    metadata: dict,
) -> SynthDataset:
    if cfg.noise_sigma > 0.0:
        in2 = in2 + rng.normal(0.0, cfg.noise_sigma, size=in2.shape)
    out1 = _uniform_points(rng, cfg.n_outliers, cfg.image_size)
    out2 = _uniform_points(rng, cfg.n_outliers, cfg.image_size)
    x1 = np.vstack([in1, out1])
    x2 = np.vstack([in2, out2])
    labels = np.zeros(x1.shape[0], dtype=bool)
    labels[: cfg.n_inliers] = True
    order = rng.permutation(x1.shape[0])
    return SynthDataset(
        x1=np.ascontiguousarray(x1[order]),
        x2=np.ascontiguousarray(x2[order]),
        labels=labels[order],
        truth=truth,
        image_size=cfg.image_size,
        metadata=metadata,
    )


def _unit_frame(image_size: tuple[int, int]) -> np.ndarray:
    """Similarity mapping the image rectangle onto [-1, 1]^2.

    Conditioning of a homography is measured in this frame: raw pixel units
    would charge any warp with a large translation a huge condition number.
    """
    w, h = image_size
    return np.array([[2.0 / w, 0.0, -1.0], [0.0, 2.0 / h, -1.0], [0.0, 0.0, 1.0]])


def _draw_homography(
    rng: np.random.Generator, image_size: tuple[int, int]
) -> tuple[np.ndarray, float] | None:
    """Plane-induced projective warp, or None when a guard rejects it.

    Returns the pixel-frame matrix and its condition number measured in the
    [-1, 1]^2 frame of :func:`_unit_frame`.
    """
    w, h = image_size
    k = _camera_matrix(image_size)
    axis = rng.normal(size=3)
    angle = rng.uniform(0.02, 0.25)
    rot = _rotation(axis, angle)
    t = rng.normal(size=3)
    t = t / np.linalg.norm(t) * rng.uniform(0.05, 0.35)
    normal = np.array([0.0, 0.0, 1.0]) + 0.2 * rng.normal(size=3)
    normal = normal / np.linalg.norm(normal)
    dist = rng.uniform(0.8, 1.6)
    hmat = k @ (rot + np.outer(t, normal) / dist) @ np.linalg.inv(k)

    frame = _unit_frame(image_size)
    unit_h = frame @ hmat @ np.linalg.inv(frame)
    svals = np.linalg.svd(unit_h / np.linalg.norm(unit_h), compute_uv=False)
    if svals[2] <= 0.0 or svals[0] / svals[2] > _MAX_COND:
        return None
    cond = float(svals[0] / svals[2])
    corners = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    mapped_h = homogeneous(corners) @ hmat.T
    if np.any(np.abs(mapped_h[:, 2]) < 1e-6):
        return None
    mapped = dehomogenize(mapped_h)
    cx, cy = w / 2.0, h / 2.0
    half_w, half_h = _GUARD_FACTOR * w / 2.0, _GUARD_FACTOR * h / 2.0
    if np.any(np.abs(mapped[:, 0] - cx) > half_w) or np.any(np.abs(mapped[:, 1] - cy) > half_h):
        return None
    # Require usable overlap so inlier rejection sampling terminates quickly.
    gx, gy = np.meshgrid(np.linspace(0, w, 12), np.linspace(0, h, 12))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    frac = np.mean(_in_image(dehomogenize(homogeneous(grid) @ hmat.T), image_size))
    if frac < 0.2:
        return None
    return hmat, cond


def synth_homography(cfg: SynthConfig) -> SynthDataset:
    """Homography scene: exact plane-induced warp plus noise and outliers."""
    rng = np.random.default_rng(cfg.seed)
    for _ in range(_MAX_SCENE_TRIES):
        drawn = _draw_homography(rng, cfg.image_size)
        if drawn is None:
            continue
        hmat, cond = drawn
        in1 = np.empty((0, 2))
        in2 = np.empty((0, 2))
        for _ in range(_MAX_POINT_ROUNDS):
            need = cfg.n_inliers - in1.shape[0]
            if need == 0:
                break
            batch = _uniform_points(rng, max(4 * need, 16), cfg.image_size)
            mapped = dehomogenize(homogeneous(batch) @ hmat.T)
            keep = _in_image(mapped, cfg.image_size)
            in1 = np.vstack([in1, batch[keep][:need]])
            in2 = np.vstack([in2, mapped[keep][:need]])
        if in1.shape[0] < cfg.n_inliers:
            continue
        truth = normalize_model(hmat, HOMOGRAPHY)
        exact = transfer_error(truth.m, in1, in2)
        if np.max(exact) > 1e-9:
            continue
        metadata = {
            "max_condition": _MAX_COND,
            "condition": cond,
            "guard_factor": _GUARD_FACTOR,
        }
        return _assemble(rng, cfg, in1, in2, truth, metadata)
    raise GenerationFailedError("could not draw a well-conditioned homography scene")


def _scene_points(rng: np.random.Generator, count: int, planar: bool) -> np.ndarray:
    """3-d points in a unit-half-extent box around (0, 0, 4), optionally coplanar."""
    center = np.array([0.0, 0.0, 4.0])
    if not planar:
        return center + rng.uniform(-1.0, 1.0, size=(count, 3))
    tilt_axis = rng.normal(size=3)
    tilt_axis[2] = 0.0
    if np.linalg.norm(tilt_axis) < 1e-9:
        tilt_axis = np.array([1.0, 0.0, 0.0])
    normal = _rotation(tilt_axis, rng.uniform(0.1, 0.9)) @ np.array([0.0, 0.0, 1.0])
    u = np.cross(normal, np.array([0.0, 1.0, 0.0]))
    u = u / np.linalg.norm(u)
    v = np.cross(normal, u)
    coeffs = rng.uniform(-1.0, 1.0, size=(count, 2))
    return center + coeffs[:, :1] * u + coeffs[:, 1:] * v


def synth_fundamental(cfg: SynthConfig) -> SynthDataset:
    """Two-camera scene: exact epipolar geometry plus noise and outliers."""
    rng = np.random.default_rng(cfg.seed)
    k = _camera_matrix(cfg.image_size)
    k_inv = np.linalg.inv(k)
    scene_center = np.array([0.0, 0.0, 4.0])
    scene_scale = 2.0  # box side length

    for _ in range(_MAX_SCENE_TRIES):
        direction = rng.normal(size=3)
        direction = direction / np.linalg.norm(direction)
        length = rng.uniform(max(_MIN_BASELINE_FRAC * scene_scale, 0.3), 0.9)
        c2 = direction * length
        r2 = _look_at(c2, scene_center)
        t = -r2 @ c2  # camera-1 origin expressed in camera-2 frame
        tx = np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
        f = k_inv.T @ tx @ r2 @ k_inv
        truth = normalize_model(f, FUNDAMENTAL)

        in1 = np.empty((0, 2))
        in2 = np.empty((0, 2))
        for _ in range(_MAX_POINT_ROUNDS):
            need = cfg.n_inliers - in1.shape[0]
            if need == 0:
                break
            pts = _scene_points(rng, max(4 * need, 16), cfg.degenerate_planar)
            z1 = pts[:, 2]
            cam2 = (pts - c2) @ r2.T
            proj1 = dehomogenize(pts @ k.T)
            proj2 = dehomogenize(cam2 @ k.T)
            keep = (
                (z1 > 0.1)
                & (cam2[:, 2] > 0.1)
                & _in_image(proj1, cfg.image_size)
                & _in_image(proj2, cfg.image_size)
            )
            in1 = np.vstack([in1, proj1[keep][:need]])
            in2 = np.vstack([in2, proj2[keep][:need]])
        if in1.shape[0] < cfg.n_inliers:
            continue
        algebraic = np.abs(
            np.einsum("ij,ij->i", homogeneous(in2) @ truth.m, homogeneous(in1))
        )
        if np.max(algebraic) > 1e-9 or np.max(sampson_distance(truth.m, in1, in2)) > 1e-7:
            continue
        metadata = {
            "min_baseline": _MIN_BASELINE_FRAC * scene_scale,
            "baseline": float(length),
            "scene_scale": scene_scale,
            "planar": cfg.degenerate_planar,
        }
        return _assemble(rng, cfg, in1, in2, truth, metadata)
    raise GenerationFailedError("could not draw a well-conditioned two-camera scene")
