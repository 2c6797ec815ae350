"""Reference oracles for the hypothesis kernels.

The per-draw Fisher-Yates sampler and the numpy-scalar cubic solver below are
verbatim copies of the implementations that ``tests/golden_ransac.json`` was
recorded with (only the public names carry a ``reference_`` prefix). The
production kernels take all of a batch's draws in one ``rng.integers`` call
and solve the cubic on Python floats; these tests require the same samples,
the same generator state afterwards and the same root bytes.
"""

import hashlib
import math

import numpy as np
import pytest

from robustfit.exceptions import InvalidInputError
from robustfit.linalg import solve_cubic_real
from robustfit.ransac import draw_minimal_sample, sample_stream_digest

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
@pytest.mark.parametrize("count", [None, 1, 2, 37])
def test_batched_draws_equal_per_draw_reference(n, s, count):
    """Same samples, same generator state after them, same next draw."""
    for seed in range(25):
        mine = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        got = draw_minimal_sample(mine, n, s, count)
        want = np.stack([reference_draw_minimal_sample(ref, n, s)
                         for _ in range(1 if count is None else count)])
        if count is None:
            want = want[0]
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert mine.bit_generator.state == ref.bit_generator.state
        assert draw_minimal_sample(mine, n, s).tobytes() == \
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
