"""Numeric kernel for unit-disk computations.

Disk sampling grids, Taylor coefficients by circle quadrature, and
sup-norm estimation with batched multi-start local refinement.
Everything here is pure and reentrant; grid sweeps may be chunked over
worker threads with a deterministic reduction order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# refinement starts from the best point of this many top angle rows
_ROW_STARTS = 8
# samples per candidate in one zoom pass, and the step a zoom narrows below
_ZOOM_SAMPLES = 17
_ZOOM_STEP = 1e-13
# refinement stops after a round that raises the best value by at most this
# times max(1, |best|).  It sits above the rounding noise of the norm
# objectives near the boundary (~1e-12 relative at r = 1 - 1e-4, where
# 1 - |z|^2 loses four digits), so noise never buys another round.
_ROUND_GAIN = 1e-10


class DomainError(ValueError):
    """Evaluation requested outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its target accuracy."""


def worker_count() -> int:
    """Worker cap for grid sweeps, from GALPHA_THREADS (0 or unset = auto)."""
    raw = os.environ.get("GALPHA_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GALPHA_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError("GALPHA_THREADS must be >= 0")
    return n if n > 0 else (os.cpu_count() or 1)


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid on the closed disk of radius r_max < 1.

    radii are strictly increasing within [0, r_max]; every circle carries
    angles_per_circle equally spaced angles starting at 0.
    """

    radii: np.ndarray
    angles_per_circle: int
    r_max: float

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "radii", radii)
        _require_finite("radii", radii)
        if radii.ndim != 1 or radii.size == 0:
            raise ValueError("radii must be a nonempty 1-d array")
        if np.any(np.diff(radii) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        if radii[0] < 0.0 or radii[-1] > self.r_max:
            raise ValueError("radii must lie in [0, r_max]")
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")
        if self.angles_per_circle < 8:
            raise ValueError("angles_per_circle must be at least 8")

    def angles(self) -> np.ndarray:
        k = self.angles_per_circle
        return TWO_PI * np.arange(k) / k

    def points(self) -> np.ndarray:
        """Complex sample points, shape (angles_per_circle, len(radii)).

        Row-major order puts the smallest angle first, then the smallest
        radius, which fixes the argmax tie-breaking rule for sweeps.
        """
        return np.exp(1j * self.angles())[:, None] * self.radii[None, :]


def default_grid(n_radii: int = 64, angles_per_circle: int = 512,
                 boundary_gap: float = 1e-4) -> DiskGrid:
    """Default sweep grid: radii accumulate geometrically at 1 - boundary_gap.

    The norm objectives of this family peak at the boundary, so the radii
    are chosen as 1 - geomspace(1, boundary_gap, n_radii), starting at 0.
    """
    radii = 1.0 - np.geomspace(1.0, boundary_gap, n_radii)
    radii[0] = 0.0
    return DiskGrid(radii=radii, angles_per_circle=angles_per_circle,
                    r_max=float(radii[-1]))


@dataclass(frozen=True)
class NormEstimate:
    """A certified lower bound for a supremum over the disk.

    value is exactly the objective evaluated at argmax; refined records
    whether local refinement ran after the grid sweep.
    """

    value: float
    argmax: complex
    grid: DiskGrid
    refined: bool

    def __post_init__(self) -> None:
        _require_finite("value", self.value)
        _require_finite("argmax", self.argmax)
        if abs(self.argmax) >= 1.0:
            raise ValueError("argmax must lie in the open unit disk")


def cauchy_coefficients(f, n_max: int, radius: float | None = None,
                        samples: int | None = None) -> np.ndarray:
    """Taylor coefficients c_0..c_n_max of f at 0 by trapezoidal quadrature.

    f is called once, on the array of quadrature points, and the sums are
    taken by one FFT of its values.  The trapezoid rule on |z| = radius
    with N samples returns
    c_n + sum_{j>=1} c_{n+jN} radius^{jN}, so for functions analytic past
    the circle the truncation error is O(radius^(samples - n)).  Roundoff
    is amplified by radius^-n, hence the adaptive default radius
    max(0.5, exp(-6.9/n_max)), which keeps radius^n_max >= ~1e-3.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if radius is None:
        radius = max(0.5, math.exp(-6.9 / n_max))
    if samples is None:
        samples = max(256, 8 * n_max)
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if samples < 4 * n_max:
        raise ValueError("samples must be at least 4 * n_max")

    theta = TWO_PI * np.arange(samples) / samples
    z = radius * np.exp(1j * theta)
    vals = np.asarray(f(z))
    _require_finite("f(z) on the quadrature circle", vals)
    # the trapezoid sums sum_j vals_j e^(-i n theta_j) are the DFT of vals
    n = np.arange(n_max + 1)
    return np.fft.fft(vals)[: n_max + 1] / samples / radius ** n


def _zoom(objective, points, lo, hi, lo_bound, hi_bound):
    """Maximize objective(points(t)) over every bracket [lo_c, hi_c] at once.

    Each pass evaluates _ZOOM_SAMPLES equally spaced parameters per
    candidate in one objective call, then narrows each bracket to one sample
    step either side of its best sample (clipped to [lo_bound, hi_bound]),
    so a pass shrinks the step at least 8-fold.  It makes as many passes as
    the widest starting step needs to fall below _ZOOM_STEP at 8-fold per
    pass, a count fixed by the brackets alone, and returns the best
    parameter, point and value of each candidate in the last pass.
    """
    rows = np.arange(lo.size)
    frac = np.linspace(0.0, 1.0, _ZOOM_SAMPLES)
    widest = np.max(hi - lo) / (_ZOOM_SAMPLES - 1)
    while True:
        step = (hi - lo) / (_ZOOM_SAMPLES - 1)
        t = lo[:, None] * (1.0 - frac) + hi[:, None] * frac
        z = points(t)
        v = np.asarray(objective(z), dtype=float)
        _require_finite("objective during refinement", v)
        best = np.argmax(v, axis=1)
        t, z, v = t[rows, best], z[rows, best], v[rows, best]
        if widest < _ZOOM_STEP:
            return t, z, v
        widest /= 8.0
        lo = np.maximum(lo_bound, t - step)
        hi = np.minimum(hi_bound, t + step)


def sup_norm_estimate(objective, grid: DiskGrid, refine_iters: int = 40,
                      seeds=()) -> NormEstimate:
    """Sup of a real objective over the disk: grid sweep + multi-start zoom.

    The sweep takes the maximum over the grid (ties resolved toward the
    smallest angle, then the smallest radius).  Refinement starts from the
    best point of each of the _ROW_STARTS highest angle rows and from every
    point in seeds (which must lie in the open disk; radii are clipped to
    r_max), and refines all candidates together.  Each round zooms in angle
    over theta +- dtheta, then in radius over [r - dr, r_max], where dr is
    the grid spacing at the candidate's starting radius; the radial bracket
    is pinned at r_max because the objectives this library sweeps peak
    jointly in (angle -> atom direction, radius -> 1).  A zoom evaluates
    _ZOOM_SAMPLES points per candidate per objective call and narrows to
    one sample step around the best until that step is below 1e-13.
    dtheta starts at the grid's angular step and halves every round; the
    rounds stop after refine_iters, or once a round raises the best value
    by at most 1e-10 * max(1, |best|).  A candidate moves only to a point
    that beats its current value.  The value returned is the objective
    evaluated at argmax, never below the grid maximum, hence a certified
    lower bound of the sup.
    """
    if refine_iters < 0:
        raise ValueError("refine_iters must be nonnegative")
    seeds = np.asarray(seeds, dtype=complex).ravel()
    _require_finite("seeds", seeds)
    if np.any(np.abs(seeds) >= 1.0):
        raise ValueError("seeds must lie in the open unit disk")
    pts = grid.points()
    vals = _sweep(objective, pts)
    _require_finite("objective on the grid", vals)
    ai, ri = np.unravel_index(int(np.argmax(vals)), vals.shape)
    grid_best = NormEstimate(value=float(vals[ai, ri]), argmax=complex(pts[ai, ri]),
                             grid=grid, refined=False)
    if refine_iters == 0:
        return grid_best

    radii = grid.radii
    row_best = np.argmax(vals, axis=1)
    row_vals = vals[np.arange(vals.shape[0]), row_best]
    rows = np.argsort(-row_vals, kind="stable")[:_ROW_STARTS]
    cols = row_best[rows]
    theta = np.concatenate([grid.angles()[rows], np.angle(seeds) % TWO_PI])
    r = np.concatenate([radii[cols], np.minimum(np.abs(seeds), grid.r_max)])
    point = np.concatenate([pts[rows, cols], seeds])
    value = np.concatenate([vals[rows, cols], np.full(seeds.size, -np.inf)])
    ix = np.minimum(np.searchsorted(radii, r), radii.size - 1)
    dr = np.where(ix > 0, radii[ix] - radii[np.maximum(ix - 1, 0)],
                  max(radii[0], radii[-1] / 8))
    dr = np.maximum(dr, 1e-12)
    dtheta = TWO_PI / grid.angles_per_circle
    best = value.max()
    for _ in range(refine_iters):
        t, z, v = _zoom(objective, lambda t: r[:, None] * np.exp(1j * t),
                        theta - dtheta, theta + dtheta, -np.inf, np.inf)
        up = v > value
        theta, point = np.where(up, t, theta), np.where(up, z, point)
        value = np.maximum(v, value)
        s, z, v = _zoom(objective, lambda s: s * np.exp(1j * theta)[:, None],
                        np.maximum(0.0, r - dr), np.full(r.size, grid.r_max),
                        0.0, grid.r_max)
        up = v > value
        r, point = np.where(up, s, r), np.where(up, z, point)
        value = np.maximum(v, value)
        dtheta *= 0.5
        gain, best = value.max() - best, value.max()
        if gain <= _ROUND_GAIN * max(1.0, abs(best)):
            break
    # Batch and single-point evaluations can round differently (numpy squares
    # arrays and scalars differently), and the zoom's maximum over many
    # samples selects that dust, so the winner is evaluated once more on its
    # own: the reported value is what objective(argmax) returns.
    winner = point[int(np.argmax(value))]
    final = float(np.asarray(objective(np.asarray(winner)), dtype=float))
    if not final >= grid_best.value:
        winner, final = grid_best.argmax, grid_best.value
    return NormEstimate(value=final, argmax=complex(winner), grid=grid, refined=True)


def _sweep(objective, pts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized objective over grid points, chunked by angle rows."""
    workers = worker_count()
    n_rows = pts.shape[0]
    if workers <= 1 or n_rows < 4 * workers:
        return np.asarray(objective(pts), dtype=float)
    blocks = np.array_split(np.arange(n_rows), workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda ix: np.asarray(objective(pts[ix]), dtype=float),
                              blocks))
    return np.concatenate(parts, axis=0)
