"""Numeric kernel for unit-disk computations.

Disk sampling grids, Taylor coefficients by circle quadrature, and
sup-norm estimation with local refinement.
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

# inverse golden ratio, the contraction factor of a golden-section step
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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

    f is called once, on the array of quadrature points.  The trapezoid
    rule on |z| = radius with N samples returns
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
    n = np.arange(n_max + 1)
    kernel = np.exp(-1j * np.outer(n, theta))
    return (kernel @ vals) / samples / radius ** n


def _golden_max(g, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximization of g on [lo, hi]; returns (x, g(x)).

    Assumes g is unimodal on the bracket; ~60 contractions reach the
    floating-point limit for brackets of width O(1).
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(200):
        if b - a < tol:
            break
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
    if gc >= gd:
        return c, gc
    return d, gd


def sup_norm_estimate(objective, grid: DiskGrid,
                      refine_iters: int = 40) -> NormEstimate:
    """Sup of a real objective over the disk: grid sweep + local refinement.

    The sweep takes the maximum over the grid (ties resolved toward the
    smallest angle, then the smallest radius).  Each refinement round runs
    a golden-section pass in angle around the incumbent, then one in radius
    over [incumbent - local spacing, r_max]; the radial bracket is pinned
    at r_max because the objectives this library sweeps peak jointly in
    (angle -> atom direction, radius -> 1).  The result is the largest
    value actually evaluated, hence a certified lower bound of the sup.
    """
    if refine_iters < 0:
        raise ValueError("refine_iters must be nonnegative")
    pts = grid.points()
    vals = _sweep(objective, pts)
    _require_finite("objective on the grid", vals)
    flat = int(np.argmax(vals))
    ai, ri = np.unravel_index(flat, vals.shape)
    best_val = float(vals[ai, ri])
    best_pt = complex(pts[ai, ri])
    if refine_iters == 0:
        return NormEstimate(value=best_val, argmax=best_pt, grid=grid,
                            refined=False)

    def scalar(z: complex) -> float:
        return float(np.asarray(objective(np.asarray(z, dtype=complex)), dtype=float))

    radii = grid.radii
    theta = float(np.angle(best_pt)) % TWO_PI
    r = float(abs(best_pt))
    dtheta = TWO_PI / grid.angles_per_circle
    dr = radii[ri] - radii[ri - 1] if ri > 0 else max(radii[0], radii[-1] / 8)
    dr = max(float(dr), 1e-12)
    for _ in range(refine_iters):
        theta, v_t = _golden_max(lambda t: scalar(r * np.exp(1j * t)),
                                 theta - dtheta, theta + dtheta)
        if v_t > best_val:
            best_val, best_pt = v_t, complex(r * np.exp(1j * theta))
        r, v_r = _golden_max(lambda s: scalar(s * np.exp(1j * theta)),
                             max(0.0, r - dr), grid.r_max)
        if v_r > best_val:
            best_val, best_pt = v_r, complex(r * np.exp(1j * theta))
        dtheta *= 0.5
    return NormEstimate(value=best_val, argmax=best_pt, grid=grid, refined=True)


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
