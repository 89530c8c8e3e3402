"""Numeric kernel for unit-disk computations.

Disk sampling grids, each three numbers that fix its radii and the cells
its sweep prunes, and sup-norm estimation with batched multi-start local
refinement.  Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# refinement starts from the best point of this many top angle rows
_ROW_STARTS = 8
# the sweep's cells of angles x radii
_BLOCK_ANGLES = 8
_BLOCK_RADII = 2
# relative allowance for the rounding of a float objective above a cell bound
_BOUND_MARGIN = 1e-9
# samples per candidate in one zoom pass, and the step a zoom narrows below
_ZOOM_SAMPLES = 17
_ZOOM_STEP = 1e-13
# refinement runs at most this many rounds
_MAX_ROUNDS = 40
# refinement stops after a round that raises max(limit, best) by at most
# this times its magnitude (at least 1).  It sits above the rounding noise of
# the norm objectives near the boundary (~1e-12 relative at r = 1 - 1e-4,
# where 1 - |z|^2 loses four digits), so noise never buys another round.
_ROUND_GAIN = 1e-10


class DomainError(ValueError):
    """Evaluation requested outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its target accuracy."""


# kept only because the benchmark's environment record still calls it
def worker_count() -> int:
    """Threads a norm sweep uses: always 1, the calling thread."""
    return 1


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DiskGrid:
    """Polar grid whose radii accumulate toward r_max, where this family's
    norm objectives peak: radii = 1 - geomspace(1, 1 - r_max, n_radii), a
    read-only array from radii[0] = 0 to radii[-1] = r_max exactly; each
    circle carries angles_per_circle equally spaced angles from 0.  Both
    counts are integers, n_radii >= 2, angles_per_circle >= 8; 0 < r_max < 1.
    """

    n_radii: int = 64
    angles_per_circle: int = 512
    r_max: float = 1.0 - 1e-4

    def __post_init__(self) -> None:
        for name, least in (("n_radii", 2), ("angles_per_circle", 8)):
            try:
                count = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if count < least:
                raise ValueError(f"{name} must be at least {least}")
            object.__setattr__(self, name, count)
        if not isinstance(self.r_max, numbers.Real) or not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must be a real number in (0, 1)")
        object.__setattr__(self, "r_max", float(self.r_max))
        radii = 1.0 - np.geomspace(1.0, 1.0 - self.r_max, self.n_radii)
        radii[0], radii[-1] = 0.0, self.r_max
        radii.flags.writeable = False
        object.__setattr__(self, "radii", radii)

    def angles(self) -> np.ndarray:
        k = self.angles_per_circle
        return TWO_PI * np.arange(k) / k

    def points(self) -> np.ndarray:
        """Complex sample points, shape (angles_per_circle, n_radii).

        Row-major order puts the smallest angle first, then the smallest
        radius, which fixes the argmax tie-breaking rule for sweeps.
        """
        return np.exp(1j * self.angles())[:, None] * self.radii[None, :]

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sweep's cells (r0, r1, th0, th1): the closed polar sectors of 8
        angles by 2 radii of points() in row-major order, edge cells partial."""
        k, n = self.angles_per_circle, self.n_radii
        a_lo, r_lo = (lo.ravel() for lo in np.mgrid[0:k:_BLOCK_ANGLES, 0:n:_BLOCK_RADII])
        a_hi = np.minimum(a_lo + _BLOCK_ANGLES, k) - 1
        r_hi = np.minimum(r_lo + _BLOCK_RADII, n) - 1
        angles = self.angles()
        return self.radii[r_lo], self.radii[r_hi], angles[a_lo], angles[a_hi]


@dataclass(frozen=True)
class NormEstimate:
    """An estimate of a supremum over the disk.

    value is the objective evaluated in floats at argmax or, where |argmax|
    = 1 up to rounding, its closed-form limit as z -> argmax radially.  It is
    an estimate, not a certified bound: near the circle the float objective
    can read ~1e-11 above its exact value.
    """

    value: float
    argmax: complex

    def __post_init__(self) -> None:
        _require_finite("value", self.value)
        _require_finite("argmax", self.argmax)
        if abs(self.argmax) > 1.0 + 4.0 * np.finfo(float).eps:
            raise ValueError("argmax must lie in the closed unit disk")


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


def _sweep(objective, pts, limit, cell_bounds):
    """The objective on the grid's points pts in one call, -inf in the cells
    whose bound, raised by _BOUND_MARGIN, lies below the limit (see
    sup_norm_estimate); None if no cell reaches it.  When no cell is pruned
    the call takes pts in its own shape, otherwise the points of the cells
    kept in row-major order.
    """
    n_angles, n_radii = pts.shape
    shape = (-(-n_angles // _BLOCK_ANGLES), -(-n_radii // _BLOCK_RADII))
    keep = np.ones(shape, dtype=bool)
    if cell_bounds is not None:
        bound = np.asarray(cell_bounds, dtype=float)
        if bound.shape != (keep.size,) or np.any(np.isnan(bound)):
            raise ValueError("cell_bounds must hold one bound per cell")
        if limit is not None:
            keep = (bound + _BOUND_MARGIN * np.abs(bound) >= limit.value).reshape(shape)
    if not keep.any():
        return None
    inside = np.repeat(np.repeat(keep, _BLOCK_ANGLES, axis=0), _BLOCK_RADII,
                       axis=1)[:n_angles, :n_radii]
    v = np.asarray(objective(pts if keep.all() else pts[inside]), dtype=float)
    _require_finite("objective on the grid", v)
    vals = np.full(pts.shape, -np.inf)
    vals[inside] = v.reshape(-1)
    return vals


def sup_norm_estimate(objective, grid: DiskGrid, limit: NormEstimate | None = None,
                      cell_bounds=None) -> NormEstimate:
    """Sup of a real objective over the disk: grid sweep + multi-start zoom.

    limit, a known lower bound of the sup such as a closed-form boundary
    limit, is returned unless a point evaluated beats it.  The sweep takes
    the objective on the grid in one call.  cell_bounds holds an upper
    bound of the objective on each of grid.cells(), in their order; the
    float objective may exceed it by at most 1e-9 relative.  Given both,
    the sweep evaluates only the cells whose bound, raised by 1e-9
    relative, reaches limit.value, and returns limit without calling the
    objective if there are none.  So every grid point whose value beats
    the limit is evaluated; candidates below the limit come only from cells
    whose bound reaches it.  Without a limit nothing is pruned.
    Refinement starts from the best evaluated point of each of the (at most)
    _ROW_STARTS highest angle rows and refines them together (ties go to the
    smallest angle, then the smallest radius).  Each round zooms in angle
    over theta +- dtheta, then in radius over [r - dr, r_max], with dr the
    grid spacing below the starting radius (the first radius counts from
    -r_max/8); the radial bracket is pinned at r_max because the objectives
    this library sweeps peak jointly in (angle -> atom direction,
    radius -> 1).  A zoom evaluates _ZOOM_SAMPLES points per candidate per
    objective call and narrows to one sample step around the best until
    that step is below 1e-13.  dtheta starts at the grid's angular step and
    halves every round; the rounds stop after _MAX_ROUNDS (40), or once a
    round raises max(limit, best) by at most 1e-10 * max(1, |that
    maximum|).  A candidate moves only to a point that beats its current
    value.  Unless limit is returned, the value is the objective evaluated
    in floats at argmax, never below the grid maximum.
    """
    pts = grid.points()
    vals = _sweep(objective, pts, limit, cell_bounds)
    if vals is None:
        return limit
    radii = grid.radii
    row_best = np.argmax(vals, axis=1)
    row_vals = vals[np.arange(vals.shape[0]), row_best]
    rows = np.argsort(-row_vals, kind="stable")[:_ROW_STARTS]
    rows = rows[row_vals[rows] > -np.inf]
    cols = row_best[rows]
    theta, r = grid.angles()[rows], radii[cols]
    point, value = pts[rows, cols], vals[rows, cols]
    dr = np.maximum(np.diff(radii, prepend=-radii[-1] / 8)[cols], 1e-12)
    dtheta = TWO_PI / grid.angles_per_circle
    floor = -np.inf if limit is None else limit.value
    best = max(value.max(), floor)
    for _ in range(_MAX_ROUNDS):
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
        gain, best = max(value.max(), floor) - best, max(value.max(), floor)
        if gain <= _ROUND_GAIN * max(1.0, abs(best)):
            break
    # Batch and single-point evaluations can round differently (numpy squares
    # arrays and scalars differently), and the zoom's maximum over many
    # samples selects that dust, so the winner is evaluated once more on its
    # own: the reported value is what objective(argmax) returns.
    winner = point[int(np.argmax(value))]
    final = float(np.asarray(objective(np.asarray(winner)), dtype=float))
    top = int(np.argmax(vals))
    if not final >= vals.flat[top]:
        winner, final = pts.flat[top], float(vals.flat[top])
    if limit is not None and not final > limit.value:
        return limit
    return NormEstimate(value=final, argmax=complex(winner))
