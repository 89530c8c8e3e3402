"""Numeric kernel for unit-disk computations.

Disk sampling grids, each three numbers that fix its radii and the cells
its sweep prunes, and sup-norm estimation by a grid sweep and a batched
finite-difference Newton ascent.  Everything here is pure and reentrant.
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
# refinement stops after this many stencil evaluations
_MAX_STEPS = 60


class DomainError(ValueError):
    """Evaluation requested outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its target accuracy."""


# kept only because the benchmark's environment record still calls it
def worker_count() -> int:
    """Threads a norm sweep uses: always 1, the calling thread."""
    return 1


def _require_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
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


def _clip(z, r_max):
    """z, scaled radially onto |z| = r_max (1 - 2**-50) where it lies beyond
    that radius; the 4 eps margin covers the rounding here and in abs."""
    return z * np.minimum(1.0, r_max * (1.0 - 2.0 ** -50) / (np.abs(z) + 1e-300))


def _stencil():
    """The refinement's 3x3 stencil s, in units of its spacing, and the
    central-difference weights that take values f on it to f @ weights =
    (f_x + i f_y, q = (f_xx - f_yy)/2 + i f_xy, (f_xx + f_yy)/2)."""
    s = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    edge = np.abs(s) == 1.0
    return s, np.stack([edge * s / 2.0, s * s / np.where(edge, 2.0, 8.0),
                        edge / 2.0 - 2.0 * (s == 0)], axis=1)


def _model_step(m):
    """The step, in units of the spacing, that maximizes the quadratic model
    m = f @ weights (see _stencil) over the box of half-width sqrt(2) in its
    Hessian's eigenbasis e, i e, where e = sqrt(q / |q|) and the eigenvalues
    are (f_xx + f_yy)/2 -+ |q|: along each, the Newton step where the
    curvature is negative and the step fits, else the box's edge uphill.
    """
    g, q, lam = m.T
    e = np.exp(0.5j * np.angle(q))
    u = (e.conj() * g).view(float).reshape(-1, 2)
    curvature = np.multiply.outer(np.abs(q), np.array([-1.0, 1.0])) - lam.real[:, None]
    u /= np.maximum(np.maximum(curvature, np.abs(u) / math.sqrt(2.0)), 1e-300)
    return e * u.view(complex)[:, 0]


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
    """Sup of a real objective over the disk: grid sweep + batched Newton ascent.

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
    _ROW_STARTS highest angle rows (ties go to the smallest angle, then the
    smallest radius).  Each step evaluates every live candidate's stencil
    c + h e^(i arg c) s (see _stencil) in one objective call and proposes
    the trial step of _model_step, pulling points beyond r_max inside.  A
    candidate moves only to a point that beats its value.  If the centre c
    is no worse than its best point, the next stencil is centred on the
    trial point and h becomes the trial step's length; else it goes back
    to the best point with h/8.  h starts at min(1 - |c|, 2 pi /
    angles_per_circle)/2 and stays <= (1 - |c|)/2.  A candidate stops once
    it lies within h of a better one or h < sqrt(eps) (1 - |c|), where the
    differences reach the objective's rounding; all stop after _MAX_STEPS
    steps.  Unless limit is returned, the value is the objective evaluated
    in floats at argmax, never below the grid maximum.
    """
    pts = grid.points()
    vals = _sweep(objective, pts, limit, cell_bounds)
    if vals is None:
        return limit
    row_best = np.argmax(vals, axis=1)
    row_vals = vals[np.arange(vals.shape[0]), row_best]
    rows = np.argsort(-row_vals, kind="stable")[:_ROW_STARTS]
    rows = rows[row_vals[rows] > -np.inf]
    point = _clip(pts[rows, row_best[rows]], grid.r_max)
    value = vals[rows, row_best[rows]]
    center, room = point.copy(), 1.0 - np.abs(point)
    h = np.minimum(room, TWO_PI / grid.angles_per_circle) / 2.0
    tol = math.sqrt(np.finfo(float).eps)
    stencil, weights = _stencil()
    live = np.ones(point.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        rival = (np.abs(point - point[:, None]) < h[:, None]) & (value > value[:, None])
        live &= (h >= tol * room) & ~rival.any(axis=1)
        at = np.flatnonzero(live)
        if not at.size:
            break
        c, p, v = center[at], point[at], value[at]
        step = h[at] * np.exp(1j * np.angle(c))
        w = _clip(c[:, None] + step[:, None] * stencil, grid.r_max)
        f = np.asarray(objective(w), dtype=float)
        _require_finite("objective during refinement", f)
        # the centre is a trial point unless it is the candidate's best point
        ok = (c == p) | (f[:, 0] >= v)
        best = np.arange(at.size), f.argmax(axis=1)
        point[at] = p = np.where(f[best] > v, w[best], p)
        value[at] = np.maximum(f[best], v)
        trial = _clip(c + step * _model_step(f @ weights), grid.r_max)
        center[at] = np.where(ok, trial, p)
        room[at] = r = 1.0 - np.abs(center[at])
        h[at] = np.minimum(np.where(ok, np.abs(trial - c), h[at] / 8.0), r / 2.0)
    # Batch and single-point evaluations can round differently (numpy squares
    # arrays and scalars differently), and the maximum over many stencil
    # points selects that dust, so the winner is evaluated once more on its
    # own: the reported value is what objective(argmax) returns.
    winner = point[int(np.argmax(value))]
    final = float(np.asarray(objective(np.asarray(winner)), dtype=float))
    top = int(np.argmax(vals))
    if not final >= vals.flat[top]:
        winner, final = pts.flat[top], float(vals.flat[top])
    if limit is not None and not final > limit.value:
        return limit
    return NormEstimate(value=final, argmax=complex(winner))
