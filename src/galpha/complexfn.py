"""Numeric kernel for unit-disk computations.

_blocks, the one evaluator of per-point work, which every kernel of a
member and of a Blaschke product runs through; the one disk sampling grid
the norm search uses, and the sup-norm estimate of one objective by one
sweep of the grid cells that the caller's bounds on the float objective
leave open, and one batched finite-difference Newton ascent; and
_Record, the one base of galpha's immutable records.
Everything here is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Per-point kernels run on slices of about this many (point, term) pairs, so
# their temporaries stay near 4 MB whatever the input size and term count.
_BLOCK = 1 << 17
# refinement starts from the best point of this many top angle rows
_ROW_STARTS = 8
# the sweep's cells of angles x radii
_BLOCK_ANGLES = 8
_BLOCK_RADII = 2
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


def _frozen(message: str):
    """dataclasses.FrozenInstanceError(message), imported on first use, as
    importing dataclasses with galpha adds ~0.8 ms on a 2-core host."""
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


class _Record:
    """Base of galpha's records: immutable values whose fields are the
    parameters of their class's __init__, read once per class.

    __init__ stores the fields, and any attributes derived from them, with
    vars(self).update; assigning or deleting an attribute afterwards raises
    dataclasses.FrozenInstanceError.  Only the fields enter ==, hash and
    repr.  == is type-strict and compares each field by value, arrays
    elementwise, and hash matches it: each field is hashed flattened to a
    tuple, so a list hashes as a tuple and -0.0 as 0.0.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self._fields)

    def __hash__(self):
        return hash(tuple(tuple(np.ravel(getattr(self, f)).tolist()) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _one_minus(z, atoms, out):
    """u_k = 1 - zeta_k z for 1-d z, shape (z.size, m), formed in out for
    hprime, its one caller."""
    u = np.multiply(z[:, None], atoms, out=out)
    return np.subtract(1.0, u, out=u)


def _blocks(z, width, kernel, bound=1.0):
    """kernel over the points of z, |z| < bound, on the fewest slices of at
    most _BLOCK // width points, whose sizes differ by at most one.

    kernel(zb, buf) gets a 1-d slice zb and buf, a contiguous (zb.size,
    width) complex view of one buffer shared by every slice (width may be
    0), which it may reshape, and forms its terms there: fresh slice-sized
    arrays let the allocator hand memory back to the system and fault it in
    again.  It returns one value per point of zb; the result has the shape
    of z, and a 0-d z gives a numpy scalar.  A one-point slice runs its
    kernel's products down other numpy loops, which round differently, so
    the slices are balanced, leaving no short tail, and a lone point runs
    as a pair whose first value is kept; one slice runs on the whole buffer.
    One test, |z| < bound, checks z; if it fails, NaN and inf raise ValueError first.
    """
    z = np.asarray(z, dtype=complex)
    if not (np.abs(z) < bound).all():
        _require_finite("z", z)
        raise DomainError(f"evaluation requires |z| < {bound}")
    flat = np.resize(z, 2) if z.size == 1 else z.ravel()
    n = max(1, -(-flat.size // max(1, _BLOCK // max(1, width))))
    work = np.empty((-(-flat.size // n), width), dtype=complex)
    if n == 1:
        out = kernel(flat, work)
    else:
        ends = [i * flat.size // n for i in range(n + 1)]
        out = np.concatenate([kernel(flat[a:b], work[:b - a]) for a, b in zip(ends, ends[1:])])
    return out[:z.size].reshape(z.shape)[()]  # a numpy scalar for 0-d z


class DiskGrid(_Record):
    """The norm search's polar grid: n_radii radii accumulating toward r_max,
    where this family's norm objectives peak, on angles_per_circle rays.
    It takes no arguments, so every DiskGrid() is equal.  Its arrays are
    built from those three constants with it, and are read-only:

    radii   1 - geomspace(1, 1 - r_max, n_radii), from radii[0] = 0 to
            radii[-1] = r_max exactly;
    angles  the angles_per_circle equally spaced angles from 0;
    points  the complex sample points, shape (angles_per_circle, n_radii).
            Row-major order puts the smallest angle first, then the smallest
            radius, which fixes the argmax tie-breaking rule for sweeps.
            _clip pulls in the outer circle, where e^(i theta) r_max can
            round out;
    cells   the sweep's cells (r0, r1, th0, th1): the closed polar sectors
            of 8 angles by 2 radii of points, edge cells partial; r0, r1 a
            row (1, radius blocks), th0, th1 a column (angle blocks, 1).
            They cover the grid's points, not the disk: gaps lie between blocks.
    """

    n_radii = 64
    angles_per_circle = 512
    r_max = 1.0 - 1e-4

    def __init__(self) -> None:
        k, n = self.angles_per_circle, self.n_radii
        radii = 1.0 - np.geomspace(1.0, 1.0 - self.r_max, n)
        radii[0], radii[-1] = 0.0, self.r_max
        angles = TWO_PI * np.arange(k) / k
        points = np.exp(1j * angles)[:, None] * radii[None, :]
        points[:, -1] = _clip(points[:, -1], self.r_max)
        a_lo, r_lo = np.arange(0, k, _BLOCK_ANGLES), np.arange(0, n, _BLOCK_RADII)
        a_hi = np.minimum(a_lo + _BLOCK_ANGLES, k) - 1
        r_hi = np.minimum(r_lo + _BLOCK_RADII, n) - 1
        cells = radii[None, r_lo], radii[None, r_hi], angles[a_lo, None], angles[a_hi, None]
        for a in (radii, angles, points) + cells:
            a.flags.writeable = False
        vars(self).update(radii=radii, angles=angles, points=points, cells=cells)


class NormEstimate(_Record):
    """An estimate of a supremum over the disk.

    value is the float objective at argmax as a call of the search returned
    it or, where |argmax| = 1 up to rounding, its closed-form limit as z ->
    argmax radially.  It is an estimate, not a certified bound: near the
    circle the float objective can read ~1e-11 above its exact value.
    """

    def __init__(self, value: float, argmax: complex) -> None:
        _require_finite("value", value)
        _require_finite("argmax", argmax)
        if abs(argmax) > 1.0 + 4.0 * np.finfo(float).eps:
            raise ValueError("argmax must lie in the closed unit disk")
        vars(self).update(value=value, argmax=argmax)


def _clip(z, r_max):
    """z, scaled radially onto |z| = r_max (1 - 2**-50) where it lies beyond
    that radius; the 4 eps margin covers the rounding here and in abs."""
    return z * np.minimum(1.0, r_max * (1.0 - 2.0 ** -50) / (np.abs(z) + 1e-300))


# The refinement's 3x3 stencil s, in units of its spacing, and the
# central-difference weights that take values f on it to f @ _WEIGHTS =
# (f_x + i f_y, q = (f_xx - f_yy)/2 + i f_xy, (f_xx + f_yy)/2); both read-only.
_STENCIL = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
_EDGE = np.abs(_STENCIL) == 1.0
_WEIGHTS = np.stack([_EDGE * _STENCIL / 2.0, _STENCIL * _STENCIL / np.where(_EDGE, 2.0, 8.0),
                     _EDGE / 2.0 - 2.0 * (_STENCIL == 0)], axis=1)
_STENCIL.flags.writeable = _WEIGHTS.flags.writeable = False


def _model_step(g, q, lam):
    """The step, in units of the spacing, that maximizes the quadratic model
    (g, q, lam) = f @ _WEIGHTS (see _STENCIL) over the box of half-width
    sqrt(2) in its Hessian's eigenbasis e, i e, where e = sqrt(q / |q|) and
    the eigenvalues are lam -+ |q|: along each, the Newton step where the
    curvature is negative and the step fits, else the box's edge uphill.
    """
    half = 0.5 * math.atan2(q.imag, q.real)
    e = complex(math.cos(half), math.sin(half))
    u, a = e.conjugate() * g, abs(q)
    return e * complex(u.real / max(-a - lam.real, abs(u.real) / math.sqrt(2.0), 1e-300),
                       u.imag / max(a - lam.real, abs(u.imag) / math.sqrt(2.0), 1e-300))


def sup_norm_estimate(objective, grid: DiskGrid, limit: NormEstimate, cell_bounds,
                      disks) -> NormEstimate:
    """The sup of a real objective over the disk by one grid sweep and one
    batched Newton ascent.

    limit is a known lower bound of the sup, such as a closed-form boundary
    limit, and is the estimate unless a point evaluated beats it.
    objective(z) returns one value per point, in the shape of z.
    cell_bounds, shape (angle blocks, radius blocks) as grid.cells
    broadcast, bounds the float objective at each cell's grid points.  The
    sweep takes, in one row-major call, the points of the cells whose bound
    is at least the limit, or returns the limit with no call if there are
    none: every grid point that beats the limit is evaluated.
    Refinement starts from the best evaluated point of each of the (at
    most) _ROW_STARTS highest angle rows (ties go to the smallest angle,
    then the smallest radius).  Each step evaluates every live candidate's
    stencil c + h e^(i arg c) s (see _STENCIL) in one objective call and
    proposes the trial step of _model_step, pulling points beyond r_max
    inside.  A candidate moves only to a point that beats its value.  If
    the centre c is no worse than its best point, the next stencil is
    centred on the trial point and h becomes the trial step's length; else
    it goes back to the best point with h/8.  h starts at min(1 - |c|,
    2 pi / angles_per_circle)/2 and stays <= (1 - |c|)/2.  A candidate stops
    once it lies within h of a better one or h < sqrt(eps) (1 - |c|), where
    the differences reach the objective's rounding, or, below the limit,
    once its point lies in one of the disks |z - q_k| <= r_k, (q, r) =
    disks, each tested only where |z| >= min(|q_k| - r_k), where the caller
    certifies that the objective is at most the limit, or its last trial was
    pulled inside r_max, a heuristic stop, not a certified one, for objectives
    that tend on the circle to at most their limits, as the norms'.  All stop
    after _MAX_STEPS steps.  The estimate is the best candidate's (point,
    value), the first of equals, as a call of the sweep or the ascent
    returned it, or limit unless that value beats it.
    As the top row's best grid point is a start and candidates only move
    up, it is never below the objective's grid maximum.
    """
    pts, bound = grid.points, np.asarray(cell_bounds, dtype=float)
    if bound.shape != np.broadcast(*grid.cells).shape or np.any(np.isnan(bound)):
        raise ValueError("cell_bounds must hold one bound per cell")
    keep = bound >= limit.value
    if not keep.any():
        return limit
    inside = np.repeat(np.repeat(keep, _BLOCK_ANGLES, axis=0), _BLOCK_RADII,
                       axis=1)[:pts.shape[0], :pts.shape[1]]
    v = np.asarray(objective(pts[inside]), dtype=float)
    _require_finite("objective on the grid", v)
    vals = np.full(pts.shape, -np.inf)
    vals[inside] = v
    row_best = np.argmax(vals, axis=1)
    row_vals = vals[np.arange(vals.shape[0]), row_best]
    rows = np.argsort(-row_vals, kind="stable")[:_ROW_STARTS]
    rows = rows[row_vals[rows] > -np.inf]
    # the candidates' state is Python numbers, as few are live per step
    point, value = pts[rows, row_best[rows]].tolist(), row_vals[rows].tolist()
    center, room = list(point), [1.0 - abs(p) for p in point]
    h = [min(r, TWO_PI / grid.angles_per_circle) / 2.0 for r in room]
    tol, r_in = math.sqrt(np.finfo(float).eps), grid.r_max * (1.0 - 2.0 ** -50)
    pulled = [False] * len(point)
    live = each = range(len(point))
    disks = list(zip(np.ravel(disks[0]).tolist(), np.ravel(disks[1]).tolist()))
    inner = min((abs(q) - r for q, r in disks), default=math.inf)  # no disk reaches nearer 0
    for _ in range(_MAX_STEPS):
        # stopped: at the rounding, near a better candidate (stopped ones
        # too), or below the limit and pulled in or in a certified disk
        live = [i for i in live if h[i] >= tol * room[i]
                and not (value[i] < limit.value and (pulled[i] or abs(point[i]) >= inner and any(
                    abs(point[i] - q) <= r for q, r in disks)))
                and not any(value[j] > value[i] and abs(point[j] - point[i]) < h[i] for j in each)]
        if not live:
            break
        c = np.array([center[i] for i in live])
        step = np.array([h[i] for i in live]) * np.exp(1j * np.angle(c))
        w = _clip(c[:, None] + step[:, None] * _STENCIL, grid.r_max)
        f = np.asarray(objective(w), dtype=float).reshape(w.shape)
        _require_finite("objective during refinement", f)
        best = np.arange(len(live)), f.argmax(axis=1)
        for i, ci, si, m, f0, fb, wb in zip(live, c.tolist(), step.tolist(), (f @ _WEIGHTS).tolist(),
                                            f[:, 0].tolist(), f[best].tolist(), w[best].tolist()):
            # the trial point, pulled inside as _clip does
            t = ci + si * _model_step(*m)
            pulled[i] = abs(t) > r_in
            t *= min(1.0, r_in / (abs(t) + 1e-300))
            # the centre is a trial point unless it is the candidate's best point
            ok = ci == point[i] or f0 >= value[i]
            if fb > value[i]:
                point[i], value[i] = wb, fb
            center[i] = t if ok else point[i]
            room[i] = 1.0 - abs(center[i])
            h[i] = min(abs(t - ci) if ok else h[i] / 8.0, room[i] / 2.0)
    i = max(each, key=value.__getitem__)
    return NormEstimate(value=value[i], argmax=point[i]) if value[i] > limit.value else limit
