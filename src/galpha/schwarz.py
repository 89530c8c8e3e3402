"""Pre-Schwarzian and Schwarzian derivatives of family members, and their norms.

For a member with atoms zeta_k, weights t_k:

    P(z)  = h''/h'        = -alpha sum_k t_k zeta_k/(1 - zeta_k z)
                          = alpha sum_k t_k/(z - p_k) = alpha T(z)
    S(z)  = P' - P^2/2    = -alpha sum_k t_k zeta_k^2/(1 - zeta_k z)^2 - P^2/2

with p_k = conj(zeta_k) and T as in `induced_self_map`, whose terms
1/(p_k - z) both kernels form, and with hyperbolic norms sup (1-|z|^2)|P|
and sup (1-|z|^2)^2 |S|.  The sharp
bounds are 2 alpha and 2 alpha (2 + alpha), attained by single-atom members;
for alpha < 1/2 the pre-Schwarzian bound yields a quasiconformal extension
with constant (1 + 2 alpha)/(1 - 2 alpha).  `norms` bounds both objectives
on the cells of the one DiskGrid in closed form, by a cap per atom, and
searches each in its own sweep and ascent; `radial_limit_report` gives
each norm's closed-form enclosure with no search.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .complexfn import TWO_PI, DiskGrid, NormEstimate, _blocks, _Record, sup_norm_estimate
from .family import GAlphaFunction, _pole_terms

_default_grid = functools.cache(DiskGrid)
# _certified_radii's trial radii R, in units of the cap, and the powers n of its s_n
_TRIAL_RADII, _POWERS = 0.5 ** np.arange(6), np.arange(1, 4)[:, None, None]


def pre_schwarzian(f: GAlphaFunction, z):
    """P(z) = h''(z)/h'(z)."""
    return f.hprime_log_derivative(z)


def schwarzian(f: GAlphaFunction, z):
    """S(z) = P'(z) - P(z)^2/2, both terms in closed form.

    With g_k = zeta_k/(1 - zeta_k z) = 1/(p_k - z), formed once per slice
    in pole form, P = -alpha sum_k t_k g_k and P' = -alpha sum_k t_k g_k^2.
    """
    poles, weights, alpha = f.measure.poles, f.measure.weights, f.alpha

    def kernel(zb, buf):
        g = _pole_terms(zb, poles, buf)
        p = -alpha * (g @ weights)
        return -alpha * (np.multiply(g, g, out=g) @ weights) - 0.5 * p ** 2

    return _blocks(z, f.measure.count, kernel)


def _radial_limits(alpha, t):
    """Both objectives' radial limits toward an atom of weight t (at t = 1, the bounds)."""
    return 2.0 * alpha * t, 2.0 * alpha * t * (2.0 + alpha * t)


class SchwarzReport(_Record):
    """Norm estimates next to the family's sharp bounds, which follow from alpha.

    source says where the estimates came from: "search" (`norms`) or
    "radial_limit" (`radial_limit_report`).  qc_constant is present exactly
    when alpha < 1/2, where the member has a quasiconformal extension with
    that constant.
    """

    def __init__(self, pre_schwarzian_norm: NormEstimate, schwarzian_norm: NormEstimate,
                 alpha: float, source: str) -> None:
        vars(self).update(pre_schwarzian_norm=pre_schwarzian_norm,
                          schwarzian_norm=schwarzian_norm, alpha=alpha, source=source)

    @property
    def pre_schwarzian_bound(self) -> float:
        return _radial_limits(self.alpha, 1.0)[0]

    @property
    def schwarzian_bound(self) -> float:
        return _radial_limits(self.alpha, 1.0)[1]

    @property
    def qc_constant(self) -> float | None:
        return (1.0 + 2.0 * self.alpha) / (1.0 - 2.0 * self.alpha) if self.alpha < 0.5 else None

    def to_dict(self) -> dict:
        """The report's JSON `schwarz` block."""
        pre, sch = self.pre_schwarzian_norm.argmax, self.schwarzian_norm.argmax
        return {
            "alpha": self.alpha,
            "pre_schwarzian_norm": self.pre_schwarzian_norm.value,
            "pre_schwarzian_bound": self.pre_schwarzian_bound,
            "schwarzian_norm": self.schwarzian_norm.value,
            "schwarzian_bound": self.schwarzian_bound,
            "qc_constant": self.qc_constant,
            "pre_schwarzian_argmax": [pre.real, pre.imag],
            "schwarzian_argmax": [sch.real, sch.imag],
            "norm_source": self.source,
        }


def radial_limit_report(f: GAlphaFunction) -> SchwarzReport:
    """Both norms' closed-form enclosure [limit, bound], with no search: the
    heaviest atom's radial limits, approached as z -> conj(zeta_k) (the
    argmax, on the circle), so lower bounds on the suprema."""
    k = int(np.argmax(f.measure.weights))
    at = complex(f.measure.poles[k])
    pre, sch = (NormEstimate(v, at) for v in _radial_limits(f.alpha, float(f.measure.weights[k])))
    return SchwarzReport(pre, sch, f.alpha, "radial_limit")


def _cell_bounds(f: GAlphaFunction, r0, r1, th0, th1):
    """The bounds of `norms` on the sectors r0 <= |z| <= r1, th0 <= arg z <= th1,
    (1-|z|^2)|P| and (1-|z|^2)^2 |S| stacked, shape (2,) + the broadcast
    shape of the four bound arrays.  DiskGrid.cells gives th0 and th1 as a
    column of angle blocks and r0 and r1 as a row of radius blocks, so the
    angular terms are formed once per (atom, angle block).

    With delta the angular gap from arg conj(zeta_k) to the sector (0 in
    it) and r = clip(cos delta, r0, r1), where cos delta is taken as
    1 - 2 sin^2(delta/2), d_k = sqrt((1 - r)^2 + 4 r sin^2(delta/2)), free
    of the cancellation in 1 + r^2 - 2 r cos delta.  The cap c_k is taken
    at u = 1 - rho = clip(d_k, 1 - r1, 1 - r0) as u (2 - u)/max(d_k, u), and
    raised by 16 eps/(1 - r1) to cover the rounding here and the
    few-eps absolute errors of the objectives' 1 - |z|^2 and 1 - zeta_k z
    near the circle.
    """
    # gap runs counterclockwise from th0 to arg conj(zeta_k): delta is how
    # far that passes th1, or 2 pi - gap back to th0, whichever is smaller
    gap = np.subtract.outer(np.mod(-f.measure.angles, TWO_PI), th0)
    gap = np.where(gap < 0.0, gap + TWO_PI, gap)
    delta = np.maximum(np.minimum(gap - (th1 - th0), TWO_PI - gap), 0.0)
    half_sin2 = np.sin(delta * 0.5) ** 2
    r = np.minimum(np.maximum(1.0 - half_sin2 * 2.0, r0), r1)
    d = half_sin2 * 4.0 * r
    d += np.square(np.subtract(1.0, r, out=r), out=r)
    u = np.minimum(np.maximum(np.sqrt(d, out=d), 1.0 - r1, out=r), 1.0 - r0, out=r)
    c = np.divide(u, np.maximum(d, u, out=d), out=d)
    c *= 2.0 - u
    t = np.multiply(f.measure.weights.reshape((-1,) + (1,) * (c.ndim - 1)), c, out=u)
    s1 = f.alpha * t.sum(axis=0)
    s2 = f.alpha * np.multiply(t, c, out=c).sum(axis=0)
    allowance = 1.0 + 16.0 * np.finfo(float).eps / (1.0 - r1)
    return np.stack([allowance * s1, allowance ** 2 * (s2 + 0.5 * s1 ** 2)])


def _certified_radii(f: GAlphaFunction):
    """The radii r, shape (2, m), of the disks |z - p_j| <= r about the poles
    p_j = conj(zeta_j), one per objective and atom, on which each objective
    is at most its limit L, the heaviest atom's, in exact arithmetic; inf
    for one atom.  At an atom of the largest weight t (ties too), r is the
    best min(R, (1/2 - max(Re A, 0))/Q(R)) of R = cap 2^-k, k = 0..5, cap
    half the distance to the nearest other pole; at a lighter atom, r =
    min(d_j/2, (t - t_j)/(2 sum_k t_k/d_jk)), d_jk the distances to the
    other poles and d_j the least.  Symbols and proofs: TestCertifiedDisk
    in tests/test_certificates.py, whose 40-digit check fails at r x 1.25
    and passes at r x 1.15: the first excess above L lies at 1.19 r on its
    tightest heaviest disk and beyond 2 r on every lighter one.
    """
    w, poles, alpha = f.measure.weights, f.measure.poles, f.alpha
    if w.size == 1:
        return np.full((2, 1), math.inf)
    diff = np.subtract.outer(poles, poles)
    diff.flat[::w.size + 1] = math.inf  # so each pole's own terms vanish
    dist = np.abs(diff)
    cap, t = 0.5 * dist.min(axis=1), max(w.tolist())
    light = np.minimum(cap, (t - w) / (2.0 * ((1.0 / dist) @ w)))
    radii, d_t = np.array([light, light]), 1.0 + 0.5 * alpha * t
    for j in (k for k, x in enumerate(w.tolist()) if x == t):
        big_r = cap[j] * _TRIAL_RADII
        sums = ((1.0 / (dist[j] - big_r[:, None])) ** _POWERS @ w).T.tolist()
        a = -complex(poles[j]) * complex((1.0 / diff[j]) @ w) / t
        a = a, a * alpha * t / d_t
        lead = [0.5 - max(x.real, 0.0) for x in a]
        q, best = [0.5 * (x.imag ** 2 + abs(x) ** 2 + abs(x)) for x in a], [0.0, 0.0]
        for big, (s1, s2, s3) in zip(big_r.tolist(), sums):
            b1 = s2 / t, ((1.0 + alpha * t) * s2 + alpha * s1 * (0.5 * s1 + big * s2)
                          + 2.0 * big * s3) / (t * d_t)
            best = [max(r, min(big, x / (y + z))) for r, x, y, z in zip(best, lead, q, b1)]
        radii[:, j] = best
    return radii


def _objectives(f: GAlphaFunction):
    """The objectives of `norms`, (1-|z|^2)|P| and (1-|z|^2)^2 |S|; a 0-d z runs as a
    one-point array, as numpy's scalar math rounds a lone point apart."""
    def objective(kernel, k):
        def value(z):
            z = np.asarray(z, dtype=complex)
            if z.ndim == 0:
                return value(z.reshape(1))[0]
            weight = 1.0 - np.abs(z) ** 2
            return np.abs(kernel(f, z)) * (weight if k == 1 else weight ** k)
        return value
    return objective(pre_schwarzian, 1), objective(schwarzian, 2)


def norms(f: GAlphaFunction) -> SchwarzReport:
    """Estimate both hyperbolic norms and report them against the bounds.

    Off the atoms both objectives tend to 0 at the circle, so each search
    reports the heaviest atom's radial limit (`radial_limit_report`) unless
    a value one of its calls returns beats it.  Two sup_norm_estimate
    calls, one per objective, search DiskGrid(), built on the first call
    and kept, and each skips the grid.cells, one per (angle block, radius
    block), whose bound lies below its limit, and stops a candidate below
    its limit in the disks of _certified_radii, one about each pole
    conj(zeta_k), where no point beats it.  With d_k the distance from
    conj(zeta_k) to the cell r0 <= |z| <= r1, th0 <= arg z <= th1,
    |1 - zeta_k z| >= max(d_k, 1 - |z|) on it, so (1-|z|^2)/|1 - zeta_k z|
    is at most the cap c_k = (1 - rho^2)/max(d_k, 1 - rho) at
    rho = clip(1 - d_k, r0, r1), where it peaks over the cell:

        (1-|z|^2) |P|    <= alpha sum_k t_k c_k
        (1-|z|^2)^2 |S|  <= alpha sum_k t_k c_k^2 + (alpha sum_k t_k c_k)^2 / 2

    A lone atom's cell bounds are at most alpha t (1 + r_max) < 2 alpha t.
    """
    grid, floor = _default_grid(), radial_limit_report(f)
    limits = floor.pre_schwarzian_norm, floor.schwarzian_norm
    pre, sch = (sup_norm_estimate(objective, grid, limit=limit, cell_bounds=bounds,
                                  disks=(f.measure.poles, radii))
                for objective, limit, bounds, radii in zip(
                    _objectives(f), limits, _cell_bounds(f, *grid.cells), _certified_radii(f)))
    return SchwarzReport(pre, sch, f.alpha, "search")
