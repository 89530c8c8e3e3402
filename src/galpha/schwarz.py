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
    """The radii r of the disks |z - p| <= r about p = conj(zeta_j), j the
    heaviest atom, on which the objectives are at most their limits L in
    exact arithmetic, inf for one atom: for rho = |z - p| <= cap each is at
    most L (1 + rho (max(Re A, 0) - 1/2) + rho^2 Q) (symbols and proof:
    TestCertifiedDisk in tests/test_certificates.py)."""
    w, poles, alpha = f.measure.weights, f.measure.poles, f.alpha
    j = int(np.argmax(w))
    p, t, d_t = complex(poles[j]), float(w[j]), 1.0 + 0.5 * alpha * float(w[j])
    rest = np.arange(w.size) != j
    others, ti = poles[rest], w[rest]
    if not ti.size:
        return [math.inf, math.inf]
    d = np.abs(p - others)
    cap = 0.5 * float(d.min())
    s1, s2, s3 = (float(ti @ (d - cap) ** -n) for n in (1, 2, 3))
    r = complex(ti @ (1.0 / (p - others)))
    b1 = (s2 / t, alpha * s2 / d_t
          + (s2 + 0.5 * alpha * s1 ** 2 + cap * (2.0 * s3 + alpha * s1 * s2)) / (t * d_t))
    a = (-p * r / t, -p * alpha * r / d_t)
    q = [0.5 * (x.imag ** 2 + abs(x) ** 2 + abs(x)) + b for x, b in zip(a, b1)]
    return [min(cap, (0.5 - max(x.real, 0.0)) / y) if x.real < 0.5 else 0.0 for x, y in zip(a, q)]


def norms(f: GAlphaFunction) -> SchwarzReport:
    """Estimate both hyperbolic norms and report them against the bounds.

    Off the atoms both objectives tend to 0 at the circle, so each search
    reports the heaviest atom's radial limit (`radial_limit_report`) unless
    a value one of its calls returns beats it.  Two sup_norm_estimate
    calls, one per objective, search DiskGrid(), built on the first call
    and kept, and each skips the grid.cells, one per (angle block, radius
    block), whose bound lies below its limit, and stops a candidate below
    its limit within _certified_radii of p = conj(zeta_j), j the heaviest
    atom, where no point beats it.  With d_k the distance from
    conj(zeta_k) to the cell r0 <= |z| <= r1, th0 <= arg z <= th1,
    |1 - zeta_k z| >= max(d_k, 1 - |z|) on it, so (1-|z|^2)/|1 - zeta_k z|
    is at most the cap c_k = (1 - rho^2)/max(d_k, 1 - rho) at
    rho = clip(1 - d_k, r0, r1), where it peaks over the cell:

        (1-|z|^2) |P|    <= alpha sum_k t_k c_k
        (1-|z|^2)^2 |S|  <= alpha sum_k t_k c_k^2 + (alpha sum_k t_k c_k)^2 / 2

    A lone atom's cell bounds are at most alpha t (1 + r_max) < 2 alpha t.
    """
    grid = _default_grid()
    floor = radial_limit_report(f)
    bounds, radii = _cell_bounds(f, *grid.cells), _certified_radii(f)
    pre = sup_norm_estimate(lambda z: np.abs(pre_schwarzian(f, z)) * (1.0 - np.abs(z) ** 2), grid,
                            limit=floor.pre_schwarzian_norm, cell_bounds=bounds[0], radius=radii[0])
    sch = sup_norm_estimate(lambda z: np.abs(schwarzian(f, z)) * (1.0 - np.abs(z) ** 2) ** 2, grid,
                            limit=floor.schwarzian_norm, cell_bounds=bounds[1], radius=radii[1])
    return SchwarzReport(pre, sch, f.alpha, "search")
