"""Finite Blaschke products and the boundary root structure of z*phi(z) = 1.

A degree-m product maps the disk to itself and the circle to the circle;
z*phi(z) then winds m+1 times around the circle with strictly increasing
phase, so z*phi(z) = 1 has exactly m+1 simple roots there: with their
partial-fraction residues, they are what the disk-family correspondence consumes.
"""

from __future__ import annotations

import math

import numpy as np

from .complexfn import TWO_PI, ConvergenceError, DomainError, _blocks, _Record, _require_finite

_BOUNDARY_MARGIN = 1e-12  # zeros closer than this to the circle are rejected
_EPS = float(np.finfo(float).eps)
_POLISH_ITERS = 200  # every pass halves a root's bracket or its Newton step
_REACH = 1.0 + 1e-9  # the product takes |z| < _REACH


class BlaschkeProduct(_Record):
    """prefactor * prod_k (z - b_k) / (1 - conj(b_k) z), all |b_k| < 1.

    The prefactor must be unimodular (within 1e-12; it is renormalized to
    exact unit modulus).  Zeros within 1e-12 of the circle are rejected:
    the roots of z*phi(z) = 1 collide with poles in that limit and the
    residues degenerate.  The stored zeros are a read-only copy.
    """

    def __init__(self, zeros: np.ndarray, prefactor: complex = 1.0 + 0.0j) -> None:
        zeros = np.array(zeros, dtype=complex, ndmin=1)
        if zeros.ndim != 1:
            raise ValueError("zeros must be a 1-d array")
        _require_finite("zeros", zeros)
        if zeros.size and np.max(np.abs(zeros)) >= 1.0 - _BOUNDARY_MARGIN:
            raise ValueError("every zero must satisfy |b| < 1 - 1e-12")
        pre = complex(prefactor)
        _require_finite("prefactor", pre)
        if abs(abs(pre) - 1.0) > 1e-12:
            raise ValueError("prefactor must be unimodular within 1e-12")
        zeros.flags.writeable = False
        vars(self).update(zeros=zeros, prefactor=pre / abs(pre))

    @property
    def degree(self) -> int:
        return int(self.zeros.size)

    def __call__(self, z):
        """Evaluate the product for |z| < 1 + 1e-9 (poles raise DomainError).

        A slice's buffer holds, zero by zero, rows of the denominators
        1 - conj(b_k) z and of the ratios (z - b_k)/denominator, so the
        product over zeros multiplies whole contiguous rows.
        """
        m, b = self.degree, self.zeros[:, None]

        def kernel(zb, buf):
            denom, ratio = buf.reshape(2, m, zb.size)
            np.subtract(1.0, np.multiply(np.conj(b), zb, out=denom), out=denom)  # >= 1 - |z|
            if np.any(np.abs(denom[:, np.abs(zb) > 1.0 - 2e-12]) < 1e-12):
                raise DomainError("z coincides with a pole 1/conj(b)")
            np.divide(np.subtract(zb, b, out=ratio), denom, out=ratio)
            # prefactor * (a temporary) would multiply in place and round by call size
            return np.multiply(self.prefactor, np.prod(ratio, axis=0))

        return _blocks(z, 2 * m, kernel, _REACH)


def _slope(phi: BlaschkeProduct, w):
    """Theta'(t) - 1 = sum_k (1 - |b_k|^2)/|w_k|^2 from w_k = 1 - b_k e^(-i t)."""
    # re^2 + im^2 rounds less than abs(b)**2; 1 - |b|^2 magnifies that
    return ((1.0 - (phi.zeros.real ** 2 + phi.zeros.imag ** 2)) / np.abs(w) ** 2).sum(axis=-1)


def _lift(phi: BlaschkeProduct, t):
    """The offset Theta(t) - (m+1) t and the slope Theta'(t) - 1 of the lift
    Theta of arg(e^(i t) phi(e^(i t))), from one array w_k = 1 - b_k e^(-i t):
    on the circle each factor is e^(i t) w/conj(w), Re w > 0, of argument t + 2 arg(w)."""
    w = 1.0 - np.exp(-1j * np.asarray(t, dtype=float))[..., None] * phi.zeros
    return 2.0 * np.angle(w).sum(axis=-1) + np.angle(phi.prefactor), _slope(phi, w)


def _sampled_start(phi: BlaschkeProduct):
    """boundary_roots' levels, scaled by 1/(m+1), and each one's start and bracket."""
    b, m1 = phi.zeros, phi.degree + 1
    gap = 1.0 - np.abs(b)
    near = gap < TWO_PI / m1
    around = np.angle(b[near])[:, None] + gap[near][:, None] * np.array([0, -1, 1, -4, 4, -16, 16])
    t = np.sort(np.concatenate((TWO_PI * np.arange(m1 + 1) / m1, np.ravel(around % TWO_PI))))
    offset, slope = _lift(phi, t)
    # levels and lift are scaled by 1/(m+1), so no term grows like 2 pi m
    levels = TWO_PI * (math.ceil(offset[0] / TWO_PI) + np.arange(m1)) / m1
    g, dt = t + offset / m1, m1 / (1.0 + slope)  # the scaled lift and dt/dg
    rounding = 32.0 * _EPS * (m1 + (1.0 / gap).sum()) / m1
    below, above = np.searchsorted(g, (levels - rounding, levels + rounding))
    lo = np.clip(below - 1, 0, t.size - 2)
    hi = np.clip(above, lo + 1, t.size - 1)
    u = (levels - g[lo]) / (g[hi] - g[lo])
    start = t[lo] + u * u * (3.0 - 2.0 * u) * (t[hi] - t[lo]) + (g[hi] - g[lo]) * u * (
        1.0 - u) * ((1.0 - u) * dt[lo] - u * dt[hi])
    return levels, np.clip(start, t[lo], t[hi]), t[lo], t[hi]


def boundary_roots(phi: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """The m+1 roots z_k of z*phi(z) = 1 on the circle and their residues
    t_k = 1/(1 + z_k phi'(z_k)/phi(z_k)) in phi/(z phi - 1), which lie in
    (0, 1] and sum to 1 within 1e-10 (ConvergenceError otherwise).

    The lift Theta(t) of arg(z*phi(z)), z = e^(i t), rises by 2 pi (m+1) over a
    turn with Theta' > 1: the roots solve Theta(t) = 2 pi j for the m+1 levels
    in [Theta(0), Theta(0) + 2 pi (m+1)).  _sampled_start reads Theta in one
    _lift pass at 2 pi k/(m+1), k = 0..m+1, and at arg b + (1 - |b|){0, +-1,
    +-4, +-16} for each zero b with 1 - |b| below that spacing.  A root's
    bracket [lo, hi] ends at the samples that miss its level by more than
    Theta's rounding, 32 eps (m+1 + sum_b 1/(1 - |b|)), so Theta(lo) <= level
    <= Theta(hi) holds exactly; it starts at the cubic Hermite interpolant of
    t(Theta).  Newton steps on (Theta - level)/(m+1), kept in the shrinking
    brackets, polish every root in every pass, a converged root held still,
    so lo and hi end as every root's last bracket.  The finishing step, one
    step on arg(z*phi(z)) with the last polish slope, ends each root, and its
    residue is 1/Theta'.
    """
    m1 = phi.degree + 1
    levels, t, lo, hi = _sampled_start(phi)
    step = np.full(m1, TWO_PI)
    for _ in range(_POLISH_ITERS):
        offset, slope = _lift(phi, t)
        g = t + offset / m1 - levels
        lo = np.where(g < 0.0, t, lo)
        hi = np.where(g < 0.0, hi, t)
        newton = t - g * m1 / (1.0 + slope)
        # near enough for the principal-residual step, or t resolved to roundoff
        done = ((np.abs(g) * m1 <= 1e-10)
                | (np.minimum(np.abs(newton - t), hi - lo) <= _EPS * TWO_PI))
        if done.all():
            break
        bisect = ((newton < lo) | (newton > hi)
                  | (np.abs(newton - t) > 0.5 * np.abs(step)))
        t_new = np.where(done, t, np.where(bisect, 0.5 * (lo + hi), newton))
        step, t = t_new - t, t_new
    else:
        raise ConvergenceError("boundary root polish did not converge")
    z = np.exp(1j * t)
    t = t - np.angle(z * phi(z)) / (1.0 + slope)
    residues = 1.0 / (1.0 + _slope(phi, 1.0 - np.exp(-1j * t)[:, None] * phi.zeros))
    if abs(residues.sum() - 1.0) > 1e-10:
        raise ConvergenceError("boundary residues do not sum to 1 within 1e-10")
    return np.exp(1j * t), residues
