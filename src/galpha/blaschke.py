"""Finite Blaschke products and the boundary root structure of z*phi(z) = 1.

A degree-m product maps the disk to itself and the circle to the circle;
z*phi(z) then winds m+1 times around the circle with strictly increasing
phase, so z*phi(z) = 1 has exactly m+1 simple roots there.  Those roots and
their partial-fraction residues are what the disk-family correspondence
consumes.  The phase is lifted in closed form, factor by factor: on the
circle (z - b)/(1 - conj(b) z) = z w/conj(w) with w = 1 - b/z and Re w > 0,
so no sampled lift table is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexfn import (TWO_PI, ConvergenceError, DomainError, _blocks, _fields_equal,
                        _fields_hash, _one_minus, _require_finite)

_BOUNDARY_MARGIN = 1e-12  # zeros closer than this to the circle are rejected
_EPS = float(np.finfo(float).eps)
_POLISH_ITERS = 200  # every pass halves a root's bracket or its Newton step
_REACH = 1.0 + 1e-9  # the product takes |z| < _REACH


@dataclass(frozen=True)
class BlaschkeProduct:
    """prefactor * prod_k (z - b_k) / (1 - conj(b_k) z), all |b_k| < 1.

    The prefactor must be unimodular (within 1e-12; it is renormalized to
    exact unit modulus).  Zeros within 1e-12 of the circle are rejected:
    the roots of z*phi(z) = 1 collide with poles in that limit and the
    residues degenerate.  The stored zeros are a read-only copy.
    """

    zeros: np.ndarray
    prefactor: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        zeros = np.array(self.zeros, dtype=complex, ndmin=1)
        if zeros.ndim != 1:
            raise ValueError("zeros must be a 1-d array")
        _require_finite("zeros", zeros)
        if zeros.size and np.max(np.abs(zeros)) >= 1.0 - _BOUNDARY_MARGIN:
            raise ValueError("every zero must satisfy |b| < 1 - 1e-12")
        pre = complex(self.prefactor)
        _require_finite("prefactor", pre)
        if abs(abs(pre) - 1.0) > 1e-12:
            raise ValueError("prefactor must be unimodular within 1e-12")
        zeros.flags.writeable = False
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "prefactor", pre / abs(pre))

    __eq__ = _fields_equal
    __hash__ = _fields_hash

    @property
    def degree(self) -> int:
        return int(self.zeros.size)

    def __call__(self, z):
        """Evaluate the product for |z| < 1 + 1e-9 (poles raise DomainError)."""
        def kernel(zb, buf):
            denom = _one_minus(zb, np.conj(self.zeros), buf)
            if np.any(np.abs(denom) < 1e-12):
                raise DomainError("z coincides with a pole 1/conj(b)")
            # prefactor * (a temporary) would multiply in place, operands
            # swapped, and round unlike a call of another size
            return np.multiply(self.prefactor, np.prod(
                np.divide(zb[:, None] - self.zeros, denom, out=buf), axis=1))

        return _blocks(z, self.degree, kernel, _REACH)


def _lift(phi: BlaschkeProduct, t):
    """The offset Theta(t) - (m+1) t and the slope Theta'(t) - 1, where Theta
    lifts arg(e^(i t) phi(e^(i t))), both from one array w_k = 1 - b_k e^(-i t).

    Each factor equals e^(i t) w/conj(w) with Re w > 0, so its argument lifts
    to t + 2 arg(w) in closed form, with derivative (1 - |b|^2)/|w|^2, as
    |e^(i t) - b| = |w|; the slope is Re(z phi'(z)/phi(z)) on the circle.
    """
    b = phi.zeros
    w = 1.0 - np.exp(-1j * np.asarray(t, dtype=float))[..., None] * b
    # re^2 + im^2 rounds less than abs(b)**2; 1 - |b|^2 magnifies that
    scale = 1.0 - (b.real ** 2 + b.imag ** 2)
    return (2.0 * np.angle(w).sum(axis=-1) + np.angle(phi.prefactor),
            (scale / np.abs(w) ** 2).sum(axis=-1))


def boundary_roots(phi: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray]:
    """The m+1 roots z_k of z*phi(z) = 1 on the circle and their residues
    t_k = 1/(1 + z_k phi'(z_k)/phi(z_k)) in phi/(z phi - 1), which lie in
    (0, 1] and sum to 1 within 1e-10 (ConvergenceError otherwise).

    The closed-form lift Theta(t) of arg(z*phi(z)), z = e^(i t), increases
    strictly by 2 pi (m+1) over a full turn with Theta' > 1, so the roots are
    the m+1 solutions of Theta(t) = 2 pi j for the levels in
    [Theta(0), Theta(0) + 2 pi (m+1)).  They are polished together by
    Newton steps on (Theta - level)/(m+1), each guarded by its own bisection
    bracket in [0, 2 pi]; a root leaves the polish once it has converged, so
    only the unconverged roots are polished again.  Each is then finished
    with two Newton steps on the principal residual arg(z*phi(z)) with the
    slope of its own last polish step.  Each polish step reads Theta and
    Theta' from one pass of _lift over the (unconverged roots) x m array w,
    and the residues are 1/Theta' from one more pass.
    """
    m1 = phi.degree + 1
    theta0 = float(_lift(phi, 0.0)[0])
    # levels and residual are scaled by 1/(m+1), so no term grows like 2 pi m
    levels = TWO_PI * (math.ceil(theta0 / TWO_PI) + np.arange(m1)) / m1
    t, slope = np.empty(m1), np.empty(m1)
    # the polish state of the roots still moving; a done root's t and slope stay
    live, tl = np.arange(m1), levels - theta0 / m1
    lo, hi, step = np.zeros(m1), np.full(m1, TWO_PI), np.full(m1, TWO_PI)
    for _ in range(_POLISH_ITERS):
        offset, s = _lift(phi, tl)
        g = tl + offset / m1 - levels
        lo = np.where(g < 0.0, tl, lo)
        hi = np.where(g < 0.0, hi, tl)
        newton = tl - g * m1 / (1.0 + s)
        # near enough for the principal-residual steps, or t resolved to roundoff
        moving = ~((np.abs(g) * m1 <= 1e-10)
                   | (np.minimum(np.abs(newton - tl), hi - lo) <= _EPS * TWO_PI))
        t[live], slope[live] = tl, s
        if not moving.any():
            break
        live, tl, levels, lo, hi, step, newton = (
            a[moving] for a in (live, tl, levels, lo, hi, step, newton))
        bisect = ((newton < lo) | (newton > hi)
                  | (np.abs(newton - tl) > 0.5 * np.abs(step)))
        t_new = np.where(bisect, 0.5 * (lo + hi), newton)
        step, tl = t_new - tl, t_new
    else:
        raise ConvergenceError("boundary root polish did not converge")
    for _ in range(2):
        z = np.exp(1j * t)
        t = t - np.angle(z * phi(z)) / (1.0 + slope)
    residues = 1.0 / (1.0 + _lift(phi, t)[1])
    if abs(residues.sum() - 1.0) > 1e-10:
        raise ConvergenceError("boundary residues do not sum to 1 within 1e-10")
    return np.exp(1j * t), residues
