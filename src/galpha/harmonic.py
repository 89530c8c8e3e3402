"""Sheared harmonic mappings f = h + conj(g) with analytic part in the family.

The second part g is determined by the dilatation omega = g'/h' (with
g(0) = 0), so a map is specified by a family member plus a dilatation.
Sense-preservation requires sup |omega| < 1; the univalence criterion
implemented here is |omega(z)| <= 1 - alpha |z| (1 + |z|), which for
alpha < 1/2 guarantees the shear is injective, and holds iff
max_circle |omega| <= 1 - 2 alpha, by the maximum principle for the
subharmonic |omega| + alpha |z| + alpha |z|^2 (Ransford, Potential Theory
in the Complex Plane, CUP 1995).  Both conditions read one certified upper
bound on max_circle |omega|, computed once when the DilatationSpec is built.
Injectivity is checked only through the criterion, so only for alpha < 1/2.
"""

from __future__ import annotations

import math

import numpy as np

from .blaschke import BlaschkeProduct
from .complexfn import _Record, _require_finite
from .family import GAlphaFunction, _path_integral

_SENSE_MARGIN = 1e-9


class DilatationSpec(_Record):
    """An analytic dilatation with sup |omega| <= 1 - 1e-9 (sense-preserving).

    Either a polynomial sum_j c_j z^j or scale * phi for a finite Blaschke
    product phi; construct through the classmethods.  sup_bound holds the
    certified upper bound of _sup_on_circle, computed once for the guard
    from the read-only copy of the coefficients that the spec stores.
    """

    def __init__(self, coefficients: np.ndarray | None = None, scale: complex = 1.0 + 0.0j,
                 blaschke: BlaschkeProduct | None = None) -> None:
        if (coefficients is None) == (blaschke is None):
            raise ValueError("exactly one of coefficients/blaschke must be given")
        _require_finite("scale", scale)
        scale = complex(scale)
        if blaschke is None:
            if scale != 1.0:
                raise ValueError("scale applies to Blaschke dilatations only")
            coefficients = np.array(coefficients, dtype=complex, ndmin=1)
            if coefficients.ndim != 1 or coefficients.size == 0:
                raise ValueError("coefficients must be a nonempty 1-d array")
            _require_finite("coefficients", coefficients)
            coefficients.flags.writeable = False
        vars(self).update(coefficients=coefficients, scale=scale, blaschke=blaschke)
        vars(self)["sup_bound"] = _sup_on_circle(self)
        if self.sup_bound > 1.0 - _SENSE_MARGIN:
            raise ValueError("dilatation must satisfy sup |omega| <= 1 - 1e-9 "
                             "(sense-preserving)")

    @classmethod
    def constant(cls, value: complex) -> "DilatationSpec":
        return cls(coefficients=[value])

    @classmethod
    def monomial(cls, scale: complex, degree: int) -> "DilatationSpec":
        """omega(z) = scale * z^degree."""
        if degree < 1:
            raise ValueError("monomial degree must be at least 1")
        return cls(coefficients=[0j] * degree + [scale])

    @classmethod
    def polynomial(cls, coefficients) -> "DilatationSpec":
        """omega(z) = sum_j c_j z^j with the given coefficients c_0.."""
        return cls(coefficients=coefficients)

    @classmethod
    def blaschke_scaled(cls, scale: complex, phi: BlaschkeProduct) -> "DilatationSpec":
        """omega(z) = scale * phi(z)."""
        return cls(scale=scale, blaschke=phi)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.blaschke is None:
            # factor z^k out of zero c_0..c_(k-1): a monomial is one power
            k = int(np.argmax(self.coefficients != 0))
            out = z ** k * np.polynomial.polynomial.polyval(z, self.coefficients[k:])
        else:
            out = np.multiply(self.scale, self.blaschke(z))  # as the product applies its prefactor
        out = np.asarray(out, dtype=complex)
        return out[()] if out.ndim == 0 else out


class HarmonicMap(_Record):
    """f = h + conj(g), g' = omega * h', g(0) = 0; g integrates omega h'
    along [0, z] by the rule h uses, for |z| <= 1 - 1e-6."""

    def __init__(self, analytic_part: GAlphaFunction, dilatation: DilatationSpec) -> None:
        vars(self).update(analytic_part=analytic_part, dilatation=dilatation)

    def g(self, z):
        """g(z) = z * integral_0^1 omega(t z) h'(t z) dt."""
        hprime = self.analytic_part.hprime
        return _path_integral(z, lambda tz: self.dilatation(tz) * hprime(tz))

    def evaluate(self, z):
        """f(z) = h(z) + conj(g(z)), from one evaluation of h' on the rule's points."""
        def integrand(tz):
            hp = self.analytic_part.hprime(tz)
            return np.stack([hp, self.dilatation(tz) * hp], axis=1)

        h, g = _path_integral(z, integrand)
        return h + np.conj(g)

    def jacobian(self, z):
        """J(z) = |h'(z)|^2 - |g'(z)|^2 = |h'(z)|^2 (1 - |omega(z)|^2), as g' = omega h'."""
        hprime = self.analytic_part.hprime(z)
        return np.abs(hprime) ** 2 * (1.0 - np.abs(self.dilatation(z)) ** 2)


def _sup_on_circle(dilatation: DilatationSpec) -> float:
    """A certified upper bound on sup |omega| over the disk, its max on the
    circle: |scale| for scale * phi and |c| for one nonzero coefficient c.

    Otherwise |omega| = |q| on the circle, q = sum_j c_(low+j) z^j of degree
    n, and M, the largest |q| at N >= 64 n roots of unity, comes from one
    FFT.  Where |q| peaks, at theta*, f = Re(e^(-i arg q(theta*)) q) has
    f' = 0 and |f''| <= n^2 ||q|| (Bernstein's inequality; Borwein and
    Erdelyi, Polynomials and Polynomial Inequalities, Springer 1995), and a
    sample lies within pi/N, so ||q|| <= M/(1 - (pi n/N)^2/2), at most
    1.2e-3 above it.  Each of the log2 N butterfly stages moves a sample by
    a few ulps of sum_j |c_j|, which bounds every intermediate, so M is
    raised by 8 log2(N) eps sum_j |c_j|.
    """
    if dilatation.blaschke is not None:
        return abs(dilatation.scale)
    coeffs = dilatation.coefficients
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size <= 1:
        return float(np.max(np.abs(coeffs)))
    q = coeffs[nonzero[0]:nonzero[-1] + 1]
    n = q.size - 1
    size = 1 << (64 * n - 1).bit_length()
    rounding = 8.0 * math.log2(size) * np.finfo(float).eps * float(np.sum(np.abs(q)))
    peak = float(np.max(np.abs(np.fft.fft(q, size)))) + rounding
    return peak / (1.0 - 0.5 * (math.pi * n / size) ** 2)


def univalence_criterion(map_: HarmonicMap) -> tuple[bool, float]:
    """Check |omega(z)| <= 1 - alpha |z| (1 + |z|) on the disk.

    Returns (holds, margin) with margin = 1 - 2 alpha - omega.sup_bound,
    a lower bound on inf (1 - alpha |z| (1 + |z|)) - |omega(z)| that is exact
    when the sup is; the criterion guarantees univalence when alpha < 1/2.
    """
    margin = (1.0 - 2.0 * map_.analytic_part.alpha) - map_.dilatation.sup_bound
    return margin >= 0.0, margin

