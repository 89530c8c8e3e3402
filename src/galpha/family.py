"""The disk family G(alpha) built from finite atomic boundary measures.

A member is determined by alpha in (0, 1] and finitely many unit-circle
atoms zeta_k with weights t_k summing to 1:

    h'(z) = prod_k (1 - zeta_k z)^(alpha t_k),     h(0) = 0, h'(0) = 1.

Every such h satisfies Re(z h''(z) / (alpha h'(z))) < 1/2 on the disk; h
itself, and the harmonic g, are integrals of this closed form along [0, z].
The module also carries both directions of the correspondence with finite
Blaschke products: the boundary roots of z*phi(z) = 1 give a measure, and a
measure induces the disk self-map phi with z h''/h' = alpha * z phi/(z phi - 1).
"""

from __future__ import annotations

import functools

import numpy as np

from .blaschke import BlaschkeProduct, boundary_roots
from .complexfn import (TWO_PI, ConvergenceError, DomainError, _blocks, _one_minus, _Record,
                        _require_finite)

_MIN_SEPARATION = 1e-9
_WEIGHT_SUM_TOL = 1e-12
# h and g integrate h' on |z| <= _PATH_LIMIT, checked with an ulp to spare
# for |r e^(i theta)| rounding above r, on panels of 10 Gauss-Legendre nodes
_PATH_LIMIT = 1.0 - 1e-6


def _gamma(k):
    """Higham's gamma_k = k u/(1 - k u) for the unit roundoff u = 2^-53."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


@functools.cache
def _gauss_legendre():
    """The rule, formed on first use, as importing numpy.polynomial costs ~1 MB."""
    return np.polynomial.legendre.leggauss(10)


@functools.lru_cache(maxsize=64)
def _fixed_terms(n_max, m):
    """coefficients' terms in n_max and the atom count m alone, read-only: n = 1..n_max,
    gamma_(5j+3m+6) and sqrt(2) gamma_(2j+2) for j < n_max - 1; 1 + gamma_(16 n_max + 64)."""
    n, j = np.arange(1, n_max + 1), np.arange(n_max - 1)
    terms = n, _gamma(5 * j + 3 * m + 6), np.sqrt(2.0) * _gamma(2 * j + 2)
    for array in terms:
        array.flags.writeable = False
    return *terms, 1.0 + _gamma(16 * n_max + 64)


def _path_integral(z, integrand):
    """z * integral_0^1 F(t z) dt for |z| <= _PATH_LIMIT, where F = integrand
    maps the points t_j z, stacked on a new leading axis, to values on it.

    The result has any axes F adds after the leading one, then z's shape,
    and is a numpy scalar for 0-d z.  F's singularities have modulus >= 1/r, r = max |z|, so each
    panel [1 - 2^-j, 1 - 2^-(j+1)], and the last, [1 - 2^-J, 1] with
    2^-J <= 1 - r < 1/r - 1, lies a panel length from them, outside its
    Bernstein ellipse of parameter 4.2: 10 nodes err by ~4.2^-20 relative
    (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
    ch. 19), with 80 nodes in all at r = 0.99 and 210 at r = 1 - 1e-6.
    """
    z = np.asarray(z, dtype=complex)
    _require_finite("z", z)
    r = float(np.max(np.abs(z), initial=0.0))
    if r > _PATH_LIMIT + 4.0 * np.finfo(float).eps:
        raise DomainError("h and g are evaluated on |z| <= 1 - 1e-6")
    ends = np.append(1.0 - 0.5 ** np.arange(np.ceil(-np.log2(1.0 - r)) + 1), 1.0)
    nodes, weights = _gauss_legendre()
    out = 0.0
    for a, half in zip(ends, 0.5 * np.diff(ends)):  # 10 values per point at a time
        t = a + half * (1.0 + nodes)
        out = out + np.tensordot(half * weights, integrand(np.multiply.outer(t, z)), 1)
    return z * out  # a ufunc on 0-d operands returns a numpy scalar


def _pole_terms(z, poles, out):
    """g_k = 1/(p_k - z) = zeta_k/(1 - zeta_k z), p_k = conj(zeta_k), for 1-d z, in out."""
    return np.reciprocal(np.subtract(poles, z[:, None], out=out), out=out)


def _log_sum(u, weights):
    """L = sum_k t_k Log u_k for the u_k = 1 - zeta_k z of points in the disk.

    Re(u_k) > 0 there, so arctan2 gives the principal argument; this is
    several times faster than numpy's complex log.  The log-modulus is one
    1/2 log(Re^2 + Im^2) everywhere: it errs by a few ulps absolutely, and
    so loses the relative digits of a small L near z = 0, but h' = exp(alpha
    L) turns an absolute error in L into the same relative error in h'.
    einsum sums each row alike wherever it lies, where a BLAS product
    rounds it by its place, so h' at a point is the same in any call.
    """
    re, im = u.real, u.imag
    buf = re * re
    buf += im * im
    np.log(buf, out=buf)
    log_modulus = 0.5 * np.einsum("ij,j->i", buf, weights)
    return log_modulus + 1j * np.einsum("ij,j->i", np.arctan2(im, re, out=buf), weights)


class AtomicMeasure(_Record):
    """Finitely many point masses on the unit circle, weights summing to 1.

    Angles are canonicalized to [0, 2 pi) and sorted ascending; weights are
    renormalized when their sum deviates from 1 by at most 1e-12 and
    rejected otherwise.  The four arrays are read-only; atoms holds the atom
    positions zeta_k = e^(i angle_k) and poles their conjugates p_k, formed
    once for every kernel and, as they follow from angles, outside ==, hash and repr.
    """

    def __init__(self, angles: np.ndarray, weights: np.ndarray) -> None:
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        _require_finite("angles", angles)
        _require_finite("weights", weights)
        if angles.shape != weights.shape or angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles and weights must be matching 1-d arrays")
        if np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in (0, 1]")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        angles = np.mod(angles, TWO_PI)
        angles[angles == TWO_PI] = 0.0  # np.mod(-1e-20, 2 pi) rounds to 2 pi
        order = np.argsort(angles)
        angles, weights = angles[order], weights[order]
        if angles.size > 1:
            gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
            if np.min(gaps) <= _MIN_SEPARATION:
                raise ValueError("atom angles must be pairwise distinct "
                                 "(separation > 1e-9)")
        # angles[order] and the arrays formed from it are the measure's own
        arrays = dict(angles=angles, weights=weights / weights.sum(), atoms=np.exp(1j * angles))
        arrays["poles"] = np.conj(arrays["atoms"])
        for array in arrays.values():
            array.flags.writeable = False
        vars(self).update(arrays)

    @property
    def count(self) -> int:
        return int(self.angles.size)


def single_atom(theta: float = 0.0) -> AtomicMeasure:
    """The one-atom measure; its member is the extremal h'(z) = (1 - zeta z)^alpha."""
    return AtomicMeasure(angles=[theta], weights=[1.0])


def roots_of_unity_measure(count: int) -> AtomicMeasure:
    """Equal weights at the count-th roots of unity.

    With count = n - 1 this generates the member attaining the coefficient
    bound at index n: h'(z) = (1 - z^(n-1))^(alpha/(n-1)).
    """
    if count < 1:
        raise ValueError("count must be positive")
    return AtomicMeasure(angles=TWO_PI * np.arange(count) / count,
                         weights=np.full(count, 1.0 / count))


def measure_from_blaschke(phi: BlaschkeProduct) -> AtomicMeasure:
    """Forward correspondence: the atoms are zeta_k = conj(z_k) for the roots
    z_k of z*phi(z) = 1 on the circle, weighted by their residues.

    The residues sum to 1 only within the root solver's 1e-10, so they are
    renormalized here before the measure's stricter 1e-12 applies.
    """
    roots, residues = boundary_roots(phi)
    return AtomicMeasure(angles=-np.angle(roots), weights=residues / residues.sum())


def blaschke_from_measure(measure: AtomicMeasure) -> BlaschkeProduct:
    """Inverse correspondence as an explicit product with zeros and prefactor.

    The induced self-map is T/(zT - 1) with T(z) = sum_k t_k/(z - p_k),
    p_k = conj(zeta_k), so its zeros are those of T.  With j the heaviest
    atom and sum_k t_k = 1,

        (z - p_j) T(z) = 1 + sum_{k != j} c_k/(z - p_k),  c_k = t_k (p_k - p_j),

    so the numerator N(z) = sum_k t_k prod_{i != k} (z - p_i) is the
    characteristic polynomial of the diagonal-plus-rank-one matrix
    diag(p_k) - c 1^T over k != j (Golub, "Some modified matrix eigenvalue
    problems", SIAM Review 15, 1973): the zeros are its eigenvalues, and
    N's monomial coefficients are never formed.  T(b) = 0 makes b a convex
    combination of the p_k, with weights t_k/|b - p_k|^2, so the zeros lie
    in the closed disk (the Gauss-Lucas argument; Marden, Geometry of
    Polynomials, AMS 1966).  The prefactor is fixed by matching phi at the
    one of 16 points on |z| = 0.9 where |B| is largest: with zeros near the
    circle, |B| at a fixed point can fall below 1e-15 at degree 96.
    """
    poles, weights = measure.poles, measure.weights
    pivot = int(np.argmax(weights))
    others = np.delete(poles, pivot)
    c = np.delete(weights, pivot) * (others - poles[pivot])
    try:
        zeros = np.linalg.eigvals(np.diag(others) - c[:, None])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"the zeros' eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(zeros)):
        raise ConvergenceError("the zeros' eigensolve returned non-finite values")
    if zeros.size and np.max(np.abs(zeros)) >= 1.0 - 1e-12:
        raise ConvergenceError("recovered zeros touch the unit circle; "
                               "the measure is too close to degenerate")
    ring = 0.9 * np.exp(1j * TWO_PI * np.arange(16) / 16)
    values = BlaschkeProduct(zeros=zeros)(ring)
    k = int(np.argmax(np.abs(values)))
    prefactor = complex(induced_self_map(measure, ring[k]) / values[k])
    if not abs(abs(prefactor) - 1.0) <= 1e-6:  # NaN where B underflows on the ring
        raise ConvergenceError("recovered prefactor is not unimodular")
    return BlaschkeProduct(zeros=zeros, prefactor=prefactor / abs(prefactor))


def induced_self_map(measure: AtomicMeasure, z):
    """The disk self-map phi determined by the measure, evaluated pointwise.

    phi = T/(zT - 1) with T(z) = sum_k t_k/(z - conj(zeta_k)), which is
    P = h''/h' of the alpha = 1 member, formed by complexfn's _blocks; the
    formula is regular at z = 0 where it returns sum_k t_k zeta_k.  z must lie
    in the open disk: |z| >= 1 raises DomainError("evaluation requires |z| < 1.0").
    phi is formed on arrays, as numpy's scalar math rounds a lone point apart.
    """
    z = np.asarray(z, dtype=complex)
    t = np.ravel(GAlphaFunction(alpha=1.0, measure=measure).hprime_log_derivative(z))
    return (t / (z.ravel() * t - 1.0)).reshape(z.shape)[()]


class GAlphaFunction(_Record):
    """A member of the family: alpha in (0, 1] plus an atomic measure."""

    def __init__(self, alpha: float, measure: AtomicMeasure) -> None:
        _require_finite("alpha", alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        vars(self).update(alpha=alpha, measure=measure)

    def hprime(self, z):
        """h'(z) = prod_k (1 - zeta_k z)^(alpha t_k) = exp(alpha L); h'(0) = 1."""
        atoms, weights, alpha = self.measure.atoms, self.measure.weights, self.alpha
        return _blocks(z, self.measure.count, lambda zb, buf: np.exp(
            alpha * _log_sum(_one_minus(zb, atoms, buf), weights)))

    def hprime_log_derivative(self, z):
        """h''(z)/h'(z) = -alpha sum_k t_k zeta_k/(1 - zeta_k z) = alpha sum_k t_k/(z - p_k)
        = alpha T, for `induced_self_map`'s T and its poles p_k = conj(zeta_k)."""
        poles, weights, alpha = self.measure.poles, self.measure.weights, self.alpha
        return _blocks(z, self.measure.count,
                       lambda zb, buf: -alpha * (_pole_terms(zb, poles, buf) @ weights))

    def coefficients(self, n_max: int, error_bound: bool = False):
        """Taylor coefficients a_1..a_n_max of h (a_1 = 1, a_n = c_(n-1)/n).

        The Maclaurin coefficients c_j of h' come from h'' = P h': P = h''/h'
        = sum_j p_j z^j with p_j = -alpha sum_k t_k zeta_k^(j+1), so c_0 = 1
        and c_(n+1) = (1/(n+1)) sum_(j<=n) p_(n-j) c_j (Knuth, TAOCP vol. 2,
        4.7).  The powers zeta_k^j come from a cumulative product: cos/sin of
        j theta_k would inherit the rounding of j theta_k, ~1.5e-13 alpha/n at
        n = 255 against <= 1e-14 alpha/n here.  p_j is summed over atoms
        elementwise, as a threaded complex BLAS product of this skinny shape
        can stall for milliseconds.  Each step dots c with a slice of p reversed
        once, the BLAS dot numpy runs on a copy of p[n::-1]: the same arithmetic.

        Every member satisfies |a_n| <= alpha/(n (n-1)) for n >= 2, with
        equality at index n for the equal-weight measure on the (n-1)-th
        roots of unity.  With error_bound it returns (a, E), E_n >= |a_n - a*_n|
        for the exact a*_n, if sin and cos err by at most an ulp.  In Higham's
        gamma_k (Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
        2002, ch. 3), p_j errs by at most q_j = alpha gamma_(5j+3m+6) for m
        atoms, and c_n by e_n: e_0 = 0 and (n+1) e_(n+1) = (n+1) gamma_3 |c_(n+1)|
        + sum_(j<=n) ((q_(n-j) + sqrt(2) gamma_(2n+2) |p_(n-j)|) |c_j| + alpha e_j).
        So E_n = e_(n-1)/n + gamma_3 |a_n|, raised by a relative
        gamma_(16 n_max + 64) for its own rounding (terms derived in
        tests/test_family.py); its terms in n_max and m alone are kept (_fixed_terms).
        """
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        atoms = self.measure.atoms
        n, q_gamma, dot_gamma, own_rounding = _fixed_terms(n_max, atoms.size)
        powers = np.cumprod(np.broadcast_to(atoms, (n_max - 1, atoms.size)), axis=0)
        p = -self.alpha * (powers * self.measure.weights).sum(axis=1)
        c, rp = np.ones(n_max, dtype=complex), p[::-1].copy()
        for k in range(n_max - 1):  # rp[n_max-2-k:] is p[k::-1], with no copy
            c[k + 1] = np.dot(rp[n_max - 2 - k:], c[: k + 1]) / (k + 1)
        a = c / n
        if not error_bound:
            return a
        size, alpha = np.abs(c), self.alpha
        own = (np.convolve(alpha * q_gamma, size)[:p.size] + dot_gamma
               * np.convolve(np.abs(p), size)[:p.size]) / n[:p.size] + _gamma(3) * size[1:]
        e, total = [0.0], 0.0
        for k, term in enumerate(own.tolist()):
            e.append(term + alpha * total / (k + 1))
            total += e[-1]
        return a, (np.array(e) / n + _gamma(3) * np.abs(a)) * own_rounding

    def h(self, z):
        """h(z) = z * integral_0^1 h'(t z) dt for |z| <= 1 - 1e-6, within
        ~1e-15 of 50-digit arithmetic up to that radius (_path_integral)."""
        return _path_integral(z, self.hprime)
