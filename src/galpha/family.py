"""The disk family G(alpha) built from finite atomic boundary measures.

A member is determined by alpha in (0, 1] and finitely many unit-circle
atoms zeta_k with weights t_k summing to 1:

    h'(z) = prod_k (1 - zeta_k z)^(alpha t_k),     h(0) = 0, h'(0) = 1.

Every such h satisfies Re(z h''(z) / (alpha h'(z))) < 1/2 on the disk.
The module also carries both directions of the correspondence with finite
Blaschke products: boundary root sets map to measures, and a measure
induces the disk self-map phi with z h''/h' = alpha * z phi/(z phi - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import BlaschkeProduct, BoundaryRootSet, boundary_roots
from .complexfn import (TWO_PI, ConvergenceError, DiskGrid, DomainError,
                        _require_finite, cauchy_coefficients, default_grid)

_MIN_SEPARATION = 1e-9
_WEIGHT_SUM_TOL = 1e-12
# Per-point kernels run on slices of about this many (point, atom) pairs, so
# their temporaries stay near 4 MB whatever the input size and atom count.
# A smaller block splits the norm sweep's per-thread halves (16,384 points,
# m <= 8): at 2^16 the norm benchmark's latency tail rose by 17%.
_BLOCK = 1 << 17
# Up to this many atoms the residual sums atom pairs one by one: a threaded
# BLAS product of an (N x 2) by a (2 x 2) matrix can stall for 10-20 ms.
_PAIR_LOOP_ATOMS = 4


def _over_atoms(z, atoms, numerators):
    """numerators_k / (1 - zeta_k z) for 1-d z, shape (z.size, m)."""
    out = np.multiply.outer(z, atoms)
    np.subtract(1.0, out, out=out)
    return np.divide(numerators, out, out=out)


def _log_sum(z, atoms, weights):
    """sum_k t_k Log(1 - zeta_k z) for 1-d z in the disk, from real logs.

    Re(1 - zeta_k z) > 0 there, so arctan2 gives the principal argument;
    this is several times faster than numpy's complex log.
    """
    w = np.multiply.outer(z, atoms)
    np.subtract(1.0, w, out=w)
    re, im = w.real, w.imag
    buf = re * re
    buf += im * im
    log_modulus = 0.5 * (np.log(buf, out=buf) @ weights)
    return log_modulus + 1j * (np.arctan2(im, re, out=buf) @ weights)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses on the unit circle, weights summing to 1.

    Angles are canonicalized to [0, 2 pi) and sorted ascending; weights are
    renormalized when their sum deviates from 1 by at most 1e-12 and
    rejected otherwise.
    """

    angles: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        angles = np.atleast_1d(np.asarray(self.angles, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        _require_finite("angles", angles)
        _require_finite("weights", weights)
        if angles.shape != weights.shape or angles.ndim != 1 or angles.size == 0:
            raise ValueError("angles and weights must be matching 1-d arrays")
        if np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in (0, 1]")
        if abs(weights.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        angles = np.mod(angles, TWO_PI)
        order = np.argsort(angles)
        angles, weights = angles[order], weights[order]
        if angles.size > 1:
            gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
            if np.min(gaps) <= _MIN_SEPARATION:
                raise ValueError("atom angles must be pairwise distinct "
                                 "(separation > 1e-9)")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights / weights.sum())

    @property
    def atoms(self) -> np.ndarray:
        """The unimodular atom positions zeta_k = e^(i angle_k)."""
        return np.exp(1j * self.angles)

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


def measure_from_roots(rootset: BoundaryRootSet) -> AtomicMeasure:
    """Atoms zeta_k = conj(z_k) with the residues as weights.

    Residues carry the root solver's 1e-10 sum tolerance, so they are
    renormalized here before the measure's stricter invariant applies.
    """
    residues = rootset.residues / rootset.residues.sum()
    return AtomicMeasure(angles=np.mod(-np.angle(rootset.roots), TWO_PI),
                         weights=residues)


def measure_from_blaschke(phi: BlaschkeProduct) -> AtomicMeasure:
    """Forward correspondence: solve z*phi(z) = 1 and convert to a measure."""
    return measure_from_roots(boundary_roots(phi))


def blaschke_from_measure(measure: AtomicMeasure) -> BlaschkeProduct:
    """Inverse correspondence as an explicit product with zeros and prefactor.

    The induced self-map is T/(zT - 1) with T(z) = sum_k t_k/(z - conj(zeta_k));
    its zeros are the roots of the monic numerator polynomial
    N(z) = sum_k t_k prod_{j != k} (z - conj(zeta_j)), and the prefactor is
    fixed by matching a pointwise value.
    """
    poles = np.conj(measure.atoms)
    n_poly = np.zeros(measure.count, dtype=complex)
    for k in range(measure.count):
        others = np.delete(poles, k)
        n_poly = n_poly + measure.weights[k] * np.poly(others)
    zeros = np.roots(n_poly) if measure.count > 1 else np.empty(0, dtype=complex)
    if zeros.size and np.max(np.abs(zeros)) >= 1.0 - 1e-12:
        raise ConvergenceError("recovered zeros touch the unit circle; "
                               "the measure is too close to degenerate")
    candidate = BlaschkeProduct(zeros=zeros, prefactor=1.0)
    for probe in (0.0 + 0.0j, 0.37 + 0.29j, -0.21 + 0.43j):
        ref = candidate(probe)
        if abs(ref) > 1e-8:
            prefactor = complex(induced_self_map(measure, probe) / ref)
            break
    else:  # pragma: no cover - needs count-many zeros stacked near probes
        raise ConvergenceError("could not normalize the recovered prefactor")
    if abs(abs(prefactor) - 1.0) > 1e-6:
        raise ConvergenceError("recovered prefactor is not unimodular")
    return BlaschkeProduct(zeros=zeros, prefactor=prefactor / abs(prefactor))


def induced_self_map(measure: AtomicMeasure, z):
    """The disk self-map phi determined by the measure, evaluated pointwise.

    phi = T/(zT - 1) with T(z) = sum_k t_k/(z - conj(zeta_k)); the formula
    is regular at z = 0 where it returns sum_k t_k zeta_k.
    """
    z = np.asarray(z, dtype=complex)
    _require_finite("z", z)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("induced_self_map requires |z| < 1")
    t = 1.0 / (z[..., None] - np.conj(measure.atoms)) @ measure.weights
    out = t / (z * t - 1.0)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class GAlphaFunction:
    """A member of the family: alpha in (0, 1] plus an atomic measure."""

    alpha: float
    measure: AtomicMeasure
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_finite("alpha", self.alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def _blocks(self, z, dtype, kernel):
        """kernel over the points of z, in slices of about _BLOCK // m points.

        z must lie in the open disk.  kernel maps a 1-d complex array to a
        1-d array of dtype; the result has the shape of z, and a 0-d z
        gives a numpy scalar.
        """
        z = np.asarray(z, dtype=complex)
        _require_finite("z", z)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("evaluation requires |z| < 1")
        flat = z.ravel()
        step = max(1, _BLOCK // self.measure.count)
        if flat.size <= step:
            out = kernel(flat)
        else:
            out = np.empty(flat.size, dtype=dtype)
            for start in range(0, flat.size, step):
                out[start:start + step] = kernel(flat[start:start + step])
        out = out.reshape(z.shape)
        return out[()] if out.ndim == 0 else out

    def hprime(self, z):
        """h'(z) = prod_k (1 - zeta_k z)^(alpha t_k); h'(0) = 1."""
        atoms, weights, alpha = self.measure.atoms, self.measure.weights, self.alpha
        return self._blocks(z, complex,
                            lambda zb: np.exp(alpha * _log_sum(zb, atoms, weights)))

    def hprime_log_derivative(self, z):
        """h''(z)/h'(z) = -alpha sum_k t_k zeta_k / (1 - zeta_k z)."""
        atoms, weights, alpha = self.measure.atoms, self.measure.weights, self.alpha
        return self._blocks(
            z, complex, lambda zb: -alpha * (_over_atoms(zb, atoms, atoms) @ weights))

    def hprime_coefficients(self, n_max: int) -> np.ndarray:
        """Maclaurin coefficients c_0..c_n_max of h', by circle quadrature."""
        key = ("hp", n_max)
        if key not in self._cache:
            self._cache[key] = cauchy_coefficients(self.hprime, n_max)
        return self._cache[key]

    def coefficients(self, n_max: int) -> np.ndarray:
        """Taylor coefficients a_1..a_n_max of h (a_1 = 1, a_n = c_(n-1)/n).

        Every member satisfies |a_n| <= alpha/(n (n-1)) for n >= 2, with
        equality at index n for the equal-weight measure on the (n-1)-th
        roots of unity.
        """
        if n_max < 2:
            raise ValueError("n_max must be at least 2")
        c = self.hprime_coefficients(n_max - 1)
        return c / np.arange(1, n_max + 1)

    def h(self, z, n_terms: int = 256):
        """h(z) as the degree-n_terms partial sum of its Taylor series.

        The coefficient bound makes the truncation error at most
        alpha * sum_{n > n_terms} |z|^n / (n (n-1)) <= alpha / n_terms,
        so evaluation is restricted to |z| <= 1 - 1e-6.
        """
        if n_terms < 2:
            raise ValueError("n_terms must be at least 2")
        z = np.asarray(z, dtype=complex)
        _require_finite("z", z)
        if np.any(np.abs(z) > 1.0 - 1e-6):
            raise DomainError("series evaluation requires |z| <= 1 - 1e-6")
        a = self.coefficients(n_terms)
        full = np.concatenate([[0.0], a])  # h(0) = 0
        out = np.polynomial.polynomial.polyval(z, full)
        return out[()] if np.ndim(out) == 0 else out

    def membership_margin(self, grid: DiskGrid | None = None) -> float:
        """1/2 - max_grid Re(z h''/(alpha h')); positive on every grid."""
        grid = grid if grid is not None else default_grid()
        z = grid.points()
        vals = (z * self.hprime_log_derivative(z)).real / self.alpha
        return float(0.5 - vals.max())

    def real_part_bound_residual(self, z):
        """Slack in the sharp pointwise bound on Re(z h''/h').

        Returns alpha/2 - (1 - |z|^2) |h''/h'|^2 / (2 alpha) - Re(z h''/h'),
        which is nonnegative on the disk and vanishes identically exactly
        for the single-atom (extremal) members.

        Evaluated through the algebraically identical pair expansion
        (alpha/2) Re sum_{j != k} t_j t_k g_j conj(g_k) (1 - zeta_j conj(zeta_k))
        with g_k = 1/(1 - zeta_k z): the direct formula cancels two terms of
        size O(1/(1-|z|)) and loses ~1e-9 near the boundary, while here the
        identically-zero diagonal is dropped exactly.  Each block contracts
        tg_k = t_k g_k with the zero-diagonal matrix in one BLAS product,
        q = tg @ cross, and sums Re(q_k conj(tg_k)); up to _PAIR_LOOP_ATOMS
        atoms the pairs j < k are summed one by one instead.  The rank-two
        form |sum tg|^2 - |sum zeta tg|^2 is not used: it cancels terms of
        size O(1/(1-|z|)^2) and loses ~1e-8.
        """
        atoms, weights, alpha = self.measure.atoms, self.measure.weights, self.alpha
        m = self.measure.count
        cross = 1.0 - np.outer(atoms, np.conj(atoms))
        np.fill_diagonal(cross, 0.0)
        if m <= _PAIR_LOOP_ATOMS:
            pairs = list(zip(*np.triu_indices(m, 1)))

            def kernel(zb):
                # the (j, k) and (k, j) terms are complex conjugates
                tg = _over_atoms(zb, atoms, weights)
                out = np.zeros(zb.size)
                for j, k in pairs:
                    out += (tg[:, j] * np.conj(tg[:, k]) * cross[j, k]).real
                return alpha * out
        else:
            def kernel(zb):
                # Re(q_k conj(tg_k)) = Re q_k Re tg_k + Im q_k Im tg_k, summed
                # over the interleaved real views of the two rows
                tg = _over_atoms(zb, atoms, weights)
                q = tg @ cross
                return 0.5 * alpha * np.einsum("ij,ij->i", q.view(float), tg.view(float))
        return self._blocks(z, float, kernel)

    def subordination_witness(self, z):
        """The self-map omega with h' = (1 - omega)^alpha, omega(0) = 0.

        omega(z) = 1 - exp(sum_k t_k Log(1 - zeta_k z)); the weighted log
        sum stays within |Im| < pi/2, so it agrees with Log(h')/alpha.
        """
        atoms, weights = self.measure.atoms, self.measure.weights
        return self._blocks(z, complex,
                            lambda zb: 1.0 - np.exp(_log_sum(zb, atoms, weights)))

    def induced_self_map(self, z):
        """The Blaschke-type self-map phi of the correspondence; see module doc."""
        return induced_self_map(self.measure, z)


def from_blaschke(alpha: float, phi: BlaschkeProduct) -> GAlphaFunction:
    """Member whose self-map is the given finite Blaschke product."""
    return GAlphaFunction(alpha=alpha, measure=measure_from_blaschke(phi))
