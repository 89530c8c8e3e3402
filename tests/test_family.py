import re
import sys
import tracemalloc

import numpy as np
import pytest

from galpha import complexfn, family, harmonic, verify
from galpha.blaschke import BlaschkeProduct, boundary_roots
from galpha.complexfn import TWO_PI, DiskGrid, DomainError
from galpha.family import (AtomicMeasure, GAlphaFunction, blaschke_from_measure,
                           induced_self_map, measure_from_blaschke,
                           roots_of_unity_measure, single_atom)
from galpha.harmonic import DilatationSpec, HarmonicMap
from galpha.schwarz import _objectives, schwarzian
from galpha.specfile import FunctionSpec, load_function_spec
from galpha.verify import run_verification

from test_blaschke import near_circle_products, panel_products, random_product
from test_complexfn import grid_double
from golden import regen


def random_measure(rng, count):
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, count))
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        if count == 1 or gaps.min() > 1e-3:
            return AtomicMeasure(angles=angles, weights=rng.dirichlet(np.ones(count)))


def random_points(rng, n, r_max=0.9):
    return r_max * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))


class TestAtomicMeasure:
    def test_canonicalization_sorts_and_wraps(self):
        m = AtomicMeasure(angles=[5.0, -1.0], weights=[0.5, 0.5])
        assert np.all(np.diff(m.angles) > 0)
        assert np.all((0.0 <= m.angles) & (m.angles < TWO_PI))
        # the atoms follow the canonical order and stay out of repr and ==
        assert np.array_equal(m.atoms, np.exp(1j * m.angles))
        assert "atoms" not in repr(m)
        assert single_atom(5.0) == AtomicMeasure(angles=[5.0], weights=[1.0])

    def test_an_angle_just_below_zero_wraps_to_zero(self):
        # np.mod(-1e-20, 2 pi) rounds to 2 pi itself, outside [0, 2 pi)
        m = AtomicMeasure(angles=[1.0, -1e-20], weights=[0.5, 0.5])
        assert m.angles[0] == 0.0 and m == AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.5])
        assert AtomicMeasure(angles=[-1e-20], weights=[1.0]) == single_atom(0.0)
        # the forward correspondence: phi = 1 - 1e-20 i has its one root of
        # z phi(z) = 1 at angle 1e-20, so its atom's angle is -1e-20
        phi = BlaschkeProduct(zeros=[], prefactor=1.0 - 1e-20j)
        assert np.angle(boundary_roots(phi)[0][0]) == 1e-20
        assert measure_from_blaschke(phi) == single_atom(0.0)

    def test_arrays_are_read_only_copies(self):
        angles, weights = np.array([0.0, 1.0]), np.array([0.25, 0.75])
        m = AtomicMeasure(angles=angles, weights=weights)
        for name in ("angles", "weights", "atoms", "poles"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(m, name)[0] = 5.0
        assert angles.flags.writeable and weights.flags.writeable
        angles[0], weights[0] = 0.5, 0.5
        assert np.array_equal(m.angles, [0.0, 1.0]) and np.array_equal(m.weights, [0.25, 0.75])

    def test_poles_are_the_conjugate_atoms(self):
        # formed once for the kernels: conj(atoms) bit for bit, and like
        # atoms derived, so outside the fields that ==, hash and repr read
        m = random_measure(np.random.default_rng(71), 7)
        assert np.array_equal(m.poles.view(np.uint64), np.conj(m.atoms).view(np.uint64))
        assert AtomicMeasure._fields == ("angles", "weights") and "poles" not in repr(m)

    def test_equality_by_value(self):
        m = AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.5])
        assert (m == AtomicMeasure(angles=[1.0, 0.0], weights=[0.5, 0.5])) is True
        assert (m == AtomicMeasure(angles=[0.0, 1.5], weights=[0.5, 0.5])) is False
        assert (m != AtomicMeasure(angles=[0.0, 1.0], weights=[0.25, 0.75])) is True
        assert m != single_atom(0.0) and m != "a measure"
        member = GAlphaFunction(alpha=0.5, measure=m)
        assert member == GAlphaFunction(alpha=0.5, measure=AtomicMeasure(
            angles=[0.0, 1.0], weights=[0.5, 0.5]))
        assert member != GAlphaFunction(alpha=0.5, measure=roots_of_unity_measure(2))

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="weights must sum to 1"):
            AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.4])

    def test_tiny_deviation_renormalized(self):
        m = AtomicMeasure(angles=[0.0, 1.0], weights=[0.5, 0.5 + 5e-13])
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_distinct_angles_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            AtomicMeasure(angles=[1.0, 1.0 + 1e-10], weights=[0.5, 0.5])

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            AtomicMeasure(angles=[0.0, 1.0], weights=[1.2, -0.2])
        with pytest.raises(ValueError, match="weights must lie"):
            AtomicMeasure(angles=[0.0, 1.0], weights=[0.0, 1.0])

    def test_roots_of_unity_measure(self):
        m = roots_of_unity_measure(4)
        assert np.allclose(m.angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert np.allclose(m.weights, 0.25)


class TestHPrime:
    def test_extremal_linear(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert f.hprime(0.3 + 0.0j) == pytest.approx(0.7)

    def test_normalization_at_origin(self):
        f = GAlphaFunction(alpha=0.5, measure=single_atom(0.0))
        assert f.hprime(0.0 + 0.0j) == pytest.approx(1.0)

    def test_two_atom_against_multiprecision_oracle(self):
        # mpmath, 40 digits: 0.8^0.25 * 1.2^0.75
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.25, 0.75]))
        assert f.hprime(0.2 + 0.0j) == pytest.approx(1.0843224043318137984, abs=1e-15)

    def test_relative_accuracy_near_origin_against_mpmath(self):
        # h' = exp(alpha L) needs L only to an absolute error, so the one
        # 1/2 log(Re^2 + Im^2) of an |1 - zeta_k z|^2 near 1 keeps h' to an ulp
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(68)
        with mpmath.workdps(40):
            for m in (1, 5, 19):
                f = GAlphaFunction(alpha=float(rng.uniform(0.1, 1.0)),
                                   measure=random_measure(rng, m))
                atoms = [mpmath.mpc(a.real, a.imag) for a in f.measure.atoms]
                for radius in (1e-8, 1e-6, 1e-3, 0.1, 0.5):
                    z = radius * np.exp(1j * rng.uniform(0.0, TWO_PI, 8))
                    for zf, value in zip(z, f.hprime(z)):
                        w = mpmath.mpc(zf.real, zf.imag)
                        ref = complex(mpmath.exp(mpmath.mpf(f.alpha) * mpmath.fsum(
                            mpmath.mpf(t) * mpmath.log(1 - a * w)
                            for t, a in zip(f.measure.weights, atoms))))
                        assert abs(value - ref) <= 1e-15 * abs(ref), (m, radius)

    def test_domain_error_outside_disk(self):
        # a 0-d point on the circle, and arrays with one point on it or just
        # beyond it, through each kernel that checks the domain in _blocks
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        inside = 0.5 * np.exp(1j * np.arange(5))
        for z in (1.0 + 0.0j, np.append(inside, 1j), np.append(inside, 1.0 + 1e-15)):
            for kernel in (f.hprime, f.hprime_log_derivative, lambda z: schwarzian(f, z)):
                with pytest.raises(DomainError):
                    kernel(z)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            GAlphaFunction(alpha=0.0, measure=single_atom(0.0))
        with pytest.raises(ValueError):
            GAlphaFunction(alpha=1.5, measure=single_atom(0.0))


class TestLogDerivative:
    def test_extremal_at_origin(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert f.hprime_log_derivative(0.0 + 0.0j) == pytest.approx(-1.0)

    def test_extremal_at_half(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert f.hprime_log_derivative(0.5 + 0.0j) == pytest.approx(-2.0)

    def test_symmetric_atoms_cancel_at_origin(self):
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        assert abs(f.hprime_log_derivative(0.0 + 0.0j)) < 1e-15

    def test_finite_difference_consistency(self):
        # d/dz Log h' sampled with step 1e-5 (Re h' > 0 keeps the branch fixed)
        rng = np.random.default_rng(21)
        f = GAlphaFunction(alpha=0.8, measure=random_measure(rng, 5))
        z = random_points(rng, 1000)
        h = 1e-5
        fd = (np.log(f.hprime(z + h)) - np.log(f.hprime(z - h))) / (2 * h)
        assert np.max(np.abs(fd - f.hprime_log_derivative(z))) < 1e-6


class TestHEval:
    def test_extremal_partial_sum(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert f.h(0.5 + 0.0j) == pytest.approx(0.375, abs=1e-14)

    def test_origin_is_zero(self):
        rng = np.random.default_rng(22)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 3))
        assert f.h(0.0 + 0.0j) == pytest.approx(0.0, abs=1e-15)

    def test_against_gauss_legendre_path_integral(self):
        # h(z) = integral_0^1 z h'(tz) dt on 64 Gauss-Legendre nodes
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.25, 0.75]))
        z = 0.3 + 0.0j
        nodes, wts = np.polynomial.legendre.leggauss(64)
        t = 0.5 * (nodes + 1.0)
        oracle = 0.5 * np.sum(wts * z * f.hprime(t * z))
        assert oracle == pytest.approx(0.31894284005590651349, abs=1e-12)  # mpmath
        assert f.h(z) == pytest.approx(oracle, abs=1e-13)

    def test_domain_cutoff(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        with pytest.raises(DomainError):
            f.h(0.9999999 + 0.0j)


class TestCoefficients:
    def test_extremal_second_coefficient(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        a = f.coefficients(5)
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert a[1] == pytest.approx(-0.5, abs=1e-12)
        assert f.coefficients(2)[0] == 1.0
        with pytest.raises(ValueError):
            f.coefficients(1)

    def test_equality_generator_third_coefficient(self):
        # h' = (1-z^2)^(1/2): binomial gives a_3 = -1/6
        f = GAlphaFunction(alpha=1.0, measure=roots_of_unity_measure(2))
        a = f.coefficients(4)
        assert a[2] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert abs(a[2]) * 3 * 2 / f.alpha == pytest.approx(1.0, abs=1e-10)

    def test_against_series_recurrence_oracle(self):
        # c_(n+1) = (1/(n+1)) sum_(j<=n) p_(n-j) c_j with
        # p_j = -alpha sum_k t_k zeta_k^(j+1), run in 40 digits on the same
        # atoms; h' has the coefficients c_n = (n+1) a_(n+1)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        n_max = 255
        n = np.arange(1, n_max + 1)
        for count in (1, 3, 64):
            measure = random_measure(rng, count)
            with mpmath.workdps(40):
                atoms = [mpmath.mpc(a.real, a.imag) for a in measure.atoms]
                weighted = [mpmath.mpf(t) for t in measure.weights]
                moments = []  # sum_k t_k zeta_k^(j+1)
                for _ in range(n_max):
                    weighted = [w * a for w, a in zip(weighted, atoms)]
                    moments.append(mpmath.fsum(weighted))
            for alpha in (0.1, 0.7, 1.0):
                f = GAlphaFunction(alpha=alpha, measure=measure)
                with mpmath.workdps(40):
                    p = [-mpmath.mpf(alpha) * s for s in moments]
                    c = [mpmath.mpc(1)]
                    for k in range(n_max):
                        c.append(mpmath.fsum(p[k - j] * c[j] for j in range(k + 1)) / (k + 1))
                    oracle = np.array([complex(x) for x in c])
                hp = f.coefficients(n_max + 1) * np.arange(1, n_max + 2)
                assert hp[0] == 1.0
                err = np.abs(hp[1:] - oracle[1:]) * n / alpha
                assert np.max(err) <= 1e-13, (count, alpha)

    def test_extremal_coefficients_by_fft_quadrature(self):
        # |a_n| = alpha/(n(n-1)) exactly for the (n-1)-th roots of unity
        for alpha in (0.5, 1.0):
            for n in range(2, 51):
                f = GAlphaFunction(alpha=alpha, measure=roots_of_unity_measure(n - 1))
                bound = alpha / (n * (n - 1))
                assert abs(abs(f.coefficients(n)[n - 1]) - bound) <= 1e-13 * bound, (alpha, n)

    def test_coefficient_bound_random_members(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            alpha = rng.uniform(0.1, 1.0)
            f = GAlphaFunction(alpha=alpha, measure=random_measure(rng, int(rng.integers(1, 7))))
            a = f.coefficients(50)
            n = np.arange(2, 51)
            assert np.all(np.abs(a[1:]) <= alpha / (n * (n - 1)) + 1e-9)

    @staticmethod
    def strided_coefficients(f, n_max):
        """(a, E) from the recurrence on the negative-stride views p[k::-1],
        with every term of E_n formed in the call."""
        gamma = family._gamma
        atoms = f.measure.atoms
        powers = np.cumprod(np.broadcast_to(atoms, (n_max - 1, atoms.size)), axis=0)
        p = -f.alpha * (powers * f.measure.weights).sum(axis=1)
        c = np.ones(n_max, dtype=complex)
        for k in range(n_max - 1):
            c[k + 1] = np.dot(p[k::-1], c[:k + 1]) / (k + 1)
        n = np.arange(1, n_max + 1)
        a = c / n
        size, j, alpha = np.abs(c), np.arange(n_max - 1), f.alpha
        q = alpha * gamma(5 * j + 3 * f.measure.count + 6)
        own = (np.convolve(q, size)[:j.size] + np.sqrt(2.0) * gamma(2 * j + 2)
               * np.convolve(np.abs(p), size)[:j.size]) / (j + 1) + gamma(3) * size[1:]
        e, total = [0.0], 0.0
        for k, term in enumerate(own.tolist()):
            e.append(term + alpha * total / (k + 1))
            total += e[-1]
        return a, (np.array(e) / n + gamma(3) * np.abs(a)) * (1.0 + gamma(16 * n_max + 64))

    @pytest.mark.parametrize("count", [1, 2, 5, 16, 64, 128])
    def test_bits_equal_the_strided_recurrence(self, count):
        # numpy copies a negative-stride view before the same BLAS dot that
        # the contiguous slice of the reversed p takes, so (a, E) agree to
        # the bit on whatever kernel the BLAS library picks
        rng = np.random.default_rng(530 + count)
        f = GAlphaFunction(alpha=float(rng.uniform(0.05, 1.0)), measure=random_measure(rng, count))
        for n_max in (2, 3, 50, 257):
            a, bound = f.coefficients(n_max, error_bound=True)
            ref_a, ref_bound = self.strided_coefficients(f, n_max)
            assert a.tobytes() == ref_a.tobytes(), (count, n_max)
            assert bound.tobytes() == ref_bound.tobytes(), (count, n_max)
            assert f.coefficients(n_max).tobytes() == ref_a.tobytes(), (count, n_max)

    def test_fixed_terms_are_kept_read_only(self):
        # formed once per (n_max, atom count) and shared by every call
        gamma = family._gamma
        GAlphaFunction(alpha=0.5, measure=roots_of_unity_measure(3)).coefficients(50, True)
        n, q_gamma, dot_gamma, own_rounding = terms = family._fixed_terms(50, 3)
        assert family._fixed_terms(50, 3) is terms
        j = np.arange(49)
        assert n.tolist() == list(range(1, 51))
        assert q_gamma.tobytes() == gamma(5 * j + 15).tobytes()
        assert dot_gamma.tobytes() == (np.sqrt(2.0) * gamma(2 * j + 2)).tobytes()
        assert own_rounding == 1.0 + gamma(16 * 50 + 64)
        for array in (n, q_gamma, dot_gamma):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def grid_margin(f, grid=DiskGrid()):
    """1/2 - max Re(z h''/(alpha h')) over the grid's points."""
    z = grid.points
    return 0.5 - float(np.max((z * f.hprime_log_derivative(z)).real)) / f.alpha


def pair_residual(f, z):
    """alpha/2 - (1 - |z|^2) |h''/h'|^2 / (2 alpha) - Re(z h''/h'), the slack
    in the sharp real-part bound, as its pair expansion (alpha/2) Re
    sum_(j != k) t_j t_k g_j conj(g_k) (1 - zeta_j conj(zeta_k)), g_k =
    1/(1 - zeta_k z): its identically zero diagonal is dropped exactly,
    where the direct formula cancels terms of size O(1/(1 - |z|)) and loses
    ~1e-9 near the boundary."""
    z = np.asarray(z, dtype=complex)
    atoms = f.measure.atoms
    tg = f.measure.weights / (1.0 - z[..., None] * atoms)
    cross = 1.0 - atoms[:, None] * np.conj(atoms[None, :])
    np.fill_diagonal(cross, 0.0)
    return 0.5 * f.alpha * np.einsum("...j,...k,jk->...", tg, np.conj(tg), cross).real


class TestCoefficientErrorBound:
    """E_n of GAlphaFunction.coefficients(n, error_bound=True) bounds
    |fl(a_n) - a_n| for the member's exact coefficients a_n.

    In the unit roundoff u = 2^-53 and gamma_k = k u/(1 - k u), with
    (1 + gamma_a)(1 + gamma_b) <= 1 + gamma_(a+b) and
    1/(1 - gamma_k) <= 1 + gamma_(2k) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3):
    - zeta_k = fl(e^(i theta_k)) errs by at most 2u <= gamma_2 if sin and cos
      err by at most an ulp, and each complex product of the cumulative
      product by a relative sqrt(2) gamma_2 <= gamma_3, so the power
      zeta_k^(j+1) errs by a relative gamma_(5j+5);
    - the weight and alpha products each err by a relative u, and the m-term
      sum by gamma_(m-1) sum |terms| in any order, so p_j errs from
      -alpha sum_k t_k zeta_k^(j+1) by alpha mu gamma_(5j+m+6), mu = sum_k t_k;
    - AtomicMeasure stores t_k = fl(w_k/fl(sum w)), so |mu - 1| <= gamma_(2m),
      and p_j errs from p*_j of the weights t_k/mu, which sum to 1, by
      alpha ((1 + gamma_(2m)) gamma_(5j+m+6) + gamma_(2m)) <= alpha gamma_(5j+3m+6);
    - the complex dot of n + 1 terms has real and imaginary parts that are
      real dots of 2n + 2 terms, so it errs by sqrt(2) gamma_(2n+2) sum |p||c|
      with any order and any fused multiply-adds;
    - dividing by n + 1 (Smith's complex division by n + 1 + 0i) errs by a
      relative gamma_2, and gamma_2/(1 - gamma_2) <= gamma_3 turns that into
      gamma_3 |fl(c_(n+1))|;
    - |p*_j| <= alpha, so the errors carried in c_j add at most alpha sum_j e_j.
    Summing these gives the recurrence for e_(n+1) in coefficients' docstring,
    and a_n = c_(n-1)/n adds gamma_3 |fl(a_n)| the same way.
    """

    @staticmethod
    def exact_coefficients(f, n_max):
        """a_1..a_n_max in 50 digits from the same float angles and weights."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            atoms = [mpmath.expj(mpmath.mpf(theta)) for theta in f.measure.angles]
            weights = [mpmath.mpf(t) for t in f.measure.weights]
            weights = [t / mpmath.fsum(weights) for t in weights]
            p = [-mpmath.mpf(f.alpha) * mpmath.fsum(t * a ** (j + 1)
                                                    for t, a in zip(weights, atoms))
                 for j in range(n_max)]
            c = [mpmath.mpc(1)]
            for n in range(n_max - 1):
                c.append(mpmath.fsum(p[n - j] * c[j] for j in range(n + 1)) / (n + 1))
            return [c[k] / (k + 1) for k in range(n_max)]

    def test_bound_covers_the_error_against_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(26)
        n = np.arange(2, 51)
        for count in (1, 2, 5, 16, 64):
            for alpha in (0.1, float(rng.uniform(0.2, 0.9)), 1.0):
                f = GAlphaFunction(alpha=alpha, measure=random_measure(rng, count))
                a, bound = f.coefficients(50, error_bound=True)
                assert np.array_equal(a, f.coefficients(50))
                error = np.array([float(abs(mpmath.mpc(x.real, x.imag) - y))
                                  for x, y in zip(a, self.exact_coefficients(f, 50))])
                assert np.all(error <= bound), (count, alpha)
                # the slack is far below the 1e-9 the ratio was once allowed
                assert np.max(bound[1:] * n * (n - 1) / alpha) < 1e-11, (count, alpha)

    def test_bound_at_the_smallest_order(self):
        # a_2 = -(alpha/2) sum_k t_k zeta_k is exactly 0 on the roots of
        # unity, so the float a_2 is all rounding, and E_2 must cover it
        f = GAlphaFunction(alpha=0.5, measure=roots_of_unity_measure(3))
        a, bound = f.coefficients(2, error_bound=True)
        assert np.array_equal(a, f.coefficients(2)) and a[0] == 1.0
        assert np.all(bound > 0.0) and np.all(bound < 1e-15)
        assert abs(a[1]) <= bound[1]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    def test_equality_members_pass_at_threshold_one(self, alpha):
        # one atom has ratio exactly 1 at n = 2, and equal weights on the
        # m-th roots of unity at n = m + 1; the float ratio can read
        # 1.0000000000000002 (m = 7, alpha = 0.5), so only E_n passes them
        for m in range(1, 8):
            for measure in (single_atom(0.3 * m), roots_of_unity_measure(m)):
                spec = FunctionSpec(alpha=alpha, measure=measure)
                report = run_verification(spec)
                check = next(c for c in report.checks if c.name == "coefficient_max_ratio")
                assert (check.threshold, check.evidence) == (1.0, "bound")
                assert check.passed and check.value > 1.0 - 1e-12, (alpha, m, check.value)


class TestMembershipAndResidual:
    def test_extremal_margin_positive(self):
        for alpha in (0.25, 1.0):
            f = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
            assert grid_margin(f) > 0.0

    def test_origin_contribution(self):
        rng = np.random.default_rng(25)
        f = GAlphaFunction(alpha=0.5, measure=random_measure(rng, 3))
        # at z = 0 the membership expression has real part 0, margin 1/2
        assert (0.0 * f.hprime_log_derivative(0.0 + 0.0j)).real == pytest.approx(0.0)
        assert grid_margin(f) <= 0.5

    def test_margin_matches_direct_formula(self):
        # verify's exact membership check rests on 1/2 - Re(z h''/(alpha h'))
        # = Re G - 1/2 with G = sum_k t_k/(1 - zeta_k z); the grid minimum of
        # the right side, written as 1/2 - (1 - Re G), is within a few ulp of
        # the left side's from hprime_log_derivative
        rng = np.random.default_rng(66)
        for m in (1, 3, 12):
            f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, m))
            grid = grid_double(16, 64, 0.999)
            z = grid.points
            g = (f.measure.weights / (1.0 - z[..., None] * f.measure.atoms)).sum(axis=-1)
            assert abs(np.min(0.5 - (1.0 - g.real)) - grid_margin(f, grid)) <= 4e-16

    def test_random_member_margin_positive(self):
        rng = np.random.default_rng(26)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 5))
        assert grid_margin(f) > 0.0

    def test_extremal_residual_vanishes(self):
        # the single-atom member attains equality at every z in the disk:
        # alpha/2 - (1 - |z|^2) |P|^2/(2 alpha) - Re(z P) = 0, here formed
        # directly from the library's P = h''/h' on two rays out to 0.99
        # (pair_residual is 0 there by construction)
        f = GAlphaFunction(alpha=0.6, measure=single_atom(0.0))
        for theta in (0.0, 1.3):
            z = np.linspace(0.0, 0.99, 200) * np.exp(1j * theta)
            p = f.hprime_log_derivative(z)
            residual = (0.5 * f.alpha - (1.0 - np.abs(z) ** 2) * np.abs(p) ** 2 / (2.0 * f.alpha)
                        - (z * p).real)
            assert np.max(np.abs(residual)) < 1e-11

    def test_symmetric_two_atom_origin_value(self):
        f = GAlphaFunction(alpha=0.8, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        # h''(0) = 0 there, so the residual at 0 is alpha/2
        assert pair_residual(f, 0.0 + 0.0j) == pytest.approx(0.4)

    def test_random_member_residual_nonnegative(self):
        rng = np.random.default_rng(27)
        f = GAlphaFunction(alpha=0.9, measure=random_measure(rng, 4))
        z = random_points(rng, 1000, r_max=0.99)
        assert np.min(pair_residual(f, z)) >= -1e-12


def omega(f, z):
    """The self-map omega with h' = (1 - omega)^alpha, from hprime: h' =
    exp(alpha L) with |Im alpha L| < pi/2, so Log h' = alpha L."""
    return -np.expm1(np.log(f.hprime(z)) / f.alpha)


class TestSubordinationWitness:
    def test_single_atom_is_rotation(self):
        rng = np.random.default_rng(28)
        theta = 1.3
        f = GAlphaFunction(alpha=0.4, measure=single_atom(theta))
        z = random_points(rng, 100)
        assert np.max(np.abs(omega(f, z) - np.exp(1j * theta) * z)) < 1e-10

    def test_vanishes_at_origin(self):
        rng = np.random.default_rng(29)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 6))
        assert abs(omega(f, 0.0 + 0.0j)) < 1e-12

    def test_symmetric_two_atom_closed_form(self):
        # h' = (1-z^2)^(alpha/2), so omega = 1 - (h')^(1/alpha) = 1 - sqrt(1-z^2)
        rng = np.random.default_rng(30)
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        z = random_points(rng, 100)
        oracle = 1.0 - np.sqrt(1.0 - z * z)
        assert np.max(np.abs(omega(f, z) - oracle)) < 1e-12

    def test_stays_in_disk_on_grid(self):
        rng = np.random.default_rng(31)
        f = GAlphaFunction(alpha=0.85, measure=random_measure(rng, 5))
        w = omega(f, DiskGrid().points)
        assert np.max(np.abs(w)) < 1.0


class TestInducedSelfMap:
    def test_symmetric_two_atom_vanishes_at_origin(self):
        m = AtomicMeasure(angles=[0.0, np.pi], weights=[0.5, 0.5])
        assert abs(induced_self_map(m, 0.0 + 0.0j)) < 1e-15

    def test_single_atom_constant(self):
        rng = np.random.default_rng(32)
        m = single_atom(0.9)
        z = random_points(rng, 50)
        assert np.max(np.abs(induced_self_map(m, z) - np.exp(0.9j))) < 1e-12

    def test_worked_half_zero_example(self):
        rng = np.random.default_rng(33)
        m = AtomicMeasure(angles=[0.0, np.pi], weights=[0.25, 0.75])
        z = random_points(rng, 100)
        mobius = (z - 0.5) / (1.0 - 0.5 * z)
        assert np.max(np.abs(induced_self_map(m, z) - mobius)) < 1e-9

    def test_maps_into_closed_disk(self):
        rng = np.random.default_rng(34)
        m = random_measure(rng, 5)
        z = random_points(rng, 400, r_max=0.95)
        assert np.max(np.abs(induced_self_map(m, z))) <= 1.0 + 1e-9

    def test_domain_and_shapes(self):
        m = random_measure(np.random.default_rng(37), 3)
        for z in (1.0, 1.5j, [0.2, 1.0]):
            with pytest.raises(DomainError, match=r"\|z\| < 1"):
                induced_self_map(m, z)
        with pytest.raises(ValueError, match="finite"):
            induced_self_map(m, [0.1, np.nan])
        assert isinstance(induced_self_map(m, np.asarray(0.3 - 0.2j)), np.complex128)
        assert isinstance(induced_self_map(m, 0.5), np.complex128)
        for shape in ((0,), (4,), (2, 3), (0, 3)):
            assert induced_self_map(m, np.full(shape, 0.4j)).shape == shape

    @pytest.mark.parametrize("count", [1, 2, 8, 64, 128])
    def test_against_mpmath(self, count):
        # phi = T/(zT - 1) against 40-digit mpmath at the exact atoms, on 60
        # random points of |z| <= 0.999, at 0.999 conj(zeta_k) for up to five
        # atoms, where T is largest, and at z = 0; |phi| <= 1, so the error
        # is taken absolutely
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(38 + count)
        m = random_measure(rng, count)
        near = 0.999 * np.conj(m.atoms[rng.choice(count, min(count, 5), replace=False)])
        z = np.concatenate([random_points(rng, 60, r_max=0.999), near, [0.0]])
        values = induced_self_map(m, z)
        with mpmath.workdps(40):
            poles = [mpmath.expj(-theta) for theta in m.angles]
            weights = [mpmath.mpf(t) for t in m.weights]
            for zi, v in zip(z, values):
                w = mpmath.mpc(zi.real, zi.imag)
                t = mpmath.fdot(weights, [1 / (w - pole) for pole in poles])
                assert abs(mpmath.mpc(v.real, v.imag) - t / (w * t - 1)) <= 1e-13, zi


class TestRoundTrips:
    def test_product_to_measure_to_map(self):
        # forward roots -> atoms, then the induced map reproduces phi pointwise
        rng = np.random.default_rng(35)
        for _ in range(15):
            degree = int(rng.integers(1, 9))
            phi = random_product(rng, degree, r_cap=0.9)
            measure = measure_from_blaschke(phi)
            z = random_points(rng, 120)
            assert np.max(np.abs(phi(z) - induced_self_map(measure, z))) < 1e-8

    def test_measure_to_product_to_measure(self):
        rng = np.random.default_rng(36)
        for count in (1, 2, 4, 7):
            measure = random_measure(rng, count)
            phi = blaschke_from_measure(measure)
            assert phi.degree == count - 1
            back = measure_from_blaschke(phi)
            assert np.max(np.abs(back.angles - measure.angles)) < 1e-8
            assert np.max(np.abs(back.weights - measure.weights)) < 1e-8

    def test_roundtrip_error_is_read_on_the_outer_ring(self):
        # phi - phi_hat is analytic on |z| <= 0.9, so its largest modulus on
        # the 8 x 96 grid the check once sampled lies on the grid's outer
        # ring, whose 96 points are the check's points bit for bit
        grid = (np.exp(1j * (TWO_PI * np.arange(96) / 96))[:, None]
                * np.linspace(0.9 / 8, 0.9, 8)[None, :])
        assert verify._ROUNDTRIP_POINTS.tobytes() == grid[:, -1].tobytes()
        sources = [load_function_spec(path) for path in sorted(regen.SPECS.glob("*.json"))]
        products = panel_products() + [spec.blaschke for spec in sources if spec.blaschke]
        assert len(products) == 9 + 4
        for phi in products:
            measure = measure_from_blaschke(phi)
            assert verify.blaschke_roundtrip_error(phi, measure) == np.max(
                np.abs(phi(grid) - induced_self_map(measure, grid))), phi.degree

    def test_from_blaschke_member_is_wellformed(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        f = GAlphaFunction(alpha=0.5, measure=measure_from_blaschke(phi))
        assert np.allclose(np.sort(f.measure.weights), [0.25, 0.75], atol=1e-10)
        assert grid_margin(f) > 0.0


# blaschke_from_measure matches phi where |B| is largest on these points
NORMALIZING_RING = 0.9 * np.exp(1j * TWO_PI * np.arange(16) / 16)
# the benchmark's inverse check compares B and phi on these 768 points
INVERSE_SAMPLES = np.exp(1j * TWO_PI * np.arange(96) / 96)[:, None] * np.linspace(0.1125, 0.9, 8)


def expanded_numerator_zeros(measure):
    """np.roots of N(z) = sum_k t_k prod_{i != k} (z - p_i) expanded in the
    monomial basis, one np.poly per atom."""
    poles = np.conj(measure.atoms)
    n_poly = sum(t * np.poly(np.delete(poles, k)) for k, t in enumerate(measure.weights))
    return np.roots(n_poly)


def expansion_rebuild_error(measure, z):
    """max |B - phi| on z for B rebuilt from expanded_numerator_zeros with
    the library's guard and prefactor normalization; inf where they reject it."""
    zeros = expanded_numerator_zeros(measure)
    if np.max(np.abs(zeros)) >= 1.0 - 1e-12:
        return np.inf
    values = BlaschkeProduct(zeros=zeros)(NORMALIZING_RING)
    k = np.argmax(np.abs(values))
    prefactor = induced_self_map(measure, NORMALIZING_RING[k]) / values[k]
    if not abs(abs(prefactor) - 1.0) <= 1e-6:
        return np.inf
    rebuilt = BlaschkeProduct(zeros=zeros, prefactor=prefactor / abs(prefactor))
    return np.max(np.abs(rebuilt(z) - induced_self_map(measure, z)))


def rebuild_error(measure, z):
    """max |B - phi| on z for B = blaschke_from_measure; inf where it raises."""
    try:
        rebuilt = blaschke_from_measure(measure)
    except family.ConvergenceError:
        return np.inf
    return np.max(np.abs(rebuilt(z) - induced_self_map(measure, z)))


def unconverged_eigvals(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestInverse:
    def test_one_and_two_atom_closed_forms(self):
        # one atom: no zeros and phi = zeta; two: the one zero t_1 p_2 + t_2 p_1
        phi = blaschke_from_measure(single_atom(1.3))
        assert phi.zeros.size == 0
        assert abs(phi(0.4) - np.exp(1.3j)) < 1e-15
        rng = np.random.default_rng(40)
        for _ in range(20):
            measure = random_measure(rng, 2)
            (t1, t2), (p1, p2) = measure.weights, np.conj(measure.atoms)
            zeros = blaschke_from_measure(measure).zeros
            assert zeros.shape == (1,)
            assert abs(zeros[0] - (t1 * p2 + t2 * p1)) <= 1e-15

    def test_low_degree_zeros_match_expanded_polynomial(self):
        rng = np.random.default_rng(41)
        for count in range(2, 9):
            for _ in range(5):
                measure = random_measure(rng, count)
                zeros = blaschke_from_measure(measure).zeros
                expected = expanded_numerator_zeros(measure)
                assert zeros.size == expected.size == count - 1
                # match each expected zero to its nearest computed one
                gaps = np.abs(expected[:, None] - zeros[None, :])
                assert sorted(np.argmin(gaps, axis=1)) == list(range(count - 1))
                assert np.max(np.min(gaps, axis=1)) < 1e-12

    def test_high_degree_near_circle_products_rebuild(self):
        # the monomial expansion rebuilds the panel's d48 product only to 5.4e-6
        z = random_points(np.random.default_rng(42), 400)
        products = panel_products()[:6]
        for phi in products[2], products[4], products[5]:
            assert rebuild_error(measure_from_blaschke(phi), z) < 1e-8
        assert expansion_rebuild_error(measure_from_blaschke(products[5]), z) > 1e-8

    def test_edges_rebuild(self):
        # degree 0; degree 1 with its zero near the circle, or on the
        # normalizing ring, where B vanishes; and the benchmark roundtrip
        # panel's d64, d96 and d128 products, whose |B| fell to 6.6e-12,
        # 7.2e-16 and 5.3e-16 at the best of three fixed normalizing points
        products = [BlaschkeProduct(zeros=[], prefactor=np.exp(0.9j)),
                    BlaschkeProduct(zeros=[0.999 * np.exp(2.0j)], prefactor=np.exp(-1.1j)),
                    BlaschkeProduct(zeros=[0.9], prefactor=np.exp(0.4j))]
        products += panel_products()[6:]
        for phi in products:
            assert rebuild_error(measure_from_blaschke(phi), INVERSE_SAMPLES) < 1e-12, phi.degree

    def test_rebuilds_every_product_the_expansion_rebuilds(self):
        rng = np.random.default_rng(43)
        z = random_points(rng, 200)
        degrees = np.repeat((4, 8, 12, 16, 24, 32, 48), 16)
        for phi in near_circle_products(rng, degrees):
            measure = measure_from_blaschke(phi)
            if expansion_rebuild_error(measure, z) < 1e-8:
                assert rebuild_error(measure, z) < 1e-8, phi.degree

    @pytest.mark.parametrize("eigvals", [
        unconverged_eigvals, lambda a: np.full(len(a), np.nan, dtype=complex)],
        ids=["raises", "nan"])
    def test_eigensolve_failure_is_convergence_error(self, monkeypatch, eigvals):
        monkeypatch.setattr(family.np.linalg, "eigvals", eigvals)
        with pytest.raises(family.ConvergenceError, match="eigensolve"):
            blaschke_from_measure(random_measure(np.random.default_rng(44), 5))


# Whole-array forms of the per-point kernels, as written before blocking:
# one (points x m) temporary per step and complex logs.  P, S and phi take
# the kernels' pole form, g_k = 1/(conj(zeta_k) - z): these forms check the
# slicing, and S's cancellation points would magnify the rounding of other
# algebra past 1e-12; test_schwarz.py's TestKernelAccuracy checks P and S,
# and TestInducedSelfMap phi, against mpmath.
def whole_array_log_sum(f, z):
    return np.log(1.0 - z[..., None] * f.measure.atoms) @ f.measure.weights


def whole_array_kernels(f, z):
    z = np.asarray(z, dtype=complex)
    atoms, weights, alpha = f.measure.atoms, f.measure.weights, f.alpha
    g = 1.0 / (np.conj(atoms) - z[..., None])
    t = -(g @ weights)
    p = alpha * t
    p_deriv = -alpha * ((g * g) @ weights)
    return {
        "hprime": np.exp(alpha * whole_array_log_sum(f, z)),
        "hprime_log_derivative": p,
        "schwarzian": p_deriv - 0.5 * p ** 2,
        "induced_self_map": t / (z * t - 1.0),
    }


def recording_blocks(monkeypatch, bufs):
    """Patch _blocks in every loaded galpha module whose vars() bind it, so
    that it appends to bufs the buffer view it hands each slice's kernel,
    filled with NaN, and checks that the kernel wrote all of it."""
    blocks = complexfn._blocks

    def recorded(z, width, kernel, bound=1.0):
        def spy(zb, buf):
            bufs.append(buf)
            buf.fill(np.nan)
            out = kernel(zb, buf)
            assert not np.isnan(buf).any(), "the kernel formed its terms elsewhere"
            return out
        return blocks(z, width, spy, bound)

    binders = {name for name, module in sys.modules.items()
               if name.split(".")[0] == "galpha" and vars(module).get("_blocks") is blocks}
    assert {"galpha.complexfn", "galpha.family", "galpha.schwarz", "galpha.blaschke"} <= binders
    for name in binders:
        monkeypatch.setattr(sys.modules[name], "_blocks", recorded)


def blocked_kernels(f, z):
    return {"hprime": f.hprime(z),
            "hprime_log_derivative": f.hprime_log_derivative(z),
            "schwarzian": schwarzian(f, z),
            "induced_self_map": induced_self_map(f.measure, z)}


def product_kernels(phi, z):
    """A Blaschke product's one _blocks kernel at z: phi(z)."""
    return {"product": phi(z)}


class TestBlockedKernels:
    def test_match_whole_array_formulas(self):
        rng = np.random.default_rng(62)
        for m in (3, 64):
            f = GAlphaFunction(alpha=0.75, measure=random_measure(rng, m))
            step = complexfn._BLOCK // m
            inputs = [DiskGrid().points,
                      random_points(rng, 2 * step + 123, r_max=0.999),
                      np.asarray(0.3 - 0.6j), 0.95j, np.empty((0, 3), complex)]
            for z in inputs:
                got, ref = blocked_kernels(f, z), whole_array_kernels(f, z)
                for name in ref:
                    assert np.shape(got[name]) == np.shape(z), name
                    assert np.result_type(got[name]) == np.result_type(ref[name]), name
                    assert np.all(np.abs(got[name] - ref[name])
                                  <= 1e-12 * np.abs(ref[name])), (m, name)

    def test_grid_call_equals_its_halves_bit_for_bit(self):
        # at m = 28 the default grid's 32,768 points exceed a whole number
        # of _BLOCK // m = 4,681-point slices by one point; a product of
        # degree 28 is sliced alike, and one of degree 1 not at all
        rng = np.random.default_rng(64)
        z = DiskGrid().points.ravel()
        halves = np.array_split(z, 2)
        cases = [(blocked_kernels, GAlphaFunction(alpha=float(rng.uniform(0.1, 1.0)),
                                                  measure=random_measure(rng, 28)))
                 for _ in range(10)]
        cases += [(product_kernels, random_product(rng, degree)) for degree in (1, 28)]
        for kernels, f in cases:
            whole = kernels(f, z)
            parts = [kernels(f, half) for half in halves]
            for name, values in whole.items():
                split = np.concatenate([part[name] for part in parts])
                assert np.array_equal(values, split), name

    def test_hprime_does_not_depend_on_the_call_size(self):
        # h' at a point, bit for bit, whether it is evaluated in the whole
        # default grid, in either half, in a run of rows starting 1, 3, 5 or
        # 7 rows later, or alone; a BLAS product over the atoms rounded a
        # row by its place in the slice, and the outer product of one point
        # and one atom rounded differently from every larger one
        rng, draw = np.random.default_rng(0), np.random.default_rng(1)
        z = DiskGrid().points.ravel()
        near = (1.0 - 10.0 ** draw.uniform(-8, -1, 500)) * np.exp(1j * draw.uniform(0, TWO_PI, 500))
        for m in range(1, 65):
            f = GAlphaFunction(alpha=float(rng.uniform(0.1, 1.0)),
                               measure=random_measure(rng, m))
            whole = f.hprime(z)
            halves = [f.hprime(half) for half in np.array_split(z, 2)]
            assert np.array_equal(np.concatenate(halves), whole), m
            for start in (1, 3, 5, 7):
                assert np.array_equal(f.hprime(z[start:start + 3000]),
                                      whole[start:start + 3000]), (m, start)
            for i in range(0, z.size, 997):
                assert f.hprime(z[i]) == whole[i], (m, i)
            if m in (1, 2, 5, 8, 28, 64):
                # and P, S, phi and the two norm objectives at a point, alone
                # or in one call, on grid points and on 500 points off the
                # grid near the circle: their (1, m) @ (m,) product rounded
                # apart until a lone point ran as a pair, and phi = T/(zT - 1)
                # and the objectives until they ran on arrays (the Schwarzian
                # one's scalar math differed at 21 of the 3,000 points near
                # the circle)
                for kernel in (f.hprime_log_derivative, lambda z: schwarzian(f, z),
                               lambda z: induced_self_map(f.measure, z), *_objectives(f)):
                    for points, step in ((z, 997), (near, 1)):
                        values = kernel(points)
                        for i in range(0, points.size, step):
                            assert kernel(points[i]) == values[i], (m, i)
        # and a product, or a dilatation that scales one, at a point, alone
        # or in the grid; scale * (a temporary) multiplied in place once the
        # temporary reached 16,384 points, and rounded apart
        omegas = [random_product(rng, degree) for degree in (1, 28)]
        omegas += [DilatationSpec.blaschke_scaled(0.5 * np.exp(0.3j), random_product(rng, degree))
                   for degree in (1, 4, 16)]
        for n, omega in enumerate(omegas):
            whole = omega(z)
            for i in range(0, z.size, 997):
                assert omega(z[i]) == whole[i], (n, i)

    @pytest.mark.parametrize("name", ["hprime", "hprime_log_derivative", "schwarzian",
                                      "induced_self_map", "product"])
    def test_validation_order(self, name):
        # _blocks tests |z| < bound alone and looks for NaN and inf only when
        # that fails, so they raise ValueError first, even beside a point
        # outside the domain; alone, as one point or in a grid
        rng = np.random.default_rng(72)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 5))
        kernel = {"hprime": f.hprime, "hprime_log_derivative": f.hprime_log_derivative,
                  "schwarzian": lambda z: schwarzian(f, z),
                  "induced_self_map": lambda z: induced_self_map(f.measure, z),
                  "product": random_product(rng, 6)}[name]
        bound, shown = (1.0 + 1e-9, "1.000000001") if name == "product" else (1.0, "1.0")

        def placed(bad):
            grid = DiskGrid().points.copy()
            grid[100, 30] = bad
            return np.asarray(bad, dtype=complex), np.array([bad], dtype=complex), grid

        for bad in (np.nan, np.inf, -np.inf):
            for z in placed(bad) + (np.array([bad, 1.5]),):
                with pytest.raises(ValueError, match="^z must be finite$") as raised:
                    kernel(z)
                assert not isinstance(raised.value, DomainError)
        for bad in (bound, 1.5j):
            for z in placed(bad):
                with pytest.raises(DomainError, match=re.escape(f"evaluation requires |z| < {shown}")):
                    kernel(z)

    def test_slices_share_one_buffer(self, monkeypatch):
        # the default grid makes 8 slices at m = 28, and 15 for a product of
        # degree 28, which holds 2m terms per point, but one at degree 1; each
        # kernel forms its terms in the view of one buffer that _blocks
        # hands it, not in a fresh slice-sized array
        rng = np.random.default_rng(67)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 28))
        hmap = HarmonicMap(analytic_part=f, dilatation=DilatationSpec.constant(0.3j))
        kernels = {"hprime": f.hprime, "hprime_log_derivative": f.hprime_log_derivative,
                   "schwarzian": lambda z: schwarzian(f, z), "jacobian": hmap.jacobian,
                   "induced_self_map": lambda z: induced_self_map(f.measure, z)}
        slices = dict.fromkeys(kernels, 8)
        for degree in (1, 28):
            phi = random_product(rng, degree)
            kernels[f"product_{degree}"] = phi
            slices[f"product_{degree}"] = 15 if degree > 1 else 1
        outs = []
        recording_blocks(monkeypatch, outs)
        for name, kernel in kernels.items():
            outs.clear()
            kernel(DiskGrid().points)
            assert len(outs) == slices[name], name
            assert all(out is not None and np.shares_memory(out, outs[0])
                       for out in outs), name

    def test_temporaries_bounded(self):
        # a degree-32 product on the grid once broadcast 32.5 MB of
        # (points x zeros) terms
        rng = np.random.default_rng(63)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 64))
        z = DiskGrid().points
        phi = random_product(rng, 32)
        dilatation = DilatationSpec.blaschke_scaled(0.5, phi)
        kernels = {"hprime": f.hprime, "schwarzian": lambda z: schwarzian(f, z),
                   "jacobian": HarmonicMap(analytic_part=f, dilatation=dilatation).jacobian,
                   "product": phi}
        for name, kernel in kernels.items():
            tracemalloc.start()
            try:
                kernel(z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2 ** 20, name


class TestVerifyWork:
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_verify_evaluates_no_series(self, monkeypatch, alpha):
        # injectivity rests on the exact criterion alone, so verify never
        # sums the 256-term series of h or g, whichever side of 1/2 alpha is
        monkeypatch.setattr(GAlphaFunction, "h",
                            lambda self, z: pytest.fail("verify evaluated h"))
        monkeypatch.setattr(HarmonicMap, "g",
                            lambda self, z: pytest.fail("verify evaluated g"))
        spec = FunctionSpec(alpha=alpha, measure=roots_of_unity_measure(3),
                            dilatation=DilatationSpec.polynomial([0.1, 0.05j]))
        report = run_verification(spec)
        assert report.passed and report.checks[-1].name == (
            "univalence_criterion_margin" if alpha < 0.5 else "dilatation_sup")

    def test_verify_forms_one_minus_only_in_the_norms(self, monkeypatch):
        # a work guard that counts rather than times: _blocks hands verify
        # no slice, so it evaluates no per-point kernel; its pointwise checks
        # once formed u = 1 - zeta z on every slice of the grid, its origin
        # check at z = 0, and its norm search on the grid; its norms are the
        # closed-form radial limits
        spec = FunctionSpec(alpha=0.3, measure=roots_of_unity_measure(28),
                            dilatation=DilatationSpec.polynomial([0.1, 0.2j]))
        slices = []
        recording_blocks(monkeypatch, slices)
        assert run_verification(spec).passed
        assert slices == []

    def test_verify_bounds_a_polynomial_dilatation_once(self, monkeypatch):
        # the spec's guard computes the bound; dilatation_sup and the
        # univalence margin (alpha < 1/2) read it from the spec
        calls, sup_on_circle = [], harmonic._sup_on_circle

        def counted(dilatation):
            calls.append(dilatation)
            return sup_on_circle(dilatation)

        monkeypatch.setattr(harmonic, "_sup_on_circle", counted)
        measure = roots_of_unity_measure(3)
        spec = FunctionSpec(alpha=0.3, measure=measure,
                            dilatation=DilatationSpec.polynomial([0.1, 0.2j, -0.05]))
        report = run_verification(spec)
        assert report.passed
        assert "univalence_criterion_margin" in [c.name for c in report.checks]
        assert len(calls) == 1
        assert not hasattr(verify, "_sup_on_circle")
