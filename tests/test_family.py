import tracemalloc

import numpy as np
import pytest

from galpha import family
from galpha.blaschke import BlaschkeProduct, boundary_roots
from galpha.complexfn import TWO_PI, DomainError, default_grid
from galpha.family import (AtomicMeasure, GAlphaFunction, blaschke_from_measure,
                           from_blaschke, induced_self_map, measure_from_blaschke,
                           measure_from_roots, roots_of_unity_measure, single_atom)
from galpha.schwarz import schwarzian

from test_blaschke import random_product


def random_measure(rng, count):
    while True:
        angles = np.sort(rng.uniform(0.0, TWO_PI, count))
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        if count == 1 or gaps.min() > 1e-3:
            return AtomicMeasure(angles=angles, weights=rng.dirichlet(np.ones(count)))


def random_points(rng, n, r_max=0.9):
    return r_max * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))


def series_coefficient_oracle(member, n_max):
    """h' coefficients from the log-series recurrence, independent of quadrature.

    log h' = sum_j L_j z^j with L_j = -(alpha/j) sum_k t_k zeta_k^j, and
    exp of a power series follows c_n = (1/n) sum_j (j L_j) c_(n-j).
    """
    atoms, weights = member.measure.atoms, member.measure.weights
    j = np.arange(1, n_max + 1)
    ell = -(member.alpha / j) * (atoms[None, :] ** j[:, None] @ weights)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, n_max + 1):
        c[n] = np.sum(j[:n] * ell[:n] * c[n - 1 :: -1][:n]) / n
    return c


class TestAtomicMeasure:
    def test_canonicalization_sorts_and_wraps(self):
        m = AtomicMeasure(angles=[5.0, -1.0], weights=[0.5, 0.5])
        assert np.all(np.diff(m.angles) > 0)
        assert np.all((0.0 <= m.angles) & (m.angles < TWO_PI))

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

    def test_domain_error_outside_disk(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        with pytest.raises(DomainError):
            f.hprime(1.0 + 0.0j)

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
        assert f.h(0.5 + 0.0j, n_terms=16) == pytest.approx(0.375, abs=1e-14)

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
        assert f.h(z) == pytest.approx(oracle, abs=1e-9)

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

    def test_equality_generator_third_coefficient(self):
        # h' = (1-z^2)^(1/2): binomial gives a_3 = -1/6
        f = GAlphaFunction(alpha=1.0, measure=roots_of_unity_measure(2))
        a = f.coefficients(4)
        assert a[2] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert abs(a[2]) * 3 * 2 / f.alpha == pytest.approx(1.0, abs=1e-10)

    def test_against_series_recurrence_oracle(self):
        rng = np.random.default_rng(23)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 4))
        hp = f.hprime_coefficients(49)
        oracle = series_coefficient_oracle(f, 49)
        assert np.max(np.abs(hp - oracle)) < 1e-10

    def test_coefficient_bound_random_members(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            alpha = rng.uniform(0.1, 1.0)
            f = GAlphaFunction(alpha=alpha, measure=random_measure(rng, int(rng.integers(1, 7))))
            a = f.coefficients(50)
            n = np.arange(2, 51)
            assert np.all(np.abs(a[1:]) <= alpha / (n * (n - 1)) + 1e-9)


class TestMembershipAndResidual:
    def test_extremal_margin_positive(self):
        for alpha in (0.25, 1.0):
            f = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
            assert f.membership_margin() > 0.0

    def test_origin_contribution(self):
        rng = np.random.default_rng(25)
        f = GAlphaFunction(alpha=0.5, measure=random_measure(rng, 3))
        # at z = 0 the membership expression has real part 0, margin 1/2
        assert (0.0 * f.hprime_log_derivative(0.0 + 0.0j)).real == pytest.approx(0.0)
        assert f.membership_margin() <= 0.5

    def test_random_member_margin_positive(self):
        rng = np.random.default_rng(26)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 5))
        assert f.membership_margin() > 0.0

    def test_extremal_residual_vanishes(self):
        # the single-atom member attains equality at every z in the disk
        f = GAlphaFunction(alpha=0.6, measure=single_atom(0.0))
        r = np.linspace(0.0, 0.999, 200)
        assert np.max(np.abs(f.real_part_bound_residual(r.astype(complex)))) < 1e-11

    def test_symmetric_two_atom_origin_value(self):
        f = GAlphaFunction(alpha=0.8, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        # h''(0) = 0 there, so the residual at 0 is alpha/2
        assert f.real_part_bound_residual(0.0 + 0.0j) == pytest.approx(0.4)

    def test_random_member_residual_nonnegative(self):
        rng = np.random.default_rng(27)
        f = GAlphaFunction(alpha=0.9, measure=random_measure(rng, 4))
        z = random_points(rng, 1000, r_max=0.99)
        assert np.min(f.real_part_bound_residual(z)) >= -1e-12

    def test_residual_matches_direct_formula(self):
        # oracle: the textbook expression, accurate away from the boundary
        rng = np.random.default_rng(61)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 5))
        z = random_points(rng, 500)
        p = f.hprime_log_derivative(z)
        direct = (f.alpha / 2.0
                  - (1.0 - np.abs(z) ** 2) * np.abs(p) ** 2 / (2.0 * f.alpha)
                  - (z * p).real)
        assert np.max(np.abs(direct - f.real_part_bound_residual(z))) < 1e-12


class TestSubordinationWitness:
    def test_single_atom_is_rotation(self):
        rng = np.random.default_rng(28)
        theta = 1.3
        f = GAlphaFunction(alpha=0.4, measure=single_atom(theta))
        z = random_points(rng, 100)
        assert np.max(np.abs(f.subordination_witness(z) - np.exp(1j * theta) * z)) < 1e-10

    def test_vanishes_at_origin(self):
        rng = np.random.default_rng(29)
        f = GAlphaFunction(alpha=0.7, measure=random_measure(rng, 6))
        assert abs(f.subordination_witness(0.0 + 0.0j)) < 1e-12

    def test_symmetric_two_atom_closed_form(self):
        # h' = (1-z^2)^(alpha/2), so omega = 1 - (h')^(1/alpha) = 1 - sqrt(1-z^2)
        rng = np.random.default_rng(30)
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        z = random_points(rng, 100)
        oracle = 1.0 - np.sqrt(1.0 - z * z)
        assert np.max(np.abs(f.subordination_witness(z) - oracle)) < 1e-12

    def test_stays_in_disk_on_grid(self):
        rng = np.random.default_rng(31)
        f = GAlphaFunction(alpha=0.85, measure=random_measure(rng, 5))
        w = f.subordination_witness(default_grid().points())
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
            back = measure_from_roots(boundary_roots(phi))
            assert np.max(np.abs(back.angles - measure.angles)) < 1e-8
            assert np.max(np.abs(back.weights - measure.weights)) < 1e-8

    def test_from_blaschke_member_is_wellformed(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        f = from_blaschke(0.5, phi)
        assert np.allclose(np.sort(f.measure.weights), [0.25, 0.75], atol=1e-10)
        assert f.membership_margin() > 0.0


# Whole-array forms of the per-point kernels, as written before blocking:
# one (points x m) temporary per step, complex logs and a three-operand einsum.
def whole_array_log_sum(f, z):
    return np.log(1.0 - z[..., None] * f.measure.atoms) @ f.measure.weights


def whole_array_kernels(f, z):
    z = np.asarray(z, dtype=complex)
    atoms, weights, alpha = f.measure.atoms, f.measure.weights, f.alpha
    tg = weights / (1.0 - z[..., None] * atoms)
    cross = 1.0 - atoms[:, None] * np.conj(atoms[None, :])
    np.fill_diagonal(cross, 0.0)
    p = -alpha * ((atoms / (1.0 - z[..., None] * atoms)) @ weights)
    p_deriv = -alpha * ((atoms ** 2 / (1.0 - z[..., None] * atoms) ** 2) @ weights)
    return {
        "hprime": np.exp(alpha * whole_array_log_sum(f, z)),
        "hprime_log_derivative": p,
        "real_part_bound_residual": 0.5 * alpha * np.einsum(
            "...j,...k,jk->...", tg, np.conj(tg), cross).real,
        "subordination_witness": 1.0 - np.exp(whole_array_log_sum(f, z)),
        "schwarzian": p_deriv - 0.5 * p ** 2,
    }


def blocked_kernels(f, z):
    return {"hprime": f.hprime(z),
            "hprime_log_derivative": f.hprime_log_derivative(z),
            "real_part_bound_residual": f.real_part_bound_residual(z),
            "subordination_witness": f.subordination_witness(z),
            "schwarzian": schwarzian(f, z)}


class TestBlockedKernels:
    def test_match_whole_array_formulas(self):
        # m = 3 sums the residual's atom pairs one by one, m = 64 through BLAS
        rng = np.random.default_rng(62)
        for m in (3, 64):
            f = GAlphaFunction(alpha=0.75, measure=random_measure(rng, m))
            step = family._BLOCK // m
            inputs = [default_grid().points(),
                      random_points(rng, 2 * step + 123, r_max=0.999),
                      np.asarray(0.3 - 0.6j), 0.95j]
            for z in inputs:
                got, ref = blocked_kernels(f, z), whole_array_kernels(f, z)
                # the residual's rounding scale is the size of its pair terms
                tg = f.measure.weights / (1.0 - np.asarray(z)[..., None] * f.measure.atoms)
                pair_scale = 0.5 * f.alpha * np.abs(tg).sum(axis=-1) ** 2
                for name in ref:
                    assert np.shape(got[name]) == np.shape(z), name
                    scale = (pair_scale if name == "real_part_bound_residual"
                             else np.abs(ref[name]))
                    assert np.all(np.abs(got[name] - ref[name]) <= 1e-12 * scale), (m, name)

    def test_single_atom_residual_exactly_zero(self):
        f = GAlphaFunction(alpha=0.9, measure=single_atom(2.1))
        assert np.all(f.real_part_bound_residual(default_grid().points()) == 0.0)

    def test_residual_near_clustered_atoms_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        # two atoms 1e-3 apart, alone and with four light atoms elsewhere
        measures = [AtomicMeasure(angles=[1.0, 1.001], weights=[0.6, 0.4]),
                    AtomicMeasure(angles=[1.0, 1.001, 2.5, 3.7, 4.9, 5.8],
                                  weights=[0.5, 0.4, 0.04, 0.03, 0.02, 0.01])]
        z = (1.0 - 1e-4) * np.exp(-1j * np.linspace(0.995, 1.006, 23))
        for measure in measures:
            f = GAlphaFunction(alpha=0.8, measure=measure)
            got = f.real_part_bound_residual(z)
            alpha = mpmath.mpf(f.alpha)
            atoms = [mpmath.mpc(a.real, a.imag) for a in measure.atoms]
            for zf, value in zip(z, got):
                w = mpmath.mpc(zf.real, zf.imag)
                p = -alpha * mpmath.fsum(mpmath.mpf(t) * a / (1 - a * w)
                                         for t, a in zip(measure.weights, atoms))
                ref = (alpha / 2 - (1 - abs(w) ** 2) * abs(p) ** 2 / (2 * alpha)
                       - mpmath.re(w * p))
                # the direct formula in floats is off by up to 1.5e-10 here
                assert abs(value - float(ref)) <= 1e-11 * abs(float(ref))

    def test_temporaries_bounded(self):
        rng = np.random.default_rng(63)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 64))
        z = default_grid().points()
        for kernel in (f.real_part_bound_residual, f.subordination_witness):
            tracemalloc.start()
            try:
                kernel(z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2 ** 20, kernel.__name__
