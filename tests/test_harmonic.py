import math

import numpy as np
import pytest

from galpha.blaschke import BlaschkeProduct
from galpha.complexfn import TWO_PI, DiskGrid
from galpha.family import AtomicMeasure, GAlphaFunction, single_atom
from galpha.harmonic import (DilatationSpec, HarmonicMap, _sup_on_circle,
                             univalence_criterion)

from test_family import random_measure, random_points


def extremal(alpha=1.0, theta=0.0):
    return GAlphaFunction(alpha=alpha, measure=single_atom(theta))


def dirichlet_kernel(n, a):
    """Coefficients of (a/(n+1)) sum_k (e^(-i theta0) z)^k, k = 0..n, whose sup
    on the disk is a, at z = e^(i theta0); theta0 lies midway between two of
    max(1024, 8(n+1)) equispaced points, where a sampled max reads below a."""
    theta0 = np.pi / max(1024, 8 * (n + 1))
    return a / (n + 1) * np.exp(-1j * theta0 * np.arange(n + 1))


class TestDilatationSpec:
    def test_constant_evaluation(self):
        om = DilatationSpec.constant(0.3 + 0.1j)
        assert om(0.5 + 0.5j) == pytest.approx(0.3 + 0.1j)

    def test_monomial_evaluation(self):
        om = DilatationSpec.monomial(0.5, 2)
        assert om(0.4 + 0.0j) == pytest.approx(0.08)

    def test_polynomial_evaluation(self):
        om = DilatationSpec.polynomial([0.1, 0.0, 0.2])
        assert om(0.5 + 0.0j) == pytest.approx(0.15)

    def test_blaschke_scaled_evaluation(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        om = DilatationSpec.blaschke_scaled(0.5, phi)
        assert om(0.0 + 0.0j) == pytest.approx(-0.25)

    def test_sense_preservation_enforced(self):
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.constant(1.0 + 0.0j)
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.polynomial([0.6, 0.6])  # modulus 1.2 near z = 1
        # 5 (1 - z^1024) vanishes at the 1024th roots of unity
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.polynomial([5.0] + [0.0] * 1023 + [-5.0])
        # |1.2 z^4096| is 0.8 at r = 1 - 1e-4 but exceeds 1 near the circle
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.monomial(1.2, 4096)
        # |phi| = 1 on the circle, so sup |omega| over the disk is |scale|
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.blaschke_scaled(1.0 - 1e-10, phi)
        DilatationSpec.blaschke_scaled(1.0 - 2e-9, phi)

    @pytest.mark.parametrize("n,a", [(100, 1.002), (1000, 1.004), (4095, 1.004)])
    def test_sense_preservation_certified_between_samples(self, n, a):
        # an equispaced sample reads at most 0.996 a here, below 1 - 1e-9
        samples = max(1024, 8 * (n + 1))
        theta = TWO_PI * np.arange(samples) / samples
        assert np.max(np.abs(np.polynomial.polynomial.polyval(
            np.exp(1j * theta), dirichlet_kernel(n, a)))) < 1.0 - 1e-9
        with pytest.raises(ValueError, match="sense-preserving"):
            DilatationSpec.polynomial(dirichlet_kernel(n, a))

    def test_one_representation(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        with pytest.raises(ValueError, match="exactly one"):
            DilatationSpec()
        with pytest.raises(ValueError, match="exactly one"):
            DilatationSpec(coefficients=[0.1], blaschke=phi)
        with pytest.raises(ValueError, match="scale applies"):
            DilatationSpec(coefficients=[0.1], scale=0.5)
        with pytest.raises(ValueError, match="degree"):
            DilatationSpec.monomial(0.5, 0)
        assert np.array_equal(DilatationSpec.monomial(0.5, 2).coefficients, [0, 0, 0.5])

    def test_malformed_coefficients_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            DilatationSpec.polynomial([[0.3, 0.2], [0.1, 0.0]])
        with pytest.raises(ValueError, match="nonempty"):
            DilatationSpec.polynomial([])

    def test_sup_bound_is_kept_but_neither_compared_nor_shown(self):
        om = DilatationSpec.constant(0.3j)
        assert om.sup_bound == _sup_on_circle(om) == pytest.approx(0.3)
        assert om == DilatationSpec.constant(0.3j)
        assert om != DilatationSpec.constant(0.2j)
        assert "sup_bound" not in repr(om)
        with pytest.raises(TypeError):
            DilatationSpec(coefficients=[0.3j], sup_bound=0.0)

    def test_coefficients_are_a_read_only_copy(self):
        # a write would move |omega| past the bound the guard certified
        coefficients = np.array([0.1, 0.2j])
        om = DilatationSpec.polynomial(coefficients)
        with pytest.raises(ValueError, match="read-only"):
            om.coefficients[1] = 5.0
        assert coefficients.flags.writeable
        coefficients[1] = 5.0
        assert abs(om(0.9)) < 0.3 <= om.sup_bound <= 0.301

    def test_equality_by_value(self):
        om = DilatationSpec.polynomial([0.1, 0.2j])
        assert (om == DilatationSpec.polynomial(np.array([0.1, 0.2j]))) is True
        assert (om == DilatationSpec.polynomial([0.1, 0.3j])) is False
        assert om != DilatationSpec.monomial(0.2j, 1)
        phi = BlaschkeProduct(zeros=[0.5, -0.2j])
        scaled = DilatationSpec.blaschke_scaled(0.5, phi)
        assert scaled == DilatationSpec.blaschke_scaled(0.5, BlaschkeProduct(zeros=[0.5, -0.2j]))
        assert scaled != DilatationSpec.blaschke_scaled(0.4, phi)
        assert scaled != DilatationSpec.blaschke_scaled(0.5, BlaschkeProduct(zeros=[0.5]))
        assert scaled != om


class TestSupOnCircle:
    def test_exact_for_blaschke_and_single_coefficients(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j, -0.2j])
        assert _sup_on_circle(DilatationSpec.blaschke_scaled(0.3 - 0.4j, phi)) == 0.5
        assert _sup_on_circle(DilatationSpec.constant(0.5)) == 0.5
        assert _sup_on_circle(DilatationSpec.monomial(0.6j, 4096)) == 0.6
        assert _sup_on_circle(DilatationSpec.polynomial([0.0] * 4097)) == 0.0

    def test_bound_is_above_the_sup_and_within_its_allowance(self):
        # the Dirichlet kernel's sup a is its value at the peak; a random
        # polynomial's sup is read at 2^20 points, within 1e-7 relative
        for n in (1, 7, 100, 1000):
            bound = _sup_on_circle(DilatationSpec.polynomial(dirichlet_kernel(n, 0.9)))
            assert 0.9 <= bound <= 0.9 * (1.0 + 1.3e-3), n
        rng = np.random.default_rng(71)
        theta = TWO_PI * np.arange(1 << 20) / (1 << 20)
        for n in (2, 5, 30):
            coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            coeffs *= 0.5 / np.abs(coeffs).sum()
            values = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * theta), coeffs))
            sup = float(np.max(values))
            bound = _sup_on_circle(DilatationSpec.polynomial(coeffs))
            assert sup <= bound <= sup * (1.0 + 1.3e-3), n

    def test_leading_and_trailing_zeros_do_not_widen_the_span(self):
        # |z^3 (c0 + c1 z)| = |c0 + c1 z| on the circle
        inner = _sup_on_circle(DilatationSpec.polynomial([0.2, 0.3j]))
        assert _sup_on_circle(DilatationSpec.polynomial([0, 0, 0, 0.2, 0.3j, 0])) == inner


class TestGCoefficients:
    def test_linear_hprime_monomial_dilatation(self):
        # h' = 1 - z, omega = s z: g' = s (z - z^2), g = s (z^2/2 - z^3/3)
        scale = 1.0 - 1e-8
        m = HarmonicMap(analytic_part=extremal(),
                        dilatation=DilatationSpec.monomial(scale, 1))
        z = np.exp(1j * np.linspace(0.0, TWO_PI, 7)) * np.linspace(0.1, 1.0 - 1e-6, 7)
        assert np.max(np.abs(m.g(z) - scale * (z ** 2 / 2 - z ** 3 / 3))) < 1e-15

    def test_zero_dilatation_gives_analytic_map(self):
        m = HarmonicMap(analytic_part=extremal(),
                        dilatation=DilatationSpec.constant(0.0))
        z = np.array([0.3 + 0.2j, -0.7j, 0.999])
        assert np.array_equal(m.g(z), np.zeros(3))
        assert np.max(np.abs(m.evaluate(z) - m.analytic_part.h(z))) < 1e-15

    def test_constant_dilatation_scales_h_coefficients(self):
        # c = 0.5 multiplies exactly in binary floating point, so g = 0.5 h
        # bit for bit
        f = extremal(alpha=0.75)
        m = HarmonicMap(analytic_part=f,
                        dilatation=DilatationSpec.constant(0.5))
        z = random_points(np.random.default_rng(50), 100, r_max=1.0 - 1e-6)
        assert np.array_equal(m.g(z), 0.5 * f.h(z))

    def test_series_reproduces_dilatation(self):
        # g' = omega h' on |z| = 0.85, g' by a central difference of step
        # 1e-5, whose truncation error is ~2e-11 |g'''|
        rng = np.random.default_rng(51)
        f = GAlphaFunction(alpha=0.3, measure=random_measure(rng, 3))
        phi = BlaschkeProduct(zeros=[0.4 - 0.2j, -0.1 + 0.5j])
        m = HarmonicMap(analytic_part=f,
                        dilatation=DilatationSpec.blaschke_scaled(0.35, phi))
        z = 0.85 * np.exp(1j * rng.uniform(0.0, TWO_PI, 200))
        gp = (m.g(z + 1e-5) - m.g(z - 1e-5)) / 2e-5
        assert np.max(np.abs(gp - m.dilatation(z) * f.hprime(z))) < 1e-9


def mp_path_values(f, dilatations, z, dps=50):
    """h(z), then g(z) for each dilatation, as z * integral_0^1 (1 or
    omega(t z)) h'(t z) dt in dps-digit arithmetic, from the exact atom
    angles: 24-node Gauss-Legendre panels [1 - 2^-j, 1 - 2^-(j+1)] and a
    last panel ending at 1 no longer than (1 - |z|)/2, so every panel's
    nearest singularity is at least a panel length away and the rule's
    error is below ~4^-48."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        nodes, weights = mpmath.gauss_quadrature(24, "legendre")
        atoms = [mpmath.expj(theta) for theta in f.measure.angles]
        powers = [mpmath.mpf(f.alpha) * t for t in f.measure.weights]
        zz = mpmath.mpc(z)
        panels = math.ceil(-math.log2(1.0 - abs(z))) + 1
        ends = [1 - mpmath.mpf(2) ** -j for j in range(panels + 1)] + [mpmath.mpf(1)]
        sums = [mpmath.mpc(0)] * (1 + len(dilatations))
        for a, b in zip(ends, ends[1:]):
            for x, w in zip(nodes, weights):
                s = zz * (a + b + (b - a) * x) / 2
                hp = mpmath.fprod((1 - c * s) ** p for c, p in zip(atoms, powers))
                values = [hp] + [omega(s) * hp for omega in dilatations]
                sums = [acc + w * (b - a) / 2 * v for acc, v in zip(sums, values)]
        return [complex(zz * acc) for acc in sums]


class TestPathIntegral:
    def test_against_50_digit_mpmath(self):
        # on each atom's ray, zeta_k z = r, h' is nearest its branch point
        mpmath = pytest.importorskip("mpmath")
        f = GAlphaFunction(alpha=0.6, measure=AtomicMeasure(
            angles=[0.4, 2.1, 4.4], weights=[0.25, 0.45, 0.3]))
        polynomial = DilatationSpec.polynomial([0.1, 0.2j, -0.15])
        scaled = DilatationSpec.blaschke_scaled(
            0.4, BlaschkeProduct(zeros=[0.5 - 0.3j, -0.2 + 0.6j], prefactor=np.exp(0.7j)))
        maps = [HarmonicMap(analytic_part=f, dilatation=om) for om in (polynomial, scaled)]
        with mpmath.workdps(50):
            coefficients = [mpmath.mpc(c) for c in polynomial.coefficients[::-1]]
            zeros = [mpmath.mpc(b) for b in scaled.blaschke.zeros]
            factor = mpmath.mpc(scaled.scale * scaled.blaschke.prefactor)
        omegas = [lambda s: mpmath.polyval(coefficients, s),
                  lambda s: factor * mpmath.fprod((s - b) / (1 - mpmath.conj(b) * s)
                                                  for b in zeros)]
        for r in (0.99, 0.999, 1.0 - 1e-6):
            z = r * np.append(np.conj(f.measure.atoms), np.exp(1j))
            h, *g = zip(*(mp_path_values(f, omegas, zk) for zk in z))
            assert np.max(np.abs(f.h(z) - h)) <= 1e-13, r
            for m, gm in zip(maps, g):
                assert np.max(np.abs(m.g(z) - gm)) <= 1e-13, r
                assert np.max(np.abs(m.evaluate(z) - (np.array(h) + np.conj(gm)))) <= 1e-13, r

    def test_shape_contract(self):
        f = extremal(alpha=0.5)
        m = HarmonicMap(analytic_part=f, dilatation=DilatationSpec.monomial(0.5, 2))
        for evaluate in (f.h, m.g, m.evaluate):
            assert isinstance(evaluate(0.5j), np.complex128)
            assert isinstance(evaluate(np.array(0.5)), np.complex128)
            assert evaluate(np.full((2, 3, 4), 0.3)).shape == (2, 3, 4)
            assert evaluate(np.array([], dtype=complex)).shape == (0,)
            assert evaluate(np.zeros((0, 5))).shape == (0, 5)


class TestJacobian:
    def test_constant_dilatation_scaling(self):
        m = HarmonicMap(analytic_part=extremal(),
                        dilatation=DilatationSpec.constant(0.5))
        z = 0.3 - 0.4j
        hp2 = abs(m.analytic_part.hprime(z)) ** 2
        assert m.jacobian(z) == pytest.approx(0.75 * hp2)

    def test_normalized_at_origin_when_dilatation_vanishes(self):
        m = HarmonicMap(analytic_part=extremal(alpha=0.5),
                        dilatation=DilatationSpec.monomial(0.8, 1))
        assert m.jacobian(0.0 + 0.0j) == pytest.approx(1.0)

    def test_two_paths_agree(self):
        rng = np.random.default_rng(52)
        f = GAlphaFunction(alpha=0.6, measure=random_measure(rng, 4))
        m = HarmonicMap(analytic_part=f,
                        dilatation=DilatationSpec.polynomial([0.2, 0.3, 0.1]))
        z = random_points(rng, 500)
        direct = m.jacobian(z)
        factored = np.abs(f.hprime(z)) ** 2 * (1.0 - np.abs(m.dilatation(z)) ** 2)
        assert np.max(np.abs(direct - factored)) < 1e-10

    def test_positive_on_grid(self):
        rng = np.random.default_rng(53)
        f = GAlphaFunction(alpha=0.4, measure=random_measure(rng, 5))
        m = HarmonicMap(analytic_part=f, dilatation=DilatationSpec.constant(0.7j))
        assert np.min(m.jacobian(DiskGrid().points)) > 0.0


class TestUnivalenceCriterion:
    def test_boundary_case_holds(self):
        # alpha = 1/4, |omega| = 1/2 = 1 - 2 alpha: the margin is exactly 0
        m = HarmonicMap(analytic_part=extremal(alpha=0.25),
                        dilatation=DilatationSpec.constant(0.5))
        holds, margin = univalence_criterion(m)
        assert holds
        assert margin == 0.0

    def test_small_dilatation_holds(self):
        m = HarmonicMap(analytic_part=extremal(alpha=0.4),
                        dilatation=DilatationSpec.constant(0.1))
        holds, margin = univalence_criterion(m)
        assert holds and margin > 0.0

    def test_large_dilatation_fails_near_boundary(self):
        m = HarmonicMap(analytic_part=extremal(alpha=0.4),
                        dilatation=DilatationSpec.constant(0.5))
        holds, margin = univalence_criterion(m)
        assert not holds
        # the margin is its value on the circle, (1 - 0.8) - 0.5 = -0.3
        assert margin == pytest.approx(-0.3, abs=1e-15)

    @pytest.mark.parametrize("value", [0.20005, 0.2001])
    def test_constant_just_past_the_criterion_fails(self, value):
        # 1 - alpha |z| (1 + |z|) sinks to 0.2 only at the circle, so a grid
        # with r_max < 1 reads a positive margin for these
        m = HarmonicMap(analytic_part=extremal(alpha=0.4),
                        dilatation=DilatationSpec.constant(value))
        holds, margin = univalence_criterion(m)
        assert not holds
        assert margin == pytest.approx(0.2 - value, abs=1e-15)

    def test_varying_dilatation_margin_reads_the_circle(self):
        # |0.5 z^2| peaks at 0.5 on the circle: the margin is 1 - 0.5 - 0.5
        m = HarmonicMap(analytic_part=extremal(alpha=0.25),
                        dilatation=DilatationSpec.monomial(0.5, 2))
        assert univalence_criterion(m) == (True, 0.0)

