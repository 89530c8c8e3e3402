import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galpha import blaschke
from galpha.blaschke import BlaschkeProduct, _lift, boundary_roots
from galpha.complexfn import ConvergenceError, DomainError, TWO_PI


def random_product(rng, degree, r_cap=0.95, random_prefactor=True):
    radii = r_cap * np.sqrt(rng.uniform(0.0, 1.0, degree))
    zeros = radii * np.exp(1j * rng.uniform(0.0, TWO_PI, degree))
    pre = np.exp(1j * rng.uniform(0.0, TWO_PI)) if random_prefactor else 1.0
    return BlaschkeProduct(zeros=zeros, prefactor=pre)


def near_circle_products(rng, degrees):
    """Products drawn as in the benchmark's roundtrip panel: zeros uniform in
    |b| <= 0.9, then max(1, degree // 16) of them moved to 0.99 <= |b| <= 0.999,
    the first to 0.999, and a random prefactor."""
    for degree in degrees:
        zeros = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, degree)) * np.exp(
            1j * rng.uniform(0.0, TWO_PI, degree))
        near = max(1, degree // 16)
        moduli = 1.0 - 10.0 ** -rng.uniform(2.0, 3.0, near)
        moduli[0] = 0.999
        zeros[:near] = moduli * np.exp(1j * rng.uniform(0.0, TWO_PI, near))
        yield BlaschkeProduct(zeros=zeros, prefactor=np.exp(1j * rng.uniform(0.0, TWO_PI)))


# the seed and degrees of the benchmark's roundtrip panel
ROUNDTRIP_PANEL_SEED = 240714922 + 2
ROUNDTRIP_DEGREES = (8, 12, 16, 24, 32, 48, 64, 96, 128)


def panel_products():
    return list(near_circle_products(np.random.default_rng(ROUNDTRIP_PANEL_SEED),
                                     ROUNDTRIP_DEGREES))


def edge_products():
    """Eight products of degree 16 with three zeros at 1 - 1e-9, and eight of
    degree 12 with zeros clustered within ~1e-4 in angle near the circle."""
    rng = np.random.default_rng(20)
    products = []
    for _ in range(8):
        zeros = random_product(rng, 16).zeros.copy()
        zeros[:3] = (1.0 - 1e-9) * np.exp(1j * rng.uniform(0.0, TWO_PI, 3))
        cluster = (1.0 - 10.0 ** -rng.uniform(2.0, 9.0, 12)) * np.exp(
            1j * (rng.uniform(0.0, TWO_PI) + 1e-4 * rng.standard_normal(12)))
        products += [BlaschkeProduct(zeros=b, prefactor=np.exp(1j * rng.uniform(0.0, TWO_PI)))
                     for b in (zeros, cluster)]
    return products


def phase_lift(phi, t):
    """Lift of arg(e^(it) phi(e^(it))) from t = 0: the form boundary_roots solves."""
    return (phi.degree + 1) * t + _lift(phi, t)[0] - _lift(phi, 0.0)[0]


def poisson_speed(phi, z):
    """1 + sum_k (1 - |b_k|^2)/|z - b_k|^2: d/dt arg(z phi(z)) at z = e^(it)."""
    b = phi.zeros
    return 1.0 + ((1.0 - np.abs(b) ** 2) / np.abs(np.asarray(z)[..., None] - b) ** 2).sum(axis=-1)


class TestEvaluation:
    def test_single_zero_at_origin(self):
        phi = BlaschkeProduct(zeros=[0.0 + 0.0j])
        assert phi(0.5 + 0.0j) == pytest.approx(0.5)

    def test_direct_substitution(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        assert phi(0.0 + 0.0j) == pytest.approx(-0.5)

    def test_unimodular_on_boundary(self):
        rng = np.random.default_rng(7)
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        theta = rng.uniform(0.0, TWO_PI, 16)
        assert np.max(np.abs(np.abs(phi(np.exp(1j * theta))) - 1.0)) < 1e-12

    def test_contracts_the_disk(self):
        rng = np.random.default_rng(8)
        phi = random_product(rng, 3)
        z = 0.8 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
        assert np.all(np.abs(phi(z)) < 1.0)

    def test_rejects_zero_near_circle(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=[(1.0 - 1e-13) + 0.0j])

    def test_rejects_zeros_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            BlaschkeProduct(zeros=[[0.1, 0.2]])

    def test_zeros_are_a_read_only_copy(self):
        zeros = np.array([0.1, 0.2j])
        phi = BlaschkeProduct(zeros=zeros)
        with pytest.raises(ValueError, match="read-only"):
            phi.zeros[0] = 0.5
        assert zeros.flags.writeable
        zeros[0] = 0.5
        assert np.array_equal(phi.zeros, [0.1, 0.2j])

    def test_equality_by_value(self):
        phi = BlaschkeProduct(zeros=[0.1, 0.2j])
        assert (phi == BlaschkeProduct(zeros=np.array([0.1, 0.2j]))) is True
        assert (phi == BlaschkeProduct(zeros=[0.1, 0.3j])) is False
        assert phi != BlaschkeProduct(zeros=[0.1, 0.2j], prefactor=-1.0)
        assert phi != BlaschkeProduct(zeros=[0.1]) and phi != 0.1

    def test_rejects_non_unimodular_prefactor(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=[0.1 + 0.0j], prefactor=0.5)

    def test_rejects_far_outside_disk(self):
        phi = BlaschkeProduct(zeros=[0.1 + 0.0j])
        with pytest.raises(DomainError):
            phi(1.5 + 0.0j)

    def test_pole_inside_the_reach_raises(self):
        # 1/conj(b) lies within 1 + 1e-9 when |b| = 1 - 1e-10, so only the
        # pole guard, not the domain check, stops it; alone and in an array
        b = (1.0 - 1e-10) * np.exp(0.7j)
        phi = BlaschkeProduct(zeros=[0.3, b])
        pole = 1.0 / np.conj(b)
        assert abs(pole) < blaschke._REACH
        for z in (pole, np.array([0.1, 0.5j, pole, 0.99])):
            with pytest.raises(DomainError, match="pole"):
                phi(z)

    def test_degree_zero_and_domain(self):
        # the product takes its shape, scalar result and checks of z from
        # _blocks, also at degree 0 where a slice has no terms
        pre = np.exp(0.9j)
        z = 0.5 * np.exp(1j * np.arange(6.0)).reshape(2, 3)
        const = BlaschkeProduct(zeros=[], prefactor=pre)
        assert np.array_equal(const(z), np.full((2, 3), pre))
        value = const(np.asarray(0.25j))
        assert isinstance(value, np.complex128) and value == pre
        for phi in (const, BlaschkeProduct(zeros=[0.1, 0.3j])):
            with pytest.raises(DomainError):
                phi(np.array([0.5, 1.5]))
            for bad in (np.nan, np.array([0.5, np.nan + 0j])):
                with pytest.raises(ValueError, match="finite") as raised:
                    phi(bad)
                assert not isinstance(raised.value, DomainError)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.0, 0.9), zeta=st.floats(0.0, TWO_PI),
           theta=st.floats(0.0, TWO_PI))
    def test_boundary_modulus_one_property(self, r, zeta, theta):
        phi = BlaschkeProduct(zeros=[r * np.exp(1j * zeta)])
        assert abs(abs(phi(np.exp(1j * theta))) - 1.0) < 1e-12


class TestPhaseFunction:
    def test_degree_zero_identity_phase(self):
        phi = BlaschkeProduct(zeros=[])
        assert phase_lift(phi, np.pi) == pytest.approx(np.pi)

    def test_total_increase_counts_degree(self):
        phi = BlaschkeProduct(zeros=[0.0 + 0.0j])  # z*phi = z^2
        total = phase_lift(phi, TWO_PI) - phase_lift(phi, 0.0)
        assert total == pytest.approx(2.0 * TWO_PI, abs=1e-9)

    def test_strictly_increasing_dense_sample(self):
        # increments of the lift of e^(it) phi(e^(it)) over 10^4 nodes
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j])
        ts = np.linspace(0.0, TWO_PI, 10_001)
        vals = np.exp(1j * ts) * phi(np.exp(1j * ts))
        increments = np.angle(vals[1:] / vals[:-1])
        assert np.all(increments > 0.0)

    def test_sampled_phase_function_increasing(self):
        phi = BlaschkeProduct(zeros=[0.5 + 0.0j, -0.3 + 0.2j])
        ts = np.linspace(0.0, TWO_PI, 64)
        lifts = np.array([phase_lift(phi, float(t)) for t in ts])
        assert np.all(np.diff(lifts) > 0.0)

    def test_matches_dense_sampled_lift(self):
        # accumulate principal increments of e^(it) phi(e^(it)) from t = 0
        rng = np.random.default_rng(18)
        phi = random_product(rng, 12)
        for theta in (0.4, 1.7, np.pi, 4.2, 5.9):
            ts = np.linspace(0.0, theta, 200_001)
            vals = np.exp(1j * ts) * phi(np.exp(1j * ts))
            lift = np.sum(np.angle(vals[1:] / vals[:-1]))
            assert abs(phase_lift(phi, theta) - lift) < 1e-12


class TestBoundaryRoots:
    def test_zero_at_origin_roots(self):
        # z^2 = 1 in closed form; both residues 1/2
        roots, residues = boundary_roots(BlaschkeProduct(zeros=[0.0 + 0.0j]))
        assert np.allclose(np.sort(np.angle(roots) % TWO_PI), [0.0, np.pi],
                           atol=1e-12)
        assert np.allclose(residues, [0.5, 0.5], atol=1e-12)

    def test_worked_half_zero_example(self):
        # z(z-1/2)/(1-z/2) = 1 reduces to z^2 = 1;
        # t(1) = 1/(1+3) = 1/4 and t(-1) = 1/(1+1/3) = 3/4 by the residue limit
        roots, residues = boundary_roots(BlaschkeProduct(zeros=[0.5 + 0.0j]))
        order = np.argsort(np.angle(roots) % TWO_PI)
        assert np.max(np.abs(roots[order] - np.array([1.0, -1.0]))) < 1e-10
        assert np.max(np.abs(residues[order] - np.array([0.25, 0.75]))) < 1e-10

    def test_degree_zero_extremal_case(self):
        roots, residues = boundary_roots(BlaschkeProduct(zeros=[]))
        assert roots.size == 1
        assert abs(roots[0] - 1.0) < 1e-12
        assert residues[0] == pytest.approx(1.0)

    def test_degree_zero_with_prefactor(self):
        pre = np.exp(0.9j)
        roots, _ = boundary_roots(BlaschkeProduct(zeros=[], prefactor=pre))
        assert abs(roots[0] - np.conj(pre)) < 1e-12

    def test_root_count_and_invariants_random(self):
        rng = np.random.default_rng(11)
        for degree in [0] * 25 + [32, 64, 128]:
            degree = degree or int(rng.integers(1, 9))  # 0: draw from 1..8
            phi = random_product(rng, degree)
            roots, residues = boundary_roots(phi)
            assert roots.size == degree + 1
            assert abs(residues.sum() - 1.0) < 1e-10
            assert np.all(residues > 1e-12) and np.all(residues < 1.0)
            # every root solves z*phi(z) = 1
            assert np.max(np.abs(roots * phi(roots) - 1.0)) < 1e-10

    def test_zeros_near_the_circle(self):
        # the lift steepens to ~2/(1-|b|) near arg b; every root must still
        # solve z*phi(z) = 1 to roundoff in t, and its residue is 1/speed
        rng = np.random.default_rng(19)
        eps = np.finfo(float).eps
        for gap in (1e-6, 1e-9):
            zeros = random_product(rng, 12).zeros.copy()
            zeros[:2] = (1.0 - gap) * np.exp(1j * rng.uniform(0.0, TWO_PI, 2))
            phi = BlaschkeProduct(zeros=zeros, prefactor=np.exp(0.7j))
            roots, residues = boundary_roots(phi)
            assert roots.size == 13
            assert abs(residues.sum() - 1.0) < 1e-10
            speed = poisson_speed(phi, roots)
            assert np.all(np.abs(np.angle(roots * phi(roots)))
                          <= 64 * eps * speed)
            # |z - b| cancels to ~gap near arg b, in either form of it
            assert np.allclose(residues * speed, 1.0, rtol=0.0, atol=8 * eps / gap)

    def test_zero_at_the_rejection_margin(self):
        # the accepted |b| < 1 - 1e-12 leaves a residue near 1e-12 at z = 1
        roots, residues = boundary_roots(BlaschkeProduct(zeros=[1.0 - 2e-12]))
        assert np.allclose(roots, [1.0, -1.0], atol=1e-12)
        assert 0.0 < residues[0] < 2e-12
        assert residues[1] == pytest.approx(1.0, abs=1e-11)

    def test_partial_fraction_identity(self):
        # phi/(z phi - 1) = sum_k t_k/(z - z_k) on |z| <= 0.9
        rng = np.random.default_rng(12)
        phi = random_product(rng, 5)
        roots, residues = boundary_roots(phi)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
        lhs = phi(z) / (z * phi(z) - 1.0)
        rhs = (1.0 / (z[:, None] - roots)) @ residues
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_total_phase_winding(self):
        rng = np.random.default_rng(13)
        phi = random_product(rng, 6)
        total = phase_lift(phi, TWO_PI) - phase_lift(phi, 0.0)
        assert abs(total - (6 + 1) * TWO_PI) < 1e-9

    def test_polish_work_on_the_panel(self, monkeypatch):
        # a work guard that counts rather than times: the (angle, zero)
        # pairs _lift forms over the nine panel products, 193,812 measured
        # (the sample pass included, every root in every polish pass); at
        # most 6 _lift calls per product, the sample pass and the polish
        # passes (1 + 3 or 4 measured); and one evaluation of the product,
        # the finishing step's
        pairs, lifts, evaluations = [], [], []
        lift, evaluate = blaschke._lift, BlaschkeProduct.__call__

        def counted(phi, t):
            pairs.append(np.size(t) * phi.degree)
            return lift(phi, t)

        def evaluated(phi, z):
            evaluations[-1] += 1
            return evaluate(phi, z)

        monkeypatch.setattr(blaschke, "_lift", counted)
        monkeypatch.setattr(BlaschkeProduct, "__call__", evaluated)
        for phi in panel_products():
            before = len(pairs)
            evaluations.append(0)
            boundary_roots(phi)
            lifts.append(len(pairs) - before)
        assert sum(pairs) <= 203_500
        assert max(lifts) <= 6, lifts
        assert evaluations == [1] * len(lifts), evaluations

    def test_residue_sum_is_checked(self, monkeypatch):
        # residues that miss 1 by more than the solver's 1e-10 are its
        # failure; they read the slope-only pass, so double its slope
        slope = blaschke._slope
        monkeypatch.setattr(blaschke, "_slope", lambda phi, w: 2.0 * slope(phi, w))
        with pytest.raises(ConvergenceError, match="sum to 1"):
            boundary_roots(BlaschkeProduct(zeros=[0.5 + 0.0j]))

    @pytest.mark.xfail(strict=True, raises=ConvergenceError,
                       reason="the 1e-10 residue-sum tolerance is below the residues' rounding "
                              "next to a zero 1e-11 from the circle")
    def test_zero_near_the_margin_in_a_larger_product(self):
        # the constructor accepts this product, and every root and residue
        # lies within TestAccuracyOracle's rounding bounds, yet the residues
        # miss 1 by 5.2e-10: the first zero is 1e-11 from the circle
        zeros = np.array([
            -0.4541734472507829 + 0.890913284103644j, -0.7195005373508769 - 0.5348562036845905j,
            0.03925729092560519 + 0.5469661175931038j, -0.3904357987667805 - 0.014928598136280695j,
            0.08450831273260584 - 0.30355216154162157j, -0.47851653151510404 - 0.13264116609766152j,
            -0.20581296848873215 - 0.5166671164287324j, -0.20722570087614747 - 0.4635126141332148j,
            -0.8057754141196316 + 0.39007976907493996j, 0.5271566159321993 + 0.21576648562156836j,
            -0.2946114520714756 + 0.28936129544977984j, -0.11515526258699252 - 0.761390375509727j,
            -0.5396721335145926 - 0.4437777609006917j])
        _, residues = boundary_roots(BlaschkeProduct(zeros=zeros))
        assert abs(residues.sum() - 1.0) <= 1e-10


class TestAccuracyOracle:
    """boundary_roots against roots and residues found in 40 digits.

    The oracle solves Theta(t) = level by mpmath's findroot from each float
    root, with Theta - level read as the principal arg(z phi(z)) = arg pre
    + (1 - m) t + 2 arg prod_k (z - b_k) (on the circle each factor is
    (z - b)/(z conj(z - b))) and Theta' = 1 + sum_k (1 - |b_k|^2)/|z - b_k|^2.
    The float zeros are exact dyadics, so the sums and the product run in
    integers scaled by 2^160 (48 digits), with 40-digit mpmath cos, sin and
    atan2: mpmath's own arithmetic costs ~20 us per (root, zero) pair, and
    the products below hold ~38,000 pairs.
    """

    BITS = 160

    def exact(self, phi, t_float):
        """[(t*, 1/Theta'(t*))] from findroot started at each float root."""
        mp = pytest.importorskip("mpmath").mp
        one = 1 << self.BITS
        zeros = [(int(b.real * 2.0 ** self.BITS), int(b.imag * 2.0 ** self.BITS))
                 for b in phi.zeros]
        scale = [(one * one - p * p - q * q) << self.BITS for p, q in zeros]
        with mp.workdps(40):
            arg_pre = mp.arg(mp.mpc(phi.prefactor))

            @functools.lru_cache(maxsize=None)
            def lift(t):
                zr, zi = int(mp.cos(t) * one), int(mp.sin(t) * one)
                pr, pi, slope = one, 0, one
                for (p, q), s in zip(zeros, scale):
                    wr, wi = zr - p, zi - q
                    pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
                    # only the product's argument is read: keep ~160 bits
                    shift = max(pr.bit_length(), pi.bit_length()) - self.BITS
                    pr, pi = pr >> shift, pi >> shift
                    slope += s // (wr * wr + wi * wi)
                r = arg_pre + (1 - len(zeros)) * t + 2 * mp.atan2(pi, pr)
                return r - 2 * mp.pi * mp.nint(r / (2 * mp.pi)), mp.mpf(slope) / one

            roots = [mp.findroot(lambda t: lift(t)[0], mp.mpf(float(t0)), solver="newton",
                                 df=lambda t: lift(t)[1], tol=mp.mpf(10) ** -30)
                     for t0 in t_float]
            return [(t, 1 / lift(t)[1]) for t in roots]

    def test_roots_and_residues_within_their_rounding_bounds(self):
        # eps = 2^-52; at t, w_k = 1 - b_k e^(-it), P_k = (1 - |b_k|^2)/|w_k|^2,
        # Theta' = 1 + sum_k P_k and |Theta''| <= sum_k 2 |b_k| P_k/|w_k|.
        # Root: the finishing step zeroes the float arg(z phi(z)), whose
        # factors round by <= 4 eps (1 + 1/|w_k|) each (1 - conj(b) z and
        # the rounded z cancel to |w_k| near b_k), so Theta misses its level
        # by <= 4 eps (m+1 + sum_k 1/|w_k|), and t by that over Theta', plus
        # eps (2 + |t|) for t's own rounding and arg(e^(it)).
        # Residue 1/Theta': relative to P_k, 1 - |b_k|^2 rounds by
        # <= 2 eps/(1 - |b_k|^2) and |w_k|^2 by <= 4 eps (1 + 1/|w_k|); t's
        # error moves P_k by <= 4 |b_k| P_k dt/|w_k| (Theta'' with 2x slack);
        # the sum and the reciprocal add eps (2 + log2(m+1)).
        # Measured: every error is below 0.39 of its bound, and the test fails
        # on a slope term scaled by 1 + 1e-12 or without the finishing step.
        eps = np.finfo(float).eps
        for phi in panel_products() + edge_products():
            roots, residues = boundary_roots(phi)
            t = np.angle(roots)
            b, m1 = phi.zeros, phi.degree + 1
            w = np.abs(1.0 - np.exp(-1j * t)[:, None] * b)
            p = (1.0 - np.abs(b) ** 2) / w ** 2
            speed = 1.0 + p.sum(axis=1)
            dt = 4 * eps * (m1 + (1.0 / w).sum(axis=1)) / speed + eps * (2.0 + np.abs(t))
            dr = (p * (2 * eps / (1.0 - np.abs(b) ** 2) + 4 * eps * (1.0 + 1.0 / w)
                       + 4 * np.abs(b) * dt[:, None] / w)).sum(axis=1) / speed
            dr += eps * (2.0 + np.log2(m1))
            for k, (t_exact, r_exact) in enumerate(self.exact(phi, t)):
                assert abs(t_exact - float(t[k])) <= dt[k], (phi.degree, k)
                assert abs(float(residues[k]) / r_exact - 1) <= dr[k], (phi.degree, k)


class TestProductOracle:
    """BlaschkeProduct.__call__ against the product in 40-digit mpmath.

    z, the zeros b_k and the prefactor are floats, exact inputs to both.  In
    the unit roundoff u = 2^-53 and Higham's gamma_n = n u/(1 - n u)
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
    ch. 3), to first order, with d_k = 1 - conj(b_k) z:

    - z - b_k, two subtractions, errs by u relative;
    - conj(b_k) z, one complex multiply, by sqrt(2) gamma_2 |b_k z| <= 2 sqrt(2) u
      absolutely, which d_k keeps, and 1 - conj(b_k) z adds u relative: d_k
      errs by u + 2 sqrt(2) u/|d_k|, the conditioning near zeros close to the
      circle, where |d_k| >= 1 - |b_k| is small;
    - the division x/y, x = a + ib, y = d + ic with |c| <= |d| (else the
      roles swap), by Smith's method in numpy: the scale 1/(d + c (c/d))
      errs by gamma_4, its terms sharing a sign, and the final multiplies by
      u; the numerators a + b (c/d) and b - a (c/d) by gamma_3 times their
      moduli sums, each at most |x| sqrt(1 + (c/d)^2), so (5 + 3 sqrt(2)) u
      normwise;
    - then m sequential multiplies, the prefactor's included, 2 sqrt(2) u each.

    So |phi(z) - phi*(z)| <= u (sum_k (7 + 3 sqrt(2) + 2 sqrt(2)/|d_k|)
    + 2 sqrt(2) m) |phi*(z)|, raised by 1% for the second-order terms.
    """

    def test_within_its_rounding_bound(self):
        # at |z| = 0.3, 0.9 and 1, on 16 rays and on the ray of every zero with
        # |b| >= 0.99; measured: every error is below 0.32 of its bound, the
        # worst on the panel 12.3 (m+1) eps at degree 32 on the circle, and the
        # test fails with one factor scaled by 1 + 1e-13
        mp = pytest.importorskip("mpmath").mp
        u, r2 = 2.0 ** -53, np.sqrt(2.0)
        for phi in panel_products() + edge_products():
            b = phi.zeros
            rays = np.exp(1j * np.concatenate((0.1 + TWO_PI * np.arange(16) / 16,
                                               np.angle(b[np.abs(b) >= 0.99]))))
            z = np.concatenate([0.3 * rays, 0.9 * rays, rays])
            d = np.abs(1.0 - np.conj(b) * z[:, None])
            bound = 1.01 * u * ((7 + 3 * r2 + 2 * r2 / d).sum(axis=1) + 2 * r2 * phi.degree)
            got = phi(z)
            with mp.workdps(40):
                zeros = [(mp.mpc(x), mp.mpc(x.conjugate())) for x in b.tolist()]
                for k, w in enumerate(mp.mpc(x) for x in z.tolist()):
                    num, den = mp.mpc(phi.prefactor), mp.mpc(1)
                    for x, conj in zeros:
                        num, den = num * (w - x), den * (1 - conj * w)
                    exact = num / den
                    err = abs(mp.mpc(complex(got[k])) - exact) / abs(exact)
                    assert err <= bound[k], (phi.degree, abs(z[k]))
