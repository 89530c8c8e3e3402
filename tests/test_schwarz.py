import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galpha.complexfn import TWO_PI, default_grid
from galpha.family import AtomicMeasure, GAlphaFunction, single_atom
from galpha.schwarz import (SchwarzReport, norms, pre_schwarzian, schwarzian,
                            schwarzian_bound_witness)

from test_family import random_measure, random_points


class TestPreSchwarzian:
    def test_extremal_at_origin(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert pre_schwarzian(f, 0.0 + 0.0j) == pytest.approx(-1.0)

    def test_symmetric_two_atom_cancellation(self):
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        assert abs(pre_schwarzian(f, 0.0 + 0.0j)) < 1e-15

    def test_matches_finite_differences_of_hprime(self):
        rng = np.random.default_rng(41)
        f = GAlphaFunction(alpha=0.75, measure=random_measure(rng, 4))
        z = random_points(rng, 200)
        h = 1e-5
        fd = (f.hprime(z + h) - f.hprime(z - h)) / (2 * h) / f.hprime(z)
        assert np.max(np.abs(fd - pre_schwarzian(f, z))) < 1e-6


class TestSchwarzian:
    def test_extremal_origin_alpha_one(self):
        # closed form -alpha(2+alpha)/2 at the origin
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        assert schwarzian(f, 0.0 + 0.0j) == pytest.approx(-1.5)

    def test_extremal_origin_alpha_half(self):
        f = GAlphaFunction(alpha=0.5, measure=single_atom(0.0))
        assert schwarzian(f, 0.0 + 0.0j) == pytest.approx(-0.625)

    def test_matches_finite_difference_composition(self):
        rng = np.random.default_rng(42)
        f = GAlphaFunction(alpha=0.9, measure=random_measure(rng, 5))
        z = random_points(rng, 300)
        h = 1e-5
        p = pre_schwarzian(f, z)
        p_prime = (pre_schwarzian(f, z + h) - pre_schwarzian(f, z - h)) / (2 * h)
        assert np.max(np.abs((p_prime - 0.5 * p ** 2) - schwarzian(f, z))) < 1e-5

    def test_extremal_closed_form_off_axis(self):
        alpha, theta = 0.7, 2.1
        f = GAlphaFunction(alpha=alpha, measure=single_atom(theta))
        zeta = np.exp(1j * theta)
        z = 0.4 - 0.3j
        expected = -alpha * (2 + alpha) / 2 * zeta ** 2 / (1 - zeta * z) ** 2
        assert schwarzian(f, z) == pytest.approx(expected, abs=1e-14)


class TestNorms:
    def test_extremal_alpha_one_sharp_values(self):
        f = GAlphaFunction(alpha=1.0, measure=single_atom(0.0))
        rep = norms(f)
        assert rep.schwarzian_norm.value == pytest.approx(6.0, abs=1e-3)
        assert rep.pre_schwarzian_norm.value == pytest.approx(2.0, abs=1e-3)
        assert rep.qc_constant is None

    def test_extremal_quarter_alpha(self):
        f = GAlphaFunction(alpha=0.25, measure=single_atom(0.0))
        rep = norms(f)
        assert rep.pre_schwarzian_norm.value == pytest.approx(0.5, abs=1e-3)
        assert rep.qc_constant == 3.0  # (1 + 0.5)/(1 - 0.5), exact in floats

    def test_symmetric_two_atom_within_bound(self):
        f = GAlphaFunction(alpha=1.0, measure=AtomicMeasure(
            angles=[0.0, np.pi], weights=[0.5, 0.5]))
        rep = norms(f)
        assert rep.schwarzian_norm.value <= 6.0 + 1e-6

    def test_pointwise_bounds_on_grid(self):
        rng = np.random.default_rng(43)
        grid = default_grid()
        z = grid.points()
        for _ in range(5):
            alpha = rng.uniform(0.2, 1.0)
            f = GAlphaFunction(alpha=alpha, measure=random_measure(rng, 4))
            t_vals = (1 - np.abs(z) ** 2) * np.abs(pre_schwarzian(f, z))
            s_vals = (1 - np.abs(z) ** 2) ** 2 * np.abs(schwarzian(f, z))
            assert np.max(t_vals) <= 2 * alpha + 1e-9
            assert np.max(s_vals) <= 2 * alpha * (2 + alpha) + 1e-9

    def test_argmax_points_at_branch_direction(self):
        # the factor 1 - zeta z is singular at z = conj(zeta), so the norm
        # objective of the atom at angle theta peaks along arg z = -theta
        theta = 0.7
        f = GAlphaFunction(alpha=0.5, measure=single_atom(theta))
        rep = norms(f)
        gap = (np.angle(rep.schwarzian_norm.argmax) + theta) % TWO_PI
        assert min(gap, TWO_PI - gap) < 1e-3

    def test_heaviest_atom_peak_found(self):
        # The refinement once followed only the best grid point and reported
        # 0.61816 here, 8.4e-3 below the limit toward the heaviest atom.
        alpha = 0.444
        f = GAlphaFunction(alpha=alpha, measure=AtomicMeasure(
            angles=[0.9025, 4.1982, 5.5588, 6.2819],
            weights=[0.3288, 0.279, 0.0675, 0.3247]))
        t = f.measure.weights.max()
        limit = 2 * alpha * t * (2 + alpha * t)
        assert norms(f).schwarzian_norm.value >= limit - 1e-3

    def test_random_members_between_limits_and_bounds(self):
        # As z -> conj(zeta_k) radially, (1-|z|^2)|P| -> 2 alpha t_k and
        # (1-|z|^2)^2 |S| -> 2 alpha t_k (2 + alpha t_k): exact lower bounds.
        rng = np.random.default_rng(45)
        for i in range(20):
            alpha = rng.uniform(0.05, 1.0)
            f = GAlphaFunction(alpha=alpha, measure=random_measure(rng, 1 + i % 8))
            t = f.measure.weights
            rep = norms(f)
            pre, sch = rep.pre_schwarzian_norm.value, rep.schwarzian_norm.value
            assert 2 * alpha * t.max() - 1e-3 <= pre <= 2 * alpha + 1e-6
            assert (np.max(2 * alpha * t * (2 + alpha * t)) - 1e-3 <= sch
                    <= 2 * alpha * (2 + alpha) + 1e-6)

    def test_report_invariant_enforced(self):
        f = GAlphaFunction(alpha=0.75, measure=single_atom(0.0))
        rep = norms(f)
        with pytest.raises(ValueError):
            SchwarzReport(pre_schwarzian_norm=rep.pre_schwarzian_norm,
                          schwarzian_norm=rep.schwarzian_norm,
                          alpha=0.75,
                          pre_schwarzian_bound=rep.pre_schwarzian_bound,
                          schwarzian_bound=rep.schwarzian_bound,
                          qc_constant=3.0)  # alpha >= 1/2 must omit it


class TestBoundWitness:
    def test_origin_sample(self):
        w = schwarzian_bound_witness(1.0, 0.0 + 0.0j, 1.0 + 0.0j)
        assert w.value == pytest.approx(-9.0)

    def test_origin_value_at_zero(self):
        w = schwarzian_bound_witness(0.0, 0.0 + 0.0j, 0.3 + 0.4j)
        assert w.value_at_zero == pytest.approx(-6.0)

    def test_monte_carlo_signs(self):
        rng = np.random.default_rng(44)
        n = 10_000
        z = random_points(rng, n, r_max=1.0 - 1e-9)
        w = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
        alpha = rng.uniform(0, 1, n)
        out = schwarzian_bound_witness(alpha, z, w)
        assert np.all(out.value <= 0.0)
        assert np.all(out.value <= out.value_at_zero)
        assert np.all(out.value_at_zero <= 0.0)
        assert np.all(out.monotonicity_factor < 0.0)

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.0, 0.999), zt=st.floats(0.0, TWO_PI),
           s=st.floats(0.0, 1.0), wt=st.floats(0.0, TWO_PI),
           a1=st.floats(0.0, 1.0), a2=st.floats(0.0, 1.0))
    def test_nonincreasing_in_alpha(self, r, zt, s, wt, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        z, w = r * np.exp(1j * zt), s * np.exp(1j * wt)
        v_lo = schwarzian_bound_witness(lo, z, w).value
        v_hi = schwarzian_bound_witness(hi, z, w).value
        assert v_hi <= v_lo + 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            schwarzian_bound_witness(1.2, 0.0 + 0.0j, 0.0 + 0.0j)
        with pytest.raises(ValueError):
            schwarzian_bound_witness(0.5, 1.0 + 0.0j, 0.0 + 0.0j)
        with pytest.raises(ValueError):
            schwarzian_bound_witness(0.5, 0.0 + 0.0j, 1.5 + 0.0j)
