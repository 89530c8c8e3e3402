"""Acceptance battery: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live;
without -s they appear in the captured stdout of each test.
"""

import time

import numpy as np
import pytest

from galpha.blaschke import BlaschkeProduct, boundary_roots
from galpha.complexfn import TWO_PI, DiskGrid
from galpha.family import (AtomicMeasure, GAlphaFunction, measure_from_blaschke,
                           roots_of_unity_measure, single_atom)
from galpha.harmonic import DilatationSpec, HarmonicMap, univalence_criterion
from galpha.family import induced_self_map
from galpha.schwarz import norms

from test_certificates import nonnegative_on_box, schwarzian_slack
from test_family import pair_residual, whole_array_log_sum


def report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def binomial_coefficients(alpha: float, n_max: int) -> np.ndarray:
    """Series of (1 - z)^alpha: c_0 = 1, c_(n+1) = -c_n (alpha - n)/(n + 1)."""
    c = np.zeros(n_max + 1)
    c[0] = 1.0
    for n in range(n_max):
        c[n + 1] = -c[n] * (alpha - n) / (n + 1)
    return c


@pytest.fixture(scope="module")
def battery():
    """100 members with m <= 6 atoms and random alpha, plus grid statistics."""
    rng = np.random.default_rng(20240809)
    z = DiskGrid().points
    members, stats = [], []
    for _ in range(100):
        count = int(rng.integers(1, 7))
        while True:
            angles = np.sort(rng.uniform(0.0, TWO_PI, count))
            gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
            if count == 1 or gaps.min() > 1e-3:
                break
        alpha = float(rng.uniform(0.05, 1.0))
        f = GAlphaFunction(alpha=alpha, measure=AtomicMeasure(
            angles=angles, weights=rng.dirichlet(np.ones(count))))
        n = np.arange(2, 51)
        a = f.coefficients(50)[1:]
        # omega with h' = (1 - omega)^alpha, omega = 1 - exp(L)
        omega = -np.expm1(whole_array_log_sum(f, z))
        stats.append({
            "ratio_max": float(np.max(np.abs(a) * n * (n - 1) / alpha)),
            "margin": 0.5 - float(np.max((z * f.hprime_log_derivative(z)).real)) / alpha,
            "residual_min": float(np.min(pair_residual(f, z))),
            "witness_max": float(np.max(np.abs(omega))),
            "witness_origin": float(abs(-np.expm1(whole_array_log_sum(f, np.array(0j))))),
        })
        members.append(f)
    return members, stats


class TestCriterion01ExtremalSchwarzianNorm:
    def test_sharp_values(self):
        ok = True
        for alpha, sharp in ((0.25, 1.125), (0.5, 2.5), (1.0, 6.0)):
            f = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
            start = time.perf_counter()
            rep = norms(f)
            elapsed = time.perf_counter() - start
            ok &= abs(rep.schwarzian_norm.value - sharp) <= 1e-3
            ok &= elapsed < 5.0
        report("01 extremal Schwarzian norm = 2a(2+a) within 1e-3, < 5 s", ok)


class TestCriterion02ExtremalPreSchwarzianNorm:
    def test_sharp_values_and_qc_constant(self):
        ok = True
        for alpha in (0.25, 0.5, 1.0):
            f = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
            rep = norms(f)
            ok &= abs(rep.pre_schwarzian_norm.value - 2 * alpha) <= 1e-3
            if alpha == 0.25:
                ok &= rep.qc_constant == 3.0
            else:
                ok &= rep.qc_constant is None
        report("02 extremal pre-Schwarzian norm = 2a within 1e-3, qc = 3", ok)


class TestCriterion03BlaschkeRoundTrip:
    def test_hundred_random_products(self):
        rng = np.random.default_rng(3)
        # the comparison points of galpha verify's round trip: |z| <= 0.9
        z = (np.exp(1j * (TWO_PI * np.arange(96) / 96))[:, None]
             * np.linspace(0.9 / 8, 0.9, 8)[None, :])
        start = time.perf_counter()
        ok = True
        for _ in range(100):
            degree = int(rng.integers(1, 9))
            radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, degree))
            phi = BlaschkeProduct(
                zeros=radii * np.exp(1j * rng.uniform(0.0, TWO_PI, degree)),
                prefactor=np.exp(1j * rng.uniform(0.0, TWO_PI)))
            _, residues = boundary_roots(phi)
            ok &= abs(residues.sum() - 1.0) < 1e-10
            ok &= bool(np.all((residues > 0.0) & (residues < 1.0)))
            measure = measure_from_blaschke(phi)
            err = float(np.max(np.abs(phi(z) - induced_self_map(measure, z))))
            ok &= err < 1e-8
        elapsed = time.perf_counter() - start
        ok &= elapsed < 30.0
        report(f"03 100 Blaschke round trips < 1e-8 in {elapsed:.1f} s (< 30 s)", ok)


class TestCriterion04WorkedResidueExample:
    def test_half_zero(self):
        # z(z - 1/2)/(1 - z/2) = 1 reduces to z^2 = 1, and the residue limit
        # gives t(1) = 1/4, t(-1) = 3/4
        roots, residues = boundary_roots(BlaschkeProduct(zeros=[0.5 + 0.0j]))
        order = np.argsort(np.angle(roots) % TWO_PI)
        ok = np.max(np.abs(roots[order] - np.array([1.0, -1.0]))) < 1e-10
        ok &= np.max(np.abs(residues[order] - np.array([0.25, 0.75]))) < 1e-10
        report("04 zeros=[0.5] gives roots {1,-1}, residues {1/4,3/4}", bool(ok))


class TestCriterion05CoefficientBounds:
    def test_battery_and_equality_generators(self, battery):
        members, stats = battery
        ok = all(s["ratio_max"] <= 1.0 + 1e-9 for s in stats)
        for n in (2, 3, 4, 5):
            for alpha in (0.3, 1.0):
                f = GAlphaFunction(alpha=alpha,
                                   measure=roots_of_unity_measure(n - 1))
                a_n = f.coefficients(n)[n - 1]
                ratio = abs(a_n) * n * (n - 1) / alpha
                ok &= abs(ratio - 1.0) <= 1e-6
        report("05 coefficient bound ratios <= 1+1e-9; equality generators = 1",
               bool(ok))


class TestCriterion06MembershipAndRealPartBound:
    def test_battery_and_extremal_equality(self, battery):
        members, stats = battery
        ok = all(s["margin"] > 0.0 for s in stats)
        ok &= all(s["residual_min"] >= -1e-12 for s in stats)
        # equality case: the single-atom member, along the radius toward the
        # branch point conj(zeta) of its factor
        theta = 1.1
        f = GAlphaFunction(alpha=0.6, measure=single_atom(theta))
        r = np.linspace(0.0, 1.0 - 1e-4, 400)
        ray = r * np.exp(-1j * theta)
        ok &= bool(np.max(np.abs(pair_residual(f, ray))) <= 1e-10)
        report("06 membership margin > 0; residual >= -1e-12; equality case",
               bool(ok))


class TestCriterion07SubordinationWitness:
    def test_battery_and_single_atom(self, battery):
        members, stats = battery
        ok = all(s["witness_max"] < 1.0 for s in stats)
        ok &= all(s["witness_origin"] < 1e-12 for s in stats)
        rng = np.random.default_rng(7)
        theta = 2.4
        f = GAlphaFunction(alpha=0.35, measure=single_atom(theta))
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(
            1j * rng.uniform(0, TWO_PI, 100))
        err = np.max(np.abs(-np.expm1(whole_array_log_sum(f, z)) - np.exp(1j * theta) * z))
        ok &= bool(err < 1e-10)
        report("07 |omega| < 1 on grid, omega(0) = 0; single atom omega = zeta z",
               bool(ok))


class TestCriterion08BoundWitnessSampler:
    def test_hundred_thousand_samples(self):
        # the slack F of the Schwarzian bound is <= 0 on [0,1]^3 by its
        # Bernstein coefficients, and so at samples from its coefficients
        slack = schwarzian_slack()
        ok = nonnegative_on_box(-slack, (1, 4, 2))
        rng = np.random.default_rng(8)
        n = 100_000
        z = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
        z *= 1.0 - 1e-12  # uniform over the open disk
        w = np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
        alpha = rng.uniform(0.0, 1.0, n)
        ok &= bool(np.all(slack(alpha, np.abs(z), np.abs(w)) <= 0.0))
        report("08 slack F <= 0 by Bernstein coefficients; 10^5 samples, zero violations", ok)


class TestCriterion09HarmonicShear:
    def test_twenty_maps_and_control(self):
        rng = np.random.default_rng(9)
        zg = DiskGrid().points
        ok = True
        for i in range(20):
            alpha = float(rng.uniform(0.05, 0.45))
            cap = 0.98 * (1.0 - 2.0 * alpha)
            count = int(rng.integers(1, 5))
            while True:
                angles = np.sort(rng.uniform(0.0, TWO_PI, count))
                gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
                if count == 1 or gaps.min() > 1e-2:
                    break
            member = GAlphaFunction(alpha=alpha, measure=AtomicMeasure(
                angles=angles, weights=rng.dirichlet(np.ones(count))))
            kind = i % 4
            phase = np.exp(1j * rng.uniform(0.0, TWO_PI))
            if kind == 0:
                om = DilatationSpec.constant(cap * phase)
            elif kind == 1:
                om = DilatationSpec.monomial(cap * phase, int(rng.integers(1, 4)))
            elif kind == 2:
                shares = rng.dirichlet(np.ones(3))
                om = DilatationSpec.polynomial(cap * shares * phase)
            else:
                zeros = 0.6 * np.sqrt(rng.uniform(0, 1, 2)) * np.exp(
                    1j * rng.uniform(0, TWO_PI, 2))
                om = DilatationSpec.blaschke_scaled(
                    cap * phase, BlaschkeProduct(zeros=zeros))
            hmap = HarmonicMap(analytic_part=member, dilatation=om)
            holds, _ = univalence_criterion(hmap)
            ok &= holds
            ok &= bool(np.min(hmap.jacobian(zg)) > 0.0)
        # control: a constant dilatation 2% past 1 - 2 alpha fails the criterion
        past = DilatationSpec.constant(1.02 * (1.0 - 2.0 * alpha))
        ok &= not univalence_criterion(HarmonicMap(analytic_part=member, dilatation=past))[0]
        report("09 20 shears: criterion holds, J > 0; control fails", bool(ok))


class TestCriterion10CoefficientQuadrature:
    def test_binomial_match(self):
        ok = True
        for alpha in (0.25, 1.0):
            f = GAlphaFunction(alpha=alpha, measure=single_atom(0.0))
            c = f.coefficients(31) * np.arange(1, 32)  # c_n = (n+1) a_(n+1)
            expected = binomial_coefficients(alpha, 30)
            ok &= bool(np.max(np.abs(c - expected)) <= 1e-13)
        report("10 h' coefficients of (1-z)^a match binomial to 1e-13", ok)
