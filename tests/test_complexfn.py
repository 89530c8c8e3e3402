import numpy as np
import pytest

from galpha.complexfn import (TWO_PI, DiskGrid, NormEstimate, cauchy_coefficients,
                              default_grid, sup_norm_estimate, worker_count)
from galpha.family import GAlphaFunction, roots_of_unity_measure


class TestCauchyCoefficients:
    def test_linear_polynomial_exact(self):
        c = cauchy_coefficients(lambda z: 1.0 - z, 2)
        assert np.max(np.abs(c - np.array([1.0, -1.0, 0.0]))) < 1e-12

    def test_zero_function(self):
        c = cauchy_coefficients(lambda z: np.zeros_like(z), 4)
        assert np.max(np.abs(c)) < 1e-14

    def test_square_root_binomial_series(self):
        # (1-z)^(1/2) = 1 - z/2 - z^2/8 - z^3/16 - ...
        c = cauchy_coefficients(lambda z: (1.0 - z) ** 0.5, 3)
        expected = np.array([1.0, -0.5, -0.125, -0.0625])
        assert np.max(np.abs(c - expected)) < 1e-13

    def test_degree_d_polynomial_reproduced(self):
        coeffs = np.array([0.3, -1.2, 0.0, 0.7, 2.0 - 1.0j, -0.25])
        f = lambda z: np.polynomial.polynomial.polyval(z, coeffs)
        c = cauchy_coefficients(f, 9)
        assert np.max(np.abs(c[:6] - coeffs)) < 1e-12
        assert np.max(np.abs(c[6:])) < 1e-10

    def test_invalid_arguments(self):
        f = lambda z: z
        with pytest.raises(ValueError):
            cauchy_coefficients(f, 8, samples=16)
        with pytest.raises(ValueError):
            cauchy_coefficients(f, 2, radius=1.2)
        with pytest.raises(ValueError):
            cauchy_coefficients(f, 0)

    def test_extremal_coefficients_by_fft_quadrature(self):
        # |a_n| = alpha/(n(n-1)) exactly for the (n-1)-th roots of unity
        for alpha in (0.5, 1.0):
            for n in range(2, 51):
                f = GAlphaFunction(alpha=alpha, measure=roots_of_unity_measure(n - 1))
                bound = alpha / (n * (n - 1))
                assert abs(abs(f.coefficients(n)[n - 1]) - bound) <= 1e-11 * bound, (alpha, n)


class TestDiskGrid:
    def test_default_shape(self):
        grid = default_grid()
        assert grid.radii.size == 64
        assert grid.angles_per_circle == 512
        assert grid.r_max == pytest.approx(1.0 - 1e-4)
        assert grid.points().shape == (512, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.5, 0.2]), angles_per_circle=16, r_max=0.9)
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.1, 0.5]), angles_per_circle=4, r_max=0.9)
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.1, 0.5]), angles_per_circle=16, r_max=1.0)

    def test_norm_estimate_argmax_in_disk(self):
        grid = default_grid()
        with pytest.raises(ValueError):
            NormEstimate(value=1.0, argmax=1.0 + 0.0j, grid=grid, refined=False)


class TestSupNormEstimate:
    def test_constant_objective(self):
        est = sup_norm_estimate(lambda z: np.ones(z.shape), default_grid())
        assert est.value == pytest.approx(1.0)
        assert abs(est.argmax) < 1.0

    def test_pre_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2) * |1/(1-z)| = 1+r along the positive axis, so the sup over
        # |z| <= 0.999 is exactly 2 - 1e-3; the slack covers cancellation dust
        grid = default_grid(boundary_gap=1e-3)
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = sup_norm_estimate(obj, grid)
        assert est.value == pytest.approx(2.0, abs=1e-3 + 1e-10)

    def test_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2)^2 * (3/2)/|1-z|^2 -> sup 6 (the classical sharp value)
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z) ** 2
        est = sup_norm_estimate(obj, default_grid())
        assert est.value == pytest.approx(6.0, abs=1e-3)
        assert est.refined

    def test_value_matches_objective_at_argmax(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = sup_norm_estimate(obj, default_grid())
        assert est.value == pytest.approx(float(obj(np.asarray(est.argmax))), abs=1e-12)

    def test_monotone_in_grid_density(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - 0.93j * z) ** 2
        radii = 1.0 - np.geomspace(1.0, 1e-4, 33)
        radii[0] = 0.0
        sparse = DiskGrid(radii=radii[::2], angles_per_circle=64,
                          r_max=float(radii[-1]))
        dense = DiskGrid(radii=radii, angles_per_circle=128,
                         r_max=float(radii[-1]))
        v_sparse = sup_norm_estimate(obj, sparse, refine_iters=0).value
        v_dense = sup_norm_estimate(obj, dense, refine_iters=0).value
        assert v_dense >= v_sparse  # dense points are a superset
        r_sparse = sup_norm_estimate(obj, sparse).value
        r_dense = sup_norm_estimate(obj, dense).value
        assert r_dense >= r_sparse - 1e-12

    def test_refinement_calls_are_batched(self):
        # the single-atom Schwarzian objective at alpha = 1; refining one
        # point per objective call took ~2,500 calls per estimate
        calls = []

        def obj(z):
            calls.append(np.size(z))
            return (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z) ** 2

        est = sup_norm_estimate(obj, default_grid())
        assert est.value == pytest.approx(6.0, abs=1e-3)
        assert len(calls) <= 400

    def test_seeds_start_candidates(self):
        # a narrow peak between grid rows and away from the grid's best rows
        # is found from a seed pointing at it
        grid = default_grid(angles_per_circle=64)
        peak = np.exp(1j * (TWO_PI * 20.5 / 64))
        obj = lambda z: (np.abs(1.0 - 0.5 * z) / 2.0
                         + np.exp(-(np.abs(z - 0.999 * peak) / 1e-3) ** 2))
        plain = sup_norm_estimate(obj, grid)
        seeded = sup_norm_estimate(obj, grid, seeds=[grid.r_max * peak])
        assert plain.value < 0.8
        assert seeded.value > 1.0
        assert seeded.value == pytest.approx(float(obj(np.asarray(seeded.argmax))),
                                             abs=1e-12)

    def test_seeds_validated(self):
        obj = lambda z: np.ones(z.shape)
        for seeds in ([1.0 + 0.0j], [np.nan]):
            with pytest.raises(ValueError, match="seeds"):
                sup_norm_estimate(obj, default_grid(), seeds=seeds)

    def test_refinement_never_below_grid_max(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 / np.abs(1.0 - z * np.exp(-0.7j)) ** 2
        grid = default_grid()
        coarse = sup_norm_estimate(obj, grid, refine_iters=0)
        refined = sup_norm_estimate(obj, grid)
        assert refined.value >= coarse.value


class TestWorkerCount:
    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("GALPHA_THREADS", "4")
        assert worker_count() == 4

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("GALPHA_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.delenv("GALPHA_THREADS")
        assert worker_count() >= 1

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("GALPHA_THREADS", "many")
        with pytest.raises(ValueError):
            worker_count()

    def test_parallel_sweep_matches_serial(self, monkeypatch):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.99 * z))
        grid = default_grid(n_radii=16, angles_per_circle=64)
        monkeypatch.setenv("GALPHA_THREADS", "1")
        serial = sup_norm_estimate(obj, grid, refine_iters=0)
        monkeypatch.setenv("GALPHA_THREADS", "3")
        parallel = sup_norm_estimate(obj, grid, refine_iters=0)
        assert parallel.value == serial.value
        assert parallel.argmax == serial.argmax
