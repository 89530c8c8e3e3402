import inspect
import threading

import numpy as np
import pytest

from galpha.complexfn import (_BLOCK_ANGLES, TWO_PI, DiskGrid, NormEstimate,
                              default_grid, sup_norm_estimate)


class TestDiskGrid:
    def test_default_shape(self):
        grid = default_grid()
        assert grid.radii.size == 64
        assert grid.angles_per_circle == 512
        assert grid.r_max == pytest.approx(1.0 - 1e-4)
        assert grid.points().shape == (512, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.5, 0.2]), angles_per_circle=16)
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.1, 0.5]), angles_per_circle=4)
        with pytest.raises(ValueError):
            DiskGrid(radii=np.array([0.1, 1.0]), angles_per_circle=16)

    def test_angle_count_must_be_an_integer(self):
        # 8.5 used to build 9 angles with a short last gap
        radii = np.array([0.0, 0.5, 0.9])
        for count in (8.5, 16.0, "16"):
            with pytest.raises(ValueError, match="integer"):
                DiskGrid(radii=radii, angles_per_circle=count)
        grid = DiskGrid(radii=radii, angles_per_circle=np.int64(12))
        assert type(grid.angles_per_circle) is int
        assert np.allclose(np.diff(grid.angles()), TWO_PI / 12)

    def test_norm_estimate_argmax_in_disk(self):
        for value, argmax in ((1.0, 1.0 + 1e-12), (1.0, -1.1j), (np.nan, 0.5j),
                              (np.inf, 0.5j), (1.0, complex(np.nan))):
            with pytest.raises(ValueError):
                NormEstimate(value=value, argmax=argmax)
        # |argmax| = 1 up to rounding marks a closed-form radial limit
        for theta in (0.0, 0.7, TWO_PI * 137 / 512):
            boundary = complex(np.conj(np.exp(1j * theta)))
            assert NormEstimate(value=2.0, argmax=boundary).argmax == boundary


class TestSupNormEstimate:
    def test_constant_objective(self):
        est = sup_norm_estimate(lambda z: np.ones(z.shape), default_grid())
        assert est.value == pytest.approx(1.0)
        assert abs(est.argmax) < 1.0

    def test_pre_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2) * |1/(1-z)| = 1+r along the positive axis, so the sup over
        # |z| <= 0.999 is exactly 2 - 1e-3; the slack covers cancellation dust
        grid = default_grid(r_max=1 - 1e-3)
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = sup_norm_estimate(obj, grid)
        assert est.value == pytest.approx(2.0, abs=1e-3 + 1e-10)

    def test_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2)^2 * (3/2)/|1-z|^2 -> sup 6 (the classical sharp value)
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z) ** 2
        est = sup_norm_estimate(obj, default_grid())
        assert est.value == pytest.approx(6.0, abs=1e-3)

    def test_value_matches_objective_at_argmax(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = sup_norm_estimate(obj, default_grid())
        assert est.value == pytest.approx(float(obj(np.asarray(est.argmax))), abs=1e-12)

    def test_monotone_in_grid_density(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - 0.93j * z) ** 2
        radii = 1.0 - np.geomspace(1.0, 1e-4, 33)
        radii[0] = 0.0
        sparse = DiskGrid(radii=radii[::2], angles_per_circle=64)
        dense = DiskGrid(radii=radii, angles_per_circle=128)
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

    def test_limit_floors_the_search(self):
        # the single-atom Schwarzian objective at alpha = 1 tends to its sup 6
        # only as z -> conj(zeta), here off the grid's angles: nothing
        # evaluated beats that limit, so the search returns it and stops
        # after one round, where without it the first round's gain buys a
        # second
        boundary = complex(np.exp(-0.7j))
        runs = []
        for limit in (None, NormEstimate(value=6.0, argmax=boundary)):
            calls = []

            def obj(z, calls=calls):
                calls.append(np.size(z))
                return ((1.0 - np.abs(z) ** 2) ** 2 * 1.5
                        / np.abs(1.0 - z / boundary) ** 2)

            runs.append((sup_norm_estimate(obj, default_grid(), limit=limit), calls))
        (plain, plain_calls), (floored, floored_calls) = runs
        assert plain.value < 6.0 and abs(plain.argmax) < 1.0
        assert floored == NormEstimate(value=6.0, argmax=boundary)
        assert len(floored_calls) < len(plain_calls)

    def test_limit_below_the_interior_sup_changes_nothing(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.9 * z))
        grid = default_grid()
        plain = sup_norm_estimate(obj, grid)
        floored = sup_norm_estimate(obj, grid, limit=NormEstimate(value=0.5, argmax=1j))
        assert floored == plain

    def test_objective_and_grid_lead_the_signature(self):
        # perfbench/spans.py binds the first two arguments by these names
        names = list(inspect.signature(sup_norm_estimate).parameters)
        assert names[:2] == ["objective", "grid"]

    def test_limit_prunes_the_blocks_whose_bound_is_below_it(self):
        # 1 + cos(arg z) on the grid, bounded by its exact max on each sector
        # (the bound of a block of 8 angles does not depend on its radii).
        # The one sweep call takes exactly the blocks whose bound, raised by
        # 1e-9 relative, reaches the limit, and with them every grid point
        # above the limit; the result is the full sweep's.
        grid = DiskGrid(radii=np.linspace(0.1, 0.9, 64), angles_per_circle=512)
        bound = lambda r0, r1, th0, th1: 1.0 + np.maximum(np.cos(th0), np.cos(th1))
        obj = lambda z: 1.0 + z.real / np.maximum(np.abs(z), 0.05)
        limit = NormEstimate(value=1.9, argmax=1.0)
        runs = []
        for cell_bound in (None, bound):
            calls = []

            def recorded(z, calls=calls):
                calls.append(np.array(z))
                return obj(z)

            runs.append((sup_norm_estimate(recorded, grid, limit=limit,
                                           cell_bound=cell_bound), calls))
        (full, _), (pruned, pruned_calls) = runs
        assert (pruned.value, pruned.argmax) == (full.value, full.argmax)
        pts, angles = grid.points(), grid.angles()
        first = np.arange(grid.angles_per_circle) // _BLOCK_ANGLES * _BLOCK_ANGLES
        last = np.minimum(first + _BLOCK_ANGLES, grid.angles_per_circle) - 1
        block = bound(None, None, angles[first], angles[last])
        reach = block + 1e-9 * np.abs(block) >= limit.value
        swept = pruned_calls[0]
        assert np.array_equal(np.sort(swept), np.sort(pts[reach].ravel()))
        above = pts[obj(pts) > limit.value]
        assert above.size and np.isin(above, swept).all()
        assert swept.size < pts.size / 4

    def test_cell_bound_without_a_limit_prunes_nothing(self):
        # a bound below the objective everywhere prunes nothing without a
        # limit: the grid is swept in one call in its own shape
        grid = default_grid(16, 64)
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.9 * z))
        calls = []

        def recorded(z):
            calls.append(np.shape(z))
            return obj(z)

        low = lambda r0, r1, th0, th1: np.zeros(r0.shape)
        assert sup_norm_estimate(recorded, grid, cell_bound=low) == \
            sup_norm_estimate(obj, grid)
        assert calls[0] == (64, 16)

    def test_cell_bound_gives_one_bound_per_block(self):
        # the bound is checked with and without a limit to compare it with
        obj = lambda z: np.ones(z.shape)
        for limit in (None, NormEstimate(value=1.0, argmax=0j)):
            for cell_bound in (lambda r0, r1, th0, th1: np.ones(3),
                               lambda r0, r1, th0, th1: np.full(r0.shape, np.nan)):
                with pytest.raises(ValueError, match="cell_bound"):
                    sup_norm_estimate(obj, default_grid(), limit=limit,
                                      cell_bound=cell_bound)

    def test_refinement_never_below_grid_max(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 / np.abs(1.0 - z * np.exp(-0.7j)) ** 2
        grid = default_grid()
        est = sup_norm_estimate(obj, grid)
        assert est.value >= np.max(obj(grid.points()))

    def test_grid_swept_in_one_call_on_the_calling_thread(self, monkeypatch):
        # a thread-count variable left in the environment changes nothing
        monkeypatch.setenv("GALPHA_THREADS", "2")
        calls = []

        def obj(z):
            calls.append((np.shape(z), threading.get_ident()))
            return (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.99 * z))

        sup_norm_estimate(obj, default_grid())
        assert calls[0][0] == (512, 64)
        assert {ident for _, ident in calls} == {threading.get_ident()}

