import dataclasses
import inspect
import threading
from unittest import mock

import numpy as np
import pytest

from galpha.complexfn import (_STENCIL, _WEIGHTS, TWO_PI, DiskGrid, NormEstimate,
                              sup_norm_estimate)
from galpha.family import AtomicMeasure, GAlphaFunction
from galpha.schwarz import norms, pre_schwarzian, schwarzian


def grid_double(n_radii=DiskGrid.n_radii, angles_per_circle=DiskGrid.angles_per_circle,
                r_max=DiskGrid.r_max):
    """A test double of DiskGrid: a subclass overriding its three constants,
    for a small, ragged or near-circle grid; frozen as DiskGrid is."""
    constants = dict(n_radii=n_radii, angles_per_circle=angles_per_circle, r_max=r_max)
    return type("GridDouble", (DiskGrid,), constants)()


def norms_on(f, grid):
    """norms(f), searching grid in place of DiskGrid()."""
    with mock.patch("galpha.schwarz._default_grid", lambda: grid):
        return norms(f)


# the grids of the norm panel: the default, ragged, near-circle and small ones
PANEL_GRIDS = (DiskGrid(), grid_double(11, 100), grid_double(33, 77, 1 - 1e-6),
               grid_double(7, 8), grid_double(16, 64, 0.5), grid_double(40, 256, 0.99))


def panel_member(i):
    """Member i of a seeded panel: 1-32 atoms, every third spaced 1e-3 apart."""
    rng = np.random.default_rng(5)
    for k in range(i + 1):
        m = (1, 2, 3, 4, 6, 8, 16, 32)[k % 8]
        angles = np.sort(rng.uniform(0.0, TWO_PI, m))
        if k % 3 == 0:
            angles = angles[0] + 1e-3 * np.arange(m)
        alpha = 1.0 - rng.uniform()
        weights = rng.dirichlet(np.ones(m))
    return GAlphaFunction(alpha=alpha, measure=AtomicMeasure(angles=angles, weights=weights))


# a limit no objective value lies below: with it and infinite cell bounds
# sup_norm_estimate neither floors nor prunes
UNBOUNDED = NormEstimate(value=-np.finfo(float).max, argmax=0j)


def search(objective, grid, limit=UNBOUNDED, cell_bounds=None, disks=((), ())):
    """sup_norm_estimate, with the UNBOUNDED limit where none is given,
    infinite cell bounds where none are and no certified disk where none
    is: the unpruned, unfloored search."""
    if cell_bounds is None:
        cell_bounds = np.full(np.broadcast(*grid.cells).shape, np.inf)
    return sup_norm_estimate(objective, grid, limit=limit, cell_bounds=cell_bounds, disks=disks)


def norm_objectives(f):
    """The pre-Schwarzian and Schwarzian objectives of schwarz.norms."""
    return ((lambda z: (1.0 - np.abs(z) ** 2) * np.abs(pre_schwarzian(f, z))),
            (lambda z: (1.0 - np.abs(z) ** 2) ** 2 * np.abs(schwarzian(f, z))))


class TestDiskGrid:
    def test_default_shape(self):
        grid = DiskGrid()
        assert grid.radii.size == 64
        assert grid.angles_per_circle == 512
        assert grid.r_max == pytest.approx(1.0 - 1e-4)
        assert grid.points.shape == (512, 64)

    def test_validation(self, monkeypatch):
        # the radii are strictly increasing within [0, r_max] by construction
        for grid in PANEL_GRIDS + (grid_double(2, 8, 0.01),):
            assert grid.radii[0] == 0.0 and grid.radii[-1] == grid.r_max < 1.0
            assert np.all(np.diff(grid.radii) > 0.0)
        # DiskGrid takes no arguments, by position or by name: it has no
        # fields, so one passed by name is a TypeError that names it, raised
        # before anything is built
        allocated = []
        monkeypatch.setattr(np, "geomspace", lambda *a, **k: allocated.append(a))
        with pytest.raises(TypeError):
            DiskGrid(64)
        for name, value in (("n_radii", 16), ("angles_per_circle", 8), ("r_max", 0.5)):
            with pytest.raises(TypeError, match=name):
                DiskGrid(**{name: value})
        assert allocated == []

    @pytest.mark.parametrize("kwargs", [
        {"n_radii": 1}, {"n_radii": 8.5}, {"n_radii": "16"},
        {"angles_per_circle": 4}, {"angles_per_circle": 8.5},
        {"r_max": 0.0}, {"r_max": 1.0}, {"r_max": -0.1}, {"r_max": np.nan},
    ])
    def test_malformed_fields_rejected_before_allocating(self, monkeypatch, kwargs):
        # DiskGrid has no fields: one passed by name is a TypeError that
        # names it, raised before anything is built
        allocated = []
        monkeypatch.setattr(np, "geomspace", lambda *a, **k: allocated.append(a))
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            DiskGrid(**kwargs)
        assert allocated == []

    def test_radii_are_read_only(self):
        grid = DiskGrid()
        with pytest.raises(ValueError, match="read-only"):
            grid.radii[1] = 0.5
        assert np.array_equal(grid.radii, DiskGrid().radii)

    def test_equal_fields_give_equal_grids(self):
        # with no fields, every DiskGrid() is equal; a double is not one
        assert DiskGrid() == DiskGrid() and hash(DiskGrid()) == hash(DiskGrid())
        assert DiskGrid() != grid_double(64, 512, 1 - 1e-5)

    def test_arrays_are_built_once_and_read_only(self):
        # the sweep reads them on every norms call; the grid builds them
        # with itself, as attributes
        grid = grid_double(11, 100)
        for name in ("radii", "angles", "points", "cells"):
            value = getattr(grid, name)
            assert getattr(grid, name) is value
            for a in value if isinstance(value, tuple) else (value,):
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = a.flat[-1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(grid, name, value)
        for a in (_STENCIL, _WEIGHTS):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    def test_built_arrays_leave_equality_and_hash_alone(self):
        built = DiskGrid()
        built.points, built.cells
        assert built == DiskGrid() and hash(built) == hash(DiskGrid())
        assert built != grid_double(64, 512, 1 - 1e-5)

    def test_norms_repeat_exactly_on_a_kept_and_a_fresh_grid(self):
        for i in range(8):
            f = panel_member(i)
            first = norms(f)
            for again in (norms(f), norms_on(f, DiskGrid())):
                assert again == first  # each norm's value and argmax, exactly

    def test_radii_law_unchanged_on_the_panel_grids(self):
        for grid in PANEL_GRIDS:
            radii = 1.0 - np.geomspace(1.0, 1.0 - grid.r_max, grid.n_radii)
            radii[0] = 0.0
            assert np.array_equal(grid.radii, radii)

    def test_r_max_is_kept_exactly(self):
        # r_max = 0.3 used to sweep out to 1 - (1 - 0.3) = 0.30000000000000004;
        # that round trip is exact from 1/2 up (Sterbenz's lemma) but moved
        # 32 of these 99 values, all below 1/2
        values = [float(f"0.{k:02d}") for k in range(1, 100)]
        assert sum(1.0 - (1.0 - x) != x for x in values) == 32
        for x in values:
            grid = grid_double(8, 8, x)
            assert grid.r_max == grid.radii[-1] == x

    def test_points_lie_within_r_max(self):
        # e^(i theta) r_max used to round beyond r_max on 98 of the 512
        # outer points of DiskGrid(); the outer circle is pulled inside
        for grid in PANEL_GRIDS:
            pts = grid.points
            assert np.abs(pts).max() <= grid.r_max
            assert np.abs(pts[:, -1]).min() > grid.r_max * (1.0 - 4e-15)
            assert np.allclose(np.angle(pts[:, -1]), np.angle(pts[:, -2]), atol=1e-15)

    def test_cells_tile_the_grid_in_row_major_order(self):
        # a row of radius blocks and a column of angle blocks, which
        # broadcast to the cells as (angle blocks, radius blocks)
        grid = grid_double(11, 100)
        r0, r1, th0, th1 = grid.cells
        assert r0.shape == r1.shape == (1, 6) and th0.shape == th1.shape == (13, 1)
        angles = grid.angles
        assert np.array_equal(th0[:, 0], angles[::8])
        assert np.array_equal(th1[:, 0], angles[np.minimum(np.arange(7, 104, 8), 99)])
        assert np.array_equal(r0[0], grid.radii[::2])
        assert np.array_equal(r1[0], grid.radii[[1, 3, 5, 7, 9, 10]])

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
        est = search(lambda z: np.ones(z.shape), DiskGrid())
        assert est.value == pytest.approx(1.0)
        assert abs(est.argmax) < 1.0

    def test_pre_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2) * |1/(1-z)| = 1+r along the positive axis, so the sup over
        # |z| <= 0.999 is exactly 2 - 1e-3; the slack covers cancellation dust
        grid = grid_double(r_max=1 - 1e-3)
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = search(obj, grid)
        assert est.value == pytest.approx(2.0, abs=1e-3 + 1e-10)

    def test_schwarzian_objective_of_linear_hprime(self):
        # (1-|z|^2)^2 * (3/2)/|1-z|^2 -> sup 6 (the classical sharp value)
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z) ** 2
        est = search(obj, DiskGrid())
        assert est.value == pytest.approx(6.0, abs=1e-3)

    def test_value_matches_objective_at_argmax(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(-1.0 / (1.0 - z))
        est = search(obj, DiskGrid())
        assert est.value == pytest.approx(float(obj(np.asarray(est.argmax))), abs=1e-12)

    def test_monotone_in_grid_density(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - 0.93j * z) ** 2
        # the dense grid holds every point of the sparse one
        sparse, dense = grid_double(17, 64), grid_double(33, 128)
        r_sparse = search(obj, sparse).value
        r_dense = search(obj, dense).value
        assert r_dense >= r_sparse - 1e-12

    def test_refinement_calls_are_batched(self):
        # the single-atom Schwarzian objective at alpha = 1; refining one
        # point per objective call took ~2,500 calls per estimate.  It takes
        # 11: the sweep and 10 stencil steps.
        calls = []

        def obj(z):
            calls.append(np.size(z))
            return (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z) ** 2

        est = search(obj, DiskGrid())
        assert est.value == pytest.approx(6.0, abs=1e-3)
        assert len(calls) <= 12

    def test_limit_floors_the_search(self):
        # the single-atom Schwarzian objective at alpha = 1 tends to its sup 6
        # only as z -> conj(zeta), here off the grid's angles: nothing
        # evaluated beats that limit, so the search returns it, where without
        # it the search reports an interior point below 6
        boundary = complex(np.exp(-0.7j))
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z / boundary) ** 2
        plain = search(obj, DiskGrid())
        floored = search(obj, DiskGrid(), limit=NormEstimate(value=6.0, argmax=boundary))
        assert plain.value < 6.0 and abs(plain.argmax) < 1.0
        assert floored == NormEstimate(value=6.0, argmax=boundary)

    @pytest.mark.parametrize("i", [3, 7, 9, 11, 20])
    def test_interior_argmax_is_a_local_maximum(self, i):
        # no point of two small rings around an interior argmax beats it;
        # member 7's maxima lie on ridges along neither angle nor radius
        f = panel_member(i)
        report = norms(f)
        ring = np.exp(1j * TWO_PI * np.arange(16) / 16)
        interior = 0
        for est, obj in zip((report.pre_schwarzian_norm, report.schwarzian_norm),
                            norm_objectives(f)):
            z = est.argmax
            if abs(z) > DiskGrid().r_max:
                continue  # the closed-form limit at an atom
            interior += 1
            for delta in (1e-3 * (1.0 - abs(z)), 1e-5 * (1.0 - abs(z))):
                assert obj(z + delta * ring).max() <= est.value + 1e-12 * max(1.0, est.value)
        assert interior
        if i == 7:
            assert report.pre_schwarzian_norm.value >= 0.10924580891
            assert report.schwarzian_norm.value >= 0.11881171375

    def test_refinement_stays_in_the_grid_disk(self):
        # once with a sup at the circle, so that candidates press against
        # r_max, and once on member 7's Schwarzian objective
        grid = DiskGrid()
        boundary = complex(np.exp(-0.7j))
        at_circle = lambda z: (1.0 - np.abs(z) ** 2) ** 2 * 1.5 / np.abs(1.0 - z / boundary) ** 2
        farthest = []
        for obj in (at_circle, norm_objectives(panel_member(7))[1]):
            calls = []

            def recorded(z, obj=obj, calls=calls):
                calls.append(np.array(z))
                return obj(z)

            search(recorded, grid)
            refined = np.abs(np.concatenate([z.ravel() for z in calls[1:]]))
            assert refined.size and refined.max() <= grid.r_max
            farthest.append(refined.max())
        assert farthest[0] > grid.r_max - 1e-12

    def test_limit_below_the_interior_sup_changes_nothing(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.9 * z))
        grid = DiskGrid()
        plain = search(obj, grid)
        floored = search(obj, grid, limit=NormEstimate(value=0.5, argmax=1j))
        assert floored == plain

    def test_objective_and_grid_lead_the_signature(self):
        # perfbench/spans.py binds the first two arguments by these names;
        # both bounds and the certified disks are required
        params = inspect.signature(sup_norm_estimate).parameters
        assert list(params) == ["objective", "grid", "limit", "cell_bounds", "disks"]
        assert all(p.default is p.empty for p in params.values())

    def test_limit_prunes_the_blocks_whose_bound_is_below_it(self):
        # 1 + cos(arg z) off the origin and 1 at it, bounded by its exact
        # max on each sector (the bound does not depend on the radii).  The
        # one sweep call takes exactly the points of the cells whose bound
        # is at least the limit, and with them every grid point above the
        # limit; the result is the full sweep's.
        grid = grid_double(64, 512, 0.9)
        r0, r1, th0, th1 = np.broadcast_arrays(*grid.cells)
        bounds = 1.0 + np.maximum(np.maximum(np.cos(th0), np.cos(th1)), 0.0)
        obj = lambda z: 1.0 + z.real / np.maximum(np.abs(z), 0.05)
        limit = NormEstimate(value=1.9, argmax=1.0)
        runs = []
        for cell_bounds in (None, bounds):
            calls = []

            def recorded(z, calls=calls):
                calls.append(np.array(z))
                return obj(z)

            runs.append((search(recorded, grid, limit=limit, cell_bounds=cell_bounds), calls))
        (full, _), (pruned, pruned_calls) = runs
        assert (pruned.value, pruned.argmax) == (full.value, full.argmax)
        # the grid points in the closed sectors of the cells that reach it
        reach = bounds >= limit.value
        a, r = grid.angles[:, None], grid.radii[:, None]
        in_angle = (th0[reach] <= a) & (a <= th1[reach])
        in_radius = (r0[reach] <= r) & (r <= r1[reach])
        inside = in_angle.astype(int) @ in_radius.T.astype(int) > 0
        pts = grid.points
        swept = pruned_calls[0]
        assert np.array_equal(np.sort(swept), np.sort(pts[inside]))
        above = pts[obj(pts) > limit.value]
        assert above.size and np.isin(above, swept).all()
        assert swept.size < pts.size / 4
        # a bound equal to the limit keeps its cell, with no allowance for
        # rounding: the next float below it prunes the cell
        edge = np.full(bounds.shape, -np.inf)
        edge[0, 0], edge[1, 0] = limit.value, np.nextafter(limit.value, -np.inf)
        calls.clear()
        search(recorded, grid, limit=limit, cell_bounds=edge)
        assert np.array_equal(np.sort(calls[0]), np.sort(pts[:8, :2].ravel()))

    def test_cell_bound_without_a_limit_prunes_nothing(self):
        # a bound below the objective everywhere prunes nothing against the
        # UNBOUNDED limit: the grid is swept in one call on all its points
        grid = grid_double(16, 64)
        obj = lambda z: (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.9 * z))
        calls = []

        def recorded(z):
            calls.append(np.shape(z))
            return obj(z)

        low = np.zeros(np.broadcast(*grid.cells).shape)
        assert search(recorded, grid, cell_bounds=low) == search(obj, grid)
        assert calls[0] == (64 * 16,)

    def test_cell_bound_gives_one_bound_per_block(self):
        # the bound is checked against the UNBOUNDED limit and a real one:
        # one bound per (angle block, radius block) of the one objective,
        # and no NaN; the cells raveled into one row are rejected, and so
        # are the stacked bounds of one and of two objectives
        obj = lambda z: np.ones(z.shape)
        cells = np.broadcast(*DiskGrid().cells).shape
        for limit in (UNBOUNDED, NormEstimate(value=1.0, argmax=0j)):
            assert search(obj, DiskGrid(), limit=limit, cell_bounds=np.ones(cells)).value == 1.0
            for cell_bounds in (np.ones(3), np.ones((1, np.prod(cells))), np.ones(cells[::-1]),
                                np.full(cells, np.nan), np.ones((1,) + cells),
                                np.ones((2,) + cells)):
                with pytest.raises(ValueError, match="cell_bounds"):
                    search(obj, DiskGrid(), limit=limit, cell_bounds=cell_bounds)

    def test_refinement_never_below_grid_max(self):
        obj = lambda z: (1.0 - np.abs(z) ** 2) ** 2 / np.abs(1.0 - z * np.exp(-0.7j)) ** 2
        grid = DiskGrid()
        est = search(obj, grid)
        assert est.value >= np.max(obj(grid.points))

    def test_grid_swept_in_one_call_on_the_calling_thread(self, monkeypatch):
        # a thread-count variable left in the environment changes nothing
        monkeypatch.setenv("GALPHA_THREADS", "2")
        calls = []

        def obj(z):
            calls.append((np.shape(z), threading.get_ident()))
            return (1.0 - np.abs(z) ** 2) * np.abs(1.0 / (1.0 - 0.99 * z))

        search(obj, DiskGrid())
        assert calls[0][0] == (512 * 64,)
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_a_stopped_candidate_still_stops_a_worse_one_near_it(self):
        # Pruning the first block of 8 angles of grid_double(2, 10, 0.7)
        # leaves two starts, the outer points at 324 and 288 degrees.  The one
        # peak sits on the first, A, whose symmetric stencil gives a zero model
        # step, so A stops after one step.  B climbs toward A and after its
        # second step lies within its spacing of A, which is better and has
        # stopped: B stops there.  Were only live candidates rivals, B would
        # climb on to the peak for five more steps.
        grid = grid_double(2, 10, 0.7)
        peak = grid.points[9, 1]
        calls = []

        def recorded(z):
            calls.append(np.array(z))
            return np.exp(-4.0 * np.abs(z - peak) ** 2)

        est = search(recorded, grid, limit=NormEstimate(value=-1.0, argmax=0j),
                     cell_bounds=[[-2.0], [np.inf]])
        sweep, *steps = calls
        assert sweep.size == 4 and [len(w) for w in steps] == [2, 1]
        assert steps[0][0, 0] == peak and steps[1][0, 0] != peak
        assert est == NormEstimate(value=1.0, argmax=complex(peak))

    def test_a_candidate_in_the_certified_disk_stops_below_the_limit(self):
        # 1 - |z - peak|^2 peaks at 1 < 2, the limit; with a disk about the
        # peak holding every start, alone or after a small one elsewhere,
        # no candidate takes a step, and with radius 0 or no disk the
        # ascent climbs as before
        peak = 0.3 + 0.2j
        limit = NormEstimate(value=2.0, argmax=peak)
        counts = []
        for disks in (([peak], [1.5]), ([-0.9, peak], [0.05, 1.5]), ([peak], [0.0]), ((), ())):
            calls = []

            def recorded(z, calls=calls):
                calls.append(np.array(z))
                return 1.0 - np.abs(z - peak) ** 2

            assert search(recorded, grid_double(8, 32), limit=limit, disks=disks) == limit
            counts.append(len(calls))
        assert counts[0] == counts[1] == 1 < counts[2] == counts[3]

    @staticmethod
    def _toward_edge(limit):
        """The search of Re(z e^(-5.4i)) on grid_double(2, 10, 0.7) with its
        first block of angles pruned, as above: its sup 0.7 lies on r_max between
        the two starts, the outer points at 288 and 324 degrees, which read
        0.65 and 0.68.  Returns the estimate and the ascent's stencil calls."""
        calls = []

        def recorded(z):
            calls.append(np.array(z))
            return (z * np.exp(-5.4j)).real

        est = search(recorded, grid_double(2, 10, 0.7), limit=NormEstimate(value=limit, argmax=1.0),
                     cell_bounds=[[-2.0], [np.inf]])
        return est, [w for w in calls[1:] if w.ndim == 2]

    def test_a_candidate_pulled_in_below_its_limit_stops(self):
        # Both trial steps point past r_max and are pulled in, and neither
        # candidate reaches the limit 1: both stop after that one step.
        # Without the stop they refine the angle for five more steps, and
        # could still reach only 0.7.
        est, steps = self._toward_edge(1.0)
        assert [len(w) for w in steps] == [2]
        assert est == NormEstimate(value=1.0, argmax=1.0)

    def test_a_candidate_above_its_limit_climbs_along_the_edge(self):
        # The same objective under the limit 0.5, which both starts beat:
        # their trials are pulled in too, but they climb along r_max to the
        # sup, past the grid maximum 0.68
        est, steps = self._toward_edge(0.5)
        assert len(steps) > 2
        assert est.value > 0.7 - 1e-12
        assert est.value == (est.argmax * np.exp(-5.4j)).real > 0.5
