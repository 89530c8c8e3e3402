import collections
from unittest import mock

import numpy as np
import pytest

from galpha import complexfn, schwarz
from galpha.complexfn import TWO_PI, DiskGrid, NormEstimate, sup_norm_estimate
from galpha.family import AtomicMeasure, GAlphaFunction, single_atom
from galpha.schwarz import (_cell_bounds, _certified_radii, _objectives, norms, pre_schwarzian,
                            schwarzian)

from test_complexfn import (PANEL_GRIDS, UNBOUNDED, grid_double, norm_objectives, norms_on,
                            search)
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


class TestKernelAccuracy:
    # atom counts from 1 to 64; every m costs 230 m terms at 40 digits
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64])
    def test_against_mpmath(self, m):
        # P and S against 40-digit mpmath at the member's exact atoms
        # e^(i theta_k), at 200 random points with |z| <= 0.999 and 30
        # points 1e-8 to 1e-4 from an atom.  With g_k = 1/(conj(zeta_k) - z),
        # rounding the atoms and z by a few eps moves g_k by a few eps |g_k|^2
        # and the sums over m atoms add m eps relative to their moduli, so each
        # kernel X errs by at most 4 eps (m + max_k |g_k|) X_bar, where
        # P_bar = alpha sum_k t_k |g_k| and S_bar = alpha sum_k t_k |g_k|^2
        # + P_bar^2/2.  Relative to |X| no bound holds: S cancels to 0.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(71 + m)
        f = GAlphaFunction(alpha=float(rng.uniform(0.1, 1.0)), measure=random_measure(rng, m))
        near = np.conj(f.measure.atoms[rng.integers(0, m, 30)]) * (
            1.0 - 10.0 ** rng.uniform(-8.0, -4.0, 30) * np.exp(1j * rng.uniform(-1.0, 1.0, 30)))
        z = np.concatenate([random_points(rng, 200, r_max=0.999), near])
        g = np.abs(1.0 / (np.exp(-1j * f.measure.angles) - z[:, None]))
        p_bar = f.alpha * (g @ f.measure.weights)
        scale = 4.0 * np.finfo(float).eps * (m + g.max(axis=1))
        bounds = {"P": scale * p_bar,
                  "S": scale * (f.alpha * (g * g @ f.measure.weights) + 0.5 * p_bar ** 2)}
        values = {"P": pre_schwarzian(f, z), "S": schwarzian(f, z)}
        with mpmath.workdps(40):
            poles = [mpmath.expj(-theta) for theta in f.measure.angles]
            weights = [mpmath.mpf(t) for t in f.measure.weights]
            alpha = mpmath.mpf(f.alpha)
            for i, zi in enumerate(z):
                w = mpmath.mpc(zi.real, zi.imag)
                terms = [1 / (pole - w) for pole in poles]
                p = -alpha * mpmath.fdot(weights, terms)
                exact = {"P": p,
                         "S": -alpha * mpmath.fdot(weights, [t * t for t in terms]) - p * p / 2}
                for name, ref in exact.items():
                    v = values[name][i]
                    assert abs(mpmath.mpc(v.real, v.imag) - ref) <= bounds[name][i], (name, zi)


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
        grid = DiskGrid()
        z = grid.points
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

    def test_single_atoms_attain_the_sharp_values(self):
        # the sup of both objectives is the radial limit toward conj(zeta),
        # which no grid point reaches, so norms reports that limit exactly
        for grid in LIMIT_GRIDS:
            for alpha in (0.05, 0.5, 1.0):
                for theta in (0.0, 0.7, TWO_PI * 137 / 512):
                    f = GAlphaFunction(alpha=alpha, measure=single_atom(theta))
                    rep = norms_on(f, grid)
                    assert rep.pre_schwarzian_norm.value == 2.0 * alpha
                    assert rep.schwarzian_norm.value == 2.0 * alpha * (2.0 + alpha)
                    boundary = complex(np.conj(f.measure.atoms[0]))
                    assert rep.pre_schwarzian_norm.argmax == boundary
                    assert rep.schwarzian_norm.argmax == boundary

    def test_random_members_between_limits_and_bounds(self):
        # As z -> conj(zeta_k) radially, (1-|z|^2)|P| -> 2 alpha t_k and
        # (1-|z|^2)^2 |S| -> 2 alpha t_k (2 + alpha t_k): exact lower bounds.
        # 1-64 atoms, a third of the members clustered 1e-4 apart and a
        # third on grid angles
        rng = np.random.default_rng(45)
        for i in range(24):
            grid = LIMIT_GRIDS[i % 3]
            m = int(rng.integers(1, 65))
            measure = random_measure(rng, m)
            if (i // 3) % 3 == 1:
                start = rng.uniform(0.0, TWO_PI)
                measure = AtomicMeasure(angles=start + 1e-4 * np.arange(m),
                                        weights=measure.weights)
            elif (i // 3) % 3 == 2:
                steps = rng.choice(grid.angles_per_circle, m, replace=False)
                measure = AtomicMeasure(angles=TWO_PI * steps / grid.angles_per_circle,
                                        weights=measure.weights)
            alpha = float(rng.choice([0.05, 0.5, 1.0]))
            f = GAlphaFunction(alpha=alpha, measure=measure)
            t = f.measure.weights
            rep = norms_on(f, grid)
            pre, sch = rep.pre_schwarzian_norm.value, rep.schwarzian_norm.value
            assert 2 * alpha * t.max() <= pre <= 2 * alpha + 1e-6
            assert (np.max(2 * alpha * t * (2 + alpha * t)) <= sch
                    <= 2 * alpha * (2 + alpha) + 1e-6)


def boundary_limit(f, which):
    """The radial limit toward the heaviest atom that `norms` passes on."""
    k = int(np.argmax(f.measure.weights))
    t = f.measure.weights[k]
    value = 2 * f.alpha * t * ((2 + f.alpha * t) if which else 1)
    return NormEstimate(value=value, argmax=complex(np.conj(f.measure.atoms[k])))


def cell_bounds(f, grid, which):
    """The cell bounds of the search of objective `which`."""
    return _cell_bounds(f, *grid.cells)[which]


def recording(objective):
    def recorded(z):
        recorded.calls.append(np.array(z))
        return objective(z)
    recorded.calls = []
    return recorded


def norm_calls(f, grid):
    """norms(f) on grid and, for each of its searches in turn, the
    (argument, result) of each objective call that search makes."""
    searches = []

    def counted(objective, grid, **kwargs):
        calls = []
        searches.append(calls)

        def recorded(z):
            out = objective(z)
            calls.append((np.array(z), np.array(out)))
            return out
        return sup_norm_estimate(recorded, grid, **kwargs)

    with mock.patch("galpha.schwarz.sup_norm_estimate", counted):
        return norms_on(f, grid), searches


def norm_call_sizes(f, grid):
    """The point count of each objective call that norms(f) on grid makes."""
    return [z.size for calls in norm_calls(f, grid)[1] for z, _ in calls]


def kernel_work(members):
    """The calls and points of schwarz.pre_schwarzian and schwarz.schwarzian
    that norms makes on members, on the default grid."""
    work = collections.Counter()

    def counted(kernel):
        def wrapper(f, z):
            work["calls"] += 1
            work["points"] += np.size(z)
            return kernel(f, z)
        return wrapper

    with mock.patch("galpha.schwarz.pre_schwarzian", counted(pre_schwarzian)), \
            mock.patch("galpha.schwarz.schwarzian", counted(schwarzian)):
        for f in members:
            norms(f)
    return work


def returned(calls, est):
    """Whether one of calls, (argument, result) pairs of a search's objective,
    returned est.value at est.argmax."""
    return any(np.any((z.ravel() == est.argmax) & (out.ravel() == est.value)) for z, out in calls)


def sweep_blocks(grid, vals):
    """Each sweep cell's sector (r0, r1, th0, th1) and the max of vals on it.

    The cells tile the grid, th0 a column of angle blocks and r0 a row of
    radius blocks, so a cell's points run from its (th0, r0) to the next
    cell's along each axis.
    """
    sector = grid.cells
    r0, _, th0, _ = sector
    rows = np.searchsorted(grid.angles, th0[:, 0])
    cols = np.searchsorted(grid.radii, r0[0])
    maxima = np.maximum.reduceat(np.maximum.reduceat(vals, rows, axis=0), cols, axis=1)
    assert maxima.shape == np.broadcast(*sector).shape
    return sector, maxima


def per_cell_bounds(f, r0, r1, th0, th1):
    """The cell bounds formed cell by cell, each angular term once per
    (atom, cell): the formula `_cell_bounds` factors, kept as its reference.
    Takes the cells raveled into one row."""
    gap = np.mod(-f.measure.angles, TWO_PI)[:, None] - th0
    np.add(gap, TWO_PI, out=gap, where=gap < 0.0)
    work = TWO_PI - gap
    gap -= th1 - th0
    delta = np.maximum(np.minimum(gap, work, out=gap), 0.0, out=gap)
    half_sin2 = np.square(np.sin(np.multiply(delta, 0.5, out=delta), out=delta), out=delta)
    r = np.subtract(1.0, np.multiply(half_sin2, 2.0, out=work), out=work)
    r = np.clip(r, r0, r1, out=r)
    d = np.multiply(np.multiply(half_sin2, 4.0, out=half_sin2), r, out=half_sin2)
    d += np.square(np.subtract(1.0, r, out=r), out=r)
    np.sqrt(d, out=d)
    u = np.clip(d, 1.0 - r1, 1.0 - r0, out=work)
    c = np.divide(u, np.maximum(d, u, out=d), out=d)
    c *= np.subtract(2.0, u, out=u)
    t = np.multiply(f.measure.weights[:, None], c, out=work)
    s1 = f.alpha * t.sum(axis=0)
    s2 = f.alpha * np.multiply(t, c, out=t).sum(axis=0)
    allowance = 1.0 + 16.0 * np.finfo(float).eps / (1.0 - r1)
    return np.stack([allowance * s1, allowance ** 2 * (s2 + 0.5 * s1 ** 2)])


# the default grid and a ragged one, whose edge blocks are partial
GRIDS = (DiskGrid(), grid_double(n_radii=11, angles_per_circle=100))
# ... and one reaching closer to the circle
LIMIT_GRIDS = GRIDS + (grid_double(r_max=1 - 1e-6),)


def panel_members():
    """Members like the norms-small benchmark panel: the extremal single
    atoms, a four-atom member, and 24 random members with 1-8 atoms, all
    turned by a multiple of the default grid step."""
    rng = np.random.default_rng(7)
    members = [GAlphaFunction(alpha=0.5, measure=single_atom(0.0)),
               GAlphaFunction(alpha=1.0, measure=single_atom(0.0)),
               GAlphaFunction(alpha=0.444, measure=AtomicMeasure(
                   angles=[0.9025, 4.1982, 5.5588, 6.2819],
                   weights=[0.3288, 0.279, 0.0675, 0.3247]))]
    members += [GAlphaFunction(alpha=1.0 - rng.uniform(),
                               measure=random_measure(rng, 1 + i % 8))
                for i in range(24)]
    turn = TWO_PI * 137 / 512
    return [GAlphaFunction(alpha=f.alpha, measure=AtomicMeasure(
                angles=f.measure.angles + turn, weights=f.measure.weights))
            for f in members]


def gate_member():
    """A member whose light atom sits 3.4e-3 from the heaviest, so that both
    norms beat their radial limits near the heaviest atom."""
    return GAlphaFunction(alpha=0.934845693958342, measure=AtomicMeasure(
        angles=[0.7452006843169167, 1.5336646246164984, 2.0079173599113966, 3.256078198060281,
                3.2594424134444746, 3.331264548851664, 4.472318557057837, 5.662694473944628],
        weights=[0.01407066849717357, 0.02800416904776082, 0.012798733000031617,
                 0.013455562208118712, 0.5886372677725014, 0.0022770046193480243,
                 0.20682388571730495, 0.13393270913776095]))


# norms(f) of each panel_members() member, (pre-Schwarzian,
# Schwarzian): the floor of test_no_norm_falls
PANEL_NORMS = [
    (1.0, 2.5),
    (2.0, 6.0),
    (0.29197439999999997, 0.6265733251276799),
    (0.7498090667906661, 1.780724951902077),
    (1.5442240578632138, 4.280762086168193),
    (0.19823722472089447, 0.4161234480743101),
    (0.5298374938508403, 1.1863131394759103),
    (0.7498363985624587, 1.7808001094294765),
    (0.6295659104342507, 1.457308438658955),
    (0.29687321841458103, 0.6219559472336967),
    (0.47524276777154284, 0.8859807262343976),
    (1.6150730100633353, 4.534376434044192),
    (1.2749588887535148, 3.3626778615128283),
    (0.9077140550085473, 2.2274005128471246),
    (0.30134815122680575, 0.5995986946630617),
    (0.1753666119023582, 0.3661099480897726),
    (0.284254721379933, 0.6089098160732578),
    (0.5841932627688791, 1.1780548958090695),
    (0.07400517560700867, 0.15074873422232943),
    (1.5741836100493216, 4.3873942391726),
    (1.2920563690060152, 3.4188175683565345),
    (0.9544467778679799, 2.3643778816272443),
    (0.5990837200417247, 1.3310108031353889),
    (0.111199553821525, 0.2285817780281031),
    (0.20451705855119065, 0.42994773072159687),
    (0.1500347938434944, 0.3113248073688188),
    (0.24635290904433296, 0.5230506959859686),
]


class TestCellBounds:
    def test_bounds_dominate_the_float_objectives(self):
        # sup_norm_estimate prunes a cell exactly when its bound is below
        # the limit, so pruning is exact only if these bounds hold for the
        # float objectives at every grid point.  Every block of the default
        # grid, a ragged one and one reaching 1 - 1e-9 (where the float
        # objectives on a one-radius edge block read up to 2e-7 above the
        # exact bound), for 1-64 atoms, half of the members with atoms
        # exactly on grid angles; and the panel members on the default grid,
        # the members norms-small searches
        grids = GRIDS + (grid_double(n_radii=33, angles_per_circle=64, r_max=1 - 1e-9),)
        rng = np.random.default_rng(97)
        cases = [(f, DiskGrid()) for f in panel_members()]
        for i in range(48):
            m = int(rng.integers(1, 65))
            measure = random_measure(rng, m)
            grid = grids[i % 3]
            if (i // 3) % 2 == 0:
                steps = rng.choice(grid.angles_per_circle, m, replace=False)
                measure = AtomicMeasure(angles=TWO_PI * steps / grid.angles_per_circle,
                                        weights=measure.weights)
            cases.append((GAlphaFunction(alpha=1.0 - rng.uniform(), measure=measure), grid))
        worst = 0.0
        for f, grid in cases:
            pts = grid.points
            for which, objective in enumerate(norm_objectives(f)):
                sector, maxima = sweep_blocks(grid, objective(pts))
                ratio = maxima / _cell_bounds(f, *sector)[which]
                assert ratio.max() <= 1.0
                worst = max(worst, ratio.max())
        assert worst > 0.9  # the bounds are close where the objectives peak

    def test_factored_bounds_equal_the_per_cell_formula(self):
        # norms forms the angular terms once per (atom, angle block) and
        # broadcasts them over the radius blocks; the cells are the full
        # product of the two, so each bound is the per-cell one bit for bit
        rng = np.random.default_rng(11)
        for grid in PANEL_GRIDS:
            for m in (1, 2, 8, 64):
                f = GAlphaFunction(alpha=1.0 - rng.uniform(), measure=random_measure(rng, m))
                passed = []

                def recorded(objective, grid, limit, cell_bounds, disks):
                    passed.append(cell_bounds)
                    return limit

                with mock.patch("galpha.schwarz.sup_norm_estimate", recorded):
                    norms_on(f, grid)
                cells = np.broadcast_arrays(*grid.cells)
                reference = per_cell_bounds(f, *(a.ravel() for a in cells))
                reference = reference.reshape((2,) + cells[0].shape)
                # one search per objective, each passed its own row
                assert len(passed) == 2
                assert all(np.array_equal(p, r) for p, r in zip(passed, reference))
                assert np.array_equal(_cell_bounds(f, *grid.cells), reference)

    def test_pruned_sweep_equals_full_sweep(self):
        # The pruned run reports the full run's value and argmax.  Where no
        # cell reaches the limit it makes no call and returns the limit,
        # which the full run could not beat: so for every lone atom on the
        # default grid, whose cells at r_max bound at alpha (1 + r_max).
        # Where the cells it keeps hold every start of the full run, its
        # one sweep call is followed by the full run's refinement, call for
        # call.  The cap bound can prune a cell holding the best point, below
        # the limit, of one of the top rows, and the ascent then starts
        # elsewhere: of these 108 searches 42 make no call, 42 repeat the
        # full run and 24 start elsewhere.
        silent, repeated = [], 0
        for f in panel_members():
            for grid in GRIDS:
                for which, objective in enumerate(norm_objectives(f)):
                    limit = boundary_limit(f, which)
                    full, pruned = recording(objective), recording(objective)
                    a = search(full, grid, limit=limit)
                    b = search(pruned, grid, limit=limit, cell_bounds=cell_bounds(f, grid, which))
                    assert (b.value, b.argmax) == (a.value, a.argmax)
                    if not pruned.calls:
                        assert b == limit
                        silent.append((f.measure.count, grid))
                    elif np.array_equal(pruned.calls[1][:, 0], full.calls[1][:, 0]):
                        repeated += 1
                        assert len(pruned.calls) == len(full.calls)
                        for x, y in zip(pruned.calls[1:], full.calls[1:]):
                            assert np.array_equal(x, y)
        single = [f for f in panel_members() if f.measure.count == 1]
        assert len(single) == 5
        assert silent.count((1, DiskGrid())) == 2 * len(single)
        assert repeated >= 40

    def test_single_atom_sweeps_few_points(self):
        # a lone atom's cap bound, alpha (1 + r1) on the cells at r1 <= r_max
        # and less elsewhere, lies below both boundary limits on grids out to
        # 1 - 1e-6, so norms evaluates no point at all
        for grid in LIMIT_GRIDS:
            for alpha in (0.05, 0.5, 1.0):
                f = GAlphaFunction(alpha=alpha, measure=single_atom(0.7))
                bounds = _cell_bounds(f, *grid.cells)
                assert bounds[0].max() < 2.0 * alpha
                assert bounds[1].max() < 2.0 * alpha * (2.0 + alpha)
                assert norm_call_sizes(f, grid) == []

    def test_joint_search_equals_lone_searches(self):
        # norms gives, bit for bit, the value and argmax of each objective
        # searched alone with its own limit, cell bounds and certified disks
        for f in panel_members():
            for grid in GRIDS:
                joint = norms_on(f, grid)
                for which, objective in enumerate(norm_objectives(f)):
                    lone = search(objective, grid, limit=boundary_limit(f, which),
                                  cell_bounds=cell_bounds(f, grid, which),
                                  disks=(f.measure.poles, _certified_radii(f)[which]))
                    est = (joint.pre_schwarzian_norm, joint.schwarzian_norm)[which]
                    assert (est.value, est.argmax) == (lone.value, lone.argmax)

    def test_joint_candidates_rival_only_their_own_objective(self):
        # an objective and its half, each searched alone, start from the
        # same points and move alike: the search reads the values only
        # through comparisons and ratios, which halving keeps exactly
        for f in panel_members()[2:6]:
            objective = norm_objectives(f)[1]
            whole = search(objective, GRIDS[0])
            half = search(lambda z: 0.5 * objective(z), GRIDS[0])
            assert half.argmax == whole.argmax
            assert 2.0 * half.value == whole.value

    def test_norms_call_budget(self):
        # a work guard that counts kernel calls rather than time: the
        # panel's 27 members on the default grid take 188 calls of the two
        # kernels, one per objective call of the two searches per member
        # (215 with a certified disk at the heaviest atom alone); the one
        # joint search, whose every call ran both kernels, took 446; the
        # budget leaves 5% for platform rounding
        assert kernel_work(panel_members())["calls"] <= 198

    def test_norms_point_budget(self):
        # the same guard on the points those kernel calls evaluate: 84,796
        # on the panel (85,408 with one disk, 141,152 in the joint search),
        # so a rewrite of the ascent step cannot add evaluations within the
        # call budget; again with 5% for platform rounding
        assert kernel_work(panel_members())["points"] <= 89_040

    def test_no_norm_falls(self):
        # a change to the search may raise a norm of the panel but not lower
        # it by more than rounding: each estimate on the default grid stays
        # at least its value in PANEL_NORMS less 1e-12 max(1, value)
        for f, stored in zip(panel_members(), PANEL_NORMS, strict=True):
            rep = norms(f)
            for est, value in zip((rep.pre_schwarzian_norm, rep.schwarzian_norm), stored):
                assert est.value >= value - 1e-12 * max(1.0, value)

    def test_each_searched_norm_is_its_objective_at_its_argmax(self):
        # a lone point runs as a point of a call does, so each estimate that
        # is not its limit is its objective at its argmax, bit for bit
        searched = 0
        for f in panel_members() + [gate_member()]:
            rep = norms(f)
            for which, (objective, est) in enumerate(zip(
                    _objectives(f), (rep.pre_schwarzian_norm, rep.schwarzian_norm))):
                if est != boundary_limit(f, which):
                    searched += 1
                    assert objective(est.argmax) == est.value
        assert searched == 10

    def test_norms_beside_a_close_light_atom(self):
        # the ascent stops a candidate below the limit only inside the
        # certified disks, which here hold neither argmax: both lie in the
        # cone |z - p| < 2 (1 - |z|) at the heaviest atom's pole p, so a stop
        # on that cone, which no bound certifies, loses both norms
        f = gate_member()
        rep = norms(f)
        assert rep.pre_schwarzian_norm.value == 1.114644411875599
        assert rep.schwarzian_norm.value == 2.8354912912260084
        p, j = boundary_limit(f, 0).argmax, int(np.argmax(f.measure.weights))
        for est, radii in zip((rep.pre_schwarzian_norm, rep.schwarzian_norm),
                              _certified_radii(f), strict=True):
            assert 0.0 < radii[j] < abs(est.argmax - p) < 2.0 * (1.0 - abs(est.argmax))
            assert np.all(np.abs(est.argmax - f.measure.poles) > radii)

    def test_norms_calls_the_kernels_by_their_names(self, monkeypatch):
        # the benchmark's tracer counts norms' work under three names:
        # each call of the pre-Schwarzian search reaches
        # schwarz.pre_schwarzian and the member's hprime_log_derivative,
        # each call of the Schwarzian search schwarz.schwarzian, and no
        # call reaches both kernels; member 2 makes 10 and 19 such calls
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("galpha.schwarz.schwarzian", counted("S", schwarzian))
        monkeypatch.setattr("galpha.schwarz.pre_schwarzian", counted("P", pre_schwarzian))
        monkeypatch.setattr(GAlphaFunction, "hprime_log_derivative",
                            counted("h", GAlphaFunction.hprime_log_derivative))
        searches = []

        def search_of(objective, grid, **kwargs):
            calls = []
            searches.append(calls)

            def recorded(z):
                before = counts.copy()
                out = objective(z)
                calls.append(counts - before)
                return out
            return sup_norm_estimate(recorded, grid, **kwargs)

        monkeypatch.setattr("galpha.schwarz.sup_norm_estimate", search_of)
        norms(panel_members()[2])
        pre, sch = searches
        assert pre and sch and counts == {"P": len(pre), "h": len(pre), "S": len(sch)}
        assert all(c == {"P": 1, "h": 1} for c in pre)
        assert all(c == {"S": 1} for c in sch)

    def test_no_block_reaching_the_limit_skips_the_search(self):
        # one atom at alpha = 1/2 on a grid out to r = 1/2: every cell bound
        # lies below the boundary limits 1 and 2.5, so norms reports them
        # without evaluating either objective
        f = GAlphaFunction(alpha=0.5, measure=single_atom(0.3))
        rep, searches = norm_calls(f, grid_double(16, 64, 0.5))
        assert (rep.pre_schwarzian_norm.value, rep.schwarzian_norm.value) == (1.0, 2.5)
        assert searches == [[], []]

    @pytest.mark.parametrize("weights, searched", [([0.9, 0.1], False), ([0.5, 0.5], True)])
    def test_radii_are_formed_only_for_a_search(self, monkeypatch, weights, searched):
        # the disks only stop an ascent: with weights 0.9 and 0.1 no cell
        # bound reaches either limit and norms forms no radii; with equal
        # weights the pre-Schwarzian search runs and reads them.  Each norm
        # equals the search given the radii
        f = GAlphaFunction(alpha=0.5, measure=AtomicMeasure(angles=[0.0, np.pi],
                                                             weights=weights))
        grid, floor = schwarz._default_grid(), schwarz.radial_limit_report(f)
        limits = floor.pre_schwarzian_norm, floor.schwarzian_norm
        bounds = _cell_bounds(f, *grid.cells)
        assert [bool((b >= limit.value).any()) for b, limit in zip(bounds, limits)] == [
            searched, False]
        expected = [sup_norm_estimate(objective, grid, limit, b, (f.measure.poles, radii))
                    for objective, limit, b, radii in zip(
                        _objectives(f), limits, bounds, _certified_radii(f))]
        calls = []
        monkeypatch.setattr(schwarz, "_certified_radii",
                            lambda g: calls.append(g) or _certified_radii(g))
        rep = norms(f)
        assert len(calls) == int(searched)
        assert [rep.pre_schwarzian_norm, rep.schwarzian_norm] == expected

    def test_each_estimate_is_a_value_some_call_returned(self):
        # no point is evaluated a second time on its own: each estimate that
        # is not its limit is the (argmax, value) pair of a call of the
        # search.  Once on 1 - |z - p|^2, which peaks at 1 inside the disk,
        # under no limit, limits below and above its peak and one 1e-12
        # above it, and once on three panel members whose searches beat five
        # of their six limits
        peak = 0.3 + 0.2j
        runs = []
        for value in (None, 0.5, 1.0 + 1e-12, 2.0):
            limit = UNBOUNDED if value is None else NormEstimate(value=value, argmax=1.0)
            calls = []

            def recorded(z, calls=calls):
                out = 1.0 - np.abs(z - peak) ** 2
                calls.append((np.array(z), np.array(out)))
                return out

            runs.append((calls, search(recorded, grid_double(8, 32), limit=limit), limit))
        for f in (panel_members()[i] for i in (9, 14, 17)):
            rep, searches = norm_calls(f, DiskGrid())
            runs += zip(searches, (rep.pre_schwarzian_norm, rep.schwarzian_norm),
                        (boundary_limit(f, 0), boundary_limit(f, 1)))
        searched = 0
        for calls, est, limit in runs:
            assert all(z.ndim > 0 for z, _ in calls)
            if est != limit:
                searched += 1
                assert returned(calls, est)
        assert searched == 2 + 5

    def test_step_cap_bounds_the_ascent(self, monkeypatch):
        # each search makes the sweep's objective call and one per ascent
        # step, and complexfn._MAX_STEPS caps the steps; at 60 the panel's
        # searches make up to 10 calls and 25 of the 54 make more than 3, so
        # a cap of 2 binds on those: each makes 3 calls, and each estimate
        # is still its limit or a value one of its calls returned
        monkeypatch.setattr(complexfn, "_MAX_STEPS", 2)
        calls_made = []
        for f in panel_members():
            rep, searches = norm_calls(f, DiskGrid())
            for calls, est, limit in zip(searches, (rep.pre_schwarzian_norm, rep.schwarzian_norm),
                                         (boundary_limit(f, 0), boundary_limit(f, 1)), strict=True):
                calls_made.append(len(calls))
                assert est == limit or returned(calls, est)
        assert len(calls_made) == 54 and max(calls_made) <= 3
        assert calls_made.count(3) >= 26  # 26 measured: the cap binds
