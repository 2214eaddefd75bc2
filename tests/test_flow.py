import json
import warnings

import numpy as np
import pytest

from baryrom import cli, flow, store
from oracles import buckley_leverett, f_w, f_w_derivative, impes_textbook


def example1_setup(n=1002, mu=1.0, beta=2.0):
    grid = flow.Grid1D(0.0, 1.0, n)
    rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
    fluids = flow.FluidParams(mu_w=0.003, mu_nw=mu * 0.003, beta=beta)
    bc = flow.BoundaryConditions(4.137e7, 2.758e7, s_inflow=1.0, s_initial=0.0)
    return grid, rock, fluids, bc


class TestTypes:
    def test_grid_requires_order(self):
        with pytest.raises(ValueError):
            flow.Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            flow.Grid1D(0.0, 1.0, 1)

    def test_rock_positive(self):
        with pytest.raises(ValueError):
            flow.RockField(np.array([0.1, 0.0]), np.array([1e-13, 1e-13]))
        with pytest.raises(ValueError):
            flow.RockField(np.array([0.1, 0.1]), np.array([1e-13, -1e-13]))

    def test_bc_nondegenerate(self):
        with pytest.raises(ValueError):
            flow.BoundaryConditions(1e7, 1e7, 1.0, 0.0)

    def test_snapshot_mass_consistent(self):
        grid, rock, fluids, bc = example1_setup(100)
        snaps = flow.run_simulation(grid, rock, fluids, bc, [0.5])
        snap = snaps[0]
        assert snap.mass == pytest.approx(snap.values.sum() * grid.dx, rel=1e-12)


def powers(s, beta, ratio=1.0):
    """flow._mobilities of one exponent over a 1d array of saturations:
    ratio * s**beta and that plus (1 - s)**beta."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = tuple(np.empty_like(s) for _ in range(3))
    return flow._mobilities(s, ratio, [(slice(None), float(beta))], out)


def mobilities(s, mu_w, mu_nw, beta):
    """(lambda_w, lambda_t) built from s**beta and (1 - s)**beta, each the
    wetting term of flow._mobilities at viscosity ratio 1."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    lam_w = powers(s, beta)[0] / mu_w
    return lam_w, lam_w + powers(1.0 - s, beta)[0] / mu_nw


class TestMobility:
    def test_endpoints(self):
        _, lam_t = mobilities([0.0, 1.0], 0.003, 0.03, 2.0)
        assert lam_t == pytest.approx([1 / 0.03, 1 / 0.003])

    def test_symmetric_midpoint(self):
        _, lam_t = mobilities(0.5, 0.003, 0.003, 2.0)
        assert lam_t[0] == pytest.approx(0.5 / 0.003)

    def test_positive_everywhere(self):
        _, lam_t = mobilities(np.linspace(0, 1, 101), 0.003, 0.075, 6.0)
        assert np.all(lam_t > 0)

    def test_fractional_flow_endpoints_and_monotone(self):
        lam_w, lam_t = mobilities(np.linspace(0, 1, 400), 0.003, 0.03, 3.0)
        f = lam_w / lam_t
        assert f[0] == 0.0 and f[-1] == 1.0
        assert np.all(np.diff(f) >= -1e-15)

    def test_fractional_flow_symmetry(self):
        lam_w, lam_t = mobilities(0.5, 0.003, 0.003, 2.0)
        assert lam_w[0] / lam_t[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("beta", range(2, flow.MAX_INTEGER_POWER + 1))
    def test_integer_powers_match_np_power(self, beta):
        # repeated multiplication stands in for np.power at integer exponents
        s = np.linspace(0.0, 1.0, 1001)
        lam_w, lam_t = mobilities(s, 0.003, 0.018, beta)
        ref_w = np.power(s, float(beta)) / 0.003
        ref_t = ref_w + np.power(1.0 - s, float(beta)) / 0.018
        np.testing.assert_array_max_ulp(lam_w, ref_w, maxulp=4)
        np.testing.assert_array_max_ulp(lam_t, ref_t, maxulp=4)
        assert lam_w[0] == 0.0 and lam_t[0] == 1 / 0.018 and lam_w[-1] == 1 / 0.003

    @pytest.mark.parametrize("beta", [2.0, 2.5, 6.0])
    def test_fused_terms_are_mu_nw_times_the_mobilities(self, beta):
        # the step's wetting term r s^beta and denominator D, r = mu_nw / mu_w,
        # are mu_nw lambda_w and mu_nw lambda_t; their quotient is f_w
        s = np.linspace(0.0, 1.0, 1001)
        fluids = flow.FluidParams(0.003, 0.018, beta)
        wet, denom = powers(s, beta, ratio=fluids.mu_nw / fluids.mu_w)
        lam_w, lam_t = mobilities(s, fluids.mu_w, fluids.mu_nw, beta)
        np.testing.assert_allclose(wet, fluids.mu_nw * lam_w, rtol=1e-14, atol=0)
        np.testing.assert_allclose(denom, fluids.mu_nw * lam_t, rtol=1e-14, atol=0)
        np.testing.assert_allclose(wet / denom, f_w(s, fluids), rtol=1e-14, atol=0)

    def test_non_integer_power_is_np_power(self):
        s = np.linspace(0.0, 1.0, 1001)
        lam_w, lam_t = mobilities(s, 0.003, 0.018, 2.5)
        np.testing.assert_array_equal(lam_w, np.power(s, 2.5) / 0.003)
        np.testing.assert_array_equal(lam_t, lam_w + np.power(1.0 - s, 2.5) / 0.018)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 2.5, 6.0])
    def test_max_flux_derivative_is_the_closed_form_maximum(self, beta):
        fluids = flow.FluidParams(0.003, 0.018, beta)
        want = np.abs(f_w_derivative(np.linspace(0.0, 1.0, 1001), fluids)).max()
        assert flow._max_flux_derivative(fluids) == pytest.approx(want, rel=1e-12)


def uniform_run(rock, grid, fluids, bc, times, safety=0.9):
    """A one-row simulate_batch record started at s_inflow = s_initial,
    where the saturation never changes and the total flux q is constant."""
    assert bc.s_inflow == bc.s_initial
    return flow.simulate_batch(grid, [rock], [fluids], bc, times, safety)


def resistor_chain_flux(rock, grid, fluids, bc):
    """q = (p_left - p_right) / sum of the face resistances dx / (k_face
    lambda_t), with harmonic k_face and half cells at the boundary faces."""
    k = rock.permeability
    k_face = np.concatenate([[2 * k[0]], 2 * k[:-1] * k[1:] / (k[:-1] + k[1:]), [2 * k[-1]]])
    s = bc.s_initial
    lam_t = s**fluids.beta / fluids.mu_w + (1 - s) ** fluids.beta / fluids.mu_nw
    return (bc.p_left - bc.p_right) / np.sum(grid.dx_m / (k_face * lam_t))


def two_block_setup(n=100):
    grid = flow.Grid1D(0.0, 1.0, n)
    perm = np.where(np.arange(n) < n // 2, 1e-13, 4e-14)
    rock = flow.RockField(np.full(n, 0.1), perm)
    fluids = flow.FluidParams(0.003, 0.03, 2.0)
    bc = flow.BoundaryConditions(4.137e7, 2.758e7, s_inflow=0.4, s_initial=0.4)
    return grid, rock, fluids, bc


def cfl_bound(rock, grid, fluids, q, safety=0.9):
    """safety * min over cells of phi dx / (|q| L_f), with L_f the largest
    |f_w'| on 1001 points of [0, 1]."""
    lf = flow._max_flux_derivative(fluids)
    return safety * min(phi * grid.dx_m / (abs(q) * lf) for phi in rock.porosity)


class TestPressure:
    def test_constant_coefficients_linear_profile(self):
        # a linear pressure profile is Darcy's law q = k lambda_t dp / L
        n = 200
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, s_inflow=0.3, s_initial=0.3)
        res = uniform_run(rock, grid, fluids, bc, [0.5])
        lam_t = 0.3**2 / 0.003 + 0.7**2 / 0.03
        q = 1e-13 * lam_t * (bc.p_left - bc.p_right) / (grid.x_max * flow.METERS_PER_KM)
        want = q * f_w(0.3, fluids) * 0.5 * flow.SECONDS_PER_YEAR
        assert res.fluxes[0, 0, 0] == pytest.approx(want, rel=1e-12)

    def test_two_block_resistor_chain(self):
        # uniform saturation: every face carries q f_w(0.4), so the influx
        # equals the outflux and no cell changes
        grid, rock, fluids, bc = two_block_setup()
        times = [0.5, 1.0]
        res = uniform_run(rock, grid, fluids, bc, times)
        q = resistor_chain_flux(rock, grid, fluids, bc)
        want = q * f_w(0.4, fluids) * np.array(times) * flow.SECONDS_PER_YEAR
        np.testing.assert_allclose(res.fluxes[0, :, 0], want, rtol=1e-12)
        np.testing.assert_allclose(res.fluxes[0, :, 1], want, rtol=1e-12)
        np.testing.assert_array_equal(res.values, 0.4)


class TestCfl:
    def test_halves_when_flux_doubles(self):
        grid, rock, fluids, bc = two_block_setup(80)
        doubled = flow.BoundaryConditions(
            bc.p_right + 2 * (bc.p_left - bc.p_right), bc.p_right, 0.4, 0.4)
        dt1 = uniform_run(rock, grid, fluids, bc, [0.5]).min_dt_s[0]
        dt2 = uniform_run(rock, grid, fluids, doubled, [0.5]).min_dt_s[0]
        assert dt2 == pytest.approx(dt1 / 2, rel=1e-12)

    def test_matches_per_cell_brute_force(self):
        grid, rock, fluids, bc = two_block_setup()
        res = uniform_run(rock, grid, fluids, bc, [0.5, 1.0])
        q = resistor_chain_flux(rock, grid, fluids, bc)
        assert res.min_dt_s[0] == pytest.approx(cfl_bound(rock, grid, fluids, q), rel=1e-12)

    def test_safety_range(self):
        grid, rock, fluids, bc = example1_setup(50)
        with pytest.raises(ValueError, match="safety"):
            flow.simulate_batch(grid, [rock], [fluids], bc, [0.5], safety=1.5)


class TestAdvance:
    def test_linear_flux_is_exact_advection(self):
        # beta = 1 with equal viscosities makes f_w(s) = s and lambda_t
        # constant: first-order upwind at Courant number 1 moves the front
        # by exactly one cell per step
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        fluids = flow.FluidParams(0.003, 0.003, 1.0)
        bc = flow.BoundaryConditions(4e7, 2e7, 1.0, 0.0)
        q = (bc.p_left - bc.p_right) * 1e-13 / 0.003 / (grid.x_max * flow.METERS_PER_KM)
        t_yr = 30 * cfl_bound(rock, grid, fluids, q, safety=1.0) / flow.SECONDS_PER_YEAR
        res = flow.simulate_batch(grid, [rock], [fluids], bc, [t_yr], safety=1.0)
        assert res.steps[0] == 30
        expected = np.where(np.arange(n) < 30, 1.0, 0.0)
        np.testing.assert_allclose(res.values[0, 0], expected, atol=1e-12)

    def test_riemann_front_against_refined_run(self):
        # shock position of the coarse run within 2 dx of a 16x refined run
        def front_position(mu=1.0, beta=2.0, n=100, t_yr=1.0):
            grid = flow.Grid1D(0.0, 1.0, n)
            rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
            fluids = flow.FluidParams(0.003, mu * 0.003, beta)
            bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
            snaps = flow.run_simulation(grid, rock, fluids, bc, [t_yr])
            s = snaps[0].values
            idx = np.flatnonzero(s >= 0.35)
            return grid.centers()[idx[-1]] if idx.size else 0.0

        coarse = front_position(n=100)
        fine = front_position(n=1600)
        assert abs(coarse - fine) <= 2.0 / 100


class TestRunSimulation:
    def test_time_zero_returns_initial_condition(self):
        grid, rock, fluids, bc = example1_setup(80)
        snaps = flow.run_simulation(grid, rock, fluids, bc, [0.0])
        np.testing.assert_array_equal(snaps[0].values, np.zeros(80))
        assert snaps[0].z == (0.0,)

    def test_snapshot_times_must_be_sorted(self):
        grid, rock, fluids, bc = example1_setup(80)
        with pytest.raises(ValueError):
            flow.run_simulation(grid, rock, fluids, bc, [1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_snapshot_times_must_be_finite(self, bad):
        grid, rock, fluids, bc = example1_setup(80)
        with pytest.raises(ValueError, match="finite"):
            flow.simulate_batch(grid, [rock], [fluids], bc, [0.5, bad])

    def test_mass_balance_audit(self):
        grid, rock, fluids, bc = example1_setup(200, mu=1.0, beta=2.0)
        times = [0.5, 1.0, 1.5, 2.0]
        res = flow.simulate_batch(grid, [rock], [fluids], bc, times)
        masses = res.masses[0]
        assert all(m2 >= m1 - 1e-14 for m1, m2 in zip(masses, masses[1:]))
        pore_mass = np.sum(rock.porosity * grid.dx_m * res.values[0], axis=1)
        for k in range(len(times)):
            net = res.fluxes[0, k, 0] - res.fluxes[0, k, 1]
            assert pore_mass[k] == pytest.approx(net, rel=1e-8)

    def test_maximum_principle_random_parameters(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            mu = float(rng.uniform(1.0, 25.0))
            beta = float(rng.uniform(1.0, 6.0))
            n = int(rng.integers(50, 150))
            grid = flow.Grid1D(0.0, 1.0, n)
            rock = flow.RockField.homogeneous(
                n, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.5, 2.0)) * 1e-13
            )
            fluids = flow.FluidParams(0.003, mu * 0.003, beta)
            bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
            snaps = flow.run_simulation(grid, rock, fluids, bc, [float(rng.uniform(0.2, 3.0))])
            s = snaps[0].values
            assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_example2_kink_at_interface(self):
        n = 500
        gamma = 0.2
        grid = flow.Grid1D(0.0, 1.0, n)
        left = grid.centers() < gamma
        rock = flow.RockField(np.where(left, 0.1, 0.01), np.where(left, 1e-13, 5e-14))
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        snaps = flow.run_simulation(grid, rock, fluids, bc, [12.0])
        s = snaps[0].values
        i = int(np.argmax(~left))  # first low-permeability cell
        front = np.flatnonzero(s > 0.05)
        assert front.size and grid.centers()[front[-1]] > gamma  # front passed the jump
        w = 5
        slope_left = abs(s[i - 1 - w] - s[i - 1]) / w
        slope_right = abs(s[i] - s[i + w]) / w
        ratio = max(slope_left, slope_right) / max(min(slope_left, slope_right), 1e-30)
        assert ratio > 1.5

    def test_grid_self_convergence(self):
        def run(n):
            grid = flow.Grid1D(0.0, 1.0, n)
            rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
            fluids = flow.FluidParams(0.003, 0.003, 2.0)
            bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
            return flow.run_simulation(grid, rock, fluids, bc, [1.0])[0].values

        s100, s200, s400 = run(100), run(200), run(400)
        err100 = np.abs(s100 - s200[::2]).mean()
        err200 = np.abs(s200 - s400[::2]).mean()
        assert err200 < err100  # refinement shrinks the difference
        assert err100 / err200 > 2**0.5  # at least order 0.5


def two_region_rock(grid, gamma=0.3, k_right=5e-14):
    left = grid.centers() < gamma
    return flow.RockField(np.where(left, 0.1, 0.01), np.where(left, 1e-13, k_right))


class TestBatch:
    def test_mixed_batch_matches_single_runs(self):
        n = 120
        grid = flow.Grid1D(0.0, 1.0, n)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        rocks = [
            flow.RockField.homogeneous(n, 0.1, 1e-13),
            two_region_rock(grid),
            flow.RockField.homogeneous(n, 0.2, 7e-14),
            two_region_rock(grid, gamma=0.6, k_right=8e-14),
        ]
        fluids = [
            flow.FluidParams(0.003, 0.003, 2.0),
            flow.FluidParams(0.003, 0.03, 2.0),
            flow.FluidParams(0.003, 0.018, 4.0),
            flow.FluidParams(0.003, 0.075, 6.0),
        ]
        times = [0.0, 0.4, 1.0, 1.0, 2.5]
        batch = flow.simulate_batch(grid, rocks, fluids, bc, times)
        assert len(set(batch.steps.tolist())) == len(rocks)
        for c, (rock, fl) in enumerate(zip(rocks, fluids)):
            single = flow.simulate_batch(grid, [rock], [fl], bc, times)
            np.testing.assert_allclose(batch.values[c], single.values[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(batch.masses[c], single.masses[0], rtol=1e-14)
            np.testing.assert_allclose(batch.fluxes[c, :, 0], single.fluxes[0, :, 0], rtol=1e-14)
            np.testing.assert_array_equal(batch.values[c, 2], batch.values[c, 3])
            assert batch.mass_residual[c] < 1e-12
            assert 0.0 < batch.min_dt_s[c] < np.inf

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unsorted_exponents_keep_input_order(self, reverse):
        # the batch runs its rows sorted by beta; its results keep the input
        # index, in both flow directions
        n = 90
        grid = flow.Grid1D(0.0, 1.0, n)
        p_hi, p_lo = 4.137e7, 2.758e7
        bc = flow.BoundaryConditions(*((p_lo, p_hi) if reverse else (p_hi, p_lo)), 1.0, 0.0)
        betas = [6.0, 2.0, 2.5, 3.0, 2.0]
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta)
                  for mu, beta in zip([1, 6, 3, 12, 2], betas)]
        rocks = [two_region_rock(grid, gamma=g) for g in (0.2, 0.5, 0.35, 0.7, 0.1)]
        times = [0.3, 1.0, 2.0]
        batch = flow.simulate_batch(grid, rocks, fluids, bc, times)
        for c, (rock, fl) in enumerate(zip(rocks, fluids)):
            single = flow.simulate_batch(grid, [rock], [fl], bc, times)
            assert batch.values[c].max() > 0.2
            np.testing.assert_allclose(batch.values[c], single.values[0], rtol=0, atol=1e-14)
            np.testing.assert_allclose(batch.fluxes[c, :, 0], single.fluxes[0, :, 0],
                                       rtol=1e-14)
            np.testing.assert_allclose(batch.fluxes[c, :, 1], single.fluxes[0, :, 1],
                                       rtol=1e-14, atol=1e-20)
            assert batch.mass_residual[c] < 1e-12

    def test_mirror_image(self):
        n = 150
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = two_region_rock(grid, gamma=0.35)
        mirrored = flow.RockField(rock.porosity[::-1], rock.permeability[::-1])
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        forward = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        backward = flow.BoundaryConditions(2.758e7, 4.137e7, 1.0, 0.0)
        times = [1.0, 6.0]
        res_f = flow.simulate_batch(grid, [rock], [fluids], forward, times)
        res_b = flow.simulate_batch(grid, [mirrored], [fluids], backward, times)
        for f, b in zip(res_f.values[0], res_b.values[0]):
            assert f.max() > 0.2
            np.testing.assert_allclose(b[::-1], f, rtol=0, atol=1e-12)
        # water enters through the right face and flows along -x
        np.testing.assert_allclose(res_b.fluxes[0, :, 1], -res_f.fluxes[0, :, 0], rtol=1e-12)
        np.testing.assert_allclose(res_b.fluxes[0, :, 0], -res_f.fluxes[0, :, 1],
                                   rtol=1e-12, atol=1e-15)

    def test_failing_row_stops_alone(self, monkeypatch):
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 3.0)]]
        times = [0.5, 1.5]
        expected = [flow.simulate_batch(grid, [rock], [fl], bc, times) for fl in fluids]
        # the CFL step of the first step: a snapshot time within it cuts it
        first = flow.simulate_batch(grid, [rock], fluids[:1], bc, [1e-6]).min_dt_s[0]
        _understate_cfl_bound(monkeypatch, fluids[0])
        out = flow.simulate_batch(grid, [rock] * 3, fluids, bc, times)
        assert isinstance(out.errors[0], flow.FlowError)
        assert "simulation failed at t = 0 yr (target snapshot 0.5 yr)" in str(out.errors[0])
        assert isinstance(out.errors[0].__cause__, flow.CflViolationError)
        # the failed row took no snapshot: NaN, not uninitialized memory; its
        # record is what it ran, the one step at three times the stable step
        assert np.isnan(out.values[0]).all() and out.steps[0] == 1
        assert out.min_dt_s[0] == pytest.approx(3.0 * first, rel=1e-12)
        for c in (1, 2):
            assert out.errors[c] is None
            for name in ("values", "masses", "fluxes", "steps", "min_dt_s", "mass_residual"):
                np.testing.assert_array_equal(getattr(out, name)[c],
                                              getattr(expected[c], name)[0], err_msg=name)
        with pytest.raises(flow.FlowError, match="saturation left"):
            flow.run_simulation(grid, rock, fluids[0], bc, times)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_textbook_impes(self, reverse):
        # the fused step against the unfused textbook formulas, row by row:
        # two-rock media, per-row viscosities, integer and fractional exponents
        grid, bc = flow.Grid1D(0.0, 1.0, 80), textbook_bc(reverse)
        rocks = [two_region_rock(grid, gamma=g, k_right=k)
                 for g, k in [(0.3, 5e-14), (0.55, 9e-14), (0.15, 7e-14)]]
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta)
                  for mu, beta in [(10, 2.0), (3, 2.5), (1.5, 6.0)]]
        times = [0.3, 1.0, 2.0]
        batch = flow.simulate_batch(grid, rocks, fluids, bc, times)
        for c, (rock, fl) in enumerate(zip(rocks, fluids)):
            assert batch.values[c].max() > 0.2
            assert_matches_textbook(batch, c, grid, rock, fl, bc, times)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("case", ["zero", "repeated", "dense", "within_slack"])
    def test_landing_matches_textbook_impes(self, reverse, case):
        # snapshot times that test the landing step: t = 0, a repeated time,
        # times closer than one CFL step, so that every step is cut short,
        # and a time past a step boundary by half its slack, which that step
        # reaches. A linear flux (beta = 1, equal viscosities) keeps the total
        # resistance, and so the CFL step of the first row, constant
        grid, bc = flow.Grid1D(0.0, 1.0, 80), textbook_bc(reverse)
        rocks = [two_region_rock(grid, gamma=g) for g in (0.3, 0.55, 0.15)]
        fluids = [flow.FluidParams(0.003, 0.003, 1.0), flow.FluidParams(0.003, 0.03, 2.0),
                  flow.FluidParams(0.003, 0.0045, 6.0)]
        cfl = flow.simulate_batch(grid, rocks[:1], fluids[:1], bc, [0.1]).min_dt_s[0]
        step_yr = cfl / flow.SECONDS_PER_YEAR
        times = {
            "zero": [0.0, 0.0, 0.4, 1.0],
            "repeated": [0.4, 0.4, 1.0, 1.0, 1.0],
            "dense": [step_yr * (1 + i) / 3 for i in range(10)],
            "within_slack": [20 * step_yr * (1 + 5e-10), 0.5],
        }[case]
        batch = flow.simulate_batch(grid, rocks, fluids, bc, times)
        for c, (rock, fl) in enumerate(zip(rocks, fluids)):
            assert_matches_textbook(batch, c, grid, rock, fl, bc, times)
            if case == "zero":
                np.testing.assert_array_equal(batch.values[c, :2], 0.0)
        if case == "dense":
            assert batch.steps[0] == 10  # one short step per snapshot
        if case == "within_slack":
            head = flow.simulate_batch(grid, rocks[:1], fluids[:1], bc, times[:1])
            assert head.steps[0] == 20 and head.values.max() > 0.2

    def test_singular_row_fails_alone(self):
        # a permeability of 1e-320 makes that row's face resistances overflow
        # to inf: it alone stops, at its first step, and the others run on
        n = 60
        grid, rock, _, bc = example1_setup(n)
        tight = flow.RockField.homogeneous(n, 0.1, 1e-320)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 2.5)]]
        times = [0.5, 1.5]
        with np.errstate(divide="ignore", over="ignore"):  # building the resistances
            out = flow.simulate_batch(grid, [rock, tight, rock], fluids, bc, times)
        assert isinstance(out.errors[1], flow.FlowError)
        assert isinstance(out.errors[1].__cause__, flow.SingularSystemError)
        assert str(out.errors[1]) == (
            "simulation failed at t = 0 yr (target snapshot 0.5 yr): "
            "nonpositive or non-finite face resistance")
        for c in (0, 2):
            single = flow.simulate_batch(grid, [rock], [fluids[c]], bc, times)
            np.testing.assert_array_equal(out.values[c], single.values[0])
            assert out.steps[c] == single.steps[0]

    def test_zero_face_resistance_fails_alone(self):
        # a permeability of 1e200 overflows the inner harmonic means to inf:
        # the inner face resistances are 0, the boundary ones positive and the
        # total finite, yet that row alone stops, at t = 0
        n = 60
        grid, rock, fluids, bc = example1_setup(n)
        loose = flow.RockField.homogeneous(n, 0.1, 1e200)
        times = [0.0, 0.5]
        with np.errstate(over="ignore"):  # building the resistances
            out = flow.simulate_batch(grid, [rock, loose], [fluids] * 2, bc, times)
        assert isinstance(out.errors[1].__cause__, flow.SingularSystemError)
        assert str(out.errors[1]) == (
            "simulation failed at t = 0 yr (target snapshot 0.5 yr): "
            "nonpositive or non-finite face resistance")
        single = flow.simulate_batch(grid, [rock], [fluids], bc, times)
        np.testing.assert_array_equal(out.values[0], single.values[0])

    @pytest.mark.parametrize("step, when", [
        (4, "0.448099 yr (target snapshot 0.5 yr)"),  # the step that lands on 0.5 yr
        (7, "0.80722 yr (target snapshot 1.5 yr)"),  # the third step after it
    ])
    def test_singular_row_fails_alone_mid_run(self, monkeypatch, step, when):
        # a mobility denominator D of 0 in one row from a later step on makes
        # its total resistance infinite: it alone stops, naming the clock
        # before that step, and the others run on as if alone. A block may
        # evaluate a step that it does not commit, so the zero holds from
        # call `step` on while the row runs, not at that call alone
        n = 60
        grid, rock, _, bc = example1_setup(n)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 2.5)]]
        times = [0.5, 1.5]
        expected = [flow.simulate_batch(grid, [rock], [fl], bc, times) for fl in fluids]
        original, calls = flow._mobilities, []

        def patched(s, ratio, groups, out):
            wet, denom = original(s, ratio, groups, out)
            calls.append(s.shape[0])
            if len(calls) >= step and s.shape[0] == 3:
                denom[2, 10] = 0.0  # the rows run sorted by beta: fluids[1] is the last
            return wet, denom

        monkeypatch.setattr(flow, "_mobilities", patched)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = flow.simulate_batch(grid, [rock] * 3, fluids, bc, times)
        assert calls[:step] == [3] * step
        assert isinstance(out.errors[1].__cause__, flow.SingularSystemError)
        assert str(out.errors[1]) == (
            f"simulation failed at t = {when}: nonpositive or non-finite face resistance")
        for c in (0, 2):
            np.testing.assert_array_equal(out.values[c], expected[c].values[0])
            assert out.steps[c] == expected[c].steps[0]

    def test_clip_keeps_an_overshooting_row_in_range(self, monkeypatch):
        # a CFL step three times too long overshoots [0, 1]; past a widened
        # maximum-principle band the step clips, and only that row changes
        n = 100
        grid, rock, _, bc = example1_setup(n)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 3.0)]]
        times = [0.5, 1.5]
        expected = [flow.simulate_batch(grid, [rock], [fl], bc, times) for fl in fluids]
        lf = flow._max_flux_derivative(fluids[0])
        _understate_cfl_bound(monkeypatch, fluids[0])
        # at the default band the row fails at its first step, which fills the
        # inlet cell to the Courant number 3 * 0.9 / lf
        failed = flow.simulate_batch(grid, [rock] * 3, fluids, bc, times).errors[0]
        assert isinstance(failed.__cause__, flow.CflViolationError)
        assert str(failed.__cause__) == f"saturation left [0,1] by {3 * 0.9 / lf - 1.0:.3e}"
        monkeypatch.setattr(flow, "MAX_PRINCIPLE_TOL", 10.0)
        out = flow.simulate_batch(grid, [rock] * 3, fluids, bc, times)
        assert out.values[0].min() >= 0.0 and out.values[0].max() == 1.0
        assert out.steps[0] < expected[0].steps[0]
        for c in (1, 2):
            np.testing.assert_array_equal(out.values[c], expected[c].values[0])

    def test_step_bound(self, monkeypatch):
        # each row's bound holds its steps; a row that left at set-up, here
        # on an unbounded f', is bounded by 0. A batch bounded by more than
        # MAX_ROW_STEPS is refused before its first step, naming the row of
        # the largest bound
        grid, rock, _, bc = example1_setup(60)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 2.5), (1, 0.5)]]
        times = [0.5, 1.5]
        out = flow.simulate_batch(grid, [rock] * 4, fluids, bc, times)
        assert np.all(out.steps[:3] > 0) and np.all(out.steps <= out.step_bound)
        assert out.step_bound[3] == 0 and out.errors[3] is not None
        monkeypatch.setattr(flow, "MAX_ROW_STEPS", int(out.step_bound.sum()) - 1)
        monkeypatch.setattr(flow, "_full_step", None)  # a step would raise TypeError
        with pytest.raises(flow.StepBoundError) as caught:
            flow.simulate_batch(grid, [rock] * 4, fluids, bc, times)
        assert caught.value.row == int(out.step_bound.argmax())

    def test_unbounded_flux_derivative_raises_without_warnings(self):
        # beta < 1 makes the fractional-flow derivative blow up at s = 0 and
        # s = 1; the FlowError is the one signal, no RuntimeWarning on the way
        grid, rock, _, bc = example1_setup(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(flow.FlowError, match="unbounded"):
                flow.run_simulation(grid, rock, flow.FluidParams(0.003, 0.003, 0.5), bc, [0.5])

    def test_failing_combo_writes_no_snapshots(self, monkeypatch, tmp_path, capsys):
        raw = {
            "schema_version": 1,
            "name": "fail",
            "grid": {"x_min_km": 0.0, "x_max_km": 1.0, "n_cells": 60},
            "boundary": {"p_left_pa": 4.137e7, "p_right_pa": 2.758e7,
                         "s_inflow": 1.0, "s_initial": 0.0},
            "fluids": {"mu_w_pa_s": 0.003, "mu_nw_pa_s": {"param": "mu", "scale": 0.003},
                       "beta": {"param": "beta"}},
            "rock": {"kind": "homogeneous", "porosity": 0.1, "permeability_m2": 1e-13},
            "axes": [{"name": "mu", "values": [1, 6]}, {"name": "beta", "values": [2, 4]}],
            "snapshot_times_yr": [0.5, 1.0],
        }
        cfg_path = tmp_path / "fail.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "store"
        argv = ["generate", "--config", str(cfg_path), "--out", str(out)]
        with monkeypatch.context() as patch:
            _understate_cfl_bound(patch, flow.FluidParams(0.003, 0.003, 2.0))
            assert cli.main(argv) == cli.EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "FAILED {'mu': 1.0, 'beta': 2.0}: simulation failed at t = 0 yr" in err
        assert "1 simulations failed; no snapshots written" in err
        assert list(out.iterdir()) == []  # nor a manifest
        # without the fault, a rerun over the same directory writes every snapshot
        assert cli.main(argv) == cli.EXIT_OK
        assert store.load_store(out).count == 8
        assert sorted(p.name for p in out.iterdir()) == [store.MANIFEST_NAME, store.SNAPSHOTS_NAME]


def assert_same_record(a, b):
    """Two sweep records equal bit for bit, NaN where either took no
    snapshot, with the same failure texts."""
    for name in ("values", "masses", "fluxes", "steps", "min_dt_s", "mass_residual"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert [str(e) for e in a.errors] == [str(e) for e in b.errors]


class TestBlocks:
    """Speculative blocks commit what the per-step loop, which blocks of one
    step leave, computes: every record array bit for bit and the same
    failure texts, whether a block ends before a landing, at an overshoot
    or at a failure."""

    @staticmethod
    def run(monkeypatch, *args, full=False):
        """simulate_batch(*args) in blocks, checked against blocks of one
        step; returns the record and the (span, committed steps) of each
        block. With full, each block runs its longest span, past the
        predicted landing."""
        spans, original = [], flow._full_steps

        def recorded(st, span, blocks, views, n):
            done, ahead = original(st, len(blocks[0]) if full else span, blocks, views, n)
            spans.append((len(blocks[0]) if full else span, done))
            return done, ahead

        with monkeypatch.context() as patch:
            patch.setattr(flow, "_full_steps", recorded)
            out = flow.simulate_batch(*args)
        with monkeypatch.context() as patch:
            patch.setattr(flow, "BLOCK_STEPS", 1)
            plain = flow.simulate_batch(*args)
        assert plain.single_steps == plain.steps.max()  # every step on its own
        assert out.single_steps < plain.single_steps
        assert_same_record(out, plain)
        return out, spans

    @pytest.mark.parametrize("full", [False, True])
    def test_rows_ten_times_apart_in_steps(self, monkeypatch, full):
        # two ex2-like rows, one with a tenth of the other's permeability and
        # so a tenth of its steps; snapshot times a fractional number of
        # steps apart. Predicted blocks end before each landing; blocks
        # run at full length are cut by landings inside them
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        fast = two_region_rock(grid, gamma=0.4)
        slow = flow.RockField(fast.porosity, fast.permeability / 10)
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        step_yr = flow.simulate_batch(grid, [fast], [fluids], bc, [0.05]).min_dt_s[0] / (
            flow.SECONDS_PER_YEAR)
        times = [step_yr * x for x in (7.5, 16.0, 40.3, 41.0, 200.0, 333.3)]
        out, spans = self.run(monkeypatch, grid, [fast, slow], [fluids] * 2, bc, times, full=full)
        assert 9 * out.steps[1] < out.steps[0] < 11 * out.steps[1]
        assert any(done == span for span, done in spans)
        if full:
            assert any(done < span for span, done in spans)

    def test_most_steps_land(self, monkeypatch):
        # ex1-like rows on a coarse grid with 25 snapshot times: most
        # lockstep steps land some row
        grid, rock, _, bc = example1_setup(60)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta)
                  for mu, beta in [(1, 2.0), (6, 4.0), (3, 2.5), (12, 3.0)]]
        times = np.linspace(0.2, 5.0, 25)
        out, spans = self.run(monkeypatch, grid, [rock] * 4, fluids, bc, times)
        assert 2 * out.single_steps > out.steps.max() and spans

    @pytest.mark.parametrize("tol", [flow.MAX_PRINCIPLE_TOL, 10.0])
    def test_overshoot_mid_block(self, monkeypatch, tol):
        # a CFL step three times too long is stable in the porous left rock
        # and overshoots once the front enters the tight right rock, in the
        # middle of a block: at the default band that row fails alone, past
        # a widened band the step clips
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 3.0)]]
        rocks = [two_region_rock(grid, gamma=0.3)] * 3
        times = [0.5, 2.0, 4.0]
        stable = flow.simulate_batch(grid, rocks[:1], fluids[:1], bc, times)
        _understate_cfl_bound(monkeypatch, fluids[0])
        monkeypatch.setattr(flow, "MAX_PRINCIPLE_TOL", tol)
        out, spans = self.run(monkeypatch, grid, rocks, fluids, bc, times)
        assert any(0 < done < span for span, done in spans)
        if tol == 10.0:
            assert out.errors == [None] * 3
            assert out.values[0].min() >= 0.0 and out.values[0].max() <= 1.0
        else:
            assert isinstance(out.errors[0].__cause__, flow.CflViolationError)
            assert out.errors[1:] == [None, None]
            # the failed row's record is what it ran: its steps up to and
            # including the one that overshot, as alone, and its smallest
            # step, three times the stable run's. With mu_nw = mu_w, D <= 1
            # peaks in the initial state, so both smallest steps are the first
            alone = flow.simulate_batch(grid, rocks[:1], fluids[:1], bc, times)
            assert out.steps[0] == alone.steps[0] == 179
            assert out.min_dt_s[0] == pytest.approx(3.0 * stable.min_dt_s[0], rel=1e-12)


def textbook_bc(reverse):
    p_hi, p_lo = 4.137e7, 2.758e7
    return flow.BoundaryConditions(*((p_lo, p_hi) if reverse else (p_hi, p_lo)), 1.0, 0.0)


def assert_matches_textbook(batch, c, grid, rock, fl, bc, times):
    """Row c of a batch record against `impes_textbook`: the same step
    count, relative L1 within 1e-12 per snapshot and the smallest CFL step
    within 1e-13 relative."""
    values, steps, min_dt = impes_textbook(
        grid.dx_m, rock.porosity, rock.permeability, fl.mu_w, fl.mu_nw, fl.beta,
        bc.p_left, bc.p_right, bc.s_inflow, bc.s_initial,
        [t * flow.SECONDS_PER_YEAR for t in times])
    assert batch.steps[c] == steps
    scale = np.maximum(np.abs(values).sum(axis=1), 1e-300)
    rel_l1 = np.abs(batch.values[c] - values).sum(axis=1) / scale
    assert rel_l1.max() <= 1e-12, rel_l1
    assert batch.min_dt_s[c] == pytest.approx(min_dt, rel=1e-13)


def _understate_cfl_bound(monkeypatch, target):
    """Make the CFL step of the target fluids three times too long."""
    original = flow._max_flux_derivative

    def patched(fluids):
        lf = original(fluids)
        return lf / 3.0 if fluids == target else lf

    monkeypatch.setattr(flow, "_max_flux_derivative", patched)


class TestBuckleyLeverett:
    def test_l1_convergence_to_analytic_solution(self):
        # the clock of the self-similar solution is the injected volume,
        # which is the cumulative influx through the left face because s_inflow = 1
        errors = []
        for n in (100, 200, 400):
            grid, rock, fluids, bc = example1_setup(n, mu=1.0, beta=2.0)
            res = flow.simulate_batch(grid, [rock], [fluids], bc, [3.5])
            sub = 64  # exact cell averages from 64 samples per cell
            x_m = (grid.x_min + (np.arange(n * sub) + 0.5) * grid.dx / sub) * flow.METERS_PER_KM
            exact = buckley_leverett(x_m, res.fluxes[0, 0, 0], 0.1, fluids)
            errors.append(np.abs(res.values[0, 0] - exact.reshape(n, sub).mean(axis=1)).mean())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert errors[0] < 0.02  # the front sits mid-domain, well resolved
        assert np.all(orders >= 0.5), (errors, orders)  # measured: 0.77, 0.80
