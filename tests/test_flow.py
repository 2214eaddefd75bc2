import json
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from baryrom import cli, flow, store


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


class TestMobility:
    def test_endpoints(self):
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        assert flow.total_mobility(0.0, fluids) == pytest.approx(1 / 0.03)
        assert flow.total_mobility(1.0, fluids) == pytest.approx(1 / 0.003)

    def test_symmetric_midpoint(self):
        fluids = flow.FluidParams(0.003, 0.003, 2.0)
        assert flow.total_mobility(0.5, fluids) == pytest.approx(0.5 / 0.003)

    def test_positive_everywhere(self):
        fluids = flow.FluidParams(0.003, 0.075, 6.0)
        s = np.linspace(0, 1, 101)
        assert np.all(flow.total_mobility(s, fluids) > 0)

    def test_domain_error(self):
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        with pytest.raises(ValueError):
            flow.total_mobility(1.1, fluids)

    def test_fractional_flow_endpoints_and_monotone(self):
        fluids = flow.FluidParams(0.003, 0.03, 3.0)
        assert flow.fractional_flow(0.0, fluids) == 0.0
        assert flow.fractional_flow(1.0, fluids) == 1.0
        f = flow.fractional_flow(np.linspace(0, 1, 400), fluids)
        assert np.all(np.diff(f) >= -1e-15)

    def test_fractional_flow_symmetry(self):
        fluids = flow.FluidParams(0.003, 0.003, 2.0)
        assert flow.fractional_flow(0.5, fluids) == pytest.approx(0.5)


class TestPressure:
    def test_constant_coefficients_linear_profile(self):
        n = 200
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, s_inflow=0.3, s_initial=0.3)
        s = np.full(n, 0.3)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        xc = grid.centers()
        exact = bc.p_left + (bc.p_right - bc.p_left) * (xc - grid.x_min) / (
            grid.x_max - grid.x_min
        )
        assert np.max(np.abs(p - exact)) < 1e-12 * abs(bc.p_left) * 100

    def test_two_block_resistor_chain(self):
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        perm = np.where(np.arange(n) < n // 2, 1e-13, 4e-14)
        rock = flow.RockField(np.full(n, 0.1), perm)
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, s_inflow=0.4, s_initial=0.4)
        s = np.full(n, 0.4)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        lam = flow.total_mobility(0.4, fluids)
        k_face = np.empty(n + 1)
        k_face[1:-1] = 2 * perm[:-1] * perm[1:] / (perm[:-1] + perm[1:])
        k_face[0] = 2 * perm[0]
        k_face[-1] = 2 * perm[-1]
        resist = grid.dx_m / (k_face * lam)
        q = (bc.p_left - bc.p_right) / resist.sum()
        exact = bc.p_left - q * np.cumsum(resist)[:-1]
        assert np.max(np.abs(p - exact)) < 1e-8 * abs(bc.p_left)

    def test_discrete_residual(self):
        grid, rock, fluids, bc = example1_setup(300)
        s = np.linspace(0.0, 1.0, 300)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        v = flow.total_velocity(p, s, rock, fluids, bc, grid)
        # div v = 0 cell by cell is the discrete residual
        assert np.max(np.abs(np.diff(v))) < 1e-10 * np.abs(v).max()

    def test_initial_state_divergence_free(self):
        grid, rock, fluids, bc = example1_setup()
        s = np.zeros(grid.n_cells)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        v = flow.total_velocity(p, s, rock, fluids, bc, grid)
        assert (v.max() - v.min()) < 1e-10 * np.abs(v).max()


class TestVelocity:
    def test_uniform_medium_equal_fluxes(self):
        grid, rock, fluids, bc = example1_setup(150)
        s = np.full(150, 0.25)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        v = flow.total_velocity(p, s, rock, fluids, bc, grid)
        assert (v.max() - v.min()) < 1e-10 * np.abs(v).max()

    def test_reversed_pressures_negate(self):
        n = 120
        grid = flow.Grid1D(0.0, 1.0, n)
        perm = np.where(np.arange(n) < 40, 1e-13, 6e-14)
        rock = flow.RockField(np.full(n, 0.1), perm)
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        s = np.full(n, 0.5)
        bc_f = flow.BoundaryConditions(4e7, 2e7, 0.5, 0.0)
        bc_r = flow.BoundaryConditions(2e7, 4e7, 0.5, 0.0)
        v_f = flow.total_velocity(
            flow.solve_pressure(s, rock, fluids, bc_f, grid), s, rock, fluids, bc_f, grid
        )
        v_r = flow.total_velocity(
            flow.solve_pressure(s, rock, fluids, bc_r, grid), s, rock, fluids, bc_r, grid
        )
        np.testing.assert_allclose(v_r, -v_f, rtol=1e-10)

    def test_heterogeneous_interface_flux_continuity(self):
        # example-2 style medium; flux must be constant across the interface
        n = 200
        grid = flow.Grid1D(0.0, 1.0, n)
        left = grid.centers() < 0.2
        rock = flow.RockField(np.where(left, 0.1, 0.01), np.where(left, 1e-13, 5e-14))
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        s = np.linspace(1.0, 0.0, n)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        v = flow.total_velocity(p, s, rock, fluids, bc, grid)
        assert (v.max() - v.min()) < 1e-10 * np.abs(v).max()


class TestCfl:
    def test_zero_velocity_raises(self):
        grid, rock, fluids, _ = example1_setup(50)
        with pytest.raises(flow.ZeroFluxError):
            flow.cfl_timestep(np.zeros(51), rock, fluids, grid)

    def test_halves_when_flux_doubles(self):
        grid, rock, fluids, bc = example1_setup(80)
        v = np.full(81, 1e-7)
        dt1 = flow.cfl_timestep(v, rock, fluids, grid)
        dt2 = flow.cfl_timestep(2 * v, rock, fluids, grid)
        assert dt2 == pytest.approx(dt1 / 2, rel=1e-12)

    def test_matches_per_cell_brute_force(self):
        grid, rock, fluids, bc = example1_setup(mu=1.0, beta=2.0)
        s = np.zeros(grid.n_cells)
        p = flow.solve_pressure(s, rock, fluids, bc, grid)
        v = flow.total_velocity(p, s, rock, fluids, bc, grid)
        dt = flow.cfl_timestep(v, rock, fluids, grid, safety=0.9)
        sgrid = np.linspace(0.0, 1.0, 1001)
        lf = np.max(np.abs(flow.fractional_flow_derivative(sgrid, fluids)))
        per_cell = [
            rock.porosity[i]
            * grid.dx_m
            / (max(abs(v[i]), abs(v[i + 1])) * lf)
            for i in range(grid.n_cells)
        ]
        assert dt == pytest.approx(0.9 * min(per_cell), rel=1e-12)

    def test_safety_range(self):
        grid, rock, fluids, _ = example1_setup(50)
        with pytest.raises(ValueError):
            flow.cfl_timestep(np.ones(51), rock, fluids, grid, safety=1.5)


class TestAdvance:
    def test_zero_dt_identity(self):
        grid, rock, fluids, bc = example1_setup(60)
        s = np.linspace(0, 1, 60)
        v = np.full(61, 1e-7)
        out = flow.advance_saturation(s, v, 0.0, rock, fluids, bc, grid)
        np.testing.assert_array_equal(out, s)

    def test_linear_flux_is_exact_advection(self):
        # beta = 1 with equal viscosities makes f_w(s) = s: first-order
        # upwind of a step by an integer number of cells is exact
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        fluids = flow.FluidParams(0.003, 0.003, 1.0)
        bc = flow.BoundaryConditions(4e7, 2e7, 1.0, 0.0)
        s = np.where(np.arange(n) < 30, 1.0, 0.0)
        v_val = 1e-7
        v = np.full(n + 1, v_val)
        # courant number exactly 1: dt = phi dx / v
        dt = rock.porosity[0] * grid.dx_m / v_val
        out = flow.advance_saturation(s, v, dt, rock, fluids, bc, grid)
        expected = np.where(np.arange(n) < 31, 1.0, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_cfl_violation_raises(self):
        n = 50
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        fluids = flow.FluidParams(0.003, 0.003, 1.0)
        bc = flow.BoundaryConditions(4e7, 2e7, 1.0, 0.0)
        s = np.where(np.arange(n) < 10, 1.0, 0.0)
        v = np.full(n + 1, 1e-7)
        dt = 3.0 * rock.porosity[0] * grid.dx_m / 1e-7
        with pytest.raises(flow.CflViolationError):
            flow.advance_saturation(s, v, dt, rock, fluids, bc, grid)

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

    def test_mass_balance_audit(self):
        grid, rock, fluids, bc = example1_setup(200, mu=1.0, beta=2.0)
        times = [0.5, 1.0, 1.5, 2.0]
        snaps, audit = flow.run_simulation(
            grid, rock, fluids, bc, times, return_audit=True
        )
        masses = [sn.mass for sn in snaps]
        assert all(m2 >= m1 - 1e-14 for m1, m2 in zip(masses, masses[1:]))
        for k in range(len(times)):
            net = audit.cumulative_influx[k] - audit.cumulative_outflux[k]
            assert audit.pore_mass[k] == pytest.approx(net, rel=1e-8)

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
        assert len({res.steps for res in batch}) == len(rocks)
        for rock, fl, res in zip(rocks, fluids, batch):
            snaps, audit = flow.run_simulation(grid, rock, fl, bc, times, return_audit=True)
            single = np.array([snap.values for snap in snaps])
            np.testing.assert_allclose(res.values, single, rtol=0, atol=1e-14)
            np.testing.assert_allclose(res.masses, [snap.mass for snap in snaps], rtol=1e-14)
            np.testing.assert_allclose(
                res.audit.cumulative_influx, audit.cumulative_influx, rtol=1e-14
            )
            np.testing.assert_array_equal(res.values[2], res.values[3])
            assert res.mass_residual < 1e-12
            assert 0.0 < res.min_dt_s < np.inf

    def test_mirror_image(self):
        n = 150
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = two_region_rock(grid, gamma=0.35)
        mirrored = flow.RockField(rock.porosity[::-1], rock.permeability[::-1])
        fluids = flow.FluidParams(0.003, 0.03, 2.0)
        forward = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        backward = flow.BoundaryConditions(2.758e7, 4.137e7, 1.0, 0.0)
        times = [1.0, 6.0]
        snaps_f, audit_f = flow.run_simulation(grid, rock, fluids, forward, times,
                                               return_audit=True)
        snaps_b, audit_b = flow.run_simulation(grid, mirrored, fluids, backward, times,
                                               return_audit=True)
        for f, b in zip(snaps_f, snaps_b):
            assert f.values.max() > 0.2
            np.testing.assert_allclose(b.values[::-1], f.values, rtol=0, atol=1e-12)
        # water enters through the right face and flows along -x
        np.testing.assert_allclose(audit_b.cumulative_outflux,
                                   -np.array(audit_f.cumulative_influx), rtol=1e-12)
        np.testing.assert_allclose(audit_b.cumulative_influx,
                                   -np.array(audit_f.cumulative_outflux), rtol=1e-12, atol=1e-15)

    def test_failing_row_stops_alone(self, monkeypatch):
        n = 100
        grid = flow.Grid1D(0.0, 1.0, n)
        rock = flow.RockField.homogeneous(n, 0.1, 1e-13)
        bc = flow.BoundaryConditions(4.137e7, 2.758e7, 1.0, 0.0)
        fluids = [flow.FluidParams(0.003, 0.003 * mu, beta) for mu, beta in
                  [(1, 2.0), (6, 4.0), (3, 3.0)]]
        times = [0.5, 1.5]
        expected = [flow.run_simulation(grid, rock, fl, bc, times) for fl in fluids]
        _understate_cfl_bound(monkeypatch, fluids[0])
        seen = []
        out = flow.simulate_batch(grid, [rock] * 3, fluids, bc, times,
                                  on_finish=lambda c, res: seen.append(c))
        assert sorted(seen) == [0, 1, 2]
        assert isinstance(out[0], flow.FlowError)
        assert "simulation failed at t = 0 yr (target snapshot 0.5 yr)" in str(out[0])
        assert isinstance(out[0].__cause__, flow.CflViolationError)
        for c in (1, 2):
            np.testing.assert_array_equal(out[c].values, [snap.values for snap in expected[c]])
        with pytest.raises(flow.FlowError, match="saturation left"):
            flow.run_simulation(grid, rock, fluids[0], bc, times)

    def test_unbounded_flux_derivative_raises_without_warnings(self):
        # beta < 1 makes the fractional-flow derivative blow up at s = 0 and
        # s = 1; the FlowError is the one signal, no RuntimeWarning on the way
        grid, rock, _, bc = example1_setup(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(flow.FlowError, match="unbounded"):
                flow.run_simulation(grid, rock, flow.FluidParams(0.003, 0.003, 0.5), bc, [0.5])

    def test_failing_combo_leaves_store_resumable(self, monkeypatch, tmp_path, capsys):
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
        assert "1 simulations failed" in err
        # combos are mu-major: (1, 2), (1, 4), (6, 2), (6, 4)
        written = [store.chunk_path(out, i).exists() for i in range(4)]
        assert written == [False, True, True, True]
        assert cli.main(argv) == cli.EXIT_OK
        assert "(1 to run, 3 resumed)" in capsys.readouterr().out
        assert store.load_store(out).count == 8


def _understate_cfl_bound(monkeypatch, target):
    """Make the CFL step of the target fluids three times too long."""
    original = flow._max_flux_derivative

    def patched(fluids):
        lf = original(fluids)
        return lf / 3.0 if fluids == target else lf

    monkeypatch.setattr(flow, "_max_flux_derivative", patched)


def buckley_leverett(x_m, injected_m, porosity, fluids):
    """Self-similar solution behind a Welge-tangent shock into s = 0, for
    injected volume injected_m [m] per unit area at s = 1."""
    f = lambda s: flow.fractional_flow(s, fluids)  # noqa: E731
    df = lambda s: flow.fractional_flow_derivative(s, fluids)  # noqa: E731
    sat = np.linspace(0.0, 1.0, 100001)[1:]
    i = int(np.argmax(f(sat) / sat))  # tangent from the initial state
    shock = brentq(lambda s: df(s) * s - f(s), sat[i - 1], sat[i + 1])
    fan = np.linspace(shock, 1.0, 20001)
    x_fan = injected_m / porosity * df(fan)  # decreasing along the fan
    return np.where(x_m < x_fan[0], np.interp(x_m, x_fan[::-1], fan[::-1]), 0.0)


class TestBuckleyLeverett:
    def test_l1_convergence_to_analytic_solution(self):
        # the clock of the self-similar solution is the injected volume,
        # which is the audit's cumulative influx because s_inflow = 1
        errors = []
        for n in (100, 200, 400):
            grid, rock, fluids, bc = example1_setup(n, mu=1.0, beta=2.0)
            snaps, audit = flow.run_simulation(grid, rock, fluids, bc, [3.5], return_audit=True)
            sub = 64  # exact cell averages from 64 samples per cell
            x_m = (grid.x_min + (np.arange(n * sub) + 0.5) * grid.dx / sub) * flow.METERS_PER_KM
            exact = buckley_leverett(x_m, audit.cumulative_influx[0], 0.1, fluids)
            errors.append(np.abs(snaps[0].values - exact.reshape(n, sub).mean(axis=1)).mean())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert errors[0] < 0.02  # the front sits mid-domain, well resolved
        assert np.all(orders >= 0.5), (errors, orders)  # measured: 0.77, 0.80
