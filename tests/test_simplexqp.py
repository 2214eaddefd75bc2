import numpy as np
import pytest

from baryrom import simplexqp as sq
from baryrom import transport as tr

from oracles import project_simplex_kkt_enumeration, simplex_ls_active_set


def random_icdf_atoms(rng, m, n):
    """Well-separated synthetic atoms: icdfs of uniform blocks on [0, w]."""
    widths = np.sort(rng.uniform(0.05, 1.0, n))
    cells = (np.arange(m - 2) + 0.5) / (m - 2)
    atoms = np.empty((m, n))
    for j, w in enumerate(widths):
        atoms[:, j] = tr.snapshot_to_icdf(np.where(cells <= w, 1.0 / w, 0.0))
    return atoms


def random_feasible(rng, n, t, sparse=False):
    """Random simplex columns; with sparse, each on a random nonempty support."""
    w = rng.dirichlet(np.ones(n), size=t).T
    if sparse:
        w *= rng.random((n, t)) < 0.5
        w[rng.integers(0, n, t), np.arange(t)] += 1e-3
        w /= w.sum(axis=0)
    return w


def assert_kkt(atoms, targets, res, tol=1e-10):
    """Every column converged and satisfies the simplex KKT conditions at tol."""
    assert res.converged.all()
    assert np.all(res.kkt <= tol)
    m = atoms.shape[0]
    for t in range(targets.shape[1]):
        w = res.weights[:, t]
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        grad = 2.0 * atoms.T @ (atoms @ w - targets[:, t]) / m
        act = w > 1e-8
        assert grad[act].max() - grad[act].min() < 10 * tol
        if (~act).any():
            assert np.all(grad[~act] >= grad[act].mean() - 10 * tol)


class TestProjection:
    def test_idempotent_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(sq.project_to_simplex(v), v, atol=1e-15)

    def test_two_component_example(self):
        np.testing.assert_allclose(
            sq.project_to_simplex(np.array([1.2, -0.3])), [1.0, 0.0], atol=1e-15
        )

    def test_symmetric_input(self):
        np.testing.assert_allclose(
            sq.project_to_simplex(np.array([0.6, 0.6, 0.6])),
            [1 / 3, 1 / 3, 1 / 3],
            atol=1e-15,
        )

    def test_matches_kkt_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.uniform(-2, 2, rng.integers(2, 6))
            got = sq.project_to_simplex(v)
            want = project_simplex_kkt_enumeration(v)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_optimality_vs_random_feasible(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            v = rng.uniform(-2, 2, n)
            p = sq.project_to_simplex(v)
            w = rng.dirichlet(np.ones(n))
            assert np.sum((v - p) ** 2) <= np.sum((v - w) ** 2) + 1e-12

    def test_output_on_simplex(self):
        rng = np.random.default_rng(29)
        v = rng.uniform(-5, 5, (7, 40))
        p = sq.project_to_simplex(v)
        assert np.all(p >= -1e-10)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-10)

    def test_columns_equal_column_loop(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(-3, 3, (6, 25))
        v[:, 3] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]  # a vertex
        v[:, 4] = [0.5, 0.5, -1.0, -1.0, -1.0, -1.0]  # lands on an edge
        got = sq.project_to_simplex(v)
        assert got.shape == v.shape
        want = np.column_stack([sq.project_to_simplex(v[:, t]) for t in range(v.shape[1])])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[:, 3], v[:, 3])
        assert np.count_nonzero(got[:, 4]) == 2


class TestSolve:
    def test_single_atom(self):
        rng = np.random.default_rng(41)
        atoms = random_icdf_atoms(rng, 100, 1)
        target = tr.snapshot_to_icdf(rng.random(98))
        res = sq.solve_batch(atoms, target)
        assert res.converged[0]
        assert res.weights[:, 0].tolist() == [1.0]
        assert res.objective[0] == pytest.approx(
            tr.w2_distance(atoms[:, 0], target) ** 2, rel=1e-12
        )

    def test_realizable_target_objective_zero(self):
        rng = np.random.default_rng(43)
        atoms = random_icdf_atoms(rng, 120, 3)
        w0 = np.array([0.3, 0.45, 0.25])
        target = atoms @ w0
        res = sq.solve_batch(atoms, target)
        assert res.objective[0] < 1e-10

    def test_dirac_atoms_interpolate_position(self):
        m = 80
        atoms = np.stack([np.full(m, 0.2), np.full(m, 0.8)], axis=1)
        target = np.full(m, 0.35)
        res = sq.solve_batch(atoms, target)
        np.testing.assert_allclose(res.weights[:, 0], [0.75, 0.25], atol=1e-8)

    def test_objective_matches_residual(self):
        rng = np.random.default_rng(47)
        atoms = random_icdf_atoms(rng, 90, 4)
        target = tr.snapshot_to_icdf(rng.random(88))
        res = sq.solve_batch(atoms, target)
        resid = atoms @ res.weights[:, 0] - target
        assert res.objective[0] == pytest.approx(np.mean(resid**2), rel=1e-12)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            atoms = random_icdf_atoms(rng, 60, n)
            target = tr.snapshot_to_icdf(rng.random(58))
            res = sq.solve_batch(atoms, target)
            _, f_star = simplex_ls_active_set(atoms, target)
            assert res.objective[0] <= f_star + 1e-8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_matches_oracle_cold_and_warm(self, n):
        rng = np.random.default_rng(100 + n)
        atoms = random_icdf_atoms(rng, 80, n)
        targets = np.stack(
            [tr.snapshot_to_icdf(rng.random(78)) for _ in range(12)], axis=1
        )
        want = np.array([simplex_ls_active_set(atoms, f)[1] for f in targets.T])
        starts = [None] + [random_feasible(rng, n, 12, sparse=True) for _ in range(3)]
        for init in starts:
            res = sq.solve_batch(atoms, targets, init=init)
            np.testing.assert_allclose(res.objective, want, rtol=0, atol=1e-10)
            assert_kkt(atoms, targets, res)

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(73)
        base = random_icdf_atoms(rng, 90, 3)
        targets = np.stack(
            [tr.snapshot_to_icdf(rng.random(88)) for _ in range(8)], axis=1
        )
        cases = {
            "duplicate atoms": np.column_stack([base, base[:, [1, 1]]]),
            "target atoms": base,
            "zero atoms": np.zeros((90, 3)),
            "single atom": base[:, :1],
        }
        for name, atoms in cases.items():
            tgt = base if name == "target atoms" else targets
            want = np.array([simplex_ls_active_set(atoms, f)[1] for f in tgt.T])
            for init in (None, random_feasible(rng, atoms.shape[1], tgt.shape[1])):
                res = sq.solve_batch(atoms, tgt, init=init)
                np.testing.assert_allclose(res.objective, want, rtol=0, atol=1e-10, err_msg=name)
                assert_kkt(atoms, tgt, res)
                if name == "target atoms":
                    assert np.all(res.objective <= 1e-20)

    def test_kkt_at_convergence(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            atoms = random_icdf_atoms(rng, 100, 3)
            target = tr.snapshot_to_icdf(rng.random(98))[:, None]
            assert_kkt(atoms, target, sq.solve_batch(atoms, target, tol=1e-10))

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(61)
        atoms = random_icdf_atoms(rng, 100, 3)
        target = tr.snapshot_to_icdf(rng.random(98))
        res = sq.solve_batch(atoms, target, max_iter=2)
        assert res.converged.shape == (1,) and res.converged.dtype == bool

    def test_warm_start_reaches_cold_optimum(self):
        # any feasible start, whatever its support, ends at the cold-start
        # optimum
        rng = np.random.default_rng(67)
        atoms = random_icdf_atoms(rng, 100, 5)
        targets = np.stack(
            [tr.snapshot_to_icdf(rng.random(98)) for _ in range(6)], axis=1
        )
        cold = sq.solve_batch(atoms, targets)
        for _ in range(10):
            init = random_feasible(rng, 5, 6)
            warm = sq.solve_batch(atoms, targets, init=init)
            assert warm.converged.all()
            np.testing.assert_allclose(warm.objective, cold.objective, rtol=0, atol=1e-12)
        # the optimum itself is a fixed point
        again = sq.solve_batch(atoms, targets, init=cold.weights)
        np.testing.assert_array_equal(again.iterations, 0)
        np.testing.assert_allclose(again.weights, cold.weights, atol=1e-12)

    def test_optimal_init_is_screened_unchanged(self):
        # an optimum with zero weights passes the screen on the support of
        # init itself and comes back bit for bit, with no active-set change
        rng = np.random.default_rng(79)
        atoms = random_icdf_atoms(rng, 100, 5)
        targets = np.stack(
            [tr.snapshot_to_icdf(rng.random(98)) for _ in range(10)], axis=1
        )
        opt = sq.solve_batch(atoms, targets).weights
        assert np.all(np.any(opt == 0.0, axis=0))
        # a rounding-level mass deficit, which the simplex projection spreads
        # over the zero weights
        short = opt * (1.0 - 2.0**-52)
        assert np.all(sq.project_to_simplex(short) > 0.0)
        for init in (opt, short):
            res = sq.solve_batch(atoms, targets, init=init)
            assert res.screened.all() and res.converged.all()
            np.testing.assert_array_equal(res.weights, init)
            np.testing.assert_array_equal(res.iterations, 0)
            assert np.all(res.kkt <= sq.DEFAULT_TOL)

    def test_appended_atom_screens_the_optima_it_cannot_improve(self):
        # the greedy warm start: the optima over the first n - 1 atoms, with
        # a zero weight for the appended atom
        rng = np.random.default_rng(83)
        atoms = random_icdf_atoms(rng, 100, 6)[:, [0, 1, 2, 4, 5, 3]]
        cells = (np.arange(98) + 0.5) / 98
        targets = np.stack(
            [
                tr.snapshot_to_icdf(np.where(cells <= w, 1.0 + 0.5 * rng.random(98), 0.0))
                for w in rng.uniform(0.05, 1.0, 16)
            ],
            axis=1,
        )
        prev = sq.solve_batch(atoms[:, :-1], targets).weights
        init = np.vstack([prev, np.zeros((1, 16))])
        res = sq.solve_batch(atoms, targets, init=init)
        assert 0 < res.screened.sum() < 16
        np.testing.assert_array_equal(res.weights[:, res.screened], init[:, res.screened])
        want = np.array([simplex_ls_active_set(atoms, f)[1] for f in targets.T])
        np.testing.assert_allclose(res.objective, want, rtol=0, atol=1e-10)
        assert_kkt(atoms, targets, res)

    def test_init_objective_is_kept_for_screened_columns_only(self):
        rng = np.random.default_rng(83)
        atoms = random_icdf_atoms(rng, 100, 6)[:, [0, 1, 2, 4, 5, 3]]
        cells = (np.arange(98) + 0.5) / 98
        targets = np.stack(
            [
                tr.snapshot_to_icdf(np.where(cells <= w, 1.0 + 0.5 * rng.random(98), 0.0))
                for w in rng.uniform(0.05, 1.0, 16)
            ],
            axis=1,
        )
        prev = sq.solve_batch(atoms[:, :-1], targets)
        init = np.vstack([prev.weights, np.zeros((1, 16))])
        full = sq.solve_batch(atoms, targets, init=init)
        # markers that no solve would compute show which values are passed on
        marker = -np.arange(1.0, 17.0)
        res = sq.solve_batch(atoms, targets, init=init, init_objective=marker)
        screened = res.screened
        assert 0 < screened.sum() < 16
        np.testing.assert_array_equal(screened, full.screened)
        np.testing.assert_array_equal(res.objective[screened], marker[screened])
        np.testing.assert_allclose(res.objective[~screened], full.objective[~screened],
                                   rtol=1e-14, atol=0)
        np.testing.assert_array_equal(res.weights, full.weights)
        # the greedy sweep passes last sweep's objectives, which the zero
        # weight on the appended atom leaves as they are
        res = sq.solve_batch(atoms, targets, init=init, init_objective=prev.objective)
        np.testing.assert_allclose(res.objective, full.objective, rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="init_objective"):
            sq.solve_batch(atoms, targets, init=init, init_objective=marker[:-1])

    @pytest.mark.parametrize("defect", ["negative", "sum-1.1", "nan"])
    def test_init_off_the_simplex_is_rejected(self, defect):
        rng = np.random.default_rng(97)
        atoms = random_icdf_atoms(rng, 60, 4)
        targets = np.stack([tr.snapshot_to_icdf(rng.random(58)) for _ in range(5)], axis=1)
        init = random_feasible(rng, 4, 5)
        if defect == "negative":
            init[:, 2] = [1.2, -0.2, 0.0, 0.0]
        elif defect == "sum-1.1":
            init[:, 2] *= 1.1
        else:
            init[1, 2] = np.nan
        with pytest.raises(ValueError, match="init column"):
            sq.solve_batch(atoms, targets, init=init)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_random_init_is_not_screened(self, sparse):
        # a dense init has no outside atom, so only the spread of the support
        # gradient can tell that it is not optimal
        rng = np.random.default_rng(89)
        atoms = random_icdf_atoms(rng, 80, 5)
        targets = np.stack(
            [tr.snapshot_to_icdf(rng.random(78)) for _ in range(12)], axis=1
        )
        res = sq.solve_batch(atoms, targets, init=random_feasible(rng, 5, 12, sparse))
        assert not res.screened.any()
        want = np.array([simplex_ls_active_set(atoms, f)[1] for f in targets.T])
        np.testing.assert_allclose(res.objective, want, rtol=0, atol=1e-10)
        assert_kkt(atoms, targets, res)

    def test_lockstep_columns_match_solo_solves(self):
        # one batch whose columns end in every way, on supports of several
        # sizes over a dictionary with a duplicate atom: targets on an edge
        # of the simplex leave only rounding-level gradient gaps, so at a tiny
        # tol some entering atoms bring no decrease, and max_iter caps others
        rng = np.random.default_rng(2)
        base = random_icdf_atoms(rng, 80, 4)
        atoms = np.column_stack([base, base[:, [1]]])
        free = np.stack([tr.snapshot_to_icdf(rng.random(78)) for _ in range(12)], axis=1)
        edge = base[:, :2] @ rng.dirichlet(np.ones(2), 24).T
        targets = np.column_stack([free, edge])
        tol, cap = 1e-25, 3
        res = sq.solve_batch(atoms, targets, tol=tol, max_iter=cap)
        capped = ~res.converged & (res.iterations >= cap)
        no_gain = ~res.converged & (res.iterations < cap)
        assert res.converged.any() and capped.any() and no_gain.any()
        assert np.unique(np.count_nonzero(res.weights, axis=0)).size >= 3
        for t in range(targets.shape[1]):
            solo = sq.solve_batch(atoms, targets[:, t], tol=tol, max_iter=cap)
            np.testing.assert_allclose(solo.weights[:, 0], res.weights[:, t], rtol=0, atol=1e-12)
            assert solo.iterations[0] == res.iterations[t]
            assert solo.converged[0] == res.converged[t]
            assert solo.kkt[0] == pytest.approx(res.kkt[t], rel=1e-12, abs=1e-30)
        want = np.array([simplex_ls_active_set(atoms, f)[1] for f in targets.T])
        np.testing.assert_allclose(res.objective[~capped], want[~capped], rtol=0, atol=1e-12)
        assert np.all(res.objective[capped] >= want[capped] - 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq.solve_batch(np.zeros((10, 2)), np.zeros(9))
        with pytest.raises(ValueError):
            sq.solve_batch(np.zeros(10), np.zeros(10))
        with pytest.raises(ValueError):
            sq.solve_batch(np.zeros((10, 2)), np.zeros((9, 1)))


class TestGramCondition:
    def test_single_atom_is_one(self):
        atoms = np.linspace(0, 1, 50)[:, None]
        assert sq.condition_of_gram(atoms.T @ atoms) == 1.0

    def test_duplicate_atoms_infinite(self):
        a = np.linspace(0, 1, 50)
        atoms = np.stack([a, a], axis=1)
        assert sq.condition_of_gram(atoms.T @ atoms) == np.inf

    def test_constant_icdf_pair_matches_eigen_ratio(self):
        # proportional constant columns: the 2x2 Gram is rank one, so the
        # eigenvalue ratio (and the sentinel) is +inf
        atoms = np.stack([np.full(40, 0.2), np.full(40, 0.7)], axis=1)
        cond = sq.condition_of_gram(atoms.T @ atoms)
        assert cond == np.inf

    def test_well_conditioned_pair(self):
        rng = np.random.default_rng(71)
        atoms = random_icdf_atoms(rng, 80, 2)
        gram = atoms.T @ atoms
        cond = sq.condition_of_gram(gram)
        eigs = np.linalg.eigvalsh(gram)
        assert cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-10)
