from dataclasses import replace

import numpy as np
import pytest

from baryrom import greedy, online, simplexqp as sq, transport as tr


def step_profile(center, n=200, height=1.0):
    cells = (np.arange(n) + 0.5) / n
    return np.where(cells < center, height, 0.0)


def make_training(n_raw=200):
    """Small tensor grid: t in {0, 1, 2}, y in {0.5, 1.0}."""
    ts = [0.0, 1.0, 2.0]
    ys = [0.5, 1.0]
    params, raws = [], []
    for t in ts:
        for y in ys:
            params.append((t, y))
            raws.append(step_profile(0.15 + 0.25 * t, n_raw, height=y))
    params = np.asarray(params)
    train = np.stack([tr.snapshot_to_icdf(r) for r in raws], axis=1)
    masses = np.array([r.sum() / n_raw for r in raws])
    return params, raws, train, masses


@pytest.fixture(scope="module")
def fitted():
    params, raws, train, masses = make_training()
    dictionary, _, weights = greedy.run(train, n_max=3)
    model = online.fit(dictionary, params, weights, masses, ("t", "y"), n_raw=200)
    return params, raws, train, masses, model


class TestFit:
    def test_tables_shaped_by_axes(self, fitted):
        params, _, _, _, model = fitted
        assert model.weight_table.shape == (3, 2, model.n_atoms)
        assert model.mass_table.shape == (3, 2)
        assert model.axis_names == ("t", "y")

    def test_exact_at_training_nodes(self, fitted):
        params, _, _, masses, model = fitted
        for row in range(params.shape[0]):
            lam, mass = online.evaluate_raw(model, params[row])
            assert mass == pytest.approx(masses[row], abs=0.0)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_point_grid_constant(self):
        params = np.array([[1.0, 2.0]])
        raw = step_profile(0.4, 100)
        train = tr.snapshot_to_icdf(raw)[:, None]
        d = greedy.make_dictionary(np.hstack([train, train + 1e-9]), [0])
        # simplest constant model: one atom, one node
        model = online.fit(
            greedy.Dictionary(train, np.array([0])),
            params,
            np.ones((1, 1)),
            np.array([0.4]),
            ("a", "b"),
            n_raw=100,
        )
        lam, mass = online.evaluate_raw(model, [1.0, 2.0])
        assert lam.tolist() == [1.0]
        assert mass == 0.4

    def test_missing_node_rejected(self):
        params, raws, train, masses = make_training()
        dictionary, _, weights = greedy.run(train, n_max=2)
        with pytest.raises(ValueError) as err:
            online.fit(
                dictionary, params[:-1], weights[:, :-1], masses[:-1], ("t", "y"), 200
            )
        assert "not a full tensor grid" in str(err.value)

    def test_duplicate_node_rejected(self):
        params, raws, train, masses = make_training()
        dictionary, _, weights = greedy.run(train, n_max=2)
        bad = params.copy()
        bad[1] = bad[0]
        with pytest.raises(ValueError):
            online.fit(dictionary, bad, weights, masses, ("t", "y"), 200)

    @pytest.mark.parametrize("layout", ["shuffled", "combo-major"])
    def test_any_row_order_gives_the_same_tables(self, layout):
        # make_training's rows are t-major; a store's are combo-major (t fastest)
        params, _, train, masses = make_training()
        dictionary, _, weights = greedy.run(train, n_max=3)
        ref = online.fit(dictionary, params, weights, masses, ("t", "y"), n_raw=200)
        if layout == "shuffled":
            order = np.random.default_rng(5).permutation(params.shape[0])
        else:
            order = np.lexsort((params[:, 0], params[:, 1]))
        model = online.fit(dictionary, params[order], weights[:, order], masses[order],
                           ("t", "y"), n_raw=200)
        for ax, ref_ax in zip(model.axes, ref.axes):
            np.testing.assert_array_equal(ax, ref_ax)
        np.testing.assert_array_equal(model.weight_table, ref.weight_table)
        np.testing.assert_array_equal(model.mass_table, ref.mass_table)


class TestEvaluateRaw:
    def test_midpoint_is_mean_of_neighbors(self, fitted):
        params, _, _, masses, model = fitted
        lam0, m0 = online.evaluate_raw(model, [0.0, 0.5])
        lam1, m1 = online.evaluate_raw(model, [1.0, 0.5])
        lam_mid, m_mid = online.evaluate_raw(model, [0.5, 0.5])
        np.testing.assert_allclose(lam_mid, 0.5 * (lam0 + lam1), atol=1e-12)
        assert m_mid == pytest.approx(0.5 * (m0 + m1), abs=1e-12)

    def test_affine_combination_sums_to_one(self, fitted):
        *_, model = fitted
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = [rng.uniform(0, 2), rng.uniform(0.5, 1.0)]
            lam, _ = online.evaluate_raw(model, z)
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self, fitted):
        *_, model = fitted
        with pytest.raises(online.OutOfRangeError):
            online.evaluate_raw(model, [5.0, 0.75])
        lam, mass = online.evaluate_raw(model, [5.0, 0.75], clamp=True)
        lam2, mass2 = online.evaluate_raw(model, [2.0, 0.75])
        np.testing.assert_allclose(lam, lam2, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_non_finite_coordinate_rejected(self, fitted, bad, clamp):
        *_, model = fitted
        for z in ([bad, 0.75], [1.0, bad]):
            with pytest.raises(online.OutOfRangeError):
                online.reconstruct(model, z, clamp=clamp)


class TestReconstruct:
    def test_atom_vertex_accuracy(self, fitted):
        params, raws, _, _, model = fitted
        for j, idx in enumerate(model.dictionary.atom_indices):
            rec = online.reconstruct(model, params[idx])
            truth = raws[idx]
            assert online.relative_l1_error(rec, truth) <= 1e-2

    def test_relative_l1_error(self):
        truth = np.array([0.0, 2.0, 2.0])
        assert online.relative_l1_error(np.array([1.0, 2.0, 1.0]), truth) == 0.5
        assert online.relative_l1_error(np.ones(3), np.zeros(3)) == 0.0

    def test_negative_mass_clamps_to_zero_profile(self, fitted):
        *_, model = fitted
        out = online.profile_from_weights(
            model.dictionary.atoms, np.array([0.5, 0.3, 0.2]), -1.0, model.n_raw
        )
        np.testing.assert_array_equal(out, np.zeros(model.n_raw))

    def test_nonnegative_everywhere(self, fitted):
        *_, model = fitted
        rng = np.random.default_rng(23)
        for _ in range(25):
            z = [rng.uniform(0, 2), rng.uniform(0.5, 1.0)]
            assert np.all(online.reconstruct(model, z) >= 0.0)

    def test_mass_preserved(self, fitted):
        *_, model = fitted
        rng = np.random.default_rng(27)
        for _ in range(25):
            z = [rng.uniform(0, 2), rng.uniform(0.5, 1.0)]
            rec = online.reconstruct(model, z)
            _, m_tilde = online.evaluate_raw(model, z)
            dx = (model.x_max - model.x_min) / model.n_raw
            assert rec.sum() * dx == pytest.approx(max(m_tilde, 0.0), rel=1e-8)

    def test_continuity_in_z(self, fitted):
        *_, model = fitted
        base = np.array([0.7, 0.8])
        prev = None
        for h in (0.2, 0.1, 0.05, 0.025):
            a = online.reconstruct(model, base)
            b = online.reconstruct(model, base + [h, 0.0])
            diff = np.abs(a - b).sum()
            if prev is not None:
                assert diff <= prev + 1e-12
            prev = diff

    def test_training_node_matches_offline_weights(self, fitted):
        params, raws, train, masses, model = fitted
        res = sq.solve_batch(model.dictionary.atoms, train)
        for row in (0, 3, 5):
            rec_online = online.reconstruct(model, params[row])
            rec_offline = online.profile_from_weights(
                model.dictionary.atoms, res.weights[:, row], masses[row], model.n_raw
            )
            err_on = np.abs(rec_online - raws[row]).sum()
            err_off = np.abs(rec_offline - raws[row]).sum()
            assert err_on == pytest.approx(err_off, rel=1e-6, abs=1e-12)


class TestBatch:
    """A (P, d) batch equals the one-point calls row by row."""

    @staticmethod
    def assert_rows_match(model, points, clamp):
        lam, mass = online.evaluate_raw(model, points, clamp=clamp)
        profiles = online.reconstruct(model, points, clamp=clamp)
        assert lam.shape == (points.shape[0], model.n_atoms)
        assert mass.shape == (points.shape[0],)
        assert profiles.shape == (points.shape[0], model.n_raw)
        for q, z in enumerate(points):
            lam_q, mass_q = online.evaluate_raw(model, z, clamp=clamp)
            assert isinstance(mass_q, float)
            np.testing.assert_allclose(lam[q], lam_q, rtol=0, atol=1e-12)
            assert mass[q] == pytest.approx(mass_q, rel=0, abs=1e-12)
            np.testing.assert_allclose(
                profiles[q], online.reconstruct(model, z, clamp=clamp), rtol=0, atol=1e-12
            )
        return lam, mass, profiles

    @pytest.mark.parametrize("clamp", [False, True])
    def test_rows_equal_single_points(self, fitted, clamp):
        params, *_, model = fitted
        rng = np.random.default_rng(31)
        # more rows than one block of the profile pipeline, plus every node
        points = np.column_stack([rng.uniform(0, 2, 300), rng.uniform(0.5, 1.0, 300)])
        points = np.vstack([points, params])
        if clamp:
            points[::7] += [3.0, -2.0]
        self.assert_rows_match(model, points, clamp)

    def test_size_one_axis(self):
        params, raws, train, masses = make_training()
        flat = params[:, 1] == 0.5
        dictionary, _, weights = greedy.run(train[:, flat], n_max=2)
        model = online.fit(dictionary, params[flat], weights, masses[flat], ("t", "y"), 200)
        assert model.weight_table.shape == (3, 1, 2)
        points = np.column_stack([np.linspace(0, 2, 9), np.full(9, 0.5)])
        self.assert_rows_match(model, points, clamp=False)
        self.assert_rows_match(model, points + [0.0, 0.25], clamp=True)

    def test_zero_mass_and_face_rows(self, fitted):
        params, *_, model = fitted
        # negative node masses and off-simplex node weights: some rows get a
        # zero profile, others weights projected onto a face of the simplex
        mass_table = model.mass_table.copy()
        mass_table[0, :] = [-0.5, 0.0]
        weight_table = model.weight_table.copy()
        weight_table[2, 1] = [2.0, -0.5, -0.5]
        skewed = replace(model, mass_table=mass_table, weight_table=weight_table)
        points = np.column_stack([np.linspace(0, 2, 41), np.tile([0.5, 0.75, 1.0], 14)[:41]])
        lam, mass, profiles = self.assert_rows_match(skewed, points, clamp=False)
        dead = mass <= 0.0
        assert dead.any() and not dead.all()
        assert np.all(profiles[dead] == 0.0)
        on_face = np.count_nonzero(sq.project_to_simplex(lam.T), axis=0) < model.n_atoms
        assert on_face[~dead].any()
        dx = (model.x_max - model.x_min) / model.n_raw
        np.testing.assert_allclose(profiles[~dead].sum(axis=1) * dx, mass[~dead], rtol=1e-8)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_one_bad_row_rejects_the_batch(self, fitted, clamp):
        *_, model = fitted
        points = np.column_stack([np.linspace(0, 2, 20), np.full(20, 0.75)])
        for row, col, bad in [(0, 0, np.nan), (7, 1, np.inf), (19, 0, -np.inf)]:
            batch = points.copy()
            batch[row, col] = bad
            batch[row + 1:, 1] = np.nan  # later offenders are not the one named
            with pytest.raises(online.OutOfRangeError, match=f"value {bad} is not"):
                online.reconstruct(model, batch, clamp=clamp)
        batch = points.copy()
        batch[12, 0] = 5.0
        batch[15, 1] = 9.0
        if clamp:
            self.assert_rows_match(model, batch, clamp=True)
        else:
            with pytest.raises(online.OutOfRangeError, match="value 5.0 outside"):
                online.evaluate_raw(model, batch)

    def test_profiles_from_weight_columns(self, fitted):
        params, raws, train, masses, model = fitted
        res = sq.solve_batch(model.dictionary.atoms, train)
        got = online.profile_from_weights(model.dictionary.atoms, res.weights, masses, model.n_raw)
        assert got.shape == (params.shape[0], model.n_raw)
        for k in range(params.shape[0]):
            one = online.profile_from_weights(
                model.dictionary.atoms, res.weights[:, k], masses[k], model.n_raw
            )
            np.testing.assert_allclose(got[k], one, rtol=0, atol=1e-12)
        errors = online.relative_l1_error(got, np.array(raws))
        assert errors.shape == (params.shape[0],)
        for k in range(params.shape[0]):
            assert errors[k] == online.relative_l1_error(got[k], raws[k])
        truth = np.array(raws)
        truth[1] = 0.0
        assert online.relative_l1_error(got, truth)[1] == 0.0
