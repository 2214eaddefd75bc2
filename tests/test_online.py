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
    dictionary, _, weights = greedy.run(train, params, n_max=3)
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
        d = greedy.make_dictionary(np.hstack([train, train + 1e-9]), np.vstack([params[0], params[0] + 1]), [0])
        # simplest constant model: one atom, one node
        model = online.fit(
            greedy.Dictionary(train, params, np.array([0]), train.T @ train),
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
        dictionary, _, weights = greedy.run(train, params, n_max=2)
        with pytest.raises(online.NotOnTensorGridError) as err:
            online.fit(
                dictionary, params[:-1], weights[:, :-1], masses[:-1], ("t", "y"), 200
            )
        assert "missing" in str(err.value)

    def test_duplicate_node_rejected(self):
        params, raws, train, masses = make_training()
        dictionary, _, weights = greedy.run(train, params, n_max=2)
        bad = params.copy()
        bad[1] = bad[0]
        with pytest.raises(online.NotOnTensorGridError):
            online.fit(dictionary, bad, weights, masses, ("t", "y"), 200)


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
