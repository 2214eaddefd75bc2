import numpy as np
import pytest

from baryrom import transport as tr


def uniform_block(n, upto, height):
    cells = (np.arange(n) + 0.5) / n
    return np.where(cells <= upto, height, 0.0)


class TestAugmentNormalize:
    def test_augment_zero_profile(self):
        out = tr.augment(np.zeros(5))
        assert out.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_augment_adds_unit_mass(self):
        raw = np.array([0.5, 0.25, 1.0])
        assert tr.augment(raw).sum() == pytest.approx(raw.sum() + 1.0)

    def test_augment_rejects_negative(self):
        with pytest.raises(ValueError):
            tr.augment(np.array([0.1, -0.2]))

    def test_normalize_unit_sum(self):
        dens = tr.normalize(tr.augment(np.linspace(0, 1, 50)))
        assert dens.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalize_scale_invariant(self):
        aug = tr.augment(np.linspace(0, 1, 20))
        a = tr.normalize(aug)
        np.testing.assert_array_equal(a, tr.normalize(8.0 * aug))
        np.testing.assert_allclose(a, tr.normalize(7.0 * aug), rtol=5e-16)

    def test_normalize_indicator(self):
        dens = tr.normalize(np.array([0.0, 1.0, 0.0, 0.0]))
        assert dens.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_normalize_zero_mass_error(self):
        with pytest.raises(ValueError):
            tr.normalize(np.zeros(4))


class TestCdfIcdf:
    def test_cdf_indicator_step(self):
        c = tr.cdf(np.array([0.0, 1.0, 0.0, 0.0]))
        assert c.tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_cdf_uniform_ramp(self):
        u = np.full(8, 1.0 / 8)
        np.testing.assert_allclose(tr.cdf(u), np.arange(1, 9) / 8, atol=1e-15)

    def test_cdf_endpoint(self):
        dens = tr.normalize(tr.augment(np.random.default_rng(3).random(100)))
        assert tr.cdf(dens)[-1] == pytest.approx(1.0, abs=1e-12)

    def test_icdf_uniform_identity(self):
        n = 200
        dens = tr.normalize(tr.augment(np.ones(n)))
        ic = tr.icdf(tr.cdf(dens), n + 2)
        p = np.linspace(0, 1, n + 2)
        assert np.max(np.abs(ic - p)) <= 2.0 / (n + 1)

    def test_icdf_indicator_is_constant(self):
        n = 102
        u = np.zeros(n)
        u[41] = 1.0
        ic = tr.icdf(tr.cdf(u), n)
        x = np.linspace(0, 1, n)
        # p = 0 maps to x_min (flat-segment rule); all positive p to x_41
        assert ic[0] == 0.0
        assert np.all(np.abs(ic[1:] - x[41]) <= 1.0 / (n - 1) + 1e-12)

    def test_icdf_left_block_scales_p(self):
        # density 10 on [0, 0.1]: icdf(p) = 0.1 p
        n = 1002
        dens = tr.normalize(tr.augment(uniform_block(n, 0.1, 10.0)))
        ic = tr.icdf(tr.cdf(dens), n + 2)
        p = np.linspace(0, 1, n + 2)
        assert np.max(np.abs(ic - 0.1 * p)) < 5e-3

    def test_icdf_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dens = tr.normalize(tr.augment(rng.random(57)))
            ic = tr.icdf(tr.cdf(dens), 80)
            assert np.all(np.diff(ic) >= 0.0)

    def test_icdf_flat_segment_left_limit(self):
        # mass only at nodes 2 and 5 (0-based): flat cdf in between
        u = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0])
        x = np.linspace(0, 1, 7)
        ic = tr.icdf(tr.cdf(u), 11)
        # p = 0.5 falls exactly on the flat run; the generalized inverse is
        # the left endpoint of the jump interval that reaches 0.5
        j = 5  # p grid node where p = 0.5
        assert ic[j] <= x[1] + 1e-12

    def test_icdf_requires_two_nodes(self):
        with pytest.raises(ValueError):
            tr.icdf(np.array([0.0, 1.0]), 1)


class TestInversion:
    def test_invert_uniform_ramp(self):
        n = 150
        dens = tr.normalize(tr.augment(np.ones(n)))
        c = tr.cdf(dens)
        ic = tr.icdf(c, n + 2)
        iic = tr.invert_icdf(ic, n + 2)
        np.testing.assert_allclose(iic, c, atol=1e-10)

    def test_invert_monotone_output(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dens = tr.normalize(tr.augment(rng.random(64)))
            ic = tr.icdf(tr.cdf(dens), 66)
            iic = tr.invert_icdf(ic, 66)
            assert np.all(np.diff(iic) >= 0.0)
            assert iic[0] >= 0.0 and iic[-1] <= 1.0

    def test_pdf_from_cdf_linear_ramp(self):
        c = np.arange(1, 9) / 8
        u = tr.pdf_from_cdf(c)
        np.testing.assert_allclose(u, np.full(8, 1.0 / 8), atol=1e-15)

    def test_pdf_from_cdf_step(self):
        c = np.array([0.0, 0.0, 1.0, 1.0])
        assert tr.pdf_from_cdf(c).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_pdf_sums_to_one(self):
        rng = np.random.default_rng(7)
        dens = tr.normalize(tr.augment(rng.random(200)))
        ic = tr.icdf(tr.cdf(dens), 202)
        u2 = tr.pdf_from_cdf(tr.invert_icdf(ic, 202))
        assert u2.sum() == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_density_close(self):
        rng = np.random.default_rng(13)
        raw = np.clip(np.cumsum(rng.standard_normal(300)) + 10.0, 0.0, None)
        dens = tr.normalize(tr.augment(raw))
        c = tr.cdf(dens)
        ic = tr.icdf(c, 302)
        u2 = tr.pdf_from_cdf(tr.invert_icdf(ic, 302))
        assert np.sqrt(np.mean((u2 - dens) ** 2)) < 1e-3



class TestSnapshotPipeline:
    def test_icdf_grid_adds_the_two_cells(self):
        raw = np.random.default_rng(17).random(30)
        ic = tr.snapshot_to_icdf(raw)
        assert ic.shape == (32,)
        np.testing.assert_array_equal(ic, tr.snapshot_to_icdf(raw, 32))
        with pytest.raises(ValueError):
            tr.snapshot_to_icdf(raw, 64)

    def test_training_matrix_columns(self):
        values = np.random.default_rng(19).random((5, 30))
        train = tr.snapshots_to_icdfs(values, 0.0, 2.0)
        assert train.shape == (32, 5)
        for k in range(5):
            np.testing.assert_array_equal(
                train[:, k], tr.snapshot_to_icdf(values[k], x_min=0.0, x_max=2.0)
            )

    def test_density_strips_the_two_cells(self):
        rng = np.random.default_rng(21)
        raw = np.clip(np.cumsum(rng.standard_normal(300)) + 10.0, 0.0, None)
        body = tr.icdf_to_density(tr.snapshot_to_icdf(raw), raw.size)
        assert body.shape == raw.shape
        want = tr.normalize(tr.augment(raw))[2:]
        assert np.sqrt(np.mean((body - want) ** 2)) < 1e-3


class TestW2:
    def test_identity_zero(self):
        ic = tr.snapshot_to_icdf(np.linspace(0, 1, 100))
        assert tr.w2_distance(ic, ic) == 0.0

    def test_paper_block_distances(self):
        n = 1002
        s1 = uniform_block(n, 0.1, 10.0)
        s2 = uniform_block(n, 0.5, 2.0)
        s3 = np.ones(n)
        i1, i2, i3 = (tr.snapshot_to_icdf(s) for s in (s1, s2, s3))
        assert tr.w2_distance(i1, i2) == pytest.approx(0.23, abs=0.01)
        assert tr.w2_distance(i2, i3) == pytest.approx(0.29, abs=0.01)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tr.w2_distance(np.zeros(4), np.zeros(5))

    def test_metric_axioms_random_triples(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b, c = (
                tr.snapshot_to_icdf(rng.random(40) + 0.01) for _ in range(3)
            )
            dab = tr.w2_distance(a, b)
            dba = tr.w2_distance(b, a)
            assert abs(dab - dba) <= 1e-12
            assert dab <= tr.w2_distance(a, c) + tr.w2_distance(c, b) + 1e-12
            assert dab >= 0.0


class TestBarycenter:
    def test_vertex_identity(self):
        atoms = np.stack(
            [tr.snapshot_to_icdf(np.linspace(0, 1, 60) ** k) for k in (1, 2, 3)],
            axis=1,
        )
        for i in range(3):
            w = np.zeros(3)
            w[i] = 1.0
            np.testing.assert_array_equal(tr.barycenter(atoms, w), atoms[:, i])

    def test_translation_midpoint(self):
        # two translated copies of one profile: the 50/50 barycenter icdf is
        # the mid-translation icdf
        n = 400
        cells = (np.arange(n) + 0.5) / n
        hump = lambda c: np.exp(-((cells - c) ** 2) / 2e-4)
        coarse = lambda c: tr.icdf(tr.cdf(tr.normalize(tr.augment(hump(c)))), 64)
        a, b, mid = coarse(0.3), coarse(0.5), coarse(0.4)
        bar = tr.barycenter(np.stack([a, b], axis=1), np.array([0.5, 0.5]))
        assert tr.w2_distance(bar, mid) < 2e-3

    def test_monotone_for_simplex_weights(self):
        rng = np.random.default_rng(31)
        atoms = np.stack([tr.snapshot_to_icdf(rng.random(50)) for _ in range(4)], axis=1)
        for _ in range(25):
            w = rng.random(4)
            w /= w.sum()
            assert np.all(np.diff(tr.barycenter(atoms, w)) >= -1e-15)

    def test_convexity_bound(self):
        rng = np.random.default_rng(37)
        atoms = np.stack([tr.snapshot_to_icdf(rng.random(30)) for _ in range(3)], axis=1)
        w = np.array([0.2, 0.5, 0.3])
        bar = tr.barycenter(atoms, w)
        for i in range(3):
            bound = sum(
                w[j] * tr.w2_distance(atoms[:, j], atoms[:, i]) for j in range(3)
            )
            assert tr.w2_distance(bar, atoms[:, i]) <= bound + 1e-12

    def test_mismatch_error(self):
        with pytest.raises(ValueError):
            tr.barycenter(np.zeros((10, 2)), np.array([1.0, 0.0, 0.0]))
