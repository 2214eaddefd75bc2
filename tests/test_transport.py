import numpy as np
import pytest

from baryrom import transport as tr

UNIT = {"x_min": 0.0, "x_max": 1.0}


def _snapshot_icdf_reference(raw, x_min, x_max):
    """The icdf of one raw snapshot, written out for one row: the two
    boundary cells, unit sum, running sum, then searchsorted and linear
    interpolation on M = N + 2 probability nodes."""
    aug = np.concatenate([[0.0, 1.0], raw])
    c = np.cumsum(aug / aug.sum())
    x = np.linspace(x_min, x_max, c.size)
    p = np.minimum(np.linspace(0.0, 1.0, c.size), c[-1])
    i = np.clip(np.searchsorted(c, p, side="left"), 1, c.size - 1)
    denom = c[i] - c[i - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = (p - c[i - 1]) / denom
    frac = np.where(denom > 0.0, frac, 0.0)
    return x[i - 1] + (x[i] - x[i - 1]) * np.clip(frac, 0.0, 1.0)


def _invert_icdf_reference(ic, x_min, x_max):
    """The cdf of one icdf on as many spatial nodes, written out for one
    row: searchsorted(left) for the first icdf node at or past each spatial
    node, a gather of the two bracketing nodes and linear interpolation
    between their probabilities; 0 before the first icdf value and 1 past
    the last."""
    p = np.linspace(0.0, 1.0, ic.size)
    x = np.linspace(x_min, x_max, ic.size)
    i = np.clip(np.searchsorted(ic, x, side="left"), 1, ic.size - 1)
    frac = np.clip((x - ic[i - 1]) / (ic[i] - ic[i - 1]), 0.0, 1.0)
    out = p[i - 1] + (p[i] - p[i - 1]) * frac
    out[x > ic[-1]] = 1.0
    return out


def front(n, at, width):
    """A smoothed saturation front: near 1 behind x = at, 0 well past it."""
    cells = (np.arange(n) + 0.5) / n
    return 0.5 * (1.0 - np.tanh((cells - at) / width))


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
        ic = tr.icdf(tr.cdf(dens), **UNIT)
        p = np.linspace(0, 1, n + 2)
        assert np.max(np.abs(ic - p)) <= 2.0 / (n + 1)

    def test_icdf_indicator_is_constant(self):
        n = 102
        u = np.zeros(n)
        u[41] = 1.0
        ic = tr.icdf(tr.cdf(u), **UNIT)
        x = np.linspace(0, 1, n)
        # p = 0 maps to x_min (flat-segment rule); all positive p to x_41
        assert ic[0] == 0.0
        assert np.all(np.abs(ic[1:] - x[41]) <= 1.0 / (n - 1) + 1e-12)

    def test_icdf_left_block_scales_p(self):
        # density 10 on [0, 0.1]: icdf(p) = 0.1 p
        n = 1002
        dens = tr.normalize(tr.augment(uniform_block(n, 0.1, 10.0)))
        ic = tr.icdf(tr.cdf(dens), **UNIT)
        p = np.linspace(0, 1, n + 2)
        assert np.max(np.abs(ic - 0.1 * p)) < 5e-3

    def test_icdf_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dens = tr.normalize(tr.augment(rng.random(57)))
            ic = tr.icdf(tr.cdf(dens), **UNIT)
            assert np.all(np.diff(ic) >= 0.0)

    def test_icdf_flat_segment_left_limit(self):
        # mass only at nodes 2 and 5 (0-based): flat cdf in between
        u = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0])
        x = np.linspace(0, 1, 7)
        ic = tr.icdf(tr.cdf(u), **UNIT)
        # p = 0.5 falls exactly on the flat run; the generalized inverse is
        # the left endpoint of the jump interval that reaches 0.5
        j = 3  # p grid node where p = 0.5
        assert ic[j] <= x[1] + 1e-12

    @pytest.mark.parametrize("b", [1, 31, 32, 33])
    def test_stack_rows_equal_one_row_calls(self, b):
        rng = np.random.default_rng(b)
        raw = rng.random((b, 45))
        raw[0, 10:30] = 0.0  # a flat stretch of the cdf
        raw[-1, 20:] = 0.0  # support ends mid-domain
        c = tr.cdf(tr.normalize(tr.augment(raw)))
        ic = tr.icdf(c, x_min=0.0, x_max=2.0)
        back = tr.invert_icdf(ic, x_min=0.0, x_max=2.0)
        assert ic.shape == back.shape == (b, 47)
        for k in range(b):
            np.testing.assert_array_equal(ic[k], tr.icdf(c[k], x_min=0.0, x_max=2.0))
            np.testing.assert_array_equal(back[k], tr.invert_icdf(ic[k], x_min=0.0, x_max=2.0))

    def test_grid_range_is_keyword_only(self):
        c = tr.cdf(np.full(4, 0.25))
        with pytest.raises(TypeError):
            tr.icdf(c, 4)
        with pytest.raises(TypeError):
            tr.invert_icdf(c, 4)
        with pytest.raises(TypeError):
            tr.icdf_to_density(c, 2)


class TestInversion:
    def test_invert_uniform_ramp(self):
        n = 150
        dens = tr.normalize(tr.augment(np.ones(n)))
        c = tr.cdf(dens)
        ic = tr.icdf(c, **UNIT)
        iic = tr.invert_icdf(ic, **UNIT)
        np.testing.assert_allclose(iic, c, atol=1e-10)

    def test_invert_monotone_output(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dens = tr.normalize(tr.augment(rng.random(64)))
            ic = tr.icdf(tr.cdf(dens), **UNIT)
            iic = tr.invert_icdf(ic, **UNIT)
            assert np.all(np.diff(iic) >= 0.0)
            assert iic[0] >= 0.0 and iic[-1] <= 1.0

    def test_matches_the_per_row_oracle(self):
        rng = np.random.default_rng(41)
        n = 120
        values = np.vstack([
            rng.random((6, n)),
            [front(n, at, width) for at, width in ((0.2, 0.01), (0.5, 0.05), (0.9, 1e-3))],
            uniform_block(n, 0.3, 1.0),  # the support ends mid-domain
        ])
        ic = tr.snapshots_to_icdfs(values, 0.0, 2.0)
        assert np.all(np.diff(ic, axis=0) > 0.0)  # strictly increasing, as in the pipeline
        got = tr.invert_icdf(ic.T, x_min=0.0, x_max=2.0)
        for k in range(ic.shape[1]):
            want = _invert_icdf_reference(ic[:, k], 0.0, 2.0)
            np.testing.assert_array_max_ulp(got[k], want, maxulp=4)

    def test_nodes_outside_the_icdf_range(self):
        x = np.linspace(0.0, 1.0, 6)
        ic = np.linspace(0.25, 0.8, 6)
        ic[-1] = x[4]  # the last icdf value sits on a spatial node
        c = tr.invert_icdf(ic, **UNIT)
        assert c[:2].tolist() == [0.0, 0.0]  # before the first icdf value
        assert c[4:].tolist() == [1.0, 1.0]  # at and past the last one
        assert np.all((c[2:4] > 0.0) & (c[2:4] < 1.0))

    def test_repeated_value_gives_the_upper_probability(self):
        x = np.linspace(0.0, 1.0, 6)
        ic = np.array([0.0, 0.2, x[2], x[2], 0.8, 1.0])
        p = np.linspace(0.0, 1.0, ic.size)
        c = tr.invert_icdf(ic, **UNIT)
        assert c[2] == p[3]  # right-continuous: the upper of p = 0.4 and 0.6
        assert _invert_icdf_reference(ic, 0.0, 1.0)[2] == p[2]
        assert np.all(np.diff(c) >= 0.0)
        assert c[0] == 0.0 and c[-1] == 1.0

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
        ic = tr.icdf(tr.cdf(dens), **UNIT)
        u2 = tr.pdf_from_cdf(tr.invert_icdf(ic, **UNIT))
        assert u2.sum() == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_density_close(self):
        rng = np.random.default_rng(13)
        raw = np.clip(np.cumsum(rng.standard_normal(300)) + 10.0, 0.0, None)
        dens = tr.normalize(tr.augment(raw))
        c = tr.cdf(dens)
        ic = tr.icdf(c, **UNIT)
        u2 = tr.pdf_from_cdf(tr.invert_icdf(ic, **UNIT))
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

    @pytest.mark.parametrize("k_count", [1, 31, 32, 33, 70])
    def test_batched_transform_is_the_per_row_chain(self, k_count):
        # blocks of 32 snapshots: a partial block, one full block, and runs
        # over one and two block edges
        rng = np.random.default_rng(k_count)
        values = rng.random((k_count, 45))
        values[0, 10:30] = 0.0  # a flat stretch of the cdf
        values[-1, 20:] = 0.0  # support ends mid-domain
        got = tr.snapshots_to_icdfs(values, 0.0, 2.0)
        assert got.shape == (47, k_count)
        assert got.flags.c_contiguous
        for k in range(k_count):
            # the same brackets as the oracle, rounded by another formula
            want = _snapshot_icdf_reference(values[k], 0.0, 2.0)
            np.testing.assert_allclose(got[:, k], want, rtol=0, atol=np.spacing(2.0))
            c = tr.cdf(tr.normalize(tr.augment(values[k])))
            np.testing.assert_array_equal(got[:, k], tr.icdf(c, x_min=0.0, x_max=2.0))

    def test_batched_transform_rejects_bad_input(self):
        values = np.random.default_rng(29).random((40, 12))
        values[35, 3] = -1e-9
        with pytest.raises(ValueError, match="negative"):
            tr.snapshots_to_icdfs(values)
        with pytest.raises(ValueError, match="negative"):
            tr.snapshot_to_icdf(values[35])
        with pytest.raises(ValueError):
            tr.snapshots_to_icdfs(values[0])
        with pytest.raises(ValueError):
            tr.snapshot_to_icdf(np.abs(values[:2]))

    def test_columns_equal_column_loop(self):
        rng = np.random.default_rng(23)
        values = rng.random((9, 40))
        values[2, :20] = 0.0  # a flat stretch of the cdf
        ic = tr.snapshots_to_icdfs(values)
        ic[:, 5] = np.linspace(0.0, 0.5, ic.shape[0])  # support ends mid-domain
        got = tr.invert_icdf(ic.T, **UNIT)
        assert got.shape == (ic.shape[1], ic.shape[0])
        want = np.stack([tr.invert_icdf(ic[:, k], **UNIT) for k in range(ic.shape[1])])
        np.testing.assert_array_equal(got, want)
        dens = tr.icdf_to_density(ic, **UNIT)
        assert dens.shape == (40, 9)
        want = np.column_stack([tr.icdf_to_density(ic[:, k], **UNIT) for k in range(9)])
        np.testing.assert_array_equal(dens, want)

    def test_density_strips_the_two_cells(self):
        rng = np.random.default_rng(21)
        raw = np.clip(np.cumsum(rng.standard_normal(300)) + 10.0, 0.0, None)
        body = tr.icdf_to_density(tr.snapshot_to_icdf(raw), **UNIT)
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
        icdf_of = lambda c: tr.icdf(tr.cdf(tr.normalize(tr.augment(hump(c)))), **UNIT)
        a, b, mid = icdf_of(0.3), icdf_of(0.5), icdf_of(0.4)
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
