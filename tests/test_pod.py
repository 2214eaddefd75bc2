import numpy as np
import pytest

from baryrom import pod


def rank2_snapshots(rng, n=120, k=15):
    b1 = np.sin(np.linspace(0, 3, n))
    b2 = np.cos(np.linspace(0, 2, n))
    return np.outer(b1, rng.uniform(0.5, 2.0, k)) + np.outer(b2, rng.uniform(-1, 1, k))


class TestCompute:
    def test_single_snapshot(self):
        s = np.abs(np.sin(np.linspace(0, 4, 50))) + 0.1
        basis = pod.compute(s[:, None])
        assert basis.rank == 1
        np.testing.assert_allclose(np.abs(basis.modes[:, 0]), s / np.linalg.norm(s), atol=1e-12)

    def test_rank2_set(self):
        basis = pod.compute(rank2_snapshots(np.random.default_rng(0)))
        assert basis.rank == 2

    def test_orthonormal_modes(self):
        rng = np.random.default_rng(1)
        snaps = rng.random((80, 30))
        basis = pod.compute(snaps)
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(basis.rank)).max() < 1e-10

    def test_singular_values_sorted(self):
        basis = pod.compute(np.random.default_rng(2).random((60, 20)))
        assert np.all(np.diff(basis.singular_values) <= 0)

    def test_gram_route_matches_direct_svd(self):
        rng = np.random.default_rng(3)
        snaps = rng.random((100, 40))
        basis = pod.compute(snaps)
        sv = np.linalg.svd(snaps, compute_uv=False)
        np.testing.assert_allclose(
            basis.singular_values, sv[: basis.rank], rtol=1e-8, atol=1e-8 * sv[0]
        )

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(4)
        snaps = rng.random((50, 12))
        basis = pod.compute(snaps)
        for k in range(12):
            rec = pod.reconstruct(basis, snaps[:, k], basis.rank)
            rel = np.abs(rec - snaps[:, k]).sum() / np.abs(snaps[:, k]).sum()
            assert rel < 1e-8

    def test_empty_error(self):
        with pytest.raises(ValueError):
            pod.compute(np.zeros((10, 0)))


class TestReconstruct:
    def test_projection_of_orthogonal_snapshot_is_zero(self):
        basis = pod.compute(np.eye(10)[:, :3])
        s = np.zeros(10)
        s[7] = 1.0
        np.testing.assert_allclose(pod.reconstruct(basis, s, 3), np.zeros(10), atol=1e-12)

    def test_mode_count_range(self):
        basis = pod.compute(np.random.default_rng(5).random((20, 4)))
        with pytest.raises(ValueError):
            pod.reconstruct(basis, np.zeros(20), 0)
        with pytest.raises(ValueError):
            pod.reconstruct(basis, np.zeros(20), basis.rank + 1)

    def test_error_nonincreasing_in_n(self):
        rng = np.random.default_rng(6)
        snaps = rng.random((70, 25))
        basis = pod.compute(snaps)
        for k in range(0, 25, 5):
            s = snaps[:, k]
            errs = [
                np.linalg.norm(s - pod.reconstruct(basis, s, n))
                for n in range(1, basis.rank + 1)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_parseval(self):
        rng = np.random.default_rng(7)
        snaps = rng.random((40, 10))
        basis = pod.compute(snaps)
        s = snaps[:, 3]
        coeffs = basis.modes.T @ s
        assert np.sum(coeffs**2) <= np.sum(s**2) + 1e-10
        assert np.sum(coeffs**2) == pytest.approx(np.sum(s**2), abs=1e-10)


def l1_error_loop(basis, snaps):
    """The error curve one rank and one snapshot at a time, through
    `pod.reconstruct`."""
    out = np.empty((basis.rank, snaps.shape[1]))
    for k in range(snaps.shape[1]):
        s = snaps[:, k]
        norm = np.abs(s).sum() or 1.0
        for n in range(1, basis.rank + 1):
            out[n - 1, k] = np.abs(s - pod.reconstruct(basis, s, n)).sum() / norm
    return out


class TestRelativeL1Errors:
    @pytest.mark.parametrize("count", [2 * pod.ERROR_BLOCK + 5, pod.ERROR_BLOCK - 25])
    @pytest.mark.parametrize("zero_column", [False, True])
    @pytest.mark.parametrize("transposed_view", [False, True])
    def test_equals_reconstruction_loop(self, count, zero_column, transposed_view):
        rng = np.random.default_rng(12)
        cells = np.linspace(0.0, 1.0, 90)
        # smooth, positive snapshots of slowly decaying rank, like saturations
        values = np.array(
            [np.clip(1.0 - cells / rng.uniform(0.2, 1.2), 0.0, None) ** rng.uniform(1, 3)
             for _ in range(count)]
        )
        if zero_column:
            values[count // 2] = 0.0
        # the CLI passes the (N, K) view of the store's (K, N) array
        snaps = values.T if transposed_view else np.ascontiguousarray(values.T)
        before = snaps.copy()
        basis = pod.compute(snaps)
        errors = pod.relative_l1_errors(basis, snaps)
        assert errors.shape == (basis.rank, count)
        np.testing.assert_allclose(errors, l1_error_loop(basis, snaps), rtol=0, atol=1e-13)
        assert np.array_equal(snaps, before)
        if zero_column:
            assert np.all(errors[:, count // 2] == 0.0)


def mode_count(basis, snaps, eps):
    return pod.size_for_tolerance(pod.relative_l1_errors(basis, snaps).mean(axis=1), eps)


class TestModesForTolerance:
    def test_rank2_needs_two(self):
        snaps = rank2_snapshots(np.random.default_rng(8))
        basis = pod.compute(snaps)
        assert mode_count(basis, snaps, 1e-6) == 2

    def test_loose_tolerance_single_mode(self):
        rng = np.random.default_rng(9)
        base = np.abs(np.sin(np.linspace(0, 3, 60))) + 0.5
        snaps = np.outer(base, rng.uniform(0.9, 1.1, 8))
        basis = pod.compute(snaps)
        assert mode_count(basis, snaps, 1.0) == 1

    def test_unreachable_returns_none(self):
        # a component below the retention cutoff cannot be reconstructed, so
        # the tolerance stays out of reach even with the full basis
        rng = np.random.default_rng(10)
        snaps = rank2_snapshots(rng, n=30, k=5)
        snaps += 1e-9 * np.outer(np.linspace(-1, 1, 30) ** 3, rng.uniform(1, 2, 5))
        basis = pod.compute(snaps)
        assert basis.rank == 2
        assert mode_count(basis, snaps, 1e-12) is None

    def test_matches_error_curve(self):
        rng = np.random.default_rng(11)
        snaps = rng.random((50, 12))
        basis = pod.compute(snaps)
        errs = pod.relative_l1_errors(basis, snaps).mean(axis=1)
        eps = float(errs[4] + 1e-9)
        n = mode_count(basis, snaps, eps)
        assert errs[n - 1] < eps
        assert n == 1 or errs[n - 2] >= eps

    def test_dictionary_sizes_and_bad_eps(self):
        sizes = [2, 3, 5, 8]
        errs = np.array([0.3, 0.1, 0.04, 0.01])
        assert pod.size_for_tolerance(errs, 0.05, sizes) == 5
        assert pod.size_for_tolerance(errs, 0.01, sizes) is None
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                pod.size_for_tolerance(errs, eps, sizes)
