import numpy as np
import pytest

from baryrom import greedy, simplexqp
from baryrom import transport as tr

from oracles import simplex_ls_active_set


def block_icdf(width, m=60):
    cells = (np.arange(m - 2) + 0.5) / (m - 2)
    return tr.snapshot_to_icdf(np.where(cells <= width, 1.0, 0.0))


def block_family(widths, m=60):
    return np.stack([block_icdf(w, m) for w in widths], axis=1)


class TestInitPair:
    def test_two_snapshots(self):
        train = block_family([0.2, 0.7])
        assert greedy.init_pair(train) == (0, 1)

    def test_collinear_picks_endpoints(self):
        base = block_icdf(0.3)
        step = block_icdf(0.9) - base
        train = np.stack([base, base + 0.5 * step, base + step], axis=1)
        assert greedy.init_pair(train) == (0, 2)

    def test_matches_pairwise_scan(self):
        rng = np.random.default_rng(3)
        train = np.stack(
            [tr.snapshot_to_icdf(rng.random(38) + 0.01) for _ in range(12)], axis=1
        )
        i, j = greedy.init_pair(train)
        best = max(
            ((a, b) for a in range(12) for b in range(a + 1, 12)),
            key=lambda ab: tr.w2_distance(train[:, ab[0]], train[:, ab[1]]),
        )
        assert (i, j) == best

    def test_too_few(self):
        with pytest.raises(ValueError):
            greedy.init_pair(np.zeros((10, 1)))


class TestGreedyStep:
    def test_train_equals_atoms_small_delta(self):
        train = block_family([0.2, 0.5, 0.9])
        d = greedy.make_dictionary(train, [0, 1, 2])
        step = greedy.greedy_step(d, train)
        assert step.delta <= 1e-8

    def test_far_snapshot_selected(self):
        train = block_family([0.2, 0.25, 0.3, 0.9])
        d = greedy.make_dictionary(train, [0, 1])
        step = greedy.greedy_step(d, train)
        assert step.next_index == 3

    def test_never_reselects_atoms(self):
        train = block_family([0.2, 0.5, 0.9])
        d = greedy.make_dictionary(train, [0, 2])
        step = greedy.greedy_step(d, train)
        assert step.next_index == 1

    def test_against_active_set_oracle(self):
        rng = np.random.default_rng(7)
        widths = np.sort(rng.uniform(0.05, 0.95, 7))
        train = block_family(widths.tolist())
        d = greedy.make_dictionary(train, [0, 6, 3])
        step = greedy.greedy_step(d, train)
        for k in range(train.shape[1]):
            _, f_star = simplex_ls_active_set(d.atoms, train[:, k])
            assert step.errors[k] ** 2 <= f_star + 1e-8


class TestCayleyMenger:
    def test_pair_is_distance(self):
        train = block_family([0.2, 0.8])
        d = tr.w2_distance(train[:, 0], train[:, 1])
        assert greedy.cayley_menger_volume(train) == pytest.approx(d, rel=1e-10)

    def test_regular_triangle_unit(self):
        # three points with unit pairwise distances, embedded as constant icdfs
        a = np.zeros(12)
        b = np.full(12, 1.0)
        c = np.full(12, 0.5)
        c[:6] = 0.5 - np.sqrt(3) / 2
        c[6:] = 0.5 + np.sqrt(3) / 2
        atoms = np.stack([a, b, c], axis=1)
        assert greedy.cayley_menger_volume(atoms) == pytest.approx(1.0, rel=1e-10)

    def test_collinear_zero(self):
        base = block_icdf(0.3)
        step = block_icdf(0.9) - base
        atoms = np.stack([base, base + 0.25 * step, base + step], axis=1)
        assert greedy.cayley_menger_volume(atoms) == pytest.approx(0.0, abs=1e-8)

    def test_right_triangle(self):
        # legs 1: area 0.5, unit-edge regular triangle area sqrt(3)/4
        m = 16
        a = np.zeros(m)
        b = np.full(m, 1.0)
        c = np.zeros(m)
        c[: m // 2] = -1.0
        c[m // 2 :] = 1.0
        atoms = np.stack([a, b, c], axis=1)
        want = 0.5 / (np.sqrt(3) / 4)
        assert greedy.cayley_menger_volume(atoms) == pytest.approx(want, rel=1e-9)


class TestRun:
    def test_huge_eps_abs_stops_at_two(self):
        train = block_family([0.1, 0.4, 0.7, 0.95])
        d, report, weights = greedy.run(train, eps_abs=10.0, n_max=4)
        assert d.size == 2
        assert report.termination == greedy.TERM_ABSOLUTE
        assert weights.shape == (2, 4)

    def test_n_max_two(self):
        train = block_family([0.1, 0.4, 0.7])
        d, report, _ = greedy.run(train, n_max=2)
        assert d.size == 2
        assert report.termination == greedy.TERM_MAX_ATOMS

    def test_relative_criterion(self):
        train = block_family([0.1, 0.12, 0.14, 0.9])
        d, report, _ = greedy.run(train, eps_rel=0.999, n_max=4)
        assert report.termination == greedy.TERM_RELATIVE
        assert d.size < 4

    def test_exact_oracle_monotone_delta(self):
        rng = np.random.default_rng(11)
        widths = np.sort(rng.uniform(0.05, 0.95, 8))
        train = block_family(widths.tolist())
        _, report, _ = greedy.run(train, n_max=6)
        deltas = report.delta
        assert all(b <= a + 1e-9 for a, b in zip(deltas, deltas[1:]))

    def test_delta_monotone_with_exhaustive_solver(self):
        # greedy driven by the brute-force active-set solver: adding an atom
        # can never increase the worst-case error
        rng = np.random.default_rng(17)
        widths = np.sort(rng.uniform(0.05, 0.95, 6))
        train = block_family(widths.tolist())
        i0, j0 = greedy.init_pair(train)
        selected = [i0, j0]
        deltas = []
        while len(selected) < 4:
            atoms = train[:, selected]
            errs = np.array(
                [simplex_ls_active_set(atoms, train[:, k])[1] for k in range(6)]
            )
            deltas.append(float(np.sqrt(errs.max())))
            masked = errs.copy()
            masked[selected] = -np.inf
            selected.append(int(np.argmax(masked)))
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_atoms_are_training_members_no_duplicates(self):
        rng = np.random.default_rng(13)
        widths = np.sort(rng.uniform(0.05, 0.95, 9))
        train = block_family(widths.tolist())
        d, report, _ = greedy.run(train, n_max=5)
        assert len(set(d.atom_indices.tolist())) == d.size
        for j, idx in enumerate(d.atom_indices):
            np.testing.assert_array_equal(d.atoms[:, j], train[:, idx])
        assert len(report.n) == len(report.delta) == len(report.condition)
        assert len(report.volume) == len(report.n)

    def test_callback_called_per_iteration(self):
        train = block_family([0.1, 0.3, 0.5, 0.7, 0.9])
        seen = []
        greedy.run(train, n_max=4, on_iteration=lambda n, i, step: seen.append(n))
        assert seen == [2, 3, 4]

    def test_exhausted_training_set(self):
        # n_max beyond the training size stops once every point is an atom
        train = block_family([0.1, 0.5, 0.9])
        d, report, _ = greedy.run(train, n_max=10)
        assert d.size == 3
        assert report.termination == greedy.TERM_EXHAUSTED

    def test_two_snapshot_store_degenerate(self):
        train = block_family([0.3, 0.8])
        d, report, _ = greedy.run(train, n_max=5)
        assert d.size == 2
        assert sorted(d.atom_indices.tolist()) == [0, 1]
        assert len(report.delta) >= 1

    def test_invalid_settings(self):
        train = block_family([0.1, 0.9])
        with pytest.raises(ValueError):
            greedy.run(train, eps_rel=1.0)
        with pytest.raises(ValueError):
            greedy.run(train, n_max=1)
        with pytest.raises(ValueError):
            greedy.run(train, eps_abs=-0.1)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda t: simplexqp.solve_batch(t[:, :2], t, tol=np.nan),
                     id="qp-tol-nan"),
        pytest.param(lambda t: greedy.run(t, tol=np.nan), id="greedy-tol-nan"),
        pytest.param(lambda t: greedy.run(t, eps_abs=np.nan), id="greedy-eps-abs-nan"),
    ])
    def test_nan_or_zero_solver_setting_raises(self, call):
        # a NaN fails every comparison, so a check written as `x < bound`
        # lets it through; a NaN tol leaves every solve unconverged without
        # an error
        train = block_family([0.1, 0.5, 0.9])
        with pytest.raises(ValueError):
            call(train)
