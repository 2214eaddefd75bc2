import numpy as np
import pytest
from scipy import ndimage

from baryrom import diagnostics as dg
from baryrom import simplexqp as sq, transport as tr


def triangle_barycentric(verts, x):
    """Classical area-ratio barycentric coordinates for a triangle."""
    a, b, c = verts
    area = lambda p, q, r: 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    total = area(a, b, c)
    return np.array([area(x, b, c) / total, area(a, x, c) / total, area(a, b, x) / total])


class TestWachspress:
    def test_centroid_uniform(self):
        for n in (3, 4, 5, 8):
            np.testing.assert_allclose(
                dg.wachspress_weights([0.0, 0.0], n), np.full(n, 1.0 / n), atol=1e-12
            )

    def test_edge_midpoint_square(self):
        v = dg.polygon_vertices(4)
        mid = 0.5 * (v[0] + v[1])
        np.testing.assert_allclose(
            dg.wachspress_weights(mid, 4), [0.5, 0.5, 0.0, 0.0], atol=1e-12
        )

    def test_vertex_is_unit_weight(self):
        v = dg.polygon_vertices(5)
        w = dg.wachspress_weights(v[2], 5)
        np.testing.assert_allclose(w, np.eye(5)[2], atol=1e-12)

    def test_matches_triangle_barycentric(self):
        verts = dg.polygon_vertices(3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = rng.dirichlet([2.0, 2.0, 2.0])
            x = lam @ verts
            got = dg.wachspress_weights(x, 3)
            want = triangle_barycentric(verts, x)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_partition_of_unity_and_linear_precision(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 6, 9):
            verts = dg.polygon_vertices(n)
            for _ in range(40):
                lam = rng.dirichlet(np.ones(n) * 3.0)
                x = lam @ verts
                try:
                    w = dg.wachspress_weights(x, n)
                except dg.OutsidePolygonError:
                    continue  # convex combination can land on the boundary
                assert w.sum() == pytest.approx(1.0, abs=1e-10)
                np.testing.assert_allclose(w @ verts, x, atol=1e-10)

    def test_outside_raises(self):
        with pytest.raises(dg.OutsidePolygonError):
            dg.wachspress_weights([2.0, 0.0], 5)

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            dg.polygon_vertices(2)


def synthetic_atoms(widths, m=80):
    cells = (np.arange(m - 2) + 0.5) / (m - 2)
    return np.stack(
        [tr.snapshot_to_icdf(np.where(cells <= w, 1.0, 0.0)) for w in widths], axis=1
    )


def varied_atoms(m=80):
    """Affinely independent shapes: block, hump, two-level staircase."""
    cells = (np.arange(m - 2) + 0.5) / (m - 2)
    profiles = [
        np.where(cells <= 0.25, 1.0, 0.0),
        np.exp(-((cells - 0.55) ** 2) / 2e-3),
        np.where(cells <= 0.4, 1.0, np.where(cells <= 0.9, 0.35, 0.0)),
    ]
    return np.stack([tr.snapshot_to_icdf(p) for p in profiles], axis=1)


class TestLandscape:
    def test_target_atom_minimum_at_vertex(self):
        atoms = varied_atoms()
        grid = dg.energy_landscape(atoms, atoms[:, 1], resolution=101)
        verts = dg.polygon_vertices(3)
        best = grid.xy[np.argmin(grid.log10_w2)]
        dists = np.linalg.norm(verts - best[None, :], axis=1)
        assert np.argmin(dists) == 1
        assert dists[1] < 0.1

    def test_grid_minimum_matches_qp(self):
        atoms = varied_atoms()
        a, b, c = atoms[:, 0], atoms[:, 1], atoms[:, 2]
        target = 0.25 * a + 0.45 * b + 0.3 * c
        res = sq.solve_batch(atoms, target)
        grid = dg.energy_landscape(atoms, target, resolution=201)
        p = np.argmin(grid.log10_w2)
        x_grid = grid.xy[p]
        x_qp = res.weights[:, 0] @ dg.polygon_vertices(3)
        cell = 2.0 / 200
        assert np.linalg.norm(x_grid - x_qp) <= np.sqrt(2) * cell * 1.5
        # landscape values never undercut the true optimum
        assert 10 ** (2 * grid.log10_w2.min()) >= res.objective[0] - 1e-12

    def test_values_match_direct_w2(self):
        atoms = synthetic_atoms([0.2, 0.5, 0.9])
        target = synthetic_atoms([0.6])[:, 0]
        grid = dg.energy_landscape(atoms, target, resolution=41)
        for p in (0, len(grid.log10_w2) // 2, len(grid.log10_w2) - 1):
            bar = atoms @ grid.weights[p]
            want = np.log10(max(tr.w2_distance(bar, target), 1e-300))
            assert grid.log10_w2[p] == pytest.approx(want, abs=1e-10)

    def test_sublevel_sets_connected(self):
        atoms = synthetic_atoms([0.15, 0.45, 0.85])
        target = synthetic_atoms([0.3])[:, 0]
        grid = dg.energy_landscape(atoms, target, resolution=121)
        img = grid.to_image()
        inside = ~np.isnan(img)
        for q in (5, 10, 25, 50, 75, 90):
            thresh = np.percentile(grid.log10_w2, q)
            mask = inside & (img <= thresh)
            _, n_comp = ndimage.label(mask, structure=np.ones((3, 3)))
            assert n_comp <= 1

    def test_pixel_weights_on_simplex(self):
        atoms = synthetic_atoms([0.2, 0.4, 0.6, 0.8])
        grid = dg.energy_landscape(atoms, atoms[:, 0], resolution=61)
        assert np.all(grid.weights >= -1e-10)
        np.testing.assert_allclose(grid.weights.sum(axis=1), 1.0, atol=1e-10)

    def test_needs_three_atoms(self):
        atoms = synthetic_atoms([0.3, 0.7])
        with pytest.raises(ValueError):
            dg.energy_landscape(atoms, atoms[:, 0])

