import numpy as np
import pytest
from scipy import ndimage

from baryrom import diagnostics as dg
from baryrom import simplexqp as sq, transport as tr

from oracles import landscape_image, landscape_log10_w2


def triangle_barycentric(verts, x):
    """Classical area-ratio barycentric coordinates for a triangle."""
    a, b, c = verts
    area = lambda p, q, r: 0.5 * ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    total = area(a, b, c)
    return np.array([area(x, b, c) / total, area(a, x, c) / total, area(a, b, x) / total])


def edge_areas(verts, xy):
    """Signed area of triangle (v_i, v_{i+1}, x) per point and edge, (P, n)."""
    e = np.roll(verts, -1, axis=0) - verts
    d = xy[:, None, :] - verts[None, :, :]
    return 0.5 * (e[None, :, 0] * d[:, :, 1] - e[None, :, 1] * d[:, :, 0])


def polygon_landscape(n, resolution=101):
    """The landscape of n block atoms: its xy and weights are the
    Wachspress map of the raster, whatever the atoms."""
    atoms = synthetic_atoms(np.linspace(0.1, 0.9, n))
    return dg.energy_landscape(atoms, atoms[:, 0], resolution=resolution)


class TestWachspress:
    """The Wachspress map as energy_landscape applies it to its pixels."""

    def test_centroid_uniform(self):
        for n in range(3, 10):
            grid = polygon_landscape(n)
            # the middle of an odd linspace(-1, 1, r) is exactly 0.0
            centre = np.flatnonzero(np.all(grid.xy == 0.0, axis=1))
            assert centre.size == 1
            np.testing.assert_allclose(grid.xy[centre[0]], 0.0, atol=1e-15)
            np.testing.assert_allclose(grid.weights[centre[0]], np.full(n, 1.0 / n), atol=1e-12)

    def test_matches_triangle_barycentric(self):
        grid = polygon_landscape(3)
        verts = dg.polygon_vertices(3)
        want = np.array([triangle_barycentric(verts, x) for x in grid.xy])
        np.testing.assert_allclose(grid.weights, want, atol=1e-12)

    def test_partition_of_unity_and_linear_precision(self):
        for n in range(3, 10):
            grid = polygon_landscape(n)
            assert grid.xy.shape[0] > 0
            np.testing.assert_allclose(grid.weights.sum(axis=1), 1.0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(grid.weights @ dg.polygon_vertices(n), grid.xy,
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("resolution", [2, 3, 200, 201])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_listed_pixel_is_strictly_inside(self, n, resolution):
        # the landscape maps interior points only, so the Wachspress map
        # needs no edge, vertex or outside case
        grid = polygon_landscape(n, resolution)
        areas = edge_areas(dg.polygon_vertices(n), grid.xy)
        assert np.all(areas > dg.BOUNDARY_TOL)
        assert np.all(grid.weights > 0.0)

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

    @pytest.mark.parametrize("widths, target_width", [
        ([0.2, 0.5, 0.9], 0.6),
        ([0.1, 0.3, 0.5, 0.7, 0.95], 0.42),
    ], ids=["n3", "n5"])
    def test_every_pixel_matches_the_data_form_oracle(self, widths, target_width):
        atoms = synthetic_atoms(widths)
        target = synthetic_atoms([target_width])[:, 0]
        grid = dg.energy_landscape(atoms, target, resolution=61)
        want = landscape_log10_w2(atoms, grid.weights, target)
        np.testing.assert_allclose(grid.log10_w2, want, rtol=0.0, atol=1e-10)

    def test_near_exact_fit_at_a_pixel(self):
        # the target is the barycenter of one pixel's own weights, so W2 at
        # that pixel is rounding error and the pixel is the raster minimum
        atoms = varied_atoms()
        probe = dg.energy_landscape(atoms, atoms[:, 0], resolution=101)
        p = len(probe.weights) // 3
        grid = dg.energy_landscape(atoms, atoms @ probe.weights[p], resolution=101)
        assert 10.0 ** grid.log10_w2[p] <= 1e-14
        others = np.delete(grid.log10_w2, p)
        assert others.min() > grid.log10_w2[p]

    def test_sublevel_sets_connected(self):
        atoms = synthetic_atoms([0.15, 0.45, 0.85])
        target = synthetic_atoms([0.3])[:, 0]
        grid = dg.energy_landscape(atoms, target, resolution=121)
        img = landscape_image(grid, 121)
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

