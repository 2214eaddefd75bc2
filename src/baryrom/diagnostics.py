"""Landscape and conditioning diagnostics for the barycentric dictionary.

The (n-1)-simplex is visualized through the regular n-gon inscribed in the
unit circle (vertex 1 at 90 degrees): Wachspress coordinates map interior
points of the polygon to simplex weights, and the W2 error of the induced
barycenters is rasterized into an energy landscape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-12


class OutsidePolygonError(ValueError):
    pass


def polygon_vertices(n: int) -> np.ndarray:
    """Vertices of the regular n-gon inscribed in the unit circle, counter
    clockwise, vertex 1 at angle 90 degrees."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    ang = 0.5 * np.pi + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _edge_areas(verts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Signed area of triangle (v_i, v_{i+1}, x) for every edge; positive
    inside a ccw polygon. x may be (2,) or (P, 2)."""
    nxt = np.roll(verts, -1, axis=0)
    e = nxt - verts  # (n, 2)
    if x.ndim == 1:
        d = x[None, :] - verts
        return 0.5 * (e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0])
    d0 = x[:, None, 0] - verts[None, :, 0]
    d1 = x[:, None, 1] - verts[None, :, 1]
    return 0.5 * (e[None, :, 0] * d1 - e[None, :, 1] * d0)


def wachspress_weights(x, n: int) -> np.ndarray:
    """Wachspress barycentric weights of a point of the regular n-gon.

    Interior points use the rational cross-ratio of adjacent triangle areas;
    points on an edge take the linear limit between its two vertices.
    Points outside the polygon raise OutsidePolygonError.
    """
    x = np.asarray(x, dtype=float)
    verts = polygon_vertices(n)
    areas = _edge_areas(verts, x)  # A(v_i, v_{i+1}, x)
    if np.any(areas < -BOUNDARY_TOL):
        raise OutsidePolygonError(f"point {tuple(x)} lies outside the {n}-gon")
    on_edge = np.flatnonzero(np.abs(areas) <= BOUNDARY_TOL)
    if on_edge.size >= 2:
        # two adjacent zero areas: x is the shared vertex
        i, j = on_edge[0], on_edge[-1]
        shared = j + 1 if (j + 1) % n == i else (i + 1) % n if (i + 1) % n == j else None
        if shared is None:
            raise OutsidePolygonError("degenerate boundary point")
        w = np.zeros(n)
        w[shared % n] = 1.0
        return w
    if on_edge.size == 1:
        i = int(on_edge[0])
        j = (i + 1) % n
        lam = np.linalg.norm(x - verts[j]) / np.linalg.norm(verts[i] - verts[j])
        w = np.zeros(n)
        w[i] = lam
        w[j] = 1.0 - lam
        return w
    corner = _corner_areas(verts)
    w = corner / (np.roll(areas, 1) * areas)
    return w / w.sum()


def _corner_areas(verts: np.ndarray) -> np.ndarray:
    """A(v_{i-1}, v_i, v_{i+1}) per vertex; constant for a regular polygon
    but computed exactly from the geometry."""
    prv = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    e1 = verts - prv
    e2 = nxt - prv
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


@dataclass(frozen=True)
class LandscapeGrid:
    """Rasterized energy landscape over the n-gon."""

    n: int
    resolution: int
    xy: np.ndarray  # (P, 2) planar coordinates
    pixel: np.ndarray  # (P, 2) integer raster indices (col, row)
    weights: np.ndarray  # (P, n) simplex weights
    log10_w2: np.ndarray  # (P,)

    def to_image(self) -> np.ndarray:
        """(resolution, resolution) array of log10 W2, NaN outside the polygon."""
        img = np.full((self.resolution, self.resolution), np.nan)
        img[self.pixel[:, 1], self.pixel[:, 0]] = self.log10_w2
        return img


def energy_landscape(atoms: np.ndarray, target: np.ndarray, resolution: int = 201) -> LandscapeGrid:
    """log10 W2 between the target icdf and the barycenters induced by every
    interior pixel of the n-gon raster."""
    atoms = np.asarray(atoms, dtype=float)
    target = np.asarray(target, dtype=float)
    m, n = atoms.shape
    if n < 3:
        raise ValueError("landscape needs at least 3 atoms")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    verts = polygon_vertices(n)

    coords = np.linspace(-1.0, 1.0, resolution)
    gx, gy = np.meshgrid(coords, coords)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cols, rows = np.meshgrid(np.arange(resolution), np.arange(resolution))
    pix = np.column_stack([cols.ravel(), rows.ravel()])

    areas = _edge_areas(verts, pts)  # (P, n)
    inside = np.all(areas > BOUNDARY_TOL, axis=1)
    pts, pix, areas = pts[inside], pix[inside], areas[inside]

    corner = _corner_areas(verts)
    w = corner[None, :] / (np.roll(areas, 1, axis=1) * areas)
    w = w / w.sum(axis=1, keepdims=True)

    # data-form residuals: the quadratic Gram form cancels catastrophically
    # near exact fits
    w2_sq = np.empty(w.shape[0])
    chunk = max(1, 8_000_000 // max(m, 1))
    for lo in range(0, w.shape[0], chunk):
        hi = min(lo + chunk, w.shape[0])
        resid = atoms @ w[lo:hi].T - target[:, None]
        w2_sq[lo:hi] = np.mean(resid**2, axis=0)
    log10 = 0.5 * np.log10(np.maximum(w2_sq, 1e-300))
    return LandscapeGrid(
        n=n, resolution=resolution, xy=pts, pixel=pix, weights=w, log10_w2=log10
    )

