"""Landscape and conditioning diagnostics for the barycentric dictionary.

The (n-1)-simplex is visualized through the regular n-gon inscribed in the
unit circle (vertex 1 at 90 degrees): Wachspress coordinates map interior
points of the polygon to simplex weights, and the W2 error of the induced
barycenters is rasterized into an energy landscape.

A pixel's W2 needs no pass over the icdf nodes: for the R factor of
B = [atoms, target], ||atoms w - target|| = ||R [w; -1]||. Householder QR
is backward stable, so this is as accurate as the data-form residual even
at a near-exact fit, where the Gram form (squared conditioning) cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_TOL = 1e-12


def polygon_vertices(n: int) -> np.ndarray:
    """Vertices of the regular n-gon inscribed in the unit circle, counter
    clockwise, vertex 1 at angle 90 degrees."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    ang = 0.5 * np.pi + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _edge_areas(verts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Signed area of triangle (v_i, v_{i+1}, x) for every edge and every
    row of x (P, 2), (P, n); positive inside a ccw polygon."""
    e = np.roll(verts, -1, axis=0) - verts  # (n, 2)
    d0 = x[:, None, 0] - verts[None, :, 0]
    d1 = x[:, None, 1] - verts[None, :, 1]
    return 0.5 * (e[None, :, 0] * d1 - e[None, :, 1] * d0)


def _interior_weights(verts: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Wachspress weights (P, n) of interior points from their edge areas
    (P, n): the rational cross-ratio of adjacent triangle areas. The corner
    areas A(v_{i-1}, v_i, v_{i+1}) are equal for a regular polygon but
    computed exactly from the geometry."""
    prv = np.roll(verts, 1, axis=0)
    e1 = verts - prv
    e2 = np.roll(verts, -1, axis=0) - prv
    corner = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    w = corner[None, :] / (np.roll(areas, 1, axis=1) * areas)
    return w / w.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class LandscapeGrid:
    """Energy landscape at the raster pixels inside the n-gon, row by row."""

    xy: np.ndarray  # (P, 2) planar coordinates
    weights: np.ndarray  # (P, n) simplex weights
    log10_w2: np.ndarray  # (P,)


def energy_landscape(atoms: np.ndarray, target: np.ndarray, resolution: int = 201) -> LandscapeGrid:
    """log10 W2 between the target icdf and the barycenters induced by every
    interior pixel of the n-gon raster.

    W2^2 of weights w is ||R [w; -1]||^2 / M for the R factor of the (M, n+1)
    matrix [atoms, target]: one QR, then O(n^2) work per pixel. The QR is
    backward stable, so this matches the data form atoms w - target to
    rounding; the Gram form would square the conditioning.
    """
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

    areas = _edge_areas(verts, pts)  # (P, n)
    inside = np.all(areas > BOUNDARY_TOL, axis=1)
    pts, areas = pts[inside], areas[inside]

    w = _interior_weights(verts, areas)

    r = np.linalg.qr(np.column_stack([atoms, target]), mode="r")
    w2_sq = np.square(w @ r[:, :n].T - r[:, n]).sum(axis=1) / m
    log10 = 0.5 * np.log10(np.maximum(w2_sq, 1e-300))
    return LandscapeGrid(xy=pts, weights=w, log10_w2=log10)
