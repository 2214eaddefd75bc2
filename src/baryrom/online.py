"""Online phase: parameter points -> interpolated weights and mass -> profiles.

One point is the one-row case of a batch: every step runs on all points at
once.

The training parameters must form a full tensor grid, each node once, in any
row order (anything else is a ValueError); weights and masses are
interpolated multilinearly per component (exact at the nodes), the weight
vector is projected back onto the simplex, the mass clamped at zero, and the
barycenter icdf inverted and differentiated back to a saturation profile on
the original N-cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import transport
from .greedy import Dictionary
from .simplexqp import project_to_simplex


# weight columns per block of the profile pipeline: its (_BLOCK, M)
# temporaries stay near 0.25 MB for a 1002-cell grid, below the memory peaks
# of the other stages; larger blocks ran no faster
_BLOCK = 32


class OutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class ReducedModel:
    dictionary: Dictionary
    axis_names: tuple[str, ...]
    axes: tuple[np.ndarray, ...]  # sorted unique values per axis
    weight_table: np.ndarray  # (*grid_shape, n_atoms)
    mass_table: np.ndarray  # grid_shape
    n_raw: int
    x_min: float
    x_max: float

    @property
    def n_atoms(self) -> int:
        return self.dictionary.size


def fit(
    dictionary: Dictionary,
    params: np.ndarray,
    weights: np.ndarray,
    masses: np.ndarray,
    axis_names,
    n_raw: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> ReducedModel:
    """Arrange per-snapshot optimal weights and masses on the tensor grid.

    params is (K, d), one row per node in any order; weights (n_atoms, K);
    masses (K,). Raises ValueError unless the rows hold every node of the
    grid of their unique values exactly once.
    """
    params = np.asarray(params, dtype=float)
    weights = np.asarray(weights, dtype=float)
    masses = np.asarray(masses, dtype=float)
    axis_names = tuple(axis_names)
    if len(axis_names) != params.shape[1]:
        raise ValueError("one axis name per parameter component required")

    axes = tuple(np.unique(col) for col in params.T)
    shape = tuple(ax.size for ax in axes)
    order = np.lexsort(params.T[::-1])  # the rows in C order of the grid
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    if not np.array_equal(params[order], grid):
        raise ValueError(
            f"the {params.shape[0]} training rows are not a full tensor grid of "
            f"{'x'.join(map(str, shape))} nodes, each once"
        )
    weight_table = weights[:, order].T.reshape(shape + (-1,))
    mass_table = masses[order].reshape(shape)
    return ReducedModel(
        dictionary=dictionary,
        axis_names=axis_names,
        axes=axes,
        weight_table=weight_table,
        mass_table=mass_table,
        n_raw=int(n_raw),
        x_min=float(x_min),
        x_max=float(x_max),
    )


def _cell_coords(axes, points: np.ndarray, clamp: bool):
    """Per-axis lower indices (P, d) and fractions (P, d) of the multilinear
    cells containing the rows of points (P, d).

    Raises OutOfRangeError naming the first offending value, in row-major
    order: a non-finite one always, one outside the training range unless
    clamp is set.
    """
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    non_finite = ~np.isfinite(points)
    bad = non_finite if clamp else non_finite | (points < lo) | (points > hi)
    if bad.any():
        first = int(np.argmax(bad.ravel()))
        val = points.flat[first]
        if non_finite.flat[first]:
            raise OutOfRangeError(f"value {val} is not a finite parameter")
        j = first % len(axes)
        raise OutOfRangeError(f"value {val} outside training range [{lo[j]}, {hi[j]}]")
    points = np.clip(points, lo, hi)
    lower = np.zeros(points.shape, dtype=np.intp)
    frac = np.zeros(points.shape)
    for j, ax in enumerate(axes):
        if ax.size == 1:
            continue
        i = np.clip(np.searchsorted(ax, points[:, j]), 1, ax.size - 1)
        lower[:, j] = i - 1
        frac[:, j] = (points[:, j] - ax[i - 1]) / (ax[i] - ax[i - 1])
    return lower, frac


def _multilinear(table: np.ndarray, lower: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Multilinear interpolant of a table (*grid_shape, k) at P points,
    given their cells: one gather of P rows per corner, (P, k)."""
    out = np.zeros((lower.shape[0], table.shape[-1]))
    for corner in product((0, 1), repeat=lower.shape[1]):
        weight = np.ones(lower.shape[0])
        idx = []
        for j, bit in enumerate(corner):
            weight *= frac[:, j] if bit else 1.0 - frac[:, j]
            idx.append(np.minimum(lower[:, j] + bit, table.shape[j] - 1))
        out += weight[:, None] * table[tuple(idx)]
    return out


def evaluate_raw(model: ReducedModel, z, clamp: bool = False):
    """Multilinear interpolants of the weight components and the mass.

    z is one point (d,), giving weights (n,) and a float mass, or a batch
    (P, d), giving weights (P, n) and masses (P,). The interpolated weight
    vectors sum to 1 (affine combinations of simplex points) but are not
    guaranteed to be on the simplex.
    """
    z = np.asarray(z, dtype=float)
    d = len(model.axes)
    points = z if z.ndim == 2 else np.atleast_1d(z)[None, :]
    if points.shape[1:] != (d,):
        raise ValueError(f"parameter point must have {d} components")
    lower, frac = _cell_coords(model.axes, points, clamp)
    lam = _multilinear(model.weight_table, lower, frac)
    mass = _multilinear(model.mass_table[..., None], lower, frac)[:, 0]
    if z.ndim == 2:
        return lam, mass
    return lam[0], float(mass[0])


def profile_from_weights(
    atoms: np.ndarray,
    weights: np.ndarray,
    masses,
    n_raw: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Saturation profiles from barycentric weights and physical masses.

    weights is (n,) with a scalar mass, giving one profile (n_raw,), or
    (n, P) with a scalar or (P,) masses, giving (P, n_raw). Each weight
    column is projected onto the simplex and each mass clamped at zero; the
    barycenter icdf is mapped back to a density on the original N-cell grid
    and rescaled so that the profile carries its mass. The barycenters run
    in blocks of _BLOCK columns, which bounds the size of the (block, M)
    temporaries; every array from barycenter to profile holds one row per
    column.
    """
    weights = np.asarray(weights, dtype=float)
    cols = weights.reshape(weights.shape[0], -1)
    count = cols.shape[1]
    masses = np.maximum(np.broadcast_to(np.asarray(masses, dtype=float), (count,)), 0.0)
    dx = (x_max - x_min) / n_raw
    lam = project_to_simplex(cols)  # column by column, so one call serves every block
    out = np.zeros((count, n_raw))
    for start in range(0, count, _BLOCK):
        block = slice(start, start + _BLOCK)
        ic = transport.barycenter(atoms, lam[:, block])
        body = transport.icdf_to_density(ic, x_min=x_min, x_max=x_max).T  # (block, n_raw) rows
        np.maximum(body, 0.0, out=body)
        total = body.sum(axis=1)
        mass = masses[block]
        scale = np.zeros(total.shape)  # a zero mass or an empty body gives zeros
        np.divide(mass, total * dx, out=scale, where=(mass > 0.0) & (total > 0.0))
        np.multiply(body, scale[:, None], out=out[block])
    return out if weights.ndim == 2 else out[0]


def reconstruct(model: ReducedModel, z, clamp: bool = False) -> np.ndarray:
    """Approximate saturation profile at one parameter point (d,), giving
    (N,), or at each row of a batch (P, d), giving (P, N)."""
    lam_tilde, m_tilde = evaluate_raw(model, z, clamp=clamp)
    return profile_from_weights(
        model.dictionary.atoms, lam_tilde.T, m_tilde, model.n_raw, model.x_min, model.x_max
    )


def relative_l1_error(profile: np.ndarray, truth: np.ndarray):
    """L1 distance of a reconstructed profile to the truth over the L1 norm
    of the truth, 0 when the truth is all zero. Profiles (P, N) against
    truths (P, N) give one error per row, (P,)."""
    truth = np.asarray(truth, dtype=float)
    denom = np.abs(truth).sum(axis=-1)
    resid = profile - truth
    num = np.abs(resid, out=resid).sum(axis=-1)
    live = denom > 0.0
    err = np.zeros(denom.shape)
    err[live] = num[live] / denom[live]
    return err if err.ndim else float(err)
