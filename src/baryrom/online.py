"""Online phase: parameter point -> interpolated weights and mass -> profile.

The training parameters must form a full tensor grid; weights and masses are
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


class NotOnTensorGridError(ValueError):
    pass


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

    params is (K, d); weights (n_atoms, K); masses (K,). Raises
    NotOnTensorGridError listing missing nodes when the parameter set is not
    a full tensor product.
    """
    params = np.asarray(params, dtype=float)
    weights = np.asarray(weights, dtype=float)
    masses = np.asarray(masses, dtype=float)
    k_count, d = params.shape
    axis_names = tuple(axis_names)
    if len(axis_names) != d:
        raise ValueError("one axis name per parameter component required")

    axes = tuple(np.unique(params[:, j]) for j in range(d))
    shape = tuple(ax.size for ax in axes)
    expected = int(np.prod(shape))
    seen = np.zeros(shape, dtype=bool)
    weight_table = np.zeros(shape + (dictionary.size,))
    mass_table = np.zeros(shape)
    for row in range(k_count):
        idx = tuple(
            int(np.searchsorted(axes[j], params[row, j])) for j in range(d)
        )
        if seen[idx]:
            raise NotOnTensorGridError(f"duplicate training node {tuple(params[row])}")
        seen[idx] = True
        weight_table[idx] = weights[:, row]
        mass_table[idx] = masses[row]
    if k_count != expected or not seen.all():
        missing = [
            tuple(float(axes[j][i]) for j, i in enumerate(idx))
            for idx in zip(*np.nonzero(~seen))
        ]
        raise NotOnTensorGridError(
            f"training set is not a full tensor grid; {len(missing)} missing "
            f"nodes, first few: {missing[:5]}"
        )
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


def _cell_coords(axes, z, clamp: bool):
    """Per-axis (lower index, fraction) of the multilinear cell containing z."""
    coords = []
    for ax, name_val in zip(axes, z):
        val = float(name_val)
        if not np.isfinite(val):
            raise OutOfRangeError(f"value {val} is not a finite parameter")
        if val < ax[0] or val > ax[-1]:
            if not clamp:
                raise OutOfRangeError(
                    f"value {val} outside training range [{ax[0]}, {ax[-1]}]"
                )
            val = float(np.clip(val, ax[0], ax[-1]))
        if ax.size == 1:
            coords.append((0, 0.0))
            continue
        i = int(np.clip(np.searchsorted(ax, val), 1, ax.size - 1))
        frac = (val - ax[i - 1]) / (ax[i] - ax[i - 1])
        coords.append((i - 1, frac))
    return coords


def _multilinear(table: np.ndarray, coords):
    out = 0.0
    for corner in product((0, 1), repeat=len(coords)):
        weight = 1.0
        idx = []
        for bit, (i0, frac) in zip(corner, coords):
            weight *= frac if bit else (1.0 - frac)
            idx.append(min(i0 + bit, table.shape[len(idx)] - 1))
        if weight != 0.0:
            out = out + weight * table[tuple(idx)]
    return out


def evaluate_raw(model: ReducedModel, z, clamp: bool = False):
    """Multilinear interpolants of the weight components and the mass at z.

    The interpolated weight vector sums to 1 (affine combination of simplex
    points) but is not guaranteed to be on the simplex.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (len(model.axes),):
        raise ValueError(f"parameter point must have {len(model.axes)} components")
    coords = _cell_coords(model.axes, z, clamp)
    lam = np.asarray(_multilinear(model.weight_table, coords), dtype=float)
    mass = float(_multilinear(model.mass_table, coords))
    return lam, mass


def profile_from_weights(
    atoms: np.ndarray,
    weights: np.ndarray,
    mass: float,
    n_raw: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Saturation profile from barycentric weights and a physical mass.

    Projects the weights onto the simplex, clamps the mass at zero, forms
    the barycenter icdf, inverts and differentiates it, strips the two
    augmentation cells and rescales the rest so that the profile carries the
    given mass on the original N-cell grid.
    """
    lam = project_to_simplex(np.asarray(weights, dtype=float))
    mass = max(float(mass), 0.0)
    if mass == 0.0:
        return np.zeros(n_raw)
    ic = transport.barycenter(atoms, lam)
    dens = transport.icdf_to_density(ic, n_raw + 2, x_min, x_max)
    body = np.maximum(dens[2:], 0.0)
    total = body.sum()
    if total <= 0.0:
        return np.zeros(n_raw)
    dx = (x_max - x_min) / n_raw
    return body * (mass / (total * dx))


def reconstruct(model: ReducedModel, z, clamp: bool = False) -> np.ndarray:
    """Approximate saturation profile at a new parameter point."""
    lam_tilde, m_tilde = evaluate_raw(model, z, clamp=clamp)
    return profile_from_weights(
        model.dictionary.atoms, lam_tilde, m_tilde, model.n_raw, model.x_min, model.x_max
    )
