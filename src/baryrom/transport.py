"""Exact 1D optimal transport on discrete profiles.

Everything runs through the pdf -> cdf -> icdf pipeline: a nonnegative
profile of N cells is augmented with two boundary cells, normalized to a
probability vector, accumulated into a cdf on a uniform spatial grid, and
inverted onto a uniform probability grid of M = N + 2 nodes. W2 distances
and barycenters are then plain L2 operations on the icdf vectors. The
augmentation lives here only: `icdf_size` gives M, `snapshot_to_icdf` and
`snapshots_to_icdfs` add the two cells, and `icdf_to_density` strips them
again.
"""

from __future__ import annotations

import numpy as np

# the two boundary cells (0.0 and 1.0) prepended to every raw profile
AUGMENTATION_CELLS = 2

# Quadrature for the L2([0,1]) norm of icdf vectors: rectangle rule with
# uniform weight 1/M per node. The QP objective must use the same rule.


def icdf_size(n_raw: int) -> int:
    """Nodes of the icdf grid of an n_raw-cell profile, one per augmented cell."""
    return n_raw + AUGMENTATION_CELLS


def augment(raw: np.ndarray) -> np.ndarray:
    """Prepend the two boundary cells (0.0 and 1.0) to a raw profile."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise ValueError("raw profile must be one-dimensional")
    if np.any(raw < 0.0):
        raise ValueError("raw profile has negative entries")
    out = np.empty(icdf_size(raw.size))
    out[0] = 0.0
    out[1] = 1.0
    out[AUGMENTATION_CELLS:] = raw
    return out


def normalize(aug: np.ndarray) -> np.ndarray:
    """Scale an augmented profile to unit sum."""
    aug = np.asarray(aug, dtype=float)
    total = aug.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize a zero-mass profile")
    return aug / total


def cdf(u: np.ndarray) -> np.ndarray:
    """Running sum of a probability vector."""
    return np.cumsum(np.asarray(u, dtype=float))


def icdf(c: np.ndarray, m: int, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Generalized inverse of a discrete cdf on a uniform m-point probability grid.

    For each p_j the smallest index i >= 2 (1-based) with cdf_i >= p_j is
    located and the cdf is linearly interpolated between x_{i-1} and x_i.
    Flat cdf segments map to the left endpoint, which is the inf in the
    generalized inverse.
    """
    c = np.asarray(c, dtype=float)
    if m < 2:
        raise ValueError("probability grid needs at least 2 nodes")
    x = np.linspace(x_min, x_max, c.size)
    p = np.linspace(0.0, 1.0, m)
    # the final cdf value is 1 up to rounding; clamping keeps the probes from
    # running past the end of the support into the flat tail
    p = np.minimum(p, c[-1])
    # searchsorted(left) returns the first i with c[i] >= p_j; identical to the
    # monotone two-pointer pass since both grids are sorted.
    i = np.searchsorted(c, p, side="left")
    i = np.clip(i, 1, c.size - 1)
    denom = c[i] - c[i - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = (p - c[i - 1]) / denom
    frac = np.where(denom > 0.0, frac, 0.0)
    return x[i - 1] + (x[i] - x[i - 1]) * np.clip(frac, 0.0, 1.0)


def invert_icdf(ic: np.ndarray, n_out: int, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Numerically re-invert an icdf back to a cdf on the spatial grid.

    Same interpolation as :func:`icdf` with the roles of x and p swapped.
    Spatial nodes beyond the last icdf value sit past the support and get
    cdf value 1.
    """
    ic = np.asarray(ic, dtype=float)
    p = np.linspace(0.0, 1.0, ic.size)
    x = np.linspace(x_min, x_max, n_out)
    j = np.searchsorted(ic, x, side="left")
    past_support = j >= ic.size
    j = np.clip(j, 1, ic.size - 1)
    denom = ic[j] - ic[j - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = (x - ic[j - 1]) / denom
    frac = np.where(denom > 0.0, frac, 0.0)
    out = p[j - 1] + (p[j] - p[j - 1]) * np.clip(frac, 0.0, 1.0)
    out[past_support] = 1.0
    return np.clip(out, 0.0, 1.0)


def pdf_from_cdf(c: np.ndarray) -> np.ndarray:
    """First-order backward differences; the result sums to the final cdf value."""
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    out[0] = c[0]
    out[1:] = np.diff(c)
    return out


def w2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L2([0,1]) distance between two icdf vectors (rectangle rule)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"icdf size mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def barycenter(atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pointwise convex combination of icdf columns."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if atoms.ndim != 2 or atoms.shape[1] != weights.size:
        raise ValueError(f"{atoms.shape[1]} atoms but {weights.size} weights")
    return atoms @ weights


def snapshot_to_icdf(
    raw: np.ndarray,
    m: int | None = None,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Full augment -> normalize -> cdf -> icdf chain for one raw snapshot.

    The icdf has M = N + 2 nodes, one per augmented cell. `m` is accepted
    for callers that spell the grid out and must equal N + 2.
    """
    c = cdf(normalize(augment(raw)))
    if m is not None and m != c.size:
        raise ValueError(f"icdf grid of a {c.size - AUGMENTATION_CELLS}-cell profile "
                         f"has {c.size} nodes, not {m}")
    return icdf(c, c.size, x_min=x_min, x_max=x_max)


def snapshots_to_icdfs(values: np.ndarray, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Training matrix of a (K, N) snapshot array: one icdf column per
    snapshot, (N + 2, K)."""
    return np.column_stack([snapshot_to_icdf(raw, x_min=x_min, x_max=x_max) for raw in values])


def icdf_to_density(
    ic: np.ndarray,
    n_raw: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Invert an icdf of an augmented profile, differentiate, and strip the
    two boundary cells: the probability of each of the n_raw original cells."""
    c = invert_icdf(ic, icdf_size(n_raw), x_min=x_min, x_max=x_max)
    return pdf_from_cdf(c)[AUGMENTATION_CELLS:]
