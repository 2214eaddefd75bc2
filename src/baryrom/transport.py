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
# snapshots per block of the batched icdf transform: its (block, M)
# temporaries stay near 0.25 MB for a 1002-cell grid, as online's blocks do
_BLOCK = 32

# Quadrature for the L2([0,1]) norm of icdf vectors: rectangle rule with
# uniform weight 1/M per node. The QP objective must use the same rule.


def icdf_size(n_raw: int) -> int:
    """Nodes of the icdf grid of an n_raw-cell profile, one per augmented cell."""
    return n_raw + AUGMENTATION_CELLS


def augment(raw: np.ndarray) -> np.ndarray:
    """Prepend the two boundary cells (0.0 and 1.0) to a raw profile (N,),
    or to each row of a (K, N) array of them."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim not in (1, 2):
        raise ValueError("raw profiles must be an (N,) or a (K, N) array")
    if np.any(raw < 0.0):
        raise ValueError("raw profile has negative entries")
    out = np.empty(raw.shape[:-1] + (icdf_size(raw.shape[-1]),))
    out[..., 0] = 0.0
    out[..., 1] = 1.0
    out[..., AUGMENTATION_CELLS:] = raw
    return out


def normalize(aug: np.ndarray) -> np.ndarray:
    """Scale an augmented profile, or each row of an array of them, to unit sum."""
    aug = np.asarray(aug, dtype=float)
    total = aug.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("cannot normalize a zero-mass profile")
    return aug / total


def cdf(u: np.ndarray) -> np.ndarray:
    """Running sum of a probability vector, or along each row of an array of them."""
    return np.cumsum(np.asarray(u, dtype=float), axis=-1)


def icdf(c: np.ndarray, m: int, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Generalized inverse of a discrete cdf on a uniform m-point probability grid.

    For each p_j the smallest index i >= 2 (1-based) with cdf_i >= p_j is
    located and the cdf is linearly interpolated between x_{i-1} and x_i.
    Flat cdf segments map to the left endpoint, which is the inf in the
    generalized inverse. Search and interpolation are one `np.interp` on
    the reversed, negated cdf, whose last node at or below -p_j is that
    first node at or above p_j.
    """
    c = np.asarray(c, dtype=float)
    if m < 2:
        raise ValueError("probability grid needs at least 2 nodes")
    return _icdf_rows(c[None, :], m, x_min, x_max)[0]


def _probabilities(m: int) -> np.ndarray:
    """The uniform probability grid of an m-node icdf."""
    return np.linspace(0.0, 1.0, m)


def _icdf_rows(c: np.ndarray, m: int, x_min: float, x_max: float) -> np.ndarray:
    """:func:`icdf` of every row of c (B, N), as (B, m)."""
    # the final cdf value is 1 up to rounding; clamping keeps the probes from
    # running past the end of the support into the flat tail
    p = np.minimum(_probabilities(m), c[:, -1:])
    # np.interp brackets a probe by the last node at or below it, the right
    # end of a flat run; on the reversed, negated row that node is the first
    # one at or above the probe, so a flat run maps to its left end
    np.negative(p, out=p)
    rows = np.negative(c[:, ::-1])
    x = np.linspace(x_min, x_max, c.shape[1])[::-1].copy()
    out = np.empty_like(p)
    for row, probes, dst in zip(rows, p, out):
        dst[:] = np.interp(probes, row, x)
    return out


def _cdf_rows(ic: np.ndarray, n_out: int, x_min: float, x_max: float) -> np.ndarray:
    """The cdf of each icdf column of ic (M,) or (M, P) on n_out spatial
    nodes, one row per icdf: (P, n_out), C-ordered."""
    m = ic.shape[0]
    x = np.linspace(x_min, x_max, n_out)
    p = _probabilities(m)
    rows = np.ascontiguousarray(ic.reshape(m, -1).T)  # (P, M), one icdf per row
    out = np.empty((rows.shape[0], n_out))
    for row, dst in zip(rows, out):
        dst[:] = np.interp(x, row, p, left=0.0, right=1.0)
    # the slope form can overshoot the last probability by an ulp
    return np.minimum(out, 1.0, out=out)


def invert_icdf(ic: np.ndarray, n_out: int, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Numerically re-invert an icdf back to a cdf on the spatial grid.

    One `np.interp` per icdf, with the roles of x and p swapped: nodes
    before the first icdf value get cdf value 0, nodes at or past the last
    one (past the support) get 1. The icdfs the pipeline inverts are
    strictly increasing, where this is the inverse function; at a repeated
    icdf value x_j = x_{j+1} = x the cdf is the upper probability there,
    the right-continuous one. `ic` is one icdf (M,) or a column per icdf
    (M, P); the result is (n_out,) or (n_out, P).
    """
    ic = np.asarray(ic, dtype=float)
    out = _cdf_rows(ic, n_out, x_min, x_max).T
    return out if ic.ndim == 2 else out[:, 0]


def pdf_from_cdf(c: np.ndarray) -> np.ndarray:
    """First-order backward differences along the last axis: one cdf (n,)
    or one per row (P, n); each sums to its final cdf value."""
    c = np.asarray(c, dtype=float)
    out = np.empty_like(c)
    out[..., 0] = c[..., 0]
    np.subtract(c[..., 1:], c[..., :-1], out=out[..., 1:])
    return out


def w2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L2([0,1]) distance between two icdf vectors (rectangle rule)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"icdf size mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def barycenter(atoms: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pointwise convex combination of icdf columns: weights (n,) give one
    icdf (M,), weights (n, P) one icdf column per weight column (M, P)."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if atoms.ndim != 2 or atoms.shape[1] != weights.shape[0]:
        raise ValueError(f"{atoms.shape[1]} atoms but {weights.shape[0]} weights")
    # row-major per icdf, so that the columns of an (M, P) result are the
    # contiguous rows that invert_icdf searches
    return (weights.T @ atoms.T).T


def snapshot_to_icdf(
    raw: np.ndarray,
    m: int | None = None,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Full augment -> normalize -> cdf -> icdf chain for one raw snapshot:
    the one-row call of :func:`snapshots_to_icdfs`.

    The icdf has M = N + 2 nodes, one per augmented cell. `m` is accepted
    for callers that spell the grid out and must equal N + 2.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1:
        raise ValueError("raw profile must be one-dimensional")
    if m is not None and m != icdf_size(raw.size):
        raise ValueError(f"icdf grid of a {raw.size}-cell profile "
                         f"has {icdf_size(raw.size)} nodes, not {m}")
    return snapshots_to_icdfs(raw[None, :], x_min, x_max)[:, 0]


def snapshots_to_icdfs(values: np.ndarray, x_min: float = 0.0, x_max: float = 1.0) -> np.ndarray:
    """Training matrix of a (K, N) snapshot array: one icdf column per
    snapshot, (N + 2, K), C-ordered.

    The snapshots run through :func:`augment`, :func:`normalize`, :func:`cdf`
    and :func:`icdf` in blocks of _BLOCK rows, and each column is bit for
    bit the icdf of its snapshot alone.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("snapshots must be a (K, N) array")
    m = icdf_size(values.shape[1])
    out = np.empty((m, values.shape[0]))
    for start in range(0, values.shape[0], _BLOCK):
        block = values[start:start + _BLOCK]
        c = cdf(normalize(augment(block)))
        out[:, start:start + block.shape[0]] = _icdf_rows(c, m, x_min, x_max).T
    return out


def icdf_to_density(
    ic: np.ndarray,
    n_raw: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> np.ndarray:
    """Invert an icdf of an augmented profile, differentiate, and strip the
    two boundary cells: the probability of each of the n_raw original cells.
    An (M, P) array of icdf columns gives an (n_raw, P) array, the
    transposed view of one density row per icdf."""
    ic = np.asarray(ic, dtype=float)
    c = _cdf_rows(ic, icdf_size(n_raw), x_min, x_max)
    dens = pdf_from_cdf(c)[:, AUGMENTATION_CELLS:].T
    return dens if ic.ndim == 2 else dens[:, 0]
