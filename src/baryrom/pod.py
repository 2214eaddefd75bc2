"""POD baseline: snapshot-method modes and their error curves, plus
the size-for-tolerance lookup that both the POD and the dictionary tables use.

Snapshots enter as the columns of an N x K matrix, uncentered. Modes come
from the symmetric eigen-decomposition of the K x K Gram (method of
snapshots); a QR polish restores orthonormality that the Gram route loses
for the small singular values.

scipy is imported inside `compute` (`eigh`) and `relative_l1_errors`
(`dger`), the only two places that use it, so that importing the package,
and every command but `pod` and `tables`, loads no scipy: it is about half
the start-up wall and half the resident memory of a CLI process. scipy
stays the POD dependency because a numpy-only rank-1 error peel measured
3.2-3.4x slower than `dger` on a 1002 x 225 store (140-150 ms against
44 ms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative cutoff below which Gram eigenvalues are numerical noise
SIGMA_CUTOFF = 1e-7
# snapshots per block of the error peel: a 1000-cell block residual is
# 0.25 MB and stays in cache across all ranks
ERROR_BLOCK = 32


@dataclass(frozen=True)
class PodBasis:
    modes: np.ndarray  # (N, r), orthonormal columns
    singular_values: np.ndarray  # (r,), nonincreasing

    @property
    def rank(self) -> int:
        return self.modes.shape[1]


def compute(snapshots: np.ndarray) -> PodBasis:
    """Left singular basis of the raw snapshot matrix via the K x K Gram."""
    from scipy.linalg import eigh

    snaps = np.asarray(snapshots, dtype=float)
    if snaps.ndim != 2 or snaps.shape[1] < 1:
        raise ValueError("need an N x K snapshot matrix with K >= 1")
    gram = snaps.T @ snaps
    eigvals, eigvecs = eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    sigma = np.sqrt(eigvals)
    if sigma[0] == 0.0:
        raise ValueError("snapshot matrix is identically zero")
    keep = sigma > sigma[0] * SIGMA_CUTOFF
    sigma = sigma[keep]
    modes = snaps @ (eigvecs[:, keep] / sigma[None, :])
    # Gram-route modes drift from orthonormality as sigma shrinks; QR with a
    # sign fix restores it without changing any leading span
    q, r = np.linalg.qr(modes)
    q = q * np.sign(np.diag(r))[None, :]
    return PodBasis(modes=q, singular_values=sigma)


def relative_l1_errors(basis: PodBasis, snapshots: np.ndarray) -> np.ndarray:
    """Relative L1 reconstruction error for every mode count and snapshot.

    Returns an (r, K) array; row n-1 holds the errors using the first n
    modes. Built by peeling one rank-1 contribution at a time, in blocks of
    ERROR_BLOCK snapshots: each block's residual is a Fortran-ordered copy
    updated in place by BLAS `dger`, and its column L1 norms are one
    matrix-vector product per rank. The input is never written.
    """
    from scipy.linalg.blas import dger

    snaps = np.asarray(snapshots, dtype=float)
    modes = np.asfortranarray(basis.modes)  # contiguous columns for dger
    coeffs = modes.T @ snaps  # (r, K)
    n_cells, count = snaps.shape
    ones = np.ones(n_cells)
    norms = np.empty(count)
    out = np.empty((basis.rank, count))
    for k0 in range(0, count, ERROR_BLOCK):
        cols = slice(k0, min(k0 + ERROR_BLOCK, count))
        # a real copy: an in-place update through a view would write the input
        resid = np.array(snaps[:, cols], order="F", copy=True)
        buf = np.abs(resid)
        norms[cols] = ones @ buf
        for n in range(basis.rank):
            resid = dger(-1.0, modes[:, n], coeffs[n, cols], a=resid, overwrite_a=1)
            np.abs(resid, out=buf)
            out[n, cols] = ones @ buf
    out /= np.where(norms > 0.0, norms, 1.0)
    return out


def size_for_tolerance(mean_errors, eps: float, sizes=None) -> int | None:
    """Smallest model size whose mean error is below eps; None when no size
    reaches it.

    mean_errors[i] belongs to the model of size sizes[i]. sizes defaults to
    the mode counts 1, 2, ... of a POD error curve; the greedy dictionary
    passes its report sizes.
    """
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    hits = np.flatnonzero(np.asarray(mean_errors) < eps)
    if hits.size == 0:
        return None
    return int(hits[0]) + 1 if sizes is None else int(sizes[hits[0]])
