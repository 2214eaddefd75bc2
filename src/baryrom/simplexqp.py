"""Least squares over the probability simplex.

Finds the barycentric weights min_{L in simplex} ||A L - f||^2 where the
columns of A are discrete icdf atoms and the norm carries the same 1/M
rectangle-rule weight as the W2 distance, so the optimal objective is
exactly the squared W2 error of the best barycenter.

The solver is an exact primal active-set method in the style of Lawson and
Hanson (1974), run once per target column:

- On the current support it solves the equality-constrained least squares
  in data form, by `lstsq` on the support atoms in null-space coordinates
  of 1^T. The Gram matrix A^T A is never formed: on nearly dependent icdfs
  its squared condition number cancels catastrophically. One thin QR of
  the atom matrix per batch, A = QR, replaces A and f by R and Q^T f, which
  changes the objective by a constant only, so every fit runs on n rows
  instead of M.
- When a support weight would turn nonpositive, the iterate steps back
  along the segment to the first boundary point and that atom leaves the
  support.
- When the fit is interior, the outside atom whose gradient entry most
  undercuts the support multiplier mu = w^T grad joins the support.
- The solve stops when no atom undercuts mu by more than `tol`. That is
  the KKT condition of the problem, so the weights are the exact optimum
  up to `tol`.

Every step lowers the objective, so an atom never re-enters a support it
left at the same objective value and the method terminates. `max_iter`
caps the number of active-set changes (atoms added plus atoms dropped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000


@dataclass(frozen=True)
class BatchResult:
    """Per-column results of a batched simplex solve."""

    weights: np.ndarray  # (n, T)
    objective: np.ndarray  # (T,)
    iterations: np.ndarray  # (T,) active-set changes
    converged: np.ndarray  # (T,) bool
    kkt: np.ndarray  # (T,) KKT residual: multiplier gap and support spread


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Sort-based thresholding: with the entries sorted in decreasing order,
    rho = max{k : v_(k) - (sum_{j<=k} v_(j) - 1)/k > 0} and the projection is
    max(v - tau, 0) with tau = (sum_{j<=rho} v_(j) - 1)/rho.
    """
    v = np.asarray(v, dtype=float)
    return project_columns_to_simplex(v[:, None])[:, 0]


def project_columns_to_simplex(v: np.ndarray) -> np.ndarray:
    """Column-wise simplex projection of an (n, T) array."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    u = -np.sort(-v, axis=0)
    css = np.cumsum(u, axis=0)
    k = np.arange(1, n + 1, dtype=float)[:, None]
    # the positivity set is always {1..rho}, so counting works
    rho = np.count_nonzero(u - (css - 1.0) / k > 0.0, axis=0)
    tau = (css[rho - 1, np.arange(v.shape[1])] - 1.0) / rho
    return np.maximum(v - tau[None, :], 0.0)


def condition_of_gram(gram: np.ndarray) -> float:
    """Eigenvalue ratio of a symmetric PSD Gram matrix.

    Returns +inf when the Gram is rank deficient at double-precision
    resolution (smallest eigenvalue below 1e-15 of the largest, or below
    the 1e-300 underflow floor).
    """
    eigs = np.linalg.eigvalsh(np.asarray(gram, dtype=float))
    lo, hi = eigs[0], eigs[-1]
    if hi <= 0.0:
        return float("inf")
    if lo <= max(1e-300, hi * 1e-15):
        return float("inf")
    return float(hi / lo)


def _support_fit(atoms, target, support):
    """Least squares on the support under sum(w) = 1, in data form.

    The first support atom is the pivot: w_pivot = 1 - sum(rest), which
    turns the constrained fit into an unconstrained one on the differences
    A_rest - a_pivot (null-space coordinates of 1^T).
    """
    pivot, rest = support[0], support[1:]
    z = np.zeros(atoms.shape[1])
    z[pivot] = 1.0
    if rest.size:
        base = atoms[:, pivot]
        y = np.linalg.lstsq(atoms[:, rest] - base[:, None], target - base, rcond=None)[0]
        z[rest] = y
        z[pivot] -= y.sum()
    return z


def _solve_column(atoms, target, w, m, tol, max_iter):
    """Active-set iterations from the feasible point w; m is the row count
    of the rectangle rule that weights the objective.

    Returns (weights, active-set changes, converged, KKT residual).
    """
    support = w > 0.0
    changes = 0
    entering = -1
    converged = False
    while True:
        # optimal fit on the support, backing off to the boundary of the
        # simplex whenever a support weight would turn nonpositive
        while True:
            idx = np.flatnonzero(support)
            z = _support_fit(atoms, target, idx)
            if entering >= 0 and z[entering] <= 0.0:
                # the entering atom brings no decrease at working precision
                support[entering] = False
                break
            blocking = idx[z[idx] <= 0.0]
            if blocking.size == 0:
                w = z
                break
            ratio = w[blocking] / (w[blocking] - z[blocking])
            k = int(np.argmin(ratio))
            w = np.maximum(w + ratio[k] * (z - w), 0.0)
            w[blocking[k]] = 0.0
            w /= w.sum()
            support = w > 0.0
            changes += 1
            entering = -1
        grad = 2.0 * atoms.T @ (atoms @ w - target) / m
        mu = float(w @ grad)
        gap = np.where(support, -np.inf, mu - grad)
        j = int(np.argmax(gap))
        kkt = max(float(np.abs(grad[support] - mu).max()), float(gap[j]), 0.0)
        if gap[j] <= tol:
            converged = True
            break
        if j == entering or changes >= max_iter:
            break
        support[j] = True
        entering = j
        changes += 1
    return w, changes, converged, kkt


def solve_batch(
    atoms: np.ndarray,
    targets: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BatchResult:
    """Solve the simplex least-squares problem for many targets at once.

    atoms is (M, n), targets (M, T) or a single (M,) target, init (n, T)
    or None. Each column starts from the support of its init column
    projected onto the simplex, or from the nearest atom when init is None.
    A column converges when no gradient entry undercuts the support
    multiplier by more than tol; a column that reaches max_iter active-set
    changes, or whose entering atom brings no decrease at working precision,
    keeps its last iterate and reports converged=False.
    """
    atoms = np.asarray(atoms, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[:, None]
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if atoms.ndim != 2:
        raise ValueError("atoms must be an M x n matrix")
    m, n = atoms.shape
    if targets.shape[0] != m:
        raise ValueError(f"targets have {targets.shape[0]} rows, atoms have {m}")
    t_count = targets.shape[1]
    q, r = np.linalg.qr(atoms)
    projected = q.T @ targets
    if init is None:
        start = np.zeros((n, t_count))
        for t in range(t_count):
            nearest = np.sum((r - projected[:, [t]]) ** 2, axis=0)
            start[int(np.argmin(nearest)), t] = 1.0
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (n, t_count):
            raise ValueError(f"init shape {init.shape} != {(n, t_count)}")
        start = project_columns_to_simplex(init)

    weights = np.empty((n, t_count))
    iterations = np.empty(t_count, dtype=int)
    converged = np.empty(t_count, dtype=bool)
    kkt = np.empty(t_count)
    for t in range(t_count):
        weights[:, t], iterations[t], converged[t], kkt[t] = _solve_column(
            r, projected[:, t], start[:, t], m, tol, max_iter
        )
    return BatchResult(
        weights=weights,
        objective=_data_objective(atoms, targets, weights),
        iterations=iterations,
        converged=converged,
        kkt=kkt,
    )


def _data_objective(atoms, targets, w):
    resid = atoms @ w - targets
    return np.mean(resid**2, axis=0)

