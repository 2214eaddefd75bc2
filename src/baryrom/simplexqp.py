"""Least squares over the probability simplex.

Finds the barycentric weights min_{L in simplex} ||A L - f||^2 where the
columns of A are discrete icdf atoms and the norm carries the same 1/M
rectangle-rule weight as the W2 distance, so the optimal objective is
exactly the squared W2 error of the best barycenter.

The solver is an exact primal active-set method in the style of Lawson and
Hanson (1974), run for all target columns at once:

- On the current support it solves the equality-constrained least squares
  in data form, in null-space coordinates of 1^T, by a minimum-norm SVD
  solve with `lstsq`'s cutoff. The Gram matrix A^T A is never formed: on
  nearly dependent icdfs its squared condition number cancels
  catastrophically. One thin QR of the atom matrix per batch, A = QR,
  replaces A and f by R and Q^T f, which changes the objective by a
  constant only, so every fit runs on n rows instead of M.
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

Two things make the batch cheap (Bro and De Jong, FNNLS, 1997; Van Benthem
and Keenan, 2004). A warm start that is already optimal is screened out by
one gradient product over all columns: when a greedy sweep appends an atom,
most previous optima still pass the KKT test and keep their weights with
zero changes. A caller that knows the objectives of its warm starts passes
them as `init_objective`; a screened column then returns its value as it
is, and only the other columns get a data-form residual. A greedy sweep
knows them: its warm start is last sweep's optimum with a zero weight on
the new atom, so its objective is last sweep's. The other columns advance
in lockstep, one active-set change per round, and a column leaves the batch
as soon as it is done; the columns of a round that share a support size
share one stacked solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50_000
# an init column must be nonnegative and sum to 1 within this, far above the
# rounding of the solver's own weights
SIMPLEX_SUM_TOL = 1e-12


@dataclass(frozen=True)
class BatchResult:
    """Per-column results of a batched simplex solve."""

    weights: np.ndarray  # (n, T)
    objective: np.ndarray  # (T,)
    iterations: np.ndarray  # (T,) active-set changes
    converged: np.ndarray  # (T,) bool
    kkt: np.ndarray  # (T,) KKT residual: multiplier gap and support spread
    screened: np.ndarray  # (T,) bool, init column already optimal and kept


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a vector (n,),
    or of each column of an (n, T) array.

    Sort-based thresholding: with the entries sorted in decreasing order,
    rho = max{k : v_(k) - (sum_{j<=k} v_(j) - 1)/k > 0} and the projection is
    max(v - tau, 0) with tau = (sum_{j<=rho} v_(j) - 1)/rho.
    """
    v = np.asarray(v, dtype=float)
    cols = v.reshape(v.shape[0], -1)
    u = -np.sort(-cols, axis=0)
    css = np.cumsum(u, axis=0)
    k = np.arange(1, cols.shape[0] + 1, dtype=float)[:, None]
    # the positivity set is always {1..rho}, so counting works
    rho = np.count_nonzero(u - (css - 1.0) / k > 0.0, axis=0)
    tau = (css[rho - 1, np.arange(cols.shape[1])] - 1.0) / rho
    return np.maximum(cols - tau[None, :], 0.0).reshape(v.shape)


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


def _rowwise(x, mat):
    """x @ mat with every row of x as its own vector-matrix product.

    One matrix product over the whole batch would round a row differently
    from a one-row batch, so a solve would depend on the rest of its batch.
    """
    return (x[:, None, :] @ mat)[:, 0, :]


def _lstsq_stack(mats, rhs):
    """Minimum-norm least squares of a stack of systems, mats (G, r, k) and
    rhs (G, r): the SVD with `lstsq`'s default cutoff, singular values at or
    below eps * max(r, k) of the largest count as zero."""
    u, sv, vt = np.linalg.svd(mats, full_matrices=False)
    cutoff = np.finfo(float).eps * max(mats.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
    coef = (rhs[:, None, :] @ u)[:, 0, :] * inv
    return (coef[:, None, :] @ vt)[:, 0, :]


def _support_fits(r, p, support):
    """Least squares of every row's target p on its support under
    sum(w) = 1, in data form; support is (C, n) bool.

    The first support atom of a row is its pivot: w_pivot = 1 - sum(rest),
    which turns the constrained fit into an unconstrained one on the
    differences A_rest - a_pivot (null-space coordinates of 1^T). Rows with
    the same support size share one stacked solve.
    """
    z = np.zeros(support.shape)
    sizes = np.count_nonzero(support, axis=1)
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        idx = np.nonzero(support[rows])[1].reshape(rows.size, size)
        pivot, rest = idx[:, 0], idx[:, 1:]
        z[rows, pivot] = 1.0
        if size > 1:
            base = r[:, pivot].T  # (G, K)
            diffs = r[:, rest].transpose(1, 0, 2) - base[:, :, None]  # (G, K, size - 1)
            y = _lstsq_stack(diffs, p[rows] - base)
            z[rows[:, None], rest] = y
            z[rows, pivot] -= y.sum(axis=1)
    return z


def _kkt_check(r, p, w, support, m):
    """Gradient test of the rows w on their supports.

    Returns, per row, the outside atom whose gradient entry most undercuts
    the multiplier mu = w^T grad, by how much it does (-inf when every atom
    is in the support), and the KKT residual: the larger of that gap and the
    spread of the support's gradient entries around mu.
    """
    grad = 2.0 * _rowwise(_rowwise(w, r.T) - p, r) / m
    mu = np.sum(w * grad, axis=1)[:, None]
    gaps = np.where(support, -np.inf, mu - grad)
    entering = np.argmax(gaps, axis=1)
    gap = gaps[np.arange(w.shape[0]), entering]
    spread = np.where(support, np.abs(grad - mu), 0.0).max(axis=1)
    return entering, gap, np.maximum(spread, np.maximum(gap, 0.0))


def _step_back(w, z, support):
    """Move each row from w toward its fit z up to the first support weight
    that reaches zero; that atom leaves the support."""
    blocking = support & (z <= 0.0)
    ratio = np.divide(w, w - z, out=np.full(w.shape, np.inf), where=blocking)
    first = np.argmin(ratio, axis=1)
    rows = np.arange(w.shape[0])
    w = np.maximum(w + ratio[rows, first][:, None] * (z - w), 0.0)
    w[rows, first] = 0.0
    return w / w.sum(axis=1, keepdims=True)


def solve_batch(
    atoms: np.ndarray,
    targets: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init_objective: np.ndarray | None = None,
) -> BatchResult:
    """Solve the simplex least-squares problem for many targets at once.

    atoms is (M, n), targets (M, T) or a single (M,) target, init (n, T)
    or None. An init column that passes the KKT test at tol on its own
    support is returned as it is (screened).
    init_objective (T,), the objective of each init column, is then that
    column's objective as it is; without it, or for any other column, the
    objective is computed from the weights.
    Every other column starts from its init column, or from the nearest
    atom when init is None. An init column must lie on the simplex:
    nonnegative and summing to 1 within SIMPLEX_SUM_TOL (ValueError).
    A column converges when no gradient entry undercuts the support
    multiplier by more than tol; a column that reaches max_iter active-set
    changes, or whose entering atom brings no decrease at working precision,
    keeps its last iterate and reports converged=False. A column's weights,
    changes and KKT residual do not depend on the other columns of the batch.
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
    if init_objective is not None and np.shape(init_objective) != (t_count,):
        raise ValueError(f"init_objective shape {np.shape(init_objective)} != {(t_count,)}")
    # the solver works on rows: one row per target column
    q, r = np.linalg.qr(atoms)
    projected = _rowwise(targets.T, q)
    weights = np.zeros((t_count, n))
    iterations = np.zeros(t_count, dtype=int)
    converged = np.zeros(t_count, dtype=bool)
    screened = np.zeros(t_count, dtype=bool)
    kkt = np.zeros(t_count)
    if init is None:
        start = np.zeros((t_count, n))
        nearest = np.sum((r[None, :, :] - projected[:, :, None]) ** 2, axis=1)
        start[np.arange(t_count), np.argmin(nearest, axis=1)] = 1.0
    else:
        init = np.asarray(init, dtype=float)
        if init.shape != (n, t_count):
            raise ValueError(f"init shape {init.shape} != {(n, t_count)}")
        # a NaN entry fails both tests
        if not (np.all(init >= 0.0) and np.all(np.abs(init.sum(axis=0) - 1.0) <= SIMPLEX_SUM_TOL)):
            raise ValueError("every init column must be nonnegative and sum to 1")
        start = np.ascontiguousarray(init.T)  # C-ordered rows, as the rounds' copies are
        _, _, res = _kkt_check(r, projected, start, start > 0.0, m)
        screened = res <= tol
        weights[screened] = start[screened]
        kkt[screened] = res[screened]
        converged[screened] = True

    # lockstep active-set rounds over the open rows: each round fits every
    # open row on its support, then steps back to the boundary or runs the
    # gradient test; a row leaves as soon as it is done
    rows = np.flatnonzero(~screened)
    w = start[rows]
    support = w > 0.0
    changes = np.zeros(rows.size, dtype=int)
    entering = np.full(rows.size, -1)
    while rows.size:
        z = _support_fits(r, projected[rows], support)
        here = np.arange(rows.size)
        # the entering atom brings no decrease at working precision
        no_gain = (entering >= 0) & (z[here, entering] <= 0.0)
        support[here[no_gain], entering[no_gain]] = False
        back = ~no_gain & np.any(support & (z <= 0.0), axis=1)
        if back.any():
            w[back] = _step_back(w[back], z[back], support[back])
            support[back] = w[back] > 0.0
            changes[back] += 1
            entering[back] = -1
        fitted = ~no_gain & ~back
        w[fitted] = z[fitted]

        test = np.flatnonzero(~back)
        j, gap, res = _kkt_check(r, projected[rows[test]], w[test], support[test], m)
        ok = gap <= tol
        stop = ok | (j == entering[test]) | (changes[test] >= max_iter)
        grow = test[~stop]
        support[grow, j[~stop]] = True
        entering[grow] = j[~stop]
        changes[grow] += 1

        done, out = test[stop], rows[test[stop]]
        weights[out] = w[done]
        iterations[out] = changes[done]
        converged[out] = ok[stop]
        kkt[out] = res[stop]
        live = np.ones(rows.size, dtype=bool)
        live[done] = False
        rows, w, support = rows[live], w[live], support[live]
        changes, entering = changes[live], entering[live]
    if init_objective is None:
        objective = _data_objective(atoms, targets, weights.T)
    else:
        objective = np.array(init_objective, dtype=float)
        objective[~screened] = _data_objective(atoms, targets[:, ~screened], weights[~screened].T)
    return BatchResult(
        weights=weights.T,
        objective=objective,
        iterations=iterations,
        converged=converged,
        kkt=kkt,
        screened=screened,
    )


def _data_objective(atoms, targets, w):
    resid = atoms @ w - targets
    return np.mean(resid**2, axis=0)

