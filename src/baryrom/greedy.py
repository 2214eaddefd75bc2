"""Greedy selection of icdf atoms for the barycentric dictionary.

Worst-case driven: each iteration solves one simplex least-squares problem
per training snapshot against the current atoms and promotes the snapshot
with the largest residual W2 error to the dictionary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import simplexqp

TERM_ABSOLUTE = "absolute"
TERM_RELATIVE = "relative"
TERM_MAX_ATOMS = "max_atoms"
TERM_EXHAUSTED = "exhausted"  # every training point is already an atom


@dataclass(frozen=True)
class Dictionary:
    """Selected atoms (columns) and their training indices."""

    atoms: np.ndarray  # (M, n)
    atom_indices: np.ndarray  # (n,) indices into the training set

    @property
    def size(self) -> int:
        return self.atoms.shape[1]


@dataclass
class GreedyReport:
    """Per-iteration diagnostics, one list per column of greedy_report.csv:
    entry k describes the dictionary of n[k] atoms. `run` fills every
    column but l1_mean and l1_max, which its caller tracks."""

    n: list[int] = field(default_factory=list)
    delta: list[float] = field(default_factory=list)
    mean_w2: list[float] = field(default_factory=list)
    condition: list[float] = field(default_factory=list)
    volume: list[float] = field(default_factory=list)
    l1_mean: list[float] = field(default_factory=list)
    l1_max: list[float] = field(default_factory=list)
    qp_iters_max: list[int] = field(default_factory=list)
    n_unconverged: list[int] = field(default_factory=list)
    kkt_max: list[float] = field(default_factory=list)
    termination: str = ""


@dataclass(frozen=True)
class StepResult:
    next_index: int
    delta: float
    errors: np.ndarray  # (K,) per-snapshot W2 error
    qp: simplexqp.BatchResult  # the sweep's solves; weights (n, K)


def _sq_distances(icdfs: np.ndarray) -> np.ndarray:
    """Squared pairwise L2(0,1) distances of the columns, from their Gram."""
    sq = np.sum(icdfs**2, axis=0) / icdfs.shape[0]
    gram = icdfs.T @ icdfs / icdfs.shape[0]
    return sq[:, None] + sq[None, :] - 2.0 * gram


def init_pair(train: np.ndarray) -> tuple[int, int]:
    """Indices of the pair of training icdfs at maximal L2(0,1) distance.

    Ties break to the lexicographically smallest (i, j).
    """
    train = np.asarray(train, dtype=float)
    k = train.shape[1]
    if k < 2:
        raise ValueError("need at least 2 training snapshots")
    d2 = _sq_distances(train)
    d2[np.tril_indices(k)] = -np.inf
    flat = int(np.argmax(d2))
    return flat // k, flat % k


def make_dictionary(train: np.ndarray, indices) -> Dictionary:
    indices = np.asarray(indices, dtype=int)
    return Dictionary(atoms=train[:, indices], atom_indices=indices)


def greedy_step(
    dictionary: Dictionary,
    train: np.ndarray,
    warm: np.ndarray | None = None,
    tol: float = simplexqp.DEFAULT_TOL,
    warm_objective: np.ndarray | None = None,
) -> StepResult:
    """One residual sweep: solve all per-snapshot QPs, pick the worst snapshot.

    warm_objective (K,) is the objective of each warm column; a solve that
    keeps its warm start keeps it too (see `simplexqp.solve_batch`).
    Training columns already in the dictionary (its `atom_indices`) are
    excluded from the argmax.
    """
    if dictionary.size < 2:
        raise ValueError("dictionary must hold at least 2 atoms")
    res = simplexqp.solve_batch(
        dictionary.atoms, train, warm, tol, init_objective=warm_objective
    )
    errors = np.sqrt(np.maximum(res.objective, 0.0))
    masked = errors.copy()
    masked[dictionary.atom_indices] = -np.inf
    next_index = int(np.argmax(masked)) if np.isfinite(masked.max()) else -1
    return StepResult(next_index=next_index, delta=float(errors.max()), errors=errors, qp=res)


def cayley_menger_volume(atoms: np.ndarray) -> float:
    """Volume of the simplex spanned by the atom icdfs, normalized by the
    regular unit-edge simplex of the same dimension.

    Built from the squared pairwise L2(0,1) distances; the bordered
    determinant reduces the normalized value to sqrt(|det|/n). Degenerate
    (affinely dependent) atom sets give 0.
    """
    atoms = np.asarray(atoms, dtype=float)
    n = atoms.shape[1]
    if n < 2:
        raise ValueError("need at least 2 atoms")
    d2 = np.maximum(_sq_distances(atoms), 0.0)
    cm = np.empty((n + 1, n + 1))
    cm[0, 0] = 0.0
    cm[0, 1:] = 1.0
    cm[1:, 0] = 1.0
    cm[1:, 1:] = d2
    sign, logabs = np.linalg.slogdet(cm)
    required = 1.0 if n % 2 == 0 else -1.0
    if sign != required or not math.isfinite(logabs):
        return 0.0
    return math.exp(0.5 * (logabs - math.log(n)))


def run(
    train: np.ndarray,
    eps_abs: float = 0.0,
    eps_rel: float = 0.0,
    n_max: int = 2,
    tol: float = simplexqp.DEFAULT_TOL,
    on_iteration=None,
) -> tuple[Dictionary, GreedyReport, np.ndarray]:
    """Full greedy loop with the three termination criteria.

    eps_rel = 0 disables the relative criterion: with it enabled at zero the
    loop would stop at the first solver-noise increase of the worst-case
    error, which the reference experiments are expected to ride through.

    Returns the dictionary, the per-iteration report, and the (n, K) weight
    matrix of the final sweep. on_iteration(size, indices, step) is called
    with the StepResult of every completed sweep.
    """
    train = np.asarray(train, dtype=float)
    if not 0.0 <= eps_rel < 1.0:
        raise ValueError("eps_rel must lie in [0, 1)")
    if not eps_abs >= 0.0:  # written so that NaN fails too
        raise ValueError("eps_abs must be nonnegative")
    if not n_max >= 2:
        raise ValueError("n_max must be at least 2")

    i0, j0 = init_pair(train)
    selected = [i0, j0]
    report = GreedyReport()
    warm = warm_objective = None
    prev_delta = None

    while True:
        dictionary = make_dictionary(train, selected)
        step = greedy_step(dictionary, train, warm, tol, warm_objective)
        n = dictionary.size
        report.n.append(n)
        report.delta.append(step.delta)
        report.mean_w2.append(float(step.errors.mean()))
        report.condition.append(simplexqp.condition_of_gram(dictionary.atoms.T @ dictionary.atoms))
        report.volume.append(cayley_menger_volume(dictionary.atoms))
        report.qp_iters_max.append(int(step.qp.iterations.max()))
        report.n_unconverged.append(int(np.count_nonzero(~step.qp.converged)))
        report.kkt_max.append(float(step.qp.kkt.max()))
        if on_iteration is not None:
            on_iteration(n, list(selected), step)

        if step.delta < eps_abs:
            report.termination = TERM_ABSOLUTE
            break
        if (
            prev_delta is not None
            and eps_rel > 0.0
            and (prev_delta - step.delta) < eps_rel * prev_delta
        ):
            report.termination = TERM_RELATIVE
            break
        if n >= n_max:
            report.termination = TERM_MAX_ATOMS
            break
        if step.next_index < 0:
            report.termination = TERM_EXHAUSTED
            break

        selected.append(step.next_index)
        # a zero weight on the new atom leaves each column's objective as it is
        warm = np.vstack([step.qp.weights, np.zeros((1, train.shape[1]))])
        warm_objective = step.qp.objective
        prev_delta = step.delta

    return dictionary, report, step.qp.weights
