"""References the benchmark checks the program's outputs against.

Nothing here calls into baryrom: every quantity is recomputed from the
arrays the program wrote, so a faster but wrong stage cannot pass.
"""

from __future__ import annotations

import numpy as np


def icdf(raw: np.ndarray, m: int, x_min: float, x_max: float) -> np.ndarray:
    """icdf of a raw profile on an m-point probability grid.

    The profile is augmented with the cells (0, 1), normalised and
    accumulated; each probe p takes the first cdf node at or above p and
    interpolates linearly inside that cell (the generalised inverse).
    """
    aug = np.concatenate([[0.0, 1.0], np.asarray(raw, dtype=float)])
    c = np.cumsum(aug / aug.sum())
    x = np.linspace(x_min, x_max, c.size)
    p = np.minimum(np.linspace(0.0, 1.0, m), c[-1])
    i = np.clip(np.searchsorted(c, p, side="left"), 1, c.size - 1)
    width = c[i] - c[i - 1]
    frac = np.divide(p - c[i - 1], width, out=np.zeros_like(p), where=width > 0.0)
    return x[i - 1] + (x[i] - x[i - 1]) * np.clip(frac, 0.0, 1.0)


def icdfs(values: np.ndarray, x_min: float, x_max: float) -> np.ndarray:
    """(M, K) icdf matrix of the (K, N) snapshot rows, M = N + 2."""
    m = values.shape[1] + 2
    return np.column_stack([icdf(row, m, x_min, x_max) for row in values])


def profile(ic: np.ndarray, mass: float, n_raw: int, x_min: float, x_max: float) -> np.ndarray:
    """Saturation profile carrying `mass` whose augmented icdf is `ic`.

    Inverts the icdf on the n_raw + 2 spatial nodes, differentiates, drops
    the two augmentation cells and rescales the rest to the mass.
    """
    mass = max(float(mass), 0.0)
    if mass == 0.0:
        return np.zeros(n_raw)
    p = np.linspace(0.0, 1.0, ic.size)
    x = np.linspace(x_min, x_max, n_raw + 2)
    j = np.searchsorted(ic, x, side="left")
    beyond = j >= ic.size
    j = np.clip(j, 1, ic.size - 1)
    width = ic[j] - ic[j - 1]
    frac = np.divide(x - ic[j - 1], width, out=np.zeros_like(x), where=width > 0.0)
    cdf = p[j - 1] + (p[j] - p[j - 1]) * np.clip(frac, 0.0, 1.0)
    cdf[beyond] = 1.0
    cdf = np.clip(cdf, 0.0, 1.0)
    body = np.maximum(np.diff(cdf)[1:], 0.0)
    total = body.sum()
    if total <= 0.0:
        return np.zeros(n_raw)
    return body * (mass / (total * (x_max - x_min) / n_raw))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex, by
    bisection on the shift tau with sum(max(v - tau, 0)) = 1."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    lo, hi = v.min(axis=1) - 1.0, v.max(axis=1)
    for _ in range(100):
        tau = 0.5 * (lo + hi)
        over = np.maximum(v - tau[:, None], 0.0).sum(axis=1) > 1.0
        lo, hi = np.where(over, tau, lo), np.where(over, hi, tau)
    w = np.maximum(v - hi[:, None], 0.0)
    return w / w.sum(axis=1, keepdims=True)


def w2(atoms: np.ndarray, weights: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Data-form W2 error of each barycenter column against its target."""
    resid = atoms @ weights - targets
    return np.sqrt(np.mean(resid**2, axis=0))


def _support_ls(atoms: np.ndarray, target: np.ndarray, support: list[int]) -> np.ndarray:
    """Least squares on the support under sum(w) = 1, in data form.

    The first support atom is the pivot: w_pivot = 1 - sum(rest), which
    turns the constrained fit into an unconstrained one on differences.
    """
    pivot, rest = support[0], support[1:]
    z = np.zeros(atoms.shape[1])
    if not rest:
        z[pivot] = 1.0
        return z
    diffs = atoms[:, rest] - atoms[:, [pivot]]
    y, *_ = np.linalg.lstsq(diffs, target - atoms[:, pivot], rcond=None)
    z[rest] = y
    z[pivot] = 1.0 - y.sum()
    return z


def simplex_ls(atoms: np.ndarray, target: np.ndarray, max_iter: int | None = None):
    """Exact least squares over the probability simplex.

    Primal active set in the style of Lawson and Hanson (1974): start at
    the nearest atom, add the atom whose gradient entry most undercuts the
    support's common multiplier, solve the equality-constrained fit on the
    support and step back along the segment whenever a support weight
    would turn nonpositive. Every outer step lowers the objective and each
    solve is O(M n^2), so the cost is polynomial in n.

    Returns (weights, w2_error, converged).
    """
    atoms = np.asarray(atoms, dtype=float)
    target = np.asarray(target, dtype=float)
    n = atoms.shape[1]
    max_iter = 10 * n + 10 if max_iter is None else max_iter
    start = int(np.argmin(np.sum((atoms - target[:, None]) ** 2, axis=0)))
    support = [start]
    w = np.zeros(n)
    w[start] = 1.0
    scale = np.abs(atoms).max() ** 2 * atoms.shape[0]
    converged = False
    for _ in range(max_iter):
        grad = atoms.T @ (atoms @ w - target)
        mu = float(w @ grad)
        outside = np.setdiff1d(np.arange(n), support)
        if outside.size == 0:
            converged = True
            break
        j = int(outside[np.argmin(grad[outside])])
        if grad[j] >= mu - 1e-13 * scale:
            converged = True
            break
        support.append(j)
        while True:
            z = _support_ls(atoms, target, support)
            if np.all(z[support] > 0.0):
                w = z
                break
            shrink = [i for i in support if z[i] <= 0.0]
            alpha = min(w[i] / (w[i] - z[i]) for i in shrink)
            w = w + alpha * (z - w)
            support = [i for i in support if w[i] > 1e-15]
            w[[i for i in range(n) if i not in support]] = 0.0
            w /= w.sum()
            if len(support) == 1:
                w = _support_ls(atoms, target, support)
                break
    return w, float(np.sqrt(np.mean((atoms @ w - target) ** 2))), converged


def simplex_ls_batch(atoms: np.ndarray, targets: np.ndarray):
    """simplex_ls for every column of targets: (weights (n, T), w2 (T,), converged (T,))."""
    results = [simplex_ls(atoms, targets[:, k]) for k in range(targets.shape[1])]
    weights = np.column_stack([r[0] for r in results])
    errors = np.array([r[1] for r in results])
    converged = np.array([r[2] for r in results])
    return weights, errors, converged


SECONDS_PER_YEAR = 365.0 * 86400.0


def _bound(value, combo: dict) -> float:
    """A config number, or a {"param", "scale"} binding resolved at combo."""
    if isinstance(value, dict):
        return float(value.get("scale", 1.0)) * float(combo[value["param"]])
    return float(value)


def rock_fields(cfg: dict, combo: dict):
    """Per-cell porosity and permeability [m^2] of a raw config at combo;
    a two-region rock takes its left values in cells whose centre lies
    before the interface."""
    grid, rock = cfg["grid"], cfg["rock"]
    n = int(grid["n_cells"])
    if rock["kind"] == "homogeneous":
        return (np.full(n, _bound(rock["porosity"], combo)),
                np.full(n, _bound(rock["permeability_m2"], combo)))
    x_min, x_max = float(grid["x_min_km"]), float(grid["x_max_km"])
    centres = x_min + (np.arange(n) + 0.5) * (x_max - x_min) / n
    left = centres < _bound(rock["interface_km"], combo)
    phi = np.where(left, _bound(rock["left"]["porosity"], combo), _bound(rock["right"]["porosity"], combo))
    k = np.where(left, _bound(rock["left"]["permeability_m2"], combo),
                 _bound(rock["right"]["permeability_m2"], combo))
    return phi, k


def impes(cfg: dict, combo: dict, times_yr) -> np.ndarray:
    """Saturation profiles (len(times_yr), n_cells) of a raw config at combo.

    1D incompressible flow without gravity or capillarity carries the same
    total flux q through every face, so the pressure solve reduces to
    q = (p_left - p_right) / sum of the face resistances dx / (k_face
    lambda_t), with harmonic face permeability (2 k at the two boundary
    half-cells) and the total mobility of the upstream cell (the inflow
    saturation at the inlet). The saturation then takes explicit upwind
    steps of safety * min(phi dx / (q max|f'|)), with max|f'| over 1001
    saturations, truncated to land on every snapshot time.
    """
    bc, fluids = cfg["boundary"], cfg["fluids"]
    p_left, p_right = float(bc["p_left_pa"]), float(bc["p_right_pa"])
    if not p_left > p_right:
        raise ValueError("the reference flows left to right")
    mu_w, mu_nw = _bound(fluids["mu_w_pa_s"], combo), _bound(fluids["mu_nw_pa_s"], combo)
    beta = _bound(fluids["beta"], combo)
    safety = float(cfg.get("cfl_safety", 0.9))
    grid = cfg["grid"]
    n = int(grid["n_cells"])
    dx_m = (float(grid["x_max_km"]) - float(grid["x_min_km"])) / n * 1000.0
    phi, k = rock_fields(cfg, combo)
    k_face = np.concatenate([[2.0 * k[0]], 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:]), [2.0 * k[-1]]])
    resist = dx_m / k_face

    sat = np.linspace(0.0, 1.0, 1001)
    lam_w, lam_nw = sat**beta / mu_w, (1.0 - sat) ** beta / mu_nw
    dlam_t = beta * sat ** (beta - 1.0) / mu_w - beta * (1.0 - sat) ** (beta - 1.0) / mu_nw
    slope = (beta * sat ** (beta - 1.0) / mu_w * (lam_w + lam_nw) - lam_w * dlam_t) / (lam_w + lam_nw) ** 2
    step_bound = safety * float(np.min(phi * dx_m)) / float(np.max(np.abs(slope)))
    per_volume = 1.0 / (phi * dx_m)

    s = np.full(n, float(bc["s_initial"]))
    up = np.empty(n + 1)
    up[0] = float(bc["s_inflow"])
    out = []
    t = 0.0
    for t_yr in times_yr:
        target = float(t_yr) * SECONDS_PER_YEAR
        while target - t > 1e-9 * max(target, 1.0):
            up[1:] = s
            lam_w = up**beta / mu_w
            lam_t = lam_w + (1.0 - up) ** beta / mu_nw
            q = (p_left - p_right) / float(np.sum(resist / lam_t))
            dt = min(step_bound / q, target - t)
            s = np.clip(s - dt * q * per_volume * np.diff(lam_w / lam_t), 0.0, 1.0)
            t += dt
        t = target
        out.append(s.copy())
    return np.array(out)


def hat_matrix(axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(P, len(axis)) piecewise-linear hat-function weights of each value."""
    eye = np.eye(axis.size)
    return np.column_stack([np.interp(values, axis, eye[i]) for i in range(axis.size)])


def multilinear(table: np.ndarray, axes, points: np.ndarray) -> np.ndarray:
    """Tensor-product linear interpolation of table (*grid, ...) at (P, d) points."""
    hats = [hat_matrix(np.asarray(ax, dtype=float), points[:, j]) for j, ax in enumerate(axes)]
    out = np.einsum("pa,ab...->pb...", hats[0], table)
    for h in hats[1:]:
        out = np.einsum("pa,pa...->p...", h, out)
    return out


def pod_mean_errors(snapshots: np.ndarray, n_max: int) -> np.ndarray:
    """Mean relative L1 error of the rank-n SVD projection, n = 1..n_max,
    for an (N, K) snapshot matrix."""
    u, _, _ = np.linalg.svd(snapshots, full_matrices=False)
    norms = np.abs(snapshots).sum(axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    out = np.empty(n_max)
    for n in range(1, n_max + 1):
        basis = u[:, :n]
        resid = snapshots - basis @ (basis.T @ snapshots)
        out[n - 1] = float(np.mean(np.abs(resid).sum(axis=0) / norms))
    return out


def polygon(n: int) -> np.ndarray:
    """Regular n-gon on the unit circle, counter-clockwise from 90 degrees."""
    ang = 0.5 * np.pi + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def interior_raster(n: int, resolution: int, margin: float = 1e-12) -> np.ndarray:
    """Raster points of [-1, 1]^2 strictly inside the regular n-gon."""
    verts = polygon(n)
    coords = np.linspace(-1.0, 1.0, resolution)
    gx, gy = np.meshgrid(coords, coords)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = np.ones(len(pts), dtype=bool)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
        inside &= 0.5 * cross > margin
    return pts[inside]
