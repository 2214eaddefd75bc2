"""Independent brute-force references used across the test suite."""

from itertools import chain, combinations

import numpy as np
from scipy.optimize import brentq


def simplex_ls_active_set(atoms: np.ndarray, target: np.ndarray):
    """Exact simplex least squares by exhaustive active-set enumeration.

    Solves the equality-constrained least squares on every face of the
    simplex (every nonempty support set) via the KKT system and returns the
    best feasible candidate. Only usable for small atom counts.
    """
    m, n = atoms.shape
    gram = atoms.T @ atoms / m
    cross = atoms.T @ target / m
    const = float(np.mean(target**2))

    best_w, best_f = None, np.inf
    supports = chain.from_iterable(
        combinations(range(n), r) for r in range(1, n + 1)
    )
    for support in supports:
        s = list(support)
        k = len(s)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * gram[np.ix_(s, s)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([2.0 * cross[s], [1.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        w_s = sol[:k]
        if np.any(w_s < -1e-10):
            continue
        w = np.zeros(n)
        w[s] = np.clip(w_s, 0.0, None)
        w /= w.sum()
        f = float(w @ gram @ w - 2.0 * cross @ w + const)
        if f < best_f:
            best_f, best_w = f, w
    return best_w, best_f


def project_simplex_kkt_enumeration(v: np.ndarray):
    """Euclidean simplex projection by brute force over active sets."""
    v = np.asarray(v, dtype=float)
    n = v.size
    best_w, best_d = None, np.inf
    for r in range(1, n + 1):
        for support in combinations(range(n), r):
            s = list(support)
            # on the face, minimizing ||w - v||^2 with sum w = 1 shifts every
            # free coordinate by the same tau
            tau = (v[s].sum() - 1.0) / len(s)
            w = np.zeros(n)
            w[s] = v[s] - tau
            if np.any(w[s] < -1e-12):
                continue
            d = float(np.sum((w - v) ** 2))
            if d < best_d:
                best_d, best_w = d, np.maximum(w, 0.0)
    return best_w


def impes_textbook(dx_m, porosity, permeability, mu_w, mu_nw, beta, p_left, p_right,
                   s_inflow, s_initial, times_s, safety=0.9):
    """IMPES of one 1D two-phase row, written the textbook way.

    Mobilities lambda_w = s^beta / mu_w and lambda_nw = (1 - s)^beta / mu_nw
    of each face's upwind saturation (the inflow saturation at the inlet
    face), face resistances dx / (k_face lambda_t) in series, with harmonic
    k_face and half cells at the boundary faces, the total flux q = (p_left
    - p_right) / their sum, upwind fluxes q f_w and the update s - dt / (phi
    dx) div(q f_w). Steps are safety * min(phi dx) / (|q| max|f_w'|), with
    max|f_w'| over 1001 saturations, truncated to land on every snapshot
    time (seconds) within 1e-9 relative. Returns the (T, N) snapshots, the
    step count and the smallest CFL bound.
    """
    phi = np.asarray(porosity, dtype=float)
    k = np.asarray(permeability, dtype=float)
    k_face = np.concatenate([[2.0 * k[0]], 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:]), [2.0 * k[-1]]])
    rock_resist = dx_m / k_face

    def mobilities(s):
        return s**beta / mu_w, (1.0 - s) ** beta / mu_nw

    sat = np.linspace(0.0, 1.0, 1001)
    lam_w, lam_nw = mobilities(sat)
    dlam_w = beta * sat ** (beta - 1.0) / mu_w
    dlam_nw = -beta * (1.0 - sat) ** (beta - 1.0) / mu_nw
    slope = (dlam_w * lam_nw - lam_w * dlam_nw) / (lam_w + lam_nw) ** 2
    lf = float(np.max(np.abs(slope)))

    s = np.full(phi.size, float(s_initial))
    forward = p_left > p_right
    out, steps, min_dt, t = [], 0, np.inf, 0.0
    for target in times_s:
        while target - t > 1e-9 * max(target, 1.0):
            # the upwind saturation of faces 0..N
            up = np.concatenate([[s_inflow], s] if forward else [s, [s_inflow]])
            lam_w, lam_nw = mobilities(up)
            lam_t = lam_w + lam_nw
            q = (p_left - p_right) / np.sum(rock_resist / lam_t)
            cfl = safety * np.min(phi * dx_m) / (abs(q) * lf)
            dt = min(cfl, target - t)
            flux = q * lam_w / lam_t
            s = np.clip(s - dt / (phi * dx_m) * np.diff(flux), 0.0, 1.0)
            t += dt
            steps += 1
            min_dt = min(min_dt, cfl)
        t = target
        out.append(s.copy())
    return np.array(out), steps, min_dt


def landscape_log10_w2(atoms: np.ndarray, weights: np.ndarray, target: np.ndarray):
    """log10 W2 of every pixel's barycenter, the plain data form: the
    residual atoms @ w - target over all icdf nodes, one pixel at a time,
    with the landscape's 1e-300 floor on W2^2."""
    w2_sq = np.array([np.mean((atoms @ w - target) ** 2) for w in weights])
    return 0.5 * np.log10(np.maximum(w2_sq, 1e-300))


def landscape_image(grid, resolution: int) -> np.ndarray:
    """(resolution, resolution) image of a landscape's log10 W2, NaN at the
    pixels outside the polygon. Each pixel's (col, row) index is recovered
    from its coordinates on linspace(-1, 1, resolution), and checked to
    give those coordinates back exactly."""
    coords = np.linspace(-1.0, 1.0, resolution)
    col, row = np.rint((grid.xy + 1.0) / 2.0 * (resolution - 1)).astype(int).T
    assert np.array_equal(coords[col], grid.xy[:, 0]) and np.array_equal(coords[row], grid.xy[:, 1])
    img = np.full((resolution, resolution), np.nan)
    img[row, col] = grid.log10_w2
    return img


def f_w(s, fluids):
    """Closed-form wetting fractional flow of the power-law mobilities."""
    lam_w = s**fluids.beta / fluids.mu_w
    return lam_w / (lam_w + (1.0 - s) ** fluids.beta / fluids.mu_nw)


def f_w_derivative(s, fluids):
    """Closed-form derivative of `f_w` in s."""
    beta = fluids.beta
    lam_w, lam_nw = s**beta / fluids.mu_w, (1.0 - s) ** beta / fluids.mu_nw
    dlam_w = beta * s ** (beta - 1.0) / fluids.mu_w
    dlam_nw = -beta * (1.0 - s) ** (beta - 1.0) / fluids.mu_nw
    return (dlam_w * lam_nw - lam_w * dlam_nw) / (lam_w + lam_nw) ** 2


def buckley_leverett(x_m, injected_m, porosity, fluids):
    """Self-similar solution behind a Welge-tangent shock into s = 0, for
    injected volume injected_m [m] per unit area at s = 1."""
    f = lambda s: f_w(s, fluids)  # noqa: E731
    df = lambda s: f_w_derivative(s, fluids)  # noqa: E731
    sat = np.linspace(0.0, 1.0, 100001)[1:]
    i = int(np.argmax(f(sat) / sat))  # tangent from the initial state
    shock = brentq(lambda s: df(s) * s - f(s), sat[i - 1], sat[i + 1])
    fan = np.linspace(shock, 1.0, 20001)
    x_fan = injected_m / porosity * df(fan)  # decreasing along the fan
    return np.where(x_m < x_fan[0], np.interp(x_m, x_fan[::-1], fan[::-1]), 0.0)
