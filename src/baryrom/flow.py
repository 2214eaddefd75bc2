"""Finite-volume IMPES solver for 1D incompressible two-phase Darcy flow.

Each step solves the pressure from div(v) = 0 with two-point fluxes
(harmonic permeability, total mobility of the upwind cell), then advances
the saturation explicitly with an upwind scheme under a CFL bound.
Gravity and capillary pressure are neglected. With Dirichlet pressures
and no sources the 1D total flux is the same through every face, so the
faces act as resistors in series and the pressure solve is closed-form:
q = (p_left - p_right) / sum_i resist_i / lambda_t(upwind s_i).

`simulate_batch` advances all simulations of a sweep in lockstep as one
(C, N) saturation array. Each row keeps its own CFL step, snapshot clock
and boundary-flux audit, and a row that fails stops alone.
`run_simulation` is its one-row call.

The domain is stored in km to match the reporting convention of the
snapshots; all Darcy computations convert to SI internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

METERS_PER_KM = 1000.0
SECONDS_PER_YEAR = 365.0 * 86400.0

SATURATION_TOL = 1e-12
MAX_PRINCIPLE_TOL = 1e-10


class FlowError(Exception):
    pass


class ZeroFluxError(FlowError):
    """All face fluxes vanish; the stable time step is unbounded."""


class CflViolationError(FlowError):
    """An explicit update left [0, 1] beyond the maximum-principle band."""


class SingularSystemError(FlowError):
    pass


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on (x_min, x_max), coordinates in km."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def dx_m(self) -> float:
        return self.dx * METERS_PER_KM

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class RockField:
    """Per-cell porosity [-] and absolute permeability [m^2]."""

    porosity: np.ndarray
    permeability: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.porosity, dtype=float)
        k = np.asarray(self.permeability, dtype=float)
        if phi.shape != k.shape or phi.ndim != 1:
            raise ValueError("porosity and permeability must be matching 1d arrays")
        if np.any(phi <= 0.0) or np.any(phi > 1.0):
            raise ValueError("porosity must lie in (0, 1]")
        if np.any(k <= 0.0):
            raise ValueError("permeability must be positive")
        object.__setattr__(self, "porosity", phi)
        object.__setattr__(self, "permeability", k)

    @classmethod
    def homogeneous(cls, n_cells: int, porosity: float, permeability: float) -> "RockField":
        return cls(np.full(n_cells, porosity), np.full(n_cells, permeability))


@dataclass(frozen=True)
class FluidParams:
    """Viscosities [Pa s] and the power-law relative permeability exponent."""

    mu_w: float
    mu_nw: float
    beta: float

    def __post_init__(self):
        if self.mu_w <= 0.0 or self.mu_nw <= 0.0:
            raise ValueError("viscosities must be positive")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class BoundaryConditions:
    p_left: float
    p_right: float
    s_inflow: float
    s_initial: float

    def __post_init__(self):
        if self.p_left == self.p_right:
            raise ValueError("boundary pressures must differ")
        for name in ("s_inflow", "s_initial"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Snapshot:
    """One saturation profile tagged with its parameter point z = (t, y)."""

    z: tuple
    values: np.ndarray
    mass: float


def _check_saturation(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < -SATURATION_TOL) or np.any(s > 1.0 + SATURATION_TOL):
        raise ValueError("saturation outside [0, 1]")
    return np.clip(s, 0.0, 1.0)


def _mobilities(s, mu_w, mu_nw, beta):
    """(lambda_w, lambda_t) of saturations in [0, 1]; the fluid parameters
    may be (C, 1) columns for a batch of rows."""
    lam_w = s**beta / mu_w
    return lam_w, lam_w + (1.0 - s) ** beta / mu_nw


def total_mobility(s, fluids: FluidParams):
    """lambda_w + lambda_nw = s^beta / mu_w + (1-s)^beta / mu_nw."""
    return _mobilities(_check_saturation(s), fluids.mu_w, fluids.mu_nw, fluids.beta)[1]


def fractional_flow(s, fluids: FluidParams):
    """Wetting fraction of the total flux, f_w = lambda_w / lambda_t."""
    lam_w, lam_t = _mobilities(_check_saturation(s), fluids.mu_w, fluids.mu_nw, fluids.beta)
    return lam_w / lam_t


def fractional_flow_derivative(s, fluids: FluidParams):
    s = _check_saturation(s)
    beta = fluids.beta
    lam_w = s**beta / fluids.mu_w
    lam_nw = (1.0 - s) ** beta / fluids.mu_nw
    dlam_w = beta * s ** (beta - 1.0) / fluids.mu_w
    dlam_nw = beta * (1.0 - s) ** (beta - 1.0) / fluids.mu_nw
    return (dlam_w * lam_nw + lam_w * dlam_nw) / (lam_w + lam_nw) ** 2


@lru_cache(maxsize=64)
def _max_flux_derivative(fluids: FluidParams) -> float:
    grid = np.linspace(0.0, 1.0, 1001)
    # beta < 1 puts poles at s = 0 and s = 1; the FlowError below is the one signal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lf = float(np.max(np.abs(fractional_flow_derivative(grid, fluids))))
    if not np.isfinite(lf):
        raise FlowError("fractional-flow derivative unbounded on [0, 1]")
    return lf


def _rock_resistance(rock: RockField, grid: Grid1D) -> np.ndarray:
    """Distance over harmonic permeability per face [1/m], a half cell with
    the cell's own permeability at the two boundary faces."""
    k = rock.permeability
    k_face = np.concatenate([[2.0 * k[0]], 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:]), [2.0 * k[-1]]])
    return grid.dx_m / k_face


def _upwind(s, bc: BoundaryConditions) -> np.ndarray:
    """Upwind saturation of each face of (..., N) rows for the flow
    direction of the boundary pressures; the inlet ghost cell carries the
    inflow saturation."""
    ghost = np.full(s.shape[:-1] + (1,), bc.s_inflow)
    parts = (ghost, s) if bc.p_left > bc.p_right else (s, ghost)
    return np.concatenate(parts, axis=-1)


def _resistance_ok(resist, total) -> np.ndarray:
    """Per row: every face resistance positive and their sum finite."""
    return (resist.min(axis=-1) > 0.0) & np.isfinite(total)


def _face_resistances(s, rock, fluids, bc, grid) -> np.ndarray:
    """Flow resistance of each face [Pa s/m]: the rock resistance over the
    total mobility of the upwind cell."""
    s = np.asarray(s, dtype=float)
    if s.shape != (grid.n_cells,):
        raise ValueError("saturation field does not match the grid")
    resist = _rock_resistance(rock, grid) / total_mobility(_upwind(s, bc), fluids)
    if not _resistance_ok(resist, resist.sum()):
        raise SingularSystemError("nonpositive or non-finite face resistance")
    return resist


def solve_pressure(s, rock, fluids, bc, grid) -> np.ndarray:
    """Cell pressures from div(v) = 0 with Dirichlet pressures at both ends.

    The faces are resistors in series: the uniform total flux is
    q = (p_left - p_right) / sum(resist) and the pressure drops by q times
    each face resistance, p = p_left - q cumsum(resist).
    """
    resist = _face_resistances(s, rock, fluids, bc, grid)
    q = (bc.p_left - bc.p_right) / resist.sum()
    return bc.p_left - q * np.cumsum(resist[:-1])


def total_velocity(p, s, rock, fluids, bc, grid) -> np.ndarray:
    """Total Darcy flux [m/s] through each of the n_cells + 1 faces."""
    resist = _face_resistances(s, rock, fluids, bc, grid)
    p_ext = np.concatenate([[bc.p_left], p, [bc.p_right]])
    return (p_ext[:-1] - p_ext[1:]) / resist


def cfl_timestep(v, rock, fluids: FluidParams, grid: Grid1D, safety: float = 0.9) -> float:
    """Stable explicit step: safety * min over cells of phi dx / (|v| L_f)
    with L_f the max fractional-flow derivative on [0, 1]."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    v = np.asarray(v, dtype=float)
    speed = np.maximum(np.abs(v[:-1]), np.abs(v[1:]))
    if np.all(speed == 0.0):
        raise ZeroFluxError("all face fluxes vanish")
    lf = _max_flux_derivative(fluids)
    with np.errstate(divide="ignore"):
        per_cell = rock.porosity * grid.dx_m / (speed * lf)
    return safety * float(np.min(per_cell))


def _explicit_update(s, flux, dt, phi_dx):
    """Upwind update s - dt / (phi dx) * div(flux) of (..., N) rows, clipped
    to [0, 1], and how far each row left [0, 1] before the clip."""
    out = s - dt / phi_dx * (flux[..., 1:] - flux[..., :-1])
    worst = np.maximum(out.max(axis=-1) - 1.0, -out.min(axis=-1))
    return np.clip(out, 0.0, 1.0), worst


def _cfl_violation(worst: float) -> CflViolationError:
    return CflViolationError(f"saturation left [0,1] by {worst:.3e}")


def advance_saturation(s, v, dt, rock, fluids, bc, grid) -> np.ndarray:
    """One explicit upwind step with face fluxes v [m/s] of the sign of
    p_left - p_right; raises CflViolationError if the update leaves [0, 1]
    beyond the 1e-10 maximum-principle band."""
    s = np.asarray(s, dtype=float)
    flux = v * fractional_flow(_upwind(s, bc), fluids)
    out, worst = _explicit_update(s, flux, dt, rock.porosity * grid.dx_m)
    if worst > MAX_PRINCIPLE_TOL:
        raise _cfl_violation(float(worst))
    return out


@dataclass
class BalanceAudit:
    """Cumulative boundary wetting fluxes [m] and pore mass [m] per snapshot.

    The fluxes are signed along +x through the left and the right face.
    """

    cumulative_influx: list[float]
    cumulative_outflux: list[float]
    pore_mass: list[float]


@dataclass
class SimulationResult:
    """Snapshots of one simulation and what its run took."""

    values: np.ndarray  # (T, N) saturation per snapshot time
    masses: np.ndarray  # (T,) saturation integral [km]
    audit: BalanceAudit
    steps: int
    min_dt_s: float  # smallest CFL step bound [s]; inf without steps
    mass_residual: float  # max |pore mass change - net influx| / pore volume


class _Rows:
    """Per-row arrays of the simulations of a batch that are still running;
    a float attribute is shared by every row."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])


def _shared_or_column(values):
    """A per-row parameter as a (C, 1) column, or as a float when every row
    has the same value: numpy has faster kernels for scalar operands (a
    power of 2 becomes a square)."""
    col = np.array(values, dtype=float).reshape(-1, 1)
    return float(col[0, 0]) if col.size and np.all(col == col[0, 0]) else col


def simulate_batch(
    grid: Grid1D,
    rocks: Sequence[RockField],
    fluids: Sequence[FluidParams],
    bc: BoundaryConditions,
    snapshot_times_yr,
    safety: float = 0.9,
    on_finish: Callable[[int, "SimulationResult | FlowError"], None] | None = None,
) -> list:
    """IMPES runs of the simulations (rocks[c], fluids[c]) in lockstep, with
    snapshots at the given times (years).

    Each row takes its own CFL steps, truncated to land exactly on each
    snapshot instant. Returns one entry per row: a SimulationResult, or the
    FlowError that stopped that row while the others ran on.
    on_finish(c, entry) is called as soon as row c has ended.
    """
    times = [float(t) for t in snapshot_times_yr]
    if times != sorted(times) or (times and times[0] < 0.0):
        raise ValueError("snapshot times must be ascending and nonnegative")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    if len(rocks) != len(fluids):
        raise ValueError("need one fluid set per rock field")
    n_rows, n_times, n = len(fluids), len(times), grid.n_cells
    targets = np.array(times) * SECONDS_PER_YEAR
    slack = 1e-9 * np.maximum(targets, 1.0)
    phi_dx = np.array([rock.porosity for rock in rocks]).reshape(n_rows, n) * grid.dx_m
    values = np.empty((n_rows, n_times, n))
    fluxes = np.empty((n_rows, n_times, 2))  # cumulative wetting flux, left and right face
    results: list = [None] * n_rows
    steps = 0

    def finish(a: int, outcome) -> None:
        results[st.index[a]] = outcome
        if on_finish is not None:
            on_finish(int(st.index[a]), outcome)

    def fail(a: int, err: FlowError) -> None:
        wrapped = FlowError(
            f"simulation failed at t = {st.t[a] / SECONDS_PER_YEAR:.6g} yr "
            f"(target snapshot {times[st.k[a]]} yr): {err}"
        )
        wrapped.__cause__ = err
        finish(a, wrapped)

    def retire(done) -> None:
        for a in np.flatnonzero(done):
            c = st.index[a]
            pore = np.sum(phi_dx[c] * values[c], axis=1)
            gap = pore - phi_dx[c].sum() * bc.s_initial - (fluxes[c, :, 0] - fluxes[c, :, 1])
            audit = BalanceAudit(fluxes[c, :, 0].tolist(), fluxes[c, :, 1].tolist(), pore.tolist())
            finish(a, SimulationResult(
                values[c], values[c].sum(axis=1) * grid.dx, audit, steps, float(st.min_dt[a]),
                float(np.max(np.abs(gap), initial=0.0) / phi_dx[c].sum()),
            ))
        st.keep(~done)

    st = _Rows(
        index=np.arange(n_rows),
        s=np.full((n_rows, n), bc.s_initial),
        t=np.zeros(n_rows),
        k=np.zeros(n_rows, dtype=int),
        flux_sum=np.zeros((n_rows, 2)),
        min_dt=np.full(n_rows, np.inf),
        resist=np.array([_rock_resistance(rock, grid) for rock in rocks]).reshape(n_rows, n + 1),
        phi_dx=phi_dx,
        phi_dx_min=phi_dx.min(axis=1),
        lf=np.zeros(n_rows),
        mu_w=_shared_or_column([fl.mu_w for fl in fluids]),
        mu_nw=_shared_or_column([fl.mu_nw for fl in fluids]),
        beta=_shared_or_column([fl.beta for fl in fluids]),
    )
    retire(st.k == n_times)
    for a, fl in enumerate(fluids[c] for c in st.index):
        try:
            st.lf[a] = _max_flux_derivative(fl)
        except FlowError as err:
            fail(a, err)
    st.keep(st.lf > 0.0)

    while st.index.size:
        due = targets[st.k] - st.t <= slack[st.k]
        if due.any():
            for a in np.flatnonzero(due):
                st.t[a] = targets[st.k[a]]
                values[st.index[a], st.k[a]] = st.s[a]
                fluxes[st.index[a], st.k[a]] = st.flux_sum[a]
            st.k = st.k + due
            retire(st.k == n_times)
            continue

        # one IMPES step of every running row: the closed-form total flux q,
        # then the explicit upwind saturation update
        lam_w, lam_t = _mobilities(_upwind(st.s, bc), st.mu_w, st.mu_nw, st.beta)
        resist = st.resist / lam_t
        total = resist.sum(axis=1)
        q = (bc.p_left - bc.p_right) / total
        with np.errstate(divide="ignore"):  # q = 0: the step runs to the next snapshot
            cfl = safety * (st.phi_dx_min / (np.abs(q) * st.lf))
        dt = np.minimum(cfl, targets[st.k] - st.t)
        flux = q[:, None] * (lam_w / lam_t)
        s_new, worst = _explicit_update(st.s, flux, dt[:, None], st.phi_dx)
        singular = ~_resistance_ok(resist, total)
        bad = singular | (worst > MAX_PRINCIPLE_TOL)
        if bad.any():
            for a in np.flatnonzero(bad):
                fail(a, SingularSystemError("nonpositive or non-finite face resistance")
                     if singular[a] else _cfl_violation(float(worst[a])))
        st.s, st.t = s_new, st.t + dt
        st.flux_sum = st.flux_sum + flux[:, [0, -1]] * dt[:, None]
        st.min_dt = np.minimum(st.min_dt, cfl)
        steps += 1
        if bad.any():
            st.keep(~bad)
    return results


def run_simulation(
    grid: Grid1D,
    rock: RockField,
    fluids: FluidParams,
    bc: BoundaryConditions,
    snapshot_times_yr,
    y_params: tuple = (),
    safety: float = 0.9,
    return_audit: bool = False,
):
    """IMPES loop producing one Snapshot per requested time (years).

    Steps are truncated to land exactly on each snapshot instant. The
    parameter point of a snapshot is (t_yr, *y_params). With
    return_audit=True a BalanceAudit is attached for conservation checks.
    """
    times = [float(t) for t in snapshot_times_yr]
    outcome = simulate_batch(grid, [rock], [fluids], bc, times, safety)[0]
    if isinstance(outcome, FlowError):
        raise outcome
    snapshots = [
        Snapshot(z=(t_yr, *y_params), values=v, mass=float(m))
        for t_yr, v, m in zip(times, outcome.values, outcome.masses)
    ]
    if return_audit:
        return snapshots, outcome.audit
    return snapshots
