"""Finite-volume IMPES solver for 1D incompressible two-phase Darcy flow.

Each step solves the pressure from div(v) = 0 with two-point fluxes
(harmonic permeability, total mobility of the upwind cell), then advances
the saturation explicitly with an upwind scheme under a CFL bound.
Gravity and capillary pressure are neglected. With Dirichlet pressures
and no sources the 1D total flux is the same through every face, so the
faces act as resistors in series and the pressure solve is closed-form:
q = (p_left - p_right) / sum_i resist_i / lambda_t(upwind s_i).

`simulate_batch` advances all simulations of a sweep in lockstep as one
(C, N) saturation array and returns one `SweepResult`: the (C, T, N)
snapshots and (C, T, 2) boundary fluxes it fills as the rows run, and
per row the step count, smallest CFL step and mass-balance residual.
Each row keeps its own CFL step and snapshot clock, and a row that fails
stops alone, its FlowError in the record; `run_simulation` is the
record's one-row view, which raises that error. A row leaves the batch
through one exit, finished or failed, at set-up or mid-run, which records
what it ran: its lockstep steps, the failing step included, and its
smallest CFL step, inf when it took none. Before the first step, each
row's steps are bounded (see below), and a batch bounded by more than
MAX_ROW_STEPS row-steps is refused with StepBoundError. The step writes
into buffers allocated once per batch, and the rows are sorted by the
exponent beta, so that a small integer exponent is a few multiplications
over one group. The domain is in km, as the snapshots report it; Darcy
computations are in SI.

The step runs at a fixed Courant number. With D = r s^beta + (1 - s)^beta
(r = mu_nw / mu_w, D = mu_nw lambda_t), the total resistance is the
row-wise dot of the scaled rock resistance R mu_nw with 1 / D, and the
fractional flow is f = r s^beta / D. As q = (p_left - p_right) / total
and the CFL step is cfl_coef * total, with cfl_coef = safety min(phi dx) /
(max|f'| |p_left - p_right|), a full step moves q dt = (p_left - p_right)
cfl_coef: the update s - (q dt) / (phi dx) * div(f) has a per-row constant
coefficient, and the total only advances the row's clock. A step that
reaches a snapshot time within its 1e-9 relative slack is cut to land on
it, its update scaled by the fraction of a full step it takes. As 0 < D <=
max(1, r), R mu_nw is checked once; each step tests its totals for
finiteness and its update for the maximum principle as one scalar test,
and clips to [0, 1] only when a value left it. The same bound on D makes
every full step at least cfl_coef sum(R mu_nw) / max(1, r) long, so a row
takes at most t_end max(1, r) / (cfl_coef sum(R mu_nw)) full steps, plus
one cut step per snapshot.

The lockstep steps run in speculative blocks of full steps. A block of up
to BLOCK_STEPS steps, as many as keep its states within BLOCK_BYTES,
computes each step's state, row totals and boundary flux products and
nothing else. Then, once per block, it forms the CFL steps, the clock (an
add.accumulate over the steps, which adds in sequence as `t += cfl`
does), the landing room and the range of each state, and commits the
steps before the first event: a step that reaches a snapshot time, has a
total that is not finite or leaves [0, 1]. The event step runs alone,
with the landing, failure and clipping logic, and so does each step
while fewer than MIN_BLOCK_STEPS full steps are predicted before the next
landing, from the last step's clock and CFL step. A committed step
performs the single step's operations on the same operands, so every
record is bit for bit that of the step-by-step loop, which BLOCK_STEPS = 1
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

METERS_PER_KM = 1000.0
SECONDS_PER_YEAR = 365.0 * 86400.0

MAX_PRINCIPLE_TOL = 1e-10
# the fraction of the CFL-stable step that each IMPES step takes
DEFAULT_CFL_SAFETY = 0.9
# full steps per speculative block, and the bytes of the states that a
# block records, so that they stay in a core's cache: the 4 rows of 1003
# cells of a sweep draw take blocks of 16 steps, 9 rows blocks of 7, and
# 33 rows or more single steps
BLOCK_STEPS = 16
BLOCK_BYTES = 1 << 19
# the shortest block worth its bookkeeping; nearer a landing, single steps
MIN_BLOCK_STEPS = 2
# the most row-steps that a batch's step bound may reach: about 800 times
# the bound of example2, 1,257,832 for the 189,707 row-steps its 35 rows take
MAX_ROW_STEPS = 10**9


class FlowError(Exception):
    pass


class CflViolationError(FlowError):
    """An explicit update left [0, 1] beyond the maximum-principle band."""


class SingularSystemError(FlowError):
    pass


class StepBoundError(ValueError):
    """A batch whose step bound exceeds MAX_ROW_STEPS, raised before its
    first step; `row` is the simulation of the largest bound."""

    def __init__(self, bounds: np.ndarray):
        self.row = int(bounds.argmax())
        super().__init__(f"up to {bounds[self.row]:.3g} IMPES steps, the most of a batch "
                         f"bounded by {bounds.sum():.3g} row-steps, above the limit of "
                         f"{MAX_ROW_STEPS:,}")


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


# largest exponent taken by repeated multiplication: within 4 ulp of np.power
MAX_INTEGER_POWER = 8


def _power(base, p: float, out) -> None:
    """base**p into out, which must not alias base: an in-place product
    would square instead. A small positive integer p is p - 1 products,
    any other p numpy's general power."""
    if not (1 <= p <= MAX_INTEGER_POWER and p == int(p)):
        np.power(base, p, out=out)
    elif p == 1:
        np.copyto(out, base)
    else:
        np.multiply(base, base, out=out)
        for _ in range(int(p) - 2):
            np.multiply(out, base, out=out)


def _mobilities(s, ratio, groups, out):
    """mu_nw times (lambda_w, lambda_t) of saturations in [0, 1]: the wetting
    term r s^beta and the denominator D = r s^beta + (1 - s)^beta, with the
    viscosity ratio r = mu_nw / mu_w.

    groups is a list of (rows, exponent) pairs whose row slices cover s;
    ratio is a float or an array of the shape of s. out = (wet, denom,
    work) are buffers of the shape of s.
    """
    wet, denom, work = out
    np.subtract(1.0, s, out=work)
    if len(groups) == 1:  # one exponent: whole arrays, no row views
        _power(s, groups[0][1], wet)
        _power(work, groups[0][1], denom)
    else:
        for rows, p in groups:
            _power(s[rows], p, wet[rows])
            _power(work[rows], p, denom[rows])
    np.multiply(wet, ratio, out=wet)
    np.add(denom, wet, out=denom)
    return wet, denom


def _max_flux_derivative(fluids: FluidParams) -> float:
    """The largest |f_w'| on 1001 points of [0, 1], from the mobilities
    lambda = s^beta / mu and their derivatives."""
    s = np.linspace(0.0, 1.0, 1001)
    beta = fluids.beta
    # beta < 1 puts poles at s = 0 and s = 1; the FlowError below is the one signal
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_w = s**beta / fluids.mu_w
        lam_nw = (1.0 - s) ** beta / fluids.mu_nw
        dlam_w = beta * s ** (beta - 1.0) / fluids.mu_w
        dlam_nw = beta * (1.0 - s) ** (beta - 1.0) / fluids.mu_nw
        dfw = (dlam_w * lam_nw + lam_w * dlam_nw) / (lam_w + lam_nw) ** 2
        lf = float(np.max(np.abs(dfw)))
    if not np.isfinite(lf):
        raise FlowError("fractional-flow derivative unbounded on [0, 1]")
    return lf


def _rock_resistance(rock: RockField, grid: Grid1D) -> np.ndarray:
    """Distance over harmonic permeability per face [1/m], a half cell with
    the cell's own permeability at the two boundary faces."""
    k = rock.permeability
    k_face = np.concatenate([[2.0 * k[0]], 2.0 * k[:-1] * k[1:] / (k[:-1] + k[1:]), [2.0 * k[-1]]])
    return grid.dx_m / k_face


def _layout(bc: BoundaryConditions) -> tuple[int, slice]:
    """The inlet ghost column and the N cell columns of a padded
    (..., N + 1) row, whose entry j sits upwind of face j for the flow
    direction of the boundary pressures."""
    return (0, slice(1, None)) if bc.p_left > bc.p_right else (-1, slice(None, -1))


def _padded(rows, bc: BoundaryConditions, fill: float) -> np.ndarray:
    """(..., N) rows padded to (..., N + 1) with `fill` in the ghost column;
    padded saturations are the upwind saturation of each face, the ghost
    cell carrying the inflow saturation."""
    ghost, cells = _layout(bc)
    rows = np.asarray(rows, dtype=float)
    out = np.empty(rows.shape[:-1] + (rows.shape[-1] + 1,))
    out[..., ghost] = fill
    out[..., cells] = rows
    return out


@dataclass
class SweepResult:
    """The snapshots of a sweep's C simulations and what each run took.

    A row that failed has its FlowError in `errors`, None for a row that
    ran, and NaN where it took no snapshot. Its `steps` and `min_dt_s` are
    what it ran: the lockstep steps up to and including the one that
    failed, and the smallest CFL step among them; a row that failed at
    set-up took no step, so 0 and inf.
    """

    values: np.ndarray  # (C, T, N) saturation per snapshot time
    masses: np.ndarray  # (C, T) saturation integral [km]
    fluxes: np.ndarray  # (C, T, 2) cumulative wetting flux [m], left and right face, along +x
    steps: np.ndarray  # (C,) IMPES steps
    step_bound: np.ndarray  # (C,) at most this many steps, bounded before the first
    min_dt_s: np.ndarray  # (C,) smallest CFL step bound [s]; inf without steps
    mass_residual: np.ndarray  # (C,) max |pore mass change - net influx| / pore volume
    errors: list  # (C,) None, or the FlowError that stopped the row
    single_steps: int  # lockstep steps taken one at a time, at or near an event


class _Rows:
    """Per-row arrays of the running simulations of a batch, buffers and
    hoisted constants among them; a float attribute is shared by every row.
    `groups` holds the (rows, exponent) slice of each `beta` for `_mobilities`."""

    def __init__(self, **fields):
        self.__dict__.update(fields)
        self._group()

    def keep(self, mask):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])
        self._group()

    def _group(self):
        edges = [0, *(np.flatnonzero(np.diff(self.beta)) + 1).tolist(), self.beta.size]
        self.groups = [
            (slice(a, b), float(self.beta[a])) for a, b in zip(edges[:-1], edges[1:]) if a < b
        ]


def _shared_or_full(values, width: int):
    """A per-row viscosity ratio as a float when every row has the same
    value, else as a full (C, width) array: numpy's kernels are fastest on
    a scalar operand, and take a full operand about twice as fast as a
    broadcast (C, 1) column."""
    col = np.array(values, dtype=float).reshape(-1, 1)
    if col.size and np.all(col == col[0, 0]):
        return float(col[0, 0])
    return np.repeat(col, width, axis=1)


def _step_views(st: _Rows, ghost: int):
    """The buffers of a full step of the running rows, with the views of
    them that it reads and writes: the flattened f without its last and
    its first entry, the flattened update they give and its ghost column."""
    flat, diff = st.wet.reshape(-1), st.work.reshape(-1)
    return ((st.wet, st.denom, st.work), flat[1:], flat[:-1],
            diff[1:] if ghost == 0 else diff[:-1], st.work[:, ghost])


def _full_step(st: _Rows, s, views, total_out=None):
    """The fractional flow f of state s in st.wet, the update coef * div(f)
    of a full step in st.work, and the row totals of resist_mu / D."""
    out, f_next, f_prev, diff, ghost_col = views
    wet, denom = _mobilities(s, st.ratio, st.groups, out)
    inv = np.divide(1.0, denom, out=denom)
    total = np.vecdot(st.resist_mu, inv, out=total_out)
    np.multiply(wet, inv, out=wet)
    # the upwind update s - coef * div(f): each cell's outflow-face f minus
    # its inflow-face f, as one difference of the flattened rows; what it
    # leaves in the ghost column straddles two rows and is zeroed
    np.subtract(f_next, f_prev, out=diff)
    ghost_col.fill(0.0)
    np.multiply(st.coef, st.work, out=st.work)
    return total


def _block_buffers(rows: int, n: int):
    """The records of the longest block of `rows` rows: the state after each
    full step, the row totals, and the clock and boundary flux products,
    each behind a slot for its running value."""
    steps = min(BLOCK_STEPS, BLOCK_BYTES // (8 * rows * (n + 1)))
    return (np.empty((steps, rows, n + 1)), np.empty((steps, rows)),
            np.empty((steps + 1, rows)), np.empty((steps + 1, rows, 2)))


def _full_steps(st: _Rows, span: int, blocks, views, n: int) -> tuple[int, float]:
    """Up to `span` full steps of every row, speculatively: all are computed,
    then the ones before the first event step are committed. An event step
    lands a row, has a total that is not finite or leaves [0, 1]; it is left
    to the single step. Returns the steps committed and, when all were, the
    full steps predicted before the next landing step.

    The committed steps are the single step's bit for bit: the same
    operations on the same operands, the clock and the flux sums added in
    sequence by add.accumulate, as the single step adds them.
    """
    ring, totals, clock, flux = blocks
    s, work, qdt, bounds = st.s, st.work, st.qdt, st.wet[:, ::n]  # f's boundary columns
    for j in range(span):
        _full_step(st, s, views, totals[j])
        s = np.subtract(s, work, out=ring[j])
        np.multiply(bounds, qdt, out=flux[j + 1])
    cfl = st.cfl_coef * totals[:span]
    clock[0] = st.t
    clock[1:span + 1] = cfl
    times = np.add.accumulate(clock[:span + 1], axis=0)
    low = (st.reach - times[:-1] - cfl).min(axis=1)
    lo, hi = ring[:span].min(axis=(1, 2)), ring[:span].max(axis=(1, 2))
    calm = (low > 0.0) & (low < np.inf) & (lo >= 0.0) & (hi <= 1.0)
    done = span if calm.all() else int(calm.argmin())
    if done:
        st.t = times[done]
        flux[0] = st.flux_sum
        st.flux_sum = np.add.accumulate(flux[:done + 1], axis=0)[done]
        np.minimum(st.min_dt, cfl[:done].min(axis=0), out=st.min_dt)
        np.copyto(st.s, ring[done - 1])
    ahead = float(((st.reach - st.t) / cfl[-1]).min()) if done == span else 0.0
    return done, ahead


def simulate_batch(
    grid: Grid1D,
    rocks: Sequence[RockField],
    fluids: Sequence[FluidParams],
    bc: BoundaryConditions,
    snapshot_times_yr,
    safety: float = DEFAULT_CFL_SAFETY,
) -> SweepResult:
    """IMPES runs of the simulations (rocks[c], fluids[c]) in lockstep, with
    snapshots at the given times (years).

    Each row takes its own CFL steps, truncated to land exactly on each
    snapshot instant. A row that fails records its FlowError and stops,
    while the others run on.
    """
    times = [float(t) for t in snapshot_times_yr]
    if not np.all(np.isfinite(times)) or times != sorted(times) or (times and times[0] < 0.0):
        raise ValueError("snapshot times must be finite, ascending and nonnegative")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must lie in (0, 1]")
    if len(rocks) != len(fluids):
        raise ValueError("need one fluid set per rock field")
    n_rows, n_times, n = len(fluids), len(times), grid.n_cells
    # snapshot instants and their landing slack, with a target never reached
    # after the last one
    targets = np.append(np.array(times) * SECONDS_PER_YEAR, np.inf)
    slack = np.append(1e-9 * np.maximum(targets[:-1], 1.0), 0.0)
    phi_dx = np.array([rock.porosity for rock in rocks]).reshape(n_rows, n) * grid.dx_m
    dp = bc.p_left - bc.p_right
    values = np.full((n_rows, n_times, n), np.nan)
    fluxes = np.full((n_rows, n_times, 2), np.nan)
    steps = np.zeros(n_rows, dtype=int)
    min_dt = np.full(n_rows, np.nan)
    errors: list = [None] * n_rows
    taken = 0  # lockstep steps

    def fail(a: int, err: FlowError) -> None:
        wrapped = FlowError(
            f"simulation failed at t = {st.t[a] / SECONDS_PER_YEAR:.6g} yr "
            f"(target snapshot {times[st.k[a]]} yr): {err}"
        )
        wrapped.__cause__ = err
        errors[st.index[a]] = wrapped

    def land(a: int) -> None:  # row a takes its target snapshot and any within slack
        c, k = st.index[a], st.k[a]
        st.t[a] = targets[k]
        while targets[k] - st.t[a] <= slack[k]:
            st.t[a] = targets[k]
            values[c, k] = st.s[a, cells]
            fluxes[c, k] = st.flux_sum[a]
            k += 1
        st.k[a], st.reach[a] = k, targets[k] - slack[k]

    def leave() -> None:  # the rows done or failed stop, with what they ran
        gone = (st.k == n_times) | np.array([errors[c] is not None for c in st.index], bool)
        steps[st.index[gone]] = taken
        min_dt[st.index[gone]] = st.min_dt[gone]
        st.keep(~gone)

    order = np.argsort([fl.beta for fl in fluids], kind="stable")
    ghost, cells = _layout(bc)
    st = _Rows(
        index=order,
        s=_padded(np.full((n_rows, n), bc.s_initial), bc, bc.s_inflow),
        t=np.zeros(n_rows),
        k=np.zeros(n_rows, dtype=int),
        # the clock reading from which the target snapshot counts as reached
        reach=np.full(n_rows, targets[0] - slack[0]),
        flux_sum=np.zeros((n_rows, 2)),
        min_dt=np.full(n_rows, np.inf),
        # the face resistances are resist_mu / D, with D = mu_nw lambda_t
        resist_mu=np.array([_rock_resistance(rocks[c], grid) * fluids[c].mu_nw
                            for c in order]).reshape(n_rows, n + 1),
        # the CFL step is cfl_coef times the total resistance, with max|f'| below
        cfl_coef=safety * phi_dx[order].min(axis=1) / abs(dp),
        ratio=_shared_or_full([fluids[c].mu_nw / fluids[c].mu_w for c in order], n + 1),
        beta=np.array([fluids[c].beta for c in order], dtype=float),
        wet=np.empty((n_rows, n + 1)),
        denom=np.empty((n_rows, n + 1)),
        work=np.empty((n_rows, n + 1)),
    )
    leave()
    for a, c in enumerate(st.index):
        try:
            st.cfl_coef[a] /= _max_flux_derivative(fluids[c])
        except FlowError as err:
            fail(a, err)
    leave()
    # q dt of a full step, and the update coefficient (q dt) / (phi dx)
    st.qdt = dp * st.cfl_coef[:, None]
    st.coef = st.qdt / _padded(phi_dx[st.index], bc, 1.0)
    if targets[0] <= slack[0]:
        for a in range(st.index.size):
            land(a)
        leave()
    for a in np.flatnonzero(~np.all((st.resist_mu > 0.0) & (st.resist_mu < np.inf), axis=1)):
        fail(a, SingularSystemError("nonpositive or non-finite face resistance"))
    leave()
    # as 0 < D <= max(1, r), a full step takes at least cfl_coef times
    # sum(resist_mu) / max(1, r), and a cut step lands at least one snapshot;
    # a row that left took no step
    r_max = np.maximum(1.0, [fluids[c].mu_nw / fluids[c].mu_w for c in st.index])
    bound = np.zeros(n_rows)
    with np.errstate(over="ignore", divide="ignore"):  # absurd inputs bound by inf
        bound[st.index] = n_times + np.ceil(
            targets[n_times - 1] * r_max / (st.cfl_coef * st.resist_mu.sum(axis=1)))
    if bound.sum() > MAX_ROW_STEPS:
        raise StepBoundError(bound)

    rows = 0  # the running rows that the block records are sized for
    single = 0  # lockstep steps taken one at a time
    ahead = 0.0  # full steps predicted before the next landing step
    while st.index.size:
        if rows != st.index.size:
            rows = st.index.size
            blocks = _block_buffers(rows, n)
            longest = blocks[0].shape[0]
        # a prediction is made only where blocks of MIN_BLOCK_STEPS fit, and
        # the rows only ever fall, so that longest only grows
        if ahead >= MIN_BLOCK_STEPS:
            span = int(min(ahead, longest))
            done, ahead = _full_steps(st, span, blocks, _step_views(st, ghost), n)
            taken += done
            if done == span:
                continue
        # one IMPES step of every running row, at its CFL step cfl_coef * total
        cfl = st.cfl_coef * _full_step(st, st.s, _step_views(st, ghost))
        # at most 0 where the step reaches the target snapshot, and not
        # finite exactly where a total resistance is not
        room = st.reach - st.t - cfl
        low = room.min()
        landing = not low > 0.0
        if landing:
            dt = np.minimum(cfl, targets[st.k] - st.t)
            scale = (dt / cfl)[:, None]  # the fraction of a full step
            np.multiply(st.work, scale, out=st.work)
        np.subtract(st.s, st.work, out=st.s)
        lo, hi = st.s.min(), st.s.max()
        # every total finite and the update within the maximum-principle
        # band, as one test of the whole batch; only a failed test looks for
        # the rows at fault
        failed = not (math.isfinite(low)
                      and hi - 1.0 <= MAX_PRINCIPLE_TOL and -lo <= MAX_PRINCIPLE_TOL)
        if failed:
            singular = ~np.isfinite(room)
            worst = np.maximum(st.s.max(axis=1) - 1.0, -st.s.min(axis=1))
            for a in np.flatnonzero(singular | (worst > MAX_PRINCIPLE_TOL)):
                fail(a, SingularSystemError("nonpositive or non-finite face resistance")
                     if singular[a] else
                     CflViolationError(f"saturation left [0,1] by {worst[a]:.3e}"))
        if not (lo >= 0.0 and hi <= 1.0):
            np.clip(st.s, 0.0, 1.0, out=st.s)
        st.t += dt if landing else cfl
        st.flux_sum += st.wet[:, ::n] * (st.qdt * scale if landing else st.qdt)
        np.minimum(st.min_dt, cfl, out=st.min_dt)
        taken += 1
        single += 1
        if landing:  # a failed row lands too, before it leaves
            for a in np.flatnonzero(room <= 0.0):
                land(a)
        # the full steps of the nearest row at this step's CFL step
        ahead = (float(((st.reach - st.t) / cfl).min())
                 if longest >= MIN_BLOCK_STEPS and not failed else 0.0)
        if landing or failed:
            leave()
    # mass balance: pore mass change minus net boundary influx
    pore_volume = phi_dx.sum(axis=1)
    gap = (np.sum(phi_dx[:, None] * values, axis=2) - pore_volume[:, None] * bc.s_initial
           - (fluxes[..., 0] - fluxes[..., 1]))
    return SweepResult(
        values, values.sum(axis=2) * grid.dx, fluxes, steps, bound, min_dt,
        np.max(np.abs(gap), axis=1, initial=0.0) / pore_volume, errors, single,
    )


def run_simulation(
    grid: Grid1D,
    rock: RockField,
    fluids: FluidParams,
    bc: BoundaryConditions,
    snapshot_times_yr,
    safety: float = DEFAULT_CFL_SAFETY,
) -> list[Snapshot]:
    """One Snapshot per requested time (years): row 0 of a one-row
    `simulate_batch`, whose FlowError it raises. The parameter point of a
    snapshot is (t_yr,)."""
    times = [float(t) for t in snapshot_times_yr]
    res = simulate_batch(grid, [rock], [fluids], bc, times, safety)
    if res.errors[0] is not None:
        raise res.errors[0]
    return [Snapshot(z=(t_yr,), values=v, mass=float(m))
            for t_yr, v, m in zip(times, res.values[0], res.masses[0])]
