"""Experiment configuration: JSON schema, validation, bundled presets.

A config fixes the grid, boundary conditions and solver settings, and binds
fluid/rock properties to the sweep axes. A bindable value is either a plain
number or {"param": <axis name>, "scale": <factor>} resolved per parameter
combination.

The "qp" block sets the simplex least-squares solver of the greedy sweep
(`simplexqp`): "tol" is the KKT tolerance, the largest amount by which an
atom's gradient entry may undercut the support multiplier at the returned
weights, and "max_iter" caps the active-set changes (atoms added plus atoms
dropped) per solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from . import flow

SCHEMA_VERSION = 1

ROCK_KINDS = ("homogeneous", "two_region")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Axis:
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class GreedySettings:
    eps_abs: float = 0.0
    eps_rel: float = 0.0
    n_max: int = 30


@dataclass(frozen=True)
class QpSettings:
    """KKT tolerance and active-set change cap of the simplex solver."""

    tol: float = 1e-10
    max_iter: int = 50_000


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    grid: flow.Grid1D
    boundary: flow.BoundaryConditions
    fluids_spec: dict
    rock_spec: dict
    axes: tuple[Axis, ...]
    snapshot_times_yr: tuple[float, ...]
    cfl_safety: float
    greedy: GreedySettings
    qp: QpSettings
    raw: dict

    @property
    def axis_names(self) -> tuple[str, ...]:
        return ("t",) + tuple(ax.name for ax in self.axes)

    def combos(self) -> list[dict]:
        """All parameter combinations, tensor order, axis-major."""
        names = [ax.name for ax in self.axes]
        return [
            dict(zip(names, values))
            for values in product(*(ax.values for ax in self.axes))
        ]

    def fluids_at(self, combo: dict) -> flow.FluidParams:
        return flow.FluidParams(
            mu_w=_resolve(self.fluids_spec["mu_w_pa_s"], combo),
            mu_nw=_resolve(self.fluids_spec["mu_nw_pa_s"], combo),
            beta=_resolve(self.fluids_spec["beta"], combo),
        )

    def rock_at(self, combo: dict) -> flow.RockField:
        spec = self.rock_spec
        n = self.grid.n_cells
        if spec["kind"] == "homogeneous":
            return flow.RockField.homogeneous(
                n,
                _resolve(spec["porosity"], combo),
                _resolve(spec["permeability_m2"], combo),
            )
        interface = _resolve(spec["interface_km"], combo)
        left = np.asarray(self.grid.centers() < interface)
        phi = np.where(
            left,
            _resolve(spec["left"]["porosity"], combo),
            _resolve(spec["right"]["porosity"], combo),
        )
        k = np.where(
            left,
            _resolve(spec["left"]["permeability_m2"], combo),
            _resolve(spec["right"]["permeability_m2"], combo),
        )
        return flow.RockField(phi, k)


def _resolve(value, combo: dict) -> float:
    if isinstance(value, dict):
        name = value["param"]
        if name not in combo:
            raise ConfigError(f"binding refers to unknown axis {name!r}")
        return float(value.get("scale", 1.0)) * float(combo[name])
    return float(value)


def _require(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"missing {key!r} in {where}")
    return raw[key]


def _bindable(raw, where: str, axis_names: set[str]):
    if isinstance(raw, dict):
        name = _require(raw, "param", where)
        if name not in axis_names:
            raise ConfigError(f"{where}: binding to unknown axis {name!r}")
        if not isinstance(raw.get("scale", 1.0), (int, float)):
            raise ConfigError(f"{where}: scale must be a number")
        return raw
    if not isinstance(raw, (int, float)):
        raise ConfigError(f"{where}: expected a number or a parameter binding")
    return raw


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and build the typed configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = _require(raw, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    name = _require(raw, "name", "config")

    g = _require(raw, "grid", "config")
    try:
        grid = flow.Grid1D(
            x_min=float(_require(g, "x_min_km", "grid")),
            x_max=float(_require(g, "x_max_km", "grid")),
            n_cells=int(_require(g, "n_cells", "grid")),
        )
        b = _require(raw, "boundary", "config")
        boundary = flow.BoundaryConditions(
            p_left=float(_require(b, "p_left_pa", "boundary")),
            p_right=float(_require(b, "p_right_pa", "boundary")),
            s_inflow=float(_require(b, "s_inflow", "boundary")),
            s_initial=float(_require(b, "s_initial", "boundary")),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    axes_raw = _require(raw, "axes", "config")
    if not isinstance(axes_raw, list) or not axes_raw:
        raise ConfigError("axes must be a nonempty list")
    axes = []
    for i, ax in enumerate(axes_raw):
        ax_name = _require(ax, "name", f"axes[{i}]")
        values = _require(ax, "values", f"axes[{i}]")
        if ax_name == "t":
            raise ConfigError("axis name 't' is reserved for snapshot times")
        if not values or list(values) != sorted(values):
            raise ConfigError(f"axes[{i}] ({ax_name}): values must be nonempty and sorted")
        axes.append(Axis(name=str(ax_name), values=tuple(float(v) for v in values)))
    axis_names = {ax.name for ax in axes}
    if len(axis_names) != len(axes):
        raise ConfigError("duplicate axis names")

    f = _require(raw, "fluids", "config")
    fluids_spec = {
        key: _bindable(_require(f, key, "fluids"), f"fluids.{key}", axis_names)
        for key in ("mu_w_pa_s", "mu_nw_pa_s", "beta")
    }
    r = _require(raw, "rock", "config")
    kind = _require(r, "kind", "rock")
    if kind not in ROCK_KINDS:
        raise ConfigError(f"rock.kind must be one of {ROCK_KINDS}")
    if kind == "homogeneous":
        rock_spec = {
            "kind": kind,
            "porosity": _bindable(_require(r, "porosity", "rock"), "rock.porosity", axis_names),
            "permeability_m2": _bindable(
                _require(r, "permeability_m2", "rock"), "rock.permeability_m2", axis_names
            ),
        }
    else:
        rock_spec = {"kind": kind, "interface_km": _bindable(
            _require(r, "interface_km", "rock"), "rock.interface_km", axis_names
        )}
        for side in ("left", "right"):
            sub = _require(r, side, "rock")
            rock_spec[side] = {
                "porosity": _bindable(
                    _require(sub, "porosity", f"rock.{side}"), f"rock.{side}.porosity", axis_names
                ),
                "permeability_m2": _bindable(
                    _require(sub, "permeability_m2", f"rock.{side}"),
                    f"rock.{side}.permeability_m2",
                    axis_names,
                ),
            }

    times = _require(raw, "snapshot_times_yr", "config")
    if not times or list(times) != sorted(times) or times[0] < 0:
        raise ConfigError("snapshot_times_yr must be nonempty, sorted, nonnegative")

    safety = float(raw.get("cfl_safety", 0.9))
    if not 0.0 < safety <= 1.0:
        raise ConfigError("cfl_safety must lie in (0, 1]")

    gr = raw.get("greedy", {})
    greedy = GreedySettings(
        eps_abs=float(gr.get("eps_abs", 0.0)),
        eps_rel=float(gr.get("eps_rel", 0.0)),
        n_max=int(gr.get("n_max", 30)),
    )
    if not 0 <= greedy.eps_abs < np.inf or not 0 <= greedy.eps_rel < 1 or greedy.n_max < 2:
        raise ConfigError("invalid greedy settings (eps_abs >= 0, eps_rel in [0,1), n_max >= 2)")
    q = raw.get("qp", {})
    qp = QpSettings(tol=float(q.get("tol", 1e-10)), max_iter=int(q.get("max_iter", 50_000)))
    if not 0 < qp.tol < np.inf or qp.max_iter < 1:
        raise ConfigError("invalid qp settings (tol > 0, max_iter >= 1)")

    return ExperimentConfig(
        name=str(name),
        grid=grid,
        boundary=boundary,
        fluids_spec=fluids_spec,
        rock_spec=rock_spec,
        axes=tuple(axes),
        snapshot_times_yr=tuple(float(t) for t in times),
        cfl_safety=safety,
        greedy=greedy,
        qp=qp,
        raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_config(raw)


def load_preset(name: str) -> ExperimentConfig:
    """Bundled experiment presets ('example1', 'example2')."""
    ref = resources.files(__package__) / "presets" / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(f"no bundled preset named {name!r}")
    return parse_config(json.loads(ref.read_text()))
