"""Experiment configuration: JSON schema, validation, bundled presets.

A config fixes the grid, boundary conditions and solver settings, and binds
fluid/rock properties to the sweep axes. A bindable value is either a plain
number or {"param": <axis name>, "scale": <factor>} resolved per parameter
combination.

The "qp" block sets the simplex least-squares solver of the greedy sweep
(`simplexqp`): "tol" is the KKT tolerance, the largest amount by which an
atom's gradient entry may undercut the support multiplier at the returned
weights. The cap on active-set changes per solve is the solver's own
constant; an older config's key for it is ignored, as is any unread key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from . import flow, simplexqp

SCHEMA_VERSION = 1

ROCK_KINDS = ("homogeneous", "two_region")
_ROCK_FIELDS = ("porosity", "permeability_m2")


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
    """KKT tolerance of the simplex solver."""

    tol: float = simplexqp.DEFAULT_TOL


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

    def sweep_params(self) -> np.ndarray:
        """The (K, d) params of the sweep: every combination in tensor
        order, each at every snapshot time."""
        return np.array([(t, *combo.values()) for combo in self.combos()
                         for t in self.snapshot_times_yr], dtype=float)

    def fluids_at(self, combo: dict) -> flow.FluidParams:
        return flow.FluidParams(
            mu_w=_resolve(self.fluids_spec["mu_w_pa_s"], combo),
            mu_nw=_resolve(self.fluids_spec["mu_nw_pa_s"], combo),
            beta=_resolve(self.fluids_spec["beta"], combo),
        )

    def rock_at(self, combo: dict) -> flow.RockField:
        """The two-region layout; a homogeneous rock has equal sides and its
        interface at infinity."""
        spec = self.rock_spec
        left = self.grid.centers() < _resolve(spec["interface_km"], combo)
        return flow.RockField(*(
            np.where(left, _resolve(spec["left"][key], combo), _resolve(spec["right"][key], combo))
            for key in _ROCK_FIELDS
        ))


def _resolve(value, combo: dict) -> float:
    if isinstance(value, dict):
        name = value["param"]
        if name not in combo:
            raise ConfigError(f"binding refers to unknown axis {name!r}")
        return float(value.get("scale", 1.0)) * float(combo[name])
    return float(value)


def _require(raw: dict, key: str, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    if key not in raw:
        raise ConfigError(f"missing {key!r} in {where}")
    return raw[key]


def _number(value) -> bool:
    """A finite int or float; a bool does not count as a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite(block, key: str, where: str, default=None, whole: bool = False):
    """A plain number: finite, and not a bool; required unless a default is
    given. With whole set it is an int, and a fractional value is refused."""
    value = _require(block, key, where) if default is None else block.get(key, default)
    if not _number(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    if not whole:
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{where}.{key} must be a whole number, got {value!r}")
    return int(value)


def _numbers(raw) -> bool:
    return isinstance(raw, list) and all(map(_number, raw))


def _bindable(raw, where: str, axis_names: set[str]):
    if isinstance(raw, dict):
        name = _require(raw, "param", where)
        if not isinstance(name, str) or name not in axis_names:
            raise ConfigError(f"{where}: binding to unknown axis {name!r}")
        if not _number(raw.get("scale", 1.0)):
            raise ConfigError(f"{where}: scale must be a finite number")
        return raw
    if not _number(raw):
        raise ConfigError(f"{where}: expected a finite number or a parameter binding")
    return raw


def _settings_block(raw: dict, key: str) -> dict:
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key} must be an object, got {block!r}")
    return block


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and build the typed configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = _require(raw, "schema_version", "config")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1, but is a bool
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    name = _require(raw, "name", "config")
    if not isinstance(name, str):
        raise ConfigError(f"config name must be a string, got {name!r}")

    g = _require(raw, "grid", "config")
    b = _require(raw, "boundary", "config")
    try:
        grid = flow.Grid1D(
            x_min=_finite(g, "x_min_km", "grid"),
            x_max=_finite(g, "x_max_km", "grid"),
            n_cells=_finite(g, "n_cells", "grid", whole=True),
        )
        boundary = flow.BoundaryConditions(
            p_left=_finite(b, "p_left_pa", "boundary"),
            p_right=_finite(b, "p_right_pa", "boundary"),
            s_inflow=_finite(b, "s_inflow", "boundary"),
            s_initial=_finite(b, "s_initial", "boundary"),
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
        if not isinstance(ax_name, str):
            raise ConfigError(f"axes[{i}].name must be a string, got {ax_name!r}")
        # the name is a CSV header cell and an --at key
        if (not ax_name or ax_name != ax_name.strip() or not ax_name.isprintable()
                or "," in ax_name or "=" in ax_name):
            raise ConfigError(f"axes[{i}].name {ax_name!r} must be nonempty and printable, "
                              "without ',', '=' or a space at either end")
        if ax_name == "t":
            raise ConfigError("axis name 't' is reserved for snapshot times")
        if not _numbers(values):
            raise ConfigError(f"axes[{i}] ({ax_name}): values must be a list of finite numbers")
        if not values or not np.all(np.diff(values) > 0):
            raise ConfigError(f"axes[{i}] ({ax_name}): values must be nonempty and strictly "
                              "increasing (sorted, no repeats)")
        axes.append(Axis(name=ax_name, values=tuple(float(v) for v in values)))
    axis_names = {ax.name for ax in axes}
    if len(axis_names) != len(axes):
        raise ConfigError("duplicate axis names")

    def bind(block, key: str, where: str):
        return _bindable(_require(block, key, where), f"{where}.{key}", axis_names)

    f = _require(raw, "fluids", "config")
    fluids_spec = {key: bind(f, key, "fluids") for key in ("mu_w_pa_s", "mu_nw_pa_s", "beta")}
    r = _require(raw, "rock", "config")
    kind = _require(r, "kind", "rock")
    if kind not in ROCK_KINDS:
        raise ConfigError(f"rock.kind must be one of {ROCK_KINDS}")
    if kind == "homogeneous":
        # every cell centre lies left of an interface at infinity
        side = {key: bind(r, key, "rock") for key in _ROCK_FIELDS}
        rock_spec = {"interface_km": math.inf, "left": side, "right": side}
    else:
        rock_spec = {"interface_km": bind(r, "interface_km", "rock")}
        for side in ("left", "right"):
            sub = _require(r, side, "rock")
            rock_spec[side] = {key: bind(sub, key, f"rock.{side}") for key in _ROCK_FIELDS}

    times = _require(raw, "snapshot_times_yr", "config")
    if not _numbers(times) or not times or not np.all(np.diff(times) > 0) or times[0] < 0:
        raise ConfigError("snapshot_times_yr must be a nonempty list of finite nonnegative "
                          "numbers, strictly increasing (sorted, no repeats)")

    safety = _finite(raw, "cfl_safety", "config", default=flow.DEFAULT_CFL_SAFETY)
    if not 0.0 < safety <= 1.0:
        raise ConfigError(f"cfl_safety must be a number in (0, 1], got {safety!r}")

    gr = _settings_block(raw, "greedy")
    greedy = GreedySettings(
        eps_abs=_finite(gr, "eps_abs", "greedy", default=GreedySettings.eps_abs),
        eps_rel=_finite(gr, "eps_rel", "greedy", default=GreedySettings.eps_rel),
        n_max=_finite(gr, "n_max", "greedy", default=GreedySettings.n_max, whole=True),
    )
    if greedy.eps_abs < 0 or not 0 <= greedy.eps_rel < 1 or greedy.n_max < 2:
        raise ConfigError("invalid greedy settings (eps_abs >= 0, eps_rel in [0,1), n_max >= 2)")
    qp = QpSettings(tol=_finite(_settings_block(raw, "qp"), "tol", "qp", default=QpSettings.tol))
    if qp.tol <= 0:
        raise ConfigError(f"qp.tol must be positive, got {qp.tol!r}")

    cfg = ExperimentConfig(
        name=name,
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
    # the physical checks of FluidParams and RockField, at every combination
    for combo in cfg.combos():
        try:
            cfg.fluids_at(combo)
            cfg.rock_at(combo)
        except ValueError as err:
            raise ConfigError(f"at {combo}: {err}") from err
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(raw)


def load_preset(name: str) -> ExperimentConfig:
    """Bundled experiment presets ('example1', 'example2')."""
    ref = resources.files(__package__) / "presets" / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(f"no bundled preset named {name!r}")
    return parse_config(json.loads(ref.read_text()))
