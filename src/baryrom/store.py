"""On-disk artifacts: snapshot stores, reduced models, CSV reports.

A snapshot store is a directory with a manifest.json and a snapshots.npz.
The manifest holds only `kind`, `schema_version` and the config that
generated the store; every load validates that config with `parse_config`,
and the sweep, grid and axis names are derived from the parsed config. The
npz holds one row per snapshot (parameter components, saturation values,
mass) and one entry per simulation (IMPES step count, smallest CFL step,
relative mass-balance residual). `save_store` alone writes a store, once,
after the whole sweep has run: it drops a stale manifest.json, writes
snapshots.npz, then manifest.json, each through a temporary file and a
rename, so a directory holds a manifest only beside a complete
snapshots.npz; before the sweep, `check_store_dir` writes nothing. All
floats are written with shortest round-trip formatting so reruns are
byte-identical.

A model directory states each fact once. model.json holds `kind`,
`schema_version`, `axis_names` and the cell grid (`n_raw`, `x_min_km`,
`x_max_km`); model.npz holds `atoms`, whose column count is the atom count,
`atom_indices`, `weight_table`, `mass_table` and one `axis_i` per axis;
greedy_report.csv holds one row per greedy iteration, with the termination
reason in the last `criterion` cell and the unconverged weight solves in
`n_unconverged`. The `n_atoms`, `termination` and `warnings` keys and the
`atom_params` array of older model directories are ignored on load.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import simplexqp, transport
from .config import ConfigError, ExperimentConfig, parse_config
from .greedy import Dictionary, GreedyReport
from .online import ReducedModel

MANIFEST_NAME = "manifest.json"
SNAPSHOTS_NAME = "snapshots.npz"
STORE_KIND = "snapshot_store"
STORE_SCHEMA = 1
# one row per snapshot, then one entry per simulation
STORE_ARRAYS = ("params", "values", "masses", "steps", "min_dt_s", "mass_residual")
MODEL_META_NAME = "model.json"
MODEL_ARRAYS_NAME = "model.npz"
REPORT_NAME = "greedy_report.csv"
MODEL_KIND = "reduced_model"
MODEL_SCHEMA = 1
MODEL_ARRAYS = ("atoms", "atom_indices", "weight_table", "mass_table")


class StoreError(RuntimeError):
    pass


@dataclass(frozen=True)
class SnapshotStore:
    config: ExperimentConfig  # the sweep, grid and axis names
    params: np.ndarray  # (K, d)
    values: np.ndarray  # (K, N)
    masses: np.ndarray  # (K,)
    steps: np.ndarray  # (combos,) IMPES steps per simulation
    min_dt_s: np.ndarray  # (combos,) smallest CFL step [s]
    mass_residual: np.ndarray  # (combos,) mass-balance residual / pore volume

    @property
    def count(self) -> int:
        return self.params.shape[0]


def write_csv(path, columns):
    """CSV of a sequence of (name, cells) columns; ValueError, naming each
    column's shape, unless every column is 1-D and all have one length,
    and then nothing is written. A float column is written with shortest
    round-trip text, each distinct value formatted once: values are told
    apart by their bits, not by `==` (-0.0 and 0.0 compare equal but print
    differently). Any other column is written with `str` per cell, None as
    "-", the cell of a tolerance that no size reaches."""
    names, cols = zip(*((name, np.asarray(cells)) for name, cells in columns))
    if any(col.ndim != 1 for col in cols) or len({col.size for col in cols}) > 1:
        shapes = ", ".join(f"{name} {col.shape}" for name, col in zip(names, cols))
        raise ValueError(f"CSV columns must be 1-D and of one length: {shapes}")
    text = []
    for col in cols:
        if col.dtype.kind == "f":
            bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
            distinct = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            text.append(distinct[inverse].tolist())
        else:
            text.append(["-" if cell is None else str(cell) for cell in col.tolist()])
    write_text_atomic(path, "\n".join([",".join(names), *map(",".join, zip(*text))]) + "\n")


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _write_json(path, payload: dict):
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path):
    """Parsed JSON of a file; StoreError when it is unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise StoreError(f"unreadable {Path(path).name} in {Path(path).parent}: {err}") from err


def _check_kind(payload, path, kind: str, schema: int) -> None:
    if not isinstance(payload, dict) or payload.get("kind") != kind:
        raise StoreError(f"{path} does not describe a {kind}")
    version = payload.get("schema_version")
    if type(version) is not int or version != schema:  # true == 1, but is a bool
        raise StoreError(f"{kind} schema_version {version!r} is not {schema}")


def savez_atomic(path, **arrays) -> None:
    """Write an npz file through a temporary file and a rename, so a reader
    never sees a partial file."""
    path = Path(path)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    tmp.replace(path)


def write_text_atomic(path, text: str) -> None:
    """The text twin of `savez_atomic`."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def make_dir(directory) -> Path:
    """Create an output directory and its parents; ConfigError (a usage
    error) when the path or one of its parents is not a directory."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {directory}: {err}") from err
    return directory


def check_store_dir(directory, cfg: ExperimentConfig, force: bool = False) -> Path:
    """Create a store directory for generation and check, writing nothing
    in it, that it may take this config's store: StoreError when it holds
    a manifest of another config, unless force."""
    directory = make_dir(directory)
    man_path = directory / MANIFEST_NAME
    if man_path.exists() and not force:
        existing = _read_json(man_path)
        # refused as a load refuses it: a `true` version compares equal to 1
        _check_kind(existing, man_path, STORE_KIND, STORE_SCHEMA)
        if existing != _store_manifest(cfg):
            raise StoreError(
                f"{directory} holds a store for a different config; "
                "use --force to overwrite"
            )
    return directory


def _store_manifest(cfg: ExperimentConfig) -> dict:
    return {"kind": STORE_KIND, "schema_version": STORE_SCHEMA, "config": cfg.raw}


def _read_npz(path, names) -> dict:
    """The named arrays of an npz file; StoreError when it is unreadable."""
    try:
        # an own handle: np.load leaks its handle when the archive is corrupt
        with open(path, "rb") as handle, np.load(handle) as data:
            return {name: data[name] for name in names}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as err:
        raise StoreError(f"unreadable {Path(path).name}: {err}") from err


def _check_shapes(arrays: dict, expected: dict, context: str) -> None:
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise StoreError(
                f"array {name!r} has shape {arrays[name].shape}, expected {shape} for {context}"
            )


def _check_store_shapes(arrays: dict, cfg: ExperimentConfig) -> None:
    combos, times, n_cells = len(cfg.combos()), len(cfg.snapshot_times_yr), cfg.grid.n_cells
    rows = combos * times
    expected = dict(
        params=(rows, len(cfg.axis_names)), values=(rows, n_cells), masses=(rows,),
        steps=(combos,), min_dt_s=(combos,), mass_residual=(combos,),
    )
    _check_shapes(
        arrays, expected, f"{combos} simulations x {times} times x {n_cells} cells"
    )


def _check_store_values(arrays: dict) -> None:
    """StoreError, naming the array, unless the params are finite, the
    saturations lie in [0, 1], the masses are finite and nonnegative, the
    step counts are whole and nonnegative, the smallest steps positive (inf
    for a row that took no step) and the mass-balance residuals finite and
    nonnegative; NaN fails every comparison, so the reductions catch it too."""
    params, values, masses = arrays["params"], arrays["values"], arrays["masses"]
    steps, min_dt, residual = arrays["steps"], arrays["min_dt_s"], arrays["mass_residual"]
    finite_nonnegative = "a float array of finite, nonnegative values"
    checks = (
        ("params", "f", "a float array of finite values", lambda: np.isfinite(params).all()),
        ("values", "f", "a float array within [0, 1]",
         lambda: values.min() >= 0.0 and values.max() <= 1.0),
        ("masses", "f", finite_nonnegative,
         lambda: np.isfinite(masses).all() and masses.min() >= 0.0),
        ("steps", "iu", "an integer array of nonnegative values", lambda: steps.min() >= 0),
        ("min_dt_s", "f", "a float array of positive values", lambda: (min_dt > 0.0).all()),
        ("mass_residual", "f", finite_nonnegative,
         lambda: np.isfinite(residual).all() and residual.min() >= 0.0),
    )
    for name, kinds, rule, holds in checks:
        arr = arrays[name]
        if arr.dtype.kind not in kinds or (arr.size and not holds()):
            raise StoreError(f"array {name!r} is not {rule}")


def save_store(directory, cfg: ExperimentConfig, **arrays) -> None:
    """Write a finished sweep as a store, after checking the shapes of its
    arrays against the config: the sweep's params and the other
    STORE_ARRAYS in snapshots.npz, then manifest.json. A stale manifest
    goes first, so the directory holds a manifest only once its
    snapshots.npz is complete."""
    arrays = {**arrays, "params": cfg.sweep_params()}
    _check_store_shapes(arrays, cfg)
    directory = Path(directory)
    (directory / MANIFEST_NAME).unlink(missing_ok=True)
    savez_atomic(directory / SNAPSHOTS_NAME, **{name: arrays[name] for name in STORE_ARRAYS})
    _write_json(directory / MANIFEST_NAME, _store_manifest(cfg))


def load_store(directory) -> SnapshotStore:
    """Read and validate a complete store; StoreError on any inconsistency,
    an invalid recorded config included."""
    directory = Path(directory)
    man_path = directory / MANIFEST_NAME
    npz_path = directory / SNAPSHOTS_NAME
    if not man_path.exists():
        raise StoreError(f"not a snapshot store (no {MANIFEST_NAME}): {directory}")
    manifest = _read_json(man_path)
    _check_kind(manifest, man_path, STORE_KIND, STORE_SCHEMA)
    try:
        cfg = parse_config(manifest.get("config"))
    except ConfigError as err:
        raise StoreError(f"{man_path} holds an invalid config: {err}") from err
    if not npz_path.exists():
        raise StoreError(f"store incomplete (no {SNAPSHOTS_NAME}); rerun generate")
    arrays = _read_npz(npz_path, STORE_ARRAYS)
    _check_store_shapes(arrays, cfg)
    _check_store_values(arrays)
    if not np.array_equal(arrays["params"], cfg.sweep_params()):
        raise StoreError("array 'params' is not the sweep of the manifest's axes and "
                         "snapshot times (every combination in tensor order, at every time)")
    return SnapshotStore(config=cfg, **arrays)


REPORT_COLUMNS = ("n", "delta", "mean_w2", "condition", "volume", "criterion",
                  "l1_mean", "l1_max", "qp_iters_max", "n_unconverged", "kkt_max")


def save_report(path, report: GreedyReport):
    """Write the report's columns by name, its termination in the last
    criterion cell; ValueError when the columns differ in length, as they
    do for a report of no iteration, whose criterion column still holds
    the termination."""
    criterion = [""] * (len(report.n) - 1) + [report.termination]
    write_csv(path, [(name, criterion if name == "criterion" else getattr(report, name))
                     for name in REPORT_COLUMNS])


def load_report(model_dir) -> GreedyReport:
    """Read a model directory's greedy report; StoreError when it is
    missing or malformed."""
    path = Path(model_dir) / REPORT_NAME
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError, IndexError) as err:
        raise StoreError(f"unreadable report {path}: {err}") from err
    if tuple(header) != REPORT_COLUMNS:
        raise StoreError(f"unexpected report columns in {path}")
    if not rows:
        raise StoreError(f"report {path} holds no iterations")
    if any(len(row) != len(REPORT_COLUMNS) for row in rows):
        raise StoreError(f"report {path} has a row without {len(REPORT_COLUMNS)} cells")
    cols = dict(zip(REPORT_COLUMNS, zip(*rows)))
    counts = ("n", "qp_iters_max", "n_unconverged")
    try:
        num = {
            name: [(int if name in counts else float)(cell) for cell in cells]
            for name, cells in cols.items() if name != "criterion"
        }
    except ValueError as err:
        raise StoreError(f"report {path}: {err}") from err
    for name, cells in num.items():
        # condition_of_gram reports a rank-deficient Gram as +inf
        allowed = (math.inf,) if name == "condition" else ()
        if any(not math.isfinite(cell) and cell not in allowed for cell in cells):
            raise StoreError(f"report {path}: column {name!r} holds a non-finite value")
        if min(cells) < 0:
            raise StoreError(f"report {path}: column {name!r} holds a negative value")
    # the greedy starts from two atoms and adds one per iteration
    if num["n"] != list(range(2, 2 + len(rows))):
        raise StoreError(f"report {path}: column 'n' does not run 2, 3, ... in steps of one")
    return GreedyReport(**num, termination=cols["criterion"][-1])


def save_model(directory, model: ReducedModel, report: GreedyReport):
    directory = make_dir(directory)
    save_report(directory / REPORT_NAME, report)  # first: a bad report leaves no model
    arrays = {
        "atoms": model.dictionary.atoms,
        "atom_indices": model.dictionary.atom_indices,
        "weight_table": model.weight_table,
        "mass_table": model.mass_table,
    }
    for i, ax in enumerate(model.axes):
        arrays[f"axis_{i}"] = ax
    savez_atomic(directory / MODEL_ARRAYS_NAME, **arrays)
    _write_json(
        directory / MODEL_META_NAME,
        {
            "kind": MODEL_KIND,
            "schema_version": MODEL_SCHEMA,
            "axis_names": list(model.axis_names),
            "n_raw": model.n_raw,
            "x_min_km": model.x_min,
            "x_max_km": model.x_max,
        },
    )


def load_model(directory) -> ReducedModel:
    """Read and validate a model directory; StoreError on any inconsistency."""
    directory = Path(directory)
    meta_path = directory / MODEL_META_NAME
    if not meta_path.exists():
        raise StoreError(f"not a model directory (no {MODEL_META_NAME}): {directory}")
    meta = _read_json(meta_path)
    _check_kind(meta, meta_path, MODEL_KIND, MODEL_SCHEMA)
    try:
        axis_names = meta["axis_names"]
        n_raw, x_min, x_max = meta["n_raw"], meta["x_min_km"], meta["x_max_km"]
    except KeyError as err:
        raise StoreError(f"{meta_path} lacks a valid field: {err}") from err
    if not (isinstance(axis_names, list) and all(isinstance(name, str) for name in axis_names)):
        raise StoreError(f"{meta_path}: axis_names {axis_names!r} is not a list of strings")
    axis_names = tuple(axis_names)
    # JSON numbers only (a bool or a string is not one); NaN fails every comparison
    numbers = all(type(value) in (int, float) for value in (n_raw, x_min, x_max))
    if not (numbers and float(n_raw).is_integer() and n_raw >= 2
            and -math.inf < x_min < x_max < math.inf):
        raise StoreError(f"{meta_path} holds an unusable grid: {n_raw!r} cells on "
                         f"[{x_min!r}, {x_max!r}] km (needs a whole number of at least 2 "
                         "cells and finite numbers x_min_km < x_max_km)")
    n_raw, x_min, x_max = int(n_raw), float(x_min), float(x_max)
    axis_keys = tuple(f"axis_{i}" for i in range(len(axis_names)))
    npz_path = directory / MODEL_ARRAYS_NAME
    data = _read_npz(npz_path, MODEL_ARRAYS + axis_keys)
    if data["atoms"].ndim != 2 or data["atoms"].dtype.kind != "f":
        raise StoreError(f"array 'atoms' of {npz_path} is not a 2-D float array")
    n_atoms = data["atoms"].shape[1]
    if n_atoms < 2:
        raise StoreError(f"{npz_path} holds {n_atoms} atoms; a model needs at least 2")
    axes = tuple(data[key] for key in axis_keys)
    for key, ax in zip(axis_keys, axes):
        ok = ax.ndim == 1 and ax.dtype.kind == "f" and ax.size and np.isfinite(ax).all()
        if not (ok and (np.diff(ax) > 0).all()):
            raise StoreError(f"array {key!r} is not a nonempty, finite, strictly increasing axis")
    shape = tuple(ax.size for ax in axes)
    expected = dict(
        atoms=(transport.icdf_size(n_raw), n_atoms), atom_indices=(n_atoms,),
        weight_table=shape + (n_atoms,), mass_table=shape,
    )
    _check_shapes(data, expected, f"{n_atoms} atoms of {n_raw} cells on a {shape} grid")
    for name in ("atoms", "weight_table", "mass_table"):
        if data[name].dtype.kind != "f" or not np.isfinite(data[name]).all():
            raise StoreError(f"array {name!r} is not a finite float array")
    # icdfs are nondecreasing; the bound forgives a rounding-level dip
    if (np.diff(data["atoms"], axis=0) < -1e-12 * (x_max - x_min)).any():
        raise StoreError("array 'atoms' has a decreasing column, which is not an icdf")
    # every weight row on the simplex, by the solver's own rule
    weights = data["weight_table"]
    if not ((weights >= 0.0).all()
            and (np.abs(weights.sum(axis=-1) - 1.0) <= simplexqp.SIMPLEX_SUM_TOL).all()):
        raise StoreError("array 'weight_table' has a row off the simplex: a negative weight "
                         f"or a sum more than {simplexqp.SIMPLEX_SUM_TOL:g} from 1")
    if (data["mass_table"] < 0.0).any():
        raise StoreError("array 'mass_table' holds a negative mass")
    indices = data["atom_indices"]
    if (indices.dtype.kind not in "iu" or (indices < 0).any()
            or np.unique(indices).size != n_atoms):
        raise StoreError("array 'atom_indices' is not of distinct, nonnegative integers")
    return ReducedModel(
        dictionary=Dictionary(atoms=data["atoms"], atom_indices=indices),
        axis_names=axis_names,
        axes=axes,
        weight_table=data["weight_table"],
        mass_table=data["mass_table"],
        n_raw=n_raw,
        x_min=x_min,
        x_max=x_max,
    )


def check_model_fits_store(model: ReducedModel, st: SnapshotStore,
                           same_sweep: bool = True) -> None:
    """StoreError, naming both, when a store's snapshots live on another
    cell grid than the model's profiles, or were swept over other axes; with
    same_sweep, also when an axis of the store's sweep holds other values
    than the model's, or an atom index lies outside the store."""
    grid = st.config.grid
    model_grid = (model.n_raw, model.x_min, model.x_max)
    store_grid = (grid.n_cells, grid.x_min, grid.x_max)
    if model_grid != store_grid:
        describe = "{} cells on [{}, {}] km".format
        raise StoreError(
            f"the model's grid ({describe(*model_grid)}) is not the store's "
            f"({describe(*store_grid)})"
        )
    axis_names = st.config.axis_names
    if axis_names != model.axis_names:
        raise StoreError(f"the store's axes {list(axis_names)} are not the "
                         f"model's {list(model.axis_names)}")
    if not same_sweep:
        return
    sweep = (st.config.snapshot_times_yr, *(ax.values for ax in st.config.axes))
    for name, values, ax in zip(axis_names, sweep, model.axes):
        if not np.array_equal(values, ax):
            raise StoreError(f"the store's axis {name!r} sweeps {list(values)}, "
                             f"the model's {ax.tolist()}")
    if model.dictionary.atom_indices.max() >= st.count:
        raise StoreError(f"array 'atom_indices' of the model holds an index past the "
                         f"store's {st.count} snapshots")
