"""On-disk artifacts: snapshot stores, reduced models, CSV reports.

A snapshot store is a directory with a manifest.json describing the sweep
and a snapshots.npz holding one row per snapshot (parameter components,
saturation values, mass) and one entry per simulation (IMPES step count,
smallest CFL step, relative mass-balance residual). Generation writes
snapshots.npz once, after the whole sweep has run, through a temporary
file and a rename: a reader sees either no snapshots.npz or a complete one.
All floats are written with shortest round-trip formatting so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import transport
from .config import ConfigError
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
MODEL_ARRAYS = ("atoms", "atom_params", "atom_indices", "weight_table", "mass_table")


class StoreError(RuntimeError):
    pass


@dataclass(frozen=True)
class SnapshotStore:
    name: str
    axis_names: tuple[str, ...]  # ("t", <sweep axes...>)
    params: np.ndarray  # (K, d)
    values: np.ndarray  # (K, N)
    masses: np.ndarray  # (K,)
    steps: np.ndarray  # (combos,) IMPES steps per simulation
    min_dt_s: np.ndarray  # (combos,) smallest CFL step [s]
    mass_residual: np.ndarray  # (combos,) mass-balance residual / pore volume
    x_min: float
    x_max: float
    n_cells: int
    config: dict

    @property
    def count(self) -> int:
        return self.params.shape[0]


def fmt(value) -> str:
    """Shortest round-trip text for CSV cells."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """CSV of a header and rows of cells; a 2-D float array as rows is
    written with the same text as `fmt`, each distinct value of a column
    formatted once. Values are told apart by their bits, not by `==`: -0.0
    and 0.0 compare equal but print differently."""
    path = Path(path)
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        cols = []
        for col in rows.T:
            bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            cols.append(text[inverse].tolist())
        lines.extend(map(",".join, zip(*cols)))
    else:
        lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


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
    if payload.get("schema_version") != schema:
        raise StoreError(
            f"{kind} schema_version {payload.get('schema_version')!r} is not {schema}"
        )


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


def store_manifest(config: dict, axis_names, combo_count: int, time_count: int) -> dict:
    return {
        "kind": STORE_KIND,
        "schema_version": STORE_SCHEMA,
        "axis_names": list(axis_names),
        "combo_count": combo_count,
        "time_count": time_count,
        "config": config,
    }


def init_store_dir(directory, manifest: dict, force: bool = False) -> Path:
    """Create (or reuse, when its manifest matches) a store directory for
    generation; a rewritten manifest drops the stale snapshots.npz."""
    directory = make_dir(directory)
    man_path = directory / MANIFEST_NAME
    if man_path.exists() and not force:
        existing = _read_json(man_path)
        if existing != manifest:
            raise StoreError(
                f"{directory} holds a store for a different config; "
                "use --force to overwrite"
            )
    else:
        (directory / SNAPSHOTS_NAME).unlink(missing_ok=True)
        _write_json(man_path, manifest)
    return directory


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


def _check_store_shapes(arrays: dict, manifest: dict) -> None:
    combos, times = manifest["combo_count"], manifest["time_count"]
    n_cells = int(manifest["config"]["grid"]["n_cells"])
    rows = combos * times
    expected = dict(
        params=(rows, len(manifest["axis_names"])), values=(rows, n_cells), masses=(rows,),
        steps=(combos,), min_dt_s=(combos,), mass_residual=(combos,),
    )
    _check_shapes(
        arrays, expected, f"{combos} simulations x {times} times x {n_cells} cells"
    )


def _check_store_values(arrays: dict) -> None:
    """StoreError, naming the array, unless the params are finite, the
    saturations lie in [0, 1] and the masses are finite and nonnegative;
    NaN fails every comparison, so the reductions catch it too."""
    params, values, masses = arrays["params"], arrays["values"], arrays["masses"]
    checks = (
        ("params", "of finite values", lambda: np.isfinite(params).all()),
        ("values", "within [0, 1]", lambda: values.min() >= 0.0 and values.max() <= 1.0),
        ("masses", "of finite, nonnegative values",
         lambda: np.isfinite(masses).all() and masses.min() >= 0.0),
    )
    for name, rule, holds in checks:
        arr = arrays[name]
        if arr.dtype.kind != "f" or (arr.size and not holds()):
            raise StoreError(f"array {name!r} is not a float array {rule}")


def save_store(directory, manifest: dict, **arrays) -> None:
    """Write the STORE_ARRAYS of a finished sweep as snapshots.npz, after
    checking their shapes against the manifest."""
    _check_store_shapes(arrays, manifest)
    savez_atomic(Path(directory) / SNAPSHOTS_NAME, **{name: arrays[name] for name in STORE_ARRAYS})


def load_store(directory) -> SnapshotStore:
    """Read and validate a complete store; StoreError on any inconsistency."""
    directory = Path(directory)
    man_path = directory / MANIFEST_NAME
    npz_path = directory / SNAPSHOTS_NAME
    if not man_path.exists():
        raise StoreError(f"not a snapshot store (no {MANIFEST_NAME}): {directory}")
    manifest = _read_json(man_path)
    _check_kind(manifest, man_path, STORE_KIND, STORE_SCHEMA)
    if not npz_path.exists():
        raise StoreError(f"store incomplete (no {SNAPSHOTS_NAME}); rerun generate")
    try:
        cfg = manifest["config"]
        arrays = _read_npz(npz_path, STORE_ARRAYS)
        _check_store_shapes(arrays, manifest)
        _check_store_values(arrays)
        return SnapshotStore(
            name=cfg["name"],
            axis_names=tuple(manifest["axis_names"]),
            **arrays,
            x_min=float(cfg["grid"]["x_min_km"]),
            x_max=float(cfg["grid"]["x_max_km"]),
            n_cells=int(cfg["grid"]["n_cells"]),
            config=cfg,
        )
    except (KeyError, TypeError) as err:
        raise StoreError(f"{man_path} lacks a field: {err}") from err


REPORT_COLUMNS = ("n", "delta", "mean_w2", "condition", "volume", "criterion",
                  "l1_mean", "l1_max", "qp_iters_max", "n_unconverged", "kkt_max")


def save_report(path, report: GreedyReport):
    """Write the report's columns by name, its termination in the last
    criterion cell; ValueError when the columns are empty or differ in length."""
    criterion = [""] * (len(report.n) - 1) + [report.termination]
    cols = {name: criterion if name == "criterion" else getattr(report, name)
            for name in REPORT_COLUMNS}
    lengths = {name: len(col) for name, col in cols.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"greedy report columns must be nonempty and of one length: {lengths}")
    write_csv(path, REPORT_COLUMNS, zip(*cols.values()))


def load_report(model_dir) -> GreedyReport:
    """Read a model directory's greedy report (its warnings stay in
    model.json); StoreError when it is missing or malformed."""
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
    return GreedyReport(**num, termination=cols["criterion"][-1])


def save_model(directory, model: ReducedModel, report: GreedyReport):
    directory = make_dir(directory)
    save_report(directory / REPORT_NAME, report)  # first: a bad report leaves no model
    arrays = {
        "atoms": model.dictionary.atoms,
        "atom_params": model.dictionary.atom_params,
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
            "n_atoms": model.n_atoms,
            "termination": report.termination,
            "warnings": report.warnings,
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
        axis_names = tuple(meta["axis_names"])
        n_atoms = int(meta["n_atoms"])
        n_raw = int(meta["n_raw"])
        x_min, x_max = float(meta["x_min_km"]), float(meta["x_max_km"])
    except (KeyError, TypeError, ValueError) as err:
        raise StoreError(f"{meta_path} lacks a valid field: {err}") from err
    axis_keys = tuple(f"axis_{i}" for i in range(len(axis_names)))
    data = _read_npz(directory / MODEL_ARRAYS_NAME, MODEL_ARRAYS + axis_keys)
    axes = tuple(data[key] for key in axis_keys)
    for key, ax in zip(axis_keys, axes):
        ok = ax.ndim == 1 and ax.dtype.kind == "f" and ax.size and np.isfinite(ax).all()
        if not (ok and (np.diff(ax) > 0).all()):
            raise StoreError(f"array {key!r} is not a nonempty, finite, strictly increasing axis")
    shape = tuple(ax.size for ax in axes)
    expected = dict(
        atoms=(transport.icdf_size(n_raw), n_atoms), atom_params=(n_atoms, len(axis_names)),
        atom_indices=(n_atoms,), weight_table=shape + (n_atoms,), mass_table=shape,
    )
    _check_shapes(data, expected, f"{n_atoms} atoms of {n_raw} cells on a {shape} grid")
    for name in ("atoms", "weight_table", "mass_table"):
        if data[name].dtype.kind != "f" or not np.isfinite(data[name]).all():
            raise StoreError(f"array {name!r} is not a finite float array")
    # icdfs are nondecreasing; the bound forgives a rounding-level dip
    if (np.diff(data["atoms"], axis=0) < -1e-12 * (x_max - x_min)).any():
        raise StoreError("array 'atoms' has a decreasing column, which is not an icdf")
    dictionary = Dictionary(
        atoms=data["atoms"],
        atom_params=data["atom_params"],
        atom_indices=data["atom_indices"],
    )
    return ReducedModel(
        dictionary=dictionary,
        axis_names=axis_names,
        axes=axes,
        weight_table=data["weight_table"],
        mass_table=data["mass_table"],
        n_raw=n_raw,
        x_min=x_min,
        x_max=x_max,
    )


def check_same_grid(model: ReducedModel, st: SnapshotStore) -> None:
    """StoreError, naming both grids, when a store's snapshots live on
    another cell grid than the model's profiles."""
    model_grid = (model.n_raw, model.x_min, model.x_max)
    store_grid = (st.n_cells, st.x_min, st.x_max)
    if model_grid != store_grid:
        describe = "{} cells on [{}, {}] km".format
        raise StoreError(
            f"the model's grid ({describe(*model_grid)}) is not the store's "
            f"({describe(*store_grid)})"
        )
