"""On-disk artifacts: snapshot stores, reduced models, CSV reports.

A snapshot store is a directory with a manifest.json describing the sweep
and a snapshots.npz holding one row per snapshot (parameter components,
saturation values, mass) and one entry per simulation (IMPES step count,
smallest CFL step, relative mass-balance residual). Generation writes one
chunk file per simulated parameter combination so interrupted sweeps
resume where they stopped.
All floats are written with shortest round-trip formatting so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .greedy import Dictionary, GreedyReport
from .online import ReducedModel

MANIFEST_NAME = "manifest.json"
SNAPSHOTS_NAME = "snapshots.npz"
CHUNK_DIR = "chunks"
STORE_KIND = "snapshot_store"
STORE_SCHEMA = 1
# one row per snapshot, then one entry per simulation
STORE_ARRAYS = ("params", "values", "masses", "steps", "min_dt_s", "mass_residual")


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
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _write_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    """Create (or reuse, for resuming) a store directory for generation."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    man_path = directory / MANIFEST_NAME
    if man_path.exists() and not force:
        existing = json.loads(man_path.read_text())
        if existing != manifest:
            raise StoreError(
                f"{directory} holds a store for a different config; "
                "use --force to overwrite"
            )
    else:
        for stale in [directory / SNAPSHOTS_NAME, *sorted((directory / CHUNK_DIR).glob("*.npz"))]:
            stale.unlink(missing_ok=True)
        _write_json(man_path, manifest)
    (directory / CHUNK_DIR).mkdir(exist_ok=True)
    return directory


def chunk_path(directory, index: int) -> Path:
    return Path(directory) / CHUNK_DIR / f"sim_{index:05d}.npz"


def write_chunk(directory, index: int, params, values, masses, *, steps, min_dt_s,
                mass_residual):
    """Store the snapshots of one simulation and its run statistics."""
    path = chunk_path(directory, index)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, params=params, values=values, masses=masses, steps=np.array([steps]),
             min_dt_s=np.array([min_dt_s]), mass_residual=np.array([mass_residual]))
    tmp.replace(path)


def _read_npz(path, names) -> dict:
    """The named arrays of an npz file; StoreError when it is unreadable."""
    try:
        # an own handle: np.load leaks its handle when the archive is corrupt
        with open(path, "rb") as handle, np.load(handle) as data:
            return {name: data[name] for name in names}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile) as err:
        raise StoreError(f"unreadable {Path(path).name}: {err}") from err


def _check_shapes(arrays: dict, manifest: dict) -> None:
    combos, times = manifest["combo_count"], manifest["time_count"]
    n_cells = int(manifest["config"]["grid"]["n_cells"])
    rows = combos * times
    expected = dict(
        params=(rows, len(manifest["axis_names"])), values=(rows, n_cells), masses=(rows,),
        steps=(combos,), min_dt_s=(combos,), mass_residual=(combos,),
    )
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise StoreError(
                f"store array {name!r} has shape {arrays[name].shape}, expected {shape} "
                f"for {combos} simulations x {times} times x {n_cells} cells"
            )


def consolidate_store(directory, manifest: dict) -> None:
    """Merge all chunks into snapshots.npz and drop them."""
    directory = Path(directory)
    combo_count = manifest["combo_count"]
    parts = []
    for idx in range(combo_count):
        path = chunk_path(directory, idx)
        if not path.exists():
            raise StoreError(f"store incomplete: missing chunk {path.name}")
        parts.append(_read_npz(path, STORE_ARRAYS))
    try:
        merged = {name: np.concatenate([p[name] for p in parts]) for name in STORE_ARRAYS}
    except ValueError as err:
        raise StoreError(f"chunks do not fit together: {err}") from err
    _check_shapes(merged, manifest)
    final = directory / SNAPSHOTS_NAME
    tmp = final.with_suffix(".tmp.npz")
    np.savez(tmp, **merged)
    tmp.replace(final)
    for idx in range(combo_count):
        chunk_path(directory, idx).unlink()


def load_store(directory) -> SnapshotStore:
    """Read and validate a complete store; StoreError on any inconsistency."""
    directory = Path(directory)
    man_path = directory / MANIFEST_NAME
    npz_path = directory / SNAPSHOTS_NAME
    if not man_path.exists():
        raise StoreError(f"not a snapshot store (no {MANIFEST_NAME}): {directory}")
    try:
        manifest = json.loads(man_path.read_text())
    except (OSError, ValueError) as err:
        raise StoreError(f"unreadable {MANIFEST_NAME} in {directory}: {err}") from err
    if not isinstance(manifest, dict) or manifest.get("kind") != STORE_KIND:
        raise StoreError(f"{man_path} does not describe a {STORE_KIND}")
    if manifest.get("schema_version") != STORE_SCHEMA:
        raise StoreError(
            f"store schema_version {manifest.get('schema_version')!r} is not {STORE_SCHEMA}"
        )
    if not npz_path.exists():
        raise StoreError(f"store incomplete (no {SNAPSHOTS_NAME}); rerun generate")
    try:
        cfg = manifest["config"]
        arrays = _read_npz(npz_path, STORE_ARRAYS)
        _check_shapes(arrays, manifest)
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


def save_report(path, report: GreedyReport, l1_mean, l1_max):
    rows = []
    last = len(report.sizes) - 1
    for i, n in enumerate(report.sizes):
        rows.append(
            (
                n,
                report.delta[i],
                report.avg_error[i],
                report.condition[i],
                report.simplex_volume[i],
                report.termination if i == last else "",
                l1_mean[i],
                l1_max[i],
                report.qp_iters_max[i],
                report.n_unconverged[i],
                report.kkt_max[i],
            )
        )
    write_csv(path, REPORT_COLUMNS, rows)


def load_report(path) -> tuple[GreedyReport, np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    if tuple(header) != REPORT_COLUMNS:
        raise StoreError(f"unexpected report columns in {path}")
    report = GreedyReport()
    l1_mean, l1_max = [], []
    for row in rows:
        report.sizes.append(int(row[0]))
        report.delta.append(float(row[1]))
        report.avg_error.append(float(row[2]))
        report.condition.append(float(row[3]))
        report.simplex_volume.append(float(row[4]))
        if row[5]:
            report.termination = row[5]
        l1_mean.append(float(row[6]))
        l1_max.append(float(row[7]))
        report.qp_iters_max.append(int(row[8]))
        report.n_unconverged.append(int(row[9]))
        report.kkt_max.append(float(row[10]))
    return report, np.asarray(l1_mean), np.asarray(l1_max)


def save_model(directory, model: ReducedModel, report: GreedyReport, l1_mean, l1_max):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {
        "atoms": model.dictionary.atoms,
        "atom_params": model.dictionary.atom_params,
        "atom_indices": model.dictionary.atom_indices,
        "gram": model.dictionary.gram,
        "weight_table": model.weight_table,
        "mass_table": model.mass_table,
    }
    for i, ax in enumerate(model.axes):
        arrays[f"axis_{i}"] = ax
    np.savez(directory / "model.npz", **arrays)
    _write_json(
        directory / "model.json",
        {
            "kind": "reduced_model",
            "schema_version": 1,
            "axis_names": list(model.axis_names),
            "n_raw": model.n_raw,
            "x_min_km": model.x_min,
            "x_max_km": model.x_max,
            "n_atoms": model.n_atoms,
            "termination": report.termination,
            "warnings": report.warnings,
        },
    )
    save_report(directory / "greedy_report.csv", report, l1_mean, l1_max)


def load_model(directory) -> ReducedModel:
    directory = Path(directory)
    meta_path = directory / "model.json"
    if not meta_path.exists():
        raise StoreError(f"not a model directory (no model.json): {directory}")
    meta = json.loads(meta_path.read_text())
    with np.load(directory / "model.npz") as data:
        dictionary = Dictionary(
            atoms=data["atoms"],
            atom_params=data["atom_params"],
            atom_indices=data["atom_indices"],
            gram=data["gram"],
        )
        axis_names = tuple(meta["axis_names"])
        axes = tuple(data[f"axis_{i}"] for i in range(len(axis_names)))
        return ReducedModel(
            dictionary=dictionary,
            axis_names=axis_names,
            axes=axes,
            weight_table=data["weight_table"],
            mass_table=data["mass_table"],
            n_raw=int(meta["n_raw"]),
            x_min=float(meta["x_min_km"]),
            x_max=float(meta["x_max_km"]),
        )


def load_model_report(directory):
    return load_report(Path(directory) / "greedy_report.csv")
