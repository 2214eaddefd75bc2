"""The three workloads: set-up, one closed-loop pass of CLI stages, checks.

A pass calls `baryrom.cli.main` in-process for each stage in turn, one
client, each stage starting when the previous one returned. `check` runs
outside the timed region on the outputs of the first pass and compares
them with `reference`; later passes must reproduce the first one exactly.
A check returns the operations that failed and the errors that make the
run incorrect: every error fails the run, while a failed operation of a
known defect (a suboptimal QP solve) is only counted.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs, reference

TRAIN_N_MAX = 7
QUERY_N_MAX = 3
LANDSCAPE_ATOMS = 3
DEFAULT_EPS = (0.1, 0.05, 0.01, 0.005)
# a final weight vector is suboptimal when its W2 error exceeds the exact
# simplex least-squares optimum by more than this share (a failed
# operation), and wrong when the excess passes this share of the worst-case
# optimum (an error; today's worst excess is 2-5 %)
QP_GAP_TOL = 1e-6
QP_HARD_GAP = 0.25
# largest relative L1 distance of a simulated profile from the reference
# IMPES run. The reference takes the program's steps, and the two agree to
# about 1e-11; a 5 % change of the CFL step moves profiles by 1e-3.
FLOW_TOL = 1e-6
# the fixed example2 simulation the sweep set-up runs, whatever the draw
SWEEP_WARMUP = {"k_lp": 7e-14, "gamma": 0.1}
SWEEP_WARMUP_TIMES = 8


class SetupError(RuntimeError):
    pass


@dataclass
class StageRun:
    name: str
    wall: float
    rc: int
    output: str


@dataclass
class Verdict:
    """Outcome of checking one pass: failed operations, errors, quality."""

    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def run_cli(argv, tracer=None, span: str | None = None) -> StageRun:
    """One `baryrom` CLI call with its output captured; an exception that
    escapes `main` counts as exit code 1."""
    from baryrom import cli

    buf = io.StringIO()
    rc = 1
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        sid = tracer.open(span) if tracer is not None else None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crashing stage is a failed operation
            traceback.print_exc(file=buf)
        wall = time.perf_counter() - start
        if sid is not None:
            tracer.close(sid)
    return StageRun(argv[0], wall, rc, buf.getvalue())


def _must(run: StageRun) -> None:
    if run.rc != 0:
        raise SetupError(f"{run.name} exited {run.rc}:\n{run.output[-2000:]}")


def _preset(name: str) -> dict:
    from baryrom.config import load_preset

    return load_preset(name).raw


def _load_npz(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, dict):
            for key in sorted(part):
                h.update(key.encode())
                h.update(np.ascontiguousarray(part[key]).tobytes())
        else:
            h.update(Path(part).read_bytes())
    return h.hexdigest()


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _snapshots(store_dir: Path):
    manifest = json.loads((store_dir / "manifest.json").read_text())
    data = _load_npz(store_dir / "snapshots.npz")
    return manifest, data


def _store_size(cfg: dict) -> int:
    """Snapshots a config's sweep produces: times x combinations."""
    return len(cfg["snapshot_times_yr"]) * int(np.prod([len(ax["values"]) for ax in cfg["axes"]]))


def _first_below(values, eps: float, labels) -> str:
    hits = np.flatnonzero(np.asarray(values) < eps)
    return str(int(labels[hits[0]])) if hits.size else "-"


class Workload:
    name = ""
    stages: tuple[str, ...] = ()
    operations = 0  # operations one pass attempts, known after set-up
    n_points = 0  # points one `online` call evaluates

    def __init__(self, seed: int):
        self.seed = seed
        self.dir: Path | None = None

    def setup(self, dest: Path) -> None:
        """Write the seeded inputs and build what the timed stages read."""
        raise NotImplementedError

    def argv(self, stage: str, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> Verdict:
        raise NotImplementedError

    def digest(self, out: Path) -> str:
        raise NotImplementedError


class Sweep(Workload):
    """`generate` with CLI defaults on a seeded example2 sub-grid."""

    name = "sweep"
    stages = ("generate",)

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        self.config = inputs.sweep_config(_preset("example2"), self.seed)
        inputs.dump_json(dest / "sweep.json", self.config)
        self.operations = _store_size(self.config) // len(self.config["snapshot_times_yr"])
        # warm-up: one fixed simulation, the same for every draw, so lazy
        # imports and first-call costs are paid before timing
        warm = json.loads(json.dumps(self.config))
        for ax in warm["axes"]:
            ax["values"] = [SWEEP_WARMUP[ax["name"]]]
        warm["snapshot_times_yr"] = warm["snapshot_times_yr"][:SWEEP_WARMUP_TIMES]
        inputs.dump_json(dest / "warmup.json", warm)
        _must(run_cli(["generate", "--config", str(dest / "warmup.json"),
                       "--out", str(dest / "warmup_store")]))
        self.dir = dest

    def argv(self, stage: str, out: Path) -> list[str]:
        return ["generate", "--config", str(self.dir / "sweep.json"), "--out", str(out / "store")]

    def check(self, out: Path) -> Verdict:
        cfg = self.config
        times = cfg["snapshot_times_yr"]
        combos = list(itertools.product(*(ax["values"] for ax in cfg["axes"])))
        verdict = Verdict()
        try:
            manifest, data = _snapshots(out / "store")
        except OSError as err:
            verdict.failed = len(combos)
            verdict.errors.append(f"store unreadable: {err}")
            return verdict
        if manifest["config"] != cfg:
            verdict.errors.append("manifest config differs from the input config")
        expected = np.array([(t, *combo) for combo in combos for t in times])
        params, values, masses = data["params"], data["values"], data["masses"]
        if params.shape != expected.shape or not np.array_equal(params, expected):
            verdict.failed = len(combos)
            verdict.errors.append("snapshot parameter rows do not match the sweep")
            return verdict
        grid = cfg["grid"]
        dx = (grid["x_max_km"] - grid["x_min_km"]) / grid["n_cells"]
        finite = np.all(np.isfinite(values), axis=1)
        bounded = np.all((values >= 0.0) & (values <= 1.0), axis=1)
        mass_ok = np.abs(masses - values.sum(axis=1) * dx) <= 1e-12 * np.maximum(1.0, np.abs(masses))
        bad_rows = ~(finite & bounded & mass_ok & np.isfinite(masses))
        bad_sims = bad_rows.reshape(len(combos), len(times)).any(axis=1)
        # water is injected and never leaves faster than it enters
        bad_sims |= np.any(np.diff(masses.reshape(len(combos), len(times)), axis=1) < 0.0, axis=1)
        names = [ax["name"] for ax in cfg["axes"]]
        rows = values.reshape(len(combos), len(times), -1)
        gaps = np.empty(len(combos))
        for c, combo in enumerate(combos):
            want = reference.impes(cfg, dict(zip(names, combo)), times)
            with np.errstate(invalid="ignore"):
                rel = np.abs(rows[c] - want).sum(axis=1) / np.abs(want).sum(axis=1)
            gaps[c] = np.max(rel)
        bad_sims |= ~(gaps <= FLOW_TOL)
        verdict.failed = int(bad_sims.sum())
        if verdict.failed:
            verdict.errors.append(
                f"{verdict.failed} of {len(combos)} simulations are invalid or differ from the "
                f"reference IMPES run (worst relative L1 {np.nanmax(gaps):.3e} > {FLOW_TOL:g})"
            )
        verdict.quality["fail_frac"] = verdict.failed / len(combos)
        verdict.quality["flow_gap"] = float(np.max(gaps))
        return verdict

    def digest(self, out: Path) -> str:
        return _digest(_snapshots(out / "store")[1])


class Train(Workload):
    """`offline` (capped), `pod` and `tables` on a fixed example1 sub-grid store."""

    name = "train"
    stages = ("offline", "pod", "tables")

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        self.config = inputs.ex1_subgrid_config(_preset("example1"), "train")
        inputs.dump_json(dest / "train.json", self.config)
        _must(run_cli(["generate", "--config", str(dest / "train.json"),
                       "--out", str(dest / "store")]))
        self.operations = _store_size(self.config)
        self.dir = dest

    def argv(self, stage: str, out: Path) -> list[str]:
        store = str(self.dir / "store")
        if stage == "offline":
            return ["offline", "--store", store, "--out", str(out / "model"),
                    "--n-max", str(TRAIN_N_MAX)]
        if stage == "pod":
            return ["pod", "--store", store, "--out", str(out / "pod")]
        return ["tables", "--store", store, "--model", str(out / "model"),
                "--out", str(out / "tables")]

    def check(self, out: Path) -> Verdict:
        manifest, snaps = _snapshots(self.dir / "store")
        grid = manifest["config"]["grid"]
        x_min, x_max = float(grid["x_min_km"]), float(grid["x_max_km"])
        values, params, masses = snaps["values"], snaps["params"], snaps["masses"]
        k_count = values.shape[0]
        verdict = Verdict()
        err = verdict.errors
        model = _load_npz(out / "model" / "model.npz")
        header, rows = _read_csv(out / "model" / "greedy_report.csv")
        report = {name: [row[i] for row in rows] for i, name in enumerate(header)}
        sizes = [int(v) for v in report["n"]]
        if sizes != list(range(2, TRAIN_N_MAX + 1)):
            err.append(f"greedy report sizes {sizes}, expected 2..{TRAIN_N_MAX}")

        targets = reference.icdfs(values, x_min, x_max)
        atoms, chosen = model["atoms"], model["atom_indices"]
        if not np.allclose(atoms, targets[:, chosen], rtol=0.0, atol=1e-12):
            err.append("dictionary atoms are not the training icdfs they index")
        sq = np.mean(targets**2, axis=0)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (targets.T @ targets) / targets.shape[0]
        d2[np.tril_indices(k_count)] = -np.inf
        pair = divmod(int(np.argmax(d2)), k_count)
        if tuple(int(i) for i in chosen[:2]) != pair:
            err.append(f"initial atom pair {tuple(chosen[:2])} is not the farthest pair {pair}")

        axes = [model[f"axis_{j}"] for j in range(params.shape[1])]
        node = tuple(np.searchsorted(ax, params[:, j]) for j, ax in enumerate(axes))
        weights = model["weight_table"][node].T  # (n, K) final-sweep weights
        off_simplex = (weights.min(axis=0) < -1e-12) | (np.abs(weights.sum(axis=0) - 1.0) > 1e-9)
        got = reference.w2(atoms, weights, targets)
        if not np.isclose(float(report["delta"][-1]), got.max(), rtol=1e-8, atol=0.0):
            err.append(f"reported delta {report['delta'][-1]} != max W2 {got.max()!r} of the saved weights")
        _, best, converged = reference.simplex_ls_batch(atoms, targets)
        if not converged.all():
            err.append(f"exact reference did not converge on {int((~converged).sum())} targets")
        below = got < best - 1e-9 * (best + 1e-12)
        if below.any():
            err.append(f"{int(below.sum())} weight vectors beat the exact optimum")
        if off_simplex.any():
            err.append(f"{int(off_simplex.sum())} weight vectors are off the simplex")
        wrong = got - best > QP_HARD_GAP * best.max()
        if wrong.any():
            err.append(f"{int(wrong.sum())} weight vectors miss the exact optimum by more than "
                       f"{QP_HARD_GAP:g} of the worst-case optimum")
        suboptimal = got > best * (1.0 + QP_GAP_TOL) + 1e-12
        verdict.failed = int(np.count_nonzero(suboptimal | off_simplex | below))
        verdict.quality["fail_frac"] = verdict.failed / k_count
        verdict.quality["train_w2_max"] = float(best.max())

        n_raw = values.shape[1]
        lam = reference.project_to_simplex(weights.T)
        rels = np.empty(k_count)
        for k in range(k_count):
            rec = reference.profile(atoms @ lam[k], masses[k], n_raw, x_min, x_max)
            rels[k] = np.abs(rec - values[k]).sum() / np.abs(values[k]).sum()
        verdict.quality["train_l1_mean"] = float(rels.mean())
        if not np.isclose(float(report["l1_mean"][-1]), rels.mean(), rtol=1e-9, atol=0.0):
            err.append(f"reported l1_mean {report['l1_mean'][-1]} != reference {rels.mean()!r}")

        _, pod_rows = _read_csv(out / "pod" / "pod_errors.csv")
        pod_means = np.array([float(row[1]) for row in pod_rows])
        n_ref = min(30, pod_means.size)
        ref_means = reference.pod_mean_errors(values.T, n_ref)
        if not np.allclose(pod_means[:n_ref], ref_means, rtol=0.0, atol=1e-6):
            worst = float(np.max(np.abs(pod_means[:n_ref] - ref_means)))
            err.append(f"POD mean errors differ from the SVD reference by {worst:.3e}")
        n_labels = np.arange(1, pod_means.size + 1)
        want_pod = [[repr(eps), _first_below(pod_means, eps, n_labels)] for eps in DEFAULT_EPS]
        if _read_csv(out / "pod" / "pod_table.csv")[1] != want_pod:
            err.append("pod_table.csv disagrees with pod_errors.csv")
        l1_means = [float(v) for v in report["l1_mean"]]
        want_tables = [
            [repr(eps), _first_below(l1_means, eps, sizes), _first_below(pod_means, eps, n_labels)]
            for eps in DEFAULT_EPS
        ]
        if _read_csv(out / "tables" / "tables.csv")[1] != want_tables:
            err.append("tables.csv disagrees with the greedy report and the POD errors")
        return verdict

    def digest(self, out: Path) -> str:
        return _digest(
            _load_npz(out / "model" / "model.npz"),
            out / "model" / "greedy_report.csv",
            out / "pod" / "pod_errors.csv",
            out / "tables" / "tables.csv",
        )


class Query(Workload):
    """`online` on seeded off-grid points, then `landscape`, against a
    model trained in set-up; the truth is simulated by the reference."""

    name = "query"
    stages = ("online", "landscape")

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        self.config = inputs.ex1_subgrid_config(_preset("example1"), "query")
        inputs.dump_json(dest / "query.json", self.config)
        _must(run_cli(["generate", "--config", str(dest / "query.json"),
                       "--out", str(dest / "store")]))
        _must(run_cli(["offline", "--store", str(dest / "store"), "--out", str(dest / "model"),
                       "--n-max", str(QUERY_N_MAX)]))
        points, self.truth_combos, self.truth_times, target = inputs.query_inputs(self.config, self.seed)
        inputs.dump_json(dest / "points.json", points)
        self.points = np.array([[p["t"], p["mu"], p["beta"]] for p in points])
        self.target_index = target % _store_size(self.config)
        self.operations = self.n_points = len(points)
        self.dir = dest

    def argv(self, stage: str, out: Path) -> list[str]:
        model = str(self.dir / "model")
        if stage == "online":
            return ["online", "--model", model, "--params-file", str(self.dir / "points.json"),
                    "--out", str(out / "online")]
        return ["landscape", "--model", model, "--store", str(self.dir / "store"),
                "--out", str(out / "landscape"), "--n", str(LANDSCAPE_ATOMS),
                "--target-index", str(self.target_index)]

    def check(self, out: Path) -> Verdict:
        verdict = Verdict()
        err = verdict.errors
        model = _load_npz(self.dir / "model" / "model.npz")
        meta = json.loads((self.dir / "model" / "model.json").read_text())
        n_raw, x_min, x_max = int(meta["n_raw"]), float(meta["x_min_km"]), float(meta["x_max_km"])
        rec = _load_npz(out / "online" / "reconstructions.npz")
        profiles = rec["profiles"]
        if not np.array_equal(rec["params"], self.points):
            verdict.failed = self.operations
            err.append("reconstruction points differ from the points file")
            return verdict

        axes = [model[f"axis_{j}"] for j in range(self.points.shape[1])]
        lam = reference.project_to_simplex(reference.multilinear(model["weight_table"], axes, self.points))
        mass = np.maximum(reference.multilinear(model["mass_table"], axes, self.points), 0.0)
        atoms = model["atoms"]
        want = np.array([
            reference.profile(atoms @ lam[p], mass[p], n_raw, x_min, x_max)
            for p in range(self.points.shape[0])
        ])
        dx = (x_max - x_min) / n_raw
        with np.errstate(invalid="ignore"):
            good = (
                np.all(np.isfinite(profiles), axis=1)
                & np.all(profiles >= 0.0, axis=1)
                & np.isclose(profiles.sum(axis=1) * dx, mass, rtol=1e-9, atol=1e-15)
            )
        verdict.failed = int(np.count_nonzero(~good))
        if verdict.failed:
            err.append(f"{verdict.failed} profiles are non-finite, negative or off the interpolated mass")
        verdict.quality["fail_frac"] = verdict.failed / self.operations
        gap = float(np.max(np.abs(profiles - want)))
        if not gap <= 1e-9:
            err.append(f"online profiles differ from the reference by {gap:.3e}")
        truth = np.concatenate([
            reference.impes(self.config, combo, ts)
            for combo, ts in zip(self.truth_combos, self.truth_times)
        ])
        n_truth = truth.shape[0]
        rels = np.abs(profiles[:n_truth] - truth).sum(axis=1) / np.abs(truth).sum(axis=1)
        verdict.quality["query_l1_mean"] = float(rels.mean())

        err.extend(self._check_landscape(out, atoms, x_min, x_max))
        return verdict

    def _check_landscape(self, out: Path, atoms, x_min, x_max) -> list[str]:
        header, _ = _read_csv(out / "landscape" / "landscape.csv")
        n = LANDSCAPE_ATOMS
        want_header = ["x", "y"] + [f"lam_{i + 1}" for i in range(n)] + ["log10_w2"]
        if header != want_header:
            return [f"landscape header {header}"]
        table = np.loadtxt(out / "landscape" / "landscape.csv", delimiter=",", skiprows=1, ndmin=2)
        xy, lam, log_w2 = table[:, :2], table[:, 2:2 + n], table[:, -1]
        problems = []
        expect = reference.interior_raster(n, 201)
        if xy.shape != expect.shape or not np.allclose(xy, expect, rtol=0.0, atol=1e-12):
            return [f"landscape pixels: {xy.shape[0]} listed, {expect.shape[0]} inside the polygon"]
        if lam.min() < 0.0 or not np.allclose(lam.sum(axis=1), 1.0, atol=1e-12):
            problems.append("landscape weights are off the simplex")
        if not np.allclose(lam @ reference.polygon(n), xy, atol=1e-9):
            problems.append("landscape weights do not reproduce their pixel (linear precision)")
        _, snaps = _snapshots(self.dir / "store")
        target = reference.icdf(snaps["values"][self.target_index], atoms.shape[0], x_min, x_max)
        w2 = np.concatenate([
            reference.w2(atoms[:, :n], lam[lo:lo + 1000].T, target[:, None])
            for lo in range(0, lam.shape[0], 1000)
        ])
        want = np.log10(np.maximum(w2, 1e-150))
        if not np.allclose(log_w2, want, rtol=0.0, atol=1e-9):
            problems.append(f"landscape W2 differs from the reference by {np.max(np.abs(log_w2 - want)):.3e}")
        return problems

    def digest(self, out: Path) -> str:
        return _digest(_load_npz(out / "online" / "reconstructions.npz"),
                       out / "landscape" / "landscape.csv")


WORKLOADS = {cls.name: cls for cls in (Sweep, Train, Query)}
