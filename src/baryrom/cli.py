"""Experiment harness: generate snapshots, train, evaluate, compare to POD.

Subcommands: generate, offline, online, pod, tables, diag, landscape.
Exit codes: 0 success, 2 configuration/usage error, 3 store/model data
error, 4 computation failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, flow, greedy, online, pod, store, transport
from .config import ConfigError, ExperimentConfig, load_config, load_preset, parse_config
from .store import StoreError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STORE = 3
EXIT_COMPUTE = 4

DEFAULT_EPS = (0.1, 0.05, 0.01, 0.005)
UNREACHED = "-"


def _load_config_arg(spec: str) -> ExperimentConfig:
    path = Path(spec)
    if path.exists():
        return load_config(path)
    if spec in ("example1", "example2"):
        return load_preset(spec)
    raise ConfigError(f"config {spec!r}: no such file and not a bundled preset")


def cmd_generate(args) -> int:
    cfg = _load_config_arg(args.config)
    combos = cfg.combos()
    times = cfg.snapshot_times_yr
    manifest = store.store_manifest(cfg.raw, cfg.axis_names, len(combos), len(times))
    out = store.init_store_dir(args.out, manifest, force=args.force)
    todo = [i for i in range(len(combos)) if not store.chunk_path(out, i).exists()]
    print(
        f"{cfg.name}: {len(combos)} simulations x {len(times)} "
        f"snapshot times ({len(todo)} to run, {len(combos) - len(todo)} resumed)"
    )
    failures = []

    def write(row: int, outcome) -> None:
        i = todo[row]
        if isinstance(outcome, flow.FlowError):
            failures.append((i, str(outcome)))
            return
        y_params = tuple(combos[i][ax.name] for ax in cfg.axes)
        params = np.array([(t, *y_params) for t in times])
        store.write_chunk(
            out, i, params, outcome.values, outcome.masses, steps=outcome.steps,
            min_dt_s=outcome.min_dt_s, mass_residual=outcome.mass_residual,
        )

    flow.simulate_batch(
        cfg.grid,
        [cfg.rock_at(combos[i]) for i in todo],
        [cfg.fluids_at(combos[i]) for i in todo],
        cfg.boundary,
        times,
        safety=cfg.cfl_safety,
        on_finish=write,
    )
    if failures:
        for i, msg in sorted(failures):
            print(f"FAILED {combos[i]}: {msg}", file=sys.stderr)
        print(f"{len(failures)} simulations failed; store left resumable", file=sys.stderr)
        return EXIT_COMPUTE
    store.consolidate_store(out, manifest)
    loaded = store.load_store(out)
    print(
        f"store complete: {loaded.count} snapshots in {out}; at most "
        f"{int(loaded.steps.max())} IMPES steps per simulation, worst mass-balance "
        f"residual {loaded.mass_residual.max():.2e} of the pore volume"
    )
    return EXIT_OK


def _offline_config(raw: dict, args) -> ExperimentConfig:
    """The store's config with the command-line overrides applied, validated
    as a whole."""
    raw = copy.deepcopy(raw)
    overrides = {
        ("greedy", "n_max"): args.n_max,
        ("greedy", "eps_abs"): args.eps_abs,
        ("greedy", "eps_rel"): args.eps_rel,
        ("qp", "tol"): args.qp_tol,
        ("qp", "max_iter"): args.qp_max_iter,
    }
    for (block, key), value in overrides.items():
        # a block that is not an object is left for parse_config to reject
        if value is not None and isinstance(raw.setdefault(block, {}), dict):
            raw[block][key] = value
    return parse_config(raw)


def cmd_offline(args) -> int:
    st = store.load_store(args.store)
    cfg = _offline_config(st.config, args)

    print(f"{st.name}: building {st.count} training icdfs")
    train = transport.snapshots_to_icdfs(st.values, st.x_min, st.x_max)
    l1_mean, l1_max = [], []

    def track_l1(n, indices, step):
        rec = online.profile_from_weights(
            train[:, indices], step.weights, st.masses, st.n_cells, st.x_min, st.x_max
        )
        rels = online.relative_l1_error(rec, st.values)
        l1_mean.append(float(rels.mean()))
        l1_max.append(float(rels.max()))
        print(
            f"  n={n}: max W2 {step.errors.max():.3e}, mean W2 {step.errors.mean():.3e}, "
            f"mean rel L1 {rels.mean():.3e}, {int(step.screened.sum())} of "
            f"{step.screened.size} solves screened"
        )

    dictionary, report, final_weights = greedy.run(
        train,
        st.params,
        eps_abs=cfg.greedy.eps_abs,
        eps_rel=cfg.greedy.eps_rel,
        n_max=cfg.greedy.n_max,
        tol=cfg.qp.tol,
        max_iter=cfg.qp.max_iter,
        on_iteration=track_l1,
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    model = online.fit(
        dictionary,
        st.params,
        final_weights,
        st.masses,
        st.axis_names,
        n_raw=st.n_cells,
        x_min=st.x_min,
        x_max=st.x_max,
    )
    store.save_model(args.out, model, report, l1_mean, l1_max)
    print(
        f"model saved to {args.out}: {dictionary.size} atoms, "
        f"terminated by {report.termination!r}"
    )
    return EXIT_OK


def _point_values(names: tuple, spec: dict) -> list[float]:
    if spec.keys() != set(names):
        missing = [name for name in names if name not in spec]
        extra = [name for name in spec if name not in names]
        raise ConfigError(
            f"parameter point must set exactly {list(names)}; "
            f"missing {missing}, unknown {extra}"
        )
    try:
        return [float(spec[name]) for name in names]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"parameter point {spec!r} is not numeric") from err


def _parse_points(model: online.ReducedModel, specs: list[dict]) -> np.ndarray:
    """The (P, d) array of the parameter points, checked for finiteness as
    one array. The error names the first bad point in list order."""
    names = tuple(model.axis_names)
    rows, failure = [], None
    for spec in specs:
        try:
            rows.append(_point_values(names, spec))
        except ConfigError as err:
            failure = err
            break
    points = np.array(rows, dtype=float).reshape(len(rows), len(names))
    finite = np.all(np.isfinite(points), axis=1)
    if not finite.all():
        raise ConfigError(f"parameter point {specs[int(np.argmin(finite))]!r} is not finite")
    if failure is not None:
        raise failure
    return points


def cmd_online(args) -> int:
    model = store.load_model(args.model)
    specs: list[dict] = []
    if args.params_file:
        try:
            payload = json.loads(Path(args.params_file).read_text())
        except OSError as err:
            raise ConfigError(f"cannot read params file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"params file is not valid JSON: {err}") from err
        if not isinstance(payload, list) or not all(isinstance(p, dict) for p in payload):
            raise ConfigError("params file must hold a JSON list of objects")
        specs.extend(payload)
    for item in args.at or []:
        spec = {}
        for part in item.split(","):
            name, _, value = part.partition("=")
            if not _:
                raise ConfigError(f"cannot parse --at component {part!r}")
            spec[name.strip()] = value
        specs.append(spec)
    if not specs:
        raise ConfigError("no evaluation points: pass --params-file and/or --at")
    points = _parse_points(model, specs)

    profiles = online.reconstruct(model, points, clamp=args.clamp)
    out = store.make_dir(args.out)
    store.savez_atomic(out / "reconstructions.npz", params=points, profiles=profiles)

    rows = []
    if args.store:
        st = store.load_store(args.store)
        for q, z in enumerate(points):
            match = np.flatnonzero(np.all(st.params == z[None, :], axis=1))
            if match.size == 0:
                continue
            err = online.relative_l1_error(profiles[q], st.values[match[0]])
            rows.append(tuple(z) + (err,))
        store.write_csv(
            out / "errors.csv",
            tuple(model.axis_names) + ("rel_l1_error",),
            rows,
        )
    print(f"wrote {points.shape[0]} reconstructions ({len(rows)} with truth) to {out}")
    return EXIT_OK


def _parse_eps(text: str | None):
    if not text:
        return DEFAULT_EPS
    try:
        eps = tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot parse epsilon list {text!r}") from err
    if not eps or not all(np.isfinite(e) and e > 0 for e in eps):
        raise ConfigError("epsilon list must hold positive finite numbers")
    return eps


def _table_cell(size: int | None):
    return UNREACHED if size is None else size


def _pod_artifacts(st: store.SnapshotStore):
    snaps = st.values.T  # (N, K)
    basis = pod.compute(snaps)
    errors = pod.relative_l1_errors(basis, snaps)
    return basis, errors


def cmd_pod(args) -> int:
    st = store.load_store(args.store)
    eps_list = _parse_eps(args.eps)
    basis, errors = _pod_artifacts(st)
    out = store.make_dir(args.out)
    store.savez_atomic(
        out / "basis.npz", modes=basis.modes, singular_values=basis.singular_values
    )
    means = errors.mean(axis=1)
    maxes = errors.max(axis=1)
    store.write_csv(
        out / "pod_errors.csv",
        ("n", "mean_rel_l1", "max_rel_l1"),
        [(n + 1, means[n], maxes[n]) for n in range(basis.rank)],
    )
    rows = [(eps, _table_cell(pod.size_for_tolerance(means, eps))) for eps in eps_list]
    store.write_csv(out / "pod_table.csv", ("epsilon", "n_pod"), rows)
    print(f"POD table written to {out} (rank {basis.rank})")
    return EXIT_OK


def cmd_tables(args) -> int:
    st = store.load_store(args.store)
    report, l1_mean, _ = store.load_model_report(args.model)
    eps_list = _parse_eps(args.eps)
    _, pod_errors = _pod_artifacts(st)
    pod_means = pod_errors.mean(axis=1)
    rows = [
        (
            eps,
            _table_cell(pod.size_for_tolerance(l1_mean, eps, report.sizes)),
            _table_cell(pod.size_for_tolerance(pod_means, eps)),
        )
        for eps in eps_list
    ]
    out = store.make_dir(args.out)
    store.write_csv(out / "tables.csv", ("epsilon", "n_gbar", "n_pod"), rows)
    print(f"joint table written to {out / 'tables.csv'}")
    return EXIT_OK


def cmd_diag(args) -> int:
    report, _, _ = store.load_model_report(args.model)
    out = store.make_dir(args.out)
    store.write_csv(out / "condition.csv", ("n", "condition"), zip(report.sizes, report.condition))
    store.write_csv(out / "volume.csv", ("n", "volume"), zip(report.sizes, report.simplex_volume))
    print(f"diagnostic curves written to {out}")
    return EXIT_OK


def cmd_landscape(args) -> int:
    model = store.load_model(args.model)
    st = store.load_store(args.store)
    n = args.n
    if n < 3 or n > model.n_atoms:
        raise ConfigError(f"landscape needs 3 <= n <= {model.n_atoms} atoms, got {n}")
    if not 0 <= args.target_index < st.count:
        raise ConfigError(f"target index outside store (0..{st.count - 1})")
    if args.resolution < 2:
        raise ConfigError(f"landscape resolution must be at least 2, got {args.resolution}")
    target = transport.snapshot_to_icdf(
        st.values[args.target_index], x_min=st.x_min, x_max=st.x_max
    )
    grid = diagnostics.energy_landscape(
        model.dictionary.atoms[:, :n], target, resolution=args.resolution
    )
    out = store.make_dir(args.out)
    header = ("x", "y") + tuple(f"lam_{i + 1}" for i in range(n)) + ("log10_w2",)
    table = np.column_stack([grid.xy, grid.weights, grid.log10_w2])
    store.write_csv(out / "landscape.csv", header, table)
    print(f"landscape ({grid.xy.shape[0]} pixels) written to {out / 'landscape.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baryrom",
        description="Barycentric model reduction of 1D two-phase porous-media flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run the parametric snapshot sweep")
    p.add_argument("--config", required=True, help="config JSON path or preset name")
    p.add_argument("--out", required=True, help="snapshot store directory")
    p.add_argument("--force", action="store_true", help="overwrite a mismatching store")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("offline", help="greedy dictionary + reduced model")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="model directory")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--eps-abs", type=float, default=None)
    p.add_argument("--eps-rel", type=float, default=None)
    p.add_argument("--qp-tol", type=float, default=None)
    p.add_argument("--qp-max-iter", type=int, default=None)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("online", help="reconstruct at new parameter points")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--params-file", default=None, help="JSON list of parameter objects")
    p.add_argument("--at", action="append", help="inline point, e.g. t=1.0,mu=3,beta=2")
    p.add_argument("--store", default=None, help="snapshot store for truth errors")
    p.add_argument("--clamp", action="store_true", help="clamp out-of-range points")
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("pod", help="POD baseline table")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eps", default=None, help="comma-separated tolerances")
    p.set_defaults(func=cmd_pod)

    p = sub.add_parser("tables", help="joint atoms-vs-POD tolerance table")
    p.add_argument("--store", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eps", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("diag", help="re-emit conditioning and volume curves")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("landscape", help="Wachspress energy landscape CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=3, help="number of atoms (>= 3)")
    p.add_argument("--target-index", type=int, required=True)
    p.add_argument("--resolution", type=int, default=201)
    p.set_defaults(func=cmd_landscape)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except StoreError as err:
        print(f"store error: {err}", file=sys.stderr)
        return EXIT_STORE
    except (flow.FlowError, online.OutOfRangeError, online.NotOnTensorGridError) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
