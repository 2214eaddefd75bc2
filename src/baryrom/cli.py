"""Experiment harness: generate snapshots, train, evaluate, compare to POD.

Subcommands: generate, offline, online, pod, tables, landscape.
Exit codes: 0 success, 2 configuration/usage error, 3 store/model data
error, 4 computation failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
import time
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
    out = store.init_store_dir(args.out, cfg, force=args.force)
    print(f"{cfg.name}: {len(combos)} simulations x {len(times)} snapshot times")
    start = time.perf_counter()
    try:
        res = flow.simulate_batch(
            cfg.grid,
            [cfg.rock_at(combo) for combo in combos],
            [cfg.fluids_at(combo) for combo in combos],
            cfg.boundary,
            times,
            safety=cfg.cfl_safety,
        )
    except flow.StepBoundError as err:  # raised before the first step
        raise ConfigError(f"{combos[err.row]} may take {err}; check the units of the rock, "
                          "fluid and time values") from err
    wall = time.perf_counter() - start
    failures = [(combo, err) for combo, err in zip(combos, res.errors) if err is not None]
    if failures:
        for combo, err in failures:
            print(f"FAILED {combo}: {err}", file=sys.stderr)
        print(f"{len(failures)} simulations failed; no snapshots written", file=sys.stderr)
        return EXIT_COMPUTE
    # the rows step in lockstep, so the wall time goes with the largest count;
    # a single step, at or near an event, costs more than one in a block
    row_steps, lockstep = int(res.steps.sum()), int(res.steps.max())
    if row_steps:
        print(
            f"flow batch: {wall:.2f} s for {len(combos)} simulations, {row_steps} row-steps, "
            f"{wall / row_steps * 1e6:.1f} us per row-step, {lockstep} lockstep steps, "
            f"{res.single_steps} of them single steps near events, "
            f"{wall / lockstep * 1e6:.1f} us per lockstep step"
        )
    print(f"step bound: {row_steps} row-steps taken of at most {int(res.step_bound.sum())} "
          f"bounded before the first step (limit {flow.MAX_ROW_STEPS:,})")
    store.save_store(
        out, cfg,
        values=res.values.reshape(-1, cfg.grid.n_cells),
        masses=res.masses.reshape(-1),
        steps=res.steps,
        min_dt_s=res.min_dt_s,
        mass_residual=res.mass_residual,
    )
    print(
        f"store complete: {len(combos) * len(times)} snapshots in {out}; at most "
        f"{lockstep} IMPES steps per simulation, worst mass-balance "
        f"residual {res.mass_residual.max():.2e} of the pore volume"
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
    }
    for (block, key), value in overrides.items():
        # load_store parsed the config, so each block is an object or absent
        if value is not None:
            raw.setdefault(block, {})[key] = value
    return parse_config(raw)


def cmd_offline(args) -> int:
    st = store.load_store(args.store)
    if st.count < 2:
        raise StoreError(f"offline needs at least 2 snapshots; {args.store} holds {st.count}")
    _require_nonzero(st, args.store, "offline")
    cfg = _offline_config(st.config.raw, args)
    grid = cfg.grid
    store.make_dir(args.out)  # an unusable --out fails before the training

    print(f"{cfg.name}: building {st.count} training icdfs")
    start = time.perf_counter()
    train = transport.snapshots_to_icdfs(st.values, grid.x_min, grid.x_max)
    icdf_s = time.perf_counter() - start
    # relative L1 error per training column, kept across sweeps: a screened
    # column keeps last sweep's weights with a zero weight on the new atom,
    # so its profile and error are last sweep's too
    rels = np.zeros(st.count)
    l1_mean, l1_max = [], []
    track_s = 0.0

    def track_l1(n, indices, step):
        nonlocal track_s
        start = time.perf_counter()
        cols = np.flatnonzero(~step.qp.screened)
        rec = online.profile_from_weights(
            train[:, indices], step.qp.weights[:, cols], st.masses[cols],
            grid.n_cells, grid.x_min, grid.x_max,
        )
        rels[cols] = online.relative_l1_error(rec, st.values[cols])
        l1_mean.append(float(rels.mean()))
        l1_max.append(float(rels.max()))
        print(
            f"  n={n}: max W2 {step.errors.max():.3e}, mean W2 {step.errors.mean():.3e}, "
            f"mean rel L1 {rels.mean():.3e}, {int(step.qp.screened.sum())} of "
            f"{step.qp.screened.size} solves screened"
        )
        track_s += time.perf_counter() - start

    start = time.perf_counter()
    dictionary, report, final_weights = greedy.run(
        train,
        eps_abs=cfg.greedy.eps_abs,
        eps_rel=cfg.greedy.eps_rel,
        n_max=cfg.greedy.n_max,
        tol=cfg.qp.tol,
        on_iteration=track_l1,
    )
    greedy_s = time.perf_counter() - start - track_s
    report.l1_mean, report.l1_max = l1_mean, l1_max
    for n, bad in zip(report.n, report.n_unconverged):
        if bad:
            print(f"warning: n={n}: {bad} of {st.count} weight solves did not converge",
                  file=sys.stderr)
    start = time.perf_counter()
    model = online.fit(
        dictionary,
        st.params,
        final_weights,
        st.masses,
        cfg.axis_names,
        n_raw=grid.n_cells,
        x_min=grid.x_min,
        x_max=grid.x_max,
    )
    store.save_model(args.out, model, report)
    save_s = time.perf_counter() - start
    print(
        f"model saved to {args.out}: {dictionary.size} atoms, "
        f"terminated by {report.termination!r}"
    )
    print(
        f"offline stages: training icdfs {icdf_s:.2f} s, greedy QP {greedy_s:.2f} s, "
        f"L1 tracking {track_s:.2f} s, fit + save {save_s:.2f} s"
    )
    return EXIT_OK


def _at_spec(item: str) -> dict:
    """The point of one --at option; a component set twice is a ConfigError."""
    spec = {}
    for part in item.split(","):
        name, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"cannot parse --at component {part!r}")
        if name.strip() in spec:
            raise ConfigError(f"--at {item!r} sets {name.strip()!r} twice")
        spec[name.strip()] = value
    return spec


def _point_values(names: tuple, spec) -> list[float]:
    """A point's values in axis order, from a params-file object or an --at string."""
    if isinstance(spec, str):
        spec = _at_spec(spec)
    if spec.keys() != set(names):
        missing = [name for name in names if name not in spec]
        extra = [name for name in spec if name not in names]
        raise ConfigError(
            f"parameter point must set exactly {list(names)}; "
            f"missing {missing}, unknown {extra}"
        )
    if bool in map(type, spec.values()):
        raise ConfigError(f"parameter point {spec!r}: a bool is not a number here")
    try:
        values = [float(spec[name]) for name in names]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"parameter point {spec!r} is not numeric") from err
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"parameter point {spec!r} is not finite")
    return values


def _parse_points(model: online.ReducedModel, specs: list[dict | str]) -> np.ndarray:
    """The (P, d) array of the parameter points. The error names the first
    bad point in list order."""
    names = tuple(model.axis_names)
    rows = [_point_values(names, spec) for spec in specs]
    return np.array(rows, dtype=float).reshape(len(rows), len(names))


def cmd_online(args) -> int:
    model = store.load_model(args.model)
    specs: list[dict | str] = []
    if args.params_file:
        try:
            payload = json.loads(Path(args.params_file).read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"params file is not valid JSON: {err}") from err
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read params file: {err}") from err
        if not isinstance(payload, list) or not all(isinstance(p, dict) for p in payload):
            raise ConfigError("params file must hold a JSON list of objects")
        specs.extend(payload)
    specs.extend(args.at or [])
    if not specs:
        raise ConfigError("no evaluation points: pass --params-file and/or --at")
    points = _parse_points(model, specs)
    st = store.load_store(args.store) if args.store else None
    if st is not None:
        # a store swept wider than the model is a sound source of truth
        store.check_model_fits_store(model, st, same_sweep=False)

    profiles = online.reconstruct(model, points, clamp=args.clamp)
    out = store.make_dir(args.out)
    # an earlier run's errors.csv would describe other points
    (out / "errors.csv").unlink(missing_ok=True)
    store.savez_atomic(out / "reconstructions.npz", params=points, profiles=profiles)

    pairs = []
    if st is not None:
        # exact matching: a point has truth only if it is a store node
        row_of = {node: k for k, node in enumerate(map(tuple, st.params.tolist()))}
        pairs = [(q, row_of[z]) for q, z in enumerate(map(tuple, points.tolist())) if z in row_of]
        q, k = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        err = online.relative_l1_error(profiles[q], st.values[k])
        # pairs, not a dict: an axis may be named rel_l1_error
        store.write_csv(
            out / "errors.csv", [*zip(model.axis_names, points[q].T), ("rel_l1_error", err)]
        )
    print(f"wrote {points.shape[0]} reconstructions ({len(pairs)} with truth) to {out}")
    return EXIT_OK


def _parse_eps(text: str | None):
    if text is None:
        return DEFAULT_EPS
    try:
        eps = tuple(float(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError(f"cannot parse epsilon list {text!r}") from err
    if not all(np.isfinite(e) and e > 0 for e in eps):
        raise ConfigError("epsilon list must hold positive finite numbers")
    return eps


def _require_nonzero(st: store.SnapshotStore, store_dir: str, stage: str) -> None:
    """An all-zero store gives offline only identical uniform atoms and pod
    no basis: refuse it before any output (and before pod loads scipy)."""
    if not st.values.any():
        raise StoreError(
            f"{stage} needs a nonzero saturation; every snapshot in {store_dir} is zero"
        )


def _pod_artifacts(st: store.SnapshotStore, store_dir: str):
    _require_nonzero(st, store_dir, "POD")
    snaps = st.values.T  # (N, K)
    basis = pod.compute(snaps)
    errors = pod.relative_l1_errors(basis, snaps)
    return basis, errors


def cmd_pod(args) -> int:
    st = store.load_store(args.store)
    eps_list = _parse_eps(args.eps)
    basis, errors = _pod_artifacts(st, args.store)
    out = store.make_dir(args.out)
    store.savez_atomic(
        out / "basis.npz", modes=basis.modes, singular_values=basis.singular_values
    )
    means = errors.mean(axis=1)
    store.write_csv(out / "pod_errors.csv", [
        ("n", np.arange(1, basis.rank + 1)),
        ("mean_rel_l1", means),
        ("max_rel_l1", errors.max(axis=1)),
    ])
    store.write_csv(out / "pod_table.csv", [
        ("epsilon", eps_list),
        ("n_pod", [pod.size_for_tolerance(means, eps) for eps in eps_list]),
    ])
    print(f"POD table written to {out} (rank {basis.rank})")
    return EXIT_OK


def cmd_tables(args) -> int:
    st = store.load_store(args.store)
    store.check_model_fits_store(store.load_model(args.model), st)
    report = store.load_report(args.model)
    eps_list = _parse_eps(args.eps)
    _, pod_errors = _pod_artifacts(st, args.store)
    pod_means = pod_errors.mean(axis=1)
    out = store.make_dir(args.out)
    store.write_csv(out / "tables.csv", [
        ("epsilon", eps_list),
        ("n_gbar", [pod.size_for_tolerance(report.l1_mean, eps, report.n) for eps in eps_list]),
        ("n_pod", [pod.size_for_tolerance(pod_means, eps) for eps in eps_list]),
    ])
    print(f"joint table written to {out / 'tables.csv'}")
    return EXIT_OK


def cmd_landscape(args) -> int:
    model = store.load_model(args.model)
    st = store.load_store(args.store)
    store.check_model_fits_store(model, st)
    n = args.n
    if n < 3 or n > model.n_atoms:
        raise ConfigError(f"landscape needs 3 <= n <= {model.n_atoms} atoms, got {n}")
    if not 0 <= args.target_index < st.count:
        raise ConfigError(f"target index outside store (0..{st.count - 1})")
    if args.resolution < 2:
        raise ConfigError(f"landscape resolution must be at least 2, got {args.resolution}")
    target = transport.snapshot_to_icdf(
        st.values[args.target_index], x_min=st.config.grid.x_min, x_max=st.config.grid.x_max
    )
    grid = diagnostics.energy_landscape(
        model.dictionary.atoms[:, :n], target, resolution=args.resolution
    )
    out = store.make_dir(args.out)
    store.write_csv(out / "landscape.csv", [
        ("x", grid.xy[:, 0]),
        ("y", grid.xy[:, 1]),
        *((f"lam_{i + 1}", lam) for i, lam in enumerate(grid.weights.T)),
        ("log10_w2", grid.log10_w2),
    ])
    print(f"landscape ({grid.xy.shape[0]} pixels) written to {out / 'landscape.csv'}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    except (flow.FlowError, online.OutOfRangeError) as err:
        print(f"computation error: {err}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
