"""Tests of the benchmark's own parts: inputs, references, tracing, names.

    python3 -m pytest benchmarks/tests -q
"""

import importlib
import json
import re
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from baryrom import cli, config, flow, online, simplexqp, transport
from baryrom_bench import inputs, metrics, reference, workloads
from baryrom_bench.hostspeed import REFERENCE_S, HostSpeed
from baryrom_bench.tracing import MODULES, PACKAGE, Tracer
from oracles import simplex_ls_active_set

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _preset(name):
    return config.load_preset(name).raw


# --- seeded inputs ------------------------------------------------------------


def _write_all(directory: Path, seed: int) -> dict:
    ex1, ex2 = _preset("example1"), _preset("example2")
    train = inputs.ex1_subgrid_config(ex1, "train")
    points, combos, times, target = inputs.query_inputs(train, seed)
    files = {
        "sweep.json": inputs.sweep_config(ex2, seed),
        "train.json": train,
        "points.json": points,
        "truth.json": {"combos": combos, "times": times, "target": target},
    }
    for name, payload in files.items():
        inputs.dump_json(directory / name, payload)
    return {name: (directory / name).read_bytes() for name in files}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _write_all(tmp_path / "a", 7) == _write_all(tmp_path / "b", 7)


def test_seeds_draw_different_inputs(tmp_path):
    drawn = set()
    for seed in range(12):
        (tmp_path / str(seed)).mkdir()
        files = _write_all(tmp_path / str(seed), seed)
        drawn.add((files["sweep.json"], files["train.json"]))
    assert len(drawn) > 4


def test_configs_are_valid_preset_subgrids_without_the_seed():
    for seed in range(8):
        for preset, cfg in (
            ("example2", inputs.sweep_config(_preset("example2"), seed)),
            ("example1", inputs.ex1_subgrid_config(_preset("example1"), "train")),
        ):
            raw = _preset(preset)
            assert set(cfg) == set(raw)
            assert "seed" not in json.dumps(cfg)
            config.parse_config(cfg)
            assert cfg["snapshot_times_yr"] == raw["snapshot_times_yr"]
            assert cfg["grid"] == raw["grid"]
            for ax, full in zip(cfg["axes"], raw["axes"]):
                assert set(ax["values"]) <= set(full["values"])
                assert ax["values"] == sorted(ax["values"])


def test_query_points_are_off_grid_and_inside():
    train = inputs.ex1_subgrid_config(_preset("example1"), "query")
    points, combos, times, _ = inputs.query_inputs(train, 3)
    assert len(points) == inputs.QUERY_POINTS
    for name, nodes in (
        ("t", train["snapshot_times_yr"]),
        ("mu", train["axes"][0]["values"]),
        ("beta", train["axes"][1]["values"]),
    ):
        vals = np.array([p[name] for p in points])
        assert vals.min() > nodes[0] and vals.max() < nodes[-1]
        assert np.min(np.abs(vals[:, None] - np.array(nodes)[None, :])) > 0.0
    n_truth = len(combos) * inputs.QUERY_TRUTH_TIMES
    truth = [(p["mu"], p["beta"], p["t"]) for p in points[:n_truth]]
    expect = [(c["mu"], c["beta"], t) for c, ts in zip(combos, times) for t in ts]
    assert truth == expect


# --- references ---------------------------------------------------------------


def _icdf_atoms(rng, m, n):
    widths = np.sort(rng.uniform(0.05, 1.0, n))
    cells = (np.arange(m - 2) + 0.5) / (m - 2)
    return np.column_stack([
        transport.snapshot_to_icdf(np.where(cells <= w, 1.0 / w, 0.0), m) for w in widths
    ])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_simplex_ls_matches_enumeration_oracle(n):
    rng = np.random.default_rng(100 + n)
    m = 60
    for trial in range(15):
        atoms = _icdf_atoms(rng, m, n) if trial % 2 else rng.normal(size=(m, n))
        target = atoms @ rng.dirichlet(np.ones(n)) + rng.normal(scale=0.3, size=m)
        want_w, want_f = simplex_ls_active_set(atoms, target)
        got_w, got_w2, converged = reference.simplex_ls(atoms, target)
        assert converged
        assert got_w.min() >= 0.0 and got_w.sum() == pytest.approx(1.0, abs=1e-12)
        assert got_w2**2 == pytest.approx(want_f, rel=1e-9, abs=1e-14)
        np.testing.assert_allclose(got_w, want_w, atol=1e-6)


def test_exact_simplex_ls_is_never_worse_than_the_program():
    rng = np.random.default_rng(5)
    atoms = _icdf_atoms(rng, 80, 7)
    targets = _icdf_atoms(rng, 80, 30)
    _, best, converged = reference.simplex_ls_batch(atoms, targets)
    res = simplexqp.solve_batch(atoms, targets)
    assert converged.all()
    assert np.all(best <= np.sqrt(res.objective) * (1 + 1e-9) + 1e-15)


def test_reference_pipeline_matches_the_program_on_a_real_profile():
    cfg = config.load_preset("example1")
    combo = {"mu": 3.0, "beta": 4.0}
    snaps = flow.run_simulation(
        cfg.grid, cfg.rock_at(combo), cfg.fluids_at(combo), cfg.boundary, [0.6, 1.2]
    )
    values = np.array([s.values for s in snaps])
    ic = reference.icdfs(values, 0.0, 1.0)
    for k, snap in enumerate(snaps):
        np.testing.assert_allclose(
            ic[:, k], transport.snapshot_to_icdf(snap.values, values.shape[1] + 2), atol=1e-14
        )
    weights = np.array([0.3, 0.7])
    want = online.profile_from_weights(ic, weights, 0.05, values.shape[1])
    got = reference.profile(ic @ reference.project_to_simplex(weights)[0], 0.05, values.shape[1], 0.0, 1.0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def _small(preset, n_cells=101):
    raw = json.loads(json.dumps(_preset(preset)))
    raw["grid"]["n_cells"] = n_cells
    return raw


@pytest.mark.parametrize("preset, combo", [
    ("example1", {"mu": 3.0, "beta": 4.0}),
    ("example1", {"mu": 7.3, "beta": 2.6}),
    ("example2", {"k_lp": 9e-14, "gamma": 0.0}),
    ("example2", {"k_lp": 6e-14, "gamma": 0.43}),
])
def test_reference_impes_matches_the_program(preset, combo):
    raw = _small(preset)
    cfg = config.parse_config(raw)
    times = raw["snapshot_times_yr"][::4]
    snaps = flow.run_simulation(cfg.grid, cfg.rock_at(combo), cfg.fluids_at(combo), cfg.boundary,
                                times, safety=cfg.cfl_safety)
    got = np.array([s.values for s in snaps])
    want = reference.impes(raw, combo, times)
    rel = np.abs(got - want).sum(axis=1) / np.abs(want).sum(axis=1)
    assert rel.max() < workloads.FLOW_TOL * 1e-3


def test_reference_impes_conserves_the_injected_volume_before_breakthrough():
    raw = _small("example2")
    combo = {"k_lp": 7e-14, "gamma": 0.2}
    phi, _ = reference.rock_fields(raw, combo)
    dx_m = 1000.0 / raw["grid"]["n_cells"]
    early = reference.impes(raw, combo, [0.05, 0.1])
    late = reference.impes(raw, combo, [0.05, 0.1, 0.2])
    np.testing.assert_array_equal(early, late[:2])
    assert early[0, -1] == 0.0 and early[1, -1] == 0.0
    stored = (phi * dx_m * early).sum(axis=1)
    assert stored[0] > 0.0 and stored[1] > stored[0]


def test_sweep_check_rejects_a_wrong_flow(tmp_path, monkeypatch):
    wl = workloads.Sweep(0)
    wl.config = _small("example2", 51)
    wl.config["axes"] = [{"name": "k_lp", "values": [8e-14]}, {"name": "gamma", "values": [0.2]}]
    wl.config["snapshot_times_yr"] = [0.5, 1.0]
    out = tmp_path / "pass"
    run = workloads.run_cli(["generate", "--config", str(_dump(tmp_path, wl.config)),
                             "--out", str(out / "store")])
    assert run.rc == 0, run.output
    verdict = wl.check(out)
    assert verdict.failed == 0 and not verdict.errors
    store = out / "store" / "snapshots.npz"
    data = dict(np.load(store))
    data["values"] = np.roll(data["values"], 1, axis=1)  # same mass, front one cell on
    data["masses"] = data["values"].sum(axis=1) * (1.0 / 51)
    np.savez(store, **data)
    verdict = wl.check(out)
    assert verdict.failed == 1 and verdict.errors


def _dump(directory, payload):
    path = directory / "config.json"
    inputs.dump_json(path, payload)
    return path


def test_reference_projection_matches_the_program():
    rng = np.random.default_rng(9)
    v = rng.uniform(-2, 2, (50, 5))
    want = np.array([simplexqp.project_to_simplex(row) for row in v])
    np.testing.assert_allclose(reference.project_to_simplex(v), want, atol=1e-12)


def test_multilinear_reference_matches_the_program():
    rng = np.random.default_rng(4)
    axes = (np.array([0.0, 1.0, 3.0]), np.array([2.0, 5.0]), np.array([1.0, 2.0, 4.0, 8.0]))
    params = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    weights = rng.dirichlet(np.ones(3), size=params.shape[0]).T
    masses = rng.uniform(0.1, 1.0, params.shape[0])
    dictionary = type("D", (), {"size": 3})()
    model = online.fit(dictionary, params, weights, masses, ("t", "a", "b"), n_raw=10)
    points = np.column_stack([rng.uniform(ax[0], ax[-1], 40) for ax in axes])
    want = [online.evaluate_raw(model, z) for z in points]
    lam = reference.multilinear(model.weight_table, model.axes, points)
    mass = reference.multilinear(model.mass_table, model.axes, points)
    np.testing.assert_allclose(lam, [w[0] for w in want], atol=1e-12)
    np.testing.assert_allclose(mass, [w[1] for w in want], atol=1e-12)


# --- tracing ------------------------------------------------------------------


def _module_dicts():
    mods = [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
    return {mod.__name__: dict(vars(mod)) for mod in mods}


def test_tracer_wraps_lookup_names_and_restores_every_attribute():
    before = _module_dicts()
    tracer = Tracer()
    with tracer:
        assert flow.run_simulation.__wrapped__ is before["baryrom.flow"]["run_simulation"]
        assert online.project_to_simplex.__wrapped__ is before["baryrom.simplexqp"]["project_to_simplex"]
        assert cli.parse_config.__wrapped__ is before["baryrom.config"]["parse_config"]
        assert cli.greedy is before["baryrom.cli"]["greedy"]
        assert not hasattr(cli.main, "__wrapped__"), "the cli layer itself stays unwrapped"
        online.profile_from_weights(np.eye(4)[:, :2], np.array([0.5, 0.5]), 0.1, 2)
    after = _module_dicts()
    assert after.keys() == before.keys()
    for mod, attrs in before.items():
        assert after[mod].keys() == attrs.keys()
        changed = [k for k in attrs if after[mod][k] is not attrs[k]]
        assert not changed, f"{mod}: {changed} not restored"
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"online.profile_from_weights", "simplexqp.project_to_simplex",
            "transport.icdf_to_density"} <= names


def test_tracer_restores_after_an_exception_and_closes_the_span():
    original = transport.w2_distance
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer:
            transport.w2_distance(np.zeros(3), np.zeros(4))
    assert transport.w2_distance is original
    assert tracer._stack == []
    assert tracer.end[0] >= tracer.start[0] > 0.0


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[:] = type(tracer.start)("d", [0.0, 1.0])
    tracer.end[:] = type(tracer.end)("d", [10.0, 4.0])
    names, nid, parent, dur, own = tracer.arrays()
    assert parent.tolist() == [-1, 0]
    assert dur.tolist() == [10.0, 3.0]
    assert own.tolist() == [7.0, 3.0]


def test_install_twice_is_refused():
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_host_speed_sampler_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(host.samples) >= 2
    assert host.spent >= sum(host.samples)
    assert host.factor() == pytest.approx(REFERENCE_S / statistics.median(host.samples))
    assert host.factor(1) == pytest.approx(REFERENCE_S / statistics.median(host.samples[1:]))
    assert host.factor(len(host.samples)) == host.factor()


# --- metric names -------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for table in (metrics.END_TO_END, metrics.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert not set(metrics.END_TO_END) & set(metrics.PER_LAYER)


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"sweep", "train", "query"}
    assert "setup_s" in metrics.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_listed_module_has_a_per_layer_metric():
    prefixes = {name.split(".")[0] for name in metrics.PER_LAYER}
    assert set(MODULES) <= prefixes
