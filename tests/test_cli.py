import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from baryrom import cli, config, flow, greedy, online, simplexqp, store, transport


def mini_config(n_max=5, times=(1.0, 2.5, 4.0)):
    return {
        "schema_version": 1,
        "name": "mini",
        "grid": {"x_min_km": 0.0, "x_max_km": 1.0, "n_cells": 102},
        "boundary": {
            "p_left_pa": 4.137e7,
            "p_right_pa": 2.758e7,
            "s_inflow": 1.0,
            "s_initial": 0.0,
        },
        "fluids": {
            "mu_w_pa_s": 0.003,
            "mu_nw_pa_s": {"param": "mu", "scale": 0.003},
            "beta": {"param": "beta"},
        },
        "rock": {"kind": "homogeneous", "porosity": 0.1, "permeability_m2": 1e-13},
        "axes": [
            {"name": "mu", "values": [1, 6]},
            {"name": "beta", "values": [2, 4]},
        ],
        "snapshot_times_yr": list(times),
        "cfl_safety": 0.9,
        "greedy": {"eps_abs": 0.0, "eps_rel": 0.0, "n_max": n_max},
        "qp": {"tol": 1e-10},
    }


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    cfg_path = root / "mini.json"
    cfg_path.write_text(json.dumps(mini_config()))
    store_dir = root / "store"
    model_dir = root / "model"
    assert cli.main(["generate", "--config", str(cfg_path), "--out", str(store_dir)]) == 0
    assert cli.main(["offline", "--store", str(store_dir), "--out", str(model_dir)]) == 0
    return root, cfg_path, store_dir, model_dir


class TestConfig:
    def test_presets_load(self):
        for name in ("example1", "example2"):
            cfg = config.load_preset(name)
            assert cfg.grid.n_cells == 1002
        ex1 = config.load_preset("example1")
        assert len(ex1.combos()) == 30
        assert len(ex1.snapshot_times_yr) == 25
        ex2 = config.load_preset("example2")
        assert len(ex2.combos()) == 35
        assert len(ex2.snapshot_times_yr) == 20

    def test_example2_rock_binding(self):
        cfg = config.load_preset("example2")
        combo = {"k_lp": 7e-14, "gamma": 0.2}
        rock = cfg.rock_at(combo)
        centers = cfg.grid.centers()
        assert np.all(rock.permeability[centers < 0.2] == 1e-13)
        assert np.all(rock.permeability[centers >= 0.2] == 7e-14)
        assert np.all(rock.porosity[centers >= 0.2] == 0.01)
        # gamma = 0 leaves the whole domain low-permeability
        rock0 = cfg.rock_at({"k_lp": 5e-14, "gamma": 0.0})
        assert np.all(rock0.permeability == 5e-14)

    def test_validation_messages(self):
        bad = mini_config()
        bad["axes"][0]["values"] = [3, 1]
        with pytest.raises(config.ConfigError, match="sorted"):
            config.parse_config(bad)
        bad = mini_config()
        del bad["grid"]
        with pytest.raises(config.ConfigError, match="grid"):
            config.parse_config(bad)
        bad = mini_config()
        bad["schema_version"] = 99
        with pytest.raises(config.ConfigError, match="schema_version"):
            config.parse_config(bad)
        bad = mini_config()
        bad["fluids"]["beta"] = {"param": "nope"}
        with pytest.raises(config.ConfigError, match="nope"):
            config.parse_config(bad)

    @pytest.mark.parametrize("block, value, override", [
        ("greedy", 3, ["--n-max", "3"]),
        ("qp", 3, ["--qp-tol", "1e-9"]),
        ("greedy", {"n_max": "abc"}, ["--eps-abs", "0"]),
        ("qp", {"tol": "x"}, ["--n-max", "3"]),
        ("greedy", {"n_max": 2.7}, ["--eps-rel", "0"]),
    ])
    def test_malformed_solver_block(self, mini_run, tmp_path, block, value, override):
        bad = mini_config()
        bad[block] = value
        with pytest.raises(config.ConfigError, match=block):
            config.parse_config(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        argv = ["generate", "--config", str(path), "--out", str(tmp_path / "s")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        # a store whose recorded config carries the block, with and without
        # an override of another key
        _, _, store_dir, _ = mini_run
        copied = tmp_path / "store"
        shutil.copytree(store_dir, copied)
        manifest = json.loads((copied / "manifest.json").read_text())
        manifest["config"][block] = value
        (copied / "manifest.json").write_text(json.dumps(manifest))
        for extra in ([], override):
            argv = ["offline", "--store", str(copied), "--out", str(tmp_path / "m"), *extra]
            assert cli.main(argv) == cli.EXIT_STORE

    @pytest.mark.parametrize("path, value, message", [
        pytest.param(("qp", "tol"), float("inf"), "qp.tol must be a finite number", id="tol-inf"),
        pytest.param(("qp", "tol"), -1e-9, "qp.tol must be positive", id="tol-negative"),
        pytest.param(("greedy", "eps_abs"), "0", "greedy.eps_abs must be a finite number",
                     id="eps-abs-string"),
        pytest.param(("greedy", "n_max"), 4.5, "greedy.n_max must be a whole number",
                     id="n-max-fractional"),
        pytest.param(("grid", "n_cells"), 102.5, "grid.n_cells must be a whole number",
                     id="cells-fractional"),
        pytest.param(("cfl_safety",), True, "cfl_safety must be a finite number",
                     id="safety-bool"),
        pytest.param(("cfl_safety",), 1.5, r"cfl_safety must be a number in \(0, 1\]",
                     id="safety-above-1"),
    ])
    def test_numeric_setting_is_named(self, path, value, message):
        bad = mini_config()
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(config.ConfigError, match=message):
            config.parse_config(bad)

    def test_defaults_of_optional_settings(self):
        raw = mini_config()
        for key in ("cfl_safety", "greedy", "qp"):
            del raw[key]
        cfg = config.parse_config(raw)
        assert cfg.cfl_safety == flow.DEFAULT_CFL_SAFETY
        assert cfg.greedy == config.GreedySettings()
        assert cfg.qp == config.QpSettings(tol=simplexqp.DEFAULT_TOL)

    def test_axis_names_with_inner_space_or_underscore(self):
        raw = mini_config()
        raw["axes"][0]["name"] = raw["fluids"]["mu_nw_pa_s"]["param"] = "m u"
        raw["axes"][1]["name"] = raw["fluids"]["beta"]["param"] = "k_lp"
        assert config.parse_config(raw).axis_names == ("t", "m u", "k_lp")

    @pytest.mark.parametrize("path, value", [
        pytest.param(("snapshot_times_yr",), ["a"], id="time-string"),
        pytest.param(("snapshot_times_yr",), 5, id="times-not-a-list"),
        pytest.param(("snapshot_times_yr",), [1.0, float("inf")], id="time-inf"),
        pytest.param(("snapshot_times_yr",), [float("nan")], id="time-nan"),
        pytest.param(("cfl_safety",), "x", id="safety-string"),
        pytest.param(("cfl_safety",), float("nan"), id="safety-nan"),
        pytest.param(("axes", 0, "values"), [1, "x"], id="axis-value-string"),
        pytest.param(("axes", 0, "values"), [1, float("inf")], id="axis-value-inf"),
        pytest.param(("axes", 0, "values"), 3, id="axis-values-not-a-list"),
        pytest.param(("grid",), 3, id="grid-not-an-object"),
        pytest.param(("fluids",), 3, id="fluids-not-an-object"),
        pytest.param(("axes", 1), 7, id="axis-not-an-object"),
        pytest.param(("fluids", "beta"), 0.0, id="beta-zero"),
        pytest.param(("fluids", "beta"), {"param": ["beta"]}, id="binding-to-a-list"),
        pytest.param(("rock", "porosity"), 1.5, id="porosity-above-1"),
        pytest.param(("rock", "porosity"), {"param": "mu", "scale": 0.2}, id="porosity-bound"),
        pytest.param(("boundary", "p_left_pa"), float("nan"), id="pressure-nan"),
        pytest.param(("grid", "x_max_km"), float("inf"), id="x-max-inf"),
        pytest.param(("grid", "n_cells"), 102.7, id="cells-fractional"),
        pytest.param(("boundary", "s_inflow"), True, id="inflow-bool"),
        pytest.param(("axes", 0, "values"), [1, 1, 6], id="axis-value-repeated"),
        pytest.param(("snapshot_times_yr",), [1.0, 1.0, 2.5], id="time-repeated"),
        pytest.param(("axes",), [*mini_config()["axes"], {"name": 7, "values": [1]}],
                     id="axis-name-number"),
        pytest.param(("axes",), [*mini_config()["axes"], {"name": ["x"], "values": [1]}],
                     id="axis-name-list"),
        # an axis name is a CSV header cell and an --at key
        *[pytest.param(("axes",), [*mini_config()["axes"], {"name": name, "values": [1]}],
                       id=f"axis-name-{case}")
          for case, name in [("comma", "m,u"), ("equals", "m=u"), ("line-break", "m\nu"),
                             ("empty", ""), ("leading-space", " mu")]],
        pytest.param(("name",), ["x"], id="config-name-list"),
        pytest.param(("name",), 7, id="config-name-number"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, path, value):
        bad = mini_config()
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg_path, out = tmp_path / "bad.json", tmp_path / "s"
        cfg_path.write_text(json.dumps(bad))
        argv = ["generate", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_unknown_config_exit_code(self, capsys):
        assert cli.main(["generate", "--config", "nope.json", "--out", "x"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "s"
        if kind == "directory":
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(json.dumps(mini_config()).encode("utf-16"))
        argv = ["generate", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and err.count("\n") == 1
        assert not out.exists()

    def test_homogeneous_is_the_equal_sided_two_region_layout(self, tmp_path):
        side = {"porosity": {"param": "beta", "scale": 0.05},
                "permeability_m2": {"param": "mu", "scale": 1e-13}}
        homogeneous, two_region = mini_config(), mini_config()
        homogeneous["rock"] = {"kind": "homogeneous", **side}
        two_region["rock"] = {"kind": "two_region", "interface_km": 0.5,
                              "left": side, "right": dict(side)}
        cfgs = [config.parse_config(raw) for raw in (homogeneous, two_region)]
        for combo in cfgs[0].combos():
            a, b = (cfg.rock_at(combo) for cfg in cfgs)
            assert a.porosity.tobytes() == b.porosity.tobytes()
            assert a.permeability.tobytes() == b.permeability.tobytes()
        stores = []
        for name, raw in (("h", homogeneous), ("t", two_region)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            argv = ["generate", "--config", str(path), "--out", str(tmp_path / name)]
            assert cli.main(argv) == 0
            stores.append(store.load_store(tmp_path / name))
        for array in store.STORE_ARRAYS:
            assert getattr(stores[0], array).tobytes() == getattr(stores[1], array).tobytes()


class TestGenerate:
    def test_store_contents(self, mini_run):
        _, _, store_dir, _ = mini_run
        st = store.load_store(store_dir)
        assert st.count == 2 * 2 * 3
        assert st.config.axis_names == ("t", "mu", "beta")
        assert st.values.shape == (12, 102)
        np.testing.assert_allclose(
            st.masses, st.values.sum(axis=1) / 102, rtol=1e-12
        )
        # one run record per simulation: steps taken, CFL bound, mass balance
        assert st.steps.shape == (4,) and np.all(st.steps > 0)
        assert np.all((st.min_dt_s > 0) & np.isfinite(st.min_dt_s))
        assert np.all(st.mass_residual < 1e-12)

    def test_store_is_the_sweep_record(self, mini_run):
        # the store's arrays are simulate_batch's record, reshaped, bit for bit
        _, cfg_path, store_dir, _ = mini_run
        cfg = config.load_config(cfg_path)
        combos = cfg.combos()
        res = flow.simulate_batch(
            cfg.grid, [cfg.rock_at(c) for c in combos], [cfg.fluids_at(c) for c in combos],
            cfg.boundary, cfg.snapshot_times_yr, safety=cfg.cfl_safety,
        )
        assert res.errors == [None] * len(combos)
        with np.load(store_dir / store.SNAPSHOTS_NAME) as data:
            np.testing.assert_array_equal(data["values"], res.values.reshape(-1, 102))
            np.testing.assert_array_equal(data["masses"], res.masses.reshape(-1))
            for name in ("steps", "min_dt_s", "mass_residual"):
                np.testing.assert_array_equal(data[name], getattr(res, name), err_msg=name)

    def test_deterministic_rerun(self, mini_run, tmp_path):
        _, cfg_path, store_dir, _ = mini_run
        again = tmp_path / "store2"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(again)]) == 0
        a = store.load_store(store_dir)
        b = store.load_store(again)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.params, b.params)

    def test_rerun_over_complete_store(self, mini_run):
        _, cfg_path, store_dir, _ = mini_run
        # the manifest matches, so a rerun regenerates cleanly without --force
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(store_dir)]) == 0

    def test_summary_reports_the_flow_batch(self, mini_run, tmp_path, capsys):
        _, cfg_path, _, _ = mini_run
        out = tmp_path / "store"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("flow batch:"))
        match = re.fullmatch(r"flow batch: ([\d.]+) s for 4 simulations, (\d+) row-steps, "
                             r"([\d.]+) us per row-step, (\d+) lockstep steps, "
                             r"(\d+) of them single steps near events, "
                             r"([\d.]+) us per lockstep step", line)
        assert match, line
        steps = store.load_store(out).steps
        assert int(match[2]) == int(steps.sum())
        assert int(match[4]) == int(steps.max())
        assert float(match[3]) > 0.0 and float(match[6]) >= float(match[3])
        # the sweep record's count: the steps that land a row, at least one
        # per snapshot time, and those just before them, a small share of
        # the lockstep steps
        cfg = config.load_config(cfg_path)
        combos = cfg.combos()
        res = flow.simulate_batch(
            cfg.grid, [cfg.rock_at(c) for c in combos], [cfg.fluids_at(c) for c in combos],
            cfg.boundary, cfg.snapshot_times_yr, safety=cfg.cfl_safety,
        )
        assert int(match[5]) == res.single_steps
        assert 3 <= res.single_steps < int(steps.max()) // 4

    def test_corrupt_manifest_exits_3(self, mini_run, tmp_path, capsys):
        _, cfg_path, _, _ = mini_run
        out = tmp_path / "store"
        out.mkdir()
        (out / store.MANIFEST_NAME).write_text("{")
        argv = ["generate", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert "store error: unreadable manifest.json" in err and "Traceback" not in err

    def test_mismatching_store_rejected(self, mini_run, capsys):
        _, _, store_dir, _ = mini_run
        other = mini_config(times=(0.5,))
        cfg2 = store_dir.parent / "other.json"
        cfg2.write_text(json.dumps(other))
        assert (
            cli.main(["generate", "--config", str(cfg2), "--out", str(store_dir)])
            == cli.EXIT_STORE
        )

    def test_bool_schema_version_exits_2(self, tmp_path, capsys):
        # true == 1 in Python, but a schema version is an int
        raw = mini_config()
        raw["schema_version"] = True
        cfg_path = tmp_path / "bool.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "store"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == (
            cli.EXIT_CONFIG)
        assert "unsupported schema_version True" in capsys.readouterr().err
        assert not out.exists()

    def test_unbounded_work_exits_2_before_stepping(self, tmp_path, capsys):
        # a permeability of 0.5 m^2 (0.5 darcy written where m^2 is meant)
        # bounds the sweep by about 4e15 row-steps: refused at set-up
        raw = mini_config()
        raw["rock"]["permeability_m2"] = 0.5
        cfg_path = tmp_path / "darcy.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "store"
        start = time.perf_counter()
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == (
            cli.EXIT_CONFIG)
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: {'mu': 6.0, 'beta': 4.0} may take up to ")
        assert f"above the limit of {flow.MAX_ROW_STEPS:,}" in err
        assert not (out / store.SNAPSHOTS_NAME).exists()

    def test_summary_reports_the_step_bound(self, mini_run, tmp_path, capsys):
        _, cfg_path, _, _ = mini_run
        out = tmp_path / "store"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("step bound:"))
        match = re.fullmatch(r"step bound: (\d+) row-steps taken of at most (\d+) bounded "
                             r"before the first step \(limit 1,000,000,000\)", line)
        assert match, line
        assert int(match[1]) == int(store.load_store(out).steps.sum()) < int(match[2])


class TestStoreValidation:
    """load_store refuses every malformed store with StoreError (exit 3)."""

    @pytest.fixture
    def copy(self, mini_run, tmp_path):
        _, _, store_dir, _ = mini_run
        target = tmp_path / "store"
        shutil.copytree(store_dir, target)
        return target

    def _edit_manifest(self, directory, **changes):
        path = directory / store.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest.update(changes)
        path.write_text(json.dumps(manifest))

    def _edit_arrays(self, directory, name, value):
        path = directory / store.SNAPSHOTS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[name] = value(arrays[name])
        np.savez(path, **arrays)

    def test_valid_copy_loads(self, copy):
        st = store.load_store(copy)
        assert st.steps.shape == st.min_dt_s.shape == st.mass_residual.shape == (4,)

    def test_save_store_checks_shapes_before_writing(self, copy):
        st = store.load_store(copy)
        (copy / store.SNAPSHOTS_NAME).unlink()
        arrays = {name: getattr(st, name) for name in store.STORE_ARRAYS}
        with pytest.raises(store.StoreError, match="values"):
            store.save_store(copy, st.config, **{**arrays, "values": st.values[:, :-1]})
        assert not (copy / store.SNAPSHOTS_NAME).exists()
        store.save_store(copy, st.config, **arrays)
        np.testing.assert_array_equal(store.load_store(copy).values, st.values)

    def test_wrong_kind(self, copy):
        self._edit_manifest(copy, kind="reduced_model")
        with pytest.raises(store.StoreError, match="snapshot_store"):
            store.load_store(copy)

    def test_wrong_schema_version(self, copy):
        self._edit_manifest(copy, schema_version=2)
        with pytest.raises(store.StoreError, match="schema_version"):
            store.load_store(copy)

    @pytest.mark.parametrize(
        "name", ["params", "values", "masses", "steps", "min_dt_s", "mass_residual"]
    )
    def test_array_shape_mismatch(self, copy, name):
        self._edit_arrays(copy, name, lambda arr: arr[:-1])
        with pytest.raises(store.StoreError, match=name):
            store.load_store(copy)

    def test_values_of_other_grid(self, copy):
        self._edit_arrays(copy, "values", lambda arr: arr[:, :-1])
        with pytest.raises(store.StoreError, match="values"):
            store.load_store(copy)

    def test_missing_stats_array(self, copy):
        path = copy / store.SNAPSHOTS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != "steps"}
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match="steps"):
            store.load_store(copy)

    def test_manifest_not_json(self, copy):
        (copy / store.MANIFEST_NAME).write_text("{not json")
        with pytest.raises(store.StoreError, match="manifest"):
            store.load_store(copy)

    def test_truncated_npz(self, copy):
        path = copy / store.SNAPSHOTS_NAME
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(store.StoreError, match="snapshots.npz"):
            store.load_store(copy)

    def test_npz_not_a_zip(self, copy):
        (copy / store.SNAPSHOTS_NAME).write_text("not an archive\n")
        with pytest.raises(store.StoreError, match="snapshots.npz"):
            store.load_store(copy)

    @pytest.mark.parametrize("name, index, value", [
        pytest.param("values", (0, 5), np.nan, id="values-nan"),
        pytest.param("values", (1, 7), -0.5, id="values-negative"),
        pytest.param("values", (2, 0), 1.5, id="values-above-one"),
        pytest.param("masses", (3,), -1e-3, id="masses-negative"),
        pytest.param("masses", (0,), np.inf, id="masses-infinite"),
        pytest.param("params", (4, 1), np.nan, id="params-nan"),
    ])
    def test_corrupt_array_entry(self, copy, tmp_path, capsys, name, index, value):
        def corrupt(arr):
            arr = arr.copy()
            arr[index] = value
            return arr

        self._edit_arrays(copy, name, corrupt)
        with pytest.raises(store.StoreError, match=f"'{name}'"):
            store.load_store(copy)
        capsys.readouterr()
        for command in ("offline", "pod"):
            out = tmp_path / command
            assert cli.main([command, "--store", str(copy), "--out", str(out)]) == cli.EXIT_STORE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"'{name}'" in err
            assert not out.exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda arr: np.insert(arr[:-1], 1, arr[0], axis=0), id="duplicated-row"),
        pytest.param(lambda arr: arr[[1, 0, *range(2, len(arr))]], id="swapped-rows"),
        pytest.param(lambda arr: arr + np.array([0.0, 0.0, 1e-9]), id="shifted-axis"),
    ])
    def test_params_not_the_sweep(self, copy, tmp_path, capsys, edit):
        # params rows that are not the sweep of the manifest would train a
        # model whose weights belong to other parameter points
        self._edit_arrays(copy, "params", edit)
        with pytest.raises(store.StoreError, match="'params' is not the sweep"):
            store.load_store(copy)
        capsys.readouterr()
        for command in ("offline", "pod"):
            out = tmp_path / command
            assert cli.main([command, "--store", str(copy), "--out", str(out)]) == cli.EXIT_STORE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "'params'" in err
            assert not out.exists()

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda cfg: cfg.update(cfl_safety=5), id="safety-above-1"),
        pytest.param(lambda cfg: cfg.pop("fluids"), id="no-fluids"),
        pytest.param(lambda cfg: cfg.update(greedy=3), id="greedy-not-an-object"),
        pytest.param(lambda cfg: cfg["grid"].update(x_max_km=-1), id="reversed-grid"),
        pytest.param(lambda cfg: cfg["boundary"].update(p_left_pa="x"), id="pressure-string"),
    ])
    @pytest.mark.parametrize("command", ["offline", "pod", "tables", "landscape", "online"])
    def test_invalid_recorded_config(self, mini_run, copy, tmp_path, capsys, edit, command):
        # the recorded config is store data: every command that loads the
        # store refuses an invalid one, naming the manifest, before any output
        *_, model_dir = mini_run
        path = copy / store.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        edit(manifest["config"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(store.StoreError, match="manifest.json holds an invalid config"):
            store.load_store(copy)
        out = tmp_path / "out"
        argv = [command, "--store", str(copy), "--out", str(out)]
        model_args = {"tables": [], "landscape": ["--target-index", "5", "--resolution", "11"],
                      "online": ["--at", "t=2.5,mu=1,beta=2"]}
        if command in model_args:
            argv += ["--model", str(model_dir), *model_args[command]]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and store.MANIFEST_NAME in err
        assert not out.exists()

    def test_old_manifest_with_derived_keys(self, mini_run, copy, tmp_path):
        # older manifests also carry the axis names and sweep sizes; the keys
        # are ignored on load, but generate asks for --force to rewrite them
        _, cfg_path, _, model_dir = mini_run
        self._edit_manifest(copy, axis_names=["t", "mu", "beta"], combo_count=4, time_count=3)
        out = tmp_path / "m"
        assert cli.main(["offline", "--store", str(copy), "--out", str(out)]) == 0
        for artefact in (store.MODEL_ARRAYS_NAME, store.REPORT_NAME):
            assert (out / artefact).read_bytes() == (model_dir / artefact).read_bytes()
        argv = ["generate", "--config", str(cfg_path), "--out", str(copy)]
        assert cli.main(argv) == cli.EXIT_STORE
        assert cli.main([*argv, "--force"]) == 0
        manifest = json.loads((copy / store.MANIFEST_NAME).read_text())
        assert sorted(manifest) == ["config", "kind", "schema_version"]

    def test_integer_values(self, copy):
        self._edit_arrays(copy, "values", lambda arr: (arr > 0.5).astype(int))
        with pytest.raises(store.StoreError, match="'values' is not a float array"):
            store.load_store(copy)

    def test_cli_exit_code(self, copy, tmp_path):
        self._edit_manifest(copy, schema_version=0)
        argv = ["offline", "--store", str(copy), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_STORE

    def test_bool_schema_version(self, mini_run, copy, tmp_path, capsys):
        self._edit_manifest(copy, schema_version=True)
        with pytest.raises(store.StoreError, match="schema_version True is not 1"):
            store.load_store(copy)
        out = tmp_path / "p"
        assert cli.main(["pod", "--store", str(copy), "--out", str(out)]) == cli.EXIT_STORE
        assert "schema_version True" in capsys.readouterr().err
        assert not out.exists()
        # a generate rerun does not take that manifest for its own
        _, cfg_path, _, _ = mini_run
        (copy / store.SNAPSHOTS_NAME).unlink()
        argv = ["generate", "--config", str(cfg_path), "--out", str(copy)]
        assert cli.main(argv) == cli.EXIT_STORE
        assert not (copy / store.SNAPSHOTS_NAME).exists()


def off_the_simplex(weights):
    """Each weight row with its first weight less by 1 and its second more
    by 1: every sum stays 1, and a weight turns negative."""
    weights[..., 0] -= 1.0
    weights[..., 1] += 1.0
    return weights


class TestModelValidation:
    """load_model and load_report refuse every malformed model
    directory with StoreError (exit 3)."""

    @pytest.fixture
    def copy(self, mini_run, tmp_path):
        *_, model_dir = mini_run
        target = tmp_path / "model"
        shutil.copytree(model_dir, target)
        return target

    def _edit_meta(self, directory, **changes):
        path = directory / store.MODEL_META_NAME
        meta = json.loads(path.read_text())
        meta.update(changes)
        path.write_text(json.dumps(meta))

    def _edit_report(self, directory, edit):
        path = directory / store.REPORT_NAME
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")

    def test_valid_copy_loads(self, copy):
        assert store.load_model(copy).n_atoms == 5
        assert len(store.load_report(copy).n) == 4
        # a whole float is a whole number of cells, as for grid.n_cells
        self._edit_meta(copy, n_raw=102.0)
        assert type(store.load_model(copy).n_raw) is int

    def test_too_few_atoms(self, copy, tmp_path, capsys):
        # a model of no atoms, consistent in every array, is still refused
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        for name in ("atoms", "weight_table", "atom_indices"):
            arrays[name] = arrays[name][..., :0]
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match="0 atoms"):
            store.load_model(copy)
        out = tmp_path / "o"
        argv = ["online", "--model", str(copy), "--out", str(out), "--at", "t=0.3,mu=2,beta=2.5"]
        assert cli.main(argv) == cli.EXIT_STORE
        assert "0 atoms" in capsys.readouterr().err
        assert not out.exists()

    def test_one_dimensional_atoms(self, copy, tmp_path, capsys):
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["atoms"] = arrays["atoms"][:, 0]
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match="'atoms'.*not a 2-D float array"):
            store.load_model(copy)
        out = tmp_path / "o"
        argv = ["online", "--model", str(copy), "--out", str(out), "--at", "t=2.5,mu=1,beta=2"]
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert "2-D float array" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        pytest.param({"x_min_km": 1.0, "x_max_km": 0.0}, "unusable grid", id="reversed-grid"),
        pytest.param({"x_max_km": float("nan")}, "unusable grid", id="x-max-nan"),
        pytest.param({"x_max_km": float("inf")}, "unusable grid", id="x-max-inf"),
        pytest.param({"axis_names": "tmb"}, "not a list of strings", id="axis-names-string"),
        pytest.param({"n_raw": 102.9}, "unusable grid", id="cells-fractional"),
        pytest.param({"n_raw": "102"}, "unusable grid", id="cells-string"),
        pytest.param({"x_min_km": "0"}, "unusable grid", id="x-min-string"),
    ])
    def test_unusable_grid_or_axis_names(self, copy, tmp_path, capsys, changes, message):
        self._edit_meta(copy, **changes)
        with pytest.raises(store.StoreError, match=message):
            store.load_model(copy)
        out = tmp_path / "o"
        argv = ["online", "--model", str(copy), "--out", str(out), "--at", "t=2.5,mu=1,beta=2"]
        assert cli.main(argv) == cli.EXIT_STORE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_npz(self, copy):
        (copy / store.MODEL_ARRAYS_NAME).unlink()
        with pytest.raises(store.StoreError, match="model.npz"):
            store.load_model(copy)

    def test_truncated_npz(self, copy):
        path = copy / store.MODEL_ARRAYS_NAME
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(store.StoreError, match="model.npz"):
            store.load_model(copy)

    def test_meta_not_json(self, copy):
        (copy / store.MODEL_META_NAME).write_text("{not json")
        with pytest.raises(store.StoreError, match="model.json"):
            store.load_model(copy)

    def test_wrong_kind(self, copy):
        self._edit_meta(copy, kind="snapshot_store")
        with pytest.raises(store.StoreError, match="reduced_model"):
            store.load_model(copy)

    def test_wrong_schema_version(self, copy):
        self._edit_meta(copy, schema_version=2)
        with pytest.raises(store.StoreError, match="schema_version"):
            store.load_model(copy)

    def test_bool_schema_version(self, copy, tmp_path, capsys):
        self._edit_meta(copy, schema_version=True)
        out = tmp_path / "o"
        argv = ["online", "--model", str(copy), "--out", str(out), "--at", "t=2.5,mu=1,beta=2"]
        assert cli.main(argv) == cli.EXIT_STORE
        assert "schema_version True is not 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, message", [
        pytest.param("weight_table", off_the_simplex, "'weight_table' has a row off "
                     "the simplex", id="weight-row-off-the-simplex"),
        pytest.param("mass_table", np.negative, "'mass_table' holds a negative mass",
                     id="negated-mass-table"),
        pytest.param("n", "-1", "column 'n' holds a negative value", id="report-n-negative"),
        pytest.param("l1_mean", "-1", "column 'l1_mean' holds a negative value",
                     id="report-l1-mean-negative"),
    ])
    def test_values_that_give_silent_answers(self, mini_run, copy, tmp_path, capsys, name,
                                             edit, message):
        # each once gave an answer and exit 0: a profile of saturation 5.45,
        # an all-zero profile, n_gbar -1, and n_gbar 2 at every eps
        _, _, store_dir, _ = mini_run
        if name in store.REPORT_COLUMNS:
            def first_row(lines):
                row = lines[1].split(",")
                row[store.REPORT_COLUMNS.index(name)] = edit
                return lines[:1] + [",".join(row)] + lines[2:]

            self._edit_report(copy, first_row)
            argv = ["tables", "--store", str(store_dir), "--model", str(copy)]
        else:
            path = copy / store.MODEL_ARRAYS_NAME
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
            arrays[name] = edit(arrays[name])
            np.savez(path, **arrays)
            argv = ["online", "--model", str(copy), "--at", "t=2.5,mu=1,beta=2"]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_STORE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_sizes_run_by_one(self, copy):
        self._edit_report(copy, lambda lines: lines[:1] + lines[2:])
        with pytest.raises(store.StoreError, match="'n' does not run 2, 3, ..."):
            store.load_report(copy)

    @pytest.mark.parametrize("name", ["weight_table", "mass_table", "atoms"])
    def test_array_shape_mismatch(self, copy, name):
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[name] = arrays[name][..., :-1]
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match=name):
            store.load_model(copy)

    @pytest.mark.parametrize("axis", [
        pytest.param([1.0, 1.0], id="repeated"),
        pytest.param([6.0, 1.0], id="decreasing"),
        pytest.param([1.0, np.inf], id="infinite"),
        pytest.param([[1.0, 6.0]], id="two-dimensional"),
    ])
    def test_malformed_axis(self, copy, tmp_path, capsys, axis):
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["axis_1"] = np.array(axis)
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match="'axis_1'.*strictly increasing"):
            store.load_model(copy)
        out = tmp_path / "o"
        argv = ["online", "--model", str(copy), "--out", str(out), "--at", "t=1,mu=1,beta=3"]
        assert cli.main(argv) == cli.EXIT_STORE
        assert "axis_1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [
        ("mass_table", np.nan), ("atoms", np.inf), ("weight_table", -np.inf),
    ])
    def test_non_finite_array(self, mini_run, copy, tmp_path, capsys, name, value):
        _, _, store_dir, _ = mini_run
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[name].flat[1] = value
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match=f"'{name}' is not a finite float array"):
            store.load_model(copy)
        capsys.readouterr()
        for argv in (
            ["online", "--model", str(copy), "--at", "t=2.5,mu=1,beta=2"],
            ["landscape", "--model", str(copy), "--store", str(store_dir),
             "--target-index", "5", "--resolution", "11"],
        ):
            out = tmp_path / argv[0]
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_STORE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and name in err
            assert not out.exists()

    def test_decreasing_atom(self, mini_run, copy, tmp_path, capsys):
        _, _, store_dir, _ = mini_run
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["atoms"][:, 0] = arrays["atoms"][::-1, 0]
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match="'atoms' has a decreasing column"):
            store.load_model(copy)
        capsys.readouterr()
        for argv in (
            ["online", "--model", str(copy), "--at", "t=2.5,mu=1,beta=2"],
            ["landscape", "--model", str(copy), "--store", str(store_dir),
             "--target-index", "5", "--resolution", "11"],
        ):
            out = tmp_path / argv[0]
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_STORE
            assert "'atoms'" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_report(self, copy):
        (copy / store.REPORT_NAME).unlink()
        with pytest.raises(store.StoreError, match="greedy_report.csv"):
            store.load_report(copy)

    def test_short_report_row(self, copy):
        self._edit_report(copy, lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]])
        with pytest.raises(store.StoreError, match="11 cells"):
            store.load_report(copy)

    def test_non_numeric_report_cell(self, copy):
        self._edit_report(copy, lambda lines: lines[:1] + ["x" + lines[1]] + lines[2:])
        with pytest.raises(store.StoreError, match="'x2'"):
            store.load_report(copy)

    @pytest.mark.parametrize("column, cell", [
        ("l1_mean", "nan"), ("mean_w2", "inf"), ("condition", "nan"), ("condition", "-inf"),
    ])
    def test_non_finite_report_cell(self, mini_run, copy, tmp_path, capsys, column, cell):
        def edit(lines):
            header = lines[0].split(",")
            row = lines[2].split(",")
            row[header.index(column)] = cell
            return lines[:2] + [",".join(row)] + lines[3:]

        self._edit_report(copy, edit)
        with pytest.raises(store.StoreError, match=f"column '{column}' holds a non-finite value"):
            store.load_report(copy)
        _, _, store_dir, _ = mini_run
        out = tmp_path / "t"
        argv = ["tables", "--store", str(store_dir), "--model", str(copy), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_STORE
        assert f"'{column}'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_report(self, mini_run, copy, tmp_path, capsys):
        path = copy / store.REPORT_NAME
        path.write_bytes(path.read_text().encode("utf-16"))
        with pytest.raises(store.StoreError, match="unreadable report"):
            store.load_report(copy)
        _, _, store_dir, _ = mini_run
        out = tmp_path / "t"
        argv = ["tables", "--store", str(store_dir), "--model", str(copy), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_STORE
        assert capsys.readouterr().err.startswith("store error: unreadable report")
        assert not out.exists()

    def test_header_only_report(self, copy):
        self._edit_report(copy, lambda lines: lines[:1])
        with pytest.raises(store.StoreError, match="no iterations"):
            store.load_report(copy)

    def test_cli_exit_codes(self, mini_run, copy, tmp_path):
        _, _, store_dir, _ = mini_run
        self._edit_report(copy, lambda lines: lines[:1])
        argv = ["tables", "--store", str(store_dir), "--model", str(copy),
                "--out", str(tmp_path / "d")]
        assert cli.main(argv) == cli.EXIT_STORE
        (copy / store.MODEL_ARRAYS_NAME).unlink()
        argv = ["online", "--model", str(copy), "--out", str(tmp_path / "o"),
                "--at", "t=1,mu=1,beta=2"]
        assert cli.main(argv) == cli.EXIT_STORE


def per_cell_csv(header, table) -> bytes:
    """The reference text of a float table: one repr per cell."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in table]
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    """write_csv formats each distinct value of a float column once,
    byte-identical to a per-cell repr; other columns are written per cell,
    and columns that are not 1-D of one length write nothing."""

    @pytest.mark.parametrize("table", [
        pytest.param(np.tile([[0.1, 2.0, 1e-300], [0.1, 0.1, 2.0]], (50, 1)), id="repeated"),
        pytest.param(np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]), id="signed-zeros"),
        pytest.param(np.array([[np.nan, np.inf], [-np.inf, np.nan], [1.5, -np.inf]]), id="non-finite"),
        pytest.param(np.random.default_rng(7).normal(size=(40, 5)) * 1e3, id="all-distinct"),
        pytest.param(np.array([[1.0, 2.0]], dtype=np.float32) / 3, id="float32"),
        pytest.param(np.empty((0, 3)), id="no-rows"),
    ])
    def test_matches_per_cell_repr(self, tmp_path, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        store.write_csv(tmp_path / "t.csv", list(zip(header, table.T)))
        assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(header, table)

    def test_column_slice_and_nan_payloads(self, tmp_path):
        # a non-contiguous view, and two NaNs of different bits print alike
        table = np.arange(24.0).reshape(4, 6)[:, ::2].copy()
        table[0, 0] = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]
        table[1, 1] = np.nan
        view = np.arange(24.0).reshape(4, 6)[:, ::2]
        for t in (table, view):
            store.write_csv(tmp_path / "t.csv", list(zip(["a", "b", "c"], t.T)))
            assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(["a", "b", "c"], t)

    @pytest.mark.parametrize("columns", [
        pytest.param([("a", [1.0, 2.0]), ("b", [1, 2, 3])], id="lengths"),
        pytest.param([("a", np.zeros((2, 1))), ("b", np.zeros(2))], id="2-d"),
    ])
    def test_unequal_columns_raise_and_write_nothing(self, tmp_path, columns):
        with pytest.raises(ValueError, match=r"a \(2.*\), b \([23],\)"):
            store.write_csv(tmp_path / "t.csv", columns)
        assert list(tmp_path.iterdir()) == []

    def test_cells_of_other_columns(self, tmp_path):
        columns = [("n", [1, 2]), ("size", [3, None]), ("tag", ["", "max_atoms"])]
        store.write_csv(tmp_path / "t.csv", columns)
        assert (tmp_path / "t.csv").read_text() == "n,size,tag\n1,3,\n2,-,max_atoms\n"


class TestGridMismatch:
    """A store on another cell grid than the model's is a data error
    (exit 3) for every command that reads both, before any output."""

    @pytest.fixture(scope="class", params=[
        pytest.param({"n_cells": 60}, id="cells"),
        pytest.param({"x_max_km": 2.0}, id="extent"),
    ])
    def other_store(self, request, tmp_path_factory):
        cfg = mini_config()
        cfg["grid"].update(request.param)
        root = tmp_path_factory.mktemp("other_grid")
        (root / "cfg.json").write_text(json.dumps(cfg))
        argv = ["generate", "--config", str(root / "cfg.json"), "--out", str(root / "store")]
        assert cli.main(argv) == 0
        return root / "store"

    @pytest.mark.parametrize("command", ["online", "landscape", "tables"])
    def test_exit_3_naming_both_grids(self, mini_run, other_store, tmp_path, capsys, command):
        *_, model_dir = mini_run
        out = tmp_path / "out"
        argv = [command, "--model", str(model_dir), "--store", str(other_store), "--out", str(out)]
        if command == "online":
            argv += ["--at", "t=2.5,mu=1,beta=2"]
        elif command == "landscape":
            argv += ["--target-index", "5", "--resolution", "11"]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        other = store.load_store(other_store)
        assert "102 cells on [0.0, 1.0] km" in err
        assert f"{other.config.grid.n_cells} cells on [0.0, {other.config.grid.x_max}] km" in err
        assert not out.exists()


class TestStoreAxes:
    """`online --store` on a store swept over other axes than the model's is
    a data error (exit 3) naming both axis lists, before any output: its
    parameter rows cannot be matched with the points."""

    @pytest.mark.parametrize("axes", [("mu", "b"), ("mu",)], ids=["renamed", "fewer"])
    def test_online_exit_3_naming_both_axis_lists(self, mini_run, tmp_path, capsys, axes):
        *_, model_dir = mini_run
        cfg = mini_config()
        # the same grid and values, only beta is renamed or fixed at 2
        cfg["axes"] = [{"name": name, "values": [1, 6] if name == "mu" else [2, 4]}
                       for name in axes]
        cfg["fluids"]["beta"] = {"param": "b"} if "b" in axes else 2.0
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        other = tmp_path / "store"
        assert cli.main(["generate", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(other)]) == 0
        out = tmp_path / "out"
        argv = ["online", "--model", str(model_dir), "--store", str(other), "--out", str(out),
                "--at", "t=2.5,mu=6,beta=2"]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"the store's axes {['t', *axes]} are not the model's ['t', 'mu', 'beta']" in err
        assert not out.exists()

    @pytest.fixture(scope="class", params=[("mu", "b"), ("mu",)], ids=["renamed", "fewer"])
    def other_axes(self, request, tmp_path_factory):
        """A store on the model's grid whose beta axis is renamed or fixed at 2."""
        axes = request.param
        cfg = mini_config()
        cfg["axes"] = [{"name": name, "values": [1, 6] if name == "mu" else [2, 4]}
                       for name in axes]
        cfg["fluids"]["beta"] = {"param": "b"} if "b" in axes else 2.0
        root = tmp_path_factory.mktemp("other_axes")
        (root / "cfg.json").write_text(json.dumps(cfg))
        argv = ["generate", "--config", str(root / "cfg.json"), "--out", str(root / "store")]
        assert cli.main(argv) == 0
        return axes, root / "store"

    @pytest.mark.parametrize("command", ["landscape", "tables"])
    def test_exit_3_naming_both_axis_lists(self, mini_run, other_axes, tmp_path, capsys, command):
        *_, model_dir = mini_run
        axes, other = other_axes
        out = tmp_path / "out"
        argv = [command, "--model", str(model_dir), "--store", str(other), "--out", str(out)]
        if command == "landscape":
            argv += ["--target-index", "5", "--resolution", "11"]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"the store's axes {['t', *axes]} are not the model's ['t', 'mu', 'beta']" in err
        assert not out.exists()


class TestStoreSweep:
    """`tables` and `landscape` on a store whose sweep holds other values
    than the model's, on the same grid and axes, are a data error (exit 3)
    naming the axis and both value lists, before any output. `online
    --store` takes a wider sweep: its nodes are only looked up."""

    @pytest.fixture(scope="class", params=["mu", "t"])
    def other_model(self, request, tmp_path_factory):
        """A model trained on a store that differs from the mini one in the
        values of one axis."""
        if request.param == "mu":
            cfg = mini_config()
            cfg["axes"][0]["values"] = [2, 12]
        else:
            cfg = mini_config(times=(1.0, 2.5, 5.0))
        root = tmp_path_factory.mktemp("other_sweep")
        (root / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["generate", "--config", str(root / "cfg.json"),
                         "--out", str(root / "store")]) == 0
        assert cli.main(["offline", "--store", str(root / "store"),
                         "--out", str(root / "model")]) == 0
        return request.param, root / "model"

    @pytest.mark.parametrize("command", ["landscape", "tables"])
    def test_exit_3_naming_the_axis_and_both_sweeps(self, mini_run, other_model, tmp_path,
                                                    capsys, command):
        _, _, store_dir, _ = mini_run
        axis, model_dir = other_model
        out = tmp_path / "out"
        argv = [command, "--model", str(model_dir), "--store", str(store_dir), "--out", str(out)]
        if command == "landscape":
            argv += ["--target-index", "5", "--resolution", "11"]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        ours, theirs = {"mu": ([1.0, 6.0], [2.0, 12.0]),
                        "t": ([1.0, 2.5, 4.0], [1.0, 2.5, 5.0])}[axis]
        assert f"the store's axis {axis!r} sweeps {ours}, the model's {theirs}" in err
        assert not out.exists()

    def test_online_takes_a_wider_store(self, mini_run, tmp_path):
        _, _, store_dir, model_dir = mini_run
        cfg = mini_config(times=(1.0, 2.5, 4.0, 5.0))
        cfg["axes"][0]["values"] = [1, 6, 12]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        wide = tmp_path / "wide"
        assert cli.main(["generate", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(wide)]) == 0
        for name, truth in (("own", store_dir), ("wide", wide)):
            assert cli.main(["online", "--model", str(model_dir), "--store", str(truth),
                             "--out", str(tmp_path / name), "--at", "t=2.5,mu=6,beta=2",
                             "--at", "t=1.5,mu=1,beta=4"]) == 0
        own = (tmp_path / "own" / "errors.csv").read_bytes()
        assert own == (tmp_path / "wide" / "errors.csv").read_bytes()
        assert own.count(b"\n") == 2  # the header and the one training node


class TestOffline:
    def test_model_round_trip(self, mini_run):
        *_, model_dir = mini_run
        model = store.load_model(model_dir)
        again = store.load_model(model_dir)
        np.testing.assert_array_equal(model.weight_table, again.weight_table)
        assert model.axis_names == ("t", "mu", "beta")
        report = store.load_report(model_dir)
        assert report.termination in ("absolute", "relative", "max_atoms", "exhausted")
        assert len(report.l1_mean) == len(report.n)
        assert not (model_dir / "dictionary.npz").exists()

    def test_model_with_a_gram_array_loads(self, mini_run, tmp_path):
        # model directories written while the dictionary cached its Gram
        # matrix hold a "gram" array too; it is ignored on load
        *_, model_dir = mini_run
        copy = tmp_path / "model"
        shutil.copytree(model_dir, copy)
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        assert "gram" not in arrays
        np.savez(path, gram=arrays["atoms"].T @ arrays["atoms"], **arrays)
        old, model = store.load_model(copy), store.load_model(model_dir)
        np.testing.assert_array_equal(old.dictionary.atoms, model.dictionary.atoms)
        np.testing.assert_array_equal(old.weight_table, model.weight_table)
        np.testing.assert_array_equal(old.mass_table, model.mass_table)

    def test_older_model_directory_gives_the_same_outputs(self, mini_run, tmp_path):
        # model directories written before each fact was stored once also
        # hold n_atoms, termination and warnings in model.json and the
        # atoms' parameter points in model.npz; all four are ignored
        _, _, store_dir, model_dir = mini_run
        meta = json.loads((model_dir / store.MODEL_META_NAME).read_text())
        assert set(meta) == {"kind", "schema_version", "axis_names", "n_raw",
                             "x_min_km", "x_max_km"}
        copy = tmp_path / "model"
        shutil.copytree(model_dir, copy)
        meta.update(n_atoms=5, termination="max_atoms", warnings=[])
        (copy / store.MODEL_META_NAME).write_text(json.dumps(meta))
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        assert set(arrays) == {*store.MODEL_ARRAYS, "axis_0", "axis_1", "axis_2"}
        st = store.load_store(store_dir)
        np.savez(path, atom_params=st.params[arrays["atom_indices"]], **arrays)
        outputs = {}
        for name, model in (("plain", model_dir), ("older", copy)):
            out = tmp_path / name
            assert cli.main(["online", "--model", str(model), "--out", str(out / "online"),
                             "--at", "t=2.5,mu=3.5,beta=2", "--at", "t=1,mu=1,beta=4"]) == 0
            assert cli.main(["tables", "--store", str(store_dir), "--model", str(model),
                             "--out", str(out / "tables")]) == 0
            outputs[name] = [(out / "online" / "reconstructions.npz").read_bytes(),
                             (out / "tables" / "tables.csv").read_bytes()]
        assert outputs["older"] == outputs["plain"]

    def test_unconverged_solves_warn_once_per_row(self, mini_run, tmp_path, capsys,
                                                  monkeypatch):
        # with no active-set change allowed, solves stop unconverged; each
        # report row that counts some gets one stderr line with its count
        _, _, store_dir, _ = mini_run
        monkeypatch.setattr(simplexqp, "MAX_ITER", 0)
        out = tmp_path / "m"
        assert cli.main(["offline", "--store", str(store_dir), "--out", str(out)]) == 0
        report = store.load_report(out)
        count = store.load_store(store_dir).count
        expected = [f"warning: n={n}: {bad} of {count} weight solves did not converge"
                    for n, bad in zip(report.n, report.n_unconverged) if bad]
        assert expected
        assert capsys.readouterr().err.splitlines() == expected

    def test_degenerate_two_snapshot_store(self, tmp_path):
        cfg = mini_config(times=(1.0, 3.0))
        cfg["axes"] = [{"name": "mu", "values": [1]}, {"name": "beta", "values": [2]}]
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(cfg))
        store_dir, model_dir = tmp_path / "s", tmp_path / "m"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(store_dir)]) == 0
        assert cli.main(["offline", "--store", str(store_dir), "--out", str(model_dir)]) == 0
        model = store.load_model(model_dir)
        assert model.n_atoms == 2
        report = store.load_report(model_dir)
        assert len(report.delta) >= 1

    def test_one_snapshot_store_exits_3(self, tmp_path, capsys):
        cfg = mini_config(times=(1.0,))
        cfg["axes"] = [{"name": "mu", "values": [1]}, {"name": "beta", "values": [2]}]
        cfg_path = tmp_path / "one.json"
        cfg_path.write_text(json.dumps(cfg))
        store_dir, model_dir = tmp_path / "s", tmp_path / "m"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(store_dir)]) == 0
        argv = ["offline", "--store", str(store_dir), "--out", str(model_dir)]
        assert cli.main(argv) == cli.EXIT_STORE
        err = capsys.readouterr().err
        assert "at least 2 snapshots" in err and "holds 1" in err and "Traceback" not in err
        assert not model_dir.exists()

    def test_rerun_is_byte_identical(self, mini_run, tmp_path):
        # nothing carried from sweep to sweep leaks from one run into the next
        _, _, store_dir, model_dir = mini_run
        for name in ("a", "b"):
            argv = ["offline", "--store", str(store_dir), "--out", str(tmp_path / name)]
            assert cli.main(argv) == 0
        for artefact in (store.MODEL_ARRAYS_NAME, "greedy_report.csv"):
            first = (model_dir / artefact).read_bytes()
            assert (tmp_path / "a" / artefact).read_bytes() == first
            assert (tmp_path / "b" / artefact).read_bytes() == first

    def test_carried_values_match_a_full_recompute(self, mini_run, tmp_path, monkeypatch):
        # each sweep carries the objectives and L1 errors of the solves that
        # kept their warm start; a full recompute of every column must agree
        _, _, store_dir, _ = mini_run
        st = store.load_store(store_dir)
        grid = st.config.grid
        train = transport.snapshots_to_icdfs(st.values, grid.x_min, grid.x_max)
        sweeps = []
        run = greedy.run

        def recording_run(*args, on_iteration, **kwargs):
            def record(n, indices, step):
                sweeps.append((indices, step))
                on_iteration(n, indices, step)
            return run(*args, on_iteration=record, **kwargs)

        monkeypatch.setattr(cli.greedy, "run", recording_run)
        out = tmp_path / "m"
        assert cli.main(["offline", "--store", str(store_dir), "--out", str(out)]) == 0
        report = store.load_report(out)
        assert len(sweeps) == len(report.l1_mean) >= 3
        assert any(step.qp.screened.any() for _, step in sweeps)
        for (indices, step), mean, worst in zip(sweeps, report.l1_mean, report.l1_max):
            objective = simplexqp._data_objective(train[:, indices], train, step.qp.weights)
            np.testing.assert_allclose(step.qp.objective, objective, rtol=1e-14,
                                       atol=1e-14 * objective.max())
            rec = online.profile_from_weights(
                train[:, indices], step.qp.weights, st.masses, grid.n_cells, grid.x_min, grid.x_max
            )
            rels = online.relative_l1_error(rec, st.values)
            assert mean == pytest.approx(rels.mean(), rel=1e-14, abs=0)
            assert worst == pytest.approx(rels.max(), rel=1e-14, abs=0)

    def test_summary_reports_the_stage_times(self, mini_run, tmp_path, capsys):
        _, _, store_dir, _ = mini_run
        argv = ["offline", "--store", str(store_dir), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("offline stages:"))
        assert re.fullmatch(r"offline stages: training icdfs [\d.]+ s, greedy QP [\d.]+ s, "
                            r"L1 tracking [\d.]+ s, fit \+ save [\d.]+ s", line), line
        assert cli.build_parser() is cli.build_parser()

    def test_override_applies(self, mini_run, tmp_path):
        _, _, store_dir, _ = mini_run
        out = tmp_path / "m3"
        assert cli.main(["offline", "--store", str(store_dir), "--out", str(out),
                         "--n-max", "3"]) == 0
        assert store.load_model(out).n_atoms == 3
        assert store.load_store(store_dir).config.greedy.n_max == 5

    def test_store_with_a_qp_max_iter_trains_the_same_model(self, mini_run, tmp_path):
        # stores written while the config had a qp.max_iter setting still
        # carry it in their manifest; the key is ignored
        _, _, store_dir, model_dir = mini_run
        copy = tmp_path / "store"
        shutil.copytree(store_dir, copy)
        manifest = json.loads((copy / store.MANIFEST_NAME).read_text())
        assert "max_iter" not in manifest["config"]["qp"]
        manifest["config"]["qp"]["max_iter"] = 3
        (copy / store.MANIFEST_NAME).write_text(json.dumps(manifest))
        out = tmp_path / "m"
        assert cli.main(["offline", "--store", str(copy), "--out", str(out)]) == 0
        for artefact in (store.MODEL_ARRAYS_NAME, store.REPORT_NAME):
            assert (out / artefact).read_bytes() == (model_dir / artefact).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--n-max", "1"), ("--qp-tol", "0"), ("--eps-rel", "1"),
        ("--qp-tol", "nan"), ("--eps-abs", "inf"),
    ])
    def test_invalid_override_exit(self, mini_run, tmp_path, flag, value):
        _, _, store_dir, _ = mini_run
        out = tmp_path / "bad"
        argv = ["offline", "--store", str(store_dir), "--out", str(out), flag, value]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_report_csv_layout(self, mini_run):
        *_, model_dir = mini_run
        header, rows = store.read_csv(model_dir / "greedy_report.csv")
        assert header[:6] == ["n", "delta", "mean_w2", "condition", "volume", "criterion"]
        assert rows[-1][5] == "max_atoms"
        assert all(r[5] == "" for r in rows[:-1])
        assert header[8:] == ["qp_iters_max", "n_unconverged", "kkt_max"]
        report = store.load_report(model_dir)
        assert report.n_unconverged == [0] * len(rows)
        assert max(report.kkt_max) <= 1e-10
        assert min(report.qp_iters_max) >= 0


class TestGreedyReport:
    """greedy_report.csv holds the fields of greedy.GreedyReport, one column
    each under the same name."""

    def make_report(self):
        return greedy.GreedyReport(
            n=[2, 3, 4], delta=[0.5, 0.1 + 0.2, 1e-300], mean_w2=[0.25, 2.0 / 3.0, 5e-324],
            condition=[1.0, 1e16, np.inf], volume=[1.0, 0.0, 1.0 / 3.0],
            l1_mean=[0.5, 0.125, 1.0 / 7.0], l1_max=[1.0, 0.75, 0.2],
            qp_iters_max=[0, 3, 12], n_unconverged=[0, 0, 1], kkt_max=[0.0, 1e-12, 3e-11],
            termination=greedy.TERM_RELATIVE,
        )

    def test_fields_are_the_csv_columns(self):
        names = {f.name for f in dataclasses.fields(greedy.GreedyReport)}
        assert names == set(store.REPORT_COLUMNS) - {"criterion"} | {"termination"}

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        store.save_report(tmp_path / store.REPORT_NAME, report)
        assert store.load_report(tmp_path) == report
        header, rows = store.read_csv(tmp_path / store.REPORT_NAME)
        assert [row[header.index("criterion")] for row in rows] == ["", "", "relative"]

    def test_saved_report_round_trips_byte_identical(self, mini_run, tmp_path):
        *_, model_dir = mini_run
        report = store.load_report(model_dir)
        assert len(report.l1_mean) == len(report.l1_max) == len(report.n) == 4
        store.save_report(tmp_path / store.REPORT_NAME, report)
        saved = (model_dir / store.REPORT_NAME).read_bytes()
        assert (tmp_path / store.REPORT_NAME).read_bytes() == saved
        assert store.load_report(tmp_path) == report

    @pytest.mark.parametrize("column", ["l1_mean", "l1_max", "n", "kkt_max"])
    def test_short_column_raises(self, tmp_path, column):
        report = self.make_report()
        getattr(report, column).pop()
        with pytest.raises(ValueError, match=column):
            store.save_report(tmp_path / store.REPORT_NAME, report)
        assert not (tmp_path / store.REPORT_NAME).exists()

    def test_report_without_iterations_raises(self, tmp_path):
        # its criterion column still holds the termination
        report = greedy.GreedyReport(termination=greedy.TERM_MAX_ATOMS)
        with pytest.raises(ValueError, match=r"n \(0,\).*criterion \(1,\)"):
            store.save_report(tmp_path / store.REPORT_NAME, report)
        assert not (tmp_path / store.REPORT_NAME).exists()

    def test_model_without_l1_columns_writes_nothing(self, mini_run, tmp_path):
        *_, model_dir = mini_run
        model = store.load_model(model_dir)
        report = dataclasses.replace(store.load_report(model_dir), l1_mean=[], l1_max=[])
        with pytest.raises(ValueError, match="l1_mean"):
            store.save_model(tmp_path / "m", model, report)
        assert list((tmp_path / "m").iterdir()) == []

    def test_greedy_fills_all_but_the_l1_columns(self, mini_run):
        _, _, store_dir, _ = mini_run
        st = store.load_store(store_dir)
        grid = st.config.grid
        train = transport.snapshots_to_icdfs(st.values, grid.x_min, grid.x_max)
        _, report, _ = greedy.run(train, n_max=4)
        assert report.n == [2, 3, 4] and report.termination == greedy.TERM_MAX_ATOMS
        for name in set(store.REPORT_COLUMNS) - {"criterion", "l1_mean", "l1_max"}:
            assert len(getattr(report, name)) == 3, name
        assert report.l1_mean == report.l1_max == []


class TestOnline:
    def test_training_node_and_inline_points(self, mini_run):
        root, _, store_dir, model_dir = mini_run
        out = root / "online"
        rc = cli.main(
            [
                "online",
                "--model",
                str(model_dir),
                "--store",
                str(store_dir),
                "--out",
                str(out),
                "--at",
                "t=1.0,mu=1,beta=2",
                "--at",
                "t=1.75,mu=3.3,beta=2.7",
            ]
        )
        assert rc == 0
        data = np.load(out / "reconstructions.npz")
        assert data["profiles"].shape == (2, 102)
        assert np.all(data["profiles"] >= 0.0)
        header, rows = store.read_csv(out / "errors.csv")
        assert header == ["t", "mu", "beta", "rel_l1_error"]
        assert len(rows) == 1  # only the training node has truth
        assert float(rows[0][3]) < 0.2

    def test_out_of_range_exit(self, mini_run):
        root, _, _, model_dir = mini_run
        rc = cli.main(
            [
                "online",
                "--model",
                str(model_dir),
                "--out",
                str(root / "x"),
                "--at",
                "t=99.0,mu=1,beta=2",
            ]
        )
        assert rc == cli.EXIT_COMPUTE

    def test_bad_point_spec(self, mini_run):
        root, _, _, model_dir = mini_run
        rc = cli.main(
            ["online", "--model", str(model_dir), "--out", str(root / "y"), "--at", "mu=1"]
        )
        assert rc == cli.EXIT_CONFIG


    def test_non_numeric_point_value(self, mini_run):
        root, _, _, model_dir = mini_run
        rc = cli.main(
            ["online", "--model", str(model_dir), "--out", str(root / "abc"),
             "--at", "t=abc,mu=3,beta=3"]
        )
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("file_points, at, named", [
        pytest.param([], ["t=1,t=2,mu=3,beta=3"], "sets 't' twice", id="repeated-at"),
        pytest.param([{"t": True, "mu": 3, "beta": 3}], [], "bool", id="bool-in-file"),
        pytest.param([{"t": 1.0, "mu": 3, "beta": 3}, {"t": 2.0, "mu": float("nan"), "beta": 3}],
                     ["t=1,t=2,mu=3,beta=3"], "'mu': nan", id="nan-before-repeated-at"),
        pytest.param([{"t": 1.0, "mu": 3, "beta": 3}, {"t": 2.0, "mu": 3, "beta": False}],
                     ["t=nan,mu=3,beta=3"], "bool", id="bool-before-nan-at"),
    ])
    def test_first_bad_point_exits_2(self, mini_run, tmp_path, capsys, file_points, at, named):
        _, _, _, model_dir = mini_run
        path, out = tmp_path / "points.json", tmp_path / "out"
        path.write_text(json.dumps(file_points))
        argv = ["online", "--model", str(model_dir), "--out", str(out), "--params-file", str(path)]
        for item in at:
            argv += ["--at", item]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_params_file(self, mini_run, tmp_path):
        _, _, _, model_dir = mini_run
        rc = cli.main(
            ["online", "--model", str(model_dir), "--out", str(tmp_path / "out"),
             "--params-file", str(tmp_path / "absent.json")]
        )
        assert rc == cli.EXIT_CONFIG

    def test_non_utf8_params_file(self, mini_run, tmp_path, capsys):
        _, _, _, model_dir = mini_run
        path, out = tmp_path / "points.json", tmp_path / "out"
        path.write_bytes(json.dumps([{"t": 1.0, "mu": 3, "beta": 3}]).encode("utf-16"))
        argv = ["online", "--model", str(model_dir), "--out", str(out), "--params-file", str(path)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot read params file")
        assert not out.exists()

    def test_malformed_params_file(self, mini_run, tmp_path):
        _, _, _, model_dir = mini_run
        for text in ("{not json", "[1, 2]"):
            path = tmp_path / "points.json"
            path.write_text(text)
            rc = cli.main(
                ["online", "--model", str(model_dir), "--out", str(tmp_path / "out"),
                 "--params-file", str(path)]
            )
            assert rc == cli.EXIT_CONFIG

    def test_nan_point_rejected(self, mini_run, tmp_path):
        _, _, _, model_dir = mini_run
        out = tmp_path / "nan"
        rc = cli.main(
            ["online", "--model", str(model_dir), "--out", str(out),
             "--at", "t=nan,mu=3,beta=3"]
        )
        assert rc == cli.EXIT_CONFIG
        assert not (out / "reconstructions.npz").exists()


    def test_batch_equals_points_one_at_a_time(self, mini_run, tmp_path):
        _, _, store_dir, model_dir = mini_run
        rng = np.random.default_rng(3)
        points = [{"t": float(rng.uniform(1.0, 4.0)), "mu": float(rng.uniform(1, 6)),
                   "beta": float(rng.uniform(2, 4))} for _ in range(6)]
        points.append({"t": 2.5, "mu": 6, "beta": 2})  # a training node
        path = tmp_path / "points.json"
        path.write_text(json.dumps(points))
        base = ["online", "--model", str(model_dir), "--store", str(store_dir)]
        assert cli.main(base + ["--out", str(tmp_path / "batch"), "--params-file", str(path)]) == 0
        batch = np.load(tmp_path / "batch" / "reconstructions.npz")
        assert batch["profiles"].shape == (7, 102)
        for q, point in enumerate(points):
            spec = ",".join(f"{name}={value!r}" for name, value in point.items())
            out = tmp_path / f"one{q}"
            assert cli.main(base + ["--out", str(out), "--at", spec]) == 0
            one = np.load(out / "reconstructions.npz")
            np.testing.assert_array_equal(one["params"][0], batch["params"][q])
            np.testing.assert_allclose(one["profiles"][0], batch["profiles"][q], rtol=0, atol=1e-12)
        _, rows = store.read_csv(tmp_path / "batch" / "errors.csv")
        assert [row[:3] for row in rows] == [["2.5", "6.0", "2.0"]]

    def test_points_off_every_node_give_a_header_only_errors_file(self, mini_run, tmp_path):
        _, _, store_dir, model_dir = mini_run
        path = tmp_path / "points.json"
        points = [{"t": 1.5, "mu": 2, "beta": 3}, {"t": 2.5, "mu": 6, "beta": 3}]
        path.write_text(json.dumps(points))
        out = tmp_path / "out"
        assert cli.main(["online", "--model", str(model_dir), "--store", str(store_dir),
                         "--out", str(out), "--params-file", str(path)]) == 0
        assert (out / "errors.csv").read_text() == "t,mu,beta,rel_l1_error\n"
        assert np.load(out / "reconstructions.npz")["profiles"].shape == (2, 102)


    def test_rerun_without_store_removes_the_errors_file(self, mini_run, tmp_path):
        _, _, store_dir, model_dir = mini_run
        out = tmp_path / "out"
        base = ["online", "--model", str(model_dir), "--out", str(out)]
        assert cli.main(base + ["--store", str(store_dir), "--at", "t=1.0,mu=1,beta=2"]) == 0
        assert (out / "errors.csv").exists()
        assert cli.main(base + ["--at", "t=1.75,mu=3.3,beta=2.7"]) == 0
        assert not (out / "errors.csv").exists()
        assert np.load(out / "reconstructions.npz")["params"].tolist() == [[1.75, 3.3, 2.7]]

class TestTablesAndDiag:
    def test_pod_and_tables(self, mini_run):
        root, _, store_dir, model_dir = mini_run
        pod_dir, tab_dir = root / "pod", root / "tables"
        assert cli.main(
            ["pod", "--store", str(store_dir), "--out", str(pod_dir), "--eps", "0.5,0.1"]
        ) == 0
        header, rows = store.read_csv(pod_dir / "pod_table.csv")
        assert header == ["epsilon", "n_pod"]
        assert cli.main(
            [
                "tables",
                "--store",
                str(store_dir),
                "--model",
                str(model_dir),
                "--out",
                str(tab_dir),
                "--eps",
                "0.5,0.1",
            ]
        ) == 0
        header, rows = store.read_csv(tab_dir / "tables.csv")
        assert header == ["epsilon", "n_gbar", "n_pod"]
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "command, eps", [("pod", "nan"), ("tables", "inf"), ("pod", "0.1,-inf"), ("pod", "")]
    )
    def test_non_finite_eps_rejected(self, mini_run, tmp_path, command, eps):
        _, _, store_dir, model_dir = mini_run
        out = tmp_path / "eps"
        argv = [command, "--store", str(store_dir), "--out", str(out), "--eps", eps]
        if command == "tables":
            argv += ["--model", str(model_dir)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_trivial_tolerance_needs_minimal_sizes(self, mini_run, tmp_path):
        root, _, store_dir, model_dir = mini_run
        out = tmp_path / "triv"
        assert cli.main(
            [
                "tables",
                "--store",
                str(store_dir),
                "--model",
                str(model_dir),
                "--out",
                str(out),
                "--eps",
                "1.0",
            ]
        ) == 0
        _, rows = store.read_csv(out / "tables.csv")
        assert rows[0][1] == "2"  # smallest possible dictionary
        # one or two modes: tiny-mass snapshots can exceed 100% relative
        # error under a single uncentered mode
        assert int(rows[0][2]) <= 2

    def test_byte_identical_csv_reruns(self, mini_run, tmp_path):
        root, _, store_dir, model_dir = mini_run
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            argv = ["tables", "--store", str(store_dir), "--model", str(model_dir),
                    "--out", str(out)]
            assert cli.main(argv) == 0
        assert (out1 / "tables.csv").read_bytes() == (out2 / "tables.csv").read_bytes()

    def test_landscape_csv(self, mini_run):
        root, _, store_dir, model_dir = mini_run
        out = root / "land"
        rc = cli.main(
            [
                "landscape",
                "--model",
                str(model_dir),
                "--store",
                str(store_dir),
                "--out",
                str(out),
                "--n",
                "3",
                "--target-index",
                "5",
                "--resolution",
                "31",
            ]
        )
        assert rc == 0
        header, rows = store.read_csv(out / "landscape.csv")
        assert header == ["x", "y", "lam_1", "lam_2", "lam_3", "log10_w2"]
        lam = np.array([[float(c) for c in r[2:5]] for r in rows])
        np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-9)

    def test_landscape_bad_index(self, mini_run):
        root, _, store_dir, model_dir = mini_run
        rc = cli.main(
            [
                "landscape",
                "--model",
                str(model_dir),
                "--store",
                str(store_dir),
                "--out",
                str(root / "z"),
                "--target-index",
                "9999",
            ]
        )
        assert rc == cli.EXIT_CONFIG

    def test_landscape_resolution_too_small(self, mini_run, tmp_path):
        _, _, store_dir, model_dir = mini_run
        out = tmp_path / "res"
        rc = cli.main(
            ["landscape", "--model", str(model_dir), "--store", str(store_dir),
             "--out", str(out), "--target-index", "0", "--resolution", "1"]
        )
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()


class TestOutputPath:
    """An --out that names a file, or a path below one, is a usage error
    (exit 2) for every writing subcommand, not a traceback."""

    @staticmethod
    def argv(command, mini_run, out):
        _, cfg_path, store_dir, model_dir = mini_run
        tail = {
            "generate": ["--config", str(cfg_path)],
            "offline": ["--store", str(store_dir), "--n-max", "2"],
            "online": ["--model", str(model_dir), "--at", "t=1,mu=1,beta=2"],
            "pod": ["--store", str(store_dir)],
            "tables": ["--store", str(store_dir), "--model", str(model_dir)],
            "landscape": ["--model", str(model_dir), "--store", str(store_dir),
                          "--target-index", "0", "--resolution", "5"],
        }[command]
        return [command, "--out", str(out), *tail]

    @pytest.mark.parametrize(
        "command", ["generate", "offline", "online", "pod", "tables", "landscape"]
    )
    def test_out_is_a_file(self, mini_run, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        for out in (afile, afile / "sub"):
            assert cli.main(self.argv(command, mini_run, out)) == cli.EXIT_CONFIG
            assert "cannot create output directory" in capsys.readouterr().err
        assert afile.read_text() == "keep\n"

    def test_offline_checks_out_before_training(self, mini_run, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("greedy.run called with an unusable --out")

        monkeypatch.setattr(cli.greedy, "run", never)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        for out in (afile, afile / "sub"):
            assert cli.main(self.argv("offline", mini_run, out)) == cli.EXIT_CONFIG
            assert "cannot create output directory" in capsys.readouterr().err

    def test_artifacts_leave_no_temporary_files(self, mini_run, tmp_path):
        for command, names in [
            ("pod", ["basis.npz", "pod_errors.csv", "pod_table.csv"]),
            ("online", ["reconstructions.npz"]),
            ("offline", ["greedy_report.csv", "model.json", "model.npz"]),
            ("generate", ["manifest.json", "snapshots.npz"]),
        ]:
            out = tmp_path / command
            assert cli.main(self.argv(command, mini_run, out)) == cli.EXIT_OK
            assert sorted(p.name for p in out.iterdir()) == names


class TestZeroStore:
    """A store with no nonzero saturation trains only identical uniform
    atoms and has no POD: `offline`, `pod` and `tables` exit 3 naming the
    store, before any output, not with a traceback."""

    @pytest.fixture(scope="class")
    def zero_store(self, tmp_path_factory):
        cfg = mini_config()
        cfg["boundary"]["s_inflow"] = 0.0
        root = tmp_path_factory.mktemp("zero")
        (root / "cfg.json").write_text(json.dumps(cfg))
        store_dir = root / "store"
        assert cli.main(["generate", "--config", str(root / "cfg.json"),
                         "--out", str(store_dir)]) == 0
        assert not store.load_store(store_dir).values.any()
        return store_dir

    @pytest.mark.parametrize("command", ["offline", "pod", "tables"])
    def test_exit_3_naming_the_store(self, zero_store, mini_run, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--store", str(zero_store), "--out", str(out)]
        if command == "tables":
            # the mini model has the zero store's grid and sweep
            argv += ["--model", str(mini_run[3])]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_STORE
        stage = "offline" if command == "offline" else "POD"
        assert capsys.readouterr().err == (
            f"store error: {stage} needs a nonzero saturation; "
            f"every snapshot in {zero_store} is zero\n"
        )
        assert not out.exists()


SRC = Path(cli.__file__).resolve().parent.parent


def scipy_loaded_after(commands) -> bool:
    """Whether scipy is loaded in a fresh interpreter that imports
    baryrom.cli and runs each argv of `commands` through `cli.main`. The
    test process itself has scipy loaded, so only a new one can tell."""
    script = (
        "import json, sys\n"
        "from baryrom import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


class TestScipyLoading:
    """Only the POD commands load scipy; the package, the CLI and every
    other command run without it."""

    def test_importing_the_cli_loads_no_scipy(self):
        assert not scipy_loaded_after([])

    def test_non_pod_commands_load_no_scipy(self, tmp_path):
        cfg_path, store_dir, model_dir = tmp_path / "mini.json", tmp_path / "s", tmp_path / "m"
        cfg_path.write_text(json.dumps(mini_config()))
        commands = [
            ["generate", "--config", str(cfg_path), "--out", str(store_dir)],
            ["offline", "--store", str(store_dir), "--out", str(model_dir)],
            ["online", "--model", str(model_dir), "--out", str(tmp_path / "on"),
             "--at", "t=2.0,mu=3,beta=3"],
            ["landscape", "--model", str(model_dir), "--store", str(store_dir),
             "--out", str(tmp_path / "land"), "--target-index", "5", "--resolution", "11"],
        ]
        assert not scipy_loaded_after(commands)
        assert (tmp_path / "land" / "landscape.csv").exists()

    @pytest.mark.parametrize("command", ["pod", "tables"])
    def test_pod_commands_load_scipy(self, mini_run, tmp_path, command):
        _, _, store_dir, model_dir = mini_run
        argv = [command, "--store", str(store_dir), "--out", str(tmp_path / "out")]
        if command == "tables":
            argv += ["--model", str(model_dir)]
        assert scipy_loaded_after([argv])
