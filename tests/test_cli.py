import json
import shutil

import numpy as np
import pytest

from baryrom import cli, config, online, store


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
        "qp": {"tol": 1e-10, "max_iter": 20000},
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
        ("qp", {"tol": "x"}, ["--qp-max-iter", "10"]),
        ("greedy", {"n_max": 2.7}, ["--eps-rel", "0"]),
        ("qp", {"max_iter": 2.5}, ["--qp-tol", "1e-9"]),
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
        # an override of another key of the same block
        _, _, store_dir, _ = mini_run
        copied = tmp_path / "store"
        shutil.copytree(store_dir, copied)
        manifest = json.loads((copied / "manifest.json").read_text())
        manifest["config"][block] = value
        (copied / "manifest.json").write_text(json.dumps(manifest))
        for extra in ([], override):
            argv = ["offline", "--store", str(copied), "--out", str(tmp_path / "m"), *extra]
            assert cli.main(argv) == cli.EXIT_CONFIG

    def test_unknown_config_exit_code(self, capsys):
        assert cli.main(["generate", "--config", "nope.json", "--out", "x"]) == cli.EXIT_CONFIG


class TestGenerate:
    def test_store_contents(self, mini_run):
        _, _, store_dir, _ = mini_run
        st = store.load_store(store_dir)
        assert st.count == 2 * 2 * 3
        assert st.axis_names == ("t", "mu", "beta")
        assert st.values.shape == (12, 102)
        np.testing.assert_allclose(
            st.masses, st.values.sum(axis=1) / 102, rtol=1e-12
        )
        # one run record per simulation: steps taken, CFL bound, mass balance
        assert st.steps.shape == (4,) and np.all(st.steps > 0)
        assert np.all((st.min_dt_s > 0) & np.isfinite(st.min_dt_s))
        assert np.all(st.mass_residual < 1e-12)

    def test_deterministic_rerun(self, mini_run, tmp_path):
        _, cfg_path, store_dir, _ = mini_run
        again = tmp_path / "store2"
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(again)]) == 0
        a = store.load_store(store_dir)
        b = store.load_store(again)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.params, b.params)

    def test_resume_skips_existing(self, mini_run, capsys):
        _, cfg_path, store_dir, _ = mini_run
        # the consolidated store has no chunks left; the manifest matches, so
        # a rerun regenerates cleanly without --force
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(store_dir)]) == 0

    def test_partial_store_resumes_from_chunks(self, mini_run, tmp_path):
        # pre-seed one chunk with sentinel data: a resumed run must skip the
        # simulated combo and keep the seeded rows verbatim
        _, cfg_path, _, _ = mini_run
        raw = json.loads(cfg_path.read_text())
        target = tmp_path / "resume"
        cfg = config.parse_config(raw)
        manifest = store.store_manifest(
            raw, cfg.axis_names, len(cfg.combos()), len(cfg.snapshot_times_yr)
        )
        store.init_store_dir(target, manifest)
        n_t = len(cfg.snapshot_times_yr)
        fake_params = np.full((n_t, 3), 7.25)
        fake_values = np.full((n_t, cfg.grid.n_cells), 0.125)
        fake_masses = np.full(n_t, 0.125)
        store.write_chunk(target, 0, fake_params, fake_values, fake_masses,
                          steps=7, min_dt_s=0.5, mass_residual=0.25)
        assert cli.main(["generate", "--config", str(cfg_path), "--out", str(target)]) == 0
        st = store.load_store(target)
        np.testing.assert_array_equal(st.values[:n_t], fake_values)
        assert (st.steps[0], st.min_dt_s[0], st.mass_residual[0]) == (7, 0.5, 0.25)
        assert st.count == len(cfg.combos()) * n_t

    def test_mismatching_store_rejected(self, mini_run, capsys):
        _, _, store_dir, _ = mini_run
        other = mini_config(times=(0.5,))
        cfg2 = store_dir.parent / "other.json"
        cfg2.write_text(json.dumps(other))
        assert (
            cli.main(["generate", "--config", str(cfg2), "--out", str(store_dir)])
            == cli.EXIT_STORE
        )


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

    def test_cli_exit_code(self, copy, tmp_path):
        self._edit_manifest(copy, schema_version=0)
        argv = ["offline", "--store", str(copy), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == cli.EXIT_STORE



class TestModelValidation:
    """load_model and load_model_report refuse every malformed model
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
        assert len(store.load_model_report(copy)[0].sizes) == 4

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

    @pytest.mark.parametrize("name", ["weight_table", "mass_table", "atoms"])
    def test_array_shape_mismatch(self, copy, name):
        path = copy / store.MODEL_ARRAYS_NAME
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays[name] = arrays[name][..., :-1]
        np.savez(path, **arrays)
        with pytest.raises(store.StoreError, match=name):
            store.load_model(copy)

    def test_missing_report(self, copy):
        (copy / store.REPORT_NAME).unlink()
        with pytest.raises(store.StoreError, match="greedy_report.csv"):
            store.load_model_report(copy)

    def test_short_report_row(self, copy):
        self._edit_report(copy, lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]])
        with pytest.raises(store.StoreError, match="11 cells"):
            store.load_model_report(copy)

    def test_non_numeric_report_cell(self, copy):
        self._edit_report(copy, lambda lines: lines[:1] + ["x" + lines[1]] + lines[2:])
        with pytest.raises(store.StoreError, match="'x2'"):
            store.load_model_report(copy)

    def test_header_only_report(self, copy):
        self._edit_report(copy, lambda lines: lines[:1])
        with pytest.raises(store.StoreError, match="no iterations"):
            store.load_model_report(copy)

    def test_cli_exit_codes(self, copy, tmp_path):
        self._edit_report(copy, lambda lines: lines[:1])
        assert cli.main(["diag", "--model", str(copy), "--out", str(tmp_path / "d")]) == 3
        (copy / store.MODEL_ARRAYS_NAME).unlink()
        argv = ["online", "--model", str(copy), "--out", str(tmp_path / "o"),
                "--at", "t=1,mu=1,beta=2"]
        assert cli.main(argv) == cli.EXIT_STORE


class TestOffline:
    def test_model_round_trip(self, mini_run):
        *_, model_dir = mini_run
        model = store.load_model(model_dir)
        again = store.load_model(model_dir)
        np.testing.assert_array_equal(model.weight_table, again.weight_table)
        assert model.axis_names == ("t", "mu", "beta")
        report, l1_mean, l1_max = store.load_model_report(model_dir)
        assert report.termination in ("absolute", "relative", "max_atoms", "exhausted")
        assert len(l1_mean) == len(report.sizes)
        assert not (model_dir / "dictionary.npz").exists()

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
        report, _, _ = store.load_model_report(model_dir)
        assert len(report.delta) >= 1

    def test_override_applies(self, mini_run, tmp_path):
        _, _, store_dir, _ = mini_run
        out = tmp_path / "m3"
        assert cli.main(["offline", "--store", str(store_dir), "--out", str(out),
                         "--n-max", "3"]) == 0
        assert store.load_model(out).n_atoms == 3
        assert store.load_store(store_dir).config["greedy"]["n_max"] == 5

    @pytest.mark.parametrize("flag, value", [
        ("--n-max", "1"), ("--qp-tol", "0"), ("--eps-rel", "1"), ("--qp-max-iter", "0"),
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
        report, _, _ = store.load_model_report(model_dir)
        assert report.n_unconverged == [0] * len(rows)
        assert max(report.kkt_max) <= 1e-10
        assert min(report.qp_iters_max) >= 0


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

    def test_missing_params_file(self, mini_run, tmp_path):
        _, _, _, model_dir = mini_run
        rc = cli.main(
            ["online", "--model", str(model_dir), "--out", str(tmp_path / "out"),
             "--params-file", str(tmp_path / "absent.json")]
        )
        assert rc == cli.EXIT_CONFIG

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
        "command, eps", [("pod", "nan"), ("tables", "inf"), ("pod", "0.1,-inf")]
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
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert cli.main(["diag", "--model", str(model_dir), "--out", str(out)]) == 0
        assert (out1 / "condition.csv").read_bytes() == (out2 / "condition.csv").read_bytes()
        assert (out1 / "volume.csv").read_bytes() == (out2 / "volume.csv").read_bytes()

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
            "diag": ["--model", str(model_dir)],
            "landscape": ["--model", str(model_dir), "--store", str(store_dir),
                          "--target-index", "0", "--resolution", "5"],
        }[command]
        return [command, "--out", str(out), *tail]

    @pytest.mark.parametrize(
        "command", ["generate", "offline", "online", "pod", "tables", "diag", "landscape"]
    )
    def test_out_is_a_file(self, mini_run, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        for out in (afile, afile / "sub"):
            assert cli.main(self.argv(command, mini_run, out)) == cli.EXIT_CONFIG
            assert "cannot create output directory" in capsys.readouterr().err
        assert afile.read_text() == "keep\n"

    def test_artifacts_leave_no_temporary_files(self, mini_run, tmp_path):
        for command, names in [
            ("pod", ["basis.npz", "pod_errors.csv", "pod_table.csv"]),
            ("online", ["reconstructions.npz"]),
            ("offline", ["greedy_report.csv", "model.json", "model.npz"]),
        ]:
            out = tmp_path / command
            assert cli.main(self.argv(command, mini_run, out)) == cli.EXIT_OK
            assert sorted(p.name for p in out.iterdir()) == names
