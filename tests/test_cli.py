"""Tests for the command-line front end and its file artifacts."""

import json
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import small_ofdm
from xlic.cli import RESULT_FIELDS, _warn_if_diverged, main
from xlic.config import RunConfig, ScenarioSettings, load_config, save_config
from xlic.harness import CancellerResult
import dataclasses


def small_config(tmp_path, **scenario_overrides) -> str:
    scenario = dict(
        n_rx=2,
        n_tx=2,
        n_paths=3,
        n_samples=2500,
        ofdm=dataclasses.asdict(small_ofdm()),
    )
    scenario.update(scenario_overrides)
    cfg = {
        "schema_version": 1,
        "seed": 77,
        "scenario": scenario,
        "canceller": {"order": 3, "nnc_hidden": 12, "hc_hidden": 8},
        "training": {"batch_size": 32, "learning_rate": 1e-3, "epochs": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


PAIRS = "expected lists of [re, im] pairs"


def run_cli(*argv) -> int:
    return main(list(argv))


def _set(section, field, value):
    """Config edit that sets ``cfg[section][field]`` (``cfg[field]`` for no section)."""

    def edit(cfg):
        (cfg[section] if section else cfg)[field] = value
        return cfg

    return edit


class TestConfig:
    def test_round_trip_unchanged(self, tmp_path):
        cfg = RunConfig(seed=5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_match_reference_setup(self):
        sc = ScenarioSettings()
        assert (sc.n_rx, sc.n_tx) == (4, 4)
        assert sc.n_paths == 7
        assert sc.n_samples == 50000
        assert sc.tx_power_dbm == 47.0
        assert sc.target_rx_power_dbm == -52.1
        assert sc.awgn_power_dbm == -90.0
        assert sc.adc_bits == 12
        assert (sc.ofdm.fft_size, sc.ofdm.occupied_subcarriers) == (1024, 111)
        cfg = RunConfig()
        assert cfg.canceller.order == 3
        assert cfg.training.batch_size == 32
        assert cfg.training.learning_rate == 2e-4

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("scenario", "n_rxx", 4),
            # fields of older configs, removed with the branches they selected
            ("scenario", "pa_taps_at_unit_power", True),
            ("scenario", "adc_headroom", 1.2),
            ("scenario", "target_rx_power_total", False),
            ("scenario", "pathloss_distance_m", 1.0),
            ("scenario", "pathloss_exponent", 0.0),
            ("training", "seed", None),
            ("training", "beta1", 0.9),
            ("training", "beta2", 0.999),
            ("training", "epsilon", 1e-8),
            ("scenario.ofdm", "qam_order", 16),
            ("scenario.ofdm", "sample_rate_hz", 120e6),
            ("scenario.ofdm", "bandwidth_hz", 13e6),
        ],
    )
    def test_unknown_field_named_in_error(self, tmp_path, capsys, section, name, value):
        path = small_config(tmp_path)
        with open(path) as fh:
            cfg = json.load(fh)
        where = cfg
        for key in section.split("."):
            where = where[key]
        where[name] = value
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, ds = tmp_path / "out", str(tmp_path / "ds.bin")
        for argv in (
            ["generate"],
            ["run", "--dataset", ds, "--canceller", "tc"],
            ["sweep", "--dataset", ds, "--axis", "P", "--values", "1"],
        ):
            assert run_cli(*argv, "--config", path, "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err == f"error: ConfigError: {section}: unknown field '{name}'\n"
            assert not out.exists()

    def test_readme_config_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Run config\n", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert RunConfig.from_dict(json.loads(block)).to_dict() == RunConfig().to_dict()


class TestGenerate:
    def test_generate_writes_dataset(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", cfg, "--out", str(out)) == 0
        assert out.exists()
        assert "samples=2500" in capsys.readouterr().out

    def test_malformed_config_exits_nonzero_with_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"n_samples": "many"}}))
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", str(path), "--out", str(out)) != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # single-line diagnostic

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("scenario", "n_samples", 4000.5),
            ("scenario", "n_rx", True),
            ("scenario", "tx_power_dbm", float("nan")),
            ("canceller", "order", 4),
            ("scenario", "n_tx", 0),
            ("scenario", "n_rx", 0),
            ("scenario", "train_fraction", 1.5),
            ("scenario", "train_fraction", 0.0001),
            ("scenario", "n_samples", 100),  # with the depth-5 line, short of one symbol
            ("scenario", "ofdm", {"cp_len": 2000}),
            ("scenario", "n_paths", 0),
            ("scenario", "ofdm", {"occupied_subcarriers": 2000}),
            ("canceller", "hc_hidden", 0),
            ("training", "batch_size", 0),
            ("training", "learning_rate", -1e-3),
            ("training", "epochs", 0),
            ("scenario", "ofdm", {"fft_size": 0}),
            ("scenario", "noise_enabled", 1),
            # once checked only by the models at generate, without the field's name
            ("scenario", "adc_bits", 0),
            ("scenario", "adc_full_scale", -1.0),
            # split 2 on 2500 samples leaves no training row once the depth-5 line is full
            ("scenario", "train_fraction", 0.001),
            # no more samples than the depth-5 delay line holds
            ("scenario", "n_samples", 5),
            ("scenario", "pa", {"taps": [[[1.0, 0.0]]]}),
            ("scenario", "pa", {"order": 2}),
        ],
    )
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, section, field, value):
        path = small_config(tmp_path)
        with open(path) as fh:
            cfg = json.load(fh)
        cfg[section][field] = value
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {section}.{field}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_partition_rejected_at_load_by_every_command(self, tmp_path, capsys):
        ds, results = tmp_path / "ds.bin", str(tmp_path / "results.csv")
        assert run_cli("generate", "--config", small_config(tmp_path), "--out", str(ds)) == 0
        bad = small_config(tmp_path, train_fraction=0.001)
        for argv in (
            ["run", "--canceller", "tc"],
            ["sweep", "--axis", "P", "--values", "1", "--no-train"],
        ):
            capsys.readouterr()
            assert run_cli(*argv, "--config", bad, "--dataset", str(ds), "--out", results) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ConfigError: scenario.train_fraction: ")
            assert not os.path.exists(results)

    def test_iq_list_length_rejected_at_load_by_run(self, tmp_path, capsys):
        ds, results = tmp_path / "ds.bin", str(tmp_path / "results.csv")
        assert run_cli("generate", "--config", small_config(tmp_path), "--out", str(ds)) == 0
        bad = small_config(tmp_path, iq=[{}, {}, {}])
        argv = ["run", "--canceller", "tc", "--config", bad, "--dataset", str(ds)]
        assert run_cli(*argv, "--out", results) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: ConfigError: scenario.iq: expected one object or a list of 2 entries, "
            "got a list of 3\n"
        )
        assert not os.path.exists(results)

    @pytest.mark.parametrize(
        "pa, where",
        [
            ({"taps": [[1, 2, 3]]}, "scenario.pa.taps: " + PAIRS),
            ({"taps": [[["a", 0]]]}, "scenario.pa.taps: " + PAIRS),
            ({"taps": [None]}, "scenario.pa.taps: " + PAIRS),
            ({"taps": [[[1, 0, 5]]]}, "scenario.pa.taps: " + PAIRS),
            ({"taps": [[[1, float("inf")]]]}, "scenario.pa.taps: " + PAIRS),
            ([{}, {"taps": [[[True, 0]]]}], "scenario.pa[1].taps: " + PAIRS),
            ([{}, {"taps": [[[1.0, 0.0]]]}], "scenario.pa[1]: PA taps shape (1, 1)"),
            ([{"order": 2}, {}], "scenario.pa[0]: PA order must be odd"),
        ],
        ids=[
            "flat_branch",
            "string",
            "null_branch",
            "triple",
            "inf",
            "per_antenna_bool",
            "per_antenna_shape",
            "per_antenna_order",
        ],
    )
    def test_malformed_pa_taps_rejected_at_load(self, tmp_path, capsys, pa, where):
        out = tmp_path / "ds.bin"
        cfg = small_config(tmp_path, pa=pa)
        assert run_cli("generate", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: {where}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario",
        [
            {"adc_bits": 1024},
            {"tx_power_dbm": 5000},
            {"awgn_power_dbm": 5000},
            {"tx_power_dbm": 3000},
            {"iq": {"gain": 1e300}},
            {"pa": {"order": 1, "memory": 0, "taps": [[[1e300, 0.0]]]}},
            {"adc_full_scale": 1e-320},
            {"adc_full_scale": 1e308},
            {"target_rx_power_dbm": 7000},
            {"target_rx_power_dbm": -7000},
        ],
        ids=[
            "adc_bits",
            "tx_power",
            "awgn_power",
            "tx_power_warns",
            "iq_gain",
            "pa_tap",
            "tiny_full_scale",
            "huge_full_scale",
            "target_power",
            "target_power_underflow",
        ],
    )
    def test_out_of_range_value_ends_in_one_error_line(self, tmp_path, capsys, scenario):
        # values of the right type whose size makes a generation step overflow
        out = tmp_path / "ds.bin"
        cfg = small_config(tmp_path, **scenario)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("generate", "--config", cfg, "--out", str(out)) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_capture_too_large_for_memory_is_one_line(self, tmp_path, capsys):
        # 56.8 PiB of tx samples: more than any address space, so nothing is mapped
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"scenario": {"n_samples": 10**15}}))
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_silent_capture_has_no_adc_full_scale(self, tmp_path, capsys):
        # a zero PA, no calibration and no noise: the derived full scale is 0
        out = tmp_path / "ds.bin"
        cfg = small_config(
            tmp_path,
            target_rx_power_dbm=None,
            noise_enabled=False,
            pa={"order": 1, "memory": 0, "taps": [[[0, 0]]]},
        )
        assert run_cli("generate", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: ValueError: ADC full_scale must be > 0, got 0.0\n"
        assert not out.exists()

    def test_per_antenna_impairment_lists(self, tmp_path):
        iq = [{"gain": 1.02, "phase_rad": 0.01}, {"gain": 0.97, "phase_rad": -0.03}]
        pa = [{}, {"order": 1, "memory": 0, "taps": [[[1.0, 0.0]]]}]
        out = tmp_path / "ds.bin"
        cfg = small_config(tmp_path, iq=iq, pa=pa)
        assert run_cli("generate", "--config", cfg, "--out", str(out)) == 0
        from xlic.scenario import load_dataset

        meta = load_dataset(out).meta["scenario"]
        assert meta["iq"] == iq
        assert meta["pa"][1]["taps"] == [[[1.0, 0.0]]]

    @pytest.mark.parametrize(
        "edit, where",
        [
            (_set("scenario", "iq", [{}, {"gain": "x"}]),
             "scenario.iq[1].gain: expected a finite number, got 'x'"),
            (_set("scenario", "iq", [{}, {}, {}]),
             "scenario.iq: expected one object or a list of 2 entries, got a list of 3"),
            (_set("scenario", "pa", [{}]),
             "scenario.pa: expected one object or a list of 2 entries, got a list of 1"),
            (_set("scenario", "pa", {"taps": [[[1, 0]], [[1, 0], [2, 0]]]}),
             "scenario.pa: PA taps rows of [1, 2] taps, expected shape (2, 3)\n"),
            (_set(None, "schema_version", 2), "schema_version: 2 not supported (expected 1)"),
            (_set(None, "schema_version", True),
             "schema_version: True not supported (expected 1)"),
            (_set(None, "schema_version", 1.0),
             "schema_version: 1.0 not supported (expected 1)"),
            (lambda cfg: [cfg], "config root: expected a JSON object"),
            (_set(None, "seed", 1.5), "seed: expected an integer, got 1.5"),
            (_set(None, "training", [{}]), "training: expected an object, got list"),
            (_set("scenario", "ofdm", [{}]), "scenario.ofdm: expected an object, got list"),
            (_set("scenario", "iq", []), "scenario.iq: expected an object, got list"),
            (lambda cfg: "{", "config file {path}: invalid JSON ("),
        ],
        ids=[
            "per_antenna_entry",
            "list_length",
            "one_entry_list",
            "ragged_taps",
            "schema_version",
            "schema_version_bool",
            "schema_version_float",
            "root",
            "seed",
            "section_list",
            "ofdm_list",
            "empty_iq_list",
            "json",
        ],
    )
    def test_config_error_is_one_line(self, tmp_path, capsys, edit, where):
        path = small_config(tmp_path)
        with open(path) as fh:
            edited = edit(json.load(fh))
        with open(path, "w") as fh:
            fh.write(edited if isinstance(edited, str) else json.dumps(edited))
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: " + where.replace("{path}", path))
        assert err.count("\n") == 1
        assert not out.exists()

    def test_seed_override_changes_bytes_same_shape(self, tmp_path):
        from xlic.scenario import load_dataset

        cfg = small_config(tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run_cli("generate", "--config", cfg, "--out", str(a))
        run_cli("generate", "--config", cfg, "--seed", "78", "--out", str(b))
        ds_a, ds_b = load_dataset(a), load_dataset(b)
        assert ds_a.tx.shape == ds_b.tx.shape
        assert ds_a.rx.shape == ds_b.rx.shape
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_rejected_at_load_by_every_command(self, tmp_path, capsys):
        ds, out = str(tmp_path / "ds.bin"), tmp_path / "out"
        cfg = small_config(tmp_path)
        assert run_cli("generate", "--config", cfg, "--out", ds) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "seed": -1}))
        for argv in (
            ["generate"],
            ["run", "--dataset", ds, "--canceller", "tc"],
            ["sweep", "--dataset", ds, "--axis", "P", "--values", "1", "--no-train"],
        ):
            for config in (["--config", str(bad)], ["--config", cfg, "--seed", "-1"]):
                capsys.readouterr()
                assert run_cli(*argv, *config, "--out", str(out)) == 2
                assert capsys.readouterr().err == "error: ConfigError: seed: must be >= 0\n"
                assert not out.exists()

    def test_overwrite_refused_without_force(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", cfg, "--out", str(out)) == 0
        assert run_cli("generate", "--config", cfg, "--out", str(out)) != 0
        assert "--force" in capsys.readouterr().err
        assert run_cli("generate", "--config", cfg, "--out", str(out), "--force") == 0

    def test_missing_config_reported(self, tmp_path, capsys):
        assert run_cli("generate", "--config", str(tmp_path / "nope.json")) != 0
        assert "error: config" in capsys.readouterr().err


@pytest.fixture
def pipeline(tmp_path):
    cfg = small_config(tmp_path)
    ds = tmp_path / "ds.bin"
    run_cli("generate", "--config", cfg, "--out", str(ds))
    return cfg, str(ds), tmp_path


class TestRun:
    def test_tc_appends_row_and_saves_coefficients(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        results = tmp / "results.csv"
        assert (
            run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "tc",
                    "--out", str(results)) == 0
        )
        lines = results.read_text().splitlines()
        assert lines[0].startswith("canceller,seed,")
        assert lines[1].startswith("tc,77,")
        assert (tmp / "tc_coeffs.bin").exists()

    def test_nnc_writes_epoch_history_and_model(self, pipeline):
        cfg, ds, tmp = pipeline
        results = tmp / "results.csv"
        assert (
            run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "nnc",
                    "--out", str(results)) == 0
        )
        epochs = tmp / "results_epochs.csv"
        assert epochs.exists()
        assert len(epochs.read_text().splitlines()) == 1 + 2  # header + 2 epochs
        assert (tmp / "nnc_model.bin").exists()

    def test_two_runs_append_to_same_csv(self, pipeline):
        cfg, ds, tmp = pipeline
        results = tmp / "results.csv"
        run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "tc",
                "--out", str(results))
        run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "pc",
                "--out", str(results))
        rows = results.read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("tc,") and rows[2].startswith("pc,")

    def test_concurrent_appends_keep_every_row(self, tmp_path):
        # two processes append 50 rows each to one CSV; none may be lost
        import xlic

        results = tmp_path / "results.csv"
        script = (
            "import sys\n"
            "from xlic.cli import RESULT_FIELDS, _append_csv\n"
            "for i in range(50):\n"
            "    row = dict.fromkeys(RESULT_FIELDS, '')\n"
            "    row.update(canceller=sys.argv[2], seed=str(i))\n"
            "    _append_csv(sys.argv[1], RESULT_FIELDS, [row])\n"
        )
        src = os.path.dirname(os.path.dirname(xlic.__file__))
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": pythonpath}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(results), name],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in ("a", "b")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        rows = results.read_text().splitlines()[1:]
        assert sorted(r.split(",")[:2] for r in rows) == sorted(
            [name, str(i)] for name in ("a", "b") for i in range(50)
        )
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    def test_unknown_canceller_usage_error(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        assert run_cli("run", "--config", cfg, "--dataset", ds,
                       "--canceller", "xyz") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: argument --canceller: invalid choice: 'xyz'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda h, a: h.pop("input_scale"), "error: dataset: {ds}: dataset has no 'input_"),
            (lambda h, a: a.pop("rx"), "error: dataset: {ds}: dataset has no 'rx'"),
            (lambda h, a: h.update(split_index=5.5), "error: ValueError: split_index must be"),
            (lambda h, a: h.update(label_scale="big"), "error: ValueError: label_scale must be"),
            (lambda h, a: h.update(window_depth=0), "error: ValueError: window_depth must be"),
            (lambda h, a: h.update(split_index=4), "error: ValueError: split_index 4 leaves"),
        ],
        ids=[
            "missing_scale",
            "missing_array",
            "fractional_split",
            "string_scale",
            "zero_depth",
            "short_split",
        ],
    )
    def test_malformed_dataset_is_one_line(self, pipeline, capsys, edit, expected):
        from xlic import container
        from xlic.scenario import DATASET_KIND

        cfg, ds, tmp = pipeline
        _, header, arrays = container.read_container(ds, expected_kind=DATASET_KIND)
        edit(header, arrays)
        container.write_container(ds, DATASET_KIND, header, arrays)
        out = tmp / "results.csv"
        assert run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "tc",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(expected.format(ds=ds))
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_dataset_reported(self, pipeline, capsys):
        cfg, _, tmp = pipeline
        assert run_cli("run", "--config", cfg, "--dataset", str(tmp / "no.bin"),
                       "--canceller", "tc") != 0
        assert "error: dataset" in capsys.readouterr().err


class TestSweep:
    def test_counts_only_rows(self, pipeline):
        cfg, ds, tmp = pipeline
        out = tmp / "sweep.csv"
        assert (
            run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "P",
                    "--values", "1,3,5,7", "--out", str(out), "--no-train") == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert all(line.split(",")[3] == "" for line in lines[1:])  # no c_db

    def test_refuses_existing_output(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        out = tmp / "sweep.csv"
        run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "P",
                "--values", "1", "--out", str(out), "--no-train")
        assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "P",
                       "--values", "1", "--out", str(out), "--no-train") != 0
        assert "--force" in capsys.readouterr().err

    def test_bad_axis_and_values(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "Z",
                       "--values", "1", "--out", str(tmp / "s.csv")) != 0
        assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "P",
                       "--values", "1,a", "--out", str(tmp / "s.csv")) != 0
        for values in ("", ","):
            capsys.readouterr()
            assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "P",
                           "--values", values, "--out", str(tmp / "s.csv")) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage: ")
            assert err.count("\n") == 1
            assert not (tmp / "s.csv").exists()

    def test_missing_dataset_is_one_line(self, pipeline, capsys):
        cfg, _, tmp = pipeline
        out = tmp / "s.csv"
        assert run_cli("sweep", "--config", cfg, "--dataset", str(tmp / "no.bin"),
                       "--axis", "P", "--values", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_invalid_value_rejected_without_output(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        out = tmp / "s.csv"
        assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "nh",
                       "--values=0,-5", "--out", str(out), "--no-train") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: canceller.nnc_hidden")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDivergence:
    """A diverged network row warns on stderr; exit code and outputs are unchanged."""

    @pytest.fixture
    def diverging(self, tmp_path):
        # small_scenario's 4,000 samples at learning rate 1e3: nnc reads about -95 dB
        cfg = small_config(tmp_path, n_samples=4000)
        with open(cfg) as fh:
            edited = _set("training", "learning_rate", 1e3)(json.load(fh))
        with open(cfg, "w") as fh:
            json.dump(edited, fh)
        ds = tmp_path / "ds.bin"
        assert run_cli("generate", "--config", cfg, "--out", str(ds)) == 0
        return cfg, str(ds), tmp_path

    def test_run_prints_one_warning_line(self, diverging, capsys):
        cfg, ds, tmp = diverging
        results = tmp / "results.csv"
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "nnc",
                       "--out", str(results)) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"warning: nnc: training diverged \(n_hidden 12: c_db -\d+\.\d+ dB is below 0 dB\)\n",
            err,
        )
        assert len(results.read_text().splitlines()) == 2
        assert (tmp / "results_epochs.csv").exists()
        assert (tmp / "nnc_model.bin").exists()

    def test_sweep_warns_for_each_network_row(self, diverging, capsys):
        cfg, ds, tmp = diverging
        out = tmp / "sweep.csv"
        capsys.readouterr()
        assert run_cli("sweep", "--config", cfg, "--dataset", ds, "--axis", "nh",
                       "--values", "4", "--out", str(out)) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "warning: nnc: training diverged",
            "warning: hc: training diverged",
        ]
        assert len(out.read_text().splitlines()) == 3

    def test_non_finite_loss_warns(self, capsys):
        res = CancellerResult(
            canceller="hc",
            seed=1,
            n_params=1,
            complexity=1,
            c_db=float("nan"),
            setting=4,
            train_losses=[1.0, float("inf")],
            test_losses=[1.0, float("nan")],
        )
        _warn_if_diverged(res)
        assert capsys.readouterr().err == (
            "warning: hc: training diverged (n_hidden 4: non-finite loss)\n"
        )

    def test_converging_run_is_silent(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        capsys.readouterr()
        assert run_cli("run", "--config", cfg, "--dataset", ds, "--canceller", "hc",
                       "--out", str(tmp / "results.csv")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("canceller, n_hidden", [("nnc", 12), ("hc", 8)])
    @pytest.mark.parametrize(
        "rate, code, expected",
        [
            (1e6, 0, r"warning: {c}: training diverged \(n_hidden {n}: c_db -\d+\.\d+ dB "
                     r"is below 0 dB\)\n"),
            (1e30, 2, r"error: ValueError: model weights must be finite\n"),
        ],
        ids=["lr1e6", "lr1e30"],
    )
    def test_overflow_prints_only_the_promised_line(
        self, diverging, canceller, n_hidden, rate, code, expected
    ):
        # NumPy's overflow warnings would reach stderr; run as a process to see them
        cfg, ds, tmp = diverging
        with open(cfg) as fh:
            edited = _set("training", "learning_rate", rate)(json.load(fh))
        with open(cfg, "w") as fh:
            json.dump(edited, fh)
        proc = TestEntryPoint.run_module("run", "--config", cfg, "--dataset", ds,
                                         "--canceller", canceller,
                                         "--out", str(tmp / "results.csv"))
        assert proc.returncode == code
        assert re.fullmatch(expected.format(c=canceller, n=n_hidden), proc.stderr)


class TestReport:
    def test_full_quartet_summary_sorted(self, pipeline, capsys):
        cfg, ds, tmp = pipeline
        results = tmp / "results.csv"
        for canceller in ("tc", "pc", "nnc", "hc"):
            run_cli("run", "--config", cfg, "--dataset", ds,
                    "--canceller", canceller, "--out", str(results))
        out_dir = tmp / "report"
        assert run_cli("report", "--results", str(results),
                       "--out-dir", str(out_dir)) == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 5
        c_dbs = [float(line.split(",")[3]) for line in summary[1:]]
        assert c_dbs == sorted(c_dbs, reverse=True)
        bars = (out_dir / "residual_bars.csv").read_text().splitlines()
        assert bars[1].startswith("received_cli,")
        assert bars[2].startswith("noise_floor,")
        curves = (out_dir / "epoch_curves.csv").read_text().splitlines()
        # one row per epoch per trained canceller
        assert len(curves) == 1 + 2 * 2

    def test_unrankable_rows_sort_last_in_input_order(self, tmp_path):
        results = tmp_path / "results.csv"
        c_dbs = ["1.0", "nan", "above-range", "3.0", ""]
        rows = [",".join([f"r{i}", "1", "", c_db] + [""] * 6) for i, c_db in enumerate(c_dbs)]
        results.write_text("\n".join([",".join(RESULT_FIELDS), *rows]) + "\n")
        out_dir = tmp_path / "report"
        assert run_cli("report", "--results", str(results), "--out-dir", str(out_dir)) == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[3] for line in summary] == [
            "above-range",
            "3.0",
            "1.0",
            "nan",
            "",
        ]

    def test_missing_column_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "r.csv"
        bad.write_text("canceller,seed\nx,1\n")
        assert run_cli("report", "--results", str(bad)) != 0
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "run"])
    @pytest.mark.parametrize("long_header", [False, True])
    def test_overlong_field_is_one_error_line(self, pipeline, capsys, command, long_header):
        cfg, ds, tmp = pipeline
        big = tmp / "big.csv"
        header, row = ",".join(RESULT_FIELDS), "tc" + "," * (len(RESULT_FIELDS) - 1)
        if long_header:
            header += "," + "x" * 200_000
        else:
            row += "x" * 200_000
        big.write_text(f"{header}\n{row}\n")
        before = set(tmp.iterdir())
        capsys.readouterr()
        if command == "report":
            argv = ["report", "--results", str(big), "--out-dir", str(tmp / "report")]
        else:
            argv = ["run", "--config", cfg, "--dataset", ds, "--canceller", "tc",
                    "--out", str(big)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: schema: {big}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        if command == "run":
            assert set(tmp.iterdir()) == before  # no coefficients file saved

    def test_missing_results_is_one_line(self, tmp_path, capsys):
        missing = tmp_path / "none.csv"
        assert run_cli("report", "--results", str(missing), "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: input: file not found: {missing}\n"
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_pipeline_byte_identical_across_reruns(self, tmp_path):
        for d in ("run1", "run2"):
            base = tmp_path / d
            base.mkdir()
            cfg = small_config(base)
            ds = base / "ds.bin"
            results = base / "results.csv"
            run_cli("generate", "--config", cfg, "--out", str(ds))
            for canceller in ("tc", "nnc"):
                run_cli("run", "--config", cfg, "--dataset", str(ds),
                        "--canceller", canceller, "--out", str(results))
            run_cli("report", "--results", str(results),
                    "--out-dir", str(base / "rpt"))
        for name in ("ds.bin", "results.csv", "results_epochs.csv",
                      "rpt/summary.csv", "rpt/residual_bars.csv",
                      "rpt/epoch_curves.csv"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between identical pipelines"


class TestFileModes:
    def test_dataset_and_csv_modes_follow_umask(self, tmp_path):
        cfg = small_config(tmp_path)
        ds = tmp_path / "ds.bin"
        results = tmp_path / "results.csv"
        old = os.umask(0o022)
        try:
            assert run_cli("generate", "--config", cfg, "--out", str(ds)) == 0
            assert run_cli("run", "--config", cfg, "--dataset", str(ds),
                           "--canceller", "tc", "--out", str(results)) == 0
        finally:
            os.umask(old)
        for path in (ds, results, tmp_path / "tc_coeffs.bin"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


class TestErrorLines:
    """Every failure is a single ``error:`` line on stderr with exit status 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--dataset", "x"],
            ["bogus"],
            ["run", "--config", "c.json", "--dataset", "d.bin", "--canceller", "tc",
             "--seed", "abc"],
        ],
    )
    def test_argparse_error_is_one_usage_line(self, capsys, argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: ")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("run", "--help") == 0
        assert "--canceller" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["generate", "run", "report"])
    def test_directory_input_is_one_error_line(self, pipeline, capsys, command):
        cfg, ds, tmp = pipeline
        directory = tmp / "a_directory"
        directory.mkdir()
        argv = {
            "generate": ["generate", "--config", str(directory), "--out", str(tmp / "x.bin")],
            "run": ["run", "--config", cfg, "--dataset", str(directory), "--canceller", "tc",
                    "--out", str(tmp / "r.csv")],
            "report": ["report", "--results", str(directory), "--out-dir", str(tmp / "rpt")],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ")
        assert err.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "ds.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "xlic", "generate", "--config", cfg,
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_usage_error_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xlic", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0

    @staticmethod
    def run_module(*argv):
        import xlic

        src = os.path.dirname(os.path.dirname(xlic.__file__))
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "xlic", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )

    def test_module_help_exits_zero(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "sweep" in proc.stdout
        assert proc.stderr == ""

    def test_module_usage_error_is_one_line(self):
        proc = self.run_module("bogus")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: usage: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


class TestFormatting:
    def test_perfect_cancellation_formats_as_above_range(self):
        import numpy as np

        from xlic.cli import _fmt

        assert _fmt(np.inf) == "above-range"
        assert _fmt(-np.inf) == "-inf"
        assert _fmt(None) == ""
        assert _fmt(np.float64(1.25)) == "1.25"


class TestOutDirEnv:
    def test_default_output_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XLIC_OUT_DIR", str(tmp_path / "outputs"))
        cfg = small_config(tmp_path)
        assert run_cli("generate", "--config", cfg) == 0
        assert (tmp_path / "outputs" / "dataset.bin").exists()


@pytest.mark.slow
class TestDefaultConfigPipeline:
    def test_default_dataset_size_and_pc_params(self, tmp_path, capsys):
        cfg_path = tmp_path / "default.json"
        cfg_path.write_text("{}")  # all defaults
        ds_path = tmp_path / "ds.bin"
        results = tmp_path / "results.csv"
        assert run_cli("generate", "--config", str(cfg_path), "--out", str(ds_path)) == 0
        assert "samples=50000" in capsys.readouterr().out
        assert run_cli("run", "--config", str(cfg_path), "--dataset", str(ds_path),
                       "--canceller", "pc", "--out", str(results)) == 0
        row = results.read_text().splitlines()[1].split(",")
        assert row[0] == "pc"
        assert int(row[7]) == 1728  # n_params column
        assert int(row[8]) == 127864  # complexity column
