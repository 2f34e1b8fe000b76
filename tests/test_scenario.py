"""Tests for dataset generation, regressor windows and persistence."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import ideal_rf, small_ofdm, small_scenario
from xlic import channel, scenario
from xlic.channel import draw_channel, measure_power_dbm
from xlic.config import ConfigError, PaSettings, RunConfig, ScenarioSettings, derive_rng
from xlic.container import ContainerChecksumError
from xlic.scenario import (
    CliDataset,
    build_regressors,
    generate_dataset,
    load_dataset,
    save_dataset,
)


class TestGenerateDataset:
    def test_default_config_shapes_and_split(self):
        ds = generate_dataset(ScenarioSettings(), seed=1)
        assert ds.tx.shape == (4, 50000)
        assert ds.rx.shape == (4, 50000)
        assert ds.split_index == 40000
        assert ds.window_depth == 2 + 7

    def test_identity_chain_reproduces_input(self):
        # balanced mixer, unit PA, one drawn 1x1 tap, no noise/ADC: the
        # labels are the input times that tap
        sc = ideal_rf(
            n_rx=1,
            n_tx=1,
            n_paths=1,
            noise_enabled=False,
            adc_enabled=False,
            target_rx_power_dbm=None,
        )
        ds = generate_dataset(sc, seed=3)
        tap = draw_channel(derive_rng(3, "channel"), 1, 1, 1).taps[0, 0, 0]
        assert_allclose(ds.rx, tap * ds.tx, rtol=1e-12)

    def test_same_seed_bit_identical(self, tmp_path):
        sc = small_scenario()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(generate_dataset(sc, seed=9), a)
        save_dataset(generate_dataset(sc, seed=9), b)
        assert a.read_bytes() == b.read_bytes()

    def test_normalizers_are_training_partition_maxima(self):
        ds = generate_dataset(small_scenario(), seed=5)
        assert ds.input_scale == np.abs(ds.tx[:, : ds.split_index]).max()
        assert ds.label_scale == np.abs(ds.rx[:, : ds.split_index]).max()

    def test_received_power_hits_target(self):
        ds = generate_dataset(small_scenario(), seed=5)
        assert measure_power_dbm(ds.rx) == pytest.approx(-52.1, abs=0.05)

    def test_labels_do_not_depend_on_prehistory(self):
        # Generating twice as many samples and comparing the overlap shows
        # the stored labels carry no zero-padding transient: sample k of
        # the shorter run equals sample k of a run that saw the same tx
        # stream (transients are dropped at the head).
        # a linear PA with memory gives a nontrivial window depth
        sc = ideal_rf(
            n_rx=1,
            n_tx=1,
            n_paths=3,
            noise_enabled=False,
            adc_enabled=False,
            target_rx_power_dbm=None,
            pa=PaSettings(order=1, memory=2, taps=[[[1.0, 0.0], [0.4, 0.0], [0.2, 0.0]]]),
        )
        ds = generate_dataset(sc, seed=11)
        depth = ds.window_depth
        # recompute each label from the stored tx stream with full history
        taps_pa = np.array([1.0, 0.4, 0.2])
        h = draw_channel(derive_rng(11, "channel"), 1, 1, 3).taps[0, 0]
        eff = np.convolve(taps_pa, h)  # combined FIR, length depth
        for n in (depth - 1, depth, 200, ds.n_samples - 1):
            window = ds.tx[0, n - depth + 1 : n + 1][::-1]
            assert ds.rx[0, n] == pytest.approx(np.dot(eff, window), rel=1e-10)

    @pytest.mark.parametrize("noise_enabled", [True, False])
    def test_propagates_once_and_adds_noise_only_when_enabled(
        self, monkeypatch, noise_enabled
    ):
        # the calibration scales the propagated stack, not a second propagation
        calls = []
        targets = ((scenario, "propagate"), (channel, "propagate"), (scenario, "add_awgn"))
        for module, name in targets:

            def counted(*args, _original=getattr(module, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        ds = generate_dataset(small_scenario(noise_enabled=noise_enabled), seed=5)
        assert calls == ["propagate", "add_awgn"][: 1 + noise_enabled]
        assert ds.meta["channel_scale"] != 1.0

    def test_config_inconsistency_rejected(self):
        # checked when the settings are made, before any generation
        with pytest.raises(ConfigError, match="scenario.n_samples: .*window depth"):
            small_scenario(n_samples=5)
        # split floor(0.001 * 4000) = 4 is inside the depth-5 delay line
        with pytest.raises(ConfigError, match="scenario.train_fraction: .*empty train"):
            small_scenario(train_fraction=0.001)


class TestRegressors:
    def test_single_antenna_single_tap_layout(self):
        out = build_regressors(np.array([[1 + 2j]]), depth=1)
        assert_array_equal(out, [[1.0, 2.0]])

    def test_two_antenna_depth_two_hand_layout(self):
        # manual layout oracle: antenna-major, lag-inner, Re/Im interleaved
        d1 = np.array([1 + 2j, 3 + 4j, 5 + 6j])
        d2 = np.array([7 + 8j, 9 + 10j, 11 + 12j])
        out = build_regressors(np.stack([d1, d2]), depth=2)
        expected = np.array(
            [
                [3, 4, 1, 2, 9, 10, 7, 8],
                [5, 6, 3, 4, 11, 12, 9, 10],
            ],
            dtype=float,
        )
        assert_array_equal(out, expected)

    def test_window_count(self, rng):
        tx = rng.standard_normal((2, 100)) + 1j * rng.standard_normal((2, 100))
        assert build_regressors(tx, depth=9).shape == (100 - 9 + 1, 2 * 2 * 9)

    def test_depth_exceeding_length_rejected(self, rng):
        tx = rng.standard_normal((1, 4)).astype(complex)
        with pytest.raises(ValueError, match="depth"):
            build_regressors(tx, depth=5)

    def test_nonpositive_depth_rejected(self, rng):
        tx = rng.standard_normal((1, 4)).astype(complex)
        with pytest.raises(ValueError, match="depth"):
            build_regressors(tx, depth=0)


class TestNormalize:
    def test_training_max_normalizes_to_one(self):
        ds = generate_dataset(small_scenario(), seed=2)
        assert (np.abs(ds.tx[:, : ds.split_index]) / ds.input_scale).max() == 1.0

    def test_nonpositive_scale_rejected(self):
        ds = generate_dataset(small_scenario(), seed=2)
        fields = dict(
            tx=ds.tx, rx=ds.rx, split_index=ds.split_index, window_depth=ds.window_depth
        )
        with pytest.raises(ValueError, match="must be > 0"):
            CliDataset(input_scale=0.0, label_scale=ds.label_scale, **fields)
        with pytest.raises(ValueError, match="must be > 0"):
            CliDataset(input_scale=ds.input_scale, label_scale=-1.0, **fields)

    def test_split_rule_holds_for_every_dataset(self):
        # window_depth <= split_index < n_samples: a training row once the
        # delay line is full, and a test row
        ds = generate_dataset(small_scenario(), seed=2)
        fields = dict(tx=ds.tx, rx=ds.rx, input_scale=1.0, label_scale=1.0)
        depth, n = ds.window_depth, ds.n_samples
        for split in (depth - 1, n):
            with pytest.raises(ValueError, match="empty train or test partition"):
                CliDataset(split_index=split, window_depth=depth, **fields)
        for split in (depth, n - 1):
            CliDataset(split_index=split, window_depth=depth, **fields)


class TestPersistence:
    def test_round_trip_equality(self, tmp_path):
        ds = generate_dataset(small_scenario(), seed=21)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert_array_equal(loaded.tx, ds.tx)
        assert_array_equal(loaded.rx, ds.rx)
        assert loaded.input_scale == ds.input_scale
        assert loaded.label_scale == ds.label_scale
        assert loaded.split_index == ds.split_index
        assert loaded.window_depth == ds.window_depth
        assert loaded.meta == ds.meta

    def test_corruption_detected(self, tmp_path):
        ds = generate_dataset(small_scenario(), seed=21)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerChecksumError):
            load_dataset(path)

    @pytest.mark.parametrize("meta", [[1, 2], None, "seed"])
    def test_non_object_meta_rejected_at_load(self, tmp_path, meta):
        from xlic import container
        from xlic.scenario import DATASET_KIND

        ds = generate_dataset(small_scenario(), seed=21)
        path = tmp_path / "ds.bin"
        header = dict(
            input_scale=ds.input_scale,
            label_scale=ds.label_scale,
            split_index=ds.split_index,
            window_depth=ds.window_depth,
            meta=meta,
        )
        container.write_container(path, DATASET_KIND, header, {"tx": ds.tx, "rx": ds.rx})
        with pytest.raises(ValueError, match="meta must be an object"):
            load_dataset(path)


class TestIqDefaults:
    @pytest.mark.parametrize(
        "iq, expected",
        [
            ({}, {"gain": 1.05, "phase_rad": 0.05}),
            ({"gain": 1.2}, {"gain": 1.2, "phase_rad": 0.05}),
            ({"phase_rad": -0.02}, {"gain": 1.05, "phase_rad": -0.02}),
        ],
    )
    def test_missing_fields_take_the_reference_mixer(self, iq, expected):
        scenario = dict(
            n_rx=2,
            n_tx=2,
            n_paths=3,
            n_samples=4000,
            ofdm=dataclasses.asdict(small_ofdm()),
            iq=iq,
        )
        cfg = RunConfig.from_dict({"scenario": scenario})
        ds = generate_dataset(cfg.scenario, seed=1)
        assert ds.meta["scenario"]["iq"] == expected
