from pathlib import Path

import numpy as np
import pytest

from xlic.config import OfdmSettings, PaSettings, ScenarioSettings
from xlic.rf_chain import IqImbalance

TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Fail every test in this directory on a warning, as ``-W error`` does.

    The hook sees the whole session's items, so ``perfbench``'s are left as
    they are. The mark goes first, so a test's own ``filterwarnings`` marks
    still take precedence.
    """
    for item in items:
        if item.path.is_relative_to(TESTS_DIR):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_ofdm() -> OfdmSettings:
    """Reduced numerology with the same band occupancy, for fast tests."""
    return OfdmSettings(fft_size=256, occupied_subcarriers=28, cp_len=18)


def small_scenario(**overrides) -> ScenarioSettings:
    """2x2, short streams, reduced FFT; keeps all default impairments."""
    params = dict(
        n_rx=2,
        n_tx=2,
        n_paths=3,
        n_samples=4000,
        ofdm=small_ofdm(),
    )
    params.update(overrides)
    return ScenarioSettings(**params)


def ideal_rf(**overrides) -> ScenarioSettings:
    """Distortion-free chain: balanced mixer, unit memoryless PA."""
    params = dict(
        iq=IqImbalance(gain=1.0, phase_rad=0.0),
        pa=PaSettings(order=1, memory=0, taps=[[[1.0, 0.0]]]),
    )
    params.update(overrides)
    return small_scenario(**params)
