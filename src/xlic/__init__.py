"""Cross-link interference cancellation workbench.

Simulates the RF-impaired BS-to-BS interference channel of a flexible
duplex MIMO system (IQ mixer imbalance, parallel-Hammerstein PA,
multipath Rayleigh MIMO channel, AWGN, ADC) and benchmarks four digital
cancellers on it: linear FIR (tc), conjugate-monomial polynomial (pc),
feedforward network (nnc) and hybrid linear-plus-network (hc).

The package root exports only the names that the acceptance suite,
``perfbench`` and ``tools/output_hashes.py`` import from ``xlic``; import
everything else from the module that defines it.
"""

from .channel import draw_channel, measure_power_dbm
from .config import RunConfig, ScenarioSettings, TrainSettings
from .fnn import nnc_complexity, nnc_param_count
from .harness import cancellation_db, hc_complexity, hc_param_count, residual_power_dbm
from .polynomial import pc_complexity, pc_param_count
from .rf_chain import IqImbalance
from .scenario import generate_dataset, load_dataset, save_dataset
from .waveform import OfdmConfig
