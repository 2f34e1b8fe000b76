"""Cross-link interference cancellation workbench.

Simulates the RF-impaired BS-to-BS interference channel of a flexible
duplex MIMO system (IQ mixer imbalance, parallel-Hammerstein PA,
multipath Rayleigh MIMO channel, AWGN, ADC) and benchmarks four digital
cancellers on it: linear FIR (tc), conjugate-monomial polynomial (pc),
feedforward network (nnc) and hybrid linear-plus-network (hc).
"""

from .channel import (
    MultipathChannel,
    add_awgn,
    calibrate_channel_gain,
    dbm_to_watts,
    draw_channel,
    measure_power_dbm,
    propagate,
    quantize_adc,
    watts_to_dbm,
)
from .config import (
    CancellerSettings,
    RunConfig,
    ScenarioSettings,
    TrainSettings,
    derive_rng,
    load_config,
    save_config,
)
from .fnn import (
    AdamState,
    FnnModel,
    TrainResult,
    adam_step,
    backward,
    forward,
    loss_mse,
    nnc_complexity,
    nnc_param_count,
    train,
)
from .harness import (
    CancellerResult,
    cancellation_db,
    hc_complexity,
    hc_param_count,
    residual_power_dbm,
    run_canceller,
    run_hc,
    run_nnc,
    run_pc,
    run_tc,
    sweep,
)
from .polynomial import (
    BasisSpec,
    PolyCoefficients,
    basis_term,
    build_basis_matrix,
    ls_fit,
    pc_complexity,
    pc_param_count,
    tc_complexity,
    tc_param_count,
)
from .rf_chain import IqImbalance, PaModel, apply_iq_mixer, apply_pa, transmit_chain
from .scenario import (
    CliDataset,
    build_regressors,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .waveform import OfdmConfig, generate_ofdm

__version__ = "0.1.0"
