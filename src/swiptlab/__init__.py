"""swiptlab: rate-energy tradeoff analysis for SWIPT receiver architectures.

Library layout:
    core        shared types, rates, SNRs, dB conversion
    capacity    nonlinear-channel capacity bounds and the chi-square-input rate
    regions     rate-energy region boundaries and the circuit-power solver
    modulation  QAM/PEM symbol error rates and constrained rate maximizers
    simkit      Monte Carlo symbol and waveform oracles
    cli         command-line front end emitting CSV/JSON artifacts
"""

__version__ = "0.1.0"

from .core import (
    LinkParams,
    REBoundary,
    awgn_rate,
    dbm_to_watts,
    q_function,
    split_snr,
    upper_bound_region,
    watts_to_dbm,
)
from .errors import (
    AliasedCarrier,
    BadConstellation,
    DegenerateCircuitPower,
    InfeasibleTarget,
    InvalidParams,
    NonPositivePower,
    QuadratureFailure,
    SplitAtUnity,
    SwiptError,
    ZeroNoise,
)

__all__ = [
    "__version__",
    "LinkParams", "REBoundary",
    "q_function", "awgn_rate", "split_snr", "upper_bound_region",
    "dbm_to_watts", "watts_to_dbm",
    "SwiptError", "InvalidParams", "ZeroNoise", "NonPositivePower", "SplitAtUnity",
    "QuadratureFailure", "InfeasibleTarget", "DegenerateCircuitPower",
    "BadConstellation", "AliasedCarrier",
]
