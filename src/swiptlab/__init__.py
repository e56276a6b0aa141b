"""swiptlab: rate-energy tradeoff analysis for SWIPT receiver architectures.

Library layout:
    core        shared types, rates, SNRs, the outer-bound box, dBm to watts
    errors      error classes, their CLI exit codes and the input range checks
    capacity    nonlinear-channel capacity upper bounds and the sampled (Monte
                Carlo) estimate of the chi-square-input rate
    chi2rate    the chi-square-input rate without sampling, with its error bound
    regions     rate-energy region boundaries and the circuit-power solver
    modulation  QAM/PEM symbol error rates, constrained rate maximizers and the
                distance-law link budget
    simkit      Monte Carlo symbol and waveform oracles
    figures     the parameter setups of the `figure` command
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
)
from .errors import (
    AliasedCarrier,
    BadConstellation,
    DegenerateCircuitPower,
    InfeasibleTarget,
    InvalidParams,
    QuadratureFailure,
    SplitAtUnity,
    SwiptError,
    ZeroNoise,
)

__all__ = [
    "__version__",
    "LinkParams", "REBoundary",
    "q_function", "awgn_rate", "split_snr", "upper_bound_region",
    "dbm_to_watts",
    "SwiptError", "InvalidParams", "ZeroNoise", "SplitAtUnity",
    "QuadratureFailure", "InfeasibleTarget", "DegenerateCircuitPower",
    "BadConstellation", "AliasedCarrier",
]
