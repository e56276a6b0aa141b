"""Canonical parameter setups behind the `figure` CLI command.

Each builder returns (filename, payload) pairs, where a payload is either an
REBoundary or a (header, rows) table for the distance sweeps.  Monte Carlo
seeds are fixed per curve so regenerated files are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .capacity import MonteCarloConfig, cnl_lower_chi2
from .core import LinkParams, upper_bound_region
from .errors import InvalidParams
from .modulation import link_budget_to_params, solve_p1, solve_p2
from .regions import (
    int_adc_cap_fn,
    region_int_adc,
    region_int_circuit,
    region_int_ideal,
    region_sep_circuit,
    region_sps,
    region_sps_circuit,
    region_ts,
    region_ts_circuit,
)

PLAN_HEADER = ("distance_m", "receiver", "m", "alpha", "rho", "rate_bits")

# practical-link setup shared by the distance sweeps
SWEEP_BUDGET = dict(
    tx_power_w=1.0,
    antenna_noise_dbm=-104.0,
    conv_noise_dbm=-70.0,
    rec_noise_dbm=-50.0,
)
SWEEP_ZETA = 0.6
SWEEP_PS = 0.5e-3
SWEEP_PI = 0.2e-3
SWEEP_SER_TARGET = 1e-5


def _mc(seed: int, samples: int) -> MonteCarloConfig:
    return MonteCarloConfig(n_samples=samples, seed=seed)


def fig5(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Separated receiver, ideal circuits: TS vs SPS under two conversion
    noise levels, against the outer-bound box."""
    base = dict(h=1.0, p=100.0, zeta=1.0, sigma2_a=1.0)
    out = [("fig5_ub.csv", upper_bound_region(LinkParams(**base), n_points))]
    for scov2 in (1.0, 10.0):
        lp = LinkParams(**base, sigma2_cov=scov2)
        tag = f"scov{scov2:g}"
        out.append((f"fig5_ts_{tag}.csv", region_ts(lp, n_points)))
        out.append((f"fig5_sps_{tag}.csv", region_sps(lp, n_points)))
    return out


def fig7(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Separated vs integrated receivers, matched processing noise levels,
    no quantization noise."""
    out = []
    for proc_noise, seed in ((1.0, 70), (100.0, 71)):
        sep = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0, sigma2_cov=proc_noise)
        out.append((f"fig7_seprx_proc{proc_noise:g}.csv", region_sps(sep, n_points)))
        itg = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0,
                         sigma2_rec=proc_noise ** 2)
        cap = cnl_lower_chi2(itg.received_power, itg.sigma2_a, itg.sigma2_rec,
                             _mc(seed, samples)).value
        out.append((f"fig7_intrx_proc{proc_noise:g}.csv",
                    region_int_ideal(itg, cap, n_points)))
    return out


def fig8(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Same comparison with quantization noise: integrated-receiver regions
    are no longer boxes.  The rho sweep runs one MI estimate per point, so
    n_points here controls that sweep (defaults are deliberately modest)."""
    sweep_points = min(n_points, 33)
    out = []
    for proc_noise, seed in ((1.0, 80), (100.0, 81)):
        sep = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0,
                         sigma2_cov=proc_noise + 1.0)  # ADC noise folded in
        out.append((f"fig8_seprx_proc{proc_noise:g}.csv", region_sps(sep, n_points)))
        itg = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0,
                         sigma2_rec=proc_noise ** 2, sigma2_adc=1.0)
        out.append((f"fig8_intrx_proc{proc_noise:g}.csv",
                    region_int_adc(itg, sweep_points,
                                   int_adc_cap_fn(itg, _mc(seed, samples)))))
    return out


FIG9_LP = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0, sigma2_cov=10.0)
FIG9_PS = 25.0


def fig9(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Separated receiver with decoding circuit power: net-energy regions for
    the three schedules, plus the total-energy references (the no-circuit
    sweeps)."""
    return [
        ("fig9_ops_net.csv", region_sep_circuit(FIG9_LP, FIG9_PS, n_points)),
        ("fig9_sps_net.csv", region_sps_circuit(FIG9_LP, FIG9_PS, n_points)),
        ("fig9_ts_net.csv", region_ts_circuit(FIG9_LP, FIG9_PS, n_points)),
        ("fig9_sps_total.csv", region_sps(FIG9_LP, n_points)),
        ("fig9_ts_total.csv", region_ts(FIG9_LP, n_points)),
    ]


FIG10_SEP = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=0.01, sigma2_cov=1.0)
FIG10_INT = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=0.01, sigma2_rec=100.0)
FIG10_POWERS = {"low": (25.0, 10.0), "high": (200.0, 80.0)}


def fig10_cap(samples: int, seed: int = 100):
    return cnl_lower_chi2(FIG10_INT.received_power, FIG10_INT.sigma2_a,
                          FIG10_INT.sigma2_rec, _mc(seed, samples))


def fig10(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Both architectures with circuit power, low and high draw."""
    cap = fig10_cap(samples).value
    out = []
    for label, (p_s, p_i) in FIG10_POWERS.items():
        out.append((f"fig10_seprx_{label}.csv",
                    region_sep_circuit(FIG10_SEP, p_s, n_points)))
        out.append((f"fig10_intrx_{label}.csv",
                    region_int_circuit(FIG10_INT, p_i, cap, n_points)))
    return out


def sweep_distances() -> np.ndarray:
    return 10.0 ** np.arange(0.0, 1.5 + 1e-9, 0.05)


def distance_sweep_rows() -> tuple[list[tuple], list[tuple]]:
    """Maximum-rate plans for both receivers over the distance grid."""
    distances = sweep_distances().tolist()
    links = [link_budget_to_params(d, zeta=SWEEP_ZETA, **SWEEP_BUDGET) for d in distances]
    sep = solve_p1(links, SWEEP_PS, 0.0, SWEEP_SER_TARGET)
    itg = solve_p2(links, SWEEP_PI, 0.0, SWEEP_SER_TARGET)
    return ([plan.to_csv_row(d, "separated") for d, plan in zip(distances, sep)],
            [plan.to_csv_row(d, "integrated") for d, plan in zip(distances, itg)])


def fig11(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Maximum achievable rate vs distance for the practical setup."""
    sep_rows, int_rows = distance_sweep_rows()
    return [("fig11_seprx.csv", (PLAN_HEADER, sep_rows)),
            ("fig11_intrx.csv", (PLAN_HEADER, int_rows))]


def fig12(n_points: int, samples: int) -> list[tuple[str, object]]:
    """Constellation size and off-time fraction vs distance: fig11's tables,
    from which the figure reads m and alpha instead of the rate."""
    return [(name.replace("fig11", "fig12"), table)
            for name, table in fig11(n_points, samples)]


FIGURES = {
    "fig5": fig5,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}


def build_figure(figure_id: str, n_points: int = 512,
                 samples: int = 100_000) -> list[tuple[str, object]]:
    if figure_id not in FIGURES:
        raise InvalidParams(
            f"unknown figure id {figure_id!r}; choose from {sorted(FIGURES)}")
    return FIGURES[figure_id](n_points, samples)
