"""Practical-modulation rate maximization under symbol-error-rate and
harvested-energy constraints.

The separated receiver carries coherent QAM through the split linear channel;
the integrated receiver carries pulse energy modulation (equispaced
nonnegative power levels) decoded by midpoint thresholds.  Both maximizers
use the closed-form optimal off-time fraction and pick the largest
constellation meeting the SER target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcinv

from .core import LinkParams, dbm_to_watts, q_function, split_snr
from .errors import BadConstellation, InfeasibleTarget, InvalidParams, check_real

MAX_BITS = 10  # largest supported constellation is 2**10

QAM = "qam"
PEM = "pem"


@dataclass(frozen=True)
class ModulationPlan:
    """Solution of a constrained rate maximization.

    m is None when no constellation meets the SER target (zero-rate plan);
    rho is None for the integrated receiver, which has no RF-band split.
    """

    family: str
    m: int | None
    alpha: float
    rho: float | None
    rate: float  # bits/channel use, (1 - alpha) * log2(m)

    def to_csv_row(self, distance_m: float, receiver: str) -> tuple:
        return (distance_m, receiver, 0 if self.m is None else self.m,
                self.alpha, math.nan if self.rho is None else self.rho, self.rate)


@dataclass(frozen=True)
class LinkBudget:
    """Distance/power/noise description of the practical link setup."""

    distance_m: float
    tx_power_w: float
    antenna_noise_dbm: float
    conv_noise_dbm: float
    rec_noise_dbm: float   # dBm level of the rectifier noise std (a power-like std)

    def __post_init__(self):
        check_real("distance_m", self.distance_m, lo=1.0)
        check_real("tx_power_w", self.tx_power_w, lo_open=True)


def _check_constellation(m) -> int:
    if not isinstance(m, (int, np.integer)):
        raise BadConstellation(f"constellation size must be an integer, got {m!r}")
    l = int(m).bit_length() - 1
    if m <= 1 or (1 << l) != m or l > MAX_BITS:
        raise BadConstellation(
            f"constellation size must be 2**l with 1 <= l <= {MAX_BITS}, got {m}")
    return int(m)


def ser_qam(m: int, snr_per_symbol: float) -> float:
    """Square-QAM SER approximation 4(sqrt(M)-1)/sqrt(M) * Q(sqrt(3*snr/(M-1))).

    Taken as exact for all supported sizes (BPSK included); the value may
    exceed 1 at very low SNR, which is the documented contract.
    """
    m = _check_constellation(m)
    check_real("snr_per_symbol", snr_per_symbol)
    sm = math.sqrt(m)
    return 4.0 * (sm - 1.0) / sm * q_function(math.sqrt(3.0 * snr_per_symbol / (m - 1)))


def ser_pem(m: int, snr_per_symbol: float) -> float:
    """Pulse-energy-modulation SER 2(M-1)/M * Q(snr'/(M-1)) with midpoint
    decisions; snr' = hP/sigma_rec."""
    m = _check_constellation(m)
    check_real("snr_per_symbol", snr_per_symbol)
    return 2.0 * (m - 1.0) / m * q_function(snr_per_symbol / (m - 1))


_SER_BY_FAMILY = {QAM: ser_qam, PEM: ser_pem}


def max_modulation(family: str, snr: float, ser_target: float) -> int | None:
    """Largest supported constellation meeting the SER target, or None."""
    if family not in _SER_BY_FAMILY:
        raise InvalidParams(f"unknown modulation family {family!r}")
    check_real("ser_target", ser_target, hi=1.0, lo_open=True)
    ser = _SER_BY_FAMILY[family]
    for l in range(MAX_BITS, 0, -1):
        m = 1 << l
        if ser(m, snr) <= ser_target:
            return m
    return None


def p1_alpha(lp: LinkParams, p_s: float, q_req: float, rho: float) -> float:
    """Optimal off fraction of the separated receiver at a fixed split ratio:
    [(Q_req - rho zeta h P + P_S) / ((1-rho) zeta h P + P_S)]^+."""
    num = q_req - rho * lp.q_max + p_s
    den = (1.0 - rho) * lp.q_max + p_s
    return max(num / den, 0.0)


def p2_alpha(lp: LinkParams, p_i: float, q_req: float) -> float:
    """Optimal off fraction of the integrated receiver:
    [(Q_req - zeta h P + P_I) / P_I]^+."""
    if p_i == 0.0:
        return 0.0
    return max((q_req - lp.q_max + p_i) / p_i, 0.0)


def _check_q_req(lp: LinkParams, q_req: float):
    check_real("q_req", q_req, lo=-math.inf)
    if not 0 <= q_req <= lp.q_max:
        raise InfeasibleTarget(f"required energy {q_req} outside [0, {lp.q_max}]")


# the largest split ratio the planner proposes; split_snr is 0 at rho = 1
_RHO_MAX = 1.0 - 1e-12


def _qam_thresholds(lp: LinkParams, ser_target: float) -> list[float]:
    """Largest split ratio at which each QAM size 2**l meets the SER target.

    ser_qam(M, snr) <= target iff snr >= s_l = (M-1)/3 Q^-1(target sqrt(M) /
    (4 (sqrt(M)-1)))^2, and split_snr(rho) = s_l at 1 - rho = s_l sigma2_cov /
    (hP - s_l sigma2_a); a size with hP <= s_l sigma2_a is never feasible.
    Each threshold steps down until ser_qam itself meets the target, so that
    rounding cannot drop the size at its own threshold.
    """
    hp = lp.received_power
    sizes, rhos = [], []
    for l in range(1, MAX_BITS + 1):
        m = 1 << l
        sm = math.sqrt(m)
        z = math.sqrt(2.0) * float(erfcinv(2.0 * ser_target * sm / (4.0 * (sm - 1.0))))
        s = (m - 1) / 3.0 * max(z, 0.0) ** 2
        if hp <= s * lp.sigma2_a:
            continue
        sizes.append(m)
        rhos.append(min(max(1.0 - s * lp.sigma2_cov / (hp - s * lp.sigma2_a), 0.0),
                        _RHO_MAX))
    snrs = split_snr(np.array(rhos), lp).tolist()
    for i, m in enumerate(sizes):
        rho, snr, gap = rhos[i], snrs[i], 0.0
        while rho > 0.0 and ser_qam(m, snr) > ser_target:
            gap = max(2.0 * gap, math.ulp(rho))
            rho = max(rho - gap, 0.0)
            snr = split_snr(rho, lp)
        rhos[i] = rho
    return rhos


def solve_p1(lp: LinkParams, p_s: float, q_req: float, ser_target: float) -> ModulationPlan:
    """Maximize the separated receiver's QAM rate under SER and net-energy
    constraints.

    The largest feasible size is a nonincreasing step function of rho with
    its steps at _qam_thresholds, while the on fraction 1 - alpha rises until
    it reaches 1 at rho0 = (Q_req + P_S) / (zeta h P).  So the optimum is one
    of rho = 0, rho0 and the thresholds, each clipped to [0, 1 - 1e-12].
    Ties break toward the smaller constellation, then the smaller split.
    """
    check_real("p_s", p_s)
    _check_q_req(lp, q_req)
    check_real("ser_target", ser_target, hi=1.0, lo_open=True)
    if q_req == lp.q_max:
        # decoder permanently off; no constellation is usable at the limit
        return ModulationPlan(family=QAM, m=None, alpha=1.0, rho=1.0, rate=0.0)
    rho0 = (q_req + p_s) / lp.q_max
    rhos = sorted({0.0, min(rho0, _RHO_MAX), *_qam_thresholds(lp, ser_target)})
    best = None
    for rho, snr in zip(rhos, split_snr(np.array(rhos), lp).tolist()):
        # from rho0 on alpha is 0, which p1_alpha's cancellation can miss by an ulp
        alpha = 0.0 if rho >= rho0 else min(p1_alpha(lp, p_s, q_req, rho), 1.0)
        m = max_modulation(QAM, snr, ser_target)
        rate = 0.0 if m is None else (1.0 - alpha) * math.log2(m)
        # candidates ascend in rho, so a tie keeps the smaller split
        if best is None or (rate, -(m or 0)) > (best[0], -(best[1] or 0)):
            best = (rate, m, alpha, rho)

    rate, m, alpha, rho = best
    return ModulationPlan(family=QAM, m=m, alpha=alpha, rho=rho, rate=rate)


def solve_p2(lp: LinkParams, p_i: float, q_req: float, ser_target: float) -> ModulationPlan:
    """Maximize the integrated receiver's PEM rate under SER and net-energy
    constraints; the off fraction is closed-form and the split plays no role."""
    check_real("p_i", p_i)
    _check_q_req(lp, q_req)
    check_real("sigma2_rec of the integrated receiver", lp.sigma2_rec, lo_open=True)
    alpha = min(p2_alpha(lp, p_i, q_req), 1.0)
    snr = lp.received_power / lp.sigma_rec
    m = max_modulation(PEM, snr, ser_target)
    rate = 0.0 if m is None else (1.0 - alpha) * math.log2(m)
    return ModulationPlan(family=PEM, m=m, alpha=alpha, rho=None, rate=rate)


def link_budget_to_params(lb: LinkBudget, zeta: float = 1.0) -> LinkParams:
    """Channel gain from the (-30 - 30 log10 d) dB attenuation law plus noise
    powers converted from their dBm levels."""
    h = 10.0 ** ((-30.0 - 30.0 * math.log10(lb.distance_m)) / 10.0)
    sigma_rec = dbm_to_watts(lb.rec_noise_dbm)
    return LinkParams(
        h=h,
        p=lb.tx_power_w,
        zeta=zeta,
        sigma2_a=dbm_to_watts(lb.antenna_noise_dbm),
        sigma2_cov=dbm_to_watts(lb.conv_noise_dbm),
        sigma2_rec=sigma_rec * sigma_rec,
    )
