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

from .core import LinkParams, dbm_to_watts, q_function, split_snr
from .errors import BadConstellation, InfeasibleTarget, InvalidParams

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
    ser_target: float
    alpha: float
    rho: float | None
    rate: float  # bits/channel use, (1 - alpha) * log2(m)

    def to_csv_row(self, distance_m: float, receiver: str) -> tuple:
        return (distance_m, receiver, 0 if self.m is None else self.m,
                self.alpha, math.nan if self.rho is None else self.rho, self.rate)


@dataclass(frozen=True)
class AlphaOrderingReport:
    """Side-by-side solver outputs plus the two comparison predicates."""

    alpha1: float
    alpha2: float
    m1: int | None
    m2: int | None
    rate1: float
    rate2: float
    alpha_ordered: bool          # alpha1 >= alpha2
    rate_implication: bool       # m1 <= m2 implies rate1 <= rate2


@dataclass(frozen=True)
class LinkBudget:
    """Distance/power/noise description of the practical link setup."""

    distance_m: float
    tx_power_w: float
    carrier_hz: float
    bandwidth_hz: float
    antenna_noise_dbm: float
    conv_noise_dbm: float
    rec_noise_dbm: float   # dBm level of the rectifier noise std (a power-like std)

    def __post_init__(self):
        if self.distance_m < 1.0:
            raise InvalidParams(f"distance must be >= 1 m, got {self.distance_m}")
        if self.tx_power_w <= 0 or self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise InvalidParams("tx power, carrier and bandwidth must be > 0")


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
    if snr_per_symbol < 0:
        raise InvalidParams("SNR must be >= 0")
    sm = math.sqrt(m)
    return 4.0 * (sm - 1.0) / sm * q_function(math.sqrt(3.0 * snr_per_symbol / (m - 1)))


def ser_pem(m: int, snr_per_symbol: float) -> float:
    """Pulse-energy-modulation SER 2(M-1)/M * Q(snr'/(M-1)) with midpoint
    decisions; snr' = hP/sigma_rec."""
    m = _check_constellation(m)
    if snr_per_symbol < 0:
        raise InvalidParams("SNR must be >= 0")
    return 2.0 * (m - 1.0) / m * q_function(snr_per_symbol / (m - 1))


_SER_BY_FAMILY = {QAM: ser_qam, PEM: ser_pem}


def max_modulation(family: str, snr: float, ser_target: float) -> int | None:
    """Largest supported constellation meeting the SER target, or None."""
    if family not in _SER_BY_FAMILY:
        raise InvalidParams(f"unknown modulation family {family!r}")
    if not 0 < ser_target < 1:
        raise InvalidParams(f"ser_target must lie in (0, 1), got {ser_target}")
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
    if q_req < 0 or q_req > lp.q_max:
        raise InfeasibleTarget(f"required energy {q_req} outside [0, {lp.q_max}]")


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def solve_p1(lp: LinkParams, p_s: float, q_req: float, ser_target: float,
             rho_grid=None) -> ModulationPlan:
    """Maximize the separated receiver's QAM rate under SER and net-energy
    constraints.

    Exhaustive search over the split ratio (the rate is piecewise-flat in rho
    through the constellation choice, so derivative methods are unsafe):
    a uniform grid on [0, 1) plus golden-section refinement of the best
    bracket down to width 1e-6, never returning less than the best grid point.
    Ties break toward the smaller constellation, then the smaller split.
    """
    if p_s < 0:
        raise InvalidParams("p_s must be >= 0")
    _check_q_req(lp, q_req)
    if q_req == lp.q_max:
        # decoder permanently off; no constellation is usable at the limit
        return ModulationPlan(family=QAM, m=None, ser_target=ser_target,
                              alpha=1.0, rho=1.0, rate=0.0)
    if rho_grid is None:
        rho_grid = np.linspace(0.0, 1.0, 2048, endpoint=False)

    def evaluate(rho: float):
        alpha = min(p1_alpha(lp, p_s, q_req, rho), 1.0)
        m = max_modulation(QAM, split_snr(rho, lp), ser_target)
        rate = 0.0 if m is None else (1.0 - alpha) * math.log2(m)
        return rate, m, alpha

    def better(cand, best):
        (rate_c, m_c, _, rho_c), (rate_b, m_b, _, rho_b) = cand, best
        if rate_c != rate_b:
            return rate_c > rate_b
        mc = 0 if m_c is None else m_c
        mb = 0 if m_b is None else m_b
        if mc != mb:
            return mc < mb
        return rho_c < rho_b

    best = None
    best_idx = 0
    for i, rho in enumerate(rho_grid):
        rate, m, alpha = evaluate(float(rho))
        cand = (rate, m, alpha, float(rho))
        if best is None or better(cand, best):
            best, best_idx = cand, i

    # golden-section refinement of the bracket around the best grid point
    lo = float(rho_grid[best_idx - 1]) if best_idx > 0 else 0.0
    hi = float(rho_grid[best_idx + 1]) if best_idx + 1 < len(rho_grid) else \
        min(1.0 - 1e-12, 2.0 * float(rho_grid[best_idx]) - lo)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = evaluate(x1), evaluate(x2)
    while hi - lo > 1e-6:
        for x, f in ((x1, f1), (x2, f2)):
            cand = (f[0], f[1], f[2], x)
            if better(cand, best):
                best = cand
        if f1[0] < f2[0]:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = evaluate(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = evaluate(x1)

    rate, m, alpha, rho = best
    return ModulationPlan(family=QAM, m=m, ser_target=ser_target,
                          alpha=alpha, rho=rho, rate=rate)


def solve_p2(lp: LinkParams, p_i: float, q_req: float, ser_target: float) -> ModulationPlan:
    """Maximize the integrated receiver's PEM rate under SER and net-energy
    constraints; the off fraction is closed-form and the split plays no role."""
    if p_i < 0:
        raise InvalidParams("p_i must be >= 0")
    _check_q_req(lp, q_req)
    if lp.sigma2_rec <= 0:
        raise InvalidParams("integrated receiver needs sigma2_rec > 0")
    alpha = min(p2_alpha(lp, p_i, q_req), 1.0)
    snr = lp.received_power / lp.sigma_rec
    m = max_modulation(PEM, snr, ser_target)
    rate = 0.0 if m is None else (1.0 - alpha) * math.log2(m)
    return ModulationPlan(family=PEM, m=m, ser_target=ser_target,
                          alpha=alpha, rho=None, rate=rate)


def check_alpha_ordering(lp: LinkParams, p_s: float, p_i: float, q_req: float,
                         ser_target: float) -> AlphaOrderingReport:
    """Run both maximizers and report the off-fraction ordering (alpha1 >=
    alpha2 whenever p_s >= p_i) and the rate implication for m1 <= m2."""
    if not p_s >= p_i > 0:
        raise InvalidParams("ordering check assumes p_s >= p_i > 0")
    plan1 = solve_p1(lp, p_s, q_req, ser_target)
    plan2 = solve_p2(lp, p_i, q_req, ser_target)
    m1 = 0 if plan1.m is None else plan1.m
    m2 = 0 if plan2.m is None else plan2.m
    return AlphaOrderingReport(
        alpha1=plan1.alpha,
        alpha2=plan2.alpha,
        m1=plan1.m,
        m2=plan2.m,
        rate1=plan1.rate,
        rate2=plan2.rate,
        alpha_ordered=plan1.alpha >= plan2.alpha - 1e-12,
        rate_implication=(m1 > m2) or (plan1.rate <= plan2.rate + 1e-12),
    )


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
