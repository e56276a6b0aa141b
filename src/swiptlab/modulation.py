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

from .core import LinkParams, _special, dbm_to_watts, q_function, split_snr
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


# every supported constellation size, ascending
_SIZES = 1 << np.arange(1, MAX_BITS + 1)
_SIZE_SET = frozenset(_SIZES.tolist())


def _check_constellation(m):
    """m as an int (an integer array as it is) after checking that each size
    is 2**l with 1 <= l <= MAX_BITS."""
    if isinstance(m, np.ndarray) and m.dtype.kind in "iu":
        bad = [v for v in m.ravel().tolist() if v not in _SIZE_SET]
        if not bad:
            return m
        m = bad[0]
    if not isinstance(m, (int, np.integer)):
        raise BadConstellation(f"constellation size must be an integer, got {m!r}")
    l = int(m).bit_length() - 1
    if m <= 1 or (1 << l) != m or l > MAX_BITS:
        raise BadConstellation(
            f"constellation size must be 2**l with 1 <= l <= {MAX_BITS}, got {m}")
    return int(m)


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def ser_qam(m, snr_per_symbol):
    """Square-QAM SER approximation 4(sqrt(M)-1)/sqrt(M) * Q(sqrt(3*snr/(M-1))),
    elementwise over broadcasting arrays of sizes and SNRs; scalars give a float.

    Taken as exact for all supported sizes (BPSK included); the value may
    exceed 1 at very low SNR, which is the documented contract.
    """
    m = np.asarray(_check_constellation(m), dtype=float)
    check_real("snr_per_symbol", snr_per_symbol)
    sm = np.sqrt(m)
    with np.errstate(over="ignore"):   # 3 snr may overflow; Q(inf) = 0 is right
        x = np.sqrt(3.0 * snr_per_symbol / (m - 1))
    return _scalar_or_array(4.0 * (sm - 1.0) / sm * q_function(x))


def ser_pem(m, snr_per_symbol):
    """Pulse-energy-modulation SER 2(M-1)/M * Q(snr'/(M-1)) with midpoint
    decisions, snr' = hP/sigma_rec; elementwise as ser_qam."""
    m = np.asarray(_check_constellation(m), dtype=float)
    check_real("snr_per_symbol", snr_per_symbol)
    return _scalar_or_array(2.0 * (m - 1.0) / m * q_function(snr_per_symbol / (m - 1)))


_SER_BY_FAMILY = {QAM: ser_qam, PEM: ser_pem}


def max_modulation(family: str, snr, ser_target):
    """Largest supported constellation meeting the SER target, or None.

    Over an array of SNRs (ser_target broadcasting against it) the result is
    an int array holding 0 where no size meets the target; the whole
    (SNR x size) SER table comes from one evaluation.
    """
    if family not in _SER_BY_FAMILY:
        raise InvalidParams(f"unknown modulation family {family!r}")
    check_real("ser_target", ser_target, hi=1.0, lo_open=True)
    snr = np.asarray(snr, dtype=float)
    meets = _SER_BY_FAMILY[family](_SIZES, snr[..., None]) \
        <= np.asarray(ser_target)[..., None]
    # the first size meeting the target, counted down from the largest
    m = np.where(meets.any(axis=-1), _SIZES[::-1][np.argmax(meets[..., ::-1], axis=-1)], 0)
    return (int(m) or None) if m.ndim == 0 else m


def p1_alpha(lp: LinkParams, p_s, q_req, rho):
    """Optimal off fraction of the separated receiver at a fixed split ratio:
    [(Q_req - rho zeta h P + P_S) / ((1-rho) zeta h P + P_S)]^+, elementwise
    over arrays (of the link's fields too, as for split_snr)."""
    num = q_req - rho * lp.q_max + p_s
    den = (1.0 - rho) * lp.q_max + p_s
    return _scalar_or_array(np.maximum(num / den, 0.0))


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


@dataclass(frozen=True)
class _Links:
    """The link fields the P1 planner reads, as (links, 1) columns; split_snr
    and p1_alpha take it in place of a LinkParams."""

    p: np.ndarray
    received_power: np.ndarray
    sigma2_a: np.ndarray
    sigma2_cov: np.ndarray
    q_max: np.ndarray


def _qam_thresholds(lk: _Links, ser_target: np.ndarray) -> np.ndarray:
    """Largest split ratio at which each QAM size 2**l meets the SER target,
    one row per link and one column per size.

    ser_qam(M, snr) <= target iff snr >= s_l = (M-1)/3 Q^-1(target sqrt(M) /
    (4 (sqrt(M)-1)))^2, and split_snr(rho) = s_l at 1 - rho = s_l sigma2_cov /
    (hP - s_l sigma2_a); a size with hP <= s_l sigma2_a is never feasible, and
    its threshold is 0, a split that is a candidate anyway.  Each threshold
    steps down, by gaps doubling from one ulp, until ser_qam itself meets the
    target, so that rounding cannot drop the size at its own threshold.
    """
    sizes = _SIZES.astype(float)
    sm = np.sqrt(sizes)
    z = math.sqrt(2.0) * _special("erfcinv")(2.0 * ser_target * sm / (4.0 * (sm - 1.0)))
    # Python's float ** 2 is libm's pow, which can round z*z the other way;
    # the thresholds keep pow so that every plan keeps its bits
    z2 = np.array([v ** 2 for v in np.maximum(z, 0.0).ravel().tolist()]).reshape(z.shape)
    s = (sizes - 1) / 3.0 * z2
    margin = lk.received_power - s * lk.sigma2_a
    ratio = np.divide(s * lk.sigma2_cov, margin, out=np.ones_like(margin), where=margin > 0)
    rho = np.minimum(np.maximum(1.0 - ratio, 0.0), _RHO_MAX)
    snr, gap = split_snr(rho, lk), np.zeros_like(rho)
    stepping = rho > 0.0
    while True:
        stepping &= ser_qam(_SIZES, snr) > ser_target
        if not stepping.any():
            return rho
        gap = np.where(stepping, np.maximum(2.0 * gap, np.spacing(rho)), gap)
        rho = np.where(stepping, np.maximum(rho - gap, 0.0), rho)
        snr = split_snr(rho, lk)
        stepping &= rho > 0.0


def _per_link(n: int, *values) -> list[list[float]]:
    """Each value, a scalar or a sequence of n, as a list of n floats."""
    lists = [np.asarray(v, dtype=float).tolist() for v in values]
    lists = [v if isinstance(v, list) else [v] * n for v in lists]
    if any(len(v) != n for v in lists):
        raise InvalidParams(f"expected a scalar or one value per link for {n} links")
    return lists


def solve_p1(links, p_s, q_req, ser_target) -> list[ModulationPlan]:
    """Maximize the separated receiver's QAM rate under SER and net-energy
    constraints: one plan per link, with p_s, q_req and ser_target each a
    scalar or one value per link, and each plan bit for bit its link's alone.

    The largest feasible size is a nonincreasing step function of rho with
    its steps at _qam_thresholds, while the on fraction 1 - alpha rises until
    it reaches 1 at rho0 = (Q_req + P_S) / (zeta h P).  So the optimum is one
    of rho = 0, rho0 and the thresholds, each clipped to [0, 1 - 1e-12].
    Ties break toward the smaller constellation, then the smaller split.
    """
    n = len(links)
    p_s, q_req, ser_target = _per_link(n, p_s, q_req, ser_target)
    for lp, ps, q, t in zip(links, p_s, q_req, ser_target):
        check_real("p_s", ps)
        _check_q_req(lp, q)
        check_real("ser_target", t, hi=1.0, lo_open=True)
    # at q_req = q_max the decoder is permanently off; no constellation is usable
    plans = [ModulationPlan(family=QAM, m=None, alpha=1.0, rho=1.0, rate=0.0)] * n
    live = [i for i, lp in enumerate(links) if q_req[i] != lp.q_max]
    if not live:
        return plans
    lk = _Links(*np.array([(links[i].p, links[i].received_power, links[i].sigma2_a,
                            links[i].sigma2_cov, links[i].q_max) for i in live]).T[..., None])
    p_s, q_req, ser_target = (np.array(v)[live, None] for v in (p_s, q_req, ser_target))
    rho0 = (q_req + p_s) / lk.q_max
    rhos = np.concatenate([np.zeros_like(rho0), np.minimum(rho0, _RHO_MAX),
                           _qam_thresholds(lk, ser_target)], axis=1)
    m = max_modulation(QAM, split_snr(rhos, lk), ser_target)
    # from rho0 on alpha is 0, which p1_alpha's cancellation can miss by an ulp;
    # a q_max so small that (1 - rho) q_max underflows makes p1_alpha 0/0 there
    # and +inf (alpha 1, the limit) below rho0 when p_s = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(rhos >= rho0, 0.0,
                         np.minimum(p1_alpha(lk, p_s, q_req, rhos), 1.0))
    bits = np.frexp(m)[1] - 1   # log2 of each size, exactly
    rate = np.where(m > 0, (1.0 - alpha) * bits, 0.0)
    # the largest rate, then the smaller constellation, then the smaller split
    best = np.arange(len(live)), np.lexsort((rhos, m, -rate))[:, 0]
    for i, mi, alpha_i, rho_i, rate_i in zip(live, *(a[best].tolist()
                                                     for a in (m, alpha, rhos, rate))):
        plans[i] = ModulationPlan(family=QAM, m=mi or None, alpha=alpha_i, rho=rho_i,
                                  rate=rate_i)
    return plans


def solve_p2(links, p_i, q_req, ser_target) -> list[ModulationPlan]:
    """Maximize the integrated receiver's PEM rate under SER and net-energy
    constraints, one plan per link as for solve_p1; the off fraction is
    closed-form, the split plays no role, and one max_modulation call sizes
    every link."""
    p_i, q_req, ser_target = _per_link(len(links), p_i, q_req, ser_target)
    for lp, pi, q in zip(links, p_i, q_req):
        check_real("p_i", pi)
        _check_q_req(lp, q)
        check_real("sigma2_rec of the integrated receiver", lp.sigma2_rec, lo_open=True)
    sizes = max_modulation(PEM, np.array([lp.received_power / lp.sigma_rec for lp in links]),
                           np.array(ser_target)).tolist()
    plans = []
    for lp, pi, q, m in zip(links, p_i, q_req, sizes):
        alpha = min(p2_alpha(lp, pi, q), 1.0)
        rate = (1.0 - alpha) * math.log2(m) if m else 0.0
        plans.append(ModulationPlan(family=PEM, m=m or None, alpha=alpha, rho=None, rate=rate))
    return plans


def link_budget_to_params(distance_m: float, tx_power_w: float, antenna_noise_dbm: float,
                          conv_noise_dbm: float, rec_noise_dbm: float,
                          zeta: float = 1.0) -> LinkParams:
    """Link at distance_m >= 1 with transmit power tx_power_w > 0: channel gain
    from the (-30 - 30 log10 d) dB attenuation law, noise powers and the
    rectifier noise std (a power-like std) from their dBm levels."""
    check_real("distance_m", distance_m, lo=1.0)
    check_real("tx_power_w", tx_power_w, lo_open=True)
    h = 10.0 ** ((-30.0 - 30.0 * math.log10(distance_m)) / 10.0)
    sigma_rec = dbm_to_watts(rec_noise_dbm)
    return LinkParams(
        h=h,
        p=tx_power_w,
        zeta=zeta,
        sigma2_a=dbm_to_watts(antenna_noise_dbm),
        sigma2_cov=dbm_to_watts(conv_noise_dbm),
        sigma2_rec=sigma_rec * sigma_rec,
    )
