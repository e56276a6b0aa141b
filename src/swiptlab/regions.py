"""Rate-energy region boundaries for both receivers, with and without
decoder circuit power.

Separated-receiver boundaries come from sweeping the split schedule; with
circuit power the optimal on-off pair per energy target is found by bisection
on the concave reduced objective R(s) = s*log2(1 + (cs+d)/(as+b)), s = 1-alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .capacity import (
    MiEstimate,
    MonteCarloConfig,
    cnl_lower_chi2,
    effective_proc_noise,
)
from .core import LinkParams, REBoundary, REPoint, awgn_rate, split_snr
from .errors import DegenerateCircuitPower, InfeasibleTarget, InvalidParams

LN2 = math.log(2.0)

# bisection stops when the s-interval is narrower than this
_BISECT_TOL = 1e-9
# closed-form reconstruction of rho may overshoot [0, 1] by float rounding
_RHO_SLACK = 1e-12


@dataclass(frozen=True)
class P0Solution:
    """Boundary point of the circuit-power separated-receiver region."""

    alpha_star: float
    rho_star: float
    rate: float       # bits/channel use
    q_target: float   # energy units, met with equality


@dataclass(frozen=True)
class RsCoefficients:
    """Coefficients of the reduced boundary objective and its feasible interval.

    a = sigma2_cov - sigma2_a*P_S/(zeta h P);  b = sigma2_a*(1 - Q/(zeta h P));
    c = -P_S/zeta;  d = hP*(1 - Q/(zeta h P));  s in [d/(hP - c), min(-d/c, 1)].
    """

    a: float
    b: float
    c: float
    d: float
    s_lo: float
    s_hi: float

    def rate(self, s):
        """R(s) = s log2(1 + (cs+d)/(as+b))."""
        s = np.asarray(s, dtype=float)
        out = s * np.log2(1.0 + (self.c * s + self.d) / (self.a * s + self.b))
        return float(out) if out.ndim == 0 else out

    def rate_deriv(self, s):
        """dR/ds, closed form."""
        s = np.asarray(s, dtype=float)
        num, den = self.c * s + self.d, self.a * s + self.b
        cross = self.b * self.c - self.a * self.d
        out = np.log2(1.0 + num / den) + s * cross / (
            ((self.a + self.c) * s + self.b + self.d) * den * LN2
        )
        return float(out) if out.ndim == 0 else out

    def rate_deriv2(self, s):
        """d2R/ds2, closed form; <= 0 on the feasible interval (concavity)."""
        s = np.asarray(s, dtype=float)
        cross = self.b * self.c - self.a * self.d
        line = (self.b * (self.a + self.c) + self.a * (self.b + self.d)) * s \
            + 2.0 * self.b * (self.b + self.d)
        out = cross * line / (
            (((self.a + self.c) * s + self.b + self.d) ** 2)
            * ((self.a * s + self.b) ** 2) * LN2
        )
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DominanceReport:
    """Comparison of a per-symbol split vector against the constant split with
    the same mean (equal harvested energy by construction)."""

    rate_dps: float
    rate_sps: float
    energy: float     # harvested energy of both schedules
    sps_dominates: bool

    @property
    def rate_gap(self) -> float:
        return self.rate_sps - self.rate_dps


def _check_points(n_points: int, minimum: int = 2):
    if n_points < minimum:
        raise InvalidParams(f"need at least {minimum} boundary points, got {n_points}")


def region_ts(lp: LinkParams, n_points: int = 512) -> REBoundary:
    """Time-switching boundary: the chord from (R_max, 0) to (0, zeta h P)."""
    _check_points(n_points)
    r_max = awgn_rate(lp)
    alphas = np.linspace(0.0, 1.0, n_points)
    pts = tuple(REPoint(float((1.0 - a) * r_max), float(a * lp.q_max)) for a in alphas)
    return REBoundary(points=pts, scheme="ts", receiver="separated")


def region_sps(lp: LinkParams, n_points: int = 512) -> REBoundary:
    """Static power splitting boundary swept over the split ratio."""
    _check_points(n_points)
    rhos = np.linspace(0.0, 1.0, n_points)
    pts = tuple(
        REPoint(float(math.log2(1.0 + split_snr(float(r), lp))), float(r * lp.q_max))
        for r in rhos
    )
    return REBoundary(points=pts, scheme="sps", receiver="separated")


def check_dps_dominated_by_sps(lp: LinkParams, rho_vector) -> DominanceReport:
    """Jensen comparison: averaging rates over a split vector never beats the
    constant split at the vector mean."""
    rho = np.asarray(rho_vector, dtype=float)
    if rho.size == 0 or np.any((rho < 0) | (rho > 1)):
        raise InvalidParams("split vector entries must lie in [0, 1]")
    rates = np.array([math.log2(1.0 + split_snr(float(r), lp)) for r in rho])
    mean_rho = float(np.mean(rho))
    rate_dps = float(np.mean(rates))
    rate_sps = math.log2(1.0 + split_snr(mean_rho, lp))
    return DominanceReport(
        rate_dps=rate_dps,
        rate_sps=rate_sps,
        energy=lp.q_max * mean_rho,
        sps_dominates=rate_sps >= rate_dps - 1e-12,
    )


def _cap_bits(cap) -> float:
    value = cap.value if isinstance(cap, MiEstimate) else float(cap)
    if not 0 <= value < math.inf:
        raise InvalidParams(f"capacity must be finite and >= 0, got {value}")
    return value


def region_int_ideal(lp: LinkParams, cap, n_points: int = 512) -> REBoundary:
    """Integrated receiver without circuit power: the box with corner
    (capacity, zeta h P)."""
    _check_points(n_points)
    c = _cap_bits(cap)
    energies = np.linspace(0.0, lp.q_max, n_points - 1)
    pts = tuple(REPoint(c, float(e)) for e in energies) + (REPoint(0.0, lp.q_max),)
    return REBoundary(points=pts, scheme="int-ideal", receiver="integrated")


def region_int_adc(lp: LinkParams, n_points: int,
                   cap_fn: Callable[[float], float]) -> REBoundary:
    """Integrated receiver with quantization noise: sweep the common split
    ratio and keep the Pareto frontier (rate falls as the effective processing
    noise grows with rho).  With zero quantization noise the rate is flat in
    rho and the frontier collapses to the ideal box corner, up to the sweep
    resolution."""
    _check_points(n_points)
    rhos = np.linspace(0.0, 1.0 - 1e-3, n_points)
    raw = [(float(cap_fn(float(r))), float(r * lp.q_max)) for r in rhos]
    # Pareto frontier: scan from high energy down, keep strictly improving rates
    pts: list[REPoint] = []
    best_rate = -math.inf
    for rate, energy in reversed(raw):
        if rate > best_rate:
            pts.append(REPoint(rate, energy))
            best_rate = rate
    pts.reverse()
    return REBoundary(points=tuple(pts), scheme="int-adc", receiver="integrated")


def int_adc_cap_fn(lp: LinkParams, mc: MonteCarloConfig) -> Callable[[float], float]:
    """The rate region_int_adc sweeps: the chi-square-input MI at split ratio
    rho, with the ADC noise folded into the effective processing noise."""
    def cap_fn(rho: float) -> float:
        eff = effective_proc_noise(lp.sigma2_rec, lp.sigma2_adc, rho)
        return cnl_lower_chi2(lp.received_power, lp.sigma2_a, eff, mc).value
    return cap_fn


def _check_p_s(p_s: float):
    if not 0 <= p_s < math.inf:
        raise InvalidParams(f"p_s must be finite and >= 0, got {p_s}")


def rs_coefficients(lp: LinkParams, p_s: float, q_target: float) -> RsCoefficients:
    """Reduced-objective coefficients for a fixed energy target."""
    _check_p_s(p_s)
    if p_s == 0:
        raise DegenerateCircuitPower("rs_coefficients needs p_s > 0")
    q_max = lp.q_max
    if not 0 <= q_target < q_max:
        raise InfeasibleTarget(
            f"energy target {q_target} outside [0, {q_max}) (handle q = q_max upstream)")
    hp = lp.received_power
    rel = 1.0 - q_target / q_max
    a = lp.sigma2_cov - lp.sigma2_a * p_s / q_max
    b = lp.sigma2_a * rel
    c = -p_s / lp.zeta
    d = hp * rel
    s_lo = d / (hp - c)
    s_hi = min(-d / c, 1.0)
    return RsCoefficients(a=a, b=b, c=c, d=d, s_lo=s_lo, s_hi=s_hi)


def _rho_from_alpha(lp: LinkParams, p_s: float, q_target: float, alpha: float) -> float:
    """Split ratio meeting the energy constraint with equality at a given alpha."""
    rho = (q_target - alpha * lp.q_max + (1.0 - alpha) * p_s) / ((1.0 - alpha) * lp.q_max)
    if rho < -_RHO_SLACK or rho > 1.0 + _RHO_SLACK:
        raise InvalidParams(f"reconstructed rho = {rho} outside [0, 1] beyond slack")
    return min(max(rho, 0.0), 1.0)


def solve_p0(lp: LinkParams, p_s: float, q_target: float) -> P0Solution:
    """Maximize the decoder rate subject to a net harvested-energy target.

    The energy constraint binds at the optimum, reducing the problem to the
    concave R(s) on its feasible interval; the stationary point is found by
    bisection on dR/ds, with endpoint optima taken when the derivative does
    not change sign.
    """
    _check_p_s(p_s)
    if p_s == 0:
        raise DegenerateCircuitPower(
            "p_s = 0 has no on-off tradeoff; use region_sps for the ideal boundary")
    q_max = lp.q_max
    if q_target < 0 or q_target > q_max:
        raise InfeasibleTarget(f"energy target {q_target} outside [0, {q_max}]")
    if q_target == q_max:
        return P0Solution(alpha_star=1.0, rho_star=1.0, rate=0.0, q_target=q_target)

    co = rs_coefficients(lp, p_s, q_target)
    lo, hi = co.s_lo, co.s_hi
    nudge = 1e-12 * max(hi - lo, 1.0)
    if co.rate_deriv(lo + nudge) <= 0.0:
        s_star = lo
    elif co.rate_deriv(hi - nudge) >= 0.0:
        s_star = hi
    else:
        a, b = lo, hi
        while b - a > _BISECT_TOL:
            mid = 0.5 * (a + b)
            if co.rate_deriv(mid) > 0.0:
                a = mid
            else:
                b = mid
        s_star = 0.5 * (a + b)

    alpha = 1.0 - s_star
    rho = _rho_from_alpha(lp, p_s, q_target, alpha)
    rate = (1.0 - alpha) * math.log2(1.0 + split_snr(rho, lp))
    return P0Solution(alpha_star=alpha, rho_star=rho, rate=rate, q_target=q_target)


def region_sep_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Separated receiver with decoding circuit power: optimal on-off boundary
    swept over the net-energy target."""
    _check_points(n_points)
    qs = np.linspace(0.0, lp.q_max, n_points)
    pts = tuple(
        REPoint(solve_p0(lp, p_s, float(q)).rate, float(q)) for q in qs
    )
    return REBoundary(points=pts, scheme="ops-circuit", receiver="separated")


def region_ts_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Time switching with circuit power: the chord truncated where the net
    energy crosses zero."""
    _check_points(n_points)
    _check_p_s(p_s)
    r_max = awgn_rate(lp)
    # net energy alpha*q_max - (1-alpha)*p_s >= 0 from this alpha on
    alpha0 = p_s / (lp.q_max + p_s) if lp.q_max + p_s > 0 else 1.0
    alphas = np.linspace(alpha0, 1.0, n_points)
    pts = tuple(
        REPoint(float((1.0 - a) * r_max),
                float(max(a * lp.q_max - (1.0 - a) * p_s, 0.0)))
        for a in alphas
    )
    return REBoundary(points=pts, scheme="ts-circuit", receiver="separated")


def region_sps_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Always-on static split with circuit power, truncated at zero net energy."""
    _check_points(n_points)
    _check_p_s(p_s)
    if p_s >= lp.q_max:
        # decoder can never be energy-neutral: only the zero-energy point at rho = 1
        return REBoundary(points=(REPoint(0.0, 0.0),), scheme="sps-circuit",
                          receiver="separated")
    rho_min = p_s / lp.q_max
    rhos = np.linspace(rho_min, 1.0, n_points)
    pts = tuple(
        REPoint(float(math.log2(1.0 + split_snr(float(r), lp))),
                float(max(r * lp.q_max - p_s, 0.0)))
        for r in rhos
    )
    return REBoundary(points=pts, scheme="sps-circuit", receiver="separated")


def region_int_circuit(lp: LinkParams, p_i: float, cap,
                       n_points: int = 512) -> REBoundary:
    """Integrated receiver with circuit power.

    Below q_max the boundary is a vertical segment at the capacity followed by
    the chord to (0, q_max); when the circuit draw exceeds q_max only a scaled
    chord survives.
    """
    _check_points(n_points, minimum=3)
    if p_i < 0:
        raise InvalidParams(f"p_i must be >= 0, got {p_i}")
    c = _cap_bits(cap)
    q_max = lp.q_max
    if p_i < q_max:
        vertex_energy = q_max - p_i
        n1 = max(n_points // 2, 2)
        n2 = max(n_points - n1, 2)
        seg1 = [REPoint(c, float(e)) for e in np.linspace(0.0, vertex_energy, n1)]
        fracs = np.linspace(0.0, 1.0, n2 + 1)[1:]
        seg2 = [REPoint(float((1.0 - f) * c), float(vertex_energy + f * p_i))
                for f in fracs]
        pts = tuple(seg1 + seg2)
    else:
        if q_max == 0.0:
            pts = (REPoint(0.0, 0.0),)
        else:
            fracs = np.linspace(0.0, 1.0, n_points)
            pts = tuple(
                REPoint(float((1.0 - f) * q_max * c / p_i), float(f * q_max))
                for f in fracs
            )
    return REBoundary(points=pts, scheme="int-circuit", receiver="integrated")
