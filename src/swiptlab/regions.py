"""Rate-energy region boundaries for both receivers, with and without
decoder circuit power.

Each boundary is one (n, 2) array of (rate, energy) rows, built by array
expressions over its sweep.  Separated-receiver boundaries come from sweeping
the split schedule; with circuit power the optimal on-off pair per energy
target is found by bisection on the concave reduced objective
R(s) = s*log2(1 + (cs+d)/(as+b)), s = 1-alpha, for every target at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinkParams, REBoundary, awgn_rate, box_boundary, split_snr
from .errors import (
    DegenerateCircuitPower,
    InfeasibleTarget,
    InvalidParams,
    check_count,
    check_real,
)

LN2 = math.log(2.0)

# bisection stops when the s-interval is narrower than this
_BISECT_TOL = 1e-9
# closed-form reconstruction of rho may overshoot [0, 1] by float rounding
_RHO_SLACK = 1e-12


@dataclass(frozen=True)
class P0Solution:
    """Boundary points of the circuit-power separated-receiver region: floats
    for one energy target, arrays shaped like the targets for an array."""

    alpha_star: float | np.ndarray
    rho_star: float | np.ndarray
    rate: float | np.ndarray       # bits/channel use
    q_target: float | np.ndarray   # energy units, met with equality


@dataclass(frozen=True)
class RsCoefficients:
    """Coefficients of the reduced boundary objective and its feasible interval.

    a = sigma2_cov - sigma2_a*P_S/(zeta h P);  b = sigma2_a*(1 - Q/(zeta h P));
    c = -P_S/zeta;  d = hP*(1 - Q/(zeta h P));  s in [d/(hP - c), min(-d/c, 1)].
    b, d, s_lo and s_hi are arrays for an array of targets Q.
    """

    a: float
    b: float | np.ndarray
    c: float
    d: float | np.ndarray
    s_lo: float | np.ndarray
    s_hi: float | np.ndarray

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


def _boundary(rates, energies, scheme: str, receiver: str) -> REBoundary:
    return REBoundary(points=np.column_stack((rates, energies)), scheme=scheme,
                      receiver=receiver)


def region_ts(lp: LinkParams, n_points: int = 512) -> REBoundary:
    """Time-switching boundary: the chord from (R_max, 0) to (0, zeta h P)."""
    alphas = np.linspace(0.0, 1.0, check_count("n_points", n_points, 2))
    return _boundary((1.0 - alphas) * awgn_rate(lp), alphas * lp.q_max, "ts", "separated")


def region_sps(lp: LinkParams, n_points: int = 512) -> REBoundary:
    """Static power splitting boundary swept over the split ratio."""
    rhos = np.linspace(0.0, 1.0, check_count("n_points", n_points, 2))
    return _boundary(np.log2(1.0 + split_snr(rhos, lp)), rhos * lp.q_max, "sps", "separated")


def region_int_ideal(lp: LinkParams, cap: float, n_points: int = 512) -> REBoundary:
    """Integrated receiver without circuit power: the box with corner
    (capacity, zeta h P); cap is the rate in bits."""
    return box_boundary(check_real("capacity", cap), lp.q_max, n_points, "int-ideal", "integrated")


def region_int_adc(lp: LinkParams, n_points: int) -> REBoundary:
    """Integrated receiver with quantization noise: sweep the split ratio
    rho over [0, 0.999] at the effective processing noise sigma2_rec +
    sigma2_adc / (1 - rho)^2, one rate per distinct noise, and keep the
    Pareto frontier.  Every noise is checked before the first rate; an
    overflow raises InvalidParams naming the first such rho.  With zero ADC
    noise the rate is flat in rho and the frontier collapses to the ideal box
    corner, up to the sweep resolution."""
    rhos = np.linspace(0.0, 1.0 - 1e-3, check_count("n_points", n_points, 2))
    with np.errstate(over="ignore"):
        noises = lp.sigma2_rec + lp.sigma2_adc / (1.0 - rhos) ** 2
    bad = ~np.isfinite(noises)
    if bad.any():
        raise InvalidParams(f"effective processing noise overflows: sigma2_adc={lp.sigma2_adc:g} "
                            f"/ (1 - rho)^2 at rho={rhos[bad][0]:g}")
    distinct, which = np.unique(noises, return_inverse=True)
    rates = np.array([int_rate(lp, float(noise)).value for noise in distinct])[which]
    # Pareto frontier: keep a point whose rate strictly beats every rate at
    # higher energy
    best_above = np.append(np.fmax.accumulate(rates[:0:-1])[::-1], -math.inf)
    keep = rates > best_above
    return _boundary(rates[keep], rhos[keep] * lp.q_max, "int-adc", "integrated")


def int_rate(lp: LinkParams, sigma2_rec: float):
    """The chi-square-input rate of lp's integrated receiver at processing
    noise sigma2_rec, as a chi2rate.RateBound.  chi2rate is imported here,
    at the first rate, so that the CLI's start-up does not compile it."""
    from .chi2rate import cnl_rate_chi2
    return cnl_rate_chi2(lp.received_power, lp.sigma2_a, sigma2_rec)


def _energy_targets(q_target, q_max: float, closed: bool) -> np.ndarray:
    """The targets as an array: finite (else InvalidParams) and within
    [0, q_max], or [0, q_max) unless closed (else InfeasibleTarget)."""
    q = np.asarray(q_target, dtype=float)
    bad = ~np.isfinite(q)
    if bad.any():
        raise InvalidParams(f"energy target must be finite, got {np.extract(bad, q)[0]}")
    bad = (q < 0) | ((q > q_max) if closed else (q >= q_max))
    if bad.any():
        raise InfeasibleTarget(f"energy target {np.extract(bad, q)[0]} outside "
                               f"[0, {q_max}{']' if closed else ')'}")
    return q


def rs_coefficients(lp: LinkParams, p_s: float, q_target) -> RsCoefficients:
    """Reduced-objective coefficients for one energy target or an array."""
    if check_real("p_s", p_s) == 0:
        raise DegenerateCircuitPower(
            "p_s = 0 has no on-off tradeoff; use region_sps for the ideal boundary")
    q_max = lp.q_max
    hp = lp.received_power
    rel = 1.0 - _energy_targets(q_target, q_max, closed=False) / q_max
    # with q_max = 0 no target is feasible, so only an empty batch gets here
    a = lp.sigma2_cov - (lp.sigma2_a * p_s / q_max if q_max > 0 else 0.0)
    b = lp.sigma2_a * rel
    c = -p_s / lp.zeta
    d = hp * rel
    s_lo = d / (hp - c)
    s_hi = np.minimum(-d / c, 1.0)
    return RsCoefficients(a=a, b=b, c=c, d=d, s_lo=s_lo, s_hi=s_hi)


def _rho_from_split(lp: LinkParams, p_s: float, q_target, s):
    """Split ratio meeting the energy constraint with equality at on fraction s:
    rho = 1 + P_S/(zeta h P) - rel/s, with rel = 1 - Q/(zeta h P) rounded as
    in rs_coefficients.  s came from that rel, so near Q = zeta h P the two
    cancellations match and rho stays in [0, 1]."""
    rho = 1.0 + p_s / lp.q_max - (1.0 - q_target / lp.q_max) / s
    bad = (rho < -_RHO_SLACK) | (rho > 1.0 + _RHO_SLACK)
    if np.any(bad):
        raise InvalidParams(
            f"reconstructed rho = {np.extract(bad, rho)[0]} outside [0, 1] beyond slack")
    return np.clip(rho, 0.0, 1.0)


def solve_p0(lp: LinkParams, p_s: float, q_target) -> P0Solution:
    """Maximize the decoder rate subject to a net harvested-energy target.

    The energy constraint binds at the optimum, reducing the problem to the
    concave R(s) on its feasible interval; the stationary point is found by
    bisection on dR/ds, with endpoint optima taken when the derivative does
    not change sign.  q_target is one target or an array; every target is
    bisected at once, each through the same midpoints as on its own.
    """
    q_max = lp.q_max
    q = _energy_targets(q_target, q_max, closed=True)
    qs = np.atleast_1d(q)
    # q = q_max is the full-harvest point: alpha = rho = 1, rate 0; at q_max = 0
    # it is the only feasible target
    alpha, rho, rate = np.ones_like(qs), np.ones_like(qs), np.zeros_like(qs)
    inner = qs < q_max
    q_in = qs[inner]

    co = rs_coefficients(lp, p_s, q_in)   # checks p_s, for an empty batch too
    if q_in.size and lp.sigma2_a + lp.sigma2_cov <= 0:
        # a noiseless decoder path (p > 0, as q_max > 0): split_snr raises its
        # ZeroNoise here, before the bisection meets dR/ds = 0/0
        split_snr(0.0, lp)
    # an interval no wider than the endpoint nudge (every one when p_s >> q_max)
    # is far below the bisection tolerance, and dR/ds can be 0/0 inside it: s*
    # is its lower end, where rho = 0 meets the target exactly
    width = co.s_hi - co.s_lo
    fits = 1e-12 * np.maximum(width, 1.0) < width
    s_star, rho_in = co.s_lo.copy(), np.zeros_like(q_in)
    co = rs_coefficients(lp, p_s, q_in[fits])
    lo, hi = co.s_lo, co.s_hi
    nudge = 1e-12 * np.maximum(hi - lo, 1.0)
    at_lo = co.rate_deriv(lo + nudge) <= 0.0
    at_hi = ~at_lo & (co.rate_deriv(hi - nudge) >= 0.0)
    a, b = lo, hi
    live = ~(at_lo | at_hi) & (b - a > _BISECT_TOL)
    while live.any():
        mid = 0.5 * (a + b)
        up = co.rate_deriv(mid) > 0.0
        a = np.where(live & up, mid, a)
        b = np.where(live & ~up, mid, b)
        live &= b - a > _BISECT_TOL
    s_star[fits] = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (a + b)))

    if q_in.size:   # never at q_max = 0, where _rho_from_split cannot divide
        # at the lower end of a fitting interval rho = 0 meets the target exactly
        # too; rebuilding it there loses p_s/q_max ulps, beyond the slack when
        # p_s >> q_max
        solved = np.flatnonzero(fits)[~at_lo]
        rho_in[solved] = _rho_from_split(lp, p_s, q_in[solved], s_star[solved])
        alpha[inner] = 1.0 - s_star
        rho[inner] = rho_in
        # the on fraction is 1 - alpha, or s* itself where alpha rounds it away
        on = np.where(fits, 1.0 - alpha[inner], s_star)
        rate[inner] = on * np.log2(1.0 + split_snr(rho_in, lp))
    return P0Solution(*(x if q.ndim else float(x[0]) for x in (alpha, rho, rate, qs)))


def region_sep_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Separated receiver with decoding circuit power: optimal on-off boundary
    swept over the net-energy target."""
    qs = np.linspace(0.0, lp.q_max, check_count("n_points", n_points, 2))
    return _boundary(solve_p0(lp, p_s, qs).rate, qs, "ops-circuit", "separated")


def region_ts_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Time switching with circuit power: the chord truncated where the net
    energy crosses zero."""
    check_count("n_points", n_points, 2)
    check_real("p_s", p_s)
    r_max = awgn_rate(lp)
    # net energy alpha*q_max - (1-alpha)*p_s >= 0 from this alpha on
    alpha0 = p_s / (lp.q_max + p_s) if lp.q_max + p_s > 0 else 1.0
    alphas = np.linspace(alpha0, 1.0, n_points)
    return _boundary((1.0 - alphas) * r_max,
                     np.maximum(alphas * lp.q_max - (1.0 - alphas) * p_s, 0.0),
                     "ts-circuit", "separated")


def region_sps_circuit(lp: LinkParams, p_s: float, n_points: int = 512) -> REBoundary:
    """Always-on static split with circuit power, truncated at zero net energy;
    at p_s >= q_max every point is (0, 0), at rho = 1."""
    check_count("n_points", n_points, 2)
    rho_min = p_s / lp.q_max if check_real("p_s", p_s) < lp.q_max else 1.0
    rhos = np.linspace(rho_min, 1.0, n_points)
    return _boundary(np.log2(1.0 + split_snr(rhos, lp)),
                     np.maximum(rhos * lp.q_max - p_s, 0.0), "sps-circuit", "separated")


def region_int_circuit(lp: LinkParams, p_i: float, cap: float,
                       n_points: int = 512) -> REBoundary:
    """Integrated receiver with circuit power.

    Decoding all the time nets q_max - p_i; when that is negative, decoding
    can run only q_max / p_i of the time.  The boundary is a vertical segment
    at the rate of that vertex, (cap * min(1, q_max / p_i), max(q_max - p_i, 0)),
    followed by the chord to (0, q_max).
    """
    check_count("n_points", n_points, 3)
    check_real("p_i", p_i)
    c = check_real("capacity", cap)
    q_max = lp.q_max
    vertex_rate = c * q_max / p_i if p_i > q_max else c
    vertex_energy = max(q_max - p_i, 0.0)
    n1 = max(n_points // 2, 2)
    fracs = np.linspace(0.0, 1.0, max(n_points - n1, 2) + 1)[1:]
    rates = np.append(np.full(n1, vertex_rate), (1.0 - fracs) * vertex_rate)
    energies = np.append(np.linspace(0.0, vertex_energy, n1),
                         vertex_energy + fracs * min(p_i, q_max))
    return _boundary(rates, energies, "int-circuit", "integrated")
