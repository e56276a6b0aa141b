"""Shared independent oracles for the test suite.

These deliberately avoid the library's solver paths: the grid oracle works on
the raw (alpha, rho) formulation, the difference oracles use only function
values and the rectifier reference filters the whole waveform record in the
frequency domain.
"""

import math

import numpy as np
from scipy.integrate import quad

from swiptlab.core import LinkParams, OpsPair, SplitVector, harvested_energy
from swiptlab.simkit import DiodeModel, SimConfig


def gaussian_tail_oracle(x):
    """Independent Q-function reference: direct numerical integration of the
    normal pdf over the tail (reflected for negative arguments)."""
    if x < 0:
        return 1.0 - gaussian_tail_oracle(-x)
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                  x, x + 60.0, epsabs=1e-16, epsrel=1e-13, limit=200)
    return val


def p0_grid_oracle(lp: LinkParams, p_s: float, q_target: float,
                   resolution: int = 2000, zooms: int = 2,
                   window: int = 32) -> float:
    """Brute-force boundary rate: feasible-grid max of (1-a)*log2(1+tau(rho))
    at 'resolution' points per axis, re-gridded twice around the incumbent."""
    hp = lp.received_power
    qm = lp.q_max
    a_lo, a_hi = 0.0, 1.0
    r_lo, r_hi = 0.0, 1.0
    best = -np.inf
    for _ in range(zooms + 1):
        al = np.linspace(a_lo, a_hi, resolution)
        rh = np.linspace(r_lo, r_hi, resolution)
        aa = al[:, None]
        rr = rh[None, :]
        net = aa * qm + (1.0 - aa) * rr * qm - (1.0 - aa) * p_s
        tau = (1.0 - rr) * hp / ((1.0 - rr) * lp.sigma2_a + lp.sigma2_cov)
        rate = (1.0 - aa) * np.log2(1.0 + tau)
        rate[net < q_target] = -np.inf
        i, j = np.unravel_index(np.argmax(rate), rate.shape)
        best = max(best, rate[i, j])
        da = window * (a_hi - a_lo) / (resolution - 1)
        dr = window * (r_hi - r_lo) / (resolution - 1)
        a_lo, a_hi = max(0.0, al[i] - da), min(1.0, al[i] + da)
        r_lo, r_hi = max(0.0, rh[j] - dr), min(1.0, rh[j] + dr)
    return float(max(best, 0.0))


def central_diff1(f, s, h):
    return (f(s + h) - f(s - h)) / (2.0 * h)


def central_diff2(f, s, h):
    return (f(s + h) - 2.0 * f(s) + f(s - h)) / (h * h)


def random_circuit_instance(rng):
    """Feasible (LinkParams, p_s, q_target) triple with moderate scales."""
    lp = LinkParams(
        h=rng.uniform(0.3, 2.0),
        p=rng.uniform(20.0, 300.0),
        zeta=rng.uniform(0.3, 1.0),
        sigma2_a=rng.uniform(0.05, 3.0),
        sigma2_cov=rng.uniform(1.0, 20.0),
    )
    p_s = rng.uniform(0.05, 0.8) * lp.q_max
    q_target = rng.uniform(0.0, 0.95) * lp.q_max
    return lp, p_s, q_target


def dominance_energy_matches(rep, lp: LinkParams, rho_vector) -> bool:
    """A dominance report's energy is what both compared schedules harvest:
    the per-symbol split vector and the constant split at its mean, each from
    harvested_energy, to 1e-12 relative."""
    vec = tuple(float(r) for r in rho_vector)
    expected = (harvested_energy(SplitVector(vec), lp),
                harvested_energy(OpsPair(0.0, math.fsum(vec) / len(vec)), lp))
    return all(math.isclose(rep.energy, e, rel_tol=1e-12) for e in expected)


def fft_rectifier_dc(lp: LinkParams, diode: DiodeModel, cfg: SimConfig,
                     constant_envelope: bool = False) -> float:
    """Rectifier dc_mean by the whole-record route: synthesize every symbol's
    passband samples at once, zero every rfft bin above the bandwidth (an
    ideal brick-wall low-pass), invert, and average, divided by a2.  Draws
    the symbols and noise as simulate_rectifier_waveform does."""
    f = cfg.carrier_hz
    spp = int(round(f / cfg.bandwidth_hz)) * cfg.oversampling
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    if constant_envelope:
        x = np.ones(n, dtype=complex)
    else:
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    if lp.sigma2_a > 0:
        nstd = math.sqrt(lp.sigma2_a / 2.0)
        na = nstd * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        na = np.zeros(n, dtype=complex)
    dt = 1.0 / (f * cfg.oversampling)
    phase = 2.0 * math.pi * f * dt * np.arange(spp)
    envelope = math.sqrt(lp.received_power) * x * np.exp(1j * lp.theta) + na
    y = math.sqrt(2.0) * (np.outer(envelope.real, np.cos(phase))
                          - np.outer(envelope.imag, np.sin(phase))).reshape(-1)
    i_t = sum(diode.coefficient(k) * y ** k
              for k in range(1, diode.truncation_order + 1))
    spectrum = np.fft.rfft(i_t)
    freqs = np.fft.rfftfreq(len(i_t), d=dt)
    filtered = np.fft.irfft(np.where(freqs <= cfg.bandwidth_hz, spectrum, 0.0),
                            n=len(i_t))
    return float(np.mean(filtered)) / diode.coefficient(2)
