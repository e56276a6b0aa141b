"""Shared independent oracles for the test suite.

These deliberately avoid the library's solver paths: the grid oracle works on
the raw (alpha, rho) formulation, the difference oracles use only function
values and the rectifier reference filters the whole waveform record in the
frequency domain.  The QAM and PEM references are the whole-array
simulators that the streaming ones replaced: they draw every symbol at once,
or block by block when given a block size, and then detect the whole record.
"""

import math

import numpy as np
from scipy.integrate import quad

from swiptlab.core import LinkParams, split_snr
from swiptlab.simkit import _CHUNK_SYMBOLS, DiodeModel, SimConfig, _detect_levels, _qam_levels


# 95% normal-approximation half-width factor
CI_FACTOR = 1.959963984540054


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


def jensen_rates(lp: LinkParams, rho_vector) -> tuple[float, float]:
    """(rate of the constant split at the vector's mean, mean rate of the
    per-symbol splits); both schedules harvest q_max * mean(rho_vector)."""
    vec = np.asarray(rho_vector, dtype=float)
    return (math.log2(1.0 + split_snr(float(np.mean(vec)), lp)),
            float(np.mean(np.log2(1.0 + split_snr(vec, lp)))))


def _draw(rng, n, block, draws):
    """Call each of draws(rng, k) in turn per block of k <= block symbols
    (one block of n when block is None) and concatenate each draw's blocks."""
    size = n if block is None else block
    parts = [[] for _ in draws]
    for start in range(0, n, size):
        k = min(size, n - start)
        for part, draw in zip(parts, draws):
            part.append(draw(rng, k))
    return [np.concatenate(p) for p in parts]


def fft_rectifier_dc(lp: LinkParams, diode: DiodeModel, cfg: SimConfig,
                     constant_envelope: bool = False) -> float:
    """Rectifier dc_mean by the whole-record route: synthesize every symbol's
    passband samples at once, zero every rfft bin above the bandwidth (an
    ideal brick-wall low-pass), invert, and average, divided by a2.  Draws
    the symbols and noise as simulate_rectifier_waveform does, signal then
    noise per block of _CHUNK_SYMBOLS symbols."""
    f = cfg.carrier_hz
    spp = int(round(f / cfg.bandwidth_hz)) * cfg.oversampling
    n = cfg.n_symbols
    nstd = math.sqrt(lp.sigma2_a / 2.0)
    draws = [] if constant_envelope else [lambda r, k: r.standard_normal(k)] * 2
    if lp.sigma2_a > 0:
        draws += [lambda r, k: nstd * r.standard_normal(k)] * 2
    parts = _draw(np.random.default_rng(cfg.seed), n, _CHUNK_SYMBOLS, draws)
    if constant_envelope:
        x = np.ones(n, dtype=complex)
    else:
        x = (parts.pop(0) + 1j * parts.pop(0)) / math.sqrt(2.0)
    na = parts[0] + 1j * parts[1] if parts else 0.0
    envelope = math.sqrt(lp.received_power) * x * np.exp(1j * lp.theta) + na
    dt = 1.0 / (f * cfg.oversampling)
    phase = 2.0 * math.pi * f * dt * np.arange(spp)
    y = math.sqrt(2.0) * (np.outer(envelope.real, np.cos(phase))
                          - np.outer(envelope.imag, np.sin(phase))).reshape(-1)
    i_t = sum(diode.coefficient(k) * y ** k
              for k in range(1, diode.truncation_order + 1))
    spectrum = np.fft.rfft(i_t)
    freqs = np.fft.rfftfreq(len(i_t), d=dt)
    filtered = np.fft.irfft(np.where(freqs <= cfg.bandwidth_hz, spectrum, 0.0),
                            n=len(i_t))
    return float(np.mean(filtered)) / diode.coefficient(2)


def qam_record(lp: LinkParams, rho: float, m: int, cfg: SimConfig,
               noise_scale: float = 1.0, block=None):
    """Whole-record QAM simulation of the split channel.  Returns the error
    indicators, the per-symbol energies |s|^2 and the importance-sampling
    weights (zero where there is no error; the indicators when noise_scale
    is 1)."""
    levels_i, levels_q, delta = _qam_levels(m)
    sigma2_eff = (1.0 - rho) * lp.sigma2_a + lp.sigma2_cov
    nstd = math.sqrt(sigma2_eff / 2.0) * noise_scale
    rng = np.random.default_rng(cfg.seed)
    ii, qq, noise_i, noise_q = _draw(rng, cfg.n_symbols, block, [
        lambda r, k: r.integers(0, len(levels_i), size=k),
        lambda r, k: r.integers(0, len(levels_q), size=k),
        lambda r, k: nstd * r.standard_normal(k),
        lambda r, k: nstd * r.standard_normal(k)])
    sym_i, sym_q = levels_i[ii], levels_q[qq]
    amp = math.sqrt((1.0 - rho) * lp.received_power)
    spacing = amp * delta
    err = (_detect_levels(amp * sym_i + noise_i, len(levels_i), spacing) != ii) \
        | (_detect_levels(amp * sym_q + noise_q, len(levels_q), spacing) != qq)
    if noise_scale == 1.0:
        weighted = err.astype(float)
    else:
        k2 = noise_scale * noise_scale
        mag2 = (noise_i * noise_i + noise_q * noise_q) / (sigma2_eff / 2.0)
        log_w = math.log(k2) - 0.5 * mag2 * (1.0 - 1.0 / k2)
        weighted = np.where(err, np.exp(log_w), 0.0)
    return err, sym_i ** 2 + sym_q ** 2, weighted


def qam_separated_reference(lp: LinkParams, rho: float, m: int, cfg: SimConfig,
                            noise_scale: float = 1.0, block=None) -> dict:
    """simulate_qam_separated's outputs computed over the whole record."""
    n = cfg.n_symbols
    err, energies, weighted = qam_record(lp, rho, m, cfg, noise_scale, block)
    if noise_scale == 1.0:
        ser = float(np.mean(err))
        ci = CI_FACTOR * math.sqrt(ser * (1.0 - ser) / n) if 0.0 < ser < 1.0 else 3.0 / n
    else:
        ser = float(np.mean(weighted))
        ci = CI_FACTOR * float(np.std(weighted, ddof=1)) / math.sqrt(n)
    energy = lp.zeta * rho * lp.received_power * float(np.mean(energies))
    return {"ser_hat": ser, "ci_halfwidth": ci, "n_symbols": n, "seed": cfg.seed,
            "energy_hat": energy}


def pem_integrated_reference(lp: LinkParams, m: int, cfg: SimConfig,
                             block=None) -> dict:
    """simulate_pem_integrated's outputs computed over the whole record."""
    n = cfg.n_symbols
    astd = math.sqrt(lp.sigma2_a / 2.0)
    draws = [lambda r, k: r.integers(0, m, size=k)]
    if lp.sigma2_a > 0:
        draws += [lambda r, k: astd * r.standard_normal(k)] * 2
    if lp.sigma2_rec > 0:
        draws.append(lambda r, k: lp.sigma_rec * r.standard_normal(k))
    idx, *noise = _draw(np.random.default_rng(cfg.seed), n, block, draws)
    power_levels = 2.0 * np.arange(m) / (m - 1)
    amp = np.sqrt(lp.received_power * power_levels[idx])
    w = (amp + noise[0]) ** 2 + noise[1] ** 2 if lp.sigma2_a > 0 else amp * amp
    y = w + noise[-1] if lp.sigma2_rec > 0 else w
    normalized = y / lp.received_power
    det = np.clip(np.rint(normalized * (m - 1) / 2.0), 0, m - 1).astype(np.int64)
    ser = float(np.mean(det != idx))
    ci = CI_FACTOR * math.sqrt(ser * (1.0 - ser) / n) if 0.0 < ser < 1.0 else 3.0 / n
    return {"ser_hat": ser, "ci_halfwidth": ci, "n_symbols": n, "seed": cfg.seed}
