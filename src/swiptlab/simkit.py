"""Independent Monte Carlo oracles for the closed-form link quantities.

Symbol-level simulators reproduce both receiver chains sample by sample;
the waveform simulator synthesizes the passband signal a block of symbols at a
time, pushes it through a truncated diode polynomial, and projects each
symbol's current onto the carrier harmonics.  Its DC term is the component
the energy-harvesting model predicts; the harmonic powers are checked against
their closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LinkParams
from .errors import AliasedCarrier, InvalidParams
from .modulation import _check_constellation

# 95% normal-approximation half-width factor for binomial confidence intervals
_CI_FACTOR = 1.959963984540054
# symbols per block of the waveform oracle: its working set is a few
# _CHUNK_SYMBOLS x samples-per-symbol arrays, whatever n_symbols is
_CHUNK_SYMBOLS = 2048


def _binomial_ci(p_hat: float, n: int) -> float:
    if 0.0 < p_hat < 1.0:
        return _CI_FACTOR * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return 3.0 / n  # rule of three when no (or only) errors were observed


@dataclass(frozen=True)
class DiodeModel:
    """Schottky diode small-signal model, i(t) = i_s (exp(gamma*v) - 1).

    Taylor coefficients a_n = i_s * gamma^n / n!; truncation at order 2
    reproduces the square-law harvesting model.  Defaults are the physical
    conventions (1 uA saturation current, 25 mV thermal voltage).
    """

    i_s: float = 1e-6
    gamma: float = 40.0
    truncation_order: int = 2

    def __post_init__(self):
        if not (0 < self.i_s < math.inf and 0 < self.gamma < math.inf):
            raise InvalidParams(
                f"diode constants must be finite and > 0, got i_s={self.i_s}, "
                f"gamma={self.gamma}")
        if self.truncation_order < 2:
            raise InvalidParams("truncation order must be >= 2")
        try:
            self.coefficients()
        except OverflowError:
            raise InvalidParams(
                f"diode coefficients overflow at gamma={self.gamma}, order "
                f"{self.truncation_order}") from None

    def coefficient(self, n: int) -> float:
        return self.i_s * self.gamma ** n / math.factorial(n)

    def coefficients(self) -> list[float]:
        """a_1 .. a_K for the truncation order K."""
        return [self.coefficient(k) for k in range(1, self.truncation_order + 1)]


@dataclass(frozen=True)
class SimConfig:
    """Trial count, RNG seed and (for waveform mode) sampling parameters.

    carrier_hz / bandwidth_hz must be an integer ratio >= 8 so every symbol
    holds complete carrier cycles (narrowband assumption, exact harmonic
    cancellation in the time average).
    """

    n_symbols: int = 100_000
    seed: int = 0
    oversampling: int = 8          # samples per carrier period
    carrier_hz: float = 16.0
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        if self.n_symbols < 1:
            raise InvalidParams("n_symbols must be >= 1")
        if self.oversampling < 8:
            raise InvalidParams("oversampling must be >= 8")
        if not (0 < self.carrier_hz < math.inf and 0 < self.bandwidth_hz < math.inf):
            raise InvalidParams(
                f"carrier and bandwidth must be finite and > 0, got carrier_hz="
                f"{self.carrier_hz}, bandwidth_hz={self.bandwidth_hz}")
        ratio = self.carrier_hz / self.bandwidth_hz
        if not 8 <= ratio < math.inf or abs(ratio - round(ratio)) > 1e-9:
            raise InvalidParams("carrier/bandwidth must be a finite integer ratio >= 8")


@dataclass(frozen=True)
class SerResult:
    """Empirical symbol error rate with a 95% confidence half-width."""

    ser_hat: float
    ci_halfwidth: float
    n_symbols: int
    seed: int
    energy_hat: float | None = None

    def to_json_dict(self) -> dict:
        d = {"ser_hat": self.ser_hat, "ci_halfwidth": self.ci_halfwidth,
             "n_symbols": self.n_symbols, "seed": self.seed}
        if self.energy_hat is not None:
            d["energy_hat"] = self.energy_hat
        return d


@dataclass(frozen=True)
class RectifierResult:
    """Time-averaged rectifier DC output, normalized by the square-law
    coefficient a2, and the harmonic check.

    harmonic_error is the largest, over carrier harmonics n = 0..K, of
    |measured - closed-form| total power at harmonic n divided by the larger of
    the closed-form DC power and the closed-form power at n.
    """

    dc_mean: float
    harmonic_error: float
    n_symbols: int
    seed: int

    def to_json_dict(self) -> dict:
        return {"dc_mean": self.dc_mean, "harmonic_error": self.harmonic_error,
                "n_symbols": self.n_symbols, "seed": self.seed}


def _qam_levels(m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-dimension level grids of a unit-average-energy rectangular QAM."""
    l = m.bit_length() - 1
    n_i = 1 << ((l + 1) // 2)
    n_q = 1 << (l // 2)
    delta = math.sqrt(3.0 / (n_i * n_i + n_q * n_q - 2))
    levels_i = delta * (2.0 * np.arange(n_i) - n_i + 1)
    levels_q = delta * (2.0 * np.arange(n_q) - n_q + 1)
    return levels_i, levels_q, delta


def _detect_levels(values: np.ndarray, n_levels: int, spacing: float) -> np.ndarray:
    idx = np.rint((values / spacing + n_levels - 1) / 2.0)
    return np.clip(idx, 0, n_levels - 1).astype(np.int64)


def simulate_qam_separated(lp: LinkParams, rho: float, m: int, cfg: SimConfig,
                           noise_scale: float = 1.0) -> SerResult:
    """Symbol simulation of the split linear channel with minimum-distance
    QAM detection.

    noise_scale > 1 switches to importance sampling: noise is drawn with the
    inflated std and every error event carries the analytic likelihood ratio,
    for symbol error rates far below 1/n_symbols.
    """
    m = _check_constellation(m)
    if not 0 <= rho < 1:
        raise InvalidParams(f"rho must lie in [0, 1), got {rho}")
    if not 1.0 <= noise_scale < math.inf:
        raise InvalidParams(f"noise_scale must be finite and >= 1, got {noise_scale}")
    sigma2_eff = (1.0 - rho) * lp.sigma2_a + lp.sigma2_cov
    if sigma2_eff <= 0:
        raise InvalidParams("split-path noise must be > 0 for detection")

    levels_i, levels_q, delta = _qam_levels(m)
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    ii = rng.integers(0, len(levels_i), size=n)
    qq = rng.integers(0, len(levels_q), size=n)
    sym_i, sym_q = levels_i[ii], levels_q[qq]

    amp = math.sqrt((1.0 - rho) * lp.received_power)
    nstd = math.sqrt(sigma2_eff / 2.0) * noise_scale
    noise_i = nstd * rng.standard_normal(n)
    noise_q = nstd * rng.standard_normal(n)
    rx_i = amp * sym_i + noise_i
    rx_q = amp * sym_q + noise_q

    spacing = amp * delta
    err = (_detect_levels(rx_i, len(levels_i), spacing) != ii) \
        | (_detect_levels(rx_q, len(levels_q), spacing) != qq)

    if noise_scale == 1.0:
        ser = float(np.mean(err))
        ci = _binomial_ci(ser, n)
    else:
        # likelihood ratio of the true vs inflated complex Gaussian noise
        k2 = noise_scale * noise_scale
        mag2 = (noise_i * noise_i + noise_q * noise_q) / (sigma2_eff / 2.0)
        log_w = math.log(k2) - 0.5 * mag2 * (1.0 - 1.0 / k2)
        weighted = np.where(err, np.exp(log_w), 0.0)
        ser = float(np.mean(weighted))
        ci = _CI_FACTOR * float(np.std(weighted, ddof=1)) / math.sqrt(n)

    energy = lp.zeta * rho * lp.received_power * float(np.mean(sym_i ** 2 + sym_q ** 2))
    return SerResult(ser_hat=ser, ci_halfwidth=ci, n_symbols=n, seed=cfg.seed,
                     energy_hat=energy)


def simulate_pem_integrated(lp: LinkParams, m: int, cfg: SimConfig) -> SerResult:
    """Symbol simulation of the rectified channel with equispaced power levels
    and midpoint-threshold detection on y/(hP); both noises active."""
    m = _check_constellation(m)
    if lp.sigma2_rec <= 0 and lp.sigma2_a <= 0:
        raise InvalidParams("at least one noise source must be > 0")
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, m, size=n)
    power_levels = 2.0 * np.arange(m) / (m - 1)
    amp = np.sqrt(lp.received_power * power_levels[idx])

    if lp.sigma2_a > 0:
        astd = math.sqrt(lp.sigma2_a / 2.0)
        w = (amp + astd * rng.standard_normal(n)) ** 2 \
            + (astd * rng.standard_normal(n)) ** 2
    else:
        w = amp * amp
    y = w
    if lp.sigma2_rec > 0:
        y = w + lp.sigma_rec * rng.standard_normal(n)

    normalized = y / lp.received_power
    det = np.clip(np.rint(normalized * (m - 1) / 2.0), 0, m - 1).astype(np.int64)
    ser = float(np.mean(det != idx))
    return SerResult(ser_hat=ser, ci_halfwidth=_binomial_ci(ser, n), n_symbols=n,
                     seed=cfg.seed)


def _diode_current(y: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """sum_k a_k y^k for k = 1..K by Horner's rule, in one working array."""
    i_t = np.full_like(y, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        i_t *= y
        i_t += c
    i_t *= y
    return i_t


def _harmonic_amplitudes(r: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """Closed-form amplitudes of carrier harmonics 0..K of sum_k a_k (r cos t)^k,
    one row per amplitude r: c_n sum_{k>=n, k-n even} a_k (r/2)^k C(k, (k-n)/2),
    with c_0 = 1 and c_n = 2 for n > 0 (from cos^k t = 2^-k sum_j C(k, j)
    cos((k-2j) t))."""
    amp = np.zeros((len(r), len(coeffs) + 1))
    half_pow = np.ones_like(r)
    for k, a in enumerate(coeffs, start=1):
        half_pow = half_pow * (0.5 * r)
        for n in range(k % 2, k + 1, 2):
            amp[:, n] += (2.0 if n else 1.0) * a * math.comb(k, (k - n) // 2) * half_pow
    return amp


def simulate_rectifier_waveform(lp: LinkParams, diode: DiodeModel, cfg: SimConfig,
                                constant_envelope: bool = False) -> RectifierResult:
    """Passband synthesis of the energy receiver front end.

    Builds y(t) for per-symbol baseband samples (unit-mean-power circularly
    symmetric Gaussian, or a constant unit envelope) _CHUNK_SYMBOLS symbols at
    a time, applies the truncated diode polynomial, and projects each symbol's
    current onto cos/sin of carrier harmonics 0..K.  Every symbol holds whole
    carrier cycles and oversampling >= 2K+2, so the projection is exact: its
    DC column is the low-pass output, and dc_mean is its time average divided
    by the square-law coefficient a2.  The measured harmonic powers are
    compared with their closed form in harmonic_error.  Only a few blocks of
    samples are held at once, whatever n_symbols is; a waveform that
    overflows raises FloatingPointError.
    """
    order = diode.truncation_order
    min_os = max(8, 2 * order + 2)
    if cfg.oversampling < min_os:
        raise AliasedCarrier(
            f"oversampling {cfg.oversampling} cannot represent order-"
            f"{order} harmonics; needs >= {min_os}")

    f = cfg.carrier_hz
    cycles_per_symbol = int(round(f / cfg.bandwidth_hz))
    spp = cycles_per_symbol * cfg.oversampling  # samples per symbol
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
    envelope = math.sqrt(lp.received_power) * x * np.exp(1j * lp.theta) + na

    # the carrier repeats exactly every symbol (integer cycles), so one symbol
    # of carrier samples suffices; Re{b e^{jwt}} = Re(b) cos - Im(b) sin
    dt = 1.0 / (f * cfg.oversampling)
    phase = 2.0 * math.pi * f * dt * np.arange(spp)
    cos_c, sin_c = np.cos(phase), np.sin(phase)
    # columns: DC, cos(n phase) and sin(n phase) for n = 1..K, scaled so that
    # i @ basis gives the per-symbol mean and Fourier coefficients
    nphase = np.outer(phase, np.arange(1, order + 1))
    basis = np.hstack([np.full((spp, 1), 1.0 / spp),
                       (2.0 / spp) * np.cos(nphase), (2.0 / spp) * np.sin(nphase)])

    coeffs = diode.coefficients()
    dc = np.empty(n)
    sq_proj = np.zeros(2 * order + 1)   # sums of squared projections
    sq_amp = np.zeros(order + 1)        # sums of squared closed-form amplitudes
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, n, _CHUNK_SYMBOLS):
                env = envelope[start:start + _CHUNK_SYMBOLS]
                y = math.sqrt(2.0) * (np.outer(env.real, cos_c) - np.outer(env.imag, sin_c))
                proj = _diode_current(y, coeffs) @ basis
                dc[start:start + len(env)] = proj[:, 0]
                sq_proj += np.square(proj).sum(axis=0)
                amp = _harmonic_amplitudes(math.sqrt(2.0) * np.abs(env), coeffs)
                sq_amp += np.square(amp).sum(axis=0)
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"waveform overflows float64 at hP={lp.received_power:g}, order {order} "
            f"({exc}); rescale the powers") from None

    dc_mean = float(np.mean(dc)) / diode.coefficient(2)
    # total power at harmonic n: a sinusoid of amplitude A carries A^2 / 2
    weight = np.append(1.0, np.full(order, 0.5))
    measured = weight * np.append(sq_proj[0], sq_proj[1:order + 1] + sq_proj[order + 1:])
    closed = weight * sq_amp
    diff = np.abs(measured - closed)
    scale = np.maximum(closed[0], closed)
    harmonic_error = float(np.max(np.divide(diff, scale, out=diff, where=scale > 0)))
    return RectifierResult(dc_mean=dc_mean, harmonic_error=harmonic_error,
                           n_symbols=n, seed=cfg.seed)
