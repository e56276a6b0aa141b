"""Independent Monte Carlo oracles for the closed-form link quantities.

Symbol-level simulators reproduce both receiver chains sample by sample;
the waveform simulator synthesizes the passband signal, pushes it through a
truncated diode polynomial, and projects each symbol's current onto the
carrier harmonics.  Its DC term is the component the energy-harvesting model
predicts; the harmonic powers are checked against their closed form.  Every
oracle draws, detects and accumulates one fixed block of symbols at a time,
so its memory does not grow with n_symbols.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import LinkParams
from .errors import AliasedCarrier, InvalidParams, check_count, check_real
from .modulation import _check_constellation

# 95% normal-approximation half-width factor for binomial confidence intervals
_CI_FACTOR = 1.959963984540054
# symbols per block of the QAM and PEM oracles: a dozen arrays of this length
# stay cache-sized, whatever n_symbols is
_SYMBOL_BLOCK = 1 << 14
# symbols per block of the waveform oracle: its working set is a few
# _CHUNK_SYMBOLS x samples-per-symbol arrays, whatever n_symbols is
_CHUNK_SYMBOLS = 2048
# samples per symbol the waveform oracle accepts: one block array is then at
# most 2048 x 4096 float64 samples, 64 MiB
_MAX_SAMPLES_PER_SYMBOL = 4096
# largest importance-sampling noise scale: the likelihood ratio takes its
# square, which must stay finite
_MAX_NOISE_SCALE = math.sqrt(sys.float_info.max)


def _binomial_ci(p_hat: float, n: int) -> float:
    if 0.0 < p_hat < 1.0:
        return _CI_FACTOR * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return 3.0 / n  # rule of three when no (or only) errors were observed


@dataclass(frozen=True)
class DiodeModel:
    """Schottky diode small-signal model, i(t) = exp(gamma*v) - 1 in units of
    the saturation current, which every output of the oracle divides out.

    Taylor coefficients a_n = gamma^n / n!; truncation at order 2 reproduces
    the square-law harvesting model.  The default is a 25 mV thermal voltage.
    """

    gamma: float = 40.0
    truncation_order: int = 2

    def __post_init__(self):
        check_real("gamma", self.gamma, lo_open=True)
        check_count("truncation_order", self.truncation_order, 2)
        try:
            a2 = self.coefficients()[1]
        except OverflowError:
            raise InvalidParams(
                f"diode coefficients overflow at gamma={self.gamma}, order "
                f"{self.truncation_order}") from None
        # the waveform oracle divides its DC output by a2
        check_real("square-law coefficient a2", a2, lo_open=True)

    def coefficient(self, n: int) -> float:
        return self.gamma ** n / math.factorial(n)

    def coefficients(self) -> list[float]:
        """a_1 .. a_K for the truncation order K."""
        return [self.coefficient(k) for k in range(1, self.truncation_order + 1)]


@dataclass(frozen=True)
class SimConfig:
    """Trial count, RNG seed and (for waveform mode) sampling parameters.

    The oracles stream n_symbols in fixed blocks, so n_symbols sets the run
    time but not the memory.  carrier_hz / bandwidth_hz must be an integer
    ratio >= 8 so every symbol holds complete carrier cycles (narrowband
    assumption, exact harmonic cancellation in the time average); the waveform
    oracle also bounds the samples per symbol.
    """

    n_symbols: int = 100_000
    seed: int = 0
    oversampling: int = 8          # samples per carrier period
    carrier_hz: float = 16.0
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        check_count("n_symbols", self.n_symbols, 1)
        check_count("seed", self.seed, 0)
        check_count("oversampling", self.oversampling, 8)
        check_real("carrier_hz", self.carrier_hz, lo_open=True)
        check_real("bandwidth_hz", self.bandwidth_hz, lo_open=True)
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


def _blocks(n: int, size: int):
    """Lengths of the consecutive blocks of at most size that make up n."""
    for start in range(0, n, size):
        yield min(size, n - start)


def _merge_moments(count: int, mean: float, m2: float, block: np.ndarray):
    """Fold a block of samples into a running (count, mean, M2) by the pairwise
    update of Chan, Golub and LeVeque (1979); M2 is the sum of squared
    deviations from the mean."""
    k = len(block)
    block_mean = float(np.mean(block))
    dev = block - block_mean
    dev *= dev
    total = count + k
    delta = block_mean - mean
    mean += delta * (k / total)
    m2 += float(dev.sum()) + delta * delta * (count * k / total)
    return total, mean, m2


def simulate_qam_separated(lp: LinkParams, rho: float, m: int, cfg: SimConfig,
                           noise_scale: float = 1.0) -> SerResult:
    """Symbol simulation of the split linear channel with minimum-distance
    QAM detection.

    Symbols are drawn, detected and tallied _SYMBOL_BLOCK at a time (index
    pair, then noise pair, per block), so the working set does not grow with
    n_symbols.  noise_scale > 1 switches to importance sampling: noise is
    drawn with the inflated std and every error event carries the analytic
    likelihood ratio, for symbol error rates far below 1/n_symbols; its
    confidence interval needs n_symbols >= 2.
    """
    m = _check_constellation(m)
    check_real("rho", rho, hi=1.0)
    check_real("noise_scale", noise_scale, lo=1.0, hi=_MAX_NOISE_SCALE, hi_open=False)
    if noise_scale > 1.0 and cfg.n_symbols < 2:
        raise InvalidParams(
            f"importance sampling (noise_scale={noise_scale}) needs n_symbols >= 2 "
            f"for its confidence interval, got {cfg.n_symbols}")
    sigma2_eff = (1.0 - rho) * lp.sigma2_a + lp.sigma2_cov
    if sigma2_eff <= 0:
        raise InvalidParams("split-path noise must be > 0 for detection")
    # detection divides by the signal amplitude
    check_real("decoder signal power (1 - rho) h*p", (1.0 - rho) * lp.received_power,
               lo_open=True)

    levels_i, levels_q, delta = _qam_levels(m)
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    amp = math.sqrt((1.0 - rho) * lp.received_power)
    nstd = math.sqrt(sigma2_eff / 2.0) * noise_scale
    spacing = amp * delta
    k2 = noise_scale * noise_scale

    errors = 0
    energy_sum = 0.0
    w_count, w_mean, w_m2 = 0, 0.0, 0.0   # importance-sampling weights
    for k in _blocks(n, _SYMBOL_BLOCK):
        ii = rng.integers(0, len(levels_i), size=k)
        qq = rng.integers(0, len(levels_q), size=k)
        sym_i, sym_q = levels_i[ii], levels_q[qq]
        noise_i = nstd * rng.standard_normal(k)
        noise_q = nstd * rng.standard_normal(k)
        err = (_detect_levels(amp * sym_i + noise_i, len(levels_i), spacing) != ii) \
            | (_detect_levels(amp * sym_q + noise_q, len(levels_q), spacing) != qq)
        energy_sum += float(np.sum(sym_i ** 2 + sym_q ** 2))
        if noise_scale == 1.0:
            errors += int(np.count_nonzero(err))
        else:
            # likelihood ratio of the true vs inflated complex Gaussian noise; a
            # square may overflow, and its weight exp(-inf) = 0 is right
            with np.errstate(over="ignore"):
                mag2 = (noise_i * noise_i + noise_q * noise_q) / (sigma2_eff / 2.0)
            log_w = math.log(k2) - 0.5 * mag2 * (1.0 - 1.0 / k2)
            weighted = np.where(err, np.exp(log_w), 0.0)
            w_count, w_mean, w_m2 = _merge_moments(w_count, w_mean, w_m2, weighted)

    if noise_scale == 1.0:
        ser = errors / n
        ci = _binomial_ci(ser, n)
    else:
        ser = w_mean
        ci = _CI_FACTOR * math.sqrt(w_m2 / (n - 1)) / math.sqrt(n)

    energy = lp.zeta * rho * lp.received_power * (energy_sum / n)
    return SerResult(ser_hat=ser, ci_halfwidth=ci, n_symbols=n, seed=cfg.seed,
                     energy_hat=energy)


def simulate_pem_integrated(lp: LinkParams, m: int, cfg: SimConfig) -> SerResult:
    """Symbol simulation of the rectified channel with equispaced power levels
    and midpoint-threshold detection on y/(hP); both noises active.

    Symbols are drawn, detected and counted _SYMBOL_BLOCK at a time (levels,
    antenna-noise pair, rectifier noise, per block), so the working set does
    not grow with n_symbols."""
    m = _check_constellation(m)
    if lp.sigma2_rec <= 0 and lp.sigma2_a <= 0:
        raise InvalidParams("at least one noise source must be > 0")
    check_real("h*p", lp.received_power, lo_open=True)   # detection divides by hP
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    power_levels = 2.0 * np.arange(m) / (m - 1)
    astd = math.sqrt(lp.sigma2_a / 2.0)

    errors = 0
    for k in _blocks(n, _SYMBOL_BLOCK):
        idx = rng.integers(0, m, size=k)
        amp = np.sqrt(lp.received_power * power_levels[idx])
        if lp.sigma2_a > 0:
            y = (amp + astd * rng.standard_normal(k)) ** 2 \
                + (astd * rng.standard_normal(k)) ** 2
        else:
            y = amp * amp
        if lp.sigma2_rec > 0:
            y = y + lp.sigma_rec * rng.standard_normal(k)
        # y/hP may overflow to +-inf, which the clip maps to an outer level
        with np.errstate(over="ignore"):
            normalized = y / lp.received_power
            det = np.clip(np.rint(normalized * (m - 1) / 2.0), 0, m - 1).astype(np.int64)
        errors += int(np.count_nonzero(det != idx))

    ser = errors / n
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

    Draws the per-symbol baseband samples (unit-mean-power circularly
    symmetric Gaussian, or a constant unit envelope) and the antenna noise
    _CHUNK_SYMBOLS symbols at a time, builds y(t) for the block, applies the
    truncated diode polynomial, and projects each symbol's current onto
    cos/sin of carrier harmonics 0..K.  Every symbol holds whole carrier
    cycles and oversampling >= 2K+2, so the projection is exact: its DC column
    is the low-pass output, and dc_mean is its time average divided by the
    square-law coefficient a2.  The measured harmonic powers are compared
    with their closed form in harmonic_error.

    Only running sums outlive a block, so memory does not grow with
    n_symbols.  Samples per symbol, round(carrier/bandwidth) x oversampling,
    are capped at _MAX_SAMPLES_PER_SYMBOL = 4096 (InvalidParams above it): a
    block's sample arrays are then at most 2048 x 4096 float64 = 64 MiB each,
    and three are alive at once (the two reused sample buffers and the diode
    current), 192 MiB.  A waveform that overflows raises
    FloatingPointError.
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
    if spp > _MAX_SAMPLES_PER_SYMBOL:
        raise InvalidParams(
            f"round(carrier/bandwidth) x oversampling = {spp} samples per symbol "
            f"exceeds {_MAX_SAMPLES_PER_SYMBOL}")
    n = cfg.n_symbols
    rng = np.random.default_rng(cfg.seed)
    nstd = math.sqrt(lp.sigma2_a / 2.0)

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
    # the block's passband samples live in two buffers reused by every block:
    # fresh block-sized arrays would go back to the OS and fault in again
    y_buf = np.empty((min(n, _CHUNK_SYMBOLS), spp))
    sin_buf = np.empty_like(y_buf)
    dc_sum = 0.0
    sq_proj = np.zeros(2 * order + 1)   # sums of squared projections
    sq_amp = np.zeros(order + 1)        # sums of squared closed-form amplitudes
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in _blocks(n, _CHUNK_SYMBOLS):
                if constant_envelope:
                    x = np.ones(k, dtype=complex)
                else:
                    x = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) \
                        / math.sqrt(2.0)
                env = math.sqrt(lp.received_power) * x
                if lp.sigma2_a > 0:
                    env += nstd * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
                y, y_sin = y_buf[:k], sin_buf[:k]
                np.multiply.outer(env.real, cos_c, out=y)
                y -= np.multiply.outer(env.imag, sin_c, out=y_sin)
                y *= math.sqrt(2.0)
                proj = _diode_current(y, coeffs) @ basis
                dc_sum += float(proj[:, 0].sum())
                sq_proj += np.square(proj).sum(axis=0)
                amp = _harmonic_amplitudes(math.sqrt(2.0) * np.abs(env), coeffs)
                sq_amp += np.square(amp).sum(axis=0)
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"waveform overflows float64 at hP={lp.received_power:g}, order {order} "
            f"({exc}); rescale the powers") from None

    dc_mean = dc_sum / n / diode.coefficient(2)
    # total power at harmonic n: a sinusoid of amplitude A carries A^2 / 2
    weight = np.append(1.0, np.full(order, 0.5))
    measured = weight * np.append(sq_proj[0], sq_proj[1:order + 1] + sq_proj[order + 1:])
    closed = weight * sq_amp
    diff = np.abs(measured - closed)
    scale = np.maximum(closed[0], closed)
    harmonic_error = float(np.max(np.divide(diff, scale, out=diff, where=scale > 0)))
    return RectifierResult(dc_mean=dc_mean, harmonic_error=harmonic_error,
                           n_symbols=n, seed=cfg.seed)
