"""Tests for the Monte Carlo symbol and waveform oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    CI_FACTOR,
    fft_rectifier_dc,
    pem_integrated_reference,
    qam_record,
    qam_separated_reference,
)
from swiptlab import simkit
from swiptlab.core import LinkParams, split_snr
from swiptlab.errors import AliasedCarrier, BadConstellation, InvalidParams
from swiptlab.modulation import ser_pem, ser_qam
from swiptlab.simkit import (
    _CHUNK_SYMBOLS,
    _SYMBOL_BLOCK,
    DiodeModel,
    SimConfig,
    simulate_pem_integrated,
    simulate_qam_separated,
    simulate_rectifier_waveform,
)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            SimConfig(n_symbols=0)
        with pytest.raises(InvalidParams):
            SimConfig(oversampling=4)
        with pytest.raises(InvalidParams):
            SimConfig(carrier_hz=10.0, bandwidth_hz=3.0)  # non-integer ratio
        with pytest.raises(InvalidParams):
            SimConfig(carrier_hz=4.0, bandwidth_hz=1.0)   # ratio below 8

    @pytest.mark.parametrize("carrier,bandwidth", [
        (math.inf, 1.0), (math.nan, 1.0), (-16.0, 1.0), (16.0, 0.0), (16.0, math.nan),
        (16.0, math.inf), (16.0, -1.0), (1e300, 1e-300)])   # the last ratio overflows
    def test_rejects_non_finite_or_non_positive_frequencies(self, carrier, bandwidth):
        with pytest.raises(InvalidParams, match="finite"):
            SimConfig(carrier_hz=carrier, bandwidth_hz=bandwidth)


class TestDiodeModel:
    @pytest.mark.parametrize("field", ["gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_constants(self, field, value):
        with pytest.raises(InvalidParams, match="finite and > 0"):
            DiodeModel(**{field: value})

    def test_rejects_overflowing_coefficients(self):
        with pytest.raises(InvalidParams, match="overflow"):
            DiodeModel(gamma=1e200)

    # the waveform oracle divides its DC output by a2 = gamma^2 / 2: gamma^2
    # underflows at 1e-300, and at 2e-162 only the halving does
    @pytest.mark.parametrize("kwargs", [{"gamma": 1e-300}, {"gamma": 2e-162}])
    def test_rejects_underflowing_square_law_coefficient(self, kwargs):
        with pytest.raises(InvalidParams, match="square-law coefficient a2"):
            DiodeModel(**kwargs)


class TestQamSimulator:
    def test_noiseless_detection(self):
        lp = LinkParams(h=1, p=100, sigma2_a=1e-30, sigma2_cov=1e-30)
        res = simulate_qam_separated(lp, 0.0, 16, SimConfig(n_symbols=100_000, seed=0))
        assert res.ser_hat == 0.0

    @pytest.mark.parametrize("m,rho", [(4, 0.0), (16, 0.3), (64, 0.0)])
    def test_matches_formula_at_moderate_ser(self, m, rho):
        # pick hP so the formula SER sits in [1e-3, 5e-2]
        target_arg = {4: 2.9, 16: 2.9, 64: 3.0}[m]
        hp = target_arg ** 2 * (m - 1) / 3.0
        lp = LinkParams(h=1, p=hp / (1 - rho), sigma2_a=0.4 / (1 - rho), sigma2_cov=0.6)
        tau = split_snr(rho, lp)
        res = simulate_qam_separated(lp, rho, m, SimConfig(n_symbols=400_000, seed=m))
        assert res.ser_hat == pytest.approx(ser_qam(m, tau), abs=1.5 * res.ci_halfwidth)

    def test_importance_sampling_rare_event(self):
        # QPSK at tau = 25: SER ~ 5.7e-7, far below 1/n for plain sampling
        lp = LinkParams(h=1, p=25, sigma2_a=0.5, sigma2_cov=0.5)
        res = simulate_qam_separated(lp, 0.0, 4, SimConfig(n_symbols=400_000, seed=6),
                                     noise_scale=2.2)
        assert res.ser_hat == pytest.approx(ser_qam(4, 25.0), abs=3 * res.ci_halfwidth)

    def test_qpsk_energy_deterministic(self):
        lp = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1.0)
        res = simulate_qam_separated(lp, 0.4, 4, SimConfig(n_symbols=5_000, seed=1))
        assert res.energy_hat == pytest.approx(0.6 * 0.4 * 100.0, rel=1e-12)

    def test_energy_sample_mean_near_expectation(self):
        lp = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1.0)
        n = 50_000
        res = simulate_qam_separated(lp, 0.5, 16, SimConfig(n_symbols=n, seed=2))
        expected = 0.6 * 0.5 * 100.0
        # 16-QAM per-symbol energy spread: std(|x|^2) = sqrt(0.32)
        three_sigma = 3.0 * expected * math.sqrt(0.32) / math.sqrt(n)
        assert abs(res.energy_hat - expected) <= three_sigma

    def test_bit_reproducible(self):
        lp = LinkParams(h=1, p=50, sigma2_a=1.0, sigma2_cov=1.0)
        cfg = SimConfig(n_symbols=20_000, seed=77)
        assert simulate_qam_separated(lp, 0.2, 16, cfg) == \
            simulate_qam_separated(lp, 0.2, 16, cfg)

    def test_rejects_bad_inputs(self):
        lp = LinkParams(h=1, p=50, sigma2_a=1.0)
        with pytest.raises(BadConstellation):
            simulate_qam_separated(lp, 0.0, 3, SimConfig(n_symbols=10))
        with pytest.raises(InvalidParams):
            simulate_qam_separated(lp, 1.0, 4, SimConfig(n_symbols=10))

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.5])
    def test_rejects_bad_noise_scale(self, scale):
        lp = LinkParams(h=1, p=50, sigma2_a=1.0)
        with pytest.raises(InvalidParams, match=r"noise_scale must lie in \[1, "):
            simulate_qam_separated(lp, 0.0, 4, SimConfig(n_symbols=10), noise_scale=scale)

    def test_importance_sampling_needs_two_symbols(self):
        lp = LinkParams(h=1, p=25, sigma2_a=0.5, sigma2_cov=0.5)
        with pytest.raises(InvalidParams, match="n_symbols >= 2"):
            simulate_qam_separated(lp, 0.0, 4, SimConfig(n_symbols=1), noise_scale=2.0)
        res = simulate_qam_separated(lp, 0.0, 4, SimConfig(n_symbols=2), noise_scale=2.0)
        assert math.isfinite(res.ci_halfwidth)


# plain QAM at a moderate SER, importance-sampled QPSK, 64-QAM with a split
QAM_CASES = {
    "qam16": (LinkParams(h=1, p=200, zeta=0.6, sigma2_a=1, sigma2_cov=1), 0.2, 16, 1.0),
    "qpsk-is": (LinkParams(h=1, p=25, zeta=0.6, sigma2_a=0.5, sigma2_cov=0.5), 0.0, 4, 2.0),
    "qam64": (LinkParams(h=1, p=400, zeta=0.6, sigma2_a=1, sigma2_cov=2), 0.3, 64, 1.0),
}
PEM_CASES = {
    "both-noises": (LinkParams(h=1, p=60, sigma2_a=0.5, sigma2_rec=1.0), 8),
    "rectifier-noise": (LinkParams(h=1, p=60, sigma2_a=0.0, sigma2_rec=100.0), 4),
    "antenna-noise": (LinkParams(h=1, p=60, sigma2_a=2.0, sigma2_rec=0.0), 4),
}


class TestStreamedSymbols:
    """The symbol oracles stream _SYMBOL_BLOCK symbols at a time: within one
    block they are the whole-array simulators bit for bit, and across blocks
    their running totals match the concatenated per-block draws."""

    @pytest.mark.parametrize("n", [2, 300, _SYMBOL_BLOCK])
    @pytest.mark.parametrize("case", QAM_CASES)
    def test_qam_one_block_matches_whole_array(self, case, n):
        lp, rho, m, scale = QAM_CASES[case]
        cfg = SimConfig(n_symbols=n, seed=n)
        res = simulate_qam_separated(lp, rho, m, cfg, noise_scale=scale)
        assert res.to_json_dict() == qam_separated_reference(lp, rho, m, cfg, scale)

    @pytest.mark.parametrize("n", [1, 300, _SYMBOL_BLOCK])
    @pytest.mark.parametrize("case", PEM_CASES)
    def test_pem_one_block_matches_whole_array(self, case, n):
        lp, m = PEM_CASES[case]
        cfg = SimConfig(n_symbols=n, seed=n)
        res = simulate_pem_integrated(lp, m, cfg)
        assert res.to_json_dict() == pem_integrated_reference(lp, m, cfg)

    @pytest.mark.parametrize("n", [_SYMBOL_BLOCK + 1, 3 * _SYMBOL_BLOCK + 123])
    @pytest.mark.parametrize("case", QAM_CASES)
    def test_qam_running_totals_across_blocks(self, case, n):
        lp, rho, m, scale = QAM_CASES[case]
        cfg = SimConfig(n_symbols=n, seed=7)
        res = simulate_qam_separated(lp, rho, m, cfg, noise_scale=scale)
        err, energies, weighted = qam_record(lp, rho, m, cfg, scale, block=_SYMBOL_BLOCK)
        assert res.energy_hat == pytest.approx(
            lp.zeta * rho * lp.received_power * np.mean(energies), rel=1e-12)
        if scale == 1.0:
            assert res.ser_hat == np.count_nonzero(err) / n
        else:
            assert np.count_nonzero(weighted) > 10
            assert res.ser_hat == pytest.approx(np.mean(weighted), rel=1e-12)
            ci = CI_FACTOR * np.std(weighted, ddof=1) / math.sqrt(n)
            assert res.ci_halfwidth == pytest.approx(ci, rel=1e-12)

    @pytest.mark.parametrize("case", PEM_CASES)
    def test_pem_error_count_across_blocks(self, case):
        lp, m = PEM_CASES[case]
        cfg = SimConfig(n_symbols=3 * _SYMBOL_BLOCK + 123, seed=8)
        res = simulate_pem_integrated(lp, m, cfg)
        ref = pem_integrated_reference(lp, m, cfg, block=_SYMBOL_BLOCK)
        assert res.to_json_dict() == ref

    # the whole-array simulators' four draws alone take 32 MB at 1M symbols
    @pytest.mark.parametrize("case", ["qam16", "qpsk-is", "pem"])
    def test_memory_bounded_by_block(self, case):
        cfg = SimConfig(n_symbols=1_000_000, seed=9)
        tracemalloc.start()
        try:
            if case == "pem":
                simulate_pem_integrated(*PEM_CASES["both-noises"], cfg)
            else:
                lp, rho, m, scale = QAM_CASES[case]
                simulate_qam_separated(lp, rho, m, cfg, noise_scale=scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPemSimulator:
    def test_vanishing_snr_is_coin_flip(self):
        # snr' = hP/sigma_rec = 1e-3: binary detection degenerates
        lp = LinkParams(h=1, p=1.0, sigma2_a=1e-20, sigma2_rec=1e6)
        res = simulate_pem_integrated(lp, 2, SimConfig(n_symbols=200_000, seed=3))
        assert res.ser_hat == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("m,snr", [(4, 12.0), (16, 50.0)])
    def test_matches_formula_without_antenna_noise(self, m, snr):
        lp = LinkParams(h=1, p=snr, sigma2_a=0.0, sigma2_rec=1.0)
        res = simulate_pem_integrated(lp, m, SimConfig(n_symbols=400_000, seed=m))
        assert res.ser_hat == pytest.approx(ser_pem(m, snr), abs=1.5 * res.ci_halfwidth)

    def test_antenna_noise_degrades_beyond_formula(self):
        # the closed form assumes sigma2_a << sigma_rec; comparable antenna
        # noise biases the energy detector and must cost errors
        clean = LinkParams(h=1, p=50, sigma2_a=0.0, sigma2_rec=1.0)
        noisy = LinkParams(h=1, p=50, sigma2_a=1.0, sigma2_rec=1.0)
        cfg = SimConfig(n_symbols=300_000, seed=4)
        ser_clean = simulate_pem_integrated(clean, 16, cfg).ser_hat
        ser_noisy = simulate_pem_integrated(noisy, 16, cfg).ser_hat
        assert ser_noisy > ser_clean
        assert ser_noisy > ser_pem(16, 50.0)

    # y/hP overflows at hP = 1e-300 beside sigma_rec = 1e15: the decisions
    # still clip to the outer levels, as in the whole-array reference
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_overflowing_normalization_keeps_decisions(self, m):
        lp = LinkParams(h=1e-300, p=1, sigma2_rec=1e30)
        cfg = SimConfig(n_symbols=100, seed=0)
        res = simulate_pem_integrated(lp, m, cfg)
        with np.errstate(over="ignore"):
            assert res.to_json_dict() == pem_integrated_reference(lp, m, cfg)

    def test_bit_reproducible(self):
        lp = LinkParams(h=1, p=50, sigma2_a=0.1, sigma2_rec=1.0)
        cfg = SimConfig(n_symbols=20_000, seed=5)
        assert simulate_pem_integrated(lp, 8, cfg) == simulate_pem_integrated(lp, 8, cfg)


class TestSymbolOraclesNeedSignal:
    """Detection divides by the received signal, so the QAM and PEM oracles
    reject a zero hP, also one that underflows, before they draw a symbol."""

    @pytest.mark.parametrize("simulate", [
        lambda lp, cfg: simulate_qam_separated(lp, 0.2, 4, cfg),
        lambda lp, cfg: simulate_pem_integrated(lp, 4, cfg)], ids=["qam", "pem"])
    @pytest.mark.parametrize("h,p", [(1.0, 0.0), (1e-200, 1e-200)])
    def test_zero_received_power_rejected_before_drawing(self, simulate, h, p,
                                                         monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew symbols")
        monkeypatch.setattr(simkit.np.random, "default_rng", no_draws)
        lp = LinkParams(h=h, p=p, sigma2_a=1.0, sigma2_cov=1.0, sigma2_rec=1.0)
        with pytest.raises(InvalidParams, match=r"h\*p must be finite and > 0, got 0.0"):
            simulate(lp, SimConfig(n_symbols=100))


WAVE_CFG = SimConfig(n_symbols=2_000, seed=1, oversampling=8, carrier_hz=8.0,
                     bandwidth_hz=1.0)


class TestRectifierWaveform:
    LP = LinkParams(h=1, p=100, zeta=0.6)

    def test_constant_envelope_dc(self):
        res = simulate_rectifier_waveform(self.LP, DiodeModel(), WAVE_CFG,
                                          constant_envelope=True)
        assert res.dc_mean == pytest.approx(100.0, rel=1e-6)

    def test_harmonic_powers_match_closed_form(self):
        for constant_envelope in (False, True):
            res = simulate_rectifier_waveform(self.LP, DiodeModel(), WAVE_CFG,
                                              constant_envelope=constant_envelope)
            assert res.harmonic_error <= 1e-8

    # a2 off by 1e-6 relative on one side only puts the DC power, which
    # normalizes every harmonic, off by about 2e-6; a closed form one order
    # short misses the top harmonic's power altogether
    @pytest.mark.parametrize("side,corrupt,order", [
        ("_diode_current", lambda c: [c[0], c[1] * (1.0 + 1e-6), *c[2:]], 2),
        ("_harmonic_amplitudes", lambda c: [c[0], c[1] * (1.0 + 1e-6), *c[2:]], 2),
        ("_harmonic_amplitudes", lambda c: [*c[:-1], 0.0], 3)],
        ids=["horner-a2", "closed-form-a2", "closed-form-truncated"])
    def test_harmonic_error_detects_a_wrong_coefficient(self, side, corrupt, order,
                                                        monkeypatch):
        real = getattr(simkit, side)
        monkeypatch.setattr(simkit, side, lambda arr, coeffs: real(arr, corrupt(coeffs)))
        res = simulate_rectifier_waveform(self.LP, DiodeModel(truncation_order=order),
                                          WAVE_CFG)
        assert res.harmonic_error > 1e-8

    @pytest.mark.parametrize("constant_envelope", [False, True])
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 300, _CHUNK_SYMBOLS, _CHUNK_SYMBOLS + 1])
    def test_dc_matches_fft_reference(self, n, order, constant_envelope):
        lp = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=0.5)
        diode = DiodeModel(gamma=0.02, truncation_order=order)
        cfg = SimConfig(n_symbols=n, seed=order, oversampling=12, carrier_hz=8.0,
                        bandwidth_hz=1.0)
        res = simulate_rectifier_waveform(lp, diode, cfg, constant_envelope)
        ref = fft_rectifier_dc(lp, diode, cfg, constant_envelope)
        assert res.dc_mean == pytest.approx(ref, rel=1e-13)
        assert res.harmonic_error <= 1e-8

    def test_memory_bounded_by_chunk(self):
        # the whole 20k-symbol record would be 1.28M samples, 10 MB per array
        cfg = dataclasses.replace(WAVE_CFG, n_symbols=20_000)
        tracemalloc.start()
        try:
            simulate_rectifier_waveform(self.LP, DiodeModel(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_samples_per_symbol_capped_before_allocation(self):
        cfg = SimConfig(n_symbols=10, carrier_hz=1e12, bandwidth_hz=1.0)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match="samples per symbol"):
                simulate_rectifier_waveform(self.LP, DiodeModel(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        at_cap = SimConfig(n_symbols=1, carrier_hz=512.0, bandwidth_hz=1.0)
        simulate_rectifier_waveform(self.LP, DiodeModel(), at_cap)   # 4096 samples
        above = dataclasses.replace(at_cap, oversampling=9)
        with pytest.raises(InvalidParams, match="4608 samples per symbol"):
            simulate_rectifier_waveform(self.LP, DiodeModel(), above)

    def test_overflowing_waveform_raises(self):
        lp = LinkParams(h=1, p=1e200)
        cfg = dataclasses.replace(WAVE_CFG, oversampling=12)
        with pytest.raises(FloatingPointError):
            simulate_rectifier_waveform(lp, DiodeModel(truncation_order=5), cfg)

    def test_gaussian_signaling_matches_harvest_law(self):
        cfg = dataclasses.replace(WAVE_CFG, n_symbols=30_000)
        res = simulate_rectifier_waveform(self.LP, DiodeModel(), cfg)
        three_sigma = 3.0 * 100.0 / math.sqrt(cfg.n_symbols)
        assert abs(0.6 * res.dc_mean - 60.0) <= 0.6 * three_sigma

    def test_odd_truncation_order_leaves_dc(self):
        cfg = dataclasses.replace(WAVE_CFG, oversampling=8)
        base = simulate_rectifier_waveform(self.LP, DiodeModel(truncation_order=2), cfg)
        odd = simulate_rectifier_waveform(self.LP, DiodeModel(truncation_order=3), cfg)
        assert odd.dc_mean == pytest.approx(base.dc_mean, rel=1e-12)

    def test_fourth_order_shift_scales_with_gamma_squared(self):
        cfg = dataclasses.replace(WAVE_CFG, oversampling=10)
        shifts = []
        for gamma in (0.01, 0.005):
            base = simulate_rectifier_waveform(
                self.LP, DiodeModel(gamma=gamma, truncation_order=2), cfg,
                constant_envelope=True)
            fourth = simulate_rectifier_waveform(
                self.LP, DiodeModel(gamma=gamma, truncation_order=4), cfg,
                constant_envelope=True)
            shifts.append(fourth.dc_mean - base.dc_mean)
        assert shifts[0] == pytest.approx(4.0 * shifts[1], rel=1e-2)
        # constant envelope: shift = gamma^2 hP^2 / 8 exactly at order 4
        assert shifts[0] == pytest.approx(0.01 ** 2 * 100.0 ** 2 / 8.0, rel=1e-6)

    def test_aliased_carrier_guard(self):
        with pytest.raises(AliasedCarrier):
            simulate_rectifier_waveform(self.LP, DiodeModel(truncation_order=4),
                                        WAVE_CFG)  # needs oversampling >= 10

    def test_bit_reproducible(self):
        a = simulate_rectifier_waveform(self.LP, DiodeModel(), WAVE_CFG)
        b = simulate_rectifier_waveform(self.LP, DiodeModel(), WAVE_CFG)
        assert a == b
