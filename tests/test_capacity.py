"""Tests for the nonlinear-channel capacity bounds, the MI estimator and the
deterministic chi-square-input rate."""

import collections
import concurrent.futures
import functools
import itertools
import math
import re
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import erf, erfc, i0e

import swiptlab.capacity as cap
import swiptlab.chi2rate as chi2rate
from swiptlab.capacity import (
    MiEstimate,
    c1_asymptotic,
    c1_upper_optimized,
    c2_asymptotic,
    c2_upper,
    cnl_lower_chi2,
    cnl_upper,
)
from swiptlab import regions
from swiptlab.core import LOG2E, LinkParams
from swiptlab.errors import InvalidParams, QuadratureFailure, ZeroNoise

MC_FAST = dict(n_samples=10_000, seed=42)
# a channel whose conditional densities miss their tolerance in some samples of
# every chunk, whatever the units
UNRESOLVED = (1e6, 1e-10, 1.0)


def c1_upper_delta0(hp, sigma_rec, beta):
    """Analytically simplified delta = 0 form of the upper bound."""
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    return (
        math.log2(beta + sqrt_2pi * sigma_rec / 2.0)
        + (0.25 + (hp + sigma_rec / sqrt_2pi) / beta) * LOG2E
        - 0.5 * math.log2(2.0 * math.pi * math.e * sigma_rec ** 2)
    )


# the c1 bound _c1_upper_bits takes the rectifier noise std sr; the public c1
# functions take its variance, sr * sr
class TestC1Upper:
    def test_delta_zero_collapse(self):
        for hp, sr, beta in [(1.0, 1.0, 2.0), (100.0, 1.0, 80.0), (10.0, 3.0, 1.0)]:
            full = cap._c1_upper_bits(hp, sr, beta, 0.0)
            assert full == pytest.approx(c1_upper_delta0(hp, sr, beta), rel=1e-14)

    def test_scale_invariance(self):
        # jointly scaling (hP, sigma_rec, beta, delta) cannot change the bound
        a = cap._c1_upper_bits(100.0, 1.0, 50.0, 2.0)
        b = cap._c1_upper_bits(1000.0, 10.0, 500.0, 20.0)
        assert a == pytest.approx(b, rel=1e-13)


class TestC1UpperOptimized:
    def test_small_power_limit(self):
        val, _, _ = c1_upper_optimized(1e-6, 1.0)
        assert 0.0 <= val <= 0.2

    def test_above_asymptote(self):
        val, _, _ = c1_upper_optimized(100.0, 1.0)
        assert val >= c1_asymptotic(100.0, 1.0)
        assert val <= c1_asymptotic(100.0, 1.0) + 1.0

    def test_reproduces_through_c1_upper(self):
        val, beta, delta = c1_upper_optimized(37.0, 6.25)
        assert cap._c1_upper_bits(37.0, 2.5, beta, delta) == val

    def test_never_above_grid_points(self):
        rng = np.random.default_rng(5)
        hp, sr = 50.0, 1.5
        opt, _, _ = c1_upper_optimized(hp, sr * sr)
        for _ in range(10):
            beta = math.exp(rng.uniform(math.log(1e-3 * sr), math.log(1e3 * (hp + sr))))
            delta = rng.uniform(0.0, 10.0 * sr)
            assert opt <= cap._c1_upper_bits(hp, sr, beta, delta) + 1e-12

    def test_array_grid_equals_scalar_bound(self):
        # the bound on an array grid, as the delta search evaluates it, against
        # scalar calls
        hp, sr = 37.0, 2.5
        betas = np.exp(np.linspace(math.log(1e-3 * sr), math.log(1e3 * (hp + sr)), 48))
        deltas = np.linspace(0.0, 10.0 * sr, 25)
        grid = cap._c1_upper_bits(hp, sr, betas[:, None], deltas[None, :])
        loop = np.array([[cap._c1_upper_bits(hp, sr, b, d) for d in deltas] for b in betas])
        assert np.array_equal(grid, loop)


    @pytest.mark.parametrize("hp,sr", [(1.0, 1.0), (100.0, 1.0), (37.0, 2.5),
                                       (1e-6, 1.0), (1e3, 0.1), (100.0, 1000.0)])
    def test_closed_form_beta_is_the_minimum(self, hp, sr):
        for delta in np.linspace(0.0, 10.0 * sr, 9):
            beta = float(cap._c1_beta_star(hp, sr, delta))
            at = cap._c1_upper_bits(hp, sr, beta, delta)
            for f in (1.0 - 1e-3, 1.0 + 1e-3):
                assert cap._c1_upper_bits(hp, sr, f * beta, delta) >= at

    # the bound as the earlier coordinate-descent optimizer found it, at the
    # criterion-9 points, the mi_points and adc_sweep benchmark points and the
    # test points above; the bound holds for every (beta, delta), so a better
    # optimizer may only lower it
    @pytest.mark.parametrize("hp,sr,before", [
        (1.0, 1.0, 1.0189436234406144),
        (10.0, 1.0, 3.116470822432182),
        (100.0, 1.0, 6.0946710743923855),
        (100.0, 100.0, 1.0189436234404763),
        (100.0, 10.0, 3.1164708224321),
        (100.0 * 1e-6, 1e-6, 6.0946710743923855),
        (100.0, 1.4142135623730951, 5.614959316924702),
        (100.0, 1.8021519598457014, 5.283501391958593),
        (100.0, 3.156597489816888, 4.53445308464277),
        (100.0, 1000.000499999874, 0.20245931794640448),
        (100.0, 100.00499987500625, 1.0189107920829148),
        (100.0, 100.0112381269544, 1.018869832399087),
        (100.0, 100.04481049865964, 1.0186494645826656),
        (100.0, 1004.9875621120881, 0.20179540489362324),
        (37.0, 2.5, 3.574416972280556),
        (50.0, 1.5, 4.601247453824534),
        (1e-6, 1.0, 0.058962885631196116),
        (1000.0, 0.1, 12.684040314709154),
    ])
    def test_never_above_the_search_it_replaced(self, hp, sr, before):
        val, _, _ = c1_upper_optimized(hp, sr * sr)
        assert val <= before + 1e-12


class TestClosedFormBounds:
    def test_c1_asymptotic_values(self):
        assert c1_asymptotic(1.0, 1.0) == pytest.approx(-0.6044005442916777, rel=1e-14)
        assert c1_asymptotic(100.0, 1.0) == pytest.approx(
            math.log2(100) - 0.6044005442916777, rel=1e-14)

    def test_c1_asymptotic_doubling_adds_one_bit(self):
        assert c1_asymptotic(64.0, 1.0) - c1_asymptotic(32.0, 1.0) == pytest.approx(1.0)

    def test_c2_upper_values(self):
        assert c2_upper(0.0, 1.0) == pytest.approx(0.18802745565324408, rel=1e-12)
        assert c2_upper(100.0, 1.0) == pytest.approx(
            0.5 * math.log2(101) + 0.18802745565324408, rel=1e-12)

    def test_c2_quadrupling_high_snr(self):
        assert c2_upper(4e6, 1.0) - c2_upper(1e6, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_c2_asymptotic_values(self):
        assert c2_asymptotic(0.0, 1.0) == 0.0
        assert c2_asymptotic(100.0, 1.0) == pytest.approx(2.8362126709857476, rel=1e-14)

    def test_c2_asymptotic_below_upper_on_grid(self):
        for hp in np.logspace(-2, 4, 13):
            for s2a in np.logspace(-2, 2, 5):
                assert c2_asymptotic(hp, s2a) <= c2_upper(hp, s2a)

    def test_growth_rates_per_decade(self):
        # intensity-channel bound grows ~log2(P), noncoherent ~0.5*log2(P)
        c1 = [c1_asymptotic(p, 1.0) for p in (1e3, 1e4, 1e5)]
        c2 = [c2_asymptotic(p, 1.0) for p in (1e3, 1e4, 1e5)]
        for lo, hi in zip(c1, c1[1:]):
            assert hi - lo == pytest.approx(math.log2(10), rel=1e-12)
        for lo, hi in zip(c2, c2[1:]):
            assert hi - lo == pytest.approx(0.5 * math.log2(10), abs=2e-3)


class TestCnlUpper:
    def test_c1_branch_active_with_dominant_rectifier_noise(self):
        val = cnl_upper(100.0, 1e-4, 1.0)["cnl_upper_bits"]
        c1, _, _ = c1_upper_optimized(100.0, 1.0)
        assert val == c1
        assert c1 < c2_upper(100.0, 1e-4)

    def test_c2_branch_active_with_vanishing_rectifier_noise(self):
        val = cnl_upper(100.0, 1.0, 1e-8)["cnl_upper_bits"]
        assert val == c2_upper(100.0, 1.0)


class TestEffectiveProcNoise:
    """The effective processing noise sigma2_rec + sigma2_adc / (1 - rho)^2
    that region_int_adc folds for each swept rho, seen by a recording rate."""

    @staticmethod
    def noises(monkeypatch, n_points, sigma2_rec, sigma2_adc):
        seen = []
        monkeypatch.setattr(regions, "int_rate", lambda lp, noise: seen.append(noise)
                            or SimpleNamespace(value=1.0 / noise))
        lp = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0, sigma2_rec=sigma2_rec,
                        sigma2_adc=sigma2_adc)
        regions.region_int_adc(lp, n_points)
        return seen

    def test_half_split(self, monkeypatch):
        # rho = 0.999 * 1000 / 1998 = 0.5 is the 1001st of 1999 points
        assert self.noises(monkeypatch, 1999, 0.0, 1.0)[1000] == pytest.approx(4.0)

    def test_rho_zero_is_plain_sum(self, monkeypatch):
        assert self.noises(monkeypatch, 9, 1.5, 2.5)[0] == 4.0

    def test_strictly_increasing_in_rho(self, monkeypatch):
        vals = self.noises(monkeypatch, 25, 1.0, 1.0)
        assert len(vals) == 25
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_rejected(self, monkeypatch, bad):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(InvalidParams, match="finite"):
                self.noises(monkeypatch, 9, *args)

    def test_overflow_names_adc_noise_and_rho(self, monkeypatch):
        seen = []
        monkeypatch.setattr(regions, "int_rate", lambda lp, noise: seen.append(noise))
        lp = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0, sigma2_rec=1.0,
                        sigma2_adc=1e303)
        with pytest.raises(InvalidParams, match=r"overflows: sigma2_adc=1e\+303 .* rho=0\.999"):
            regions.region_int_adc(lp, 9)
        assert seen == []


class TestMiEstimator:
    def test_zero_received_power(self):
        # exactly 0, with and without antenna noise, as the deterministic rate
        for s2a in (1.0, 0.0):
            assert cnl_lower_chi2(0.0, s2a, 1.0, **MC_FAST) == MiEstimate(0.0, 0.0, 10_000, 42)

    def test_noiseless_channel_rejected(self):
        with pytest.raises(ZeroNoise):
            cnl_lower_chi2(1.0, 0.0, 0.0, **MC_FAST)

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(InvalidParams, match=r"^n_samples must be an integer >= 10000, "
                                                r"got 9999$"):
            cnl_lower_chi2(1.0, 1.0, 1.0, n_samples=9_999)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParams, match=r"^seed must be an integer >= 0, got -1$"):
            cnl_lower_chi2(1.0, 1.0, 1.0, seed=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_inputs_rejected(self, bad, position):
        args = [10.0, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(InvalidParams, match="finite"):
            cnl_lower_chi2(*args, **MC_FAST)

    def test_bit_reproducible(self):
        a = cnl_lower_chi2(10.0, 0.5, 1.0, n_samples=10_000, seed=9)
        b = cnl_lower_chi2(10.0, 0.5, 1.0, n_samples=10_000, seed=9)
        assert a == b

    def test_independent_of_chunking(self, monkeypatch):
        # a chunk larger than the draw maps one slice, on the pool too
        ref = cnl_lower_chi2(10.0, 0.5, 1.0, **MC_FAST)
        for chunk in (1111, 2 * MC_FAST["n_samples"]):
            monkeypatch.setattr(cap, "_CHUNK", chunk)
            assert cnl_lower_chi2(10.0, 0.5, 1.0, **MC_FAST) == ref

    def test_independent_of_worker_count(self, monkeypatch):
        # (100, 1e-4, 1) escalates to 128 nodes, so the workers share cached
        # rules; at (100, 1, 1) the Gauss-Hermite pair leaves a quarter of the
        # samples to the panels, so the chunks differ in the work they do
        threads = set()
        cond = cap._log_p_cond

        def recording(*args):
            threads.add(threading.get_ident())
            return cond(*args)

        monkeypatch.setattr(cap, "_log_p_cond", recording)
        for channel in ((100.0, 1e-4, 1.0), (100.0, 1.0, 1.0)):
            runs = {}
            for workers, chunk in itertools.product(
                    (1, 2, 3), (512, 1024, 1111, 4096, 2 * MC_FAST["n_samples"])):
                monkeypatch.setattr(cap, "_WORKERS", workers)
                monkeypatch.setattr(cap, "_CHUNK", chunk)
                threads.clear()
                runs[workers, chunk] = cnl_lower_chi2(*channel, **MC_FAST)
                # every map runs on the pool: one worker is one thread, not the caller
                assert 1 <= len(threads) <= workers
                assert threading.get_ident() not in threads
            assert len(set(runs.values())) == 1, channel

    def test_one_pool_per_call(self, monkeypatch):
        # the conditional map, the marginal table's batches and the final map
        # share the call's pool
        pools = []

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(cap, "_WORKERS", 2)
        cnl_lower_chi2(10.0, 0.5, 1.0, **MC_FAST)
        assert len(pools) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_thread_outlives_the_call(self, workers, monkeypatch):
        monkeypatch.setattr(cap, "_WORKERS", workers)
        before = threading.active_count()
        cnl_lower_chi2(10.0, 0.5, 1.0, **MC_FAST)
        assert threading.active_count() == before
        with pytest.raises(QuadratureFailure):
            cnl_lower_chi2(*UNRESOLVED, **MC_FAST)
        assert threading.active_count() == before

    def test_failure_independent_of_worker_count(self, monkeypatch):
        # every chunk fails on this channel; the first one in sample order
        # raises, whichever thread finishes first
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(cap, "_WORKERS", workers)
            with pytest.raises(QuadratureFailure) as info:
                cnl_lower_chi2(*UNRESOLVED, **MC_FAST)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_conditional_failure_names_the_sample(self, monkeypatch):
        # every chunk fails on this channel, and on the same channel in units
        # where sigma_rec = 1e-3; pass the first two, in order on one worker, so
        # that the failure's index in the draw is not its batch index.  The
        # message gives the channel and the sample in the caller's units.
        cond = cap._log_p_cond
        monkeypatch.setattr(cap, "_WORKERS", 1)
        for c in (1.0, 1e-3):
            hp, s2a, s2r = UNRESOLVED[0] * c, UNRESOLVED[1] * c, UNRESOLVED[2] * c * c
            calls = []

            def third_chunk_on(y, *args):
                calls.append(y.size)
                return np.zeros_like(y) if len(calls) <= 2 else cond(y, *args)

            monkeypatch.setattr(cap, "_log_p_cond", third_chunk_on)
            with pytest.raises(QuadratureFailure) as info:
                cnl_lower_chi2(hp, s2a, s2r, **MC_FAST)
            msg = str(info.value)
            assert msg.startswith(f"conditional density at hP={hp:g}, sigma2_a={s2a:g}, "
                                  f"sigma2_rec={s2r:g}: ")
            found = re.search(r"worst sample (\d+) of the draw \(y=(\S+), x=(\S+)\): .* "
                              r"at sample (\d+) of the batch", msg)
            assert found, msg
            k, batch_k = int(found.group(1)), int(found.group(4))
            assert k == 2 * cap._CHUNK + batch_k
            x, y = _channel_draws(np.random.default_rng(MC_FAST["seed"]), MC_FAST["n_samples"],
                                  hp, s2a, s2r)
            assert float(found.group(2)) == pytest.approx(y[k], rel=1e-5)
            assert float(found.group(3)) == pytest.approx(x[k], rel=1e-5)

    def test_sandwich_against_upper_bound(self):
        for hp, s2a, s2r in [(100.0, 1e-4, 1.0), (10.0, 1.0, 1.0), (100.0, 1.0, 25.0)]:
            est = cnl_lower_chi2(hp, s2a, s2r, **MC_FAST)
            ub = cnl_upper(hp, s2a, s2r)["cnl_upper_bits"]
            assert est.value - 3.0 * est.std_error <= ub

    def test_intensity_limit_sandwich(self):
        # dominant rectifier noise: bounded by the optimized intensity bound
        est = cnl_lower_chi2(100.0, 1e-6, 1.0, **MC_FAST)
        ub, _, _ = c1_upper_optimized(100.0, 1.0)
        assert 0.0 < est.value <= ub

    def test_noncoherent_limit_sandwich(self):
        # vanishing rectifier noise: bounded by the noncoherent bounds
        est = cnl_lower_chi2(100.0, 1.0, 0.0, **MC_FAST)
        assert est.value <= c2_upper(100.0, 1.0)
        assert est.value >= c2_asymptotic(100.0, 1.0) - 0.5

    def test_against_entropy_oracle_intensity_channel(self):
        """Independent check: with no antenna noise, I(X;Y) = h(Y) - h(Z1); h(Y)
        from a histogram plug-in on fresh samples."""
        hp, s2r = 50.0, 16.0
        est = cnl_lower_chi2(hp, 0.0, s2r, n_samples=40_000, seed=3)

        rng = np.random.default_rng(1234)
        n = 1_000_000
        y = hp * rng.standard_normal(n) ** 2 + math.sqrt(s2r) * rng.standard_normal(n)
        counts, edges = np.histogram(y, bins=800)
        widths = np.diff(edges)
        p = counts / n
        nz = p > 0
        h_y = -np.sum(p[nz] * np.log2(p[nz] / widths[nz]))
        h_cond = 0.5 * math.log2(2.0 * math.pi * math.e * s2r)
        mi_oracle = h_y - h_cond
        assert est.value == pytest.approx(mi_oracle, abs=0.05)

    def test_serialization_fields(self):
        est = cnl_lower_chi2(1.0, 1.0, 1.0, **MC_FAST)
        d = est.to_json_dict()
        assert d["n_samples"] == 10_000
        assert d["seed"] == 42


class TestPanelQuadrature:
    def test_failure_on_unresolvable_integrand(self):
        knots = np.array([[0.0, 0.5, 1.0]])

        def wild(t, active):
            # oscillation too fast for any node level to stabilize
            return np.sin(1e9 * t) ** 2 + np.sin(1.7e8 * t)

        with pytest.raises(QuadratureFailure):
            cap._panelized_integrals(knots, wild, 1e-14)

    def test_exact_on_polynomial(self):
        knots = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 3.0]])
        vals = cap._panelized_integrals(knots, lambda t, a: t ** 3, 1e-12)
        assert vals == pytest.approx([4.0, 81.0 / 4.0], rel=1e-13)

    def test_kronrod_rule(self):
        u, wk, wg = cap._kronrod_nodes()
        assert u.shape == wk.shape == wg.shape == (31,)
        assert np.all(wk > 0)
        x, w = np.polynomial.legendre.leggauss(15)
        assert np.array_equal(u[1::2], 0.5 * (x + 1.0))
        assert np.array_equal(wg[1::2], 0.5 * w)
        assert not wg[0::2].any()
        k = np.arange(47)
        moments = (u[:, None] ** k).T @ wk
        assert moments * (k + 1) == pytest.approx(np.ones(47), rel=1e-13)

    def test_kronrod_construction_matches_quadpack_gk15(self):
        # QUADPACK's dqk15 table (nodes on [-1, 1], nonnegative half, and weights)
        xgk = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
               0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
               0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
               0.207784955007898467600689403773245, 0.0]
        wgk = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
               0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
               0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
               0.204432940075298892414161999234649, 0.209482141084727828012999174891714]
        u, wk, _ = cap._kronrod_nodes(7)
        assert 2.0 * u[7:] - 1.0 == pytest.approx(xgk[::-1], abs=1e-14)
        assert 2.0 * wk[7:] == pytest.approx(wgk[::-1], abs=1e-14)

    def test_empty_panels_cost_nothing(self):
        base = np.array([[0.0, 0.3, 1.0, 2.5], [1.0, 1.5, 2.0, 4.0]])
        dup = np.array([[0.0, 0.0, 0.3, 0.3, 1.0, 2.5], [1.0, 1.5, 2.0, 2.0, 2.0, 4.0]])
        shapes = []

        def smooth(t, owner):
            shapes.append(t.shape)
            return np.exp(-t)

        ref = cap._panelized_integrals(base, smooth, 1e-12)
        shapes.clear()
        vals = cap._panelized_integrals(dup, smooth, 1e-12)
        assert shapes[0] == (6, 1, 31)  # 31 nodes on each of the 6 nonzero panels
        assert np.array_equal(vals, ref)
        # a sample's sum does not depend on its row or on the other rows
        assert np.array_equal(cap._panelized_integrals(dup[::-1], smooth, 1e-12), vals[::-1])

    def test_scratch_serves_calls_of_any_size(self):
        scratch = cap._Scratch()
        knots = np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 3.0]])
        nodes = []

        def cube(t, owner):
            nodes.append(t)
            return t ** 3

        both = cap._panelized_integrals(knots, cube, 1e-12, scratch)
        first = cap._panelized_integrals(knots[:1], cube, 1e-12, scratch)
        assert np.shares_memory(nodes[0], nodes[1])  # the smaller call reused the buffer
        assert np.array_equal(first, both[:1])
        assert np.array_equal(both, cap._panelized_integrals(knots, cube, 1e-12))

    def test_in_place_densities_match_their_formulas(self):
        # bit for bit, so that the buffers change no estimate; the rows of t are
        # Kronrod panels, and the chunk mixes both Bessel kernel paths
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 12.0, (50, 1, 1)) + rng.uniform(0.0, 2.0, (50, 1, 1)) * \
            cap._kronrod_nodes()[0]
        nu = rng.uniform(0.0, 12.0, (50, 1, 1))
        s2 = 0.7
        z = 2.0 * t * nu / s2
        assert 0 < np.count_nonzero(z[:, 0, 0] >= cap._I0E_SERIES_MIN) < 50
        bessel = cap._i0e_rows(z, np.empty_like(z), np.empty_like(z))
        want = (2.0 * t / s2) * np.exp(-((t - nu) ** 2) / s2) * bessel
        out, tmp, spare = np.empty_like(t), np.empty_like(t), np.empty_like(t)
        assert cap._density_t_cond(t, nu, s2, out, tmp, spare) is out
        assert np.array_equal(out, want)
        z = t - nu
        want = -(z * z) / (2.0 * s2) - 0.5 * math.log(2.0 * math.pi * s2)
        assert np.array_equal(cap._log_phi(z, s2), want)
        assert cap._log_phi(z, s2, out=z) is z
        assert np.array_equal(z, want)

    def test_nan_panel_is_not_dropped_as_empty(self):
        with pytest.raises(QuadratureFailure, match="1 of 2 "):
            cap._panelized_integrals(np.array([[0.0, 1.0], [0.0, np.nan]]),
                                     lambda t, a: np.ones_like(t), 1e-12)

    def test_failure_message_carries_context(self):
        knots = np.array([[0.0, 1.0], [2.0, 3.0]])

        def half_wild(t, owner):
            wild = np.sin(1e9 * t) ** 2 + np.sin(1.7e8 * t)
            return np.where(owner[:, None, None] == 1, wild, t ** 3)

        with pytest.raises(QuadratureFailure) as info:
            cap._panelized_integrals(knots, half_wild, 1e-14)
        msg = str(info.value)
        assert "1 of 2 output-density integrals missed tol=1e-14" in msg
        worst = re.search(r"worst \|delta\| between the last two levels (\S+) ", msg)
        assert worst and float(worst.group(1)) > 1e-14
        assert "sample 1 of the batch" in msg
        assert "window [2, 3]" in msg

    @settings(max_examples=60, deadline=None, database=None)
    @given(lo=st.floats(-3.0, 1.0), span=st.floats(0.2, 4.0),
           inner=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8),
           dup=st.integers(0, 7), mu=st.floats(-3.0, 4.0), sigma=st.floats(0.1, 1.5))
    def test_gaussian_bump_matches_erf(self, lo, span, inner, dup, mu, sigma):
        hi = lo + span
        feats = inner + [inner[dup % len(inner)]]  # a forced duplicate
        knots = np.sort(np.clip([[lo, *feats, hi]], lo, hi), axis=1)

        def bump(t, owner):
            return np.exp(-0.5 * ((t - mu) / sigma) ** 2)

        got = cap._panelized_integrals(knots, bump, 1e-13)[0]
        s = sigma * math.sqrt(2.0)
        want = 0.5 * math.sqrt(math.pi) * s * (erf((hi - mu) / s) - erf((lo - mu) / s))
        assert abs(got - want) <= 1e-12


def _bessel_rows(z):
    z = np.array(z, dtype=float)
    return cap._i0e_rows(z, np.empty_like(z), np.empty_like(z))


class TestBesselKernel:
    """_i0e_rows: the large-argument series beside scipy's i0e."""

    def test_series_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        z = np.concatenate([[50.0, 1e12], 50.0 + rng.uniform(0.0, 5.0, 500),
                            np.exp(rng.uniform(math.log(50.0), math.log(1e12), 2000))])
        got = _bessel_rows(z.reshape(-1, 1, 1)).ravel()
        with mpmath.workdps(40):
            exact = [mpmath.besseli(0, mpmath.mpf(v)) * mpmath.exp(-mpmath.mpf(v)) for v in z]
            rel = [float(abs(mpmath.mpf(float(g)) / e - 1)) for g, e in zip(got, exact)]
        assert max(rel) <= 2 * 2.0 ** -52

    def test_non_finite_arguments(self):
        got = _bessel_rows([[[50.0, 1e300, np.inf]], [[60.0, np.nan, np.inf]],
                         [[np.nan, 1.0, 2.0]], [[np.inf, np.inf, np.inf]]])
        assert got[0, 0, 2] == 0.0 and got[3].tolist() == [[0.0, 0.0, 0.0]]
        assert np.isnan(got[1, 0, 1]) and got[1, 0, 2] == 0.0
        assert np.isnan(got[2, 0, 0])
        assert np.array_equal(got[2, 0, 1:], i0e([1.0, 2.0]))

    def test_mixed_chunk_equals_its_rows_alone(self):
        rng = np.random.default_rng(4)
        z = np.sort(rng.uniform(0.0, 200.0, (40, 1, 31)), axis=-1)
        z[::7] += 50.0  # both paths, in runs of unequal length
        series = z[:, 0, 0] >= cap._I0E_SERIES_MIN
        assert series.any() and not series.all()
        got = _bessel_rows(z)
        assert np.array_equal(got, np.concatenate([_bessel_rows(row[None]) for row in z]))
        assert np.array_equal(got[~series], i0e(z[~series]))  # scipy's rows are scipy's
        assert got[series] == pytest.approx(i0e(z[series]), rel=1e-15)


# --- independent oracle for the output densities ---------------------------

def _norm_pdf(z, s2):
    return math.exp(-z * z / (2.0 * s2)) / math.sqrt(2.0 * math.pi * s2)


def _convolve_rec_noise(f_w, y, s2r, breaks):
    """int f_W(w) phi(y - w; s2r) dw by adaptive QUADPACK over y +- 40 sigma."""
    s = math.sqrt(s2r)
    lo, hi = max(0.0, y - 40.0 * s), y + 40.0 * s
    pts = sorted({min(max(b, lo), hi) for b in breaks + [y]} - {lo, hi})
    val, _ = integrate.quad(lambda w: f_w(w) * _norm_pdf(y - w, s2r), lo, hi,
                            points=pts or None, epsabs=0.0, epsrel=1e-12, limit=500)
    return val


def _p_cond_oracle(y, x, hp, s2a, s2r):
    # W | x = (s2a/2) * noncentral chi-square, 2 dof, noncentrality 2 hP x / s2a
    sc = 0.5 * s2a
    nu2 = hp * x
    spread = 2.0 * math.sqrt(nu2 * s2a) + s2a
    return _convolve_rec_noise(lambda w: stats.ncx2.pdf(w / sc, 2, nu2 / sc) / sc, y, s2r,
                               [nu2 - 6.0 * spread, nu2, nu2 + 6.0 * spread])


def _p_marg_oracle(y, hp, s2a, s2r):
    if s2a == 0.0:
        # W = hP X with X chi-square (1 dof): the w^-1/2 endpoint is QAWS's weight
        val, _ = integrate.quad(
            lambda w: math.exp(-w / (2.0 * hp)) / math.sqrt(2.0 * math.pi * hp)
            * _norm_pdf(y - w, s2r),
            0.0, max(y + 40.0 * math.sqrt(s2r), 1e-3), weight="alg", wvar=(-0.5, 0.0),
            epsabs=0.0, epsrel=1e-12, limit=500)
        return val
    # W = A^2 + B^2 with A ~ N(0, hP + s2a/2) (the chi-square input folded into
    # the in-phase noise) and B ~ N(0, s2a/2): convolve the two chi-square laws
    va, vb = hp + 0.5 * s2a, 0.5 * s2a

    def f_w(w):
        if w <= 0.0:
            return 1.0 / (2.0 * math.sqrt(va * vb))
        val, _ = integrate.quad(
            lambda a: math.exp(-a / (2.0 * va) - (w - a) / (2.0 * vb))
            / (2.0 * math.pi * math.sqrt(va * vb)),
            0.0, w, weight="alg", wvar=(-0.5, -0.5), epsabs=0.0, epsrel=1e-13)
        return val

    return _convolve_rec_noise(f_w, y, s2r, [vb, 3.0 * vb, 10.0 * vb])


def _channel_draws(rng, n, hp, s2a, s2r):
    x = rng.standard_normal(n) ** 2
    sc = math.sqrt(0.5 * s2a)
    w = (np.sqrt(hp * x) + sc * rng.standard_normal(n)) ** 2 + (sc * rng.standard_normal(n)) ** 2
    return x, w + math.sqrt(s2r) * rng.standard_normal(n)


class TestDensityOracle:
    """The panel quadrature against per-sample adaptive QUADPACK integrals of
    textbook laws, in w rather than t = sqrt(w) space."""

    @pytest.mark.parametrize("s2a", [1e-2, 1.0, 1e2])
    def test_conditional_and_marginal(self, s2a):
        hp, s2r = 100.0, 1.0
        x, y = _channel_draws(np.random.default_rng(int(1e4 * s2a)), 6, hp, s2a, s2r)
        cond = np.exp(cap._log_p_cond(y, x, hp, s2a, s2r))
        log_marg = cap._log_p_marg(y, hp, s2a, s2r)
        marg = np.exp(log_marg)
        assert cond == pytest.approx(
            [_p_cond_oracle(yi, xi, hp, s2a, s2r) for yi, xi in zip(y, x)], rel=1e-8)
        assert marg == pytest.approx([_p_marg_oracle(yi, hp, s2a, s2r) for yi in y], rel=1e-8)
        # a worker's scratch, left dirty by a conditional call, changes no bit
        scratch = cap._Scratch()
        cap._log_p_cond(y, x, hp, s2a, s2r, scratch)
        assert np.array_equal(cap._log_p_marg(y, hp, s2a, s2r, scratch), log_marg)
        assert np.array_equal(cap._log_p_marg(y, hp, s2a, 0.0, scratch),
                              cap._log_p_marg(y, hp, s2a, 0.0))

    # criterion 9's ratio 1e-4, fig7's s2r = 1e4 point and the fig10 point
    @pytest.mark.parametrize("s2a, s2r", [(1e-4, 1.0), (1.0, 1e4), (1e-2, 1e2)])
    def test_tail_conditional(self, s2a, s2r, monkeypatch):
        hp = 100.0
        x, y = _channel_draws(np.random.default_rng(int(1e4 * s2a + s2r)), 6, hp, s2a, s2r)
        # two more x, each with y 8 std below and 8 std above its conditional mean
        nu2 = hp * x[:2]
        mean, std = nu2 + s2a, np.sqrt(2.0 * nu2 * s2a + s2a * s2a + s2r)
        x, y = np.r_[x, x[:2], x[:2]], np.r_[y, mean - 8.0 * std, mean + 8.0 * std]
        oracle = [_p_cond_oracle(yi, xi, hp, s2a, s2r) for yi, xi in zip(y, x)]
        assert np.exp(cap._log_p_cond(y, x, hp, s2a, s2r)) == pytest.approx(oracle, rel=1e-8)
        # the panel path alone: the Gauss-Hermite pair settles some of these samples
        monkeypatch.setattr(cap, "_GH_WINDOW", math.inf)
        assert np.exp(cap._log_p_cond(y, x, hp, s2a, s2r)) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("hp", [1e-2, 10.0, 1e3])
    def test_marginal_without_antenna_noise(self, hp):
        s2r = 1.0
        x, y = _channel_draws(np.random.default_rng(5), 4, hp, 0.0, s2r)
        log_marg = cap._log_p_marg(y, hp, 0.0, s2r)
        assert np.exp(log_marg) == pytest.approx(
            [_p_marg_oracle(yi, hp, 0.0, s2r) for yi in y], rel=1e-8)
        scratch = cap._Scratch()
        cap._log_p_cond(y, x, hp, 1.0, s2r, scratch)
        assert np.array_equal(cap._log_p_marg(y, hp, 0.0, s2r, scratch), log_marg)


def _count_marginal_nodes(monkeypatch):
    """Route the direct marginal quadrature through a counter of its y nodes."""
    seen = []
    direct = cap._log_p_marg

    def counting(y, *args, **kwargs):
        seen.append(np.size(y))
        return direct(y, *args, **kwargs)

    monkeypatch.setattr(cap, "_log_p_marg", counting)
    return seen


class TestConditionalWork:
    # integrand evaluations per sample, the Gauss-Hermite pair's included,
    # measured at 32.6 for sa2 = 1e-4 and 38.6 for sa2 = 100
    @pytest.mark.parametrize("s2a, most", [(1e-4, 45), (100.0, 50)])
    def test_evaluations_per_sample(self, s2a, most, monkeypatch):
        seen = []
        rule_sums = cap._panel_rule_sums

        def counting(integrand, n, owner, lower, widths, scratch, u, *weights):
            seen.append(owner.size * u.size)
            return rule_sums(integrand, n, owner, lower, widths, scratch, u, *weights)

        monkeypatch.setattr(cap, "_panel_rule_sums", counting)
        # without the marginal table, every evaluation is the conditional stage's
        monkeypatch.setattr(cap, "_marginal_table", lambda *args: np.zeros_like)
        cnl_lower_chi2(100.0, s2a, 1.0, n_samples=10_000, seed=3)
        assert 0 < sum(seen) <= most * 10_000


def _record_hermite(monkeypatch):
    """Record, per conditional density call, the samples the Gauss-Hermite pair
    tries, its nodes t, and the samples it settles.  Its call of the rule sums
    is the one whose nodes u straddle 0; a panel rule's lie in [0, 1]."""
    seen = {"tried": [], "t": [], "settled": []}
    rule_sums, hermite = cap._panel_rule_sums, cap._hermite_sums

    def sums(integrand, n, owner, lower, widths, scratch, u, *weights):
        if u.min() < 0.0:
            seen["tried"].append(owner.copy())
            seen["t"].append(lower[:, None] + widths[:, None] * u)
        return rule_sums(integrand, n, owner, lower, widths, scratch, u, *weights)

    def settling(*args):
        settled, vals = hermite(*args)
        seen["settled"].append(settled.copy())
        return settled, vals

    monkeypatch.setattr(cap, "_panel_rule_sums", sums)
    monkeypatch.setattr(cap, "_hermite_sums", settling)
    return seen


class TestHermitePair:
    """The Gauss-Hermite pair that settles a conditional density before the panels."""

    # criterion 9's ratio 1e-4, fig7's s2r = 1e4 point and the fig10 point
    @pytest.mark.parametrize("s2a, s2r", [(1e-4, 1.0), (1.0, 1e4), (1e-2, 1e2)])
    def test_settled_samples_match_oracle(self, s2a, s2r, monkeypatch):
        hp = 100.0
        x, y = _channel_draws(np.random.default_rng(int(1e4 * s2a + s2r) + 1), 12,
                              hp, s2a, s2r)
        seen = _record_hermite(monkeypatch)
        p = np.exp(cap._log_p_cond(y, x, hp, s2a, s2r))
        (settled,) = seen["settled"]
        assert settled.any()
        assert p[settled] == pytest.approx(
            [_p_cond_oracle(yi, xi, hp, s2a, s2r) for yi, xi in zip(y[settled], x[settled])],
            rel=1e-8)

    @settings(max_examples=40, deadline=None, database=None)
    @given(log_hp=st.floats(0.0, 3.0), log_ratio=st.floats(-6.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_settled_samples_match_finer_panels(self, log_hp, log_ratio, seed):
        hp, s2r = 10.0 ** log_hp, 1.0
        s2a = s2r * 10.0 ** log_ratio
        x, y = _channel_draws(np.random.default_rng(seed), 256, hp, s2a, s2r)
        with pytest.MonkeyPatch.context() as mp:
            seen = _record_hermite(mp)
            p = np.exp(cap._log_p_cond(y, x, hp, s2a, s2r))
        (settled,) = seen["settled"]
        # the panel path at a tighter tolerance; where the Rice law is narrowest,
        # 1e-13 is below the rounding of the panel sums, and 1e-12 serves
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap, "_GH_WINDOW", math.inf)
            for tol in (1e-13, 1e-12):
                mp.setattr(cap, "_QUAD_TOL", tol)
                try:
                    ref = np.exp(cap._log_p_cond(y[settled], x[settled], hp, s2a, s2r))
                    break
                except QuadratureFailure:
                    continue
        # the ladder itself misses 1e-10 by up to 4x at single samples
        assert np.all(np.abs(p[settled] - ref) <= 5e-10)

    def test_window_clears_the_origin(self, monkeypatch):
        hp, s2a, s2r = 100.0, 1.0, 1.0
        x, y = _channel_draws(np.random.default_rng(9), 64, hp, s2a, s2r)
        # and samples near the origin: small nu, small or negative y
        x, y = np.r_[x, 1e-6, 1e-3, 1e-3, 0.05, 0.05], np.r_[y, -2.0, 0.3, 3.0, 1.0, 30.0]
        seen = _record_hermite(monkeypatch)
        cond = cap._log_p_cond(y, x, hp, s2a, s2r)
        # the bump: the Rice law's precision at nu times the Gaussian factor's,
        # linearized at sqrt(y+)
        nu, ty = np.sqrt(hp * x), np.sqrt(np.maximum(y, 0.0))
        p1, p2 = 2.0 / s2a, 4.0 * ty * ty / s2r
        m, s = (p1 * nu + p2 * ty) / (p1 + p2), (p1 + p2) ** -0.5
        outside = np.flatnonzero(m - cap._GH_WINDOW * s <= 0.0)
        (tried,), (t,), (settled,) = seen["tried"], seen["t"], seen["settled"]
        # the first four added samples lie outside, the last one inside
        assert set(range(64, 68)) <= set(outside) and 68 in tried
        assert not np.isin(outside, tried).any()
        assert np.all(t > 0.0)
        assert not settled[outside].any()
        # the samples left take the panel path, bit for bit
        monkeypatch.setattr(cap, "_GH_WINDOW", math.inf)
        assert np.array_equal(cond[~settled], cap._log_p_cond(y, x, hp, s2a, s2r)[~settled])


class TestMarginalTable:
    """The certified Chebyshev table of log p(y) built once per estimate."""

    @settings(max_examples=20, deadline=None, database=None)
    @given(log_hp=st.floats(0.0, 3.0), log_ratio=st.none() | st.floats(-4.0, 2.0),
           log_s2r=st.floats(-2.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_quadrature(self, log_hp, log_ratio, log_s2r, seed):
        hp, s2r = 10.0 ** log_hp, 10.0 ** log_s2r
        s2a = 0.0 if log_ratio is None else s2r * 10.0 ** log_ratio
        _, y = _channel_draws(np.random.default_rng(seed), 2000, hp, s2a, s2r)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            p_hat = np.exp(cap._marginal_table(y, hp, s2a, s2r, pool)(y))
        # the reference at a tighter tolerance: at 1e-10 the direct quadrature
        # itself can be off by a few times 1e-10 at single samples
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cap, "_QUAD_TOL", 1e-13)
            p = np.exp(cap._log_p_marg(y, hp, s2a, s2r))
        assert np.all(np.abs(p_hat - p) <= 1e-10 + 1e-10 * p)

    @pytest.mark.parametrize("n", [10_000, 40_000])
    def test_marginal_work_does_not_grow_with_samples(self, n, monkeypatch):
        seen = _count_marginal_nodes(monkeypatch)
        cnl_lower_chi2(100.0, 0.01, 100.0, n_samples=n, seed=7)
        assert 0 < sum(seen) < 1000  # per-sample quadrature would see n nodes

    def test_runaway_refinement_hits_the_cap(self, monkeypatch):
        # the conditional stage fails first on this channel; a stub lets the run
        # reach the table, which cannot certify the densities of this channel
        seen = _count_marginal_nodes(monkeypatch)
        monkeypatch.setattr(cap, "_log_p_cond", lambda y, *args: np.zeros_like(y))
        with pytest.raises(QuadratureFailure) as info:
            cnl_lower_chi2(1e12, 1e-20, 1e-20, **MC_FAST)
        msg = str(info.value)
        assert msg.startswith("marginal table at hP=1e+12, sigma2_a=1e-20, sigma2_rec=1e-20: ")
        assert f"more than {cap._TABLE_MAX_PANELS} table panels" in msg
        y_range = re.search(r"over y in \[(\S+), (\S+)\]", msg)
        assert y_range and 0.0 < float(y_range.group(1)) < float(y_range.group(2))
        # in the caller's units, though the table is built where sigma_rec = 1
        _, y = _channel_draws(np.random.default_rng(MC_FAST["seed"]), MC_FAST["n_samples"],
                              1e12, 1e-20, 1e-20)
        assert float(y_range.group(1)) == pytest.approx(y.min(), rel=1e-5)
        assert float(y_range.group(2)) == pytest.approx(y.max(), rel=1e-5)
        assert 0 < sum(seen) <= cap._TABLE_MAX_PANELS * 33  # 17 nodes + 16 checks each

    def test_conditional_failure_names_stage_and_channel(self):
        with pytest.raises(QuadratureFailure) as info:
            cnl_lower_chi2(1e12, 1e-20, 1e-20, **MC_FAST)
        msg = str(info.value)
        assert msg.startswith("conditional density at hP=1e+12, sigma2_a=1e-20, "
                              "sigma2_rec=1e-20: ")
        assert "output-density integrals missed tol=1e-10" in msg


# --- the deterministic chi-square-input rate ----------------------------------

# the mi_points channels (criterion 9's ratios 1e-4, 1e-2, 1 and 1e2, fig7's
# srec2 = 1e4 point, the fig10 point and the unit point scaled by 1e-6) and
# the eight effective noises of the adc_sweep links
BENCHMARK_CHANNELS = (
    [(100.0, float(r), 1.0) for r in np.logspace(-4, 2, 10)[::3]]
    + [(100.0, 1.0, 1e4), (100.0, 0.01, 100.0), (1e-4, 1e-6, 1e-12)]
    + [(100.0, 1.0, s2r + 1.0 / (1.0 - float(rho)) ** 2)
       for s2r in (1.0, 1e4) for rho in np.linspace(0.0, 1.0 - 1e-3, 4)])


# the interpolant's channels: the benchmark channels, every criterion-9 ratio,
# and two high-power channels whose first panel splits
INTERPOLANT_CHANNELS = list(dict.fromkeys(
    BENCHMARK_CHANNELS + [(100.0, float(r), 1.0) for r in np.logspace(-4, 2, 10)]
    + [(1000.0, 1.0, 1.0), (3000.0, 1.0, 1.0)]))
# at sigma2_rec = 0, the interpolant's values of g = hP / sigma2_a, up to the
# certified range's end
W_LAW_SNRS = [1e-3, 1.0, 1e3, 1e6, 1e7, 1e8, 1e9, 1e10]


def _is_5_smooth(m):
    """Whether each positive integer of m has no prime factor above 5."""
    for prime in (2, 3, 5):
        for _ in range(21):
            m = np.where(m % prime == 0, m // prime, m)
    return m == 1


def _average_at_every_node(cond):
    """Reference for _cond_interpolated's E_X[h(Y | X)] [nats]: the
    conditional entropy cond(s, work) computed at every node of a fixed
    composite rule in s = sqrt(x), 16 Gauss-Legendre nodes on each of the
    panels [0, 1e-6], 17 geometric ones up to 0.5 and 0.5-wide ones up to
    s = 9, weighted by the density of s = |G|.  The first panels resolve
    h(Y | X) where nu = sqrt(hP) s is of order sigma_a, which at sigma2_rec
    = 0 and hP / sigma2_a = 1e10 is s = 1e-5."""
    edges = np.concatenate([[0.0], np.geomspace(1e-6, 0.5, 18), np.arange(1.0, 9.25, 0.5)])
    u, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    s = (edges[:-1, None] + half * (u + 1.0)).ravel()
    weight = (half * w).ravel() * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * s * s)
    return weight @ cond(s, collections.defaultdict(int))[0]


def _fft_conditionals(hp, s2a, s2r):
    """The FFT branch's conditional entropies, in units where sigma_rec = 1."""
    c = 1.0 / math.sqrt(s2r)
    return functools.partial(chi2rate._cond_entropies, c * hp, c * s2a)


def _bisected_cutoff(nu2, a):
    """Reference for _cond_cutoff: 60 bisection steps on the root of the CF
    bound's exponent L(omega) = ln(1/_CF_FLOOR), the upper end rounded up to
    a power of 2^(1/4)."""
    target = -math.log(chi2rate._CF_FLOOR)
    lo, hi = np.zeros_like(nu2), np.full_like(nu2, math.sqrt(2.0 * target))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        w2 = mid * mid
        over = 0.5 * w2 + w2 * a * nu2 / (1.0 + w2 * a * a) + 0.5 * np.log1p(w2 * a * a) > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    return np.exp2(np.ceil(4.0 * np.log2(hi)) / 4.0)


def _cf_bound_exponent(omega, nu2, a):
    """-ln of the bound on |phi(omega)| the cutoffs rest on."""
    x = omega * omega * a * a
    return 0.5 * omega * omega + omega * omega * a * nu2 / (1.0 + x) + 0.5 * math.log1p(x)


def _rate_by_dblquad(hp, s2a, s2r):
    """I(X;Y) = h(Y) - E_X[h(Y | X)] in bits from QUADPACK: E_X[h(Y | X)] as
    one dblquad over s = sqrt(x) and the output, h(Y) as one quad.  With
    s2r > 0 the densities are the sampler's quadrature (_log_p_cond and
    _log_p_marg); at s2r = 0 they are the closed forms of W = |nu + Z2|^2,
    integrated in t = sqrt(w)."""
    sa = math.sqrt(s2a)
    weight = math.sqrt(2.0 / math.pi)
    opts = dict(epsabs=1e-9, epsrel=0.0)
    if s2r > 0:
        def f_cond(y, s):
            lp = cap._log_p_cond(np.array([y]), np.array([s * s]), hp, s2a, s2r)[0]
            return -weight * math.exp(-0.5 * s * s + lp) * lp

        def f_marg(y):
            lp = cap._log_p_marg(np.array([y]), hp, s2a, s2r)[0]
            return -math.exp(lp) * lp

        srec = math.sqrt(s2r)
        lo = lambda s: max(math.sqrt(hp) * s - 7.0 * sa, 0.0) ** 2 - 12.0 * srec
        hi = lambda s: (math.sqrt(hp) * s + 7.0 * sa) ** 2 + 12.0 * srec
        y_hi = hp + s2a + 80.0 * (hp + 0.5 * s2a) + 12.0 * srec
        h_y, _ = integrate.quad(f_marg, -12.0 * srec, y_hi, limit=200, **opts)
    else:
        def f_cond(t, s):
            nu = math.sqrt(hp) * s
            # the Rice law of T = |nu + Z2| and log p_W(t^2)
            lp = -(t - nu) ** 2 / s2a + math.log(i0e(2.0 * t * nu / s2a) / s2a)
            return -weight * math.exp(-0.5 * s * s + lp) * lp * 2.0 * t

        va, vb = hp + 0.5 * s2a, 0.5 * s2a

        def f_marg(t):
            w = t * t
            lp = (-w / (2.0 * va) + math.log(i0e(w * (va - vb) / (4.0 * va * vb)))
                  - math.log(2.0 * math.sqrt(va * vb)))
            return -math.exp(lp) * lp * 2.0 * t

        lo = lambda s: max(math.sqrt(hp) * s - 7.0 * sa, 0.0)
        hi = lambda s: math.sqrt(hp) * s + 7.0 * sa
        h_y, _ = integrate.quad(f_marg, 0.0, math.sqrt(90.0 * va), limit=200, **opts)
    h_cond, _ = integrate.dblquad(f_cond, 0.0, 9.0, lo, hi, **opts)
    return (h_y - h_cond) * LOG2E


class TestChiSquareRate:
    # (1e8, 1, 0) lies past sigma2_rec = 0's former limit hP / sigma2_a = 1e6
    @pytest.mark.parametrize("hp, s2a, s2r", [(100.0, 1.0, 1.0), (100.0, 1e-4, 1.0),
                                              (100.0, 1.0, 1e4), (100.0, 0.01, 100.0),
                                              (100.0, 1.0, 0.0), (1e8, 1.0, 0.0)])
    def test_agrees_with_sampler(self, hp, s2a, s2r):
        rate = chi2rate.cnl_rate_chi2(hp, s2a, s2r)
        est = cnl_lower_chi2(hp, s2a, s2r, **MC_FAST)
        assert abs(rate.value - est.value) <= 4.0 * est.std_error

    def test_densities_match_quadrature_at_unit_point(self, monkeypatch):
        # the sampler's quadrature at its tolerance 1e-10 is off by up to
        # 4.7e-14 here, at 1e-13 by 1.7e-15; at x = 0, W is exponential and
        # Y exponentially modified Gaussian, a closed form
        monkeypatch.setattr(cap, "_QUAD_TOL", 1e-13)
        hp, s2a = 100.0, 1.0
        for x in (0.0, 0.02, 0.7, 4.0):
            nu2 = hp * x
            cut = float(chi2rate._cond_cutoff(np.array([nu2]), s2a, {"cutoff_evals": 0})[0])
            n, step = 1024, math.pi / cut
            base, slope = chi2rate._cond_cf_terms(np.arange(n // 2 + 1) * (2.0 * cut / n), s2a)
            p = np.fft.irfft(np.exp(base + nu2 * slope), n) / step
            # the density of Y - E[Y | X] folded onto the period: index j is
            # j step, or j step - n step in the upper half
            y = np.arange(n) * step
            y[n // 2:] -= n * step
            y += nu2 + s2a
            if x == 0.0:
                ref = np.exp(0.5 - y) * 0.5 * erfc((1.0 - y) / math.sqrt(2.0))
            else:
                ref = np.exp(cap._log_p_cond(y, np.full(n, x), hp, s2a, 1.0))
            assert np.max(np.abs(p - ref)) <= 1e-14
        # the marginal at its power-of-two length here and at the 5-smooth
        # 2^5 3^6, which takes the mixed-radix transform
        step = chi2rate._MARG_STEP
        for n in (32768, 23328):
            omega = np.arange(n // 2 + 1) * (2.0 * math.pi / (n * step))
            p = np.fft.irfft(chi2rate._marg_cf_conj(omega, hp, s2a), n) / step
            y = np.arange(n) * step
            y[y > n * step - 12.5] -= n * step
            every = slice(0, n, 37)
            ref = np.exp(cap._log_p_marg(y[every], hp, s2a, 1.0))
            assert np.max(np.abs(p[every] - ref)) <= 1e-14

    @pytest.mark.parametrize("hp, a", [(3236.0, 0.0), (1.0, 875.0), (1e-3, 1e-6), (100.0, 1.0)])
    def test_marginal_cf_one_root_matches_two(self, hp, a):
        # over the marginal's whole frequency grid at each channel
        v1, _ = cap._marginal_w_variances(hp, a)
        n = int(chi2rate._grid_size((hp + a + 80.0 * v1 + 24.0) / chi2rate._MARG_STEP, "marginal",
                                    chi2rate._SMOOTH_LENGTHS))
        omega = np.arange(n // 2 + 1) * (2.0 * math.pi / (n * chi2rate._MARG_STEP))
        two_roots = (np.exp(-0.5 * omega * omega) / np.sqrt(1.0 + 1j * omega * a)
                     / np.sqrt(1.0 + 1j * omega * (a + 2.0 * hp)))
        got = chi2rate._marg_cf_conj(omega, hp, a)
        assert np.max(np.abs(got / two_roots - 1.0)) <= 2e-15

    @settings(max_examples=300, deadline=None)
    @given(need=st.floats(1.0, 2.0 ** 20))
    @example(need=2.0 ** 20)
    @example(need=32496.0)
    def test_marginal_length_is_least_even_5_smooth(self, need):
        n = int(chi2rate._grid_size(need, "marginal density", chi2rate._SMOOTH_LENGTHS))
        assert n % 2 == 0 and _is_5_smooth(np.array([n]))[0]
        assert n >= max(need, 8.0)
        below = np.arange(math.ceil(max(need, 8.0)), n)
        assert not np.any(_is_5_smooth(below) & (below % 2 == 0))

    def test_marginal_lengths_are_every_even_5_smooth(self):
        # each even 5-smooth m up to 2^20 is the length for a need just below it
        even = np.arange(8, 2 ** 20 + 1, 2)
        smooth = even[_is_5_smooth(even)]
        assert np.array_equal(chi2rate._grid_size(smooth - 1.5, "marginal density",
                                                  chi2rate._SMOOTH_LENGTHS), smooth)

    @pytest.mark.parametrize("need", [2.0 ** 20 + 0.5, 3e6, math.inf, math.nan])
    def test_grid_size_past_limit_rejected(self, need):
        with pytest.raises(InvalidParams, match="the marginal density needs .* grid points, "
                                                "more than 1048576"):
            chi2rate._grid_size(need, "marginal density", chi2rate._SMOOTH_LENGTHS)

    @pytest.mark.parametrize("hp, s2a, s2r", [(1.0, 1.0, 1.0), (100.0, 1.0, 0.0),
                                              (10.0, 0.5, 0.0)])
    def test_matches_dblquad(self, hp, s2a, s2r):
        assert chi2rate.cnl_rate_chi2(hp, s2a, s2r).value == pytest.approx(
            _rate_by_dblquad(hp, s2a, s2r), abs=1e-8)

    def test_no_antenna_noise(self):
        # h(Y | X) is the processing noise's; h(Y) from the independent
        # marginal oracle, which integrates the chi-square law's w^-1/2 endpoint
        hp, s2r = 4.0, 1.0

        def f(y):
            p = _p_marg_oracle(y, hp, 0.0, s2r)
            return -p * math.log(p) if p > 0 else 0.0

        h_y, _ = integrate.quad(f, -12.0, 12.0 + 81.0 * hp, epsabs=1e-11, epsrel=0.0,
                                limit=400, points=[0.0, hp])
        want = (h_y - 0.5 * math.log(2.0 * math.pi * math.e * s2r)) * LOG2E
        assert chi2rate.cnl_rate_chi2(hp, 0.0, s2r).value == pytest.approx(want, abs=1e-8)

    def test_branches_without_signal_or_noise(self):
        assert chi2rate.cnl_rate_chi2(0.0, 1.0, 1.0) == chi2rate.RateBound(0.0, 0.0)
        assert chi2rate.cnl_rate_chi2(0.0, 0.0, 1.0) == chi2rate.RateBound(0.0, 0.0)
        with pytest.raises(ZeroNoise):
            chi2rate.cnl_rate_chi2(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("position", range(3))
    def test_bad_inputs_rejected(self, bad, position):
        args = [10.0, 1.0, 1.0]
        args[position] = bad
        with pytest.raises(InvalidParams):
            chi2rate.cnl_rate_chi2(*args)

    @pytest.mark.parametrize("hp, s2a, s2r, what", [
        (1e4, 1.0, 1.0, "marginal density"),
        # 4 (81 hP) + 96 = 1048884 points, just past 2^20
        (3237.0, 0.0, 1.0, "marginal density"),
        (100.0, 1e4, 1.0, "marginal density"),
        (100.0, 2000.0, 1.0, "conditional densities need"),
        (1e300, 1.0, 1e-300, "marginal density"),
    ])
    def test_grid_limit_rejected_before_any_grid(self, hp, s2a, s2r, what, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(chi2rate, "_grid_entropies", no_grid)
        monkeypatch.setattr(chi2rate, "_panel_entropies", no_grid)
        with pytest.raises(InvalidParams, match="past the grid limit") as info:
            chi2rate.cnl_rate_chi2(hp, s2a, s2r)
        assert what in str(info.value)

    def test_past_certified_range_rejected_before_any_density(self, monkeypatch):
        # at sigma2_rec = 0, hP / sigma2_a 1e-6 above 1e10
        def no_density(*args):
            raise AssertionError("a density was evaluated")

        for name in ("_log_density_w_cond", "_log_density_w_marg", "_panel_entropies"):
            monkeypatch.setattr(chi2rate, name, no_density)
        with pytest.raises(InvalidParams, match=r"past the certified range: hP / sigma2_a = "
                                                r"10000010000 exceeds 1e\+10") as info:
            chi2rate.cnl_rate_chi2(2.000002e10, 2.0, 0.0)
        assert info.value.exit_code == 2

    def test_limit_admits_its_stated_reach(self):
        # the largest hP / sigma_rec the limit states; criterion 9's largest
        # ratio sa2 / srec2 = 100 is a benchmark channel below
        assert chi2rate.cnl_rate_chi2(3236.0, 0.0, 1.0).error_bound <= 1e-10

    def test_limit_counts_only_the_grids_built(self):
        # the panels' 140 conditionals take 10.1M grid points here
        assert chi2rate.cnl_rate_chi2(100.0, 300.0, 1.0).error_bound <= 1e-10

    @pytest.mark.parametrize("step", [0.5, 0.6, 0.7, 0.8])
    def test_grid_error_terms_cover_a_coarse_grid(self, step):
        # the unit Gaussian on grids too coarse for it: the Riemann estimate
        # alone covers the entropy's error, and with the truncation term by 5x
        n = 256
        omega = np.arange(n // 2 + 1) * (2.0 * math.pi / (n * step))
        (h,), (riemann,), _ = chi2rate._grid_entropies(np.exp(-0.5 * omega * omega)[None], n, step,
                                                  {"transforms": 0})
        error = abs(h - 0.5 * math.log(2.0 * math.pi * math.e))
        cut = math.pi / step
        assert error <= riemann
        assert 5.0 * error <= riemann + chi2rate._truncation_error(math.exp(-0.5 * cut * cut), cut,
                                                             n * step)

    def test_coarse_grid_fails_mass_check(self, monkeypatch):
        monkeypatch.setattr(chi2rate, "_MARG_STEP", 0.5)
        with pytest.raises(QuadratureFailure, match="integrates to 1 only within") as info:
            chi2rate.cnl_rate_chi2(100.0, 1.0, 1.0)
        assert str(info.value).count("hP=100, sigma2_a=1, sigma2_rec=1") == 1

    @pytest.mark.parametrize("hp, s2a, s2r", BENCHMARK_CHANNELS)
    def test_benchmark_channels_certified(self, hp, s2a, s2r):
        rate = chi2rate.cnl_rate_chi2(hp, s2a, s2r)
        assert 0.0 < rate.error_bound <= 1e-10
        assert 0.0 < rate.value <= cnl_upper(hp, s2a, s2r)["cnl_upper_bits"]

    def test_falls_with_the_processing_noise(self):
        rates = [chi2rate.cnl_rate_chi2(100.0, 1.0, s2r).value
                 for s2r in (1.0, 2.0, 4.0, 1e2, 1e4, 1e6)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_work_counters(self):
        work = {"transforms": 5}
        chi2rate.cnl_rate_chi2(100.0, 1.0, 1.0, work)
        # five panels of 24 nodes and 4 checks, none bisected
        assert work["panels"] == 5
        assert work["conditionals"] == 5 * 28
        assert work["marginal_points"] == 32768
        assert work["conditional_points"] == 39104
        # the marginal and one transform per conditional grid length (4 here)
        assert work["transforms"] == 5 + 5
        # the search brackets span at most 29 levels here (13 down to -16 at
        # s = 9), which 5 halvings settle, at the panels' conditionals
        assert work["cutoff_evals"] == 5 * 28 * 5

    @pytest.mark.parametrize("channel, points", zip(
        BENCHMARK_CHANNELS[-8:], [23328, 18432, 10800, 144, 432, 432, 432, 144]))
    def test_adc_sweep_marginal_lengths(self, channel, points):
        # each the least even 2^i 3^j 5^k at or above the points needed;
        # powers of two would take 32768, 32768, 16384, 256, 512 (three times) and 256
        work = {}
        chi2rate.cnl_rate_chi2(*channel, work)
        assert work["marginal_points"] == points

    @pytest.mark.parametrize("hp, s2a, s2r", INTERPOLANT_CHANNELS)
    def test_interpolant_matches_every_node(self, hp, s2a, s2r):
        cond = _fft_conditionals(hp, s2a, s2r)
        got = chi2rate._cond_interpolated(cond, collections.defaultdict(int))[0]
        assert abs(got - _average_at_every_node(cond)) <= 1e-13
        assert 0.0 < chi2rate.cnl_rate_chi2(hp, s2a, s2r).error_bound <= 1e-10

    @pytest.mark.parametrize("g", W_LAW_SNRS)
    def test_interpolant_matches_every_node_w_law(self, g):
        cond = functools.partial(chi2rate._w_cond_entropies, g)
        got = chi2rate._cond_interpolated(cond, collections.defaultdict(int))[0]
        assert abs(got - _average_at_every_node(cond)) <= 1e-13
        assert 0.0 < chi2rate.cnl_rate_chi2(g, 1.0, 0.0).error_bound <= 1e-10

    def test_w_law_approaches_c2_asymptote(self):
        # at sigma2_rec = 0 the rate lies above 0.5 log2(1 + g / 2), by less at
        # each larger g (measured: 1.3e-4, 4.2e-5, 1.3e-5 and 4.2e-6 bits)
        gaps = [chi2rate.cnl_rate_chi2(g, 1.0, 0.0).value - c2_asymptotic(g, 1.0)
                for g in (1e7, 1e8, 1e9, 1e10)]
        assert 0.0 < gaps[-1] and all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_interpolant_bisects_near_zero(self):
        # h(Y | X) has a singularity just left of x = 0, closer at higher
        # hP / sigma_rec: the first panel must split
        work = {}
        chi2rate.cnl_rate_chi2(3000.0, 1.0, 1.0, work)
        assert work["panels"] > 5
        assert work["conditionals"] == 28 * work["panels"]

    def test_lebesgue_bound_covers_the_nodes(self):
        # the sum of |l_k| over [-1, 1], sampled at 1000 points per node gap
        # in angle, stays within (2 / pi) ln 24 + 1 for Chebyshev-Lobatto nodes
        u = -np.cos(np.linspace(0.0, math.pi, 1000 * (chi2rate._PANEL_NODES.size - 1) + 1))
        lebesgue = np.abs(chi2rate._lagrange_basis(u)).sum(axis=-1).max()
        assert 2.95 < lebesgue <= chi2rate._LEBESGUE == pytest.approx(3.02321, abs=1e-5)

    def test_interpolant_past_panel_limit_fails(self, monkeypatch):
        monkeypatch.setattr(chi2rate, "_PANEL_TOL", 0.0)
        with pytest.raises(QuadratureFailure, match=r"more than 64 interpolation panels "
                           r"to meet 0 nats at hP=100, sigma2_a=1, sigma2_rec=1$"):
            chi2rate.cnl_rate_chi2(100.0, 1.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1e-8, 400.0), nu2=st.floats(0.0, 3e5))
    def test_cutoff_is_least_level_past_the_floor(self, a, nu2):
        cut = chi2rate._cond_cutoff(np.array([nu2]), a, {"cutoff_evals": 0})[0]
        j = round(4.0 * math.log2(cut))
        assert cut == np.exp2(j / 4.0)
        target = -math.log(chi2rate._CF_FLOOR)
        assert _cf_bound_exponent(cut, nu2, a) > target
        assert _cf_bound_exponent(np.exp2((j - 1) / 4.0), nu2, a) <= target

    @pytest.mark.parametrize("hp, s2a, s2r", BENCHMARK_CHANNELS)
    def test_cutoffs_match_bisection(self, hp, s2a, s2r):
        c = 1.0 / math.sqrt(s2r)
        lo, hi = np.array(chi2rate._PANEL_EDGES[:-1]), np.array(chi2rate._PANEL_EDGES[1:])
        s = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None]
             * np.concatenate([chi2rate._PANEL_NODES, chi2rate._PANEL_CHECKS])).ravel()
        nu2, a = c * hp * s * s, c * s2a
        work = {"cutoff_evals": 0}
        got = chi2rate._cond_cutoff(nu2, a, work)
        assert np.array_equal(got, _bisected_cutoff(nu2, a))
        assert work["cutoff_evals"] <= 7 * s.size
