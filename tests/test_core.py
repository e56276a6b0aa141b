"""Tests for shared types and elementary link quantities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_tail_oracle
from swiptlab.core import (
    LinkParams,
    REBoundary,
    awgn_rate,
    dbm_to_watts,
    q_function,
    split_snr,
    upper_bound_region,
)
from swiptlab.errors import InvalidParams, ZeroNoise
from swiptlab.modulation import solve_p1
from swiptlab.regions import region_sps, region_ts, solve_p0
from swiptlab.simkit import SimConfig, simulate_qam_separated


class TestQFunction:
    def test_symmetry_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_reflection_identity(self):
        assert abs(q_function(-1.7) - (1.0 - q_function(1.7))) < 1e-15

    def test_against_integration_oracle(self):
        # oracle value computed by quadrature of the normal pdf
        expected = 1.0001202950935662e-06
        assert abs(gaussian_tail_oracle(4.7534) - expected) < 1e-16
        assert abs(q_function(4.7534) - expected) / expected < 1e-12

    @pytest.mark.parametrize("x", [-8.0, -3.0, -1.0, 0.3, 2.0, 5.5, 8.0])
    def test_tolerance_contract(self, x):
        expected = gaussian_tail_oracle(x)
        assert abs(q_function(x) - expected) / expected < 1e-12

    def test_strictly_decreasing_and_complementary(self):
        xs = np.linspace(-8, 8, 401)
        q = q_function(xs)
        assert np.all(np.diff(q) < 0)
        assert np.max(np.abs(q + q_function(-xs) - 1.0)) < 1e-12

    def test_tail_monotone_beyond_eight(self):
        # strictly decreasing until the value underflows float64 (~x = 37.6)
        xs = np.linspace(8, 36, 113)
        q = q_function(xs)
        assert np.all(np.diff(q) < 0)
        assert q[-1] > 0.0


class TestLinkParams:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidParams):
            LinkParams(h=0.0, p=1.0)
        with pytest.raises(InvalidParams):
            LinkParams(h=1.0, p=-1.0)
        with pytest.raises(InvalidParams):
            LinkParams(h=1.0, p=1.0, zeta=0.0)
        with pytest.raises(InvalidParams):
            LinkParams(h=1.0, p=1.0, zeta=1.2)
        with pytest.raises(InvalidParams):
            LinkParams(h=1.0, p=1.0, sigma2_a=-1e-12)

    @pytest.mark.parametrize("h,p", [(1e300, 1e300), (1e200, 1e200), (10.0, 1.7e308)])
    def test_rejects_overflowing_received_power(self, h, p):
        with pytest.raises(InvalidParams, match=r"h\*p must be finite"):
            LinkParams(h=h, p=p)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["h", "p", "zeta", "sigma2_a", "sigma2_cov",
                                       "sigma2_rec", "sigma2_adc"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidParams):
            LinkParams(**{"h": 1.0, "p": 1.0, field: value})

    def test_derived_quantities(self):
        lp = LinkParams(h=0.5, p=10.0, zeta=0.6, sigma2_a=1.0)
        assert lp.received_power == 5.0
        assert lp.q_max == pytest.approx(3.0)


class TestAwgnRate:
    def test_zero_power(self):
        assert awgn_rate(LinkParams(h=1, p=0, sigma2_a=1)) == 0.0

    def test_known_values(self):
        assert awgn_rate(LinkParams(h=1, p=100, sigma2_a=1)) == pytest.approx(
            6.658211482751795, rel=1e-14)
        assert awgn_rate(LinkParams(h=1, p=100, sigma2_a=1, sigma2_cov=10)) == pytest.approx(
            3.334984247712809, rel=1e-14)

    def test_zero_noise_raises(self):
        with pytest.raises(ZeroNoise):
            awgn_rate(LinkParams(h=1, p=1))

    def test_monotone_in_noise_and_power(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, p = rng.uniform(0.1, 2), rng.uniform(0.1, 200)
            sa, sc = rng.uniform(0.01, 5, size=2)
            base = awgn_rate(LinkParams(h=h, p=p, sigma2_a=sa, sigma2_cov=sc))
            assert awgn_rate(LinkParams(h=h, p=p, sigma2_a=sa * 2, sigma2_cov=sc)) <= base
            assert awgn_rate(LinkParams(h=h, p=p, sigma2_a=sa, sigma2_cov=sc * 2)) <= base
            assert awgn_rate(LinkParams(h=h, p=p * 1.5, sigma2_a=sa, sigma2_cov=sc)) >= base


class TestSplitSnr:
    LP = LinkParams(h=1, p=100, sigma2_a=1, sigma2_cov=10)

    def test_endpoints(self):
        assert split_snr(1.0, self.LP) == 0.0
        assert split_snr(0.0, self.LP) == pytest.approx(100 / 11, rel=1e-15)

    def test_half_split(self):
        assert split_snr(0.5, self.LP) == pytest.approx(50 / 10.5, rel=1e-15)

    def test_exact_unsplit_identity(self):
        lp = self.LP
        assert split_snr(0.0, lp) == lp.received_power / (lp.sigma2_a + lp.sigma2_cov)

    def test_monotone_decreasing_in_rho(self):
        snrs = [split_snr(r, self.LP) for r in np.linspace(0, 1, 33)]
        assert all(a >= b for a, b in zip(snrs, snrs[1:]))

    def test_zero_noise_raises(self):
        with pytest.raises(ZeroNoise):
            split_snr(0.5, LinkParams(h=1, p=1))


class TestHarvestedEnergy:
    """What the program reports as harvested energy: a schedule that is off
    for a fraction alpha and splits rho while on harvests q_max times its mean
    split ratio alpha + (1 - alpha) rho, less (1 - alpha) p_s of decoder
    power where there is one."""

    LP = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1, sigma2_cov=10)

    def test_all_zero_vector(self):
        # never splitting harvests nothing
        assert region_sps(self.LP, 16).energies()[0] == 0.0
        assert region_ts(self.LP, 16).energies()[0] == 0.0
        res = simulate_qam_separated(self.LP, 0.0, 4, SimConfig(n_symbols=64, seed=0))
        assert res.energy_hat == 0.0

    def test_full_harvest_ops(self):
        # off all the time (alpha = 1) harvests q_max = 60 and decodes nothing
        rate, energy = region_ts(self.LP, 9).points[-1]
        assert rate == 0.0 and energy == pytest.approx(60.0)
        sol = solve_p0(self.LP, 25.0, self.LP.q_max)
        assert (sol.alpha_star, sol.rate) == (1.0, 0.0)
        assert solve_p1(self.LP, 25.0, self.LP.q_max, 1e-5).alpha == 1.0

    def test_split_vector_mean(self):
        # splitting half the power harvests half of q_max = 100; QPSK symbols
        # all carry unit energy, so the oracle's estimate is exact
        lp = LinkParams(h=1, p=100, zeta=1.0, sigma2_a=1, sigma2_cov=1)
        assert region_sps(lp, 3).energies()[1] == pytest.approx(50.0)
        res = simulate_qam_separated(lp, 0.5, 4, SimConfig(n_symbols=64, seed=0))
        assert res.energy_hat == pytest.approx(50.0, rel=1e-14)

    def test_linear_in_zeta_and_power(self):
        base = LinkParams(h=1, p=10, zeta=0.5, sigma2_a=1, sigma2_cov=1)
        for builder in (region_ts, region_sps):
            energies = builder(base, 9).energies()
            assert builder(replace(base, zeta=1.0), 9).energies() == pytest.approx(
                2 * energies)
            assert builder(replace(base, p=30.0), 9).energies() == pytest.approx(
                3 * energies)

    @pytest.mark.parametrize("n", [2, 10, 64, 100, 512, 1000])
    def test_ops_pair_matches_equivalent_split_vector(self, n):
        lp = LinkParams(h=1.3, p=7.0, zeta=0.8, sigma2_a=1.0, sigma2_cov=2.0)
        # point k of the time-switching sweep is the pair (k/(n-1), 0): the
        # split vector of k ones and n-1-k zeros, with mean k/(n-1)
        expected = [lp.q_max * math.fsum([1.0] * k + [0.0] * (n - 1 - k)) / (n - 1)
                    for k in range(n)]
        np.testing.assert_allclose(region_ts(lp, n).energies(), expected,
                                   rtol=5e-15, atol=0.0)
        # solve_p0's pair (alpha*, rho*) at n targets harvests each target,
        # net of the decoder power, with equality
        p_s = 0.3 * lp.q_max
        qs = np.linspace(0.0, lp.q_max, n)
        sol = solve_p0(lp, p_s, qs)
        on = 1.0 - sol.alpha_star
        net = lp.q_max * (sol.alpha_star + on * sol.rho_star) - on * p_s
        np.testing.assert_allclose(net, qs, rtol=0.0, atol=1e-12 * lp.q_max)

    def test_schedule_validation(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(InvalidParams):
                split_snr(np.array([0.5, bad]), self.LP)
            with pytest.raises(InvalidParams):
                simulate_qam_separated(self.LP, bad, 4, SimConfig(n_symbols=64))


class TestUpperBoundRegion:
    def test_corner(self):
        ub = upper_bound_region(LinkParams(h=1, p=100, sigma2_a=1))
        rate, energy = ub.points[-2]
        assert rate == pytest.approx(6.658211482751795, rel=1e-14)
        assert energy == pytest.approx(100.0)
        assert ub.points[-1].tolist() == [0.0, 100.0]

    def test_degenerate_zero_power(self):
        ub = upper_bound_region(LinkParams(h=1, p=0, sigma2_a=1))
        assert ub.energies()[-1] == 0.0
        assert np.all(ub.rates() == 0.0)

    def test_dominates_ts_and_sps(self):
        lp = LinkParams(h=1, p=100, zeta=1.0, sigma2_a=1, sigma2_cov=2.0)
        ub = upper_bound_region(lp)
        for bnd in (region_ts(lp, 64), region_sps(lp, 64)):
            ub_rates = ub.rate_at(bnd.energies())
            assert np.all(bnd.rates() <= ub_rates + 1e-12)
            assert bnd.energies()[-1] <= ub.energies()[-1] + 1e-12


class TestDbConversion:
    def test_definition(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)

    def test_reference_noise_levels(self):
        assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
        assert dbm_to_watts(-50.0) == pytest.approx(1e-8, rel=1e-12)
        assert dbm_to_watts(-104.0) == pytest.approx(3.981071705534972e-14, rel=1e-12)


class TestREBoundary:
    def test_rejects_unsorted_energy(self):
        with pytest.raises(InvalidParams):
            REBoundary(points=[(1.0, 5.0), (0.5, 1.0)], scheme="x", receiver="y")

    def test_rejects_increasing_rate(self):
        with pytest.raises(InvalidParams):
            REBoundary(points=[(1.0, 1.0), (2.0, 2.0)], scheme="x", receiver="y")

    # the Pareto slack absorbs float noise, not a violation of one part per million
    @pytest.mark.parametrize("points,broken", [
        ([(2.0, 1.0), (2.0 * (1 + 1e-6), 2.0)], "nonincreasing"),
        ([(2.0, 5.0), (1.0, 5.0 * (1 - 1e-6))], "nondecreasing energy")])
    def test_rejects_violation_of_one_part_per_million(self, points, broken):
        with pytest.raises(InvalidParams, match=broken):
            REBoundary(points=points, scheme="x", receiver="y")

    def test_rate_at_interpolates_and_clamps(self):
        bnd = REBoundary(points=[(4.0, 0.0), (2.0, 10.0), (0.0, 10.0)],
                         scheme="x", receiver="y")
        assert bnd.rate_at(5.0) == pytest.approx(3.0)
        # vertical segment resolves to the larger rate
        assert bnd.rate_at(10.0) == pytest.approx(2.0)
        assert bnd.rate_at(11.0) == 0.0

    def test_rate_at_resolves_points_within_the_pareto_slack(self):
        # (1.5, 1 - 5e-10) sits inside the validation slack below (2, 1),
        # which dominates it
        bnd = REBoundary(points=[(3.0, 0.0), (2.0, 1.0), (1.5, 1.0 - 5e-10), (0.5, 2.0)],
                         scheme="x", receiver="y")
        assert bnd.rate_at(1.0 - 5e-10) == 2.0
        assert bnd.rate_at(1.0) == 2.0
        assert bnd.rate_at(1.5) == pytest.approx(1.25)

    @pytest.mark.parametrize("rate,energy", [(math.nan, 1.0), (1.0, math.nan),
                                             (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_point(self, rate, energy):
        with pytest.raises(InvalidParams, match="finite and nonnegative"):
            REBoundary(points=[(rate, energy)], scheme="x", receiver="y")

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)), min_size=1,
                    max_size=16),
           st.data(), st.sampled_from([math.nan, math.inf, -math.inf, -1e-300, -5.0]))
    def test_rejects_any_corrupted_entry(self, pairs, data, bad):
        rates, energies = zip(*pairs)
        pts = np.column_stack((sorted(rates, reverse=True), sorted(energies)))
        REBoundary(points=pts, scheme="x", receiver="y")
        row = data.draw(st.integers(0, len(pts) - 1))
        pts[row, data.draw(st.integers(0, 1))] = bad
        with pytest.raises(InvalidParams):
            REBoundary(points=pts, scheme="x", receiver="y")

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (2,), (3, 1), (2, 3), (1, 2, 2)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(InvalidParams):
            REBoundary(points=np.zeros(shape), scheme="x", receiver="y")

    def test_points_are_a_read_only_copy(self):
        src = np.array([[2.0, 0.0], [1.0, 5.0]])
        bnd = REBoundary(points=src, scheme="x", receiver="y")
        src[0, 0] = 9.0
        assert bnd.points.tolist() == [[2.0, 0.0], [1.0, 5.0]]
        assert bnd.points.dtype == np.float64 and bnd.points.shape == (2, 2)
        assert bnd.rates().tolist() == [2.0, 1.0] and bnd.energies().tolist() == [0.0, 5.0]
        with pytest.raises(ValueError):
            bnd.points[0, 0] = 3.0

    def test_json_round_trip(self):
        bnd = region_sps(LinkParams(h=1, p=10, sigma2_a=1, sigma2_cov=0.5), 17)
        doc = bnd.to_json_dict()
        assert [[p["rate_bits"], p["energy_units"]] for p in doc["points"]] \
            == bnd.points.tolist()
        assert (doc["scheme"], doc["receiver"]) == (bnd.scheme, bnd.receiver)
