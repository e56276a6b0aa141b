"""Tests for rate-energy region boundaries and the circuit-power solver."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    central_diff1,
    central_diff2,
    jensen_rates,
    p0_grid_oracle,
    random_circuit_instance,
)
from swiptlab import regions
from swiptlab.chi2rate import cnl_rate_chi2
from swiptlab.core import LinkParams, split_snr, upper_bound_region
from swiptlab.errors import DegenerateCircuitPower, InfeasibleTarget, InvalidParams
from swiptlab.regions import (
    region_int_adc,
    region_int_circuit,
    region_int_ideal,
    region_sep_circuit,
    region_sps,
    region_sps_circuit,
    region_ts,
    region_ts_circuit,
    rs_coefficients,
    solve_p0,
)

FIG5_LP = LinkParams(h=1, p=100, zeta=1.0, sigma2_a=1.0, sigma2_cov=1.0)
FIG9_LP = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1.0, sigma2_cov=10.0)
FIG9_PS = 25.0
# links like random_circuit_instance's, and a wider family for the ideal regions
CIRCUIT_LINKS = st.builds(LinkParams, h=st.floats(0.3, 2.0), p=st.floats(20.0, 300.0),
                          zeta=st.floats(0.3, 1.0), sigma2_a=st.floats(0.05, 3.0),
                          sigma2_cov=st.floats(1.0, 20.0))
LINKS = st.builds(LinkParams, h=st.floats(0.01, 10.0), p=st.floats(0.0, 1e4),
                  zeta=st.floats(0.05, 1.0), sigma2_a=st.floats(1e-3, 10.0),
                  sigma2_cov=st.floats(0.0, 100.0))


class TestRegionTs:
    def test_endpoints(self):
        bnd = region_ts(FIG5_LP, 5)
        assert bnd.rates()[0] == pytest.approx(5.672425341971495, rel=1e-14)
        assert bnd.energies()[0] == 0.0
        assert bnd.rates()[-1] == 0.0
        assert bnd.energies()[-1] == pytest.approx(100.0)

    def test_midpoint_linear(self):
        bnd = region_ts(FIG5_LP, 3)
        rate, energy = bnd.points[1]
        assert rate == pytest.approx(0.5 * 5.672425341971495, rel=1e-14)
        assert energy == pytest.approx(50.0)


class TestRegionSps:
    def test_endpoints(self):
        bnd = region_sps(FIG5_LP, 9)
        assert bnd.rates()[0] == pytest.approx(5.672425341971495, rel=1e-14)
        assert bnd.rates()[-1] == 0.0
        assert bnd.energies()[-1] == pytest.approx(100.0)

    def test_half_split_point(self):
        bnd = region_sps(FIG5_LP, 3)
        assert bnd.rates()[1] == pytest.approx(5.1015380264620624, rel=1e-14)
        assert bnd.energies()[1] == pytest.approx(50.0)

    def test_dominates_ts_chord(self):
        sps = region_sps(FIG5_LP, 257)
        ts = region_ts(FIG5_LP, 257)
        grid = np.linspace(0.0, 100.0, 101)
        assert np.all(sps.rate_at(grid) >= ts.rate_at(grid) - 1e-12)


class TestJensenDominance:
    LP = LinkParams(h=1, p=100, sigma2_a=1.0, sigma2_cov=10.0)

    def test_constant_vector_equality(self):
        rate_sps, rate_dps = jensen_rates(self.LP, [0.37] * 8)
        assert abs(rate_sps - rate_dps) <= 1e-12

    def test_two_point_vector(self):
        rate_sps, rate_dps = jensen_rates(self.LP, [0.0, 1.0])
        assert rate_dps == pytest.approx(0.5 * 3.334984247712809, rel=1e-13)
        assert rate_sps == pytest.approx(2.5265458144958344, rel=1e-13)
        # the static-split boundary carries the constant split's point
        rate, energy = region_sps(self.LP, 3).points[1]
        assert rate == pytest.approx(rate_sps, rel=1e-13)
        assert energy == pytest.approx(0.5 * self.LP.q_max)

    def test_randomized_dominance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rate_sps, rate_dps = jensen_rates(self.LP, rng.uniform(0, 1, size=64))
            assert rate_sps - rate_dps > 0.0  # strict for non-constant vectors


class TestRsCoefficients:
    def test_printed_definitions(self):
        co = rs_coefficients(FIG9_LP, FIG9_PS, 0.0)
        assert co.a == pytest.approx(10.0 - 25.0 / 60.0, rel=1e-14)
        assert co.b == pytest.approx(1.0)
        assert co.c == pytest.approx(-25.0 / 0.6, rel=1e-14)
        assert co.d == pytest.approx(100.0)
        assert co.s_lo == pytest.approx(100.0 / (100.0 + 25.0 / 0.6), rel=1e-14)
        assert co.s_hi == 1.0

    def test_interval_collapses_at_q_max(self):
        q = FIG9_LP.q_max * (1.0 - 1e-9)
        co = rs_coefficients(FIG9_LP, FIG9_PS, q)
        assert co.b > 0 and co.d > 0
        assert co.s_hi - co.s_lo < 1e-6

    def test_sign_conditions_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lp, p_s, q = random_circuit_instance(rng)
            co = rs_coefficients(lp, p_s, q)
            assert co.b > 0 and co.d > 0 and co.c < 0
            assert co.s_lo <= co.s_hi
            ss = np.linspace(co.s_lo, co.s_hi, 17)
            assert np.all(co.a * ss + co.b > 0)

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTarget):
            rs_coefficients(FIG9_LP, FIG9_PS, FIG9_LP.q_max)
        with pytest.raises(InfeasibleTarget):
            rs_coefficients(FIG9_LP, FIG9_PS, -1.0)


class TestCircuitPowerDomain:
    @pytest.mark.parametrize("p_s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda p_s: rs_coefficients(FIG9_LP, p_s, 10.0),
        lambda p_s: solve_p0(FIG9_LP, p_s, 10.0),
        lambda p_s: region_sep_circuit(FIG9_LP, p_s, 8),
        lambda p_s: region_ts_circuit(FIG9_LP, p_s, 8),
        lambda p_s: region_sps_circuit(FIG9_LP, p_s, 8),
    ], ids=["rs_coefficients", "solve_p0", "sep_circuit", "ts_circuit", "sps_circuit"])
    def test_non_finite_rejected(self, call, p_s):
        with pytest.raises(InvalidParams, match="p_s must be finite"):
            call(p_s)

    @pytest.mark.parametrize("p_i", [math.nan, math.inf, -math.inf, -1.0])
    def test_int_circuit_draw_rejected(self, p_i):
        with pytest.raises(InvalidParams, match=f"p_i must be finite and >= 0, got {p_i}"):
            region_int_circuit(FIG9_LP, p_i, 2.0, 8)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda q: rs_coefficients(FIG9_LP, FIG9_PS, q),
        lambda q: solve_p0(FIG9_LP, FIG9_PS, q),
        lambda q: solve_p0(FIG9_LP, FIG9_PS, np.array([0.0, q, 30.0])),
    ], ids=["rs_coefficients", "solve_p0", "solve_p0_array"])
    def test_non_finite_target_rejected(self, call, q):
        with pytest.raises(InvalidParams, match=f"energy target must be finite, got {q}"):
            call(q)


class TestDerivativeFormulas:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            lp, p_s, q = random_circuit_instance(rng)
            co = rs_coefficients(lp, p_s, q)
            span = co.s_hi - co.s_lo
            ss = np.linspace(co.s_lo + 0.02 * span, co.s_hi - 0.02 * span, 9)
            h1, h2 = 1e-5 * span, 1e-4 * span
            for s in ss:
                d1 = central_diff1(co.rate, s, h1)
                d2 = central_diff2(co.rate, s, h2)
                assert co.rate_deriv(s) == pytest.approx(d1, rel=1e-6, abs=1e-9)
                assert co.rate_deriv2(s) == pytest.approx(d2, rel=1e-4, abs=1e-7)

    def test_concavity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            lp, p_s, q = random_circuit_instance(rng)
            co = rs_coefficients(lp, p_s, q)
            ss = np.linspace(co.s_lo, co.s_hi, 30)
            assert np.all(co.rate_deriv2(ss) <= 0.0)


def _p0_alpha_grid(lp, p_s, q, points=4001, zooms=6):
    """Brute-force P0 rate over alpha alone: at each alpha the rate falls with
    rho, so rho is the least that meets the target (>= 0), and alpha is
    infeasible where that exceeds 1.  The first grid spaces 1 - alpha
    geometrically over [1e-12, 1]; each next one is linear on the neighbours of
    the best point so far."""
    hp, qm = lp.received_power, lp.q_max
    alpha = 1.0 - np.logspace(-12.0, 0.0, points)
    best = 0.0
    for _ in range(zooms + 1):
        s = 1.0 - alpha
        need = (q - alpha * qm + s * p_s) / (s * qm)
        keep = 1.0 - np.clip(need, 0.0, 1.0)
        tau = keep * hp / (keep * lp.sigma2_a + lp.sigma2_cov)
        rate = np.where(need <= 1.0, s * np.log2(1.0 + tau), -np.inf)
        i = int(np.argmax(rate))
        best = max(best, float(rate[i]))
        lo, hi = alpha[max(i - 1, 0)], alpha[min(i + 1, points - 1)]
        alpha = np.linspace(min(lo, hi), max(lo, hi), points)
    return best


class TestSolveP0:
    def test_full_harvest_endpoint(self):
        sol = solve_p0(FIG9_LP, FIG9_PS, FIG9_LP.q_max)
        assert sol.alpha_star == 1.0 and sol.rate == 0.0

    def test_degenerate_circuit_power(self):
        with pytest.raises(DegenerateCircuitPower):
            solve_p0(FIG9_LP, 0.0, 10.0)

    # q_max = 0 exactly, and by underflow of zeta*h*P
    @pytest.mark.parametrize("lp", [LinkParams(h=1, p=0, sigma2_a=1, sigma2_cov=1),
                                    LinkParams(h=1e-300, p=1e-300, sigma2_a=1, sigma2_cov=1)])
    def test_zero_q_max_is_the_full_harvest_point(self, lp):
        assert lp.q_max == 0.0
        sol = solve_p0(lp, 1.0, 0.0)
        assert (sol.alpha_star, sol.rho_star, sol.rate, sol.q_target) == (1.0, 1.0, 0.0, 0.0)
        for bnd in (region_sep_circuit(lp, 1.0, 4), region_ts_circuit(lp, 1.0, 4),
                    region_sps_circuit(lp, 1.0, 4)):
            assert not bnd.points.any()
        for p_s in (math.nan, -1.0):
            with pytest.raises(InvalidParams, match="p_s must be finite"):
                solve_p0(lp, p_s, 0.0)
        with pytest.raises(DegenerateCircuitPower):
            solve_p0(lp, 0.0, 0.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleTarget):
            solve_p0(FIG9_LP, FIG9_PS, FIG9_LP.q_max + 1.0)
        with pytest.raises(InfeasibleTarget, match="energy target -1.0 outside"):
            solve_p0(FIG9_LP, FIG9_PS, np.array([0.0, -1.0, 30.0]))

    def test_array_of_targets(self):
        qs = np.array([[0.0, 30.0], [55.0, FIG9_LP.q_max]])
        sol = solve_p0(FIG9_LP, FIG9_PS, qs)
        for field in (sol.alpha_star, sol.rho_star, sol.rate, sol.q_target):
            assert isinstance(field, np.ndarray) and field.shape == qs.shape
        for i, q in np.ndenumerate(qs):
            one = solve_p0(FIG9_LP, FIG9_PS, float(q))
            assert isinstance(one.rate, float)
            assert (sol.alpha_star[i], sol.rho_star[i], sol.rate[i]) == \
                (one.alpha_star, one.rho_star, one.rate)

    # targets anywhere in [0, q_max], many of them within 1e-6 relative of
    # q_max, where rho is rebuilt from a tiny 1 - q/q_max
    @settings(max_examples=40, deadline=None, database=None)
    @given(CIRCUIT_LINKS, st.floats(0.01, 1.5),
           st.lists(st.one_of(st.floats(0.0, 1.0),
                              st.floats(6.0, 16.0).map(lambda e: 1.0 - 10.0 ** -e),
                              st.just(1.0 - 1e-16)), min_size=1, max_size=24),
           st.data())
    def test_target_independent_of_batch(self, lp, ps_frac, fracs, data):
        p_s = ps_frac * lp.q_max
        qs = np.minimum(np.array(fracs) * lp.q_max, lp.q_max)
        alone = [solve_p0(lp, p_s, float(q)) for q in qs]
        batch = solve_p0(lp, p_s, qs)
        perm = np.array(data.draw(st.permutations(range(len(qs)))))
        shuffled = solve_p0(lp, p_s, qs[perm])
        for field in ("alpha_star", "rho_star", "rate"):
            want = np.array([getattr(sol, field) for sol in alone])
            assert getattr(batch, field).tobytes() == want.tobytes()
            assert getattr(shuffled, field).tobytes() == want[perm].tobytes()

    # within about 1e-9 relative of q_max the feasible s-interval is narrower
    # than the 1e-12 endpoint nudge, and dR/ds is undefined just outside it
    @pytest.mark.filterwarnings("error")
    def test_no_warning_near_q_max(self):
        p_s = 40.0
        qs = FIG9_LP.q_max * (1.0 - np.logspace(-16, -6, 41))
        batch = solve_p0(FIG9_LP, p_s, qs)
        alone = np.array([solve_p0(FIG9_LP, p_s, float(q)).rate for q in qs])
        assert batch.rate.tobytes() == alone.tobytes()
        co = rs_coefficients(FIG9_LP, p_s, qs)
        best_end = np.maximum(co.rate(co.s_lo), co.rate(co.s_hi))
        assert np.all(batch.rate >= best_end - 1e-15)

    # p_s >> q_max makes every target's s-interval narrower than the endpoint
    # nudge; dR/ds there was 0/0, and rho rebuilt from the constraint was noise
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p_s", [1e17, 1e20, 1e300])
    def test_collapsed_intervals_take_the_lower_end(self, p_s):
        qs = np.linspace(0.0, FIG9_LP.q_max, 512)
        sol = solve_p0(FIG9_LP, p_s, qs)
        co = rs_coefficients(FIG9_LP, p_s, qs[:-1])
        assert np.all((sol.rho_star >= 0.0) & (sol.rho_star <= 1.0))
        best = np.append(co.s_hi, 0.0) * math.log2(1.0 + split_snr(0.0, FIG9_LP))
        assert np.all(np.isfinite(sol.rate) & (sol.rate <= best))
        assert np.all(sol.rate[:-1] > 0.0)
        bnd = region_sep_circuit(FIG9_LP, p_s)
        assert bnd.rates().tobytes() == sol.rate.tobytes()

    # p_s ~ 5e3-1e6 q_max: intervals still fit the nudge, and where s* is their
    # lower end, rho rebuilt from the constraint lost p_s/q_max ulps below -slack
    @pytest.mark.parametrize("p_s", [3.2e5, 1e6, 1e7, 5.6e7])
    def test_lower_end_optima_far_above_q_max(self, p_s):
        qs = np.linspace(0.0, FIG9_LP.q_max, 512)
        sol = solve_p0(FIG9_LP, p_s, qs)
        assert np.all((sol.rho_star >= 0.0) & (sol.rho_star <= 1.0))
        assert region_sep_circuit(FIG9_LP, p_s).rates().tobytes() == sol.rate.tobytes()
        for q, rate in zip(qs[::64], sol.rate[::64]):
            assert rate == pytest.approx(_p0_alpha_grid(FIG9_LP, p_s, q), abs=1e-6)

    def test_energy_constraint_met_with_equality(self):
        for q in [0.0, 10.0, 30.0, 55.0]:
            sol = solve_p0(FIG9_LP, FIG9_PS, q)
            a, r = sol.alpha_star, sol.rho_star
            net = a * FIG9_LP.q_max + (1 - a) * r * FIG9_LP.q_max - (1 - a) * FIG9_PS
            assert net == pytest.approx(q, rel=1e-9, abs=1e-9)

    def test_rate_consistent_with_split_snr(self):
        sol = solve_p0(FIG9_LP, FIG9_PS, 30.0)
        expected = (1 - sol.alpha_star) * math.log2(1 + split_snr(sol.rho_star, FIG9_LP))
        assert sol.rate == pytest.approx(expected, rel=1e-14)

    def test_fig9_point_against_grid_oracle(self):
        sol = solve_p0(FIG9_LP, FIG9_PS, 30.0)
        oracle = p0_grid_oracle(FIG9_LP, FIG9_PS, 30.0)
        assert sol.rate == pytest.approx(oracle, abs=1e-4)

    def test_fig9_optimum_meets_first_order_condition(self):
        # At each target whose optimum is interior, the rate along the energy
        # constraint, R(s) = s log2(1 + tau(rho(s))) with s = 1 - alpha, is
        # stationary at s*: a Newton step |R'/R''| from s* is below 1e-8,
        # twenty times the bisection's half-width.  R is written out from the
        # constraint alpha q_max + s (rho q_max - p_s) = q, and both
        # derivatives are central differences.
        lp, p_s, qm = FIG9_LP, FIG9_PS, FIG9_LP.q_max
        qs = np.linspace(0.0, qm, 512)[:-1]
        sol = solve_p0(lp, p_s, qs)
        co = rs_coefficients(lp, p_s, qs)
        s = 1.0 - sol.alpha_star
        inner = (s > co.s_lo + 1e-6) & (s < co.s_hi - 1e-6)
        assert inner.sum() >= 400
        q, s = qs[inner], s[inner]

        def rho(s):
            return (q - (1.0 - s) * qm + s * p_s) / (s * qm)

        def rate(s):
            keep = 1.0 - rho(s)
            return s * np.log2(1.0 + keep * lp.received_power
                               / (keep * lp.sigma2_a + lp.sigma2_cov))

        d1 = central_diff1(rate, s, 1e-6)
        d2 = central_diff2(rate, s, 1e-4)
        assert np.all(d2 < 0.0)
        assert np.max(np.abs(d1 / d2)) <= 1e-8
        assert np.allclose(sol.rho_star[inner], rho(s), rtol=0.0, atol=1e-12)

    def test_low_target_hits_alpha_zero(self):
        sol = solve_p0(FIG9_LP, FIG9_PS, 0.0)
        assert sol.alpha_star == pytest.approx(0.0, abs=1e-12)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            lp, p_s, q = random_circuit_instance(rng)
            sol = solve_p0(lp, p_s, q)
            oracle = p0_grid_oracle(lp, p_s, q)
            assert sol.rate == pytest.approx(oracle, abs=1e-4)


class TestRegionSepCircuit:
    def test_contains_ts_and_sps_variants(self):
        # evaluate the on-off boundary exactly at the matched energies; the
        # swept curves are interpolated (conservative for concave boundaries)
        for other in (region_ts_circuit(FIG9_LP, FIG9_PS, 257),
                      region_sps_circuit(FIG9_LP, FIG9_PS, 257)):
            grid = np.linspace(0.0, other.energies()[-1], 129)
            ops_rates = solve_p0(FIG9_LP, FIG9_PS, grid).rate
            assert np.all(other.rate_at(grid) <= ops_rates + 1e-9)

    @settings(max_examples=40, deadline=None, database=None)
    @given(CIRCUIT_LINKS, st.floats(0.01, 1.5), st.integers(2, 64))
    def test_contains_ts_and_sps_variants_on_random_links(self, lp, ps_frac, n):
        # solve_p0 exactly at the other curve's own knots
        p_s = ps_frac * lp.q_max
        for other in (region_ts_circuit(lp, p_s, n), region_sps_circuit(lp, p_s, n)):
            ops = solve_p0(lp, p_s, other.energies()).rate
            assert np.all(other.rates() <= ops + 1e-9)

    # q_max = 60 on the fig9 link: the decoder can never be energy-neutral
    @pytest.mark.parametrize("p_s", [60.0, 100.0])
    def test_sps_circuit_at_and_above_q_max_is_all_zero(self, p_s):
        assert FIG9_LP.q_max == 60.0
        assert region_sps_circuit(FIG9_LP, p_s, 8).points.tolist() == [[0.0, 0.0]] * 8

    def test_rate_monotone_in_target(self):
        ops = region_sep_circuit(FIG9_LP, FIG9_PS, 65)
        rates = ops.rates()
        assert rates[0] == max(rates)
        assert np.all(np.diff(rates) <= 1e-12)

    def test_coincides_with_sps_on_alpha_zero_range(self):
        for q in np.linspace(0.0, 8.0, 9):
            sol = solve_p0(FIG9_LP, FIG9_PS, float(q))
            if sol.alpha_star > 1e-9:
                continue
            rho = (q + FIG9_PS) / FIG9_LP.q_max
            sps_rate = math.log2(1.0 + split_snr(rho, FIG9_LP))
            assert sol.rate == pytest.approx(sps_rate, abs=1e-6)


class TestIntegratedRegions:
    LP = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1.0, sigma2_rec=1.0)

    def test_ideal_box_corner(self):
        bnd = region_int_ideal(self.LP, 3.0, 65)
        assert bnd.rate_at(0.0) == pytest.approx(3.0)
        assert bnd.rate_at(59.999) == pytest.approx(3.0, abs=1e-9)
        assert bnd.energies()[-1] == pytest.approx(60.0)
        assert bnd.rates()[-1] == 0.0

    def test_zero_capacity_degenerates_to_energy_axis(self):
        bnd = region_int_ideal(self.LP, 0.0, 17)
        assert np.all(bnd.rates() == 0.0)

    def test_adc_zero_noise_degenerates_to_box(self, monkeypatch):
        # constant capacity over rho: the frontier collapses to the box corner
        monkeypatch.setattr(regions, "int_rate", lambda lp, noise: SimpleNamespace(value=2.0))
        bnd = region_int_adc(self.LP, 1001)
        ideal = region_int_ideal(self.LP, 2.0, 65)
        grid = np.linspace(0.0, self.LP.q_max * 0.998, 33)
        assert np.allclose(bnd.rate_at(grid), ideal.rate_at(grid), atol=1e-12)
        assert bnd.energies()[-1] >= self.LP.q_max * (1.0 - 1e-3) - 1e-9

    def test_adc_zero_noise_computes_one_rate(self, monkeypatch):
        noises = []
        int_rate = regions.int_rate
        monkeypatch.setattr(regions, "int_rate",
                            lambda lp, noise: noises.append(noise) or int_rate(lp, noise))
        bnd = region_int_adc(self.LP, 65)
        assert noises == [self.LP.sigma2_rec]
        assert bnd.points.shape == (1, 2)

    def test_adc_sweep_is_pareto(self, monkeypatch):
        # the rate 3 / noise at the effective processing noise 1 + 1 / (1 - rho)^2
        lp = LinkParams(h=1, p=100, zeta=0.6, sigma2_a=1.0, sigma2_rec=1.0, sigma2_adc=1.0)
        monkeypatch.setattr(regions, "int_rate",
                            lambda lp, noise: SimpleNamespace(value=3.0 / noise))
        bnd = region_int_adc(lp, 65)
        assert np.all(np.diff(bnd.energies()) > 0)
        assert np.all(np.diff(bnd.rates()) < 0)
        assert bnd.rate_at(0.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("sigma2_rec", [1.0, 1e4])
    def test_adc_sweep_keeps_every_point(self, sigma2_rec):
        # the fig8 links: the deterministic rate falls strictly as the
        # effective processing noise grows with rho, so no point is dominated,
        # and each row is the rate at its rho's noise, bit for bit (the square
        # as a product, which numpy's ** 2 computes; libm's pow may differ by
        # an ulp)
        lp = LinkParams(h=1.0, p=100.0, zeta=0.6, sigma2_a=1.0, sigma2_rec=sigma2_rec,
                        sigma2_adc=1.0)
        bnd = region_int_adc(lp, 33)
        rhos = [float(r) for r in np.linspace(0.0, 1.0 - 1e-3, 33)]
        want = [[cnl_rate_chi2(100.0, 1.0, sigma2_rec + 1.0 / ((1.0 - rho) * (1.0 - rho))).value,
                 rho * lp.q_max] for rho in rhos]
        assert bnd.points.tolist() == want
        assert np.all(np.diff(bnd.rates()) < 0)

    def test_int_circuit_vertex(self):
        bnd = region_int_circuit(self.LP, 10.0, 2.0, 65)
        assert bnd.rate_at(0.0) == pytest.approx(2.0)
        assert bnd.rate_at(50.0) == pytest.approx(2.0)
        assert bnd.rate_at(55.0) == pytest.approx(1.0)
        assert bnd.energies()[-1] == pytest.approx(60.0)

    def test_int_circuit_zero_draw_is_ideal_box(self):
        a = region_int_circuit(self.LP, 0.0, 2.0, 64)
        grid = np.linspace(0, 60, 31)
        b = region_int_ideal(self.LP, 2.0, 64)
        assert np.allclose(a.rate_at(grid), b.rate_at(grid), atol=1e-12)

    def test_int_circuit_heavy_draw_chord(self):
        bnd = region_int_circuit(self.LP, 80.0, 2.0, 65)
        assert bnd.rate_at(0.0) == pytest.approx(60.0 * 2.0 / 80.0)
        assert bnd.rate_at(30.0) == pytest.approx(0.75, rel=1e-9)
        assert bnd.energies()[-1] == pytest.approx(60.0)


class TestContainmentChain:
    def test_ts_inside_sps_inside_upper_bound(self):
        lp = LinkParams(h=1, p=100, zeta=1.0, sigma2_a=1.0, sigma2_cov=2.0)
        ts, sps, ub = region_ts(lp, 513), region_sps(lp, 513), upper_bound_region(lp, 513)
        grid = np.linspace(0.0, 100.0, 512)
        r_ts, r_sps, r_ub = ts.rate_at(grid), sps.rate_at(grid), ub.rate_at(grid)
        assert np.all(r_ts <= r_sps + 1e-12)
        assert np.all(r_sps <= r_ub + 1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(LINKS, st.integers(2, 64))
    def test_ts_inside_sps_inside_upper_bound_on_random_links(self, lp, n):
        # each inner boundary at its own knots against the outer one
        ts, sps, ub = region_ts(lp, n), region_sps(lp, n), upper_bound_region(lp, n)
        for inner, outer in ((ts, sps), (sps, ub)):
            assert np.all(inner.rates() <= outer.rate_at(inner.energies()) + 1e-12)


class TestOpsOnPeriodDominance:
    def test_ops_beats_onperiod_vectors(self):
        # an on-off schedule whose on-period splits vary never beats the
        # constant on-period split at their mean, which harvests the same net
        # energy, nor solve_p0's optimum at that energy
        lp, p_s = FIG9_LP, FIG9_PS
        rng = np.random.default_rng(23)
        compared = 0
        for _ in range(50):
            alpha = rng.uniform(0.0, 0.9)
            vec = rng.uniform(0, 1, size=32)
            rate_sps, rate_dps = jensen_rates(lp, vec)
            assert (1 - alpha) * rate_sps > (1 - alpha) * rate_dps
            net = alpha * lp.q_max + (1 - alpha) * (lp.q_max * np.mean(vec) - p_s)
            if 0.0 <= net <= lp.q_max:
                compared += 1
                assert (1 - alpha) * rate_dps <= solve_p0(lp, p_s, net).rate + 1e-9
        assert compared >= 25
