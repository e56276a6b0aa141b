"""Tests for SER models, constrained rate maximizers and the link budget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptlab.modulation as modulation
from helpers import p1_scalar_reference
from swiptlab.core import LinkParams, q_function
from swiptlab.errors import BadConstellation, InfeasibleTarget, InvalidParams
from swiptlab.figures import sweep_distances
from swiptlab.modulation import (
    MAX_BITS,
    PEM,
    QAM,
    link_budget_to_params,
    max_modulation,
    p1_alpha,
    ser_pem,
    ser_qam,
    solve_p1,
    solve_p2,
)

SER_TARGET = 1e-5


def fig11_params(distance_m: float) -> LinkParams:
    return link_budget_to_params(distance_m, tx_power_w=1.0, antenna_noise_dbm=-104.0,
                                 conv_noise_dbm=-70.0, rec_noise_dbm=-50.0, zeta=0.6)


FIG11_PS = 0.5e-3
FIG11_PI = 0.2e-3


def p1_brute_force(lp, p_s, q_req, ser_target, n_rho=200_000):
    """Dense search over (rho, l) with the closed-form off fraction; checks the
    solver's threshold enumeration from the raw problem statement."""
    rhos = np.linspace(0.0, 1.0, n_rho, endpoint=False)
    noise = (1.0 - rhos) * lp.sigma2_a + lp.sigma2_cov
    snrs = (1.0 - rhos) * lp.received_power / noise
    alphas = np.maximum((q_req - rhos * lp.q_max + p_s) /
                        ((1.0 - rhos) * lp.q_max + p_s), 0.0)
    best = 0.0
    for l in range(1, 11):
        m = 1 << l
        sm = math.sqrt(m)
        coeff = 4.0 * (sm - 1.0) / sm
        ser = coeff * q_function(np.sqrt(3.0 * snrs / (m - 1)))
        rate = np.where(ser <= ser_target, (1.0 - alphas) * l, 0.0)
        best = max(best, float(rate.max()))
    return best


class TestSerQam:
    def test_zero_snr_qpsk(self):
        assert ser_qam(4, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_qpsk_at_snr_25(self):
        assert ser_qam(4, 25.0) == pytest.approx(5.733031437583878e-07, rel=1e-12)

    def test_large_constellation_tail(self):
        # Q(~171) underflows: the formula must return a clean zero, not NaN
        assert ser_qam(1024, 1e7) == 0.0

    def test_not_clamped_above_one(self):
        assert ser_qam(64, 0.0) > 1.0

    def test_bad_sizes(self):
        for m in (1, 3, 48, 2048, 4096):
            with pytest.raises(BadConstellation):
                ser_qam(m, 1.0)
        with pytest.raises(BadConstellation):
            ser_qam(np.array([4, 48]), 1.0)
        with pytest.raises(BadConstellation):
            ser_qam(np.array([4.0, 16.0]), 1.0)

    def test_array_equals_scalar_calls(self):
        sizes = 1 << np.arange(1, MAX_BITS + 1)
        snrs = np.linspace(0.0, 400.0, 9)[:, None]
        for ser in (ser_qam, ser_pem):
            table = ser(sizes, snrs)
            assert table.tolist() == [[ser(int(m), s) for m in sizes] for (s,) in snrs.tolist()]

    def test_monotone_in_snr_and_size(self):
        snrs = np.linspace(0.5, 400, 40)
        for m in (2, 4, 16, 64, 256, 1024):
            vals = [ser_qam(m, s) for s in snrs]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for snr in (1.0, 10.0, 100.0):
            by_m = [ser_qam(1 << l, snr) for l in range(1, 11)]
            assert all(a < b for a, b in zip(by_m, by_m[1:]))


class TestSerPem:
    def test_binary_zero_snr(self):
        assert ser_pem(2, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_sixteen_levels(self):
        assert ser_pem(16, 100.0) == pytest.approx(2.453235878634933e-11, rel=1e-11)

    def test_no_feasible_size_point(self):
        # even the binary constellation misses a 1e-5 target here
        assert ser_pem(2, 3.162) == pytest.approx(0.0007834478217107631, rel=1e-11)
        assert ser_pem(2, 3.162) > SER_TARGET

    def test_monotone(self):
        vals = [ser_pem(16, s) for s in np.linspace(0, 300, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        by_m = [ser_pem(1 << l, 50.0) for l in range(1, 11)]
        assert all(a < b for a, b in zip(by_m, by_m[1:]))


class TestMaxModulation:
    def test_qam_example(self):
        assert max_modulation(QAM, 1e4, SER_TARGET) == 1024

    def test_pem_example(self):
        assert max_modulation(PEM, 100.0, SER_TARGET) == 16

    def test_zero_snr(self):
        assert max_modulation(QAM, 0.0, SER_TARGET) is None
        assert max_modulation(PEM, 0.0, SER_TARGET) is None

    def test_monotone_in_snr(self):
        for family in (QAM, PEM):
            sizes = [max_modulation(family, s, SER_TARGET) or 0
                     for s in np.logspace(0, 5, 26)]
            assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_threshold_consistency(self):
        # the returned size meets the target, the next one up does not
        m = max_modulation(QAM, 5000.0, SER_TARGET)
        assert ser_qam(m, 5000.0) <= SER_TARGET
        assert ser_qam(2 * m, 5000.0) > SER_TARGET

    def test_rejects_bad_target(self):
        with pytest.raises(InvalidParams):
            max_modulation(QAM, 10.0, 0.0)

    def test_array_equals_scalar_calls(self):
        snrs = np.logspace(-1, 6, 60).reshape(3, 20)
        targets = np.array([[1e-9], [1e-5], [1e-2]])
        for family in (QAM, PEM):
            sizes = max_modulation(family, snrs, targets)
            assert sizes.shape == snrs.shape
            assert sizes.tolist() == [[max_modulation(family, s, t) or 0 for s in row]
                                      for row, (t,) in zip(snrs.tolist(), targets.tolist())]

    def test_array_rejects_any_bad_entry(self):
        with pytest.raises(InvalidParams):
            max_modulation(QAM, np.array([1.0, math.inf]), SER_TARGET)
        with pytest.raises(InvalidParams):
            max_modulation(QAM, np.ones(2), np.array([SER_TARGET, 0.0]))


class TestSolveP1:
    def test_full_energy_requirement(self):
        lp = fig11_params(2.0)
        (plan,) = solve_p1([lp], FIG11_PS, lp.q_max, SER_TARGET)
        assert plan.alpha == 1.0 and plan.rate == 0.0

    def test_infeasible_requirement(self):
        lp = fig11_params(2.0)
        with pytest.raises(InfeasibleTarget):
            solve_p1([lp], FIG11_PS, lp.q_max * 1.01, SER_TARGET)

    def test_fig11_close_distance(self):
        lp = fig11_params(1.0)
        (plan,) = solve_p1([lp], FIG11_PS, 0.0, SER_TARGET)
        assert plan.m == 1024
        assert plan.rate == pytest.approx(10.0, abs=1e-12)
        oracle = p1_brute_force(lp, FIG11_PS, 0.0, SER_TARGET)
        assert plan.rate == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("log_d", [0.3, 0.7, 1.0, 1.3])
    def test_against_brute_force(self, log_d):
        lp = fig11_params(10.0 ** log_d)
        (plan,) = solve_p1([lp], FIG11_PS, 0.0, SER_TARGET)
        oracle = p1_brute_force(lp, FIG11_PS, 0.0, SER_TARGET)
        assert plan.rate == pytest.approx(oracle, abs=1e-6)

    def test_heavy_circuit_power_asymptote(self):
        # when the decoder draw dwarfs the harvest, the on fraction collapses
        # to (zeta h P)/P_S and the rate stays positive
        lp = LinkParams(h=1.0, p=1e-3, zeta=0.6, sigma2_a=1e-14, sigma2_cov=1e-10)
        p_s = 100.0 * lp.q_max
        (plan,) = solve_p1([lp], p_s, 0.0, SER_TARGET)
        assert plan.m == 1024
        assert plan.rate == pytest.approx(lp.q_max / p_s * 10.0, rel=1e-2)
        assert plan.rate > 0

    def test_rate_nonincreasing_in_q_req_and_circuit_power(self):
        lp = fig11_params(4.0)
        rates_q = [solve_p1([lp], FIG11_PS, q, SER_TARGET)[0].rate
                   for q in np.linspace(0.0, lp.q_max, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(rates_q, rates_q[1:]))
        rates_ps = [solve_p1([lp], ps, 0.0, SER_TARGET)[0].rate
                    for ps in (1e-4, 3e-4, 1e-3, 3e-3)]
        assert all(a >= b - 1e-12 for a, b in zip(rates_ps, rates_ps[1:]))

    @settings(max_examples=30, deadline=None, database=None)
    @given(log_d=st.floats(0.0, 1.5), q_frac=st.floats(0.0, 0.999),
           p_s=st.floats(0.0, 2e-3))
    def test_never_below_brute_force(self, log_d, q_frac, p_s):
        lp = fig11_params(10.0 ** log_d)
        q_req = q_frac * lp.q_max
        (plan,) = solve_p1([lp], p_s, q_req, SER_TARGET)
        assert plan.rate >= p1_brute_force(lp, p_s, q_req, SER_TARGET) - 1e-12

    @pytest.mark.parametrize("log_d,q_frac", [(0.0, 0.0), (0.5, 0.3), (1.0, 0.0),
                                              (1.2, 0.9), (1.5, 0.5)])
    def test_evaluates_at_most_the_candidates(self, log_d, q_frac, monkeypatch):
        # one max_modulation call for the whole batch, over at most MAX_BITS + 2
        # candidate splits per link: 0, rho0 and one threshold per size
        shapes = []
        real = modulation.max_modulation
        monkeypatch.setattr(modulation, "max_modulation",
                            lambda family, snr, target: shapes.append(np.shape(snr))
                            or real(family, snr, target))
        links = [fig11_params(10.0 ** log_d)] + [fig11_params(d) for d in sweep_distances()]
        solve_p1(links, FIG11_PS, [q_frac * lp.q_max for lp in links], SER_TARGET)
        (shape,) = shapes
        assert shape[0] == len(links) and shape[1] <= MAX_BITS + 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        lp = fig11_params(2.0)
        with pytest.raises(InvalidParams):
            solve_p1([lp], bad, 0.0, SER_TARGET)
        with pytest.raises(InvalidParams):
            solve_p1([lp], FIG11_PS, bad, SER_TARGET)

    def test_off_fraction_identity_when_interior(self):
        # 1 - alpha = (zeta h P - Q_req)/((1-rho) zeta h P + P_S) off the clamp
        rng = np.random.default_rng(2)
        lp = fig11_params(3.0)
        for _ in range(50):
            rho = rng.uniform(0.0, 0.999)
            q_req = rng.uniform(0.0, lp.q_max)
            alpha = p1_alpha(lp, FIG11_PS, q_req, rho)
            if alpha == 0.0:
                continue
            identity = (lp.q_max - q_req) / ((1.0 - rho) * lp.q_max + FIG11_PS)
            assert 1.0 - alpha == pytest.approx(identity, rel=1e-12)


def random_p1_problems(rng, n):
    """n (link, p_s, q_req, ser_target) problems over many decades of gain,
    power, noise and target, with p_s = 0, q_req = 0 and q_req = q_max among
    them."""
    problems = []
    for _ in range(n):
        lp = LinkParams(h=10.0 ** rng.uniform(-7, 1), p=10.0 ** rng.uniform(-1, 3),
                        zeta=rng.uniform(0.1, 1.0), sigma2_a=10.0 ** rng.uniform(-14, 0),
                        sigma2_cov=10.0 ** rng.uniform(-11, 2))
        p_s = float(rng.choice([0.0, 1e-3, 1.0]) * rng.uniform(0.0, 2.0) * lp.q_max)
        q_req = float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]) * lp.q_max)
        problems.append((lp, p_s, q_req, float(10.0 ** rng.uniform(-12, -0.5))))
    return problems


class TestSolveP1Batch:
    """The batched planner against the one-link scalar planner it replaced."""

    def test_equals_scalar_reference_bit_for_bit(self):
        # about a quarter of these links' thresholds step down from their
        # closed form, so the step-down loop is exercised too
        problems = random_p1_problems(np.random.default_rng(17), 3000)
        plans = solve_p1(*map(list, zip(*problems)))
        for plan, problem in zip(plans, problems):
            assert repr(plan) == repr(p1_scalar_reference(*problem))
        assert solve_p1([], FIG11_PS, 0.0, SER_TARGET) == []

    def test_distance_sweep_equals_scalar_reference(self):
        links = [fig11_params(d) for d in sweep_distances()]
        plans = solve_p1(links, FIG11_PS, 0.0, SER_TARGET)
        assert [repr(p) for p in plans] == \
            [repr(p1_scalar_reference(lp, FIG11_PS, 0.0, SER_TARGET)) for lp in links]

    def test_threshold_rounding_regression(self):
        # threshold arithmetic moved into arrays once moved rho here by one ulp,
        # to 0.6682827014146118
        lp = LinkParams(h=1.0285403703290288, p=1603.638428659761, zeta=0.27242381213834693,
                        sigma2_a=0.19271045712038753, sigma2_cov=20.55514754287926)
        args = (lp, 4.65707065021984, 321.48339122296863, 2.5874348525661815e-07)
        (plan,) = solve_p1([lp], *args[1:])
        assert plan.rho == 0.6682827014146117
        assert repr(plan) == repr(p1_scalar_reference(*args))

    def test_rejects_any_bad_link_input(self):
        links = [fig11_params(2.0), fig11_params(3.0)]
        with pytest.raises(InvalidParams):
            solve_p1(links, [FIG11_PS, math.nan], 0.0, SER_TARGET)
        with pytest.raises(InfeasibleTarget):
            solve_p1(links, FIG11_PS, [0.0, 2.0 * links[1].q_max], SER_TARGET)
        with pytest.raises(InvalidParams):
            solve_p1(links, FIG11_PS, 0.0, [SER_TARGET, 1.0])
        with pytest.raises(InvalidParams):
            solve_p1(links, [FIG11_PS], 0.0, SER_TARGET)


class TestSolveP2:
    def test_no_off_time_when_harvest_covers_draw(self):
        lp = fig11_params(1.0)
        (plan,) = solve_p2([lp], FIG11_PI, 0.0, SER_TARGET)
        assert plan.alpha == 0.0
        assert plan.m == 1024
        assert plan.rate == 10.0

    def test_full_energy_requirement(self):
        lp = fig11_params(1.0)
        (plan,) = solve_p2([lp], FIG11_PI, lp.q_max, SER_TARGET)
        assert plan.alpha == 1.0 and plan.rate == 0.0

    def test_fig11_distance_ten(self):
        lp = fig11_params(10.0)
        (plan,) = solve_p2([lp], FIG11_PI, 0.0, SER_TARGET)
        assert plan.m == 16
        assert plan.alpha == pytest.approx(0.997, abs=1e-9)
        assert plan.rate == pytest.approx(0.012, abs=1e-9)
        # brute force over l with the closed-form off fraction
        snr = lp.received_power / lp.sigma_rec
        best = max(((1.0 - plan.alpha) * l)
                   for l in range(1, 11) if ser_pem(1 << l, snr) <= SER_TARGET)
        assert plan.rate == pytest.approx(best, rel=1e-12)

    def test_zero_rate_at_extreme_distance(self):
        lp = fig11_params(10.0 ** 1.5)
        (plan,) = solve_p2([lp], FIG11_PI, 0.0, SER_TARGET)
        assert plan.m is None and plan.rate == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        lp = fig11_params(2.0)
        with pytest.raises(InvalidParams):
            solve_p2([lp], bad, 0.0, SER_TARGET)
        with pytest.raises(InvalidParams):
            solve_p2([lp], FIG11_PI, bad, SER_TARGET)

    def test_rate_nonincreasing_in_q_req(self):
        lp = fig11_params(5.0)
        rates = [solve_p2([lp], FIG11_PI, q, SER_TARGET)[0].rate
                 for q in np.linspace(0.0, lp.q_max, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_links_equal_one_link_each(self):
        rng = np.random.default_rng(23)
        links = [LinkParams(h=10.0 ** rng.uniform(-7, -3), p=1.0, zeta=0.6,
                            sigma2_rec=(10.0 ** rng.uniform(-10, -6)) ** 2)
                 for _ in range(200)]
        p_i = rng.uniform(0.0, 2e-3, len(links)).tolist()
        q_req = [float(rng.uniform(0.0, 1.0) * lp.q_max) for lp in links]
        targets = (10.0 ** rng.uniform(-12, -1, len(links))).tolist()
        assert solve_p2(links, p_i, q_req, targets) == \
            [solve_p2([lp], *args)[0] for lp, *args in zip(links, p_i, q_req, targets)]
        assert solve_p2([], FIG11_PI, 0.0, SER_TARGET) == []


class TestAlphaOrdering:
    """With p_s >= p_i the separated receiver's plan is off at least as long as
    the integrated receiver's, and a QAM size no larger than the PEM size
    gives no more rate."""

    @staticmethod
    def plans(lp, p_s, p_i, q_req):
        return solve_p1([lp], p_s, q_req, SER_TARGET) + solve_p2([lp], p_i, q_req, SER_TARGET)

    def test_randomized_ordering(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            lp = LinkParams(
                h=10.0 ** rng.uniform(-7, -3),
                p=rng.uniform(0.5, 2.0),
                zeta=rng.uniform(0.3, 0.9),
                sigma2_a=10.0 ** rng.uniform(-14, -12),
                sigma2_cov=10.0 ** rng.uniform(-11, -9),
                sigma2_rec=(10.0 ** rng.uniform(-9, -7)) ** 2,
            )
            p_i = rng.uniform(0.2, 1.0) * 1e-3
            p_s = p_i * rng.uniform(1.0, 4.0)
            q_req = rng.uniform(0.0, 1.0) * lp.q_max
            plan1, plan2 = self.plans(lp, p_s, p_i, q_req)
            assert plan1.alpha >= plan2.alpha
            if (plan1.m or 0) <= (plan2.m or 0):
                assert plan1.rate <= plan2.rate

    def test_fig11_small_distance_band(self):
        for log_d in np.linspace(0.0, 0.4, 5):
            lp = fig11_params(10.0 ** log_d)
            plan1, plan2 = self.plans(lp, FIG11_PS, FIG11_PI, 0.0)
            assert plan1.m == 1024 and plan2.m == 1024
            assert plan1.alpha >= plan2.alpha
            assert plan1.rate <= plan2.rate

    def test_full_requirement_trivial_ordering(self):
        lp = fig11_params(2.0)
        plan1, plan2 = self.plans(lp, FIG11_PS, FIG11_PI, lp.q_max)
        assert plan1.alpha == plan2.alpha == 1.0
        assert plan1.rate == plan2.rate == 0.0

    def test_requires_ordered_circuit_powers(self):
        # the ordering can fail once p_s < p_i, so the checks above can fail
        lp = fig11_params(2.0)
        q_req = 0.9 * lp.q_max
        plan1, plan2 = self.plans(lp, 0.1 * q_req, q_req, q_req)
        assert plan1.alpha < plan2.alpha


class TestLinkBudget:
    def test_channel_gain_law(self):
        assert fig11_params(1.0).h == pytest.approx(1e-3, rel=1e-12)
        assert fig11_params(10.0).h == pytest.approx(1e-6, rel=1e-12)

    def test_noise_levels(self):
        lp = fig11_params(1.0)
        assert lp.sigma2_a == pytest.approx(3.981071705534972e-14, rel=1e-12)
        assert lp.sigma2_cov == pytest.approx(1e-10, rel=1e-12)
        assert lp.sigma_rec == pytest.approx(1e-8, rel=1e-12)

    def test_minimum_distance(self):
        with pytest.raises(InvalidParams):
            fig11_params(0.5)
