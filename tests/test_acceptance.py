"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import math
import time

import numpy as np

from helpers import (
    central_diff1,
    central_diff2,
    jensen_rates,
    p0_grid_oracle,
    random_circuit_instance,
)
from swiptlab.capacity import (
    MonteCarloConfig,
    c1_upper_optimized,
    c2_upper,
    cnl_lower_chi2,
    cnl_upper,
)
from swiptlab.core import LinkParams, split_snr, upper_bound_region
from swiptlab.figures import (
    FIG9_LP,
    FIG9_PS,
    FIG10_INT,
    FIG10_POWERS,
    FIG10_SEP,
    fig10_cap,
    distance_sweep_rows,
    sweep_distances,
)
from swiptlab.modulation import ser_pem, ser_qam
from swiptlab.regions import (
    region_int_circuit,
    region_sps,
    region_ts,
    rs_coefficients,
    solve_p0,
)
from swiptlab.simkit import (
    DiodeModel,
    SimConfig,
    simulate_pem_integrated,
    simulate_qam_separated,
    simulate_rectifier_waveform,
)


def report(criterion: int, label: str, checks: list[tuple[str, bool]],
           elapsed: float, budget: float):
    checks = checks + [(f"runtime {elapsed:.2f}s < {budget:g}s", elapsed < budget)]
    ok = all(passed for _, passed in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label} "
          f"({elapsed:.2f}s)")
    failed = [name for name, passed in checks if not passed]
    assert not failed, f"criterion {criterion} failed checks: {failed}"


def test_criterion_1_fig5_regions():
    t0 = time.time()
    checks = []
    base = dict(h=1.0, p=100.0, zeta=1.0, sigma2_a=1.0)
    for scov2 in (1.0, 10.0):
        lp = LinkParams(**base, sigma2_cov=scov2)
        sps, ts = region_sps(lp, 512), region_ts(lp, 512)
        grid = ts.energies()
        checks.append((f"SPS dominates TS (scov2={scov2:g})",
                       bool(np.all(sps.rate_at(grid) >= ts.rate_at(grid) - 1e-12))))
        r0 = math.log2(1.0 + 100.0 / (1.0 + scov2))
        for name, bnd in (("sps", sps), ("ts", ts)):
            (rate0, energy0), (rate1, energy1) = bnd.points[0], bnd.points[-1]
            checks.append((f"{name} endpoints (scov2={scov2:g})",
                           abs(rate0 - r0) <= 1e-9 and energy0 == 0.0
                           and rate1 <= 1e-9 and abs(energy1 - 100.0) <= 1e-9))
    # near-ideal conversion noise: the SPS sweep hugs the outer-bound box
    lp_small = LinkParams(**base, sigma2_cov=1e-6)
    r_ub = math.log2(101.0)
    energy_grid = np.linspace(0.0, 0.999 * 100.0, 20)
    gaps = [r_ub - math.log2(1.0 + split_snr(float(e) / 100.0, lp_small))
            for e in energy_grid]
    checks.append(("SPS within 0.05 bits of the UB box at 20 energies",
                   max(gaps) <= 0.05))
    ub = upper_bound_region(LinkParams(**base), 512)
    checks.append(("UB corner", abs(ub.rate_at(0.0) - r_ub) <= 1e-12))
    report(1, "fig5 separated-receiver regions", checks, time.time() - t0, 1.0)


def test_criterion_2_jensen_dominance_suites():
    t0 = time.time()
    lp, p_s = FIG9_LP, FIG9_PS
    rng = np.random.default_rng(202)
    strict_ok = equal_ok = ops_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 129))
        vec = rng.uniform(0.0, 1.0, size=n)
        rate_sps, rate_dps = jensen_rates(lp, vec)
        strict_ok &= rate_sps - rate_dps > 1e-12
        rate_sps, rate_dps = jensen_rates(lp, np.full(n, vec[0]))
        equal_ok &= abs(rate_sps - rate_dps) <= 1e-12
    # on-off schedules whose on-period splits vary: off for a fraction alpha,
    # the vector's splits while on.  The constant split at the on-period mean
    # harvests the same net energy, and solve_p0's optimum at that energy is
    # no worse still
    targets, rates = [], []
    for _ in range(200):
        alpha = float(rng.uniform(0.0, 0.95))
        vec = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 65)))
        rate_sps, rate_dps = jensen_rates(lp, vec)
        ops_ok &= (1 - alpha) * rate_sps - (1 - alpha) * rate_dps > 1e-12
        net = alpha * lp.q_max + (1 - alpha) * (lp.q_max * float(np.mean(vec)) - p_s)
        if 0.0 <= net <= lp.q_max:
            targets.append(net)
            rates.append((1 - alpha) * rate_dps)
    optimum = solve_p0(lp, p_s, np.array(targets)).rate
    solver_ok = len(targets) >= 100 and bool(np.all(np.array(rates) <= optimum + 1e-9))
    checks = [("static-split dominance strict on 200 non-constant vectors", strict_ok),
              ("equality on constant vectors (tol 1e-12)", equal_ok),
              ("on-off dominance strict on 200 (alpha, vector) draws", ops_ok),
              (f"solve_p0 optimum beats the {len(targets)} energy-neutral draws",
               solver_ok)]
    report(2, "split-schedule dominance properties", checks, time.time() - t0, 5.0)


def test_criterion_3_concavity_and_solver_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    d1_ok = d2_sign_ok = fd2_sign_ok = True
    worst_d1 = 0.0
    for _ in range(100):
        lp, p_s, q = random_circuit_instance(rng)
        co = rs_coefficients(lp, p_s, q)
        span = co.s_hi - co.s_lo
        ss = np.linspace(co.s_lo, co.s_hi, 52)[1:-1]
        h1, h2 = 1e-5 * span, 1e-4 * span
        for s in ss:
            fd1 = central_diff1(co.rate, s, h1)
            rel = abs(co.rate_deriv(s) - fd1) / max(abs(fd1), 1e-12)
            worst_d1 = max(worst_d1, rel)
            d1_ok &= rel <= 1e-6
            fd2_sign_ok &= central_diff2(co.rate, s, h2) <= 1e-9
        d2_sign_ok &= bool(np.all(co.rate_deriv2(ss) <= 0.0))
    solver_ok = True
    worst_gap = 0.0
    rng2 = np.random.default_rng(304)
    for _ in range(20):
        lp, p_s, q = random_circuit_instance(rng2)
        gap = abs(solve_p0(lp, p_s, q).rate - p0_grid_oracle(lp, p_s, q))
        worst_gap = max(worst_gap, gap)
        solver_ok &= gap <= 1e-4
    checks = [
        (f"analytic first derivative vs FD (worst rel {worst_d1:.2e} <= 1e-6)", d1_ok),
        ("analytic second derivative <= 0 on feasible interval", d2_sign_ok),
        ("central second difference <= 1e-9", fd2_sign_ok),
        (f"solver vs 2000x2000 grid oracle (worst {worst_gap:.2e} <= 1e-4)", solver_ok),
    ]
    report(3, "reduced-objective derivatives and boundary solver", checks,
           time.time() - t0, 60.0)


def test_criterion_4_fig9_circuit_regions():
    t0 = time.time()
    lp, p_s = FIG9_LP, FIG9_PS
    q_max = lp.q_max
    r_max = math.log2(1.0 + split_snr(0.0, lp))
    grid = np.linspace(0.0, q_max, 512)
    ops = solve_p0(lp, p_s, grid)
    ops_rates = ops.rate

    # closed-form boundary rates of the truncated single-knob sweeps
    alpha_ts = (grid + p_s) / (q_max + p_s)
    ts_rates = np.where(alpha_ts <= 1.0, (1.0 - alpha_ts) * r_max, 0.0)
    rho_sps = (grid + p_s) / q_max
    sps_valid = rho_sps <= 1.0
    sps_rates = np.array([
        math.log2(1.0 + split_snr(float(r), lp)) if ok else 0.0
        for r, ok in zip(rho_sps, sps_valid)
    ])

    contain_ts = bool(np.all(ts_rates <= ops_rates + 1e-9))
    contain_sps = bool(np.all(np.where(sps_valid, sps_rates, 0.0) <= ops_rates + 1e-9))

    low_q = ops.alpha_star <= 1e-9
    coincide = bool(np.all(np.abs(ops_rates[low_q & sps_valid]
                                  - sps_rates[low_q & sps_valid]) <= 1e-6))
    checks = [
        ("on-off region contains time-switching curve", contain_ts),
        ("on-off region contains static-split curve", contain_sps),
        ("low-energy range with alpha*=0 exists", bool(np.any(low_q))),
        ("static-split and on-off boundaries coincide there (<= 1e-6 bits)", coincide),
    ]
    report(4, "fig9 circuit-power region containment", checks, time.time() - t0, 10.0)


def test_criterion_5_fig10_crossover():
    t0 = time.time()
    cap_est = fig10_cap(samples=100_000)
    cap = cap_est.value
    p_s_low, p_i_low = FIG10_POWERS["low"]

    def sep_rate(q):
        return solve_p0(FIG10_SEP, p_s_low, float(q)).rate

    # separated-receiver boundary rate is strictly decreasing; the integrated
    # boundary is flat at the capacity until q_max - p_i
    lo, hi = 0.0, FIG10_INT.q_max - p_i_low
    assert sep_rate(lo) > cap > sep_rate(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if sep_rate(mid) > cap:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)

    p_s_high, p_i_high = FIG10_POWERS["high"]
    int_high = region_int_circuit(FIG10_INT, p_i_high, cap, 512)
    grid = np.linspace(0.0, FIG10_INT.q_max, 512)
    sep_high = solve_p0(FIG10_SEP, p_s_high, grid).rate
    int_dominates = bool(np.all(int_high.rate_at(grid) >= sep_high - 1e-9))

    checks = [
        (f"chi-square-input rate {cap:.3f} +- {cap_est.std_error:.3f} bits "
         f"(n={cap_est.n_samples})", cap_est.n_samples >= 100_000),
        (f"low-circuit-power crossover {crossover:.2f} in [34, 40]",
         34.0 <= crossover <= 40.0),
        ("high circuit power: integrated dominates at every sampled energy",
         int_dominates),
    ]
    report(5, "fig10 architecture crossover", checks, time.time() - t0, 600.0)


def test_criterion_6_fig11_distance_sweep():
    t0 = time.time()
    log_d = np.log10(sweep_distances())
    sep_rows, int_rows = distance_sweep_rows()
    m1 = np.array([r[2] for r in sep_rows])
    m2 = np.array([r[2] for r in int_rows])
    r1 = np.array([r[5] for r in sep_rows])
    r2 = np.array([r[5] for r in int_rows])

    near = log_d <= 0.4 + 1e-12
    full_size = bool(np.all(m1[near] == 1024) and np.all(m2[near] == 1024))

    upto_ten = log_d <= 1.0 + 1e-12
    int_wins = bool(np.all(r2[upto_ten] >= r1[upto_ten] - 1e-12))

    diff = r2 - r1
    window = (log_d >= 0.9 - 1e-12) & (log_d <= 1.1 + 1e-12)
    crossed = bool(diff[log_d < 0.9 - 1e-12][-1] > 0
                   and np.any(diff[window] < 0)
                   and np.all(diff[log_d > 1.1 + 1e-12] < 0))

    at_15 = np.isclose(log_d, 1.5)
    endpoint = bool(r2[at_15][0] == 0.0 and r1[at_15][0] > 0.0)

    checks = [
        ("both receivers hold 2^10 for log10 d in [0, 0.4]", full_size),
        ("integrated rate >= separated rate for log10 d in [0, 1]", int_wins),
        ("rate crossover inside log10 d in [0.9, 1.1]", crossed),
        ("at log10 d = 1.5: integrated rate 0, separated rate > 0", endpoint),
    ]
    report(6, "fig11/fig12 practical-modulation sweep", checks, time.time() - t0, 10.0)


def test_criterion_7_ser_oracle_equivalence():
    t0 = time.time()
    n = 400_000
    qam_ok = pem_ok = True
    worst = 0.0
    for i, tau in enumerate((4.0, 6.5, 9.0, 11.5, 14.0)):
        lp = LinkParams(h=1.0, p=tau, sigma2_a=0.4, sigma2_cov=0.6)
        res = simulate_qam_separated(lp, 0.0, 4, SimConfig(n_symbols=n, seed=700 + i))
        predicted = ser_qam(4, tau)
        assert 1e-4 <= predicted <= 1e-1
        sigma = math.sqrt(predicted * (1.0 - predicted) / n)
        dev = abs(res.ser_hat - predicted) / sigma
        worst = max(worst, dev)
        qam_ok &= dev <= 3.0
    for i, tau in enumerate((29.0, 38.0, 45.0, 52.0, 58.0)):
        lp = LinkParams(h=1.0, p=tau, sigma2_a=0.0, sigma2_rec=1.0)
        res = simulate_pem_integrated(lp, 16, SimConfig(n_symbols=n, seed=750 + i))
        predicted = ser_pem(16, tau)
        assert 1e-4 <= predicted <= 1e-1
        sigma = math.sqrt(predicted * (1.0 - predicted) / n)
        dev = abs(res.ser_hat - predicted) / sigma
        worst = max(worst, dev)
        pem_ok &= dev <= 3.0
    checks = [(f"QAM formula vs simulation within 3 sigma at 5 points", qam_ok),
              (f"PEM formula vs simulation within 3 sigma at 5 points "
               f"(worst {worst:.2f} sigma)", pem_ok)]
    report(7, "symbol-error-rate oracle equivalence", checks, time.time() - t0, 120.0)


def test_criterion_8_rectifier_waveform():
    t0 = time.time()
    lp = LinkParams(h=1.0, p=100.0, zeta=0.6)
    cfg_const = SimConfig(n_symbols=256, seed=800, oversampling=8,
                          carrier_hz=8.0, bandwidth_hz=1.0)
    const = simulate_rectifier_waveform(lp, DiodeModel(), cfg_const,
                                        constant_envelope=True)
    cfg_rand = SimConfig(n_symbols=100_000, seed=801, oversampling=8,
                         carrier_hz=8.0, bandwidth_hz=1.0)
    rand = simulate_rectifier_waveform(lp, DiodeModel(), cfg_rand)
    three_sigma = 3.0 * lp.zeta * lp.received_power / math.sqrt(cfg_rand.n_symbols)
    checks = [
        (f"constant envelope dc {const.dc_mean:.9f} = hP within 1e-6",
         abs(const.dc_mean - 100.0) / 100.0 <= 1e-6),
        (f"harmonic powers match their closed form within 1e-8 "
         f"(errors {const.harmonic_error:.1e}, {rand.harmonic_error:.1e})",
         const.harmonic_error <= 1e-8 and rand.harmonic_error <= 1e-8),
        (f"zeta*dc {lp.zeta * rand.dc_mean:.3f} within 3 sigma of {lp.q_max:g}",
         abs(lp.zeta * rand.dc_mean - lp.q_max) <= three_sigma),
    ]
    report(8, "rectifier waveform oracle", checks, time.time() - t0, 60.0)


def test_criterion_9_capacity_bound_sandwich():
    t0 = time.time()
    sandwich_ok = True
    worst = -math.inf
    ratios = np.logspace(-4, 2, 10)
    for i, ratio in enumerate(ratios):
        s2a, s2r = float(ratio), 1.0
        est = cnl_lower_chi2(100.0, s2a, s2r,
                             MonteCarloConfig(n_samples=100_000, seed=900 + i))
        ub = cnl_upper(100.0, s2a, s2r)["cnl_upper_bits"]
        slack = ub - (est.value - 3.0 * est.std_error)
        worst = max(worst, -slack)
        sandwich_ok &= slack >= 0.0
    branch_ok = True
    for hp in (1.0, 10.0, 100.0):
        c1, _, _ = c1_upper_optimized(hp, 1.0)
        branch_ok &= c1 < c2_upper(hp, 1e-4)
    checks = [
        ("lower - 3*stderr <= upper at 10 noise ratios in [1e-4, 1e2]", sandwich_ok),
        ("intensity-channel branch is the active minimum with dominant rectifier noise",
         branch_ok),
    ]
    report(9, "capacity bound sandwich and branch selection", checks,
           time.time() - t0, 600.0)
