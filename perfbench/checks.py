"""Output checks, one per operation kind, run outside the timed span.

Every check recomputes what the artifact must contain from closed forms, a
brute-force oracle or a stored high-sample reference, never from the code
under test, so each can fail.  A check returns a list of problems; an empty
list passes.  Statistical checks allow Z standard errors: at Z = 5 a correct
program fails one check in about 1.7 million, so the hundreds of checks a set
of runs makes stay quiet across seeds, while a corrupted value still fails
(see selftest.py).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads as wl

Z = 5.0
EXACT = 1e-9          # relative tolerance of closed-form comparisons
P0_ORACLE_TOL = 1e-6  # bits; solver and oracle both resolve the optimum to ~1e-12
CI_FACTOR = 1.959963984540054  # simkit reports 95% half-widths
HERE = os.path.dirname(os.path.abspath(__file__))


# --- closed forms ------------------------------------------------------------

def q_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ser_qam(m: int, snr: float) -> float:
    sm = math.sqrt(m)
    return 4.0 * (sm - 1.0) / sm * q_tail(math.sqrt(3.0 * snr / (m - 1)))


def ser_pem(m: int, snr: float) -> float:
    return 2.0 * (m - 1.0) / m * q_tail(snr / (m - 1))


def split_snr(rho, hp, sa2, scov2):
    return (1.0 - rho) * hp / ((1.0 - rho) * sa2 + scov2)


def c2_upper(hp: float, sa2: float) -> float:
    return 0.5 * math.log2(1.0 + hp / sa2) + 0.5 * (
        math.log2(2.0 * math.pi / math.e) - float(np.euler_gamma) * math.log2(math.e))


def close(a: float, b: float, rel: float = EXACT) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def p0_grid_oracle(hp, q_max, sa2, scov2, p_s, q, resolution=2001, zooms=4):
    """Best feasible (1-a)*log2(1+tau(rho)) by brute force over an alpha grid,
    re-gridded around the incumbent.  For each alpha the smallest split that
    meets the energy target is optimal, since the rate falls and the net
    energy rises with rho, so no search over rho is needed."""
    a_lo, a_hi = 0.0, 1.0
    best = 0.0
    for _ in range(zooms + 1):
        al = np.linspace(a_lo, a_hi, resolution)[:-1]  # alpha = 1 carries no rate
        rho = (q - al * q_max + (1.0 - al) * p_s) / ((1.0 - al) * q_max)
        ok = rho <= 1.0
        rate = np.where(ok, (1.0 - al) * np.log2(
            1.0 + split_snr(np.clip(rho, 0.0, 1.0), hp, sa2, scov2)), -np.inf)
        i = int(np.argmax(rate))
        best = max(best, float(rate[i]))
        step = (a_hi - a_lo) / (resolution - 1)
        a_lo, a_hi = max(0.0, al[i] - 2 * step), min(1.0, al[i] + 2 * step)
    return best


# --- artifacts ---------------------------------------------------------------

def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_boundary(path: str, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """(rates, energies) of a boundary CSV; raises ValueError on a bad file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "scheme,receiver,rate_bits,energy_units":
        raise ValueError(f"bad header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows or any(len(r) != 4 or r[0] != scheme for r in rows):
        raise ValueError(f"rows are not {scheme} boundary rows")
    return (np.array([float(r[2]) for r in rows]), np.array([float(r[3]) for r in rows]))


def read_plan_rows(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "distance_m,receiver,m,alpha,rho,rate_bits":
        raise ValueError(f"bad header {lines[0]!r}")
    return np.array([[float(v) for i, v in enumerate(ln.split(",")) if i != 1]
                     for ln in lines[1:]])


class References:
    """High-sample MI references keyed by (hp, sa2, srec2)."""

    def __init__(self, path: str = os.path.join(HERE, "mi_reference.json")):
        self.entries = read_json(path)["references"]

    def lookup(self, hp, sa2, srec2) -> dict:
        for e in self.entries:
            if close(e["hp"], hp, 1e-12) and close(e["sa2"], sa2, 1e-12) \
                    and close(e["srec2"], srec2, 1e-12):
                return e
        raise KeyError(f"no MI reference for hp={hp}, sa2={sa2}, srec2={srec2}")


# --- per-kind checks ---------------------------------------------------------

def check_capacity(op, res, refs: References) -> list[str]:
    m = op["meta"]
    if m.get("known_exit") is not None and res.rc == m["known_exit"]:
        try:
            err = json.loads(res.stderr.strip().splitlines()[-1])["error"]
        except (ValueError, IndexError, KeyError):
            return [f"exit {res.rc} without a JSON error record"]
        if err.get("type") != "QuadratureFailure" or err.get("exit_code") != m["known_exit"]:
            return [f"exit {res.rc} with unexpected error {err}"]
        return []
    doc = read_json(os.path.join(res.out_dir, "capacity.json"))
    lower, upper = doc["outputs"]["lower"], doc["outputs"]["upper"]
    problems = []
    if lower["n_samples"] != wl.MI_SAMPLES or lower["seed"] != m["mc_seed"]:
        problems.append(f"estimate used n={lower['n_samples']} seed={lower['seed']}")
    ref = refs.lookup(*m["ref"])
    value, se = lower["value_bits"], lower["std_error_bits"]
    tol = Z * math.hypot(se, ref["std_error_bits"])
    if not abs(value - ref["value_bits"]) <= tol:
        problems.append(f"MI {value:.5f} vs reference {ref['value_bits']:.5f} "
                        f"beyond {tol:.5f}")
    # acceptance criterion 9: the estimate may not exceed the upper bound
    if not value - Z * se <= upper["cnl_upper_bits"]:
        problems.append(f"MI {value:.5f} - {Z:g} se above upper bound "
                        f"{upper['cnl_upper_bits']:.5f}")
    if not close(upper["c2_upper_bits"], c2_upper(m["hp"], m["sa2"])):
        problems.append("c2 upper bound differs from its closed form")
    if upper["cnl_upper_bits"] != min(upper["c1_upper_bits"], upper["c2_upper_bits"]):
        problems.append("cnl upper bound is not min(c1, c2)")
    return problems


def check_int_adc(op, res, refs: References) -> list[str]:
    m = op["meta"]
    rates, energies = read_boundary(os.path.join(res.out_dir, "region.csv"), "int-adc")
    q_max = wl.ADC_LINK["zeta"] * wl.ADC_LINK["h"] * wl.ADC_LINK["p"]
    hp = wl.ADC_LINK["h"] * wl.ADC_LINK["p"]
    rhos = wl.adc_rhos()
    problems = []
    if not (np.all(np.diff(energies) > 0) and np.all(np.diff(rates) < 0)):
        problems.append("int-adc rows are not a strictly decreasing Pareto frontier")
    if not close(energies[-1], rhos[-1] * q_max):
        problems.append("int-adc frontier does not end at the largest split")
    for rate, energy in zip(rates, energies):
        idx = [i for i, r in enumerate(rhos) if close(r * q_max, energy)]
        if not idx:
            problems.append(f"energy {energy} is not on the swept split grid")
            continue
        ref = refs.lookup(hp, wl.ADC_LINK["sa2"], wl.adc_sigma2_eff(m["srec2"], rhos[idx[0]]))
        sd = ref["std_error_bits"] * math.sqrt(ref["n_samples"])
        tol = Z * math.sqrt(sd * sd / wl.MI_SAMPLES + ref["std_error_bits"] ** 2)
        if not abs(rate - ref["value_bits"]) <= tol:
            problems.append(f"rate {rate:.5f} at rho={rhos[idx[0]]:.3f} vs reference "
                            f"{ref['value_bits']:.5f} beyond {tol:.5f}")
    return problems


def _boundary_problems(scheme, rates, energies, link, p_s, n_points) -> list[str]:
    """Closed-form rates of the separated-receiver sweeps at their energies."""
    hp = link["h"] * link["p"]
    q_max = link["zeta"] * hp
    sa2, scov2 = link["sa2"], link["scov2"]
    r_max = math.log2(1.0 + hp / (sa2 + scov2))
    if scheme == "ts":
        expect = r_max * (1.0 - energies / q_max)
    elif scheme == "sps":
        expect = np.log2(1.0 + split_snr(energies / q_max, hp, sa2, scov2))
    elif scheme == "ts-circuit":
        expect = r_max * (1.0 - (energies + p_s) / (q_max + p_s))
    elif scheme == "sps-circuit":
        rho = np.minimum((energies + p_s) / q_max, 1.0)
        expect = np.log2(1.0 + split_snr(rho, hp, sa2, scov2))
    else:
        raise ValueError(scheme)
    problems = []
    if len(rates) != n_points:
        problems.append(f"{scheme}: {len(rates)} rows, expected {n_points}")
    gap = np.abs(rates - expect) / np.maximum(1.0, np.abs(expect))
    if not np.all(gap <= 1e-8):
        problems.append(f"{scheme}: rate off its closed form by up to {gap.max():.3g}")
    if not (np.all(np.diff(energies) >= 0) and energies[0] <= 1e-9 * q_max
            and close(energies[-1], q_max - (p_s if scheme == "sps-circuit" else 0.0))):
        problems.append(f"{scheme}: energies do not span the region")
    return problems


def _ops_problems(rates, energies, link, p_s, sample_idx) -> list[str]:
    hp = link["h"] * link["p"]
    q_max = link["zeta"] * hp
    problems = []
    if not np.allclose(energies, np.linspace(0.0, q_max, len(energies)), rtol=EXACT, atol=0):
        problems.append("ops-circuit: energies are not the uniform target grid")
    for i in sample_idx:
        oracle = p0_grid_oracle(hp, q_max, link["sa2"], link["scov2"], p_s, energies[i])
        if not abs(rates[i] - oracle) <= P0_ORACLE_TOL:
            problems.append(f"ops-circuit: rate {rates[i]:.6f} at energy {energies[i]:.4g} "
                            f"vs grid oracle {oracle:.6f}")
    return problems


def check_region(op, res, refs=None) -> list[str]:
    m = op["meta"]
    rates, energies = read_boundary(os.path.join(res.out_dir, "region.csv"), m["scheme"])
    if m["scheme"] == "ops-circuit":
        return _ops_problems(rates, energies, m["link"], m["ps"], m["sample_idx"])
    return _boundary_problems(m["scheme"], rates, energies, m["link"], m.get("ps", 0.0),
                              m["points"])


def check_p0(op, res, refs=None) -> list[str]:
    m = op["meta"]
    link, p_s, q = m["link"], m["ps"], m["q"]
    out = read_json(os.path.join(res.out_dir, "solve.json"))["outputs"]
    hp = link["h"] * link["p"]
    q_max = link["zeta"] * hp
    a, rho, rate = out["alpha_star"], out["rho_star"], out["rate_bits"]
    problems = []
    if not close(rate, (1 - a) * math.log2(1 + split_snr(rho, hp, link["sa2"], link["scov2"]))):
        problems.append("p0: rate does not match its (alpha, rho)")
    if a * q_max + (1 - a) * rho * q_max - (1 - a) * p_s < q - EXACT * q_max:
        problems.append("p0: plan misses the energy target")
    oracle = p0_grid_oracle(hp, q_max, link["sa2"], link["scov2"], p_s, q)
    if not abs(rate - oracle) <= P0_ORACLE_TOL:
        problems.append(f"p0: rate {rate:.6f} vs grid oracle {oracle:.6f}")
    return problems


def _largest(ser_fn, snr, target):
    for bits in range(10, 0, -1):
        if ser_fn(1 << bits, snr) <= target:
            return 1 << bits
    return None


def check_p1(op, res, refs=None) -> list[str]:
    m = op["meta"]
    link, p_s, q_req, target = m["link"], m["ps"], m["qreq"], m["ser_target"]
    out = read_json(os.path.join(res.out_dir, "solve.json"))["outputs"]
    hp = link["h"] * link["p"]
    q_max = link["zeta"] * hp
    snr = lambda r: split_snr(r, hp, link["sa2"], link["scov2"])  # noqa: E731
    alpha = lambda r: min(max((q_req - r * q_max + p_s) / ((1 - r) * q_max + p_s), 0.0), 1.0)  # noqa: E731
    problems = []
    mm, a, rho, rate = out["m"], out["alpha"], out["rho"], out["rate_bits"]
    if mm is not None:
        if ser_qam(mm, snr(rho)) > target * (1 + EXACT):
            problems.append(f"p1: {mm}-QAM misses the SER target at rho={rho}")
        if not close(a, alpha(rho)) or not close(rate, (1 - a) * math.log2(mm)):
            problems.append("p1: alpha or rate inconsistent with (m, rho)")
    elif rate != 0.0:
        problems.append("p1: rate without a constellation")
    # the planner scans a 2048-point split grid; this 256-point subgrid's best
    # feasible plan is a lower bound it must reach
    best = 0.0
    for r in np.arange(256) / 256.0:
        m_r = _largest(ser_qam, snr(float(r)), target)
        if m_r is not None:
            best = max(best, (1 - alpha(float(r))) * math.log2(m_r))
    if rate < best - EXACT:
        problems.append(f"p1: rate {rate} below the grid optimum {best}")
    return problems


def check_p2(op, res, refs=None) -> list[str]:
    m = op["meta"]
    link, p_i, q_req, target = m["link"], m["pi"], m["qreq"], m["ser_target"]
    out = read_json(os.path.join(res.out_dir, "solve.json"))["outputs"]
    hp = link["h"] * link["p"]
    q_max = link["zeta"] * hp
    mm = _largest(ser_pem, hp / math.sqrt(link["srec2"]), target)
    a = min(max((q_req - q_max + p_i) / p_i, 0.0), 1.0)
    rate = 0.0 if mm is None else (1 - a) * math.log2(mm)
    if out["m"] != mm or not close(out["alpha"], a) or not close(out["rate_bits"], rate):
        return [f"p2: plan (m={out['m']}, alpha={out['alpha']}) differs from "
                f"closed form (m={mm}, alpha={a})"]
    return []


def check_link(op, res, refs=None) -> list[str]:
    m = op["meta"]
    out = read_json(os.path.join(res.out_dir, "link.json"))["outputs"]
    expect = m["link"]
    got = dict(h=out["h"], p=out["p"], zeta=out["zeta"], sa2=out["sigma2_a"],
               scov2=out["sigma2_cov"], srec2=out["sigma2_rec"])
    bad = [k for k in got if not close(got[k], expect[k], 1e-12)]
    return [f"link: {k} = {got[k]} vs closed form {expect[k]}" for k in bad]


def check_fig5(op, res, refs=None) -> list[str]:
    d = res.out_dir
    problems = []
    ub_rates, ub_energies = read_boundary(os.path.join(d, "fig5_ub.csv"), "ub")
    if not (close(ub_rates[0], math.log2(101.0)) and close(ub_energies[-1], 100.0)):
        problems.append("fig5: outer-bound corner")
    for scov2 in (1.0, 10.0):
        link = dict(h=1.0, p=100.0, zeta=1.0, sa2=1.0, scov2=scov2)
        ts = read_boundary(os.path.join(d, f"fig5_ts_scov{scov2:g}.csv"), "ts")
        sps = read_boundary(os.path.join(d, f"fig5_sps_scov{scov2:g}.csv"), "sps")
        problems += _boundary_problems("ts", *ts, link, 0.0, 512)
        problems += _boundary_problems("sps", *sps, link, 0.0, 512)
        # acceptance criterion 1: static splitting dominates time switching
        if not np.all(np.interp(ts[1], sps[1], sps[0]) >= ts[0] - 1e-12):
            problems.append(f"fig5: SPS below TS (scov2={scov2:g})")
    return problems


def check_fig9(op, res, refs=None) -> list[str]:
    d = res.out_dir
    link = dict(h=1.0, p=100.0, zeta=0.6, sa2=1.0, scov2=10.0)
    p_s, q_max, hp = 25.0, 60.0, 100.0
    problems = []
    for name, scheme, ps in (("ts_net", "ts-circuit", p_s), ("sps_net", "sps-circuit", p_s),
                             ("ts_total", "ts", 0.0), ("sps_total", "sps", 0.0)):
        rates, energies = read_boundary(os.path.join(d, f"fig9_{name}.csv"), scheme)
        problems += _boundary_problems(scheme, rates, energies, link, ps, 512)
    ops = read_boundary(os.path.join(d, "fig9_ops_net.csv"), "ops-circuit")
    problems += _ops_problems(*ops, link, p_s, op["meta"]["sample_idx"])
    # acceptance criterion 4: the on-off region contains both truncated sweeps
    rates, grid = ops
    r_max = math.log2(1.0 + hp / 11.0)
    ts = np.maximum(1.0 - (grid + p_s) / (q_max + p_s), 0.0) * r_max
    rho = (grid + p_s) / q_max
    sps = np.where(rho <= 1.0, np.log2(1.0 + split_snr(np.minimum(rho, 1.0), hp, 1.0, 10.0)), 0.0)
    if not (np.all(ts <= rates + 1e-9) and np.all(sps <= rates + 1e-9)):
        problems.append("fig9: on-off boundary below a truncated single-knob sweep")
    return problems


def check_distance_sweep(op, res, refs=None) -> list[str]:
    """Acceptance criterion 6 on the fig11/fig12 plan tables."""
    fid = op["meta"]["figure"]
    sep = read_plan_rows(os.path.join(res.out_dir, f"{fid}_seprx.csv"))
    itg = read_plan_rows(os.path.join(res.out_dir, f"{fid}_intrx.csv"))
    log_d = np.arange(0.0, 1.5 + 1e-9, 0.05)
    if sep.shape != (31, 5) or itg.shape != (31, 5) \
            or not np.allclose(np.log10(sep[:, 0]), log_d, atol=1e-12):
        return [f"{fid}: plan tables do not cover the 31 distances"]
    m1, m2, r1, r2 = sep[:, 1], itg[:, 1], sep[:, 4], itg[:, 4]
    problems = []
    near = log_d <= 0.4 + 1e-12
    if not (np.all(m1[near] == 1024) and np.all(m2[near] == 1024)):
        problems.append(f"{fid}: constellations below 2^10 at short range")
    upto_ten = log_d <= 1.0 + 1e-12
    if not np.all(r2[upto_ten] >= r1[upto_ten] - 1e-12):
        problems.append(f"{fid}: separated receiver ahead within 10 m")
    diff = r2 - r1
    window = (log_d >= 0.9 - 1e-12) & (log_d <= 1.1 + 1e-12)
    if not (diff[log_d < 0.9 - 1e-12][-1] > 0 and np.any(diff[window] < 0)
            and np.all(diff[log_d > 1.1 + 1e-12] < 0)):
        problems.append(f"{fid}: rate crossover outside log10 d in [0.9, 1.1]")
    if not (r2[-1] == 0.0 and r1[-1] > 0.0):
        problems.append(f"{fid}: wrong rates at log10 d = 1.5")
    return problems


def _z_problem(label, got, expect, sigma) -> list[str]:
    if not abs(got - expect) <= Z * sigma:
        return [f"{label}: {got:.6g} vs {expect:.6g} beyond {Z:g} sigma = {Z * sigma:.3g}"]
    return []


def check_qam(op, res, refs=None) -> list[str]:
    m = op["meta"]
    out = read_json(os.path.join(res.out_dir, "simulate.json"))["outputs"]
    link, n = m["link"], m["symbols"]
    hp = link["h"] * link["p"]
    f = ser_qam(m["m"], split_snr(m["rho"], hp, link["sa2"], link["scov2"]))
    if m.get("noise_scale", 1.0) > 1.0:
        sigma = out["ci_halfwidth"] / CI_FACTOR
    else:
        sigma = math.sqrt(f * (1.0 - f) / n)
    problems = _z_problem("qam SER", out["ser_hat"], f, sigma)
    if m.get("noise_scale", 1.0) == 1.0:
        # unit-average-energy constellation: |s|^2 has mean 1 and std <= 1
        e = link["zeta"] * m["rho"] * hp
        problems += _z_problem("qam energy", out["energy_hat"], e, e / math.sqrt(n))
    return problems


def check_pem(op, res, refs=None) -> list[str]:
    m = op["meta"]
    out = read_json(os.path.join(res.out_dir, "simulate.json"))["outputs"]
    link, n = m["link"], m["symbols"]
    f = ser_pem(m["m"], link["h"] * link["p"] / math.sqrt(link["srec2"]))
    return _z_problem("pem SER", out["ser_hat"], f, math.sqrt(f * (1.0 - f) / n))


def check_rectifier(op, res, refs=None) -> list[str]:
    m = op["meta"]
    out = read_json(os.path.join(res.out_dir, "simulate.json"))["outputs"]
    hp = m["link"]["h"] * m["link"]["p"]
    if m["constant_envelope"]:
        return [] if close(out["dc_mean"], hp, 1e-6) else [
            f"rectifier: constant-envelope DC {out['dc_mean']} vs hP = {hp}"]
    # DC = hP * mean|x|^2 with |x|^2 ~ Exp(1): std hP / sqrt(n)
    return _z_problem("rectifier DC", out["dc_mean"], hp, hp / math.sqrt(m["symbols"]))


CHECKS = {
    "capacity": check_capacity,
    "int-adc": check_int_adc,
    "region": check_region,
    "p0": check_p0,
    "p1": check_p1,
    "p2": check_p2,
    "link": check_link,
    "fig5": check_fig5,
    "fig9": check_fig9,
    "distance-sweep": check_distance_sweep,
    "qam": check_qam,
    "pem": check_pem,
    "rectifier": check_rectifier,
}


def check_op(op, res, refs: References) -> list[str]:
    """Problems with one operation's outcome; exit codes other than the
    expected one are problems too."""
    expected = op["meta"].get("known_exit")
    if res.rc != 0 and res.rc != expected:
        return [f"exit {res.rc}: {res.stderr.strip()[-300:]}"]
    try:
        return CHECKS[op["check"]](op, res, refs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
