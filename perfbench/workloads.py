"""Operation lists of the four benchmark workloads.

An operation is one in-process ``swiptlab`` CLI call: its argv (with ``{out}``
standing for the operation's private output directory), the check that its
artifact must pass, and the parameters that check needs.  ``make_pass``
draws one pass of a workload from a ``numpy.random.Generator`` seeded with
the workload seed, so the same seed gives the same passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcinv

WORKLOADS = ("mi_points", "adc_sweep", "design", "oracles")

# How an op's time follows the host probe (workload.core_loop): the slope of
# log(op time) on log(probe time), from several minutes of each workload on
# a busy host, per op and per 25 s run.  The interpreter-bound design ops
# slow a little more than the loop (slopes 1.0-1.3); the numpy kernels slow
# less: the MI quadrature of mi_points and adc_sweep 0.3-0.95, the
# simulators 0.1-0.8.  An op's time is scaled by
# (reference probe time / probe time) ** exponent.
HOST_EXPONENT = {"mi_points": 0.75, "adc_sweep": 0.75, "design": 1.25, "oracles": 0.5}

# --- mi_points: capacity --lower --upper at fixed operating points ---------
MI_SAMPLES = 10_000   # the smallest sample count the estimator accepts
HP = 100.0
# every third of criterion 9's ten ratios sa2/srec2 in [1e-4, 1e2] (srec2 =
# 1), so that a 25 s run holds three passes; ratio 1 is also fig7's
# srec2 = 1 point
C9_RATIOS = [float(r) for r in np.logspace(-4, 2, 10)[::3]]
MI_POINTS = (
    [(f"c9_ratio{r:.3g}", HP, r, 1.0) for r in C9_RATIOS]
    + [("fig7_proc100", HP, 1.0, 1e4),
       ("fig10", HP, 0.01, 100.0)]
)
# the unit-scale point (hP=100, sa2=1, srec2=1) with every power scaled by
# c = 1e-6 (so srec2 by c^2): the same channel, hence the same MI
RESCALE = 1e-6
RESCALED_POINT = ("rescaled_1e-6", HP * RESCALE, 1.0 * RESCALE, 1.0 * RESCALE ** 2)
RESCALED_REFERENCE = (HP, 1.0, 1.0)
# known defect (ROADMAP item 2c): until the quadrature is made scale-free the
# rescaled op exits 4 with a QuadratureFailure
RESCALED_KNOWN_EXIT = 4

# --- adc_sweep: region --scheme int-adc on the two fig8 links --------------
ADC_LINK = dict(h=1.0, p=100.0, zeta=0.6, sa2=1.0, sadc2=1.0)
ADC_SREC2 = (1.0, 1e4)
ADC_POINTS = 4   # a sweep of about 3 s, so that a 25 s run holds three passes


def adc_rhos() -> list[float]:
    """The split ratios region_int_adc sweeps for ADC_POINTS points."""
    return [float(r) for r in np.linspace(0.0, 1.0 - 1e-3, ADC_POINTS)]


def adc_sigma2_eff(srec2: float, rho: float) -> float:
    return srec2 + ADC_LINK["sadc2"] / (1.0 - rho) ** 2


def reference_points() -> list[tuple[float, float, float]]:
    """Every distinct (hp, sa2, srec2) whose MI the checks compare against."""
    pts = [(hp, sa2, srec2) for _, hp, sa2, srec2 in MI_POINTS]
    for srec2 in ADC_SREC2:
        pts += [(ADC_LINK["h"] * ADC_LINK["p"], ADC_LINK["sa2"], adc_sigma2_eff(srec2, r))
                for r in adc_rhos()]
    return list(dict.fromkeys(pts))


# --- design: figures, separated-receiver regions and solvers -------------
DESIGN_FIGURES = ("fig5", "fig9", "fig11", "fig12")
DESIGN_SCHEMES = ("ts", "sps", "ops-circuit", "ts-circuit", "sps-circuit")
BOUNDARY_POINTS = 512
# the practical link of the fig11/fig12 distance sweep
SWEEP = dict(zeta=0.6, ps=0.5e-3, pi=0.2e-3, ser_target=1e-5,
             antenna_noise_dbm=-104.0, conv_noise_dbm=-70.0, rec_noise_dbm=-50.0)
ORACLE_SAMPLES = 3    # boundary energies compared against the grid oracle
# single boundary-point queries: short calls whose time is mostly CLI
# overhead; four of them put the median op among the 512-point sweeps
P0_TARGETS = 4

# --- oracles: Monte Carlo symbol and waveform simulations -----------------
QAM_SYMBOLS = 1_000_000
QAM_IS_SYMBOLS = 400_000
PEM_SYMBOLS = 1_000_000
RECTIFIER_SYMBOLS = 100_000   # about 460 MB peak in the waveform oracle


def _f(x: float) -> str:
    return repr(float(x))


def _q_inv(p: float) -> float:
    return math.sqrt(2.0) * float(erfcinv(2.0 * p))


def _link_flags(link: dict) -> list[str]:
    flags = {"h": "--h", "p": "--p", "zeta": "--zeta", "sa2": "--sa2",
             "scov2": "--scov2", "srec2": "--srec2"}
    return [tok for k, flag in flags.items() if k in link for tok in (flag, _f(link[k]))]


def _seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31 - 1))


def _op(check: str, argv: list[str], **meta) -> dict:
    return {"check": check, "argv": argv, "meta": meta}


def _mi_pass(rng) -> list[dict]:
    ops = []
    for label, hp, sa2, srec2 in MI_POINTS + [RESCALED_POINT]:
        seed = _seed(rng)
        rescaled = label == RESCALED_POINT[0]
        ops.append(_op(
            "capacity",
            ["capacity", "--hp", _f(hp), "--sa2", _f(sa2), "--srec2", _f(srec2),
             "--lower", "--upper", "--samples", str(MI_SAMPLES), "--seed", str(seed),
             "--out", "{out}/capacity.json"],
            label=label, hp=hp, sa2=sa2, srec2=srec2, mc_seed=seed,
            ref=RESCALED_REFERENCE if rescaled else (hp, sa2, srec2),
            known_exit=RESCALED_KNOWN_EXIT if rescaled else None))
    return ops


def _adc_pass(rng) -> list[dict]:
    link = {k: ADC_LINK[k] for k in ("h", "p", "zeta", "sa2")}
    return [_op("int-adc",
                ["region", "--scheme", "int-adc", *_link_flags(link),
                 "--sadc2", _f(ADC_LINK["sadc2"]), "--srec2", _f(srec2),
                 "--points", str(ADC_POINTS), "--samples", str(MI_SAMPLES),
                 "--seed", str(_seed(rng)), "--out", "{out}/region.csv"],
                label=f"int-adc_srec2={srec2:g}", srec2=srec2)
            for srec2 in ADC_SREC2]


def sweep_link(distance: float) -> dict:
    """Closed-form link_budget_to_params for the fig11/fig12 setup."""
    sigma_rec = 10.0 ** ((SWEEP["rec_noise_dbm"] - 30.0) / 10.0)
    return dict(h=10.0 ** ((-30.0 - 30.0 * math.log10(distance)) / 10.0), p=1.0,
                zeta=SWEEP["zeta"],
                sa2=10.0 ** ((SWEEP["antenna_noise_dbm"] - 30.0) / 10.0),
                scov2=10.0 ** ((SWEEP["conv_noise_dbm"] - 30.0) / 10.0),
                srec2=sigma_rec * sigma_rec)


def _design_pass(rng) -> list[dict]:
    def sample_idx():
        return sorted(int(i) for i in rng.choice(BOUNDARY_POINTS, ORACLE_SAMPLES, replace=False))

    ops = []
    for fid in DESIGN_FIGURES:
        check = {"fig5": "fig5", "fig9": "fig9"}.get(fid, "distance-sweep")
        ops.append(_op(check, ["figure", fid, "--points", str(BOUNDARY_POINTS),
                               "--out-dir", "{out}"],
                       label=f"figure_{fid}", figure=fid, sample_idx=sample_idx()))
    # a random separated-receiver link with moderate scales (as the tests draw)
    link = dict(h=rng.uniform(0.3, 2.0), p=rng.uniform(20.0, 300.0), zeta=rng.uniform(0.3, 1.0),
                sa2=rng.uniform(0.05, 3.0), scov2=rng.uniform(1.0, 20.0))
    q_max = link["zeta"] * link["h"] * link["p"]
    ps = rng.uniform(0.05, 0.8) * q_max
    for scheme in DESIGN_SCHEMES:
        circuit = scheme not in ("ts", "sps")
        ops.append(_op("region",
                       ["region", "--scheme", scheme, *_link_flags(link),
                        *(["--ps", _f(ps)] if circuit else []),
                        "--points", str(BOUNDARY_POINTS), "--out", "{out}/region.csv"],
                       label=f"region_{scheme}", scheme=scheme, link=link,
                       ps=ps if circuit else 0.0, points=BOUNDARY_POINTS,
                       sample_idx=sample_idx()))
    for _ in range(P0_TARGETS):
        q = rng.uniform(0.0, 0.95) * q_max
        ops.append(_op("p0", ["solve", "--problem", "p0", *_link_flags(link), "--ps", _f(ps),
                              "--q", _f(q), "--out", "{out}/solve.json"],
                       label="solve_p0", link=link, ps=ps, q=q))
    # a practical link at a random distance in [1, 10^1.5] m
    distance = 10.0 ** rng.uniform(0.0, 1.5)
    plink = sweep_link(distance)
    ops.append(_op("link", ["link", "--distance", _f(distance), "--zeta", _f(SWEEP["zeta"]),
                            "--out", "{out}/link.json"],
                   label="link", link=plink))
    q_req = rng.uniform(0.0, 0.5) * plink["zeta"] * plink["h"] * plink["p"]
    common = dict(link=plink, qreq=q_req, ser_target=SWEEP["ser_target"])
    ops.append(_op("p1", ["solve", "--problem", "p1", *_link_flags(plink),
                          "--ps", _f(SWEEP["ps"]), "--qreq", _f(q_req),
                          "--ser-target", _f(SWEEP["ser_target"]), "--out", "{out}/solve.json"],
                   label="solve_p1", ps=SWEEP["ps"], **common))
    ops.append(_op("p2", ["solve", "--problem", "p2", *_link_flags(plink),
                          "--pi", _f(SWEEP["pi"]), "--qreq", _f(q_req),
                          "--ser-target", _f(SWEEP["ser_target"]), "--out", "{out}/solve.json"],
                   label="solve_p2", pi=SWEEP["pi"], **common))
    return ops


def _oracles_pass(rng) -> list[dict]:
    ops = []
    out = ["--out", "{out}/simulate.json"]
    # plain QAM at an SER in [1e-3, 1e-2], where the square-QAM formula's
    # dropped P^2 term stays below 0.2 standard errors
    m = int(rng.choice([4, 16]))
    rho, sa2 = rng.uniform(0.0, 0.5), rng.uniform(0.2, 0.8)
    snr = (m - 1) / 3.0 * _q_inv(10.0 ** rng.uniform(-3, -2) * math.sqrt(m)
                                 / (4.0 * (math.sqrt(m) - 1.0))) ** 2
    link = dict(h=1.0, zeta=rng.uniform(0.3, 1.0), sa2=sa2, scov2=1.0 - sa2)
    link["p"] = snr * ((1.0 - rho) * sa2 + link["scov2"]) / (1.0 - rho)
    ops.append(_op("qam", ["simulate", "--kind", "qam", "--m", str(m), "--rho", _f(rho),
                           *_link_flags(link), "--symbols", str(QAM_SYMBOLS),
                           "--seed", str(_seed(rng)), *out],
                   label=f"qam_m{m}", m=m, rho=rho, link=link, symbols=QAM_SYMBOLS))
    # importance-sampled 4-QAM at an SER in [1e-8, 1e-6], with the noise
    # inflated until the simulated SER is about 2e-2
    snr = _q_inv(10.0 ** rng.uniform(-8, -6) / 2.0) ** 2   # 4-QAM: SER = 2 Q(sqrt(snr))
    scale = math.sqrt(snr) / _q_inv(1e-2)
    link = dict(h=1.0, p=snr, zeta=1.0, sa2=0.5, scov2=0.5)
    ops.append(_op("qam", ["simulate", "--kind", "qam", "--m", "4", "--rho", "0.0",
                           *_link_flags(link), "--noise-scale", _f(scale),
                           "--symbols", str(QAM_IS_SYMBOLS), "--seed", str(_seed(rng)), *out],
                   label="qam_is", m=4, rho=0.0, link=link, symbols=QAM_IS_SYMBOLS,
                   noise_scale=scale))
    # PEM on the rectified channel without antenna noise (exact SER formula)
    m = int(rng.choice([4, 8, 16]))
    srec2 = 10.0 ** rng.uniform(-1, 1)
    snr = (m - 1) * _q_inv(10.0 ** rng.uniform(-3, -2) * m / (2.0 * (m - 1)))
    link = dict(h=1.0, p=snr * math.sqrt(srec2), zeta=1.0, sa2=0.0, srec2=srec2)
    ops.append(_op("pem", ["simulate", "--kind", "pem", "--m", str(m), *_link_flags(link),
                           "--symbols", str(PEM_SYMBOLS), "--seed", str(_seed(rng)), *out],
                   label=f"pem_m{m}", m=m, link=link, symbols=PEM_SYMBOLS))
    # waveform rectifier, Gaussian and constant envelope
    link = dict(h=1.0, p=rng.uniform(10.0, 200.0), zeta=rng.uniform(0.3, 1.0), sa2=0.0)
    wave = ["--carrier", "8", "--bandwidth", "1", "--oversampling", "8"]
    for const, n in ((False, RECTIFIER_SYMBOLS), (True, 256)):
        ops.append(_op("rectifier",
                       ["simulate", "--kind", "rectifier", *_link_flags(link), *wave,
                        *(["--constant-envelope"] if const else []),
                        "--symbols", str(n), "--seed", str(_seed(rng)), *out],
                       label="rectifier_const" if const else "rectifier", link=link,
                       symbols=n, constant_envelope=const))
    return ops


_PASSES = {"mi_points": _mi_pass, "adc_sweep": _adc_pass,
           "design": _design_pass, "oracles": _oracles_pass}


def make_pass(workload: str, rng) -> list[dict]:
    """One pass of the workload's fixed op list, with parameters and Monte
    Carlo seeds drawn from rng."""
    return _PASSES[workload](rng)
