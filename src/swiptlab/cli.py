"""Command-line front end: computes regions, bounds, solver outputs and
Monte Carlo runs, emitting CSV/JSON artifacts for downstream tools.

Exit codes: 0 success, 2 invalid parameters, 3 infeasible problem,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile

from . import __version__
from .capacity import (
    MonteCarloConfig,
    c1_upper_optimized,
    c2_upper,
    cnl_lower_chi2,
    cnl_upper,
    effective_proc_noise,
)
from .core import LinkParams, REBoundary, REPoint, upper_bound_region
from .errors import (
    AliasedCarrier,
    DegenerateCircuitPower,
    InfeasibleTarget,
    InvalidParams,
    NonPositivePower,
    QuadratureFailure,
    SplitAtUnity,
    SwiptError,
    ZeroNoise,
)
from .figures import build_figure
from .modulation import LinkBudget, link_budget_to_params, solve_p1, solve_p2
from .regions import (
    region_int_adc,
    region_int_circuit,
    region_int_ideal,
    region_sep_circuit,
    region_sps,
    region_sps_circuit,
    region_ts,
    region_ts_circuit,
    solve_p0,
)
from .simkit import DiodeModel, SimConfig, simulate_pem_integrated, \
    simulate_qam_separated, simulate_rectifier_waveform

CSV_HEADER = ("scheme", "receiver", "rate_bits", "energy_units")

_INVALID = (InvalidParams, ZeroNoise, NonPositivePower, SplitAtUnity, ValueError)
_INFEASIBLE = (InfeasibleTarget, DegenerateCircuitPower)
_NUMERICAL = (QuadratureFailure, AliasedCarrier, FloatingPointError)


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".swiptlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_boundary_csv(path: str) -> REBoundary:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != ",".join(CSV_HEADER):
        raise InvalidParams(f"unexpected CSV header in {path}: {lines[0]}")
    pts, scheme, receiver = [], None, None
    for ln in lines[1:]:
        scheme, receiver, rate, energy = ln.split(",")
        pts.append(REPoint(float(rate), float(energy)))
    return REBoundary(points=tuple(pts), scheme=scheme, receiver=receiver)


def provenance(seed=None) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        stamp = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        stamp = datetime.datetime.now(datetime.timezone.utc)
    return {"seed": seed, "version": __version__,
            "timestamp": stamp.isoformat(timespec="seconds")}


def write_json(path: str, inputs: dict, outputs: dict, seed=None):
    doc = {"inputs": inputs, "outputs": outputs, "provenance": provenance(seed)}
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _link_params(ns) -> LinkParams:
    return LinkParams(h=ns.h, p=ns.p, zeta=ns.zeta, sigma2_a=ns.sa2,
                      sigma2_cov=ns.scov2, sigma2_rec=ns.srec2,
                      sigma2_adc=ns.sadc2, theta=ns.theta)


def _add_link_flags(sub):
    sub.add_argument("--h", type=float, help="channel power gain")
    sub.add_argument("--p", type=float, help="average transmit power [W]")
    sub.add_argument("--zeta", type=float, help="energy conversion efficiency")
    sub.add_argument("--sa2", type=float, help="antenna noise power [W]")
    sub.add_argument("--scov2", type=float, help="conversion noise power [W]")
    sub.add_argument("--srec2", type=float, help="rectifier noise variance [W^2]")
    sub.add_argument("--sadc2", type=float, help="ADC noise power [W]")
    sub.add_argument("--theta", type=float, help="channel phase [rad]")


_LINK_DEFAULTS = dict(h=1.0, p=100.0, zeta=1.0, sa2=0.0, scov2=0.0,
                      srec2=0.0, sadc2=0.0, theta=0.0)


def _mc_config(ns) -> MonteCarloConfig:
    return MonteCarloConfig(n_samples=ns.samples, seed=ns.seed, quad_tol=ns.quad_tol)


def _resolve_cap(ns, lp: LinkParams) -> float:
    if ns.cap is not None:
        return ns.cap
    est = cnl_lower_chi2(lp.received_power, lp.sigma2_a, lp.sigma2_rec, _mc_config(ns))
    return est.value


def cmd_region(ns) -> int:
    lp = _link_params(ns)
    scheme = ns.scheme
    if scheme == "ub":
        bnd = upper_bound_region(lp, ns.points)
    elif scheme == "ts":
        bnd = region_ts(lp, ns.points)
    elif scheme == "sps":
        bnd = region_sps(lp, ns.points)
    elif scheme == "ops-circuit":
        bnd = region_sep_circuit(lp, ns.ps, ns.points)
    elif scheme == "ts-circuit":
        bnd = region_ts_circuit(lp, ns.ps, ns.points)
    elif scheme == "sps-circuit":
        bnd = region_sps_circuit(lp, ns.ps, ns.points)
    elif scheme == "int-ideal":
        bnd = region_int_ideal(lp, _resolve_cap(ns, lp), ns.points)
    elif scheme == "int-circuit":
        bnd = region_int_circuit(lp, ns.pi, _resolve_cap(ns, lp), ns.points)
    elif scheme == "int-adc":
        mc = _mc_config(ns)

        def cap_fn(rho):
            eff = effective_proc_noise(lp.sigma2_rec, lp.sigma2_adc, rho)
            return cnl_lower_chi2(lp.received_power, lp.sigma2_a, eff, mc).value

        bnd = region_int_adc(lp, ns.points, cap_fn)
    else:
        raise InvalidParams(f"unknown scheme {scheme!r}")

    out = ns.out or f"region_{scheme}.{ns.format}"
    if ns.format == "csv":
        write_csv(out, CSV_HEADER, bnd.to_csv_rows())
    else:
        inputs = {"scheme": scheme, "ps": ns.ps, "pi": ns.pi, "cap": ns.cap,
                  "points": ns.points, **lp.to_json_dict()}
        write_json(out, inputs=inputs, outputs=bnd.to_json_dict(), seed=ns.seed)
    print(out)
    return 0


def cmd_capacity(ns) -> int:
    outputs = {}
    if not ns.lower and not ns.upper:
        ns.upper = True
    if ns.upper:
        sigma_rec = math.sqrt(ns.srec2)
        c1, params = c1_upper_optimized(ns.hp, sigma_rec)
        outputs["upper"] = {
            "cnl_upper_bits": cnl_upper(ns.hp, ns.sa2, sigma_rec),
            "c1_upper_bits": c1,
            "c1_beta": params.beta,
            "c1_delta": params.delta,
            "c2_upper_bits": c2_upper(ns.hp, ns.sa2),
        }
    if ns.lower:
        est = cnl_lower_chi2(ns.hp, ns.sa2, ns.srec2, _mc_config(ns))
        outputs["lower"] = est.to_json_dict()
    inputs = {"hp": ns.hp, "sa2": ns.sa2, "srec2": ns.srec2,
              "samples": ns.samples, "quad_tol": ns.quad_tol}
    write_json(ns.out, inputs=inputs, outputs=outputs, seed=ns.seed)
    print(ns.out)
    return 0


def cmd_solve(ns) -> int:
    lp = _link_params(ns)
    if ns.problem == "p0":
        sol = solve_p0(lp, ns.ps, ns.q)
        outputs = {"alpha_star": sol.alpha_star, "rho_star": sol.rho_star,
                   "rate_bits": sol.rate, "q_target": sol.q_target,
                   "converged": sol.converged}
        inputs = {"problem": "p0", "ps": ns.ps, "q": ns.q, **lp.to_json_dict()}
    elif ns.problem == "p1":
        plan = solve_p1(lp, ns.ps, ns.qreq, ns.ser_target)
        outputs = {"family": plan.family, "m": plan.m, "alpha": plan.alpha,
                   "rho": plan.rho, "rate_bits": plan.rate}
        inputs = {"problem": "p1", "ps": ns.ps, "qreq": ns.qreq,
                  "ser_target": ns.ser_target, **lp.to_json_dict()}
    else:
        plan = solve_p2(lp, ns.pi, ns.qreq, ns.ser_target)
        outputs = {"family": plan.family, "m": plan.m, "alpha": plan.alpha,
                   "rho": plan.rho, "rate_bits": plan.rate}
        inputs = {"problem": "p2", "pi": ns.pi, "qreq": ns.qreq,
                  "ser_target": ns.ser_target, **lp.to_json_dict()}
    write_json(ns.out, inputs=inputs, outputs=outputs)
    print(ns.out)
    return 0


def cmd_link(ns) -> int:
    lb = LinkBudget(distance_m=ns.distance, tx_power_w=ns.tx_power,
                    carrier_hz=ns.carrier, bandwidth_hz=ns.bandwidth,
                    antenna_noise_dbm=ns.antenna_noise_dbm,
                    conv_noise_dbm=ns.conv_noise_dbm,
                    rec_noise_dbm=ns.rec_noise_dbm)
    lp = link_budget_to_params(lb, zeta=ns.zeta)
    inputs = {k: getattr(ns, k) for k in ("distance", "tx_power", "carrier",
                                          "bandwidth", "antenna_noise_dbm",
                                          "conv_noise_dbm", "rec_noise_dbm", "zeta")}
    write_json(ns.out, inputs=inputs, outputs=lp.to_json_dict())
    print(ns.out)
    return 0


def cmd_simulate(ns) -> int:
    lp = _link_params(ns)
    cfg = SimConfig(n_symbols=ns.symbols, seed=ns.seed, oversampling=ns.oversampling,
                    carrier_hz=ns.carrier, bandwidth_hz=ns.bandwidth)
    if ns.kind == "qam":
        res = simulate_qam_separated(lp, ns.rho, ns.m, cfg, noise_scale=ns.noise_scale)
    elif ns.kind == "pem":
        res = simulate_pem_integrated(lp, ns.m, cfg)
    else:
        diode = DiodeModel(gamma=ns.diode_gamma, truncation_order=ns.truncation_order)
        res = simulate_rectifier_waveform(lp, diode, cfg,
                                          constant_envelope=ns.constant_envelope)
    inputs = {"kind": ns.kind, "m": ns.m, "rho": ns.rho, "symbols": ns.symbols,
              **lp.to_json_dict()}
    write_json(ns.out, inputs=inputs, outputs=res.to_json_dict(), seed=ns.seed)
    print(ns.out)
    return 0


def cmd_figure(ns) -> int:
    artifacts = build_figure(ns.figure_id, n_points=ns.points, samples=ns.samples)
    os.makedirs(ns.out_dir, exist_ok=True)
    written = []
    for filename, payload in artifacts:
        path = os.path.join(ns.out_dir, filename)
        if isinstance(payload, REBoundary):
            write_csv(path, CSV_HEADER, payload.to_csv_rows())
        else:
            header, rows = payload
            write_csv(path, header, rows)
        written.append(path)
    print("\n".join(written))
    return 0


_COMMAND_DEFAULTS = {
    "region": dict(points=512, samples=100_000, seed=0, quad_tol=1e-10,
                   cap=None, ps=0.0, pi=0.0, out=None, format="csv",
                   **_LINK_DEFAULTS),
    "capacity": dict(hp=100.0, sa2=0.0, srec2=0.0, lower=False, upper=False,
                     samples=100_000, seed=0, quad_tol=1e-10, out="capacity.json"),
    "solve": dict(problem="p0", q=0.0, qreq=0.0, ps=0.0, pi=0.0, ser_target=1e-5,
                  out="solve.json", **_LINK_DEFAULTS),
    "link": dict(distance=1.0, tx_power=1.0, carrier=900e6, bandwidth=10e6,
                 antenna_noise_dbm=-104.0, conv_noise_dbm=-70.0,
                 rec_noise_dbm=-50.0, zeta=1.0, out="link.json"),
    "simulate": dict(kind="qam", m=4, rho=0.0, symbols=100_000, seed=0,
                     oversampling=8, carrier=16.0, bandwidth=1.0, noise_scale=1.0,
                     diode_gamma=40.0, truncation_order=2, constant_envelope=False,
                     out="simulate.json", **_LINK_DEFAULTS),
    "figure": dict(points=512, samples=100_000, out_dir="."),
}

_HANDLERS = {
    "region": cmd_region,
    "capacity": cmd_capacity,
    "solve": cmd_solve,
    "link": cmd_link,
    "simulate": cmd_simulate,
    "figure": cmd_figure,
}


def build_parser() -> argparse.ArgumentParser:
    # every option defaults to SUPPRESS so a config file can fill the gaps;
    # explicitly passed flags always win
    parser = argparse.ArgumentParser(
        prog="swiptlab",
        description="Rate-energy tradeoff computations for SWIPT receivers.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    region = subs.add_parser("region", argument_default=argparse.SUPPRESS,
                             help="emit a rate-energy boundary as CSV/JSON")
    region.add_argument("--scheme", required=True,
                        choices=["ub", "ts", "sps", "ops-circuit", "ts-circuit",
                                 "sps-circuit", "int-ideal", "int-adc",
                                 "int-circuit"])
    _add_link_flags(region)
    region.add_argument("--ps", type=float, help="separated decoder power [W]")
    region.add_argument("--pi", type=float, help="integrated decoder power [W]")
    region.add_argument("--cap", type=float,
                        help="integrated-receiver rate [bits]; estimated if omitted")
    region.add_argument("--points", type=int)
    region.add_argument("--samples", type=int)
    region.add_argument("--seed", type=int)
    region.add_argument("--quad-tol", dest="quad_tol", type=float)
    region.add_argument("--out")
    region.add_argument("--format", choices=["csv", "json"])

    capacity = subs.add_parser("capacity", argument_default=argparse.SUPPRESS,
                               help="nonlinear-channel capacity bounds")
    capacity.add_argument("--hp", type=float, help="received power h*P [W]")
    capacity.add_argument("--sa2", type=float)
    capacity.add_argument("--srec2", type=float)
    capacity.add_argument("--lower", action="store_true")
    capacity.add_argument("--upper", action="store_true")
    capacity.add_argument("--samples", type=int)
    capacity.add_argument("--seed", type=int)
    capacity.add_argument("--quad-tol", dest="quad_tol", type=float)
    capacity.add_argument("--out")

    solve = subs.add_parser("solve", argument_default=argparse.SUPPRESS,
                            help="run one of the boundary/rate maximizers")
    solve.add_argument("--problem", required=True, choices=["p0", "p1", "p2"])
    _add_link_flags(solve)
    solve.add_argument("--q", type=float, help="energy target for p0")
    solve.add_argument("--qreq", type=float, help="required net energy for p1/p2")
    solve.add_argument("--ps", type=float)
    solve.add_argument("--pi", type=float)
    solve.add_argument("--ser-target", dest="ser_target", type=float)
    solve.add_argument("--out")

    link = subs.add_parser("link", argument_default=argparse.SUPPRESS,
                           help="convert a link budget to channel parameters")
    link.add_argument("--distance", type=float)
    link.add_argument("--tx-power", dest="tx_power", type=float)
    link.add_argument("--carrier", type=float)
    link.add_argument("--bandwidth", type=float)
    link.add_argument("--antenna-noise-dbm", dest="antenna_noise_dbm", type=float)
    link.add_argument("--conv-noise-dbm", dest="conv_noise_dbm", type=float)
    link.add_argument("--rec-noise-dbm", dest="rec_noise_dbm", type=float)
    link.add_argument("--zeta", type=float)
    link.add_argument("--out")

    simulate = subs.add_parser("simulate", argument_default=argparse.SUPPRESS,
                               help="Monte Carlo symbol/waveform oracles")
    simulate.add_argument("--kind", required=True, choices=["qam", "pem", "rectifier"])
    _add_link_flags(simulate)
    simulate.add_argument("--m", type=int)
    simulate.add_argument("--rho", type=float)
    simulate.add_argument("--symbols", type=int)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--oversampling", type=int)
    simulate.add_argument("--carrier", type=float)
    simulate.add_argument("--bandwidth", type=float)
    simulate.add_argument("--noise-scale", dest="noise_scale", type=float)
    simulate.add_argument("--diode-gamma", dest="diode_gamma", type=float)
    simulate.add_argument("--truncation-order", dest="truncation_order", type=int)
    simulate.add_argument("--constant-envelope", dest="constant_envelope",
                          action="store_true")
    simulate.add_argument("--out")

    figure = subs.add_parser("figure", argument_default=argparse.SUPPRESS,
                             help="emit a canned benchmark scenario as CSV files")
    figure.add_argument("figure_id")
    figure.add_argument("--points", type=int)
    figure.add_argument("--samples", type=int)
    figure.add_argument("--out-dir", dest="out_dir")

    for sub in (region, capacity, solve, link, simulate, figure):
        sub.add_argument("--config", help="JSON file of option values; flags win")
    return parser


def _merge_options(ns: argparse.Namespace) -> argparse.Namespace:
    merged = dict(_COMMAND_DEFAULTS[ns.command])
    config_path = getattr(ns, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(merged)
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    explicit = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    merged.update(explicit)
    merged["command"] = ns.command
    return argparse.Namespace(**merged)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns = _merge_options(ns)
        return _HANDLERS[ns.command](ns)
    except _INFEASIBLE as exc:
        _emit_error(exc, 3)
        return 3
    except _NUMERICAL as exc:
        _emit_error(exc, 4)
        return 4
    except (_INVALID + (SwiptError, OSError, json.JSONDecodeError)) as exc:
        _emit_error(exc, 2)
        return 2


def _emit_error(exc: Exception, code: int):
    doc = {"error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code}}
    print(json.dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
