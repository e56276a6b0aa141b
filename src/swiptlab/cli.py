"""Command-line front end: computes regions, bounds, solver outputs and
Monte Carlo runs, emitting CSV/JSON artifacts for downstream tools.

Exit codes: 0 success, 2 invalid parameters (out of memory included), 3
infeasible problem, 4 numerical failure; errors.py gives each error class its
code.

Start-up loads core and errors alone.  Each command imports the library
modules it runs when it runs, and reads every library function from its
module at call time, never from a copy held in a global here.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

from . import __version__
from .core import LinkParams, REBoundary, upper_bound_region
from .errors import InvalidParams, SwiptError

CSV_HEADER = ("scheme", "receiver", "rate_bits", "energy_units")


def __getattr__(name):
    # perfbench/selftest.py reads cli.build_figure to see the tracer's
    # rebinding: it is figures.build_figure, looked up (and figures loaded)
    # when asked for
    if name == "build_figure":
        from .figures import build_figure
        return build_figure
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _atomic_write(path: str, text: str):
    # a fresh name created with mode 0o666, so that the umask sets the
    # artifact's mode as open(path, "w") would (mkstemp's files are 0600)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".swiptlab-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@functools.cache
def _row_template(cell_types: tuple) -> str:
    """The %-format of a CSV row: 17 significant digits for a float cell (a
    float subclass such as numpy.float64 too), str() for any other."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in cell_types) + "\n"


def write_csv(path: str, header, rows):
    """Write header and rows as CSV, formatting the whole table with one %."""
    rows = list(rows)
    # each row's cell types, gathered column by column
    signatures = zip(*[map(type, column) for column in zip(*rows)])
    body = "".join(map(_row_template, signatures))
    cells = tuple([cell for row in rows for cell in row])
    _atomic_write(path, ",".join(header) + "\n" + body % cells)


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
                      sigma2_adc=ns.sadc2)


def _resolve_cap(regions, ns, lp: LinkParams) -> float:
    if ns.cap is not None:
        return ns.cap
    return regions.int_rate(lp, lp.sigma2_rec).value


# scheme name -> boundary builder on (the regions module, options, link); the
# keys are the --scheme choices
REGION_SCHEMES = {
    "ub": lambda regions, ns, lp: upper_bound_region(lp, ns.points),
    "ts": lambda regions, ns, lp: regions.region_ts(lp, ns.points),
    "sps": lambda regions, ns, lp: regions.region_sps(lp, ns.points),
    "ops-circuit": lambda regions, ns, lp: regions.region_sep_circuit(lp, ns.ps, ns.points),
    "ts-circuit": lambda regions, ns, lp: regions.region_ts_circuit(lp, ns.ps, ns.points),
    "sps-circuit": lambda regions, ns, lp: regions.region_sps_circuit(lp, ns.ps, ns.points),
    "int-ideal": lambda regions, ns, lp: regions.region_int_ideal(
        lp, _resolve_cap(regions, ns, lp), ns.points),
    "int-adc": lambda regions, ns, lp: regions.region_int_adc(lp, ns.points),
    "int-circuit": lambda regions, ns, lp: regions.region_int_circuit(
        lp, ns.pi, _resolve_cap(regions, ns, lp), ns.points),
}


def cmd_region(ns) -> int:
    from . import regions
    lp = _link_params(ns)
    bnd = REGION_SCHEMES[ns.scheme](regions, ns, lp)
    out = ns.out or f"region_{ns.scheme}.{ns.format}"
    if ns.format == "csv":
        write_csv(out, CSV_HEADER, bnd.to_csv_rows())
    else:
        inputs = {"scheme": ns.scheme, "ps": ns.ps, "pi": ns.pi, "cap": ns.cap,
                  "points": ns.points, **lp.to_json_dict()}
        # no scheme reads --seed, so the provenance names none
        write_json(out, inputs=inputs, outputs=bnd.to_json_dict())
    print(out)
    return 0


def cmd_capacity(ns) -> int:
    from .capacity import cnl_lower_chi2, cnl_upper
    outputs = {}
    if not ns.lower and not ns.upper:
        ns.upper = True
    if ns.upper:
        outputs["upper"] = cnl_upper(ns.hp, ns.sa2, ns.srec2)
    if ns.lower:
        est = cnl_lower_chi2(ns.hp, ns.sa2, ns.srec2, n_samples=ns.samples, seed=ns.seed)
        outputs["lower"] = est.to_json_dict()
    # only the sampled lower bound reads the sample count and the seed
    inputs = {"hp": ns.hp, "sa2": ns.sa2, "srec2": ns.srec2,
              "samples": ns.samples if ns.lower else None}
    write_json(ns.out, inputs=inputs, outputs=outputs, seed=ns.seed if ns.lower else None)
    print(ns.out)
    return 0


def cmd_solve(ns) -> int:
    lp = _link_params(ns)
    if ns.problem == "p0":
        from .regions import solve_p0
        sol = solve_p0(lp, ns.ps, ns.q)
        outputs = {"alpha_star": sol.alpha_star, "rho_star": sol.rho_star,
                   "rate_bits": sol.rate, "q_target": sol.q_target}
        inputs = {"ps": ns.ps, "q": ns.q}
    else:
        from .modulation import solve_p1, solve_p2
        solver, power = (solve_p1, "ps") if ns.problem == "p1" else (solve_p2, "pi")
        (plan,) = solver([lp], getattr(ns, power), ns.qreq, ns.ser_target)
        outputs = {"family": plan.family, "m": plan.m, "alpha": plan.alpha,
                   "rho": plan.rho, "rate_bits": plan.rate}
        inputs = {power: getattr(ns, power), "qreq": ns.qreq,
                  "ser_target": ns.ser_target}
    inputs = {"problem": ns.problem, **inputs, **lp.to_json_dict()}
    write_json(ns.out, inputs=inputs, outputs=outputs)
    print(ns.out)
    return 0


def cmd_link(ns) -> int:
    from .modulation import link_budget_to_params
    lp = link_budget_to_params(ns.distance, ns.tx_power, ns.antenna_noise_dbm,
                               ns.conv_noise_dbm, ns.rec_noise_dbm, zeta=ns.zeta)
    inputs = {k: getattr(ns, k) for k in ("distance", "tx_power", "antenna_noise_dbm",
                                          "conv_noise_dbm", "rec_noise_dbm", "zeta")}
    write_json(ns.out, inputs=inputs, outputs=lp.to_json_dict())
    print(ns.out)
    return 0


def cmd_simulate(ns) -> int:
    from .simkit import (DiodeModel, SimConfig, simulate_pem_integrated,
                         simulate_qam_separated, simulate_rectifier_waveform)
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
              "noise_scale": ns.noise_scale, **lp.to_json_dict()}
    write_json(ns.out, inputs=inputs, outputs=res.to_json_dict(), seed=ns.seed)
    print(ns.out)
    return 0


def cmd_figure(ns) -> int:
    from .figures import build_figure
    artifacts = build_figure(ns.figure_id, n_points=ns.points)
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


# Option table: one row per option, (dest, type or a tuple of choices,
# default, help).  The flag is "--" + dest with "_" written "-", a bool row
# is a switch, and a --config file takes the dests as keys.  The required
# selector of a command (--scheme, --problem, --kind, the figure id) is not
# an option: it has no default and no config key.
_LINK_OPTIONS = (
    ("h", float, 1.0, "channel power gain"),
    ("p", float, 100.0, "average transmit power [W]"),
    ("zeta", float, 1.0, "energy conversion efficiency"),
    ("sa2", float, 0.0, "antenna noise power [W]"),
    ("scov2", float, 0.0, "conversion noise power [W]"),
    ("srec2", float, 0.0, "rectifier noise variance [W^2]"),
    ("sadc2", float, 0.0, "ADC noise power [W]"),
)

# command -> (handler, help, required selector as (name, choices), options)
COMMANDS = {
    "region": (cmd_region, "emit a rate-energy boundary as CSV/JSON",
               ("--scheme", tuple(REGION_SCHEMES)), (
        *_LINK_OPTIONS,
        ("ps", float, 0.0, "separated decoder power [W]"),
        ("pi", float, 0.0, "integrated decoder power [W]"),
        ("cap", float, None, "integrated-receiver rate [bits]; computed if omitted"),
        ("points", int, 512, "boundary points"),
        ("samples", int, 100_000, "accepted and not read: the int-* rate is deterministic"),
        ("seed", int, 0, "accepted and not read: the int-* rate is deterministic"),
        ("out", str, None, "output file [region_<scheme>.<format>]"),
        ("format", ("csv", "json"), "csv", "output format"),
    )),
    "capacity": (cmd_capacity, "nonlinear-channel capacity bounds", None, (
        ("hp", float, 100.0, "received power h*P [W]"),
        ("sa2", float, 0.0, "antenna noise power [W]"),
        ("srec2", float, 0.0, "rectifier noise variance [W^2]"),
        ("lower", bool, False, "estimate the chi-square-input lower bound"),
        ("upper", bool, False, "evaluate the upper bounds (the default)"),
        ("samples", int, 100_000, "Monte Carlo samples per MI estimate"),
        ("seed", int, 0, "Monte Carlo seed"),
        ("out", str, "capacity.json", "output file"),
    )),
    "solve": (cmd_solve, "run one of the boundary/rate maximizers",
              ("--problem", ("p0", "p1", "p2")), (
        *_LINK_OPTIONS,
        ("q", float, 0.0, "energy target for p0"),
        ("qreq", float, 0.0, "required net energy for p1/p2"),
        ("ps", float, 0.0, "separated decoder power [W]"),
        ("pi", float, 0.0, "integrated decoder power [W]"),
        ("ser_target", float, 1e-5, "symbol error rate target for p1/p2"),
        ("out", str, "solve.json", "output file"),
    )),
    "link": (cmd_link, "convert a link budget to channel parameters", None, (
        ("distance", float, 1.0, "link distance [m]"),
        ("tx_power", float, 1.0, "transmit power [W]"),
        ("antenna_noise_dbm", float, -104.0, "antenna noise [dBm]"),
        ("conv_noise_dbm", float, -70.0, "conversion noise [dBm]"),
        ("rec_noise_dbm", float, -50.0, "rectifier noise std [dBm]"),
        ("zeta", float, 1.0, "energy conversion efficiency"),
        ("out", str, "link.json", "output file"),
    )),
    "simulate": (cmd_simulate, "Monte Carlo symbol/waveform oracles",
                 ("--kind", ("qam", "pem", "rectifier")), (
        *_LINK_OPTIONS,
        ("m", int, 4, "constellation size"),
        ("rho", float, 0.0, "power split ratio (qam)"),
        ("symbols", int, 100_000, "symbols to simulate"),
        ("seed", int, 0, "Monte Carlo seed"),
        ("oversampling", int, 8, "samples per carrier period (rectifier)"),
        ("carrier", float, 16.0, "carrier frequency (rectifier)"),
        ("bandwidth", float, 1.0, "signal bandwidth (rectifier)"),
        ("noise_scale", float, 1.0, "importance-sampling noise scale, >= 1 (qam)"),
        ("diode_gamma", float, 40.0, "diode exponent (rectifier)"),
        ("truncation_order", int, 2, "diode series order (rectifier)"),
        ("constant_envelope", bool, False, "constant-envelope input (rectifier)"),
        ("out", str, "simulate.json", "output file"),
    )),
    "figure": (cmd_figure, "emit a canned benchmark scenario as CSV files",
               ("figure_id", None), (
        ("points", int, 512, "boundary points"),
        ("out_dir", str, ".", "output directory"),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # every option defaults to SUPPRESS so a config file can fill the gaps;
    # explicitly passed flags always win.  Built once per process: parsing
    # leaves the parser as it was, and building it costs more than most calls.
    parser = argparse.ArgumentParser(
        prog="swiptlab",
        description="Rate-energy tradeoff computations for SWIPT receivers.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, selector, options) in COMMANDS.items():
        sub = subs.add_parser(command, argument_default=argparse.SUPPRESS,
                              help=help_text)
        if selector is not None:
            name, choices = selector
            if choices is None:
                sub.add_argument(name)
            else:
                sub.add_argument(name, required=True, choices=choices)
        for dest, kind, _, help_text in options:
            flag = "--" + dest.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                sub.add_argument(flag, choices=kind, help=help_text)
            else:
                sub.add_argument(flag, type=kind, help=help_text)
        sub.add_argument("--config", help="JSON file of option values; flags win")
    return parser


def _config_value_ok(kind, default, value) -> bool:
    if value is None:
        return default is None
    if kind is bool:
        return isinstance(value, bool)
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _merge_options(ns: argparse.Namespace) -> argparse.Namespace:
    _, _, _, options = COMMANDS[ns.command]
    merged = {dest: default for dest, _, default, _ in options}
    config_path = getattr(ns, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise InvalidParams(f"config {config_path} must hold a JSON object of "
                                f"option values, got {type(file_values).__name__}")
        unknown = set(file_values) - set(merged)
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
        for dest, kind, default, _ in options:
            value = file_values.get(dest, default)
            if not _config_value_ok(kind, default, value):
                expected = (f"one of {list(kind)}" if isinstance(kind, tuple)
                            else kind.__name__)
                raise InvalidParams(f"config key {dest!r} must be {expected}, "
                                    f"got {value!r}")
            if kind is float and isinstance(value, int):
                # as argparse reads the flag's digits: 10**400 is inf
                file_values[dest] = float(str(value))
        merged.update(file_values)
    explicit = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    merged.update(explicit)
    merged["command"] = ns.command
    return argparse.Namespace(**merged)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        ns = _merge_options(ns)
        return COMMANDS[ns.command][0](ns)
    except (SwiptError, FloatingPointError, ValueError, OSError, MemoryError) as exc:
        # each SwiptError class carries its code; a bad JSON config is a ValueError
        code = getattr(exc, "exit_code", 4 if isinstance(exc, FloatingPointError) else 2)
        doc = {"error": {"type": type(exc).__name__, "message": str(exc),
                         "exit_code": code}}
        print(json.dumps(doc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
