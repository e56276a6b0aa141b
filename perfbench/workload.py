"""One workload run in a fresh interpreter (started by run.py).

Usage: workload.py --setup-probe
       workload.py --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR

The first thing it does is time ``import swiptlab.cli`` plus building the
parser; with --setup-probe it prints that time and exits.  Otherwise it runs
whole passes of the workload's op list as sequential in-process
``swiptlab.cli.main`` calls, one caller and no extra threads, until the next
pass would end more than half a pass after --seconds (always at least one
pass).  Outputs are checked after the timed loop, and one JSON object is
printed.

Times are reported at the reference host speed.  The benchmark shares a
host whose speed swings by up to 2x for seconds to minutes, and the program
slows with it.  A fixed pure-Python loop (``core_loop``), timed before the
first op and after every op (outside the ops' spans), measures that speed.
Each op's time is multiplied by (CORE_REF_S / loop time) ** e, the loop time
being the mean of the probes just before and just after the op and e the
workload's ``workloads.HOST_EXPONENT``.  Each op slot of the pass then gets
the median of its scaled times over the run's passes: ``wall_s`` is the sum
of the slots' medians and ``op_p50_s`` their median.  A slot draws fresh
parameters and Monte Carlo seeds every pass, so a repeated call is never the
same call.  Raw medians are reported too.

With --trace 1 every op runs twice on the same inputs, once plain and once
with the tracer installed (alternating which goes first); the artifacts of
the two must be byte-identical and every wrapper must be gone afterwards.
"""

import time

_T0 = time.perf_counter()
import swiptlab.cli  # noqa: E402

swiptlab.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

# The host probe: a fixed arithmetic loop.  CORE_REF_S is its time on a
# 2-core Intel Xeon VM at 2.1 GHz when the host was quiet (5th percentile of
# 2224 timings in one long process).  The import behind setup_s is
# pure-Python work and slows under contention like the loop, so each set-up
# time is scaled by CORE_REF_S over the loop's median time right after it.
CORE_REF_S = 1.74e-3


def core_loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return time.perf_counter() - t0


def core_probe(reps: int = 3) -> float:
    """Median loop time: the host's speed right now."""
    return sorted(core_loop() for _ in range(reps))[reps // 2]


SETUP_SCALE = CORE_REF_S / core_probe(15)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class OpResult:
    rc: int
    seconds: float
    cpu_s: float
    stdout: str
    stderr: str
    out_dir: str


def execute(op: dict, out_dir: str) -> OpResult:
    """One CLI call; only the call itself is inside the timed span."""
    os.makedirs(out_dir)
    argv = [a.replace("{out}", out_dir) for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = swiptlab.cli.main(argv)
        except SystemExit as exc:   # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:           # an uncaught error is a failed op, not a crash
            rc = 1
            traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
    return OpResult(rc, t1 - t0, c1 - c0, out.getvalue(), err.getvalue(), out_dir)


def same_outcome(a: OpResult, b: OpResult) -> bool:
    """Exit code, stdout (with the output directory masked), stderr and the
    bytes of every artifact agree."""
    def files(d):
        found = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as fh:
                found[name] = fh.read()
        return found
    return (a.rc == b.rc and a.stderr == b.stderr
            and a.stdout.replace(a.out_dir, "{out}") == b.stdout.replace(b.out_dir, "{out}")
            and files(a.out_dir) == files(b.out_dir))


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    tracer = tracing.Tracer() if trace else None
    executed: list[tuple[dict, OpResult]] = []
    pass_walls, traced_walls = [], []
    probes = [core_probe()]   # probes[j] is taken just before op j, probes[j + 1] just after
    trace_problems = []
    start = time.perf_counter()
    while True:
        ops = workloads.make_pass(workload, rng)
        p = len(pass_walls)
        plain_s = traced_s = 0.0
        for i, op in enumerate(ops):
            base = os.path.join(run_dir, f"p{p}-op{i}")
            if not trace:
                res = execute(op, base)
            else:
                def traced():
                    tracer.install()
                    try:
                        return execute(op, base + "-traced")
                    finally:
                        tracer.restore()
                        left = tracing.leftover_wrappers()
                        if left:
                            trace_problems.append(f"wrappers left bound: {left}")
                if i % 2:
                    t_res = traced()
                    res = execute(op, base)
                else:
                    res = execute(op, base)
                    t_res = traced()
                traced_s += t_res.seconds
                if not same_outcome(res, t_res):
                    trace_problems.append(f"{op['meta']['label']}: traced run differs")
            probes.append(core_probe())
            plain_s += res.seconds
            executed.append((op, res))
        pass_walls.append(plain_s)
        traced_walls.append(traced_s)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(pass_walls) > seconds:   # the nearest whole pass
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = checks.References()
    failed, nonzero, problems = 0, 0, []
    for op, res in executed:
        found = checks.check_op(op, res, refs)
        nonzero += res.rc != 0
        if found:
            failed += 1
            problems += [f"{op['meta']['label']}: {p}" for p in found]
    passes = len(pass_walls)
    n = len(executed) // passes
    e = workloads.HOST_EXPONENT[workload]
    scaled = [res.seconds * (2.0 * CORE_REF_S / (probes[j] + probes[j + 1])) ** e
              for j, (_, res) in enumerate(executed)]
    # scaled[k] is slot k % n of pass k // n
    slots = [statistics.median(scaled[i::n]) for i in range(n)]
    report = {
        "setup_s": SETUP_S * SETUP_SCALE,
        "setup_raw_s": SETUP_S,
        "wall_s": sum(slots),
        "wall_raw_s": statistics.median(pass_walls),
        "op_p50_s": statistics.median(slots),
        "op_p50_raw_s": statistics.median(res.seconds for _, res in executed),
        "host_scale": CORE_REF_S / statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "pass_walls": pass_walls,
        "slot_s": [[op["meta"]["label"], v] for (op, _), v in zip(executed, slots)],
        "ops_per_pass": n,
        "attempted": len(executed),
        "failed": failed,
        "nonzero_exits": nonzero,
        "known_failures": sum(res.rc != 0 and res.rc == op["meta"].get("known_exit")
                              for op, res in executed),
        "problems": (problems + trace_problems)[:20],
        "trace_ok": not trace_problems,
        "cpu_s_per_pass": sum(res.cpu_s for _, res in executed) / passes,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "swiptlab": swiptlab.__version__},
    }
    if trace:
        report["layers"] = layer_metrics(tracer, passes, sum(traced_walls), sum(pass_walls))
        report["layers"]["proc.cpu_s"] = report["cpu_s_per_pass"]
    return report


def layer_metrics(tr: tracing.Tracer, passes: int, traced_s: float, plain_s: float) -> dict:
    """Per-pass layer numbers from the traced executions."""
    t, c, own = tr.totals, tr.counts, tr.self_time
    rate = lambda num, den: num / den if den > 0 else 0.0  # noqa: E731
    per_pass = {
        "capacity.cnl_lower_chi2.calls": c["capacity.cnl_lower_chi2.calls"],
        "capacity.cnl_lower_chi2.s": t["capacity.cnl_lower_chi2"],
        "capacity.mi_samples": c["capacity.mi_samples"],
        "capacity.upper_bound.s": t["capacity.upper_bound"],
        "capacity.errors": c["capacity.errors"],
        "regions.solve_p0.calls": c["regions.solve_p0.calls"],
        "regions.solve_p0.s": t["regions.solve_p0"],
        "regions.rate_deriv.calls": c["regions.rate_deriv.calls"],
        "regions.boundary.s": t["regions.boundary"],
        "regions.boundary_points": c["regions.boundary_points"],
        "modulation.solve_p1.calls": c["modulation.solve_p1.calls"],
        "modulation.solve_p1.s": t["modulation.solve_p1"],
        "modulation.solve_p2.s": t["modulation.solve_p2"],
        "modulation.max_modulation.calls": c["modulation.max_modulation.calls"],
        "modulation.ser_evals": c["modulation.ser_evals"],
        "core.split_snr.calls": c["core.split_snr.calls"],
        "core.q_function.calls": c["core.q_function.calls"],
        "simkit.qam.s": t["simkit.qam"],
        "simkit.pem.s": t["simkit.pem"],
        "simkit.rectifier.s": t["simkit.rectifier"],
        "simkit.rectifier.bytes_computed": c["simkit.rectifier.bytes_computed"],
        "cli.write_s": t["cli.write"],
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.wall_s": traced_s,
        **{f"{layer}.self_s": own[layer] for layer in tracing.SPAN_LAYERS},
    }
    out = {k: v / passes for k, v in per_pass.items()}
    simkit_s = t["simkit.qam"] + t["simkit.pem"] + t["simkit.rectifier"]
    out["capacity.mi_samples_per_s"] = rate(c["capacity.mi_samples"], t["capacity.cnl_lower_chi2"])
    out["simkit.symbols_per_s"] = rate(c["simkit.symbols"], simkit_s)
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return out


def main() -> int:
    if sys.argv[1:] == ["--setup-probe"]:
        print(json.dumps({"setup_s": SETUP_S * SETUP_SCALE,
                          "setup_raw_s": SETUP_S}))
        return 0
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    a = ap.parse_args()
    print(json.dumps(run(a.workload, a.seed, a.seconds, bool(a.trace), a.run_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
