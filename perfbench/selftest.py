"""Self-test of the benchmark's checks and tracer.

Run from the repository root (about 15 s):

    PYTHONPATH=src python3 perfbench/selftest.py

For every check kind it runs one real operation, confirms the check passes,
then corrupts the artifact and confirms the check rejects it.  It also runs
one traced operation and confirms the tracer rebinds the functions it
should, leaves the artifact's bytes unchanged and restores every binding.
Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

import checks
import tracing
import workloads
from workload import execute, same_outcome


def edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["outputs"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def edit_csv(path, row, column, change):
    """Apply change to one numeric cell; row counts data rows, -1 is the last."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = row + 1 if row >= 0 else len(lines) + row
    cells = lines[idx].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[idx] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def scale(key, factor):
    def edit(out):
        out[key] = out[key] * factor
    return edit


def corrupt(op, res):
    """Damage the artifact the way a wrong program might; returns a label."""
    d, kind, m = res.out_dir, op["check"], op["meta"]
    if kind == "capacity" and m.get("known_exit") is not None:
        res.stderr = res.stderr.replace("QuadratureFailure", "ZeroDivisionError")
        return "error type of the known failure"
    if kind == "capacity":
        edit_json(os.path.join(d, "capacity.json"),
                  lambda out: out["lower"].__setitem__("value_bits",
                                                       out["lower"]["value_bits"] + 0.15))
        return "MI + 0.15 bits"
    if kind == "int-adc":
        edit_csv(os.path.join(d, "region.csv"), 0, 2, lambda r: r + 0.2)
        return "first sweep rate + 0.2 bits"
    if kind == "region":
        row = m["sample_idx"][1] if m["scheme"] == "ops-circuit" else 100
        edit_csv(os.path.join(d, "region.csv"), row, 2, lambda r: r * (1 - 1e-4))
        return f"{m['scheme']} row {row} rate - 0.01%"
    if kind == "p0":
        edit_json(os.path.join(d, "solve.json"), scale("rate_bits", 1 - 1e-4))
        return "p0 rate - 0.01%"
    if kind == "p1":
        edit_json(os.path.join(d, "solve.json"), scale("rate_bits", 1 - 1e-4))
        return "p1 rate - 0.01%"
    if kind == "p2":
        edit_json(os.path.join(d, "solve.json"),
                  lambda out: out.__setitem__("m", 2 if out["m"] is None else out["m"] // 2))
        return "p2 constellation changed"
    if kind == "link":
        edit_json(os.path.join(d, "link.json"), scale("h", 1.001))
        return "link gain + 0.1%"
    if kind == "fig5":
        edit_csv(os.path.join(d, "fig5_sps_scov10.csv"), 200, 2, lambda r: r - 1e-3)
        return "fig5 SPS row - 1e-3 bits"
    if kind == "fig9":
        row = m["sample_idx"][0]
        edit_csv(os.path.join(d, "fig9_ops_net.csv"), row, 2, lambda r: r * (1 - 1e-4))
        return f"fig9 on-off row {row} rate - 0.01%"
    if kind == "distance-sweep":
        edit_csv(os.path.join(d, f"{m['figure']}_intrx.csv"), -1, 5, lambda r: 1.0)
        return "integrated rate at the longest distance set to 1"
    if kind in ("qam", "pem"):
        edit_json(os.path.join(d, "simulate.json"), scale("ser_hat", 1.5))
        return "SER x 1.5"
    if kind == "rectifier":
        factor = 1 + 1e-5 if m["constant_envelope"] else 1.02
        edit_json(os.path.join(d, "simulate.json"), scale("dc_mean", factor))
        return f"DC x {factor}"
    raise KeyError(kind)


def sample_ops() -> list[dict]:
    """One op of every check kind (every scheme of the region check)."""
    rng = np.random.default_rng(1)
    mi = workloads.make_pass("mi_points", rng)
    ops = [mi[0], mi[-1], workloads.make_pass("adc_sweep", rng)[0]]
    ops += workloads.make_pass("design", rng) + workloads.make_pass("oracles", rng)
    return ops


def traced_roundtrip(op, work) -> list[str]:
    """Run op plain and traced; report what the tracer got wrong."""
    import swiptlab.cli
    import swiptlab.modulation

    plain = execute(op, os.path.join(work, "trace-plain"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = [getattr(swiptlab.cli.build_figure, tracing.WRAPPER_MARK, False),
                 getattr(swiptlab.modulation._SER_BY_FAMILY["qam"], tracing.WRAPPER_MARK, False)]
        traced = execute(op, os.path.join(work, "trace-traced"))
    finally:
        tracer.restore()
    problems = []
    if not all(bound):
        problems.append("tracer did not rebind imported names and dict entries")
    if tracer.counts["modulation.solve_p1.calls"] < 1 or tracer.counts["modulation.ser_evals"] < 1:
        problems.append("tracer recorded no solver work")
    if not same_outcome(plain, traced):
        problems.append("traced artifacts differ from plain ones")
    if tracing.leftover_wrappers():
        problems.append(f"wrappers left bound: {tracing.leftover_wrappers()}")
    return problems


def main() -> int:
    os.environ.setdefault("SOURCE_DATE_EPOCH", "1700000000")
    refs = checks.References()
    scratch = os.path.join(os.getcwd(), ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    bad = 0
    try:
        for i, op in enumerate(sample_ops()):
            label = op["meta"]["label"]
            res = execute(op, os.path.join(work, f"op{i}"))
            first = checks.check_op(op, res, refs)
            what = corrupt(op, res)
            second = checks.check_op(op, res, refs)
            ok = not first and bool(second)
            bad += not ok
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: passes as produced "
                  f"({first or 'ok'}); rejects {what} ({second[:1] or 'accepted'})")
        design = workloads.make_pass("design", np.random.default_rng(2))
        problems = traced_roundtrip(next(op for op in design if op["check"] == "p1"), work)
        bad += bool(problems)
        print(f"[{'PASS' if not problems else 'FAIL'}] tracer: byte-identical artifacts, "
              f"all wrappers restored {problems or ''}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
