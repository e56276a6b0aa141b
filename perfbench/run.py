"""swiptlab benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

It measures set-up time in fresh interpreters, runs the workload in a fresh
subprocess with a pinned environment, and prints a human-readable summary,
one JSON line with the full report (versions, commit, seed, every metric
with its unit) and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics.  Exits nonzero, printing no
result, when the swiptlab sources are not under ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 6          # fresh interpreters besides the workload process,
                          # half before it and half after, so the median
                          # spans the run rather than one moment of the host
RUN_DEADLINE_S = 170      # every child is killed by then: a run must end within 180 s
PINNED_ENV = {
    # one caller and no helper threads: numerical libraries get one thread
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "1700000000",
    "PYTHONHASHSEED": "0",
}


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "swiptlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "swiptlab", "cli.py")):
        print("perfbench: no swiptlab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "ratio"

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = os.path.join(root, ".perfbench_runs")
    os.makedirs(scratch, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{a.workload}-{a.seed}-", dir=scratch)
    env = dict(os.environ, **PINNED_ENV, TMPDIR=run_dir,
               PYTHONPATH=os.path.join(root, "src"))
    try:
        def probes(n):
            return [child(["--setup-probe"], env, deadline) for _ in range(n)]
        setups = probes(SETUP_PROBES // 2)
        report = child(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace),
                        "--run-dir", run_dir], env, deadline)
        setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    setups.append(report)
    e2e = {"setup_s": statistics.median(p["setup_s"] for p in setups),
           "wall_s": report["wall_s"],
           "op_p50_s": report["op_p50_s"], "peak_rss_mb": report["peak_rss_mb"],
           "fail_frac": report["nonzero_exits"] / report["attempted"]}
    values = report["layers"] if a.trace else e2e
    names = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}

    n_ops, passes = report["attempted"], report["passes"]
    print(f"perfbench {a.workload} seed={a.seed} trace={a.trace}: {n_ops} ops in "
          f"{passes} pass(es) of {report['ops_per_pass']}")
    print(f"  setup_s     {e2e['setup_s']:.4f} s  (median of {len(setups)} fresh interpreters)")
    print(f"  wall_s      {e2e['wall_s']:.4f} s  (sum over the {report['ops_per_pass']} op slots "
          f"of each slot's median over {passes} pass(es))")
    print(f"  op_p50_s    {e2e['op_p50_s']:.4f} s  (median of the {report['ops_per_pass']} "
          f"slot medians; {n_ops} ops run)")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"  (times at the reference host speed; raw medians: setup_s "
          f"{statistics.median(p['setup_raw_s'] for p in setups):.4f}, wall_s "
          f"{report['wall_raw_s']:.4f} per pass, op_p50_s {report['op_p50_raw_s']:.4f} per op; "
          f"host scale {report['host_scale']:.3f})")
    print(f"  fail_frac   {e2e['fail_frac']:.4f} ratio  ({report['nonzero_exits']} of {n_ops} "
          f"ops exited nonzero, {report['known_failures']} of them the known exit-4 defect; "
          f"{report['failed']} failed their check)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    if a.trace:
        for n in names:
            print(f"  {n:36s} {metrics[n]['value']:.6g} {metrics[n]['unit']}")

    correct = report["failed"] == 0 and report["trace_ok"]
    full = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            **report["versions"], "nproc": os.cpu_count(), "git_commit": git_commit(root),
            "source_sha256": source_digest(root), "env": PINNED_ENV,
            "ops": n_ops, "passes": passes, "pass_walls": report["pass_walls"],
            "slot_s": report["slot_s"], "correct": correct,
            "raw": {"setup_s": [p["setup_raw_s"] for p in setups],
                    "wall_s": report["wall_raw_s"], "op_p50_s": report["op_p50_raw_s"],
                    "host_scale": report["host_scale"]},
            "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
            "problems": report["problems"]}
    if a.trace:
        full["per_layer"] = metrics
    print(json.dumps(full))
    print(json.dumps({"correct": correct, "attempted": n_ops, "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
