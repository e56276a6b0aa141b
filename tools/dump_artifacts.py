"""Write a fixed set of swiptlab CLI artifacts into OUT_DIR.

Usage:
    PYTHONPATH=src python tools/dump_artifacts.py OUT_DIR

Every run goes through ``swiptlab.cli.main`` in this process, from its own
subdirectory of OUT_DIR, with SOURCE_DATE_EPOCH pinned, so the set is
byte-reproducible. To see which bytes a change moves, run the script once per
tree (point PYTHONPATH at each tree's ``src``) and compare with ``diff -r``.

The set: every CLI example in README.md; every region scheme as CSV and as
JSON, ``ops-circuit`` at p_s = 1e20, where every feasible interval of the
on-off solver collapses, and ``sps-circuit`` at p_s = q_max and above it;
``capacity --lower`` without antenna noise and without rectifier noise, the
two branches of the output densities that the examples miss, and at the unit
point (hP, sigma2_a, sigma2_rec) = (100, 1, 1) scaled by 1e-6; ``capacity
--upper`` alone at (100, 1, 1e-8), where c2 is the smaller bound (README's
point takes the c1 branch of the min); ``solve`` p0, p1 and p2; every
``simulate`` kind (qam plain and importance-sampled, pem, and the rectifier
with a Gaussian and a constant envelope and at truncation order 3); every
figure, fig7, fig8 and fig10 at 10000 Monte Carlo samples and the others at
their defaults; and a fixed set of rejected commands, each of which leaves
its exit code and stderr record under ``errors/<name>/`` so that ``diff -r``
shows a changed message. A run counts as failed when its exit code differs
from the expected one: 0, or the rejected command's own.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

from swiptlab.cli import REGION_SCHEMES, main
from swiptlab.figures import FIGURES

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCE_DATE_EPOCH = "1700000000"

FIG9 = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--scov2", "10"]
FIG10_INT = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "0.01", "--srec2", "100"]
# per-scheme link and scheme flags; the integrated schemes estimate their rate
# from 10000 samples, and int-adc sweeps one estimate per point
SCHEME_FLAGS = {
    "ub": FIG9,
    "ts": FIG9,
    "sps": FIG9,
    "ops-circuit": [*FIG9, "--ps", "25"],
    "ts-circuit": [*FIG9, "--ps", "25"],
    "sps-circuit": [*FIG9, "--ps", "25"],
    "int-ideal": [*FIG10_INT, "--samples", "10000", "--seed", "3"],
    "int-adc": ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--srec2", "1",
                "--sadc2", "1", "--points", "9", "--samples", "10000", "--seed", "4"],
    "int-circuit": [*FIG10_INT, "--pi", "10", "--samples", "10000", "--seed", "5"],
}
# p_s far above q_max = 60: every energy target's feasible s-interval collapses
OPS_COLLAPSED = ["region", "--scheme", "ops-circuit", *FIG9, "--ps", "1e20",
                 "--format", "json"]
# p_s at q_max = 60 and above it: every sps-circuit point is (0, 0)
SPS_CIRCUIT_PS = ("60", "100")
CAPACITY_RUNS = {
    "sa2-0": ["--hp", "100", "--sa2", "0", "--srec2", "1", "--seed", "1"],
    "srec2-0": ["--hp", "100", "--sa2", "1", "--srec2", "0", "--seed", "2"],
    # the unit point scaled by 1e-6: the same channel, so the unit point's estimate
    "rescaled": ["--hp", "1e-4", "--sa2", "1e-6", "--srec2", "1e-12", "--seed", "0"],
}
# the upper bounds where c2 = 3.517 bits is below c1 = 19.33 bits
CAPACITY_UPPER_C2 = ["capacity", "--hp", "100", "--sa2", "1", "--srec2", "1e-8", "--upper"]
SOLVE_RUNS = {
    "p0": ["--q", "30", "--ps", "25", *FIG9],
    "p1": ["--qreq", "0", "--ps", "5e-4", "--h", "1e-3", "--p", "1", "--zeta", "0.6",
           "--sa2", "3.98e-14", "--scov2", "1e-10"],
    "p2": ["--qreq", "10", "--pi", "10", "--h", "1", "--p", "100", "--zeta", "0.6",
           "--srec2", "100"],
}
WAVE = ["--h", "1", "--p", "100", "--zeta", "0.6", "--carrier", "8", "--bandwidth", "1"]
SIMULATE_RUNS = {
    # 16-QAM at SER 1.15e-2: about 230 errors in 20000 symbols, so detection shows
    "qam": ["--kind", "qam", "--m", "16", "--rho", "0.2", "--h", "1", "--p", "80",
            "--sa2", "1", "--scov2", "1", "--symbols", "20000", "--seed", "3"],
    "qam-is": ["--kind", "qam", "--m", "4", "--rho", "0", "--h", "1", "--p", "25",
               "--sa2", "0.5", "--scov2", "0.5", "--noise-scale", "2.2",
               "--symbols", "100000", "--seed", "6"],
    "pem": ["--kind", "pem", "--m", "16", "--h", "1", "--p", "50", "--srec2", "1",
            "--symbols", "100000", "--seed", "4"],
    "rectifier": ["--kind", "rectifier", *WAVE, "--sa2", "0.5", "--symbols", "20000",
                  "--seed", "801"],
    "rectifier-const": ["--kind", "rectifier", *WAVE, "--constant-envelope",
                        "--symbols", "256", "--seed", "800"],
    "rectifier-order3": ["--kind", "rectifier", *WAVE, "--truncation-order", "3",
                         "--oversampling", "8", "--symbols", "20000", "--seed", "802"],
}
# the figures that estimate the MI run at 10000 samples, the others at their defaults
MI_FIGURES = ("fig7", "fig8", "fig10")
# name -> (argv, expected exit code) of the rejected commands
ERROR_RUNS = {
    "link-p-nan": (["region", "--scheme", "ts", "--p", "nan", "--sa2", "1"], 2),
    "link-hp-overflow": (["region", "--scheme", "sps", "--h", "1e300", "--p", "1e300",
                          "--sa2", "1", "--scov2", "1"], 2),
    "pem-p-zero": (["simulate", "--kind", "pem", "--p", "0", "--srec2", "1",
                    "--symbols", "100"], 2),
    "dbm-overflow": (["link", "--rec-noise-dbm", "1e12"], 2),
    "p0-infeasible": (["solve", "--problem", "p0", "--q", "100", "--ps", "25", *FIG9], 3),
}


def readme_examples() -> list[list[str]]:
    """The argv of each `swiptlab` command in README's CLI code block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(ln, comments=True)
             for ln in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in argvs if argv[:1] == ["swiptlab"]]


def runs() -> list[tuple[str, list[str]]]:
    """(subdirectory, argv) of every run, in a fixed order."""
    out = [(f"readme/{i:02d}", argv) for i, argv in enumerate(readme_examples())]
    for scheme, flags in SCHEME_FLAGS.items():
        for fmt in ("csv", "json"):
            out.append((f"region/{scheme}-{fmt}",
                        ["region", "--scheme", scheme, *flags, "--format", fmt]))
    out.append(("region/ops-circuit-collapsed", OPS_COLLAPSED))
    for p_s in SPS_CIRCUIT_PS:
        out.append((f"region/sps-circuit-ps{p_s}",
                    ["region", "--scheme", "sps-circuit", *FIG9, "--ps", p_s]))
    for name, flags in CAPACITY_RUNS.items():
        out.append((f"capacity/{name}", ["capacity", *flags, "--lower", "--samples", "10000"]))
    out.append(("capacity/upper-c2", CAPACITY_UPPER_C2))
    for problem, flags in SOLVE_RUNS.items():
        out.append((f"solve/{problem}", ["solve", "--problem", problem, *flags]))
    for name, flags in SIMULATE_RUNS.items():
        out.append((f"simulate/{name}", ["simulate", *flags]))
    for fig in FIGURES:
        flags = ["--samples", "10000"] if fig in MI_FIGURES else []
        out.append((f"figure/{fig}", ["figure", fig, *flags]))
    for name, (argv, _) in ERROR_RUNS.items():
        out.append((f"errors/{name}", argv))
    return out


def dump(out_dir: Path) -> int:
    """Run every argv from its subdirectory of out_dir; the number of runs whose
    exit code was not the expected one.  A nonzero exit writes its code and
    stderr to exit_code.txt and stderr.txt there."""
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    if set(SCHEME_FLAGS) != set(REGION_SCHEMES):
        raise SystemExit(f"SCHEME_FLAGS must cover {sorted(REGION_SCHEMES)}")
    expected = {f"errors/{name}": code for name, (_, code) in ERROR_RUNS.items()}
    failed = 0
    cwd = os.getcwd()
    for sub, argv in runs():
        target = out_dir / sub
        target.mkdir(parents=True, exist_ok=True)
        os.chdir(target)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        if code:
            (target / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
            (target / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
        print(f"{code}  {sub}: swiptlab {shlex.join(argv)}")
        failed += code != expected.get(sub, 0)
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(1 if dump(Path(sys.argv[1]).resolve()) else 0)
