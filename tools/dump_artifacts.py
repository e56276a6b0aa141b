"""Write a fixed set of swiptlab CLI artifacts into OUT_DIR.

Usage:
    PYTHONPATH=src python tools/dump_artifacts.py OUT_DIR
    PYTHONPATH=src python tools/dump_artifacts.py [OUT_DIR] --manifest PATH

Every run goes through ``swiptlab.cli.main`` in this process, from its own
subdirectory of OUT_DIR, with SOURCE_DATE_EPOCH pinned, so the set is
byte-reproducible. To see which bytes a change moves, run the script once per
tree (point PYTHONPATH at each tree's ``src``) and compare with ``diff -r``.

``--manifest PATH`` writes the set's manifest to PATH (into a temporary
OUT_DIR when none is given); ``tests/golden/manifest.json`` is the one that
``tests/test_golden.py`` checks every dump against. The manifest holds each
file's path and SHA-256, the numpy and scipy versions that made it, and, per
distinct file, the SHA-256 of its text with every number replaced by ``#``
and its numbers to 12 significant digits. Under the same numpy and scipy
versions a dump must match it byte for byte; under others, each file's text
outside its numbers must match and each number must lie within ``REL_TOL``
of the manifest's (``mismatches``). A change that moves an artifact rewrites
the manifest and says in CHANGES.md which files moved, by how much and why.

The set: every CLI example in README.md; every region scheme as CSV and as
JSON, ``ops-circuit`` at p_s = 1e20, where every feasible interval of the
on-off solver collapses, ``sps-circuit`` at p_s = q_max and above it, and
``int-ideal`` at sigma2_rec = 0, the rate's closed-form branch, at
hP / sigma2_a = 100 and at 1e8, near the end of that branch's certified
range (1e10);
``capacity --lower`` without antenna noise and without rectifier noise, the
two branches of the output densities that the examples miss, at the unit
point (hP, sigma2_a, sigma2_rec) = (100, 1, 1) scaled by 1e-6, at fig7's
(100, 1, 1e4) and at criterion 9's ratio 100, (100, 100, 1); ``capacity
--upper`` alone at (100, 1, 1e-8), where c2 is the smaller bound (README's
point takes the c1 branch of the min); ``solve`` p0, p1 and p2; every
``simulate`` kind (qam plain and importance-sampled, pem, and the rectifier
with a Gaussian and a constant envelope and at truncation order 3); every
figure at its defaults; and a fixed set of rejected commands, each of which
leaves its exit code and stderr record under ``errors/<name>/`` so that
``diff -r`` shows a changed message. A run counts as failed when its exit
code differs from the expected one: 0, or the rejected command's own.

Only the ``capacity --lower`` and ``simulate`` files are sampled, each from
its own seed; the ``int-*`` regions and figures fig7, fig8 and fig10 take the
deterministic chi-square-input rate, and every other file is a closed form
or a deterministic solver.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy
import scipy

from swiptlab.cli import REGION_SCHEMES, main
from swiptlab.figures import FIGURES

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCE_DATE_EPOCH = "1700000000"

FIG9 = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--scov2", "10"]
FIG10_INT = ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "0.01", "--srec2", "100"]
# per-scheme link and scheme flags; int-adc evaluates the rate once per point
SCHEME_FLAGS = {
    "ub": FIG9,
    "ts": FIG9,
    "sps": FIG9,
    "ops-circuit": [*FIG9, "--ps", "25"],
    "ts-circuit": [*FIG9, "--ps", "25"],
    "sps-circuit": [*FIG9, "--ps", "25"],
    "int-ideal": FIG10_INT,
    "int-adc": ["--h", "1", "--p", "100", "--zeta", "0.6", "--sa2", "1", "--srec2", "1",
                "--sadc2", "1", "--points", "9"],
    "int-circuit": [*FIG10_INT, "--pi", "10"],
}
# p_s far above q_max = 60: every energy target's feasible s-interval collapses
OPS_COLLAPSED = ["region", "--scheme", "ops-circuit", *FIG9, "--ps", "1e20",
                 "--format", "json"]
# p_s at q_max = 60 and above it: every sps-circuit point is (0, 0)
SPS_CIRCUIT_PS = ("60", "100")
# no processing noise: the rate integrates the closed-form densities of W
INT_IDEAL_W = ["region", "--scheme", "int-ideal", "--h", "1", "--p", "100", "--zeta", "0.6",
               "--sa2", "1", "--srec2", "0", "--format", "json"]
INT_IDEAL_W_1E8 = ["region", "--scheme", "int-ideal", "--h", "1", "--p", "1e8", "--zeta", "0.6",
                   "--sa2", "1", "--srec2", "0", "--points", "8", "--format", "json"]
CAPACITY_RUNS = {
    "sa2-0": ["--hp", "100", "--sa2", "0", "--srec2", "1", "--seed", "1"],
    "srec2-0": ["--hp", "100", "--sa2", "1", "--srec2", "0", "--seed", "2"],
    # the unit point scaled by 1e-6: the same channel, so the unit point's estimate
    "rescaled": ["--hp", "1e-4", "--sa2", "1e-6", "--srec2", "1e-12", "--seed", "0"],
    # fig7's (100, 1, 1e4), where 41% of the conditional densities take the
    # panels, the most of the benchmark channels, and criterion 9's ratio 100,
    # the widest antenna noise relative to the signal
    "fig7": ["--hp", "100", "--sa2", "1", "--srec2", "1e4", "--seed", "3"],
    "ratio-100": ["--hp", "100", "--sa2", "100", "--srec2", "1", "--seed", "4"],
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
# name -> (argv, expected exit code) of the rejected commands
ERROR_RUNS = {
    "link-p-nan": (["region", "--scheme", "ts", "--p", "nan", "--sa2", "1"], 2),
    "link-hp-overflow": (["region", "--scheme", "sps", "--h", "1e300", "--p", "1e300",
                          "--sa2", "1", "--scov2", "1"], 2),
    "pem-p-zero": (["simulate", "--kind", "pem", "--p", "0", "--srec2", "1",
                    "--symbols", "100"], 2),
    "dbm-overflow": (["link", "--rec-noise-dbm", "1e12"], 2),
    "p0-infeasible": (["solve", "--problem", "p0", "--q", "100", "--ps", "25", *FIG9], 3),
    # hP = 1e4 sigma_rec: the rate's marginal grid would pass 2^20 points
    "rate-grid-limit": (["region", "--scheme", "int-ideal", "--p", "1e4", "--sa2", "1",
                         "--srec2", "1"], 2),
    # sigma2_a = 2000 sigma_rec: the first round of conditional grids would pass
    # 2^25 points together
    "rate-conditional-limit": (["region", "--scheme", "int-ideal", "--p", "100",
                                "--sa2", "2000", "--srec2", "1"], 2),
    # sigma2_adc / (1 - rho)^2 overflows at the sweep's last rho
    "adc-noise-overflow": (["region", "--scheme", "int-adc", "--h", "1", "--p", "100",
                            "--sa2", "1", "--sadc2", "1e303", "--srec2", "1", "--points", "4"],
                           2),
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
    out.append(("region/int-ideal-srec2-0", INT_IDEAL_W))
    out.append(("region/int-ideal-srec2-0-snr1e8", INT_IDEAL_W_1E8))
    for name, flags in CAPACITY_RUNS.items():
        out.append((f"capacity/{name}", ["capacity", *flags, "--lower", "--samples", "10000"]))
    out.append(("capacity/upper-c2", CAPACITY_UPPER_C2))
    for problem, flags in SOLVE_RUNS.items():
        out.append((f"solve/{problem}", ["solve", "--problem", problem, *flags]))
    for name, flags in SIMULATE_RUNS.items():
        out.append((f"simulate/{name}", ["simulate", *flags]))
    for fig in FIGURES:
        out.append((f"figure/{fig}", ["figure", fig]))
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


# a number in an artifact's text, and the relative tolerance on each number
# when the numpy or scipy version differs from the manifest's
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-9


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_and_numbers(data: bytes) -> tuple[str, list[float]]:
    """The SHA-256 of the text with every number replaced by '#', and the numbers."""
    text = data.decode("utf-8")
    return (_sha256(NUMBER.sub("#", text).encode("utf-8")),
            [float(m) for m in NUMBER.findall(text)])


def _files(out_dir: Path) -> dict[str, Path]:
    return {p.relative_to(out_dir).as_posix(): p
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def manifest(out_dir: Path) -> dict:
    """The manifest of the dump in out_dir (see the module docstring)."""
    files, contents = {}, {}
    for rel, path in _files(out_dir).items():
        data = path.read_bytes()
        files[rel] = key = _sha256(data)
        if key not in contents:
            text, numbers = _text_and_numbers(data)
            contents[key] = {"text_sha256": text,
                             "numbers": [float(f"{x:.12g}") for x in numbers]}
    return {**versions(), "files": files, "contents": contents}


def mismatches(out_dir: Path, want: dict) -> list[str]:
    """How the dump in out_dir differs from the manifest want: a missing or
    new file, and a file whose bytes differ (same numpy and scipy versions)
    or whose text or numbers differ beyond REL_TOL (other versions)."""
    files = _files(out_dir)
    found = [f"missing: {rel}" for rel in sorted(set(want["files"]) - set(files))]
    found += [f"new: {rel}" for rel in sorted(set(files) - set(want["files"]))]
    same_versions = versions() == {key: want[key] for key in ("numpy", "scipy")}
    for rel in sorted(set(files) & set(want["files"])):
        data = files[rel].read_bytes()
        if same_versions:
            if _sha256(data) != want["files"][rel]:
                found.append(f"bytes differ: {rel}")
            continue
        ref = want["contents"][want["files"][rel]]
        text, numbers = _text_and_numbers(data)
        if text != ref["text_sha256"] or len(numbers) != len(ref["numbers"]):
            found.append(f"text differs: {rel}")
        elif not all(math.isclose(a, b, rel_tol=REL_TOL)
                     for a, b in zip(numbers, ref["numbers"])):
            found.append(f"numbers differ by more than {REL_TOL:g}: {rel}")
    return found


def script_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", type=Path)
    parser.add_argument("--manifest", type=Path, help="write the dump's manifest here")
    args = parser.parse_args(argv)
    if args.out_dir is None and args.manifest is None:
        parser.error("give OUT_DIR, --manifest PATH or both")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = (args.out_dir or Path(tmp)).resolve()
        if dump(out_dir):
            return 1
        if args.manifest:
            args.manifest.write_text(json.dumps(manifest(out_dir), indent=1) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(script_main())
