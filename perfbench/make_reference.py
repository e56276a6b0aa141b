"""Regenerate perfbench/mi_reference.json, the high-sample MI references
that the mi_points and adc_sweep checks compare against.

Run from the repository root (takes about ten minutes on two cores):

    PYTHONPATH=src python3 perfbench/make_reference.py

Each entry records the exact ``swiptlab`` command that produced it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SAMPLES = 200_000
REFERENCE_SEED0 = 7_000_000


def main() -> int:
    os.environ.setdefault("SOURCE_DATE_EPOCH", "0")
    from swiptlab import cli
    from workloads import reference_points

    entries = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "ref.json")
        for i, (hp, sa2, srec2) in enumerate(reference_points()):
            argv = ["capacity", "--hp", repr(hp), "--sa2", repr(sa2), "--srec2", repr(srec2),
                    "--lower", "--samples", str(REFERENCE_SAMPLES),
                    "--seed", str(REFERENCE_SEED0 + i), "--out", "ref.json"]
            if cli.main(argv[:-1] + [out]) != 0:
                return 1
            with open(out, encoding="utf-8") as fh:
                lower = json.load(fh)["outputs"]["lower"]
            entries.append({"hp": hp, "sa2": sa2, "srec2": srec2,
                            "value_bits": lower["value_bits"],
                            "std_error_bits": lower["std_error_bits"],
                            "n_samples": lower["n_samples"],
                            "command": "swiptlab " + " ".join(argv)})
            print(entries[-1], file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "mi_reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"references": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
