"""The artifact dump (tools/dump_artifacts.py) against its committed manifest,
tests/golden/manifest.json.

Under the manifest's numpy and scipy versions every file must match byte
for byte; under others, each file's text outside its numbers must match and
each number must lie within dump_artifacts.REL_TOL (1e-9) relative of the
manifest's.  Either way a missing or a new file fails.  The dump runs once,
in a fresh interpreter, and each check below reads that one dump or a
changed copy of it.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "dump_artifacts.py"
MANIFEST = json.loads((ROOT / "tests" / "golden" / "manifest.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("dump_artifacts", TOOL)
dump_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump_artifacts)

# a closed-form file and the number in it that the changes below edit
EDITED = "capacity/upper-c2/capacity.json"
VALUE = b'"c1_upper_bits": 19.32717661167301'


def test_exit_0_with_stderr_fails(tmp_path, monkeypatch):
    # a run that succeeds but writes to stderr, as a leaked numpy warning
    # would, counts as failed; one that writes nothing there does not
    def main(argv):
        if argv == ["warn"]:
            print("RuntimeWarning: overflow encountered", file=sys.stderr)
        return 0
    monkeypatch.setattr(dump_artifacts, "runs", lambda: [("quiet", ["quiet"]), ("warn", ["warn"])])
    monkeypatch.setattr(dump_artifacts, "main", main)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", dump_artifacts.SOURCE_DATE_EPOCH)
    assert dump_artifacts.dump(tmp_path) == 1


def _run_python(argv):
    """Run a fresh interpreter with this tree's src on its path."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def test_every_run_reports_its_own_warnings(tmp_path):
    # two runs that overflow at the same line: under Python's default filter
    # only the first would print the warning.  A fresh interpreter, because
    # pytest records warnings instead of printing them
    script = tmp_path / "two_runs.py"
    script.write_text(
        "import importlib.util, sys\n"
        "import numpy as np\n"
        f"spec = importlib.util.spec_from_file_location('dump_artifacts', {str(TOOL)!r})\n"
        "tool = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tool)\n"
        "tool.runs = lambda: [('first', ['first']), ('second', ['second'])]\n"
        "def main(argv):\n"
        "    np.exp(np.array([1000.0]))\n"
        "    return 0\n"
        "tool.main = main\n"
        f"sys.exit(tool.dump(tool.Path({str(tmp_path / 'out')!r})))\n", encoding="utf-8")
    proc = _run_python([str(script)])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.count("overflow encountered in exp") == 2


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    out = tmp_path_factory.mktemp("dump")
    proc = _run_python([str(TOOL), str(out)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def _other_versions():
    """The manifest as if other numpy and scipy versions had made it."""
    return {**MANIFEST, "numpy": "0.0", "scipy": "0.0"}


def test_dump_matches_manifest(dumped):
    assert dump_artifacts.mismatches(dumped, MANIFEST) == []


def test_dump_matches_manifest_numbers(dumped):
    assert dump_artifacts.mismatches(dumped, _other_versions()) == []


def _edit(path, old, new):
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))


# each change as (what it does to a copy of the dump, whether the number
# comparison must see it too): a new file, a missing file, and one-byte
# changes to the last digit of a number, a leading digit and the text
CHANGES = {
    "new-file": (lambda d: (d / "capacity" / "extra.txt").write_text("0\n"), True),
    "missing-file": (lambda d: (d / EDITED).unlink(), True),
    "last-digit": (lambda d: _edit(d / EDITED, VALUE, VALUE[:-1] + b"2"), False),
    "leading-digit": (lambda d: _edit(d / EDITED, VALUE, VALUE.replace(b": 19", b": 18")),
                      True),
    "text": (lambda d: _edit(d / EDITED, b'"c1_upper_bits"', b'"c1_upper_bitz"'), True),
}


@pytest.mark.parametrize("change", CHANGES)
def test_changed_copy_fails(change, dumped, tmp_path):
    copy = tmp_path / "dump"
    shutil.copytree(dumped, copy)
    edit, numbers_see_it = CHANGES[change]
    edit(copy)
    assert dump_artifacts.mismatches(copy, MANIFEST)
    assert bool(dump_artifacts.mismatches(copy, _other_versions())) == numbers_see_it
