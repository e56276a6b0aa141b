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


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    out = tmp_path_factory.mktemp("dump")
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(TOOL), str(out)], env=env, capture_output=True,
                          text=True, timeout=300)
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
