"""Each demo's stdout is pinned by its sha256, so a change that moves any
printed output fails here rather than in a comparison by hand."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkgr

ROOT = Path(__file__).resolve().parents[1]

# recorded from the demos' output before the Gr3Engine kept a single cache
DEMO_SHA256 = {
    "01_products_and_structure_constants.py": "5688f82761d197178a1d33901e3eb80a1aa49369c1669571279744fa15a0e63e",
    "02_seidel_operators.py": "ccf0ad44db11790fb9d66316612839a07ee9bf0382cc5a0594d3f1a7b47e8d2b",
    "03_quantum_to_classical.py": "3f546057a5357704b1cf30d35c8da93d8662e4a0dde9c21d13921f311b8e8403",
    "04_gr3_littlewood_richardson.py": "0eb90d2b3750fd7a30dd3f25d5961f6f00cbf0e184bddecdb637c28e039618fc",
    "05_curve_neighborhoods.py": "78d3ed0814f65225a5100e5b6caaf65389e159dd47701f5da60bc356152c244b",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_pinned(name):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]


def test_readme_lists_the_public_api():
    text = (ROOT / "README.md").read_text()
    head = "The public names, all importable from `qkgr`:"
    assert head in text
    section = text.split(head, 1)[1].split("\n\n", 2)[1]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert names == set(qkgr.__all__)
    assert all(hasattr(qkgr, name) for name in names)
