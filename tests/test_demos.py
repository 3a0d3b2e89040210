"""Every script under demos/ runs to completion against the package in src/,
and the files under demos/registers/ hold the bundled sample registers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlfsr import samples
from nlfsr.register import Nlfsr
from nlfsr.transform import GaloisProfile, lower_to_profile

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
REGISTERS = ROOT / "demos" / "registers"
SAMPLES = {
    "fibonacci.reg": samples.FIBONACCI,
    "galois_a.reg": samples.GALOIS_A,
    "galois_b.reg": samples.GALOIS_B,
    "rotation.reg": samples.ROTATION,
}


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_register_files_match_the_samples():
    files = {p.name: Nlfsr.parse(p.read_text()) for p in REGISTERS.glob("*.reg")}
    assert files == SAMPLES
    profile = GaloisProfile.parse((REGISTERS / "galois_b.prof").read_text(), 4)
    lowered, _ = lower_to_profile(files["fibonacci.reg"], profile)
    assert lowered == files["galois_b.reg"]
