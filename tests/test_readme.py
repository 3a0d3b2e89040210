"""The examples in README.md run as written.

The python block runs as a script against the package in src/.  Every
``nlfsr ...`` command followed by a ``# <output>`` line runs through the
CLI, and its first output line must equal that comment, up to any
annotation set off by two or more spaces.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nlfsr.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
CLI_EXAMPLES = re.findall(r"^nlfsr (.+)\n# (.+)$", README, re.M)


def test_examples_found():
    assert len(PYTHON_BLOCKS) == 1
    assert len(CLI_EXAMPLES) == 5


def test_python_block_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PYTHON_BLOCKS[0]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, comment", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example_prints_its_comment(command, comment, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line == re.split(r"\s{2,}", comment)[0]
