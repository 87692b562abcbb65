"""Every narrative script in demos/, and README's library quickstart and
scheme calls, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


def _run(args, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    done = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return tmp, done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script, tmp_path):
    tmp, _ = _run([str(script)], tmp_path)
    # a fixed path is shared by concurrent runs: temporary files go under
    # a fresh tempfile directory, which every demo removes again
    assert "/tmp/" not in script.read_text()
    assert not any(tmp.iterdir())


def _readme_block(starts_with):
    """README's python block whose first line begins with `starts_with`."""
    blocks = [block.split("```", 1)[0]
              for block in (ROOT / "README.md").read_text().split("```python\n")[1:]]
    (block,) = [block for block in blocks if block.startswith(starts_with)]
    return block


def test_readme_quickstart_runs(tmp_path):
    # the first python block under "Library quickstart", as a reader copies it
    section = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    _, out = _run(["-c", code], tmp_path)
    assert out.startswith("KNU [") and "\nMETA-DES [" in out


def test_readme_scheme_calls_run(tmp_path):
    # the block of scheme calls, on the quickstart's query, in one process
    quickstart = _readme_block("import numpy as np\nfrom desbal import (")
    calls = _readme_block("from desbal.selection import select_desknn,")
    _, out = _run(["-c", quickstart + calls], tmp_path)
    assert out.startswith("KNU [") and "\nF-KNU [" in out
