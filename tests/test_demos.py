"""The demos run as a reader runs them: each script in a new process, from an
empty working directory, against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted(REPO.glob("demos/0[1-5]_*.py")) + [REPO / "demos" / "06_cli_walkthrough.sh"]


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    # the walkthrough calls the `motionprim` command that `pip install -e .`
    # provides; this stand-in runs the same entry point from this tree
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "motionprim"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m motionprim.cli "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(REPO / "src"),
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "TMPDIR": str(tmp_path),  # where the walkthrough's mktemp puts its files
    }
    argv = ["bash", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{demo.name} exited {done.returncode}:\n{done.stderr[-3000:]}"
