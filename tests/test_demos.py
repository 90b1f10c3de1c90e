"""Smoke test: every narrative demo, and the README's library tour, runs to
the end without error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def library_tour() -> str:
    """The python block of the README's "Library tour" section."""
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "library_tour.py"
        demo.write_text(library_tour())
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
