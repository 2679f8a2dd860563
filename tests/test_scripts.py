"""The example scripts run end to end against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", ["run_pipeline.py", "make_certificate.py"])
def test_script_runs_cleanly(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_readme_library_example_runs():
    """The python block of README's Library section runs from the
    repository root."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_run_pipeline_matches_golden():
    """The pipeline demo, cohomology actions included, prints exactly the
    committed golden output."""
    proc = _run("run_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "run_pipeline.txt").read_text(encoding="utf-8")


def test_make_certificate_reproduces_the_fixture():
    """The certificate that make_certificate.py derives and prints, after
    the degree-2 matrix and a blank line, is the committed fixture without
    its comment header."""
    proc = _run("make_certificate.py")
    assert proc.returncode == 0, proc.stderr
    fixture = (ROOT / "fixtures" / "pencil4_twist12.cert").read_text(encoding="utf-8")
    want = "".join(ln for ln in fixture.splitlines(keepends=True) if not ln.startswith("#"))
    assert proc.stdout.split("\n\n", 1)[1] == want + "\n"
