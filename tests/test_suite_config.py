"""The suite's own pytest settings, checked in a child pytest run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # Under filterwarnings = ["error"], a deprecation warning that
    # hypothesis's report hook trips once ended the session with an
    # INTERNALERROR, hiding the falsifying example and every later test.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
