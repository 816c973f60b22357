"""The repository's pytest configuration reports a failing property test:
its falsifying example is printed and the other tests still run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    assert True
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-3000:]
    assert "INTERNALERROR" not in out, out[-3000:]
    assert "Falsifying example" in out, out[-3000:]
    assert "1 failed, 1 passed" in out, out[-3000:]
