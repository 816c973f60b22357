"""The benchmark harness stays runnable: its smoke mode runs one short pass
of every workload and checks each result against its known answer."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 3, proc.stdout[-2000:]
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
