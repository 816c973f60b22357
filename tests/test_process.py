"""Checks that need a real interpreter: the exit status of a child process,
warnings raised as errors (`python -W error`, so any warning ends the run
with a traceback and exit 1), no traceback on stderr, a timeout, and a
child's peak memory.  Every other CLI check runs in-process, in
test_cli.py."""

from __future__ import annotations

import json
import subprocess

from sdcones import cli, data, search

from conftest import run_python, shuffled_cycle_complement


def sdcones(*argv: str, cwd) -> subprocess.CompletedProcess:
    """`sdcones argv` run in cwd by a child interpreter that raises every
    warning as an error."""
    return run_python("-W", "error", "-m", "sdcones.cli", *argv, cwd=cwd)


def test_search_realizations_pass_verify(tmp_path):
    # Every subcommand below runs warning-free.
    proc = sdcones("examples", "pentagon", "selfpolar10", "--out", "d", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    for stem, rank in (("pentagon", "3"), ("selfpolar10", "4")):
        proc = sdcones("search", f"d/{stem}.support", "--rank", rank, "--out", "d",
                       cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
    proc = sdcones("verify", "d/pentagon_rays.cone", "d/pentagon_realization.cone",
                   "d/selfpolar10_realization.cone", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count('"self_dual": true') == 3
    proc = sdcones("analyze", "d/pentagon_slack.mat", "--rank", "3", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_forty_four_cycle_retries_record_every_attempt(tmp_path):
    # Stacks of 1 and 39 attempts.  A warning raised as an error would end
    # the run with a traceback and exit 1, not 3.
    search.save_support(tmp_path / "fourcycle.support", data.four_cycle_support().bits)
    proc = sdcones("search", "fourcycle.support", "--rank", "3", "--retries", "40",
                   "--seed", "5", cwd=tmp_path)
    assert proc.returncode == cli.EXIT_NO_CONVERGENCE, proc.stderr
    assert "Traceback" not in proc.stderr
    text = (tmp_path / "fourcycle_transcript.json").read_text()
    assert text.count('"index":') == text.count('"certified": false') == 40
    attempts = json.loads(text)["attempts"]
    assert [a["index"] for a in attempts] == list(range(40))
    assert not any(a["certified"] for a in attempts)


def test_input_that_is_not_utf8_exits_4_without_traceback(tmp_path):
    (tmp_path / "bad.support").write_bytes(b"3\n1\xff0\n")
    proc = sdcones("search", "bad.support", "--rank", "3", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_PARSE, "")
    assert proc.stderr.startswith("parse error: cannot read support file bad.support:")
    assert "Traceback" not in proc.stderr


# VmHWM, not getrusage's ru_maxrss: the latter counts the parent's peak in a
# child that the parent forked.
ATTEMPTS_PEAK = """
from sdcones import search
bits = search.load_support("c.support")
pattern = search.apply_sisd(bits, search.sisd_check(bits))
search.rank_refine = lambda x, d, pattern: None  # only the SDP stacks are measured
search._refine = lambda xs, d, pattern: [None] * len(xs)
for _ in search._attempts(pattern, search.SearchParams(target_rank=3, max_iter=1)):
    pass
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def test_sdp_stacks_of_a_600_point_support_stay_small(tmp_path):
    # linalg._STACK_ENTRIES makes the 19 SDP attempts stacks of 2: the child,
    # its refinement stubbed out, peaked at 102 MB, where one stack of 19
    # peaked at 512 MB.
    search.save_support(tmp_path / "c.support", shuffled_cycle_complement(600))
    proc = run_python("-c", ATTEMPTS_PEAK, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 250 * 1024  # kB
