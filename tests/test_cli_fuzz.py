"""A fuzzer for the CLI contract.  cli.main runs in-process on one or two
generated cone, matrix or support files, well formed or malformed, in a
fresh directory.  Every call ends in an exit code of {0, 2, 3, 4} without a
traceback and within a CPU-time bound, and two inputs run each on its own:
stdout is their stdouts run alone, in input order, and the exit code is the
larger of their codes.  Every file an input would write holds junk before
it runs: an input that succeeds leaves its new output there, one that fails
leaves no junk and only search's new transcript, and a refused command
leaves the junk as it was."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcones import cli, data

from conftest import near_facet_cones

# Entries that stress parsing, normalization and the tolerances; every
# other entry is a standard normal draw.
SPECIAL = (0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 1e300, 1.0 + 1e-12)
TOLS = ("1e-300", "1e-9", "1e-7", "1e-3", "0.5", "2", "nan")  # nan is refused
# Each subcommand's input kind and that kind's file suffix.
KINDS = {"slack": "cone", "dual": "cone", "verify": "cone", "analyze": "matrix",
         "search": "support"}
SUFFIXES = {"cone": ".cone", "matrix": ".mat", "support": ".support"}
SUPPORTS = (data.pentagon_support().bits, data.prism_support().bits,
            data.four_cycle_support().bits)
# What malformed text puts in place of a value: NaN, the digit-group
# underscore float() takes, and a digit float() reads but the formats refuse.
BAD_VALUES = ("nan", "1_0", "١")


@st.composite
def entries(draw, shape: tuple[int, int]) -> np.ndarray:
    """Standard normal draws of this shape, some replaced by SPECIAL values."""
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
    picks = draw(st.lists(st.one_of(st.none(), st.sampled_from(SPECIAL)),
                          min_size=values.size, max_size=values.size))
    flat = values.reshape(-1)
    for i, value in enumerate(picks):
        if value is not None:
            flat[i] = value
    return values


def rows_text(header: str, rows: np.ndarray) -> list[str]:
    return [header] + [" ".join(f"{x:.17g}" for x in r) for r in rows]


@st.composite
def cone_lines(draw) -> list[str]:
    """A cone file's lines: up to 7 generators in R^1..R^4, perhaps in the
    nonnegative orthant, and perhaps a duplicate and the opposite of one of
    them; or a near_facet_cones draw, generators within tol of a facet.  At
    most 11 rows in R^5 keep every facet scan at C(11, 4) = 330 subsets, far
    inside its budget."""
    if draw(st.booleans()):
        g = draw(near_facet_cones())
        return rows_text(f"{g.shape[1]} {len(g)}", g)
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    g = draw(entries((n, d)))
    if draw(st.booleans()):
        g = np.abs(g)
    row = g[draw(st.integers(0, n - 1))]
    extra = draw(st.sampled_from([[], [row], [-row], [row, -row]]))
    g = np.vstack([g, *extra])
    return rows_text(f"{d} {len(g)}", g)


@st.composite
def matrix_lines(draw) -> list[str]:
    """A matrix file's lines: an n x n matrix, asymmetric, symmetric or a
    Gram matrix x x^T of any rank 0..n, perhaps made nonnegative."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["asymmetric", "symmetric", "gram"]))
    if shape == "gram":
        x = draw(entries((n, draw(st.integers(0, n)))))
        with np.errstate(all="ignore"):  # 1e300 squared is inf, a value to test
            m = x @ x.T
    else:
        m = draw(entries((n, n)))
        if shape == "symmetric":
            m = 0.5 * m + 0.5 * m.T
    if draw(st.booleans()):
        m = np.abs(m)
    return rows_text(f"{n} {n}", m)


@st.composite
def support_lines(draw) -> list[str]:
    """A support file's lines: a bundled support or random 0/1 rows."""
    bits = draw(st.one_of(
        st.sampled_from(SUPPORTS),
        st.integers(1, 6).flatmap(lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n))))
    return [str(len(bits))] + ["".join(str(b) for b in r) for r in bits]


LINES = {"cone": cone_lines, "matrix": matrix_lines, "support": support_lines}


@st.composite
def file_texts(draw, kind: str) -> str:
    """A well-formed file of this kind, or one spoiled in one way: empty, a
    bad header, too few rows, a ragged row or a bad value."""
    lines = draw(LINES[kind]())
    spoil = draw(st.one_of(st.none(), st.sampled_from(
        ["empty", "bad header", "too few rows", "ragged row", *BAD_VALUES])))
    i = draw(st.integers(1, len(lines) - 1))
    if spoil == "empty":
        lines = []
    elif spoil == "bad header":
        lines[0] = "x" + lines[0]
    elif spoil == "too few rows":
        del lines[-1]
    elif spoil == "ragged row":
        lines[i] += " 1"
    elif spoil is not None:
        parts = lines[i].split(" ")
        parts[draw(st.integers(0, len(parts) - 1))] = spoil
        lines[i] = " ".join(parts)
    return "".join(line + "\n" for line in lines)


@st.composite
def commands(draw) -> tuple[list[str], list[str], list[str]]:
    """(subcommand, flags, input texts): one of the file subcommands with
    its flags (--out is added per run) and one or two inputs."""
    command = draw(st.sampled_from(["slack", "slack --json", "dual", "verify",
                                    "analyze", "search"])).split()
    flags = ["--tol", draw(st.sampled_from(TOLS))]
    if command[0] in ("analyze", "search"):
        flags += ["--rank", str(draw(st.integers(0 if command[0] == "analyze" else 1, 6)))]
    if command[0] == "search":
        flags += ["--retries", str(draw(st.integers(1, 3))),
                  "--max-iter", str(draw(st.sampled_from([1, 5, 50])))]
    texts = draw(st.lists(file_texts(KINDS[command[0]]), min_size=1, max_size=2))
    return command, flags, texts


# What every planned output holds before a run, and the bound on one
# cli.main call's CPU seconds (not wall seconds, which other load on the
# host stretches), 100 times the slowest of the 600 examples' calls.
JUNK = b"junk from an earlier run\n"
CPU_S = 1.5


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) with its exit code and its stdout and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.process_time() - start
    assert seconds < CPU_S, f"cli.main took {seconds:.2f} CPU s on {argv}"
    return code, out.getvalue(), err.getvalue()


def planned(command: str, out: Path, path: str) -> list[Path]:
    """The files command writes for the input at path, --out being out."""
    if command == "search":
        stem = Path(path).stem
        return [out / f"{stem}_transcript.json", out / f"{stem}_realization.cone"]
    return [out] if command in ("slack", "dual") else []


def seed_junk(targets: list[Path]) -> None:
    for target in targets:
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(JUNK)


def left(targets: list[Path]) -> list[bytes | None]:
    """Each target's bytes, or None where it does not exist."""
    return [t.read_bytes() if t.exists() else None for t in targets]


# 600 examples take about 6 s on a 2-vCPU host.
@settings(max_examples=600, deadline=None)
@given(commands())
def test_every_input_ends_in_a_typed_exit_on_its_own(case):
    command, flags, texts = case
    refused = "nan" in flags
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / ("o" if command[0] == "search" else "o.out")
        paths = []
        for stem, text in zip("ab", texts):  # one stem each: one search output each
            path = Path(tmp) / (stem + SUFFIXES[KINDS[command[0]]])
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        if command[0] in ("slack", "dual", "search"):
            flags = [*flags, "--out", str(out)]
        alone, files = [], []
        for path in paths:
            targets = planned(command[0], out, path)
            seed_junk(targets)
            alone.append(run([*command, path, *flags]))
            files.append(left(targets))
            code, stdout, err = alone[-1]
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            assert err == "" if code == 0 else stdout == ""
            if refused:
                assert code == 2 and files[-1] == [JUNK] * len(targets)
            elif code == 0:
                assert None not in files[-1] and JUNK not in files[-1]
            elif targets:  # no file, but perhaps search's new transcript
                first, *rest = files[-1]
                assert rest == [None] * len(rest)
                assert first is None or command[0] == "search" and first != JUNK and (
                    json.loads(first)["success"] is False)
        if len(paths) == 2:
            pair = [*command, *paths, *flags]
            if command[0] in ("slack", "dual"):  # one --out for two inputs is refused
                seed_junk([out])
                code, stdout, err = run(pair)
                assert (code, stdout) == (2, "") and ("would write" in err or refused)
                assert left([out]) == [JUNK]
                pair = pair[:-2]  # the pair without --out
            targets = [t for p in paths for t in planned(command[0], out, p)]
            seed_junk(targets)
            code, stdout, err = run(pair)
            assert "Traceback" not in err
            assert stdout == alone[0][1] + alone[1][1]
            assert code == max(alone[0][0], alone[1][0])
            if command[0] == "search":  # each input leaves what it left alone
                assert left(targets) == files[0] + files[1]
