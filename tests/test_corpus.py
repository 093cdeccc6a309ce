"""Extreme but valid inputs through ``cli.main``, in process.

Every argv line must exit 0, 2, 3 or 4 and raise nothing, a RuntimeWarning
included, and a ``--format json`` table must parse with NaN and Infinity
refused.  The corpus draws 1-3 of a command's own flags from ``cli._KEYS``
and sets them to IEEE edge values, on grids small enough that the whole run takes about a
second.  The inputs it found exiting 1 with a traceback are named cases of
``test_cli.test_bounds_refuse_out_of_range_values``; a C whose square
underflows, which printed nan gains, is named here.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

import netbath.errors
from netbath import cli

# A small grid for each command; the drawn flags come after and override it.
_BASE = {
    "phase": "--lambda-count 5",
    "fixed-point": "--lambda-count 5",
    "spectrum": "--omega-count 5",
    "multiplier": "--nu-count 5",
    "tree": "--depth 3",
    "finite-time": "--T 0.5",
    "population": "--pool-size 64 --sweeps 2",
    "orbit": "--steps 50",
    "kernel --method branch-cut": "--tau-count 11",
    "kernel --method bessel": "--tau-count 11",
    "kernel --method oracle": "--tau-count 11 --depth 3",
}
_FLOATS = ("0", "-0.0", "1", "-1", "5e-324", "1e-300", "1e-200", "1e-150",
           "1e155", "1e308", "nan", "inf", "-inf")
# Counts stay small or go past every cap: no request is refused for time, so
# a count such as --sweeps 100000 would only make the run long.
_INTS = ("0", "1", "2", "3", "-1", "2147483648")


def _flags(cmd: str, typ) -> list[str]:
    """The flags of type ``typ`` that the subcommand of ``cmd`` takes."""
    return [flag for block, key, t, flag, *_ in cli._KEYS
            if t is typ and cli._reads(cmd.split()[0], block, key)]


def _corpus(seed: int, size: int) -> list[str]:
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(size):
        cmd = str(rng.choice(list(_BASE)))
        line = f"{cmd} {_BASE[cmd]}"
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.75:
                line += f" {rng.choice(_flags(cmd, float))}={rng.choice(_FLOATS)}"
            else:
                line += f" {rng.choice(_flags(cmd, int))}={rng.choice(_INTS)}"
        if rng.random() < 0.3:
            line += " --format json"
        lines.append(line)
    return lines


def _refuse(token):
    raise ValueError(f"bare {token} in the JSON table")


def _run(line: str):
    """(exit code, stdout) of one line; a RuntimeWarning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(line.split())
    assert code in (0, 2, 3, 4), (line, code, err.getvalue())
    if code == 0 and "--format json" in line:
        json.loads(out.getvalue(), parse_constant=_refuse)
    return code, out.getvalue()


@pytest.mark.parametrize("c", ["1e-200", "5e-324"])
def test_multiplier_at_a_coupling_whose_square_underflows(c):
    # C^2 = 0 made every gain 0/0; such a C prints what C = 0 prints
    code, text = _run(f"multiplier --nu-count 41 --C {c} --format json")
    doc = json.loads(text)
    zero = json.loads(_run("multiplier --nu-count 41 --C 0 --format json")[1])
    assert code == 0 and doc["rows"] == zero["rows"]
    assert all(row[1] == 0.0 for row in doc["rows"])


def test_seeded_corpus_exits_cleanly(monkeypatch):
    # every allocation the lines could ask for stays under 64 MiB
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", 64 << 20)
    codes = [_run(line)[0] for line in _corpus(0, 600)]
    # the corpus reaches every outcome it can: results and both refusals
    assert {0, 2, 3} <= set(codes)
