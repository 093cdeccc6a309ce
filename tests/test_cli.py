import argparse
import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netbath as nb
from netbath import cli, laplace


def run_cli(args):
    return cli.main(args)


def read_lines(path):
    return path.read_text().splitlines()


_SCIPY_LOADS = """
import sys
import netbath, netbath.cli
def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert scipy() == [], scipy()
assert netbath.cli.main(["phase", "--lambda-count", "5"]) == 0
assert scipy() == [], scipy()
assert netbath.cli.main(["kernel", "--method", "bessel", "--tau-count", "11"]) == 0
assert "scipy.special" in sys.modules, scipy()
"""


def test_scipy_loads_only_with_the_routes_that_use_it():
    # importing the package and its CLI, and the light subcommands, start
    # without scipy; the Bessel kernel's J1 loads scipy.special
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADS],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fixed_point_table(tmp_path):
    out = tmp_path / "fp.csv"
    code = run_cli(["fixed-point", "--lambda-min", "0.5", "--lambda-max", "10",
                    "--lambda-count", "7", "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[0].startswith("# tool=netbath version=")
    assert "params=n=5,omega0=10,C=1,m=0.5" in lines[0]
    assert "seed=0" in lines[0]
    # the column-name row is the second line, rows follow immediately
    assert lines[1].split(",")[:3] == ["lambda", "k_closed", "k_iterated"]
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 7
    rel = [float(r[5]) for r in rows]
    assert max(rel) <= 1e-10


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["population", "--pool-size", "1200", "--sweeps", "3",
            "--lam", "1.0", "--seed", "5"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kernel_methods(tmp_path):
    for method in ("branch-cut", "bessel"):
        out = tmp_path / f"{method}.csv"
        code = run_cli(["kernel", "--method", method, "--tau-max", "2.0",
                        "--tau-count", "101", "--output", str(out)])
        assert code == 0
        rows = [ln for ln in read_lines(out) if not ln.startswith("#")][1:]
        assert len(rows) == 101
        assert float(rows[0].split(",")[1]) == 0.0
    out = tmp_path / "oracle.csv"
    code = run_cli(["kernel", "--method", "oracle", "--depth", "4",
                    "--branching", "4", "--tau-max", "2.0", "--tau-count",
                    "51", "--output", str(out)])
    assert code == 0


def test_oracle_kernel_meta_at_87381_nodes(tmp_path):
    # branching 4, depth 8: the root sees one mode per level
    out = tmp_path / "oracle.json"
    assert run_cli(["kernel", "--method", "oracle", "--branching", "4",
                    "--depth", "8", "--tau-count", "11", "--format", "json",
                    "--output", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta == {"method": "oracle", "branching": 4, "depth": 8,
                    "n_modes": 9}


def test_json_format(tmp_path):
    out = tmp_path / "spec.json"
    code = run_cli(["spectrum", "--format", "json", "--output", str(out),
                    "--omega-count", "11"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["tool"] == "netbath"
    assert doc["columns"] == ["omega", "J"]
    assert len(doc["rows"]) == 11


def test_phase_and_multiplier_and_tree_and_orbit(tmp_path):
    for args, expect_col in (
            (["phase", "--lambda-count", "5"], "sqrt_argument"),
            (["multiplier", "--nu-count", "9"], "gain"),
            (["tree", "--branching", "4", "--depth", "12", "--lam", "1.0"],
             "residual"),
            (["orbit", "--lam", "1.0", "--steps", "50"], "k"),
            (["finite-time", "--T", "2.0"], "G"),
    ):
        out = tmp_path / (args[0] + ".csv")
        assert run_cli(args + ["--output", str(out)]) == 0
        lines = [ln for ln in read_lines(out) if not ln.startswith("#")]
        assert expect_col in lines[0].split(",")


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"n": 20, "omega0": 0.1, "C": 20.0, "m": 0.5},
        "lambda_grid": {"min": 1.0, "max": 10.0, "count": 4, "scale": "linear"},
    }))
    out = tmp_path / "out.csv"
    assert run_cli(["fixed-point", "--config", str(cfg), "--output",
                    str(out)]) == 0
    lines = read_lines(out)
    assert "params=n=20" in lines[0]
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 4
    # flag overrides config
    out2 = tmp_path / "out2.csv"
    assert run_cli(["fixed-point", "--config", str(cfg), "--lambda-count",
                    "6", "--output", str(out2)]) == 0
    rows2 = [ln for ln in read_lines(out2) if not ln.startswith("#")][1:]
    assert len(rows2) == 6


def test_flagged_rows_outside_existence(tmp_path):
    # n=2 supercritical: rows below the onset are flagged, not silently nan
    out = tmp_path / "fp.csv"
    assert run_cli(["fixed-point", "--n", "2", "--omega0", "1.0", "--C",
                    "2.4142135623730951", "--m", "1.0", "--lambda-min", "0.2",
                    "--lambda-max", "5.0", "--lambda-count", "8",
                    "--lambda-scale", "linear", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in read_lines(out) if not ln.startswith("#")][1:]
    status = [r[-1] for r in rows]
    assert "no-fixed-point" in status and "ok" in status


def test_exit_codes(tmp_path):
    # unknown config key -> 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"paramz": {}}))
    assert run_cli(["phase", "--config", str(cfg)]) == 2
    # malformed json -> 2
    cfg2 = tmp_path / "bad2.json"
    cfg2.write_text("{nope")
    assert run_cli(["phase", "--config", str(cfg2)]) == 2
    # domain error -> 3 (kernel needs a real band; C < 0 has none)
    assert run_cli(["kernel", "--C", "-0.1", "--output",
                    str(tmp_path / "x.csv")]) == 3
    # accuracy error -> 4 (finite-time step too coarse)
    assert run_cli(["finite-time", "--dt", "1.0",
                    "--output", str(tmp_path / "y.csv")]) == 4
    # unknown subcommand -> argparse usage error 2
    assert run_cli(["frobnicate"]) == 2


def test_size_refusal_exits_2(tmp_path, capsys):
    # a chain's modes come in closed form in O(N) memory, so the chain
    # refused is one past the node cap: 2^20 + 1 nodes, refused from its
    # depth
    assert run_cli(["kernel", "--method", "oracle", "--branching", "1",
                    "--depth", "1048576", "--output",
                    str(tmp_path / "k.csv")]) == 2
    # about 2.2 million window points: the table alone passes the cap
    assert run_cli(["finite-time", "--T", "10000", "--output",
                    str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err.count("ERROR size:") == 2


def test_oracle_kernel_of_a_long_chain(tmp_path):
    # the 100,001-node chain, whose modes were refused from the eigenproblem
    # of its Jacobi matrix, takes its measure in closed form: one row a tau
    # point, every value finite
    out = tmp_path / "k.csv"
    assert run_cli(["kernel", "--method", "oracle", "--branching", "1",
                    "--depth", "100000", "--tau-count", "101", "--output",
                    str(out)]) == 0
    lines = read_lines(out)
    assert "n_modes=100001" in lines[0]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 101
    assert all(np.isfinite(float(k)) for _, k in rows)


def test_plot_output(tmp_path):
    svg = tmp_path / "plot.svg"
    out = tmp_path / "out.csv"
    assert run_cli(["spectrum", "--plot", str(svg), "--output", str(out)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text
    # plots are byte-reproducible too
    svg2 = tmp_path / "plot2.svg"
    assert run_cli(["spectrum", "--plot", str(svg2), "--output",
                    str(out)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_rows_all_finite_or_flagged(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run_cli(["orbit", "--n", "2", "--omega0", "1.0", "--C",
                    "2.4142135623730951", "--m", "1.0", "--lam", "0.5",
                    "--steps", "300", "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in read_lines(out) if not ln.startswith("#")][1:]
    for row in rows:
        value, status = float(row[1]), row[2]
        assert np.isfinite(value) or status != "ok"


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_is_strict_and_csv_keeps_nan(tmp_path):
    # below lambda* the flagged rows carry no value: null in JSON, nan in CSV
    args = ["fixed-point", "--n", "2", "--omega0", "1", "--C", "2.5", "--m", "1"]
    out = tmp_path / "fp.json"
    assert run_cli(args + ["--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    flagged = [row for row in doc["rows"] if row[-1] == "no-fixed-point"]
    assert flagged and all(row[1] is None for row in flagged)
    ok = [row for row in doc["rows"] if row[-1] == "ok"]
    assert ok and all(math.isfinite(row[1]) for row in ok)
    csv = tmp_path / "fp.csv"
    assert run_cli(args + ["--output", str(csv)]) == 0
    rows = [ln.split(",") for ln in read_lines(csv) if not ln.startswith("#")][1:]
    assert all(r[1] == "nan" for r in rows if r[-1] == "no-fixed-point")


@pytest.mark.parametrize("args", [
    ["population", "--lam", "1.0", "--pool-size", "20000", "--sweeps", "10",
     "--seed", "7"],
    ["population"],
], ids=["readme", "defaults"])
def test_population_documented_lines(tmp_path, args):
    # the pool collapses to a few ULPs within the first sweeps at these
    # parameters; the table must still come out
    out = tmp_path / "pop.csv"
    assert run_cli(args + ["--output", str(out)]) == 0
    rows = [ln.split(",") for ln in read_lines(out) if not ln.startswith("#")][1:]
    sweeps = 10 if "--sweeps" in args else 20
    assert [int(r[0]) for r in rows] == list(range(sweeps + 1))


@pytest.mark.parametrize("config", [
    {"params": 5},
    {"lambda_grid": {"count": "abc"}},
    {"numerics": {"sweeps": "x"}},
    {"params": {"n": 2.5}},
    {"numerics": {"pool_size": -5}},
], ids=["block", "grid-count", "numerics", "non-integer-n", "below-bound"])
def test_config_values_are_type_checked(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["population", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR config:") and captured.out == ""


@pytest.mark.parametrize("config, flags, message", [
    ({"params": {"q": 1}}, [], "unknown config key params.'q'"),
    ([1, 2], [], "config file must hold a JSON object"),
    ({}, ["--lambda-min", "0"], "log-scale lambda_grid needs min > 0"),
], ids=["unknown-key-in-block", "array", "log-grid-from-zero"])
def test_config_refusals_name_their_cause(tmp_path, capsys, config, flags,
                                          message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["phase", "--config", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ERROR config: {message}\n" and captured.out == ""


def test_null_only_where_the_default_is_null(tmp_path, capsys):
    # numerics.dt defaults to null, the band-resolving step, and takes null
    # from a config file; numerics.tol has a number for its default and
    # refuses null
    cfg = tmp_path / "cfg.json"
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    cfg.write_text(json.dumps({"numerics": {"dt": None, "T": 0.5}}))
    assert run_cli(["finite-time", "--config", str(cfg), "--output", str(out)]) == 0
    assert run_cli(["finite-time", "--T", "0.5", "--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    cfg.write_text(json.dumps({"numerics": {"tol": None}}))
    capsys.readouterr()
    assert run_cli(["fixed-point", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ERROR config: config value numerics.tol=None is not float\n"
    assert captured.out == ""


@pytest.mark.parametrize("line, points", [
    # C = 0: the square-root argument is 1 at every lambda, a flat line on
    # the axis
    ("phase --C 0", None),
    # no sweep: one point, at the origin of both axes
    ("population --sweeps 0", ["50.00,430.00"]),
])
def test_plot_of_a_constant_series_or_one_point(tmp_path, line, points):
    # a series of one value, or one x, is drawn on a range of width 1 from
    # it, not divided by zero
    svg = tmp_path / "plot.svg"
    argv = shlex.split(line) + ["--plot", str(svg), "--output", str(tmp_path / "o.csv")]
    assert run_cli(argv) == 0
    got = re.search(r'<polyline points="([^"]*)"', svg.read_text()).group(1).split()
    if points is not None:
        assert got == points
    xy = np.array([pt.split(",") for pt in got], dtype=float)
    assert len(xy) and np.all(xy[:, 1] == 430.0)
    assert np.all((50.0 <= xy[:, 0]) & (xy[:, 0] <= 670.0))


@pytest.mark.parametrize("line, code, label", [
    ("tree --depth -1", 2, "config"),
    ("tree --branching 0", 2, "config"),
    ("kernel --method oracle --branching -3", 2, "config"),
    ("population --pool-size -5", 2, "config"),
    ("population --seed -1", 2, "config"),
    ("population --sweeps -1", 2, "config"),
    ("population --sigma-rel -1", 2, "config"),
    ("finite-time --dt 0", 2, "config"),
    ("kernel --quad-order 0", 2, "config"),
    ("orbit --steps -1", 2, "config"),
    ("fixed-point --max-iter -1", 2, "config"),
    ("phase --lambda-count 0", 2, "config"),
    ("finite-time --T 0.0001", 2, "shape"),
    # non-finite values, refused where each is checked
    ("finite-time --T nan", 2, "shape"),
    ("finite-time --T inf", 2, "shape"),
    ("finite-time --beta nan", 3, "domain"),
    ("finite-time --dt inf", 3, "domain"),
    ("orbit --lam nan", 3, "domain"),
    ("tree --lam inf", 3, "domain"),
    ("fixed-point --tol nan", 3, "domain"),
    ("fixed-point --tol -1", 3, "domain"),
    ("orbit --x0 nan", 3, "domain"),
    # no real band: the default step is still finite, the kernel refuses
    ("finite-time --C -0.1", 3, "domain"),
    # finite values whose derived quantities overflow
    ("kernel --omega0 1e200", 3, "domain"),
    ("orbit --omega0 1e155 --steps 3", 3, "domain"),
    ("kernel --m 1e-300", 3, "domain"),
    ("tree --C 1e300", 3, "domain"),
    ("phase --n 2 --omega0 1 --C 1e308 --m 1", 3, "domain"),
    # couplings whose C^4, the variance gain's power, overflows
    ("phase --C 1e200", 3, "domain"),
    ("phase --C 1e160", 3, "domain"),
    ("tree --C 1e200", 3, "domain"),
    ("fixed-point --C 1e200", 3, "domain"),
    ("orbit --C 1e200 --steps 3", 3, "domain"),
    ("multiplier --n 10 --C 1e200", 3, "domain"),
    ("kernel --n 10 --method oracle --branching 9 --depth 2 --C 1e200", 3,
     "domain"),
    ("population --n 10 --C 1e100", 3, "domain"),
    # a pool collapsed below the resolution of half a unit, and variance
    # gains whose C^4 or k*^4 alone leaves the float range
    ("population --n 10 --C 1e20", 0, None),
    ("population --n 10 --C 1e55", 0, None),
    ("population --n 10 --C 5e76", 0, None),
    ("population --n 10 --C 1e77", 0, None),
    # subnormal variance gains, checked on their fourth roots
    ("population --n 10 --C 8.5e-79", 0, None),
    ("population --n 29 --C 2.6e10 --omega0 1 --lam 1e45", 0, None),
    # a (lambda^2 + omega^2)^2 that overflows, at omega0 or at lambda
    ("fixed-point --omega0 1e80", 3, "domain"),
    ("fixed-point --lambda-min 1e100 --lambda-max 1e200 --lambda-count 3", 3,
     "domain"),
    ("tree --lam 1e300", 3, "domain"),
    ("population --lam 1e200", 3, "domain"),
    ("orbit --lam 1e200 --steps 3", 3, "domain"),
    # a negative lambda in a grid, refused by every command that takes one
    ("phase --lambda-scale linear --lambda-min -2 --lambda-max 2 "
     "--lambda-count 3", 3, "domain"),
    ("fixed-point --lambda-scale linear --lambda-min -2 --lambda-max 2 "
     "--lambda-count 3", 3, "domain"),
    # oversized requests, refused before allocating
    (f"kernel --tau-count {10**11}", 2, "size"),
    ("kernel --method bessel --tau-max 1e9", 2, "size"),
    (f"population --pool-size {10**11}", 2, "size"),
    # a tree refused from its depth, before a node count of 6,000 digits
    ("kernel --method oracle --depth 20000", 2, "size"),
    # a beta at which tanh(beta omega/2) underflows, or C' overflows
    ("finite-time --omega0 0.1 --C 0.001 --beta 5e-324", 3, "domain"),
    ("finite-time --omega0 0.1 --C 0.001 --beta 1e-320", 3, "domain"),
    # an infinite beta is the ground state
    ("finite-time --beta inf --T 0.5", 0, None),
    # an m*omega0^2 that underflows (C* = 0 divided lambda*), an m^2 that
    # overflows (a Python float power raised) or underflows (u was 0/0)
    ("phase --omega0 1e-300", 3, "domain"),
    ("phase --omega0 5e-324", 3, "domain"),
    ("kernel --method bessel --omega0 1e-300", 3, "domain"),
    ("phase --m 1e155", 3, "domain"),
    ("fixed-point --m 1e155", 3, "domain"),
    ("tree --n 3 --C 1e-200 --m 1e-300", 3, "domain"),
    ("phase --omega0 1e-150", 0, None),
    # a window whose point count overflows: 8 inf (3.1 + 0 inf) was a nan
    # need; node counts that overflowed int(); oracle phases tau * omega and
    # a noise-kernel term (1/A') (C dG)^2 past the floats, at 10^310.8
    ("finite-time --T 1e308", 2, "size"),
    ("finite-time --T 0.5 --dt 5e-324", 2, "size"),
    ("kernel --tau-max 1e308 --tau-count 11", 2, "size"),
    ("kernel --method bessel --tau-max 1e308 --tau-count 11", 2, "size"),
    ("kernel --method oracle --depth 3 --tau-max 1e308 --tau-count 11", 3,
     "domain"),
    ("finite-time --n 7 --C 1e-40 --m 1e-148 --T 5e-56", 3, "domain"),
    # a noise-kernel term (C dG)^2 / A' of up to 1.2e149, finite, whose
    # product (1/A') dG dG alone overflowed before C^2 came in
    ("finite-time --T 0.5 --C 1e-150 --m 1e-150", 0, None),
    # nu^2 and omega^2 past the floats: the exact values there are 0
    ("multiplier --nu-count 5 --nu-max 1e308", 0, None),
    ("spectrum --omega-count 5 --omega-max 1e308", 0, None),
    ("tree", 0, None),
    ("population", 0, None),
    ("finite-time", 0, None),
    ("kernel", 0, None),
    ("orbit", 0, None),
    ("fixed-point", 0, None),
    ("phase", 0, None),
])
def test_bounds_refuse_out_of_range_values(tmp_path, capsys, line, code, label):
    # every bound is checked in one place, the key table; the time window
    # is refused where it is built; the defaults stay inside every bound
    out = tmp_path / "out.csv"
    assert run_cli(shlex.split(line) + ["--output", str(out)]) == code
    err = capsys.readouterr().err
    if label:
        assert err.startswith(f"ERROR {label}:") and not out.exists()
    else:
        assert "ERROR" not in err and out.read_text()


@pytest.mark.parametrize("line", [
    # T / dt past the floats: the window was "inf points" needing "nan GiB"
    pytest.param("finite-time --T 1e308", id="window-past-the-floats"),
    # node counts held at 10^18 were printed as 10^18 + 50 and 10^18 + 40
    pytest.param("kernel --method bessel --tau-max 1e300 --tau-count 11",
                 id="bessel-nodes-held"),
    pytest.param("kernel --method branch-cut --tau-max 1e300 --tau-count 11",
                 id="sine-sum-nodes-held"),
])
def test_size_refusal_past_the_float_range_reports_no_false_count(
        tmp_path, capsys, line):
    # the refusal names the count as 10^18 or more and the need as past the
    # cap: no inf, nan, held count or a figure taken from one
    out = tmp_path / "out.csv"
    assert run_cli(shlex.split(line) + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR size:"), lines
    assert "10^18 or more points is past the cap of 2 GiB" in lines[0]
    for figure in ("inf", "nan", "1000000000000000", "GiB,"):
        assert figure not in lines[0]
    assert not out.exists() and captured.out == ""


@pytest.mark.parametrize("line", [f"tree --depth {10**400}",
                                  f"kernel --quad-order {10**400}",
                                  f"phase --lambda-count {10**400}"],
                         ids=["depth", "quad-order", "grid-count"])
def test_integer_count_past_the_floats_is_refused_for_size(tmp_path, capsys,
                                                           line):
    # an int flag takes any integer: one too large for a float is past the
    # cap, with no figure, not an OverflowError from forming one
    out = tmp_path / "out.csv"
    assert run_cli(shlex.split(line) + ["--output", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR size:"), lines
    assert lines[0].endswith("is past the cap of 2 GiB") and not out.exists()


def test_oversized_requests_refused_before_allocating(tmp_path, capsys,
                                                     monkeypatch):
    # each would pass the 2 GiB cap, most by tens to hundreds of GiB: a
    # grid, the branch-cut quadrature's nodes with its sine sum, the Bessel
    # convolution's (t x node) matrix, a population pool, the tables of a
    # grid and of the three counted commands, and orbits of 10^8 steps at
    # 41 bytes each: one at lambda* = 1, which never settles at tol 0, and a
    # grid of 50 around it, which would step in lockstep.  No orbit takes a
    # step before it is charged: each takes its G0 after its charge and
    # before its first step
    g0_laplace = laplace.g0_laplace

    def step(params, lam):
        if sys._getframe(1).f_code is laplace._orbit_ends.__code__:
            raise AssertionError("an orbit stepped before it was charged")
        return g0_laplace(params, lam)

    monkeypatch.setattr(laplace, "g0_laplace", step)
    out = str(tmp_path / "x.csv")
    lines = (f"kernel --tau-count {10**11}",
             "kernel --tau-max 1e9 --tau-count 10",
             "kernel --method bessel --tau-max 1e9",
             f"population --pool-size {10**11}",
             "phase --lambda-count 50000000",
             f"tree --depth {10**9}",
             f"orbit --steps {10**9}",
             f"population --sweeps {10**9}",
             "fixed-point --n 2 --omega0 1 --C 2.4142135623730945 --m 1 "
             "--lambda-min 1 --lambda-max 1 --lambda-count 1 --tol 0 "
             f"--max-iter {10**8}",
             "fixed-point --n 2 --omega0 1 --C 2.4142135623730945 --m 1 "
             "--lambda-min 0.5 --lambda-max 2 --lambda-count 50 --tol 0 "
             f"--max-iter {10**8}")
    tracemalloc.start()
    try:
        for line in lines:
            assert run_cli(shlex.split(line) + ["--output", out]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err.count("ERROR size:") == len(lines)


def _finite_time_columns(tmp_path, beta):
    out = tmp_path / f"ft-{beta}.csv"
    assert run_cli(["finite-time", "--T", "1", "--beta", str(beta),
                    "--output", str(out)]) == 0
    rows = [ln.split(",") for ln in read_lines(out)[2:]]
    return np.array([[float(v) for v in r] for r in rows])


def test_finite_time_prints_equal_time_noise(tmp_path):
    # the G, kI_out and kR_boundary columns are the library's first rows
    # and equal-time noise kernel, bit for bit
    p = nb.derive_params(5, 10.0, 1.0, 0.5)
    times = nb.time_grid(1.0, p.fine_step)
    upstream = nb.TwoTimeKernel.from_stationary(
        times, lambda u: nb.branch_cut_kernel(p, u).values)
    G = nb.twinning_solve(upstream, p).G
    kI = nb.vernon_imag_finite(G, p.C)
    expect = {}
    for beta in (0.3, 3.0):
        kR = nb.vernon_real_full(None, G, nb.thermal_init(beta, p), p.C)
        expect[beta] = kR.diagonal
        cols = _finite_time_columns(tmp_path, beta)
        assert np.array_equal(cols[:, 2], G.row)
        assert np.array_equal(cols[:, 3], kI.row)
        got = cols[:, 4]
        assert np.array_equal(got, expect[beta])
        # the boundary terms' derivative is taken along G's row, so the
        # equal-time noise is positive from u = 0 on
        assert np.all(got > 0.0)
    assert not np.array_equal(expect[0.3], expect[3.0])


def test_finite_time_holds_no_window_matrix(tmp_path):
    # a 1,764-point window, warm, peaks below half of one N x N float64 array
    out = tmp_path / "ft.csv"
    argv = ["finite-time", "--T", "8", "--output", str(out)]
    assert run_cli(argv) == 0
    n = len(read_lines(out)) - 2
    assert n == 1764
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


def test_shape_and_instability_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # pool below the population floor, and a window of fewer than two steps
    assert run_cli(["population", "--pool-size", "10", "--output", out]) == 2
    assert run_cli(["finite-time", "--T", "0.0001", "--output", out]) == 2
    # a tree whose branching outgrows n: a mode with negative stiffness
    assert run_cli(["kernel", "--method", "oracle", "--n", "2", "--omega0",
                    "1", "--C", "0.45", "--m", "1", "--branching", "4",
                    "--depth", "4", "--output", out]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == \
        ["ERROR shape", "ERROR shape", "ERROR instability"]


@pytest.mark.parametrize("args", [
    ["phase", "--output", "{missing}/out.csv"],
    ["phase", "--plot", "{missing}/plot.svg"],
    ["check", "--report", "{missing}/report.json"],
], ids=["output", "plot", "report"])
def test_unwritable_path_exits_2(tmp_path, capsys, args):
    missing = tmp_path / "no-such-dir"
    args = [a.format(missing=missing) for a in args]
    assert run_cli(args) == 2
    assert capsys.readouterr().err.startswith(
        f"ERROR config: cannot write {missing}/")


def _quick_start_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", readme, re.S)
    text = block.group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("netbath ") and not line.startswith("netbath check")]


@pytest.mark.parametrize("argv", _quick_start_lines(), ids=lambda a: a[0])
def test_readme_quick_start_lines_run(tmp_path, argv):
    # every documented command line runs, its files sent to tmp_path
    argv = list(argv)
    if "--plot" in argv:
        argv[argv.index("--plot") + 1] = str(tmp_path / "plot.svg")
    assert run_cli(argv + ["--output", str(tmp_path / "out.csv")]) == 0


def _reference_table(columns, rows, meta, cfg):
    """The table rendered row by row, cell by cell: the reference for the
    column writer."""
    def fmt(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return v if isinstance(v, str) else f"{float(v):.17g}"

    def json_value(v):
        if isinstance(v, (str, bool, np.bool_)):
            return v if isinstance(v, str) else bool(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        return float(v) if math.isfinite(v) else None

    p = cfg["params"]
    if cfg["output"]["format"] == "json":
        doc = {"tool": "netbath", "version": nb.__version__,
               "params": {k: json_value(v) for k, v in p.items()},
               "seed": cfg["numerics"]["seed"],
               "meta": {k: json_value(v) for k, v in meta.items()},
               "columns": list(columns),
               "rows": [[json_value(v) for v in row] for row in rows]}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    header = (f"# tool=netbath version={nb.__version__} params=n={p['n']},"
              f"omega0={fmt(p['omega0'])},C={fmt(p['C'])},m={fmt(p['m'])} "
              f"seed={cfg['numerics']['seed']}")
    header += "".join(f" {key}={fmt(meta[key])}" for key in sorted(meta))
    lines = [header, ",".join(columns)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_DEFAULT_LINES = [["phase"], ["fixed-point"], ["kernel"],
                  ["kernel", "--method", "bessel"],
                  ["kernel", "--method", "oracle"], ["spectrum"],
                  ["multiplier"], ["tree"], ["finite-time"], ["population"],
                  ["orbit"]]

# tables whose float cells the renderer hands to Python's formatter: the nan
# fills and -1.1e-16 of the n = 2 fixed point at C*, zero gains, and cells
# near 1e-151
_FALLBACK_LINES = [
    ["fixed-point", "--n", "2", "--omega0", "1", "--C", "2.4142135623730951",
     "--m", "1", "--lambda-count", "3", "--lambda-min", "0.1",
     "--lambda-max", "3"],
    ["multiplier", "--C", "1e-200"],
    ["kernel", "--C", "1e-150", "--m", "1e-150"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _quick_start_lines() + _DEFAULT_LINES
                         + _FALLBACK_LINES, ids=lambda a: " ".join(a))
def test_column_writer_matches_row_reference(tmp_path, monkeypatch, argv, fmt):
    # every documented line and every subcommand at its defaults: the bytes
    # written are those of the row-wise reference
    tables = []
    write_table = cli.write_table

    def spy(columns, data, meta, cfg):
        text = write_table(columns, data, meta, cfg)
        tables.append((_reference_table(columns, list(zip(*data)), meta, cfg),
                       text))
        return text

    monkeypatch.setattr(cli, "write_table", spy)
    argv = [str(tmp_path / "plot.svg") if a.endswith(".svg") else a
            for a in argv]
    out = tmp_path / "out.txt"
    assert run_cli(argv + ["--format", fmt, "--output", str(out)]) == 0
    [(expect, text)] = tables
    assert text == expect and out.read_text() == expect


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_column_writer_crafted_cells(tmp_path, fmt):
    tiny = 5e-324
    # repeated cells of equal value and another type (True and 1, False and
    # 0, 0.0 and -0.0) must render apart
    data = (np.array([math.nan, math.inf, -math.inf, -0.0, tiny, 1e16, 0.1,
                      0.0, 1.0]),
            [True, False, np.bool_(True), 0, -3, np.int64(7), 2**70, 1, True],
            ["none", 1.5, math.nan, "none", -math.inf, np.float64(2.5), 1e-300,
             0.0, -0.0],
            ["a,b", 'quote " and \\', "tab\tnew\nline", "é", "", "ok",
             "none", "1", "none"])
    meta = {"x": math.nan, "s": "a b", "flag": True, "k": np.int64(3)}
    columns = ("f", "mixed_int", "mixed_float", "text")
    for rows in (data, tuple(col[:1] for col in data)):
        out = tmp_path / f"t.{fmt}"
        cfg = cli.load_config(None, {"output": {"format": fmt,
                                                "path": str(out)}})
        text = cli.write_table(columns, rows, meta, cfg)
        assert text == out.read_text() == \
            _reference_table(columns, list(zip(*rows)), meta, cfg)
    if fmt == "json":
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert doc["rows"] == [[None, True, "none", "a,b"]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [1, 7, 400, 3000])
def test_typed_columns_render_as_their_lists(tmp_path, fmt, rows):
    # int, bool and label arrays give the bytes of the same cells as lists,
    # whose distinct cells _fmt and _json_value render one at a time: ints
    # below 2^53 in magnitude as floats, the rest through str; tables on
    # both sides of _FEW cells and across several blocks of rows
    rng = np.random.default_rng(rows)
    i64 = np.iinfo(np.int64)
    small = np.resize([0, -1, 1, -7, 2**53 - 1, -(2**53 - 1)], rows)
    small[6:] = rng.integers(-10**15, 10**15, max(rows - 6, 0))
    wide = np.resize([2**53, -2**53, 10**17, i64.max, i64.min, 3], rows)
    data = (rng.normal(size=rows), small, wide,
            np.resize(np.array([0, 7, 2**64 - 1], dtype=np.uint64), rows),
            rng.random(rows) < 0.5,
            rng.choice(["ok", "pole", "no-fixed-point"], rows),
            np.arange(rows))
    columns = ("f", "small", "wide", "unsigned", "flag", "label", "index")
    lists = tuple(col if col.dtype.kind == "f" else col.tolist()
                  for col in data)
    cfg = cli.load_config(None, {"output": {"format": fmt,
                                            "path": str(tmp_path / "t")}})
    text = cli.write_table(columns, data, {}, cfg)
    assert text == cli.write_table(columns, lists, {}, cfg) == \
        _reference_table(columns, list(zip(*lists)), {}, cfg)


def _svg_reference(path, xs, ys, label, title):
    """The plot with its points formatted one at a time: the reference for
    write_svg."""
    width, height, pad = 720, 480, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    finite = np.isfinite(ys)
    ylo, yhi = (ys[finite].min(), ys[finite].max()) if finite.any() else (0, 1)
    if yhi == ylo:
        yhi = ylo + 1.0
    xlo, xhi = xs.min(), xs.max()
    if xhi == xlo:
        xhi = xlo + 1.0

    def sx(x):
        return pad + (x - xlo) / (xhi - xlo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ylo) / (yhi - ylo) * (height - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                   if math.isfinite(y))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width//2}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" '
             f'y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" '
             f'stroke="black"/>',
             f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
             f'stroke-width="1.2"/>',
             f'<text x="{width-pad-8}" y="{pad + 16}" text-anchor="end" '
             f'font-family="sans-serif" font-size="12" fill="#1f77b4">{label}</text>',
             "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def test_svg_matches_the_pointwise_reference(tmp_path):
    # seeded series with nan and inf gaps, over linear and log x, then a
    # constant series, an all-nan series and one point
    rng = np.random.default_rng(52)
    series = []
    for _ in range(40):
        size = int(rng.integers(2, 2500))
        xs = np.sort(rng.uniform(-10.0, 10.0, size)) if rng.random() < 0.5 \
            else np.logspace(-3, rng.uniform(0, 5), size)
        ys = rng.normal(size=size) * 10.0 ** rng.uniform(-200, 200)
        ys[rng.random(size) < rng.uniform(0.0, 0.3)] = np.nan
        ys[rng.random(size) < 0.01] = np.inf
        series.append((xs, ys))
    series += [(np.arange(50.0), np.full(50, -2.5)),
               (np.arange(50.0), np.full(50, np.nan)),
               (np.array([3.0]), np.array([1.0]))]
    for xs, ys in series:
        cli.write_svg(str(tmp_path / "got.svg"), xs, ys, "k", "t")
        _svg_reference(str(tmp_path / "want.svg"), xs, ys, "k", "t")
        assert (tmp_path / "got.svg").read_bytes() == \
            (tmp_path / "want.svg").read_bytes()


@pytest.mark.parametrize("fmt, rows", [
    pytest.param(fmt, rows, id=fmt if rows == 2000 else f"{fmt}-{rows}")
    for rows in (2000, 50000) for fmt in ("csv", "json")])
def test_widest_table_within_row_charge(tmp_path, fmt, rows):
    # fixed-point's eight columns are the widest table; with the numerics
    # that fill it, it peaks below the charge the size guard makes per row.
    # 50,000 rows span many of the renderer's blocks, whose temporaries are
    # held a block at a time, not a table
    argv = ["fixed-point", "--lambda-count", str(rows), "--format", fmt,
            "--output", str(tmp_path / "fp")]
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cli.TABLE_ROW_BYTES * rows


def _rendered(x, json_style):
    """The renderer's cells of x, each as text, and Python's own."""
    x = np.asarray(x, dtype=float)
    # at least _FEW cells, so the product, not the per-cell fallback, runs
    x = np.resize(x, max(x.size, cli._FEW))
    cells = cli._float_cells(x, json_style)
    got = [bytes(row).replace(b"\0", b"").decode() for row in cells]
    if json_style:
        want = [repr(v) if math.isfinite(v) else "null" for v in x.tolist()]
    else:
        want = ["%.17g" % v for v in x.tolist()]
    return got, want


def _assert_rendered(x):
    for json_style in (False, True):
        got, want = _rendered(x, json_style)
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert not bad, (json_style, len(bad), bad[:5])


def test_renderer_on_random_bit_patterns():
    # 10^5 seeded bit patterns over all finite doubles, and the same
    # patterns in [1e-3, 1e3), where the fixed notation of both styles sits
    bits = np.random.default_rng(47).integers(0, 2**64, 100_000,
                                              dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    _assert_rendered(x)
    _assert_rendered(np.ldexp(np.frexp(x)[0], np.arange(x.size) % 20 - 9))


def test_renderer_next_to_powers_of_ten_and_two():
    # E comes from the unrounded x: the double 1e200 is below 10^200
    tens = np.array([float(f"1e{e}") for e in range(-300, 301)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    for powers in (tens, twos):
        _assert_rendered(np.concatenate([np.nextafter(powers, 0), powers,
                                         np.nextafter(powers, np.inf)]))
    assert _rendered([1e200], False)[0][0] == "9.9999999999999997e+199"


def test_renderer_on_edge_values():
    tiny = np.nextafter(0, 1)
    _assert_rendered([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                      tiny, -tiny, 2.2250738585072014e-308 / 3, 2.0**53 - 1,
                      2.0**53, 2.0**53 + 2, 1e16, 1e17, 1e-280, 1e280,
                      9.9999999999999e279, 1e23, 1e22, 0.1, 1 / 3, 123.0,
                      1e-5, 1e-4, 9.999999999999999e-5, 999999999999999.9])


def test_renderer_on_exact_ties():
    # the exact decimal of each sits half way between two 17-, 16- or
    # 15-digit roundings; Python rounds it half to even
    ties = [382929582713472.375, 382929582713472.125, 1.0000152587890625,
            1234567890123455.0]
    _assert_rendered(np.concatenate([ties, np.negative(ties)]))
    assert _rendered(ties[:2], False)[0][:2] == ["382929582713472.38",
                                                 "382929582713472.12"]


def test_renderer_takes_all_cells_in_one_product_call(monkeypatch):
    # every int column the CLI writes starts at 0, a cell the product does
    # not decide: the whole array still goes through one product call, and
    # its 0, nan, infinities, subnormals and json powers of two are
    # rendered again by Python's formatters
    calls = []
    product = cli._product_cells

    def counted(x, json_style):
        calls.append(x.size)
        return product(x, json_style)

    monkeypatch.setattr(cli, "_product_cells", counted)
    column = np.arange(cli._FEW, dtype=float)
    mixed = np.concatenate([column, [-0.0, math.nan, math.inf, -math.inf,
                                     1e-300, 5e-324, 1e300, 0.125, -2.0]])
    for x in (column, mixed):
        for json_style in (False, True):
            calls.clear()
            got, want = _rendered(x, json_style)
            assert got == want
            assert calls == [x.size]


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_renderer_matches_python_formatters(values):
    _assert_rendered(values)


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # a format, a method or a config file given once does not reach the
    # next call; a usage error leaves the parser usable
    assert run_cli(["phase", "--lambda-count", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["columns"][0] == "lambda"
    assert run_cli(["phase", "--lambda-count", "2"]) == 0
    assert capsys.readouterr().out.startswith("# tool=netbath ")
    assert run_cli(["kernel", "--method", "bessel", "--tau-count", "3"]) == 0
    assert "method=bessel" in capsys.readouterr().out
    assert run_cli(["kernel", "--tau-count", "3"]) == 0
    assert "method=branch-cut" in capsys.readouterr().out
    assert run_cli(["phase", "--no-such-flag"]) == 2
    assert "usage:" in capsys.readouterr().err
    assert run_cli(["phase", "--lambda-count", "2"]) == 0
    assert capsys.readouterr().out.startswith("# tool=netbath ")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"n": 20, "C": 20.0},
                               "output": {"format": "json"}}))
    assert run_cli(["spectrum", "--omega-count", "2", "--config",
                    str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["n"] == 20
    assert run_cli(["spectrum", "--omega-count", "2"]) == 0
    assert "params=n=5,omega0=10,C=1,m=0.5 " in capsys.readouterr().out


# the flags every table takes: the params and output blocks, the seed and
# the config file
_COMMON_FLAGS = {"--config", "--n", "--omega0", "--C", "--m", "--format",
                 "--output", "--plot", "--seed"}


def _declared_keys(name):
    """The (block, key) pairs _TABLES declares for table ``name``."""
    grid, keys = cli._TABLES[name]
    return {(block, key) for block, key, *_ in cli._KEYS
            if block == f"{grid}_grid" or block == "numerics" and key in keys}


def test_each_subcommand_takes_the_flags_it_reads():
    # each table's flags are the common set plus its declared keys' (and
    # kernel's --method); check takes --report alone: 122 pairs in all
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices
    flags = {name: {opt for action in sub._actions
                    for opt in action.option_strings} - {"-h", "--help"}
             for name, sub in subs.items()}
    assert flags.pop("check") == {"--report"}
    assert set(flags) == set(cli._TABLES)
    for name, table_flags in flags.items():
        declared = {cli._ROWS[key][3] for key in _declared_keys(name)}
        own = {"--method"} if name == "kernel" else set()
        assert table_flags == _COMMON_FLAGS | declared | own, name
    assert sum(map(len, flags.values())) + 1 == 122


def test_each_command_reads_exactly_its_declared_keys():
    # read from the source: each cmd_* takes the config, the parameters and
    # one argument per declared key, subscripts no config block, and casts
    # no value it was given; _params casts none either
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert {name for name in funcs if name.startswith("cmd_")} == \
        {"cmd_" + name.replace("-", "_") for name in cli._TABLES} | {"cmd_check"}
    assert [a.arg for a in funcs["cmd_check"].args.args] == ["report"]
    for name in cli._TABLES:
        node = funcs["cmd_" + name.replace("-", "_")]
        args = [a.arg for a in node.args.args + node.args.kwonlyargs]
        grid, _ = cli._TABLES[name]
        keys = {key for block, key in _declared_keys(name)
                if block == "numerics"} | ({f"{grid}_grid"} if grid else set())
        own = {"method"} if name == "kernel" else set()
        assert args[:2] == ["cfg", "params"] and set(args[2:]) == keys | own
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Subscript)
                    and isinstance(n.value, ast.Name) and n.value.id == "cfg"]
    for node in [funcs["_params"]] + [funcs[f] for f in funcs
                                      if f.startswith("cmd_")]:
        assert not [n for n in ast.walk(node) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id in ("int", "float")
                    and isinstance(n.args[0], (ast.Name, ast.Subscript))]


@pytest.mark.parametrize("line", ["kernel --dt 0.01", "phase --tau-count 5",
                                  "check --format json",
                                  "check --config c.json"])
def test_unread_flag_is_a_usage_error(capsys, monkeypatch, line):
    # a flag its subcommand does not read is refused by argparse, not
    # ignored; check would run the acceptance suite, so it must not start
    monkeypatch.setattr(cli, "cmd_check",
                        lambda *a, **k: pytest.fail("check ran"))
    assert run_cli(shlex.split(line)) == 2
    captured = capsys.readouterr()
    assert "usage: " in captured.err and \
        f"unrecognized arguments: {line.split(' ', 1)[1]}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_config_file_float_keys_print_as_the_flags_do(tmp_path, capsys):
    # an integer in a config file for a float key is that float, in the
    # parameters and in the metadata the command prints
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"omega0": 10},
                               "numerics": {"lam": 1}}))
    assert run_cli(["tree", "--config", str(cfg), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    assert run_cli(["tree", "--omega0", "10", "--lam", "1",
                    "--format", "json"]) == 0
    assert from_file == capsys.readouterr().out
    assert '"omega0": 10.0' in from_file and '"lambda": 1.0' in from_file


@pytest.mark.parametrize("text", [
    b'{"params": {"n": 5}}\xff',
    b'{"params": {"C": 1' + b"0" * 5000 + b"}}",
    b'{"params": {"omega0": 1' + b"0" * 400 + b"}}",
    b'{"params": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["undecodable-byte", "5001-digit-integer", "401-digit-float-key",
        "nested-past-the-parser"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, text):
    # bytes that do not decode, an integer past Python's digit limit, an
    # integer too large for a float key, and arrays nested past the JSON
    # parser's depth: one config error each, no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert run_cli(["phase", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR config:"), lines
    assert captured.out == ""
