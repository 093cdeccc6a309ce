import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netbath import cli


def run_cli(args):
    return cli.main(args)


def read_lines(path):
    return path.read_text().splitlines()


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
    # accuracy error -> 4 (bessel fine step too coarse)
    assert run_cli(["kernel", "--method", "bessel", "--dt", "1.0",
                    "--output", str(tmp_path / "y.csv")]) == 4
    # unknown subcommand -> argparse usage error 2
    assert run_cli(["frobnicate"]) == 2


def test_size_refusal_exits_2(tmp_path, capsys):
    # 21,845-node tree: the dense eigendecomposition would need 14 GiB
    assert run_cli(["kernel", "--method", "oracle", "--branching", "4",
                    "--depth", "7", "--output", str(tmp_path / "k.csv")]) == 2
    # about 44,000 window points: refused before the grid is built
    assert run_cli(["finite-time", "--T", "200", "--output",
                    str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err.count("ERROR size:") == 2


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


@pytest.mark.parametrize("line, code, label", [
    ("tree --depth -1", 2, "config"),
    ("population --pool-size -5", 2, "config"),
    ("population --seed -1", 2, "config"),
    ("population --sweeps -1", 2, "config"),
    ("population --sigma-rel -1", 2, "config"),
    ("finite-time --dt 0", 2, "config"),
    ("kernel --quad-order 0", 2, "config"),
    ("kernel --method bessel --dt 0", 2, "config"),
    ("orbit --steps -1", 2, "config"),
    ("fixed-point --max-iter -1", 2, "config"),
    ("phase --lambda-count 0", 2, "config"),
    ("finite-time --T 0.0001", 2, "shape"),
    # non-finite values, refused where each is checked
    ("finite-time --T nan", 2, "shape"),
    ("finite-time --T inf", 2, "shape"),
    ("finite-time --beta nan", 3, "domain"),
    ("orbit --lam nan", 3, "domain"),
    ("tree --lam inf", 3, "domain"),
    ("fixed-point --tol nan", 3, "domain"),
    ("orbit --x0 nan", 3, "domain"),
    # oversized requests, refused before allocating
    (f"kernel --tau-count {10**11}", 2, "size"),
    ("kernel --method bessel --tau-max 1e9", 2, "size"),
    (f"population --pool-size {10**11}", 2, "size"),
    # an infinite beta is the ground state
    ("finite-time --beta inf --T 0.5", 0, None),
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


def test_oversized_requests_refused_before_allocating(tmp_path, capsys):
    # each would need hundreds of GiB: a grid, the Bessel convolution's
    # (t x node) matrix, a population pool
    out = str(tmp_path / "x.csv")
    tracemalloc.start()
    try:
        for line in (f"kernel --tau-count {10**11}",
                     "kernel --method bessel --tau-max 1e9",
                     f"population --pool-size {10**11}"):
            assert run_cli(shlex.split(line) + ["--output", out]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err.count("ERROR size:") == 3


def test_shape_and_instability_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # pool below the population floor, and a tau grid off the fine grid
    assert run_cli(["population", "--pool-size", "10", "--output", out]) == 2
    assert run_cli(["kernel", "--method", "bessel", "--tau-min", "0.0001",
                    "--tau-count", "5", "--output", out]) == 2
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
