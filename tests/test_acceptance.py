"""Acceptance gate: every criterion at its stated tolerance.

A single session-scoped run of the ``check`` subcommand (in a subprocess,
exactly as a user would invoke it) produces the JSON report; each test below
asserts one criterion from that report and prints its pass/fail line.
Criterion 11 is the run itself: exit status 0 in under five minutes.
"""

import json
import subprocess
import sys
import time

import pytest

from netbath import acceptance

TOLERANCES = {
    1: {"max_rel_diff": 1e-10, "max_residual": 1e-12},
    2: {"rel_rms": 1e-4},
    3: {"max_rel_err": 1e-6},
    4: {"max_rel_diff": 1e-10},
    5: {"err_depth_400": 1e-2},
    6: {"band_dev": 1e-12},
    8: {"identity_dev": 1e-12, "contraction_err_n2": 0.2,
        "contraction_err_n3": 0.2, "contraction_err_n5": 0.2},
    9: {"rel_err": 0.01},
    10: {"closure_err": 1e-5, "response_rms": 1e-6},
}

RUNTIME_LIMITS = {1: 1.0, 2: 30.0, 3: 10.0, 4: 60.0}


@pytest.fixture(scope="session")
def check_report(tmp_path_factory):
    report = tmp_path_factory.mktemp("acceptance") / "report.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "netbath.cli", "check", "--report",
         str(report)],
        capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    assert report.exists(), proc.stderr
    doc = json.loads(report.read_text())
    doc["_exit_code"] = proc.returncode
    doc["_wall_time"] = wall
    doc["_stdout"] = proc.stdout
    doc["_stderr"] = proc.stderr
    return doc


def _criterion(report, number):
    for c in report["criteria"]:
        if c["number"] == number:
            return c
    raise AssertionError(f"criterion {number} missing from report")


@pytest.mark.parametrize("number,name", [
    (1, "fixed-point closure"),
    (2, "two-route inversion"),
    (3, "forward-Laplace closure"),
    (4, "oracle equivalence"),
    (5, "finite-size convergence"),
    (6, "band multiplier"),
    (7, "spectral support"),
    (8, "RS stability"),
    (9, "disordered-phase onset"),
    (10, "finite-time consistency"),
])
def test_criterion(check_report, number, name):
    crit = _criterion(check_report, number)
    tag = "PASS" if crit["passed"] else "FAIL"
    print(f"\n{tag} [{number:2d}] {name}: {crit['details']}")
    assert crit["name"] == name
    assert crit["passed"], crit["details"]
    for metric, limit in TOLERANCES.get(number, {}).items():
        assert crit["metrics"][metric] <= limit, (metric, crit["metrics"])
    if number in RUNTIME_LIMITS:
        assert crit["runtime_s"] < RUNTIME_LIMITS[number]
    if number == 5:
        m = crit["metrics"]
        assert m["err_depth_400"] < m["err_depth_200"]
    if number == 6:
        assert crit["metrics"]["far_max"] < 1.0
        assert crit["metrics"]["global_max"] <= 2.0 + 1e-12


def test_criterion_11_check_subcommand(check_report):
    ok = check_report["_exit_code"] == 0 and check_report["_wall_time"] < 300.0
    tag = "PASS" if ok else "FAIL"
    print(f"\n{tag} [11] check subcommand: exit "
          f"{check_report['_exit_code']}, wall {check_report['_wall_time']:.1f} s "
          f"(< 300 s)")
    assert check_report["_exit_code"] == 0
    assert check_report["_wall_time"] < 300.0
    assert check_report["total_runtime_s"] < 300.0
    assert all(c["passed"] for c in check_report["criteria"])


def test_check_stdout_holds_no_wall_time(check_report):
    # wall times go to stderr, so identical runs print identical stdout
    expect = "".join(
        f"{'PASS' if c['passed'] else 'FAIL'} [{c['number']:2d}] "
        f"{c['name']}: {c['details']}\n" for c in check_report["criteria"])
    assert check_report["_stdout"] == expect
    assert "total runtime" in check_report["_stderr"]


def test_run_all_fails_a_slow_or_raising_criterion(monkeypatch):
    # the runner alone times, numbers and gates: a criterion past its limit
    # fails, one that raises fails with the exception as its details
    def slow():
        time.sleep(0.05)
        return acceptance._result("slow", True, "ok")

    def quick():
        return acceptance._result("quick", True, "ok", figure=1.0)

    def boom():
        raise ValueError("bad input")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (slow, quick, boom))
    monkeypatch.setattr(acceptance, "RUNTIME_LIMITS", {1: 0.01, 2: 10.0})
    seen = []
    results, total = acceptance.run_all(report=seen.append)
    assert seen == results and total >= results[0].runtime >= 0.05
    assert [r.number for r in results] == [1, 2, 3]
    assert [r.line() for r in results] == [
        "FAIL [ 1] slow: ok, runtime limit 0.01 s",
        "PASS [ 2] quick: ok, runtime limit 10 s",
        "FAIL [ 3] boom: raised ValueError: bad input"]
    assert results[1].as_dict()["metrics"] == {"figure": 1.0}
