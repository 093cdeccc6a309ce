"""Seeded job lists and output validators for the three benchmark workloads.

A job is one request of the closed loop: ``run()`` does the timed work by
calling the netbath public API or ``netbath.cli.main(argv)``, and
``check(outcome)`` validates what came back, untimed.  Generators draw every
input from ``numpy.random.default_rng(seed)``; netbath only ever sees the
generated argv or arrays.

Each list has a fixed composition (job kinds and costly sizes), and the seed
draws the parameters that do not change the cost: model parameters within a
regime, grid endpoints and counts of the light jobs, queried nodes, pool
seeds.  That keeps ``wall_s`` comparable across seeds.

``check`` returns ``None`` for a valid outcome, ``("failed", why)`` for an
operation that did not produce a usable result (raised, non-zero exit,
output not in the documented format) and ``("wrong", why)`` for a result
that contradicts its reference.  Only the latter makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import netbath as nb
from netbath import cli


@dataclass
class Job:
    """One request: a kind for the job mix, sizes for its ranges, and code."""

    kind: str
    sizes: dict
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str] | None]
    label: str


# ---------------------------------------------------------------------------
# model formulas used to generate inputs and expectations (kept independent
# of the package so expectations do not share code with what they check)


def _omega_sq(n, omega0, C, m):
    return omega0**2 + n * C / m


def _c_star(n, omega0, m):
    return m * omega0**2 / (math.sqrt(8.0 * (n - 1)) - n)


def _lambda_pp(n, omega0, C, m):
    return math.sqrt(_omega_sq(n, omega0, C, m) + math.sqrt(8.0 * (n - 1)) * C / m)


def _lambda_star(n, omega0, C, m):
    return omega0 * math.sqrt(C / _c_star(n, omega0, m) - 1.0)


def _k_star(n, omega0, C, m, lam):
    s = lam**2 + _omega_sq(n, omega0, C, m)
    u = 8.0 * (n - 1) * C**2 / (m**2 * s**2)
    return m * s / 4.0 * u / (1.0 + math.sqrt(1.0 - u))


def _variance_gain(n, omega0, C, m, lam):
    return 4.0 * _k_star(n, omega0, C, m, lam) ** 4 / ((n - 1) ** 3 * C**4)


def _draw_params(rng, regime: str, degrees=(2, 3, 4, 5, 6)) -> dict:
    """Network parameters in the ordered (C < C*) or disordered (C > C*) regime."""
    n = int(rng.choice(degrees))
    omega0 = float(rng.uniform(0.5, 10.0))
    m = float(rng.uniform(0.5, 2.0))
    frac = rng.uniform(0.1, 0.9) if regime == "ordered" else rng.uniform(1.5, 4.0)
    return {"n": n, "omega0": round(omega0, 6), "m": round(m, 6),
            "C": round(float(frac * _c_star(n, omega0, m)), 6)}


# ---------------------------------------------------------------------------
# check workload


def check_jobs(seed: int) -> list[Job]:
    """The paper's pinned presets: the seed is recorded but changes nothing."""
    del seed

    report = Path("check-report.json")

    def run():
        report.unlink(missing_ok=True)   # never validate a previous pass's report
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["check", "--report", str(report)])
        with open(report) as fh:
            doc = json.load(fh)
        return rc, doc

    def check(outcome):
        rc, doc = outcome
        criteria = doc.get("criteria", [])
        failing = [c["number"] for c in criteria if not c.get("passed")]
        if len(criteria) != 10 or failing:
            return ("wrong", f"criteria failing: {failing} of {len(criteria)}")
        if rc != 0:
            return ("failed", f"exit code {rc}")
        return None

    return [Job("check", {"criteria": 10}, run, check, label="check --report")]


# ---------------------------------------------------------------------------
# cli-session workload

_CLI_DEFAULTS = {"n": 5, "omega0": 10.0, "C": 1.0, "m": 0.5,
                 "lambda-count": 200, "nu-count": 401, "tau-count": 1001,
                 "omega-count": 401, "T": 6.0, "sweeps": 20, "depth": 8,
                 "steps": 2000, "format": "csv", "method": "branch-cut"}

_GRID_OF = {"phase": "lambda-count", "fixed-point": "lambda-count",
            "kernel": "tau-count", "spectrum": "omega-count",
            "multiplier": "nu-count"}

README_LINES = (
    "phase --n 2 --omega0 1.0 --C 2.5 --m 1.0",
    "fixed-point --n 5 --omega0 10 --C 1 --m 0.5",
    "kernel --method branch-cut --n 20 --omega0 0.1 --C 20 --m 0.5 "
    "--tau-max 5 --tau-count 2001 --plot kernel.svg",
    "spectrum --n 5 --omega0 10 --C 1 --m 0.5",
    "multiplier --nu-min 0 --nu-max 40 --nu-count 801",
    "tree --branching 4 --depth 40 --lam 1.0",
    "finite-time --T 4.0 --beta 1.0",
    "population --lam 1.0 --pool-size 20000 --sweeps 10 --seed 7",
    "orbit --n 2 --omega0 1 --C 2.4142135623730951 --m 1 --lam 0.5",
)

SUBCOMMANDS = ("phase", "fixed-point", "kernel", "spectrum", "multiplier",
               "tree", "finite-time", "population", "orbit")


def _options(argv: list[str]) -> dict:
    opts = dict(_CLI_DEFAULTS)
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag[2:]] = value
    return opts


def _window_points(opts: dict) -> int:
    """Rows of ``finite-time``: the window grid at dt = 1/(20 lambda_pp)."""
    lpp = _lambda_pp(int(opts["n"]), float(opts["omega0"]), float(opts["C"]),
                     float(opts["m"]))
    T = float(opts["T"])
    return max(1, int(math.ceil(T * 20.0 * lpp - 1e-9))) + 1


def _expected_rows(cmd: str, opts: dict) -> tuple[int, int]:
    """(min, max) row count the command must print."""
    if cmd in _GRID_OF:
        rows = int(opts[_GRID_OF[cmd]])
        return rows, rows
    if cmd == "tree":
        return int(opts["depth"]) + 1, int(opts["depth"]) + 1
    if cmd == "finite-time":
        rows = _window_points(opts)
        return rows, rows
    if cmd == "population":
        return int(opts["sweeps"]) + 1, int(opts["sweeps"]) + 1
    if cmd == "orbit":
        return 1, int(opts["steps"]) + 1
    raise ValueError(cmd)


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


def _parse_table(text: str, fmt: str):
    """(meta, columns, rows) from CSV or strict JSON; raises ValueError."""
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject_constant)
        return doc["meta"], doc["columns"], doc["rows"]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# tool=netbath "):
        raise ValueError("missing metadata line")
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split() if "=" in tok)
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, columns, rows


def _cli_job(line: str, kind_tag: str, regime: str) -> Job:
    argv = shlex.split(line)
    cmd = argv[0]
    opts = _options(argv)
    lo, hi = _expected_rows(cmd, opts)
    kind = f"kernel:{opts['method']}" if cmd == "kernel" else cmd
    sizes = {"rows": hi, "regime": regime}
    if cmd == "finite-time":
        sizes["window_N"] = hi
    if cmd == "population":
        sizes["pool"] = int(opts.get("pool-size", 10000))
    if cmd == "kernel" and opts["method"] == "oracle":
        sizes["nodes"] = 2 ** (int(opts["depth"]) + 1) - 1
    fmt = opts["format"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def check(outcome):
        rc, text, err = outcome
        if rc != 0:
            return ("failed", f"exit code {rc}: {err.strip()[:120]}")
        try:
            meta, columns, rows = _parse_table(text, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return ("failed", f"malformed {fmt} output: {exc}")
        if any(len(row) != len(columns) for row in rows):
            return ("wrong", "ragged rows")
        if not lo <= len(rows) <= hi:
            return ("wrong", f"{len(rows)} rows, expected {lo}..{hi}")
        if cmd == "orbit" and len(rows) != hi and \
                meta.get("classification") not in ("converged", "pole"):
            return ("wrong", f"short orbit classified {meta.get('classification')}")
        return None

    return Job(kind, sizes, run, check, label=f"{kind_tag}: netbath {line}")


def _fmt_params(p: dict) -> str:
    return f"--n {p['n']} --omega0 {p['omega0']} --C {p['C']} --m {p['m']}"


def cli_session_jobs(seed: int) -> list[Job]:
    """README lines, every subcommand at its defaults, and seeded variants."""
    rng = np.random.default_rng(seed)
    lines = [(line, "readme", "pinned") for line in README_LINES]
    lines += [(cmd, "default", "ordered") for cmd in SUBCOMMANDS]
    lines += [("kernel --method bessel", "default", "ordered"),
              ("kernel --method oracle", "default", "ordered")]

    def fmt():
        return str(rng.choice(["csv", "json"]))

    def count(lo, hi):
        return int(rng.integers(lo, hi + 1))

    # The light subcommands outnumber the rest, so the median job is one
    # of them.  Three rounds of seeded draws, so that which draws a seed
    # makes moves the median less.
    for _ in range(3):
        for regime in ("ordered", "disordered"):
            for _ in range(3):
                p = _draw_params(rng, regime, degrees=(2, 3, 4))
                lines.append((f"phase {_fmt_params(p)} --lambda-count "
                              f"{count(50, 400)} --format {fmt()}", "seeded", regime))
            for _ in range(3):
                b = int(rng.integers(2, 5))
                p = _draw_params(rng, regime, degrees=(b + 1,))
                lam = rng.uniform(0.2, 3.0) * p["omega0"]
                if regime == "disordered":
                    lam = _lambda_star(b + 1, p["omega0"], p["C"], p["m"]) \
                        * rng.uniform(1.2, 3.0)
                lines.append((f"tree {_fmt_params(p)} --branching {b} --depth "
                              f"{count(10, 80)} --lam {lam:.6g} --format {fmt()}",
                              "seeded", regime))
            # Both formats in both regimes: below lambda* the JSON table has
            # rows without a fixed point, which is where non-finite values show.
            for form in ("csv", "json"):
                p = _draw_params(rng, regime, degrees=(2, 3, 4))
                lines.append((f"fixed-point {_fmt_params(p)} --lambda-count "
                              f"{count(50, 400)} --format {form}", "seeded", regime))
        for regime in ("ordered", "ordered", "disordered"):
            p = _draw_params(rng, regime, degrees=(2, 3, 4))
            lam = p["omega0"] * rng.uniform(0.05, 3.0)
            if regime == "disordered":   # below lambda*: the orbit wanders
                lam = _lambda_star(p["n"], p["omega0"], p["C"], p["m"]) \
                    * rng.uniform(0.2, 0.9)
            lines.append((f"orbit {_fmt_params(p)} --lam {lam:.6g} --steps "
                          f"{count(500, 3000)} --format {fmt()}", "seeded", regime))
        for method, tau_max in (("branch-cut", 10.0), ("branch-cut", 10.0),
                                ("bessel", 5.0), ("bessel", 5.0)):
            p = _draw_params(rng, "ordered")
            lines.append((f"kernel --method {method} {_fmt_params(p)} --tau-max "
                          f"{rng.uniform(1.0, tau_max):.4g} --tau-count "
                          f"{count(200, 3000)} --format {fmt()}", "seeded", "ordered"))
        for _ in range(2):
            p = _draw_params(rng, "ordered", degrees=(4, 5, 6))
            lines.append((f"kernel --method oracle {_fmt_params(p)} --tau-count "
                          f"{count(200, 3000)} --format {fmt()}", "seeded", "ordered"))
        for _ in range(3):
            p = _draw_params(rng, "ordered")
            top = 2.0 * _lambda_pp(p["n"], p["omega0"], p["C"], p["m"])
            lines.append((f"spectrum {_fmt_params(p)} --omega-max {top:.6g} "
                          f"--omega-count {count(100, 1000)} --format {fmt()}",
                          "seeded", "ordered"))
        for _ in range(3):
            p = _draw_params(rng, "ordered")
            lines.append((f"multiplier {_fmt_params(p)} --nu-count "
                          f"{count(100, 1000)} --format {fmt()}", "seeded", "ordered"))
    # Twenty sweeps, the default: most draws (about 95%) contract the pool
    # spread below float resolution by then, which is where the histogram
    # defect shows.  Two lines, outside the rounds: each draw that escapes
    # the defect moves ok_ratio by one job, so more lines would spread it
    # across seeds beyond its bound.
    for _ in range(2):
        p = _draw_params(rng, "ordered", degrees=(3, 4, 5))
        lines.append((f"population {_fmt_params(p)} --lam "
                      f"{rng.uniform(0.1, 2.0) * p['omega0']:.6g} --pool-size "
                      f"{count(5000, 20000)} --sweeps 20 --seed "
                      f"{count(0, 10**6)} --format {fmt()}", "seeded", "ordered"))
    # Window length sets the cost, so the T mix is fixed: with the README
    # and default lines, eleven finite-time jobs set the tail percentile.
    for T in (4, 4, 4, 4, 4, 4, 6, 8, 8):
        lines.append((f"finite-time --T {T} --beta {rng.uniform(0.2, 5.0):.4g} "
                      f"--format {fmt()}", "seeded", "ordered"))
    order = rng.permutation(len(lines))
    return [_cli_job(*lines[i]) for i in order]


# ---------------------------------------------------------------------------
# network-scale workload

# Every regular-tree shape (branching, depth) with 10^3 .. 9*10^4 nodes,
# each once, grouped into size tiers for the job mix.
TREE_SHAPES = tuple((b, d) for b in (2, 3, 4, 5) for d in range(1, 20)
                    if 10**3 <= (b ** (d + 1) - 1) // (b - 1) <= 9 * 10**4)
TREE_TIERS = ((5_000, "S"), (25_000, "M"), (9 * 10**4, "L"))
DISORDER_POOL = 20_000
DISORDER_JOBS = 4
UNIFORM_POOLS = (100_000, 300_000, 1_000_000)
UNIFORM_SWEEPS = 3


def _edge_update(x, g0, c_half):
    return c_half * g0 / (1.0 - g0 * x)


def _tree_reference(b: int, d: int, p: dict, lam: np.ndarray, levels):
    """Root message and node environments from the iterated scalar map.

    ``up[h]`` is the message a node with a subtree of height h sends up;
    ``down[l]`` the message a node at depth l receives from its parent.
    """
    g0 = (2.0 / p["m"]) / (lam**2 + _omega_sq(b + 1, p["omega0"], p["C"], p["m"]))
    c_half = p["C"] ** 2 / 2.0
    up = [_edge_update(0.0, g0, c_half)]
    for _ in range(d):
        up.append(_edge_update(b * up[-1], g0, c_half))
    down = [np.zeros_like(g0)]
    for level in range(1, d + 1):
        down.append(_edge_update((b - 1) * up[d - level] + down[level - 1],
                                 g0, c_half))
    envs = []
    for level in levels:
        env = b * up[d - level - 1] if level < d else np.zeros_like(g0)
        envs.append(env + down[level])
    return up[d], envs


def _tree_job(rng, b: int, d: int) -> Job:
    p = _draw_params(rng, "ordered", degrees=(b + 1,))
    params = nb.derive_params(p["n"], p["omega0"], p["C"], p["m"])
    lam = np.logspace(math.log10(rng.uniform(0.01, 0.1)) + math.log10(p["omega0"]),
                      math.log10(rng.uniform(10.0, 100.0)) + math.log10(p["omega0"]),
                      50)
    # Two queried nodes: one strictly inside the tree, one anywhere.
    levels = [int(rng.integers(1, d)), int(rng.integers(0, d + 1))]
    nodes = [(b**lv - 1) // (b - 1) + int(rng.integers(0, b**lv)) for lv in levels]
    n_nodes = (b ** (d + 1) - 1) // (b - 1)
    tier = next(name for top, name in TREE_TIERS if n_nodes <= top)

    def run():
        tree = nb.build_tree(b, d)
        root = nb.root_output_message(tree, params, lam)
        envs = [nb.output_environment(tree, params, v, lam).values for v in nodes]
        return tree.n_nodes, root, envs

    def check(outcome):
        built, root, envs = outcome
        if built != n_nodes:
            return ("wrong", f"tree has {built} nodes, expected {n_nodes}")
        ref_root, ref_envs = _tree_reference(b, d, p, lam, levels)
        worst = float(np.max(np.abs(root - ref_root) / np.abs(ref_root)))
        for got, ref in zip(envs, ref_envs):
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
        if not worst <= 1e-9:
            return ("wrong", f"sweep differs from scalar map by {worst:.2e}")
        return None

    return Job(f"tree:{tier}", {"nodes": n_nodes, "lambda_points": lam.size,
                                "branching": b}, run, check,
               label=f"tree b={b} d={d} nodes {nodes}")


def _population_job(rng, pool: int, disorder: str) -> Job:
    """Pool dynamics near the replica-symmetric stability edge.

    C and lambda are drawn so the variance gain sits in [0.02, 0.5]: the
    pool's spread then contracts measurably over the sweeps, as in the
    stability analysis the population layer serves.
    """
    n, omega0, m = 4, 1.0, 1.0
    while True:
        C = float(rng.uniform(0.5, 0.95)) * _c_star(n, omega0, m)
        lam = float(rng.uniform(0.05, 0.5))
        gain = _variance_gain(n, omega0, C, m, lam)
        if 0.02 <= gain <= 0.5:
            break
    params = nb.derive_params(n, omega0, C, m)
    k_branch = _k_star(n, omega0, C, m, lam) / (n - 1)
    if disorder == "coupling":
        spec = nb.DisorderSpec(coupling=("uniform", 0.8 * C, 1.2 * C))
        sweeps = 1
    elif disorder == "degree":
        spec = nb.DisorderSpec(degree=("two_point", n - 1, n + 1, 0.5))
        sweeps = 1
    else:
        spec = None
        sweeps = UNIFORM_SWEEPS
    pool_seed = int(rng.integers(0, 2**31))
    sigma = 0.01 * k_branch

    def run():
        pop = nb.population_init(params, lam, size=pool, seed=pool_seed,
                                 sigma=sigma, disorder=spec)
        for _ in range(sweeps):
            pop = nb.population_step(pop)
        mean, var, _ = nb.population_stats(pop)
        return pop, mean, var

    def check(outcome):
        pop, mean, var = outcome
        if pop.samples.size != pool or pop.sweeps != sweeps:
            return ("wrong", f"pool {pop.samples.size} after {pop.sweeps} sweeps")
        if not (np.all(np.isfinite(pop.samples)) and math.isfinite(mean)
                and math.isfinite(var) and var >= 0.0):
            return ("wrong", "non-finite samples or statistics")
        return None

    kind = f"population:{disorder}"
    return Job(kind, {"pool": pool, "sweeps": sweeps, "gain": round(gain, 3)},
               run, check, label=f"{kind} pool {pool} n={n} lam={lam:.3g}")


def network_scale_jobs(seed: int) -> list[Job]:
    """Tree sweeps from 10^3 to 9*10^4 nodes and population pools to 10^6."""
    rng = np.random.default_rng(seed)
    jobs = [_tree_job(rng, b, d) for b, d in TREE_SHAPES]
    for disorder in ("coupling", "degree"):
        jobs += [_population_job(rng, DISORDER_POOL, disorder)
                 for _ in range(DISORDER_JOBS)]
    jobs += [_population_job(rng, pool, "uniform") for pool in UNIFORM_POOLS]
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ---------------------------------------------------------------------------

WORKLOADS = {
    # oracle (dense and sparse solves, eigh) and finite_time dominate;
    # the headline end-to-end number of the package.
    "check": check_jobs,
    # what users type: finite_time sets the tail, light subcommands the
    # median; oracle barely runs, so it is the bypass for oracle changes.
    "cli-session": cli_session_jobs,
    # tree_bp and rs at sizes neither the CLI nor check reaches; no oracle
    # or finite_time, so it predicts no change for their optimisations.
    "network-scale": network_scale_jobs,
}


def warm_up(workload: str) -> None:
    """Touch the code paths a workload needs, untimed, before its first job."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if workload in ("check", "cli-session"):
            cli.main(["phase", "--lambda-count", "3"])
            cli.main(["kernel", "--method", "bessel", "--tau-count", "11",
                      "--tau-max", "0.1"])
            cli.main(["finite-time", "--T", "0.2"])
        if workload == "check":
            import netbath.acceptance  # noqa: F401  (loaded lazily by check)
            params = nb.derive_params(3, 1.0, 0.2, 1.0)
            tree = nb.build_tree(2, 3)
            nb.oracle_kernel_laplace(tree, params, 1.0)
            nb.oracle_kernel_laplace(tree, params, 1.0, dense_limit=0)
            nb.mode_decomposition(tree, params)
        if workload == "network-scale":
            params = nb.derive_params(3, 1.0, 0.2, 1.0)
            tree = nb.build_tree(2, 3)
            nb.output_environment(tree, params, 1, np.array([0.5, 1.0]))
            pop = nb.population_init(params, 1.0, size=1000, seed=0, sigma=1e-3)
            nb.population_stats(nb.population_step(pop))
