"""Command-line surface.

One subcommand per capability: ``phase``, ``fixed-point``, ``kernel``,
``spectrum``, ``multiplier``, ``tree``, ``finite-time``, ``population``,
``orbit`` and ``check``.  Outputs are plain comma-separated tables with
``#``-prefixed metadata lines (17 significant digits, byte-reproducible for a
given config and seed), or a JSON object with ``--format json``.  A JSON
config file supplies defaults; explicit flags override it.

Exit codes: 0 success, 2 config error or a size refused before allocating,
3 domain error, 4 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import AccuracyError, ConfigError, DomainError, NetbathError, \
    SizeError
from .finite_time import TwoTimeKernel, thermal_init, time_grid, twinning_solve, \
    vernon_imag_finite, vernon_real_full, bare_response
from .laplace import closed_form_fixed_point, iterate_fixed_point, \
    quadratic_residual, real_multiplier
from .model import critical_coupling, derive_params, fixed_point_exists, \
    lambda_star, sqrt_argument
from .oracle import oracle_time_kernel
from .rs import map_orbit, population_init, population_step, population_stats, \
    variance_gain
from .timedomain import bessel_kernel, branch_cut_kernel, spectral_density
from .tree_bp import build_tree, depth_convergence

TOOL = "netbath"

_DEFAULTS = {
    "params": {"n": 5, "omega0": 10.0, "C": 1.0, "m": 0.5},
    "lambda_grid": {"min": 0.1, "max": 100.0, "count": 200, "scale": "log"},
    "nu_grid": {"min": 0.0, "max": 40.0, "count": 401, "scale": "linear"},
    "tau_grid": {"min": 0.0, "max": 5.0, "count": 1001, "scale": "linear"},
    "omega_grid": {"min": 0.0, "max": 40.0, "count": 401, "scale": "linear"},
    "numerics": {"tol": 1e-12, "max_iter": 10000, "quad_order": None,
                 "dt": None, "T": 6.0, "beta": 1.0, "pool_size": 10000,
                 "seed": 0, "sweeps": 20, "sigma_rel": 0.01, "lam": 1.0,
                 "x0": 0.0, "steps": 2000, "depth": 8, "branching": 2},
    "output": {"format": "csv", "plot": None, "path": None},
}


def _merge(base: dict, update: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, val in update.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, dict):
            for sub, sval in val.items():
                if sub not in out[key]:
                    raise ConfigError(f"unknown config key {key}.{sub!r}")
                out[key][sub] = sval
        else:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = _DEFAULTS
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge(cfg, data)
    return _merge(cfg, overrides)


def _grid(spec: dict, name: str) -> np.ndarray:
    lo, hi, count = spec["min"], spec["max"], int(spec["count"])
    if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ConfigError(f"invalid {name}: {spec}")
    if spec.get("scale", "linear") == "log":
        if lo <= 0:
            raise ConfigError(f"log-scale {name} needs min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def _params(cfg: dict):
    p = cfg["params"]
    return derive_params(int(p["n"]), float(p["omega0"]), float(p["C"]),
                         float(p["m"]))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return f"{float(value):.17g}"


def _json_value(value):
    """A table cell or metadata value as strict JSON; nan and inf become null."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else None


def write_table(columns, rows, meta: dict, cfg: dict):
    """Emit the table per the output block; returns the rendered text.

    Column format: one metadata line (tool, version, params, seed, plus any
    subcommand metadata as space-separated key=value tokens), the column-name
    line, then the rows.
    """
    out = cfg["output"]
    p = cfg["params"]
    params_str = f"n={p['n']},omega0={_fmt(p['omega0'])},C={_fmt(p['C'])},m={_fmt(p['m'])}"
    header = (f"# tool={TOOL} version={__version__} params={params_str} "
              f"seed={cfg['numerics']['seed']}")
    for key in sorted(meta):
        header += f" {key}={_fmt(meta[key])}"
    if out["format"] == "json":
        doc = {"tool": TOOL, "version": __version__,
               "params": {k: _json_value(v) for k, v in p.items()},
               "seed": cfg["numerics"]["seed"],
               "meta": {k: _json_value(v) for k, v in meta.items()},
               "columns": list(columns),
               "rows": [[_json_value(v) for v in row] for row in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif out["format"] == "csv":
        lines = [header, ",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown output format {out['format']!r}")
    if out["path"]:
        with open(out["path"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def write_svg(path: str, xs, series, labels, title: str):
    """Minimal static polyline plot; deterministic byte output."""
    width, height, pad = 720, 480, 50
    xs = np.asarray(xs, dtype=float)
    ys_all = np.concatenate([np.asarray(s, dtype=float) for s in series])
    finite = np.isfinite(ys_all)
    ylo, yhi = (ys_all[finite].min(), ys_all[finite].max()) if finite.any() else (0, 1)
    if yhi == ylo:
        yhi = ylo + 1.0
    xlo, xhi = xs.min(), xs.max()
    if xhi == xlo:
        xhi = xlo + 1.0

    def sx(x):
        return pad + (x - xlo) / (xhi - xlo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ylo) / (yhi - ylo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width//2}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" '
             f'y2="{height-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" '
             f'stroke="black"/>']
    for k, (ys, label) in enumerate(zip(series, labels)):
        ys = np.asarray(ys, dtype=float)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{width-pad-8}" y="{pad + 16 * (k + 1)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _maybe_plot(cfg, xs, series, labels, title):
    if cfg["output"]["plot"]:
        write_svg(cfg["output"]["plot"], xs, series, labels, title)


# ---------------------------------------------------------------------------
# subcommands


def cmd_phase(cfg):
    params = _params(cfg)
    lam = _grid(cfg["lambda_grid"], "lambda_grid")
    c_star = critical_coupling(params.n, params.omega0, params.m)
    l_star = lambda_star(params)
    rows = []
    for x in lam:
        arg = float(sqrt_argument(params, x))
        rows.append((x, arg, bool(arg >= 0.0)))
    meta = {"C_star": "none" if c_star is None else c_star,
            "lambda_star": "none" if l_star is None else l_star}
    _maybe_plot(cfg, lam, [np.array([r[1] for r in rows])], ["sqrt argument"],
                "fixed-point existence scan")
    return write_table(("lambda", "sqrt_argument", "exists"), rows, meta, cfg)


def cmd_fixed_point(cfg):
    params = _params(cfg)
    lam = _grid(cfg["lambda_grid"], "lambda_grid")
    num = cfg["numerics"]
    rows = []
    worst = 0.0
    for x in lam:
        if not fixed_point_exists(params, x):
            rows.append((x, math.nan, math.nan, 0, False, math.nan, math.nan,
                         "no-fixed-point"))
            continue
        closed = closed_form_fixed_point(params, x)
        it = iterate_fixed_point(params, x, tol=num["tol"],
                                 max_iter=int(num["max_iter"]))
        rel = abs(it.value - closed) / abs(closed) if closed else 0.0
        worst = max(worst, rel)
        rows.append((x, closed, it.value, it.iterations, it.converged, rel,
                     quadratic_residual(params, x, closed), "ok"))
    meta = {"max_rel_diff": worst}
    _maybe_plot(cfg, lam, [np.array([r[1] for r in rows])], ["k*"],
                "uniform fixed point")
    return write_table(("lambda", "k_closed", "k_iterated", "iterations",
                        "converged", "rel_diff", "quad_residual", "status"),
                       rows, meta, cfg)


def cmd_kernel(cfg, method: str):
    params = _params(cfg)
    tau = _grid(cfg["tau_grid"], "tau_grid")
    num = cfg["numerics"]
    if method == "branch-cut":
        tk = branch_cut_kernel(params, tau, quad_order=num["quad_order"])
    elif method == "bessel":
        tk = bessel_kernel(params, tau, fine_step=num["dt"])
    elif method == "oracle":
        tree = build_tree(int(num["branching"]), int(num["depth"]))
        tk = oracle_time_kernel(tree, params, tau)
    else:
        raise ConfigError(f"unknown kernel method {method!r}")
    meta = {"method": method}
    _maybe_plot(cfg, tau, [tk.values], [f"k ({method})"], "time-domain kernel")
    return write_table(("tau", "k"), list(zip(tau, tk.values)), meta, cfg)


def cmd_spectrum(cfg):
    params = _params(cfg)
    omega = _grid(cfg["omega_grid"], "omega_grid")
    j = spectral_density(params, omega)
    meta = {"band_lo": params.lambda_pm, "band_hi": params.lambda_pp}
    _maybe_plot(cfg, omega, [j], ["J"], "environment spectral density")
    return write_table(("omega", "J"), list(zip(omega, j)), meta, cfg)


def cmd_multiplier(cfg):
    params = _params(cfg)
    nu = _grid(cfg["nu_grid"], "nu_grid")
    gain = real_multiplier(params, nu)
    gain = np.atleast_1d(gain)
    rows = []
    for x, a in zip(nu, gain):
        if params.band_defined and params.lambda_pm <= abs(x) <= params.lambda_pp:
            region = "band"
        else:
            region = "outside"
        rows.append((x, a, region))
    _maybe_plot(cfg, nu, [gain], ["A"], "noise-kernel gain per sweep")
    return write_table(("nu", "gain", "region"), rows, {}, cfg)


def cmd_tree(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    res = depth_convergence(params, int(num["branching"]), int(num["depth"]),
                            float(num["lam"]))
    rows = []
    for d, r in enumerate(res):
        # no predecessor at depth 0; underflowed residuals leave no ratio
        ratio = res[d] / res[d - 1] if d and res[d - 1] > 0.0 else "none"
        rows.append((d, r, ratio))
    meta = {"lambda": num["lam"], "branching": int(num["branching"])}
    _maybe_plot(cfg, np.arange(len(res)), [np.log10(np.maximum(res, 1e-300))],
                ["log10 residual"], "depth convergence")
    return write_table(("depth", "residual", "ratio"), rows, meta, cfg)


def cmd_finite_time(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    dt = num["dt"] or 1.0 / (20.0 * params.lambda_pp)
    times = time_grid(float(num["T"]), float(dt))
    kin = branch_cut_kernel(params, times - times[0])
    upstream = TwoTimeKernel.from_stationary(times, lambda u: np.interp(
        u, kin.tau, kin.values))
    res = twinning_solve(upstream, params)
    kI_out = vernon_imag_finite(res.G, params.C)
    state = thermal_init(float(num["beta"]), params)
    kR_boundary = vernon_real_full(None, res.G, state, params.C)
    u = times - times[0]
    rows = list(zip(u, bare_response(params, u), res.G.values[0],
                    kI_out.values[0], kR_boundary.values[0]))
    meta = {"solver": res.G.meta["solver"], "residual": res.residual,
            "beta": num["beta"]}
    _maybe_plot(cfg, u, [res.G.values[0]], ["G(tau, u)"],
                "dressed response at the window start")
    return write_table(("u", "G0", "G", "kI_out", "kR_boundary"), rows, meta,
                       cfg)


def cmd_population(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    lam = float(num["lam"])
    gain = variance_gain(params, lam)
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    pop = population_init(params, lam, size=int(num["pool_size"]),
                          seed=int(num["seed"]),
                          sigma=float(num["sigma_rel"]) * abs(k_branch))
    rows = []
    for sweep in range(int(num["sweeps"]) + 1):
        mean, var, _ = population_stats(pop)
        rows.append((sweep, mean, var, pop.rejected))
        if sweep < int(num["sweeps"]):
            pop = population_step(pop)
    meta = {"lambda": lam, "variance_gain": gain, "k_branch": k_branch}
    _maybe_plot(cfg, np.array([r[0] for r in rows]),
                [np.log10(np.maximum([r[2] for r in rows], 1e-300))],
                ["log10 variance"], "population variance trajectory")
    return write_table(("sweep", "mean", "variance", "rejected"), rows, meta,
                       cfg)


def cmd_orbit(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    rep = map_orbit(params, float(num["lam"]), x0=float(num["x0"]),
                    steps=int(num["steps"]), tol=num["tol"])
    rows = [(i, v, "ok" if math.isfinite(v) else "pole")
            for i, v in enumerate(rep.orbit)]
    meta = {"classification": rep.classification,
            "period": "none" if rep.period is None else rep.period,
            "diameter": rep.diameter}
    _maybe_plot(cfg, np.array([r[0] for r in rows]), [rep.orbit], ["k"],
                "cavity-map orbit")
    return write_table(("iteration", "k", "status"), rows, meta, cfg)


def cmd_check(cfg, report_path: str | None):
    from .acceptance import run_all
    def report(res):
        print(res.line(), flush=True)
        print(f"[{res.number:2d}] {res.runtime:.1f} s", file=sys.stderr, flush=True)

    # Wall times go to stderr so that stdout is the same bytes on every run.
    results, total = run_all(report=report)
    print(f"total runtime {total:.1f} s", file=sys.stderr)
    if report_path:
        doc = {"tool": TOOL, "version": __version__, "total_runtime_s": total,
               "criteria": [res.as_dict() for res in results]}
        with open(report_path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not all(res.passed for res in results):
        raise AccuracyError("one or more acceptance criteria failed")
    return ""


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--n", type=int, help="graph degree")
    sub.add_argument("--omega0", type=float, help="bare frequency")
    sub.add_argument("--C", type=float, help="edge coupling")
    sub.add_argument("--m", type=float, help="oscillator mass")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")
    sub.add_argument("--output", help="output file (default stdout)")
    sub.add_argument("--plot", help="write an SVG polyline plot here")
    sub.add_argument("--seed", type=int, help="RNG seed")
    for grid in ("lambda", "nu", "tau", "omega"):
        sub.add_argument(f"--{grid}-min", type=float, help=argparse.SUPPRESS)
        sub.add_argument(f"--{grid}-max", type=float, help=argparse.SUPPRESS)
        sub.add_argument(f"--{grid}-count", type=int, help=argparse.SUPPRESS)
        sub.add_argument(f"--{grid}-scale", choices=("linear", "log"),
                         help=argparse.SUPPRESS)
    for key, typ in (("tol", float), ("max-iter", int), ("quad-order", int),
                     ("dt", float), ("T", float), ("beta", float),
                     ("pool-size", int), ("sweeps", int), ("sigma-rel", float),
                     ("lam", float), ("x0", float), ("steps", int),
                     ("depth", int), ("branching", int)):
        sub.add_argument(f"--{key}", type=typ, help=argparse.SUPPRESS)


def _collect_overrides(args: argparse.Namespace) -> dict:
    over: dict = {}

    def put(block, key, val):
        if val is not None:
            over.setdefault(block, {})[key] = val

    for key in ("n", "omega0", "C", "m"):
        put("params", key, getattr(args, key))
    for grid in ("lambda", "nu", "tau", "omega"):
        for part in ("min", "max", "count", "scale"):
            put(f"{grid}_grid", part, getattr(args, f"{grid}_{part}"))
    for key in ("tol", "max_iter", "quad_order", "dt", "T", "beta",
                "pool_size", "sweeps", "sigma_rel", "lam", "x0", "steps",
                "depth", "branching", "seed"):
        put("numerics", key, getattr(args, key))
    put("output", "format", args.format)
    put("output", "path", args.output)
    put("output", "plot", args.plot)
    return over


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Harmonic networks as effective quantum environments")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("phase", "fixed-point", "spectrum", "multiplier", "tree",
                 "finite-time", "population", "orbit"):
        sub = subs.add_parser(name)
        _add_common(sub)
    kern = subs.add_parser("kernel")
    kern.add_argument("--method", choices=("branch-cut", "bessel", "oracle"),
                      default="branch-cut")
    _add_common(kern)
    chk = subs.add_parser("check")
    chk.add_argument("--report", help="write a JSON report here")
    _add_common(chk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code.
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        command = args.command
        if command == "phase":
            cmd_phase(cfg)
        elif command == "fixed-point":
            cmd_fixed_point(cfg)
        elif command == "kernel":
            cmd_kernel(cfg, args.method)
        elif command == "spectrum":
            cmd_spectrum(cfg)
        elif command == "multiplier":
            cmd_multiplier(cfg)
        elif command == "tree":
            cmd_tree(cfg)
        elif command == "finite-time":
            cmd_finite_time(cfg)
        elif command == "population":
            cmd_population(cfg)
        elif command == "orbit":
            cmd_orbit(cfg)
        elif command == "check":
            cmd_check(cfg, args.report)
        else:  # pragma: no cover
            raise ConfigError(f"unknown subcommand {command!r}")
    except ConfigError as exc:
        print(f"ERROR config: {exc}", file=sys.stderr)
        return 2
    except SizeError as exc:
        print(f"ERROR size: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"ERROR accuracy: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"ERROR domain: {exc}", file=sys.stderr)
        return 3
    except NetbathError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
