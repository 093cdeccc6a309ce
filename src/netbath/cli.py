"""Command-line surface.

One subcommand per capability: ``phase``, ``fixed-point``, ``kernel``,
``spectrum``, ``multiplier``, ``tree``, ``finite-time``, ``population``,
``orbit`` and ``check``.  Outputs are plain comma-separated tables with
``#``-prefixed metadata lines (17 significant digits, byte-reproducible for a
given config and seed), or a JSON object with ``--format json``.  A JSON
config file supplies defaults; explicit flags override it.

One table, ``_KEYS``, names every config key once, with its type, flag,
default and lower bound: it builds the flags, collects them as overrides and
checks every value, from a flag or a config file, against type and bound.

Exit codes: 0 success; 2 config error (an unwritable output path included),
incompatible shapes, or a size refused before allocating; 3 domain error or
an unstable mode; 4 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import AccuracyError, ConfigError, DomainError, \
    InstabilityError, NetbathError, ShapeError, SizeError, _check_bytes
from .finite_time import TwoTimeKernel, thermal_init, time_grid, twinning_solve, \
    vernon_imag_finite, bare_response, _noise_kernel
from .laplace import _orbit_ends, closed_form_fixed_point, map_orbit, \
    quadratic_residual, real_multiplier
from .model import critical_coupling, derive_params, fixed_point_exists, \
    lambda_star, sqrt_argument
from .oracle import oracle_time_kernel
from .rs import population_init, population_step, variance_gain
from .timedomain import bessel_kernel, branch_cut_kernel, spectral_density
from .tree_bp import build_tree, depth_convergence

TOOL = "netbath"

# (block, key, type, flag, default, bound, help): every config key once.  The
# type is int, float, str or a tuple of allowed strings; a key whose default
# is None may be null.  A bound such as ">= 0" or "> 0" refuses every value
# that fails it; keys the model validates itself (n, m, tol, beta, ...) have
# none, so that their domain errors keep their exit code.
_KEYS = (
    ("params", "n", int, "--n", 5, None, "graph degree"),
    ("params", "omega0", float, "--omega0", 10.0, None, "bare frequency"),
    ("params", "C", float, "--C", 1.0, None, "edge coupling"),
    ("params", "m", float, "--m", 0.5, None, "oscillator mass"),
    ("output", "format", ("csv", "json"), "--format", "csv", None,
     "output format"),
    ("output", "path", str, "--output", None, None,
     "output file (default stdout)"),
    ("output", "plot", str, "--plot", None, None,
     "write an SVG polyline plot here"),
    ("numerics", "seed", int, "--seed", 0, ">= 0", "RNG seed"),
) + tuple(
    (f"{grid}_grid", key, typ, f"--{grid}-{key}", default, bound,
     argparse.SUPPRESS)
    for grid, defaults in (("lambda", (0.1, 100.0, 200, "log")),
                           ("nu", (0.0, 40.0, 401, "linear")),
                           ("tau", (0.0, 5.0, 1001, "linear")),
                           ("omega", (0.0, 40.0, 401, "linear")))
    for (key, typ, bound), default in zip((("min", float, None),
                                           ("max", float, None),
                                           ("count", int, ">= 1"),
                                           ("scale", ("linear", "log"), None)),
                                          defaults)
) + tuple(
    ("numerics", key, typ, "--" + key.replace("_", "-"), default, bound,
     argparse.SUPPRESS)
    for key, typ, default, bound in (
        ("tol", float, 1e-12, None), ("max_iter", int, 10000, ">= 0"),
        ("quad_order", int, None, ">= 1"), ("dt", float, None, "> 0"),
        ("T", float, 6.0, None), ("beta", float, 1.0, None),
        ("pool_size", int, 10000, ">= 1"), ("sweeps", int, 20, ">= 0"),
        ("sigma_rel", float, 0.01, ">= 0"), ("lam", float, 1.0, None),
        ("x0", float, 0.0, None), ("steps", int, 2000, ">= 0"),
        ("depth", int, 8, ">= 0"), ("branching", int, 2, ">= 1"))
)

_DEFAULTS: dict = {}
for _block, _key, _, _, _default, _, _ in _KEYS:
    _DEFAULTS.setdefault(_block, {})[_key] = _default


def _check_value(block: str, key: str, val) -> None:
    """Refuse a config value of the wrong type or out of bounds with ConfigError."""
    typ, bound = next((row[2], row[5]) for row in _KEYS
                      if row[:2] == (block, key))
    if val is None:
        ok = _DEFAULTS[block][key] is None
    elif isinstance(typ, tuple):
        ok = val in typ
    else:
        ok = not isinstance(val, bool) and isinstance(
            val, (int, float) if typ is float else typ)
    if not ok:
        want = "one of " + ", ".join(typ) if isinstance(typ, tuple) else typ.__name__
        raise ConfigError(f"config value {block}.{key}={val!r} is not {want}")
    if bound and val is not None:
        op, lo = bound.split()
        # written so that nan fails every bound
        if not (val >= float(lo) if op == ">=" else val > float(lo)):
            raise ConfigError(f"config value {block}.{key}={val!r} is not {bound}")


def _merge(base: dict, update: dict) -> dict:
    out = {block: dict(values) for block, values in base.items()}
    for block, values in update.items():
        if block not in out:
            raise ConfigError(f"unknown config key {block!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config key {block!r} must hold an object")
        for key, val in values.items():
            if key not in out[block]:
                raise ConfigError(f"unknown config key {block}.{key!r}")
            _check_value(block, key, val)
            out[block][key] = val
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


#: Peak bytes a table row holds, measured with tracemalloc over each command
#: (5,000 to 100,000 rows, the column writer): 157-463 in csv and 255-680 in
#: json for the tables of two to five columns, and for the widest,
#: fixed-point's eight, 416-420 in csv and 787-794 in json.
TABLE_ROW_BYTES = 1300


def _check_rows(rows: int) -> None:
    """Refuse, before it is computed, a table whose rows exceed the cap."""
    _check_bytes(TABLE_ROW_BYTES * rows, f"table of {rows} rows")


def _grid(spec: dict, name: str) -> np.ndarray:
    lo, hi, count = spec["min"], spec["max"], spec["count"]
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ConfigError(f"invalid {name}: {spec}")
    _check_rows(count)
    if spec.get("scale", "linear") == "log":
        if lo <= 0:
            raise ConfigError(f"log-scale {name} needs min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def _params(cfg: dict):
    p = cfg["params"]
    return derive_params(int(p["n"]), float(p["omega0"]), float(p["C"]),
                         float(p["m"]))


def _open_out(path: str):
    """``open(path, "w")``; a path that cannot be written is a ConfigError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
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


def _is_float_column(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind == "f"


def _csv_cells(col):
    if _is_float_column(col):
        return map("{:.17g}".format, col.tolist())
    return map(_fmt, col)


#: cell types rendered once per distinct (type, value): True and 1 stay
#: apart, and floats, whose 0.0 and -0.0 would share a key, are not memoised
_MEMO_TYPES = (str, bool, int)


def _json_cells(col):
    if not _is_float_column(col):
        memo, cells = {}, []
        for v in col:
            if type(v) not in _MEMO_TYPES:
                cells.append(json.dumps(_json_value(v)))
                continue
            key = (type(v), v)
            if key not in memo:
                memo[key] = json.dumps(v)
            cells.append(memo[key])
        return cells
    cells = list(map(float.__repr__, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = "null"
    return cells


def _json_rows(data) -> str:
    """The ``rows`` value of at least one row exactly as ``json.dumps(...,
    indent=2)`` lays it out two levels deep."""
    rows = ",\n".join("    [\n      " + ",\n      ".join(row) + "\n    ]"
                      for row in zip(*map(_json_cells, data)))
    return "[\n" + rows + "\n  ]"


def write_table(columns, data, meta: dict, cfg: dict):
    """Emit the table per the output block; returns the rendered text.

    ``data`` holds one sequence per name in ``columns``, all of one length,
    at least one row: a float ndarray, or a list of other cells (str, bool,
    int, or a float mixed with ``"none"``).  Cells are rendered a column at
    a time, the bytes those of rendering each row in turn.

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
               "rows": []}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        # splice the rows in: no other line opens "rows" two spaces in, as
        # nested keys sit deeper and a string's quotes are escaped
        text = text.replace('\n  "rows": []',
                            '\n  "rows": ' + _json_rows(data), 1)
    else:   # csv, the one other format _check_value admits
        lines = [header, ",".join(columns)]
        lines += map(",".join, zip(*map(_csv_cells, data)))
        text = "\n".join(lines) + "\n"
    if out["path"]:
        with _open_out(out["path"]) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def write_svg(path: str, xs, ys, label: str, title: str):
    """Minimal static polyline plot of one series; deterministic byte output."""
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
    with _open_out(path) as fh:
        fh.write("\n".join(parts) + "\n")


def _maybe_plot(cfg, xs, ys, label, title):
    if cfg["output"]["plot"]:
        write_svg(cfg["output"]["plot"], xs, ys, label, title)


# ---------------------------------------------------------------------------
# subcommands


def cmd_phase(cfg):
    params = _params(cfg)
    lam = _grid(cfg["lambda_grid"], "lambda_grid")
    c_star = critical_coupling(params.n, params.omega0, params.m)
    l_star = lambda_star(params)
    arg = sqrt_argument(params, lam)
    meta = {"C_star": "none" if c_star is None else c_star,
            "lambda_star": "none" if l_star is None else l_star}
    _maybe_plot(cfg, lam, arg, "sqrt argument",
                "fixed-point existence scan")
    return write_table(("lambda", "sqrt_argument", "exists"),
                       (lam, arg, (arg >= 0.0).tolist()), meta, cfg)


def cmd_fixed_point(cfg):
    params = _params(cfg)
    lam = _grid(cfg["lambda_grid"], "lambda_grid")
    num = cfg["numerics"]
    ok = fixed_point_exists(params, lam)
    # the rows without a fixed point keep these fills
    closed, final, rel, residual = (np.full(lam.size, math.nan)
                                    for _ in range(4))
    iterations = np.zeros(lam.size, dtype=int)
    converged = np.zeros(lam.size, dtype=bool)
    k = closed[ok] = closed_form_fixed_point(params, lam[ok])
    residual[ok] = quadratic_residual(params, lam[ok], k)
    if ok.any():
        final[ok], iterations[ok], stop, _ = _orbit_ends(
            params, lam[ok], int(num["max_iter"]), num["tol"])
        converged[ok] = stop == "converged"
    rel[ok] = np.divide(np.abs(final[ok] - k), np.abs(k),
                        out=np.zeros(k.size), where=k != 0.0)
    status = np.where(ok, "ok", "no-fixed-point").tolist()
    # fmax skips the nan fills of the rows without a fixed point
    meta = {"max_rel_diff": float(np.fmax.reduce(rel, initial=0.0))}
    _maybe_plot(cfg, lam, closed, "k*", "uniform fixed point")
    return write_table(("lambda", "k_closed", "k_iterated", "iterations",
                        "converged", "rel_diff", "quad_residual", "status"),
                       (lam, closed, final, iterations.tolist(),
                        converged.tolist(), rel, residual, status), meta, cfg)


def cmd_kernel(cfg, method: str):
    params = _params(cfg)
    tau = _grid(cfg["tau_grid"], "tau_grid")
    num = cfg["numerics"]
    meta = {"method": method}
    if method == "branch-cut":
        tk = branch_cut_kernel(params, tau, quad_order=num["quad_order"])
    elif method == "bessel":
        tk = bessel_kernel(params, tau)
    else:   # oracle, the one other method --method admits
        shape = {"branching": int(num["branching"]), "depth": int(num["depth"])}
        tk = oracle_time_kernel(build_tree(**shape), params, tau)
        meta.update(shape, n_modes=tk.meta["n_modes"])
    _maybe_plot(cfg, tau, tk.values, f"k ({method})", "time-domain kernel")
    return write_table(("tau", "k"), (tau, tk.values), meta, cfg)


def cmd_spectrum(cfg):
    params = _params(cfg)
    omega = _grid(cfg["omega_grid"], "omega_grid")
    j = spectral_density(params, omega)
    meta = {"band_lo": params.lambda_pm, "band_hi": params.lambda_pp}
    _maybe_plot(cfg, omega, j, "J", "environment spectral density")
    return write_table(("omega", "J"), (omega, j), meta, cfg)


def cmd_multiplier(cfg):
    params = _params(cfg)
    nu = _grid(cfg["nu_grid"], "nu_grid")
    gain = np.atleast_1d(real_multiplier(params, nu))
    band = params.band_defined & (params.lambda_pm <= np.abs(nu)) \
        & (np.abs(nu) <= params.lambda_pp)
    region = ["band" if b else "outside" for b in band.tolist()]
    _maybe_plot(cfg, nu, gain, "A", "noise-kernel gain per sweep")
    return write_table(("nu", "gain", "region"), (nu, gain, region), {}, cfg)


def cmd_tree(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    _check_rows(int(num["depth"]) + 1)
    res = depth_convergence(params, int(num["branching"]), int(num["depth"]),
                            float(num["lam"]))
    # no predecessor at depth 0; underflowed residuals leave no ratio
    ratio = ["none"] + [r / prev if prev > 0.0 else "none"
                        for prev, r in zip(res[:-1].tolist(), res[1:].tolist())]
    meta = {"lambda": num["lam"], "branching": int(num["branching"])}
    _maybe_plot(cfg, np.arange(len(res)), np.log10(np.maximum(res, 1e-300)),
                "log10 residual", "depth convergence")
    return write_table(("depth", "residual", "ratio"),
                       (list(range(res.size)), res, ratio), meta, cfg)


def cmd_finite_time(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    dt = params.fine_step if num["dt"] is None else num["dt"]
    times = time_grid(float(num["T"]), float(dt))
    _check_rows(times.size)
    state = thermal_init(float(num["beta"]), params)
    upstream = TwoTimeKernel.from_stationary(
        times, lambda u: branch_cut_kernel(params, u).values)
    res = twinning_solve(upstream, params)
    kI_out = vernon_imag_finite(res.G, params.C)
    # The diagonal of vernon_real_full(None, G, ...), the boundary terms alone.
    kR_boundary = _noise_kernel(res.G, state, params.C, np.multiply)
    u = times - times[0]
    meta = {"solver": res.G.meta["solver"], "residual": res.residual,
            "beta": num["beta"]}
    _maybe_plot(cfg, u, res.G.values[0], "G(tau, u)",
                "dressed response at the window start")
    return write_table(("u", "G0", "G", "kI_out", "kR_boundary"),
                       (u, bare_response(params, u), res.G.values[0],
                        kI_out.values[0], kR_boundary), meta, cfg)


def cmd_population(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    lam = float(num["lam"])
    _check_rows(int(num["sweeps"]) + 1)
    gain = variance_gain(params, lam)
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    pop = population_init(params, lam, size=int(num["pool_size"]),
                          seed=int(num["seed"]),
                          sigma=float(num["sigma_rel"]) * abs(k_branch))
    sweeps = np.arange(int(num["sweeps"]) + 1)
    mean, var = np.empty(sweeps.size), np.empty(sweeps.size)
    rejected = []
    for sweep in sweeps.tolist():
        mean[sweep], var[sweep] = np.mean(pop.samples), np.var(pop.samples)
        rejected.append(pop.rejected)
        if sweep < int(num["sweeps"]):
            pop = population_step(pop)
    meta = {"lambda": lam, "variance_gain": gain, "k_branch": k_branch}
    _maybe_plot(cfg, sweeps, np.log10(np.maximum(var, 1e-300)),
                "log10 variance", "population variance trajectory")
    return write_table(("sweep", "mean", "variance", "rejected"),
                       (sweeps.tolist(), mean, var, rejected), meta, cfg)


def cmd_orbit(cfg):
    params = _params(cfg)
    num = cfg["numerics"]
    _check_rows(int(num["steps"]) + 1)
    rep = map_orbit(params, float(num["lam"]), x0=float(num["x0"]),
                    steps=int(num["steps"]), tol=num["tol"])
    status = ["ok" if f else "pole" for f in np.isfinite(rep.orbit).tolist()]
    meta = {"classification": rep.classification,
            "period": "none" if rep.period is None else rep.period,
            "diameter": rep.diameter}
    steps = np.arange(rep.orbit.size)
    _maybe_plot(cfg, steps, rep.orbit, "k", "cavity-map orbit")
    return write_table(("iteration", "k", "status"),
                       (steps.tolist(), rep.orbit, status), meta, cfg)


def cmd_check(cfg, report_path: str | None):
    from .acceptance import run_all
    def report(res):
        print(res.line(), flush=True)
        print(f"[{res.number:2d}] {res.runtime:.1f} s", file=sys.stderr, flush=True)

    # The report is opened first, so an unwritable path is refused before
    # the run; wall times go to stderr so that stdout is the same bytes on
    # every run.
    with _open_out(report_path) if report_path else contextlib.nullcontext() as fh:
        results, total = run_all(report=report)
        print(f"total runtime {total:.1f} s", file=sys.stderr)
        if fh:
            doc = {"tool": TOOL, "version": __version__, "total_runtime_s": total,
                   "criteria": [res.as_dict() for res in results]}
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not all(res.passed for res in results):
        raise AccuracyError("one or more acceptance criteria failed")
    return ""


# ---------------------------------------------------------------------------
# argument plumbing

def _commands() -> dict:
    """Subcommand -> (function, its own flag and that flag's argparse options).

    The function is called with the config and the own flag's value, if any.
    Built per call, so a function replaced on this module is the one run.
    """
    return {
        "phase": (cmd_phase, None),
        "fixed-point": (cmd_fixed_point, None),
        "spectrum": (cmd_spectrum, None),
        "multiplier": (cmd_multiplier, None),
        "tree": (cmd_tree, None),
        "finite-time": (cmd_finite_time, None),
        "population": (cmd_population, None),
        "orbit": (cmd_orbit, None),
        "kernel": (cmd_kernel, ("--method", {
            "choices": ("branch-cut", "bessel", "oracle"),
            "default": "branch-cut"})),
        "check": (cmd_check, ("--report", {"help": "write a JSON report here"})),
    }


# Error class -> (label, exit code); the most specific class listed wins.
_EXITS = {
    ConfigError: ("config", 2),
    ShapeError: ("shape", 2),
    SizeError: ("size", 2),
    DomainError: ("domain", 3),
    InstabilityError: ("instability", 3),
    AccuracyError: ("accuracy", 4),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _collect_overrides(args: argparse.Namespace) -> dict:
    over: dict = {}
    for block, key, _, flag, _, _, _ in _KEYS:
        val = getattr(args, _dest(flag))
        if val is not None:
            over.setdefault(block, {})[key] = val
    return over


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds flags and subcommand names only, no command functions, and
    ``parse_args`` leaves it unchanged, so every ``main`` call can share it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for _, _, typ, flag, _, _, text in _KEYS:
        if isinstance(typ, tuple):
            common.add_argument(flag, choices=typ, help=text)
        else:
            common.add_argument(flag, type=None if typ is str else typ,
                                help=text)
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Harmonic networks as effective quantum environments")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, own) in _commands().items():
        sub = subs.add_parser(name, parents=[common])
        if own:
            sub.add_argument(own[0], **own[1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code.
        return int(exc.code or 0)
    cmd, own = _commands()[args.command]
    extra = [getattr(args, _dest(own[0]))] if own else []
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        cmd(cfg, *extra)
    except NetbathError as exc:
        label, code = next(_EXITS[cls] for cls in type(exc).__mro__
                           if cls in _EXITS)
        print(f"ERROR {label}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
