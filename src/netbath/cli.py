"""Command-line surface.

One subcommand per capability: ``phase``, ``fixed-point``, ``kernel``,
``spectrum``, ``multiplier``, ``tree``, ``finite-time``, ``population``,
``orbit`` and ``check``.  Outputs are plain comma-separated tables with
``#``-prefixed metadata lines (17 significant digits, byte-reproducible for a
given config and seed), or a JSON object with ``--format json``.  A JSON
config file supplies defaults; explicit flags override it.

One table, ``_KEYS``, names every config key once, with its type, flag,
default and lower bound, and ``_check_value`` gives every value its type.
``_TABLES`` declares the keys each subcommand reads: it takes their flags
and no other, and receives their typed values as keyword arguments.

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
    vernon_imag_finite, vernon_real_full, bare_response
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
     f"{grid} grid {key}")
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
    ("numerics", key, typ, "--" + key.replace("_", "-"), default, bound, text)
    for key, typ, default, bound, text in (
        ("tol", float, 1e-12, None, "convergence tolerance"),
        ("max_iter", int, 10000, ">= 0", "iteration cap"),
        ("quad_order", int, None, ">= 1", "band quadrature order"),
        ("dt", float, None, "> 0", "time step (default: band-resolving)"),
        ("T", float, 6.0, None, "window length"),
        ("beta", float, 1.0, None, "inverse temperature"),
        ("pool_size", int, 10000, ">= 1", "population pool size"),
        ("sweeps", int, 20, ">= 0", "population sweeps"),
        ("sigma_rel", float, 0.01, ">= 0", "initial spread, relative"),
        ("lam", float, 1.0, None, "Laplace variable lambda"),
        ("x0", float, 0.0, None, "orbit start"),
        ("steps", int, 2000, ">= 0", "orbit steps"),
        ("depth", int, 8, ">= 0", "tree depth"),
        ("branching", int, 2, ">= 1", "tree branching"))
)
_ROWS = {row[:2]: row for row in _KEYS}

_DEFAULTS: dict = {}
for _block, _key, _, _, _default, _, _ in _KEYS:
    _DEFAULTS.setdefault(_block, {})[_key] = _default

#: Subcommand -> (its grid, the numerics keys it reads): what each table
#: reads besides the params and output blocks and the seed, which every
#: table prints.  Its flags are those keys' and --config; kernel adds
#: --method, and check, no table, takes --report alone.
_TABLES = {
    "phase": ("lambda", ()),
    "fixed-point": ("lambda", ("tol", "max_iter")),
    "kernel": ("tau", ("quad_order", "branching", "depth")),
    "spectrum": ("omega", ()),
    "multiplier": ("nu", ()),
    "tree": (None, ("branching", "depth", "lam")),
    "finite-time": (None, ("dt", "T", "beta")),
    "population": (None, ("lam", "pool_size", "sweeps", "sigma_rel", "seed")),
    "orbit": (None, ("lam", "x0", "steps", "tol")),
}


def _reads(name: str, block: str, key: str) -> bool:
    """Whether table ``name`` reads config key ``block.key``."""
    grid, keys = _TABLES[name]
    return block in ("params", "output", f"{grid}_grid") or \
        block == "numerics" and (key == "seed" or key in keys)


def _check_value(block: str, key: str, val):
    """The config value with its key's type, a float key's as a float;
    ConfigError for a value of another type, one too large for a float, or
    one out of bounds."""
    _, _, typ, _, default, bound, _ = _ROWS[block, key]
    if val is None and default is None:
        return None
    if isinstance(typ, tuple):
        ok = val in typ
    else:
        ok = not isinstance(val, bool) and isinstance(
            val, (int, float) if typ is float else typ)
    if not ok:
        want = "one of " + ", ".join(typ) if isinstance(typ, tuple) else typ.__name__
        raise ConfigError(f"config value {block}.{key}={val!r} is not {want}")
    if typ is float:
        try:
            val = float(val)
        except OverflowError:
            raise ConfigError(f"config value {block}.{key} is too large for "
                              "a float") from None
    if bound:
        op, lo = bound.split()
        # written so that nan fails every bound
        if not (val >= float(lo) if op == ">=" else val > float(lo)):
            raise ConfigError(f"config value {block}.{key}={val!r} is not {bound}")
    return val


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
            out[block][key] = _check_value(block, key, val)
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    """The defaults, then the config file at ``path``, then ``overrides``,
    each value checked and typed; ConfigError for a file that cannot be
    read or parsed, or holds a key or value that is refused."""
    cfg = _DEFAULTS
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        # ValueError: JSON that does not parse, bytes that do not decode,
        # and an integer past Python's digit limit; RecursionError: arrays
        # or objects nested past the parser's depth
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge(cfg, data)
    return _merge(cfg, overrides)


#: Peak bytes a table row holds, measured with tracemalloc over phase, kernel,
#: spectrum, multiplier, orbit and fixed-point (5,000 and 100,000 rows, the
#: block renderer): 59-346 in csv and 163-346 in json for the tables of two
#: and three columns, and for the widest, fixed-point's eight, 338-341 in csv
#: and 653-658 in json.
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
    return derive_params(p["n"], p["omega0"], p["C"], p["m"])


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


# ---------------------------------------------------------------------------
# table cells
#
# A float cell is '%.17g' % x in csv and repr(x) in json, rendered for a whole
# array at once.  Both are correctly rounded decimal digits of x, read here
# from the product x 10^(16-E), 10^E <= |x| < 10^(E+1), formed as a
# double-double with Dekker's exact product (Numer. Math. 18, 224 (1971)):
# its integer part and fraction, known to about 1e-14, round to the 17 digits
# of '%.17g', and the first of its 15-, 16- and 17-digit roundings within x's
# half ulp are repr's shortest digits.  Python's own formatter renders a cell
# the product cannot decide: zero, nan and inf, |x| outside [1e-280, 1e280],
# a subnormal, a power of two in json (its half ulp below is halved), and a
# rounding within _TIE of a tie.

_SPLIT = 134217729.0        # 2^27 + 1: Veltkamp's split of a double in halves
_POW_LO, _POW_HI = -282, 297    # the 10^k held, for 10^E and 10^(16-E)
_TIE = 1e-9                 # in units of the 17th digit
# A float cell is _CELL bytes, six 8-byte words with NULs over the bytes its
# layout drops: the sign, the "0." and zeros of E < 0, the leading digit and
# a point; four groups of four digits, each with a point after it; "e+-"
# and the exponent's two or three digits.  _digit_tables holds the words of
# the groups 0000-9999 first, then those of a leading digit d at _LEAD + d,
# then those of an exponent E at _EXP + E.
_CELL = 48
_LEAD, _EXP = 10000, 10310
#: float cells under this count take Python's formatter: below it the
#: product's fixed cost exceeds its saving on the cells (phase tables of 50
#: to 150 rows put the crossover at 100-200 cells)
_FEW = 150
#: cells a block of rows holds, so that a table's temporaries are a few
#: hundred kB whatever its length (blocks of 512 and 4,096 cells were slower)
_BLOCK_CELLS = 2048
#: json's row end and the next row's start, after a row's last cell
_JSON_ROW = "\n    ],\n    [\n      "


@functools.cache
def _digit_tables():
    """(10^k as hi, lo, hi's Veltkamp halves and the least double not
    below it, for k from _POW_LO; the words of a float cell, as uint64: each
    4-digit group with points, "-0.000" and each leading digit with a point,
    and "e+-" and |E| for each E from -300; the trailing zeros of each
    group, 4 for 0000)."""
    powers = [1]
    for _ in range(max(-_POW_LO, _POW_HI)):
        powers.append(10 * powers[-1])
    exact = []
    for k in range(_POW_LO, _POW_HI + 1):
        power = powers[abs(k)]
        if k >= 0:
            hi = float(power)       # int conversion rounds correctly
            lo = float(power - int(hi))
        else:
            hi = 1 / power          # so does int division
            a, b = hi.as_integer_ratio()
            lo = (b - a * power) / power / b
        exact.append((hi, lo, math.nextafter(hi, math.inf) if lo > 0 else hi))
    pow10 = np.empty((5, len(exact)))
    pow10[[0, 1, 4]] = np.array(exact).T
    split = _SPLIT * pow10[0]
    pow10[2] = split - (split - pow10[0])
    pow10[3] = pow10[0] - pow10[2]
    group = np.arange(10000, dtype=np.uint16)
    words = np.zeros((_EXP + 300, 8), np.uint8)
    words[:10000, 1::2] = ord(".")
    for place in range(4):
        words[:10000, 2 * place] = group // 10**(3 - place) % 10 + 48
    words[_LEAD:_LEAD + 10] = np.frombuffer(b"-0.0000." * 10,
                                            np.uint8).reshape(10, 8)
    words[_LEAD:_LEAD + 10, 6] += np.arange(10, dtype=np.uint8)
    e = np.abs(np.arange(-300, 300))
    wide = e >= 100
    words[_EXP - 300:, :3] = np.frombuffer(b"e+-", np.uint8)
    words[_EXP - 300:, 3] = np.where(wide, e // 100, e // 10) + 48
    words[_EXP - 300:, 4] = np.where(wide, e // 10 % 10, e % 10) + 48
    words[_EXP - 300:, 5] = wide * (e % 10 + 48)
    zeros = sum(group % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    return pow10, words.view(np.uint64).ravel(), zeros


@functools.cache
def _layouts(json_style: bool):
    """Which of its _CELL bytes a float cell keeps, a row of 0 and 1 a key.

    A key is (class, digit count) of a positive cell, then the same for a
    negative one; class c <= fixed_hi + 4 is fixed notation at E = c - 4
    (repr up to E = 15, '%.17g' to 16), and the four after are e-dd, e-ddd,
    e+dd and e+ddd.  Returns (masks, the key of each E from -300 at 17
    digits, the first negative key)."""
    fixed_hi = 15 if json_style else 16
    # byte 0 is "-", 1-5 "0.000", digit i sits at 6 + 2i with a point after
    # it, 40-42 are "e+-" and 43-45 the exponent
    E = np.arange(-4, fixed_hi + 1)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    i = np.arange(17)
    integer = (E >= 0) & (nd <= E + 1)          # no digit after the point
    fixed = np.zeros((E.size, 17, _CELL), np.uint8)
    fixed[..., 1:3] = E < 0
    fixed[..., 3:6] = np.arange(3, 6) < 2 - E
    fixed[..., 6:39:2] = (i < np.maximum(nd, E + 1)) \
        | (json_style & integer & (i == E + 1))     # repr's ".0"
    fixed[..., 7:38:2] = (i[:16] == E) & (json_style | ~integer)
    exponent = np.zeros((4, 17, _CELL), np.uint8)
    exponent[..., 6:39:2] = i < nd
    exponent[..., 7] = nd[:, 0] > 1
    exponent[..., 40] = 1
    exponent[:2, :, 42] = 1                     # e-dd, e-ddd
    exponent[2:, :, 41] = 1                     # e+dd, e+ddd
    exponent[..., 43:45] = 1
    exponent[1::2, :, 45] = 1                   # a third exponent digit
    positive = np.concatenate([fixed, exponent]).reshape(-1, _CELL)
    masks = np.concatenate([positive, positive])
    masks[len(positive):, 0] = 1
    E = np.arange(-300, 300)
    kinds = np.where((E >= -4) & (E <= fixed_hi), E + 4,
                     fixed_hi + 5 + 2 * (E >= 0) + (np.abs(E) >= 100))
    return masks, 17 * kinds + 16, len(positive)


def _decimal(xs: np.ndarray, json_style: bool):
    """The decimal digits of xs, 1e-280 <= xs <= 1e280, from the
    double-double product: (17-digit integers, a shorter repr's digits
    followed by zeros; their E; whether the product decided each)."""
    pow10 = _digit_tables()[0]
    # E of the unrounded x (the double 1e200 is below 10^200, so E = 199)
    # from 2^(ex-1) <= x < 2^ex, which puts it within one either way
    mant, ex = np.frexp(xs)
    E = np.floor((ex - 1) * math.log10(2)).astype(np.intp)
    E -= xs < pow10[4].take(E - _POW_LO)
    E += xs >= pow10[4].take(E + 1 - _POW_LO)
    # x (hi + lo) = p + t, p x hi rounded and t the rest: p is an even
    # integer in [1e16, 1e17], t of order ulp(p)
    hi, lo, hi_hi, hi_lo = pow10[:4].take((16 - _POW_LO) - E, axis=1)
    split = _SPLIT * xs
    x_hi = split - (split - xs)
    x_lo = xs - x_hi
    p = xs * hi
    t = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo \
        + xs * lo
    whole = np.floor(t)
    frac = t - whole
    below = p.astype(np.int64) + whole.astype(np.int64)
    ok = (below >= 10**16) & (below < 10**17) & (np.abs(frac - 0.5) >= _TIE)
    digits = below + (frac > 0.5)
    if json_style:
        # repr's digits: the first rounding to 15, 16 or 17 digits that reads
        # back as x, so within its half ulp (x is no power of two)
        half_ulp = p / mant * 2.0**-54
        fits, sure, rounded = [], [], []
        for step in (100, 10):
            q = below // step
            rest = below - step * q + frac
            miss = np.minimum(rest, step - rest) - half_ulp
            fits.append(miss < 0)
            sure.append((np.abs(miss) >= _TIE)
                        & (np.abs(rest - step / 2) >= _TIE))
            rounded.append((q + (rest > step / 2)) * step)
        ok &= sure[0] & (fits[0] | sure[1])
        digits = np.where(fits[0], rounded[0],
                          np.where(fits[1], rounded[1], digits))
    carry = digits == 10**17
    return np.where(ok & ~carry, digits, 10**16), E + carry, ok


def _product_cells(x: np.ndarray, json_style: bool):
    """Cells of x, 1e-280 <= |x| <= 1e280, from _decimal: (NUL-padded
    bytes (x.size, _CELL), whether the product decided each)."""
    _, words, quad_zeros = _digit_tables()
    masks, kinds, negative = _layouts(json_style)
    digits, E, ok = _decimal(np.abs(x), json_style)
    # the cell's words: its leading digit, four groups of four and E
    groups = np.empty((x.size, 6), np.intp)
    for j in (4, 3, 2, 1):
        rest = digits // 10000
        np.subtract(digits, 10000 * rest, out=groups[:, j])
        digits = rest
    groups[:, 0] = digits + _LEAD
    groups[:, 5] = E + _EXP
    zeros = quad_zeros.take(groups[:, 1:5].T)
    trailing = zeros[3] + (zeros[3] == 4) * (
        zeros[2] + (zeros[2] == 4) * (zeros[1] + (zeros[1] == 4) * zeros[0]))
    key = kinds.take(E + 300) + (x < 0) * negative - trailing
    cells = words.take(groups).view(np.uint8)
    cells *= masks.take(key, axis=0)
    return cells, ok


def _python_cells(values: list, json_style: bool) -> np.ndarray:
    """Python's own cells of a list of floats, as _float_cells lays them."""
    if json_style:
        text = [repr(v) if math.isfinite(v) else "null" for v in values]
    else:
        text = ["%.17g" % v for v in values]
    return np.array(text, f"S{_CELL}").view(np.uint8).reshape(len(text), _CELL)


def _float_cells(x: np.ndarray, json_style: bool) -> np.ndarray:
    """The cells of a float array as NUL-padded bytes (x.size, _CELL):
    '%.17g' % x in csv, repr(x) in json with null for a value not finite."""
    if x.size < _FEW:
        return _python_cells(x.tolist(), json_style)
    ax = np.abs(x)
    some = (ax >= 1e-280) & (ax <= 1e280)
    if json_style:
        some &= np.frexp(ax)[0] != 0.5
    # the other cells, 0 and nan among them, go to the product as 1.0 and
    # are rendered again below with the cells it leaves undecided
    cells, ok = _product_cells(np.where(some, x, 1.0), json_style)
    redo = np.flatnonzero(~(ok & some))
    if redo.size:
        cells[redo] = _python_cells(x.take(redo).tolist(), json_style)
    return cells


#: cell types rendered once per distinct (type, value): True and 1 stay
#: apart, and floats, whose 0.0 and -0.0 would share a key, are not memoised
_MEMO_TYPES = (str, bool, int)


def _text_cells(col, json_style: bool):
    """A column's distinct cells (a list's by a memo), rendered by _fmt or
    _json_value as NUL-padded bytes (distinct, width), and each row's."""
    if isinstance(col, np.ndarray):
        values, index = np.unique(col, return_inverse=True)
        values = values.tolist()
    else:
        # a cell of another type is a key of its own, (row, value)
        memo: dict = {}
        index = np.array([memo.setdefault((type(v), v) if type(v) in _MEMO_TYPES
                                          else (i, v), len(memo))
                          for i, v in enumerate(col)])
        values = [v for _, v in memo]
    if json_style:
        # one dumps call: its items one a line, as a string's newlines are
        # escaped
        texts = json.dumps(list(map(_json_value, values)), indent=0)[2:-2] \
            .encode().split(b",\n")
    else:
        texts = [_fmt(v).encode() for v in values]
    if b"\0" in b"".join(texts):
        raise ValueError("a table cell holds a NUL")
    width = max(map(len, texts))
    cells = np.array(texts, f"S{max(width, 1)}").view(np.uint8)
    return cells.reshape(len(texts), -1)[:, :width], index


def _table_body(data, json_style: bool) -> list:
    """The rows of a table, a str a block of rows: each cell, then ``,`` or
    a newline in csv, and json's indented ``,`` or row end and start."""
    rows = len(data[0])
    seps = [",\n      " if json_style else ","] * (len(data) - 1) \
        + [_JSON_ROW if json_style else "\n"]
    # float arrays, then int arrays below 2^53 in magnitude, whose cells
    # '%.17g' % float(v) are str(v), json's int token too
    kinds = [[j for j, col in enumerate(data) if isinstance(col, np.ndarray)
              and col.dtype.kind == "f"],
             [j for j, col in enumerate(data) if isinstance(col, np.ndarray)
              and col.dtype.kind in "iu"
              and np.all(np.abs(col.astype(float)) < 2.0**53)]]
    numeric = kinds[0] + kinds[1]
    texts = {j: _text_cells(col, json_style) for j, col in enumerate(data)
             if j not in numeric}
    widths = [_CELL if j in numeric else texts[j][0].shape[1]
              for j in range(len(data))]
    offsets = np.cumsum([0] + [w + len(s) for w, s in zip(widths, seps)])
    # a row holds each cell, NUL-padded to its column's width, and the
    # separator after it; dropping the NULs leaves the text
    block = max(1, _BLOCK_CELLS // len(data))
    chars = np.empty((min(block, rows), offsets[-1]), np.uint8)
    for j, sep in enumerate(seps):
        chars[:, offsets[j] + widths[j]:offsets[j + 1]] = \
            np.frombuffer(sep.encode(), np.uint8)
    pieces = []
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        for kind, style in zip(kinds, (json_style, False)):
            if kind:
                x = np.stack([data[j][start:stop] for j in kind], axis=1,
                             dtype=float)
                cells = _float_cells(x.ravel(), style).reshape(
                    stop - start, len(kind), _CELL)
                for i, j in enumerate(kind):
                    chars[:stop - start, offsets[j]:offsets[j] + _CELL] = \
                        cells[:, i]
        for j, (distinct, index) in texts.items():
            chars[:stop - start, offsets[j]:offsets[j] + widths[j]] = \
                distinct.take(index[start:stop], axis=0)
        pieces.append(chars[:stop - start].tobytes().translate(None, b"\0")
                      .decode())
    return pieces


def write_table(columns, data, meta: dict, cfg: dict):
    """Emit the table per the output block; returns the rendered text.

    ``data`` holds one sequence per name in ``columns``, all of one length,
    at least one row: an ndarray, or a list of cells (str, bool, int, or a
    float mixed with ``"none"``).  _float_cells renders float arrays, and
    int arrays below 2^53 in csv's style; other arrays and lists go through
    their distinct cells, a block of rows at a time.  The bytes are those of
    each row rendered by ``'%.17g' %``, ``repr``, _fmt and _json_value.

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
        head, tail = text.split('\n  "rows": []', 1)
        body = _table_body(data, True)
        body[-1] = body[-1][:-len(_JSON_ROW)]
        text = "".join([head, '\n  "rows": [\n    [\n      ', *body,
                        "\n    ]\n  ]", tail])
    else:   # csv, the one other format _check_value admits
        text = "".join([header, "\n", ",".join(columns), "\n",
                        *_table_body(data, False)])
    if out["path"]:
        with _open_out(out["path"]) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def write_svg(path: str, xs, ys, label: str, title: str):
    """Minimal static polyline plot of one series; deterministic byte output,
    the finite rows' points scaled as arrays and formatted in one call."""
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

    xy = np.stack([sx(xs[finite]), sy(ys[finite])], axis=1)
    pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
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


# Each table takes the config, for its output block, the model parameters,
# its grid and its numerics values, typed, as _TABLES declares them.

def cmd_phase(cfg, params, lambda_grid):
    c_star = critical_coupling(params.n, params.omega0, params.m)
    l_star = lambda_star(params)
    arg = sqrt_argument(params, lambda_grid)
    meta = {"C_star": "none" if c_star is None else c_star,
            "lambda_star": "none" if l_star is None else l_star}
    _maybe_plot(cfg, lambda_grid, arg, "sqrt argument",
                "fixed-point existence scan")
    return write_table(("lambda", "sqrt_argument", "exists"),
                       (lambda_grid, arg, arg >= 0.0), meta, cfg)


def cmd_fixed_point(cfg, params, lambda_grid, tol, max_iter):
    lam = lambda_grid
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
            params, lam[ok], max_iter, tol)
        converged[ok] = stop == "converged"
    rel[ok] = np.divide(np.abs(final[ok] - k), np.abs(k),
                        out=np.zeros(k.size), where=k != 0.0)
    status = np.where(ok, "ok", "no-fixed-point")
    # fmax skips the nan fills of the rows without a fixed point
    meta = {"max_rel_diff": float(np.fmax.reduce(rel, initial=0.0))}
    _maybe_plot(cfg, lam, closed, "k*", "uniform fixed point")
    return write_table(("lambda", "k_closed", "k_iterated", "iterations",
                        "converged", "rel_diff", "quad_residual", "status"),
                       (lam, closed, final, iterations, converged, rel,
                        residual, status), meta, cfg)


def cmd_kernel(cfg, params, tau_grid, method, quad_order, branching, depth):
    meta = {"method": method}
    if method == "branch-cut":
        tk = branch_cut_kernel(params, tau_grid, quad_order=quad_order)
    elif method == "bessel":
        tk = bessel_kernel(params, tau_grid)
    else:   # oracle, the one other method --method admits
        shape = {"branching": branching, "depth": depth}
        tk = oracle_time_kernel(build_tree(**shape), params, tau_grid)
        meta.update(shape, n_modes=tk.meta["n_modes"])
    _maybe_plot(cfg, tau_grid, tk.values, f"k ({method})", "time-domain kernel")
    return write_table(("tau", "k"), (tau_grid, tk.values), meta, cfg)


def cmd_spectrum(cfg, params, omega_grid):
    j = spectral_density(params, omega_grid)
    meta = {"band_lo": params.lambda_pm, "band_hi": params.lambda_pp}
    _maybe_plot(cfg, omega_grid, j, "J", "environment spectral density")
    return write_table(("omega", "J"), (omega_grid, j), meta, cfg)


def cmd_multiplier(cfg, params, nu_grid):
    nu = nu_grid
    gain = np.atleast_1d(real_multiplier(params, nu))
    band = params.band_defined & (params.lambda_pm <= np.abs(nu)) \
        & (np.abs(nu) <= params.lambda_pp)
    region = np.where(band, "band", "outside")
    _maybe_plot(cfg, nu, gain, "A", "noise-kernel gain per sweep")
    return write_table(("nu", "gain", "region"), (nu, gain, region), {}, cfg)


def cmd_tree(cfg, params, branching, depth, lam):
    _check_rows(depth + 1)
    res = depth_convergence(params, branching, depth, lam)
    # no predecessor at depth 0; underflowed residuals leave no ratio
    ratio = ["none"] + [r / prev if prev > 0.0 else "none"
                        for prev, r in zip(res[:-1].tolist(), res[1:].tolist())]
    meta = {"lambda": lam, "branching": branching}
    _maybe_plot(cfg, np.arange(len(res)), np.log10(np.maximum(res, 1e-300)),
                "log10 residual", "depth convergence")
    return write_table(("depth", "residual", "ratio"),
                       (np.arange(res.size), res, ratio), meta, cfg)


def cmd_finite_time(cfg, params, dt, T, beta):
    times = time_grid(T, params.fine_step if dt is None else dt)
    _check_rows(times.size)
    state = thermal_init(beta, params)
    upstream = TwoTimeKernel.from_stationary(
        times, lambda u: branch_cut_kernel(params, u).values)
    res = twinning_solve(upstream, params)
    kI_out = vernon_imag_finite(res.G, params.C)
    # With no upstream, the noise kernel is the boundary terms alone.
    kR = vernon_real_full(None, res.G, state, params.C)
    u = times - times[0]
    meta = {"residual": res.residual, "beta": beta}
    _maybe_plot(cfg, u, res.G.row, "G(tau, u)",
                "dressed response at the window start")
    return write_table(("u", "G0", "G", "kI_out", "kR_boundary"),
                       (u, bare_response(params, u), res.G.row,
                        kI_out.row, kR.diagonal), meta, cfg)


def cmd_population(cfg, params, lam, pool_size, sweeps, sigma_rel, seed):
    _check_rows(sweeps + 1)
    gain = variance_gain(params, lam)
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    pop = population_init(params, lam, size=pool_size, seed=seed,
                          sigma=sigma_rel * abs(k_branch))
    rows = np.arange(sweeps + 1)
    mean, var = np.empty(rows.size), np.empty(rows.size)
    rejected = np.empty(rows.size, dtype=int)
    for sweep in rows.tolist():
        mean[sweep], var[sweep] = np.mean(pop.samples), np.var(pop.samples)
        rejected[sweep] = pop.rejected
        if sweep < sweeps:
            pop = population_step(pop)
    meta = {"lambda": lam, "variance_gain": gain, "k_branch": k_branch}
    _maybe_plot(cfg, rows, np.log10(np.maximum(var, 1e-300)),
                "log10 variance", "population variance trajectory")
    return write_table(("sweep", "mean", "variance", "rejected"),
                       (rows, mean, var, rejected), meta, cfg)


def cmd_orbit(cfg, params, lam, x0, steps, tol):
    _check_rows(steps + 1)
    rep = map_orbit(params, lam, x0=x0, steps=steps, tol=tol)
    status = np.where(np.isfinite(rep.orbit), "ok", "pole")
    meta = {"classification": rep.classification,
            "period": "none" if rep.period is None else rep.period,
            "diameter": rep.diameter}
    iteration = np.arange(rep.orbit.size)
    _maybe_plot(cfg, iteration, rep.orbit, "k", "cavity-map orbit")
    return write_table(("iteration", "k", "status"),
                       (iteration, rep.orbit, status), meta, cfg)


def cmd_check(report: str | None):
    from .acceptance import run_all
    def show(res):
        print(res.line(), flush=True)
        print(f"[{res.number:2d}] {res.runtime:.1f} s", file=sys.stderr, flush=True)

    # The report is opened first, so an unwritable path is refused before
    # the run; wall times go to stderr so that stdout is the same bytes on
    # every run.
    with _open_out(report) if report else contextlib.nullcontext() as fh:
        results, total = run_all(report=show)
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

# Error class -> (label, exit code); the most specific class listed wins.
_EXITS = {
    ConfigError: ("config", 2),
    ShapeError: ("shape", 2),
    SizeError: ("size", 2),
    DomainError: ("domain", 3),
    InstabilityError: ("instability", 3),
    AccuracyError: ("accuracy", 4),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and each subcommand's parser by name, built once
    per process from _KEYS and _TABLES.

    They hold flags and subcommand names only, no command functions, and
    ``parse_args`` leaves them unchanged, so every ``main`` call can share
    them.
    """
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Harmonic networks as effective quantum environments")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _TABLES:
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="JSON config file")
        for block, key, typ, flag, _, _, text in _KEYS:
            if not _reads(name, block, key):
                continue
            if isinstance(typ, tuple):
                sub.add_argument(flag, choices=typ, help=text)
            else:
                sub.add_argument(flag, type=None if typ is str else typ,
                                 help=text)
        if name == "kernel":
            sub.add_argument("--method", default="branch-cut",
                             choices=("branch-cut", "bessel", "oracle"),
                             help="kernel route")
    subs.add_parser("check").add_argument(
        "--report", help="write a JSON report here")
    return parser, subs.choices


def _run_table(name: str, args: dict) -> None:
    """Load the config of table ``name`` under its parsed flags ``args``,
    which hold its own flag too, and run it on the values _TABLES names."""
    over: dict = {}
    for block, key, _, flag, _, _, _ in _KEYS:
        val = args.pop(flag[2:].replace("-", "_"), None)
        if val is not None:
            over.setdefault(block, {})[key] = val
    cfg = load_config(args.pop("config"), over)
    grid, keys = _TABLES[name]
    args["params"] = _params(cfg)
    if grid:
        args[f"{grid}_grid"] = _grid(cfg[f"{grid}_grid"], f"{grid}_grid")
    args.update((key, cfg["numerics"][key]) for key in keys)
    # looked up per call, so a function replaced on this module is the one run
    globals()["cmd_" + name.replace("-", "_")](cfg, **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subs = _parsers()
    try:
        # A subcommand's own parser reads its flags, so a usage error shows
        # its usage; the top-level one takes --version, -h and what names no
        # subcommand.
        if argv and argv[0] in subs:
            name, args = argv[0], vars(subs[argv[0]].parse_args(argv[1:]))
        else:
            args = vars(parser.parse_args(argv))
            name = args.pop("command")
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code.
        return int(exc.code or 0)
    try:
        if name == "check":
            cmd_check(**args)
        else:
            _run_table(name, args)
    except NetbathError as exc:
        label, code = next(_EXITS[cls] for cls in type(exc).__mro__
                           if cls in _EXITS)
        print(f"ERROR {label}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
