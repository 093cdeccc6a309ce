"""Span tracing of netbath's layers from outside the package.

:func:`install` wraps the coarse entry points of every layer (the public
functions of each ``netbath.<layer>`` module, the two tree sweeps and
``TwoTimeKernel.from_stationary``) and replaces every reference to them
across the ``netbath.*`` namespaces, tuples of functions included, because
``cli`` and ``acceptance`` import names directly.  Per-step scalars are left
alone: wrapping them would time the wrapper, not the layer.

Spans stay in memory as ``[layer, func, start, end, parent, job, size,
child_time, counts]`` and are written out once, at the end of a run.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import time

import numpy as np

LAYERS = ("model", "laplace", "tree_bp", "timedomain", "bessel", "oracle",
          "finite_time", "rs", "cli", "acceptance")

# Per-step scalars, called once per lambda or per map step.
SKIP = {"uniform_map", "vernon_imag", "g0_laplace"}

# Private functions that are the coarse unit of their layer.
EXTRA = {"tree_bp": ("_upward_messages", "_downward_messages")}

LAYER, FUNC, START, END, PARENT, JOB, SIZE, CHILD, COUNTS = range(9)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _nodes(args, kwargs, result):
    return _arg(args, kwargs, 0, "tree").n_nodes, None


def _grid_sweep(args, kwargs, result):
    # Both sweeps are called positionally as (tree, params, grid, ...).
    n = args[0].n_nodes
    return n, {"node_grid_updates": n * np.size(args[2])}


def _solve(args, kwargs, result):
    n = _arg(args, kwargs, 0, "tree").n_nodes
    limit = args[3] if len(args) > 3 else kwargs.get("dense_limit", 4096)
    kind = "dense_solves" if n <= limit else "sparse_solves"
    return n, {kind: 1, "solve_nodes": n}


def _twinning(args, kwargs, result):
    n = _arg(args, kwargs, 0, "kI_upstream").times.size
    return n, {"twinning_iterations": result.iterations, "window_points": n}


def _population_step(args, kwargs, result):
    pop = _arg(args, kwargs, 0, "pop")
    uniform = pop.disorder.coupling[0] == pop.disorder.degree[0] == "constant"
    return pop.samples.size, {"samples_updated": pop.samples.size,
                              "pole_rejections": result.rejected - pop.rejected,
                              "disorder_sweeps": 0 if uniform else 1}


def _branch_cut(args, kwargs, result):
    n = result.tau.size
    return n, {"sin_evals": n * result.meta.get("quad_order", 0)}


ANNOTATE = {
    "tree_bp._upward_messages": _grid_sweep,
    "tree_bp._downward_messages": _grid_sweep,
    "tree_bp.build_tree": lambda a, k, r: (r.n_nodes, None),
    "tree_bp.build_chain": lambda a, k, r: (r.n_nodes, None),
    "tree_bp.depth_convergence": lambda a, k, r: (r.size, {"map_steps": r.size - 1}),
    "oracle.tree_matrix": _nodes,
    "oracle.oracle_kernel_laplace": _solve,
    "oracle.mode_decomposition": _nodes,
    "oracle.oracle_time_kernel": _nodes,
    "finite_time.twinning_solve": _twinning,
    "finite_time.ode_response_check": lambda a, k, r: (r.size, None),
    "finite_time.vernon_real_full": lambda a, k, r: (r.times.size, None),
    "rs.population_step": _population_step,
    "rs.population_stats": lambda a, k, r: (_arg(a, k, 0, "pop").samples.size, None),
    "rs.map_orbit": lambda a, k, r: (r.orbit.size, {"map_steps": r.orbit.size - 1}),
    "laplace.iterate_fixed_point": lambda a, k, r: (r.iterations, {"map_steps": r.iterations}),
    "timedomain.branch_cut_kernel": _branch_cut,
    "timedomain.bessel_kernel": lambda a, k, r: (r.tau.size, None),
    "timedomain.bessel_convolution": lambda a, k, r: (r.size, None),
    "timedomain.forward_laplace": lambda a, k, r: (
        r.kernel.grid.size * _arg(a, k, 0, "tk").tau.size, None),
    "bessel.j0": lambda a, k, r: (np.size(r), None),
    "cli.write_table": lambda a, k, r: (len(r), {"bytes_out": len(r)}),
}


class Tracer:
    """In-memory span recorder; one client, so one stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, layer: str, func: str, fn):
        name = f"{layer}.{func}"
        annotate = ANNOTATE.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, func, clock(), None, stack[-1] if stack else -1,
                    self.job, None, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if annotate is not None:
                span[SIZE], span[COUNTS] = annotate(args, kwargs, result)
            return result

        return wrapper


def install(tracer: Tracer):
    """Replace every netbath reference to a layer entry point by a wrapper.

    Returns a function that puts the original references back.
    """
    import netbath
    from netbath.finite_time import TwoTimeKernel

    modules = [importlib.import_module(f"netbath.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for name, obj in vars(mod).items():
            public = not name.startswith("_") and name not in SKIP
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and \
                    (public or name in EXTRA.get(layer, ())):
                wrappers[obj] = tracer.wrap(layer, name, obj)
    originals = []
    for mod in [netbath] + modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                originals.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
            elif isinstance(obj, tuple) and any(
                    inspect.isfunction(o) and o in wrappers for o in obj):
                originals.append((mod, name, obj))
                setattr(mod, name, tuple(wrappers.get(o, o) for o in obj))
    originals.append((TwoTimeKernel, "from_stationary",
                      vars(TwoTimeKernel)["from_stationary"]))
    TwoTimeKernel.from_stationary = classmethod(tracer.wrap(
        "finite_time", "from_stationary", TwoTimeKernel.from_stationary.__func__))

    def restore():
        for owner, name, obj in originals:
            setattr(owner, name, obj)

    return restore


def self_time(span) -> float:
    return span[END] - span[START] - span[CHILD]


# Per-layer metrics: name -> functions whose self time it sums.
SELF_TIME_METRICS = {
    "oracle.assembly_s": ("oracle.tree_matrix",),
    "oracle.factorisation_s": ("oracle.oracle_kernel_laplace",),
    "oracle.eigh_s": ("oracle.mode_decomposition",),
    "oracle.mode_sum_s": ("oracle.oracle_time_kernel",),
    "finite_time.twinning_s": ("finite_time.twinning_solve",),
    "finite_time.noise_kernel_s": ("finite_time.vernon_real_full",),
    "finite_time.ode_check_s": ("finite_time.ode_response_check",),
    "finite_time.kernel_build_s": ("finite_time.from_stationary",
                                   "finite_time.vernon_imag_finite"),
    "tree_bp.upward_s": ("tree_bp._upward_messages",),
    "tree_bp.rerooting_s": ("tree_bp._downward_messages",
                            "tree_bp.output_environment"),
    "tree_bp.build_s": ("tree_bp.build_tree", "tree_bp.build_chain"),
    "rs.orbit_s": ("rs.map_orbit", "rs.orbit_converges"),
    "rs.stats_s": ("rs.population_stats",),
    "timedomain.branch_cut_s": ("timedomain.branch_cut_kernel",
                                "timedomain.branch_cut_envelope"),
    "timedomain.bessel_s": ("timedomain.bessel_kernel",
                            "timedomain.bessel_convolution"),
    "timedomain.forward_laplace_s": ("timedomain.forward_laplace",),
    "bessel.j0_s": ("bessel.j0",),
}

# Per-layer counts, each summed over the spans of its own layer only.
COUNT_METRICS = (
    "oracle.dense_solves", "oracle.sparse_solves", "oracle.solve_nodes",
    "finite_time.twinning_iterations", "finite_time.window_points",
    "tree_bp.node_grid_updates", "rs.samples_updated", "rs.pole_rejections",
    "laplace.map_steps", "timedomain.sin_evals", "cli.bytes_out",
)

LAYER_SELF_METRICS = ("laplace", "cli", "model", "acceptance")

# Self time against size for the layers the roadmap names.
CURVES = {
    "scalar map and fixed point (map steps)": ("laplace.iterate_fixed_point",),
    "branch-cut quadrature (tau points)": ("timedomain.branch_cut_kernel",),
    "Bessel convolution (fine-grid points)": ("timedomain.bessel_convolution",),
    "forward Laplace (lambda x tau points)": ("timedomain.forward_laplace",),
    "upward sweep (nodes)": ("tree_bp._upward_messages",),
    "re-rooting sweep (nodes)": ("tree_bp._downward_messages",),
    "oracle assembly (nodes)": ("oracle.tree_matrix",),
    "oracle factorisation (nodes)": ("oracle.oracle_kernel_laplace",),
    "oracle eigh (nodes)": ("oracle.mode_decomposition",),
    "finite-window solve (window N)": ("finite_time.twinning_solve",),
    "population sweep, uniform (pool)": ("rs.population_step:uniform",),
    "population sweep, disorder (pool)": ("rs.population_step:disorder",),
}


def _key(span) -> str:
    name = f"{span[LAYER]}.{span[FUNC]}"
    if name == "rs.population_step":
        disorder = (span[COUNTS] or {}).get("disorder_sweeps")
        return name + (":disorder" if disorder else ":uniform")
    return name


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer metrics from the recorded spans."""
    self_by_func: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counts: dict[str, float] = {}
    for span in tracer.spans:
        key = _key(span)
        own = self_time(span)
        self_by_func[key] = self_by_func.get(key, 0.0) + own
        self_by_layer[span[LAYER]] += own
        calls[span[LAYER]] += 1
        for name, value in (span[COUNTS] or {}).items():
            name = f"{span[LAYER]}.{name}"
            counts[name] = counts.get(name, 0) + value
    out = {}
    for metric, funcs in SELF_TIME_METRICS.items():
        out[metric] = (sum(self_by_func.get(f, 0.0) for f in funcs), "s")
    out["rs.sweep_uniform_s"] = (self_by_func.get("rs.population_step:uniform", 0.0), "s")
    out["rs.sweep_disorder_s"] = (self_by_func.get("rs.population_step:disorder", 0.0), "s")
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0), "count")
    updated = counts.get("rs.samples_updated", 0)
    attempts = updated + counts.get("rs.pole_rejections", 0)
    # No update attempted means nothing was wasted either.
    accept = updated / attempts if attempts else 1.0
    for layer in LAYER_SELF_METRICS:
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
    metrics = {k: (v / passes, unit) for k, (v, unit) in out.items()}
    metrics["rs.accept_ratio"] = (accept, "1")
    return metrics, self_by_layer


def scaling_curves(tracer: Tracer) -> dict:
    """{curve: [(median size, calls, median self ms)]} in quarter-octave buckets."""
    groups: dict[str, dict[int, list]] = {}
    for span in tracer.spans:
        if span[SIZE] is None:
            continue
        key = _key(span)
        for curve, funcs in CURVES.items():
            if key in funcs:
                bucket = round(4 * math.log2(max(span[SIZE], 1)))
                groups.setdefault(curve, {}).setdefault(bucket, []).append(span)
    curves = {}
    for curve, buckets in groups.items():
        rows = []
        for bucket in sorted(buckets):
            spans = buckets[bucket]
            rows.append((statistics.median(s[SIZE] for s in spans), len(spans),
                         1e3 * statistics.median(self_time(s) for s in spans)))
        curves[curve] = rows
    return curves


def root_time_by_job(tracer: Tracer) -> dict:
    """Time inside top-level spans per job id."""
    out: dict[int, float] = {}
    for span in tracer.spans:
        if span[PARENT] < 0:
            out[span[JOB]] = out.get(span[JOB], 0.0) + span[END] - span[START]
    return out


def write(tracer: Tracer, path, curves: dict) -> None:
    doc = {"fields": ["name", "start", "end", "parent", "job", "size", "counts"],
           "spans": [[f"{s[LAYER]}.{s[FUNC]}", s[START], s[END], s[PARENT],
                      s[JOB], s[SIZE], s[COUNTS]] for s in tracer.spans],
           "scaling_curves": {k: [list(r) for r in v] for k, v in curves.items()}}
    with open(path, "w") as fh:
        json.dump(doc, fh, default=float)
