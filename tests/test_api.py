"""The public API holds only what the package, the benchmark or the paper uses.

Every name in ``netbath.__all__`` must be referenced from a package module
other than the one that defines it (``__init__`` aside), be read as an
attribute of the package in ``perfbench/``, or have an entry below that says
why it stays.  Every parameter with a default, of a public function or of a
public method of a public class, must likewise be passed by some call in the
package or in ``perfbench/``, or have an entry that says why it stays.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import netbath as nb

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {
    "uniform_map": "the paper's BP update of a single edge",
    "vernon_imag": "the paper's BP update of the dissipation kernel",
    "vernon_real_full": "the paper's BP update of the noise kernel on a "
                        "finite window; finite-time prints its diagonal "
                        "through the same private helper",
    "fourier_fixed_point": "the fixed-point kernel on the Fourier axis, "
                           "k*(i nu), a named quantity of the paper",
    "spectral_density_sine_transform": "reference the tests hold the "
                                       "branch-cut kernel against",
    "ThermalState": "return type of thermal_init",
    "Population": "return type of population_init and population_step",
}


def _identifiers(path: Path) -> set:
    """Names a module uses: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _package_attributes(path: Path) -> set:
    """Attributes read off the package itself, ``nb.X`` or ``netbath.X``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("nb", "netbath")}


def test_every_public_name_has_a_user():
    src = ROOT / "src" / "netbath"
    used_by = {p.stem: _identifiers(p) for p in src.glob("*.py")
               if p.stem != "__init__"}
    bench = set().union(*(_package_attributes(p)
                          for p in (ROOT / "perfbench").glob("*.py")))
    unused = []
    for name in nb.__all__:
        owner = getattr(getattr(nb, name), "__module__", "netbath")
        owner = owner.rsplit(".", 1)[-1]
        users = [mod for mod, names in used_by.items()
                 if mod != owner and name in names]
        if not users and name not in bench and name not in ALLOWED:
            unused.append(name)
    assert not unused, f"public names nothing uses: {unused}"
    stale = [name for name in ALLOWED if name not in nb.__all__]
    assert not stale, f"allowlist names no public name: {stale}"


OPTIONS_ALLOWED: dict = {}


def _options():
    """``{"name(param)": (name, param, position)}`` for every parameter
    with a default of a public function or public method.  ``position``
    counts the positional parameters before it, past ``self`` or ``cls``;
    it is None for a keyword-only one."""
    found = {}
    for name in nb.__all__:
        obj = getattr(nb, name)
        if inspect.isfunction(obj):
            targets = [(name, obj, False)]
        elif inspect.isclass(obj):
            targets = [(f"{name}.{attr}", getattr(obj, attr),
                        inspect.isfunction(raw))
                       for attr, raw in vars(obj).items()
                       if not attr.startswith("_") and (
                           inspect.isfunction(raw)
                           or isinstance(raw, (classmethod, staticmethod)))]
        else:
            continue
        for label, func, unbound in targets:
            params = list(inspect.signature(func).parameters.values())
            if unbound:
                params = params[1:]
            for position, p in enumerate(params):
                if p.default is p.empty:
                    continue
                if p.kind is p.KEYWORD_ONLY:
                    position = None
                found[f"{label}({p.name})"] = (label.rsplit(".", 1)[-1],
                                               p.name, position)
    return found


def _passed(calls, func, param, position) -> bool:
    """Whether some call of ``func`` passes ``param``: by keyword, by a
    ``**`` mapping, or by position, a ``*`` sequence included."""
    for call in calls.get(func, ()):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if position is not None and (
                len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args)):
            return True
    return False


def test_every_public_option_has_a_caller():
    calls = {}
    files = [*(ROOT / "src" / "netbath").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                calls.setdefault(name, []).append(node)
    options = _options()
    uncalled = [key for key, option in options.items()
                if not _passed(calls, *option) and key not in OPTIONS_ALLOWED]
    assert not uncalled, f"public options nothing passes: {uncalled}"
    stale = [key for key in OPTIONS_ALLOWED
             if key not in options or _passed(calls, *options[key])]
    assert not stale, f"allowlist names no uncalled public option: {stale}"


def _load_bench(name, monkeypatch):
    """A module of ``perfbench/`` loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_warm_up_runs(monkeypatch):
    # the benchmark's set-up calls the package as its jobs do, so a name or
    # keyword it passes that the package drops fails here
    jobs = _load_bench("jobs", monkeypatch)
    for workload in jobs.WORKLOADS:
        jobs.warm_up(workload)


def test_benchmark_trace_wraps_and_restores(monkeypatch, narrow_band):
    # the benchmark's traced mode imports every layer it names and wraps its
    # entry points, so a layer module that goes fails here; restoring puts
    # back every function object it replaced
    spans = _load_bench("spans", monkeypatch)
    from netbath.finite_time import TwoTimeKernel
    modules = [nb] + [importlib.import_module(f"netbath.{layer}")
                      for layer in spans.LAYERS]
    before = [dict(vars(mod)) for mod in modules]
    from_stationary = vars(TwoTimeKernel)["from_stationary"]
    tree = nb.build_tree(4, 3)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        nb.mode_decomposition(tree, narrow_band)
    finally:
        restore()
    assert [span[spans.FUNC] for span in tracer.spans] == \
        ["mode_decomposition"]
    for mod, names in zip(modules, before):
        assert all(vars(mod)[name] is obj for name, obj in names.items())
    assert vars(TwoTimeKernel)["from_stationary"] is from_stationary
