"""netbath benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process per workload runs a closed loop with one client: the next job
starts when the previous one has returned.  A pass runs the workload's
seeded job list once.  The number of passes is fixed per workload and
``--seconds`` (``PASSES_PER_30S``).  It never depends on how fast the measured
code runs, so a slower program is measured on as many samples as a faster
one.  Jobs call the netbath public API or ``netbath.cli.main(argv)`` in
process, against the package in ``src/`` of the checkout; their outputs are
validated untimed.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``job_p50_ms``, ``job_tail_ms``, ``setup_s`` (median over fresh processes of
the time to import netbath and warm up), ``peak_rss_mb`` and ``ok_ratio``
(jobs that succeeded and validated, over jobs attempted; ``failed_ratio`` is
printed beside it but cannot be a bounded metric, being 0 where nothing
fails).  ``job_tail_ms`` is taken at the highest percentile that leaves ten
jobs of one pass beyond it, pooled over passes, so it does not move with the
number of passes; lists shorter than eleven jobs report their slowest job.
The times are in reference seconds: each job's time is scaled by the host
speed a fixed probe measured around it (see ``speed.py``), because the speed
of a shared host's CPU wanders by a third, within seconds and for minutes.
The measured times and the host speed are printed beside them.

``--trace 1`` alternates untraced passes with traced ones, which run with
span wrappers around every layer (see ``spans.py``), and prints per-layer
metrics per traced pass, the tracing overhead (traced minus untraced
``wall_s``), and self time against size for the layers the roadmap names.
A traced run reports measured seconds, so the host's speed changes move its
overhead figure.
Spans are written to ``.bench_out/``.

The run, set-up probes included, is pinned to one CPU with one BLAS and
OpenMP thread: the CPUs of the host change speed independently of each
other, and the probe samples only the CPU it runs on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero, with no result, when
netbath cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("check", "cli-session", "network-scale")
SETUP_PROBES = 5
# Passes per 30 s of --seconds.  One pass takes 17-20 s (check, one job),
# 19-22 s (cli-session) and 15-20 s (network-scale) on a 2-CPU x86-64 host
# (Xeon, 2.1 GHz).  check's one long job varies least from run to run, so it
# gets one pass; the two lists of many short jobs get two.
PASSES_PER_30S = {"check": 1, "cli-session": 2, "network-scale": 2}
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return os.cpu_count()


def bootstrap():
    """Pin to one CPU and one thread, then import netbath from ``src``."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "netbath" / "__init__.py").is_file():
        raise SystemExit(f"error: no netbath package under {src}")
    sys.path.insert(0, str(src))
    import netbath
    if Path(netbath.__file__).resolve().parent != (src / "netbath").resolve():
        raise SystemExit(f"error: imported netbath from {netbath.__file__}")


# ---------------------------------------------------------------------------
# environment stamp


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment_stamp() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "netbath").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"nproc": _nproc(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_threads": _blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": commit, "source_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# measurement


def _host_probe() -> float:
    import speed
    return statistics.median(speed.probe() for _ in range(9))


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """(reference, raw) seconds from spawning a fresh process to its ready line.

    The child runs on the pinned CPU; the host speed is probed just before
    and just after it.
    """
    import speed

    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = _host_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload], stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed")
        pace = 0.5 * (before + _host_probe())
        times.append(elapsed * speed.REFERENCE_PROBE_S / pace)
        raw.append(elapsed)
    return times, raw


def run_pass(jobs, sampler=None, tracer=None, job_base=0) -> dict:
    """Run every job once; latencies exclude validation.

    With a sampler, latencies and ``wall`` are in reference seconds and
    ``raw_wall`` is measured; without, all are measured.
    """
    spans, verdicts = [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_base + i
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            outcome, verdict = job.run(), None
        except Exception as exc:  # a job that raises is a failed job
            outcome, verdict = None, ("failed", f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        spans.append((t0, t1, (sampler.spent if sampler else 0.0) - spent))
        if verdict is None:
            verdict = job.check(outcome)
        del outcome
        verdicts.append(verdict)
    if sampler is not None:
        sampler.sample()   # a sample after the last job
        latencies = [sampler.scaled(*span) for span in spans]
    else:
        latencies = [t1 - t0 for t0, t1, _ in spans]
    raw = [t1 - t0 - spent for t0, t1, spent in spans]
    return {"wall": sum(latencies), "raw_wall": sum(raw),
            "latencies": latencies, "verdicts": verdicts}


def tail(latencies: list[float], per_pass: int) -> tuple[float, float]:
    """(percentile, value): ten jobs per pass beyond it; slowest for short lists."""
    ordered = sorted(latencies)
    if per_pass <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    passes = len(ordered) // per_pass
    percentile = 100.0 * (per_pass - TAIL_BEYOND) / per_pass
    return percentile, ordered[len(ordered) - TAIL_BEYOND * passes - 1]


def job_mix(jobs, passes) -> list[dict]:
    """Share of jobs and of summed latency per kind, with size ranges."""
    total = sum(sum(p["latencies"]) for p in passes)
    kinds: dict[str, dict] = {}
    for i, job in enumerate(jobs):
        entry = kinds.setdefault(job.kind, {"kind": job.kind, "jobs": 0,
                                            "time": 0.0, "sizes": {}})
        entry["jobs"] += 1
        entry["time"] += sum(p["latencies"][i] for p in passes)
        for key, value in job.sizes.items():
            entry["sizes"].setdefault(key, set()).add(value)
    rows = []
    for entry in kinds.values():
        sizes = {}
        for key, values in entry["sizes"].items():
            if all(isinstance(v, (int, float)) for v in values):
                lo, hi = min(values), max(values)
                sizes[key] = f"{lo}" if lo == hi else f"{lo}..{hi}"
            else:
                sizes[key] = "/".join(sorted(map(str, values)))
        rows.append({"kind": entry["kind"], "job_share": entry["jobs"] / len(jobs),
                     "wall_share": entry["time"] / total if total else 0.0,
                     "sizes": sizes})
    return sorted(rows, key=lambda r: -r["wall_share"])


def failures(jobs, passes) -> list[str]:
    seen = []
    for p in passes:
        for job, verdict in zip(jobs, p["verdicts"]):
            if verdict is not None:
                line = f"{verdict[0]}: {job.label}: {verdict[1]}"
                if line not in seen:
                    seen.append(line)
    return seen


def run_workload(args) -> int:
    import jobs as joblib
    import speed

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / "work"
    work.mkdir(exist_ok=True)
    os.chdir(work)
    stamp = environment_stamp()
    jobs = joblib.WORKLOADS[args.workload](args.seed)
    joblib.warm_up(args.workload)
    setup, setup_raw = ([], []) if args.trace else measure_setup(args.workload)

    tracer = restore = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    count = max(1, round(PASSES_PER_30S[args.workload] * args.seconds / 30.0))
    # A traced run alternates untraced and traced passes, half the count of
    # each, and ends on one more untraced pass, so the first pass's extra
    # cost is not read as tracing overhead.
    plan = [False] * count
    if tracer is not None:
        plan = [False] + [True, False] * max(1, count // 2)
    # Untraced runs report reference seconds; a traced run reports measured
    # times throughout, so that its overhead compares like with like.
    sampler = None if tracer else speed.SpeedSampler()
    passes, traced = [], []
    try:
        if sampler is not None:
            sampler.start()
        for tracing in plan:
            if tracing and restore is None:
                restore = spans.install(tracer)
            elif not tracing and restore is not None:
                restore()
                restore = None
            result = run_pass(jobs, sampler, tracer if tracing else None,
                              job_base=len(jobs) * len(passes + traced))
            (traced if tracing else passes).append(result)
    finally:
        if sampler is not None:
            sampler.stop()

    every = passes + traced
    attempted = sum(len(p["verdicts"]) for p in every)
    failed = sum(v is not None for p in every for v in p["verdicts"])
    correct = not any(v is not None and v[0] == "wrong"
                      for p in every for v in p["verdicts"])
    mix = job_mix(jobs, passes)
    print(f"netbath benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"job mix: {len(jobs)} jobs per pass, closed loop, one client")
    for row in mix:
        sizes = "; ".join(f"{k} {v}" for k, v in row["sizes"].items())
        print(f"  {row['kind']:<22} jobs {100 * row['job_share']:5.1f}%  "
              f"wall {100 * row['wall_share']:5.1f}%  {sizes}")
    failed_jobs = failures(jobs, every)
    for line in failed_jobs:
        print("  " + line)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": stamp,
              "job_mix": mix, "failures": failed_jobs,
              "pass_walls_s": [p["wall"] for p in every],
              "pass_raw_walls_s": [p["raw_wall"] for p in every]}
    if args.trace:
        metrics = traced_metrics(passes, traced, tracer)
    else:
        metrics = end_to_end_metrics(jobs, passes, setup, attempted, failed)
        pace = statistics.median(sampler.probes) / speed.REFERENCE_PROBE_S
        record.update(setup_raw_s=setup_raw, probe_samples=len(sampler.probes),
                      probe_s_median=statistics.median(sampler.probes))
        print(f"host speed: median probe time {pace:.3f}x reference over "
              f"{len(sampler.probes)} samples; probing took "
              f"{100 * sampler.spent / sum(p['raw_wall'] for p in passes):.1f}% "
              f"of job time and is left out; measured wall_s "
              f"{statistics.median(p['raw_wall'] for p in passes):.4f} s, "
              f"setup_s {statistics.median(setup_raw):.4f} s")
    record["metrics"] = metrics
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(jobs, passes, setup, attempted, failed) -> dict:
    latencies = [x for p in passes for x in p["latencies"]]
    percentile, tail_value = tail(latencies, len(jobs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms",
                       f"n={len(latencies)} jobs"),
        "job_tail_ms": (1e3 * tail_value, "ms",
                        f"p{percentile:.1f}, n={len(latencies)} jobs"
                        + ("" if len(jobs) > TAIL_BEYOND else
                           f"; {len(jobs)} jobs per pass is too few for a tail,"
                           " slowest job reported")),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "peak_rss_mb": (rss_mb, "MB", "n=1 process"),
        "ok_ratio": ((attempted - failed) / attempted, "1",
                     f"{attempted - failed} of {attempted} jobs"),
    }
    print("end-to-end metrics:")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<3} ({note})")
    print(f"  {'failed_ratio':<13} {failed / attempted:12.4f} 1   "
          f"({failed} of {attempted} jobs)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def traced_metrics(untraced, traced, tracer) -> dict:
    import spans

    metrics, self_by_layer = spans.layer_metrics(tracer, len(traced))
    traced_wall = statistics.median(p["wall"] for p in traced)
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    in_spans = sum(spans.root_time_by_job(tracer).values()) / len(traced)
    glue = sum(p["wall"] for p in traced) / len(traced) - in_spans
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["bench.glue_s"] = (glue, "s")
    curves = spans.scaling_curves(tracer)
    spans.write(tracer, OUT_DIR / "spans.json", curves)

    print(f"per-layer metrics, per traced pass ({len(traced)} traced, "
          f"{len(untraced)} untraced):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6f} {unit}")
    layer_sum = sum(self_by_layer.values()) / len(traced)
    print(f"accounting: layer self time {layer_sum:.4f} s + glue {glue:.4f} s "
          f"= {layer_sum + glue:.4f} s; traced wall_s (mean) "
          f"{sum(p['wall'] for p in traced) / len(traced):.4f} s; "
          f"overhead {traced_wall - untraced_wall:+.4f} s on untraced "
          f"{untraced_wall:.4f} s")
    largest = max(self_by_layer, key=self_by_layer.get)
    print(f"largest layer by self time: {largest}")
    print("scaling curves (size, calls, median self ms):")
    for curve, rows in curves.items():
        points = ", ".join(f"{size:g}: {ms:.3f} ms x{n}" for size, n, ms in rows)
        print(f"  {curve}: {points}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Run each workload in its own process and print one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print("summary:")
    print(f"  {'metric':<32}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES))
    for name in names:
        print(f"  {name:<32}" + "".join(
            f"{results[w]['metrics'][name]['value']:16.4f}" for w in WORKLOAD_NAMES))
    print(f"  {'failed / attempted':<32}" + "".join(
        f"{results[w]['failed']:>8}/{results[w]['attempted']:<7}" for w in WORKLOAD_NAMES))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bootstrap()
    if args.probe:
        import jobs as joblib
        joblib.warm_up(args.workload)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
