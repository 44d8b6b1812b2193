"""Benchmark for wushkit: three closed-loop workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload llm-layer --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30
    python3 -m pytest perfbench -q

A run imports ``wushkit`` from ``src/`` of the checkout it sits in, makes the
workload's inputs from ``--seed`` under ``.bench_work/`` (removed when the run
ends), runs one untimed warm-up operation and then one operation at a time
for ``--seconds`` seconds.  Every operation's output is checked against the
warm-up's; an operation that raises or fails its check counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over seven fresh interpreters of the wall time to
  import ``wushkit`` and make and write the workload's inputs;
* ``op_s``: median wall time of one operation;
* ``op_s_tail``: the operation time with exactly ten slower operations
  beyond it (the percentile and sample count are printed above the JSON);
* ``matmul_multiple``: seconds per loss cell over the seconds of one dense
  ``W^T X`` of the workload's shape, timed after every operation in the same
  process (for ``validators``, the ``(samples x d) @ (d x d)`` draw product
  of one ``validate`` command);
* ``peak_rss_mib``: peak resident memory of this process.

``error_rate`` (failed / attempted) is printed in the summary row; the JSON
carries it as ``failed`` and ``attempted``.

``--trace 1`` wraps the public functions of every ``wushkit`` module (see
``tracer.py``) on every other operation and reports per-layer metrics per
traced operation: calls, self time and raised errors of each function, work
counts, ``trace.coverage`` (share of traced operation time inside top-level
spans) and ``trace.overhead`` (median traced over median untraced operation
time, minus one).  ``tensorio.write_tensor`` is traced during set-up and
reported per set-up.  No layer queues work or runs concurrently, so no
waiting time is reported.  FLOP and byte counts are computed from array
shapes, not read from hardware counters.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: at most one per usable core.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > _NPROC:
        os.environ[_var] = str(_NPROC)

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, span_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_s_tail", "s"),
    ("matmul_multiple", "x"),
    ("peak_rss_mib", "MiB"),
)

#: Work counters reported per operation, with their units.
WORK_COUNTERS = (
    ("tensorio.read_tensor.bytes", "B/op"),
    ("transforms.second_moments.computed_flops", "flop/op"),
    ("pipeline.layer_loss.computed_flops", "flop/op"),
    ("pipeline.layer_loss.computed_bytes", "B/op"),
    *(
        (f"{n}.elements", "1/op")
        for n in span_names()
        if n.startswith("quantformats.quantize_matrix.")
    ),
    ("noise.one_sided_loss_mc.samples", "1/op"),
    ("stats_bounds.mc_max_sq.scalars", "1/op"),
)
UNIQUE_RATIOS = ("transforms.second_moments", "pipeline.gen_synthetic")
SETUP_SPANS = ("tensorio.write_tensor",)


def per_layer_spec() -> list:
    """``(name, unit)`` of every per-layer metric, in output order."""
    spec = []
    for span in span_names():
        per = "setup" if span in SETUP_SPANS else "op"
        spec += [(f"{span}.calls", f"1/{per}"), (f"{span}.self_s", f"s/{per}"),
                 (f"{span}.errors", f"1/{per}")]
        if span in SETUP_SPANS:
            spec.append((f"{span}.bytes", "B/setup"))
    spec += list(WORK_COUNTERS)
    spec += [(f"{s}.unique_ratio", "ratio") for s in UNIQUE_RATIOS]
    spec += [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
    return spec


def import_wushkit(root: Path = ROOT):
    """Import ``wushkit`` (and its CLI) from ``root/src``, nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        wk = importlib.import_module("wushkit")
        importlib.import_module("wushkit.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wushkit from {src}: {exc}")
    if Path(wk.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: wushkit came from {wk.__file__}, not {src}")
    return wk


# -- machine facts -------------------------------------------------------------


def _blas() -> dict:
    info = {"name": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(wk, seed: int) -> dict:
    blas = _blas()
    get_backend = getattr(wk, "get_backend", None)
    return {
        "nproc": _NPROC,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_threads": blas["threads"],
        "backend": get_backend() if get_backend else None,
        "seed": seed,
        "src_wushkit_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src" / "wushkit").rglob("*.py")
        ),
    }


# -- measurement ---------------------------------------------------------------


class Measurement:
    """Operation times, dense-product times and failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s = []  # untraced operations
        self.traced_s = []
        self.dense_s = []
        self.problems = []
        self.first = None


def attempt(workload, m: Measurement, tracer=None) -> float:
    """Run and check one operation; return its wall time."""
    m.attempted += 1
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.op()
    except Exception:
        out = None
        problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.end_scope()
    if out is not None:
        if m.first is None:
            m.first = out
        problems = workload.check(out, m.first)
    if problems:
        m.failed += 1
        m.problems.append(f"operation {m.attempted}: " + "; ".join(problems))
    return elapsed


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """One untimed warm-up operation, then operations for ``seconds``.

    With a tracer, every other operation is traced; otherwise each operation
    is followed by one timed dense product of the workload's shape.
    """
    m = Measurement()
    attempt(workload, m)
    workload.dense()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        if tracer is not None and k % 2 == 1:
            m.traced_s.append(attempt(workload, m, tracer))
        else:
            m.op_s.append(attempt(workload, m))
            if tracer is None:
                m.dense_s.append(workload.dense())
        k += 1
    return m


def tail(times) -> tuple:
    """(value, percentile, n): the time with ``TAIL_BEYOND`` samples beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def time_setups(name: str, seed: int, workdir: Path) -> list:
    """Wall times of ``SETUP_REPEATS`` fresh interpreters doing the set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup-{k}"
        target.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only", str(target)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end_metrics(workload, m: Measurement, setup_times) -> tuple:
    op_s = statistics.median(m.op_s)
    tail_s, pct, n = tail(m.op_s)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s": op_s,
        "op_s_tail": tail_s,
        "matmul_multiple": op_s / workload.loss_cells / statistics.median(m.dense_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"op_s_tail is p{pct:.0f} of n={n} timed operations"
    return metrics, note


def per_layer_metrics(setup_tr: Tracer, tr: Tracer, m: Measurement) -> dict:
    n = max(len(m.traced_s), 1)
    metrics = {}
    for span in span_names():
        src, per = (setup_tr, 1) if span in SETUP_SPANS else (tr, n)
        metrics[f"{span}.calls"] = src.calls.get(span, 0) / per
        metrics[f"{span}.self_s"] = src.self_s.get(span, 0.0) / per
        metrics[f"{span}.errors"] = src.errors.get(span, 0) / per
        if span in SETUP_SPANS:
            metrics[f"{span}.bytes"] = src.work.get(f"{span}.bytes", 0.0)
    for name, _ in WORK_COUNTERS:
        metrics[name] = tr.work.get(name, 0.0) / n
    for span in UNIQUE_RATIOS:
        metrics[f"{span}.unique_ratio"] = tr.unique_ratio(span)
    traced = sum(m.traced_s)
    metrics["trace.coverage"] = tr.top_level_s / traced if traced else 0.0
    metrics["trace.overhead"] = (
        statistics.median(m.traced_s) / statistics.median(m.op_s) - 1.0 if m.traced_s else 0.0
    )
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wk = import_wushkit()
    cls = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(wk, seed, workdir)
        if trace:
            with Tracer() as setup_tr:
                workload.setup()
            tr = Tracer()
            m = measure(workload, seconds, tr)
            metrics = per_layer_metrics(setup_tr, tr, m)
            units = dict(per_layer_spec())
            if tr.missing:
                print("not found, reported as zero: " + ", ".join(tr.missing))
        else:
            setup_times = time_setups(name, seed, workdir)
            workload.setup()
            m = measure(workload, seconds)
            metrics, note = end_to_end_metrics(workload, m, setup_times)
            units = dict(END_TO_END)
            print(note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    for p in m.problems[:20]:
        print(f"FAILED {p}")
    error_rate = m.failed / m.attempted
    print("machine: " + json.dumps(machine_facts(wk, seed), sort_keys=True))
    shown = "".join(f"{k}={metrics[k]:.4g} {u}  " for k, u in END_TO_END if k in metrics)
    print(f"row: {name:<11}{shown}error_rate={error_rate:.4g} ratio")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process and print one row each."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rows += [l[len("row: "):] for l in lines if l.startswith("row: ")]
        print("\n".join(l for l in lines[:-1] if not l.startswith("row: ")))
    print("\n".join(rows))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](import_wushkit(), args.seed, Path(args.setup_only)).setup()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
