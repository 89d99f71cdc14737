"""Seeded closed-loop benchmark of pvcsp.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 35 --trace 0

One process, no threads, one caller: each op starts after the previous one
ends.  The loop runs the workload's pool in whole rounds (one op of every
cell of the mix) until --seconds have passed and at least 100 ops have run,
starting the pool again if it runs out, so every run measures each cell
equally often; --seconds is a minimum.  Op and set-up times are scaled to a
nominal machine speed measured between ops (speed.py).  Every op's output is
checked against an independent oracle after the timed loop, so oracle time
counts in no timing.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics.  With --trace 1 each op runs
twice, untraced and with every public pvcsp function wrapped; the run fails
if the two outputs differ, and reports the per-layer metrics instead.  The
spans go to .perfbench_traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated and its median reported, so that one slow import (the
# first compiles the sources) does not decide setup_s
SETUPS = 9
# p90 needs at least 10 samples above it
MIN_OPS = 100
PVCSP_MODULES = ("core", "values", "generators", "exactlp", "lattice", "relax", "theory", "formats", "cli")


def forget_pvcsp() -> None:
    for name in [m for m in sys.modules if m == "pvcsp" or m.startswith("pvcsp.")]:
        del sys.modules[name]


def import_pvcsp():
    """A fresh import of every pvcsp module, as a namespace."""
    forget_pvcsp()
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"pvcsp.{m}") for m in PVCSP_MODULES}
    )


def set_up(name: str, seed: int, workdir: str, speed: Speed):
    def build():
        pv = import_pvcsp()
        return pv, WORKLOADS[name](pv, seed, workdir)

    times = []
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        # the previous set-up's modules and pool are garbage from here on, so
        # the peak memory holds one pool only
        pv = workload = None
        forget_pvcsp()
        gc.collect()
        (pv, workload), elapsed = speed.timed(build)
        times.append(elapsed)
    return pv, workload, statistics.median(times)


class Failed:
    """An op that raised; never equal to a real output."""

    def __init__(self, exc: Exception):
        self.message = f"{type(exc).__name__}: {exc}"


def run_op(workload, item):
    try:
        return workload.run(item)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        return Failed(exc)


def more_ops(workload, ops: int, elapsed: float, seconds: float) -> bool:
    """True until whole rounds cover `seconds` and MIN_OPS ops."""
    return ops % workload.round_size != 0 or ops < MIN_OPS or elapsed < seconds


def timed_loop(workload, seconds: float, speed: Speed):
    """Closed loop over the pool, in whole rounds (see more_ops).  Returns
    the op times at the nominal speed, the measured ones, and the outputs."""
    spans, outputs = [], []
    pool = len(workload.items)
    start = time.perf_counter()
    while more_ops(workload, len(outputs), time.perf_counter() - start, seconds):
        item = workload.items[len(outputs) % pool]
        speed.sample_if_due()
        t0 = time.perf_counter()
        outputs.append(run_op(workload, item))
        spans.append((t0, time.perf_counter()))
    speed.sample()
    return [speed.scaled(*s) for s in spans], [t1 - t0 for t0, t1 in spans], outputs


def failures(workload, outputs) -> dict[int, str]:
    """Check every output; an item's repeated, equal output is checked once.
    Returns the failed ops by index."""
    checked = {}
    errors = {}
    for k, out in enumerate(outputs):
        i = k % len(workload.items)
        if isinstance(out, Failed):
            errors[k] = out.message
            continue
        if i not in checked or checked[i][0] != out:
            try:
                checked[i] = (out, workload.verify(workload.items[i], out))
            except Exception as exc:  # an output the checker cannot read
                checked[i] = (out, f"check raised {type(exc).__name__}: {exc}")
        if checked[i][1] is not None:
            errors[k] = checked[i][1]
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    speed = Speed()
    measured = ""
    try:
        pv, workload, setup_s = set_up(args.workload, args.seed, workdir, speed)
        if args.trace:
            metrics, ops, errors = traced_run(pv, workload, args)
            units = tracing.UNITS
        else:
            latencies, raw, outputs = timed_loop(workload, args.seconds, speed)
            ops, errors = len(outputs), failures(workload, outputs)
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            measured = (
                f"measured: op_p50_s={statistics.median(raw):.4f} "
                f"ops_per_s={ops / sum(raw):.3f} slowdown={speed.factor():.3f}\n"
            )
            metrics = {
                "op_p50_s": statistics.median(latencies),
                "op_p90_s": deciles[8],
                "ops_per_s": ops / sum(latencies),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            os.rmdir(os.path.dirname(workdir))

    for op, message in list(errors.items())[:20]:
        print(f"FAILED op {op}: {message}")
    print(
        f"{measured}workload={args.workload} seed={args.seed} ops={ops} pool={len(workload.items)} "
        f"failed_share={len(errors) / ops:.4f} "
        f"python={platform.python_version()} cpus={os.cpu_count()}"
    )
    result = {
        "correct": not errors,
        "attempted": ops,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(pv, workload, args):
    """Each op runs twice in a row, untraced and traced, the first of the two
    alternating, in whole rounds as in timed_loop.  Pairing the two runs of an op
    keeps drift in the machine's speed out of the overhead.  Both outputs are
    checked, and a traced output that differs from its untraced twin fails."""
    tracer = tracing.Tracer(pv)
    plain, traced = [], []
    plain_s = traced_s = 0.0
    pool = len(workload.items)
    start = time.perf_counter()
    while more_ops(workload, len(plain), time.perf_counter() - start, args.seconds):
        k = len(plain)
        item = workload.items[k % pool]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = k
                tracer.instrument()
            t0 = time.perf_counter()
            try:
                out = run_op(workload, item)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.restore()
            if with_trace:
                traced.append(out)
                traced_s += elapsed
            else:
                plain.append(out)
                plain_s += elapsed
    tracer.op = -1
    tracer.instrument()  # checker time is traced too, as theory.check_s
    try:
        errors = {f"{k}": e for k, e in failures(workload, plain).items()}
        for k, e in failures(workload, traced).items():
            errors[f"{k} traced"] = e
    finally:
        tracer.restore()
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a != b and f"{k} traced" not in errors:
            errors[f"{k} traced"] = "traced output differs from untraced"
    metrics = tracing.layer_metrics(tracer.spans, len(plain), pv.relax)
    metrics["trace.overhead_share"] = traced_s / plain_s - 1
    trace_dir = os.path.join(ROOT, ".perfbench_traces")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    return metrics, 2 * len(plain), errors


UNITS = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import pvcsp from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        sys.exit(2)
