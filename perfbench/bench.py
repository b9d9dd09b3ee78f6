"""One benchmark process: set up a workload, then (in ``measure`` mode) run
passes of it until the time is up.  ``run.py`` starts it; its last line of
standard output is a JSON result.

    python3 perfbench/bench.py --mode setup|measure --workload NAME --seed N \
        --seconds S --trace 0|1

Set-up time runs from the first line of this file, so it covers importing
numpy and dampcert, loading or generating the inputs, discretizing the
boundary and building the network providers.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dampcert  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "seed": seed,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def quantile(values, q):
    """The q-quantile (q a multiple of 0.05), interpolated between the
    samples around it: a small shift in one op's time then moves it a
    little, where a nearest-rank quantile over unlike ops jumps from one
    op to another."""
    return statistics.quantiles(values, n=20, method="inclusive")[round(q * 20) - 1]


def middle_mean(values):
    """The mean of the middle half of the values (all of them when there
    are fewer than four)."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def run_pass(ops, refs, tracer, failures):
    """Run every op once; returns (op, seconds, ok) per op."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:  # the pass must go on; the op counts as failed
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                summary = op.check(result)
                if op.name in refs:
                    workloads.compare(summary, refs[op.name], op.name)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
        out.append((op, dt, error is None))
    return out


def pass_walls(passes):
    return [sum(dt for _, dt, _ in p) for p in passes]


def end_to_end(passes):
    """End-to-end metrics over the untraced passes.

    Each op of a pass is taken at the mean of the middle half of its
    calls in the run; ``wall_s`` is the sum of these op times and the
    latency quantiles are taken over them.  Dropping the outer quarters
    drops the first, cold call and calls slowed by load from elsewhere; a
    mean, not the median, of the rest, because the passes alternate
    between cores that may run at different speeds.  The cost growth
    compares mean per-device op times: a median at the smallest grid is
    the time of one of its shortest ops, which load from elsewhere moves
    most.
    """
    by_op = {}
    for p in passes:
        for op, dt, _ in p:
            by_op.setdefault(op.name, []).append(dt)
    ops = [op for op, _, _ in passes[0]]
    op_times = [middle_mean(by_op[op.name]) for op in ops]
    wall = sum(op_times)
    per_device = {}
    for op, dt in zip(ops, op_times):
        if op.size:
            per_device.setdefault(op.size, []).append(dt / op.devices)
    lo, hi = min(per_device), max(per_device)
    growth = statistics.fmean(per_device[hi]) / statistics.fmean(per_device[lo])
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (wall, "s"),
        "op_s.p50": (quantile(op_times, 0.5), "s"),
        "op_s.p90": (quantile(op_times, 0.9), "s"),
        "grid_points_per_s": (sum(op.points for op in ops) / wall, "1/s"),
        "per_device_cost_growth": (growth, "ratio"),
        "peak_rss_mb": ((usage + children) / 1024.0, "MB"),
    }
    samples = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "per_device_ops": {str(lo): len(per_device[lo]), str(hi): len(per_device[hi])},
        "op_times": by_op,
    }
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    args = parser.parse_args(argv)

    expected = (ROOT / "src" / "dampcert").resolve()
    if Path(dampcert.__file__).resolve().parent != expected:
        print(f"dampcert imported from {dampcert.__file__}, not {expected}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        tracer.active = True
    ops = workloads.WORKLOADS[args.workload](args.seed, work, traced=bool(args.trace))
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()

    refs = workloads.references(args.workload, ops, args.seed)

    failures, untraced, traced = [], [], []
    # Load from elsewhere on a shared host often slows one core for stretches
    # of seconds to minutes while the other keeps its speed, and the scheduler
    # leaves a process on one core.  An untraced single-process workload
    # therefore runs its passes on each core in turn.  (In a traced run
    # they would set traced passes on one core against untraced ones on
    # the other.)
    cores = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    k = 0
    # a pass starts only if a pass of the mean length so far ends in time
    while k < (2 if tracer else 1) or (
            (time.perf_counter() - start) * (k + 1) / k <= args.seconds):
        if tracer is None and args.workload not in workloads.POOLED:
            os.sched_setaffinity(0, {cores[k % len(cores)]})
        use_trace = tracer is not None and k % 2 == 1
        if use_trace:
            tracer.phase = "pass"
            tracer.install()
        done = run_pass(ops, refs, tracer if use_trace else None, failures)
        (traced if use_trace else untraced).append(done)
        if use_trace:
            tracer.uninstall()
        k += 1

    all_passes = untraced + traced
    attempted = sum(len(p) for p in all_passes)
    failed = sum(1 for p in all_passes for _, _, ok in p if not ok)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.layer_metrics(pass_walls(traced), pass_walls(untraced))
        tracer.write_spans(work / "spans.tsv")
        samples = {"passes": len(traced), "untraced_passes": len(untraced)}
    else:
        metrics, samples = end_to_end(untraced)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "environment": environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
