"""dampcert benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts ``bench.py`` in fresh processes:
``SETUP_RUNS - 1`` that only set up (for ``setup_s``), then one that sets up
and measures for ``--seconds``.  The thread variables below are set only
for those processes, so the two-worker sweep pool does not oversubscribe
two cores.  Prints every metric by name with its unit, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The full result, environment included, is also written
to ``.bench_work/results/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("sweep_shipped", "sweep_pll", "dynamic_ladder", "validate")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-up samples per run: the measuring process plus SETUP_RUNS - 1 others
SETUP_RUNS = 5
#: the whole run must end well inside 180 s
RUN_BUDGET_S = 170.0
REQUIRED = ("src/dampcert/__init__.py", "configs/two_ibr.yaml", "configs/three_ibr.yaml",
            "configs/three_ibr_weak.yaml")


def child(mode, args, timeout):
    cmd = [sys.executable, str(HERE / "bench.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(WORK / args.workload)]
    # a session of its own, so a timeout also ends the sweep pool's workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench.py --mode {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not a dampcert checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining():
        return deadline - time.perf_counter()

    try:
        setups = [] if args.trace else [
            child("setup", args, remaining())["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = child("measure", args, remaining())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    elif args.workload == "sweep_shipped":
        print("trace: sweep_shipped runs `sweep --workers 1`: spans in pool children are lost")

    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    counts = {k: v for k, v in result["samples"].items() if k != "op_times"}
    print("samples: " + json.dumps(counts, sort_keys=True)
          + (f", setup runs {len(setups)}" if not args.trace else ""))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(out, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  samples=result["samples"], environment=result["environment"],
                  setup_runs=[] if args.trace else setups)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
