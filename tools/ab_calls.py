"""Interleaved in-process A/B timing of two checkouts' certificate calls.

Each checkout's ``src/dampcert`` is copied to a temporary directory under a
package name of its own (``dampcert_a``, ``dampcert_b``).  The package
imports only relatively, so both copies load into one process: they run on
the same inputs, in the same interpreter, in the same phase of the host.
A host whose speed drifts between phases can hide a 10% change from a
benchmark that compares separate runs; here both sides share every phase.

Each round times, in both copies, by thread CPU time:

- ``ladder``: ``boundary_certificate`` with the dynamic provider for two
  devices of a ring and a random grid of 4, 8 and 16 devices (12 calls);
- ``certify_all_n<N>``: ``certify_all`` with the static provider on random
  grids of 20, 54 and 100 devices with half as many interior nodes, the
  first half of the devices GFM;
- ``masks``: ``feasible_region`` for every sweep of the shipped
  ``two_ibr`` and ``three_ibr`` configs (5 masks).

The order of the two copies alternates every round, after one untimed
round.  The tool prints the first quartile over the rounds of each group's
time per copy, the ratio B/A, and whether both copies gave the same bits.
Set ``OPENBLAS_NUM_THREADS`` (default 1 here) and pin the process with
``taskset`` for steadier numbers.

    python tools/ab_calls.py PARENT_CHECKOUT CHECKOUT --rounds 120
"""

import argparse
import importlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

LADDER_SIZES = (4, 8, 16)
VALIDATE_SIZES = (20, 54, 100)
SWEPT = ("two_ibr", "three_ibr")


def load_copy(checkout: Path, name: str, tmp: Path):
    """The checkout's ``src/dampcert``, imported as package `name`."""
    shutil.copytree(checkout / "src" / "dampcert", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def workload(pkg, configs: Path, seed: int) -> dict:
    """Group name -> list of zero-argument calls, built with `pkg` alone."""
    synth, netmodel, devices = (importlib.import_module(f"{pkg.__name__}.{m}")
                                for m in ("synth", "netmodel", "devices"))
    cfg = pkg.load_config(str(configs / "three_ibr.yaml"))
    dom, tol = cfg.domain, cfg.margin_tol
    samples = pkg.discretize_boundary(dom, cfg.spacing)
    rng = np.random.default_rng(seed)
    groups = {"ladder": []}
    for n in LADDER_SIZES:
        for top in (synth.ring_topology(n, n // 2, l=float(rng.uniform(0.5, 2.0))),
                    synth.random_topology(rng, n)):
            entries = [devices.make_entry(synth.random_device_params(rng, r))
                       for r in top.device_roles]
            provider = pkg.DynamicNetwork(top)
            for i in sorted(int(i) for i in rng.choice(n, size=2, replace=False)):
                groups["ladder"].append(lambda e=entries[i], p=provider, i=i: pkg.boundary_certificate(
                    e, p, i, dom, samples, tol))
    for n in VALIDATE_SIZES:
        top = synth.random_topology(rng, n, n // 2, 0.1)
        roles = [netmodel.GFM] * (n // 2) + [netmodel.GFL] * (n - n // 2)
        top = netmodel.GridTopology(top.device_nodes, roles, top.interior_nodes, top.lines,
                                    top.omega0)
        entries = [devices.make_entry(synth.random_device_params(rng, r)) for r in roles]
        provider = pkg.StaticNetwork.from_topology(top)
        groups[f"certify_all_n{n}"] = [
            lambda e=entries, p=provider: pkg.certify_all(e, p, dom, samples, tol)]
    groups["masks"] = []
    for name in SWEPT:
        study = pkg.load_config(str(configs / f"{name}.yaml"))
        provider = study.provider()
        for task in study.sweeps:
            groups["masks"].append(lambda t=task, s=study, p=provider: pkg.feasible_region(
                t.make_entry, t.grid, p, t.device, s.domain, samples, s.margin_tol))
    return groups


def fingerprint(result) -> bytes:
    """The bits of a report, a list of reports or a mask."""
    if isinstance(result, list):
        return b"".join(map(fingerprint, result))
    if hasattr(result, "flags"):
        return result.flags.tobytes() + result.margins.tobytes()
    return repr(result).encode()


def run_group(calls) -> tuple:
    t0 = time.thread_time()
    out = [call() for call in calls]
    return time.thread_time() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout B")
    parser.add_argument("--rounds", type=int, default=120, help="timed rounds")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated grids")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    configs = Path(__file__).resolve().parents[1] / "configs"
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load_copy(args.a, "dampcert_a", Path(tmp)), load_copy(args.b, "dampcert_b", Path(tmp))]
        loads = [workload(pkg, configs, args.seed) for pkg in pkgs]
        names = list(loads[0])
        same = {g: fingerprint(run_group(loads[0][g])[1]) == fingerprint(run_group(loads[1][g])[1])
                for g in names}
        times = {(k, g): [] for k in (0, 1) for g in names}
        for r in range(args.rounds):
            for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                for g in names:
                    times[k, g].append(run_group(loads[k][g])[0])
    print(f"{'group':<18} {'calls':>5} {'A q1 ms':>9} {'B q1 ms':>9} {'B/A':>6}  same bits")
    for g in names:
        qa, qb = (float(np.percentile(times[k, g], 25)) * 1e3 for k in (0, 1))
        print(f"{g:<18} {len(loads[0][g]):>5} {qa:>9.3f} {qb:>9.3f} {qb / qa:>6.3f}  {same[g]}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
