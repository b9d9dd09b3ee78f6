"""Cold-start wall time of the four CLI commands on the shipped configs.

Each command runs on each config in ``configs/`` as a fresh
``python -m dampcert.cli`` process, so a time includes interpreter start-up
and imports.  ``certify`` and ``sweep`` also run on temporary copies of
each config: with ``execution.network: dynamic`` (``<config>_dynamic``),
and with the first line routed through an interior node ``x``, half its
inductance on each side, under both providers (``<config>_interior`` and
``<config>_interior_dynamic``; ``poles`` and ``simulate`` also run on
``<config>_interior``, through the static reduction of ``x``), and with a
bus coupler added to that copy, under both providers (``<config>_coupler``
and ``<config>_coupler_dynamic``): interior nodes ``y1`` and ``y2`` on
lines ``a-y1`` and ``y2-b`` like the first line ``a-b``, and ``y1-y2``
1e-11 times its inductance, which the Kron reduction must refuse.  Rounds
alternate the order of the runs.  Prints the median and quartiles of the
process wall time per config and command, then one SHA-256 per output
file of each config and command (``report.txt`` without its phase-timing
block), so that two checkouts' outputs compare with one diff.  Exits 1 if
any exit code differs from the expected one, a run printed a traceback or
a ``RuntimeWarning`` or left no ``report.txt``, or two rounds wrote
different bytes, which the CLI's determinism promise rules out.

    python tools/cli_times.py --rounds 5
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("certify", "sweep", "poles", "simulate")
#: exit codes of COMMANDS on each shipped config
EXPECTED = {"two_ibr": (0, 0, 0, 0), "three_ibr": (0, 0, 0, 0), "three_ibr_weak": (2, 3, 2, 0)}
#: exit codes of certify and sweep on each shipped config, and on its
#: interior-node copy, under the dynamic provider, whose rho = 0 line poles
#: fail every non-vanishing test
DYNAMIC = {"two_ibr": (2, 0), "three_ibr": (2, 0), "three_ibr_weak": (2, 3)}
#: exit codes of COMMANDS on each interior-node copy, static provider
INTERIOR = {"two_ibr": (0, 0, 0, 0), "three_ibr": (0, 0, 0, 0), "three_ibr_weak": (2, 3, 2, 0)}
#: exit codes of certify and sweep on each bus-coupler copy, under both
#: providers: the reduction refuses y1 (three_ibr_weak has no sweep section)
COUPLER = {"two_ibr": (2, 2), "three_ibr": (2, 2), "three_ibr_weak": (2, 3)}
#: the phase-timing block of report.txt, the only bytes that differ between runs
TIMINGS = re.compile(r"phase timings \(s\):\n(  .*\n)*")


def digests(out: Path) -> dict:
    """SHA-256 of every file in `out`, by name; report.txt without its timings."""
    found = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = TIMINGS.sub("", data.decode()).encode()
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


def variants(data: dict) -> dict:
    """The config variants beside the shipped one, by name suffix."""
    dynamic = {**data.get("execution", {}), "network": "dynamic"}
    top = data["topology"]
    first, *rest = top["lines"]
    half = {**first, "l": first["l"] / 2}
    interior = {**data, "topology": {**top, "interior": [*top.get("interior", []), "x"],
                                     "lines": [{**half, "b": "x"}, {**half, "a": "x"}, *rest]}}
    coupler = [{**first, "b": "y1"}, {**first, "a": "y1", "b": "y2", "l": first["l"] * 1e-11},
               {**first, "a": "y2"}]
    inner = interior["topology"]
    bus = {**interior, "topology": {**inner, "interior": [*inner["interior"], "y1", "y2"],
                                    "lines": [*inner["lines"], *coupler]}}
    return {"_dynamic": {**data, "execution": dynamic}, "_interior": interior,
            "_interior_dynamic": {**interior, "execution": dynamic}, "_coupler": bus,
            "_coupler_dynamic": {**bus, "execution": dynamic}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5, help="runs of each command on each config")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    wrong = []
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        configs = {cfg: ROOT / "configs" / f"{cfg}.yaml" for cfg in EXPECTED}
        expected = {(cfg, cmd): code for cfg, codes in EXPECTED.items()
                    for cmd, code in zip(COMMANDS, codes)}
        codes = {"_dynamic": DYNAMIC, "_interior": INTERIOR, "_interior_dynamic": DYNAMIC,
                 "_coupler": COUPLER, "_coupler_dynamic": COUPLER}
        for cfg in EXPECTED:
            for suffix, data in variants(yaml.safe_load(configs[cfg].read_text())).items():
                name = cfg + suffix
                configs[name] = Path(tmp) / f"{name}.yaml"
                configs[name].write_text(yaml.safe_dump(data))
                expected.update(zip([(name, cmd) for cmd in COMMANDS], codes[suffix][cfg]))
        runs = list(expected)
        times = {run: [] for run in runs}
        for r in range(args.rounds):
            for cfg, cmd in runs if r % 2 == 0 else runs[::-1]:
                out = Path(tmp) / str(r) / cfg / cmd
                argv = [sys.executable, "-m", "dampcert.cli", cmd,
                        "--config", str(configs[cfg]), "--out", str(out)]
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
                times[cfg, cmd].append(time.perf_counter() - t0)
                want = expected[cfg, cmd]
                if proc.returncode != want:
                    wrong.append(f"{cmd} {cfg}: exit {proc.returncode}, expected {want}: "
                                 f"{proc.stderr.strip()}")
                for mark in ("Traceback (most recent call last)", "RuntimeWarning"):
                    if mark in proc.stderr:
                        wrong.append(f"{cmd} {cfg}: {mark} on stderr:\n{proc.stderr.rstrip()}")
                if not (out / "report.txt").exists():
                    wrong.append(f"{cmd} {cfg}: no report.txt")
                found = digests(out) if out.is_dir() else {}
                first = outputs.setdefault((cfg, cmd), found)
                changed = sorted(n for n in first | found if first.get(n) != found.get(n))
                if changed:
                    wrong.append(f"{cmd} {cfg}: round {r} wrote other bytes than round 0 "
                                 f"in {', '.join(changed)}")
    print(f"process wall time (s), {args.rounds} round(s)")
    print(f"{'config':<32}{'command':<10}{'median':>8}{'q1':>8}{'q3':>8}")
    for (cfg, cmd), ts in times.items():
        q1, median, q3 = np.percentile(ts, [25, 50, 75])
        print(f"{cfg:<32}{cmd:<10}{median:8.3f}{q1:8.3f}{q3:8.3f}")
    print("output SHA-256 (report.txt without phase timings)")
    for (cfg, cmd), found in outputs.items():
        for name, digest in found.items():
            print(f"{cfg:<32}{cmd:<10}{name:<20}{digest}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
