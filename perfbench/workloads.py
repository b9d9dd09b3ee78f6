"""The benchmark workloads: inputs made from a seed, the ops of one pass,
and the check run on each op's output.

Every workload is a closed loop with one client: an op starts when the one
before it has finished.  An op's ``check`` runs after the op's timer has
stopped; it raises ``CheckFailed`` on a wrong output and otherwise returns a
summary that ``compare`` matches against the recorded reference.  Ops whose
inputs do not depend on the seed (the shipped configs) are compared for every
seed, generated ones only at ``DEFAULT_SEED``.

All dampcert calls go through module attributes looked up at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

from dampcert import analysis, certify, cli, config, devices, domain, netmodel, synth
from dampcert.errors import CertificateInapplicableError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 0
SHIPPED = ("two_ibr", "three_ibr", "three_ibr_weak")
SWEPT = ("two_ibr", "three_ibr")

#: tolerance for margins and other floats compared with the references
FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-10

#: grid points per mask re-certified one at a time after each sweep op
SUBSET_POINTS = 3
#: worker processes of the sweep_shipped pool (the machine's core count)
SHIPPED_WORKERS = 2
#: workloads whose ops start worker processes; their passes keep every core
POOLED = ("sweep_shipped",)

PLL_GRID = 40
LADDER_SIZES = (4, 8, 16)
#: devices timed per ladder grid (a seeded subset keeps a pass short)
LADDER_DEVICES = 2
#: extra lines of a random ladder grid, as a share of the node pairs its
#: spanning tree leaves unlinked (synth's default extra_edge_prob, fixed)
LADDER_MESH_SHARE = 0.3
#: extra lines of the random validate grids (synth's default 0.3 makes
#: generating the 150-node grid take seconds)
VALIDATE_EXTRA_EDGE_PROB = 0.1
VALIDATE_SIZES = (20, 54, 100)
#: certify_all calls per validate system and pass (they take milliseconds)
CERTIFY_REPEATS = 6
#: the step is below 0.1/|fastest pole| for the generated systems, so the
#: step count, and the work, does not depend on the seed
STEP_DT = 2e-4
STEP_HORIZON = 2.0


class CheckFailed(Exception):
    """An op's output does not match its invariants or its reference."""


@dataclass
class Op:
    """One timed call.  ``size`` is the network size for the per-device cost
    ladder (0 when the op is not on it) and ``devices`` how many devices
    the op covers; ``points`` counts the device parameter points it gives a
    verdict for."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    seeded: bool
    points: int = 0
    size: int = 0
    devices: int = 1


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(a, b):
    return a == b or (math.isfinite(a) and math.isfinite(b)
                      and abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b))


def _jsonable(x):
    """-inf margins (infeasible grid points) are stored as null."""
    return None if x == -math.inf else float(x)


MISSING = "<no recorded reference>"


def compare(got, ref, where=""):
    """Match a summary against its reference: floats within the tolerance,
    everything else exactly."""
    _expect(ref is not MISSING, f"{where}: no recorded reference")
    if isinstance(ref, dict):
        _expect(isinstance(got, dict) and got.keys() == ref.keys(), f"{where}: keys differ")
        for k in ref:
            compare(got[k], ref[k], f"{where}.{k}")
    elif isinstance(ref, list):
        _expect(isinstance(got, list) and len(got) == len(ref), f"{where}: length differs")
        for k, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{where}[{k}]")
    elif isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        _expect(_close(float(got), ref), f"{where}: {got!r} != {ref!r}")
    else:
        _expect(got == ref, f"{where}: {got!r} != {ref!r}")


def references(workload, ops, seed):
    """Reference summary per op that is compared at this seed."""
    recorded = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    at_default = seed == recorded["default_seed"]
    return {op.name: recorded["ops"].get(op.name, MISSING)
            for op in ops if at_default or not op.seeded}


# -- sweeps -----------------------------------------------------------------


def _read_mask(path: Path, grid):
    """Flags and margins of a mask_<node>.tsv written by ``cli sweep``."""
    lines = path.read_text().splitlines()
    _expect(lines[0].split("\t") == list(grid.axes) + ["feasible", "margin"],
            f"{path.name}: header {lines[0]!r}")
    _expect(len(lines) - 1 == grid.size, f"{path.name}: {len(lines) - 1} rows")
    flags, margins = [], []
    for k, (idx, point) in enumerate(grid.points()):
        cols = lines[k + 1].split("\t")
        for j, axis in enumerate(grid.axes):
            _expect(abs(float(cols[j]) - point[axis]) <= 1e-9 * max(1.0, abs(point[axis])),
                    f"{path.name}: row {k} axis {axis}")
        _expect(cols[-2] in ("0", "1"), f"{path.name}: row {k} flag {cols[-2]!r}")
        flags.append(cols[-2] == "1")
        margins.append(float(cols[-1]))
    return flags, margins


def _check_points(node, task, provider, cfg, samples, flags, margins, rng):
    """A seeded subset of grid points must agree with a per-point
    ``boundary_certificate``; an inapplicable certificate must show as an
    infeasible -inf point."""
    grid = task.grid
    for k in rng.choice(grid.size, size=min(SUBSET_POINTS, grid.size), replace=False):
        idx = np.unravel_index(int(k), grid.shape)
        point = {a: grid.values[j][idx[j]] for j, a in enumerate(grid.axes)}
        entry = task.make_entry(point)
        try:
            rep = certify.boundary_certificate(
                entry, provider, task.device, cfg.domain, samples, cfg.margin_tol)
        except CertificateInapplicableError:
            _expect(margins[k] == -math.inf and not flags[k],
                    f"{node} {point}: inapplicable but mask margin {margins[k]}")
            continue
        _expect(rep.passed == flags[k], f"{node} {point}: certificate {rep.passed}, mask {flags[k]}")
        _expect(abs(rep.margin - margins[k]) <= 1e-9 * max(1.0, abs(rep.margin)),
                f"{node} {point}: certificate margin {rep.margin}, mask {margins[k]}")


def _sweep_op(name, cfg_path: Path, out_dir: Path, workers, rng, seeded):
    cfg = config.load_config(str(cfg_path))
    samples = domain.discretize_boundary(cfg.domain, cfg.spacing)
    provider = cfg.provider()
    argv = ["sweep", "--config", str(cfg_path), "--workers", str(workers), "--out", str(out_dir)]

    def check(rc):
        _expect(rc == 0, f"exit code {rc}")
        summary = {}
        for task in cfg.sweeps:
            node = cfg.topology.device_nodes[task.device]
            flags, margins = _read_mask(out_dir / f"mask_{node}.tsv", task.grid)
            _expect(all(m > cfg.margin_tol for f, m in zip(flags, margins) if f),
                    f"{node}: feasible point at or below the margin tolerance")
            _check_points(node, task, provider, cfg, samples, flags, margins, rng)
            summary[node] = {
                "flags": "".join("1" if f else "0" for f in flags),
                "margins": [_jsonable(m) for m in margins],
            }
        return summary

    return Op(
        name, lambda: cli.main(argv), check, seeded,
        points=sum(t.grid.size for t in cfg.sweeps),
        size=cfg.topology.n_devices, devices=len(cfg.sweeps),
    )


def setup_sweep_shipped(seed, work: Path, traced=False):
    """Both shipped sweep configs through ``cli sweep``; the pool runs
    ``SHIPPED_WORKERS`` workers, or one when traced (spans in pool children
    are lost)."""
    rng = np.random.default_rng((seed, 1))
    workers = 1 if traced else SHIPPED_WORKERS
    return [
        _sweep_op(f"sweep_{name}", CONFIGS / f"{name}.yaml", work / f"sweep_{name}",
                  workers, rng, seeded=False)
        for name in SWEPT
    ]


def _pll_axis(name, rng):
    lo, hi = {
        "kp": (rng.uniform(0.3, 0.4), rng.uniform(7.5, 8.5)),
        "ki": (rng.uniform(2.0, 3.0), rng.uniform(38.0, 42.0)),
        "H": (0.1, rng.uniform(14.0, 16.0)),
    }[name]
    return {"name": name, "min": float(lo), "max": float(hi), "count": PLL_GRID}


def pll_study(base: str, grids, rng) -> dict:
    """A shipped study with its device parameters scaled by seeded factors
    in [0.95, 1.05] and PLL gain grids in place of its sweeps; ``grids``
    lists (node, (axis, axis)).  The narrow jitter keeps the share of grid
    points that reach the non-vanishing test, and so the work, about the
    same for every seed."""
    data = yaml.safe_load((CONFIGS / f"{base}.yaml").read_text())
    for dev in data["devices"]:
        for key in ("m", "d", "H", "D", "kp", "ki"):
            if key in dev:
                dev[key] = float(dev[key] * rng.uniform(0.95, 1.05))
    data["sweep"] = [
        {"node": node, "axes": [_pll_axis(a, rng) for a in axes]} for node, axes in grids
    ]
    data["execution"] = {"workers": 1}
    data.pop("simulation", None)
    return data


PLL_STUDIES = (
    ("two_ibr", (("gfl1", ("kp", "ki")),)),
    ("three_ibr", (("gfl1", ("kp", "ki")), ("gfl2", ("H", "kp")))),
)


def setup_sweep_pll(seed, work: Path, traced=False):
    """Generated PLL-gain studies on the shipped networks, one worker."""
    rng = np.random.default_rng((seed, 0))
    check_rng = np.random.default_rng((seed, 1))
    ops = []
    for base, grids in PLL_STUDIES:
        path = work / f"pll_{base}.yaml"
        path.write_text(yaml.safe_dump(pll_study(base, grids, rng), sort_keys=True))
        ops.append(_sweep_op(f"pll_{base}", path, work / f"pll_{base}", 1, check_rng, seeded=True))
    return ops


# -- dynamic ladder ---------------------------------------------------------


def _shipped_domain():
    cfg = config.load_config(str(CONFIGS / "three_ibr.yaml"))
    return cfg.domain, domain.discretize_boundary(cfg.domain, cfg.spacing), cfg.margin_tol


def meshed_topology(rng, n, n_interior):
    """synth's random spanning tree plus a seeded choice of a fixed number of
    extra lines.  A row evaluation costs time in proportion to the line
    count, which ``synth.random_topology`` leaves to chance; fixing it keeps
    the work of a rung the same for every seed."""
    tree = synth.random_topology(rng, n, n_interior, extra_edge_prob=0.0)
    names = tree.all_nodes
    linked = {frozenset((ln.a, ln.b)) for ln in tree.lines}
    free = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if frozenset((a, b)) not in linked]
    picked = rng.choice(len(free), size=round(LADDER_MESH_SHARE * len(free)), replace=False)
    extra = tuple(
        netmodel.Line(*free[k], netmodel.LineParams(l=float(rng.uniform(0.3, 3.0))))
        for k in sorted(picked)
    )
    return netmodel.GridTopology(tree.device_nodes, tree.device_roles, tree.interior_nodes,
                                 tree.lines + extra, tree.omega0)


def ladder_systems(seed):
    """(kind, topology, device params, devices to time) per ladder rung."""
    rng = np.random.default_rng((seed, 0))
    out = []
    for n in LADDER_SIZES:
        tops = (
            ("ring", synth.ring_topology(n, n // 2, l=float(rng.uniform(0.5, 2.0)))),
            ("random", meshed_topology(rng, n, 0)),
            ("interior", meshed_topology(rng, n, n // 2)),
        )
        for kind, top in tops:
            params = [synth.random_device_params(rng, r) for r in top.device_roles]
            picked = sorted(int(i) for i in rng.choice(n, size=min(LADDER_DEVICES, n), replace=False))
            out.append((kind, top, params, picked))
    return out


def _certificate_op(name, entry, provider, i, dom, samples, tol, size):
    def check(rep):
        _expect(math.isfinite(rep.margin), f"margin {rep.margin}")
        _expect(rep.passed == (rep.nonvanishing and rep.margin > tol), "verdict disagrees with margin")
        return {"passed": rep.passed, "nonvanishing": rep.nonvanishing, "margin": rep.margin}

    return Op(name, lambda: certify.boundary_certificate(entry, provider, i, dom, samples, tol),
              check, seeded=True, points=1, size=size)


def _row_op(name, provider, i, samples, size):
    def check(row):
        diag, off = row
        _expect(diag.shape == off.shape == samples.points.shape, "row length")
        _expect(bool(np.all(np.isfinite(diag)) and np.all(off >= 0.0)), "row not finite")
        return {"diag_abs_min": float(np.min(np.abs(diag))), "off_max": float(np.max(off))}

    return Op(name, lambda: provider.row_series(i, samples.points), check, seeded=True, size=size)


def setup_dynamic_ladder(seed, work: Path, traced=False):
    """Dynamic-provider certificates on ring and random grids of growing
    size; with interior nodes the certificate is inapplicable, so the op is
    the provider's row evaluation."""
    dom, samples, tol = _shipped_domain()
    ops = []
    for kind, top, params, picked in ladder_systems(seed):
        n = top.n_devices
        entries = [devices.make_entry(p) for p in params]
        provider = certify.DynamicNetwork(top)
        for i in picked:
            name = f"{kind}{n}_dev{i}"
            if kind == "interior":
                ops.append(_row_op(name, provider, i, samples, n))
            else:
                ops.append(_certificate_op(name, entries[i], provider, i, dom, samples, tol, n))
    return ops


# -- validate ---------------------------------------------------------------

_DEVICE_LINE = re.compile(r"^device (\S+): (PASS|FAIL) margin=(\S+) .*nonvanishing=(True|False)")


def _in_domain(path: Path):
    rows = path.read_text().splitlines()[1:]
    return sum(int(r.split("\t")[3]) for r in rows)


def _cli_op(command, name, work: Path):
    cfg_path = CONFIGS / f"{name}.yaml"
    out_dir = work / f"{command}_{name}"
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    n_devices = config.load_config(str(cfg_path)).topology.n_devices

    def check(rc):
        report = (out_dir / "report.txt").read_text()
        summary = {"exit": rc}
        if command == "certify":
            _expect("INCONSISTENCY" not in report, "certificate passed with in-domain oracle poles")
            verdicts = {}
            for line in report.splitlines():
                m = _DEVICE_LINE.match(line)
                if m:
                    verdicts[m[1]] = {"passed": m[2] == "PASS", "margin": float(m[3]),
                                      "nonvanishing": m[4] == "True"}
            _expect(len(verdicts) == n_devices, "device verdicts missing from report.txt")
            _expect(rc == (0 if all(v["passed"] for v in verdicts.values()) else 2),
                    f"exit code {rc} disagrees with the verdicts")
            summary.update(devices=verdicts, in_domain=_in_domain(out_dir / "poles.tsv"))
        elif command == "poles":
            summary["in_domain"] = _in_domain(out_dir / "poles.tsv")
            _expect(rc == (0 if summary["in_domain"] == 0 else 2), f"exit code {rc}")
        else:
            _expect(rc == 0, f"exit code {rc}")
            with open(out_dir / "response.tsv") as fh:
                summary["rows"] = sum(1 for _ in fh) - 1
        return summary

    points = n_devices if command == "certify" else 0
    return Op(f"{command}_{name}", lambda: cli.main(argv), check, seeded=False, points=points)


def half_gfm(top):
    """The same grid with its first half of devices GFM and the rest GFL.

    synth draws the split uniformly, which would make the work of a pass
    (state dimension, entry degrees) depend on the seed.
    """
    n = top.n_devices
    roles = [netmodel.GFM] * (n // 2) + [netmodel.GFL] * (n - n // 2)
    return netmodel.GridTopology(top.device_nodes, roles, top.interior_nodes, top.lines, top.omega0)


def validate_systems(seed):
    """(topology, device params) of the generated static-provider ladder."""
    rng = np.random.default_rng((seed, 0))
    out = []
    for n in VALIDATE_SIZES:
        top = half_gfm(synth.random_topology(rng, n, n // 2, VALIDATE_EXTRA_EDGE_PROB))
        out.append((top, [synth.random_device_params(rng, r) for r in top.device_roles]))
    return out


def _synthetic_ops(top, params, dom, samples, tol):
    n = top.n_devices
    entries = [devices.make_entry(p) for p in params]
    N = netmodel.static_network(top)
    provider = certify.StaticNetwork(N)
    all_passed = {}

    def check_certify(reports):
        _expect([r.device for r in reports] == list(range(n)), "report order")
        all_passed["value"] = all(r.passed for r in reports)
        return {"passed": [r.passed for r in reports],
                "nonvanishing": [r.nonvanishing for r in reports],
                "margins": [r.margin for r in reports]}

    def check_poles(rep):
        in_domain = int(np.sum(rep.in_domain))
        _expect(not (all_passed.get("value") and in_domain),
                "certificate passed but the oracle found in-domain poles")
        return {"in_domain": in_domain, "origin": rep.origin_pole_count, "poles": len(rep.poles)}

    def check_step(resp):
        _expect(resp.divergent or bool(np.all(np.isfinite(resp.angles))), "non-finite response")
        return {"steps": len(resp.time) - 1, "divergent": resp.divergent,
                "final_angle": float(resp.angles[-1, 0])}

    ops = [
        Op(f"certify_all_n{n}", lambda: certify.certify_all(entries, provider, dom, samples, tol),
           check_certify, seeded=True, points=n, size=n, devices=n)
        for _ in range(CERTIFY_REPEATS)
    ]
    ops.append(Op(f"closed_loop_poles_n{n}", lambda: analysis.closed_loop_poles(entries, N, dom),
                  check_poles, seeded=True))
    ops.append(Op(f"step_response_n{n}",
                  lambda: analysis.step_response(entries, N, 0, 0.1, 0.1, STEP_HORIZON, STEP_DT),
                  check_step, seeded=True))
    return ops


def setup_validate(seed, work: Path, traced=False):
    """The CLI on the shipped configs, then the static certificate and the
    oracle on generated grids with interior nodes."""
    ops = [_cli_op(command, name, work)
           for name in SHIPPED for command in ("certify", "poles", "simulate")]
    dom, samples, tol = _shipped_domain()
    for top, params in validate_systems(seed):
        ops.extend(_synthetic_ops(top, params, dom, samples, tol))
    return ops


WORKLOADS = {
    "sweep_shipped": setup_sweep_shipped,
    "sweep_pll": setup_sweep_pll,
    "dynamic_ladder": setup_dynamic_ladder,
    "validate": setup_validate,
}
