"""Command-line operator surface.

Four batch commands driven by a single YAML study configuration:

    dampcert certify  --config study.yaml   # fixed-parameter certificates
    dampcert sweep    --config study.yaml   # per-device feasible regions
    dampcert poles    --config study.yaml   # centralized pole oracle
    dampcert simulate --config study.yaml   # step-response time series

Exit codes: 0 = pass/complete, 2 = certificate (or screening) failure,
3 = configuration error.  All numeric outputs are deterministic across
repeated runs.  ``--workers`` has no effect.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import closed_loop_poles, screen_poles, settling_metrics, step_response
from .certify import certify_all, sweep_all
from .config import StudyConfig, load_config
from .domain import discretize_boundary
from .errors import CertificateInapplicableError, ConfigurationError, DampcertError
from .netmodel import static_network


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    return f"{x:.12g}"


def _write_tsv(path: Path, header, rows):
    """Write a real 2-D array as a tab-separated table, one value per
    column of `header`; flags print as 0/1.  Each block of 4,096 rows is
    one %-operation over Python floats: the bytes of ``np.savetxt`` with
    ``fmt="%.12g"``, without its per-row loop."""
    line = "\t".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, len(rows), 4096):
            block = rows[start:start + 4096]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


class _Report:
    def __init__(self, command: str, cfg: StudyConfig):
        self.echo = cfg.echo()
        self.lines = [
            f"command: {command}",
            f"tool: dampcert {__version__}",
            f"config digest: {cfg.digest(self.echo)}",
            "",
        ]
        self.timings = []

    def add(self, *lines):
        self.lines.extend(lines)

    def time_phase(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.timings.append((name, time.perf_counter() - t0))
        return out

    def write(self, out_dir: Path):
        body = list(self.lines)
        body.append("")
        body.append("phase timings (s):")
        for name, dt in self.timings:
            body.append(f"  {name}: {dt:.3f}")
        body.append("")
        body.append("effective configuration:")
        body.append(self.echo.rstrip())
        (out_dir / "report.txt").write_text("\n".join(body) + "\n")


def _write_poles(out_dir: Path, report):
    p = report.poles
    table = np.column_stack([p.real, p.imag, report.damping, report.in_domain])
    _write_tsv(out_dir / "poles.tsv", ["re", "im", "damping", "in_domain"], table)


def cmd_certify(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    samples = rep.time_phase(
        "boundary", lambda: discretize_boundary(cfg.domain, cfg.spacing)
    )
    rep.add(f"boundary samples: {len(samples)} (spacing {cfg.spacing})")
    provider = cfg.provider()
    entries = cfg.entries
    try:
        margin_reports = rep.time_phase(
            "certify",
            lambda: certify_all(entries, provider, cfg.domain, samples, cfg.margin_tol),
        )
    except CertificateInapplicableError as exc:
        rep.add(f"certificate inapplicable: {exc}")
        rep.write(out_dir)
        print(f"certificate inapplicable: {exc}", file=sys.stderr)
        return 2
    all_pass = all(r.passed for r in margin_reports)
    for r in margin_reports:
        rep.add(
            f"device {cfg.topology.device_nodes[r.device]}: "
            f"{'PASS' if r.passed else 'FAIL'} margin={_fmt(r.margin)} "
            f"worst_point={_fmt(r.worst_point)} nonvanishing={r.nonvanishing} "
            f"min_lhs={_fmt(r.min_lhs)} max_rhs={_fmt(r.max_rhs)}"
        )
    N = static_network(cfg.topology)
    oracle = rep.time_phase(
        "oracle", lambda: closed_loop_poles(entries, N, cfg.domain)
    )
    _write_poles(out_dir, oracle)
    clean = screen_poles(oracle, cfg.domain)
    rep.add(f"oracle: {len(oracle.poles)} poles, origin poles {oracle.origin_pole_count}, "
            f"domain clean: {clean}")
    if all_pass and not clean:
        rep.add("INCONSISTENCY: certificate passed but oracle found in-domain poles")
        rep.write(out_dir)
        print("certificate/oracle inconsistency; see report.txt and poles.tsv", file=sys.stderr)
        return 2
    verdict = "PASS" if all_pass else "FAIL"
    rep.add(f"verdict: {verdict}")
    rep.write(out_dir)
    print(f"certify: {verdict}")
    return 0 if all_pass else 2


def cmd_sweep(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    if not cfg.sweeps:
        raise ConfigurationError("config has no sweep section")
    samples = discretize_boundary(cfg.domain, cfg.spacing)
    provider = cfg.provider()
    masks = rep.time_phase(
        "sweep",
        lambda: sweep_all(cfg.sweeps, provider, cfg.domain, samples, cfg.margin_tol),
    )
    for task in cfg.sweeps:
        mask = masks[task.device]
        node = cfg.topology.device_nodes[task.device]
        mesh = np.meshgrid(*mask.grid.values, indexing="ij")
        table = np.column_stack([a.ravel() for a in (*mesh, mask.flags, mask.margins)])
        header = list(mask.grid.axes) + ["feasible", "margin"]
        _write_tsv(out_dir / f"mask_{node}.tsv", header, table)
        rep.add(
            f"device {node}: {int(np.sum(mask.flags))}/{mask.grid.size} feasible points"
        )
    rep.write(out_dir)
    print(f"sweep: {len(masks)} masks written to {out_dir}")
    return 0


def cmd_poles(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    entries = cfg.entries
    N = static_network(cfg.topology)
    report = rep.time_phase("oracle", lambda: closed_loop_poles(entries, N, cfg.domain))
    _write_poles(out_dir, report)
    clean = screen_poles(report, cfg.domain)
    rep.add(
        f"poles: {len(report.poles)} (origin {report.origin_pole_count}), "
        f"domain clean: {clean}"
    )
    rep.write(out_dir)
    print(f"poles: domain {'clean' if clean else 'VIOLATED'}; table in poles.tsv")
    return 0 if clean else 2


def cmd_simulate(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    if cfg.simulation is None:
        raise ConfigurationError("config has no simulation section")
    sim = cfg.simulation
    entries = cfg.entries
    N = static_network(cfg.topology)
    resp = rep.time_phase(
        "simulate",
        lambda: step_response(
            entries, N, sim.device, sim.magnitude, sim.start, sim.horizon, sim.dt
        ),
    )
    nodes = cfg.topology.device_nodes
    header = ["t"] + [f"angle_{n}" for n in nodes] + [f"power_{n}" for n in nodes]
    table = np.column_stack([resp.time, resp.angles, resp.powers])
    _write_tsv(out_dir / "response.tsv", header, table)
    band = 0.02 * abs(sim.magnitude)
    rep.add(f"divergent: {resp.divergent}")
    for j, n in enumerate(nodes):
        t_settle, cycles = settling_metrics(resp.time, resp.powers[:, j], band, sim.start)
        rep.add(f"device {n}: settle_2pct={_fmt(t_settle)} s, cycles={_fmt(cycles)}")
    rep.write(out_dir)
    print(f"simulate: response.tsv written{' (DIVERGENT)' if resp.divergent else ''}")
    return 0


_COMMANDS = {
    "certify": cmd_certify,
    "sweep": cmd_sweep,
    "poles": cmd_poles,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dampcert",
        description="Decentralized oscillation-damping certification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML study configuration")
        p.add_argument("--workers", type=int, default=None, help="no effect; kept for compatibility")
        p.add_argument("--spacing", type=float, default=None, help="boundary arc-length step")
        p.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers is not None and args.workers < 1:
            raise ConfigurationError("--workers must be >= 1")
        if args.spacing is not None:
            if not 0 < args.spacing < np.inf:
                raise ConfigurationError("--spacing must be finite and > 0")
            cfg.spacing = args.spacing
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        rep = _Report(args.command, cfg)
        return _COMMANDS[args.command](cfg, out_dir, rep)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except DampcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
