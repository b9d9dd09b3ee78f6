"""Command-line operator surface.

Four batch commands driven by a single YAML study configuration:

    dampcert certify  --config study.yaml   # fixed-parameter certificates
    dampcert sweep    --config study.yaml   # per-device feasible regions
    dampcert poles    --config study.yaml   # centralized pole oracle
    dampcert simulate --config study.yaml   # step-response time series

Exit codes: 0 = pass/complete; 2 = certificate (or screening) failure,
``certificate inapplicable: ...``, ``error: ...`` or an argparse usage
error; 3 = ``configuration error: ...``, an unwritable ``--out`` included.
``main`` alone maps a failure to its code and message and, once the config
has loaded, writes ``report.txt`` once, ending it with that message; if
that write fails too, both lines go to stderr, the first failure first.
All numeric outputs are deterministic across repeated runs.  ``--workers``
has no effect.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
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


@contextmanager
def _rewrite(path: Path, mode="wb"):
    """A file handle on `path`, opened with `mode` ("wb" or "w"), that
    rewrites an existing file in place and cuts it to length on leaving, a
    failed write too, because truncating it on open can cost more than
    writing a small file."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _write_tsv(path: Path, header, rows):
    """Write a real 2-D array as a tab-separated table, one value per
    column of `header`; flags print as 0/1.  The bytes are those of
    ``np.savetxt`` with ``fmt="%.12g"`` (``tsv.write_rows``)."""
    from . import tsv  # its tables are built on the first table written, not on import

    with _rewrite(path) as fh:
        fh.write(("\t".join(header) + "\n").encode())
        tsv.write_rows(fh, rows)


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
        with _rewrite(out_dir / "report.txt", "w") as fh:
            fh.write("\n".join(body) + "\n")


def _oracle(cfg: StudyConfig, out_dir: Path, rep: _Report):
    """Closed-loop poles on the static network, written to poles.tsv;
    returns the pole report and whether the domain is clean of poles."""
    N = static_network(cfg.topology)
    report = rep.time_phase("oracle", lambda: closed_loop_poles(cfg.entries, N, cfg.domain))
    p = report.poles
    table = np.column_stack([p.real, p.imag, report.damping, report.in_domain])
    _write_tsv(out_dir / "poles.tsv", ["re", "im", "damping", "in_domain"], table)
    return report, screen_poles(report, cfg.domain)


def cmd_certify(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    samples = rep.time_phase("boundary", lambda: discretize_boundary(cfg.domain, cfg.spacing))
    rep.add(f"boundary samples: {len(samples)} (spacing {cfg.spacing})")
    provider = cfg.provider()
    margin_reports = rep.time_phase(
        "certify",
        lambda: certify_all(cfg.entries, provider, cfg.domain, samples, cfg.margin_tol),
    )
    all_pass = all(r.passed for r in margin_reports)
    for r in margin_reports:
        rep.add(
            f"device {cfg.topology.device_nodes[r.device]}: "
            f"{'PASS' if r.passed else 'FAIL'} margin={_fmt(r.margin)} "
            f"worst_point={_fmt(r.worst_point)} nonvanishing={r.nonvanishing} "
            f"min_lhs={_fmt(r.min_lhs)} max_rhs={_fmt(r.max_rhs)}"
        )
    oracle, clean = _oracle(cfg, out_dir, rep)
    rep.add(f"oracle: {len(oracle.poles)} poles, origin poles {oracle.origin_pole_count}, "
            f"domain clean: {clean}")
    if all_pass and not clean:
        rep.add("INCONSISTENCY: certificate passed but oracle found in-domain poles")
        print("certificate/oracle inconsistency; see report.txt and poles.tsv", file=sys.stderr)
        return 2
    verdict = "PASS" if all_pass else "FAIL"
    rep.add(f"verdict: {verdict}")
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
        rep.add(f"device {node}: {int(np.sum(mask.flags))}/{mask.grid.size} feasible points")
    print(f"sweep: {len(masks)} masks written to {out_dir}")
    return 0


def cmd_poles(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    report, clean = _oracle(cfg, out_dir, rep)
    rep.add(f"poles: {len(report.poles)} (origin {report.origin_pole_count}), "
            f"domain clean: {clean}")
    print(f"poles: domain {'clean' if clean else 'VIOLATED'}; table in poles.tsv")
    return 0 if clean else 2


def cmd_simulate(cfg: StudyConfig, out_dir: Path, rep: _Report) -> int:
    if cfg.simulation is None:
        raise ConfigurationError("config has no simulation section")
    sim = cfg.simulation
    N = static_network(cfg.topology)
    resp = rep.time_phase(
        "simulate",
        lambda: step_response(
            cfg.entries, N, sim.device, sim.magnitude, sim.start, sim.horizon, sim.dt
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
    print(f"simulate: response.tsv written{' (DIVERGENT)' if resp.divergent else ''}")
    return 0


_COMMANDS = {
    "certify": cmd_certify,
    "sweep": cmd_sweep,
    "poles": cmd_poles,
    "simulate": cmd_simulate,
}


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code of a failed run, and the line that says why."""
    if isinstance(exc, (ConfigurationError, OSError)):
        return 3, f"configuration error: {exc}"
    if isinstance(exc, CertificateInapplicableError):
        return 2, f"certificate inapplicable: {exc}"
    return 2, f"error: {exc}"


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
    failures = []  # the command's own failure, then one writing the report
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigurationError("--workers must be >= 1")
        cfg = load_config(args.config, args.spacing)
        rep = _Report(args.command, cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            code = _COMMANDS[args.command](cfg, out_dir, rep)
        except (DampcertError, OSError) as exc:
            code, line = _failure(exc)
            failures.append(line)
            rep.add(line)
        rep.write(out_dir)
    except (DampcertError, OSError) as exc:
        code, line = _failure(exc)
        failures.append(line)
    for line in failures:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
