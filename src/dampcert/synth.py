"""Synthetic test-system generation.

The published case studies run on standard bus systems whose full line
data is not reproduced here; these generators build random connected
stand-ins with the same device models and parameter ranges.
"""

from __future__ import annotations

import numpy as np

from .devices import GflParams, GfmParams
from .errors import ConfigurationError
from .netmodel import GFL, GFM, GridTopology, Line, LineParams


def random_topology(
    rng: np.random.Generator,
    n_devices: int,
    n_interior: int = 0,
    extra_edge_prob: float = 0.3,
    l_range=(0.3, 3.0),
    omega0: float = 1.0,
) -> GridTopology:
    """Random connected topology: spanning tree plus extra edges.

    Device roles are drawn at random with at least one GFM device; GFM
    nodes are listed first as the ordering convention requires.
    """
    if n_devices < 1:
        raise ConfigurationError("need at least one device")
    n_gfm = int(rng.integers(1, n_devices + 1))
    dev_names = [f"g{k}" for k in range(n_gfm)] + [
        f"f{k}" for k in range(n_devices - n_gfm)
    ]
    roles = [GFM] * n_gfm + [GFL] * (n_devices - n_gfm)
    interior = [f"x{k}" for k in range(n_interior)]
    names = dev_names + interior
    lines = []
    linked = set()  # index pairs (i, j), i < j, that already have a line

    def link(i, j):
        linked.add((i, j))
        lines.append(Line(names[i], names[j], LineParams(l=float(rng.uniform(*l_range)))))

    for k in range(1, len(names)):
        link(int(rng.integers(0, k)), k)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < extra_edge_prob and (i, j) not in linked:
                link(i, j)
    return GridTopology(dev_names, roles, interior, lines, omega0=omega0)


def random_device_params(rng: np.random.Generator, role: str, inertia_range=(0.1, 20.0), damping_range=(0.1, 20.0)):
    """Device parameters sampled from the standard tuning ranges."""
    inertia = float(rng.uniform(*inertia_range))
    damping = float(rng.uniform(*damping_range))
    if role == GFM:
        return GfmParams(m=inertia, d=damping)
    kp, ki = (4.0, 40.0) if rng.random() < 0.5 else (2.0, 20.0)
    return GflParams(H=inertia, D=damping, kp=kp, ki=ki)


def ring_topology(n_devices: int, n_gfm: int, l: float = 1.0, omega0: float = 1.0) -> GridTopology:
    """Deterministic ring of device nodes with uniform lines."""
    if not 1 <= n_gfm <= n_devices:
        raise ConfigurationError("need 1 <= n_gfm <= n_devices")
    names = [f"g{k}" for k in range(n_gfm)] + [f"f{k}" for k in range(n_devices - n_gfm)]
    roles = [GFM] * n_gfm + [GFL] * (n_devices - n_gfm)
    lines = [
        Line(names[k], names[(k + 1) % n_devices], LineParams(l=l))
        for k in range(n_devices if n_devices > 2 else n_devices - 1)
    ]
    return GridTopology(names, roles, (), lines, omega0=omega0)
