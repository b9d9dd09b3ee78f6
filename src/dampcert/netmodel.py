"""Grid topology, dynamic line admittances, and Kron reduction.

Topologies are immutable after construction.  The network matrix is always
evaluated numerically at complex frequencies; no symbolic rational-matrix
reduction is attempted.  Device nodes come first (GFM block, then GFL
block) and fix the row/column ordering of every derived matrix.

``reduced_network`` assembles and Kron-reduces the whole matrix at one
point.  ``network_row_series`` gives one device's row at many points at
once, from the lines of that device and the interior block only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, LineResonanceError, ReductionSingularityError

GFM = "gfm"
GFL = "gfl"

#: relative pivot threshold for Kron reduction singularity detection
PIVOT_REL_TOL = 1e-10

#: complex entries per chunk of samples in a row evaluation, keeping each
#: temporary near 0.25 MB
ROW_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class LineParams:
    """Electrical parameters of one line.

    l is the per-unit line inductance, rho the resistance-inductance ratio
    in 1/s.  The nominal angular frequency omega0 is held once per topology.
    The stiffness multiplier scales the admittance to model a non-flat
    operating-point angle difference; 1.0 means the flat-angle assumption.
    """

    l: float
    rho: float = 0.0
    stiffness: float = 1.0

    def __post_init__(self):
        if not self.l > 0:
            raise ConfigurationError(f"line inductance must be > 0, got {self.l}")
        if self.rho < 0:
            raise ConfigurationError(f"rho must be >= 0, got {self.rho}")
        if not self.stiffness > 0:
            raise ConfigurationError("stiffness multiplier must be > 0")


@dataclass(frozen=True)
class Line:
    a: str
    b: str
    params: LineParams


@dataclass(frozen=True)
class GridTopology:
    """Device nodes (role-tagged), interior nodes, and lines.

    device_nodes must list all GFM nodes before all GFL nodes; this ordering
    fixes the block partition of the reduced network matrix.
    """

    device_nodes: tuple
    device_roles: tuple
    interior_nodes: tuple
    lines: tuple
    omega0: float = 1.0

    def __init__(self, device_nodes, device_roles, interior_nodes, lines, omega0=1.0):
        device_nodes = tuple(device_nodes)
        device_roles = tuple(device_roles)
        interior_nodes = tuple(interior_nodes)
        lines = tuple(
            ln if isinstance(ln, Line) else Line(ln[0], ln[1], ln[2]) for ln in lines
        )
        object.__setattr__(self, "device_nodes", device_nodes)
        object.__setattr__(self, "device_roles", device_roles)
        object.__setattr__(self, "interior_nodes", interior_nodes)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "omega0", float(omega0))
        self._validate()

    def _validate(self):
        if len(self.device_nodes) != len(self.device_roles):
            raise ConfigurationError("device_nodes and device_roles length mismatch")
        if not self.device_nodes:
            raise ConfigurationError("topology needs at least one device node")
        if not self.omega0 > 0:
            raise ConfigurationError("omega0 must be > 0")
        for r in self.device_roles:
            if r not in (GFM, GFL):
                raise ConfigurationError(f"unknown device role {r!r}")
        # GFM block first, GFL block second
        seen_gfl = False
        for r in self.device_roles:
            if r == GFL:
                seen_gfl = True
            elif seen_gfl:
                raise ConfigurationError("GFM devices must precede GFL devices")
        names = list(self.device_nodes) + list(self.interior_nodes)
        if len(set(names)) != len(names):
            raise ConfigurationError("node identifiers must be unique")
        known = set(names)
        for ln in self.lines:
            if ln.a == ln.b:
                raise ConfigurationError(f"self-loop at node {ln.a!r}")
            if ln.a not in known or ln.b not in known:
                raise ConfigurationError(f"line references unknown node: {ln.a}-{ln.b}")
        if not self._connected():
            raise ConfigurationError("topology graph is not connected")

    def _connected(self) -> bool:
        names = list(self.device_nodes) + list(self.interior_nodes)
        if len(names) == 1:
            return True
        adj = {n: set() for n in names}
        for ln in self.lines:
            adj[ln.a].add(ln.b)
            adj[ln.b].add(ln.a)
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(names)

    @property
    def all_nodes(self) -> tuple:
        return self.device_nodes + self.interior_nodes

    @property
    def n_devices(self) -> int:
        return len(self.device_nodes)


def _line_denominator(rho, s, omega0: float):
    """Denominator s^2 + 2*rho*s + omega0^2 + rho^2 of the line admittances
    per unit l, for scalars or broadcast arrays, and whether it vanishes
    (relative to its magnitude bound): a resonance s = -rho +/- j*omega0.
    l cancels from that test, so one test per rho value covers every line.
    """
    a = abs(s)
    c = omega0 * omega0 + rho * rho
    den = s * s + 2.0 * rho * s + c
    return den, abs(den) <= 1e-12 * (a * a + 2.0 * rho * a + c)


def line_admittance(line: LineParams, s: complex, omega0: float) -> complex:
    """Dynamic admittance omega0 / ((s^2 + 2*rho*s + omega0^2 + rho^2) * l).

    Raises :class:`LineResonanceError` when the denominator vanishes, which
    happens at s = -rho +/- j*omega0.
    """
    den, resonant = _line_denominator(line.rho, s, omega0)
    if resonant:
        raise LineResonanceError(s)
    return line.stiffness * omega0 / (den * line.l)


def assemble_Y(topology: GridTopology, s: complex) -> np.ndarray:
    """Graph Laplacian of line admittances over all nodes at frequency s."""
    nodes = topology.all_nodes
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    Y = np.zeros((n, n), dtype=complex)
    for ln in topology.lines:
        y = line_admittance(ln.params, s, topology.omega0)
        i, j = idx[ln.a], idx[ln.b]
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    return Y


def kron_reduce(Y: np.ndarray, interior: Sequence[int], node_names=None) -> np.ndarray:
    """Schur complement of Y onto the non-interior nodes.

    Interior nodes are eliminated one at a time (classic Kron step); a pivot
    with |pivot| < PIVOT_REL_TOL * max|Y| (largest entry magnitude) raises
    :class:`ReductionSingularityError` naming the offending node.
    """
    Y = np.array(Y, dtype=complex)
    interior = list(interior)
    if not interior:
        return Y
    n = Y.shape[0]
    names = list(node_names) if node_names is not None else list(range(n))
    scale = np.max(np.abs(Y)) or 1.0
    keep = [k for k in range(n) if k not in set(interior)]
    order = keep + interior
    Y = Y[np.ix_(order, order)]
    names = [names[k] for k in order]
    m = len(keep)
    while Y.shape[0] > m:
        k = Y.shape[0] - 1
        pivot = Y[k, k]
        if abs(pivot) < PIVOT_REL_TOL * scale:
            raise ReductionSingularityError(names[k])
        Y = Y[:k, :k] - np.outer(Y[:k, k], Y[k, :k]) / pivot
        names = names[:k]
    return Y


def static_network(topology: GridTopology) -> np.ndarray:
    """Constant network matrix: Laplacian at s = 0, all interiors eliminated.

    This is the low-frequency simplification used by the case studies and
    by the centralized pole oracle.
    """
    Y = assemble_Y(topology, 0.0)
    nd = topology.n_devices
    interior = list(range(nd, len(topology.all_nodes)))
    N = kron_reduce(Y, interior, node_names=topology.all_nodes)
    return N.real


def reduced_network(topology: GridTopology, s: complex) -> np.ndarray:
    """Dynamic network matrix at frequency s (assemble + Kron reduce)."""
    Y = assemble_Y(topology, s)
    nd = topology.n_devices
    interior = list(range(nd, len(topology.all_nodes)))
    return kron_reduce(Y, interior, node_names=topology.all_nodes)


def network_row(N: np.ndarray, i: int):
    """Diagonal entry and off-diagonal absolute row sum for device i."""
    n = N.shape[0]
    if not 0 <= i < n:
        raise ConfigurationError(f"device index {i} out of range for {n}x{n} matrix")
    off = np.sum(np.abs(N[i, :])) - abs(N[i, i])
    return N[i, i], float(off)


def _laplacians(topology: GridTopology):
    """Distinct line rho values and one real Laplacian per value, weighted
    by stiffness / l and stacked on the last axis, so that
    Y(s) = W @ (omega0 / denominators(s))."""
    idx = {n: k for k, n in enumerate(topology.all_nodes)}
    rho = np.array(sorted({ln.params.rho for ln in topology.lines}))
    a = np.array([idx[ln.a] for ln in topology.lines], dtype=int)
    b = np.array([idx[ln.b] for ln in topology.lines], dtype=int)
    r = np.searchsorted(rho, [ln.params.rho for ln in topology.lines])
    w = np.array([ln.params.stiffness / ln.params.l for ln in topology.lines])
    W = np.zeros((len(idx), len(idx), len(rho)))
    np.add.at(W, (a, a, r), w)
    np.add.at(W, (b, b, r), w)
    np.add.at(W, (a, b, r), -w)
    np.add.at(W, (b, a, r), -w)
    return rho, W


def _scale_rows(W: np.ndarray) -> np.ndarray:
    """Weight rows of the entries of W that can attain max|Y(s)|.  An
    entry whose lines share one rho is that rho's factor times its weight,
    so of those only the largest weight per rho counts; entries mixing
    rho values can cancel, so all of them are kept."""
    rows = W[np.nonzero(np.triu(np.any(W != 0, axis=2)))]
    single = np.count_nonzero(rows, axis=1) == 1
    peaks = np.max(np.abs(rows[single]), axis=0, initial=0.0)
    return np.vstack([rows[~single], np.diag(peaks)])


def _eliminate(A: np.ndarray, tol: np.ndarray, names):
    """Solve A[:, 1:] x = A[:, 0] for matrices stacked on the last axis,
    eliminating the last index first with the pivot rule of
    ``kron_reduce``.  At the first sample with a failed pivot, raises
    :class:`ReductionSingularityError` naming the first node that failed
    there.  A is overwritten.
    """
    m = len(A)
    failed = np.full(A.shape[-1], -1)
    for k in range(m - 1, -1, -1):
        pivot = A[k, k + 1]
        bad = np.abs(pivot) < tol
        if bad.any():
            failed[bad & (failed < 0)] = k
            pivot = np.where(bad, 1.0, pivot)
        A[:k, : k + 1] -= (A[:k, k + 1] / pivot)[:, None] * A[k, : k + 1]
    bad = np.flatnonzero(failed >= 0)
    if len(bad):
        raise ReductionSingularityError(names[failed[bad[0]]])
    # row k kept its pivot-time entries in columns <= k: substitute forward
    x = np.empty_like(A[:, 0])
    for k in range(m):
        x[k] = (A[k, 0] - np.sum(A[k, 1 : k + 1] * x[:k], axis=0)) / A[k, k + 1]
    return x


def network_row_series(topology: GridTopology, i: int, pts):
    """Row i of the dynamic network matrix at every sample point: the
    diagonal entries and the off-diagonal absolute row sums.

    Equals ``network_row(reduced_network(topology, s), i)`` at each point
    and raises what the first failing point would raise there.  Row i of
    the Kron reduction is the Schur complement row
    ``Y[i, D] - Y[i, I] Y_II^-1 Y[I, D]``, so only the lines of node i and
    the interior block enter, besides the pivot scale max|Y(s)|.  Samples
    are processed in chunks of about ``ROW_CHUNK_ELEMENTS`` entries.
    """
    nd = topology.n_devices
    if not 0 <= i < nd:
        raise ConfigurationError(f"device index {i} out of range for {nd} devices")
    pts = np.asarray(pts, dtype=complex)
    omega0 = topology.omega0
    rho, W = _laplacians(topology)
    inner = np.arange(nd, len(topology.all_nodes))
    # device columns of the reduced row: i, its neighbours, and every
    # device that an interior node reaches
    linked = np.any(W[:, :nd] != 0, axis=2)
    reach = linked[i] | np.any(linked[inner], axis=0)
    cols = np.array([i] + [j for j in np.flatnonzero(reach) if j != i])
    W_iJ = W[i, cols]
    width = len(cols)
    if len(inner):
        # [Y[I, i] | Y_II]: the right-hand side rides along as column 0
        W_II = W[inner[:, None], np.r_[i, inner]]
        W_IJ = W[inner[:, None], cols]
        W_scale = _scale_rows(W)
        width = max(width, len(inner) * (len(inner) + 1), len(W_scale))
    step = max(1, ROW_CHUNK_ELEMENTS // width)
    diag = np.empty(len(pts), dtype=complex)
    off = np.empty(len(pts))
    for start in range(0, len(pts), step):
        den, resonant = _line_denominator(rho[:, None], pts[start:start + step], omega0)
        hit = np.flatnonzero(np.any(resonant, axis=0))
        g = omega0 / den[:, : hit[0] if len(hit) else None]
        N = W_iJ @ g
        if len(inner):
            tol = PIVOT_REL_TOL * np.max(np.abs(W_scale @ g), axis=0)
            x = _eliminate(W_II @ g, tol, topology.interior_nodes)
            N -= np.sum(np.tensordot(W_IJ, x, axes=(0, 0)) * g, axis=1)
        if len(hit):
            raise LineResonanceError(pts[start + hit[0]])
        rows = slice(start, start + g.shape[1])
        diag[rows] = N[0]
        off[rows] = np.sum(np.abs(N[1:]), axis=0)
    return diag, off
