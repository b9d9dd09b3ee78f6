"""Grid topology, dynamic line admittances, Kron reduction, and the two
network providers.

Topologies are immutable after construction.  The network matrix is always
evaluated numerically at complex frequencies; no symbolic rational-matrix
reduction is attempted.  Device nodes come first (GFM block, then GFL
block) and fix the row/column ordering of every derived matrix.

``reduced_network`` assembles and Kron-reduces the whole matrix at one
point; it is the per-point oracle.  A certificate reads only its device's
row of the network, from a provider that serves a whole device list per
call: ``rows`` (diagonal entries and off-diagonal sums at the samples) and
``diagonal_rows`` (rational diagonal entries as coefficient rows).
``StaticNetwork`` holds the constant low-frequency matrix.
``DynamicNetwork`` eliminates once, when it is built, the interior nodes
whose lines all have one base rho value; only interior nodes with lines
of two or more rho values are eliminated per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificateInapplicableError, ConfigurationError
from .errors import LineResonanceError, ReductionSingularityError
from .ratcalc import TRIM_EPS, pad_rows

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
        if not 0 < self.l < math.inf:
            raise ConfigurationError(f"line inductance must be finite and > 0, got {self.l}")
        if not 0 <= self.rho < math.inf:
            raise ConfigurationError(f"rho must be finite and >= 0, got {self.rho}")
        if not 0 < self.stiffness < math.inf:
            raise ConfigurationError("stiffness multiplier must be finite and > 0")


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
        if not 0 < self.omega0 < math.inf:
            raise ConfigurationError("omega0 must be finite and > 0")
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


def device_indices(devices, n: int) -> np.ndarray:
    """The device list as an index array; raises
    :class:`ConfigurationError` for the first index outside 0..n-1."""
    idx = np.asarray(devices, dtype=int)
    bad = idx[(idx < 0) | (idx >= n)]
    if len(bad):
        raise ConfigurationError(f"device index {bad[0]} out of range for {n} devices")
    return idx


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


# -- network providers --------------------------------------------------------


@dataclass(frozen=True)
class StaticNetwork:
    """Constant network matrix (low-frequency simplification)."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("network matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ConfigurationError("network matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_topology(cls, topology: GridTopology) -> "StaticNetwork":
        return cls(static_network(topology))

    @property
    def n_devices(self) -> int:
        return self.matrix.shape[0]

    def rows(self, devices, pts):
        """Diagonal entries and off-diagonal sums of rows `devices`; they
        are constant, so each array is one column wide and broadcasts
        against the sample points."""
        idx = device_indices(devices, self.n_devices)
        diag = self.matrix[idx, idx]
        off = np.sum(np.abs(self.matrix[idx]), axis=1) - np.abs(diag)
        return diag[:, None], off[:, None]

    def diagonal_rows(self, devices):
        """Coefficient rows (n_num, n_den) of the diagonal entries of rows
        `devices`: the constant entry (zero where |entry| <= TRIM_EPS, as
        ``Polynomial`` trims it) over 1."""
        diag = np.diagonal(self.matrix)[device_indices(devices, self.n_devices)]
        return np.where(np.abs(diag) > TRIM_EPS, diag, 0.0)[:, None], np.ones((len(diag), 1))

    def row_series(self, i: int, pts):
        """Row i at the sample points (one column wide where constant);
        the one-device view of ``rows``."""
        diag, off = self.rows([i], pts)
        return diag[0], off[0]


class DynamicNetwork:
    """Dynamic network matrix (full line dynamics), Kron-reduced in stages.

    Every line admittance is ``stiffness / l`` times the factor
    ``g_r(s) = omega0 / (s^2 + 2 rho_r s + omega0^2 + rho_r^2)`` of its
    class r (its rho value), so ``Y(s) = sum_r g_r(s) W_r``.  Interior
    nodes whose lines all have the base class b have rows ``g_b(s) W_b[k]``,
    and their Schur complement commutes with ``g_b(s)``: they are
    eliminated once, when the provider is built, from ``W_b``.  Only mixed
    interior nodes (with a line of another class) are eliminated per
    sample.  b leaves the fewest mixed nodes; with one rho value there are
    none, and a row costs a few passes over the samples, whatever the size
    of the grid.

    Building never raises.  ``rows`` raises for the first failing
    sample, a line resonance before a singular pivot, as
    ``reduced_network`` does.  Pivot rules: base-only nodes follow
    ``kron_reduce``'s rule on ``W_b`` and fail at the first sample (with
    one rho value this is its rule at every sample, since pivots and
    ``max|Y(s)|`` both carry ``|g(s)|``); mixed nodes are then eliminated
    from the base-reduced matrix, last first, and fail at a sample where a
    pivot is below ``PIVOT_REL_TOL * max|Y(s)|`` of the unreduced matrix.
    """

    def __init__(self, topology: GridTopology):
        self.topology = topology
        self.n_devices = nd = topology.n_devices
        rho, W = _laplacians(topology)
        inner = np.arange(nd, len(topology.all_nodes))
        # has[k, r]: interior node k has a line of class r
        has = np.any(W[inner] != 0, axis=1)
        mixed_for = np.count_nonzero(has.sum(axis=1, keepdims=True) > has, axis=0)
        b = min(range(len(rho)), key=mixed_for.__getitem__, default=0)
        mixed = np.any(has & (np.arange(len(rho)) != b), axis=1)
        keep, base_only = np.r_[np.arange(nd), inner[mixed]], inner[~mixed]
        self.W = W[np.ix_(keep, keep)]
        self.singular_node = None
        if len(base_only):
            # kron_reduce keeps the other nodes in index order, as `keep` does
            try:
                self.W[:, :, b] = kron_reduce(W[:, :, b], base_only, topology.all_nodes).real
            except ReductionSingularityError as exc:
                self.singular_node = exc.node
        self.rho = rho
        self.mixed_names = [topology.all_nodes[k] for k in inner[mixed]]
        self.scale = _scale_rows(W)
        # device columns that a mixed node reaches, through lines of any class
        self.reached = np.any(self.W[nd:, :nd] != 0, axis=(0, 2))

    def _row_plan(self, i: int):
        """Row i's fixed arrays: the weights of the full columns (i first),
        the summed |weight| per class of the single-class columns, and with
        mixed nodes the blocks [Y'[M, i] | Y'_MM] (the right-hand side
        rides along as column 0) and Y'[M, cols]."""
        nd = self.n_devices
        row = self.W[i, :nd]
        classes = np.count_nonzero(row, axis=1)
        full = (classes > 1) | self.reached
        alone = (classes == 1) & ~full
        full[i] = alone[i] = False
        cols = np.concatenate(([i], np.flatnonzero(full)))
        weights = np.sum(np.abs(row[alone]), axis=0)
        if not self.mixed_names:
            return row[cols], weights, None, None
        inner = np.arange(nd, nd + len(self.mixed_names))
        W_MM, W_MJ = self.W[inner[:, None], np.r_[i, inner]], self.W[inner[:, None], cols]
        return row[cols], weights, W_MM, W_MJ

    def rows(self, devices, pts):
        """Rows `devices` at every sample point: the diagonal entries and
        the off-diagonal absolute row sums, one array row per device.

        Equals ``network_row(reduced_network(topology, s), i)`` at each
        point, up to rounding.  A column whose entry is one class factor
        times a weight adds ``|weight| |g_r(s)|`` to the sum; the diagonal,
        columns mixing classes and columns a mixed node reaches are
        evaluated in full.  Samples are processed in chunks of about
        ``ROW_CHUNK_ELEMENTS`` entries per device; the class factors, the
        resonance test and the pivot tolerance are computed once per chunk
        for all devices.  Pivots and resonances do not depend on the
        device, so every listed device fails at the same first sample.
        """
        plans = [self._row_plan(i) for i in device_indices(devices, self.n_devices)]
        pts = np.asarray(pts, dtype=complex)
        rho, omega0 = self.rho[:, None], self.topology.omega0
        if self.singular_node is not None and len(pts):
            if not np.any(_line_denominator(rho, pts[0], omega0)[1]):
                raise ReductionSingularityError(self.singular_node)
        m = len(self.mixed_names)
        width = max((len(p[0]) for p in plans), default=1)
        if m:
            width = max(width, m * (m + 1), len(self.scale))
        step = max(1, ROW_CHUNK_ELEMENTS // width)
        diag = np.empty((len(plans), len(pts)), dtype=complex)
        off = np.empty((len(plans), len(pts)))
        for start in range(0, len(pts), step):
            den, resonant = _line_denominator(rho, pts[start:start + step], omega0)
            hit = np.flatnonzero(np.any(resonant, axis=0))
            g = omega0 / den[:, : hit[0] if len(hit) else None]
            g_abs = np.abs(g)
            if m:
                tol = PIVOT_REL_TOL * np.max(np.abs(self.scale @ g), axis=0)
            samples = slice(start, start + g.shape[1])
            for r, (W_iJ, weights, W_MM, W_MJ) in enumerate(plans):
                N = W_iJ @ g
                if m:
                    x = _eliminate(W_MM @ g, tol, self.mixed_names)
                    N -= np.sum(np.tensordot(W_MJ, x, axes=(0, 0)) * g, axis=1)
                if len(hit):
                    raise LineResonanceError(pts[start + hit[0]])
                diag[r, samples] = N[0]
                off[r, samples] = np.sum(np.abs(N[1:]), axis=0) + weights @ g_abs
        return diag, off

    # the one-device view of ``rows``, shared with StaticNetwork; it is bound
    # here too because perfbench's tracer patches it in this class's __dict__
    row_series = StaticNetwork.row_series

    def diagonal_rows(self, devices):
        """Exact rational diagonal entries of rows `devices` as zero-padded
        coefficient rows (n_num, n_den), with one monic line denominator
        multiplied in per incident line.  Only available without interior
        nodes (symbolic Kron reduction is out of scope)."""
        if self.topology.interior_nodes:
            raise CertificateInapplicableError(
                "rational diagonal entry unavailable with interior nodes; "
                "use the static network provider for the non-vanishing test"
            )
        idx = device_indices(devices, self.n_devices)
        w0 = self.topology.omega0
        incident = {node: [] for node in self.topology.device_nodes}
        for ln in self.topology.lines:
            incident[ln.a].append(ln.params)
            incident[ln.b].append(ln.params)
        nums, dens = [], []
        for node in (self.topology.device_nodes[i] for i in idx):
            num, den = np.zeros(1), np.ones(1)
            for p in incident[node]:
                term_den = np.array([w0 * w0 + p.rho * p.rho, 2.0 * p.rho, 1.0])
                num = np.convolve(num, term_den)[: len(den)] + p.stiffness * w0 / p.l * den
                den = np.convolve(den, term_den)
            nums.append(num)
            dens.append(den)
        return pad_rows(nums), pad_rows(dens)
