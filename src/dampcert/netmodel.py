"""Grid topology, dynamic line admittances, Kron reduction, and the two
network providers.

Topologies are immutable after construction.  The network matrix is always
evaluated numerically, in real arithmetic at a real frequency and in complex
arithmetic otherwise; no symbolic rational-matrix reduction is attempted.
Device nodes come first (GFM block, then GFL block) and fix the row/column
ordering of every derived matrix.

Every matrix here is a class sum ``sum_r g_r(s) W_r`` of one Laplacian per
line class (rho value).  ``reduced_network`` assembles and Kron-reduces it
at one point; it is the per-point oracle.  A certificate reads only its
device's row of the network, from a provider that serves a whole device
list per call: ``rows`` (diagonal entries and off-diagonal sums at the
samples) and ``diagonal_rows`` (rational diagonal entries as coefficient
rows).  ``StaticNetwork`` is the one class with factor 1, and
``DynamicNetwork`` eliminates every interior node once, when it is built,
with one Kron reduction per class.  A Kron reduction is one block solve,
and it refuses an interior node by that node's own pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import CertificateInapplicableError, ConfigurationError
from .errors import LineResonanceError, ReductionSingularityError
from .ratcalc import POLE_REL_TOL, TRIM_EPS, pad_rows, readonly

GFM = "gfm"
GFL = "gfl"

#: a Kron reduction refuses an interior node whose pivot is below this times its diagonal
PIVOT_REL_TOL = 1e-10


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

    def __post_init__(self):
        for name in ("device_nodes", "device_roles", "interior_nodes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        lines = (ln if isinstance(ln, Line) else Line(ln[0], ln[1], ln[2]) for ln in self.lines)
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "omega0", float(self.omega0))
        if len(self.device_nodes) != len(self.device_roles):
            raise ConfigurationError("device_nodes and device_roles length mismatch")
        if not self.device_nodes:
            raise ConfigurationError("topology needs at least one device node")
        if not 0 < self.omega0 < math.inf:
            raise ConfigurationError("omega0 must be finite and > 0")
        for r in self.device_roles:
            if r not in (GFM, GFL):
                raise ConfigurationError(f"unknown device role {r!r}")
        # GFM block first, GFL block second (a stable sort keeps that order)
        if self.device_roles != tuple(sorted(self.device_roles, key=GFL.__eq__)):
            raise ConfigurationError("GFM devices must precede GFL devices")
        names = self.all_nodes
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
        names = self.all_nodes
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
    return den, abs(den) <= POLE_REL_TOL * (a * a + 2.0 * rho * a + c)


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
    """Graph Laplacian of line admittances over all nodes at frequency s,
    the class sum ``sum_r g_r(s) W_r`` of ``_laplacians``: the sum of
    ``line_admittance`` over the lines, up to rounding, and its
    :class:`LineResonanceError` at s = -rho +/- j*omega0.  A real s gives a
    real Laplacian."""
    rho, W = _laplacians(topology)
    den, resonant = _line_denominator(rho, s, topology.omega0)
    if np.any(resonant):
        raise LineResonanceError(s)
    return W @ (topology.omega0 / den)


def kron_reduce(Y: np.ndarray, interior: Sequence[int], node_names=None) -> np.ndarray:
    """Schur complement ``Y_KK - Y_KI Y_II^-1 Y_IK`` of Y onto the nodes K
    not in `interior`, in index order, by one factorization of the
    interior block and in Y's dtype: a real Laplacian reduces in real
    arithmetic.

    Interior node k is refused when its pivot, were it eliminated last,
    ``1 / (Y_II^-1)[k, k]``, is below ``PIVOT_REL_TOL * |Y[k, k]|``; an
    exactly singular block refuses the node of largest weight in its null
    vector.  :class:`ReductionSingularityError` names the first refused
    node in index order; the rule depends on no elimination order.
    """
    Y = np.asarray(Y)
    names = range(len(Y)) if node_names is None else node_names
    inner = np.zeros(len(Y), dtype=bool)
    inner[list(interior)] = True
    I, K = np.flatnonzero(inner), np.flatnonzero(~inner)
    Y_II = Y[np.ix_(I, I)]
    try:
        # [Y_II^-1 Y_IK, Y_II^-1] from one LU factorization
        X = np.linalg.solve(Y_II, np.hstack([Y[np.ix_(I, K)], np.eye(len(I))]))
    except np.linalg.LinAlgError:
        null = np.linalg.svd(Y_II)[2][-1]
        raise ReductionSingularityError(names[I[np.argmax(np.abs(null))]]) from None
    # refused where 1 / |(Y_II^-1)[k, k]| < tol |Y[k, k]|, or the inverse is not finite
    refused = ~(np.abs(np.diagonal(X, len(K))) * (PIVOT_REL_TOL * np.abs(np.diagonal(Y_II))) <= 1)
    if np.any(refused):
        raise ReductionSingularityError(names[I[np.argmax(refused)]])
    return Y[np.ix_(K, K)] - Y[np.ix_(K, I)] @ X[:, : len(K)]


def static_network(topology: GridTopology) -> np.ndarray:
    """Constant network matrix: Laplacian at s = 0, all interiors eliminated,
    in real arithmetic.

    This is the low-frequency simplification used by the case studies and
    by the centralized pole oracle.
    """
    return reduced_network(topology, 0.0)


def reduced_network(topology: GridTopology, s: complex) -> np.ndarray:
    """Dynamic network matrix at frequency s (assemble + Kron reduce)."""
    interior = range(topology.n_devices, len(topology.all_nodes))
    return kron_reduce(assemble_Y(topology, s), interior, node_names=topology.all_nodes)


def device_indices(devices, n: int) -> np.ndarray:
    """The device list as an index array; raises
    :class:`ConfigurationError` for the first index that is not an integer
    in 0..n-1."""
    given = np.asarray(devices)
    whole = given == np.floor(given)
    bad = np.flatnonzero(~whole | (given < 0) | (given >= n))
    if len(bad):
        why = f"out of range for {n} devices" if whole[bad[0]] else "is not an integer"
        raise ConfigurationError(f"device index {given[bad[0]]} {why}")
    return given.astype(int)


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
    n, lines = len(idx), topology.lines
    a, b, rho, w = np.fromiter(chain.from_iterable(
        (idx[ln.a], idx[ln.b], p.rho, p.stiffness / p.l) for ln in lines for p in (ln.params,)
    ), float, 4 * len(lines)).reshape(-1, 4).T
    rho, r = np.unique(rho, return_inverse=True)
    W = np.zeros((n, n, len(rho)))
    # entries (a, a), (b, b), (a, b), (b, a), added in that order, by flat index
    k = (np.r_[a, b, a, b] * n + np.r_[a, b, b, a]) * len(rho) + np.tile(r, 4)
    np.add.at(W.reshape(-1), k.astype(int), np.r_[w, w, -w, -w])
    return rho, W


def _by_class(weights, factors):
    """(k, R) weights times (R, S) class factors, summed in class order row by row."""
    return np.sum(weights[:, :, None] * factors, axis=1)


# -- network providers --------------------------------------------------------


class _ClassSum:
    """Both providers: the device block ``N(s) = sum_r g_r(s) W_r``, real
    weights ``W`` (n, n, R) and factors ``g_r = c / d_r`` (``_factors``).

    The build fixes each device's summed |weight| per class of its
    single-class columns (``alone``), its class-mixing columns and its
    rational diagonal entry, less the classes of weight at most
    ``max(TRIM_EPS, POLE_REL_TOL * largest weight)``, the largest of the
    device's diagonal weights before the Kron reduction (``unreduced``): a
    class cancelled in the reduction leaves a residue on the scale of the
    weights that cancelled, which would add a pole.
    """

    #: whether rows refuses every call; diagonal_rows then raises the same
    refused = False

    def __init__(self, W, c: float, d, unreduced):
        self.n_devices = len(W)
        self.W = W
        # classes[i, j]: classes in entry (i, j), off the diagonal
        classes = np.count_nonzero(W, axis=2)
        np.fill_diagonal(classes, 0)
        self.mixing_row, mixing_col = np.nonzero(classes > 1)
        self.mixing = W[self.mixing_row, mixing_col]
        # sum_j |W_r[i, j]| over j single-class or j = i, less |W_r[i, i]|:
        # with one class, network_row's sum in its order
        kept = np.abs(np.moveaxis(W, 2, 1)) * (classes < 2)[:, None, :]
        weights = np.diagonal(W).T
        self.alone = np.sum(kept, axis=2) - np.abs(weights)
        self.diagonal = []
        scales = np.max(np.abs(np.diagonal(unreduced)), axis=0, initial=0.0)
        for w, scale in zip(weights, scales):
            num, den = np.zeros(1), np.ones(1)
            floor = max(TRIM_EPS, POLE_REL_TOL * scale)
            for r in np.flatnonzero(np.abs(w) > floor):
                num = np.convolve(num, d[r])[: len(den)] + w[r] * c * den
                den = np.convolve(den, d[r])
            self.diagonal.append((num, den))

    def rows(self, devices, pts):
        """Rows `devices` at the samples (one column if g is constant): the
        diagonal entries and off-diagonal absolute sums, the same bits in any
        device list.  Device i's single-class columns add
        ``alone[i] @ |g(s)|``; its diagonal and class-mixing columns are
        evaluated in full."""
        idx = device_indices(devices, self.n_devices)
        g = self._factors(pts, len(idx))
        owner, entry = np.nonzero(idx[:, None] == self.mixing_row)
        off = np.zeros((len(idx), g.shape[1]))
        np.add.at(off, owner, np.abs(_by_class(self.mixing[entry], g)))
        return _by_class(self.W[idx, idx], g), off + _by_class(self.alone[idx], np.abs(g))

    def row_series(self, i: int, pts):
        """Row i at the sample points; the one-device view of ``rows``."""
        diag, off = self.rows([i], pts)
        return diag[0], off[0]

    def diagonal_rows(self, devices):
        """Exact rational diagonal entries ``sum_r W_r[i, i] g_r(s)`` of rows
        `devices` as zero-padded coefficient rows (n_num, n_den), fixed at
        build: n_den has one factor d_r per class kept, in class order.
        Refuses what ``rows`` refuses."""
        idx = device_indices(devices, self.n_devices)
        if self.refused:
            self.rows(idx, [0.0])  # no line resonates at s = 0
        return tuple(pad_rows([self.diagonal[i][k] for i in idx]) for k in (0, 1))


class StaticNetwork(_ClassSum):
    """Constant network matrix (low-frequency simplification): one class of
    factor 1, so rows are one column wide and equal ``network_row``.  No
    unreduced matrix is known, so the zero rule's floor scales with it."""

    def __init__(self, matrix):
        # a copy, so that no later write by the caller gets past the checks
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("network matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ConfigurationError("network matrix entries must be finite")
        self.matrix = readonly(m)
        super().__init__(self.matrix[:, :, None], 1.0, np.ones((1, 1)), self.matrix[:, :, None])

    @classmethod
    def from_topology(cls, topology: GridTopology) -> "StaticNetwork":
        return cls(static_network(topology))

    def _factors(self, pts, n):
        return np.ones((1, 1))


class DynamicNetwork(_ClassSum):
    """Dynamic network matrix (full line dynamics), Kron-reduced once per class.

    Every line admittance is ``stiffness / l`` times the factor
    ``g_r(s) = omega0 / (s^2 + 2 rho_r s + omega0^2 + rho_r^2)`` of its
    class r (its rho value), so ``Y(s) = sum_r g_r(s) W_r``.  An interior
    node whose lines all have class r has the row ``g_r(s) W_r[k]``; no
    line joins it to an interior node of another class, and its Schur
    complement commutes with ``g_r(s)``.  So the interior nodes of class r
    are eliminated once, when the provider is built, from ``W_r``, and the
    device block is ``sum_r g_r(s) kron(W_r)``; ``rows`` equals
    ``network_row(reduced_network(topology, s), i)`` up to rounding.  An
    interior node with lines of two or more rho values has no such form.

    Building raises what ``kron_reduce`` refuses on a class Laplacian, the
    first class in rho order first; with one rho value this is its rule at
    every sample, since ``Y(s) = g(s) W`` scales pivots and diagonal alike.
    ``rows`` and ``diagonal_rows`` refuse a node of several classes, and
    ``rows`` raises a line resonance at the first sample that has one, as
    ``reduced_network`` does; every listed device fails there.
    """

    def __init__(self, topology: GridTopology):
        self.topology = topology
        nd = topology.n_devices
        self.rho, W = _laplacians(topology)
        # has[k, r]: interior node nd + k has a line of class r
        has = np.any(W[nd:] != 0, axis=1)
        mixed = np.flatnonzero(np.count_nonzero(has, axis=1) > 1)
        self.mixed_node = topology.interior_nodes[mixed[0]] if len(mixed) else None
        reduced = W[:nd, :nd].copy()
        if self.mixed_node is None:
            for r in np.flatnonzero(np.any(has, axis=0)):
                # kron_reduce keeps the other nodes in index order, devices first
                inner = nd + np.flatnonzero(has[:, r])
                reduced[:, :, r] = kron_reduce(W[:, :, r], inner, topology.all_nodes)[:nd, :nd]
        self.refused = self.mixed_node is not None
        w0 = topology.omega0
        d = np.stack([w0 * w0 + self.rho**2, 2.0 * self.rho, np.ones_like(self.rho)], axis=1)
        super().__init__(reduced, w0, d, W[:nd, :nd])

    def _factors(self, pts, n):
        """Class factors at `pts` for n devices; refuses a mixed node."""
        if self.mixed_node is not None:
            raise CertificateInapplicableError(
                f"interior node {self.mixed_node!r} has lines of several rho values; "
                "the dynamic network provider eliminates only single-class interior nodes"
            )
        pts = np.asarray(pts, dtype=complex)
        omega0 = self.topology.omega0
        den, resonant = _line_denominator(self.rho[:, None], pts, omega0)
        if n and np.any(resonant):
            raise LineResonanceError(pts[np.argmax(np.any(resonant, axis=0))])
        return omega0 / np.where(resonant, 1.0, den)  # unread at a resonance: no devices

    # bound here too because perfbench's tracer patches it in this class's __dict__
    row_series = _ClassSum.row_series
