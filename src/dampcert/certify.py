"""Per-device gain certificates and parameter feasible-region sweeps.

The certificate logic is row-local: device i's verdict depends only on its
own entry and on row i of the network matrix.  So one kernel over stacked
coefficient rows, each with its network row, serves devices and grid
points alike, and any execution order produces identical results (all
computation here is pure).
"""

from __future__ import annotations

# perfbench/layertrace.py patches this name to count pool starts
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .devices import DeviceEntry, analytic_rows, entry_rows, pad_rows
from .domain import BoundarySamples, ProhibitedDomain
from .errors import CertificateInapplicableError, ConfigurationError
from .netmodel import GridTopology, network_row, network_row_series, static_network
from .ratcalc import HURWITZ, Polynomial, RationalFunction
from .ratcalc import degree_groups, hurwitz_rows, roots_rows, taylor_shift_rows

#: default tolerance turning the strict gain inequality into a predicate
MARGIN_TOL = 1e-6


# -- network providers ------------------------------------------------------


@dataclass(frozen=True)
class StaticNetwork:
    """Constant network matrix (low-frequency simplification)."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("network matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_topology(cls, topology: GridTopology) -> "StaticNetwork":
        return cls(static_network(topology))

    @property
    def n_devices(self) -> int:
        return self.matrix.shape[0]

    def row_series(self, i: int, pts: np.ndarray):
        """Diagonal entry and off-diagonal sum; constant, so returned as
        scalars that broadcast against the sample points."""
        return network_row(self.matrix, i)

    def diagonal_ratfun(self, i: int) -> RationalFunction:
        diag, _ = network_row(self.matrix, i)
        return RationalFunction(Polynomial([diag]), Polynomial([1.0]))


@dataclass(frozen=True)
class DynamicNetwork:
    """Dynamic network (full line dynamics), evaluated row by row."""

    topology: GridTopology

    @property
    def n_devices(self) -> int:
        return self.topology.n_devices

    def row_series(self, i: int, pts: np.ndarray):
        """Diagonal entries and off-diagonal sums of row i at the sample
        points, from the lines of device i and the interior block only."""
        return network_row_series(self.topology, i, pts)

    def diagonal_ratfun(self, i: int) -> RationalFunction:
        """Exact rational diagonal entry; only available without interior
        nodes (symbolic Kron reduction is out of scope)."""
        if self.topology.interior_nodes:
            raise CertificateInapplicableError(
                "rational diagonal entry unavailable with interior nodes; "
                "use the static network provider for the non-vanishing test"
            )
        node = self.topology.device_nodes[i]
        w0 = self.topology.omega0
        num, den = Polynomial([0.0]), Polynomial([1.0])
        for p in (ln.params for ln in self.topology.lines if node in (ln.a, ln.b)):
            term_den = Polynomial([w0 * w0 + p.rho * p.rho, 2.0 * p.rho, 1.0])
            num = num * term_den + Polynomial([p.stiffness * w0 / p.l]) * den
            den = den * term_den
        return RationalFunction(num, den)


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class MarginReport:
    """Outcome of the boundary certificate for one device."""

    device: int
    min_lhs: float
    max_rhs: float
    margin: float
    worst_point: complex
    nonvanishing: bool
    passed: bool


@dataclass(frozen=True)
class ParameterGrid:
    """Rectangular grid of candidate control parameters, row-major order."""

    axes: tuple
    values: tuple

    def __init__(self, axes, values):
        axes = tuple(axes)
        values = tuple(np.asarray(v, dtype=float) for v in values)
        if not axes or len(axes) != len(values):
            raise ConfigurationError("grid needs matching axis names and value lists")
        if len(set(axes)) != len(axes):
            raise ConfigurationError(f"grid axis names repeat: {axes}")
        for name, v in zip(axes, values):
            if v.ndim != 1 or len(v) == 0:
                raise ConfigurationError(f"grid axis {name!r} is empty")
            if np.any(np.diff(v) <= 0):
                raise ConfigurationError(f"grid axis {name!r} must be strictly increasing")
            v.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple:
        return tuple(len(v) for v in self.values)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self):
        """Iterate (index_tuple, {axis: value}) in row-major order."""
        idx_grids = np.indices(self.shape).reshape(len(self.axes), -1).T
        for idx in idx_grids:
            yield tuple(idx), {
                a: self.values[k][idx[k]] for k, a in enumerate(self.axes)
            }


@dataclass(frozen=True)
class FeasibilityMask:
    """Per-grid-point certificate verdicts and margins for one device."""

    device: int
    grid: ParameterGrid
    flags: np.ndarray
    margins: np.ndarray

    def __init__(self, device, grid, flags, margins):
        flags = np.asarray(flags, dtype=bool)
        margins = np.asarray(margins, dtype=float)
        if flags.shape != grid.shape or margins.shape != grid.shape:
            raise ConfigurationError("mask arrays must match the grid shape")
        flags.setflags(write=False)
        margins.setflags(write=False)
        object.__setattr__(self, "device", int(device))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "margins", margins)


# -- the certificate kernel ------------------------------------------------
# Every stage takes an inverse-entry stack: coefficient rows (num, den) of
# D_inv = num / den, one row per device entry or grid point.  Network arrays
# hold one row per stack row, or a single row that all stack rows share.

#: rows x samples per gain-curve chunk, keeping each temporary near 0.25 MB
CHUNK_ELEMENTS = 1 << 15

#: diagonal zeros closer than this to the domain boundary fail the
#: certificate (conservative treatment of borderline root locations)
ZERO_GUARD = 1e-9


def _rows(x, rows):
    """The network rows of stack rows `rows`; a shared row as it is."""
    return x if len(x) == 1 else x[rows]


def _gain_curves(num, den, diag, pts):
    """Yield (row slice, lhs, pole) per chunk of rows: lhs = |D_inv(s) + diag|
    over the samples, pole flags rows with a pole of D_inv on them.

    Values are real products with the sample powers s^j.  Only rows whose
    |den| comes near 1e-12 of its term sizes at the largest |s| get the
    per-sample pole test.
    """
    k, n = max(num.shape[1], den.shape[1]), len(pts)
    powers = np.ones((k, n), dtype=complex)
    for j in range(1, k):
        powers[j] = powers[j - 1] * pts
    re, im = np.ascontiguousarray(powers.real), np.ascontiguousarray(powers.imag)
    top = np.max(np.abs(pts)) ** np.arange(k)
    step = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, len(num), step):
        rows = slice(start, start + step)
        a, b, d = num[rows], den[rows], _rows(diag, rows)
        are, aim = a @ re[: a.shape[1]], a @ im[: a.shape[1]]
        bre, bim = b @ re[: b.shape[1]], b @ im[: b.shape[1]]
        are += np.real(d) * bre
        aim += np.real(d) * bim
        if np.iscomplexobj(d):
            are -= d.imag * bim
            aim += d.imag * bre
        babs2 = bre * bre + bim * bim
        pole = np.min(babs2, axis=1) <= (1e-12 * (np.abs(b) @ top[: b.shape[1]])) ** 2
        if pole.any():
            scale = np.abs(b[pole]) @ np.abs(powers[: b.shape[1]])
            tol = 1e-12 * np.maximum(scale, 1e-300)
            pole[pole] = np.any(babs2[pole] <= tol * tol, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            yield rows, np.sqrt((are * are + aim * aim) / babs2), pole


def _nonvanishing_rational(num, den, n_num, n_den, dom: ProhibitedDomain) -> np.ndarray:
    """Per row: True iff the diagonal D_inv + n_ii, with n_ii = n_num / n_den
    from the network rows, has no zero in the prohibited domain.

    Its numerator is formed with structural s = 0 roots stripped (the
    origin is excluded).  Fast path: the shifted Routh half-plane test
    (sufficient).  Other rows fall back to exact zero locations; zeros
    within ZERO_GUARD of the domain boundary fail.
    """
    width = max(num.shape[1] + n_den.shape[1], den.shape[1] + n_num.shape[1]) - 1
    p = np.zeros((len(num), width))
    for rows, coeffs in ((num, n_den), (den, n_num)):
        for j in range(coeffs.shape[1]):
            p[:, j : j + rows.shape[1]] += coeffs[:, j : j + 1] * rows
    low = np.argmax(np.abs(p) > 1e-12 * np.max(np.abs(p), axis=1, keepdims=True), axis=1)
    cols = np.arange(width) + low[:, None]
    p = np.where(cols < width, np.take_along_axis(p, np.minimum(cols, width - 1), 1), 0.0)
    ok = np.zeros(len(num), dtype=bool)
    for degree, rows, q in degree_groups(p):
        ok[rows] = degree == 0
        if degree >= 1:
            ok[rows] = hurwitz_rows(taylor_shift_rows(q, dom.sigma)) == HURWITZ
            rest = ~ok[rows]
            if rest.any():
                r = roots_rows(q[rest])
                bad = dom.contains(r) | (dom.boundary_distance(r) <= ZERO_GUARD)
                ok[rows[rest]] = ~bad.any(axis=1)
    return ok


def _verdicts(num, den, provider, devices, dom: ProhibitedDomain, pts):
    """The certificate stages over an inverse-entry stack, row r against
    network row devices[r] (a single device's row is shared by all rows):
    analyticity, the gain curve on analytic rows, the non-vanishing
    diagonal on analytic, pole-free rows.

    Returns per-row arrays (margin, worst sample index, min_lhs, max_rhs,
    analytic, pole on a sample, nonvanishing); the margin is -inf where
    the certificate does not apply.
    """
    n_ii = [provider.diagonal_ratfun(i) for i in devices]
    n_num, n_den = pad_rows([f.num for f in n_ii]), pad_rows([f.den for f in n_ii])
    series = [provider.row_series(i, pts) for i in devices]
    # diagonal entries and off-diagonal sums, one column where constant
    diag = np.array([np.atleast_1d(d) for d, _ in series])
    off = np.array([np.atleast_1d(o) for _, o in series])
    size = len(num)
    margin, min_lhs = np.full(size, -np.inf), np.full(size, -np.inf)
    max_rhs = np.broadcast_to(np.max(off, axis=1), (size,))
    worst = np.zeros(size, dtype=int)
    pole, nonvanishing = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    analytic = analytic_rows(num, den, dom)
    live = np.flatnonzero(analytic)
    for rows, lhs, p in _gain_curves(num[live], den[live], _rows(diag, live), pts):
        idx = live[rows]
        m = lhs - _rows(off, idx)
        k = np.argmin(m, axis=1)
        worst[idx], pole[idx] = k, p
        margin[idx] = m[np.arange(len(k)), k]
        min_lhs[idx] = np.min(lhs, axis=1)
    margin[pole] = -np.inf
    ok = live[~pole[live]]
    nonvanishing[ok] = _nonvanishing_rational(
        num[ok], den[ok], _rows(n_num, ok), _rows(n_den, ok), dom
    )
    return margin, worst, min_lhs, max_rhs, analytic, pole, nonvanishing


def _reports(entries, devices, provider, dom, samples, margin_tol) -> list[MarginReport]:
    """Margin reports of `entries` against the network rows of `devices`;
    raises for the first entry the certificate does not apply to."""
    pts = samples.points
    margin, worst, min_lhs, max_rhs, analytic, pole, nonvan = _verdicts(
        *entry_rows(entries), provider, devices, dom, pts
    )
    bad = np.flatnonzero(~analytic | pole)
    if bad.size:
        r = bad[0]
        reason = "entry has a pole inside the prohibited domain"
        if analytic[r]:
            k = int(np.argmin(np.abs(entries[r].inverse.den(pts))))
            reason = f"pole of the inverse device entry on the sampled boundary near {pts[k]}"
        raise CertificateInapplicableError(f"device {devices[r]}: {reason}")
    passed = nonvan & (margin > margin_tol)
    return [
        MarginReport(device=i, min_lhs=float(min_lhs[r]), max_rhs=float(max_rhs[r]),
                     margin=float(margin[r]), worst_point=complex(pts[worst[r]]),
                     nonvanishing=bool(nonvan[r]), passed=bool(passed[r]))
        for r, i in enumerate(devices)
    ]


def boundary_certificate(
    entry: DeviceEntry,
    provider,
    device: int,
    dom: ProhibitedDomain,
    samples: BoundarySamples,
    margin_tol: float = MARGIN_TOL,
) -> MarginReport:
    """Boundary-sampled sufficient certificate for one device.

    Requires the device entry to be analytic on the prohibited domain;
    runs the gain inequality at every boundary sample, then the
    non-vanishing diagonal test.  Passing implies (by diagonal dominance
    plus the maximum-modulus argument) that the device contributes no
    closed-loop pole inside the domain.
    """
    return _reports([entry], [device], provider, dom, samples, margin_tol)[0]


def certify_all(
    entries,
    provider,
    dom: ProhibitedDomain,
    samples: BoundarySamples,
    margin_tol: float = MARGIN_TOL,
) -> list[MarginReport]:
    """Boundary certificate for every device at fixed parameters, from one
    kernel call over the stacked device rows.  Network-row errors come
    before the first device the certificate does not apply to."""
    entries = list(entries)
    if len(entries) != provider.n_devices:
        raise ConfigurationError(
            f"{len(entries)} device entries for a {provider.n_devices}-device network"
        )
    return _reports(entries, range(len(entries)), provider, dom, samples, margin_tol)


# -- parameter sweep --------------------------------------------------------


def feasible_region(
    make_entry,
    grid: ParameterGrid,
    provider,
    device: int,
    dom: ProhibitedDomain,
    samples: BoundarySamples,
    margin_tol: float = MARGIN_TOL,
) -> FeasibilityMask:
    """Certificate verdict over a grid of candidate device parameters.

    make_entry maps an {axis: value} dict to a DeviceEntry; when it also
    has a ``stack(grid)`` method (``GridEntryFactory``), that builds the
    coefficient rows of the whole grid at once.  The grid's rows then run
    through the same kernel as ``certify_all``, all sharing row `device` of
    the network; other devices' parameters are irrelevant here.  Grid
    points whose entry is not analytic on the domain, or has a pole on the
    samples, are infeasible (margin reported as -inf), never silently
    skipped.
    """
    if grid.size == 0:
        raise ConfigurationError("empty parameter grid")
    stack = getattr(make_entry, "stack", None)
    if stack is not None:
        num, den = stack(grid)
    else:
        num, den = entry_rows([make_entry(point) for _, point in grid.points()])
    margin, *_, nonvanishing = _verdicts(num, den, provider, [device], dom, samples.points)
    flags = nonvanishing & (margin > margin_tol)
    return FeasibilityMask(device, grid, flags.reshape(grid.shape), margin.reshape(grid.shape))


@dataclass(frozen=True)
class SweepTask:
    """Unit of sweep work for one device."""

    device: int
    make_entry: object
    grid: ParameterGrid


def sweep_all(
    tasks,
    provider,
    dom: ProhibitedDomain,
    samples: BoundarySamples,
    margin_tol: float = MARGIN_TOL,
) -> dict:
    """Run feasible_region for each task; returns {device: FeasibilityMask}.

    Tasks run one after another in this process: each is one batched
    kernel call, which a process pool did not speed up by enough to keep.
    """
    return {
        t.device: feasible_region(
            t.make_entry, t.grid, provider, t.device, dom, samples, margin_tol
        )
        for t in tasks
    }
