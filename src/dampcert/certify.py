"""Per-device gain certificates and parameter feasible-region sweeps.

The certificate logic is row-local: device i's verdict depends only on its
own entry and on row i of the network matrix.  So one kernel over stacked
coefficient rows, each with its network row, serves devices and grid
points alike.  All computation here is pure, so a repeated run gives
identical results.  Another grouping of the same rows gives margins within
1e-12 relative (and equal verdicts on every tested stack), not identical
bits: a row alone in its chunk takes BLAS's matrix-vector product, which
rounds differently from the matrix product.  The kernel asks a network
provider (``netmodel``) for all its device rows in two calls: ``rows``
(diagonal entries and off-diagonal sums at the samples), then
``diagonal_rows`` (rational diagonal entries).  One call of the exact-root
screen, ``ProhibitedDomain.rows_with_root_in``, decides analyticity on the
closed domain and the non-vanishing diagonal for every row of a stack.
"""

from __future__ import annotations

# perfbench/layertrace.py patches this name to count pool starts
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .devices import DeviceEntry, entry_rows
from .domain import ZERO_GUARD, BoundarySamples, ProhibitedDomain
from .errors import CertificateInapplicableError, ConfigurationError
# perfbench builds the providers as certify.StaticNetwork/DynamicNetwork and
# patches row_series in certify.DynamicNetwork's own class __dict__
from .netmodel import DynamicNetwork, StaticNetwork  # noqa: F401
from .ratcalc import TRIM_EPS, readonly

#: default tolerance turning the strict gain inequality into a predicate
MARGIN_TOL = 1e-6


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

    def __post_init__(self):
        # copies, so that no later write by the caller gets past the checks
        axes, values = tuple(self.axes), tuple(np.array(v, dtype=float) for v in self.values)
        if not axes or len(axes) != len(values):
            raise ConfigurationError("grid needs matching axis names and value lists")
        if len(set(axes)) != len(axes):
            raise ConfigurationError(f"grid axis names repeat: {axes}")
        for name, v in zip(axes, values):
            if v.ndim != 1 or len(v) == 0:
                raise ConfigurationError(f"grid axis {name!r} is empty")
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"grid axis {name!r} values must be finite")
            if np.any(np.diff(v) <= 0):
                raise ConfigurationError(f"grid axis {name!r} must be strictly increasing")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", tuple(map(readonly, values)))

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

    def __post_init__(self):
        flags, margins = readonly(self.flags, bool), readonly(self.margins, float)
        if flags.shape != self.grid.shape or margins.shape != self.grid.shape:
            raise ConfigurationError("mask arrays must match the grid shape")
        object.__setattr__(self, "device", int(self.device))
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "margins", margins)


# -- the certificate kernel ------------------------------------------------
# Every stage takes an inverse-entry stack: coefficient rows (num, den) of
# D_inv = num / den, one row per device entry or grid point.  Network arrays
# hold one row per stack row, or a single row that all stack rows share.

#: rows x samples per gain-curve chunk; the kernel's nine chunk buffers,
#: allocated once per call, then take at most 2.4 MB
CHUNK_ELEMENTS = 1 << 15


def _rows(x, rows):
    """The network rows of stack rows `rows`; a shared row as it is."""
    return x if len(x) == 1 else x[rows]


def _gain_margins(num, den, diag, off, pts):
    """Per row: (margin, worst sample, min_lhs) of the gain curve
    lhs = |D_inv(s) + diag| against `off`.  Rows must have passed the root
    screen, so that no pole of D_inv lies on a sample of the closed domain.
    Values are real products with the sample powers s^j, chunk by chunk in
    buffers allocated once per call.  Constant network rows reduce on
    |num + diag den|^2 / |den|^2 and take one root per row (sqrt and
    x - off are monotone).  A chunk that lies in one run of bitwise-equal
    consecutive den rows with the chunk before it keeps that chunk's
    den(s), |den(s)|^2 and, for a shared diag, diag den(s).  A one-row
    chunk recomputes them, as BLAS's matrix-vector product rounds
    differently from its matrix product.
    """
    k, n, size = max(num.shape[1], den.shape[1]), len(pts), len(num)
    powers = np.ones((k, n), dtype=complex)
    for j in range(1, k):
        powers[j] = powers[j - 1] * pts
    re, im = np.ascontiguousarray(powers.real), np.ascontiguousarray(powers.imag)
    step = max(1, min(size, CHUNK_ELEMENTS // n))
    buffers = np.empty((9, step, n))
    if size > step:  # run[r]: the run of equal consecutive den rows holding row r
        run = np.cumsum(np.r_[False, np.any(den[1:] != den[:-1], axis=1)])
    margin, min_lhs = np.empty(size), np.empty(size)
    worst = np.empty(size, dtype=int)
    for start in range(0, size, step):
        rows = slice(start, start + step)
        a, b, d, o = num[rows], den[rows], _rows(diag, rows), _rows(off, rows)
        are, aim, bre, bim, babs2, *terms = buffers[:, : len(a)]
        fresh = start == 0 or len(a) == 1 or run[start - step] != run[start + len(a) - 1]
        np.matmul(a, re[: a.shape[1]], out=are)
        np.matmul(a, im[: a.shape[1]], out=aim)
        if fresh:
            np.matmul(b, re[: b.shape[1]], out=bre)
            np.matmul(b, im[: b.shape[1]], out=bim)
            np.add(np.multiply(bre, bre, out=babs2), np.multiply(bim, bim, out=terms[0]), out=babs2)
        # are += Re d bre, aim += Re d bim, then are -= Im d bim, aim += Im d bre
        parts = [(are, np.add, d.real, bre), (aim, np.add, d.real, bim)]
        if np.iscomplexobj(d):
            parts += [(are, np.subtract, d.imag, bim), (aim, np.add, d.imag, bre)]
        for (acc, op, x, y), t in zip(parts, terms):
            if fresh or len(diag) > 1:
                np.multiply(x, y, out=t)
            op(acc, t, out=acc)
        np.add(np.multiply(are, are, out=are), np.multiply(aim, aim, out=aim), out=are)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(are, babs2, out=are)
        at = np.arange(len(a))
        if off.shape[1] == 1:
            kmin = np.argmin(are, axis=1)
            min_lhs[rows] = np.sqrt(are[at, kmin])
            margin[rows] = min_lhs[rows] - o[:, 0]
        else:
            min_lhs[rows] = np.min(np.sqrt(are, out=are), axis=1)
            kmin = np.argmin(np.subtract(are, o, out=are), axis=1)
            margin[rows] = are[at, kmin]
        worst[rows] = kmin
    return margin, worst, min_lhs


def _nonvanishing_rational(num, den, n_num, n_den, dom: ProhibitedDomain):
    """Per row: (analytic, nonvanishing), from one
    ``ProhibitedDomain.rows_with_root_in`` call over num, den, the numerator
    p = num n_den + den n_num of the diagonal D_inv + n_ii (n_ii =
    n_num / n_den from the network rows) and n_den (one row where all rows
    share it).

    analytic: D_inv and its reciprocal are analytic on the closed domain,
    as ``devices.analytic_rows`` says.  nonvanishing: the diagonal has no
    zero in the domain, whether or not the row is analytic.  A pole of n_ii
    there, such as a line resonance with rho <= sigma, fails the row too.
    A nonzero constant p passes and the zero p fails.
    """
    width = max(num.shape[1] + n_den.shape[1], den.shape[1] + n_num.shape[1]) - 1
    p = np.zeros((len(num), width))
    for rows, coeffs in ((num, n_den), (den, n_num)):
        for j in range(coeffs.shape[1]):
            p[:, j : j + rows.shape[1]] += coeffs[:, j : j + 1] * rows
    in_num, in_den, in_p, in_n_den = dom.rows_with_root_in(num, den, p, n_den)
    return ~(in_num | in_den), ~(in_p | in_n_den) & np.any(np.abs(p) > TRIM_EPS, axis=1)


def _verdicts(num, den, provider, devices, dom: ProhibitedDomain, pts):
    """The certificate stages over an inverse-entry stack, row r against
    network row devices[r] (a single device's row is shared by all rows):
    analyticity on the closed domain and the non-vanishing diagonal by one
    root-screen call (``_nonvanishing_rational``), then the gain margins of
    all analytic rows in one ``_gain_margins`` call.  Raises
    :class:`ConfigurationError` for the first sample off the closed domain,
    then the errors of ``rows``, then those of ``diagonal_rows``.

    Returns per-row arrays (margin, worst sample index, min_lhs, max_rhs,
    analytic, nonvanishing); margin and min_lhs are -inf where the row is
    not analytic, as the certificate does not apply there.
    """
    # the gain curve has no pole test: the root screen covers the samples
    outside = pts[~dom.contains(pts)]
    far = outside[dom.boundary_distance(outside) > ZERO_GUARD] if len(outside) else outside
    if len(far):
        raise ConfigurationError(f"boundary sample {far[0]} lies outside the prohibited domain")
    # diagonal entries and off-diagonal sums, one column where constant
    diag, off = provider.rows(devices, pts)
    n_num, n_den = provider.diagonal_rows(devices)
    size = len(num)
    margin, min_lhs = np.full(size, -np.inf), np.full(size, -np.inf)
    max_rhs = np.broadcast_to(np.max(off, axis=1), (size,))
    worst = np.zeros(size, dtype=int)
    analytic, nonvanishing = _nonvanishing_rational(num, den, n_num, n_den, dom)
    nonvanishing &= analytic  # a row that is not analytic gets no certificate
    live = np.flatnonzero(analytic)
    margin[live], worst[live], min_lhs[live] = _gain_margins(
        num[live], den[live], _rows(diag, live), _rows(off, live), pts
    )
    return margin, worst, min_lhs, max_rhs, analytic, nonvanishing


def _reports(entries, devices, provider, dom, samples, margin_tol) -> list[MarginReport]:
    """Margin reports of `entries` against the network rows of `devices`;
    raises for the first entry the certificate does not apply to."""
    pts = samples.points
    margin, worst, min_lhs, max_rhs, analytic, nonvan = _verdicts(
        *entry_rows(entries), provider, devices, dom, pts
    )
    bad = np.flatnonzero(~analytic)
    if bad.size:
        raise CertificateInapplicableError(f"device {devices[bad[0]]}: entry has a pole "
                                           "inside the prohibited domain or on its boundary")
    columns = (min_lhs, max_rhs, margin, pts[worst], nonvan, nonvan & (margin > margin_tol))
    return [MarginReport(i, *row) for i, *row in zip(devices, *(c.tolist() for c in columns))]


def boundary_certificate(
    entry: DeviceEntry,
    provider,
    device: int,
    dom: ProhibitedDomain,
    samples: BoundarySamples,
    margin_tol: float = MARGIN_TOL,
) -> MarginReport:
    """Boundary-sampled sufficient certificate for one device.

    Requires the device entry to be analytic on the closed prohibited domain;
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
    points whose entry is not analytic on the closed domain are infeasible
    (margin reported as -inf), never silently skipped.
    """
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
