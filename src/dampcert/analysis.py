"""Centralized validation oracle: closed-loop poles, damping ratios,
prohibited-domain screening, and linear step-response simulation.

The oracle works on the static network matrix only (the low-frequency
simplification); each diagonal device entry is realized in controllable
canonical form and the loop is closed through the constant network.
Only ``step_response`` imports ``scipy.linalg``, for ``expm``; it takes about
0.3 s to load, and the poles, certificates and sweeps need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import DeviceEntry
from .domain import ProhibitedDomain
from .errors import ConfigurationError
from .ratcalc import readonly

#: poles with |s| below this, relative to the largest |s| of the poles
#: looked at (at least 1), are structural origin poles of the Laplacian loop
ORIGIN_POLE_TOL = 1e-7

#: modal residues below this are treated as exact pole-zero cancellations
RESIDUE_TOL = 1e-9

#: states propagated together in one block of a step response
STEP_BLOCK = 1024


@dataclass(frozen=True)
class PoleReport:
    """Closed-loop poles with damping ratios and domain-membership flags."""

    poles: np.ndarray
    damping: np.ndarray
    in_domain: np.ndarray
    origin_pole_count: int

    def __post_init__(self):
        for name, dtype in (("poles", complex), ("damping", float), ("in_domain", bool)):
            object.__setattr__(self, name, readonly(getattr(self, name), dtype))
        object.__setattr__(self, "origin_pole_count", int(self.origin_pole_count))


@dataclass(frozen=True)
class StepResponse:
    """Simulated deviations after a step power disturbance."""

    time: np.ndarray
    angles: np.ndarray
    powers: np.ndarray
    disturbance_device: int
    magnitude: float
    start: float
    divergent: bool

    def __post_init__(self):
        for name in ("time", "angles", "powers"):
            object.__setattr__(self, name, readonly(getattr(self, name), float))
        for name, cast in (("disturbance_device", int), ("magnitude", float),
                           ("start", float), ("divergent", bool)):
            object.__setattr__(self, name, cast(getattr(self, name)))


def _realize(entry: DeviceEntry):
    """Controllable canonical (A, b, c) for one strictly proper entry."""
    den = entry.response.den.coeffs  # monic by construction
    num = entry.response.num.coeffs
    n = len(den) - 1
    if n < 1:
        raise ConfigurationError("device entry must be strictly proper")
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:-1]
    b = np.zeros(n)
    b[-1] = 1.0
    c = np.zeros(n)
    c[: len(num)] = num
    return A, b, c


def closed_loop_matrix(entries, N_static: np.ndarray):
    """Closed-loop state matrix plus the stacked input/output maps.

    Returns (A_cl, B, C) with angle outputs theta = C x and power inputs
    entering through B; the loop through the static network is already
    closed in A_cl.
    """
    entries = list(entries)
    N = np.asarray(N_static, dtype=float)
    if N.shape != (len(entries), len(entries)):
        raise ConfigurationError(
            f"network matrix {N.shape} does not match {len(entries)} devices"
        )
    mats = [_realize(e) for e in entries]
    n, lo = sum(len(b) for _, b, _ in mats), 0
    A, B, C = np.zeros((n, n)), np.zeros((n, len(mats))), np.zeros((len(mats), n))
    for j, (a, b, c) in enumerate(mats):  # the block diagonals of the realizations
        k = slice(lo, lo + len(b))
        A[k, k], B[k, j], C[j, k] = a, b, c
        lo = k.stop
    A_cl = A - B @ N @ C
    return A_cl, B, C


def damping_ratio(p: complex) -> float:
    """-Re(p)/|p|, the damping ratio of a pole; undefined at the origin."""
    if p == 0:
        raise ConfigurationError("damping ratio undefined for the origin pole")
    return float(np.clip(-p.real / abs(p), -1.0, 1.0))


def closed_loop_poles(entries, N_static, dom: ProhibitedDomain | None = None) -> PoleReport:
    """Eigenvalues of the closed-loop state matrix with classification.

    Modes whose maximum input-output residue is negligible (exact
    pole-zero cancellations of the diagonal realizations) are dropped from
    the report.  Structural origin poles (Laplacian zero modes) are then
    told apart against the reported poles alone, as ``screen_poles`` does;
    they are counted separately and never flagged in-domain.
    """
    A_cl, B, C = closed_loop_matrix(entries, N_static)
    w, vr = np.linalg.eig(A_cl)
    w = w.real + 1j * w.imag  # complex, with +0.0 for a zero imaginary part
    # the rows u_k of vr^-1 are the left eigenvectors with u_k v_k = 1; the residue
    # of a defective mode (one eigenvector for a repeated pole) is huge or inf
    try:
        with np.errstate(over="ignore"):
            residue = np.abs(C @ vr).max(0) * np.abs(np.linalg.solve(vr, B)).max(1)
    except np.linalg.LinAlgError:  # an exactly singular vr keeps every mode
        residue = np.full(len(w), np.inf)
    w = w[residue >= RESIDUE_TOL]
    w = w[np.lexsort((w.imag, w.real))]
    mag = np.abs(w)
    is_origin = ~_non_origin(w)
    damping = np.where(
        is_origin, 1.0, np.clip(-w.real / np.where(is_origin, 1.0, mag), -1.0, 1.0)
    )
    if dom is None:
        in_dom = np.zeros(len(w), dtype=bool)
    else:
        in_dom = np.asarray(dom.contains(w)) & ~is_origin
    return PoleReport(w, damping, in_dom, int(np.sum(is_origin)))


def screen_poles(
    report: PoleReport, dom: ProhibitedDomain, boundary_exclusion: float = 0.0
) -> bool:
    """True iff no reported pole lies inside the prohibited domain.

    Structural origin poles are exempt.  Poles closer than
    boundary_exclusion to the domain boundary are also exempt (used to keep
    hard verdicts away from numerically borderline cases).
    """
    p = report.poles
    hit = _non_origin(p) & dom.contains(p)
    if boundary_exclusion > 0.0:
        hit &= dom.boundary_distance(p) > boundary_exclusion
    return not hit.any()


def dominant_pole(report: PoleReport):
    """The non-origin pole with the largest real part, or None."""
    cands = report.poles[_non_origin(report.poles)]
    return cands[np.argmax(cands.real)] if len(cands) else None


def _non_origin(poles):
    scale = max(1.0, float(np.max(np.abs(poles), initial=0.0)))
    return np.abs(poles) > ORIGIN_POLE_TOL * scale


def check_step(magnitude, start, horizon, dt):
    """Raise :class:`ConfigurationError` naming the first step setting out
    of range: dt and horizon finite and > 0, 0 <= start < horizon, and a
    finite magnitude."""
    for name, v in (("dt", dt), ("horizon", horizon)):
        if not 0 < v < math.inf:
            raise ConfigurationError(f"step {name} must be finite and > 0, got {v}")
    if not 0 <= start < horizon:
        raise ConfigurationError(f"step start must satisfy 0 <= start < horizon, got {start}")
    if not math.isfinite(magnitude):
        raise ConfigurationError(f"step magnitude must be finite, got {magnitude}")


def step_response(
    entries,
    N_static,
    disturbance_device: int,
    magnitude: float,
    start: float,
    horizon: float,
    dt: float,
) -> StepResponse:
    """Closed-loop response to a step power injection at one device node.

    Fixed-step simulation using the exact zero-order-hold discretization;
    the step is capped at 0.1 / max|pole| so oscillatory modes are well
    resolved.  An unstable configuration still runs but the result is
    tagged divergent.  The input switches on at the first sample with
    t >= start; from there ``_propagate`` advances the states in blocks.
    """
    entries = list(entries)
    if not 0 <= disturbance_device < len(entries):
        raise ConfigurationError(f"disturbance device {disturbance_device} out of range")
    check_step(magnitude, start, horizon, dt)
    A_cl, B, C = closed_loop_matrix(entries, N_static)
    N = np.asarray(N_static, dtype=float)
    eigs = np.linalg.eigvals(A_cl)
    fastest = float(np.max(np.abs(eigs), initial=0.0))
    divergent = bool(np.any((eigs.real > 1e-9 * max(1.0, fastest)) & _non_origin(eigs)))
    dt_eff = min(dt, 0.1 / fastest) if fastest > 0 else dt
    nsteps = int(np.ceil(horizon / dt_eff))
    t = np.arange(nsteps + 1) * dt_eff
    n = A_cl.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A_cl * dt_eff
    aug[:n, n] = B[:, disturbance_device] * dt_eff
    import scipy.linalg
    # one step of z = [x; u] is z <- M z with M = [[Ad, bd], [0, 1]]
    M = scipy.linalg.expm(aug)
    angles = np.zeros((nsteps + 1, len(entries)))
    k0 = int(np.searchsorted(t, start))  # states up to k0 stay exactly zero
    z0 = np.zeros(n + 1)
    z0[n] = magnitude
    _propagate(M, z0, C, angles[k0:])
    powers = angles @ N.T
    return StepResponse(t, angles, powers, disturbance_device, magnitude, start, divergent)


def _propagate(M, z0, C, out):
    """out[j] = C x_j for z_j = [x_j; u] = M^j z0, in blocks of ``STEP_BLOCK``.

    A block's first row is z0 or the step after the previous block's last
    state; Z[h:2h] = Z[:h] (M^h)^T for h = 1, 2, 4, ... fills the rest, with
    the powers M^h squared once per call.
    """
    n = C.shape[1]
    L = min(STEP_BLOCK, len(out))
    powers = [(1, M.T)]  # (h, (M^h)^T)
    while 2 * powers[-1][0] < L:
        h, P = powers[-1]
        powers.append((2 * h, P @ P))
    Z = np.empty((L, n + 1))
    Z[0] = z0
    for lo in range(0, len(out), L):
        m = min(L, len(out) - lo)
        for h, P in powers:
            if h < m:
                np.matmul(Z[: min(h, m - h)], P, out=Z[h : min(2 * h, m)])
        np.matmul(Z[:m, :n], C.T, out=out[lo : lo + m])
        Z[0] = Z[m - 1] @ M.T


def settling_metrics(time, y, band: float, start: float = 0.0):
    """Settling time into a +/-band absolute band and oscillation cycles.

    The final value is taken from the tail of the record; cycles are half
    the number of sign changes of (y - final) between the disturbance start
    and the settling instant.  Returns (settling_time, cycles); the
    settling time is NaN when the record never stays inside the band.
    """
    time = np.asarray(time, dtype=float)
    y = np.asarray(y, dtype=float)
    tail = max(2, len(y) // 50)
    final = float(np.mean(y[-tail:]))
    dev = y - final
    outside = np.abs(dev) > band
    if outside[-1]:
        return float("nan"), _count_cycles(dev[time >= start])
    last_out = np.nonzero(outside)[0]
    k_settle = (last_out[-1] + 1) if len(last_out) else 0
    t_settle = time[k_settle] if k_settle < len(time) else time[-1]
    mask = (time >= start) & (time <= t_settle)
    return float(t_settle), _count_cycles(dev[mask])


def _count_cycles(dev):
    signs = np.sign(dev[np.abs(dev) > 0])
    if len(signs) < 2:
        return 0.0
    changes = int(np.sum(signs[1:] != signs[:-1]))
    return changes / 2.0
