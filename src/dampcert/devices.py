"""GFM and GFL device dynamics, plus a dynamics-agnostic custom entry.

Every device is reduced to its diagonal angle-per-power entry (a strictly
proper rational function of s) and the reciprocal power-per-angle form the
gain condition needs.

Sign convention: the published small-signal models carry explicit minus
signs on the power/angle ratios.  Composed verbatim with the closed-loop
determinant, a lone GFM device on a stiff tie of susceptance b would get
the characteristic polynomial m*s^2 + d*s - b, contradicting the swing
equation.  Entries here are therefore built with the positive sign, so the
single-device closed loop is m*s^2 + d*s + b; magnitudes (all the
certificate ever uses) are unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain import ProhibitedDomain
from .errors import ConfigurationError
from .netmodel import GFL, GFM
from .ratcalc import RationalFunction, pad_rows, rows_with_root_in


@dataclass(frozen=True)
class GfmParams:
    """Grid-forming device: virtual swing with inertia m [s], damping d [pu]."""

    m: float
    d: float

    def __post_init__(self):
        if not self.m > 0:
            raise ConfigurationError(f"GFM inertia m must be > 0, got {self.m}")
        if not self.d > 0:
            raise ConfigurationError(f"GFM damping d must be > 0, got {self.d}")


@dataclass(frozen=True)
class GflParams:
    """Grid-following device: virtual inertia H [s], damping D [pu], PLL
    gains kp/ki, voltage setpoint v0 [pu]."""

    H: float
    D: float
    kp: float
    ki: float
    v0: float = 1.0

    def __post_init__(self):
        for name in ("H", "D", "kp", "ki", "v0"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"GFL parameter {name} must be > 0")


@dataclass(frozen=True)
class CustomRational:
    """Escape hatch: directly specified angle-per-power diagonal entry."""

    entry: RationalFunction

    def __post_init__(self):
        if not self.entry.is_strictly_proper:
            raise ConfigurationError(
                "custom device entry must be strictly proper "
                "(the far-field boundary truncation relies on it)"
            )


DeviceModel = Union[GfmParams, GflParams, CustomRational]


@dataclass(frozen=True)
class DeviceEntry:
    """Diagonal device entry and its reciprocal.

    response  angle response to electrical power (strictly proper)
    inverse   power-per-angle form entering the gain condition
    """

    response: RationalFunction
    inverse: RationalFunction


def _gfm_response(m, d):
    """Swing-equation entry 1 / (s*(m*s + d)), as coefficient rows over
    parameter arrays (or scalars)."""
    return np.stack([np.ones_like(m)], -1), np.stack([np.zeros_like(m), d, m], -1)


def _gfl_response(H, D, kp, ki, v0):
    """PLL-based entry (s^2 + v0*kp*s + v0*ki) / (s*(H*s + D)*(v0*kp*s + v0*ki)),
    as coefficient rows over parameter arrays (or scalars)."""
    a, b = v0 * ki, v0 * kp
    num = np.stack([a, b, np.ones_like(a)], -1)
    den = np.stack([np.zeros_like(a), D * a, D * b + H * a, H * b], -1)
    return num, den


def _entry(num, den) -> DeviceEntry:
    resp = RationalFunction(num, den)
    return DeviceEntry(resp, resp.reciprocal())


def gfm_entry(p: GfmParams) -> DeviceEntry:
    return _entry(*_gfm_response(p.m, p.d))


def gfl_entry(p: GflParams) -> DeviceEntry:
    return _entry(*_gfl_response(p.H, p.D, p.kp, p.ki, p.v0))


def make_entry(model: DeviceModel) -> DeviceEntry:
    if isinstance(model, GfmParams):
        return gfm_entry(model)
    if isinstance(model, GflParams):
        return gfl_entry(model)
    if isinstance(model, CustomRational):
        return DeviceEntry(model.entry, model.entry.reciprocal())
    raise ConfigurationError(f"unknown device model {model!r}")


def model_stack(model, swept: dict):
    """Inverse-entry coefficient rows (num, den) of D_inv = num / den for a
    GFM/GFL model whose fields named in `swept` take the values of equal-shape
    arrays, one row per element in row-major order.  Rows are normalized as
    ``RationalFunction`` normalizes one entry; values are not range-checked."""
    names = [f.name for f in dataclasses.fields(model)]
    args = np.broadcast_arrays(*(np.asarray(swept.get(n, getattr(model, n)), float) for n in names))
    response = _gfm_response if isinstance(model, GfmParams) else _gfl_response
    num, den = response(*(a.reshape(-1) for a in args))
    num, den = num / den[:, -1:], den / den[:, -1:]
    return den / num[:, -1:], num / num[:, -1:]


def entry_rows(entries):
    """Inverse-entry coefficient rows (num, den) of D_inv = num / den for a
    list of device entries, zero-padded to a common width."""
    return (pad_rows([e.inverse.num.coeffs for e in entries]),
            pad_rows([e.inverse.den.coeffs for e in entries]))


def device_matrix(models, roles=None) -> list[DeviceEntry]:
    """Entries of the diagonal device matrix, in topology device order.

    When the topology's role tags are passed, GFM/GFL models are checked
    against them (custom devices may stand in for either role).
    """
    models = list(models)
    if not models:
        raise ConfigurationError("device list is empty")
    if roles is not None:
        if len(roles) != len(models):
            raise ConfigurationError(
                f"{len(models)} devices but {len(roles)} device nodes in topology"
            )
        for k, (model, role) in enumerate(zip(models, roles)):
            if isinstance(model, GfmParams) and role != GFM:
                raise ConfigurationError(f"device {k} is GFM but node role is {role}")
            if isinstance(model, GflParams) and role != GFL:
                raise ConfigurationError(f"device {k} is GFL but node role is {role}")
    return [make_entry(m) for m in models]


def analytic_rows(num, den, dom: ProhibitedDomain) -> np.ndarray:
    """Per row of an inverse-entry stack: True iff D_inv = num / den and its
    reciprocal are analytic inside the prohibited domain (the excluded
    origin does not count).  This includes the certificate's
    non-singularity assumption: no zero of the angle response there."""
    return ~(rows_with_root_in(num, dom.contains) | rows_with_root_in(den, dom.contains))


def check_entry_analytic(entry: DeviceEntry, dom: ProhibitedDomain) -> bool:
    """True iff both the entry and its reciprocal are analytic inside the
    prohibited domain (the excluded origin does not count)."""
    return bool(analytic_rows(*entry_rows([entry]), dom)[0])
