"""Prohibited-domain geometry: membership, finite boundary, discretization.

The prohibited region is the closed right-half plane minus the origin,
united with the left-half-plane wedge of damping ratio below xi and real
part above -sigma.  Membership is evaluated on (Re(s), |Im(s)|) so that
conjugate pole pairs are treated identically; the sampled boundary covers
only the upper half plane for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError
from .ratcalc import TRIM_EPS, readonly, roots_rows

#: points with |s| at or below this are treated as the (excluded) origin
ORIGIN_TOL = 1e-9

#: roots closer than this to the domain boundary count as inside the
#: domain (conservative treatment of borderline root locations)
ZERO_GUARD = 1e-9


@dataclass(frozen=True)
class ProhibitedDomain:
    """Pole region that closed-loop poles must avoid.

    sigma   left extent of the weak-damping wedge, 1/s
    xi      damping-ratio bound in (0, 1); the wedge half-angle gamma
            satisfies xi = cos(gamma)
    eps1    right offset of the origin notch
    eps2    upward offset of the origin notch
    eta1    truncation height of the vertical boundary segment
    eta2    truncation extent of the real-axis boundary segment
    """

    sigma: float
    xi: float
    eps1: float = 1e-3
    eps2: float = 0.1
    eta1: float = 10.0
    eta2: float = 10.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigurationError(f"sigma must be > 0, got {self.sigma}")
        if not 0.0 < self.xi < 1.0:
            raise ConfigurationError(f"xi must lie in (0, 1), got {self.xi}")
        for name in ("eps1", "eps2", "eta1", "eta2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0")
        if not self.eps1 < self.eta2:
            raise ConfigurationError("need eps1 < eta2 for a nonempty real-axis segment")
        if not self.sigma * self.tan_gamma + self.eps2 < self.eta1:
            raise ConfigurationError(
                "need sigma*tan(gamma) + eps2 < eta1 for a nonempty vertical segment"
            )

    @property
    def tan_gamma(self) -> float:
        return math.sqrt(1.0 - self.xi**2) / self.xi

    def contains(self, s) -> np.ndarray | bool:
        """Membership test, vectorized over s.

        Points with |s| <= ORIGIN_TOL count as the origin and are excluded.
        """
        s = np.asarray(s, dtype=complex)
        re = s.real
        im = np.abs(s.imag)
        not_origin = np.abs(s) > ORIGIN_TOL
        right_half = (re >= 0.0) & not_origin
        wedge = (re >= -self.sigma) & (re < 0.0) & (im >= -re * self.tan_gamma)
        out = right_half | wedge
        return bool(out) if out.ndim == 0 else out

    def contains_certified(self, s) -> np.ndarray | bool:
        """Membership in the region enclosed by the finite boundary.

        This is the prohibited region minus the origin notch carved out by
        (eps1, eps2): the sliver the boundary deliberately skips because the
        gain margin of a Laplacian-coupled system vanishes at the origin.
        The boundary-sufficiency guarantee applies to this region.
        """
        s = np.asarray(s, dtype=complex)
        re = s.real
        im = np.abs(s.imag)
        base = self.contains(s)
        above_notch = np.where(
            re >= self.eps1,
            True,
            im >= self.eps2 - np.minimum(re, 0.0) * self.tan_gamma,
        )
        out = base & above_notch
        return bool(out) if out.ndim == 0 else out

    def boundary_distance(self, s) -> np.ndarray | float:
        """Distance from s to the boundary of the (untruncated) region,
        vectorized over s.  In the upper half plane that boundary is the
        wedge edge from the excluded origin to the apex
        -sigma + j*sigma*tan(gamma), and the vertical ray above the apex.

        Used to exclude numerically borderline poles and zeros from hard
        verdicts.
        """
        s = np.asarray(s, dtype=complex)
        z = s.real + 1j * np.abs(s.imag)
        apex = complex(-self.sigma, self.sigma * self.tan_gamma)
        along = np.clip((z * apex.conjugate()).real / abs(apex) ** 2, 0.0, 1.0)
        ray = np.hypot(z.real - apex.real, np.maximum(apex.imag - z.imag, 0.0))
        out = np.minimum(np.abs(z - along * apex), ray)
        return float(out) if out.ndim == 0 else out

    def rows_with_root_in(self, *stacks) -> list:
        """The one root screen: per row of each zero-padded ascending
        coefficient stack (G, k), True iff a root lies inside the domain or
        within ZERO_GUARD of its boundary, once structural s = 0 roots (low
        coefficients at most 1e-12 times the row's largest) are stripped, as
        the excluded origin lies on the boundary.  Constant rows have no
        roots.  All rows of all stacks share one ``roots_rows`` call per
        degree; where a degree has more than two rows, it solves one row
        per run of equal consecutive rows, so its warning counts runs, not
        rows.  The certificate screens all its stacks in one call."""
        ends = list(accumulate(len(c) for c in stacks))
        width = max(c.shape[1] for c in stacks)
        C = np.zeros((ends[-1], width))
        for c, end in zip(stacks, ends):
            C[end - len(c) : end, : c.shape[1]] = c
        low = np.argmax(np.abs(C) > 1e-12 * np.max(np.abs(C), axis=1, keepdims=True), axis=1)
        for k in set(low.tolist()) - {0}:
            C[low == k, : width - k], C[low == k, width - k :] = C[low == k, k:], 0.0
        nz = np.abs(C) > TRIM_EPS
        deg = np.where(nz.any(axis=1), width - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
        # each row's roots, padded with nan, which no region test holds
        roots = np.full((len(C), width - 1), np.nan, dtype=complex)
        for d in sorted(set(deg.tolist()) - {0}):
            G, at = C[deg == d, : d + 1], slice(None)
            if len(G) > 2:  # one solve per run of equal consecutive rows
                new = np.ones(len(G), dtype=bool)
                np.any(G[1:] != G[:-1], axis=1, out=new[1:])
                G, at = G[new], np.cumsum(new) - 1
            roots[deg == d, :d] = roots_rows(G)[at]
        hit = np.any(self.contains(roots) | (self.boundary_distance(roots) <= ZERO_GUARD), axis=1)
        return [hit[end - len(c) : end] for c, end in zip(stacks, ends)]


@dataclass(frozen=True)
class Segment:
    start: complex
    end: complex

    @property
    def length(self) -> float:
        return abs(self.end - self.start)


def boundary_segments(dom: ProhibitedDomain) -> list[Segment]:
    """The five straight segments of the finite boundary, upper half plane.

    Ordered as a continuous path from the top of the vertical segment down
    around the origin notch and out along the real axis.  Each has positive
    length, by the checks of :class:`ProhibitedDomain`.
    """
    apex = complex(-dom.sigma, dom.sigma * dom.tan_gamma + dom.eps2)
    return [
        Segment(complex(-dom.sigma, dom.eta1), apex),
        Segment(apex, complex(0.0, dom.eps2)),
        Segment(complex(0.0, dom.eps2), complex(dom.eps1, dom.eps2)),
        Segment(complex(dom.eps1, dom.eps2), complex(dom.eps1, 0.0)),
        Segment(complex(dom.eps1, 0.0), complex(dom.eta2, 0.0)),
    ]


@dataclass(frozen=True)
class BoundarySamples:
    """Discretized finite boundary (upper half plane only)."""

    points: np.ndarray

    def __post_init__(self):
        # a view, not a copy: no later write can change its shape
        points = readonly(self.points, complex)
        if points.ndim != 1 or not len(points):
            raise ConfigurationError("boundary samples must be a non-empty 1-D array, "
                                     f"got shape {points.shape}")
        object.__setattr__(self, "points", points)

    def __len__(self):
        return len(self.points)


def discretize_boundary(dom: ProhibitedDomain, spacing: float) -> BoundarySamples:
    """Sample the finite boundary at arc-length steps <= spacing.

    Each segment is sampled at multiples of the spacing from its start,
    plus the segment endpoint, so halving the spacing yields a superset of
    the points (refinement is monotonically more pessimistic).  Duplicated
    junction points are removed.
    """
    if not 0 < spacing < math.inf:
        raise ConfigurationError(f"spacing must be finite and > 0, got {spacing}")
    pts = []
    for seg in boundary_segments(dom):
        direction = (seg.end - seg.start) / seg.length
        k = np.arange(math.ceil(seg.length / spacing) + 1)
        k = k[k * spacing < seg.length]
        pts += [seg.start + direction * (k * spacing), [seg.end]]
    pts = np.concatenate(pts)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.abs(np.diff(pts)) > 1e-12
    return BoundarySamples(pts[keep])
