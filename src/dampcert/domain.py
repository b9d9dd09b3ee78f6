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

import numpy as np

from .errors import ConfigurationError

#: points with |s| at or below this are treated as the (excluded) origin
ORIGIN_TOL = 1e-9


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
        """Approximate distance from s to the (untruncated) region boundary,
        vectorized over s.

        Used to exclude numerically borderline poles from hard verdicts.
        """
        s = np.asarray(s, dtype=complex)
        x, y = s.real, np.abs(s.imag)
        t = self.tan_gamma
        out = np.minimum.reduce([
            np.abs(x),  # imaginary axis
            np.abs(x + self.sigma),  # vertical wedge cutoff
            np.abs(y + x * t) / math.hypot(1.0, t),  # wedge ray
            np.abs(s),  # origin puncture
        ])
        return float(out) if out.ndim == 0 else out


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
    around the origin notch and out along the real axis.
    """
    t = dom.tan_gamma
    apex = complex(-dom.sigma, dom.sigma * t + dom.eps2)
    segs = [
        Segment(complex(-dom.sigma, dom.eta1), apex),
        Segment(apex, complex(0.0, dom.eps2)),
        Segment(complex(0.0, dom.eps2), complex(dom.eps1, dom.eps2)),
        Segment(complex(dom.eps1, dom.eps2), complex(dom.eps1, 0.0)),
        Segment(complex(dom.eps1, 0.0), complex(dom.eta2, 0.0)),
    ]
    for k, seg in enumerate(segs):
        if seg.length <= 0.0:
            raise ConfigurationError(f"degenerate boundary segment {k}")
    return segs


@dataclass(frozen=True)
class BoundarySamples:
    """Discretized finite boundary (upper half plane only)."""

    points: np.ndarray
    spacing: float

    def __init__(self, points, spacing):
        pts = np.asarray(points, dtype=complex)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "spacing", float(spacing))

    def __len__(self):
        return len(self.points)


def total_boundary_length(dom: ProhibitedDomain) -> float:
    return sum(seg.length for seg in boundary_segments(dom))


def discretize_boundary(dom: ProhibitedDomain, spacing: float) -> BoundarySamples:
    """Sample the finite boundary at arc-length steps <= spacing.

    Each segment is sampled at multiples of the spacing from its start,
    plus the segment endpoint, so halving the spacing yields a superset of
    the points (refinement is monotonically more pessimistic).  Duplicated
    junction points are removed.
    """
    if not spacing > 0:
        raise ConfigurationError(f"spacing must be > 0, got {spacing}")
    pts = []
    for seg in boundary_segments(dom):
        direction = (seg.end - seg.start) / seg.length
        k = 0
        while k * spacing < seg.length:
            pts.append(seg.start + direction * (k * spacing))
            k += 1
        pts.append(seg.end)
    pts = np.asarray(pts)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.abs(np.diff(pts)) > 1e-12
    return BoundarySamples(pts[keep], spacing)
