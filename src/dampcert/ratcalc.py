"""Real-coefficient polynomial and rational-function calculus.

Coefficients are stored in ascending degree order (``coeffs[k]`` multiplies
``s**k``) and trimmed to canonical form on construction.  All values are
immutable after construction, and every operation here is a pure function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateInputError, PoleAtEvaluationPointError

#: absolute threshold below which a trailing coefficient is trimmed
TRIM_EPS = 1e-12

#: relative root residual above which ``roots`` emits a warning
ROOT_RESIDUAL_TOL = 1e-6

#: s is a pole where |den(s)| is at most this times the size its terms
#: would have without cancellation
POLE_REL_TOL = 1e-12


def readonly(x, dtype=None) -> np.ndarray:
    """A read-only view of ``np.asarray(x, dtype)``; `x` itself stays writable."""
    view = np.asarray(x, dtype=dtype).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in the Laplace variable, ascending coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1:
            raise DegenerateInputError("coefficients must be one-dimensional")
        nz = np.flatnonzero(np.abs(c) > TRIM_EPS)
        c = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)
        object.__setattr__(self, "coeffs", readonly(c))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        """Evaluate at a complex point (or array of points) via Horner."""
        return npoly.polyval(s, self.coeffs)

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial([float(other)])
        return Polynomial(npoly.polyadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(npoly.polymul(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def roots(self) -> np.ndarray:
        """All roots (with multiplicity) as companion-matrix eigenvalues.

        Raises :class:`DegenerateInputError` for constant or zero inputs.
        Emits a warning when the scaled residual max|p(r)| / ||coeffs||_inf
        exceeds ``ROOT_RESIDUAL_TOL``.
        """
        if self.degree < 1:
            raise DegenerateInputError("root finding needs degree >= 1")
        return roots_rows(self.coeffs[None])[0]

    def shifted(self, sigma: float) -> "Polynomial":
        """Return q with q(w) = p(w - sigma), as one product with the matrix
        T[i, j] = binom(i, j) (-sigma)^(i - j) (von zur Gathen & Gerhard,
        "Fast algorithms for Taylor shifts", 1997).

        Zeros of p with Re(s) > -sigma map to zeros of q with Re(w) > 0.
        """
        k = len(self.coeffs)
        T = np.zeros((k, k))
        T[0, 0] = 1.0
        for i in range(1, k):
            T[i, 1:] = T[i - 1, :-1]
            T[i] -= sigma * T[i - 1]
        return Polynomial(self.coeffs @ T)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


# -- coefficient stacks: one ascending row per polynomial, shape (G, k) -----


def pad_rows(coeffs):
    """A list of coefficient arrays as rows, zero-padded to a common width
    (1 for an empty list)."""
    out = np.zeros((len(coeffs), max((len(c) for c in coeffs), default=1)))
    for k, c in enumerate(coeffs):
        out[k, : len(c)] = c
    return out


def roots_rows(C) -> np.ndarray:
    """Sorted roots of every row of an equal-degree stack (G, n+1), n >= 1:
    -c0 / c1 at degree 1, the eigenvalues of the stacked companion matrices
    above it; warns once when some row's scaled residual exceeds
    ``ROOT_RESIDUAL_TOL``.  A degree-1 root is the exact one rounded once,
    so only a non-finite one warns, with residual inf."""
    n = C.shape[1] - 1
    if n == 1:
        r = -C[:, :1] / C[:, 1:]
        resid = np.where(np.isfinite(r[:, 0]), 0.0, np.inf)
    else:
        comp = np.zeros((len(C), n, n))
        comp.reshape(len(C), n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
        comp[:, :, -1] -= C[:, :-1] / C[:, -1:]
        r = np.linalg.eigvals(comp)
        r.sort(axis=1)
        val = C[:, -1:] * r + C[:, -2:-1]
        for k in range(n - 2, -1, -1):
            val *= r
            val += C[:, k : k + 1]
        resid = np.abs(val).max(axis=1) / np.abs(C).max(axis=1)
    bad = resid > ROOT_RESIDUAL_TOL
    if bad.any():
        warnings.warn(
            f"poorly conditioned roots: {bad.sum()} of {len(C)} rows, "
            f"worst scaled residual {resid.max():.3e}",
            RuntimeWarning,
            3,
        )
    return r


# -- Routh-Hurwitz ----------------------------------------------------------

HURWITZ = "hurwitz"
NOT_HURWITZ = "not_hurwitz"
MARGINAL = "marginal"


def _routh_pass(desc, sign):
    """Routh first column of each descending row, with sign * 1e-9 * scale
    substituted for vanishing pivots.  Returns per row (no sign change,
    full zero row seen, pivot substituted)."""
    scale = np.max(np.abs(desc), axis=1)
    zero_tol = 1e-10 * scale
    n = desc.shape[1] - 1
    prev = desc[:, 0::2].copy()
    curr = np.zeros_like(prev)
    curr[:, : n - n // 2] = desc[:, 1::2]
    no_change = np.ones(len(desc), dtype=bool)
    zero_row = np.zeros(len(desc), dtype=bool)
    substituted = np.zeros(len(desc), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(n):
            # a full zero row: symmetric root constellation (axis or +/- pairs)
            zero_row |= np.max(np.abs(curr), axis=1) <= zero_tol
            small = np.abs(curr[:, 0]) <= zero_tol
            substituted |= small
            curr[:, 0] = np.where(small, sign * 1e-9 * scale, curr[:, 0])
            no_change &= curr[:, 0] > 0.0
            nxt = np.zeros_like(curr)
            nxt[:, :-1] = (curr[:, :1] * prev[:, 1:] - prev[:, :1] * curr[:, 1:]) / curr[:, :1]
            prev, curr = curr, nxt
    return no_change, zero_row, substituted


def hurwitz_rows(C) -> np.ndarray:
    """Routh classification of every row of an ascending coefficient stack
    (G, n+1) of degree n >= 1; see ``hurwitz_classification``.  Rows whose
    first pass substituted a pivot get a second pass with the other sign."""
    desc = np.where(C[:, -1:] < 0, -C, C)[:, ::-1]
    out = np.full(len(desc), NOT_HURWITZ, dtype=object)
    # necessary condition: strict Hurwitz requires all coefficients > 0
    live = np.flatnonzero(np.all(desc > 0.0, axis=1))
    if live.size:
        plus, zero, substituted = _routh_pass(desc[live], 1.0)
        minus = plus.copy()
        if substituted.any():
            minus[substituted], zero_minus, _ = _routh_pass(desc[live[substituted]], -1.0)
            zero[substituted] |= zero_minus
        out[live[~zero & plus & minus]] = HURWITZ
        out[live[~zero & (plus != minus)]] = MARGINAL
    return out


def hurwitz_classification(p: Polynomial) -> str:
    """Classify a polynomial via the Routh array.

    Returns ``"hurwitz"`` when all zeros satisfy Re < 0, ``"not_hurwitz"``
    when some zero has Re >= 0, and ``"marginal"`` when the epsilon rule for
    vanishing pivots cannot decide (the substitutions of both signs
    disagree).  A full zero row, which marks roots placed symmetrically
    about the origin (on the imaginary axis, say), gives the conservative
    ``"not_hurwitz"``.  Callers wanting a conservative boolean should treat
    ``"marginal"`` as failure.
    """
    if p.degree < 1:
        raise DegenerateInputError("Hurwitz test needs degree >= 1")
    return hurwitz_rows(p.coeffs[None])[0]


def is_strictly_hurwitz(p: Polynomial) -> bool:
    """True iff every zero of p has Re < 0 (marginal counts as False)."""
    return hurwitz_classification(p) == HURWITZ


# -- rational functions -----------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two real polynomials, denominator normalized to monic."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        num = self.num if isinstance(self.num, Polynomial) else Polynomial(self.num)
        den = self.den if isinstance(self.den, Polynomial) else Polynomial(self.den)
        if den.is_zero:
            raise DegenerateInputError("denominator must be nonzero")
        lead = den.coeffs[-1]
        object.__setattr__(self, "num", Polynomial(num.coeffs / lead))
        object.__setattr__(self, "den", Polynomial(den.coeffs / lead))

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    def reciprocal(self) -> "RationalFunction":
        if self.num.is_zero:
            raise DegenerateInputError("cannot invert the zero function")
        return RationalFunction(self.den, self.num)

    def __call__(self, s):
        """Evaluate at a complex scalar; raises near poles.

        The pole test is scale-aware: |den(s)| is compared against the
        magnitude the denominator terms would have without cancellation.
        """
        dv = self.den(s)
        scale = npoly.polyval(abs(s), np.abs(self.den.coeffs))
        if abs(dv) <= POLE_REL_TOL * max(scale, 1e-300):
            raise PoleAtEvaluationPointError(s)
        return self.num(s) / dv

    def __repr__(self):
        return f"RationalFunction({list(self.num.coeffs)}, {list(self.den.coeffs)})"
