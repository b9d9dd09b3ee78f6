"""Shared test utilities: independent oracles and samplers."""

import itertools
from fractions import Fraction

import numpy as np

from dampcert import GridTopology, LineParams, Polynomial


def det_poly(entries, N):
    """Characteristic polynomial det(diag(den) + diag(num) @ N) by Leibniz
    expansion; independent of the state-space path it cross-checks."""
    n = N.shape[0]
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            p = entries[i].response.num * N[i, j]
            if i == j:
                p = p + entries[i].response.den
            M[i][j] = p
    total = Polynomial([0.0])
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = Polynomial([-1.0 if inv % 2 else 1.0])
        for i in range(n):
            term = term * M[i][perm[i]]
        total = total + term
    return total


def kron_by_steps(Y, interior):
    """Schur complement of Y onto the nodes not in `interior`, kept in index
    order, eliminating one interior node at a time, the last listed first:
    the classic Kron step, with no refusal rule, as the reference of
    ``kron_reduce``'s block solve.  Keeps Y's dtype, so an object array of
    ``Fraction`` entries reduces exactly."""
    Y = np.asarray(Y)
    keep = [k for k in range(len(Y)) if k not in set(interior)]
    order = keep + list(interior)
    Y = Y[np.ix_(order, order)]
    while len(Y) > len(keep):
        k = len(Y) - 1
        Y = Y[:k, :k] - np.outer(Y[:k, k], Y[k, :k]) / Y[k, k]
    return Y


def laplacians_by_lines(top):
    """The class Laplacians of ``netmodel._laplacians`` built one entry at a
    time: the sorted distinct rho values, and each line's stiffness / l added
    at (a, a) for every line in order, then at (b, b), then subtracted at
    (a, b) and at (b, a), so that every entry sums in the same order."""
    idx = {n: k for k, n in enumerate(top.all_nodes)}
    rho = sorted({ln.params.rho for ln in top.lines})
    W = np.zeros((len(idx), len(idx), len(rho)))
    for p, q, sign in (("a", "a", 1.0), ("b", "b", 1.0), ("a", "b", -1.0), ("b", "a", -1.0)):
        for ln in top.lines:
            k = (idx[getattr(ln, p)], idx[getattr(ln, q)], rho.index(ln.params.rho))
            W[k] += sign * (ln.params.stiffness / ln.params.l)
    return np.array(rho), W


def exact_kron(Y, interior):
    """``kron_by_steps`` in exact rational arithmetic on the binary values
    of a real Y, as floats."""
    return kron_by_steps(np.frompyfunc(Fraction, 1, 1)(Y), interior).astype(float)


def companion_roots(C):
    """Roots of every row of an equal-degree ascending coefficient stack
    (G, n+1), n >= 1, as the sorted eigenvalues of its companion matrices,
    straight from ``np.linalg.eigvals``: the root oracle of the screen."""
    n = C.shape[1] - 1
    comp = np.zeros((len(C), n, n))
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, :, -1] -= C[:, :-1] / C[:, -1:]
    return np.sort(np.linalg.eigvals(comp), axis=1)


def interior_points(rng, dom, count):
    """Random points inside the certified region (enclosed by the finite
    boundary), uniform over the truncation box."""
    pts = []
    while len(pts) < count:
        re = rng.uniform(-dom.sigma, dom.eta2, size=4 * count)
        im = rng.uniform(0.0, dom.eta1, size=4 * count)
        s = re + 1j * im
        keep = s[dom.contains_certified(s)]
        pts.extend(keep[: count - len(pts)])
    return np.asarray(pts)


def triangle_topology():
    """Three device nodes on a triangle (1 GFM, 2 GFL)."""
    return GridTopology(
        ["gfm1", "gfl1", "gfl2"],
        ["gfm", "gfl", "gfl"],
        [],
        [
            ("gfm1", "gfl1", LineParams(l=1.0)),
            ("gfm1", "gfl2", LineParams(l=0.8)),
            ("gfl1", "gfl2", LineParams(l=1.2)),
        ],
    )


def two_gfm_topology():
    return GridTopology(
        ["g0", "g1"], ["gfm", "gfm"], [], [("g0", "g1", LineParams(l=1.0))]
    )
