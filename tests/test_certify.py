import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from dampcert import (
    BoundarySamples,
    CertificateInapplicableError,
    ConfigurationError,
    CustomRational,
    DampcertError,
    DynamicNetwork,
    GflParams,
    GfmParams,
    GridEntryFactory,
    GridTopology,
    Line,
    LineParams,
    LineResonanceError,
    ParameterGrid,
    Polynomial,
    RationalFunction,
    StaticNetwork,
    SweepTask,
    boundary_certificate,
    certify_all,
    device_matrix,
    discretize_boundary,
    feasible_region,
    gfm_entry,
    is_strictly_hurwitz,
    load_config,
    make_entry,
    network_row,
    reduced_network,
    sweep_all,
    synth,
)
from dampcert import certify
from dampcert.certify import _nonvanishing_rational, _rows, _verdicts
from dampcert.devices import analytic_rows, entry_rows, model_stack
from dampcert.domain import ZERO_GUARD
from dampcert.errors import PoleAtEvaluationPointError
from dampcert.ratcalc import TRIM_EPS
from helpers import companion_roots, triangle_topology, two_gfm_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _gain_terms(entry, row_matrix, i, s, dom):
    """(lhs, rhs) of the gain inequality at the single point s, through the
    certificate on a one-sample boundary."""
    r = boundary_certificate(entry, StaticNetwork(row_matrix), i, dom, BoundarySamples([s]))
    return r.min_lhs, r.max_rhs


def _diagonal(provider, i):
    """Device i's rational diagonal entry, from the one-device stack."""
    return RationalFunction(*(r[0] for r in provider.diagonal_rows([i])))


def _half_plane(entry, n_ii, sigma):
    """The shifted Routh test alone: D_inv(s) + n_ii has no zero with
    Re > -sigma."""
    return is_strictly_hurwitz((entry.inverse.num + entry.inverse.den * n_ii).shifted(sigma))


class TestLocalGainTerms:
    def test_hand_evaluation(self, std_domain):
        # D_inv(s) = s(ms + d) for the swing model; at s = 0.001 + 0.1j with
        # m = 1, d = 5 and unit row this is |s^2 + 5s + 1| vs 1
        e = gfm_entry(GfmParams(m=1, d=5))
        s = 0.001 + 0.1j
        lhs, rhs = _gain_terms(e, np.array([[1.0, -1.0], [-1.0, 1.0]]), 0, s, std_domain)
        expect = abs(s * s + 5 * s + 1)
        assert lhs == pytest.approx(expect, rel=1e-12)
        assert rhs == 1.0

    def test_dominance_implies_nonsingular(self, std_domain, std_samples):
        # whenever every device's inequality holds at a point, the matrix
        # diag(D_inv) + N is strictly diagonally dominant, hence invertible
        rng = np.random.default_rng(5)
        top = triangle_topology()
        provider = StaticNetwork.from_topology(top)
        N = provider.matrix
        models = [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
        entries = device_matrix(models)
        pts = rng.choice(std_samples.points, size=50, replace=False)
        for s in pts:
            rows = [_gain_terms(e, N, i, s, std_domain) for i, e in enumerate(entries)]
            if not all(lhs > rhs for lhs, rhs in rows):
                continue
            M = np.diag([e.inverse(s) for e in entries]) + N
            smin = np.min(np.linalg.svd(M, compute_uv=False))
            assert smin > 0.0


class TestNonvanishing:
    def test_half_plane_pass(self):
        # s^2 + s + 2 has zeros at Re = -0.5 < -0.35
        assert _half_plane(gfm_entry(GfmParams(1, 1)), 2.0, 0.35)

    def test_half_plane_conservative_failure(self):
        # s^2 + 5s + 1 has a real zero at -0.209 inside {Re > -0.35}: the
        # pure half-plane test rejects even though the zero is outside the
        # damping wedge
        assert not _half_plane(gfm_entry(GfmParams(1, 5)), 1.0, 0.35)

    def test_certificate_uses_exact_fallback(self, std_domain, std_samples):
        # same device: the full certificate locates the zero exactly, finds
        # it outside the wedge, and passes
        top = two_gfm_topology()
        provider = StaticNetwork.from_topology(top)
        entries = device_matrix([GfmParams(1, 5), GfmParams(1, 5)])
        reports = certify_all(entries, provider, std_domain, std_samples)
        assert all(r.nonvanishing for r in reports)
        assert all(r.passed for r in reports)
        # D_inv = (s + 0.35)(s + 3) alone on its bus: the zero at -0.35 lies
        # on the line Re s = -sigma but below the wedge, away from the
        # domain boundary, so the diagonal does not vanish in the domain
        e = make_entry(CustomRational(RationalFunction([1.0], [1.05, 3.35, 1.0])))
        rep = boundary_certificate(e, StaticNetwork(np.array([[0.0]])), 0, std_domain, std_samples)
        assert rep.nonvanishing

    def test_rejects_wedge_zero(self, std_domain):
        # diagonal zero at -0.05 +/- 1j: inside the wedge, must fail
        den = np.real(np.polynomial.polynomial.polyfromroots([-0.05 + 1j, -0.05 - 1j]))
        e = make_entry(CustomRational(RationalFunction([1.0], den)))
        assert not _half_plane(e, 0.0, 0.35)


class TestBoundaryCertificate:
    def test_two_gfm_pass_margin(self, std_domain, std_samples):
        top = two_gfm_topology()
        provider = StaticNetwork.from_topology(top)
        entries = device_matrix([GfmParams(1, 5), GfmParams(1, 5)])
        r = boundary_certificate(entries[0], provider, 0, std_domain, std_samples)
        assert r.passed
        assert r.max_rhs == pytest.approx(1.0)
        assert r.min_lhs == pytest.approx(1.005001, abs=1e-4)
        # worst point sits on the notch corner near the real axis
        assert abs(r.worst_point - (1e-3 + 0.0j)) < 0.2

    def test_weakly_damped_fails(self, std_domain, std_samples):
        top = two_gfm_topology()
        provider = StaticNetwork.from_topology(top)
        entries = device_matrix([GfmParams(20, 0.1), GfmParams(20, 0.1)])
        reports = certify_all(entries, provider, std_domain, std_samples)
        assert not all(r.passed for r in reports)

    def test_margin_is_min_lhs_minus_rhs_static(self, std_domain, std_samples):
        # with a constant network row the margin decomposes exactly
        top = two_gfm_topology()
        provider = StaticNetwork.from_topology(top)
        e = device_matrix([GfmParams(0.5, 8), GfmParams(0.5, 8)])[0]
        r = boundary_certificate(e, provider, 0, std_domain, std_samples)
        assert r.margin == pytest.approx(r.min_lhs - r.max_rhs, rel=1e-12)

    def test_entry_count_mismatch(self, std_domain, std_samples):
        provider = StaticNetwork.from_topology(two_gfm_topology())
        with pytest.raises(ConfigurationError):
            certify_all([gfm_entry(GfmParams(1, 5))], provider, std_domain, std_samples)

    def test_pole_in_domain_inapplicable(self, std_domain, std_samples):
        # entry with a pole at +1: certificate is not applicable, not "failed"
        bad = make_entry(CustomRational(RationalFunction([1.0], [-1.0, 0.0, 1.0])))
        provider = StaticNetwork(np.array([[1.0]]))
        with pytest.raises(CertificateInapplicableError):
            boundary_certificate(bad, provider, 0, std_domain, std_samples)

    def test_finer_spacing_more_pessimistic(self, std_domain):
        # nested refinement: the reported margin never increases
        top = triangle_topology()
        provider = StaticNetwork.from_topology(top)
        entries = device_matrix(
            [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
        )
        coarse = discretize_boundary(std_domain, 0.08)
        fine = discretize_boundary(std_domain, 0.04)
        for i, e in enumerate(entries):
            rc = boundary_certificate(e, provider, i, std_domain, coarse)
            rf = boundary_certificate(e, provider, i, std_domain, fine)
            assert rf.margin <= rc.margin + 1e-12

    def test_accepted_config_has_no_domain_poles(self, std_domain, std_samples):
        # soundness spot check against the centralized eigenvalue oracle
        from dampcert import closed_loop_poles, screen_poles

        top = triangle_topology()
        provider = StaticNetwork.from_topology(top)
        entries = device_matrix(
            [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
        )
        reports = certify_all(entries, provider, std_domain, std_samples)
        assert all(r.passed for r in reports)
        rep = closed_loop_poles(entries, provider.matrix, std_domain)
        assert screen_poles(rep, std_domain, boundary_exclusion=1e-6)
        assert not rep.in_domain.any()


class TestParameterGrid:
    def test_row_major_order(self):
        g = ParameterGrid(["m", "d"], [[1.0, 2.0], [10.0, 20.0, 30.0]])
        pts = list(g.points())
        assert g.shape == (2, 3)
        assert pts[0] == ((0, 0), {"m": 1.0, "d": 10.0})
        assert pts[1] == ((0, 1), {"m": 1.0, "d": 20.0})
        assert pts[3] == ((1, 0), {"m": 2.0, "d": 10.0})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid([], [])
        with pytest.raises(ConfigurationError):
            ParameterGrid(["m"], [[2.0, 1.0]])  # not increasing
        with pytest.raises(ConfigurationError):
            ParameterGrid(["m"], [[]])

    def test_repeated_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="repeat"):
            ParameterGrid(["m", "m"], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("values", [[1.0, np.inf], [1.0, np.nan], [np.nan], [-np.inf, 1.0]])
    def test_non_finite_value_rejected(self, values):
        with pytest.raises(ConfigurationError, match="grid axis 'd' values must be finite"):
            ParameterGrid(["m", "d"], [[1.0, 2.0], values])


class TestFeasibleRegion:
    def test_mixed_verdicts(self, std_domain, std_samples):
        provider = StaticNetwork.from_topology(two_gfm_topology())
        grid = ParameterGrid(["m", "d"], [np.linspace(0.5, 20, 6), np.linspace(0.1, 10, 6)])
        mask = feasible_region(
            GridEntryFactory(GfmParams(1.0, 1.0)), grid, provider, 0, std_domain, std_samples
        )
        assert mask.flags.shape == (6, 6)
        assert mask.flags.any() and not mask.flags.all()
        # high damping / low inertia corner is feasible, the opposite is not
        assert mask.flags[0, -1]
        assert not mask.flags[-1, 0]
        assert np.all(np.isfinite(mask.margins))

    def test_flag_requires_positive_margin(self, std_domain, std_samples):
        provider = StaticNetwork.from_topology(two_gfm_topology())
        grid = ParameterGrid(["m", "d"], [np.linspace(0.5, 20, 5), np.linspace(0.1, 10, 5)])
        mask = feasible_region(
            GridEntryFactory(GfmParams(1.0, 1.0)), grid, provider, 0, std_domain, std_samples
        )
        assert np.all(mask.margins[mask.flags] > 1e-6)

    def test_flags_match_pointwise_certificate(self, std_domain):
        samples = discretize_boundary(std_domain, 0.05)
        provider = StaticNetwork.from_topology(two_gfm_topology())
        grid = ParameterGrid(["m", "d"], [np.linspace(0.5, 10, 4), np.linspace(0.2, 8, 4)])
        mask = feasible_region(
            GridEntryFactory(GfmParams(1.0, 1.0)), grid, provider, 0, std_domain, samples
        )
        for idx, point in grid.points():
            e = make_entry(GfmParams(**point))
            r = boundary_certificate(e, provider, 0, std_domain, samples)
            assert mask.flags[idx] == r.passed
            assert mask.margins[idx] == pytest.approx(r.margin, rel=1e-12)

    def test_nonanalytic_point_marked_infeasible(self, std_domain, std_samples):
        provider = StaticNetwork(np.array([[1.0]]))

        def factory(point):
            # poles at +/- sqrt(a): not analytic on the domain for a > 0
            return make_entry(
                CustomRational(RationalFunction([1.0], [-point["a"], 0.0, 1.0]))
            )

        grid = ParameterGrid(["a"], [[1.0, 4.0]])
        mask = feasible_region(factory, grid, provider, 0, std_domain, std_samples)
        assert not mask.flags.any()
        assert np.all(mask.margins == -np.inf)


def _guarded_root_hit(poly, dom):
    """True iff poly, with its structural s = 0 roots stripped, has a root
    inside the domain or within ZERO_GUARD of its boundary."""
    c = poly.coeffs
    poly = Polynomial(c[np.argmax(np.abs(c) > 1e-12 * np.max(np.abs(c))) :])
    if poly.degree < 1:
        return False
    r = poly.roots()
    return bool(np.any(dom.contains(r) | (dom.boundary_distance(r) <= ZERO_GUARD)))


def _oracle_point(entry, provider, device, dom, samples, tol):
    """(flag, margin) of one grid point without the batched kernel: guarded
    roots of the entry for analyticity, per-sample RationalFunction calls
    for the margin, and the zeros of the diagonal numerator and the poles
    of the network diagonal for non-vanishing."""
    if _guarded_root_hit(entry.response.num, dom) or _guarded_root_hit(entry.response.den, dom):
        return False, -np.inf
    diag, off = provider.row_series(device, samples.points)
    diag = np.broadcast_to(diag, samples.points.shape)
    off = np.broadcast_to(off, samples.points.shape)
    try:
        lhs = np.array([abs(entry.inverse(s) + d) for s, d in zip(samples.points, diag)])
    except PoleAtEvaluationPointError:
        return False, -np.inf
    margin = float(np.min(lhs - off))
    if not margin > tol:
        return False, margin
    n_ii = _diagonal(provider, device)
    p = entry.inverse.num * n_ii.den + n_ii.num * entry.inverse.den
    nonvanishing = not (_guarded_root_hit(p, dom) or _guarded_root_hit(n_ii.den, dom))
    return nonvanishing and not p.is_zero, margin


def _assert_matches_oracle(make, grid, provider, device, dom, samples, tol=1e-6):
    mask = feasible_region(make, grid, provider, device, dom, samples, tol)
    for idx, point in grid.points():
        flag, margin = _oracle_point(make(point), provider, device, dom, samples, tol)
        assert mask.flags[idx] == flag, point
        assert (mask.margins[idx] == -np.inf) == (margin == -np.inf), point
        if margin != -np.inf:
            assert mask.margins[idx] == pytest.approx(margin, rel=1e-12, abs=1e-12), point
    return mask


class TestBatchedEquivalence:
    """The batched feasible_region against per-point oracles that do not
    use the kernel."""

    @pytest.mark.parametrize("name", ["two_ibr", "three_ibr"])
    def test_shipped_grids(self, name):
        # the shipped sweeps on every fifth axis value, coarser boundary
        cfg = load_config(str(CONFIGS / f"{name}.yaml"))
        samples = discretize_boundary(cfg.domain, 0.05)
        provider = cfg.provider()
        for task in cfg.sweeps:
            grid = ParameterGrid(task.grid.axes, [v[::5] for v in task.grid.values])
            mask = _assert_matches_oracle(
                task.make_entry, grid, provider, task.device, cfg.domain, samples
            )
            assert mask.flags.any() and not mask.flags.all()

    def test_pll_gain_grid_with_nonanalytic_points(self):
        cfg = load_config(str(CONFIGS / "three_ibr.yaml"))
        samples = discretize_boundary(cfg.domain, 0.05)
        grid = ParameterGrid(["kp", "ki"], [np.linspace(0.3, 8.0, 9), np.linspace(2.5, 40.0, 9)])
        make = GridEntryFactory(cfg.models[1])
        mask = _assert_matches_oracle(make, grid, cfg.provider(), 1, cfg.domain, samples)
        assert np.isinf(mask.margins).any() and mask.flags.any()

    def test_custom_callables(self, std_domain):
        samples = discretize_boundary(std_domain, 0.05)
        provider = StaticNetwork.from_topology(two_gfm_topology())

        def poles_at_root_a(point):
            # poles at +/- sqrt(a): not analytic on the domain for a > 0
            return make_entry(CustomRational(RationalFunction([1.0], [-point["a"], 0.0, 1.0])))

        def mixed_families(point):
            # entries of different degrees share one zero-padded stack
            if point["a"] < 2.0:
                return make_entry(GfmParams(point["a"], 5.0))
            return make_entry(GflParams(point["a"], 5.0, 4.0, 40.0))

        grid = ParameterGrid(["a"], [[1.0, 4.0]])
        mask = _assert_matches_oracle(poles_at_root_a, grid, provider, 0, std_domain, samples)
        assert np.all(mask.margins == -np.inf)
        grid = ParameterGrid(["a"], [np.linspace(0.2, 20.0, 12)])
        _assert_matches_oracle(mixed_families, grid, provider, 0, std_domain, samples)

    def test_diagonal_zeros_decide_the_flag(self, std_domain):
        # D_inv = (s + a)^3 against n_ii = 1 with no coupling: every margin
        # passes and the non-vanishing test decides every flag.  The zeros
        # -a + 0.5 +/- 0.866j leave the domain for a > 0.85; for a in
        # (0.35, 0.85) the shifted diagonal has positive coefficients but is
        # not Hurwitz, and its zeros lie in the domain.
        samples = discretize_boundary(std_domain, 0.05)

        def triple_pole(point):
            a = point["a"]
            den = [a**3, 3 * a * a, 3 * a, 1.0]
            return make_entry(CustomRational(RationalFunction([1.0], den)))

        grid = ParameterGrid(["a"], [np.linspace(0.12, 1.52, 8)])
        mask = _assert_matches_oracle(
            triple_pole, grid, StaticNetwork(np.array([[1.0]])), 0, std_domain, samples
        )
        assert np.all(mask.margins > 1e-6)
        assert np.array_equal(mask.flags, grid.values[0] > 0.85)

    def test_pole_on_the_boundary_is_infeasible(self, std_domain):
        # the inverse entry has poles at the roots of the response numerator:
        # a pair 0.2 left of the vertical ray (outside), on a sample of it
        # (single and double), 1e-10 left of it, and inside the domain
        samples = discretize_boundary(std_domain, 0.05)
        ray = samples.points[40]
        assert ray.real == -std_domain.sigma

        def poles(point):
            k = int(point["k"])
            z = [ray - 0.2, ray, ray, ray - 1e-10, ray + 0.1][k]
            num = np.real(np.polynomial.polynomial.polyfromroots([z, np.conj(z)] * (1 + (k == 2))))
            den = np.polynomial.polynomial.polyfromroots([-5.0, -6.0, -7.0, -8.0, -9.0])
            return make_entry(CustomRational(RationalFunction(num, den)))

        grid = ParameterGrid(["k"], [[0.0, 1.0, 2.0, 3.0, 4.0]])
        provider = StaticNetwork.from_topology(two_gfm_topology())
        mask = _assert_matches_oracle(poles, grid, provider, 0, std_domain, samples)
        assert np.array_equal(np.isinf(mask.margins), [False, True, True, True, True])

    def test_sample_off_the_domain_is_refused(self, std_domain):
        # the inverse entry has a pole at s = -a, and -2 is added as a
        # sample: the gain curve has no pole test, so a = 2 would read
        # feasible.  The kernel refuses the sample instead, for every call.
        samples = discretize_boundary(std_domain, 0.05)
        off = BoundarySamples(np.append(samples.points, -2.0))

        def zero_at_a(point):
            den = np.polynomial.polynomial.polyfromroots([-5.0, -6.0, -7.0])
            return make_entry(CustomRational(RationalFunction([point["a"], 1.0], den)))

        grid = ParameterGrid(["a"], [[1.0, 2.0, 3.0]])
        provider = StaticNetwork.from_topology(two_gfm_topology())
        entries = [zero_at_a({"a": 2.0}), zero_at_a({"a": 3.0})]
        calls = [lambda: feasible_region(zero_at_a, grid, provider, 0, std_domain, off),
                 lambda: boundary_certificate(entries[0], provider, 0, std_domain, off),
                 lambda: certify_all(entries, provider, std_domain, off)]
        for call in calls:
            with pytest.raises(ConfigurationError,
                               match=r"^boundary sample \(-2\+0j\) lies outside the prohibited"):
                call()
        # a sample within ZERO_GUARD outside the ray counts as on it
        ray = samples.points[40]
        near = BoundarySamples(np.append(samples.points, ray - 0.5 * ZERO_GUARD))
        mask = _assert_matches_oracle(zero_at_a, grid, provider, 0, std_domain, near)
        assert np.isfinite(mask.margins).all()
        far = BoundarySamples(np.append(samples.points, ray - 2 * ZERO_GUARD))
        with pytest.raises(ConfigurationError, match="lies outside the prohibited domain"):
            feasible_region(zero_at_a, grid, provider, 0, std_domain, far)

    def test_dynamic_network_grid(self, std_domain):
        # off the real axis, where the dynamic diagonal entry is complex
        samples = discretize_boundary(std_domain, 0.1)
        samples = BoundarySamples(samples.points[samples.points.imag > 0.5])
        top = GridTopology(["a", "b"], ["gfm", "gfl"], [], [("a", "b", LineParams(l=0.8, rho=0.5))])
        grid = ParameterGrid(["H", "D"], [np.linspace(0.5, 10, 4), np.linspace(0.2, 8, 4)])
        make = GridEntryFactory(GflParams(1.0, 1.0, 4.0, 40.0))
        mask = _assert_matches_oracle(make, grid, DynamicNetwork(top), 1, std_domain, samples)
        assert mask.flags.any() and not mask.flags.all()


def _former_gain_curves(num, den, diag, pts):
    """The former gain curve, fresh arrays in every chunk: yield (row slice,
    lhs) per chunk of rows, lhs = |D_inv(s) + diag| at every sample."""
    k, n = max(num.shape[1], den.shape[1]), len(pts)
    powers = np.ones((k, n), dtype=complex)
    for j in range(1, k):
        powers[j] = powers[j - 1] * pts
    re, im = np.ascontiguousarray(powers.real), np.ascontiguousarray(powers.imag)
    step = max(1, certify.CHUNK_ELEMENTS // n)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            yield rows, np.sqrt((are * are + aim * aim) / (bre * bre + bim * bim))


def _former_verdicts(num, den, provider, devices, dom, pts):
    """_verdicts with the former gain curve and its reduction loop: the
    bitwise oracle of the kernel."""
    diag, off = provider.rows(devices, pts)
    n_num, n_den = provider.diagonal_rows(devices)
    size = len(num)
    margin, min_lhs = np.full(size, -np.inf), np.full(size, -np.inf)
    max_rhs = np.broadcast_to(np.max(off, axis=1), (size,))
    worst = np.zeros(size, dtype=int)
    nonvanishing = np.zeros(size, dtype=bool)
    analytic = analytic_rows(num, den, dom)
    live = np.flatnonzero(analytic)
    for rows, lhs in _former_gain_curves(num[live], den[live], _rows(diag, live), pts):
        idx = live[rows]
        m = lhs - _rows(off, idx)
        k = np.argmin(m, axis=1)
        worst[idx] = k
        margin[idx] = m[np.arange(len(k)), k]
        min_lhs[idx] = np.min(lhs, axis=1)
    nonvanishing[live] = _former_nonvanishing(
        num[live], den[live], _rows(n_num, live), _rows(n_den, live), dom
    )
    return margin, worst, min_lhs, max_rhs, analytic, nonvanishing


def _former_nonvanishing(num, den, n_num, n_den, dom):
    """The former non-vanishing stage: the diagonal numerator of the given
    (analytic) rows only, in a root-screen call of its own."""
    width = max(num.shape[1] + n_den.shape[1], den.shape[1] + n_num.shape[1]) - 1
    p = np.zeros((len(num), width))
    for rows, coeffs in ((num, n_den), (den, n_num)):
        for j in range(coeffs.shape[1]):
            p[:, j : j + rows.shape[1]] += coeffs[:, j : j + 1] * rows
    return ~np.logical_or(*dom.rows_with_root_in(p, n_den)) & np.any(np.abs(p) > TRIM_EPS, axis=1)


DEFAULT_CHUNK_ELEMENTS = certify.CHUNK_ELEMENTS
SHIPPED_MASKS = [("two_ibr", 0), ("two_ibr", 1), ("three_ibr", 0), ("three_ibr", 1),
                 ("three_ibr", 2)]


def _kernel_case(case):
    """(num, den, provider, devices) of one kernel case."""
    cfg = load_config(str(CONFIGS / "three_ibr.yaml"))
    if isinstance(case, tuple):  # a shipped mask
        cfg = load_config(str(CONFIGS / f"{case[0]}.yaml"))
        task = cfg.sweeps[case[1]]
        return (*task.make_entry.stack(task.grid), cfg.provider(), [task.device])
    if case == "pll_grid":  # a denominator per row, and non-analytic rows
        grid = ParameterGrid(["kp", "ki"], [np.linspace(0.3, 8.0, 40), np.linspace(2.5, 40.0, 40)])
        return (*GridEntryFactory(cfg.models[1]).stack(grid), cfg.provider(), [1])
    if case == "dynamic_grid":  # a complex diagonal that varies with the sample
        top = GridTopology(["a", "b"], ["gfm", "gfl"], [], [("a", "b", LineParams(l=0.8, rho=0.5))])
        grid = ParameterGrid(["H", "D"], [np.linspace(0.5, 10, 12), np.linspace(0.2, 8, 12)])
        make = GridEntryFactory(GflParams(1.0, 1.0, 4.0, 40.0))
        return (*make.stack(grid), DynamicNetwork(top), [1])
    if case == "custom_mixed":  # GFM and GFL rows in one zero-padded stack
        entries = [make_entry(GfmParams(a, 5.0) if a < 2.0 else GflParams(a, 5.0, 4.0, 40.0))
                   for a in np.linspace(0.2, 20.0, 40)]
        return (*entry_rows(entries), StaticNetwork.from_topology(two_gfm_topology()), [0])
    if case == "shared_den":  # one quadratic den in all 49 rows: one-row last chunks
        roots = np.polynomial.polynomial.polyfromroots
        entries = [make_entry(CustomRational(RationalFunction(roots([-2.0, -5.0]),
                                                              roots([-a, -a - 1, -3.1]))))
                   for a in np.linspace(0.6, 1.2, 49)]
        return (*entry_rows(entries), StaticNetwork(np.array([[1.2]])), [0])
    rng = np.random.default_rng(7)
    top = synth.random_topology(rng, 20, 10)
    if case == "certify_all_gfm20":  # one den for all rows, a diagonal per row
        top = GridTopology(top.device_nodes, ["gfm"] * 20, top.interior_nodes, top.lines)
    entries = device_matrix([synth.random_device_params(rng, r) for r in top.device_roles])
    return (*entry_rows(entries), StaticNetwork.from_topology(top), list(range(20)))


KERNEL_CASES = [*SHIPPED_MASKS, "pll_grid", "dynamic_grid", "custom_mixed", "shared_den",
                "certify_all20", "certify_all_gfm20"]


def _case_id(case):
    return "-".join(map(str, case)) if isinstance(case, tuple) else case


class TestGainKernel:
    """The chunk-buffer gain kernel against the former gain curve, at the
    default chunk size and at three rows per chunk with a partial last
    chunk."""

    @pytest.fixture(autouse=True, params=[None, 3], ids=["default_chunks", "three_row_chunks"])
    def chunks(self, request, monkeypatch, std_samples):
        if request.param:
            n = len(std_samples.points)
            monkeypatch.setattr(certify, "CHUNK_ELEMENTS", request.param * n + 7)

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=_case_id)
    def test_bitwise_equal_former_kernel(self, case, std_domain, std_samples):
        num, den, provider, devices = _kernel_case(case)
        args = (num, den, provider, devices, std_domain, std_samples.points)
        got, expect = _verdicts(*args), _former_verdicts(*args)
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        if case == "shared_den":
            assert np.all(den == den[0]) and den.shape[1] == 3

    @pytest.mark.parametrize("network", ["shared_row", "row_per_row", "dynamic_row"])
    def test_den_runs_bitwise_equal_former_kernel(self, network, std_domain, std_samples):
        # runs of equal consecutive den rows of lengths 1, 2, step - 1, step,
        # step + 1 and 3 step: one that starts a row after a chunk does and
        # covers the next chunk, one that stops a row short of a chunk's end,
        # and a last one that ends in a one-row last chunk.  num differs in
        # every row
        s = max(1, certify.CHUNK_ELEMENTS // len(std_samples.points))
        lengths = [1, 3 * s, s - 1, 2 * s - 1, 2, s, s + 1, 3 * s - 1]
        size = sum(lengths)
        roots = np.polynomial.polynomial.polyfromroots
        dens = [roots([-2.0 - 0.31 * r, -5.7]) / 2.9 for r in range(len(lengths))]
        den = np.repeat(dens, lengths, axis=0)
        num = np.array([roots([-a, -a - 1.0, -3.1]) for a in np.linspace(0.6, 1.2, size)])
        assert size % s == 1 and len(set(map(tuple, dens))) == len(dens)
        if network == "dynamic_row":  # a complex diagonal that varies with the sample
            lines = [("a", "b", LineParams(l=0.8, rho=0.5))]
            provider = DynamicNetwork(GridTopology(["a", "b"], ["gfm", "gfl"], [], lines))
            devices = [1]
        else:
            provider = StaticNetwork.from_topology(triangle_topology())
            devices = [0] if network == "shared_row" else [r % 3 for r in range(size)]
        args = (num, den, provider, devices, std_domain, std_samples.points)
        got, expect = _verdicts(*args), _former_verdicts(*args)
        assert got[4].all()
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("case", SHIPPED_MASKS, ids=_case_id)
    def test_masks_do_not_depend_on_chunk_rows(self, case, monkeypatch, std_samples):
        # chunks of two rows or more give the same bits; one-row chunks take
        # BLAS's matrix-vector product, which rounds differently
        cfg = load_config(str(CONFIGS / f"{case[0]}.yaml"))
        task = cfg.sweeps[case[1]]
        provider = cfg.provider()

        def mask(chunk_elements):
            if chunk_elements:
                monkeypatch.setattr(certify, "CHUNK_ELEMENTS", chunk_elements)
            return feasible_region(task.make_entry, task.grid, provider, task.device,
                                   cfg.domain, std_samples)

        got = mask(None)
        expect = mask(DEFAULT_CHUNK_ELEMENTS)
        assert np.array_equal(got.flags, expect.flags)
        assert got.margins.tobytes() == expect.margins.tobytes()
        one_row = mask(len(std_samples.points))
        assert np.array_equal(got.flags, one_row.flags)
        np.testing.assert_allclose(got.margins, one_row.margins, rtol=1e-12, atol=0)


def _routh_then_roots(p, dom):
    """The former kernel rule for one diagonal numerator: structural s = 0
    roots stripped, the shifted Routh test passes, exact roots decide the
    rest."""
    c = p.coeffs
    p = Polynomial(c[np.argmax(np.abs(c) > 1e-12 * np.max(np.abs(c))) :])
    if p.degree < 1:
        return p.degree == 0
    return is_strictly_hurwitz(p.shifted(dom.sigma)) or not _guarded_root_hit(p, dom)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


class TestRootsOnlyNonvanishing:
    """The kernel's non-vanishing rule (exact roots of every row) against
    the former rule (shifted Routh test first, roots for the rest), where
    the network diagonal has no pole in the domain; where it has one,
    every row fails."""

    def _assert_rules_agree(self, num, den, n_ii, poles, dom):
        analytic, flags = _nonvanishing_rational(num, den, n_ii.num.coeffs[None],
                                                 n_ii.den.coeffs[None], poles, dom)
        assert np.array_equal(analytic, analytic_rows(num, den, dom))
        ref = [
            _routh_then_roots(Polynomial(a) * n_ii.den + n_ii.num * Polynomial(b), dom)
            and not _guarded_root_hit(n_ii.den, dom)
            for a, b in zip(num, den)
        ]
        assert np.array_equal(flags, ref)
        return flags

    def _random_rows(self, rng, model, n):
        # the ranges of the shipped sweeps and PLL gain grid; wider GFL
        # ranges meet ill-conditioned diagonal roots on dynamic rows
        if isinstance(model, GfmParams):
            swept = {"m": _log_uniform(rng, 0.1, 20, n), "d": _log_uniform(rng, 0.1, 20, n)}
        else:
            swept = {
                "H": _log_uniform(rng, 0.1, 20, n),
                "D": _log_uniform(rng, 0.1, 20, n),
                "kp": _log_uniform(rng, 0.3, 8, n),
                "ki": _log_uniform(rng, 2.5, 40, n),
                "v0": rng.uniform(0.8, 1.2, n),
            }
        return model_stack(model, swept)

    @pytest.mark.parametrize("name", ["two_ibr", "three_ibr"])
    def test_shipped_grids(self, name):
        cfg = load_config(str(CONFIGS / f"{name}.yaml"))
        provider = cfg.provider()
        for task in cfg.sweeps:
            num, den = task.make_entry.stack(task.grid)
            flags = self._assert_rules_agree(
                num, den, _diagonal(provider, task.device), provider.poles[[task.device]],
                cfg.domain
            )
            assert flags.any() and not flags.all()

    @pytest.mark.parametrize("model", [GfmParams(1.0, 1.0), GflParams(1.0, 1.0, 1.0, 1.0)])
    def test_random_rows_static_diagonal(self, model, std_domain):
        rng = np.random.default_rng(11)
        for diag in (0.1, 1.0, 5.0):
            n_ii = RationalFunction([diag], [1.0])
            flags = self._assert_rules_agree(*self._random_rows(rng, model, 200), n_ii,
                                             np.empty((1, 0), dtype=complex), std_domain)
            assert flags.any() and not flags.all()

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("model", [GfmParams(1.0, 1.0), GflParams(1.0, 1.0, 1.0, 1.0)])
    def test_random_rows_dynamic_diagonal(self, model, rho, std_domain):
        # one line per device; at rho <= sigma its poles fail every row
        rng = np.random.default_rng(12)
        for l in rng.uniform(0.2, 2.0, 2):
            top = GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "b", LineParams(l, rho))])
            provider = DynamicNetwork(top)
            self._assert_rules_agree(*self._random_rows(rng, model, 100), _diagonal(provider, 0),
                                     provider.poles[[0]], std_domain)

    @pytest.mark.parametrize("model", [GfmParams(1.0, 1.0), GflParams(1.0, 1.0, 1.0, 1.0)])
    def test_line_resonance_in_the_domain_fails(self, model, std_domain):
        # a device with two lines of one rho: the diagonal has one line
        # factor, whose zeros -rho +/- j lie in the domain for rho <= sigma.
        # There every row fails; at rho = 0.5 the numerator alone decides,
        # as before the factors were merged.
        rng = np.random.default_rng(13)
        num, den = self._random_rows(rng, model, 200)
        for rho in (0.0, 0.2, 0.5):
            lines = [("a", "b", LineParams(0.8, rho)), ("a", "c", LineParams(1.3, rho))]
            top = GridTopology(["a", "b", "c"], ["gfm"] * 3, [], lines)
            provider = DynamicNetwork(top)
            n_num, n_den = provider.diagonal_rows([0])
            assert n_den.shape == (1, 3) and provider.poles.shape == (3, 2)
            analytic, flags = _nonvanishing_rational(num, den, n_num, n_den, provider.poles[[0]],
                                                     std_domain)
            assert np.array_equal(analytic, analytic_rows(num, den, std_domain))
            if rho < std_domain.sigma:
                assert not flags.any()
            else:
                n_ii = RationalFunction(n_num[0], n_den[0])
                ref = [_routh_then_roots(Polynomial(a) * n_ii.den + n_ii.num * Polynomial(b),
                                         std_domain) for a, b in zip(num, den)]
                assert np.array_equal(flags, ref) and flags.any()


def _former_screen(dom, C):
    """The former two-level root screen, one stack per call: the domain
    stripped the structural s = 0 roots, then ratcalc grouped the rows by
    degree, one companion-eigenvalue call per degree (every degree, so the
    oracle shares no root code with the screen)."""
    width = C.shape[1]
    low = np.argmax(np.abs(C) > 1e-12 * np.max(np.abs(C), axis=1, keepdims=True), axis=1)
    cols = np.arange(width) + low[:, None]
    C = np.where(cols < width, np.take_along_axis(C, np.minimum(cols, width - 1), 1), 0.0)
    nz = np.abs(C) > TRIM_EPS
    deg = np.where(nz.any(axis=1), width - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
    hit = np.zeros(len(C), dtype=bool)
    for d in sorted(set(deg.tolist()) - {0}):
        rows = np.flatnonzero(deg == d)
        r = companion_roots(C[rows, : d + 1])
        hit[rows] = np.any(dom.contains(r) | (dom.boundary_distance(r) <= ZERO_GUARD), axis=1)
    return hit


class TestMergedRootScreen:
    """One rows_with_root_in call over several stacks against the former
    screen on each stack alone."""

    def _assert_screens_agree(self, dom, *stacks):
        got = dom.rows_with_root_in(*stacks)
        assert len(got) == len(stacks)
        for g, stack in zip(got, stacks):
            assert g.dtype == bool and np.array_equal(g, _former_screen(dom, stack))
        return got

    @pytest.mark.parametrize("case", [*SHIPPED_MASKS, "pll_grid"], ids=_case_id)
    def test_kernel_stacks(self, case, std_domain):
        # num, den and the diagonal numerator of every row, in one call
        num, den, provider, devices = _kernel_case(case)
        n_num, n_den = provider.diagonal_rows(devices)
        p = np.array([npoly.polyadd(npoly.polymul(a, n_den[0]), npoly.polymul(b, n_num[0]))
                      for a, b in zip(num, den)])
        hits = self._assert_screens_agree(std_domain, num, den, p, n_den)
        assert any(h.any() for h in hits)

    def test_random_rows(self, std_domain):
        # structural s = 0 roots (exact zeros and low coefficients at most
        # 1e-12 of the largest), trailing coefficients at most TRIM_EPS,
        # constant and zero rows, in stacks of several widths
        rng = np.random.default_rng(17)
        stacks = []
        for width in (1, 2, 4, 7, 9):
            C = rng.choice([-1.0, 1.0], (300, width)) * rng.uniform(0.5, 2.0, (300, width))
            C *= _log_uniform(rng, 1e-2, 1e2, 300)[:, None]
            rows = np.arange(len(C))
            C[rows % 5 == 1, :2] = 0.0
            C[rows % 5 == 2, 0] = 1e-13 * np.max(np.abs(C[rows % 5 == 2]), axis=1)
            C[rows % 5 == 3, -1] = rng.uniform(-1.0, 1.0, np.sum(rows % 5 == 3)) * TRIM_EPS
            C[rows % 7 == 4, 1:] = 0.0
            C[rows % 11 == 5] = 0.0
            stacks.append(C)
        hits = self._assert_screens_agree(std_domain, *stacks)
        assert all(h.any() and not h.all() for h in hits[1:])

    def test_repeated_rows(self, std_domain):
        # runs of equal consecutive rows (lengths 1 to 4, and degree groups
        # of one and two rows), solved once per run: the flags of the
        # former screen, row by row
        rng = np.random.default_rng(19)
        stacks = []
        for width in (2, 3, 5):
            C = rng.choice([-1.0, 1.0], (60, width)) * rng.uniform(0.5, 2.0, (60, width))
            C[::9, 0] = 0.0
            stacks.append(np.repeat(C, rng.integers(1, 5, len(C)), axis=0))
        stacks.append(np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.5, 0.0, 1.0], [2.0, 1.0, 1.0]]))
        hits = self._assert_screens_agree(std_domain, *stacks)
        assert all(h.any() and not h.all() for h in hits)

    def test_repeated_ill_conditioned_row_warns(self, std_domain):
        # the warning counts the rows solved: one per run of equal rows
        wilkinson = np.polynomial.polynomial.polyfromroots(np.arange(1, 31))
        unit = np.zeros(31)
        unit[[0, -1]] = -1.0, 1.0
        C = np.array([wilkinson, wilkinson, wilkinson, unit, wilkinson])
        with pytest.warns(RuntimeWarning, match="poorly conditioned roots: 2 of 3 rows") as rec:
            got = std_domain.rows_with_root_in(C)[0]
        assert len(rec) == 1
        assert np.array_equal(got, _former_screen(std_domain, C)) and got.all()


class TestProviderPoles:
    """The provider's closed-form poles -rho +/- j omega0 of each kept class
    against the former screen of n_den, the companion eigenvalues of the
    product of the kept class factors: the same flags on every row that
    screen solved without a warning, alone and in the non-vanishing rule,
    but for rows with a pole within 1e-12 of the ZERO_GUARD distance from
    the boundary (rho = sigma + 1e-9 here).  There the companion's rounding
    decides the former flag, and the closed form, whose poles are exact,
    may differ."""

    def _topology(self, rng, rhos, omega0):
        # a random grid whose lines take every class once, then classes at random
        base = synth.random_topology(rng, int(rng.integers(2, 8)), 0, 0.5)
        picks = list(rhos) + list(rng.choice(rhos, max(0, len(base.lines) - len(rhos))))
        lines = [Line(ln.a, ln.b, LineParams(ln.params.l, float(rho)))
                 for ln, rho in zip(base.lines, rng.permutation(picks))]
        return GridTopology(base.device_nodes, base.device_roles, (), lines, omega0)

    def _unwarned(self, screen):
        """screen()'s value, or None when it warned."""
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            value = screen()
        return None if rec else value

    @pytest.mark.parametrize("classes", [1, 2, 3, 4])
    def test_equal_to_former_n_den_screen(self, classes, std_domain):
        sigma = std_domain.sigma
        rng = np.random.default_rng(40 + classes)
        rows = skipped = hits = differ = 0
        for _ in range(40):
            candidates = [0.0, sigma, sigma + 1e-9, sigma - 1e-9, 2 * sigma,
                          float(rng.uniform(0.05, 1.5))]
            rhos = rng.choice(candidates, classes, replace=False)
            omega0 = float(rng.choice([1.0, rng.uniform(0.3, 3.0)]))
            provider = DynamicNetwork(self._topology(rng, rhos, omega0))
            n = provider.n_devices
            n_num, n_den = provider.diagonal_rows(range(n))
            poles = provider.poles
            degree = [np.flatnonzero(r)[-1] for r in n_den]
            assert np.sum(~np.isnan(poles), axis=1).tolist() == degree
            num, den = model_stack(GflParams(1.0, 1.0, 4.0, 40.0), {
                "H": _log_uniform(rng, 0.1, 20, n), "D": _log_uniform(rng, 0.1, 20, n)})
            for i in range(n):
                former = self._unwarned(lambda: std_domain.rows_with_root_in(n_den[[i]])[0][0])
                if former is None:
                    skipped += 1
                    continue
                rows += 1
                in_n_den, in_poles = std_domain.rows_with_root_in(n_den[[i]], poles=poles[[i]])
                assert in_n_den.tolist() == [former]
                hits += bool(in_poles[0])
                with warnings.catch_warnings():  # both solve the same diagonal numerator
                    warnings.simplefilter("ignore")
                    expect = _former_nonvanishing(num[[i]], den[[i]], n_num[[i]], n_den[[i]],
                                                  std_domain)
                    _, got = _nonvanishing_rational(num[[i]], den[[i]], n_num[[i]], n_den[[i]],
                                                    poles[[i]], std_domain)
                if in_poles.tolist() != [former] or not np.array_equal(got, expect):
                    distance = std_domain.boundary_distance(poles[i, : degree[i]])
                    assert np.any(np.abs(distance - ZERO_GUARD) <= 1e-12), (rhos, omega0, i)
                    differ += 1
        assert rows > 100 and 0 < hits < rows and differ <= rows // 10
        assert skipped <= rows // 10

    def test_static_network_has_none(self):
        provider = StaticNetwork.from_topology(triangle_topology())
        assert provider.poles.shape == (3, 0)
        *_, poles = provider.certificate_rows([2, 0], [1.0j])
        assert poles.shape == (2, 0)

    def test_certificate_rows_equal_rows_and_diagonal_rows(self, std_samples):
        lines = [("a", "b", LineParams(0.8, 0.5)), ("b", "c", LineParams(1.3, 0.9)),
                 ("a", "c", LineParams(0.6, 0.5))]
        provider = DynamicNetwork(GridTopology(["a", "b", "c"], ["gfm"] * 3, [], lines))
        devices, pts = [2, 0, 2], std_samples.points
        got = provider.certificate_rows(devices, pts)
        expect = (*provider.rows(devices, pts), *provider.diagonal_rows(devices))
        assert len(got) == 5
        for g, e in zip(got, expect):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
        # device a has lines of class 0.5 only, device c of both classes
        assert got[4].shape == (3, 4) and np.isnan(got[4][1, 2:]).all()
        assert got[4][0].tolist() == [-0.5 + 1j, -0.5 - 1j, -0.9 + 1j, -0.9 - 1j]
        assert got[4][1, :2].tolist() == [-0.5 + 1j, -0.5 - 1j]


class TestOneScreenCall:
    """Analyticity and non-vanishing come from one rows_with_root_in call
    over num, den and the diagonal numerator, with the provider's poles in
    closed form, per certificate and per mask."""

    @pytest.mark.parametrize("network", ["static", "dynamic"])
    def test_one_call_per_verdict(self, network, monkeypatch, std_samples):
        cfg = load_config(str(CONFIGS / "three_ibr.yaml"))
        provider = cfg.provider() if network == "static" else DynamicNetwork(cfg.topology)
        screen = type(cfg.domain).rows_with_root_in
        calls = []

        def counting(dom, *stacks, poles):
            calls.append(len(stacks))
            return screen(dom, *stacks, poles=poles)

        monkeypatch.setattr(type(cfg.domain), "rows_with_root_in", counting)
        certify_all(cfg.entries, provider, cfg.domain, std_samples)
        assert calls == [3]
        boundary_certificate(cfg.entries[1], provider, 1, cfg.domain, std_samples)
        assert calls == [3, 3]
        for task in cfg.sweeps:
            feasible_region(task.make_entry, task.grid, provider, task.device, cfg.domain,
                            std_samples)
        assert calls == [3] * (2 + len(cfg.sweeps))

    def test_non_analytic_rows_screen_quietly(self, std_domain, std_samples):
        # the one call also solves the diagonal numerator of rows that are
        # not analytic, which the former stage skipped: on the PLL gain grid
        # none of them warns, and none gets a non-vanishing flag
        num, den, provider, devices = _kernel_case("pll_grid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, analytic, nonvanishing = _verdicts(num, den, provider, devices, std_domain,
                                                   std_samples.points)
        assert analytic.any() and not analytic.all()
        assert not nonvanishing[~analytic].any() and nonvanishing.any()


class TestSweep:
    def _tasks(self):
        g0 = ParameterGrid(["m", "d"], [np.linspace(0.5, 5, 4), np.linspace(0.5, 8, 4)])
        g1 = ParameterGrid(["d"], [np.linspace(0.2, 9, 7)])
        return [
            SweepTask(0, GridEntryFactory(GfmParams(1.0, 1.0)), g0),
            SweepTask(1, GridEntryFactory(GfmParams(1.0, 1.0)), g1),
        ]

    def test_task_order_invariance(self, std_domain):
        samples = discretize_boundary(std_domain, 0.05)
        provider = StaticNetwork.from_topology(two_gfm_topology())
        fwd = sweep_all(self._tasks(), provider, std_domain, samples)
        rev = sweep_all(self._tasks()[::-1], provider, std_domain, samples)
        for dev in fwd:
            assert np.array_equal(fwd[dev].margins, rev[dev].margins)


class TestDynamicNetwork:
    def _interiorless(self):
        return GridTopology(
            ["a", "b"],
            ["gfm", "gfm"],
            [],
            [("a", "b", LineParams(l=0.8, rho=0.5))],
        )

    def test_matches_static_at_dc(self):
        top = self._interiorless()
        dyn = DynamicNetwork(top)
        stat = StaticNetwork.from_topology(top)
        pts = np.array([0.0 + 0.0j])
        d1, o1 = dyn.row_series(0, pts)
        d2, o2 = stat.row_series(0, pts)
        assert d2.shape == o2.shape == (1,)  # one column wide, as rows gives it
        assert d1[0] == pytest.approx(np.broadcast_to(d2, pts.shape)[0])
        assert o1[0] == pytest.approx(np.broadcast_to(o2, pts.shape)[0])

    def test_diagonal_ratfun_matches_pointwise(self):
        top = self._interiorless()
        dyn = DynamicNetwork(top)
        rf = _diagonal(dyn, 0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 2), rng.uniform(0.1, 5))
            N = reduced_network(top, s)
            assert rf(s) == pytest.approx(N[0, 0], rel=1e-10)

    def test_interior_nodes_unsupported_for_ratfun(self):
        # c's lines have two rho values: no rational diagonal entry, and
        # the refusal is the one of rows.  With one rho value c reduces.
        lines = [("a", "c", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0, rho=0.5))]
        dyn = DynamicNetwork(GridTopology(["a", "b"], ["gfm", "gfm"], ["c"], lines))
        for call in (lambda: dyn.diagonal_rows([0]), lambda: dyn.rows([0], [1.0 + 1.0j])):
            with pytest.raises(CertificateInapplicableError, match="^interior node 'c' has lines"):
                call()
        lines[1] = ("b", "c", LineParams(l=1.0))
        top = GridTopology(["a", "b"], ["gfm", "gfm"], ["c"], lines)
        rf = _diagonal(DynamicNetwork(top), 0)
        assert rf(1.0 + 1.0j) == pytest.approx(reduced_network(top, 1.0 + 1.0j)[0, 0], rel=1e-12)

    def test_certificate_runs_dynamic(self, std_domain):
        samples = discretize_boundary(std_domain, 0.1)
        top = self._interiorless()
        dyn = DynamicNetwork(top)
        entries = device_matrix([GfmParams(0.5, 8), GfmParams(0.5, 8)])
        reports = certify_all(entries, dyn, std_domain, samples)
        assert len(reports) == 2


class TestStaticNetworkValidation:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [20, 54])
    def test_real_reduction_keeps_verdicts(self, seed, n):
        # random grids as the benchmark's validate ladder builds them: the
        # real reduction gives the verdicts of the complex one's real part
        cfg = load_config(str(CONFIGS / "three_ibr.yaml"))
        samples = discretize_boundary(cfg.domain, cfg.spacing)
        rng = np.random.default_rng((seed, n))
        top = synth.random_topology(rng, n, n // 2, 0.1)
        roles = ["gfm"] * (n // 2) + ["gfl"] * (n - n // 2)
        top = GridTopology(top.device_nodes, roles, top.interior_nodes, top.lines)
        entries = [make_entry(synth.random_device_params(rng, r)) for r in roles]
        real = StaticNetwork.from_topology(top)
        assert real.matrix.dtype == np.float64
        verdicts = [[(r.passed, r.nonvanishing) for r in
                     certify_all(entries, provider, cfg.domain, samples, cfg.margin_tol)]
                    for provider in (real, StaticNetwork(reduced_network(top, 0j).real))]
        assert verdicts[0] == verdicts[1]

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticNetwork(np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry, bad):
        matrix = np.array([[2.0, -1.0], [-1.0, 1.0]])
        matrix[entry] = bad
        with pytest.raises(ConfigurationError, match="network matrix entries must be finite"):
            StaticNetwork(matrix)

    def test_triangle_values(self):
        provider = StaticNetwork.from_topology(triangle_topology())
        np.testing.assert_allclose(
            provider.matrix,
            [[2.25, -1, -1.25], [-1, 1.8333333333, -0.8333333333], [-1.25, -0.8333333333, 2.0833333333]],
            rtol=1e-9,
        )


def _polynomial_diagonal(provider, i):
    """Device i's dynamic diagonal entry as the Polynomial sum of its class
    terms W_r[i, i] omega0 / d_r(s) over the classes present, in rho order,
    with the provider's reduced weights: the oracle of diagonal_rows."""
    w0 = provider.topology.omega0
    num, den = Polynomial([0.0]), Polynomial([1.0])
    for rho, w in zip(provider.rho, provider.W[i, i]):
        if w:
            term_den = Polynomial([w0 * w0 + rho**2, 2.0 * rho, 1.0])
            num = num * term_den + Polynomial([w * w0]) * den
            den = den * term_den
    return RationalFunction(num, den)


def _classed_topology(rng, top, rhos=None):
    """top with every line's rho drawn from `rhos` (from [0.4, 1.5] if
    None) and its stiffness from [0.5, 2]."""
    draw = (lambda: rng.uniform(0.4, 1.5)) if rhos is None else (lambda: rng.choice(rhos))
    lines = [Line(ln.a, ln.b, LineParams(ln.params.l, float(draw()), float(rng.uniform(0.5, 2.0))))
             for ln in top.lines]
    return GridTopology(top.device_nodes, top.device_roles, (), lines, top.omega0)


class TestStackedProviderCalls:
    """rows and diagonal_rows over a device list against the one-device
    oracles: network_row of the static matrix, and the Polynomial class sum
    of the dynamic diagonal (which tests/test_netmodel.py checks against
    reduced_network)."""

    ORDER = (3, 0, 2, 2, 1)

    def test_static_rows_equal_network_row(self):
        for n in (6, 20, 54):
            top = synth.random_topology(np.random.default_rng(3), n, n // 2)
            provider = StaticNetwork.from_topology(top)
            order = [*self.ORDER, *range(n - 1, -1, -1)]
            diag, off = provider.rows(order, None)
            assert diag.shape == off.shape == (len(order), 1)
            for r, i in enumerate(order):
                assert (diag[r, 0], off[r, 0]) == network_row(provider.matrix, i)

    def test_static_diagonal_rows_trim_as_polynomial(self):
        matrix = np.array([[2.0, -1.0, 0.5], [-1.0, 5e-13, 0.0], [0.5, 0.0, -3.0]])
        n_num, n_den = StaticNetwork(matrix).diagonal_rows([2, 1, 0])
        for r, i in enumerate([2, 1, 0]):
            expect = RationalFunction(Polynomial([matrix[i, i]]), Polynomial([1.0]))
            assert n_num[r].tolist() == expect.num.coeffs.tolist()
            assert n_den[r].tolist() == expect.den.coeffs.tolist()
        assert n_num[1, 0] == 0.0

    @pytest.mark.parametrize("rhos", [(0.0,), (0.5,), (0.0, 0.05, 0.5, 1.3)])
    def test_dynamic_diagonal_rows_bitwise_equal_polynomial_product(self, rhos):
        rng = np.random.default_rng(len(rhos))
        for n in (2, 6, 16):
            top = _classed_topology(rng, synth.random_topology(rng, n, 0), rhos)
            devices = list(range(n))[::-1]
            n_num, n_den = DynamicNetwork(top).diagonal_rows(devices)
            for r, i in enumerate(devices):
                expect = _polynomial_diagonal(DynamicNetwork(top), i)
                for row, poly in ((n_num[r], expect.num), (n_den[r], expect.den)):
                    k = len(poly.coeffs)
                    assert row[:k].tobytes() == poly.coeffs.tobytes()
                    assert not np.any(row[k:])
                rf = _diagonal(DynamicNetwork(top), i)
                assert rf.num.coeffs.tobytes() == expect.num.coeffs.tobytes()
                assert rf.den.coeffs.tobytes() == expect.den.coeffs.tobytes()

    @pytest.mark.parametrize("network", [StaticNetwork.from_topology, DynamicNetwork])
    def test_empty_device_list(self, network, std_samples):
        provider = network(synth.ring_topology(3, 1))
        for a in provider.diagonal_rows([]):
            assert a.shape == (0, 1)
        for a in provider.rows([], std_samples.points):
            assert len(a) == 0 and a.ndim == 2

    @pytest.mark.parametrize("network", ["static", "dynamic"])
    @pytest.mark.parametrize("i", [2, -1, 1.7])
    def test_out_of_range_device(self, network, i, std_domain):
        # a non-integral index is no device's, not the one it truncates to
        cfg = load_config(str(CONFIGS / "two_ibr.yaml"))
        provider = (StaticNetwork.from_topology if network == "static" else DynamicNetwork)(
            cfg.topology)
        samples = discretize_boundary(std_domain, 0.1)
        why = "is not an integer" if i % 1 else "out of range for 2 devices"
        message = f"device index {i} {why}"
        calls = [
            lambda: boundary_certificate(cfg.entries[0], provider, i, std_domain, samples),
            lambda: provider.diagonal_rows([i]),
            lambda: provider.row_series(i, samples.points),
            lambda: provider.rows([0, i], samples.points),
            lambda: provider.diagonal_rows([1, i]),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError) as exc:
                call()
            assert str(exc.value) == message


def _reference_reports(entries, provider, dom, samples):
    """The former certify_all: one boundary certificate per device."""
    return [boundary_certificate(e, provider, i, dom, samples) for i, e in enumerate(entries)]


def _damped_lines(top, rho):
    lines = [Line(ln.a, ln.b, LineParams(l=ln.params.l, rho=rho)) for ln in top.lines]
    return GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, lines, top.omega0)


def _system(case, dom):
    """(entries, provider, domain, samples) of one equivalence case."""
    if case in ("two_ibr", "three_ibr", "three_ibr_weak"):
        cfg = load_config(str(CONFIGS / f"{case}.yaml"))
        samples = discretize_boundary(cfg.domain, cfg.spacing)
        return cfg.entries, cfg.provider(), cfg.domain, samples
    rng = np.random.default_rng(11)
    if case == "static_interior":
        top = synth.random_topology(rng, 12, 6)
        provider = StaticNetwork.from_topology(top)
    elif case == "dynamic":  # per-device diagonal entries of different degrees
        top = _damped_lines(synth.random_topology(rng, 6, 0), 0.5)
        provider = DynamicNetwork(top)
    elif case == "dynamic_interior":  # interior nodes of the one line class
        top = _damped_lines(synth.random_topology(rng, 8, 4), 0.5)
        provider = DynamicNetwork(top)
    else:  # 16 devices, two lines of different rho each
        top = _classed_topology(rng, synth.ring_topology(16, 8))
        provider = DynamicNetwork(top)
    entries = device_matrix([synth.random_device_params(rng, r) for r in top.device_roles])
    return entries, provider, dom, discretize_boundary(dom, 0.05)


def _inapplicable(case, dom):
    """(entries, provider, samples) on which the certificate does not apply."""
    top = triangle_topology()
    entries = device_matrix(
        [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
    )
    samples = discretize_boundary(dom, 0.05)
    provider = StaticNetwork.from_topology(top)
    # poles at +/- 1 (inside the domain); inverse poles on a sample of the
    # vertical boundary ray
    unstable = make_entry(CustomRational(RationalFunction([1.0], [-1.0, 0.0, 1.0])))
    den = np.polynomial.polynomial.polyfromroots([-5.0, -6.0, -7.0])
    z = samples.points[40]
    on_ray = make_entry(CustomRational(RationalFunction([abs(z) ** 2, -2.0 * z.real, 1.0], den)))
    # device 2 fails as well where a later device fails: the error must
    # name the first failing device, as the per-device loop does
    if case == "first_not_analytic":
        entries[0] = unstable
    elif case == "later_not_analytic":
        entries[1] = entries[2] = unstable
    elif case == "later_pole_on_boundary":
        entries[1], entries[2] = on_ray, unstable
    elif case.startswith("dynamic_interior"):
        # x's lines have two rho values; where the case is "resonant", the
        # resonance -0.35 + 1j of one is a sample, and the refusal of x
        # still comes first
        rho = 0.35 if case.endswith("resonant") else 0.5
        provider = DynamicNetwork(GridTopology(
            top.device_nodes, top.device_roles, ["x"],
            [*top.lines, Line("gfl2", "x", LineParams(l=1.0, rho=rho)),
             Line("gfm1", "x", LineParams(l=2.0))],
        ))
    else:  # the sample -0.35 + 1j is the resonance -rho + j*omega0 of the lines
        provider = DynamicNetwork(_damped_lines(top, 0.35))
    return entries, provider, samples


class TestCertifyAllEquivalence:
    """certify_all's single kernel call against one certificate per device."""

    @pytest.mark.parametrize(
        "case",
        ["two_ibr", "three_ibr", "three_ibr_weak", "static_interior", "dynamic", "dynamic_interior",
         "dynamic16"],
    )
    def test_reports_match(self, case, std_domain):
        entries, provider, dom, samples = _system(case, std_domain)
        got = certify_all(entries, provider, dom, samples)
        expect = _reference_reports(entries, provider, dom, samples)
        assert len(got) == len(expect) == provider.n_devices
        for a, b in zip(got, expect):
            assert (a.device, a.passed, a.nonvanishing, a.worst_point) == (
                b.device, b.passed, b.nonvanishing, b.worst_point)
            # Python scalars, not numpy ones
            assert list(map(type, vars(a).values())) == [int, float, float, float, complex, bool,
                                                         bool]
            for field in ("margin", "min_lhs", "max_rhs"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "case, error",
        [
            ("first_not_analytic", CertificateInapplicableError),
            ("later_not_analytic", CertificateInapplicableError),
            ("later_pole_on_boundary", CertificateInapplicableError),
            ("dynamic_interior_resonant", CertificateInapplicableError),
            ("dynamic_interior_mixed", CertificateInapplicableError),
            ("resonant_sample", LineResonanceError),
        ],
    )
    def test_errors_match(self, case, error, std_domain):
        entries, provider, samples = _inapplicable(case, std_domain)
        with pytest.raises(error) as expect:
            _reference_reports(entries, provider, std_domain, samples)
        with pytest.raises(DampcertError) as got:
            certify_all(entries, provider, std_domain, samples)
        assert type(got.value) is type(expect.value)
        assert str(got.value) == str(expect.value)

    def test_mixed_interior_keeps_diagonal_refusal(self, std_domain):
        # both provider calls refuse x by name, with one message
        entries, provider, samples = _inapplicable("dynamic_interior_mixed", std_domain)
        calls = [lambda: certify_all(entries, provider, std_domain, samples),
                 lambda: provider.diagonal_rows([0, 2]), lambda: provider.rows([1], samples.points)]
        for call in calls:
            with pytest.raises(CertificateInapplicableError,
                               match="^interior node 'x' has lines of several rho values"):
                call()
