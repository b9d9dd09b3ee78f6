from pathlib import Path

import numpy as np
import pytest

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
    reduced_network,
    sweep_all,
    synth,
)
from dampcert.certify import ZERO_GUARD
from dampcert.errors import PoleAtEvaluationPointError
from helpers import triangle_topology, two_gfm_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _gain_terms(entry, row_matrix, i, s, dom):
    """(lhs, rhs) of the gain inequality at the single point s, through the
    certificate on a one-sample boundary."""
    r = boundary_certificate(entry, StaticNetwork(row_matrix), i, dom, BoundarySamples([s], 0.01))
    return r.min_lhs, r.max_rhs


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


def _oracle_point(entry, provider, device, dom, samples, tol):
    """(flag, margin) of one grid point without the batched kernel: roots of
    the entry for analyticity, per-sample RationalFunction calls for the
    margin, and the zeros of the diagonal numerator for non-vanishing."""
    for poly in (entry.response.num, entry.response.den):
        if poly.degree >= 1 and np.any(dom.contains(poly.roots())):
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
    n_ii = provider.diagonal_ratfun(device)
    p = entry.inverse.num * n_ii.den + n_ii.num * entry.inverse.den
    zeros = p.roots() if p.degree >= 1 else np.empty(0)
    bad = [z for z in zeros if dom.contains(z) or dom.boundary_distance(z) <= ZERO_GUARD]
    return not bad and not p.is_zero, margin


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

    def test_pole_on_a_sample_is_infeasible(self, std_domain):
        # the inverse entry has a pole at s = -a, and -2 is added as a sample
        samples = discretize_boundary(std_domain, 0.05)
        samples = BoundarySamples(np.append(samples.points, -2.0), samples.spacing)

        def zero_at_a(point):
            den = np.polynomial.polynomial.polyfromroots([-5.0, -6.0, -7.0])
            return make_entry(CustomRational(RationalFunction([point["a"], 1.0], den)))

        grid = ParameterGrid(["a"], [[1.0, 2.0, 3.0]])
        provider = StaticNetwork.from_topology(two_gfm_topology())
        mask = _assert_matches_oracle(zero_at_a, grid, provider, 0, std_domain, samples)
        assert np.array_equal(np.isinf(mask.margins), [False, True, False])

    def test_dynamic_network_grid(self, std_domain):
        # off the real axis, where the dynamic diagonal entry is complex
        samples = discretize_boundary(std_domain, 0.1)
        samples = BoundarySamples(samples.points[samples.points.imag > 0.5], samples.spacing)
        top = GridTopology(["a", "b"], ["gfm", "gfl"], [], [("a", "b", LineParams(l=0.8, rho=0.5))])
        grid = ParameterGrid(["H", "D"], [np.linspace(0.5, 10, 4), np.linspace(0.2, 8, 4)])
        make = GridEntryFactory(GflParams(1.0, 1.0, 4.0, 40.0))
        mask = _assert_matches_oracle(make, grid, DynamicNetwork(top), 1, std_domain, samples)
        assert mask.flags.any() and not mask.flags.all()


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
        assert d1[0] == pytest.approx(np.broadcast_to(d2, pts.shape)[0])
        assert o1[0] == pytest.approx(np.broadcast_to(o2, pts.shape)[0])

    def test_diagonal_ratfun_matches_pointwise(self):
        top = self._interiorless()
        dyn = DynamicNetwork(top)
        rf = dyn.diagonal_ratfun(0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 2), rng.uniform(0.1, 5))
            N = reduced_network(top, s)
            assert rf(s) == pytest.approx(N[0, 0], rel=1e-10)

    def test_interior_nodes_unsupported_for_ratfun(self):
        top = GridTopology(
            ["a", "b"],
            ["gfm", "gfm"],
            ["c"],
            [("a", "c", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0))],
        )
        dyn = DynamicNetwork(top)
        with pytest.raises(CertificateInapplicableError):
            dyn.diagonal_ratfun(0)

    def test_certificate_runs_dynamic(self, std_domain):
        samples = discretize_boundary(std_domain, 0.1)
        top = self._interiorless()
        dyn = DynamicNetwork(top)
        entries = device_matrix([GfmParams(0.5, 8), GfmParams(0.5, 8)])
        reports = certify_all(entries, dyn, std_domain, samples)
        assert len(reports) == 2


class TestStaticNetworkValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticNetwork(np.zeros((2, 3)))

    def test_triangle_values(self):
        provider = StaticNetwork.from_topology(triangle_topology())
        np.testing.assert_allclose(
            provider.matrix,
            [[2.25, -1, -1.25], [-1, 1.8333333333, -0.8333333333], [-1.25, -0.8333333333, 2.0833333333]],
            rtol=1e-9,
        )


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
    else:  # dynamic rows: per-device diagonal entries of different degrees
        top = _damped_lines(synth.random_topology(rng, 6, 0), 0.5)
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
    # poles at +/- 1 (inside the domain); inverse pole at -2 (outside it)
    unstable = make_entry(CustomRational(RationalFunction([1.0], [-1.0, 0.0, 1.0])))
    den = np.polynomial.polynomial.polyfromroots([-5.0, -6.0, -7.0])
    zero_at_2 = make_entry(CustomRational(RationalFunction([2.0, 1.0], den)))
    # device 2 fails as well where a later device fails: the error must
    # name the first failing device, as the per-device loop does
    if case == "first_not_analytic":
        entries[0] = unstable
    elif case == "later_not_analytic":
        entries[1] = entries[2] = unstable
    elif case == "later_pole_on_sample":
        entries[1], entries[2] = zero_at_2, unstable
        samples = BoundarySamples(np.append(samples.points, -2.0), samples.spacing)
    elif case == "dynamic_interior":
        provider = DynamicNetwork(GridTopology(
            top.device_nodes, top.device_roles, ["x"],
            [*top.lines, Line("gfl2", "x", LineParams(l=1.0, rho=0.5))],
        ))
    else:  # a sample at the resonance -rho + j*omega0 of the damped lines
        provider = DynamicNetwork(_damped_lines(top, 0.5))
        samples = BoundarySamples(np.append(samples.points, -0.5 + 1.0j), samples.spacing)
    return entries, provider, samples


class TestCertifyAllEquivalence:
    """certify_all's single kernel call against one certificate per device."""

    @pytest.mark.parametrize(
        "case", ["two_ibr", "three_ibr", "three_ibr_weak", "static_interior", "dynamic"]
    )
    def test_reports_match(self, case, std_domain):
        entries, provider, dom, samples = _system(case, std_domain)
        got = certify_all(entries, provider, dom, samples)
        expect = _reference_reports(entries, provider, dom, samples)
        assert len(got) == len(expect) == provider.n_devices
        for a, b in zip(got, expect):
            assert (a.device, a.passed, a.nonvanishing, a.worst_point) == (
                b.device, b.passed, b.nonvanishing, b.worst_point)
            for field in ("margin", "min_lhs", "max_rhs"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "case, error",
        [
            ("first_not_analytic", CertificateInapplicableError),
            ("later_not_analytic", CertificateInapplicableError),
            ("later_pole_on_sample", CertificateInapplicableError),
            ("dynamic_interior", CertificateInapplicableError),
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
