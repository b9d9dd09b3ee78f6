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
from dampcert.certify import ZERO_GUARD, _nonvanishing_rational, _rows, _verdicts
from dampcert.devices import analytic_rows, entry_rows, model_stack
from dampcert.errors import PoleAtEvaluationPointError
from helpers import triangle_topology, two_gfm_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _gain_terms(entry, row_matrix, i, s, dom):
    """(lhs, rhs) of the gain inequality at the single point s, through the
    certificate on a one-sample boundary."""
    r = boundary_certificate(entry, StaticNetwork(row_matrix), i, dom, BoundarySamples([s], 0.01))
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
    n_ii = _diagonal(provider, device)
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


def _former_gain_curves(num, den, diag, pts):
    """The former gain curve, fresh arrays in every chunk: yield (row slice,
    lhs, pole) per chunk of rows, lhs = |D_inv(s) + diag| at every sample."""
    k, n = max(num.shape[1], den.shape[1]), len(pts)
    powers = np.ones((k, n), dtype=complex)
    for j in range(1, k):
        powers[j] = powers[j - 1] * pts
    re, im = np.ascontiguousarray(powers.real), np.ascontiguousarray(powers.imag)
    top = np.max(np.abs(pts)) ** np.arange(k)
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
        babs2 = bre * bre + bim * bim
        pole = np.min(babs2, axis=1) <= (1e-12 * (np.abs(b) @ top[: b.shape[1]])) ** 2
        if pole.any():
            scale = np.abs(b[pole]) @ np.abs(powers[: b.shape[1]])
            tol = 1e-12 * np.maximum(scale, 1e-300)
            pole[pole] = np.any(babs2[pole] <= tol * tol, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            yield rows, np.sqrt((are * are + aim * aim) / babs2), pole


def _former_verdicts(num, den, provider, devices, dom, pts):
    """_verdicts with the former gain curve and its reduction loop: the
    bitwise oracle of the kernel."""
    n_num, n_den = provider.diagonal_rows(devices)
    diag, off = provider.rows(devices, pts)
    size = len(num)
    margin, min_lhs = np.full(size, -np.inf), np.full(size, -np.inf)
    max_rhs = np.broadcast_to(np.max(off, axis=1), (size,))
    worst = np.zeros(size, dtype=int)
    pole, nonvanishing = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    analytic = analytic_rows(num, den, dom)
    live = np.flatnonzero(analytic)
    for rows, lhs, p in _former_gain_curves(num[live], den[live], _rows(diag, live), pts):
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
    if is_strictly_hurwitz(p.shifted(dom.sigma)):
        return True
    r = p.roots()
    return not np.any(dom.contains(r) | (dom.boundary_distance(r) <= ZERO_GUARD))


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


class TestRootsOnlyNonvanishing:
    """The kernel's non-vanishing rule (exact roots of every row) against
    the former rule (shifted Routh test first, roots for the rest)."""

    def _assert_rules_agree(self, num, den, n_ii, dom):
        flags = _nonvanishing_rational(num, den, n_ii.num.coeffs[None], n_ii.den.coeffs[None], dom)
        ref = [
            _routh_then_roots(Polynomial(a) * n_ii.den + n_ii.num * Polynomial(b), dom)
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
                num, den, _diagonal(provider, task.device), cfg.domain
            )
            assert flags.any() and not flags.all()

    @pytest.mark.parametrize("model", [GfmParams(1.0, 1.0), GflParams(1.0, 1.0, 1.0, 1.0)])
    def test_random_rows_static_diagonal(self, model, std_domain):
        rng = np.random.default_rng(11)
        for diag in (0.1, 1.0, 5.0):
            n_ii = RationalFunction([diag], [1.0])
            flags = self._assert_rules_agree(*self._random_rows(rng, model, 200), n_ii, std_domain)
            assert flags.any() and not flags.all()

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("model", [GfmParams(1.0, 1.0), GflParams(1.0, 1.0, 1.0, 1.0)])
    def test_random_rows_dynamic_diagonal(self, model, rho, std_domain):
        # one line per device: interior-free, and no repeated line factor
        # in the diagonal, whose roots would be ill-conditioned
        rng = np.random.default_rng(12)
        for l in rng.uniform(0.2, 2.0, 2):
            top = GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "b", LineParams(l, rho))])
            n_ii = _diagonal(DynamicNetwork(top), 0)
            self._assert_rules_agree(*self._random_rows(rng, model, 100), n_ii, std_domain)


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
        top = GridTopology(
            ["a", "b"],
            ["gfm", "gfm"],
            ["c"],
            [("a", "c", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0))],
        )
        dyn = DynamicNetwork(top)
        with pytest.raises(CertificateInapplicableError):
            dyn.diagonal_rows([0])

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


def _polynomial_diagonal(top, i):
    """Device i's dynamic diagonal entry as the Polynomial product over its
    lines, in line order: the oracle of DynamicNetwork.diagonal_rows."""
    node, w0 = top.device_nodes[i], top.omega0
    num, den = Polynomial([0.0]), Polynomial([1.0])
    for p in (ln.params for ln in top.lines if node in (ln.a, ln.b)):
        term_den = Polynomial([w0 * w0 + p.rho * p.rho, 2.0 * p.rho, 1.0])
        num = num * term_den + Polynomial([p.stiffness * w0 / p.l]) * den
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
    oracles: network_row of the static matrix, and the Polynomial product
    of the dynamic diagonal."""

    ORDER = (3, 0, 2, 2, 1)

    def test_static_rows_equal_network_row(self):
        top = synth.random_topology(np.random.default_rng(3), 6, 3)
        provider = StaticNetwork.from_topology(top)
        diag, off = provider.rows(self.ORDER, None)
        assert diag.shape == off.shape == (len(self.ORDER), 1)
        for r, i in enumerate(self.ORDER):
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
                expect = _polynomial_diagonal(top, i)
                for row, poly in ((n_num[r], expect.num), (n_den[r], expect.den)):
                    k = len(poly.coeffs)
                    assert row[:k].tobytes() == poly.coeffs.tobytes()
                    assert not np.any(row[k:])
                rf = _diagonal(DynamicNetwork(top), i)
                assert rf.num.coeffs.tobytes() == expect.num.coeffs.tobytes()
                assert rf.den.coeffs.tobytes() == expect.den.coeffs.tobytes()

    @pytest.mark.parametrize("network", ["static", "dynamic"])
    @pytest.mark.parametrize("i", [2, -1])
    def test_out_of_range_device(self, network, i, std_domain):
        cfg = load_config(str(CONFIGS / "two_ibr.yaml"))
        provider = (StaticNetwork.from_topology if network == "static" else DynamicNetwork)(
            cfg.topology)
        samples = discretize_boundary(std_domain, 0.1)
        message = f"device index {i} out of range for 2 devices"
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
    else:  # 16 devices, two lines of different rho each: no repeated line
        # factor in a diagonal, whose roots would be ill-conditioned
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
    elif case.startswith("dynamic_interior"):
        provider = DynamicNetwork(GridTopology(
            top.device_nodes, top.device_roles, ["x"],
            [*top.lines, Line("gfl2", "x", LineParams(l=1.0, rho=0.5))],
        ))
        if case == "dynamic_interior_resonant":  # the diagonal fails before any row
            samples = BoundarySamples(np.append(samples.points, -0.5 + 1.0j), samples.spacing)
    else:  # a sample at the resonance -rho + j*omega0 of the damped lines
        provider = DynamicNetwork(_damped_lines(top, 0.5))
        samples = BoundarySamples(np.append(samples.points, -0.5 + 1.0j), samples.spacing)
    return entries, provider, samples


class TestCertifyAllEquivalence:
    """certify_all's single kernel call against one certificate per device."""

    @pytest.mark.parametrize(
        "case",
        ["two_ibr", "three_ibr", "three_ibr_weak", "static_interior", "dynamic", "dynamic16"],
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
            ("dynamic_interior_resonant", CertificateInapplicableError),
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
