import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dampcert import (
    ConfigurationError,
    CustomRational,
    GflParams,
    GfmParams,
    RationalFunction,
    closed_loop_matrix,
    closed_loop_poles,
    damping_ratio,
    device_matrix,
    dominant_pole,
    make_entry,
    screen_poles,
    settling_metrics,
    step_response,
)
from helpers import det_poly, triangle_topology
from dampcert import StaticNetwork, load_config, static_network
from dampcert import analysis
from dampcert.analysis import ORIGIN_POLE_TOL, RESIDUE_TOL
from dampcert.synth import random_device_params, random_topology

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def well_damped_triangle():
    N = StaticNetwork.from_topology(triangle_topology()).matrix
    entries = device_matrix(
        [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
    )
    return entries, N


def weakly_damped_triangle():
    N = StaticNetwork.from_topology(triangle_topology()).matrix
    entries = device_matrix(
        [GfmParams(20, 0.1), GflParams(20, 0.1, 4, 40), GflParams(20, 0.1, 2, 20)]
    )
    return entries, N


class TestDampingRatio:
    def test_reference_pole(self):
        assert damping_ratio(-0.078 + 0.627j) == pytest.approx(0.12, abs=0.005)

    def test_real_negative(self):
        assert damping_ratio(-3.0 + 0.0j) == 1.0

    def test_right_half_plane(self):
        assert damping_ratio(1.0 + 1.0j) == pytest.approx(-1 / np.sqrt(2))

    def test_origin_rejected(self):
        with pytest.raises(ConfigurationError):
            damping_ratio(0.0)


class TestClosedLoopPoles:
    def test_single_device_quadratic(self):
        # one swing device against a unit tie: m s^2 + d s + 1 = 0
        entries = device_matrix([GfmParams(1, 1)])
        rep = closed_loop_poles(entries, np.array([[1.0]]))
        expect = np.roots([1, 1, 1])
        got = np.sort_complex(rep.poles)
        assert got == pytest.approx(np.sort_complex(expect))
        assert rep.damping == pytest.approx([0.5, 0.5])

    def test_laplacian_origin_mode(self):
        # two identical devices on a single line: the rigid-body angle mode
        # gives a structural origin pole
        entries = device_matrix([GfmParams(1, 1), GfmParams(1, 1)])
        N = np.array([[1.0, -1.0], [-1.0, 1.0]])
        rep = closed_loop_poles(entries, N)
        assert rep.origin_pole_count >= 1
        assert not rep.in_domain.any()  # dom=None
        assert np.all(rep.damping[np.abs(rep.poles) < 1e-9] == 1.0)

    def test_conjugate_closure(self):
        entries, N = well_damped_triangle()
        rep = closed_loop_poles(entries, N)
        got = np.sort_complex(rep.poles)
        assert got == pytest.approx(np.sort_complex(np.conj(rep.poles)), abs=1e-9)

    def test_state_dimension(self):
        entries, N = well_damped_triangle()
        A, B, C = closed_loop_matrix(entries, N)
        assert A.shape[0] == sum(e.response.den.degree for e in entries)
        assert B.shape == (A.shape[0], 3)
        assert C.shape == (3, A.shape[0])

    def test_matches_determinant_polynomial(self):
        entries, N = well_damped_triangle()
        rep = closed_loop_poles(entries, N)
        p = det_poly(entries, N)
        vals = p(rep.poles)
        scale = np.max(np.abs(p.coeffs)) * np.maximum(np.abs(rep.poles), 1.0) ** p.degree
        assert np.max(np.abs(vals) / scale) < 1e-6

    @pytest.mark.parametrize("source", ["two_ibr", "three_ibr", "three_ibr_weak", "random20"])
    def test_matrices_equal_scipy_block_diag(self, source):
        if source == "random20":
            rng = np.random.default_rng(20)
            topo = random_topology(rng, 20)
            entries = device_matrix([random_device_params(rng, r) for r in topo.device_roles])
            N = static_network(topo)
        else:
            cfg = load_config(str(CONFIGS / f"{source}.yaml"))
            entries, N = cfg.entries, static_network(cfg.topology)
        mats = [analysis._realize(e) for e in entries]
        A = scipy.linalg.block_diag(*(a for a, _, _ in mats))
        B = scipy.linalg.block_diag(*(b[:, None] for _, b, _ in mats))
        C = scipy.linalg.block_diag(*(c[None] for _, _, c in mats))
        got = closed_loop_matrix(entries, N)
        for x, ref in zip(got, (A - B @ N @ C, B, C)):
            assert x.dtype == ref.dtype and np.array_equal(x, ref)

    def test_shape_mismatch(self):
        entries = device_matrix([GfmParams(1, 1)])
        with pytest.raises(ConfigurationError):
            closed_loop_poles(entries, np.eye(2))

    def test_domain_flags(self, std_domain):
        entries, N = weakly_damped_triangle()
        rep = closed_loop_poles(entries, N, std_domain)
        assert rep.in_domain.any()
        flagged = rep.poles[rep.in_domain]
        assert np.all(std_domain.contains(flagged))


def _per_mode_poles(entries, N):
    """The pole filter and damping ratios of closed_loop_poles, one mode at a
    time: the residue as the largest entry of np.outer, damping_ratio per pole."""
    A_cl, B, C = closed_loop_matrix(entries, N)
    w, vl, vr = scipy.linalg.eig(A_cl, left=True, right=True)
    kept = []
    for k in range(len(w)):
        num = np.max(np.abs(np.outer(C @ vr[:, k], vl[:, k].conj() @ B)))
        den = abs(vl[:, k].conj() @ vr[:, k])
        if den == 0.0 or num / den >= RESIDUE_TOL:
            kept.append(w[k])
    kept.sort(key=lambda p: (p.real, p.imag))
    scale = max([1.0, *map(abs, kept)])  # over the kept poles only
    damping = [1.0 if abs(p) <= ORIGIN_POLE_TOL * scale else damping_ratio(p) for p in kept]
    return np.array(kept), np.array(damping)


class TestPerModeEquivalence:
    def test_matches_per_mode_reference(self):
        # (s + 1) / (s (s + 1) (s + 2)): the mode at -1 is unobservable; with
        # the zero moved to -1 - 1e-6 its residue is small but must be kept
        den = [0.0, 2.0, 3.0, 1.0]
        cancelling = make_entry(CustomRational(RationalFunction([1.0, 1.0], den)))
        near = make_entry(CustomRational(RationalFunction([1.0 + 1e-6, 1.0], den)))
        tie = np.array([[1.0, -1.0], [-1.0, 1.0]])
        star = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        gfm = [make_entry(GfmParams(1.0, 1.0)), make_entry(GfmParams(2.0, 3.0))]
        systems = [
            well_damped_triangle(),
            weakly_damped_triangle(),
            ([cancelling, gfm[0]], tie),
            ([near, *gfm], star),
        ]
        rng = np.random.default_rng(7)
        for n in (4, 12):
            top = random_topology(rng, n, n // 2)
            params = [random_device_params(rng, r) for r in top.device_roles]
            systems.append((device_matrix(params, top.device_roles), static_network(top)))
        for entries, N in systems:
            rep = closed_loop_poles(entries, N)
            poles, damping = _per_mode_poles(entries, N)
            assert np.array_equal(rep.poles, poles)
            # numpy's complex abs may differ from Python's in the last bit
            np.testing.assert_allclose(rep.damping, damping, rtol=4 * np.finfo(float).eps, atol=0)
        dropped = closed_loop_poles([cancelling, gfm[0]], tie).poles
        kept = closed_loop_poles([near, *gfm], star).poles
        assert len(dropped) == 4 and np.min(np.abs(dropped + 1.0)) > 1e-3
        assert len(kept) == 7 and np.min(np.abs(kept + 1.0)) < 1e-5

    @pytest.mark.parametrize("num, den", [([1.0], [0.0, 0.0, 1.0]), ([1e20], [0.0, 0.0, 1.0]),
                                          ([1.0], [0.0, 0.0, 0.0, 1.0]), ([1.0], [1.0, 2.0, 1.0])],
                             ids=["s2", "s2_overflow", "s3", "s_plus_1_squared"])
    def test_defective_modes_kept(self, num, den):
        # a repeated pole with one eigenvector: a Jordan block.  The right
        # eigenvectors are nearly (1/s^2) or exactly (1/s^3) linearly
        # dependent, and 1e20/s^2 overflows the residue; every mode of the
        # block is kept, as the reference keeps a mode whose left-right
        # product vanishes
        entry = make_entry(CustomRational(RationalFunction(num, den)))
        systems = [([entry], np.array([[0.0]])),
                   ([entry, make_entry(GfmParams(1.0, 1.0))], np.array([[1.0, -1.0], [-1.0, 1.0]]))]
        for entries, N in systems:
            rep = closed_loop_poles(entries, N)
            with np.errstate(over="ignore"):  # the reference's num / den overflows for 1e20
                poles, damping = _per_mode_poles(entries, N)
            assert np.array_equal(rep.poles, poles)
            np.testing.assert_allclose(rep.damping, damping, rtol=4 * np.finfo(float).eps, atol=0)
            assert len(rep.poles) == closed_loop_matrix(entries, N)[0].shape[0]


class TestScreening:
    def test_well_damped_clean(self, std_domain):
        entries, N = well_damped_triangle()
        rep = closed_loop_poles(entries, N, std_domain)
        assert screen_poles(rep, std_domain)

    def test_weakly_damped_flagged(self, std_domain):
        entries, N = weakly_damped_triangle()
        rep = closed_loop_poles(entries, N, std_domain)
        assert not screen_poles(rep, std_domain)
        # the dominant mode is badly underdamped
        p = dominant_pole(rep)
        assert damping_ratio(p) < 0.1

    def test_boundary_exclusion_band(self, std_domain):
        entries, N = weakly_damped_triangle()
        rep = closed_loop_poles(entries, N, std_domain)
        # a huge exclusion band exempts everything
        assert screen_poles(rep, std_domain, boundary_exclusion=1e3)
        # the imaginary axis and the line Re s = -sigma below the wedge are
        # not the boundary: poles beside the axis lie deep inside the domain
        for pole in (2e-7 + 3j, -5e-7 + 1j):
            poles = np.array([pole, np.conj(pole)])
            rep = analysis.PoleReport(poles, [damping_ratio(pole)] * 2, [True, True], 0)
            assert not screen_poles(rep, std_domain, boundary_exclusion=1e-6)

    def test_origin_rule_ignores_dropped_modes(self, std_domain):
        # (s + 1e6) / ((s + 1e6)(s^2 + 0.02 s + 0.0026)): the cancelled mode
        # at -1e6 is dropped, and must not make -0.01 +- 0.05j origin poles
        entry = make_entry(CustomRational(RationalFunction(
            [1e6, 1.0], [2600.0, 20000.0026, 1000000.02, 1.0])))
        rep = closed_loop_poles([entry], np.zeros((1, 1)), std_domain)
        np.testing.assert_allclose(rep.poles, [-0.01 - 0.05j, -0.01 + 0.05j], rtol=1e-9)
        np.testing.assert_allclose(rep.damping, 0.01 / np.sqrt(0.0026), rtol=1e-9)
        assert rep.origin_pole_count == 0 and rep.in_domain.all()
        assert not screen_poles(rep, std_domain)
        np.testing.assert_allclose(dominant_pole(rep).real, -0.01, rtol=1e-9)

    def test_dominant_pole_none_for_origin_only(self):
        rep = closed_loop_poles(
            device_matrix([GfmParams(1, 1), GfmParams(1, 1)]),
            np.array([[1.0, -1.0], [-1.0, 1.0]]),
        )
        p = dominant_pole(rep)
        assert p is not None
        assert p.real < 0


class TestStepResponse:
    def test_dc_gain_single_device(self):
        # theta_final = magnitude / tie stiffness
        entries = device_matrix([GfmParams(1, 2)])
        r = step_response(entries, np.array([[4.0]]), 0, 0.1, 0.5, 40.0, 0.01)
        assert not r.divergent
        assert r.angles[-1, 0] == pytest.approx(0.1 / 4.0, rel=1e-6)
        assert r.powers[-1, 0] == pytest.approx(0.1, rel=1e-6)

    def test_linearity(self):
        entries, N = well_damped_triangle()
        r1 = step_response(entries, N, 0, 0.1, 1.0, 20.0, 0.01)
        r2 = step_response(entries, N, 0, 0.2, 1.0, 20.0, 0.01)
        np.testing.assert_allclose(2 * r1.angles, r2.angles, atol=1e-9)
        np.testing.assert_allclose(2 * r1.powers, r2.powers, atol=1e-9)

    def test_zero_disturbance(self):
        entries, N = well_damped_triangle()
        r = step_response(entries, N, 1, 0.0, 1.0, 5.0, 0.01)
        assert np.max(np.abs(r.angles)) == 0.0

    def test_quiescent_before_start(self):
        entries, N = well_damped_triangle()
        r = step_response(entries, N, 0, 0.1, 2.0, 10.0, 0.01)
        before = r.time < 2.0
        assert np.max(np.abs(r.angles[before])) == 0.0

    def test_divergent_tag(self):
        bad = make_entry(CustomRational(RationalFunction([1.0], [-2.0, -1.0, 1.0])))
        r = step_response([bad], np.array([[0.1]]), 0, 0.1, 0.0, 5.0, 0.01)
        assert r.divergent

    def test_parameter_validation(self):
        entries = device_matrix([GfmParams(1, 1)])
        N = np.array([[1.0]])
        with pytest.raises(ConfigurationError):
            step_response(entries, N, 5, 0.1, 0.0, 1.0, 0.01)
        with pytest.raises(ConfigurationError):
            step_response(entries, N, 0, 0.1, 2.0, 1.0, 0.01)  # start >= horizon
        with pytest.raises(ConfigurationError):
            step_response(entries, N, 0, 0.1, 0.0, 1.0, -0.01)

    def test_missing_scipy_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        entries = device_matrix([GfmParams(1, 1)])
        with pytest.raises(ConfigurationError, match="needs scipy") as exc:
            step_response(entries, np.array([[1.0]]), 0, 0.1, 0.0, 1.0, 0.01)
        assert isinstance(exc.value.__cause__, ImportError)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("dt", (0.1, 0.0, 1.0, np.nan)),
            ("dt", (0.1, 0.0, 1.0, np.inf)),
            ("horizon", (0.1, 0.0, np.inf, 0.01)),
            ("horizon", (0.1, 0.0, np.nan, 0.01)),
            ("start", (0.1, np.nan, 1.0, 0.01)),
            ("magnitude", (np.inf, 0.0, 1.0, 0.01)),
            ("magnitude", (np.nan, 0.0, 1.0, 0.01)),
        ],
    )
    def test_non_finite_settings_named(self, field, args):
        entries = device_matrix([GfmParams(1, 1)])
        with pytest.raises(ConfigurationError, match=f"step {field} must"):
            step_response(entries, np.array([[1.0]]), 0, *args)

    def test_log_decrement_matches_pole(self):
        # underdamped single device: peak decay follows exp(Re(p) T)
        m, d, b = 1.0, 0.4, 1.0
        entries = device_matrix([GfmParams(m, d)])
        r = step_response(entries, np.array([[b]]), 0, 0.1, 0.0, 60.0, 0.005)
        y = r.angles[:, 0] - r.angles[-1, 0]
        peaks = [
            k
            for k in range(1, len(y) - 1)
            if y[k] > y[k - 1] and y[k] >= y[k + 1] and y[k] > 1e-6
        ]
        assert len(peaks) >= 3
        t1, t2 = r.time[peaks[0]], r.time[peaks[1]]
        ratio = y[peaks[1]] / y[peaks[0]]
        assert ratio == pytest.approx(np.exp(-d / (2 * m) * (t2 - t1)), rel=0.15)


def _per_step_response(entries, N_static, disturbance_device, magnitude, start, horizon, dt):
    """step_response with one Python iteration per time step: returns
    (time, angles, powers, divergent)."""
    A_cl, B, C = closed_loop_matrix(entries, N_static)
    N = np.asarray(N_static, dtype=float)
    eigs = np.linalg.eigvals(A_cl)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    fastest = float(np.max(np.abs(eigs), initial=0.0))
    divergent = bool(
        np.any((eigs.real > 1e-9 * scale) & (np.abs(eigs) > ORIGIN_POLE_TOL * scale))
    )
    dt_eff = min(dt, 0.1 / fastest) if fastest > 0 else dt
    nsteps = int(np.ceil(horizon / dt_eff))
    t = np.arange(nsteps + 1) * dt_eff
    b_col = B[:, disturbance_device]
    n = A_cl.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A_cl * dt_eff
    aug[:n, n] = b_col * dt_eff
    expm = scipy.linalg.expm(aug)
    Ad, bd = expm[:n, :n], expm[:n, n]
    x = np.zeros(n)
    angles = np.zeros((nsteps + 1, len(entries)))
    for k in range(nsteps):
        u = magnitude if t[k] >= start else 0.0
        x = Ad @ x + bd * u
        angles[k + 1] = C @ x
    return t, angles, angles @ N.T, divergent


@lru_cache(maxsize=None)
def _step_case(name):
    """(entries, N, device, magnitude, start, horizon, dt) of one named case."""
    if name == "random100":
        rng = np.random.default_rng(11)
        top = random_topology(rng, 100, 50, 0.1)
        params = [random_device_params(rng, r) for r in top.device_roles]
        return device_matrix(params, top.device_roles), static_network(top), 0, 0.1, 0.1, 2.0, 2e-4
    if name == "divergent":
        bad = make_entry(CustomRational(RationalFunction([1.0], [-2.0, -1.0, 1.0])))
        return [bad], np.array([[0.1]]), 0, 0.1, 0.0, 50.0, 0.01
    cfg = load_config(str(CONFIGS / f"{name}.yaml"))
    sim = cfg.simulation
    return (cfg.entries, static_network(cfg.topology), sim.device, sim.magnitude, sim.start,
            sim.horizon, sim.dt)


@lru_cache(maxsize=None)
def _oracle(name):
    return _per_step_response(*_step_case(name))


def _slow_single():
    """One swing device with poles of modulus 2: dt = 2^-5 stays the step."""
    return device_matrix([GfmParams(1, 2)]), np.array([[4.0]])


@pytest.fixture(params=[None, 3], ids=["default_block", "block3"])
def step_block(request, monkeypatch):
    """The default STEP_BLOCK, then 3, so that block borders fall at odd steps."""
    if request.param is not None:
        monkeypatch.setattr(analysis, "STEP_BLOCK", request.param)


@pytest.mark.usefixtures("step_block")
class TestBlockedStepEquivalence:
    @pytest.mark.parametrize(
        "name", ["two_ibr", "three_ibr", "three_ibr_weak", "random100", "divergent"]
    )
    def test_matches_per_step_loop(self, name):
        case = _step_case(name)
        t, angles, powers, divergent = _oracle(name)
        assert np.all(np.isfinite(angles))
        r = step_response(*case)
        assert np.array_equal(r.time, t)
        assert r.divergent == divergent
        assert r.angles.shape == angles.shape
        tol = 1e-10 * np.max(np.abs(angles))
        assert np.max(np.abs(r.angles - angles)) <= tol
        # powers = angles N^T inherit the angle bound through N.  Relative to
        # max|powers| it is looser: on three_ibr_weak the angles drift to ~600
        # while the powers stay below 0.14, and the per-step loop's own powers
        # are 4e-10 * max|powers| away from a long-double loop.
        N_norm = np.max(np.sum(np.abs(case[1]), axis=1))
        assert np.max(np.abs(r.powers - powers)) <= N_norm * tol

    def test_cases_cover_long_and_divergent(self):
        assert len(_oracle("three_ibr_weak")[0]) == 201_165
        assert _oracle("divergent")[3]

    @pytest.mark.parametrize(
        "start, first_moving",
        [(0.0, 1), (1.0, 33), (float(np.nextafter(1.0, 2.0)), 34)],
        ids=["start_zero", "start_on_sample", "start_after_sample"],
    )
    def test_input_switch(self, start, first_moving):
        # t[k] = k / 32 exactly; the input applied at step k moves state k + 1
        entries, N = _slow_single()
        case = (entries, N, 0, 0.1, start, 10.0, 2.0**-5)
        r = step_response(*case)
        t, angles, _, _ = _per_step_response(*case)
        assert np.array_equal(r.time, t) and len(t) == 321
        assert np.all(r.angles[:first_moving] == 0.0)
        assert r.angles[first_moving, 0] > 0.0
        assert np.max(np.abs(r.angles - angles)) <= 1e-10 * np.max(np.abs(angles))

    def test_start_in_last_interval(self):
        entries, N = _slow_single()
        r = step_response(entries, N, 0, 0.1, 9.99, 10.0, 2.0**-5)
        assert r.time[-2] < 9.99 < r.time[-1]
        assert np.all(r.angles == 0.0) and np.all(r.powers == 0.0)

    def test_zero_magnitude(self):
        entries, N = well_damped_triangle()
        r = step_response(entries, N, 0, 0.0, 0.0, 5.0, 0.01)
        assert np.all(r.angles == 0.0) and np.all(r.powers == 0.0)


class TestSettlingMetrics:
    def test_pure_decay_no_cycles(self):
        t = np.linspace(0, 10, 2001)
        y = np.exp(-t)
        ts, cycles = settling_metrics(t, y, 0.02)
        assert cycles == 0.0
        assert ts == pytest.approx(-np.log(0.02), abs=0.05)

    def test_damped_oscillation_counts_cycles(self):
        t = np.linspace(0, 60, 12001)
        y = np.exp(-0.1 * t) * np.cos(2 * np.pi * t)
        ts, cycles = settling_metrics(t, y, 0.02)
        assert np.isfinite(ts)
        # ~0.02 amplitude reached near t ~ 39: roughly one cycle per period
        assert 30 <= cycles <= 45
        assert 35 <= ts <= 42

    def test_never_settles(self):
        t = np.linspace(0, 10, 1001)
        y = np.cos(2 * np.pi * t)
        ts, cycles = settling_metrics(t, y, 0.02)
        assert np.isnan(ts)
        assert cycles > 5

    def test_counts_after_start_only(self):
        t = np.linspace(0, 10, 1001)
        y = np.where(t < 5, np.cos(10 * t), 0.0)
        _, cycles_all = settling_metrics(t, y, 1e-3, start=0.0)
        _, cycles_late = settling_metrics(t, y, 1e-3, start=5.0)
        assert cycles_late < cycles_all


class TestOscillationContrast:
    def test_rejected_config_rings_accepted_does_not(self):
        # the same network: badly damped parameters ring for many cycles,
        # certified parameters settle almost monotonically
        ent_bad, N = weakly_damped_triangle()
        ent_good, _ = well_damped_triangle()
        r_bad = step_response(ent_bad, N, 0, 0.1, 1.0, 2000.0, 0.05)
        r_good = step_response(ent_good, N, 0, 0.1, 1.0, 60.0, 0.01)
        band = 0.02 * 0.1
        _, cyc_bad = settling_metrics(r_bad.time, r_bad.powers[:, 0], band, start=1.0)
        _, cyc_good = settling_metrics(r_good.time, r_good.powers[:, 0], band, start=1.0)
        assert cyc_bad >= 5
        assert cyc_good <= 1
