"""End-to-end acceptance checks.

Each test prints a single pass/fail line (bypassing capture) so a full run
doubles as a short acceptance report.
"""

import time
import warnings

import numpy as np
import pytest

from dampcert import (
    CertificateInapplicableError,
    CustomRational,
    DynamicNetwork,
    GflParams,
    GfmParams,
    GridEntryFactory,
    ParameterGrid,
    Polynomial,
    RationalFunction,
    StaticNetwork,
    boundary_certificate,
    certify_all,
    closed_loop_poles,
    damping_ratio,
    device_matrix,
    discretize_boundary,
    dominant_pole,
    feasible_region,
    is_strictly_hurwitz,
    make_entry,
    screen_poles,
    settling_metrics,
    step_response,
    synth,
)
from helpers import det_poly, interior_points, triangle_topology


def announce(capsys, label: str, ok: bool):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_system(rng, n_devices, inertia_range, damping_range):
    top = synth.random_topology(rng, n_devices)
    models = [
        synth.random_device_params(rng, role, inertia_range, damping_range)
        for role in top.device_roles
    ]
    return top, device_matrix(models, top.device_roles)


WELL_DAMPED = [GfmParams(0.5, 10), GflParams(0.5, 10, 4, 40), GflParams(0.5, 10, 2, 20)]
WEAKLY_DAMPED = [GfmParams(20, 0.1), GflParams(20, 0.1, 4, 40), GflParams(20, 0.1, 2, 20)]


def test_accepted_configs_are_oracle_clean(std_domain, capsys):
    # 100 randomly drawn multi-device systems accepted by the certificate:
    # the centralized eigenvalue oracle must find no prohibited-domain pole
    rng = np.random.default_rng(42)
    samples = discretize_boundary(std_domain, 0.02)
    accepted = violations = tried = 0
    while accepted < 100 and tried < 3000:
        tried += 1
        top, entries = _random_system(
            rng, int(rng.integers(3, 11)), (0.1, 2.0), (3.0, 20.0)
        )
        provider = StaticNetwork.from_topology(top)
        try:
            reports = certify_all(entries, provider, std_domain, samples)
        except CertificateInapplicableError:
            continue
        if not all(r.passed for r in reports):
            continue
        accepted += 1
        rep = closed_loop_poles(entries, provider.matrix, std_domain)
        if not screen_poles(rep, std_domain, boundary_exclusion=1e-6):
            violations += 1
    announce(
        capsys,
        f"1 certificate soundness ({accepted} accepted / {tried} tried, "
        f"{violations} oracle violations)",
        accepted >= 100 and violations == 0,
    )


def test_boundary_minimum_bounds_interior(std_domain, capsys):
    # the gain margin minimized over the sampled boundary is never undercut
    # by interior points of the certified region (maximum-modulus argument)
    rng = np.random.default_rng(7)
    samples = discretize_boundary(std_domain, 0.01)
    worst_dip = 0.0
    for _ in range(20):
        top, entries = _random_system(
            rng, int(rng.integers(2, 5)), (0.1, 2.0), (3.0, 20.0)
        )
        provider = StaticNetwork.from_topology(top)
        pts = interior_points(rng, std_domain, 500)
        for i, e in enumerate(entries):
            diag, off = provider.row_series(i, samples.points)
            bmin = np.min(
                np.abs([e.inverse(s) for s in samples.points] + diag) - off
            )
            di, oi = provider.row_series(i, pts)
            imin = np.min(np.abs([e.inverse(s) for s in pts] + di) - oi)
            dip = (bmin - imin) / max(1.0, abs(bmin))
            worst_dip = max(worst_dip, dip)
    announce(
        capsys,
        f"2 boundary sufficiency (worst relative interior dip {worst_dip:.3g})",
        worst_dip <= 1e-6,
    )


def test_counterexample_rejected_and_retuned(std_domain, capsys):
    # badly tuned three-device system: rejected, with a weakly damped
    # dominant pole inside the domain; a parameter sweep then finds a
    # retuning that passes and is strongly damped
    samples = discretize_boundary(std_domain, 0.01)
    top = triangle_topology()
    provider = StaticNetwork.from_topology(top)

    bad = device_matrix(WEAKLY_DAMPED)
    bad_reports = certify_all(bad, provider, std_domain, samples)
    rejected = not all(r.passed for r in bad_reports)
    rep_bad = closed_loop_poles(bad, provider.matrix, std_domain)
    p_bad = dominant_pole(rep_bad)
    bad_in_domain = bool(std_domain.contains(p_bad)) and damping_ratio(p_bad) <= 0.15

    # per-device sweep over (inertia, damping); pick a flagged grid point
    # for each device and re-certify the combined system
    grids = {
        0: ParameterGrid(["m", "d"], [np.linspace(0.5, 20, 8), np.linspace(0.1, 10, 8)]),
        1: ParameterGrid(["H", "D"], [np.linspace(0.5, 20, 8), np.linspace(0.1, 10, 8)]),
        2: ParameterGrid(["H", "D"], [np.linspace(0.5, 20, 8), np.linspace(0.1, 10, 8)]),
    }
    retuned = []
    found = True
    for i, base in enumerate(WEAKLY_DAMPED):
        mask = feasible_region(
            GridEntryFactory(base), grids[i], provider, i, std_domain, samples
        )
        if not mask.flags.any():
            found = False
            break
        idx = np.argwhere(mask.flags)[0]
        point = {a: grids[i].values[k][idx[k]] for k, a in enumerate(grids[i].axes)}
        retuned.append(GridEntryFactory(base)(point))
    good = found and all(
        r.passed for r in certify_all(retuned, provider, std_domain, samples)
    )
    if good:
        rep_good = closed_loop_poles(retuned, provider.matrix, std_domain)
        good_damping = damping_ratio(dominant_pole(rep_good)) >= 0.9
    else:
        good_damping = False
    announce(
        capsys,
        "3 counterexample rejected, sweep finds strongly damped retuning",
        rejected and bad_in_domain and good and good_damping,
    )


def test_reference_damping_ratio(capsys):
    ok = abs(damping_ratio(-0.078 + 0.627j) - 0.12) <= 0.005
    announce(capsys, "4 reference pole damping ratio 0.12 +/- 0.005", ok)


def test_stability_test_agrees_with_roots(capsys):
    rng = np.random.default_rng(3)
    disagreements = checked = 0
    for _ in range(1000):
        deg = int(rng.integers(1, 7))
        c = rng.uniform(-10, 10, size=deg + 1)
        if abs(c[-1]) < 1e-3:
            c[-1] = 1.0
        p = Polynomial(c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            roots = p.roots()
        if np.min(np.abs(roots.real)) < 1e-6:
            continue  # marginal exclusion band
        checked += 1
        if is_strictly_hurwitz(p) != bool(np.max(roots.real) < 0):
            disagreements += 1
    announce(
        capsys,
        f"5 algebraic stability test vs root locations ({checked} checked, "
        f"{disagreements} disagreements)",
        checked >= 900 and disagreements == 0,
    )


def test_diagonal_dominance_implies_invertible(capsys):
    # the linear-algebra fact the certificate rests on: strictly diagonally
    # dominant complex matrices are nonsingular
    rng = np.random.default_rng(11)
    min_sv = np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for i in range(n):
            off = np.sum(np.abs(M[i])) - abs(M[i, i])
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            M[i, i] = (off + rng.uniform(0.1, 1.0)) * phase
        min_sv = min(min_sv, float(np.min(np.linalg.svd(M, compute_uv=False))))
    announce(
        capsys,
        f"6 strict diagonal dominance nonsingularity (min singular value {min_sv:.3g})",
        min_sv > 0.0,
    )


def test_per_device_cost_scales_flat(std_domain, capsys):
    # decentralization: certifying a 54-device ring costs about the same
    # per device as a 3-device system
    samples = discretize_boundary(std_domain, 0.05)

    def build(n):
        n_gfm = max(1, n // 3)
        top = synth.ring_topology(n, n_gfm)
        models = [
            GfmParams(0.5, 10) if r == "gfm" else GflParams(0.5, 10, 4, 40)
            for r in top.device_roles
        ]
        return StaticNetwork.from_topology(top), device_matrix(models, top.device_roles)

    def timed(provider, entries):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reports = certify_all(entries, provider, std_domain, samples)
            best = min(best, time.perf_counter() - t0)
            assert all(r.passed for r in reports)
        return best / len(entries)

    small = timed(*build(3))
    large = timed(*build(54))
    ratio = large / small
    announce(
        capsys,
        f"7 per-device certification cost, 54 vs 3 devices (ratio {ratio:.2f})",
        ratio <= 3.0,
    )


def test_per_device_cost_scales_flat_dynamic(std_domain, capsys):
    # check 7 with the dynamic network provider: a device's row comes from
    # its own lines, so its cost does not grow with the ring.  Ring lines
    # have rho = 0, which puts their resonance inside the domain, so the
    # verdicts are not asserted here.
    samples = discretize_boundary(std_domain, 0.05)

    def timed(n):
        top = synth.ring_topology(n, max(1, n // 3))
        models = [
            GfmParams(0.5, 10) if r == "gfm" else GflParams(0.5, 10, 4, 40)
            for r in top.device_roles
        ]
        entries = device_matrix(models, top.device_roles)
        provider = DynamicNetwork(top)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            certify_all(entries, provider, std_domain, samples)
            best = min(best, time.perf_counter() - t0)
        return best / n

    ratio = timed(54) / timed(3)
    announce(
        capsys,
        f"7d per-device certification cost, dynamic provider, 54 vs 3 devices (ratio {ratio:.2f})",
        ratio <= 3.0,
    )


def test_per_device_row_cost_scales_flat_with_interior(std_domain, capsys):
    # check 7d on random grids with n/2 interior nodes: the provider
    # eliminates them once when it is built, so a device's row costs about
    # one pass over the samples however large the grid is
    samples = discretize_boundary(std_domain, 0.05)
    rng = np.random.default_rng(23)

    def timed(n):
        provider = DynamicNetwork(synth.random_topology(rng, n, n // 2))
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for i in range(n):
                provider.row_series(i, samples.points)
            best = min(best, time.perf_counter() - t0)
        return best / n

    ratio = timed(54) / timed(3)
    announce(
        capsys,
        f"7e per-device dynamic row cost, n/2 interior nodes, 54 vs 3 devices (ratio {ratio:.2f})",
        ratio <= 3.0,
    )


def test_oscillation_contrast(std_domain, capsys):
    # time-domain meaning of the verdicts: the rejected tuning rings for
    # many cycles, the accepted one settles almost monotonically
    N = StaticNetwork.from_topology(triangle_topology()).matrix
    band = 0.02 * 0.1
    r_bad = step_response(device_matrix(WEAKLY_DAMPED), N, 0, 0.1, 1.0, 2500.0, 0.05)
    r_good = step_response(device_matrix(WELL_DAMPED), N, 0, 0.1, 1.0, 60.0, 0.01)
    _, cyc_bad = settling_metrics(r_bad.time, r_bad.powers[:, 0], band, start=1.0)
    _, cyc_good = settling_metrics(r_good.time, r_good.powers[:, 0], band, start=1.0)
    announce(
        capsys,
        f"8 step-response contrast (rejected {cyc_bad:.1f} cycles, "
        f"accepted {cyc_good:.1f})",
        (not r_bad.divergent) and cyc_bad >= 5 and cyc_good <= 1,
    )


def test_pole_oracle_matches_determinant(std_domain, capsys):
    # small systems: state-space eigenvalues against the independently
    # expanded characteristic determinant
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        top, entries = _random_system(
            rng, int(rng.integers(1, 4)), (0.1, 5.0), (0.5, 20.0)
        )
        N = StaticNetwork.from_topology(top).matrix
        rep = closed_loop_poles(entries, N)
        roots = det_poly(entries, N).roots()
        for p in rep.poles:
            err = np.min(np.abs(roots - p)) / max(1.0, abs(p))
            worst = max(worst, float(err))
    announce(
        capsys,
        f"9 eigenvalue oracle vs determinant polynomial (worst mismatch {worst:.3g})",
        worst <= 1e-6,
    )


def _boundary_pole_entry(poles):
    """Custom device whose inverse entry has a pole at each of `poles` and
    their conjugates, over (s + 5)(s + 6)... with as many factors as the
    entry needs to be strictly proper."""
    num = np.real(np.polynomial.polynomial.polyfromroots([*poles, *np.conj(poles)]))
    den = np.polynomial.polynomial.polyfromroots(-np.arange(5.0, 6.0 + 2 * len(poles)))
    return make_entry(CustomRational(RationalFunction(num, den)))


def test_boundary_poles_are_inapplicable(std_domain, std_samples, capsys):
    # an inverse entry with poles on the boundary ray -sigma + jy bounds no
    # closed-loop pole, whichever side the companion eigenvalue rounds to:
    # 400 such devices, a pole at a sample of segment 0 (single and double)
    # and one 1e-10 left of the ray must all be refused, neither PASS nor FAIL
    provider = StaticNetwork(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    ys = np.random.default_rng(0).uniform(1.5, 9.5, 400)
    sample = std_samples.points[100]
    assert sample.real == -std_domain.sigma
    cases = [[complex(-std_domain.sigma, y)] for y in ys]
    cases += [[sample], [sample, sample], [sample - 1e-10]]
    verdicts = []
    for poles in cases:
        try:
            rep = boundary_certificate(_boundary_pole_entry(poles), provider, 0, std_domain,
                                       std_samples)
            verdicts.append("PASS" if rep.passed else "FAIL")
        except CertificateInapplicableError:
            verdicts.append("inapplicable")
    refused = verdicts.count("inapplicable")
    announce(capsys, f"boundary poles refused ({refused} of {len(cases)})",
             refused == len(cases))
