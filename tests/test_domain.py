import math

import numpy as np
import pytest

from dampcert import (
    BoundarySamples,
    ConfigurationError,
    ProhibitedDomain,
    boundary_segments,
    discretize_boundary,
)
from dampcert.domain import ZERO_GUARD


def _loop_samples(dom, spacing):
    """The per-sample loop rule: each segment at k * spacing from its start
    while k * spacing < length, then its end; junction duplicates dropped."""
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
    return pts[keep]


class TestMembership:
    def test_weakly_damped_pole_inside(self, std_domain):
        # dominant pole of the weakly damped counterexample, ratio
        # 0.627/0.078 ~ 8.0 exceeds tan(gamma) ~ 2.51
        assert std_domain.contains(-0.078 + 0.627j)
        assert std_domain.contains(-0.078 - 0.627j)

    def test_origin_excluded(self, std_domain):
        assert not std_domain.contains(0.0)

    def test_right_half_plane(self, std_domain):
        assert std_domain.contains(1 + 1j)
        assert std_domain.contains(0.5)

    def test_deep_left_pole_outside(self, std_domain):
        assert not std_domain.contains(-1 + 0.5j)

    def test_real_pole_in_sigma_band_outside(self, std_domain):
        # real axis has damping ratio 1, outside the wedge
        assert not std_domain.contains(-0.2 + 0j)

    def test_conjugate_symmetric(self, std_domain):
        rng = np.random.default_rng(0)
        s = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.array_equal(std_domain.contains(s), std_domain.contains(np.conj(s)))

    def test_tan_gamma(self, std_domain):
        assert std_domain.tan_gamma == pytest.approx(
            np.sqrt(1 - 0.37**2) / 0.37, rel=1e-12
        )

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            ProhibitedDomain(sigma=-1, xi=0.37)
        with pytest.raises(ConfigurationError):
            ProhibitedDomain(sigma=0.35, xi=1.2)
        with pytest.raises(ConfigurationError):
            ProhibitedDomain(sigma=0.35, xi=0.37, eps1=20.0)  # eps1 >= eta2
        for name in ("eta1", "eta2"):  # an infinite segment never finishes sampling
            with pytest.raises(ConfigurationError, match="finite"):
                ProhibitedDomain(sigma=0.35, xi=0.37, **{name: float("inf")})


class TestSegments:
    def test_vertical_segment_start(self, std_domain):
        segs = boundary_segments(std_domain)
        # bottom of the vertical segment at -sigma + j(sigma tan g + eps2)
        assert segs[0].end == pytest.approx(
            complex(-0.35, 0.35 * std_domain.tan_gamma + 0.1)
        )
        assert segs[0].start == pytest.approx(complex(-0.35, 10.0))

    def test_notch_segment_endpoints(self, std_domain):
        segs = boundary_segments(std_domain)
        assert segs[3].start == pytest.approx(complex(1e-3, 0.1))
        assert segs[3].end == pytest.approx(complex(1e-3, 0.0))

    def test_total_arc_length(self, std_domain):
        total = sum(seg.length for seg in boundary_segments(std_domain))
        assert total == pytest.approx(20.07, abs=0.01)

    def test_five_segments_continuous(self, std_domain):
        segs = boundary_segments(std_domain)
        assert len(segs) == 5
        for a, b in zip(segs, segs[1:]):
            assert a.end == pytest.approx(b.start)


class TestDiscretize:
    def test_point_count_default_spacing(self, std_domain):
        samples = discretize_boundary(std_domain, 0.1)
        assert 200 <= len(samples) <= 210

    def test_coarse_limit(self, std_domain):
        samples = discretize_boundary(std_domain, 1e6)
        assert len(samples) <= 10  # endpoints only, deduplicated

    def test_invalid_spacing(self, std_domain):
        for spacing in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="spacing must be finite and > 0"):
                discretize_boundary(std_domain, spacing)

    @pytest.mark.parametrize("spacing", [0.001, 0.003, 0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize(
        "dom",
        [
            ProhibitedDomain(sigma=0.35, xi=0.37),
            ProhibitedDomain(sigma=0.1, xi=0.7, eps1=0.01, eps2=0.05, eta1=3.0, eta2=2.5),
            ProhibitedDomain(sigma=1.3, xi=0.2, eps1=0.5, eps2=0.3, eta1=25.0, eta2=7.3),
        ],
        ids=["shipped", "narrow", "wide"],
    )
    def test_bitwise_equal_per_sample_loop(self, dom, spacing):
        got = discretize_boundary(dom, spacing).points
        expect = _loop_samples(dom, spacing)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        # every sample lies in the closed domain without ZERO_GUARD's help
        assert np.all(dom.contains(got))

    @pytest.mark.parametrize("points", [np.array([]), np.array([[1j, 2j]]), np.array(1j)],
                             ids=["empty", "2-D", "0-D"])
    def test_unusable_sample_sets_refused(self, points, std_domain):
        # an empty set would certify nothing; the others broadcast wrongly
        with pytest.raises(ConfigurationError, match="non-empty 1-D array, got shape"):
            BoundarySamples(points)

    def test_points_on_boundary_closure(self, std_domain):
        samples = discretize_boundary(std_domain, 0.05)
        for p in samples.points:
            assert std_domain.contains(p) or std_domain.boundary_distance(p) <= 1e-9

    def test_upper_half_plane_only(self, std_domain):
        samples = discretize_boundary(std_domain, 0.05)
        assert np.all(samples.points.imag >= 0)
        real_axis = samples.points[samples.points.imag == 0]
        assert np.all(real_axis.real >= std_domain.eps1 - 1e-12)

    def test_halving_spacing_refines(self, std_domain):
        coarse = discretize_boundary(std_domain, 0.1)
        fine = discretize_boundary(std_domain, 0.05)
        assert len(fine) >= 2 * len(coarse) - 12
        # refinement is nested: every coarse point appears among the fine,
        # so a finer sweep can never report a larger worst-case margin
        dists = np.min(
            np.abs(coarse.points[:, None] - fine.points[None, :]), axis=1
        )
        assert np.max(dists) <= 1e-9

    def test_segments_satisfy_equations(self, std_domain):
        d = std_domain
        t = d.tan_gamma
        for p in discretize_boundary(d, 0.01).points:
            x, y = p.real, p.imag
            on_vertical = abs(x + d.sigma) <= 1e-12 and y >= d.sigma * t + d.eps2 - 1e-12
            on_wedge = -d.sigma - 1e-12 <= x <= 0 and abs(y - (d.eps2 - x * t)) <= 1e-12
            on_top = 0 <= x <= d.eps1 and abs(y - d.eps2) <= 1e-12
            on_right = abs(x - d.eps1) <= 1e-12 and 0 <= y <= d.eps2 + 1e-12
            on_axis = abs(y) <= 1e-12 and d.eps1 - 1e-12 <= x <= d.eta2 + 1e-12
            assert on_vertical or on_wedge or on_top or on_right or on_axis


class TestCertifiedRegion:
    def test_notch_excluded(self, std_domain):
        # just above the real axis inside the notch: prohibited but not
        # enclosed by the finite boundary
        s = 5e-4 + 0.05j
        assert std_domain.contains(s)
        assert not std_domain.contains_certified(s)

    def test_far_interior_included(self, std_domain):
        s = 1.0 + 1.0j
        assert std_domain.contains_certified(s)

    def test_subset_of_domain(self, std_domain):
        rng = np.random.default_rng(1)
        s = rng.uniform(-0.5, 5, 500) + 1j * rng.uniform(0, 5, 500)
        cert = std_domain.contains_certified(s)
        full = std_domain.contains(s)
        assert np.all(~cert | full)


class TestRootScreen:
    """ProhibitedDomain.rows_with_root_in: exact roots against the closed
    domain, structural s = 0 roots stripped."""

    def _hit(self, dom, *polys):
        width = max(len(p) for p in polys)
        (hit,) = dom.rows_with_root_in(np.array([list(p) + [0.0] * (width - len(p)) for p in polys]))
        return hit

    def test_structural_origin_roots_stripped(self, std_domain):
        # s (s + 1) and s^2 (s + 2): only the origin lies on the boundary
        assert not self._hit(std_domain, [0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 1.0]).any()

    def test_constant_and_zero_rows_have_no_roots(self, std_domain):
        assert not self._hit(std_domain, [3.0], [0.0, 0.0]).any()

    def test_inside_and_guard(self, std_domain):
        # real roots -a: inside for a < 0 only; on the ray -sigma + jy, with
        # y above the apex, inside or within ZERO_GUARD unless clearly left
        y = 5.0
        ray = [
            [x * x + y * y, -2.0 * x, 1.0]
            for x in (-0.35 + 0.01, -0.35, -0.35 - 0.1 * ZERO_GUARD, -0.35 - 10 * ZERO_GUARD)
        ]
        hit = self._hit(std_domain, [1.0, -1.0], [1.0, 1.0], *ray)
        assert hit.tolist() == [True, False, True, True, True, False]

    def test_one_hit_array_per_stack(self, std_domain):
        # stacks of different widths and row counts, an empty one included,
        # give the flags that each gives alone
        a = np.array([[1.0, -1.0, 0.0], [2.0, 3.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
        c = np.zeros((0, 4))
        d = np.array([[1.0, 0.0, 1.0]])
        got = std_domain.rows_with_root_in(a, b, c, d)
        assert [g.tolist() for g in got] == [[True, False], [False, False, True], [], [True]]
        for g, stack in zip(got, (a, b, c, d)):
            assert g.tolist() == std_domain.rows_with_root_in(stack)[0].tolist()
