import numpy as np
import pytest

from dampcert import (
    ConfigurationError,
    ProhibitedDomain,
    boundary_segments,
    discretize_boundary,
    total_boundary_length,
)


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
        assert total_boundary_length(std_domain) == pytest.approx(20.07, abs=0.01)

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
        with pytest.raises(ConfigurationError):
            discretize_boundary(std_domain, 0.0)

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
