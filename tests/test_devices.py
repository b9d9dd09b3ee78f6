import numpy as np
import pytest

from dampcert import (
    ConfigurationError,
    CustomRational,
    GflParams,
    GfmParams,
    Polynomial,
    RationalFunction,
    check_entry_analytic,
    device_matrix,
    gfl_entry,
    gfm_entry,
)


class TestParams:
    def test_gfm_validation(self):
        with pytest.raises(ConfigurationError):
            GfmParams(m=-1.0, d=1.0)
        with pytest.raises(ConfigurationError):
            GfmParams(m=1.0, d=0.0)

    def test_gfl_validation(self):
        with pytest.raises(ConfigurationError):
            GflParams(H=1, D=1, kp=0, ki=40)

    @pytest.mark.parametrize("field", ["m", "d"])
    def test_gfm_infinite_rejected_by_name(self, field):
        kwargs = {"m": 1.0, "d": 1.0, field: np.inf}
        with pytest.raises(ConfigurationError, match=f" {field} must be finite and > 0, got inf"):
            GfmParams(**kwargs)

    @pytest.mark.parametrize("field", ["H", "D", "kp", "ki", "v0"])
    def test_gfl_infinite_rejected_by_name(self, field):
        kwargs = {"H": 1.0, "D": 1.0, "kp": 4.0, "ki": 40.0, field: np.inf}
        with pytest.raises(ConfigurationError, match=f"parameter {field} must be finite and > 0"):
            GflParams(**kwargs)

    def test_custom_must_be_strictly_proper(self):
        with pytest.raises(ConfigurationError):
            CustomRational(RationalFunction([1, 1], [2, 1]))


class TestGfmEntry:
    def test_magnitude_at_j(self):
        e = gfm_entry(GfmParams(m=1, d=1))
        assert abs(e.response(1j)) == pytest.approx(1 / np.sqrt(2))

    def test_closed_loop_polynomial(self):
        # swing-equation anchor: 1/(s(ms+d)) against static tie b gives
        # m s^2 + d s + b
        e = gfm_entry(GfmParams(m=1, d=1))
        b = 1.0
        char = e.inverse.num + e.inverse.den * b
        assert char.coeffs == pytest.approx([1.0, 1.0, 1.0])

    def test_strictly_proper(self):
        e = gfm_entry(GfmParams(m=3.7, d=0.2))
        assert e.response.is_strictly_proper
        assert e.response.num.degree == 0
        assert e.response.den.degree == 2


class TestGflEntry:
    def test_hand_evaluation(self):
        e = gfl_entry(GflParams(H=1, D=1, kp=4, ki=40, v0=1))
        assert abs(e.response(1.0)) == pytest.approx(45 / 88)

    def test_pole_locations(self):
        p = GflParams(H=2, D=3, kp=4, ki=40)
        e = gfl_entry(p)
        poles = np.sort_complex(e.response.den.roots())
        expected = np.sort_complex([0.0, -p.D / p.H, -p.ki / p.kp])
        assert poles == pytest.approx(expected)

    def test_strictly_proper(self):
        e = gfl_entry(GflParams(H=1, D=1, kp=2, ki=20))
        assert e.response.is_strictly_proper
        assert e.response.num.degree == 2
        assert e.response.den.degree == 3


class TestDeviceMatrix:
    def test_single_gfm(self):
        entries = device_matrix([GfmParams(1, 1)])
        assert len(entries) == 1
        assert entries[0].response.den.degree == 2

    def test_mixed(self):
        entries = device_matrix([GfmParams(1, 1), GflParams(1, 1, 4, 40)])
        assert [e.response.den.degree for e in entries] == [2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            device_matrix([])

    def test_role_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            device_matrix([GfmParams(1, 1)], roles=["gfl"])
        with pytest.raises(ConfigurationError):
            device_matrix([GfmParams(1, 1)], roles=["gfm", "gfl"])


class TestDomainChecks:
    def test_gfl_nonsingular(self, std_domain):
        e = gfl_entry(GflParams(H=1, D=1, kp=4, ki=40))
        assert check_entry_analytic(e, std_domain)

    def test_gfm_always_nonsingular(self, std_domain):
        assert check_entry_analytic(gfm_entry(GfmParams(5, 0.3)), std_domain)

    def test_rhp_zero_detected(self, std_domain):
        e = CustomRational(RationalFunction([-1, 1], [1, 1, 1]))
        from dampcert import make_entry

        assert not check_entry_analytic(make_entry(e), std_domain)

    def test_gfl_analytic(self, std_domain):
        e = gfl_entry(GflParams(H=1, D=1, kp=4, ki=40))
        assert check_entry_analytic(e, std_domain)

    def test_gfm_analytic_origin_excluded(self, std_domain):
        assert check_entry_analytic(gfm_entry(GfmParams(1, 1)), std_domain)

    def test_imaginary_axis_pole_detected(self, std_domain):
        # pole at s = 0.5j sits inside the prohibited region
        den = Polynomial([0.25, 0, 1]) * Polynomial([1, 1])
        from dampcert import DeviceEntry

        rf = RationalFunction([1], den)
        entry = DeviceEntry(rf, rf.reciprocal())
        assert not check_entry_analytic(entry, std_domain)


class TestEntryProperties:
    def test_reciprocal_product(self):
        rng = np.random.default_rng(0)
        entries = [
            gfm_entry(GfmParams(2, 3)),
            gfl_entry(GflParams(1.5, 0.8, 4, 40)),
        ]
        for e in entries:
            for _ in range(20):
                s = complex(rng.normal(), rng.normal())
                try:
                    v = e.response(s) * e.inverse(s)
                except Exception:
                    continue
                assert v == pytest.approx(1.0, rel=1e-10)

    def test_far_field_limits(self):
        rng = np.random.default_rng(1)
        entries = [
            gfm_entry(GfmParams(1, 5)),
            gfl_entry(GflParams(2, 1, 2, 20)),
        ]
        for e in entries:
            for _ in range(10):
                ang = rng.uniform(-np.pi / 2, np.pi / 2)
                s = 1e6 * np.exp(1j * ang)
                assert abs(e.response(s)) < 1e-5
                assert abs(e.inverse(s)) > 1e5
