import warnings

import numpy as np
import pytest

from dampcert import (
    BoundarySamples,
    DegenerateInputError,
    FeasibilityMask,
    ParameterGrid,
    PoleAtEvaluationPointError,
    PoleReport,
    Polynomial,
    RationalFunction,
    StaticNetwork,
    StepResponse,
    hurwitz_classification,
    is_strictly_hurwitz,
)
from dampcert.ratcalc import roots_rows


class TestPolynomialBasics:
    def test_eval_constant_term(self):
        p = Polynomial([40, 4, 1])
        assert p(0) == 40

    def test_eval_complex(self):
        p = Polynomial([40, 4, 1])
        # (j)^2 + 4j + 40 = 39 + 4j
        assert p(1j) == pytest.approx(39 + 4j)

    def test_eval_zero_poly(self):
        assert Polynomial([0.0])(3 + 2j) == 0

    def test_trim_and_degree(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0.0]).degree == -1
        assert Polynomial([5.0]).degree == 0

    def test_immutable(self):
        p = Polynomial([1, 2])
        with pytest.raises(ValueError):
            p.coeffs[0] = 3.0


class TestRoots:
    def test_difference_of_squares(self):
        r = np.sort_complex(Polynomial([-1, 0, 1]).roots())
        assert r == pytest.approx([-1, 1])

    def test_factored_form(self):
        r = np.sort_complex(Polynomial([0, 1, 1]).roots())
        assert r == pytest.approx([-1, 0])

    def test_quadratic_formula(self):
        # s^2 + 4s + 40 = 0 -> s = -2 +/- 6j
        r = sorted(Polynomial([40, 4, 1]).roots(), key=lambda z: z.imag)
        assert r == pytest.approx([-2 - 6j, -2 + 6j])

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            Polynomial([3.0]).roots()
        with pytest.raises(DegenerateInputError):
            Polynomial([0.0]).roots()

    def test_residuals_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            deg = rng.integers(1, 11)
            c = rng.uniform(-10, 10, size=deg + 1)
            if abs(c[-1]) < 0.1:
                c[-1] = 1.0
            p = Polynomial(c)
            r = p.roots()
            # backward-error residual: |p(z)| relative to the magnitude of
            # the terms being cancelled at z
            powers = np.abs(r[:, None]) ** np.arange(deg + 1)[None, :]
            scale = powers @ np.abs(p.coeffs)
            assert np.max(np.abs(p(r)) / scale) <= 1e-8


    def test_degree_one_is_one_division(self):
        # -c0 / c1 rounded once, with no residual pass: no warning however
        # large the coefficients, and a non-finite root warns
        C = np.array([[3.0, 2.0], [-1.0, 4.0], [1e-300, 1e300], [7e297, 1e-10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = roots_rows(C)
        assert r.shape == (4, 1) and r[:, 0].tolist() == (-C[:, 0] / C[:, 1]).tolist()
        with np.errstate(over="ignore"):
            with pytest.warns(RuntimeWarning, match="poorly conditioned roots: 1 of 2 rows, "
                                                    "worst scaled residual inf") as rec:
                r = roots_rows(np.array([[1.0, 2.0], [1e300, 1e-300]]))
        assert len(rec) == 1 and r[:, 0].tolist() == [-0.5, -np.inf]

    def test_one_warning_per_stack(self):
        # roots 1..30 from their expanded coefficients are ill-conditioned;
        # those of s^30 - 1 are not
        c = np.polynomial.polynomial.polyfromroots(np.arange(1, 31))
        unit = np.zeros(31)
        unit[[0, -1]] = -1.0, 1.0
        with pytest.warns(RuntimeWarning, match="poorly conditioned roots: 2 of 3 rows") as rec:
            roots_rows(np.array([c, unit, 3.0 * c]))
        assert len(rec) == 1


class TestShift:
    def test_identity_shift(self):
        q = Polynomial([0, 0, 1]).shifted(0.0)
        assert q.coeffs == pytest.approx([0, 0, 1])

    def test_binomial_expansion(self):
        # (w - 0.35)^2 = w^2 - 0.7 w + 0.1225
        q = Polynomial([0, 0, 1]).shifted(0.35)
        assert q.coeffs == pytest.approx([0.1225, -0.7, 1.0])

    def test_direct_substitution(self):
        # p = s + 1 shifted by 1 -> w
        q = Polynomial([1, 1]).shifted(1.0)
        assert q.coeffs == pytest.approx([0.0, 1.0])

    def test_shift_eval_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            deg = rng.integers(1, 7)
            p = Polynomial(rng.uniform(-5, 5, size=deg + 1))
            sigma = rng.uniform(-2, 2)
            w = complex(rng.normal(), rng.normal())
            lhs = p.shifted(sigma)(w)
            rhs = p(w - sigma)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestRouth:
    def test_stable_quadratic(self):
        assert is_strictly_hurwitz(Polynomial([40, 4, 1]))

    def test_sign_change(self):
        assert not is_strictly_hurwitz(Polynomial([1, -1, 1]))

    def test_axis_roots(self):
        # (s+1)(s^2+1): roots on the imaginary axis give a full zero row,
        # which classifies as not Hurwitz, not as marginal
        assert not is_strictly_hurwitz(Polynomial([1, 1, 1, 1]))
        assert hurwitz_classification(Polynomial([1, 1, 1, 1])) == "not_hurwitz"

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            is_strictly_hurwitz(Polynomial([1.0]))

    def test_negative_leading_normalized(self):
        assert is_strictly_hurwitz(Polynomial([-40, -4, -1]))

    def test_agreement_with_roots(self):
        rng = np.random.default_rng(2)
        disagreements = 0
        for _ in range(1000):
            deg = rng.integers(1, 7)
            c = rng.uniform(-10, 10, size=deg + 1)
            if abs(c[-1]) < 1e-3:
                c[-1] = 1.0
            p = Polynomial(c)
            roots = p.roots()
            if np.min(np.abs(roots.real)) < 1e-6:
                continue  # documented marginal exclusion band
            expect = bool(np.max(roots.real) < -1e-9)
            if is_strictly_hurwitz(p) != expect:
                disagreements += 1
        assert disagreements == 0

    def test_classification_values(self):
        assert hurwitz_classification(Polynomial([2, 3, 1])) == "hurwitz"
        assert hurwitz_classification(Polynomial([-2, 1, 1])) == "not_hurwitz"


class TestRationalFunction:
    def test_reciprocal_eval(self):
        r = RationalFunction([1], [0, 1])
        assert r(1.0) == pytest.approx(1.0)

    def test_complex_eval(self):
        r = RationalFunction([-1], [0, 1, 1])
        assert r(1j) == pytest.approx(0.5 + 0.5j)

    def test_pole_error(self):
        r = RationalFunction([1], [0, 1])
        with pytest.raises(PoleAtEvaluationPointError):
            r(0.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateInputError):
            RationalFunction([1], [0.0])

    def test_monic_normalization(self):
        r = RationalFunction([2], [0, 4])
        assert r.den.coeffs == pytest.approx([0, 1])
        assert r.num.coeffs == pytest.approx([0.5])

    def test_strictly_proper(self):
        assert RationalFunction([1], [0, 1, 1]).is_strictly_proper
        assert not RationalFunction([1, 1], [2, 1]).is_strictly_proper

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = RationalFunction(
                rng.uniform(-3, 3, size=3), np.append(rng.uniform(-3, 3, size=3), 1.0)
            )
            s = complex(rng.normal(), rng.normal())
            try:
                v = r(s)
                vc = r(np.conj(s))
            except PoleAtEvaluationPointError:
                continue
            assert vc == pytest.approx(np.conj(v), rel=1e-10, abs=1e-12)

    def test_reciprocal_product(self):
        rng = np.random.default_rng(4)
        r = RationalFunction([1, 2], [3, 4, 1])
        inv = r.reciprocal()
        for _ in range(20):
            s = complex(rng.normal(), rng.normal())
            try:
                assert r(s) * inv(s) == pytest.approx(1.0, rel=1e-10)
            except PoleAtEvaluationPointError:
                continue


_GRID = ParameterGrid(["d"], [[1.0, 2.0]])

#: name -> (values of the caller's array, its stored array in an object
#: built from it, whether the class copies it: it does where it checks them)
VALUE_TYPES = {
    "StaticNetwork": (
        np.array([[2.0, -1.0], [-1.0, 1.0]]), lambda a: StaticNetwork(a).matrix, True),
    "ParameterGrid": (
        np.array([1.0, 2.0]), lambda a: ParameterGrid(["d"], [a]).values[0], True),
    "BoundarySamples": (
        np.array([1j, 1.0 + 1j]), lambda a: BoundarySamples(a).points, False),
    "FeasibilityMask": (
        np.array([True, False]), lambda a: FeasibilityMask(0, _GRID, a, [0.5, -0.5]).flags, False),
    "PoleReport": (
        np.array([-1.0 + 1j, -2.0 + 0j]),
        lambda a: PoleReport(a, [0.7, 1.0], [False, False], 0).poles, False),
    "StepResponse": (
        np.array([0.0, 0.1]),
        lambda a: StepResponse(a, [[0.0], [0.1]], [[0.0], [0.2]], 0, 1.0, 0.0, False).time, False),
}


class TestReadonlyValueTypes:
    """Value types hold read-only arrays and never freeze the caller's own."""

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_caller_array_stays_writable(self, name):
        values, stored_of, copied = VALUE_TYPES[name]
        caller = values.copy()
        stored = stored_of(caller)
        caller[0] = caller[1]
        with pytest.raises(ValueError):
            stored[0] = stored[1]
        if copied:
            np.testing.assert_array_equal(stored, values)
        else:  # results keep views, not copies
            assert np.shares_memory(stored, caller)
