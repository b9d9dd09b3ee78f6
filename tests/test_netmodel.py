import numpy as np
import pytest

from dampcert import (
    ConfigurationError,
    GridTopology,
    LineParams,
    LineResonanceError,
    ReductionSingularityError,
    assemble_Y,
    kron_reduce,
    line_admittance,
    network_row,
    reduced_network,
    static_network,
)
from helpers import triangle_topology


def star_topology():
    # two devices connected through an interior center node, unit legs
    return GridTopology(
        ["g0", "g1"],
        ["gfm", "gfm"],
        ["c"],
        [("g0", "c", LineParams(l=1.0)), ("g1", "c", LineParams(l=1.0))],
        omega0=1.0,
    )


class TestLineAdmittance:
    def test_unit_parameters_dc(self):
        assert line_admittance(LineParams(l=1.0), 0.0, 1.0) == pytest.approx(1.0)

    def test_resonance(self):
        with pytest.raises(LineResonanceError):
            line_admittance(LineParams(l=1.0), 1j, 1.0)

    def test_dc_scaling(self):
        assert line_admittance(LineParams(l=0.5), 0.0, 1.0) == pytest.approx(2.0)

    def test_conjugate_symmetry(self):
        line = LineParams(l=0.7, rho=0.3)
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = complex(rng.normal(), rng.normal())
            a = line_admittance(line, s, 1.0)
            b = line_admittance(line, np.conj(s), 1.0)
            assert b == pytest.approx(np.conj(a))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            LineParams(l=-1.0)
        with pytest.raises(ConfigurationError):
            LineParams(l=1.0, rho=-0.1)


class TestTopology:
    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            GridTopology(["a", "b"], ["gfm", "gfm"], [], [])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "a", LineParams(l=1.0))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            GridTopology(["a", "a"], ["gfm", "gfm"], [], [("a", "a", LineParams(l=1.0))])

    def test_gfl_before_gfm_rejected(self):
        with pytest.raises(ConfigurationError):
            GridTopology(
                ["a", "b"], ["gfl", "gfm"], [], [("a", "b", LineParams(l=1.0))]
            )

    def test_parallel_lines_add(self):
        top = GridTopology(
            ["a", "b"],
            ["gfm", "gfm"],
            [],
            [("a", "b", LineParams(l=1.0)), ("a", "b", LineParams(l=1.0))],
        )
        Y = assemble_Y(top, 0.0)
        assert Y[0, 0] == pytest.approx(2.0)


class TestAssemble:
    def test_single_edge_laplacian(self):
        top = GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "b", LineParams(l=1.0))])
        Y = assemble_Y(top, 0.0)
        np.testing.assert_allclose(Y.real, [[1, -1], [-1, 1]])

    def test_star(self):
        Y = assemble_Y(star_topology(), 0.0)
        np.testing.assert_allclose(Y.real, [[1, 0, -1], [0, 1, -1], [-1, -1, 2]])

    def test_symmetry_and_row_sums_random(self):
        rng = np.random.default_rng(1)
        top = triangle_topology()
        for _ in range(20):
            s = complex(rng.normal(), rng.normal())
            Y = assemble_Y(top, s)
            assert np.allclose(Y, Y.T)
            scale = np.max(np.abs(Y))
            assert np.max(np.abs(Y.sum(axis=1))) <= 1e-10 * scale


class TestKronReduce:
    def test_star_schur(self):
        Y = assemble_Y(star_topology(), 0.0)
        N = kron_reduce(Y, [2])
        np.testing.assert_allclose(N.real, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)

    def test_empty_interior_identity(self):
        Y = np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=complex)
        np.testing.assert_allclose(kron_reduce(Y, []), Y)

    def test_zero_pivot_named(self):
        Y = np.zeros((3, 3), dtype=complex)
        Y[:2, :2] = [[1, -1], [-1, 1]]
        with pytest.raises(ReductionSingularityError) as exc:
            kron_reduce(Y, [2], node_names=["a", "b", "dead"])
        assert exc.value.node == "dead"

    def test_schur_determinant_identity(self):
        rng = np.random.default_rng(2)
        from dampcert import synth

        for _ in range(20):
            n_dev = int(rng.integers(2, 6))
            n_int = int(rng.integers(1, 4))
            top = synth.random_topology(rng, n_dev, n_interior=n_int)
            s = complex(rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0))
            Y = assemble_Y(top, s)
            ii = list(range(n_dev, n_dev + n_int))
            Yii = Y[np.ix_(ii, ii)]
            N = kron_reduce(Y, ii)
            lhs = np.linalg.det(Y)
            rhs = np.linalg.det(Yii) * np.linalg.det(N)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


class TestStaticNetwork:
    def test_two_device_line(self):
        top = GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "b", LineParams(l=0.5))])
        np.testing.assert_allclose(static_network(top), [[2, -2], [-2, 2]])

    def test_triangle_row_sums(self):
        N = static_network(triangle_topology())
        assert np.max(np.abs(N.sum(axis=1))) <= 1e-9

    def test_unit_triangle(self):
        top = GridTopology(
            ["a", "b", "c"],
            ["gfm", "gfm", "gfm"],
            [],
            [
                ("a", "b", LineParams(l=1.0)),
                ("b", "c", LineParams(l=1.0)),
                ("a", "c", LineParams(l=1.0)),
            ],
        )
        np.testing.assert_allclose(
            static_network(top), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], atol=1e-14
        )

    def test_matches_pointwise_at_zero(self):
        top = star_topology()
        N1 = static_network(top)
        N2 = reduced_network(top, 0.0)
        np.testing.assert_allclose(N1, N2.real)
        assert np.max(np.abs(N2.imag)) == 0.0


class TestNetworkRow:
    def test_direct_read(self):
        N = np.array([[2.0, -2.0], [-2.0, 2.0]])
        diag, off = network_row(N, 0)
        assert (diag, off) == (2.0, 2.0)

    def test_identity(self):
        diag, off = network_row(np.eye(3), 1)
        assert (diag, off) == (1.0, 0.0)

    def test_triangle(self):
        N = np.array([[2.0, -1, -1], [-1, 2.0, -1], [-1, -1, 2.0]])
        assert network_row(N, 1) == (2.0, 2.0)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            network_row(np.eye(2), 5)


class TestSynthValidation:
    def test_bad_sizes_are_configuration_errors(self):
        from dampcert import synth

        with pytest.raises(ConfigurationError):
            synth.random_topology(np.random.default_rng(0), 0)
        with pytest.raises(ConfigurationError):
            synth.ring_topology(3, 0)
        with pytest.raises(ConfigurationError):
            synth.ring_topology(3, 4)
