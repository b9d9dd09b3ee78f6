import numpy as np
import pytest

from dampcert import (
    ConfigurationError,
    DampcertError,
    DynamicNetwork,
    GridTopology,
    Line,
    LineParams,
    LineResonanceError,
    ReductionSingularityError,
    assemble_Y,
    discretize_boundary,
    kron_reduce,
    line_admittance,
    netmodel,
    network_row,
    reduced_network,
    static_network,
    synth,
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
        # non-finite values would disconnect the grid or poison the matrix
        for bad in ({"l": np.inf}, {"l": 1.0, "rho": np.nan}, {"l": 1.0, "rho": np.inf},
                    {"l": 1.0, "stiffness": np.inf}):
            with pytest.raises(ConfigurationError):
                LineParams(**bad)


class TestTopology:
    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            GridTopology(["a", "b"], ["gfm", "gfm"], [], [])
        # nor a nominal frequency that is not finite and positive
        for omega0 in (np.inf, np.nan, 0.0):
            with pytest.raises(ConfigurationError):
                GridTopology(["a", "b"], ["gfm", "gfm"], [], [("a", "b", LineParams(l=1.0))], omega0)

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
        with pytest.raises(ConfigurationError):
            synth.random_topology(np.random.default_rng(0), 0)
        with pytest.raises(ConfigurationError):
            synth.ring_topology(3, 0)
        with pytest.raises(ConfigurationError):
            synth.ring_topology(3, 4)


def _mixed_lines(top, rng):
    """top with a random rho and stiffness on every line, and a parallel
    line of another rho beside every third line."""
    lines = []
    for k, ln in enumerate(top.lines):
        rho = float(rng.choice([0.0, 0.05, 0.5, 1.3]))
        lines.append(Line(ln.a, ln.b, LineParams(ln.params.l, rho, float(rng.uniform(0.5, 2.0)))))
        if k % 3 == 0:
            lines.append(Line(ln.a, ln.b, LineParams(float(rng.uniform(0.3, 3.0)), rho + 0.7)))
    return GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, lines)


def _oracle_error(top, i, pts):
    with pytest.raises(DampcertError) as exc:
        for s in pts:
            network_row(reduced_network(top, s), i)
    return exc.value


def _classed_lines(top, rng, rhos, mixed):
    """top with every line in class rhos[0] (random stiffness), plus one
    line from each node of `mixed` to a random device and one line between
    the first and last device per further class, so that exactly the nodes
    of `mixed` are interior nodes with lines of two classes."""
    lines = [Line(ln.a, ln.b, LineParams(ln.params.l, rhos[0], float(rng.uniform(0.5, 2.0))))
             for ln in top.lines]
    devices = top.device_nodes
    for k, x in enumerate(mixed):
        rho = rhos[1 + k % (len(rhos) - 1)]
        lines.append(Line(x, devices[rng.integers(len(devices))],
                          LineParams(float(rng.uniform(0.3, 3.0)), rho)))
    for rho in rhos[1:]:
        lines.append(Line(devices[0], devices[-1], LineParams(float(rng.uniform(0.3, 3.0)), rho)))
    return GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, lines)


class TestDynamicRowEquivalence:
    """DynamicNetwork.row_series, and DynamicNetwork.rows over all devices
    at once, against the per-sample oracle network_row(reduced_network(top,
    s), i), for every device, with the default chunks and with chunks of a
    few samples.

    The reduction runs in stages, so its near-singular rule is its own:
    interior nodes whose lines share the base rho are eliminated once, by
    kron_reduce's rule on the base Laplacian, and a failed pivot raises at
    the first sample.  Mixed interior nodes are eliminated per sample after
    them, last first, and fail at a sample where a pivot of the
    base-reduced matrix falls below PIVOT_REL_TOL * max|Y(s)| of the whole
    unreduced matrix.  With one rho value, or one interior node, this is
    kron_reduce's rule at every sample, and the errors below agree with
    the oracle's.
    """

    @pytest.fixture(autouse=True, params=[None, 40], ids=["default_chunks", "small_chunks"])
    def chunks(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(netmodel, "ROW_CHUNK_ELEMENTS", request.param)

    @pytest.fixture(scope="class")
    def pts(self, std_domain):
        rng = np.random.default_rng(11)
        off_axis = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-4.0, 4.0, 40)
        return np.concatenate([discretize_boundary(std_domain, 0.1).points, off_axis])

    @staticmethod
    def _assert_matches(top, pts):
        Ns = [reduced_network(top, s) for s in pts]
        # the stacked call in reverse device order, with a repeated device
        order = [0, *range(top.n_devices - 1, -1, -1)]
        stacked = DynamicNetwork(top).rows(order, pts)
        for i in range(top.n_devices):
            diag, off = DynamicNetwork(top).row_series(i, pts)
            ref_diag, ref_off = zip(*(network_row(N, i) for N in Ns))
            np.testing.assert_allclose(diag, ref_diag, rtol=1e-12, atol=0)
            np.testing.assert_allclose(off, ref_off, rtol=1e-12, atol=0)
            for r in np.flatnonzero(np.equal(order, i)):
                np.testing.assert_allclose(stacked[0][r], ref_diag, rtol=1e-12, atol=0)
                np.testing.assert_allclose(stacked[1][r], ref_off, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_rings(self, pts, n):
        self._assert_matches(synth.ring_topology(n, 1, l=0.8), pts)

    @pytest.mark.parametrize("interior", [False, True])
    def test_random_topologies(self, pts, interior):
        rng = np.random.default_rng(5 + interior)
        for _ in range(4):
            n = int(rng.integers(2, 9))
            top = synth.random_topology(rng, n, n // 2 if interior else 0)
            self._assert_matches(_mixed_lines(top, rng), pts)

    @pytest.mark.parametrize("hub", ["c", "x"])
    def test_parallel_lines_with_different_rho(self, pts, hub):
        # parallel lines differ in phase, so they are summed before abs
        interior = ("x",) if hub == "x" else ()
        lines = [
            ("a", "b", LineParams(l=1.0)),
            ("a", "b", LineParams(l=0.6, rho=1.3, stiffness=1.4)),
            ("a", hub, LineParams(l=0.9, rho=0.5)),
            ("b", hub, LineParams(l=1.1)),
            ("a", hub, LineParams(l=2.0, rho=0.05, stiffness=0.6)),
        ]
        if interior:
            lines += [("x", "c", LineParams(l=0.7, rho=0.5)), ("x", "c", LineParams(l=1.5))]
        top = GridTopology(["a", "b", "c"], ["gfm", "gfl", "gfl"], interior, lines)
        self._assert_matches(top, pts)

    @pytest.mark.parametrize("interior", [(), ("x",)])
    def test_resonance_of_a_remote_line(self, pts, interior):
        # line c-d resonates at -rho + j*omega0; device a has no part in it
        nodes = ["a", "b", "c", "d"]
        lines = [("a", "b", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0)),
                 ("c", "d", LineParams(l=0.5, rho=0.5)), ("d", "a", LineParams(l=1.0))]
        lines += [(n, "x", LineParams(l=2.0)) for n in nodes if interior]
        top = GridTopology(nodes, ["gfm", "gfm", "gfl", "gfl"], interior, lines)
        hit = np.concatenate([pts[:30], [-0.5 + 1j], pts[30:]])
        err = _oracle_error(top, 0, hit)
        assert isinstance(err, LineResonanceError)
        with pytest.raises(LineResonanceError) as exc:
            DynamicNetwork(top).row_series(0, hit)
        assert exc.value.s == err.s == -0.5 + 1j

    @pytest.mark.parametrize("stiff", [False, True])
    def test_singular_interior_pivot(self, pts, stiff):
        # the two lines of x cancel where 2 s^2 + 2 s + 3 = 0.  A stiff line
        # far from x raises max|Y(s)|, so a pivot 1e-4 away from the zero
        # already fails the rule, which takes the scale from the whole matrix.
        s_zero = -0.5 + 1j * np.sqrt(5.0) / 2.0
        lines = [
            ("a", "x", LineParams(l=1.0)),
            ("b", "x", LineParams(l=1.0, rho=1.0)),
            ("a", "c", LineParams(l=1.0)),
            ("b", "c", LineParams(l=1.0)),
        ]
        if stiff:
            lines.append(("c", "d", LineParams(l=1e-8)))
        top = GridTopology(["a", "b", "c", "d"][: 3 + stiff], ["gfm"] * (3 + stiff), ["x"], lines)
        hit = np.concatenate([pts[:30], [s_zero + (1e-4 if stiff else 0.0)], pts[30:]])
        for i in range(top.n_devices):
            err = _oracle_error(top, i, hit)
            assert isinstance(err, ReductionSingularityError) and err.node == "x"
            with pytest.raises(ReductionSingularityError) as exc:
                DynamicNetwork(top).row_series(i, hit)
            assert exc.value.node == "x"
        self._assert_matches(top, pts)

    @pytest.mark.parametrize("share", [0.5, 1.0], ids=["some_mixed", "all_mixed"])
    @pytest.mark.parametrize("rhos", [(0.0, 0.5), (0.05, 1.3, 0.5)], ids=["R2", "R3"])
    def test_interior_nodes_of_several_classes(self, pts, rhos, share):
        rng = np.random.default_rng(len(rhos) + int(10 * share))
        for _ in range(3):
            n = int(rng.integers(2, 8))
            top = synth.random_topology(rng, n, n // 2 + 2)
            mixed = top.interior_nodes[: round(share * len(top.interior_nodes))]
            top = _classed_lines(top, rng, rhos, mixed)
            provider = DynamicNetwork(top)
            assert len(provider.rho) == len(rhos)
            assert provider.mixed_names == list(mixed)
            self._assert_matches(top, pts)

    def test_singular_base_pivot_fails_at_first_sample(self, pts):
        # one rho value: every pivot and max|Y(s)| carry the factor g(s), so
        # with a stiff line elsewhere x fails the rule at every sample
        lines = [("a", "x", LineParams(l=1.0)), ("b", "x", LineParams(l=1.0)),
                 ("a", "c", LineParams(l=1.0)), ("c", "d", LineParams(l=1e-11))]
        top = GridTopology(["a", "b", "c", "d"], ["gfm"] * 4, ["x"], lines)
        assert DynamicNetwork(top).mixed_names == []
        for i in range(top.n_devices):
            err = _oracle_error(top, i, pts[:1])
            assert isinstance(err, ReductionSingularityError) and err.node == "x"
            with pytest.raises(ReductionSingularityError) as exc:
                DynamicNetwork(top).row_series(i, pts[:1])
            assert exc.value.node == "x"
        # a resonance at the first sample comes first, as in reduced_network
        hit = np.concatenate([[1j], pts])
        assert isinstance(_oracle_error(top, 0, hit), LineResonanceError)
        with pytest.raises(LineResonanceError) as exc:
            DynamicNetwork(top).row_series(0, hit)
        assert exc.value.s == 1j

    @pytest.mark.parametrize("first", ["resonance", "singular"])
    def test_stacked_rows_fail_at_first_failing_sample(self, pts, first):
        # x has lines of rho 0 and 1, so it is mixed and eliminated per
        # sample; it is singular at s_zero, and the rho = 1 lines resonate
        # at -1 + j.  Every device fails at the same sample, which comes
        # first, so the stacked call raises what each device's oracle does.
        s_zero = -0.5 + 1j * np.sqrt(5.0) / 2.0
        lines = [("a", "x", LineParams(l=1.0)), ("b", "x", LineParams(l=1.0, rho=1.0)),
                 ("a", "c", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0))]
        top = GridTopology(["a", "b", "c"], ["gfm"] * 3, ["x"], lines)
        assert DynamicNetwork(top).mixed_names == ["x"]
        bad = [-1.0 + 1j, s_zero] if first == "resonance" else [s_zero, -1.0 + 1j]
        hit = np.concatenate([pts[:20], bad[:1], pts[20:30], bad[1:], pts[30:]])
        errors = {(type(e), str(e)) for e in (_oracle_error(top, i, hit) for i in range(3))}
        assert len(errors) == 1
        (kind, message), = errors
        assert kind is (LineResonanceError if first == "resonance" else ReductionSingularityError)
        with pytest.raises(DampcertError) as exc:
            DynamicNetwork(top).rows([2, 0, 1], hit)
        assert (type(exc.value), str(exc.value)) == (kind, message)

    def test_out_of_range(self, pts):
        for i in (3, -1):
            with pytest.raises(ConfigurationError, match=f"device index {i} out of range"):
                DynamicNetwork(synth.ring_topology(3, 1)).row_series(i, pts)
            with pytest.raises(ConfigurationError, match=f"device index {i} out of range"):
                DynamicNetwork(synth.ring_topology(3, 1)).rows([0, i, 1], pts)
