import hashlib
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from dampcert import (
    CertificateInapplicableError,
    ConfigurationError,
    DampcertError,
    DynamicNetwork,
    GfmParams,
    GridTopology,
    Line,
    LineParams,
    LineResonanceError,
    ReductionSingularityError,
    StaticNetwork,
    assemble_Y,
    certify_all,
    discretize_boundary,
    kron_reduce,
    line_admittance,
    make_entry,
    network_row,
    reduced_network,
    static_network,
    synth,
)
from dampcert.netmodel import _laplacians
from helpers import exact_kron, kron_by_steps, laplacians_by_lines, triangle_topology


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
        for roles in (["gfl", "gfm"], ["gfm", "gfl", "gfm"], ["gfl", "gfl", "gfm"]):
            nodes = ["a", "b", "c"][: len(roles)]
            lines = [(a, b, LineParams(l=1.0)) for a, b in zip(nodes, nodes[1:])]
            with pytest.raises(ConfigurationError, match="GFM devices must precede GFL devices"):
                GridTopology(nodes, roles, [], lines)
        for roles in (["gfm", "gfm", "gfl"], ["gfl", "gfl", "gfl"], ["gfm", "gfm", "gfm"]):
            GridTopology(["a", "b", "c"], roles, [], [("a", "b", LineParams(l=1.0)),
                                                     ("b", "c", LineParams(l=1.0))])

    def test_parallel_lines_add(self):
        top = GridTopology(
            ["a", "b"],
            ["gfm", "gfm"],
            [],
            [("a", "b", LineParams(l=1.0)), ("a", "b", LineParams(l=1.0))],
        )
        Y = assemble_Y(top, 0.0)
        assert Y[0, 0] == pytest.approx(2.0)


def _line_sum(top, s):
    """The per-line Laplacian: each line's line_admittance added at its
    four entries, line by line; the oracle of assemble_Y's class sum."""
    idx = {n: i for i, n in enumerate(top.all_nodes)}
    Y = np.zeros((len(idx), len(idx)), dtype=complex)
    for ln in top.lines:
        y = line_admittance(ln.params, s, top.omega0)
        i, j = idx[ln.a], idx[ln.b]
        Y[i, i] += y
        Y[j, j] += y
        Y[i, j] -= y
        Y[j, i] -= y
    return Y


class TestAssemble:
    @pytest.mark.parametrize("grid", ["ring", "random", "classes"])
    def test_class_sum_equals_line_sum(self, grid):
        # random: interior nodes, unit lines; classes: four rho values,
        # stiffness != 1, parallel lines of another rho, omega0 != 1
        rng = np.random.default_rng(31)
        if grid == "ring":
            top = synth.ring_topology(9, 4, l=0.8)
        else:
            top = synth.random_topology(rng, 12, 6)
        if grid == "classes":
            top = _mixed_lines(top, rng)
            top = GridTopology(top.device_nodes, top.device_roles, top.interior_nodes,
                               top.lines, omega0=1.7)
        pts = [0.0, 0.35 + 0.0j, *(rng.uniform(-2, 2, 30) + 1j * rng.uniform(-4, 4, 30))]
        for s in pts:
            Y, ref = assemble_Y(top, s), _line_sum(top, s)
            assert Y.dtype == complex
            np.testing.assert_allclose(Y, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        # a resonance of any class raises as the line's admittance does
        for rho in {ln.params.rho for ln in top.lines}:
            s = -rho + 1j * top.omega0
            with pytest.raises(LineResonanceError):
                _line_sum(top, s)
            with pytest.raises(LineResonanceError) as exc:
                assemble_Y(top, s)
            assert exc.value.s == s

    def test_laplacians_equal_entry_by_entry(self):
        # random grids with interior nodes, several rho values, random
        # stiffness and parallel lines: the same bits as one entry at a time
        rng = np.random.default_rng(26)
        for _ in range(24):
            top = synth.random_topology(rng, int(rng.integers(2, 12)), int(rng.integers(1, 8)))
            top = _mixed_lines(top, rng)
            (rho, W), (ref_rho, ref_W) = _laplacians(top), laplacians_by_lines(top)
            assert len(rho) > 1 and rho.dtype == W.dtype == np.float64
            assert rho.tobytes() == ref_rho.tobytes() and W.tobytes() == ref_W.tobytes()

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
        # after a live interior node c, the null vector of the block names it
        Y = np.zeros((4, 4))
        Y[:3, :3] = [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]
        with pytest.raises(ReductionSingularityError) as exc:
            kron_reduce(Y, [2, 3], node_names=["a", "b", "c", "dead"])
        assert exc.value.node == "dead"

    def test_schur_determinant_identity(self):
        # and kron_reduce equals the node-by-node reference, on the complex
        # matrix at s and, in real arithmetic, on each class Laplacian
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
            np.testing.assert_allclose(N, kron_by_steps(Y, ii), rtol=1e-12, atol=0)
            for W in np.moveaxis(_laplacians(top)[1], 2, 0):
                reduced = kron_reduce(W, ii)
                assert reduced.dtype == np.float64
                np.testing.assert_allclose(reduced, kron_by_steps(W, ii), rtol=1e-12, atol=0)


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

    def test_random_topology_pinned(self):
        """The generator's draws, and what it leaves of the stream, for a
        few seeds and sizes: the digest of the exact reprs recorded before
        the duplicate-line test became a set lookup."""
        parts = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for n, k, p in [(1, 0, 0.3), (5, 0, 0.3), (20, 10, 0.3), (54, 27, 0.1), (100, 50, 0.3)]:
                top = synth.random_topology(rng, n, k, p)
                pairs = [frozenset((ln.a, ln.b)) for ln in top.lines]
                assert len(set(pairs)) == len(pairs)
                parts.append(repr(top))
            parts.append(repr(rng.random()))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]
        assert digest == "df40ec414a0ed30e"


def _interior_groups(top):
    """Interior node -> group number, one group per set of interior nodes
    joined by lines between interior nodes."""
    group = {x: k for k, x in enumerate(top.interior_nodes)}
    for ln in top.lines:
        if ln.a in group and ln.b in group:
            old, new = group[ln.a], group[ln.b]
            group = {x: new if g == old else g for x, g in group.items()}
    return group


def _mixed_lines(top, rng):
    """top with a random rho and stiffness on every line, and a parallel
    line beside every third line, of another rho between devices.  The
    lines of an interior node all have its group's rho, 0.1 + 0.3 times
    the group number, so that interior nodes are of one class each and
    unlinked ones of different classes."""
    group = _interior_groups(top)
    lines = []
    for k, ln in enumerate(top.lines):
        rho = float(rng.choice([0.0, 0.05, 0.5, 1.3]))
        node = ln.a if ln.a in group else ln.b
        rho, other = (0.1 + 0.3 * group[node],) * 2 if node in group else (rho, rho + 0.7)
        lines.append(Line(ln.a, ln.b, LineParams(ln.params.l, rho, float(rng.uniform(0.5, 2.0)))))
        if k % 3 == 0:
            lines.append(Line(ln.a, ln.b, LineParams(float(rng.uniform(0.3, 3.0)), other)))
    return GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, lines)


def _oracle_error(top, i, pts):
    with pytest.raises(DampcertError) as exc:
        for s in pts:
            network_row(reduced_network(top, s), i)
    return exc.value


def _classed_interior(top, rng, rhos, n_interior, mixed=0):
    """top (no interior nodes) with its lines in class rhos[0] (random
    stiffness), one line between the first and last device per further
    class, and interior nodes x0, x1, ... where xk has lines of class
    rhos[k % R] only: to two random devices, and to x(k - R) if there is
    one.  The first `mixed` of them also get a line of the next class to a
    random device, so that exactly those have lines of two classes."""
    def line(a, b, rho):
        l, stiffness = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.5, 2.0))
        return Line(a, b, LineParams(l, rho, stiffness))

    devices, R = top.device_nodes, len(rhos)
    lines = [line(ln.a, ln.b, rhos[0]) for ln in top.lines]
    lines += [line(devices[0], devices[-1], rho) for rho in rhos[1:]]
    interior = [f"x{k}" for k in range(n_interior)]
    for k, x in enumerate(interior):
        lines += [line(x, d, rhos[k % R]) for d in rng.choice(devices, 2, replace=False)]
        lines += [line(x, interior[k - R], rhos[k % R])] if k >= R else []
        lines += [line(x, rng.choice(devices), rhos[(k + 1) % R])] if k < mixed else []
    return GridTopology(devices, top.device_roles, interior, lines)


class TestDynamicRowEquivalence:
    """DynamicNetwork.row_series against the per-sample oracle
    network_row(reduced_network(top, s), i), for every device, and
    DynamicNetwork.rows over all devices at once against row_series, bit
    for bit.  The rational diagonal entries of diagonal_rows, evaluated at
    the samples, match the oracle's diagonal and the diagonal of rows.

    The interior nodes of each line class are eliminated once, by
    kron_reduce on that class's Laplacian, so a refused node raises when
    the provider is built.  With one rho value this is kron_reduce's rule
    at every sample, and the errors below agree with the oracle's.  An
    interior node with lines of two or more rho values has no per-class
    reduction, and rows refuses it by name.
    """

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
            # a row has the same bits in any device list
            for r in np.flatnonzero(np.equal(order, i)):
                assert stacked[0][r].tobytes() == diag.tobytes()
                assert stacked[1][r].tobytes() == off.tobytes()

    @pytest.mark.parametrize("grid", ["ring", "random", "interior", "classes"])
    def test_diagonal_rows_equal_oracle(self, pts, grid):
        # a ring's devices have two lines of one class each: one merged
        # factor; random lines of three classes; single-class interior
        # nodes; interior nodes of three classes
        rng = np.random.default_rng(21)
        top = synth.random_topology(rng, 9, 0 if grid == "random" else 4)
        if grid == "ring":
            top = synth.ring_topology(7, 3, l=0.8)
        elif grid == "classes":
            top = _classed_interior(synth.random_topology(rng, 7), rng, (0.05, 1.3, 0.5), 6)
        else:
            rhos = [0.0, 0.5, 1.3] if grid == "random" else [0.5]
            top = GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, [
                Line(ln.a, ln.b, LineParams(ln.params.l, float(rng.choice(rhos)),
                                            float(rng.uniform(0.5, 2.0))))
                for ln in top.lines])
        provider = DynamicNetwork(top)
        assert provider.mixed_node is None
        assert bool(top.interior_nodes) == (grid in ("interior", "classes"))
        order = [0, *range(top.n_devices - 1, -1, -1)]
        n_num, n_den = provider.diagonal_rows(order)
        at = npoly.polyval(pts, n_num.T, tensor=True) / npoly.polyval(pts, n_den.T, tensor=True)
        ref = np.array([[reduced_network(top, s)[i, i] for s in pts] for i in order])
        np.testing.assert_allclose(at, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(at, provider.rows(order, pts)[0], rtol=1e-12, atol=0)
        # one line denominator per class present, however many lines it has
        classes = np.count_nonzero(provider.W[order, order], axis=1)
        assert [np.flatnonzero(r)[-1] for r in n_den] == (2 * classes).tolist()

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_rings(self, pts, n):
        self._assert_matches(synth.ring_topology(n, 1, l=0.8), pts)

    @pytest.mark.parametrize("interior", [False, True])
    def test_random_topologies(self, pts, interior):
        rng = np.random.default_rng(5 + interior)
        for _ in range(4):
            n = int(rng.integers(2, 9))
            top = _mixed_lines(synth.random_topology(rng, n, n // 2 if interior else 0), rng)
            assert DynamicNetwork(top).mixed_node is None
            self._assert_matches(top, pts)

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
        if not interior:
            self._assert_matches(top, pts)
            return
        # x has lines of three rho values: no per-class reduction holds
        for call in (lambda p: p.row_series(0, pts), lambda p: p.rows([2, 0], pts)):
            with pytest.raises(CertificateInapplicableError, match="interior node 'x' has lines"):
                call(DynamicNetwork(top))

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

    @pytest.mark.parametrize("rhos", [(0.0, 0.5), (0.05, 1.3, 0.5)], ids=["R2", "R3"])
    def test_interior_nodes_of_several_classes(self, pts, rhos):
        rng = np.random.default_rng(len(rhos))
        for _ in range(3):
            n = int(rng.integers(2, 8))
            top = synth.random_topology(rng, n)
            classed = _classed_interior(top, rng, rhos, n // 2 + 2)
            provider = DynamicNetwork(classed)
            assert len(provider.rho) == len(rhos) and provider.mixed_node is None
            self._assert_matches(classed, pts)
            # a line of another class at x0 (and at x1) refuses them; x0 is named
            mixed = _classed_interior(top, rng, rhos, n // 2 + 2, mixed=int(rng.integers(1, 3)))
            with pytest.raises(CertificateInapplicableError, match="interior node 'x0' has lines"):
                DynamicNetwork(mixed).rows(range(n), pts)

    def test_mixed_node_named_first(self, pts):
        # y is mixed, x is not: the refusal names y, for every device list
        lines = [("a", "x", LineParams(l=1.0)), ("b", "x", LineParams(l=1.0)),
                 ("a", "y", LineParams(l=1.0, rho=0.5)), ("b", "y", LineParams(l=2.0))]
        top = GridTopology(["a", "b"], ["gfm", "gfl"], ["x", "y"], lines)
        provider = DynamicNetwork(top)
        calls = (lambda: provider.row_series(1, pts), lambda: provider.rows([0, 1], pts[:0]),
                 lambda: provider.diagonal_rows([1, 0]))
        for call in calls:
            with pytest.raises(CertificateInapplicableError, match="interior node 'y' has lines"):
                call()

    @staticmethod
    def _assert_exact(top, pts):
        # both providers serve top, and their weights equal an exact
        # reduction of what they reduce: each class Laplacian W_r, Y(0)
        dynamic, static = DynamicNetwork(top), StaticNetwork.from_topology(top)
        nd, all_nodes = top.n_devices, range(len(top.all_nodes))
        W = _laplacians(top)[1]
        for r in range(W.shape[2]):
            inner = [k for k in all_nodes[nd:] if np.any(W[k, :, r])]
            ref = exact_kron(W[:, :, r], inner)[:nd, :nd]
            np.testing.assert_allclose(dynamic.W[:, :, r], ref, rtol=1e-12, atol=0)
        ref = exact_kron(assemble_Y(top, 0.0).real, all_nodes[nd:])
        np.testing.assert_allclose(static.matrix, ref, rtol=1e-12, atol=0)
        TestDynamicRowEquivalence._assert_matches(top, pts)

    def test_stiff_line_of_the_base_class_refuses_no_node(self, pts):
        # a 1e-11 line between devices c and d leaves x, whose block is
        # [[2]], its whole pivot: the rule is local to each node
        lines = [("a", "x", LineParams(l=1.0)), ("b", "x", LineParams(l=1.0)),
                 ("a", "c", LineParams(l=1.0)), ("c", "d", LineParams(l=1e-11))]
        self._assert_exact(GridTopology(["a", "b", "c", "d"], ["gfm"] * 4, ["x"], lines), pts)

    def test_stiff_line_of_a_later_class_refuses_no_node(self, pts):
        # x has lines of rho 0.5 only, beside a stiff rho 0.5 line between
        # devices; y, of class rho 0, reduces too
        lines = [("a", "y", LineParams(l=1.0)), ("b", "y", LineParams(l=1.0)),
                 ("a", "x", LineParams(l=1.0, rho=0.5)), ("b", "x", LineParams(l=1.0, rho=0.5)),
                 ("a", "c", LineParams(l=1.0)), ("c", "d", LineParams(l=1e-11, rho=0.5))]
        self._assert_exact(GridTopology(["a", "b", "c", "d"], ["gfm"] * 4, ["y", "x"], lines), pts)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_bus_coupler_refused_when_built(self, pts, rho):
        # a 1e-11 coupler y1-y2 between unit lines leaves y1 a pivot of
        # about 2 on a diagonal of 1e11: the reduction would lose about 11
        # digits, so both providers and the oracle refuse y1 (of class rho,
        # beside a rho 0 line a-b), before any sample
        lines = [("a", "b", LineParams(l=1.0)), ("a", "y1", LineParams(l=1.0, rho=rho)),
                 ("y1", "y2", LineParams(l=1e-11, rho=rho)),
                 ("y2", "b", LineParams(l=1.0, rho=rho))]
        top = GridTopology(["a", "b"], ["gfm", "gfl"], ["y1", "y2"], lines)
        calls = (lambda: DynamicNetwork(top), lambda: StaticNetwork.from_topology(top),
                 lambda: reduced_network(top, pts[0]))
        for call in calls:
            with pytest.raises(ReductionSingularityError) as exc:
                call()
            assert exc.value.node == "y1"

    def test_stacked_rows_fail_at_first_failing_sample(self, pts):
        # x has lines of rho 0 only, and the rho = 1 lines b-c resonate at
        # -1 + j.  Every device fails at that sample, so the stacked call
        # raises what each device's oracle does.
        lines = [("a", "x", LineParams(l=1.0)), ("b", "x", LineParams(l=1.0)),
                 ("a", "c", LineParams(l=1.0)), ("b", "c", LineParams(l=1.0, rho=1.0))]
        top = GridTopology(["a", "b", "c"], ["gfm"] * 3, ["x"], lines)
        hit = np.concatenate([pts[:20], [-1.0 + 1j], pts[20:]])
        errors = {(type(e), str(e)) for e in (_oracle_error(top, i, hit) for i in range(3))}
        assert errors == {(LineResonanceError, str(LineResonanceError(-1.0 + 1j)))}
        with pytest.raises(LineResonanceError) as exc:
            DynamicNetwork(top).rows([2, 0, 1], hit)
        assert str(exc.value) == str(LineResonanceError(-1.0 + 1j))
        self._assert_matches(top, pts)

    def test_out_of_range(self, pts):
        for i in (3, -1):
            with pytest.raises(ConfigurationError, match=f"device index {i} out of range"):
                DynamicNetwork(synth.ring_topology(3, 1)).row_series(i, pts)
            with pytest.raises(ConfigurationError, match=f"device index {i} out of range"):
                DynamicNetwork(synth.ring_topology(3, 1)).rows([0, i, 1], pts)

    def test_empty_device_list_with_a_resonance(self, pts):
        # a resonance is no error without devices, and no zero is divided by
        top = synth.ring_topology(3, 1)
        hit = np.concatenate([pts[:5], [1j], pts[5:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag, off = DynamicNetwork(top).rows([], hit)
        assert diag.shape == off.shape == (0, len(hit))

    @pytest.mark.parametrize("interior", [0, 4])
    def test_one_class_rows_are_g_times_static_rows(self, pts, interior):
        # with one rho value N(s) = g(s) W, W the reduced weights, so the
        # static provider over W serves the same rows up to the factor g
        rng = np.random.default_rng(12 + interior)
        top = synth.random_topology(rng, 9, interior)
        top = GridTopology(top.device_nodes, top.device_roles, top.interior_nodes, [
            Line(ln.a, ln.b, LineParams(ln.params.l, 0.5, float(rng.uniform(0.5, 2.0))))
            for ln in top.lines], omega0=1.3)
        dynamic = DynamicNetwork(top)
        static = StaticNetwork(dynamic.W[:, :, 0])
        g = top.omega0 / (pts * pts + 2.0 * 0.5 * pts + (top.omega0**2 + 0.5**2))
        order = [4, 0, 8, 4]
        for got, ref in zip(dynamic.rows(order, pts), static.rows(order, pts)):
            assert ref.shape == (len(order), 1)
            np.testing.assert_allclose(got, ref * (np.abs(g) if np.isrealobj(got) else g),
                                       rtol=1e-15, atol=0)
        # the diagonal entry W_ii omega0 / (s^2 + s + omega0^2 + 0.25)
        (n_num, n_den), (s_num, s_den) = dynamic.diagonal_rows(order), static.diagonal_rows(order)
        assert n_num[:, 0].tolist() == (s_num[:, 0] * top.omega0).tolist()
        assert not np.any(n_num[:, 1:]) and not np.any(s_den - 1.0)
        assert n_den.tolist() == [[top.omega0**2 + 0.25, 1.0, 1.0]] * len(order)

    @pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-4])
    def test_cancelled_class_adds_no_diagonal_pole(self, scale):
        # x hangs off device a alone, so the reduced rho 0.2 weights cancel,
        # to a residue such as 4.4e-16 on a's diagonal: the rho 0.2 poles
        # -0.2 +/- j are no poles of the exact entry and stay out of n_den
        for l in np.random.default_rng(4).uniform(0.3, 3.0, 200):
            lines = [("a", "b", LineParams(l=scale, rho=0.5)),
                     ("a", "x", LineParams(l=l * scale, rho=0.2))]
            provider = DynamicNetwork(GridTopology(["a", "b"], ["gfm", "gfm"], ["x"], lines))
            assert np.max(np.abs(provider.W[:, :, 0])) <= 1e-14 / scale
            n_num, n_den = provider.diagonal_rows([0, 1])
            assert n_den.tolist() == [[1.25, 1.0, 1.0]] * 2
            assert n_num.tolist() == [[1.0 / scale]] * 2

    def test_cancelled_stiff_class_adds_no_diagonal_pole(self, std_domain, std_samples):
        # the cancelled rho 0.2 leaf line is 1e6 to 1e8 times stiffer than
        # a's other line, so its residue (~1e-12) dwarfs a floor taken from
        # the reduced weights; a floor from the unreduced W_r[a, a] drops it
        # and every verdict equals that of the network without the leaf
        entries = [make_entry(GfmParams(0.5, 8.0))] * 2
        rng = np.random.default_rng(0)
        kept = changed = 0
        for l_ab in (1e2, 1e4):
            ab = ("a", "b", LineParams(l=l_ab, rho=0.5))
            bare = DynamicNetwork(GridTopology(["a", "b"], ["gfm", "gfm"], [], [ab]))
            ref = [(r.passed, r.nonvanishing) for r in certify_all(entries, bare, std_domain,
                                                                    std_samples)]
            for l in rng.uniform(0.3, 3.0, 200) * 1e-4:
                lines = [ab, ("a", "x", LineParams(l=l, rho=0.2))]
                leaf = DynamicNetwork(GridTopology(["a", "b"], ["gfm", "gfm"], ["x"], lines))
                kept += leaf.diagonal_rows([0])[1].shape[1] > 3
                got = certify_all(entries, leaf, std_domain, std_samples)
                changed += [(r.passed, r.nonvanishing) for r in got] != ref
        assert (kept, changed) == (0, 0)

    def test_rows_read_only_what_the_build_fixed(self, pts):
        # the topology's lines are not read after the build
        rng = np.random.default_rng(8)
        top = _mixed_lines(synth.random_topology(rng, 6, 0), rng)
        provider = DynamicNetwork(top)
        before = provider.rows([4, 0, 4], pts), provider.diagonal_rows([5, 1])
        object.__setattr__(top, "lines", ())
        after = provider.rows([4, 0, 4], pts), provider.diagonal_rows([5, 1])
        for x, y in zip(before, after):
            assert x[0].tobytes() == y[0].tobytes() and x[1].tobytes() == y[1].tobytes()
