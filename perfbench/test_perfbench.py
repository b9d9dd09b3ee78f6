"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench

Each workload runs one traced pass at the default seed (about 40 s in
all).
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402  (puts the checkout's src/ on sys.path)
import layertrace  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED

SWEEP_BUSY = (
    "ratcalc.shifted", "ratcalc.hurwitz_classification", "ratcalc.roots",
    "devices.make_entry", "devices.check_entry_analytic", "certify.feasible_region",
    "certify.nonvanishing", "certify.sweep_all", "cli",
)
SWEEP_IDLE = (
    "netmodel.reduced_network", "certify.row_series", "certify.boundary_certificate",
    "certify.certify_all", "analysis.closed_loop_poles", "analysis.step_response",
    "analysis.screen_poles",
)
#: (busy spans, idle spans) predicted per workload
PREDICTED = {
    "sweep_shipped": (SWEEP_BUSY, SWEEP_IDLE),
    "sweep_pll": (SWEEP_BUSY, SWEEP_IDLE),
    "dynamic_ladder": (
        ("netmodel.assemble_Y", "netmodel.kron_reduce", "netmodel.reduced_network",
         "certify.row_series", "certify.boundary_certificate", "ratcalc.roots"),
        ("certify.feasible_region", "certify.sweep_all", "analysis.closed_loop_poles",
         "analysis.step_response", "analysis.screen_poles", "cli"),
    ),
    "validate": (
        ("cli", "analysis.closed_loop_poles", "analysis.step_response", "analysis.screen_poles",
         "certify.certify_all", "certify.boundary_certificate", "netmodel.static_network"),
        ("certify.feasible_region", "certify.sweep_all", "netmodel.reduced_network",
         "certify.row_series"),
    ),
}


def traced_pass(name, work):
    """One traced pass of a workload; returns (per-layer metrics, pass
    results, failures)."""
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ops = workloads.WORKLOADS[name](SEED, work, traced=True)
        tracer.active = False
        tracer.phase = "pass"
        refs = workloads.references(name, ops, SEED)
        failures = []
        results = bench.run_pass(ops, refs, tracer, failures)
    finally:
        tracer.uninstall()
    wall = sum(dt for _, dt, _ in results)
    return tracer.layer_metrics([wall], [wall]), results, failures


def bench_metric_names():
    names = {f"{s}.{k}" for s in layertrace.SPAN_NAMES for k in ("calls", "busy_s", "self_s")}
    return names | {name for name, _ in layertrace.COUNT_METRICS}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = traced_pass(name, tmp_path_factory.mktemp(name))
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(PREDICTED))
def test_layers_busy_and_idle_as_predicted(passes, name):
    metrics, results, failures = passes(name)
    assert failures == []
    assert all(ok for _, _, ok in results)
    busy, idle = PREDICTED[name]
    for span in busy:
        assert metrics[f"{span}.calls"][0] > 0, span
    for span in idle:
        assert metrics[f"{span}.calls"][0] == 0, span
    assert metrics["certify.sweep_all.pool_starts"][0] == 0
    assert set(metrics) == bench_metric_names()


def test_roots_split_by_caller(passes):
    metrics, _, _ = passes("sweep_shipped")
    screen = metrics["ratcalc.roots.screen_calls"][0]
    fallback = metrics["ratcalc.roots.fallback_calls"][0]
    assert screen > 0 and fallback > 0
    assert screen + fallback == metrics["ratcalc.roots.calls"][0]
    routh = metrics["ratcalc.hurwitz_classification.calls"][0]
    assert metrics["certify.nonvanishing.roots_fallback_ratio"][0] == pytest.approx(fallback / routh)


def test_spans_reach_names_bound_by_import():
    import dampcert.certify
    import dampcert.config
    import dampcert.devices

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = dampcert.devices.check_entry_analytic
        assert dampcert.certify.check_entry_analytic is wrapped
        assert dampcert.config.make_entry is dampcert.devices.make_entry
        assert dampcert.certify.reduced_network is dampcert.netmodel.reduced_network
        assert dampcert.certify.hurwitz_classification is dampcert.ratcalc.hurwitz_classification
        assert getattr(wrapped, "__wrapped__", None) is not None
    finally:
        tracer.uninstall()
    assert not hasattr(dampcert.certify.check_entry_analytic, "__wrapped__")


def test_pool_runs_only_in_sweep_shipped(tmp_path):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        op = workloads.setup_sweep_shipped(SEED, tmp_path)[0]
        tracer.active = True
        assert op.run() == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["certify.sweep_all.pool_starts"] == 1


def test_ladder_shows_ill_conditioned_roots(tmp_path):
    # seed 5 meets poorly conditioned diagonal polynomials; of seeds 0-9,
    # seven do (seed 0 does not)
    ops = [op for op in workloads.setup_dynamic_ladder(5, tmp_path)
           if not op.name.startswith("interior")]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        with pytest.warns(RuntimeWarning, match="poorly conditioned roots"):
            for op in ops:
                op.run()
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["ratcalc.roots.ill_conditioned"] > 0


def test_ill_conditioned_roots_counted_not_silenced(monkeypatch):
    from dampcert import ratcalc

    monkeypatch.setattr(ratcalc, "ROOT_RESIDUAL_TOL", -1.0)  # every root set warns
    poly = ratcalc.Polynomial([2.0, 3.0, 1.0])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.active = True
        with pytest.warns(RuntimeWarning, match="poorly conditioned roots"):
            poly.roots()
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.counts["ratcalc.roots.ill_conditioned"] == 1


def _run_one(op, name):
    refs = workloads.references(name, [op], SEED)
    failures = []
    [(_, _, ok)] = bench.run_pass([op], refs, None, failures)
    return ok, failures


def test_corrupted_mask_is_a_failed_op(tmp_path):
    op = workloads.setup_sweep_shipped(SEED, tmp_path, traced=True)[0]
    assert _run_one(op, "sweep_shipped") == (True, [])
    mask = tmp_path / "sweep_two_ibr" / "mask_gfm1.tsv"

    def corrupted():
        rc = run()
        lines = mask.read_text().splitlines()
        k = next(k for k, line in enumerate(lines[1:], 1) if line.split("\t")[-1] != "-inf")
        cols = lines[k].split("\t")
        cols[-1] = repr(float(cols[-1]) * (1 + 1e-6))
        lines[k] = "\t".join(cols)
        mask.write_text("\n".join(lines) + "\n")
        return rc

    run = op.run
    ok, failures = _run_one(dataclasses.replace(op, run=corrupted), "sweep_shipped")
    assert not ok and "gfm1" in failures[0]


def test_flipped_verdict_is_a_failed_op(tmp_path):
    ops = workloads.setup_validate(SEED, tmp_path)
    op = next(o for o in ops if o.name.startswith("certify_all"))

    def flipped():
        reports = op.run()
        return [dataclasses.replace(reports[0], passed=not reports[0].passed)] + reports[1:]

    assert _run_one(op, "validate")[0]
    ok, failures = _run_one(dataclasses.replace(op, run=flipped), "validate")
    assert not ok and "passed[0]" in failures[0]


def test_expected_exit_two_is_not_a_failure(tmp_path):
    ops = workloads.setup_validate(SEED, tmp_path)
    for name in ("certify_three_ibr_weak", "poles_three_ibr_weak"):
        op = next(o for o in ops if o.name == name)
        assert op.run() == 2
        assert _run_one(op, "validate") == (True, [])


def test_seed_fixes_the_generated_inputs():
    def pll(seed):
        rng = np.random.default_rng((seed, 0))
        return [workloads.pll_study(base, grids, rng) for base, grids in workloads.PLL_STUDIES]

    def ladder(seed):
        return [(k, t.lines, p, d) for k, t, p, d in workloads.ladder_systems(seed)]

    def static(seed):
        return [(t.lines, p) for t, p in workloads.validate_systems(seed)]

    for make in (pll, ladder, static):
        assert make(3) == make(3)
        assert make(3) != make(4)
