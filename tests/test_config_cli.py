import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from dampcert import (
    ConfigurationError,
    GflParams,
    GfmParams,
    closed_loop_poles,
    discretize_boundary,
    feasible_region,
    load_config,
    parse_config,
    static_network,
    step_response,
)
from dampcert import cli
from dampcert.cli import main

REPO = Path(__file__).resolve().parents[1]
TWO_IBR = REPO / "configs" / "two_ibr.yaml"
THREE_IBR = REPO / "configs" / "three_ibr.yaml"
WEAK = REPO / "configs" / "three_ibr_weak.yaml"


def base_data():
    with open(TWO_IBR) as fh:
        return yaml.safe_load(fh)


class TestParseConfig:
    def test_loads_example(self):
        cfg = load_config(str(TWO_IBR))
        assert cfg.topology.device_nodes == ("gfm1", "gfl1")
        assert isinstance(cfg.models[0], GfmParams)
        assert isinstance(cfg.models[1], GflParams)
        assert cfg.spacing == 0.01
        assert cfg.domain.sigma == 0.35
        assert len(cfg.sweeps) == 2
        assert cfg.simulation.horizon == 60.0

    def test_defaults_injected(self):
        data = base_data()
        data["devices"][1].pop("v0", None)
        data["domain"] = {"sigma": 0.35, "xi": 0.37}
        data.pop("execution")
        cfg = parse_config(data)
        assert cfg.models[1].v0 == 1.0
        assert cfg.spacing == 0.01
        assert cfg.margin_tol == 1e-6
        assert cfg.domain.eps2 == 0.1
        assert cfg.topology.omega0 == 1.0

    @pytest.mark.parametrize("empty", [None, {}], ids=["no_value", "empty_mapping"])
    def test_optional_section_without_fields(self, empty):
        data = base_data()
        data["execution"] = empty
        data["simulation"] = empty
        cfg = parse_config(data)
        assert cfg.margin_tol == 1e-6 and cfg.network_mode == "static"
        assert cfg.simulation is None

    def test_missing_section_field_named(self):
        data = base_data()
        del data["domain"]["sigma"]
        with pytest.raises(ConfigurationError, match="sigma"):
            parse_config(data)

    def test_negative_damping_rejected(self):
        data = base_data()
        data["devices"][0]["d"] = -1.0
        with pytest.raises(ConfigurationError):
            parse_config(data)

    def test_unknown_node_in_devices(self):
        data = base_data()
        data["devices"][0]["node"] = "nope"
        with pytest.raises(ConfigurationError, match="nope"):
            parse_config(data)

    def test_duplicate_device_definition(self):
        data = base_data()
        data["devices"].append(dict(data["devices"][0]))
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(data)

    def test_sweep_axis_validation(self):
        data = base_data()
        data["sweep"][0]["axes"][0]["max"] = 0.0  # max < min
        with pytest.raises(ConfigurationError):
            parse_config(data)

    def test_bad_network_mode(self):
        data = base_data()
        data["execution"]["network"] = "magic"
        with pytest.raises(ConfigurationError, match="network"):
            parse_config(data)

    def test_non_numeric_field(self):
        data = base_data()
        data["devices"][0]["m"] = "heavy"
        with pytest.raises(ConfigurationError, match="numeric"):
            parse_config(data)
        data = base_data()
        del data["sweep"]
        nan_den = [0.0, float("nan"), 1.0]
        data["devices"][0] = {"node": "gfm1", "role": "custom", "num": [1.0], "den": nan_den}
        with pytest.raises(ConfigurationError, match="numeric"):
            parse_config(data)

    def test_digest_stable_and_sensitive(self):
        a = parse_config(base_data())
        b = parse_config(base_data())
        assert a.digest() == b.digest()
        data = base_data()
        data["devices"][0]["m"] = 0.6
        assert parse_config(data).digest() != a.digest()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "absent.yaml"))


class TestCliCertify:
    def test_pass_exit_zero(self, tmp_path, capsys):
        rc = main(["certify", "--config", str(TWO_IBR), "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        report = (tmp_path / "report.txt").read_text()
        assert "verdict: PASS" in report
        assert (tmp_path / "poles.tsv").exists()

    def test_oracle_inconsistency_exit_two(self, tmp_path, capsys, monkeypatch):
        # every certificate passes on two_ibr; an oracle reporting in-domain
        # poles must then stop the run instead of printing a verdict
        monkeypatch.setattr(cli, "screen_poles", lambda report, dom: False)
        rc = main(["certify", "--config", str(TWO_IBR), "--out", str(tmp_path)])
        assert rc == 2
        report = (tmp_path / "report.txt").read_text()
        assert "INCONSISTENCY: certificate passed but oracle found in-domain poles" in report
        assert "verdict:" not in report
        assert "certificate/oracle inconsistency" in capsys.readouterr().err

    def test_fail_exit_two(self, tmp_path):
        rc = main(["certify", "--config", str(WEAK), "--out", str(tmp_path)])
        assert rc == 2
        assert "FAIL" in (tmp_path / "report.txt").read_text()

    def test_custom_device_writes_report(self, tmp_path):
        # the config echo behind the digest holds a custom device's
        # coefficients, which must be plain floats for YAML; a custom device
        # has no parameters to sweep, so its sweep entry goes
        data = base_data()
        data["devices"][0] = {"node": "gfm1", "role": "custom", "num": [1.0], "den": [0.0, 5.0, 1.0]}
        data["sweep"] = [sw for sw in data["sweep"] if sw["node"] != "gfm1"]
        cfg_path = tmp_path / "custom.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        rc = main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc in (0, 2)
        assert "gfm1" in (tmp_path / "out" / "report.txt").read_text()

    def test_spacing_override_recorded(self, tmp_path):
        rc = main([
            "certify", "--config", str(TWO_IBR), "--spacing", "0.05",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "spacing 0.05" in (tmp_path / "report.txt").read_text()


class TestCliPoles:
    def test_clean_exit_zero(self, tmp_path):
        rc = main(["poles", "--config", str(THREE_IBR), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "poles.tsv").read_text().strip().splitlines()
        assert lines[0].split("\t") == ["re", "im", "damping", "in_domain"]
        assert len(lines) > 1

    def test_violated_exit_two(self, tmp_path, capsys):
        rc = main(["poles", "--config", str(WEAK), "--out", str(tmp_path)])
        assert rc == 2
        assert "VIOLATED" in capsys.readouterr().out
        body = (tmp_path / "poles.tsv").read_text()
        flagged = [ln for ln in body.strip().splitlines()[1:] if ln.endswith("\t1")]
        assert flagged


class TestCliSweep:
    def test_writes_masks(self, tmp_path):
        rc = main([
            "sweep", "--config", str(THREE_IBR), "--spacing", "0.1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        masks = sorted(p.name for p in tmp_path.glob("mask_*.tsv"))
        assert masks == ["mask_gfl1.tsv", "mask_gfl2.tsv", "mask_gfm1.tsv"]
        head = (tmp_path / "mask_gfm1.tsv").read_text().splitlines()[0]
        assert head.split("\t")[-2:] == ["feasible", "margin"]

    def test_worker_count_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        rc1 = main([
            "sweep", "--config", str(THREE_IBR), "--spacing", "0.1",
            "--workers", "1", "--out", str(d1),
        ])
        rc2 = main([
            "sweep", "--config", str(THREE_IBR), "--spacing", "0.1",
            "--workers", "2", "--out", str(d2),
        ])
        assert rc1 == rc2 == 0
        for name in ("mask_gfm1.tsv", "mask_gfl1.tsv", "mask_gfl2.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_no_sweep_section_config_error(self, tmp_path):
        data = base_data()
        data.pop("sweep")
        cfg_path = tmp_path / "nosweep.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 3


class TestCliSimulate:
    def test_writes_response(self, tmp_path):
        rc = main(["simulate", "--config", str(TWO_IBR), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "response.tsv").read_text().strip().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "t"
        assert "angle_gfm1" in header and "power_gfl1" in header
        # with equal damping on both devices, half the 0.1 pu step flows
        # across the line in steady state
        last = dict(zip(header, lines[-1].split("\t")))
        assert float(last["power_gfm1"]) == pytest.approx(0.05, rel=1e-3)
        report = (tmp_path / "report.txt").read_text()
        assert "settle_2pct" in report
        assert "divergent: False" in report

    def test_deterministic_rerun(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(TWO_IBR), "--out", str(d1)])
        main(["simulate", "--config", str(TWO_IBR), "--out", str(d2)])
        assert (d1 / "response.tsv").read_bytes() == (d2 / "response.tsv").read_bytes()


class TestCliErrors:
    def test_bad_config_exit_three(self, tmp_path, capsys):
        data = base_data()
        del data["topology"]
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(data))
        rc = main(["certify", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exit_three(self, tmp_path):
        rc = main(["certify", "--config", str(tmp_path / "x.yaml"), "--out", str(tmp_path)])
        assert rc == 3

    def test_bad_worker_count(self, tmp_path):
        rc = main([
            "certify", "--config", str(TWO_IBR), "--workers", "0", "--out", str(tmp_path)
        ])
        assert rc == 3

    @pytest.mark.parametrize("axis", ["entry", "m"])
    def test_sweep_on_custom_device(self, tmp_path, capsys, axis):
        data = base_data()
        data["devices"][0] = {"node": "gfm1", "role": "custom", "num": [1.0], "den": [0.0, 5.0, 1.0]}
        data["sweep"] = [
            {"node": "gfm1", "axes": [{"name": axis, "min": 0.5, "max": 2.0, "count": 3}]}
        ]
        p = tmp_path / "custom_sweep.yaml"
        p.write_text(yaml.safe_dump(data))
        rc = main(["sweep", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 3
        assert "gfm1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("devices",), 5),
            (("devices", 0), 5),
            (("topology", "lines"), 5),
            (("sweep",), {"node": "gfm1"}),
            (("sweep", 0, "axes", 1, "name"), "m"),
            (("sweep", 0, "axes", 0, "count"), 2.7),
            (("sweep", 0, "axes", 0, "count"), float("inf")),
            (("execution",), [1]),
            (("execution",), 0),
            (("execution",), []),
            (("simulation",), 0),
            (("simulation",), []),
            (("devices", 0), {"node": "gfm1", "role": "custom", "num": ["a"], "den": [1.0]}),
            (("devices", 0), {"node": "gfm1", "role": "custom", "num": [1.0], "den": [0.0]}),
            (("domain", "eta1"), float("inf")),
            (("domain", "eta2"), float("inf")),
            (("simulation", "horizon"), float("inf")),
            (("simulation", "dt"), float("nan")),
            (("execution", "margin_tol"), float("nan")),
            (("domain", "eta1"), 10**400),
            ("--spacing", float("inf")),
            ("--spacing", float("nan")),
        ],
        ids=["devices_scalar", "device_scalar", "lines_scalar", "sweep_mapping", "repeated_axis",
             "fractional_count", "infinite_count", "execution_list", "execution_zero",
             "execution_empty_list", "simulation_zero", "simulation_empty_list",
             "custom_text_coeff", "custom_zero_den", "infinite_eta1", "infinite_eta2",
             "infinite_horizon", "nan_dt", "nan_margin_tol", "huge_integer",
             "infinite_spacing_option", "nan_spacing_option"],
    )
    def test_malformed_section_exit_three(self, tmp_path, path, value):
        data = base_data()
        p = tmp_path / "malformed.yaml"
        argv = ["sweep", "--config", str(p), "--out", str(tmp_path)]
        if isinstance(path, str):  # a command-line option, not a config field
            argv += [path, str(value)]
        else:
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        p.write_text(yaml.safe_dump(data))
        assert main(argv) == 3


def _assert_table(path, header, rows):
    """The TSV at `path` reads as if written value by value with f"{x:.12g}"."""
    expected = ["\t".join(header)]
    expected += ["\t".join(f"{float(x):.12g}" for x in row) for row in rows]
    got = path.read_text().split("\n")
    assert got[-1] == "" and len(got) - 1 == len(expected)
    bad = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {expected[bad]!r}"


class TestCliTablesMatchLibrary:
    def test_masks(self, tmp_path):
        assert main(["sweep", "--config", str(THREE_IBR), "--spacing", "0.1",
                     "--out", str(tmp_path)]) == 0
        cfg = load_config(str(THREE_IBR))
        samples = discretize_boundary(cfg.domain, 0.1)
        for task in cfg.sweeps:
            mask = feasible_region(task.make_entry, task.grid, cfg.provider(), task.device,
                                   cfg.domain, samples, cfg.margin_tol)
            rows = [
                [point[a] for a in task.grid.axes] + [mask.flags[idx], mask.margins[idx]]
                for idx, point in task.grid.points()
            ]
            node = cfg.topology.device_nodes[task.device]
            header = list(task.grid.axes) + ["feasible", "margin"]
            _assert_table(tmp_path / f"mask_{node}.tsv", header, rows)

    @pytest.mark.parametrize("config", [THREE_IBR, WEAK])
    def test_poles(self, tmp_path, config):
        main(["poles", "--config", str(config), "--out", str(tmp_path)])
        cfg = load_config(str(config))
        rep = closed_loop_poles(cfg.entries, static_network(cfg.topology), cfg.domain)
        rows = zip(rep.poles.real, rep.poles.imag, rep.damping, rep.in_domain)
        _assert_table(tmp_path / "poles.tsv", ["re", "im", "damping", "in_domain"], rows)

    def test_response(self, tmp_path):
        assert main(["simulate", "--config", str(TWO_IBR), "--out", str(tmp_path)]) == 0
        cfg = load_config(str(TWO_IBR))
        sim = cfg.simulation
        resp = step_response(cfg.entries, static_network(cfg.topology), sim.device,
                             sim.magnitude, sim.start, sim.horizon, sim.dt)
        nodes = cfg.topology.device_nodes
        header = ["t"] + [f"angle_{n}" for n in nodes] + [f"power_{n}" for n in nodes]
        rows = [[t, *a, *pw] for t, a, pw in zip(resp.time, resp.angles, resp.powers)]
        _assert_table(tmp_path / "response.tsv", header, rows)
