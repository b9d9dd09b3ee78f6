import ast
import copy
import dataclasses
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from dampcert import (
    ConfigurationError,
    DynamicNetwork,
    GflParams,
    GfmParams,
    ParameterGrid,
    closed_loop_poles,
    discretize_boundary,
    feasible_region,
    load_config,
    parse_config,
    static_network,
    step_response,
)
from dampcert import cli, config, tsv
from dampcert.cli import main

REPO = Path(__file__).resolve().parents[1]
TWO_IBR = REPO / "configs" / "two_ibr.yaml"
THREE_IBR = REPO / "configs" / "three_ibr.yaml"
WEAK = REPO / "configs" / "three_ibr_weak.yaml"


def base_data():
    with open(TWO_IBR) as fh:
        return yaml.safe_load(fh)


def reduced_data():
    """two_ibr with every defaulted field omitted."""
    data = base_data()
    data["domain"] = {"sigma": 0.35, "xi": 0.37}
    del data["execution"], data["simulation"]["start"], data["simulation"]["dt"]
    return data


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

    def test_device_role_case_ignored(self):
        data = base_data()
        data["devices"][0]["role"] = "GFM"
        data["devices"][1]["role"] = "Gfl"
        assert parse_config(data).echo() == parse_config(base_data()).echo()

    def test_entries_built_once(self):
        cfg = parse_config(base_data())
        assert cfg.entries is cfg.entries and len(cfg.entries) == 2

    def test_simulation_and_sweep_echoed_normalized(self):
        raw = parse_config(reduced_data()).raw
        assert raw["simulation"] == {
            "device": "gfm1", "magnitude": 0.1, "horizon": 60.0, "start": 1.0, "dt": 0.01,
        }
        assert raw["sweep"][0] == {"node": "gfm1", "axes": [
            {"name": "m", "min": 0.1, "max": 20.0, "count": 40},
            {"name": "d", "min": 0.1, "max": 20.0, "count": 40},
        ]}
        data = reduced_data()
        data["simulation"]["magnitude"] = 1
        data["sweep"][0]["axes"][0]["count"] = 40.0
        one = parse_config(data)
        data["simulation"]["magnitude"] = 1.0
        data["sweep"][0]["axes"][0]["count"] = 40
        assert one.digest() == parse_config(data).digest()
        data["simulation"]["mass"] = 3.0
        data["sweep"][0]["axes"][0]["step"] = 0.5
        assert parse_config(data).echo() == one.echo()

    def test_exponent_floats_read_as_numbers(self, tmp_path):
        """YAML 1.2 floats such as ``1e3`` are numbers in numeric fields and
        coefficient lists, although the YAML 1.1 loader returns them as text;
        a node named like one keeps its text."""
        spellings = "[1e6, 1.0e6, 1.0e+6, 1E3, .5e2]"
        assert yaml.load(f"a: {spellings}", Loader=config.LOADER)["a"][0] == "1e6"
        text = TWO_IBR.read_text().replace("gfl1", "1e3")
        text = text.replace("{node: gfm1, m: 0.5, d: 8.0}",
                            f"{{node: gfm1, role: custom, num: {spellings}, den: [1e0, 2e1, 0, 0, 0, 1E0]}}")
        text = text.replace("m: 0.5", "m: 5e-1").replace("margin_tol: 1.0e-6", "margin_tol: 1e-6")
        text = text[:text.index("sweep:")] + text[text.index("simulation:"):]
        p = tmp_path / "exponents.yaml"
        p.write_text(text.replace("{node: 1e3, H: 0.5", "{node: 1e3, H: 5e-1"))
        cfg = load_config(str(p))
        assert cfg.topology.device_nodes == ("gfm1", "1e3")
        assert cfg.raw["devices"][0]["num"] == [1e6, 1e6, 1e6, 1e3, 50.0]
        assert cfg.raw["devices"][0]["den"] == [1.0, 20.0, 0.0, 0.0, 0.0, 1.0]
        assert cfg.models[1].H == 0.5 and cfg.margin_tol == 1e-6
        data = base_data()
        data["devices"][0]["m"] = "1e3"  # as LOADER reads an unquoted 1e3
        assert parse_config(data).models[0].m == 1000.0

    @pytest.mark.parametrize("text", ["1e", "e6", "1_0e3", "0x1e3", "1e6.0", "1e999", "heavy"])
    def test_text_that_is_no_float_rejected(self, text):
        data = base_data()
        data["devices"][0]["m"] = text
        with pytest.raises(ConfigurationError, match="'m'.*finite numeric"):
            parse_config(data)

    def test_shipped_digests(self):
        digests = {p.stem: load_config(str(p)).digest() for p in (TWO_IBR, THREE_IBR, WEAK)}
        assert digests == {"two_ibr": "2be50d4cd9c0a840", "three_ibr": "e85bb018424b1956",
                           "three_ibr_weak": "ca50fd520c503dae"}

    def test_factory_names_unknown_axis(self):
        factory = config.GridEntryFactory(GfmParams(1.0, 1.0))
        for call in (lambda: factory({"mass": 2.0}),
                     lambda: factory.stack(ParameterGrid(["m", "mass"], [[1.0], [2.0]]))):
            with pytest.raises(ConfigurationError) as err:
                call()
            assert "sweep axis 'mass'" in str(err.value) and "GfmParams" in str(err.value)
            assert "__init__" not in str(err.value)

    @pytest.mark.parametrize("source", [TWO_IBR, THREE_IBR, WEAK, "reduced"],
                             ids=lambda p: getattr(p, "stem", p))
    def test_echo_parses_to_itself(self, source):
        cfg = parse_config(reduced_data()) if source == "reduced" else load_config(str(source))
        assert parse_config(yaml.safe_load(cfg.echo())).echo() == cfg.echo()


class TestYamlCodec:
    """Configs are read and echoed through libyaml where PyYAML has it;
    the pure-Python loader and dumper must give the same documents."""

    @pytest.mark.parametrize("path", [TWO_IBR, THREE_IBR, WEAK], ids=lambda p: p.stem)
    def test_echo_and_digest_equal_under_both_dumpers(self, path, tmp_path, monkeypatch):
        text = path.read_text()
        assert yaml.load(text, Loader=config.LOADER) == yaml.safe_load(text)
        cfg = load_config(str(path))
        echo, digest = cfg.echo(), cfg.digest()
        assert echo == yaml.safe_dump(cfg.raw, sort_keys=True)
        assert digest == cfg.digest(echo)
        monkeypatch.setattr(config, "DUMPER", yaml.SafeDumper)
        monkeypatch.setattr(config, "LOADER", yaml.SafeLoader)
        assert (load_config(str(path)).echo(), cfg.digest()) == (echo, digest)
        main(["poles", "--config", str(path), "--out", str(tmp_path)])
        report = (tmp_path / "report.txt").read_text()
        assert f"config digest: {digest}\n" in report
        assert report.endswith("effective configuration:\n" + echo)

    @pytest.mark.parametrize("pure_python", [False, True], ids=["default", "pure_python"])
    def test_malformed_yaml_exit_three(self, pure_python, tmp_path, monkeypatch, capsys):
        if pure_python:
            monkeypatch.setattr(config, "LOADER", yaml.SafeLoader)
        p = tmp_path / "broken.yaml"
        p.write_text("topology: [unclosed\n  devices: {\n")
        assert main(["certify", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert "config parse error" in capsys.readouterr().err


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
    def test_cancelled_mode_leaves_origin_rule(self, tmp_path, capsys):
        # a cancelled mode at -1e6 plus poles at -0.01 +- 0.05j: only the
        # reported poles set the scale of the origin-pole rule
        data = {
            "topology": {"devices": [{"name": "dev1", "role": "gfm"}]},
            "devices": [{"node": "dev1", "role": "custom", "num": [1e6, 1.0],
                         "den": [2600.0, 20000.0026, 1000000.02, 1.0]}],
            "domain": {"sigma": 0.35, "xi": 0.37},
        }
        p = tmp_path / "cancelled.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["poles", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "VIOLATED" in capsys.readouterr().out
        rows = [ln.split("\t") for ln in (tmp_path / "poles.tsv").read_text().splitlines()[1:]]
        assert [r[2:] for r in rows] == [["0.196116135138", "1"]] * 2
        np.testing.assert_allclose([[float(x) for x in r[:2]] for r in rows],
                                   [[-0.01, -0.05], [-0.01, 0.05]], rtol=1e-9)
        assert "poles: 2 (origin 0), domain clean: False" in (tmp_path / "report.txt").read_text()

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

    def test_spacing_option_echoed_and_digested(self, tmp_path):
        rc = main([
            "sweep", "--config", str(TWO_IBR), "--spacing", "0.05", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text()
        assert "  spacing: 0.05\n" in report.split("effective configuration:\n")[1]
        cfg = load_config(str(TWO_IBR), 0.05)
        assert f"config digest: {cfg.digest()}\n" in report
        assert cfg.digest() != load_config(str(TWO_IBR)).digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.spacing = 0.01

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


class TestCliProcess:
    def test_certify_exit_code_through_a_process(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        argv = [sys.executable, "-m", "dampcert.cli", "certify",
                "--config", "configs/two_ibr.yaml", "--out", str(tmp_path)]
        proc = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.txt").exists()

    def test_sweep_runs_without_scipy_linalg(self, tmp_path):
        """Importing the package and running ``sweep`` and ``certify``, whose
        oracle takes its eigenvectors from numpy, load no scipy.linalg.  A
        fresh process is needed: this one has scipy loaded by other tests."""
        script = (
            "import sys\n"
            "import dampcert, dampcert.cli as cli\n"
            "loaded = lambda: 'scipy.linalg' in sys.modules\n"
            "seen = [loaded()]\n"
            "for cmd in ('sweep', 'certify'):\n"
            "    rc = cli.main([cmd, '--config', 'configs/two_ibr.yaml', '--out', sys.argv[1]])\n"
            "    seen += [rc, loaded()]\n"
            "print(seen)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=REPO, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[False, 0, False, 0, False]"

    def test_commands_run_without_scipy(self, tmp_path):
        """``certify``, ``sweep`` and ``poles`` run on every shipped config in a
        process that cannot import scipy, with the exit codes that
        ``tools/cli_times.py`` expects; ``simulate`` still needs scipy."""
        spec = importlib.util.spec_from_file_location("cli_times", REPO / "tools" / "cli_times.py")
        cli_times = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli_times)
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import dampcert.cli as cli\n"
            "codes = {}\n"
            "for cfg in sys.argv[2:]:\n"
            "    for cmd in ('certify', 'sweep', 'poles'):\n"
            "        out = f'{sys.argv[1]}/{cfg}/{cmd}'\n"
            "        argv = [cmd, '--config', f'configs/{cfg}.yaml', '--out', out]\n"
            "        codes[cfg, cmd] = cli.main(argv)\n"
            "try:\n"
            "    cli.main(['simulate', '--config', 'configs/two_ibr.yaml', '--out', sys.argv[1]])\n"
            "except ImportError:\n"
            "    codes['simulate'] = 'ImportError'\n"
            "print(codes)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *cli_times.EXPECTED],
                              cwd=REPO, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        expect = {(cfg, cmd): code for cfg, codes in cli_times.EXPECTED.items()
                  for cmd, code in zip(cli_times.COMMANDS, codes) if cmd != "simulate"}
        expect["simulate"] = "ImportError"
        assert ast.literal_eval(proc.stdout.splitlines()[-1]) == expect


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

    @pytest.mark.parametrize("argv", [["certify", "--config", str(TWO_IBR), "--bogus", "1"],
                                      ["sweep"]], ids=["unknown_option", "missing_config"])
    def test_usage_error_exit_two(self, tmp_path, capsys, argv):
        # argparse's own exit: its usage line, code 2, and no --out directory
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: dampcert")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("topology", "devices", 0, "name"), {"a": 1}, "topology.devices.name"),
            (("topology", "devices", 0, "name"), None, "topology.devices.name"),
            (("topology", "lines", 0, "a"), ["x"], "topology.lines.a"),
            (("topology", "lines", 0, "b"), {"gfl1": None}, "topology.lines.b"),
            (("topology", "interior"), [["x"]], "topology.interior"),
            (("devices", 0, "node"), ["gfm1"], "devices.node"),
            (("sweep", 0, "node"), {"gfm1": 1}, "sweep.node"),
            (("simulation", "device"), None, "simulation.device"),
        ],
        ids=["name_mapping", "name_missing", "line_end_list", "line_end_mapping", "interior_list",
             "device_node_list", "sweep_node_mapping", "simulation_device_missing"],
    )
    def test_node_reference_not_a_scalar(self, tmp_path, capsys, path, value, field):
        data = base_data()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        p = tmp_path / "node.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        bad = value[0] if field == "topology.interior" else value
        err = capsys.readouterr().err
        assert err == f"configuration error: {field} must name a node, got {bad!r}\n"

    def test_node_reference_scalar_kept_as_text(self):
        data = base_data()
        data["topology"]["devices"][0]["name"] = "1e3"
        data["topology"]["lines"][0]["a"] = data["devices"][0]["node"] = "1e3"
        data["sweep"][0]["node"] = data["simulation"]["device"] = "1e3"
        text = yaml.safe_dump(data).replace("'1e3'", "1e3")
        cfg = parse_config(yaml.load(text, Loader=config.LOADER))
        assert cfg.topology.device_nodes[0] == "1e3"

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

    @pytest.mark.parametrize("command", ["certify", "sweep", "poles", "simulate"])
    def test_unknown_sweep_axis_exit_three(self, tmp_path, capsys, command):
        data = base_data()
        data["sweep"][0]["axes"][1]["name"] = "mass"
        p = tmp_path / "mass.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main([command, "--config", str(p), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "'mass'" in err and "'gfm1'" in err and "__init__" not in err

    @pytest.mark.parametrize("command", ["certify", "sweep", "poles", "simulate"])
    @pytest.mark.parametrize("low", [0, -1])
    def test_sweep_axis_out_of_range_exit_three(self, tmp_path, capsys, command, low):
        data = base_data()
        data["sweep"][0]["axes"][0]["min"] = low
        p = tmp_path / "low.yaml"
        p.write_text(yaml.safe_dump(data))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"GFM inertia m must be finite and > 0, got {float(low)}" in err

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
            (("sweep", 1),
             {"node": "gfm1", "axes": [{"name": "d", "min": 1.0, "max": 2.0, "count": 2}]}),
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
            (("simulation", "dt"), 0.0),
            (("simulation", "horizon"), -5.0),
            (("simulation", "start"), -1.0),
            (("simulation", "start"), 60.0),
            (("execution", "margin_tol"), float("nan")),
            (("domain", "eta1"), 10**400),
            ("--spacing", float("inf")),
            ("--spacing", float("nan")),
        ],
        ids=["devices_scalar", "device_scalar", "lines_scalar", "sweep_mapping", "repeated_axis",
             "fractional_count", "infinite_count", "repeated_sweep_node", "execution_list",
             "execution_zero", "execution_empty_list", "simulation_zero", "simulation_empty_list",
             "custom_text_coeff", "custom_zero_den", "infinite_eta1", "infinite_eta2",
             "infinite_horizon", "nan_dt", "zero_dt", "negative_horizon", "negative_start",
             "start_at_horizon", "nan_margin_tol", "huge_integer",
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


def three_ibr_dynamic():
    """three_ibr under the dynamic network provider."""
    data = yaml.safe_load(THREE_IBR.read_text())
    data["execution"] = {"network": "dynamic"}
    return data


def ends_with_failure(report: str, line: str) -> bool:
    """`report` ends its verdict lines with `line`, before the timings."""
    return report.split("\n\nphase timings (s):")[0].endswith("\n" + line)


class TestCliExitPath:
    """``main`` alone turns a failure into an exit code and a message, and
    writes report.txt once the config has loaded, the message included."""

    @pytest.mark.parametrize("command", ["certify", "sweep", "poles", "simulate"])
    def test_out_is_a_file_exit_three(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        assert main([command, "--config", str(TWO_IBR), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_interior_node_dynamic_inapplicable(self, tmp_path, capsys, command):
        data = three_ibr_dynamic()
        data["topology"]["interior"] = ["x1"]
        data["topology"]["lines"].append({"a": "gfl2", "b": "x1", "l": 0.5})
        # x1 with lines of one rho value reduces, and the command runs (its
        # rho = 0 line poles lie in the domain, so no diagonal is
        # non-vanishing); with lines of two rho values it is refused by name
        for extra in ([], [{"a": "gfm1", "b": "x1", "l": 0.8, "rho": 0.5}]):
            data["topology"]["lines"] += extra
            p = tmp_path / "interior.yaml"
            p.write_text(yaml.safe_dump(data))
            out = tmp_path / f"out{len(extra)}"
            code = main([command, "--config", str(p), "--out", str(out)])
            err = capsys.readouterr().err.strip()
            report = (out / "report.txt").read_text()
            if not extra:
                assert err == "" and code == (2 if command == "certify" else 0)
                if command == "certify":
                    assert report.count(" nonvanishing=False ") == 3
                else:
                    assert len(list(out.glob("mask_*.tsv"))) == 3
                continue
            assert code == 2
            assert err == ("certificate inapplicable: interior node 'x1' has lines of several "
                           "rho values; the dynamic network provider eliminates only "
                           "single-class interior nodes")
            assert ends_with_failure(report, err)

    def test_report_write_failure_keeps_first_failure(self, tmp_path, capsys):
        # report.txt is a directory: the command's own failure prints first
        (tmp_path / "report.txt").mkdir()
        assert main(["sweep", "--config", str(WEAK), "--out", str(tmp_path)]) == 3
        first, second = capsys.readouterr().err.splitlines()
        assert first == "configuration error: config has no sweep section"
        assert second.startswith("configuration error: ") and "report.txt" in second

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_line_resonance_on_boundary_reported(self, tmp_path, capsys, command):
        # rho equal to sigma puts a line resonance on the boundary sample -0.35+1j
        data = three_ibr_dynamic()
        for line in data["topology"]["lines"]:
            line["rho"] = 0.35
        p = tmp_path / "resonant.yaml"
        p.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        line = "error: line admittance singular at s = (-0.35+1j)"
        assert capsys.readouterr().err == line + "\n"
        assert ends_with_failure((out / "report.txt").read_text(), line)

    def test_missing_sweep_section_writes_report(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(WEAK), "--out", str(tmp_path)]) == 3
        line = "configuration error: config has no sweep section"
        assert capsys.readouterr().err == line + "\n"
        report = (tmp_path / "report.txt").read_text()
        assert ends_with_failure(report, line)
        assert report.endswith("effective configuration:\n" + load_config(str(WEAK)).echo())

    def test_report_cuts_a_longer_file(self, tmp_path):
        # report.txt is rewritten in place: a longer file at the path ends
        # where the report does, with the bytes of a fresh report
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.mkdir()
        (reused / "report.txt").write_bytes(b"9" * 100_000)
        for out in (fresh, reused):
            assert main(["sweep", "--config", str(WEAK), "--out", str(out)]) == 3
        want = (fresh / "report.txt").read_bytes()
        assert b"9" * 10 not in want
        assert (reused / "report.txt").read_bytes() == want

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_failed_rewrite_leaves_no_older_tail(self, tmp_path, mode):
        # a write that fails part-way still ends the file where it stopped,
        # as truncating on open did
        path = tmp_path / "report.txt"
        path.write_bytes(b"9" * 1000)
        with pytest.raises(OSError, match="disk full"):
            with cli._rewrite(path, mode) as fh:
                fh.write("partial\n" if mode == "w" else b"partial\n")
                raise OSError("disk full")
        assert path.read_bytes() == b"partial\n"

    def test_config_not_utf8_exit_three(self, tmp_path, capsys):
        p = tmp_path / "latin1.yaml"
        p.write_bytes(TWO_IBR.read_bytes().replace(b"gfm1", b"gfm\xe9"))
        assert main(["certify", "--config", str(p), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"configuration error: cannot read config '{p}'")

    @pytest.mark.parametrize("command", ["certify", "sweep", "poles", "simulate"])
    def test_bad_simulation_section_exit_three(self, tmp_path, capsys, command):
        data = yaml.safe_load(THREE_IBR.read_text())
        data["simulation"]["horizon"] = -5.0
        p = tmp_path / "badsim.yaml"
        p.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "configuration error: step horizon must be finite and > 0, got -5.0\n"
        assert not out.exists()

    def test_simulation_check_is_step_response_check(self):
        cfg = load_config(str(TWO_IBR))
        with pytest.raises(ConfigurationError) as at_load:
            parse_config({**base_data(), "simulation": {"device": "gfm1", "magnitude": 0.1,
                                                        "horizon": -5.0}})
        with pytest.raises(ConfigurationError) as at_run:
            step_response(cfg.entries, static_network(cfg.topology), 0, 0.1, 1.0, -5.0, 0.01)
        assert str(at_load.value) == str(at_run.value)


def _assert_table(path, header, rows):
    """The TSV at `path` reads as if written value by value with f"{x:.12g}"."""
    expected = ["\t".join(header)]
    expected += ["\t".join(f"{float(x):.12g}" for x in row) for row in rows]
    got = path.read_text().split("\n")
    assert got[-1] == "" and len(got) - 1 == len(expected)
    bad = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {expected[bad]!r}"


def _assert_masks(out_dir, cfg, provider, spacing):
    """Every mask_<node>.tsv in out_dir holds the flags and margins of
    feasible_region against `provider`."""
    samples = discretize_boundary(cfg.domain, spacing)
    for task in cfg.sweeps:
        mask = feasible_region(task.make_entry, task.grid, provider, task.device,
                               cfg.domain, samples, cfg.margin_tol)
        rows = [
            [point[a] for a in task.grid.axes] + [mask.flags[idx], mask.margins[idx]]
            for idx, point in task.grid.points()
        ]
        node = cfg.topology.device_nodes[task.device]
        header = list(task.grid.axes) + ["feasible", "margin"]
        _assert_table(out_dir / f"mask_{node}.tsv", header, rows)


class TestCliTablesMatchLibrary:
    def test_masks(self, tmp_path):
        assert main(["sweep", "--config", str(THREE_IBR), "--spacing", "0.1",
                     "--out", str(tmp_path)]) == 0
        cfg = load_config(str(THREE_IBR))
        _assert_masks(tmp_path, cfg, cfg.provider(), 0.1)

    def test_masks_dynamic_provider(self, tmp_path, capsys):
        # the first CLI run of the dynamic provider; three_ibr's dynamic
        # diagonals warn on poorly conditioned roots, two_ibr's do not
        data = base_data()
        data["execution"]["network"] = "dynamic"
        cfg_path = tmp_path / "dynamic.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        cfg = load_config(str(cfg_path))
        assert cfg.network_mode == "dynamic"
        _assert_masks(out, cfg, DynamicNetwork(cfg.topology), cfg.spacing)

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

    @pytest.mark.parametrize("n_rows", [0, 1, 4096, 4097, 8195])
    def test_write_tsv_writes_savetxt_bytes(self, tmp_path, n_rows):
        # the bytes of np.savetxt(fmt="%.12g"), across 4,096-row blocks, for
        # special values, subnormals and 0/1 flag columns
        rng = np.random.default_rng(n_rows)
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-310,
                            np.finfo(float).max, 1 / 3, -1e-300, 123456789012345.0])
        values = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-320, 300, (n_rows, 2))
        values[:, 1] = rng.choice(special, n_rows)
        flags = rng.random(n_rows) < 0.5
        table = np.column_stack([values, flags, ~flags]).astype(float)
        header = ["x", "special", "feasible", "infeasible"]
        cli._write_tsv(tmp_path / "got.tsv", header, table)
        np.savetxt(tmp_path / "want.tsv", table, fmt="%.12g", delimiter="\t",
                   header="\t".join(header), comments="")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("n_cols", [1, 4, 7, 9])
    @pytest.mark.parametrize("n_rows", [0, 1, tsv.BLOCK_ROWS - 1, tsv.BLOCK_ROWS,
                                        tsv.BLOCK_ROWS + 1, 4095, 4096, 4097])
    def test_write_tsv_boundary_values(self, tmp_path, n_rows, n_cols):
        # the bytes of np.savetxt(fmt="%.12g") where the word writer's choices
        # change: a 12-digit near-tie and its 1-ulp neighbours at every
        # fixed-notation exponent, rounding carries, the switches to exponent
        # notation; zeros of both signs, subnormals, infinities, nan and 0/1
        # flags in the first, middle and last column; blocks of every size;
        # and a longer file at the path, which the writer must cut
        rng = np.random.default_rng(n_rows * 10 + n_cols)
        ties = [(rng.integers(10 ** 11, 10 ** 12, 4) + 0.5) * 10.0 ** (x - 11)
                for x in range(-4, 12)]
        ties = np.concatenate(ties)
        carries = 9.9999999999995 * 10.0 ** np.arange(-8, 14)
        switches = np.array([1e-5, 1e-4, 1e11, 1e12])
        values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, 0),
                                 carries, switches, np.nextafter(switches, 0),
                                 np.nextafter(switches, np.inf)])
        values = np.concatenate([values, -values])
        table = np.resize(rng.permutation(values), (n_rows, n_cols))
        special = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, np.inf, -np.inf, np.nan]
        for col in (0, n_cols // 2, n_cols - 1):
            table[::3, col] = np.resize(special, len(table[::3]))
            table[1::3, col] = rng.random(len(table[1::3])) < 0.5
        header = [f"c{i}" for i in range(n_cols)]
        np.savetxt(tmp_path / "want.tsv", table, fmt="%.12g", delimiter="\t",
                   header="\t".join(header), comments="")
        want = (tmp_path / "want.tsv").read_bytes()
        (tmp_path / "got.tsv").write_bytes(b"9" * (len(want) + 100))
        cli._write_tsv(tmp_path / "got.tsv", header, table)
        assert (tmp_path / "got.tsv").read_bytes() == want

    def test_write_tsv_random_bit_patterns(self, tmp_path):
        # 2**20 doubles of random bits (both signs, every exponent, nan
        # payloads, subnormals) and 2**18 log-uniform ones in [1e-6, 1e13],
        # each printed as Python's "%.12g" % x
        rng = np.random.default_rng(20221)
        bits = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(float)
        logs = 10.0 ** rng.uniform(-6, 13, 2 ** 18) * rng.choice([-1.0, 1.0], 2 ** 18)
        table = np.concatenate([bits, logs]).reshape(-1, 8)
        header = [f"c{i}" for i in range(8)]
        cli._write_tsv(tmp_path / "got.tsv", header, table)
        line = "\t".join(["%.12g"] * 8) + "\n"
        want = "\t".join(header) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())
        assert (tmp_path / "got.tsv").read_bytes() == want.encode()
