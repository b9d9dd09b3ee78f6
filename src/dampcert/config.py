"""Study configuration: YAML schema, validation, and derived objects.

A single config file drives every command.  The schema of a section is
the value type it builds: its numeric fields are read by the fields'
names, and a field's own default applies where the file omits it
(``spacing`` and ``margin_tol`` default to ``DEFAULT_SPACING`` and
``certify.MARGIN_TOL``).  Unknown keys are ignored.  Every section is
echoed normalized, defaults included, so a run is reproducible from its
output alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

from .analysis import check_step
from .certify import MARGIN_TOL, ParameterGrid, SweepTask
from .devices import (
    CustomRational,
    DeviceModel,
    GflParams,
    GfmParams,
    device_matrix,
    make_entry,
    model_stack,
)
from .domain import ProhibitedDomain
from .errors import ConfigurationError, DegenerateInputError
from .netmodel import GFL, GFM, DynamicNetwork, GridTopology, Line, LineParams, StaticNetwork
from .ratcalc import Polynomial, RationalFunction

DEFAULT_SPACING = 0.01

#: libyaml's safe loader and dumper where PyYAML was built with it; they
#: read and write the same documents as the pure-Python ones, faster
LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
#: floats with an exponent (``1e6``) that YAML 1.2 reads as numbers and ``LOADER`` as text
_EXP_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


@dataclass(frozen=True)
class GridEntryFactory:
    """Entry factory of a sweep: a device model with some parameters swept."""

    base: DeviceModel

    def _model(self, point):
        unknown = sorted(set(point) - {f.name for f in dataclasses.fields(self.base)})
        if unknown:
            raise ConfigurationError(f"sweep axis {unknown[0]!r} is not a parameter of {self.base}")
        return dataclasses.replace(self.base, **point)

    def __call__(self, point):
        return make_entry(self._model(point))

    def stack(self, grid: ParameterGrid):
        """Inverse-entry coefficient rows of every grid point, row-major.
        The parameter checks are lower bounds, so checking the first (the
        smallest) value of each axis checks every point."""
        self._model({a: v[0] for a, v in zip(grid.axes, grid.values)})
        mesh = np.meshgrid(*grid.values, indexing="ij")
        return model_stack(self.base, dict(zip(grid.axes, mesh)))


@dataclass(frozen=True)
class SimulationSpec:
    device: int
    magnitude: float
    horizon: float
    start: float = 1.0
    dt: float = 0.01

    def __post_init__(self):
        # step_response's own check, made when the config is read
        check_step(self.magnitude, self.start, self.horizon, self.dt)


@dataclass(frozen=True)
class StudyConfig:
    topology: GridTopology
    models: list
    entries: list  # list[DeviceEntry], in topology device order
    domain: ProhibitedDomain
    spacing: float
    margin_tol: float
    network_mode: str
    sweeps: list  # list[SweepTask]
    simulation: SimulationSpec | None
    raw: dict = field(repr=False, default_factory=dict)

    def provider(self):
        if self.network_mode == "dynamic":
            return DynamicNetwork(self.topology)
        return StaticNetwork.from_topology(self.topology)

    def echo(self) -> str:
        """The effective configuration as YAML, keys sorted."""
        return yaml.dump(self.raw, Dumper=DUMPER, sort_keys=True)

    def digest(self, echo: str | None = None) -> str:
        """Short SHA-256 of the echo; pass it when it is already dumped."""
        return hashlib.sha256((self.echo() if echo is None else echo).encode()).hexdigest()[:16]


def _require(mapping, key, section, default=None):
    if not isinstance(mapping, dict):
        raise ConfigurationError(f"section {section!r} must be a mapping")
    if key not in mapping:
        if default is None:
            raise ConfigurationError(f"missing field {key!r} in section {section!r}")
        return default
    return mapping[key]


def _node(v, field):
    """A node reference as text: a scalar as ``str`` writes it (so ``1e3``
    stays ``"1e3"``); a mapping, a list or no value is a configuration
    error naming `field`."""
    if v is None or isinstance(v, (dict, list)):
        raise ConfigurationError(f"{field} must name a node, got {v!r}")
    return str(v)


def _finite(v):
    """`v` as a finite float if it is a number (not a bool) or ``_EXP_FLOAT`` text, else None."""
    v = float(v) if isinstance(v, str) and _EXP_FLOAT.fullmatch(v) else v
    numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
    return float(v) if numeric and abs(v) <= sys.float_info.max else None


def _num(mapping, key, section, default=None):
    v = _finite(_require(mapping, key, section, default))
    if v is None:
        raise ConfigurationError(f"field {key!r} in section {section!r} must be finite numeric")
    return v


def _list(mapping, key, section, default=None):
    v = _require(mapping, key, section, default)
    v = [] if v is None else v  # a key with no value
    if not isinstance(v, list):
        raise ConfigurationError(f"field {key!r} in section {section!r} must be a list")
    return v


def _optional_section(data, key):
    v = data.get(key)
    v = {} if v is None else v  # a missing key or a key with no value
    if not isinstance(v, dict):
        raise ConfigurationError(f"section {key!r} must be a mapping")
    return v


def _fields(cls, mapping, section, **given):
    """Keyword arguments of dataclass `cls`: the `given` ones, and every
    other field read from `mapping` as a finite number, with the field's
    own default where it has one (a field without one is required)."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            default = None if f.default is dataclasses.MISSING else f.default
            given[f.name] = _num(mapping, f.name, section, default)
    return given


#: parameter type of each GFM/GFL role
_PARAMS = {GFM: GfmParams, GFL: GflParams}


def _parse_topology(sec) -> GridTopology:
    devs = _list(sec, "devices", "topology")
    if not devs:
        raise ConfigurationError("topology.devices must be a non-empty list")
    names, roles = [], []
    for d in devs:
        names.append(_node(_require(d, "name", "topology.devices"), "topology.devices.name"))
        role = str(_require(d, "role", "topology.devices")).lower()
        if role not in _PARAMS:
            raise ConfigurationError(f"topology.devices role must be gfm/gfl, got {role!r}")
        roles.append(role)
    interior = [_node(n, "topology.interior") for n in _list(sec, "interior", "topology", [])]
    lines = [
        Line(
            _node(_require(ln, "a", "topology.lines"), "topology.lines.a"),
            _node(_require(ln, "b", "topology.lines"), "topology.lines.b"),
            LineParams(**_fields(LineParams, ln, "topology.lines")),
        )
        for ln in _list(sec, "lines", "topology", [])
    ]
    return GridTopology(**_fields(GridTopology, sec, "topology", device_nodes=names,
                                  device_roles=roles, interior_nodes=interior, lines=lines))


def _parse_device(d, topology: GridTopology):
    node = _node(_require(d, "node", "devices"), "devices.node")
    if node not in topology.device_nodes:
        raise ConfigurationError(f"devices entry names unknown device node {node!r}")
    role = str(d.get("role", topology.device_roles[topology.device_nodes.index(node)])).lower()
    if role in _PARAMS:
        return node, _PARAMS[role](**_fields(_PARAMS[role], d, "devices"))
    if role == "custom":
        num, den = ([_finite(c) for c in d.get(k)] if isinstance(d.get(k), list) else [None]
                    for k in ("num", "den"))
        if None in num + den:
            raise ConfigurationError(
                f"custom device {node!r} needs finite numeric 'num' and 'den' coefficient lists"
            )
        try:
            return node, CustomRational(RationalFunction(Polynomial(num), Polynomial(den)))
        except DegenerateInputError as exc:
            raise ConfigurationError(f"custom device {node!r}: {exc}") from exc
    raise ConfigurationError(f"unknown device role {role!r}")


def _parse_axis(ax, model, node):
    """One sweep axis over a field of `model`, as its normalized echo."""
    name = str(_require(ax, "name", "sweep.axes"))
    if name not in {f.name for f in dataclasses.fields(model)}:
        raise ConfigurationError(f"sweep axis {name!r} of node {node!r} is not a device parameter")
    lo, hi, count = (_num(ax, k, "sweep.axes") for k in ("min", "max", "count"))
    if not (hi > lo and count >= 1 and count.is_integer()):
        raise ConfigurationError(f"sweep axis {name!r} needs max > min and a whole count >= 1")
    return {"name": name, "min": lo, "max": hi, "count": int(count)}


def parse_config(data: dict) -> StudyConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    topology = _parse_topology(_require(data, "topology", "<root>"))
    nodes = topology.device_nodes

    by_node = {}
    for d in _list(data, "devices", "<root>"):
        node, model = _parse_device(d, topology)
        if node in by_node:
            raise ConfigurationError(f"duplicate device definition for node {node!r}")
        by_node[node] = model
    models = []
    for node in nodes:
        if node not in by_node:
            raise ConfigurationError(f"no device definition for node {node!r}")
        models.append(by_node[node])
    entries = device_matrix(models, topology.device_roles)  # role/order validation

    dom_sec = _require(data, "domain", "<root>")
    domain = ProhibitedDomain(**_fields(ProhibitedDomain, dom_sec, "domain"))
    spacing = _num(dom_sec, "spacing", "domain", DEFAULT_SPACING)
    if spacing <= 0:
        raise ConfigurationError("domain.spacing must be > 0")

    exec_sec = _optional_section(data, "execution")
    margin_tol = _num(exec_sec, "margin_tol", "execution", MARGIN_TOL)
    network_mode = str(exec_sec.get("network", "static"))
    if network_mode not in ("static", "dynamic"):
        raise ConfigurationError("execution.network must be 'static' or 'dynamic'")

    sweeps, sweep_echo = [], []
    for sw in _list(data, "sweep", "<root>", []):
        node = _node(_require(sw, "node", "sweep"), "sweep.node")
        if node not in nodes:
            raise ConfigurationError(f"sweep names unknown device node {node!r}")
        i = nodes.index(node)
        if any(t.device == i for t in sweeps):
            raise ConfigurationError(f"duplicate sweep for node {node!r}")
        if isinstance(models[i], CustomRational):
            raise ConfigurationError(f"sweep names custom device node {node!r}: it has no parameters")
        axes = [_parse_axis(ax, models[i], node) for ax in _list(sw, "axes", "sweep")]
        # the parameter checks are lower bounds: the axis minima check every point
        dataclasses.replace(models[i], **{a["name"]: a["min"] for a in axes})
        grid = ParameterGrid([a["name"] for a in axes],
                             [np.linspace(a["min"], a["max"], a["count"]) for a in axes])
        sweeps.append(SweepTask(i, GridEntryFactory(models[i]), grid))
        sweep_echo.append({"node": node, "axes": axes})

    sim, sim_echo = None, {}
    sim_sec = _optional_section(data, "simulation")
    if sim_sec:
        node = _node(_require(sim_sec, "device", "simulation"), "simulation.device")
        if node not in nodes:
            raise ConfigurationError(f"simulation names unknown device node {node!r}")
        sim = SimulationSpec(**_fields(SimulationSpec, sim_sec, "simulation",
                                       device=nodes.index(node)))
        sim_echo = {**dataclasses.asdict(sim), "device": node}

    # normalized echo of the effective configuration
    raw = {
        "topology": {
            "omega0": topology.omega0,
            "devices": [{"name": n, "role": r} for n, r in zip(nodes, topology.device_roles)],
            "interior": list(topology.interior_nodes),
            "lines": [
                {"a": ln.a, "b": ln.b, **dataclasses.asdict(ln.params)} for ln in topology.lines
            ],
        },
        "devices": [
            {"node": n, **_model_dict(m, r)}
            for n, m, r in zip(nodes, models, topology.device_roles)
        ],
        "domain": {**dataclasses.asdict(domain), "spacing": spacing},
        "execution": {"margin_tol": margin_tol, "network": network_mode},
        "sweep": sweep_echo,
        "simulation": sim_echo,
    }
    return StudyConfig(topology, models, entries, domain, spacing, margin_tol, network_mode,
                       sweeps, sim, raw)


def _model_dict(m, role):
    """Echo of a device model; a GFM/GFL model has its node's role."""
    if isinstance(m, CustomRational):
        return {
            "role": "custom",
            "num": [float(c) for c in m.entry.num.coeffs],
            "den": [float(c) for c in m.entry.den.coeffs],
        }
    return {"role": role, **dataclasses.asdict(m)}


def load_config(path: str, spacing: float | None = None) -> StudyConfig:
    """Load, validate, and normalize a study configuration file.  A given
    `spacing` replaces ``domain.spacing`` before validation, so the check,
    the echo and the digest all see it."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config parse error in {path!r}: {exc}") from exc
    if spacing is not None and isinstance(data, dict) and isinstance(data.get("domain"), dict):
        data["domain"]["spacing"] = spacing
    return parse_config(data)
