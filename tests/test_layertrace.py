"""The benchmark's span tracer (perfbench/layertrace.py) against the package.

The tracer patches every span target by name, so a traced function or
method that is moved or renamed makes its ``install`` fail.  These tests
load the tracer unmodified from its path.
"""

import importlib.util
import sys
from pathlib import Path

import dampcert.cli  # noqa: F401  (install patches names in every dampcert module)

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod_name, attr):
    """The object a span names: a module attribute, or a method in its
    class ``__dict__``."""
    owner = sys.modules[f"dampcert.{mod_name}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def _bindings(spans):
    """Every attribute of every dampcert module, and every traced method."""
    out = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "dampcert" or name.startswith("dampcert.")
        for key, value in vars(module).items()
    }
    out.update({(mod, attr): _target(mod, attr) for mod, attr, _ in spans if "." in attr})
    return out


def test_install_resolves_every_span_and_uninstall_restores():
    layertrace = _layertrace()
    before = _bindings(layertrace.SPANS)
    originals = [_target(mod, attr) for mod, attr, _ in layertrace.SPANS]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for (mod, attr, name), orig in zip(layertrace.SPANS, originals):
            assert _target(mod, attr).__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    after = _bindings(layertrace.SPANS)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
