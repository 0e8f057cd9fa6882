"""perfbench wraps the package's functions by name and calls others by name:
every name it lists or calls must still resolve, or a benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the names perfbench/workloads.py and perfbench/checks.py call directly
CALLED = [("spinor", "EndDivisor"), ("spinor", "basis_F_sphere"),
          ("spinor", "basis_F_torus_twisted"), ("spinor", "basis_F_torus_untwisted"),
          ("spinor", "omega_qres_oracle"), ("spinor", "SpinorSection.evaluate"),
          ("spinor", "SpinorSection.derivative"), ("elliptic", "build_context"),
          ("elliptic", "wp"), ("elliptic", "EllipticContext.e"), ("cli", "main")]


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _assert_resolves(module, attr):
    owner = importlib.import_module(f"spinorminimal.{module}")
    if "." in attr:
        # a method is replaced in its class's own namespace
        cls, name = attr.split(".")
        assert callable(vars(getattr(owner, cls))[name])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, attr", sorted(
    target for targets in _layers().values() for target in targets))
def test_every_traced_name_resolves(module, attr):
    _assert_resolves(module, attr)


@pytest.mark.parametrize("module, attr", CALLED)
def test_every_called_name_resolves(module, attr):
    _assert_resolves(module, attr)
