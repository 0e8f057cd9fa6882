"""perfbench's tracer wraps the package's functions by name: every name it
lists must still resolve, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, attr", sorted(
    target for targets in _layers().values() for target in targets))
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"spinorminimal.{module}")
    if "." in attr:
        # a method is replaced in its class's own namespace
        cls, name = attr.split(".")
        assert callable(vars(getattr(owner, cls))[name])
    else:
        assert callable(getattr(owner, attr))
