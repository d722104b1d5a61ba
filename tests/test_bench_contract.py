"""The traced benchmark's lookup sites still resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SITES


@pytest.mark.parametrize("module, path, span", _sites())
def test_tracer_site_resolves(module, path, span):
    # the same walk as Tracer.installed(): the attribute must sit in the
    # owner's own namespace, where the traced run replaces it
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module}.{path} (span {span}) is not bound"
    assert callable(owner.__dict__[attr])
