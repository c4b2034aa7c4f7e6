"""Every call site the benchmark's tracer wraps resolves in streammem.

`perfbench/tracing.py` times functions by replacing them in the namespace
of each module that calls them, and lists a name it cannot find as absent
instead of failing. This imports that file without installing anything
and checks each site, so a rename fails here in well under a second
rather than only in the benchmark's own smoke run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
SITES = [(name, caller) for name, (callers, _) in tracing.SITES.items()
         for caller in callers]


def test_attribute_overrides_name_traced_spans():
    assert set(tracing.ATTRIBUTE) <= set(tracing.SITES)


@pytest.mark.parametrize("name,caller", SITES,
                         ids=[f"{c}:{n}" for n, c in SITES])
def test_call_site_resolves(name, caller):
    path = tracing.ATTRIBUTE.get(name, name.partition(".")[2])
    found = tracing._resolve(f"streammem.{caller}", path)
    assert found is not None, f"streammem.{caller}.{path} does not exist"
    owner, attr = found
    assert callable(getattr(owner, attr))
