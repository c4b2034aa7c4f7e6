"""Every call site the benchmark's tracer wraps resolves in streammem.

`perfbench/tracing.py` times functions by replacing them in the namespace
of each module that calls them, and lists a name it cannot find as absent
instead of failing. This imports that file and checks each site, then
installs its tracer over one tiny run and requires every span and counter,
so a rename or a counter broken by a type change fails here in about a
second rather than only in the benchmark's own smoke run.
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


def test_every_span_and_counter_recorded(tmp_path):
    """One tiny `process` run and CLI `select` and `assemble` under the
    installed tracer: every site wraps, every span is recorded and every
    counter evaluates. A counter that a type change breaks (say, one that
    reads `buffer.resident_bytes()` or iterates `stream.frames`) is listed
    in `tracer.absent` instead of failing the run, so only this shows it."""
    import streammem
    from streammem.cli import main

    config = streammem.RunConfig(d=8, heads=2, layers=1, n_read=3, n_write=2,
                                 subclip_frames=4, L=8, knn_k=3, Kc=2,
                                 pool_tokens=2).validate()
    streammem.save_stream(streammem.synth_stream(3, 10, 4, 8),
                          tmp_path / "s.rwfs")
    (tmp_path / "run.cfg").write_text(streammem.format_config(config))
    out = tmp_path / "run"
    tracer = tracing.Tracer()
    with tracer.installed():
        streammem.run_pipeline(config, tmp_path / "s.rwfs", "find the door",
                               out)
        assert main(["select", "--bank", str(out / "memory.rwmb"),
                     "--buffer-manifest", str(out / "buffer.manifest"),
                     "--instruction", "find the door",
                     "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "sel.txt")]) == 0
        assert main(["assemble", "--bank", str(out / "memory.rwmb"),
                     "--selection", str(tmp_path / "sel.txt"),
                     "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "seq.rwli")]) == 0
    assert tracer.absent == []
    recorded = {name for name, *_ in tracer.spans}
    assert set(tracing.SITES) <= recorded, set(tracing.SITES) - recorded
    counted = {tracer.spans[i][0] for i in tracer.counters}
    assert {name for name, (_, counter) in tracing.SITES.items()
            if counter is not None} <= counted
