"""Smoke tests for the benchmark itself, at seconds-scale shapes.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_declares_the_workloads_and_metrics():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == \
        list(workloads.WORKLOADS)
    for w in DECLARED["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in DECLARED["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": bounds["setup_s"]} in DECLARED["end_to_end"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} = " in proc.stdout
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        check_trace_file(workload)


def check_trace_file(workload):
    path = BENCH / "out" / f"trace-{workload}-seed7.json"
    trace = json.loads(path.read_text(encoding="utf-8"))
    spans = trace["spans"]
    assert trace["roots"] and spans
    for i, (name, start, end, parent) in enumerate(spans):
        assert isinstance(name, str) and start <= end
        assert -1 <= parent < i
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    for name, entry in trace["summary"].items():
        assert entry["self_ms"] >= 0, name
        assert entry["self_ms"] <= entry["ms"]
    assert trace["absent"] == []
    assert trace["per_layer"]["trace.overhead_ratio"] > 0


def test_a_missing_call_site_is_reported_absent():
    import types

    module = types.ModuleType("fake.mod")
    module.present = lambda x: x + 1
    sys.modules["fake.mod"] = module
    try:
        tracer = tracing.Tracer()
        tracer.install({"mod.present": (("mod",), None),
                        "mod.gone": (("mod", "no_such_module"), None)},
                       package="fake")
        assert module.present(1) == 2
        tracer.uninstall()
        assert module.present(1) == 2
    finally:
        del sys.modules["fake.mod"]
    assert tracer.absent == ["fake.mod.gone", "fake.no_such_module.gone"]
    assert [s[0] for s in tracer.spans] == ["mod.present"]
    summary, _ = tracing.summarize(tracer.spans, tracer.counters, [0])
    assert summary["mod.present"]["calls"] == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    spec = workloads.get("reference", "smoke")
    streams = []
    for k, seed in enumerate((1, 1, 2)):
        workloads.write_stream(spec, seed, tmp_path / str(k))
        streams.append((tmp_path / str(k)).read_bytes())
    assert streams[0] == streams[1] != streams[2]
    assert workloads.instruction(1, "requery", 5) == \
        workloads.instruction(1, "requery", 5)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("reference", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
