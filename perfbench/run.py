#!/usr/bin/env python3
"""The streammem benchmark: one run of one workload.

    python3 perfbench/run.py --workload reference|long_stream|requery \
        --seed N --seconds S --trace 0|1 [--size full|smoke]

Run it from the root of a source checkout; it imports streammem from the
checkout's `src`. It generates the inputs from --seed and runs the workload
in a child process with BLAS threads fixed at one; the child times the
set-ups in fresh processes spread over its timed phase and checks every
output. It prints one line per metric with its unit; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the `end_to_end` metrics of BENCHMARK.json,
with --trace 1 its `per_layer` metrics; the traced run also writes its spans
to perfbench/out/trace-<workload>-seed<N>.json. The workloads and the reason
for each are in workloads.py.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TIME_LIMIT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class BenchError(Exception):
    """The run could not measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, time_limit):
    """Run child.py in a session of its own and wait for it; on timeout,
    kill the whole session, set-up processes included."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *map(str, args),
         "--time-limit", str(time_limit - 5)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=time_limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process ran over {time_limit:.0f} s")
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")


def median(samples):
    if not samples:
        raise BenchError("no successful operation to time")
    return statistics.median(samples)


def p90(samples):
    """The 90th percentile; with 100 samples or more, ten lie beyond it."""
    if len(samples) < 2:
        return median(samples)
    return statistics.quantiles(samples, n=10)[8]


def end_to_end(spec, child):
    """End-to-end values, and the p50s printed beside them for reading."""
    setups = child["setups"]
    if spec.process_in_setup:
        process_s = [s["process_s"] for s in setups]
        subclip_ms = [x for s in setups for x in s["subclip_ms"]]
    else:
        process_s = child["process_s"]
        subclip_ms = child["subclip_ms"]
    if not child["artifact_bytes"]:
        raise BenchError("no artifacts were written")
    values = {
        "setup_s": median([s["import_s"] + s.get("process_s", 0.0)
                           for s in setups]),
        "process_s": median(process_s),
        "subclip_ms_p90": p90(subclip_ms),
        "query_ms_p90": p90(child["query_ms"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "artifact_mb": child["artifact_bytes"] / 1e6,
    }
    info = {"subclip_ms_p50": median(subclip_ms),
            "query_ms_p50": median(child["query_ms"])}
    counts = {"set-ups": len(setups), "process runs": len(process_s),
              "sub-clips": len(subclip_ms), "queries": len(child["query_ms"])}
    return values, info, counts


def declared_metrics(trace):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found")
    with open(path, encoding="utf-8") as fh:
        declared = json.load(fh)
    return declared["per_layer" if trace else "end_to_end"]


def run(args):
    if not (ROOT / "src" / "streammem" / "__init__.py").is_file():
        raise BenchError("src/streammem not found: run from the root of a "
                         "streammem checkout")
    declared = declared_metrics(args.trace)
    spec = workloads.get(args.workload, args.size)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT))
    trace_file = OUT / f"trace-{spec.name}-seed{args.seed}.json"
    try:
        workloads.write_stream(spec, args.seed, work / "stream.rwfs")
        (work / "run.cfg").write_text(spec.config_text(), encoding="utf-8")
        child_args = ["--workload", spec.name, "--seed", args.seed,
                      "--seconds", args.seconds, "--trace", args.trace,
                      "--size", args.size, "--work-dir", work,
                      "--result", work / "result.json"]
        if args.trace:
            child_args += ["--trace-file", trace_file, "--per-layer",
                           *[m["name"] for m in declared]]
        run_child(child_args, TIME_LIMIT_S)
        with open(work / "result.json", encoding="utf-8") as fh:
            child = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        values, info, counts = child["per_layer"], {}, {}
    else:
        values, info, counts = end_to_end(spec, child)

    attempted, failed = child["attempted"], child["failed"]
    print(f"streammem benchmark: workload={spec.name} seed={args.seed} "
          f"trace={args.trace} size={args.size} ({spec.loop}; T={spec.T} "
          f"P={spec.P} d={spec.d} layers={spec.layers} dfs.L={spec.L})")
    print(f"env: {json.dumps(child['env'], sort_keys=True)}")
    print(f"artifact digest: {child['digest']}")
    if counts:
        print("samples: " + ", ".join(f"{n} {k}" for k, n in counts.items()))
    if args.trace:
        print(f"absent spans: {', '.join(child['absent']) or 'none'}")
        print(f"trace: {trace_file.relative_to(ROOT)}")
        op_ms = child["traced_op_ms"]
        shares = sorted(((v / op_ms, name[:-3]) for name, v in values.items()
                         if name.endswith(".ms")), reverse=True)
        print(f"inclusive share of one traced {spec.main_op} "
              f"({op_ms:.6g} ms): "
              + ", ".join(f"{name} {share:.3f}" for share, name in shares[:8]))
    for name, value in info.items():
        print(f"{name} = {value:.6g} ms (not gated: see perfbench/README.md)")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate = {failed / max(1, attempted):.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: seconds-scale shapes for the benchmark's "
                         "own tests")
    args = ap.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
