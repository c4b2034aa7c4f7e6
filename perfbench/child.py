"""The timed phase of one workload, in a process of its own.

run.py starts it with BLAS threads fixed at one and `src` on PYTHONPATH:

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|smoke --work-dir DIR --result FILE
        --time-limit SECONDS [--trace-file FILE] [--per-layer NAME ...]

`reference` and `long_stream` run `run_pipeline` repeatedly; after each
repetition they answer in-memory queries (dfs_select plus assemble) on the
bank it built. `requery` answers queries through `streammem.cli.main` on
the artifacts its first set-up wrote. The set-ups (see Setups) run spread
over the timed phase, each in a fresh process. Repetition 1 and query 1
repeat the instruction of repetition 0 and query 0, so their outputs must
be byte-identical.

With --trace 1, every odd-numbered operation runs with spans installed and
every even-numbered one without, so the ratio of their medians is the
tracing overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import streammem
from streammem import pipeline

import checks
import tracing
import workloads


def no_span(name):
    return contextlib.nullcontext()


class Run:
    """Samples, operation counts and spans of one workload run."""

    def __init__(self, spec, seed, trace):
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.process_s = []
        self.subclip_ms = []
        self.query_ms = []
        self.traced_s = []  # main-op times with spans installed
        self.untraced_s = []
        self.roots = []  # root span index of every traced main op
        self.digest = None
        self.artifact_bytes = None

    def attempt(self, what, fn):
        """Run one operation; an exception or failed check counts it failed
        and the run goes on with the next operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the run must keep going; the failure is counted
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")
            print(self.errors[-1], file=sys.stderr)
            return None

    def timed(self, index, root_name, main, fn):
        """Call fn(span), with spans installed if operation `index` is
        traced; returns (seconds, result)."""
        if not (self.trace and index % 2 == 1):
            start = time.perf_counter()
            result = fn(no_span)
            elapsed = time.perf_counter() - start
            if main:
                self.untraced_s.append(elapsed)
            return elapsed, result
        with self.tracer.installed(), self.tracer.span(root_name) as root:
            start = time.perf_counter()
            result = fn(self.tracer.span)
            elapsed = time.perf_counter() - start
        if main:
            self.roots.append(root)
            self.traced_s.append(elapsed)
        return elapsed, result


@contextlib.contextmanager
def subclip_hook(intervals_ms):
    """Replace streammem.pipeline.process_stream by a wrapper that passes a
    one-timestamp on_subclip hook and records the time between successive
    sub-clips, the first measured from entry."""
    original = pipeline.process_stream

    def process_stream(*args, on_subclip=None, **kwargs):
        last = time.perf_counter()

        def hook(*hook_args):
            nonlocal last
            now = time.perf_counter()
            intervals_ms.append((now - last) * 1e3)
            last = now
            if on_subclip is not None:
                on_subclip(*hook_args)

        return original(*args, on_subclip=hook, **kwargs)

    pipeline.process_stream = process_stream
    try:
        yield
    finally:
        pipeline.process_stream = original


class Setups:
    """The workload's set-ups, each `probe.py` in a fresh process, spread
    evenly over the timed phase so that their median does not hang on the
    machine's speed at one moment. Time spent in them is not timed-phase
    time. For requery each set-up runs `process`, and the queries read the
    artifacts of the first one."""

    def __init__(self, run, config, work_dir, seconds, time_limit):
        spec = run.spec
        self.run = run
        self.config = config
        self.work_dir = work_dir
        self.seconds = seconds
        self.due = [k * seconds / spec.setup_runs
                    for k in range(spec.setup_runs)]
        self.results = []
        self.dirs = []
        self.digest = None
        self.paused = 0.0
        self.start = time.perf_counter()
        self.end = self.start + time_limit

    def active(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def running(self, done: int, at_least: int) -> bool:
        """Whether the timed phase goes on after `done` operations."""
        self.run_due()
        return done < at_least or self.active() < self.seconds

    def run_due(self, every=False) -> None:
        while self.due and (every or self.due[0] <= self.active()):
            self.due.pop(0)
            started = time.perf_counter()
            self.run.attempt("set-up", self._probe)
            self.paused += time.perf_counter() - started

    def _probe(self) -> None:
        spec, run = self.run.spec, self.run
        argv = [sys.executable, str(Path(__file__).with_name("probe.py"))]
        out_dir = os.path.join(self.work_dir, f"setup{len(self.results)}")
        if spec.process_in_setup:
            argv += ["--process", os.path.join(self.work_dir, "stream.rwfs"),
                     os.path.join(self.work_dir, "run.cfg"), out_dir,
                     workloads.instruction(run.seed, spec.name, 0)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=self.end - time.perf_counter())
        checks.require(proc.returncode == 0,
                       f"set-up exited {proc.returncode}:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if spec.process_in_setup:
            checks.check_process_outputs(out_dir, spec, self.config)
            digest = checks.artifact_digest(out_dir)
            self.digest = self.digest or digest
            checks.require(digest == self.digest,
                           "artifacts differ between set-ups")
            run.artifact_bytes = checks.artifact_bytes(out_dir)
            self.dirs.append(out_dir)
        self.results.append(probe)


def process_phase(run, setups, config, stream_path, work_dir):
    """run_pipeline repeatedly for the timed phase, at least
    min_process_runs times, each repetition followed by a batch of
    in-memory queries on its bank, so query samples spread over the whole
    run like process ones."""
    spec = run.spec
    subclips = -(-spec.T // config.subclip_frames)
    first_digest = None
    rep = 0
    while setups.running(rep, spec.min_process_runs):
        text = workloads.instruction(run.seed, spec.name,
                                     0 if rep == 1 else rep)
        out_dir = os.path.join(work_dir, f"rep{rep % 2}")
        shutil.rmtree(out_dir, ignore_errors=True)

        def one(rep=rep, text=text, out_dir=out_dir):
            nonlocal first_digest
            before = len(run.subclip_ms)
            elapsed, result = run.timed(
                rep, "pipeline.run_pipeline", True,
                lambda span: streammem.run_pipeline(config, stream_path,
                                                    text, out_dir))
            checks.require(len(run.subclip_ms) - before == subclips,
                           "sub-clip callback count")
            checks.check_process_outputs(out_dir, spec, config, result)
            digest = checks.artifact_digest(out_dir)
            if rep == 0:
                first_digest = digest
                run.artifact_bytes = checks.artifact_bytes(out_dir)
            elif rep == 1:
                checks.require(digest == first_digest,
                               "artifacts differ between repetitions with "
                               "the same instruction")
            run.process_s.append(elapsed)
            return result

        result = run.attempt(f"process {rep}", one)
        if result is not None:
            memory_queries(run, result, text, config,
                           rep * spec.queries_per_process)
        result = None  # free this bank before the next repetition
        rep += 1
    run.digest = first_digest


def memory_queries(run, result, last_text, config, first):
    """In-memory Stage 2 on a processed bank. The first query repeats the
    repetition's instruction and must reproduce its selection."""
    spec = run.spec
    for q in range(first, first + spec.queries_per_process):
        text = last_text if q == first else workloads.instruction(
            run.seed, spec.name, 10_000 + q)

        def query(span, text=text):
            instruction = streammem.encode_instruction(text, config.d)
            with span("dfs.dfs_select"):
                selection = streammem.dfs_select(
                    result.bank, result.buffer, instruction, config.L,
                    config.knn_k, config.Kc, spec.p, z_repr=config.z_repr)
            with span("assembly.assemble"):
                sequence = streammem.assemble(result.bank, selection,
                                              result.sequence.separator)
            return selection, sequence

        def one(q=q, query=query):
            elapsed, (selection, sequence) = run.timed(
                q, "query.in_memory", False, query)
            checks.check_query(selection.centers, selection.pooled, sequence,
                               spec)
            if q == first:
                checks.require(checks.same_selection(selection,
                                                     result.selection),
                               "in-memory query differs from run_pipeline")
            run.query_ms.append(elapsed * 1e3)

        run.attempt(f"query {q}", one)


def cli_query(artifacts, cfg_path, out, text, span=no_span):
    """One requery: `select` then `assemble` through the CLI, in-process."""
    bank = os.path.join(artifacts, "memory.rwmb")
    with span("cli.select"):
        code, _ = checks.run_cli(
            ["select", "--bank", bank,
             "--buffer-manifest", os.path.join(artifacts, "buffer.manifest"),
             "--instruction", text, "--config", cfg_path,
             "--out", out + ".txt"])
    checks.require(code == 0, f"select exited {code}")
    with span("cli.assemble"):
        code, _ = checks.run_cli(
            ["assemble", "--bank", bank, "--selection", out + ".txt",
             "--config", cfg_path, "--out", out + ".rwli"])
    checks.require(code == 0, f"assemble exited {code}")


def requery_phase(run, setups, cfg_path, work_dir):
    """Closed loop, one client: queries for the timed phase, at least
    min_queries of them, on the artifacts of the first set-up."""
    spec = run.spec
    out = os.path.join(work_dir, "query")
    outputs = [out + ".txt", out + ".txt.pooled.rwfs", out + ".rwli"]
    first_digest = None
    q = 0
    while setups.running(q, spec.min_queries):
        text = workloads.instruction(run.seed, spec.name, 0 if q == 1 else q)

        def one(q=q, text=text):
            nonlocal first_digest
            checks.require(setups.dirs, "no set-up wrote artifacts")
            artifacts = setups.dirs[0]
            elapsed, _ = run.timed(
                q, "query.cli", True,
                lambda span: cli_query(artifacts, cfg_path, out, text, span))
            with open(out + ".txt", encoding="utf-8") as fh:
                centers = streammem.dfs.parse_selection_centers(fh.read())
            pooled = streammem.load_stream(out + ".txt.pooled.rwfs")
            checks.check_query(centers, list(pooled.frames),
                               streammem.load_llm_input(out + ".rwli"), spec)
            digest = checks.digest(outputs)
            if q == 0:
                first_digest = digest
            elif q == 1:
                checks.require(digest == first_digest,
                               "query outputs differ for the same instruction")
            run.query_ms.append(elapsed * 1e3)

        run.attempt(f"query {q}", one)
        q += 1


def peak_traced_mb(run, config, stream_path, artifacts, cfg_path, work_dir):
    """tracemalloc peak over one extra main operation, spans off."""
    spec = run.spec
    text = workloads.instruction(run.seed, spec.name, 20_000)
    out = os.path.join(work_dir, "peak")
    tracemalloc.start()
    try:
        if spec.process_in_setup:
            cli_query(artifacts, cfg_path, out, text)
        else:
            streammem.run_pipeline(config, stream_path, text, out)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def last_decile_ms(run):
    """Mean read_context time per call over the last tenth of the reads of
    each traced main operation."""
    spans = run.tracer.spans
    root_of = tracing.root_of(spans)
    reads = {root: [] for root in run.roots}
    for i, (name, start, end, _) in enumerate(spans):
        if name == "memory.read_context" and root_of[i] in reads:
            reads[root_of[i]].append(end - start)
    means = []
    for durations in reads.values():
        if durations:
            tail = durations[-max(1, len(durations) // 10):]
            means.append(sum(tail) / len(tail) / 1e6)
    return statistics.fmean(means) if means else 0.0


def write_artifacts_ms(run):
    """The save_* calls made directly by run_pipeline, per main op."""
    spans = run.tracer.spans
    roots = set(run.roots)
    total = sum(end - start for name, start, end, parent in spans
                if name in tracing.ARTIFACT_WRITES and parent in roots
                and spans[parent][0] == "pipeline.run_pipeline")
    return total / max(1, len(roots)) / 1e6


def per_layer(run, names, extra):
    """Per-layer metrics per traced main operation: `.calls` and `.ms`
    (inclusive) from the spans, counters by their own name."""
    n = max(1, len(run.roots))
    summary, totals = tracing.summarize(run.tracer.spans,
                                        run.tracer.counters, run.roots)
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif name in totals:
            values[name] = totals[name] / n
        elif field == "calls":
            values[name] = summary.get(span, {}).get("calls", 0) / n
        elif field == "ms":
            values[name] = summary.get(span, {}).get("ns", 0) / n / 1e6
        else:
            values[name] = 0.0
    return values, summary


def environment():
    import platform

    import numpy
    import scipy

    try:
        from streammem import kernels
        use_numba = getattr(kernels, "USE_NUMBA", None)
    except ImportError:
        use_numba = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "use_numba": use_numba,
    }


def traced_extras(run, setups, args, config, stream_path, cfg_path):
    """Per-layer values measured outside the spans."""
    spec = run.spec
    extra = {
        "memory.read_context.last_decile_ms": last_decile_ms(run),
        "pipeline.write_artifacts.ms": write_artifacts_ms(run),
        "pipeline.modelled_peak_mb": 0.0,
        "trace.overhead_ratio": 0.0,
        "trace.peak_traced_mb": 0.0,
    }
    if run.traced_s and run.untraced_s:
        extra["trace.overhead_ratio"] = (statistics.median(run.traced_s)
                                         / statistics.median(run.untraced_s))
    artifacts = setups.dirs[0] if setups.dirs else None
    peak = run.attempt("tracemalloc run", lambda: peak_traced_mb(
        run, config, stream_path, artifacts, cfg_path, args.work_dir))
    if peak is not None:
        extra["trace.peak_traced_mb"] = peak
    if spec.name == "reference":
        text = workloads.instruction(run.seed, spec.name, 0)
        modelled = run.attempt(
            "stage1_peak_resident_bytes",
            lambda: streammem.stage1_peak_resident_bytes(
                config, streammem.load_stream(stream_path), text))
        if modelled is not None:
            extra["pipeline.modelled_peak_mb"] = modelled / 1e6
    return extra


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--time-limit", type=float, required=True,
                    help="seconds this process may take, set-ups included")
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--per-layer", nargs="*", default=[])
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    spec = workloads.get(args.workload, args.size)
    run = Run(spec, args.seed, bool(args.trace))
    cfg_path = os.path.join(args.work_dir, "run.cfg")
    stream_path = os.path.join(args.work_dir, "stream.rwfs")
    src = Path(__file__).resolve().parents[1] / "src"
    if Path(streammem.__file__).resolve().parents[1] != src:
        print(f"streammem imported from {streammem.__file__}, not {src}",
              file=sys.stderr)
        return 2
    config = streammem.load_config(cfg_path)

    setups = Setups(run, config, args.work_dir, args.seconds,
                    args.time_limit)
    with subclip_hook(run.subclip_ms):
        if spec.process_in_setup:
            requery_phase(run, setups, cfg_path, args.work_dir)
        else:
            process_phase(run, setups, config, stream_path, args.work_dir)
    setups.run_due(every=True)
    if spec.process_in_setup:
        run.digest = setups.digest
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "process_s": run.process_s, "subclip_ms": run.subclip_ms,
        "query_ms": run.query_ms, "artifact_bytes": run.artifact_bytes,
        "peak_rss_mb": rss_kib * 1024 / 1e6, "digest": run.digest,
        "setups": setups.results, "env": environment(),
    }
    if args.trace:
        extra = traced_extras(run, setups, args, config, stream_path,
                              cfg_path)
        values, summary = per_layer(run, args.per_layer, extra)
        result["per_layer"] = values
        result["traced_op_ms"] = statistics.fmean(run.traced_s) * 1e3
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": spec.name, "seed": args.seed,
                "env": result["env"], "main_op": spec.main_op,
                "roots": run.roots, "absent": run.tracer.absent,
                "summary": {name: {"calls": s["calls"],
                                   "ms": s["ns"] / 1e6,
                                   "self_ms": s["self_ns"] / 1e6}
                            for name, s in sorted(summary.items())},
                "per_layer": values,
                "spans": run.tracer.spans,
            }, fh)
        result["absent"] = run.tracer.absent
    result.update(attempted=run.attempted, failed=run.failed,
                  errors=run.errors)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
