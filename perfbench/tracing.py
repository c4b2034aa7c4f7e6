"""Spans recorded from the benchmark's side of each layer boundary.

`Tracer.install` replaces each timed function, in the namespace of the
module that *calls* it, by a wrapper that records one span per call. Every
streammem module imports its collaborators by name, so
`streammem.perceiver.read_context` is the read the perceiver loop makes and
`streammem.memory.attention` is the attention inside that read. A call site
that no longer exists is listed in `Tracer.absent` instead of failing the
run. Spans stay in memory; the caller writes them out when the run ends.

A span is `[name, start_ns, end_ns, parent]`, where `parent` is the index of
the enclosing span or -1; counters measured at the same boundary are kept
per span in `Tracer.counters`.
"""

import functools
import importlib
import time
from contextlib import contextmanager


def _rows(x):
    return int(x.shape[0])


def _stream_mb(args, kwargs, result):
    return {"stream.load_stream.mb":
            sum(f.nbytes for f in result.frames) / 1e6}


def _read_rows(args, kwargs, result):
    return {"memory.read_context.kv_rows": args[0].token_count()}


def _attention_rows(args, kwargs, result):
    return {"tensor.attention.kv_rows": _rows(args[1])}


def _resident_mb(args, kwargs, result):
    bank, buffer = result
    return {"memory.bank_resident_mb": bank.resident_bytes() / 1e6,
            "memory.buffer_resident_mb": buffer.resident_bytes() / 1e6}


def _candidates(args, kwargs, result):
    return {"dfs.candidates": len(result.frames)}


def _assembled_rows(args, kwargs, result):
    return {"assembly.rows": result.total_rows}


# span name -> (the streammem modules that call the function, counter).
# The span name is the defining module and the function; the wrapper goes
# into each calling module under the function's name, or under ATTRIBUTE.
SITES = {
    "stream.load_stream": (("pipeline", "stream"), _stream_mb),
    "stream.encode_instruction": (("pipeline", "cli"), None),
    "stream.save_stream": (("pipeline", "cli"), None),
    "params.init_model_params": (("pipeline", "cli"), None),
    "params.save_params": (("pipeline",), None),
    "perceiver.process_stream": (("pipeline",), _resident_mb),
    "perceiver.perceive_subclip": (("perceiver",), None),
    "perceiver.cross_sublayer": (("perceiver",), None),
    "perceiver.temporal_sublayer": (("perceiver",), None),
    "perceiver.ffn_sublayer": (("perceiver",), None),
    "memory.read_context": (("perceiver",), _read_rows),
    "memory.write_frame": (("perceiver",), None),
    "memory.append": (("perceiver", "memory"), None),
    "memory.buffer_store": (("perceiver",), None),
    "memory.save_bank": (("pipeline",), None),
    "memory.save_buffer_spill": (("pipeline",), None),
    "memory.load_bank": (("cli",), None),
    "memory.disk_buffer_get": (("memory",), None),
    "tensor.attention": (("perceiver", "memory"), _attention_rows),
    "tensor.layer_norm": (("perceiver",), None),
    "tensor.gelu": (("perceiver",), None),
    "kernels.sq_dist_matrix": (("dfs",), None),
    "dfs.dfs_select": (("pipeline", "cli"), None),
    "dfs.frame_relevance": (("dfs",), None),
    "dfs.select_top_L": (("dfs",), _candidates),
    "dfs.dpc_knn_select": (("dfs",), None),
    "dfs.pool_tokens": (("dfs",), None),
    "assembly.assemble": (("pipeline", "cli"), _assembled_rows),
    "assembly.save_llm_input": (("pipeline", "cli"), None),
}
ATTRIBUTE = {"memory.disk_buffer_get": "DiskFeatureBuffer.get"}

# The save_* calls of run_pipeline, summed as pipeline.write_artifacts.ms.
ARTIFACT_WRITES = ("params.save_params", "memory.save_bank",
                   "memory.save_buffer_spill", "stream.save_stream",
                   "assembly.save_llm_input")


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if any part
    of it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}  # span index -> {metric name: value}
        self.absent = []
        self._stack = []
        self._installed = []

    def _mark_absent(self, what) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                try:
                    self.counters[index] = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self._mark_absent(f"{name} counter")
            return result
        return traced

    def install(self, sites=None, package="streammem") -> None:
        """Wrap every call site that exists; record the missing ones."""
        for name, (callers, counter) in (sites or SITES).items():
            path = ATTRIBUTE.get(name, name.partition(".")[2])
            for caller in callers:
                module = f"{package}.{caller}"
                found = _resolve(module, path)
                if found is None:
                    self._mark_absent(f"{module}.{path}")
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def root_of(spans):
    """The index of each span's outermost enclosing span."""
    roots = []
    for i, (_, _, _, parent) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


def summarize(spans, counters, roots):
    """Per span name: calls, inclusive and self nanoseconds, and summed
    counters, over the spans that descend from one of `roots` (indices of
    root spans). Self time is a span's duration minus its children's."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    root_of_span = root_of(spans)
    roots = set(roots)
    names = {}
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        if root_of_span[i] not in roots:
            continue
        entry = names.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["ns"] += end - start
        entry["self_ns"] += end - start - child_ns[i]
        for key, value in counters.get(i, {}).items():
            totals[key] = totals.get(key, 0) + value
    return names, totals
