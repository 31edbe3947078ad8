"""Spans around the simulator's layers, recorded from outside ``src/``.

:func:`install` replaces a fixed set of public functions and methods of
the ``repro`` package, in the current process only, with wrappers that
record one span per call: name, start, end, parent span and op (the
root span of its tree).  Nothing under ``src/`` is edited, and the
untraced pass never imports this module, so its timings carry no
wrapper cost.  Spans stay in memory until the process hands them back
to ``run.py``, which writes ``trace.json`` when the run ends.

The ledger functions at the bottom turn a list of spans into per-layer
self times (a span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: Machine counters sampled before and after every instruction-stepping
#: call (``Executive.run``, ``BatchRunner._advance``); the span keeps the
#: difference, so ratios are measured where the work happens.
COUNTERS = ("instructions", "cycles", "ib_refs", "overlapped_decodes",
            "read_misses", "write_stall_cycles", "tb_misses",
            "interrupts", "context_switches")


def machine_counters(machine) -> tuple:
    """The :data:`COUNTERS` of one simulated machine, in order."""
    tracer = machine.tracer
    return (tracer.instructions, machine.cycles,
            machine.ebox.ib.references, tracer.overlapped_decodes,
            sum(machine.mem.cache.stats.read_misses.values()),
            machine.mem.write_buffer.stall_cycles,
            machine.tb.stats.misses, tracer.interrupts,
            tracer.context_switches)


class Recorder:
    """An in-memory list of spans, safe to append from several threads.

    Each span is a dict with ``name``, ``start``, ``end`` (seconds on
    ``time.perf_counter``), ``parent`` (index of the enclosing span in
    the same thread, or None) and ``op`` (index of the root span of its
    tree), plus ``counts`` or ``note`` where the wrapper records them.
    """

    def __init__(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, probe=None, note=None):
        """``func`` recording a span named ``name`` per call.

        ``probe(args)`` returns the machine an instruction-stepping call
        advances; its :data:`COUNTERS` delta is kept as ``counts``.
        ``note(result)`` returns a dict kept as ``note`` (the job id a
        serve submission answered with, for matching client latency).
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": parent}
            with self._lock:
                index = len(self.spans)
                span["op"] = index if parent is None \
                    else self.spans[parent]["op"]
                self.spans.append(span)
            machine = probe(args) if probe is not None else None
            before = machine_counters(machine) if machine else None
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if machine is not None:
                span["counts"] = [after - first for after, first in zip(
                    machine_counters(machine), before)]
            if note is not None:
                span["note"] = note(result)
            return result

        return traced


def _submit_note(result) -> dict:
    status, body, _headers = result
    return {"status": status, "id": body.get("id")}


#: (module, attribute path, span name, probe, note).  Every attribute
#: is patched where callers look it up: a module-level name imported
#: with ``from x import y`` is patched in the importing module too.
TARGETS = (
    ("repro.api", "characterize", "api", None, None),
    ("repro.api", "run_workload", "api", None, None),
    ("repro.api", "explore", "api", None, None),
    ("repro.cpu.machine", "VAX780.__init__", "machines.build", None, None),
    ("repro.osim.executive", "Executive.__init__", "osim.executive_init",
     None, None),
    ("repro.osim.executive", "build_kernel", "osim.kernelgen", None, None),
    ("repro.workloads.codegen", "ProgramGenerator.generate",
     "workloads.codegen", None, None),
    ("repro.osim.executive", "Executive.run", "osim.run",
     lambda args: args[0].machine, None),
    ("repro.batch.engine", "BatchRunner._advance", "osim.run",
     lambda args: args[1].machine, None),
    ("repro.batch.engine", "BatchRunner.run", "batch.run", None, None),
    ("repro.analysis.measurement", "Measurement.capture",
     "analysis.capture", None, None),
    ("repro.batch.engine", "BatchRunner._capture", "analysis.capture",
     None, None),
    ("repro.workloads.engine", "composite", "analysis.composite",
     None, None),
    ("repro.explore.runner", "compose", "analysis.composite", None, None),
    ("repro.api", "table1", "analysis.tables", None, None),
    ("repro.api", "table8", "analysis.tables", None, None),
    ("repro.api", "render_table1", "report.render", None, None),
    ("repro.explore.runner", "_record", "explore.record", None, None),
    ("repro.explore.store", "ResultStore.get", "explore.store_get",
     None, None),
    ("repro.explore.store", "ResultStore.put", "explore.store_put",
     None, None),
    ("repro.explore.store", "code_version", "explore.code_version",
     None, None),
    ("repro.explore.runner", "code_version", "explore.code_version",
     None, None),
    ("repro.explore", "code_version", "explore.code_version", None, None),
    ("repro.serve.server", "code_version", "explore.code_version",
     None, None),
    ("repro.explore", "sensitivity", "explore.sensitivity", None, None),
    ("repro.serve.server", "JobServer.submit", "serve.submit", None,
     _submit_note),
    ("repro.serve.canonical", "parse_request", "serve.parse_request",
     None, None),
    ("repro.serve.canonical", "request_key", "serve.request_key",
     None, None),
)


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry (and the facade's table maps)."""
    for module_name, path, name, probe, note in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(name, raw.__func__,
                                                probe, note))
        else:
            wrapped = recorder.wrap(name, raw, probe, note)
        setattr(owner, attr, wrapped)

    api = importlib.import_module("repro.api")
    for key, (compute, render) in list(api.TABLES.items()):
        api.TABLES[key] = (recorder.wrap("analysis.tables", compute),
                           recorder.wrap("report.render", render))
    # The job server resolves commands through a table built at import.
    workers = importlib.import_module("repro.serve.workers")
    for command, func in list(workers.EXECUTORS.items()):
        workers.EXECUTORS[command] = getattr(
            api, func.__name__, func)


# -- ledger arithmetic ------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Children of one span run in the parent's thread and nest inside it,
    so their intervals never overlap and their sum is the part of the
    parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - covered[index]
            for index, span in enumerate(spans)]


def layer_totals(spans, ops=None) -> dict:
    """Summed self seconds per span name, over the given root ops.

    ``ops`` is a collection of root span indices (None: every span).
    """
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        if ops is None or span["op"] in ops:
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def counter_totals(spans, ops=None) -> dict:
    """Summed machine-counter deltas over the instruction-stepping spans."""
    sums = [0] * len(COUNTERS)
    for span in spans:
        if "counts" in span and (ops is None or span["op"] in ops):
            sums = [total + delta
                    for total, delta in zip(sums, span["counts"])]
    return dict(zip(COUNTERS, sums))


def call_durations(spans, name: str) -> list:
    """Wall seconds of every span called ``name`` (children included)."""
    return [span["end"] - span["start"] for span in spans
            if span["name"] == name]
