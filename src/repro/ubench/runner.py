"""Execute microbenchmark kernels and confront them with the model.

The runner boots a fresh :class:`~repro.cpu.machine.VAX780` per kernel,
steps through the prologue and warm-up copies outside any measurement,
then opens a :class:`~repro.monitor.session.MeasurementSession` around
exactly the measured copies.  The µPC histogram delta is classified into
the model's busy buckets (decode / patch / spec / fused / bdisp /
execute) plus itemized overhead causes (IB stall, cache read/write
stalls, TB-miss service, unaligned access, interrupt delivery).

Busy cycles are state-independent, so a kernel is ``exact`` when every
busy bucket matches ``copies x`` the analytical prediction; everything
else must land in a named overhead cause, and the two halves must add up
to the session's total cycle count (``reconciled``).  Anything less is a
bug in either the engine or the model — the test suite treats it as one.
"""

from __future__ import annotations

import functools

from repro import obs
from repro.analysis.reduction import reference_map
from repro.monitor.session import MeasurementSession
from repro.obs import metrics
from repro.ubench import model
from repro.ubench.kernels import MEASURED_COPIES, WARMUP_COPIES, emit
from repro.ucode.rows import CycleKind

_SPEC_SLOTS = ("calc", "update", "imm", "ptr", "read", "write")


class UbenchError(Exception):
    """A kernel that failed to run to its measurement window."""


@functools.lru_cache(maxsize=1)
def classification():
    """address -> busy bucket or overhead cause, for nonstalled counts.

    Returns ``(categories, stall_categories)``: the first maps every
    control-store address to a busy bucket / cause for its *nonstalled*
    count, the second to the cause charged for its *stalled* count
    (None where a stalled count would be a classification bug).
    """
    store, umap = reference_map()
    cat = {}

    def put(addrs, name):
        for addr in addrs:
            cat[addr] = name

    put(umap.ird.values(), "decode")
    put([umap.ird_stall], "ib-stall")
    for flows in umap.spec_flows.values():
        for flow in flows.values():
            put((getattr(flow, slot) for slot in _SPEC_SLOTS), "spec")
    put([umap.index_calc], "spec")
    put(umap.spec_fused.values(), "fused")
    put(umap.spec_stall.values(), "ib-stall")
    put([umap.bdisp_calc], "bdisp")
    put([umap.bdisp_stall], "ib-stall")
    put([umap.patch_abort], "patch")
    put([umap.trap_abort, umap.tbm_entry, umap.tbm_compute,
         umap.tbm_pte_read, umap.tbm_insert], "tb-miss")
    put([umap.unaligned_calc], "unaligned")
    put([umap.irq_entry, umap.irq_grant, umap.irq_vector_read,
         umap.irq_push_psl, umap.irq_push_pc, umap.exc_entry,
         umap.exc_push_psl, umap.exc_push_pc, umap.exc_push_param],
        "interrupt")
    for flows in umap.exec_flows.values():
        put(flows.values(), "execute")

    stall_cat = {}
    for ann in store.annotations():
        addr = ann.address
        if addr not in cat:
            cat[addr] = "other"
        if cat[addr] == "tb-miss":
            stall_cat[addr] = "tb-miss"     # the PTE fetch's memory stall
        elif ann.kind is CycleKind.READ:
            stall_cat[addr] = "read-stall"
        elif ann.kind is CycleKind.WRITE:
            stall_cat[addr] = "write-stall"
        else:
            stall_cat[addr] = None
    return cat, stall_cat


def _classify(histogram):
    """Split a histogram into busy buckets and overhead causes."""
    cat, stall_cat = classification()
    busy = dict.fromkeys(model.BUCKETS, 0)
    causes = dict.fromkeys(model.CAUSES, 0)
    for addr, count in enumerate(histogram.nonstalled):
        if not count:
            continue
        name = cat.get(addr, "other")
        if name in busy:
            busy[name] += count
        else:
            causes[name] += count
    for addr, count in enumerate(histogram.stalled):
        if not count:
            continue
        name = stall_cat.get(addr) or "other"
        causes[name] += count
    return busy, causes


def run_kernel(kernel, warmup=WARMUP_COPIES, copies=MEASURED_COPIES,
               machine="vax780"):
    """Run one kernel and return its measured-vs-predicted result dict.

    ``machine`` names the registered backend to run on (see
    :mod:`repro.machines`); the model predicts with that backend's
    params, so the busy buckets must still match exactly.
    """
    from repro.machines.registry import get_machine

    spec = get_machine(machine)
    if copies <= 0:
        raise UbenchError(
            f"{kernel.name}: need at least one measured copy, got {copies}")
    emitted = emit(kernel, warmup=warmup, copies=copies)
    if emitted.measured_instructions <= 0:
        raise UbenchError(
            f"{kernel.name}: kernel emits no measured instructions")
    machine = spec.build()
    machine.boot(emitted.image)

    pre = emitted.setup_instructions + emitted.warmup_instructions
    ran = machine.run(max_instructions=pre)
    if ran != pre:
        raise UbenchError(
            f"{kernel.name}: halted after {ran}/{pre} warm-up instructions")

    with MeasurementSession(machine, name=f"ubench:{kernel.name}") as sess:
        ran = machine.run(max_instructions=emitted.measured_instructions)
    if ran != emitted.measured_instructions:
        raise UbenchError(
            f"{kernel.name}: halted after {ran}/"
            f"{emitted.measured_instructions} measured instructions")
    meas = sess.result

    busy, causes = _classify(meas.histogram)
    if busy["decode"] != emitted.measured_instructions:
        raise UbenchError(
            f"{kernel.name}: decode count {busy['decode']} != "
            f"{emitted.measured_instructions} measured instructions")

    predicted = model.predict_kernel(kernel, spec.params)
    delta = {b: busy[b] - predicted[b] * copies for b in model.BUCKETS}
    exact = not any(delta.values())
    overhead = {c: n for c, n in causes.items() if n}
    accounted = sum(busy.values()) + sum(causes.values())
    reconciled = accounted == meas.cycles
    metrics.counter("ubench.kernels").inc()
    metrics.counter("ubench.cycles").inc(meas.cycles)
    if not exact:
        metrics.counter("ubench.inexact").inc()
    obs.emit("kernel_finished", kernel=kernel.name, group=kernel.group,
             cycles=meas.cycles, exact=exact, reconciled=reconciled)
    return {
        "kernel": kernel.name,
        "group": kernel.group,
        "machine": spec.name,
        "mode": kernel.mode,
        "variant": kernel.variant,
        "note": kernel.note,
        "instructions_per_copy": kernel.ipc,
        "warmup_copies": warmup,
        "measured_copies": copies,
        "instructions": emitted.measured_instructions,
        "total_cycles": meas.cycles,
        "cycles_per_copy": meas.cycles / copies,
        "cycles_per_instruction": meas.cycles / emitted.measured_instructions,
        "predicted_per_copy": predicted,
        "measured_busy": busy,
        "busy_delta": {b: d for b, d in delta.items() if d},
        "exact": exact,
        "overhead": overhead,
        "overhead_per_copy": {c: n / copies for c, n in overhead.items()},
        "reconciled": reconciled,
    }


def _run_task(task):
    """Worker entry point (top-level, so it pickles): one kernel."""
    name, warmup, copies, machine = task
    from repro.ubench import suite

    return run_kernel(suite.kernel_by_name(name), warmup, copies,
                      machine=machine)


def run_suite(kernels, jobs=None, warmup=WARMUP_COPIES,
              copies=MEASURED_COPIES, machine="vax780"):
    """Run kernels (serially or across processes), preserving order.

    Every kernel gets a fresh machine, so results are bit-identical
    regardless of ``jobs`` — ``tests/ubench/test_determinism.py`` holds
    the fan-out to that.
    """
    from repro.workloads.parallel import run_tasks

    tasks = [(k.name, warmup, copies, machine) for k in kernels]
    return run_tasks(_run_task, tasks, jobs=jobs)
