"""Fast-path vs per-cycle-reference differential fuzzing.

The optimised EBOX fast-forwards provably idle fill-engine windows,
batches IB-stall charging, and inlines the common-case D-stream
sequencing (``tick`` / ``ib_take`` / the inlined ``read``/``write``
paths).  :class:`ReferenceEBox` re-creates the original per-cycle
implementations (``tick_reference`` / ``ib_take_reference`` plus
straightforward chunked reads and writes through the memory subsystem).

The harness here boots *two* complete machines on the same seeded random
workload — one per engine, both built through the machine registry, so
every registered backend is fuzzed the same way — and steps them in
lockstep, comparing architectural state at every instruction boundary
and whole captured measurements (cycles, both histogram count sets,
every tracer counter, every memory statistic) at checkpoints and at the
end.  Workload generation goes through the normal
:mod:`repro.workloads.codegen` path via the executive, so the fuzzer
exercises exactly the instruction mix the experiments do: every
registered generator workload the machine supports, with randomly
perturbed profiles.

Everything is deterministic given (machine, profile, seed), so a
divergence found at instruction boundary *k* reproduces on a re-run with
the instruction budget shrunk to the first divergent boundary —
:func:`shrink` exploits this to hand back a minimal reproducer with a
disassembly window of at most :data:`WINDOW` instructions around the
divergence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
import random

from repro import obs
from repro.analysis.measurement import Measurement
from repro.arch.datatypes import MASKS
from repro.obs import metrics
from repro.cpu.ebox import EBox
from repro.machines.registry import DEFAULT_MACHINE, get_machine
from repro.osim.executive import Executive
from repro.workloads.profiles import MixProfile
from repro.workloads.registry import WORKLOADS

#: Instructions of context reported around a divergence.
WINDOW = 10
#: Instruction boundaries between whole-measurement checkpoint compares.
CHECKPOINT = 256
#: Cycle budget per measured instruction before a case is abandoned.
CYCLE_LIMIT_FACTOR = 2000


class ReferenceEBox(EBox):
    """EBox with every timing fast path replaced by the per-cycle spec."""

    def tick(self, cycles, port_free=True):
        self.tick_reference(cycles, port_free)

    def _cycle_raw(self, upc, n=1):
        self.board.count(upc, n)
        self.tick_reference(n)

    def ib_take(self, nbytes, stall_upc):
        self.ib_take_reference(nbytes, stall_upc)

    def read(self, va, size, upc):
        value = 0
        shift = 0
        for i, (chunk_va, chunk_size) in enumerate(self._chunks(va, size)):
            pa = self.translate(chunk_va, "d")
            result = self.mem.read_data(pa, chunk_size, self.now)
            self.board.count(upc)
            self.tick_reference(1, port_free=False)
            if result.stall_cycles:
                self.board.count_stall(upc, result.stall_cycles)
                self.tick_reference(result.stall_cycles, port_free=False)
            extra_refs = result.physical_refs - 1 + (1 if i else 0)
            if extra_refs:
                self._cycle_raw(self.u.unaligned_calc, extra_refs)
            value |= result.value << shift
            shift += 8 * chunk_size
        return value

    def write(self, va, value, size, upc):
        shift = 0
        for i, (chunk_va, chunk_size) in enumerate(self._chunks(va, size)):
            pa = self.translate(chunk_va, "d")
            chunk = (value >> shift) & MASKS[chunk_size]
            result = self.mem.write_data(pa, chunk, chunk_size, self.now)
            self.board.count(upc)
            self.tick_reference(1, port_free=False)
            if result.stall_cycles:
                self.board.count_stall(upc, result.stall_cycles)
                self.tick_reference(result.stall_cycles, port_free=False)
            extra_refs = result.physical_refs - 1 + (1 if i else 0)
            if extra_refs:
                self._cycle_raw(self.u.unaligned_calc, extra_refs)
            shift += 8 * chunk_size


@dataclass(frozen=True)
class FuzzCase:
    """One differential run: a profile, a seed, a budget, a machine."""

    profile: MixProfile
    seed: int
    instructions: int
    machine: str = DEFAULT_MACHINE

    def label(self) -> str:
        where = "" if self.machine == DEFAULT_MACHINE \
            else f" on {self.machine}"
        return (f"{self.profile.name} seed={self.seed} "
                f"n={self.instructions}" + where)


@dataclass
class Divergence:
    """The first observed fast-vs-reference disagreement."""

    case: FuzzCase
    step: int                #: instruction boundaries completed
    instructions: int        #: measured instructions at divergence
    field: str               #: what disagreed ("now", "pc", ...)
    fast: object
    reference: object
    window: list             #: [(step, pc, mnemonic), ...] context

    def describe(self) -> str:
        lines = [f"divergence on {self.case.label()} at boundary "
                 f"{self.step} ({self.instructions} measured):",
                 f"  {self.field}: fast={self.fast!r} "
                 f"reference={self.reference!r}",
                 "  last instructions:"]
        lines += [f"    [{step:6d}] {pc:#010x}  {mnemonic}"
                  for step, pc, mnemonic in self.window]
        return "\n".join(lines)


@dataclass
class Reproducer:
    """A minimal failing case plus its divergence evidence."""

    case: FuzzCase
    divergence: Divergence

    def describe(self) -> str:
        return (f"minimal reproducer: budget {self.case.instructions} "
                f"instruction(s)\n" + self.divergence.describe())


#: (field name, lambda rng: value) perturbations the fuzzer draws from.
_KNOBS = (
    ("char_ops", lambda rng: rng.uniform(0.0, 25.0)),
    ("float_ops", lambda rng: rng.uniform(0.0, 15.0)),
    ("decimal_ops", lambda rng: rng.uniform(0.0, 5.0)),
    ("field_ops", lambda rng: rng.uniform(0.0, 8.0)),
    ("cond_branch", lambda rng: rng.uniform(20.0, 90.0)),
    ("syscall_density", lambda rng: rng.uniform(0.0, 0.1)),
    ("blocking_syscall_fraction", lambda rng: rng.uniform(0.0, 1.0)),
    ("string_length", lambda rng: rng.randrange(1, 80)),
    ("terminal_period_cycles", lambda rng: rng.randrange(2000, 20000)),
    ("io_block_cycles", lambda rng: rng.randrange(4000, 40000)),
    ("processes", lambda rng: rng.randrange(1, 10)),
)


def random_case(rng: random.Random, index: int, instructions: int,
                machine: str = DEFAULT_MACHINE) -> FuzzCase:
    """Draw one fuzz case: a perturbed generator workload and a seed.

    The pool is every registered generator workload ``machine``
    supports, in registration order.
    """
    base = rng.choice([spec.profile for spec in WORKLOADS.values()
                       if spec.trace is None
                       and spec.supported_on(machine)])
    overrides = {field: draw(rng) for field, draw in _KNOBS
                 if rng.random() < 0.4}
    profile = replace(base, name=f"fuzz{index}-{base.name}", **overrides)
    return FuzzCase(profile, rng.randrange(1 << 30), instructions, machine)


def _boot(case: FuzzCase, reference: bool = False) -> Executive:
    """A booted executive on a registry-built machine for one engine."""
    spec = get_machine(case.machine)
    machine = spec.build(ebox=ReferenceEBox if reference else None)
    executive = Executive(machine, spec.adapt_profile(case.profile),
                          seed=case.seed)
    executive.boot()
    return executive


def _mnemonic(machine, pc: int) -> str:
    """Best-effort mnemonic for the cached decode at ``pc``."""
    if pc & 0x80000000:
        inst = machine._decode_cache.get(pc)
    else:
        space = machine.translator.current_space
        inst = machine._decode_cache.get(
            (pc, space.asid if space is not None else -1))
    return inst.info.mnemonic if inst is not None else "?"


def _state(machine):
    e = machine.ebox
    return (e.now, e.pc, tuple(e.registers), e.psl.as_long(),
            machine.tracer.instructions)

_STATE_FIELDS = ("now", "pc", "registers", "psl", "instructions")


def _measurement_field(fast, reference):
    """Name + values of the first differing observable, or None.

    Compares everything a measurement carries: cycle count, both
    histogram count sets bucket by bucket, every tracer counter and
    scalar, and every memory-subsystem statistic.
    """
    if fast.cycles != reference.cycles:
        return "cycles", fast.cycles, reference.cycles
    for kind in ("nonstalled", "stalled"):
        mine = getattr(fast.histogram, kind)
        theirs = getattr(reference.histogram, kind)
        if mine != theirs:
            for address, (a, b) in enumerate(zip(mine, theirs)):
                if a != b:
                    return f"histogram.{kind}[{address}]", a, b
    for name in reference.tracer._SCALARS + reference.tracer._COUNTERS:
        a, b = getattr(fast.tracer, name), getattr(reference.tracer, name)
        if a != b:
            return f"tracer.{name}", a, b
    for name in type(reference.memory).__slots__:
        a, b = getattr(fast.memory, name), getattr(reference.memory, name)
        if a != b:
            return f"memory.{name}", a, b
    return None


def run_case(case: FuzzCase, checkpoint: int = CHECKPOINT):
    """Run one case in lockstep; returns a Divergence or None.

    Captures are passive, so the checkpoint compares change no machine
    state.
    """
    fast = _boot(case).machine
    ref = _boot(case, reference=True).machine
    window = deque(maxlen=WINDOW)
    cycle_limit = case.instructions * CYCLE_LIMIT_FACTOR
    step = 0

    def diverged(field, a, b):
        return Divergence(case, step, fast.tracer.instructions, field,
                          a, b, list(window))

    def measured():
        return _measurement_field(
            Measurement.capture(case.profile.name, fast),
            Measurement.capture(case.profile.name, ref))

    while fast.tracer.instructions < case.instructions:
        if fast.halted or ref.halted:
            break
        if fast.ebox.now > cycle_limit:
            break
        pc = fast.ebox.pc
        fast.step()
        ref.step()
        step += 1
        window.append((step, pc, _mnemonic(fast, pc)))
        fs, rs = _state(fast), _state(ref)
        if fs != rs:
            for name, a, b in zip(_STATE_FIELDS, fs, rs):
                if a != b:
                    return diverged(name, a, b)
        if step % checkpoint == 0:
            difference = measured()
            if difference is not None:
                return diverged(*difference)

    if fast.halted != ref.halted:
        return diverged("halted", fast.halted, ref.halted)
    difference = measured()
    return None if difference is None else diverged(*difference)


def shrink(divergence: Divergence) -> Reproducer:
    """Shrink a failing case to the smallest budget that still fails.

    The runs are deterministic, so the divergence recurs once the
    budget admits its boundary; a budget of ``instructions + 1``
    measured instructions is sufficient (boundary *k* executes while
    the measured count is still ``instructions``), and re-running
    confirms it.  Checkpoint compares run every boundary during the
    confirmation, so it may place the divergence earlier than the
    search did; the cut then iterates to a fixed point.
    """
    case, best = divergence.case, divergence
    while True:
        small = replace(case, instructions=best.instructions + 1)
        confirmed = run_case(small, checkpoint=1)
        if confirmed is None:
            # Not reproducible under the smaller budget (should not
            # happen for a deterministic engine); keep the evidence.
            return Reproducer(case, best)
        case, best = small, confirmed
        if best.instructions + 1 >= case.instructions:
            return Reproducer(case, best)


def _fuzz_task(payload):
    """Worker entry point (top-level, so it pickles): one fuzz case.

    Runs and — on divergence — shrinks the case entirely inside the
    worker, applying the optional planted perturbation there too (the
    plant's name travels in the payload, so the patch exists in the
    worker process regardless of the multiprocessing start method).
    """
    kind, case, plant = payload
    from repro.refute.perturb import perturbation

    runner, shrinker = _FUZZ_KINDS[kind]
    with perturbation(plant):
        divergence = runner(case)
        reproducer = shrinker(divergence) if divergence is not None \
            else None
    return {"case": case, "label": case.label(),
            "ok": divergence is None, "reproducer": reproducer}


def _fuzz_loop(count: int, seed: int, instructions: int, progress,
               kind: str, jobs: int = 1, plant: str = None,
               machine: str = DEFAULT_MACHINE) -> list:
    """The shared fuzz driver: draw cases, run, shrink divergences.

    Case drawing happens up front from one seeded RNG and results come
    back in submission order (``run_tasks`` preserves it), so the
    result list — including every shrunk reproducer — is identical at
    any ``jobs``; only the wall-clock changes.  Metrics and obs events
    are emitted from this process, in case order, for the same reason.
    """
    from repro.workloads.parallel import run_tasks

    rng = random.Random(seed)
    cases = [random_case(rng, index, instructions, machine)
             for index in range(count)]
    payloads = [(kind, case, plant) for case in cases]
    results = run_tasks(_fuzz_task, payloads, jobs=jobs)
    for index, result in enumerate(results):
        metrics.counter("validate.fuzz_cases").inc()
        if not result["ok"]:
            divergence = result["reproducer"].divergence
            metrics.counter("validate.divergences").inc()
            obs.emit("fuzz_divergence", label=result["label"],
                     kind=kind, field=divergence.field,
                     step=divergence.step)
        obs.emit("fuzz_case", index=index, label=result["label"],
                 kind=kind, ok=result["ok"])
        if progress is not None:
            verdict = "ok" if result["ok"] else "DIVERGED"
            progress(f"[{index + 1}/{count}] {result['label']}: "
                     f"{verdict}")
    return results


def fuzz(count: int, seed: int, instructions: int = 400,
         progress=None, jobs: int = 1, plant: str = None,
         machine: str = DEFAULT_MACHINE) -> list:
    """Run ``count`` random fast-vs-reference differential cases.

    Returns a list of result dicts, one per case, each with the case
    label and either ``None`` or a shrunk :class:`Reproducer`.  The
    results are byte-identical at any ``jobs``.
    """
    return _fuzz_loop(count, seed, instructions, progress,
                      kind="reference", jobs=jobs, plant=plant,
                      machine=machine)


# -- scalar <-> batch ----------------------------------------------------
#
# The second differential axis: the batch engine
# (:mod:`repro.batch`) against independent scalar runs of the same
# case.  Each case runs at several prefix boundaries so the fuzz
# exercises exactly what makes the batch engine dangerous — mid-run
# captures on a shared machine — and every observable of the resulting
# measurements is compared, not just architectural state.

#: Prefix fractions (of the case budget) a batch fuzz case captures at.
BATCH_PREFIXES = (3, 2)


def batch_targets(instructions: int) -> list:
    """The capture boundaries a batch fuzz case measures, ascending."""
    targets = {max(1, instructions // fraction)
               for fraction in BATCH_PREFIXES}
    targets.add(instructions)
    return sorted(targets)


def _scalar_lane(case: FuzzCase, target: int):
    """One scalar-engine run to ``target``: (measurement, error)."""
    executive = _boot(case)
    try:
        executive.run(target)
    except RuntimeError as exc:
        return None, str(exc)
    return Measurement.capture(case.profile.name, executive.machine), None


def run_case_batch(case: FuzzCase):
    """Run one case on both engines; returns a Divergence or None.

    The scalar side runs each target independently (fresh machine per
    budget, exactly the engine path); the batch side fuses all targets
    into one cohort.  Lane errors participate in the comparison: both
    engines must fail the same targets with the same message.
    """
    from repro.batch import LaneSpec, run_lanes

    targets = batch_targets(case.instructions)
    lanes = [LaneSpec(case.profile.name, target, case.seed,
                      machine=case.machine)
             for target in targets]
    batch = run_lanes(lanes, strict=False,
                      profiles={case.profile.name: case.profile})
    for position, (target, lane) in enumerate(zip(targets, batch)):
        measurement, error = _scalar_lane(case, target)
        divergence = None
        if lane.error != error:
            divergence = ("error", lane.error, error)
        elif error is None:
            divergence = _measurement_field(lane.measurement,
                                            measurement)
        if divergence is not None:
            field, fast, reference = divergence
            return Divergence(case, step=position, instructions=target,
                              field=field, fast=fast,
                              reference=reference, window=[])
    return None


def shrink_batch(divergence: Divergence) -> Reproducer:
    """Shrink a batch divergence to the smallest budget that fails.

    Re-runs with the budget cut to the divergent capture boundary;
    deterministic engines keep failing, possibly at an even earlier
    boundary of the smaller case, so the cut iterates to a fixed
    point.
    """
    case, best = divergence.case, divergence
    while best.instructions < case.instructions:
        small = replace(case, instructions=max(1, best.instructions))
        confirmed = run_case_batch(small)
        if confirmed is None:
            # Not reproducible under the smaller budget (should not
            # happen for deterministic engines); keep the evidence.
            return Reproducer(case, best)
        case, best = small, confirmed
    return Reproducer(case, best)


def fuzz_batch(count: int, seed: int, instructions: int = 400,
               progress=None, jobs: int = 1, plant: str = None,
               machine: str = DEFAULT_MACHINE) -> list:
    """Run ``count`` random scalar-vs-batch differential cases.

    Same result shape as :func:`fuzz`: one dict per case with either
    ``None`` or a shrunk :class:`Reproducer`.  The same (seed, count,
    machine) draws the same cases as the reference fuzz, so a profile
    that diverges on one axis can be replayed on the other.
    """
    return _fuzz_loop(count, seed, instructions, progress,
                      kind="batch", jobs=jobs, plant=plant,
                      machine=machine)


#: kind -> (runner, shrinker); the fuzz axes workers dispatch on.
_FUZZ_KINDS = {
    "reference": (run_case, shrink),
    "batch": (run_case_batch, shrink_batch),
}
