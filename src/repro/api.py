"""repro.api: the stable, typed facade over the reproduction.

Every capability the command line exposes — the paper's measurement
campaign, single workloads, control-store hotspots, the assembler
listing, the block diagram, the microbenchmark sweep, design-space
exploration, validation — is one plain function here, returning a
frozen dataclass with a uniform :meth:`~_Result.to_json`.  Scripts and
notebooks should import this module instead of reaching into the
engine packages::

    from repro import api

    result = api.characterize(smoke=True, table="8")
    print(result.cycles_per_instruction)
    json_doc = result.to_json()

Each command is declared once, here.  Its function signature is the
only place its parameter names and defaults are written; the
:class:`Command` declaration beside it (see :data:`COMMANDS`) adds each
parameter's type, help text and CLI spelling, plus the command's one
canonicalizing step — every check and shorthand expansion.  The CLI
(:mod:`repro.cli`) builds each subcommand's flags from the declaration,
and the job server (:mod:`repro.serve`) binds request payloads to it.

Contract:

* invalid arguments raise :class:`ApiError` (a ``ValueError``, defined
  in :mod:`repro.errors`) or a domain error that subclasses it
  (``MachineError``, ``WorkloadError``, ...) *before* any simulation
  runs, and nothing converts one into another: the CLI exits 2 on the
  class and the job server answers 400 on it;
* a served command's canonicalizing step runs every check its facade
  function runs before simulating, so the job server refuses at submit
  what would otherwise fail in a worker;
* results are frozen — a result is a record of what happened, not a
  handle to mutate;
* heavyweight attachments (measurements, sweep objects, invariant
  reports) ride along for programmatic use but stay out of
  ``to_json()``;
* every call emits ``run_started``/``run_finished`` events and bumps an
  ``api.calls.<command>`` counter when an observation is active
  (:mod:`repro.obs`), and none of that changes any simulated count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro import obs
from repro.analysis import (section4, table1, table2, table3, table4,
                            table5, table6, table7, table8, table9)
from repro.batch import validate_engine
from repro.errors import ApiError
from repro.machines.registry import validate_machine
from repro.obs import metrics
from repro.report.format import (render_figure1, render_section4,
                                 render_table1, render_table2,
                                 render_table3, render_table4,
                                 render_table5, render_table6,
                                 render_table7, render_table8,
                                 render_table9)
from repro.workloads import engine as _engines
from repro.workloads import registry as _registry

__all__ = ["ApiError", "DEFAULT_INSTRUCTIONS", "SMOKE_INSTRUCTIONS",
           "TABLES", "COMMANDS", "Command", "Param",
           "CharacterizeResult", "WorkloadResult", "HotspotsResult",
           "DisasmResult", "Figure1Result", "ProfilesResult",
           "WorkloadsResult", "TraceResult",
           "MachinesResult", "UbenchResult", "ExploreResult",
           "ExplorePointsResult", "ValidateResult", "RefuteResult",
           "characterize", "run_workload", "hotspots", "disasm",
           "figure1", "profiles", "workloads", "record_trace",
           "machines", "ubench", "explore",
           "explore_points", "explore_spec", "validate", "refute"]

#: The budget the CLI has always defaulted to for measurement commands.
DEFAULT_INSTRUCTIONS = 30_000
#: Re-exported: the fixed small budget behind every ``--smoke``.
SMOKE_INSTRUCTIONS = _engines.SMOKE_INSTRUCTIONS

#: table key -> (compute, render); the paper's tables plus §4's text.
TABLES = {
    "1": (table1, render_table1), "2": (table2, render_table2),
    "3": (table3, render_table3), "4": (table4, render_table4),
    "5": (table5, render_table5), "6": (table6, render_table6),
    "7": (table7, render_table7), "8": (table8, render_table8),
    "9": (table9, render_table9), "s4": (section4, render_section4),
}


# -- canonicalizing steps -------------------------------------------------


def _budget(instructions, smoke: bool = False,
            default: int = DEFAULT_INSTRUCTIONS, name="instructions"):
    """An explicit budget wins; else ``smoke``'s fixed one or ``default``.

    A run measures at least one instruction, so an explicit budget
    below 1 raises :class:`ApiError` naming field ``name``.
    """
    if instructions is None:
        return SMOKE_INSTRUCTIONS if smoke else default
    if instructions < 1:
        raise ApiError(f"field {name!r} must be a positive budget, "
                       f"got {instructions}")
    return instructions


def _count(name: str, value: int, least: int = 1) -> int:
    """``value``; below ``least`` raises :class:`ApiError` naming it."""
    if value < least:
        raise ApiError(f"field {name!r} must be at least {least}, "
                       f"got {value}")
    return value


def _store(store):
    """Resolve a ``store`` argument (a path, a ResultStore or None).

    A root that cannot hold records (under a regular file, unwritable)
    raises :class:`ApiError` naming the path, before anything simulates.
    """
    from repro.explore.store import ResultStore

    if store is None:
        return None
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    try:
        store.check()
    except OSError as exc:
        raise ApiError(f"unusable store {str(store.root)!r}: "
                       f"{exc.strerror or exc}") from exc
    return store


def _workload(value, machine_name: str = None):
    """Resolve one workload argument to its registered spec.

    Accepts what :func:`~repro.workloads.registry.find_workload` does;
    a workload the machine refuses raises its ``WorkloadError``.
    """
    spec = _registry.find_workload(value)
    spec.check_machine(machine_name)
    return spec


def _workload_names(value, machine_name: str = None) -> tuple:
    """Resolve a ``workloads`` argument to a tuple of registered names.

    ``None`` means the paper's five; ``"all"`` every registered
    generator workload the machine supports; a name or a list of names
    resolves entry by entry via :func:`_workload`, duplicates dropped.
    A selection of no workloads at all raises :class:`ApiError`.
    """
    if value is None:
        return _registry.paper_workload_names()
    if value == "all":
        names = tuple(
            name for name, spec in _registry.WORKLOADS.items()
            if spec.trace is None and spec.supported_on(machine_name))
    else:
        if isinstance(value, str):
            value = [value]
        if not isinstance(value, (list, tuple)):
            raise ApiError(
                "field 'workloads' must be a list of workload names, "
                f"a single name, or 'all'; got {value!r}")
        names = tuple(dict.fromkeys(
            _workload(item, machine_name).name for item in value))
    if not names:
        raise ApiError("field 'workloads' selects no workloads")
    return names


def _tables(table) -> tuple:
    """Resolve a ``table`` argument: ``"all"``/None, one key, or keys."""
    if table in ("all", None):
        return tuple(TABLES)
    try:
        keys = (table,) if isinstance(table, str) \
            else tuple(str(key) for key in table)
    except TypeError:
        raise ApiError(f"field 'table' must be a table key or a list of "
                       f"keys ({', '.join(TABLES)}) or 'all'; got "
                       f"{table!r}") from None
    for key in keys:
        if key not in TABLES:
            raise ApiError(f"unknown table {key!r}; choose from "
                           f"{', '.join(TABLES)}")
    return keys


# -- command declarations -------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A facade parameter's type, help text and CLI spelling.

    The name and default are the facade signature's.  ``kind`` is the
    type a served payload must carry and the CLI's conversion (None
    leaves both to the command's canonicalizer); a ``bool`` parameter
    becomes a CLI switch that flips the signature's default.  ``flag``
    is the CLI spelling — derived from the name when None, ``""`` for a
    positional argument; ``cli`` holds extra argparse settings.
    """

    kind: object
    help: str
    flag: str = None
    cli: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One command, declared once beside its facade function.

    ``help`` is the function's docstring summary; ``params`` maps each
    exposed parameter, in signature order, to its :class:`Param`;
    ``defaults`` are the signature's.  ``resolve`` is the
    canonicalizing step of the commands the job server accepts: bound
    arguments in, resolved values out.
    """

    help: str
    params: dict
    defaults: dict
    resolve: object = None

    def canonical(self, given: dict) -> dict:
        """``given`` bound over the defaults and resolved, as JSON."""
        return _jsonable(self.resolve({**self.defaults, **given}))


#: command name -> its declaration, in definition (and CLI) order.
COMMANDS = {}


def _workload_list(text: str):
    """Parse a ``--workloads`` value: ``all``, or comma-separated names."""
    if text == "all":
        return text
    return tuple(name.strip() for name in text.split(",")
                 if name.strip())


def _address(text: str) -> int:
    return int(text, 0)


#: Parameters several commands share, each declared once.
SHARED_PARAMS = {
    "seed": Param(int, "workload seed (default: 1984, or the sweep "
                       "spec's)"),
    "jobs": Param(int, "worker processes for parallel fan-out (default "
                       "1 = serial; results are bit-identical either "
                       "way)"),
    "smoke": Param(bool, "small fixed budgets / subsets (CI smoke run)"),
    "store": Param(str, "explore result store directory "
                        "(default: .explore/store)"),
    "engine": Param(None, "budget-only fusion: batch runs lanes that "
                          "differ only in budget on one machine, scalar "
                          "(default) gives each its own, auto fuses "
                          "when any would (explore, co-queued serve "
                          "jobs; characterize runs the same lanes under "
                          "every value; validate --fuzz checks the named "
                          "engine on the named machine); results are "
                          "bit-identical; "
                          "validated before anything simulates"),
    "machine": Param(str, "machine backend: vax780 (default, the "
                          "paper's machine) or uvax78032 (MicroVAX "
                          "subset VAX); see 'repro machines'; validated "
                          "before anything simulates"),
    "paranoid": Param(bool, "sample conservation-invariant checks "
                            "during the run (passive; forces --jobs 1)"),
    "workloads": Param(None, "run these registered workloads instead of "
                             "the paper's five ('all' = every generator "
                             "workload the machine supports; see "
                             "'repro workloads')",
                       cli={"type": _workload_list, "metavar": "A,B,..."}),
}
_INSTRUCTIONS = Param(int, "measured instructions per workload (default "
                           f"{DEFAULT_INSTRUCTIONS}; --smoke: "
                           f"{SMOKE_INSTRUCTIONS})")


def _command(name: str, resolve=None, /, **params):
    """Declare the decorated facade function as command ``name``.

    ``params`` declares the command's own parameters; any other
    signature parameter named in :data:`SHARED_PARAMS` takes the shared
    declaration, and the rest (callbacks) stay off the command line
    and the wire.  The subcommand's help is the docstring's first line.
    """
    from inspect import signature

    def declare(func):
        sig = signature(func).parameters
        declared = {key: params.get(key) or SHARED_PARAMS[key]
                    for key in sig
                    if key in params or key in SHARED_PARAMS}
        COMMANDS[name] = Command(
            help=func.__doc__.split("\n")[0], params=declared,
            defaults={key: sig[key].default for key in declared},
            resolve=resolve)
        return func

    return declare


def _attachment(**kwargs):
    """A dataclass field carried on the result but left out of JSON."""
    return field(repr=False, compare=False, metadata={"internal": True},
                 **kwargs)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class _Result:
    """Base for all facade results: frozen, uniformly serialisable."""

    def to_json(self) -> dict:
        """The result as a JSON-serialisable dict (attachments omitted)."""
        doc = {"kind": type(self).__name__}
        for spec in fields(self):
            if spec.metadata.get("internal"):
                continue
            doc[spec.name] = _jsonable(getattr(self, spec.name))
        return doc


@contextmanager
def _span(command: str, **fields_):
    """Observe one facade call: counter plus run start/finish events."""
    metrics.counter(f"api.calls.{command}").inc()
    obs.emit("run_started", command=command, **fields_)
    started = time.monotonic()
    try:
        yield
    except BaseException as exc:
        obs.emit("run_finished", command=command, ok=False,
                 error=type(exc).__name__,
                 seconds=round(time.monotonic() - started, 6))
        raise
    obs.emit("run_finished", command=command, ok=True,
             seconds=round(time.monotonic() - started, 6))


# -- characterize -------------------------------------------------------


@dataclass(frozen=True)
class CharacterizeResult(_Result):
    """A workload composite and its rendered tables."""

    instructions: int
    seed: int
    jobs: int
    paranoid: bool
    engine: str
    machine: str
    workloads: tuple         #: the composite's workload names, in order
    cycles: int
    instructions_measured: int
    cycles_per_instruction: float
    tables: tuple            #: ({"table": key, "text": rendered}, ...)
    measurement: object = _attachment(default=None)


def _characterize_args(args: dict) -> dict:
    engine = validate_engine(args["engine"])
    machine = validate_machine(args["machine"])
    names = _workload_names(args["workloads"], machine)
    return {"instructions": _budget(args["instructions"], args["smoke"]),
            "seed": args["seed"], "jobs": _count("jobs", args["jobs"]),
            "paranoid": args["paranoid"], "table": _tables(args["table"]),
            "engine": engine, "machine": machine, "workloads": names}


@_command("characterize", _characterize_args,
          instructions=_INSTRUCTIONS,
          table=Param(None, "which table: 1-9, s4, or 'all'"))
def characterize(instructions: int = None, seed: int = 1984,
                 jobs: int = 1, paranoid: bool = False,
                 table="all", smoke: bool = False,
                 engine: str = None, machine: str = None,
                 workloads=None) -> CharacterizeResult:
    """Run a workload composite and compute the paper's tables.

    The default campaign is the paper's: the five-workload composite,
    bit-identical to what this call has always produced.  ``workloads``
    widens or narrows it — a list of registered names (or unique
    suffixes), or ``"all"`` for every generator workload the chosen
    machine supports (see ``repro workloads``).

    ``table`` selects what to compute: ``"all"``, one key (``"1"``
    ... ``"9"``, ``"s4"``), or an iterable of keys.  Unknown keys raise
    :class:`ApiError` before the (expensive) composite run, as do an
    unknown ``engine``, an unknown ``machine`` (a registered backend,
    see :mod:`repro.machines`), an unknown, ambiguous, machine-refused
    or empty workload selection, and a budget or ``jobs`` below 1.

    The composite's workloads run as lanes of the cohort runner
    (:mod:`repro.batch`) under every ``engine`` value — lanes that
    differ by workload never share a machine — so ``engine`` is
    validated and reported but changes nothing here; it decides
    budget-only fusion only for co-queued jobs on the job server.
    """
    args = _characterize_args(locals())
    instructions = args["instructions"]
    with _span("characterize", instructions=instructions, seed=seed,
               jobs=jobs, engine=args["engine"], machine=args["machine"]):
        measurement = _engines.standard_composite(
            instructions=instructions, seed=seed, jobs=jobs,
            paranoid=paranoid, machine=args["machine"],
            workloads=args["workloads"])
        rendered = tuple(
            {"table": key,
             "text": TABLES[key][1](TABLES[key][0](measurement))}
            for key in args["table"])
        summary = table8(measurement)
    return CharacterizeResult(
        instructions=instructions, seed=seed, jobs=jobs,
        paranoid=paranoid, engine=args["engine"],
        machine=args["machine"], workloads=args["workloads"],
        cycles=measurement.cycles,
        instructions_measured=summary.instructions,
        cycles_per_instruction=summary.cycles_per_instruction,
        tables=rendered, measurement=measurement)


# -- run_workload -------------------------------------------------------


@dataclass(frozen=True)
class WorkloadResult(_Result):
    """One workload environment's measurement summary."""

    profile: str             #: the resolved workload name (historical)
    description: str
    instructions: int
    seed: int
    paranoid: bool
    machine: str
    kind: str                #: paper | generator | trace
    cycles: int
    instructions_measured: int
    cycles_per_instruction: float
    table1_text: str
    measurement: object = _attachment(default=None)

    @property
    def workload(self) -> str:
        """The resolved workload name (alias of ``profile``)."""
        return self.profile


def _run_workload_args(args: dict) -> dict:
    if args["workload"] is None:
        raise ApiError("field 'workload' is required")
    machine = validate_machine(args["machine"])
    spec = _workload(args["workload"], machine)
    instructions, seed = args["instructions"], args["seed"]
    if spec.trace is not None:
        # Replay is pinned to its recording: an omitted budget or the
        # default seed means the recorded values, and others are refused.
        if instructions is None and not args["smoke"]:
            instructions = spec.trace.instructions
        if seed == 1984:
            seed = spec.trace.seed
    instructions = _budget(instructions, args["smoke"])
    spec.check_replay(instructions, seed)
    return {"workload": spec.name, "instructions": instructions,
            "seed": seed, "paranoid": args["paranoid"],
            "machine": machine}


@_command("run-workload", _run_workload_args,
          workload=Param(str, "workload name (see 'repro workloads'), "
                              "or trace:PATH for a recorded trace file",
                         flag=""),
          instructions=_INSTRUCTIONS)
def run_workload(workload=None, instructions: int = None,
                 seed: int = 1984, paranoid: bool = False,
                 smoke: bool = False,
                 machine: str = None) -> WorkloadResult:
    """Run one registered workload (by name, suffix, or trace:PATH).

    For a trace-backed workload the recorded budget and seed are
    implied when not given explicitly (and enforced when they are —
    replay is pinned to its recording).
    """
    args = _run_workload_args(locals())
    spec = _registry.get_workload(args["workload"])
    instructions, seed = args["instructions"], args["seed"]
    with _span("run-workload", profile=spec.name,
               instructions=instructions, seed=seed,
               machine=args["machine"]):
        measurement = _engines.run_workload(
            spec.name, instructions, seed=seed, paranoid=paranoid,
            machine=args["machine"])
        summary = table8(measurement)
        table1_text = render_table1(table1(measurement))
    return WorkloadResult(
        profile=spec.name, description=spec.description,
        instructions=instructions, seed=seed, paranoid=paranoid,
        machine=args["machine"], kind=spec.kind,
        cycles=measurement.cycles,
        instructions_measured=summary.instructions,
        cycles_per_instruction=summary.cycles_per_instruction,
        table1_text=table1_text, measurement=measurement)


# -- hotspots -----------------------------------------------------------


@dataclass(frozen=True)
class HotspotsResult(_Result):
    """The hottest control-store locations of a reference run."""

    instructions: int
    seed: int
    top: int
    total_cycles: int
    rows: tuple  #: ({"address", "cycles", "percent", "row", ...}, ...)
    measurement: object = _attachment(default=None)


@_command("hotspots",
          instructions=Param(int, "measured instructions of the "
                                  "reference run"),
          top=Param(int, "how many locations to list"))
def hotspots(instructions: int = 20_000, top: int = 20,
             seed: int = 1984, smoke: bool = False) -> HotspotsResult:
    """Rank control-store locations by cycles on the reference workload."""
    from repro.analysis.reduction import reference_map

    if smoke:
        instructions = min(instructions, SMOKE_INSTRUCTIONS)
    instructions = _budget(instructions, smoke)
    _count("top", top)
    with _span("hotspots", instructions=instructions, top=top):
        measurement = _engines.run_workload(
            _registry.DEFAULT_WORKLOAD, instructions, seed=seed)
        histogram = measurement.histogram
        store, _ = reference_map()
        ranked = []
        for ann in store.annotations():
            cycles = histogram.nonstalled[ann.address] \
                + histogram.stalled[ann.address]
            if cycles:
                ranked.append((cycles, ann))
        ranked.sort(key=lambda item: -item[0])
        total = histogram.total_cycles()
        rows = tuple(
            {"address": ann.address, "cycles": cycles,
             "percent": 100 * cycles / total, "row": ann.row.value,
             "routine": ann.routine, "slot": ann.slot}
            for cycles, ann in ranked[:top])
    return HotspotsResult(instructions=instructions, seed=seed, top=top,
                          total_cycles=total, rows=rows,
                          measurement=measurement)


# -- disasm / figure1 / profiles ---------------------------------------


@dataclass(frozen=True)
class DisasmResult(_Result):
    """An assembled program and its disassembly listing."""

    base: int
    lines: tuple


@_command("disasm",
          source=Param(str, "VAX MACRO source file", flag=""),
          base=Param(int, "assembly base address",
                     cli={"type": _address}))
def disasm(source: str, base: int = 0x200) -> DisasmResult:
    """Assemble VAX MACRO source text and return its listing lines."""
    from repro.arch.disasm import disassemble_image
    from repro.asm import assemble_text

    if not 0 <= base < 1 << 32:
        raise ApiError(f"field 'base' must be a 32-bit address, got {base}")
    with _span("disasm", base=base):
        image = assemble_text(source, base=base)
        lines = tuple(str(line) for line in disassemble_image(image))
    return DisasmResult(base=base, lines=lines)


@dataclass(frozen=True)
class Figure1Result(_Result):
    """The rendered 11/780 block diagram."""

    text: str


@_command("figure1")
def figure1() -> Figure1Result:
    """Render the block diagram from the machine model."""
    from repro.cpu.machine import VAX780

    with _span("figure1"):
        text = render_figure1(VAX780())
    return Figure1Result(text=text)


@dataclass(frozen=True)
class ProfilesResult(_Result):
    """The five standard workload profiles."""

    profiles: tuple  #: ({"name", "description"}, ...)


@_command("profiles")
def profiles() -> ProfilesResult:
    """List the paper's five workload profiles.

    Historical listing; :func:`workloads` lists the whole registry.
    """
    return ProfilesResult(profiles=tuple(
        {"name": spec.name, "description": spec.description}
        for spec in _registry.paper_workloads()))


@dataclass(frozen=True)
class WorkloadsResult(_Result):
    """The registered workloads and their per-machine support."""

    count: int
    default: str
    workloads: tuple  #: ({"name", "kind", ..., "supported": {...}}, ...)


@_command("workloads")
def workloads() -> WorkloadsResult:
    """List the workload registry: name, class, and per-machine support.

    Each entry reports the workload's name, kind (paper / generator /
    trace), generator class, required executor families, and — per
    registered machine — whether that machine runs it (see
    :mod:`repro.workloads.registry`).
    """
    from repro.machines.registry import MACHINES

    listing = tuple(
        {"name": spec.name, "kind": spec.kind,
         "generator": spec.generator,
         "description": spec.description,
         "requires_families": tuple(spec.requires_families),
         "supported": {machine: spec.supported_on(machine)
                       for machine in MACHINES}}
        for spec in _registry.WORKLOADS.values())
    return WorkloadsResult(count=len(listing),
                           default=_registry.DEFAULT_WORKLOAD,
                           workloads=listing)


# -- record-trace -------------------------------------------------------


@dataclass(frozen=True)
class TraceResult(_Result):
    """One recorded instruction trace and its self-description."""

    workload: str            #: the name the trace registers under
    source: str              #: the workload that was recorded
    path: str
    machine: str
    seed: int
    instructions: int
    events: int
    cycles: int
    file_sha256: str
    registered: bool
    handle: object = _attachment(default=None)
    measurement: object = _attachment(default=None)


@_command("record-trace",
          workload=Param(str, "source workload to record "
                              "(see 'repro workloads')", flag=""),
          path=Param(str, "trace file to write (default: "
                          "<workload>.rprt)", flag="--out",
                     cli={"metavar": "PATH"}),
          instructions=_INSTRUCTIONS,
          name=Param(str, "registry name for the trace workload "
                          "(default: trace-<workload>)"),
          register=Param(bool, "write the file without registering the "
                               "trace as a workload"))
def record_trace(workload=None, path: str = None,
                 instructions: int = None, seed: int = 1984,
                 machine: str = None, name: str = None,
                 smoke: bool = False,
                 register: bool = True) -> TraceResult:
    """Record one workload run to a replayable trace file.

    ``path`` defaults to ``<workload>.rprt`` in the working directory.
    The recording run is bit-identical to an ordinary
    :func:`run_workload` of the source workload (the recorder is a
    passive boundary hook), so its measurement also primes the engine
    memo.  With ``register`` (the default) the trace immediately joins
    the registry under ``name`` (default ``trace-<source>``) and can
    be run like any other workload.
    """
    from repro.workloads.trace import record_trace as _record
    from repro.workloads.trace import register_trace

    machine_name = validate_machine(machine)
    spec = _workload(workload, machine_name)
    instructions = _budget(instructions, smoke)
    if path is None:
        path = f"{spec.name}.rprt"
    with _span("record-trace", workload=spec.name,
               instructions=instructions, seed=seed,
               machine=machine_name):
        handle, measurement = _record(
            spec.name, path, instructions=instructions, seed=seed,
            machine=machine_name, name=name)
        _engines.prime_cache(spec.name, instructions, seed,
                             measurement, machine=machine_name)
        if register:
            handle = register_trace(path, name=handle.name).trace
    return TraceResult(
        workload=handle.name, source=handle.source, path=handle.path,
        machine=handle.machine, seed=handle.seed,
        instructions=handle.instructions, events=handle.events,
        cycles=handle.cycles, file_sha256=handle.file_sha256,
        registered=register, handle=handle, measurement=measurement)


@dataclass(frozen=True)
class MachinesResult(_Result):
    """The registered machine backends."""

    machines: tuple  #: ({"name", "description", "default", ...}, ...)


@_command("machines")
def machines() -> MachinesResult:
    """List the registered machine backends (see repro.machines)."""
    from repro.machines.registry import DEFAULT_MACHINE, MACHINES

    return MachinesResult(machines=tuple(
        {"name": spec.name, "description": spec.description,
         "default": spec.name == DEFAULT_MACHINE, "subset": spec.subset,
         "cpi_nominal": spec.cpi_nominal}
        for spec in MACHINES.values()))


# -- ubench -------------------------------------------------------------


@dataclass(frozen=True)
class UbenchResult(_Result):
    """The microbenchmark sweep, measured vs. the analytical model."""

    suite: str
    kernel_count: int
    seed: int
    jobs: int
    machine: str
    failed: tuple            #: kernels not exact-and-reconciled
    check_ok: object         #: composite consistency verdict, or None
    ok: bool
    results: tuple = _attachment(default=())
    check: object = _attachment(default=None)


def _kernels(group, mode, variant, smoke, machine) -> list:
    """The selected kernels; an empty selection is an error."""
    from repro.ubench import suite

    kernels = suite.select(group=group, mode=mode, variant=variant,
                           smoke=smoke, machine=machine)
    if not kernels:
        raise ApiError(
            f"no kernels match group={group!r} mode={mode!r} "
            f"variant={variant!r} on machine {machine!r}; groups: "
            f"{', '.join(suite.groups())}; modes: "
            f"{', '.join(suite.modes())}")
    return kernels


def _ubench_args(args: dict) -> dict:
    machine = validate_machine(args["machine"])
    _kernels(args["group"], args["mode"], args["variant"], args["smoke"],
             machine)
    _count("jobs", args["jobs"])
    return {**args, "machine": machine,
            "check_instructions": _budget(args["check_instructions"],
                                          name="check_instructions")}


@_command("ubench", _ubench_args,
          group=Param(str, "only kernels of one opcode group (simple, "
                           "field, float, callret, system, character, "
                           "decimal)"),
          mode=Param(str, "only kernels of one operand-specifier mode "
                          "(e.g. register, immediate, displacement-byte)"),
          variant=Param(str, "only warm or cold cache/TB kernels"),
          check=Param(bool, "skip the composite consistency pass"),
          check_instructions=Param(int, "instructions per workload for "
                                        "the consistency composite"))
def ubench(group: str = None, mode: str = None, variant: str = None,
           smoke: bool = False, jobs: int = 1, check: bool = True,
           check_instructions: int = 20_000, seed: int = 1984,
           machine: str = None) -> UbenchResult:
    """Run the microbenchmark sweep: measured vs. analytical cycles.

    ``machine`` selects the backend the kernels run on; the suite is
    filtered to the families that machine implements, and the model
    predicts with that machine's params (patch set, per-group extra
    cycles), so exactness holds on every backend.
    """
    args = _ubench_args(locals())
    from repro.ubench import runner

    machine_name = args["machine"]
    kernels = _kernels(group, mode, variant, smoke, machine_name)
    with _span("ubench", kernels=len(kernels), jobs=jobs,
               machine=machine_name):
        results = runner.run_suite(kernels, jobs=jobs,
                                   machine=machine_name)
        check_doc = None
        if check:
            from repro.ubench.consistency import check_composite

            composite = _engines.standard_composite(
                instructions=args["check_instructions"], seed=seed,
                jobs=jobs, machine=machine_name)
            check_doc = check_composite(composite, machine=machine_name)
    failed = tuple(r["kernel"] for r in results
                   if not (r["exact"] and r["reconciled"]))
    check_ok = None if check_doc is None else bool(check_doc["ok"])
    return UbenchResult(
        suite="smoke" if smoke else "standard",
        kernel_count=len(kernels), seed=seed, jobs=jobs,
        machine=machine_name, failed=failed,
        check_ok=check_ok, ok=not failed and check_ok is not False,
        results=tuple(results), check=check_doc)


# -- explore ------------------------------------------------------------


@dataclass(frozen=True)
class ExploreResult(_Result):
    """One design-space sweep run and its sensitivity report."""

    spec: str
    mode: str
    engine: str
    machine: str
    instructions: int
    seed: int
    stats: dict
    decode_claim_ok: object  #: True/False, or None when not checked
    ok: bool
    sweep: object = _attachment(default=None)
    report: object = _attachment(default=None)


@dataclass(frozen=True)
class ExplorePointsResult(_Result):
    """A sweep's enumerated points and their store status."""

    spec: str
    mode: str
    workloads: int
    points: tuple            #: ({"label", "cached"}, ...)


def explore_spec(spec: str = "paper-sensitivity", axes=(),
                 mode: str = None, instructions: int = None,
                 seed: int = None, smoke: bool = False,
                 machine: str = None):
    """Resolve facade arguments into a validated SweepSpec.

    ``axes`` entries may be ``"name=v1,v2"`` strings or Axis objects;
    any axis replaces the named spec's axes (the spec is then called
    ``custom``).  A ``workload=a,b,...`` axis is special: it replaces
    the sweep's workload *population* rather than varying a per-point
    override.  ``machine`` re-baselines the sweep on a registered
    backend (a ``machine=...`` axis still varies it point by point).
    Unknown specs, axes, values, workloads or machines raise
    :class:`ApiError` before anything simulates.
    """
    from dataclasses import replace

    from repro.explore import SPECS, Axis, parse_axis
    from repro.explore.space import WORKLOAD_AXIS

    if not isinstance(axes, (list, tuple)):
        raise ApiError(
            "explore: field 'axes' must be a list of NAME=V1,V2 "
            f"strings, got {axes!r}")
    parsed = []
    sweep_workloads = None
    for axis in axes:
        if isinstance(axis, str):
            axis = parse_axis(axis)
        elif not isinstance(axis, Axis):
            raise ApiError(
                "explore: each entry of field 'axes' must be a "
                f"NAME=V1,V2 string, got {axis!r}")
        if axis.name == WORKLOAD_AXIS:
            sweep_workloads = tuple(axis.values)
            continue
        parsed.append(axis)
    if spec not in SPECS:
        raise ApiError(f"unknown spec {spec!r}; choose from "
                       f"{', '.join(sorted(SPECS))}")
    base = SPECS["smoke" if smoke else spec]
    overrides = {}
    if parsed:
        overrides["axes"] = tuple(parsed)
        overrides["name"] = "custom"
    if sweep_workloads is not None:
        overrides["workloads"] = sweep_workloads
        overrides["name"] = "custom"
    if mode is not None:
        overrides["mode"] = mode
    if instructions is not None:
        overrides["instructions"] = instructions
    if seed is not None:
        overrides["seed"] = seed
    if machine is not None:
        overrides["machine"] = machine
    return replace(base, **overrides) if overrides else base


def explore_points(spec: str = "paper-sensitivity", axes=(),
                   mode: str = None, instructions: int = None,
                   seed: int = None, smoke: bool = False,
                   store=None, machine: str = None) -> ExplorePointsResult:
    """Enumerate a sweep's points (and store status) without simulating."""
    from repro.explore import code_version, result_key

    resolved = explore_spec(spec, axes, mode, instructions, seed, smoke,
                            machine=machine)
    store = _store(store)
    code = code_version()
    listing = []
    for point in resolved.points():
        params = point.params()
        cached = sum(
            1 for workload in resolved.workloads
            if store is not None and result_key(
                params, workload, point.instructions, point.seed,
                code=code, machine=point.machine) in store)
        listing.append({"label": point.label(), "cached": cached})
    return ExplorePointsResult(spec=resolved.name, mode=resolved.mode,
                               workloads=len(resolved.workloads),
                               points=tuple(listing))


def _sweep(args: dict) -> tuple:
    """Explore's arguments, checked: (SweepSpec, engine name)."""
    _count("jobs", args["jobs"])
    return (explore_spec(args["spec"], args["axes"], args["mode"],
                         args["instructions"], args["seed"],
                         args["smoke"], machine=args["machine"]),
            validate_engine(args["engine"]))


def _explore_args(args: dict) -> dict:
    resolved, engine = _sweep(args)
    return {"spec": resolved.name,
            "axes": [[axis.name, list(axis.values)]
                     for axis in resolved.axes],
            "mode": resolved.mode,
            "workloads": list(resolved.workloads),
            "instructions": resolved.instructions,
            "seed": resolved.seed, "jobs": args["jobs"],
            "engine": engine, "machine": resolved.machine}


@_command("explore", _explore_args,
          spec=Param(str, "named sweep spec (paper-sensitivity, smoke)"),
          axes=Param(None, "sweep axis (repeatable); replaces the "
                           "spec's axes", flag="--axis",
                     cli={"action": "append",
                          "metavar": "NAME=V1,V2,..."}),
          mode=Param(str, "point enumeration: ofat (one factor at a "
                          "time) or cartesian (the full grid); default: "
                          "the spec's"),
          instructions=Param(int, "measured instructions per workload "
                                  "(default: the spec's)"),
          resume=Param(bool, "re-simulate every point (the store is "
                             "still updated)"))
def explore(spec: str = "paper-sensitivity", axes=(), mode: str = None,
            instructions: int = None, seed: int = None,
            smoke: bool = False, store=".explore/store",
            resume: bool = True, jobs: int = 1,
            progress=None, engine: str = None,
            machine: str = None) -> ExploreResult:
    """Run a design-space sweep and compute its sensitivity report.

    ``store`` is a directory path, a ResultStore, or None (no
    persistence).  ``progress`` is an optional ``callable(str)``.
    Every point runs through the cohort runner (:mod:`repro.batch`);
    ``engine`` only decides whether budget-only point variants share a
    machine — ``batch`` fuses them, ``scalar`` does not, ``auto`` fuses
    when any would — and the records are bit-identical either way.
    ``machine`` re-baselines the sweep on a registered backend.  An
    unknown engine or machine name, ``jobs`` below 1, or a store that
    cannot hold records, raises :class:`ApiError` before anything
    simulates.
    """
    resolved, engine_name = _sweep(locals())
    from repro.explore import run_sweep, sensitivity

    store = _store(store)
    with _span("explore", spec=resolved.name, jobs=jobs,
               engine=engine_name, machine=resolved.machine):
        sweep = run_sweep(resolved, store=store, jobs=jobs,
                          resume=resume, progress=progress,
                          engine=engine_name)
        report = sensitivity(sweep)
    claim = report.get("decode_claim")
    claim_ok = None if claim is None else bool(claim["ok"])
    return ExploreResult(
        spec=resolved.name, mode=resolved.mode,
        engine=sweep.stats.get("engine", engine_name),
        machine=resolved.machine,
        instructions=resolved.instructions, seed=resolved.seed,
        stats=dict(sweep.stats), decode_claim_ok=claim_ok,
        ok=claim_ok is not False, sweep=sweep, report=report)


# -- validate -----------------------------------------------------------


@dataclass(frozen=True)
class ValidateResult(_Result):
    """Conservation invariants plus differential fuzzing verdicts."""

    instructions: int
    seed: int
    engine: str
    machine: str
    fuzz_cases: int
    fuzz_instructions: int
    smoke: bool
    invariants_ok: bool
    divergences: int
    ok: bool
    reports: tuple = _attachment(default=())
    fuzz_results: tuple = _attachment(default=())


def _validate_args(args: dict) -> dict:
    engine = validate_engine(args["engine"], ("scalar", "batch"))
    machine = validate_machine(args["machine"])
    names = _workload_names(args["workloads"], machine)
    fuzz_instructions = _budget(args["fuzz_instructions"],
                                name="fuzz_instructions")
    if args["smoke"]:
        fuzz_instructions = min(fuzz_instructions, 200)
    _count("jobs", args["jobs"])
    return {"instructions": _budget(args["instructions"], args["smoke"],
                                    20_000),
            "fuzz_cases": _count("fuzz_cases", args["fuzz_cases"], 0),
            "fuzz_instructions": fuzz_instructions,
            "seed": args["seed"], "smoke": args["smoke"],
            "engine": engine, "machine": machine, "workloads": names}


@_command("validate", _validate_args,
          instructions=Param(int, "measured instructions per workload "
                                  "for the invariant pass (default "
                                  f"20000; --smoke: {SMOKE_INSTRUCTIONS})"),
          fuzz_cases=Param(int, "differential fuzz cases to run "
                                "(0 = invariants only)", flag="--fuzz",
                           cli={"metavar": "N"}),
          fuzz_instructions=Param(int, "measured instructions per fuzz "
                                       "case"))
def validate(instructions: int = None, fuzz_cases: int = 0,
             fuzz_instructions: int = 400, seed: int = 1984,
             smoke: bool = False, progress=None, jobs: int = 1,
             engine: str = None, machine: str = None,
             workloads=None) -> ValidateResult:
    """Check the conservation laws on registered workloads, then fuzz.

    ``workloads`` selects which (default: the paper's five; ``"all"``
    means every generator workload the machine supports).

    ``engine`` selects what the fuzzer differences against: ``scalar``
    (the default) runs the fast-path engine against the per-cycle
    reference spec; ``batch`` runs the batch engine against
    independent scalar runs, capturing each case at several prefix
    boundaries.  ``auto`` is rejected here — a validation run must name
    the engine it is validating.  ``machine`` selects the backend the
    workloads run on and the fuzzer fuzzes; the conservation laws are
    chosen to match its capabilities (no IB / overlapped-decode laws on
    a machine without them), and the fuzz cases draw from every
    generator workload it supports.  ``jobs`` parallelises the fuzz
    cases; the results (and every shrunk reproducer) are
    byte-identical at any value.
    """
    args = _validate_args(locals())
    from repro.validate import check_measurement, fuzz, fuzz_batch

    instructions = args["instructions"]
    fuzz_instructions = args["fuzz_instructions"]
    engine_name, machine_name = args["engine"], args["machine"]
    fuzzer = fuzz_batch if engine_name == "batch" else fuzz
    with _span("validate", instructions=instructions,
               fuzz_cases=fuzz_cases, engine=engine_name,
               machine=machine_name):
        reports = tuple(
            check_measurement(_engines.run_workload(
                name, instructions, seed=seed,
                machine=machine_name), machine=machine_name)
            for name in args["workloads"])
        fuzz_results = tuple(
            fuzzer(fuzz_cases, seed=seed,
                   instructions=fuzz_instructions,
                   progress=progress, jobs=jobs,
                   machine=machine_name)) if fuzz_cases else ()
    divergences = sum(1 for r in fuzz_results if not r["ok"])
    invariants_ok = all(report.ok for report in reports)
    return ValidateResult(
        instructions=instructions, seed=seed, engine=engine_name,
        machine=machine_name, fuzz_cases=fuzz_cases,
        fuzz_instructions=fuzz_instructions, smoke=smoke,
        invariants_ok=invariants_ok, divergences=divergences,
        ok=invariants_ok and divergences == 0,
        reports=reports, fuzz_results=fuzz_results)


# -- refute -------------------------------------------------------------


@dataclass(frozen=True)
class RefuteResult(_Result):
    """One refutation campaign plus the planted-bug self-check."""

    campaign: str
    seed: int
    jobs: int
    plant: str               #: perturbation installed, or None (clean)
    machines: tuple
    workloads: tuple
    probes: int
    refutations: int
    planted_total: object    #: self-check size, or None when skipped
    planted_detected: object
    ok: bool
    campaign_result: object = _attachment(default=None)
    planted: object = _attachment(default=None)


@_command("refute",
          campaign=Param(str, "named campaign: standard (default) or "
                              "smoke (--smoke is shorthand)"),
          plant=Param(str, "install one named perturbation for the "
                           "campaign (the run must then catch it); see "
                           "repro.refute.perturbation_names()",
                      cli={"metavar": "NAME"}),
          self_check=Param(bool, "skip the planted-bug self-check that "
                                 "normally follows a clean campaign"))
def refute(campaign: str = None, smoke: bool = False, seed: int = None,
           jobs: int = 1, store=".explore/store",
           self_check: bool = True, plant: str = None,
           progress=None) -> RefuteResult:
    """Run an assumption-refutation campaign (REFUTATIONS.json).

    ``campaign`` names a registered campaign (``standard`` or
    ``smoke``; ``smoke=True`` is shorthand for the latter; see
    :mod:`repro.refute`).  A clean run also executes the planted-bug
    ``self_check`` — the smoke campaign once per registered
    perturbation, every one of which must be detected — so "zero
    refutations" is evidence, not silence.  ``plant`` installs one
    named perturbation for the campaign itself (the self-check is then
    skipped, and ``ok`` means the plant *was* caught by the assumptions
    that must see it).  Probes, reproducers and the JSON document are
    byte-identical at any ``jobs``.
    """
    from repro.refute import (CAMPAIGNS, PERTURBATIONS, run_campaign,
                              run_self_check)

    name = "standard" if campaign is None else campaign
    if name not in CAMPAIGNS:
        raise ApiError(f"unknown campaign {name!r}; choose from "
                       f"{', '.join(CAMPAIGNS)}")
    spec = CAMPAIGNS["smoke" if smoke else name]
    _count("jobs", jobs)
    store = _store(store) if plant is None else None
    with _span("refute", campaign=spec.name, jobs=jobs, plant=plant):
        result = run_campaign(spec, seed=seed, jobs=jobs, store=store,
                              plant=plant, progress=progress)
        checks = None
        if self_check and plant is None:
            checks = run_self_check(seed=seed, jobs=jobs,
                                    progress=progress)
    if plant is not None:
        expect = set(PERTURBATIONS[plant].expect)
        flagged = {item["assumption"] for item in result.refutations}
        ok = expect <= flagged
    else:
        ok = result.ok and (checks is None
                            or all(c["detected"] for c in checks))
    return RefuteResult(
        campaign=spec.name, seed=result.seed, jobs=jobs, plant=plant,
        machines=tuple(spec.machines), workloads=tuple(spec.workloads),
        probes=len(result.probes), refutations=len(result.refutations),
        planted_total=len(checks) if checks is not None else None,
        planted_detected=(sum(1 for c in checks if c["detected"])
                          if checks is not None else None),
        ok=ok, campaign_result=result, planted=checks)
