"""The workload registry: named, selectable workload specifications.

Mirrors :mod:`repro.machines.registry`: a :class:`WorkloadSpec` binds a
workload name to everything that makes it runnable — the
:class:`~repro.workloads.profiles.MixProfile` driving the synthetic
code generator (or, for recorded traces, the embedded profile of a
:class:`~repro.workloads.trace.TraceHandle`), the executor families it
cannot live without, and whether it is one of the paper's original
five.  Every layer above the executive resolves workloads *by name*
through this module — the engine memo, the explore sweep axes, the
serve canonicalizer, the refutation planner and the analytical
calibrator all share one namespace and one validation contract:
unknown names raise :class:`WorkloadError` listing the registry,
eagerly, before anything simulates.

Three workload kinds coexist:

``paper``
    The five environments of §2.2, registered first and in the paper's
    order.  Their specs hold the *same* profile objects as
    ``profiles.STANDARD_PROFILES``, so registry resolution is
    bit-identical to direct construction, and subset machines keep the
    silent profile adaptation they have always applied.

``generator``
    The zoo (:mod:`repro.workloads.zoo`): new profile-driven generator
    classes.  A spec may declare ``requires_families``; a machine whose
    params refuse any of them rejects the workload *cleanly* (a
    :class:`WorkloadError` naming the families) instead of silently
    measuring an adapted imitation.

``trace``
    A recorded instruction trace ingested via :func:`register_trace`
    (see :mod:`repro.workloads.trace`): replay is pinned to the
    recorded (machine, seed, budget) and verified bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ApiError
from repro.workloads.profiles import MixProfile, STANDARD_PROFILES
from repro.workloads.zoo import ZOO_PROFILES


class WorkloadError(ApiError):
    """An unknown, ambiguous or unusable workload."""


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload."""

    name: str
    description: str
    #: Generator-class tag for reports ("timesharing", "rte",
    #: "compiler", ... or "trace").
    generator: str
    profile: MixProfile
    #: One of the paper's original five (§2.2).
    paper: bool = False
    #: Executor family names the workload's generated stream depends
    #: on.  A machine refusing any of them refuses the workload; an
    #: empty tuple means subset machines may adapt the profile instead
    #: (the paper-five behaviour).
    requires_families: tuple = ()
    #: The :class:`~repro.workloads.trace.TraceHandle` behind a
    #: trace-backed workload, else None.
    trace: object = None

    @property
    def kind(self) -> str:
        """``paper``, ``generator`` or ``trace``."""
        if self.trace is not None:
            return "trace"
        return "paper" if self.paper else "generator"

    def refused_families(self, machine: str = None) -> tuple:
        """The required families ``machine`` does not implement."""
        from repro.machines.registry import get_machine

        unsupported = set(get_machine(machine).params
                          .unsupported_families)
        return tuple(family for family in self.requires_families
                     if family in unsupported)

    def supported_on(self, machine: str = None) -> bool:
        """Whether ``machine`` can run this workload at all.

        A trace-backed workload is supported only on the machine it was
        recorded on — replay on any other backend could never be
        bit-identical to the recording.
        """
        if self.trace is not None:
            from repro.machines.registry import get_machine

            return get_machine(machine).name == self.trace.machine
        return not self.refused_families(machine)

    def check_machine(self, machine: str = None) -> None:
        """Raise :class:`WorkloadError` unless ``machine`` supports it."""
        if self.trace is not None:
            from repro.machines.registry import get_machine

            resolved = get_machine(machine).name
            if resolved != self.trace.machine:
                raise WorkloadError(
                    f"trace workload {self.name!r} was recorded on "
                    f"machine {self.trace.machine!r} and replays only "
                    f"there, not on {resolved!r}")
            return
        refused = self.refused_families(machine)
        if refused:
            from repro.machines.registry import get_machine

            raise WorkloadError(
                f"workload {self.name!r} needs executor families "
                f"{', '.join(refused)} that machine "
                f"{get_machine(machine).name!r} does not implement")

    def check_replay(self, instructions: int, seed: int) -> None:
        """Raise :class:`WorkloadError` unless a trace-backed workload
        runs at its recorded budget and seed (the only run it can
        replay); a generator workload runs at any."""
        handle = self.trace
        if handle is not None and (instructions, seed) != (
                handle.instructions, handle.seed):
            raise WorkloadError(
                f"trace workload {self.name!r} was recorded at "
                f"{handle.instructions} instructions with seed "
                f"{handle.seed} and replays only there (got "
                f"instructions={instructions}, seed={seed})")


def _generator_tag(profile: MixProfile) -> str:
    prefix = profile.name.split("-", 1)[0]
    return {"timesharing": "timesharing", "rte": "rte"}.get(
        prefix, prefix)


#: name -> WorkloadSpec, insertion-ordered: the paper's five first (in
#: the paper's order), then the zoo, then anything registered at
#: runtime (recorded traces).
WORKLOADS = {}

#: The workload every example reaches for first.
DEFAULT_WORKLOAD = STANDARD_PROFILES[0].name

#: Executor families behind the packed-decimal emission the
#: transaction workload is *about* (subset machines refuse, not adapt).
_DECIMAL_FAMILIES = ("ADDP", "MOVP", "CMPP", "CVTLP", "CVTPL")

#: Zoo workloads whose point would be lost by silent adaptation.
_ZOO_REQUIRES = {
    "transaction-decimal": _DECIMAL_FAMILIES,
}

#: Generator-class tags for the zoo (reports and the CLI listing).
_ZOO_GENERATORS = {
    "compiler-build": "compiler",
    "transaction-decimal": "transaction",
    "interrupt-storm": "io-storm",
    "tb-thrash": "thrasher",
    "cache-thrash": "thrasher",
    "vector-scientific": "numeric",
    "editor-interactive": "interactive",
    "queue-kernel": "kernel",
}


def register(spec: WorkloadSpec, replace: bool = False) -> WorkloadSpec:
    """Add a workload to the registry (name collisions are errors)."""
    if not replace and spec.name in WORKLOADS:
        raise WorkloadError(
            f"workload {spec.name!r} is already registered")
    WORKLOADS[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a runtime-registered workload (tests and trace tooling).

    The built-in paper and zoo workloads are load-bearing — every
    layer's defaults name them — so they cannot be unregistered.
    """
    spec = WORKLOADS.get(name)
    if spec is None:
        raise WorkloadError(f"workload {name!r} is not registered")
    if spec.trace is None:
        raise WorkloadError(
            f"workload {name!r} is built in and cannot be unregistered")
    del WORKLOADS[name]


for _profile in STANDARD_PROFILES:
    register(WorkloadSpec(
        name=_profile.name, description=_profile.description,
        generator=_generator_tag(_profile), profile=_profile,
        paper=True))
for _profile in ZOO_PROFILES:
    register(WorkloadSpec(
        name=_profile.name, description=_profile.description,
        generator=_ZOO_GENERATORS.get(_profile.name, "synthetic"),
        profile=_profile,
        requires_families=_ZOO_REQUIRES.get(_profile.name, ())))
del _profile


def workload_names() -> tuple:
    """Registered workload names, in registration order."""
    return tuple(WORKLOADS)


def paper_workloads() -> tuple:
    """The paper's five specs, in the paper's order."""
    return tuple(spec for spec in WORKLOADS.values() if spec.paper)


def paper_workload_names() -> tuple:
    """The paper's five names, in the paper's order."""
    return tuple(spec.name for spec in paper_workloads())


def validate_workload(name) -> str:
    """Resolve a workload name argument; ``None`` means the default.

    Unknown names raise :class:`WorkloadError` listing the registry —
    the same pre-validation contract as machines, engines and sweep
    axes.
    """
    if name is None:
        return DEFAULT_WORKLOAD
    if name not in WORKLOADS:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(WORKLOADS)}")
    return name


def get_workload(name) -> WorkloadSpec:
    """The :class:`WorkloadSpec` for ``name`` (``None`` = default)."""
    return WORKLOADS[validate_workload(name)]


def find_workload(nameish) -> WorkloadSpec:
    """Resolve a loose workload spelling to exactly one workload.

    Accepts a :class:`WorkloadSpec`, a registered name, a suffix that
    one registered name alone ends with (``"research"`` ->
    ``timesharing-research``, the facade's historical convenience), or
    a ``trace:PATH`` reference, which ingests the trace file on the
    spot (idempotently) and resolves to the registered trace workload.
    An empty, unknown or ambiguous spelling raises
    :class:`WorkloadError` listing the candidates.
    """
    if isinstance(nameish, WorkloadSpec):
        return nameish
    text = nameish if isinstance(nameish, str) else ""
    if text.startswith("trace:"):
        from repro.workloads.trace import register_trace

        return register_trace(text[len("trace:"):])
    if text in WORKLOADS:
        return WORKLOADS[text]
    matches = [name for name in WORKLOADS if text and name.endswith(text)]
    if len(matches) == 1:
        return WORKLOADS[matches[0]]
    if matches:
        raise WorkloadError(f"workload {nameish!r} is ambiguous: it "
                            f"matches {', '.join(matches)}")
    raise WorkloadError(f"unknown workload {nameish!r}; choose from "
                        f"{', '.join(WORKLOADS)} (see 'repro workloads')")
