"""Declarative sweep specifications over the 11/780's design space.

The paper's §5 costs out engineering changes to the 11/780 on paper —
overlapped decode, fewer stall cycles, fatter IB fills.  A
:class:`SweepSpec` names those what-ifs declaratively: each
:class:`Axis` ranges over one :class:`~repro.params.MachineParams`
field (or over the special ``seed``/``instructions`` axes), and the
spec enumerates concrete simulation :class:`Point`\\ s either
one-factor-at-a-time (the paper's style: vary one thing against the
stock machine) or as a full Cartesian grid.

Every enumerated point is validated eagerly — axis names must be real
parameter fields, each point's :class:`MachineParams` must pass the
geometry checks, its machine must run every swept workload and its
memory must hold their processes — so a sweep fails before the first
simulation, not hours into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.errors import ApiError
from repro.machines.registry import (DEFAULT_MACHINE, MachineError,
                                     get_machine, validate_machine)
from repro.params import MachineParams, VAX780
from repro.workloads.registry import (WORKLOADS, WorkloadError,
                                      find_workload,
                                      paper_workload_names)


class SpaceError(ApiError):
    """An invalid axis name, axis value, or enumerated point."""


#: Axes that parameterize the experiment rather than the machine
#: configuration: the rng seed, the measurement budget, and the machine
#: *backend* (a registry name selecting a whole baseline, against which
#: the parameter axes then apply as overrides).
SPECIAL_AXES = ("seed", "instructions", "machine")

#: The workload selection axis: not a per-point override but a sweep
#: *population* — ``workload=a,b,c`` on the command line replaces the
#: spec's workload set (the facade pops it into ``workloads=``).
WORKLOAD_AXIS = "workload"


def valid_axes() -> tuple:
    """All legal axis names: MachineParams fields plus the special axes."""
    return MachineParams.field_names() + SPECIAL_AXES + (WORKLOAD_AXIS,)


def _check_axis_name(name: str) -> None:
    if name not in valid_axes():
        raise SpaceError(
            f"unknown axis {name!r}; valid axes: "
            f"{', '.join(valid_axes())}")


@dataclass(frozen=True)
class Axis:
    """One named dimension of a sweep and the values it takes."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        _check_axis_name(self.name)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise SpaceError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise SpaceError(
                f"axis {self.name!r} repeats a value: {self.values}")


@dataclass(frozen=True)
class Point:
    """One concrete simulation configuration of a sweep.

    ``overrides`` is a sorted tuple of (axis, value) pairs relative to
    the stock machine and the spec's instructions/seed, so equal points
    hash equal and the one-factor-at-a-time baseline is shared between
    axes for free.
    """

    overrides: tuple
    instructions: int
    seed: int
    machine: str = DEFAULT_MACHINE

    @property
    def param_overrides(self) -> dict:
        """The MachineParams-field subset of the overrides."""
        return {name: value for name, value in self.overrides
                if name not in SPECIAL_AXES}

    def params(self) -> MachineParams:
        """The machine configuration this point simulates."""
        base = get_machine(self.machine).params
        return base.with_overrides(**self.param_overrides)

    def label(self) -> str:
        """Human-readable point name, e.g. ``cache_bytes=4096``."""
        parts = []
        if self.machine != DEFAULT_MACHINE:
            parts.append(f"machine={self.machine}")
        parts.extend(f"{name}={value}" for name, value in self.overrides)
        return ",".join(parts) if parts else "baseline"


def _point(overrides: dict, instructions: int, seed: int,
           machine: str = DEFAULT_MACHINE) -> Point:
    instructions = overrides.pop("instructions", instructions)
    seed = overrides.pop("seed", seed)
    machine = validate_machine(overrides.pop("machine", machine))
    # An override equal to the machine's stock value IS that machine's
    # baseline; dropping it makes the shared one-factor-at-a-time
    # baseline point compare equal.
    base = get_machine(machine).params
    overrides = {name: value for name, value in overrides.items()
                 if getattr(base, name) != value}
    point = Point(tuple(sorted(overrides.items())), instructions, seed,
                  machine)
    if instructions < 1:
        raise SpaceError(f"invalid point {point.label()}: instructions "
                         f"must be a positive budget, got {instructions}")
    try:
        point.params()
    except ValueError as exc:
        raise SpaceError(f"invalid point {point.label()}: {exc}") from exc
    return point


def _check_point(point: Point, workload: str) -> None:
    """Refuse a point whose machine cannot run ``workload``, or whose
    memory cannot hold its processes."""
    from repro.osim.executive import LayoutError, check_memory

    WORKLOADS[workload].check_machine(point.machine)
    profile = get_machine(point.machine).adapt_profile(
        WORKLOADS[workload].profile)
    try:
        check_memory(profile, point.params().memory_bytes)
    except LayoutError as exc:
        raise SpaceError(f"invalid point {point.label()}: {exc}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """A named design-space sweep: axes, enumeration mode, workloads."""

    name: str
    axes: tuple
    #: ``ofat`` (one-factor-at-a-time, the paper's §5 style) or
    #: ``cartesian`` (the full grid).
    mode: str = "ofat"
    instructions: int = 20_000
    seed: int = 1984
    workloads: tuple = field(
        default_factory=paper_workload_names)
    #: The baseline backend every point starts from (a ``machine`` axis
    #: still overrides it point by point).
    machine: str = DEFAULT_MACHINE

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "machine",
                           validate_machine(self.machine))
        if self.mode not in ("ofat", "cartesian"):
            raise SpaceError(
                f"unknown mode {self.mode!r}; use 'ofat' or 'cartesian'")
        seen = set()
        for axis in self.axes:
            if axis.name == WORKLOAD_AXIS:
                raise SpaceError(
                    "the workload axis selects the sweep's workload "
                    "population, not a per-point override; pass "
                    "workloads=(...) instead")
            if axis.name in seen:
                raise SpaceError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
        for workload in self.workloads:
            spec = WORKLOADS.get(workload)
            if spec is None:
                raise SpaceError(
                    f"unknown workload {workload!r}; valid workloads: "
                    f"{', '.join(WORKLOADS)}")
            if spec.trace is not None:
                # Pool workers resolve names against the import-time
                # registry, where a runtime-ingested trace does not
                # exist — and a replay is pinned to one budget anyway.
                raise SpaceError(
                    f"trace workload {workload!r} cannot be swept; "
                    "sweep its source generator workload instead")
        if not self.workloads:
            raise SpaceError("spec selects no workloads")
        # Enumerate eagerly so a bad point fails at construction: a
        # machine axis can put a workload on a backend that refuses it.
        for point in self.points():
            for workload in self.workloads:
                _check_point(point, workload)

    def points(self) -> list:
        """All concrete points, deduplicated, baseline first."""
        baseline = _point({}, self.instructions, self.seed, self.machine)
        points = [baseline]
        seen = {baseline}
        if self.mode == "ofat":
            candidates = ({axis.name: value}
                          for axis in self.axes for value in axis.values)
        else:
            candidates = (dict(zip([a.name for a in self.axes], combo))
                          for combo in product(
                              *[a.values for a in self.axes]))
        for overrides in candidates:
            point = _point(overrides, self.instructions, self.seed,
                           self.machine)
            if point not in seen:
                seen.add(point)
                points.append(point)
        return points


def parse_axis(text: str) -> Axis:
    """Parse a CLI axis spec like ``cache_bytes=4096,8192,16384``.

    Values are coerced to the field's type: integers for the counts and
    sizes, ``true/false/on/off/1/0`` for booleans.  The ``machine``
    axis takes registered machine names, validated eagerly.
    """
    name, sep, values_text = text.partition("=")
    name = name.strip()
    _check_axis_name(name)
    if not sep or not values_text.strip():
        raise SpaceError(
            f"axis {text!r} has no values; expected name=v1,v2,...")
    if name == WORKLOAD_AXIS:
        values = []
        for part in values_text.split(","):
            try:
                spec = find_workload(part.strip())
            except WorkloadError as exc:
                raise SpaceError(f"axis 'workload': {exc}") from exc
            if spec.trace is not None:
                raise SpaceError(
                    f"axis 'workload': trace workload {spec.name!r} "
                    "cannot be swept; sweep its source generator "
                    "workload instead")
            values.append(spec.name)
        return Axis(name, tuple(values))
    if name == "machine":
        values = []
        for part in values_text.split(","):
            try:
                values.append(validate_machine(part.strip()))
            except MachineError as exc:
                raise SpaceError(f"axis 'machine': {exc}") from exc
        return Axis(name, tuple(values))
    if name in SPECIAL_AXES:
        kind = int
    else:
        kind = type(getattr(VAX780, name))
    values = []
    for part in values_text.split(","):
        part = part.strip()
        if kind is bool:
            lowered = part.lower()
            if lowered in ("true", "on", "1", "yes"):
                values.append(True)
            elif lowered in ("false", "off", "0", "no"):
                values.append(False)
            else:
                raise SpaceError(
                    f"axis {name!r}: {part!r} is not a boolean")
        elif kind is int:
            try:
                values.append(int(part, 0))
            except ValueError:
                raise SpaceError(
                    f"axis {name!r}: {part!r} is not an integer") from None
        else:
            raise SpaceError(
                f"axis {name!r} ({kind.__name__}) cannot be swept "
                "from the command line")
    return Axis(name, tuple(values))


#: §5's engineering what-ifs, one factor at a time against the stock
#: 11/780: cache size, TB size, write-buffer recycle, read-miss
#: penalty, and the 11/750's overlapped decode.
PAPER_SENSITIVITY = SweepSpec(
    name="paper-sensitivity",
    axes=(
        Axis("cache_bytes", (4 * 1024, 8 * 1024, 16 * 1024)),
        Axis("tb_entries", (64, 128, 256)),
        Axis("write_recycle", (4, 6, 8)),
        Axis("read_miss_penalty", (4, 6, 8)),
        Axis("overlapped_decode", (False, True)),
    ),
    mode="ofat",
    instructions=20_000,
)

#: A tiny fixed sweep for CI and the perf harness: two machine axes
#: (one of them the §5 decode claim) at smoke-test instruction counts.
SMOKE = SweepSpec(
    name="smoke",
    axes=(
        Axis("cache_bytes", (4 * 1024, 8 * 1024)),
        Axis("overlapped_decode", (False, True)),
    ),
    mode="ofat",
    instructions=1_500,
)

#: Named specs addressable from the CLI.
SPECS = {spec.name: spec for spec in (PAPER_SENSITIVITY, SMOKE)}
