"""The machine registry: named, selectable timing backends.

A :class:`MachineSpec` binds a machine name to everything that makes it
a distinct backend: its :class:`~repro.params.MachineParams` defaults
(the timing policy is entirely params-driven — the simulator core in
:mod:`repro.cpu` consults the params rather than forking per machine),
the executor families it implements, and the workload-profile
adaptation a subset machine needs (a generator must not emit
instructions the machine refuses).

Two machines ship:

``vax780``
    The paper's machine — the existing simulator, bit-identical to the
    pre-registry code path.

``uvax78032``
    The MicroVAX 78032 single-chip subset VAX (the grey-box exemplar in
    SNIPPETS.md, nominal CPI ~5.5): no autonomous I-Fetch/IB engine
    (fetch time folds into per-group base cycles), no overlapped
    decode, no microcode patches, a narrow TB, local memory with a
    short miss penalty instead of an SBI, per-group extra base cycles,
    and no packed-decimal or non-MOVC character microcode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.params import MachineParams, VAX780 as VAX780_PARAMS


class MachineError(ValueError):
    """An unknown machine name (callers map this to their error type)."""


@dataclass(frozen=True)
class MachineSpec:
    """One registered machine backend."""

    name: str
    description: str
    params: MachineParams
    #: (field, value) pairs applied to every workload profile so the
    #: generator never emits an instruction the machine refuses.
    profile_overrides: tuple = ()
    #: Headline CPI from the literature, for report labels.
    cpi_nominal: float = 0.0

    def build(self, params: MachineParams = None, ebox=None):
        """A fresh simulator for this machine (optionally overridden).

        ``params`` defaults to the spec's own; an explorer sweeping an
        axis passes ``spec.params.with_overrides(...)`` instead.
        ``ebox`` defaults to the optimised EBOX; the differential
        harness passes its per-cycle reference class.
        """
        from repro.cpu.ebox import EBox
        from repro.cpu.machine import VAX780

        return VAX780(self.params if params is None else params,
                      name=self.name, ebox=EBox if ebox is None else ebox)

    def adapt_profile(self, profile):
        """``profile`` restricted to this machine's instruction subset."""
        if not self.profile_overrides:
            return profile
        return replace(profile, **dict(self.profile_overrides))

    @property
    def subset(self) -> bool:
        """Whether the machine implements only a subset of the ISA."""
        return bool(self.params.unsupported_families)


#: The 78032's per-group base-cycle surcharge (grey-box calibrated —
#: see EXPERIMENTS.md): the longer microflows of the single-chip
#: datapath, folded into the execute rows per instruction group.
#: Calibrated so the five-workload composite at the characterize
#: default budget lands at the chip's published ~5.5 CPI.
_UVAX_EXTRA_CYCLES = (
    ("FIELD", 1),
    ("FLOAT", 2),
    ("CALLRET", 2),
    ("SYSTEM", 2),
    ("CHARACTER", 2),
)

#: Executor families outside the 78032's base microcode: all packed
#: decimal, and every character-string family except the MOVC forms.
_UVAX_UNSUPPORTED = (
    "CMPC", "LOCC", "SCANC", "MOVTC",
    "MOVP", "CMPP", "ADDP", "CVTLP", "CVTPL",
)

UVAX78032_PARAMS = MachineParams(
    # On-chip there is no SBI and no backing cache: a two-block store
    # stands in for the chip's longword buffers, and local memory
    # answers within the access cycle (no separate stall penalty —
    # the chip's slower datapath shows up in exec_extra_cycles
    # instead).
    cache_bytes=16,
    read_miss_penalty=0,
    write_recycle=0,
    tb_entries=64,
    overlapped_decode=False,
    patched_families=(),
    ib_prefetch=False,
    exec_extra_cycles=_UVAX_EXTRA_CYCLES,
    unsupported_families=_UVAX_UNSUPPORTED,
)

MACHINES = {
    "vax780": MachineSpec(
        name="vax780",
        description="VAX-11/780: the paper's machine "
                    "(prefetching IB, 8 KB cache, SBI memory)",
        params=VAX780_PARAMS,
        cpi_nominal=10.6,
    ),
    "uvax78032": MachineSpec(
        name="uvax78032",
        description="MicroVAX 78032: single-chip subset VAX "
                    "(no IB engine, narrow TB, local memory)",
        params=UVAX78032_PARAMS,
        profile_overrides=(
            ("decimal_ops", 0.0),
            ("char_opcodes", ("MOVC3", "MOVC5")),
        ),
        cpi_nominal=5.5,
    ),
}

#: The default backend everywhere a machine is not named.
DEFAULT_MACHINE = "vax780"


def machine_names() -> tuple:
    """Registered machine names, in registration order."""
    return tuple(MACHINES)


def validate_machine(name) -> str:
    """Resolve a machine argument; ``None`` means the default.

    Unknown names raise :class:`MachineError` listing the registry —
    the same pre-validation contract as engines and sweep axes.
    """
    if name is None:
        return DEFAULT_MACHINE
    if name not in MACHINES:
        raise MachineError(
            f"unknown machine {name!r}; choose from "
            f"{', '.join(MACHINES)}")
    return name


def get_machine(name) -> MachineSpec:
    """The :class:`MachineSpec` for ``name`` (``None`` = default)."""
    return MACHINES[validate_machine(name)]
