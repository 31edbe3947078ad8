"""Instruction-trace record and replay: workloads you can put in a file.

The paper's instrument averaged everything (§2.2); the simulator can do
better.  :func:`record_trace` runs one registered workload with a
passive boundary-hook recorder attached — chaining whatever hook the
executive installed, exactly like the tracer and the paranoid monitor,
so the recorded measurement is bit-identical to an unobserved run —
and writes the measured instruction stream to a compact, versioned,
checksummed file.  :func:`register_trace` ingests such a file back as
a first-class registered workload (kind ``trace``); running it replays
the recording by re-simulating from the embedded profile and verifying
the replayed stream digest against the recorded one, byte for byte.
Replay is therefore *proved* bit-identical on every run — and if the
simulator's timing rules have changed since the recording (device
polling feeds timing back into the architectural stream, so any change
shows), the replay fails loudly with both code versions rather than
quietly measuring something else.

On-disk format (version 1, little-endian)::

    magic   b"RPRT"
    version u16
    hlen    u32         header length in bytes
    header  JSON        name, source workload, machine, seed, budget,
                        embedded MixProfile fields, stream summary
    slen    u64         stream length in bytes
    stream  bytes       per boundary: zigzag-varint(pc delta),
                        varint(cycle delta)
    sha256(stream)      32 bytes
    sha256(file prefix) 32 bytes   everything before this field

Corrupt, truncated or version-skewed files are rejected with a
:class:`TraceError` naming what is wrong before anything simulates.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, fields as dc_fields

from repro.errors import ApiError
from repro.workloads.profiles import MixProfile

#: File magic for repro trace files.
MAGIC = b"RPRT"
#: Bump when the on-disk layout changes; readers refuse other versions.
TRACE_VERSION = 1

_HEAD = struct.Struct("<4sHI")
_SLEN = struct.Struct("<Q")


class TraceError(ApiError):
    """An unreadable, corrupt or mismatching trace file."""


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else (value << 1)


class _StreamRecorder:
    """Passive boundary hook: encodes (pc, cycles) deltas as it runs.

    Chains the previously-installed hook (the executive's measurement
    gate) and only *reads* machine state, so an attached run is
    bit-identical to an unattached one — the same contract as
    :class:`repro.cpu.itrace.InstructionTracer`.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.events = 0
        self.digest = hashlib.sha256()
        self.chunks = []
        self._prev_hook = None
        self._last_pc = 0
        self._last_cycles = 0

    def attach(self) -> None:
        self._prev_hook = self.machine.boundary_hook
        self.machine.boundary_hook = self._on_boundary

    def detach(self) -> None:
        self.machine.boundary_hook = self._prev_hook

    def _on_boundary(self, machine) -> None:
        if self._prev_hook is not None:
            self._prev_hook(machine)
        pc = machine.ebox.pc
        cycles = machine.cycles
        chunk = (_varint(_zigzag(pc - self._last_pc))
                 + _varint(cycles - self._last_cycles))
        self._last_pc = pc
        self._last_cycles = cycles
        self.chunks.append(chunk)
        self.digest.update(chunk)
        self.events += 1


class _StreamVerifier(_StreamRecorder):
    """The recorder minus byte retention: digest-only, for replay."""

    def _on_boundary(self, machine) -> None:
        if self._prev_hook is not None:
            self._prev_hook(machine)
        pc = machine.ebox.pc
        cycles = machine.cycles
        self.digest.update(_varint(_zigzag(pc - self._last_pc)))
        self.digest.update(_varint(cycles - self._last_cycles))
        self._last_pc = pc
        self._last_cycles = cycles
        self.events += 1


@dataclass(frozen=True)
class TraceHandle:
    """Everything a loaded trace file asserts about itself."""

    path: str
    name: str
    source: str              #: the workload the trace was recorded from
    machine: str
    seed: int
    instructions: int        #: the recorded measurement budget
    events: int              #: boundary records in the stream
    cycles: int
    instructions_measured: int
    histogram_sha256: str
    stream_sha256: str
    file_sha256: str
    code_version: str        #: package digest at record time
    profile: MixProfile      #: the profile the recorded run executed

    @property
    def description(self) -> str:
        return (f"Recorded trace of {self.source} on {self.machine} "
                f"({self.instructions} instructions, seed {self.seed})")


def _profile_doc(profile: MixProfile) -> dict:
    doc = {}
    for spec in dc_fields(profile):
        value = getattr(profile, spec.name)
        doc[spec.name] = list(value) if isinstance(value, tuple) \
            else value
    return doc


def _profile_from_doc(doc) -> MixProfile:
    names = {spec.name for spec in dc_fields(MixProfile)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise TraceError(
            f"trace header profile has unknown field(s) "
            f"{', '.join(unknown)}")
    kwargs = {name: (tuple(value) if isinstance(value, list) else value)
              for name, value in doc.items()}
    try:
        return MixProfile(**kwargs)
    except TypeError as exc:
        raise TraceError(f"trace header profile is invalid: {exc}") \
            from exc


def _measurement_digest(measurement) -> str:
    digest = hashlib.sha256()
    digest.update(measurement.histogram.nonstalled.tobytes())
    digest.update(measurement.histogram.stalled.tobytes())
    return digest.hexdigest()


def record_trace(workload: str, path, instructions: int = None,
                 seed: int = 1984, machine: str = None,
                 name: str = None):
    """Record one workload run to ``path``; returns (handle, measurement).

    The run is exactly :func:`repro.workloads.engine.run_workload`'s
    code path — registry resolution, machine adaptation, boot, measured
    window — with the stream recorder chained in, so the returned
    measurement is bit-identical to the engine's (callers may prime the
    engine memo with it).  ``name`` is the workload name the trace will
    register under when ingested (default ``trace-<source>``).  A trace
    source, a ``name`` taken by a generator workload or a ``path`` in
    no directory raises :class:`TraceError` before anything simulates.
    """
    from repro.analysis.measurement import Measurement
    from repro.machines.registry import get_machine
    from repro.osim.executive import Executive
    from repro.workloads import engine as _engine
    from repro.workloads.registry import WORKLOADS, find_workload

    spec = find_workload(workload)
    if spec.trace is not None:
        raise TraceError(
            f"workload {spec.name!r} is already a recorded trace; "
            "record from a generator workload")
    trace_name = name if name is not None else f"trace-{spec.name}"
    taken = WORKLOADS.get(trace_name)
    if taken is not None and taken.trace is None:
        raise TraceError(
            f"workload name {trace_name!r} is already registered to a "
            "generator workload; pass a different name")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise TraceError(f"cannot write trace file {path}: {folder} is "
                         "not a directory")
    if instructions is None:
        instructions = _engine.DEFAULT_INSTRUCTIONS
    machine_spec = get_machine(machine)
    spec.check_machine(machine_spec.name)
    profile = machine_spec.adapt_profile(spec.profile)
    sim = machine_spec.build()
    executive = Executive(sim, profile, seed=seed)
    executive.boot()
    recorder = _StreamRecorder(sim)
    recorder.attach()
    try:
        executive.run(instructions)
    finally:
        recorder.detach()
    measurement = Measurement.capture(spec.name, sim)

    from repro.explore.store import code_version

    header = {
        "name": trace_name,
        "source": spec.name,
        "machine": machine_spec.name,
        "seed": seed,
        "instructions": instructions,
        "events": recorder.events,
        "cycles": measurement.cycles,
        "instructions_measured": measurement.tracer.instructions,
        "histogram_sha256": _measurement_digest(measurement),
        "code_version": code_version(),
        "profile": _profile_doc(profile),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode()
    stream = b"".join(recorder.chunks)
    prefix = (_HEAD.pack(MAGIC, TRACE_VERSION, len(header_bytes))
              + header_bytes + _SLEN.pack(len(stream)) + stream
              + recorder.digest.digest())
    file_digest = hashlib.sha256(prefix).digest()
    with open(path, "wb") as handle:
        handle.write(prefix)
        handle.write(file_digest)
    return load_trace(path), measurement


def load_trace(path) -> TraceHandle:
    """Parse and checksum a trace file (no simulation).

    Raises :class:`TraceError` for anything short of a byte-perfect
    file: wrong magic, unknown version, truncation anywhere, checksum
    mismatch, malformed header, or trailing garbage.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") \
            from exc
    if len(blob) < _HEAD.size:
        raise TraceError(f"trace file {path} is truncated "
                         f"({len(blob)} bytes; no complete header)")
    magic, version, hlen = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise TraceError(f"{path} is not a repro trace file "
                         f"(magic {magic!r})")
    if version != TRACE_VERSION:
        raise TraceError(
            f"trace file {path} has format version {version}; this "
            f"build reads version {TRACE_VERSION} — re-record it")
    offset = _HEAD.size
    if offset + hlen + _SLEN.size > len(blob):
        raise TraceError(f"trace file {path} is truncated inside its "
                         "header")
    header_bytes = blob[offset:offset + hlen]
    offset += hlen
    (slen,) = _SLEN.unpack_from(blob, offset)
    offset += _SLEN.size
    if offset + slen + 64 > len(blob):
        raise TraceError(f"trace file {path} is truncated inside its "
                         "stream")
    if offset + slen + 64 < len(blob):
        raise TraceError(f"trace file {path} carries trailing data "
                         "after its checksum")
    stream = blob[offset:offset + slen]
    offset += slen
    stream_digest = blob[offset:offset + 32]
    file_digest = blob[offset + 32:offset + 64]
    if hashlib.sha256(blob[:offset + 32]).digest() != file_digest:
        raise TraceError(f"trace file {path} is corrupt: file "
                         "checksum mismatch")
    if hashlib.sha256(stream).digest() != stream_digest:
        raise TraceError(f"trace file {path} is corrupt: stream "
                         "digest mismatch")
    try:
        header = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        raise TraceError(
            f"trace file {path} has a malformed header: {exc}") from exc
    required = ("name", "source", "machine", "seed", "instructions",
                "events", "cycles", "instructions_measured",
                "histogram_sha256", "code_version", "profile")
    missing = [key for key in required if key not in header]
    if missing:
        raise TraceError(
            f"trace file {path} header is missing field(s) "
            f"{', '.join(missing)}")
    profile = _profile_from_doc(header["profile"])
    return TraceHandle(
        path=str(path), name=header["name"], source=header["source"],
        machine=header["machine"], seed=header["seed"],
        instructions=header["instructions"], events=header["events"],
        cycles=header["cycles"],
        instructions_measured=header["instructions_measured"],
        histogram_sha256=header["histogram_sha256"],
        stream_sha256=stream_digest.hex(),
        file_sha256=file_digest.hex(),
        code_version=header["code_version"], profile=profile)


def replay(handle: TraceHandle):
    """Re-simulate ``handle``'s run and verify it bit-identical.

    Returns the replayed :class:`~repro.analysis.measurement
    .Measurement`.  The replay executes the embedded profile on the
    recorded machine/seed/budget with a digest-only verifier hook; any
    divergence — event count, stream bytes, cycle total, histogram —
    raises :class:`TraceError` carrying both code versions, because
    the usual cause is a simulator change since the recording.
    """
    from repro.analysis.measurement import Measurement
    from repro.machines.registry import get_machine
    from repro.osim.executive import Executive

    machine_spec = get_machine(handle.machine)
    sim = machine_spec.build()
    executive = Executive(sim, handle.profile, seed=handle.seed)
    executive.boot()
    verifier = _StreamVerifier(sim)
    verifier.attach()
    try:
        executive.run(handle.instructions)
    finally:
        verifier.detach()
    measurement = Measurement.capture(handle.name, sim)

    from repro.explore.store import code_version

    problems = []
    if verifier.events != handle.events:
        problems.append(f"events {verifier.events} != recorded "
                        f"{handle.events}")
    if verifier.digest.hexdigest() != handle.stream_sha256:
        problems.append("instruction stream digest mismatch")
    if measurement.cycles != handle.cycles:
        problems.append(f"cycles {measurement.cycles} != recorded "
                        f"{handle.cycles}")
    if _measurement_digest(measurement) != handle.histogram_sha256:
        problems.append("histogram digest mismatch")
    if problems:
        raise TraceError(
            f"replay of trace {handle.name!r} diverged from its "
            f"recording: {'; '.join(problems)}.  The recording was "
            f"made at code version {handle.code_version}, this build "
            f"is {code_version()}; if the simulator changed, "
            f"re-record the trace")
    return measurement


def register_trace(path, name: str = None):
    """Ingest a trace file as a registered workload (idempotent).

    Re-ingesting the same file under the same name returns the
    existing registration; a *different* trace under an occupied name
    is an error.  Returns the :class:`~repro.workloads.registry
    .WorkloadSpec`.
    """
    from repro.workloads.registry import (WORKLOADS, WorkloadError,
                                          WorkloadSpec, register)

    handle = load_trace(path)
    trace_name = name if name is not None else handle.name
    existing = WORKLOADS.get(trace_name)
    if existing is not None:
        if existing.trace is not None \
                and existing.trace.file_sha256 == handle.file_sha256:
            return existing
        raise WorkloadError(
            f"workload name {trace_name!r} is already registered "
            f"{'to a different trace' if existing.trace is not None else 'to a generator workload'}; "
            f"pass a different name")
    handle = TraceHandle(**{**handle.__dict__, "name": trace_name})
    return register(WorkloadSpec(
        name=trace_name, description=handle.description,
        generator="trace", profile=handle.profile, trace=handle))
