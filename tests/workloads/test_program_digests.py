"""The program digest gate: generated programs stay byte-identical.

``program_digests.json`` records SHA-256 digests of every process's
generated program — ``code``, ``data_init``, ``string_init``, ``entry``
and ``subroutine_entries`` — for every registered generator workload on
each machine that supports it (the profile passed through the machine's
``adapt_profile``, as every boot does), at two seeds, and of the kernel
image :func:`~repro.osim.kernelgen.build_kernel` assembles at both
seeds.  Any change to the code generator, the assembler back-end or the
encoder must reproduce every digest, so a speed-up there is provably
byte for byte.  Because the generator draws everything from
:class:`random.Random`, running this gate on every supported Python
also pins the CPython ``random`` behaviour the generator's batched
draws rely on.  Regenerate only for a deliberate change of generated
code::

    PYTHONPATH=src python tests/workloads/test_program_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.machines.registry import MACHINES
from repro.osim.executive import SCB_PA
from repro.osim.kernelgen import build_kernel
from repro.workloads.codegen import ProgramGenerator
from repro.workloads.registry import WORKLOADS

DIGESTS = Path(__file__).with_name("program_digests.json")
SEEDS = (1984, 2024)


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value).encode()
    return hashlib.sha256(value).hexdigest()


def _cases() -> list:
    """(workload, machine) for every generator workload and machine
    that supports it, in registry order."""
    return [(name, machine)
            for name, spec in WORKLOADS.items() if spec.trace is None
            for machine in MACHINES if spec.supported_on(machine)]


def _program_digests(workload: str, machine: str) -> dict:
    """seed -> one digest record per process, in ASID order.

    Seeds each process's generator exactly as the executive does
    (``seed * 1000 + asid``).
    """
    profile = MACHINES[machine].adapt_profile(WORKLOADS[workload].profile)
    out = {}
    for seed in SEEDS:
        records = []
        for asid in range(1, profile.processes + 1):
            program = ProgramGenerator(profile,
                                       seed=seed * 1000 + asid).generate()
            records.append({
                field: _sha(getattr(program, field))
                for field in ("code", "data_init", "string_init", "entry",
                              "subroutine_entries")})
        out[str(seed)] = records
    return out


def _kernel_digests() -> dict:
    out = {}
    for seed in SEEDS:
        kernel = build_kernel(scb_pa=SCB_PA, seed=seed)
        out[str(seed)] = {
            "code": _sha(kernel.code),
            "entries": _sha([kernel.base, kernel.boot_entry,
                             kernel.null_entry,
                             sorted(kernel.handlers.items())])}
    return out


def _load() -> dict:
    return json.loads(DIGESTS.read_text())


class TestProgramDigests:
    def test_file_covers_every_generator_workload_and_machine(self):
        doc = _load()
        assert doc["seeds"] == list(SEEDS)
        assert sorted(doc["programs"]) == sorted(
            f"{workload}@{machine}" for workload, machine in _cases())

    @pytest.mark.parametrize("workload,machine", _cases())
    def test_generated_programs_are_byte_identical(self, workload,
                                                   machine):
        expected = _load()["programs"][f"{workload}@{machine}"]
        assert _program_digests(workload, machine) == expected

    def test_kernel_image_is_byte_identical(self):
        assert _kernel_digests() == _load()["kernel"]


def regenerate() -> None:
    """Rewrite the digests from the current code (a deliberate act)."""
    doc = {"seeds": list(SEEDS), "kernel": _kernel_digests(),
           "programs": {f"{workload}@{machine}":
                        _program_digests(workload, machine)
                        for workload, machine in _cases()}}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    count = sum(len(records) for per_seed in doc["programs"].values()
                for records in per_seed.values())
    print(f"wrote digests of {count} programs and "
          f"{len(doc['kernel'])} kernels to {DIGESTS}")


if __name__ == "__main__":
    regenerate()
