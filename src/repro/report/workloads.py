"""Workload zoo inventory: every registered workload, characterized.

:func:`workloads_report` walks the workload registry
(:mod:`repro.workloads.registry`), runs each generator workload at a
smoke budget on every machine that supports it, and returns one
JSON-able document — the committed ``WORKLOADS.json`` at the
repository root.  The document is the zoo's catalogue: name, generator
class, kind (paper / generator / trace), required executor families,
per-machine support, and a smoke-budget CPI per supported machine so a
reader can see at a glance which workloads stress what (the thrashers'
CPI towers over the paper five's).

The smoke budget keeps regeneration cheap; the committed numbers are
deterministic (fixed seed, memoised engine) and double as a coarse
regression pin — a cycle-model change shows up as a WORKLOADS.json
diff.

Regenerate with ``python tools/artifacts.py WORKLOADS.json``, which runs
this module.
"""

from __future__ import annotations

import json

#: Bump when the WORKLOADS.json document layout changes.
WORKLOADS_SCHEMA = 1

#: Instructions per (workload, machine) characterization run.
SMOKE_INSTRUCTIONS = 2_000


def workloads_report(instructions: int = SMOKE_INSTRUCTIONS,
                     seed: int = 1984, progress=None) -> dict:
    """The workload inventory document (see module docstring)."""
    from repro.analysis.reduction import Reduction
    from repro.machines.registry import MACHINES
    from repro.workloads import engine as _engines
    from repro.workloads.registry import DEFAULT_WORKLOAD, WORKLOADS

    doc = {
        "schema": WORKLOADS_SCHEMA,
        "instructions": instructions,
        "seed": seed,
        "default": DEFAULT_WORKLOAD,
        "count": len(WORKLOADS),
        "workloads": {},
    }
    for name, spec in WORKLOADS.items():
        entry = {
            "kind": spec.kind,
            "generator": spec.generator,
            "description": spec.description,
            "requires_families": sorted(spec.requires_families),
            "machines": {},
        }
        for machine in MACHINES:
            if not spec.supported_on(machine):
                entry["machines"][machine] = {
                    "supported": False,
                    "refused_families": sorted(
                        spec.refused_families(machine)),
                }
                continue
            if progress is not None:
                progress(f"workloads: {name}/{machine}")
            red = Reduction(_engines.run_workload(
                name, instructions, seed=seed,
                machine=machine).histogram)
            entry["machines"][machine] = {
                "supported": True,
                "cpi": round(red.cycles_per_instruction(), 6),
                "cycles": red.total_cycles(),
            }
        doc["workloads"][name] = entry
    return doc


def render_workloads(doc: dict) -> str:
    """A text table of the registry inventory."""
    machines = sorted({machine
                       for entry in doc["workloads"].values()
                       for machine in entry["machines"]})
    lines = []
    lines.append(f"WORKLOADS - registry inventory "
                 f"({doc['count']} workloads, "
                 f"{doc['instructions']} instructions at seed "
                 f"{doc['seed']})")
    header = f"{'workload':24s} {'class':12s} {'kind':10s}" \
        + "".join(f" {name + ' CPI':>14s}" for name in machines)
    lines.append(header)
    for name, entry in doc["workloads"].items():
        marker = "*" if name == doc["default"] else " "
        cells = ""
        for machine in machines:
            row = entry["machines"].get(machine, {})
            cells += (f" {row['cpi']:14.3f}" if row.get("supported")
                      else f" {'refused':>14s}")
        lines.append(f"{marker}{name:23s} {entry['generator']:12s} "
                     f"{entry['kind']:10s}{cells}")
    lines.append("")
    lines.append("* = default workload; 'refused' = the machine lacks "
                 "a required executor family")
    return "\n".join(lines)


def main(argv=None) -> int:
    import sys

    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "WORKLOADS.json"

    def progress(line):
        print(line, file=sys.stderr, flush=True)

    doc = workloads_report(progress=progress)
    with open(out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_workloads(doc))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
