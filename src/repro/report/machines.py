"""Cross-machine comparison: the paper's workloads on every backend.

:func:`machines_report` runs the five standard workloads on each
registered machine (:mod:`repro.machines`), decomposes each run's CPI
into the Table-8 stall columns, confronts the analytical tier's
estimate with every simulation, and returns one JSON-able document —
the committed ``MACHINES.json`` at the repository root.  The document
answers the cross-machine questions the paper's methodology was built
for: where the cycles go on each machine, which workloads the 78032's
shorter memory path helps most, and how far the analytical estimates
can be trusted (recorded per-workload error against the simulator).

Regenerate with ``python tools/artifacts.py MACHINES.json``, which runs
this module.
"""

from __future__ import annotations

import json

from repro.machines.analytical import (CALIBRATION_ANCHORS, ERROR_BOUND,
                                       calibrate, check_estimate)
from repro.machines.registry import machine_names, get_machine

#: Bump when the MACHINES.json document layout changes.
MACHINES_SCHEMA = 1


def _column_totals(red) -> dict:
    from repro.ucode.rows import COLUMN_ORDER

    n = red.instructions or 1
    return {col.name: round(red.column_total(col) / n, 6)
            for col in COLUMN_ORDER}


def machines_report(instructions: int = 60_000,
                    anchors: tuple = CALIBRATION_ANCHORS,
                    seed: int = 1984, machines: tuple = None,
                    progress=None) -> dict:
    """The cross-machine comparison document (see module docstring)."""
    from repro.analysis.reduction import Reduction
    from repro.workloads import engine as _engines
    from repro.workloads.registry import paper_workloads

    if machines is None:
        machines = machine_names()
    doc = {
        "schema": MACHINES_SCHEMA,
        "instructions": instructions,
        "anchors": list(anchors),
        "seed": seed,
        "error_bound": ERROR_BOUND,
        "machines": {},
        "comparison": {},
    }
    worst = 0.0
    cpis: dict = {}
    for name in machines:
        spec = get_machine(name)
        workloads = {}
        total_cycles = 0
        total_instructions = 0
        for wspec in paper_workloads():
            profile = wspec.profile
            if progress is not None:
                progress(f"machines: {name}/{profile.name}")
            red = Reduction(_engines.run_workload(
                profile.name, instructions, seed=seed,
                machine=name).histogram)
            mix = calibrate(profile.name, name, anchors=anchors,
                            seed=seed)
            check = check_estimate(mix, instructions, seed=seed)
            worst = max(worst, check["rel_err"])
            cpi = red.cycles_per_instruction()
            cpis.setdefault(profile.name, {})[name] = cpi
            total_cycles += red.total_cycles()
            total_instructions += red.instructions
            workloads[profile.name] = {
                "simulated_cpi": round(cpi, 6),
                "analytical_cpi": check["analytical_cpi"],
                "analytical_error": check["rel_err"],
                "analytical_ok": check["ok"],
                "columns": _column_totals(red),
                "steady_cpi": round(mix.steady_cpi, 6),
            }
        doc["machines"][name] = {
            "description": spec.description,
            "cpi_nominal": spec.cpi_nominal,
            "subset": spec.subset,
            "workloads": workloads,
            "composite": {
                "cycles": total_cycles,
                "instructions": total_instructions,
                "cpi": round(total_cycles / (total_instructions or 1),
                             6),
            },
        }
    reference = machines[0]
    for workload, per_machine in cpis.items():
        entry = {name: round(cpi, 6)
                 for name, cpi in per_machine.items()}
        for name, cpi in per_machine.items():
            if name != reference and cpi:
                entry[f"cpi_ratio_{name}"] = round(
                    per_machine[reference] / cpi, 6)
        doc["comparison"][workload] = entry
    doc["analytical_worst_error"] = round(worst, 6)
    doc["analytical_all_ok"] = worst <= ERROR_BOUND
    return doc


def render_machines(doc: dict) -> str:
    """A text table of the cross-machine CPI decomposition."""
    lines = []
    lines.append("MACHINES - Cross-machine CPI decomposition "
                 f"({doc['instructions']} instructions/workload)")
    for name, machine in doc["machines"].items():
        lines.append("")
        lines.append(f"{name}: {machine['description']}")
        header = (f"{'workload':22s} {'sim CPI':>8s} {'analyt':>8s} "
                  f"{'err':>6s}  {'busy':>6s} {'stall':>6s}")
        lines.append(header)
        for wname, row in machine["workloads"].items():
            cols = row["columns"]
            busy = (cols.get("COMPUTE", 0) + cols.get("READ", 0)
                    + cols.get("WRITE", 0))
            stall = (cols.get("RSTALL", 0) + cols.get("WSTALL", 0)
                     + cols.get("IBSTALL", 0))
            lines.append(
                f"{wname:22s} {row['simulated_cpi']:8.3f} "
                f"{row['analytical_cpi']:8.3f} "
                f"{100 * row['analytical_error']:5.1f}%  "
                f"{busy:6.3f} {stall:6.3f}")
        composite = machine["composite"]
        lines.append(f"{'composite':22s} {composite['cpi']:8.3f}   "
                     f"(nominal ~{machine['cpi_nominal']:.1f})")
    lines.append("")
    lines.append(f"analytical worst error: "
                 f"{100 * doc['analytical_worst_error']:.2f}% "
                 f"(bound {100 * doc['error_bound']:.0f}%)")
    return "\n".join(lines)


def main(argv=None) -> int:
    import sys

    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "MACHINES.json"

    def progress(line):
        print(line, file=sys.stderr, flush=True)

    doc = machines_report(progress=progress)
    with open(out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_machines(doc))
    print(f"\nwrote {out}")
    return 0 if doc["analytical_all_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
