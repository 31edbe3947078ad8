"""Coherence check: microbenchmark model vs. the composite measurement.

The microbenchmarks measure each instruction in isolation; the paper's
composite measures everything at once.  This pass closes the loop: it
takes the composite's µPC histogram, predicts every opcode group's
execute-row busy cycles from the *same* per-family cost constants the
kernel model uses (scaled by the composite's per-family instruction
counts), and demands agreement within a tolerance.

Irreducibly data-dependent slots (a multiply's iteration count, a string
instruction's length-driven work loop, RET's mask-driven pops) cannot be
predicted from instruction counts alone; those few slots are carried at
their measured value and reported as the row's unmodeled fraction, so
the check stays honest about how much of each group it actually
predicts.  SIMPLE and FIELD are checked as one combined row: the decode
fuses the last specifier cycle into execute for register/literal forms
of families spanning both groups, and only the combined pool of fused
cycles is recoverable from the histogram.

The paper's headline (Table 5: 10.6 cycles per instruction) rides along
in the summary for orientation.
"""

from __future__ import annotations

from repro.analysis.reduction import family_groups, reference_map

#: The paper's composite average cycles per instruction (Table 5).
PAPER_CPI = 10.6

#: Default relative tolerance for per-group execute-cycle agreement.
TOLERANCE = 0.05

# Per-family execute-row cost model, slot by slot.  Rules:
#   int                      -> that many cycles per executed instruction
#   "meas"                   -> carried at the measured count (unmodeled;
#                               data-dependent loop or event count)
#   ("scale", slot, k)       -> k cycles per execution of another slot
#   ("scalesum", slots, k)   -> k cycles per execution of several slots
# Any slot a family has but this table omits is treated as "meas".
_EXEC_MODEL = {
    "MOV": {"exec": 1}, "MOVZ": {"exec": 1}, "MCOM": {"exec": 1},
    "MNEG": {"exec": 1}, "CLR": {"exec": 1}, "CVT_INT": {"exec": 1},
    "MOVA": {"exec": 1}, "NOP": {"exec": 1},
    "MOVQ": {"exec": 2}, "CLRQ": {"exec": 2}, "PSW": {"exec": 2},
    "PUSHA": {"exec": 1, "push": 1}, "PUSHL": {"exec": 1, "push": 1},
    "ADDSUB": {"alu": 1}, "INCDEC": {"alu": 1}, "ADWC": {"alu": 1},
    "LOGICAL": {"alu": 1}, "BIT": {"alu": 1}, "CMP": {"alu": 1},
    "TST": {"alu": 1},
    "ADAWI": {"alu": 1, "interlock": 2},
    "INDEX": {"setup": 2, "check": 2, "mul": 8},
    "ASH": {"setup": 1, "shift": 2}, "ASHQ": {"setup": 1, "shift": 4},
    "ROT": {"setup": 1, "shift": 1},
    # Taken-branch work scales with the (measured) redirect count.
    "BCOND": {"test": 1, "redirect": "meas"},
    "BLB": {"test": 1, "redirect": "meas"},
    "AOB": {"alu": 1, "redirect": "meas"},
    "SOB": {"alu": 1, "redirect": "meas"},
    "ACB": {"alu": 2, "redirect": "meas"},
    "JMP": {"setup": 1, "redirect": 1},
    "BSB": {"setup": 1, "push": 1, "redirect": 1},
    "JSB": {"setup": 1, "push": 1, "redirect": 1},
    "RSB": {"setup": 1, "pop": 1, "redirect": 1},
    "CASE": {"setup": 2, "table": "meas", "redirect": 1},
    "EXT": {"setup": 5, "shift": 4, "fread": "meas"},
    "INSV": {"setup": 5, "shift": 4, "fread": "meas", "fwrite": "meas"},
    "CMPV": {"setup": 5, "shift": 4, "fread": "meas"},
    "FF": {"setup": 5, "fread": "meas", "scan": "meas"},
    "BB": {"setup": "meas", "fread": "meas", "fwrite": "meas",
           "redirect": "meas"},
    "FADDSUB": {"prep": 1, "fpa": 6}, "DADDSUB": {"prep": 1, "fpa": 6},
    "FCVT": {"prep": 1, "fpa": 5}, "DCVT": {"prep": 1, "fpa": 7},
    "FMOV": {"exec": 3}, "FCMP": {"exec": 3}, "DMOV": {"exec": 3},
    "DCMP": {"exec": 4},
    # Multiply/divide iteration counts are operand-value dependent.
    "FMULDIV": {"prep": 1, "fpa": "meas"},
    "DMULDIV": {"prep": 1, "fpa": "meas"},
    "MULDIV_INT": {"prep": 1, "loop": "meas"},
    "EMUL": {"prep": 1, "loop": 10}, "EDIV": {"prep": 1, "loop": 21},
    "CALL": {"entry": 6, "mask_read": 1, "work": ("scale", "push", 4),
             "push": "meas", "finish": 7, "redirect": 1},
    "RET": {"entry": 5, "pop": "meas", "work": "meas", "finish": 5,
            "redirect": 1},
    "PUSHR": {"entry": 2, "work": ("scale", "push", 2), "push": "meas"},
    "POPR": {"entry": 2, "work": ("scale", "pop", 2), "pop": "meas"},
    "CHM": {"entry": 9, "vector": 1, "push": 3, "finish": 7,
            "redirect": 1},
    "REI": {"entry": 6, "pop": 2, "finish": 7, "redirect": 1},
    "PROBE": {"check": 4},
    "INSQUE": {"entry": 5, "link": 1, "relink": 4, "finish": 2},
    "REMQUE": {"entry": 3, "link": 2, "relink": 2, "finish": 2},
    "MTPR": {"op": 5}, "MFPR": {"op": 5}, "HALT": {"op": 1},
    "SVPCTX": {"entry": 8, "work": 15, "save": 18, "pop": 2},
    "LDPCTX": {"entry": 8, "work": 17, "load": 18, "push": 2},
    "MOVC": {"entry": 4, "fetch": "meas", "work": "meas",
             "stores": "meas", "exit": 4},
    "CMPC": {"entry": 3, "fetch": "meas", "work": "meas", "exit": 2},
    "LOCC": {"entry": 2, "fetch": "meas", "work": ("scale", "fetch", 3),
             "exit": 2},
    "SKPC": {"entry": 2, "fetch": "meas", "work": ("scale", "fetch", 3),
             "exit": 2},
    "SCANC": {"entry": 2, "fetch": "meas", "table": "meas",
              "work": ("scale", "fetch", 2), "exit": 2},
    "SPANC": {"entry": 2, "fetch": "meas", "table": "meas",
              "work": ("scale", "fetch", 2), "exit": 2},
    "MOVTC": {"entry": 4, "fetch": "meas", "table": "meas",
              "work": "meas", "stores": "meas", "exit": 4},
    "MOVP": {"entry": 10, "fetch": "meas", "stores": "meas",
             "work": ("scalesum", ("fetch", "stores"), 6), "exit": 8},
    "CMPP": {"entry": 10, "fetch": "meas",
             "work": ("scalesum", ("fetch",), 6), "exit": 8},
    "ADDP": {"entry": 10, "fetch": "meas", "stores": "meas",
             "work": ("scalesum", ("fetch", "stores"), 6), "exit": 8},
    "SUBP": {"entry": 10, "fetch": "meas", "stores": "meas",
             "work": ("scalesum", ("fetch", "stores"), 6), "exit": 8},
    "CVTLP": {"entry": 10, "stores": "meas",
              "work": ("scalesum", ("stores",), 6), "exit": 8},
    "CVTPL": {"entry": 10, "fetch": "meas",
              "work": ("scalesum", ("fetch",), 6), "exit": 8},
}


def _family_prediction(family, slots, ns, n, extra=0):
    """(predicted cycles, modeled cycles) for one family's execute row.

    ``slots`` is the family's slot->address map; ``ns`` the nonstalled
    histogram; ``n`` the family's executed-instruction count; ``extra``
    the machine's per-instruction execute surcharge for the family's
    group (zero on the 780).  The modeled part excludes every slot
    carried at its measured value.
    """
    rules = _EXEC_MODEL.get(family, {})
    predicted = modeled = extra * n
    for slot, addr in slots.items():
        rule = rules.get(slot, "meas")
        if rule == "meas":
            predicted += ns[addr]
        elif isinstance(rule, int):
            predicted += rule * n
            modeled += rule * n
        elif rule[0] == "scale":
            _, src, k = rule
            cycles = k * ns[slots[src]]
            predicted += cycles
            modeled += cycles
        elif rule[0] == "scalesum":
            _, srcs, k = rule
            cycles = k * sum(ns[slots[s]] for s in srcs if s in slots)
            predicted += cycles
            modeled += cycles
        else:
            raise AssertionError(f"bad rule {rule!r} for {family}.{slot}")
    return predicted, modeled


def check_composite(measurement, tolerance=TOLERANCE, machine=None):
    """Check per-group execute cycles of a composite measurement.

    Returns a dict with one row per populated opcode group (SIMPLE and
    FIELD combined): measured vs. predicted busy cycles in the group's
    execute row, the relative error, and the modeled fraction.  ``ok``
    is True when every row's relative error is within ``tolerance``.
    ``machine`` optionally names the backend the composite ran on, so
    the prediction includes that machine's per-group execute surcharge.
    """
    extras = {}
    if machine is not None:
        from repro.machines.registry import get_machine

        extras = dict(get_machine(machine).params.exec_extra_cycles)
    store, umap = reference_map()
    ns = measurement.histogram.nonstalled
    groups = family_groups()

    per_group = {}
    for family, slots in umap.exec_flows.items():
        n = ns[umap.ird[family]]
        measured = sum(ns[addr] for addr in slots.values())
        if not n and not measured:
            continue
        predicted, modeled = _family_prediction(
            family, slots, ns, n,
            extra=extras.get(groups[family].name, 0))
        group = groups[family].name.lower()
        row = per_group.setdefault(group, {
            "group": group, "instructions": 0, "measured": 0,
            "predicted": 0, "modeled": 0,
        })
        row["instructions"] += n
        row["measured"] += measured
        row["predicted"] += predicted
        row["modeled"] += modeled

    # Merge SIMPLE and FIELD: their fused specifier+execute cycles are
    # charged to the spec rows' fused slots, and that pool is only
    # recoverable combined.  Subtract it from the prediction.
    fused_pool = sum(ns[addr] for addr in umap.spec_fused.values())
    merged = {"group": "simple+field", "instructions": 0, "measured": 0,
              "predicted": 0, "modeled": 0}
    for name in ("simple", "field"):
        row = per_group.pop(name, None)
        if row is None:
            continue
        for key in ("instructions", "measured", "predicted", "modeled"):
            merged[key] += row[key]
    if merged["instructions"]:
        merged["predicted"] -= fused_pool
        merged["modeled"] -= fused_pool
        per_group["simple+field"] = merged

    rows = []
    for row in per_group.values():
        measured, predicted = row["measured"], row["predicted"]
        rel_err = (abs(measured - predicted) / measured) if measured \
            else (1.0 if predicted else 0.0)
        row["rel_err"] = rel_err
        row["modeled_fraction"] = (row["modeled"] / predicted) \
            if predicted else 1.0
        row["ok"] = rel_err <= tolerance
        rows.append(row)
    rows.sort(key=lambda r: r["group"])

    instructions = sum(ns[addr] for addr in umap.ird.values())
    total = measurement.cycles
    return {
        "rows": rows,
        "tolerance": tolerance,
        "ok": all(r["ok"] for r in rows),
        "instructions": instructions,
        "cycles": total,
        "cpi": (total / instructions) if instructions else 0.0,
        "paper_cpi": PAPER_CPI,
    }
