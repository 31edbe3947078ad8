"""Conservation laws for a completed measurement.

Every law here was derived from the machine model and holds *exactly* —
a failed check means the accounting is wrong, not that a tolerance was
missed.  The checks fall into three classes:

* **histogram-internal** — relations between µPC buckets (walk length,
  PTE read per service, Table 8 classification completeness).  These
  hold unconditionally.
* **cross-instrument** — histogram counts against the ground-truth
  tracer and memory-subsystem statistics.  The board and the tracer
  share the Null-process measurement gate, but a few tracer counters
  (exceptions, interrupts, context switches, fault counts) and all
  memory statistics are deliberately ungated; those laws are exact on
  runs where the gate never closed (``tracer.gated_off_cycles == 0``,
  true of all five standard workloads) and weaken to bounds otherwise.
* **conservation** — the headline law: histogram busy + stall total
  equals measured cycles plus overlapped decodes, where measured
  cycles are wall cycles minus gated-off (Null) cycles.
"""

from __future__ import annotations

from repro.analysis.reduction import Reduction, family_groups
from repro.arch.groups import OpcodeGroup
from repro.ucode.costs import TBM_INSERT_CYCLES, TBM_WALK_CYCLES
from repro.ucode.rows import COLUMN_ORDER, Column, ROW_ORDER

#: Cycles of one completed TB-miss service: the microtrap abort cycle,
#: the service entry, the table walk, the PTE read (non-stalled part),
#: and the TB insert.  Stall cycles on the PTE read come on top.
TBM_SERVICE_CYCLES = 1 + 1 + TBM_WALK_CYCLES + 1 + TBM_INSERT_CYCLES
#: Cycles a *faulted* service charges before raising: abort, entry,
#: walk, PTE read, and the two-cycle fault exit at the insert address.
TBM_FAULT_CYCLES = 1 + 1 + TBM_WALK_CYCLES + 1 + 2


class InvariantViolation(AssertionError):
    """An exact conservation law failed."""


class Check:
    """One evaluated law: name, relation, both sides, verdict."""

    __slots__ = ("name", "relation", "expected", "actual", "ok", "note")

    def __init__(self, name: str, relation: str, expected, actual,
                 ok: bool, note: str = "") -> None:
        self.name = name
        self.relation = relation   # "==" or "<="
        self.expected = expected
        self.actual = actual
        self.ok = ok
        self.note = note

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "ok" if self.ok else "FAIL"
        return (f"<Check {self.name}: {self.actual!r} {self.relation} "
                f"{self.expected!r} [{verdict}]>")

    def to_dict(self) -> dict:
        return {"name": self.name, "relation": self.relation,
                "expected": self.expected, "actual": self.actual,
                "ok": self.ok, "note": self.note}


class ValidationReport:
    """All checks evaluated against one measurement."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks: list = []

    def exact(self, name: str, expected, actual, note: str = "") -> None:
        self.checks.append(
            Check(name, "==", expected, actual, expected == actual, note))

    def bound(self, name: str, limit, actual, note: str = "") -> None:
        """Record ``actual <= limit``."""
        self.checks.append(
            Check(name, "<=", limit, actual, actual <= limit, note))

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list:
        return [check for check in self.checks if not check.ok]

    def raise_on_failure(self) -> None:
        bad = self.failures()
        if bad:
            lines = [f"{len(bad)} invariant(s) failed on {self.name!r}:"]
            lines += [f"  {check.name}: {check.actual!r} "
                      f"{check.relation} {check.expected!r}"
                      + (f"  ({check.note})" if check.note else "")
                      for check in bad]
            raise InvariantViolation("\n".join(lines))

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "checks": [check.to_dict() for check in self.checks]}


def check_measurement(measurement, machine: str = None) \
        -> ValidationReport:
    """Evaluate every conservation law against one measurement.

    ``machine`` optionally names the registered backend the measurement
    ran on (:mod:`repro.machines`); the capability laws that only make
    sense for that backend's feature set are then selected — e.g. a
    machine without the autonomous IB engine must show zero IB
    references, zero IB-stall cycles and zero overlapped decodes.
    """
    t = measurement.tracer
    h = measurement.histogram
    mem = measurement.memory
    red = Reduction(h)
    u = red.umap
    report = ValidationReport(measurement.name)
    ungated = t.gated_off_cycles == 0

    # -- conservation ----------------------------------------------------
    report.exact(
        "cycle-conservation",
        measurement.measured_cycles + t.overlapped_decodes,
        h.total_cycles(),
        "histogram busy+stall == wall - gated-off + overlapped decodes")

    # -- Table 8 classification ------------------------------------------
    report.exact("classification-complete", h.total_cycles(),
                 red.total_cycles(),
                 "every counted bucket lands in a Table 8 cell")
    report.exact("row-totals", red.total_cycles(),
                 sum(red.row_total(row) for row in ROW_ORDER),
                 "Table 8 row totals sum to the grand total")
    report.exact("column-totals", red.total_cycles(),
                 sum(red.column_total(col) for col in COLUMN_ORDER),
                 "Table 8 column totals sum to the grand total")

    # -- per-group execute attribution -----------------------------------
    groups = family_groups()
    raw = {group: 0 for group in OpcodeGroup}
    ns, st = h.nonstalled, h.stalled
    for family, slots in u.exec_flows.items():
        group = groups[family]
        for addr in slots.values():
            raw[group] += ns[addr] + st[addr]
    for group in OpcodeGroup:
        report.exact(f"execute-attribution-{group.name.lower()}",
                     raw[group], red.group_execute_cycles(group),
                     "group execute row == sum of its µPC flow slots")

    # -- instruction counts ----------------------------------------------
    report.exact("instructions-reduction-vs-dispatches",
                 t.decode_dispatches, red.instructions,
                 "IRD dispatch buckets == tracer dispatch count")
    if ungated:
        report.exact("instructions-dispatch-vs-completed",
                     t.instructions + t.instruction_aborts,
                     t.decode_dispatches,
                     "every dispatch completes or aborts (and a fault "
                     "restart re-dispatches)")
    else:
        # The gate toggles mid-instruction (inside the rescheduler's
        # MFPR), so one dispatch/completion pair can straddle it: the
        # difference is 0 with the gate open at capture, 1 with it
        # closed — never anything else.
        report.bound("instructions-dispatch-vs-completed-upper",
                     t.instructions + t.instruction_aborts + 1,
                     t.decode_dispatches,
                     "a close mid-instruction counts the dispatch only")
        report.bound("instructions-dispatch-vs-completed-lower",
                     t.decode_dispatches,
                     t.instructions + t.instruction_aborts,
                     "an open mid-instruction counts the completion only")

    # -- TB-miss service accounting --------------------------------------
    services = sum(t.tb_miss_services.values())
    report.exact("tb-walk-length",
                 TBM_WALK_CYCLES * ns[u.tbm_entry], ns[u.tbm_compute],
                 "every service entry walks the full table")
    report.exact("tb-pte-read-per-service",
                 ns[u.tbm_entry], ns[u.tbm_pte_read],
                 "one PTE read per service entry")
    expected_insert = (TBM_INSERT_CYCLES * services
                       + 2 * t.tb_miss_faults)
    if ungated:
        report.exact("tb-entries", services + t.tb_miss_faults,
                     ns[u.tbm_entry],
                     "service entries == completions + faulted services")
        report.exact("tb-insert-cycles", expected_insert,
                     ns[u.tbm_insert],
                     "insert cycles: full insert per completion, "
                     "2-cycle fault exit per faulted service")
    else:
        report.bound("tb-entries", services + t.tb_miss_faults,
                     ns[u.tbm_entry],
                     "fault counter is ungated; bound only")
        report.bound("tb-insert-cycles", expected_insert,
                     ns[u.tbm_insert],
                     "fault counter is ungated; bound only")
    report.exact("tb-service-cycles",
                 TBM_SERVICE_CYCLES * services + t.tb_miss_stall_cycles,
                 t.tb_miss_cycles,
                 "tracer service cycles == fixed cost + PTE stalls")
    if ungated and t.tb_miss_faults == 0:
        report.exact("tb-pte-stalls", t.tb_miss_stall_cycles,
                     st[u.tbm_pte_read],
                     "board PTE-read stalls == tracer stalls")
    else:
        # Faulted services stall on the board but are not in the
        # tracer's per-completion stall count.
        report.bound("tb-pte-stalls", st[u.tbm_pte_read],
                     t.tb_miss_stall_cycles,
                     "faulted services stall on the board only")

    # -- delivered events -------------------------------------------------
    if ungated:
        report.exact("exceptions-delivered", t.exceptions,
                     red.exceptions_delivered(),
                     "exception setup buckets recover the tracer count")
        report.exact("interrupts-delivered", t.interrupts,
                     red.interrupts_delivered(),
                     "irq entry executions == tracer interrupt count")
        report.exact("context-switches", t.context_switches,
                     red.context_switches(),
                     "LDPCTX dispatches == tracer switch count")
    else:
        report.bound("exceptions-delivered", t.exceptions,
                     red.exceptions_delivered(),
                     "event counters are ungated; bound only")
        report.bound("interrupts-delivered", t.interrupts,
                     red.interrupts_delivered(),
                     "event counters are ungated; bound only")
        report.bound("context-switches", t.context_switches,
                     red.context_switches(),
                     "event counters are ungated; bound only")

    # -- write-port accounting --------------------------------------------
    wstall = red.column_total(Column.WSTALL)
    writes = red.column_total(Column.WRITE)
    if ungated:
        report.exact("write-stalls", mem.write_stall_cycles, wstall,
                     "WSTALL column == write-buffer stall cycles")
    else:
        report.bound("write-stalls", mem.write_stall_cycles, wstall,
                     "memory statistics are ungated; bound only")
    report.bound("write-issues", mem.writes, writes,
                 "a crossing write issues twice for one WRITE cycle")

    # -- machine capabilities ---------------------------------------------
    if machine is not None:
        from repro.machines.registry import get_machine

        params = get_machine(machine).params
        if not params.ib_prefetch:
            report.exact("no-ib-engine", 0, mem.ib_references,
                         "a machine without the IB fill engine never "
                         "references the IB")
            report.exact("no-ib-stalls", 0,
                         red.column_total(Column.IBSTALL),
                         "no IB engine, no IB-stall cycles")
        if not params.overlapped_decode:
            report.exact("no-overlapped-decode", 0, t.overlapped_decodes,
                         "overlapped decode is absent from this machine")
        if params.unsupported_families:
            unsupported_groups = {
                family_groups()[family]
                for family in params.unsupported_families}
            for group in sorted(unsupported_groups,
                                key=lambda g: g.name):
                implemented = any(
                    family_groups()[family] is group
                    and family not in params.unsupported_families
                    for family in u.exec_flows)
                if implemented:
                    continue
                report.exact(
                    f"no-{group.name.lower()}-group-cycles", 0,
                    red.group_execute_cycles(group),
                    "the machine implements none of this group's "
                    "families, so its execute row must be empty")

    return report


def check_machine(machine, name: str = "machine") -> ValidationReport:
    """Capture a machine's state and evaluate the laws against it."""
    from repro.analysis.measurement import Measurement

    return check_measurement(Measurement.capture(name, machine))
