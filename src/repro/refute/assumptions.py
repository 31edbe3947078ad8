"""The declarative assumption registry and its probe/shrink machinery.

Every quantitative claim this reproduction rests on is written down
here as an :class:`Assumption` — a named contract with a documented
bound — together with the code that *probes* it at a concrete
:class:`ProbePoint` and *shrinks* a violation to a minimal reproducer:

* ``conservation-laws`` — the 24 exact accounting laws of
  :mod:`repro.validate.invariants` hold on every measurement.
* ``capability-invariants`` — cross-machine feature laws: a machine
  (or override point) without the IB engine never references the IB,
  one without overlapped decode never overlaps a decode.
* ``analytical-cpi-bound`` — the analytical tier's CPI estimate stays
  within its recorded error bound of a full simulation (5% in the
  amortized envelope, 15% in the cold-start segment and the
  documented extrapolation window).
* ``ubench-exactness`` — every microbenchmark kernel's measured busy
  cycles equal the model's prediction exactly, and reconcile.
* ``fastpath-reference-identity`` — the optimised EBOX is bit-identical
  to the per-cycle reference spec on seeded random workloads.
* ``batch-scalar-identity`` — the batch engine is bit-identical to
  independent scalar runs at every capture boundary.

Violations are plain dicts (JSON-able end to end) so probe tasks can
cross process boundaries and the campaign report can be committed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machines.analytical import WorkloadMix


@dataclass(frozen=True)
class Assumption:
    """One named contract the campaign tries to refute."""

    name: str
    #: How the planner probes it: ``measurement`` (needs a full
    #: simulated Measurement per point), ``analytical`` (store-backed
    #: sweep records), ``ubench`` (the kernel suite), or
    #: ``differential`` (the differential fuzzers).
    kind: str
    description: str
    #: Human-readable statement of the bound a violation crosses.
    bound: str


ASSUMPTIONS = (
    Assumption(
        name="conservation-laws", kind="measurement",
        description="the exact accounting laws of repro.validate hold "
                    "on every measurement",
        bound="every law exact (== / <=), zero tolerance"),
    Assumption(
        name="capability-invariants", kind="measurement",
        description="absent machine features leave zero trace: no IB "
                    "references or IB stalls without the fill engine, "
                    "no overlapped decodes without the feature",
        bound="feature counters exactly zero"),
    Assumption(
        name="analytical-cpi-bound", kind="analytical",
        description="the analytical CPI tier matches a full simulation "
                    "within its recorded error bound",
        bound="rel err <= 0.05 amortized, <= 0.15 in the cold-start "
              "segment or extrapolated"),
    Assumption(
        name="ubench-exactness", kind="ubench",
        description="every microbenchmark kernel measures exactly its "
                    "predicted busy cycles and reconciles",
        bound="busy delta exactly zero, overhead fully accounted"),
    Assumption(
        name="fastpath-reference-identity", kind="differential",
        description="the optimised EBOX is bit-identical to the "
                    "per-cycle reference spec",
        bound="architectural state and histograms identical"),
    Assumption(
        name="batch-scalar-identity", kind="differential",
        description="the batch engine is bit-identical to "
                    "independent scalar runs at every capture boundary",
        bound="every measurement observable identical"),
)

ASSUMPTIONS_BY_NAME = {a.name: a for a in ASSUMPTIONS}


@dataclass(frozen=True)
class ProbePoint:
    """One concrete place an assumption is probed.

    ``workload`` is ``None`` for probes that do not run a workload (the
    ubench suite, the differential fuzzers).  ``overrides`` is a sorted
    tuple of MachineParams (field, value) pairs, exactly the explore
    subsystem's convention.
    """

    machine: str
    instructions: int
    seed: int
    workload: str = None
    overrides: tuple = ()

    def label(self) -> str:
        parts = [self.workload or "-", self.machine,
                 f"n={self.instructions}", f"seed={self.seed}"]
        parts += [f"{name}={value}" for name, value in self.overrides]
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"workload": self.workload, "machine": self.machine,
                "instructions": self.instructions, "seed": self.seed,
                "overrides": {name: value
                              for name, value in self.overrides}}


def _json_value(value):
    """Coerce an observed/predicted value into something JSON-able."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_value(item)
                for key, item in value.items()}
    return repr(value)


def violation(assumption: str, point: ProbePoint, field: str,
              observed, predicted, note: str = "",
              reproducer: dict = None) -> dict:
    """One refutation record: the witness and its evidence."""
    delta = None
    if isinstance(observed, (int, float)) \
            and isinstance(predicted, (int, float)) \
            and not isinstance(observed, bool) \
            and not isinstance(predicted, bool):
        delta = round(observed - predicted, 9)
    return {"assumption": assumption, "point": point.to_json(),
            "label": point.label(), "field": field,
            "observed": _json_value(observed),
            "predicted": _json_value(predicted), "delta": delta,
            "note": note, "reproducer": reproducer}


# -- measurement probes --------------------------------------------------


def effective_params(point: ProbePoint):
    """The MachineParams the point actually simulates with."""
    from repro.machines.registry import get_machine

    base = get_machine(point.machine).params
    return base.with_overrides(**dict(point.overrides))


def simulate_point(point: ProbePoint, plant: str = None):
    """Fresh, direct simulation of one probe point.

    Deliberately bypasses the workload engine's process-wide memo (and
    any store): probe points carry params overrides the memo key does
    not encode, and a *planted* run must never poison a cache another
    caller could hit.
    """
    from repro.analysis.measurement import Measurement
    from repro.machines.registry import get_machine
    from repro.osim.executive import Executive
    from repro.refute.perturb import perturbation
    from repro.workloads.registry import get_workload

    spec = get_machine(point.machine)
    profile = get_workload(point.workload).profile
    with perturbation(plant):
        machine = spec.build(effective_params(point))
        executive = Executive(machine, spec.adapt_profile(profile),
                              seed=point.seed)
        executive.boot()
        executive.run(point.instructions)
        return Measurement.capture(point.workload, machine)


def probe_conservation(point: ProbePoint, measurement) -> dict:
    """Evaluate the exact conservation laws at one point.

    The machine-capability laws are handled by ``capability-invariants``
    (they need the point's *effective* params, not the registry's), so
    the report here runs the unconditional laws only.
    """
    from repro.validate import check_measurement

    report = check_measurement(measurement, machine=None)
    violations = [
        violation("conservation-laws", point, check.name, check.actual,
                  check.expected,
                  note=f"{check.note} (relation {check.relation})")
        for check in report.failures()]
    return {"assumption": "conservation-laws", "point": point.to_json(),
            "label": point.label(), "checks": len(report.checks),
            "ok": not violations,
            "margin": 0.0 if violations else 1.0,
            "violations": violations}


def probe_capability(point: ProbePoint, measurement) -> dict:
    """Feature laws against the point's *effective* params.

    This is what covers the cross-machine invariants — "the 78032
    never overlaps decode" — and their override-point generalisations
    ("a 780 swept to ``overlapped_decode=False`` never overlaps one
    either"), which the registry-keyed laws in
    :func:`repro.validate.check_measurement` cannot see.
    """
    from repro.analysis.reduction import Reduction
    from repro.ucode.rows import Column

    params = effective_params(point)
    checks = []
    if not params.ib_prefetch:
        checks.append(("ib-references", measurement.memory.ib_references,
                       "no IB fill engine, no IB references"))
        checks.append(
            ("ib-stall-cycles",
             Reduction(measurement.histogram).column_total(Column.IBSTALL),
             "no IB fill engine, no IB-stall cycles"))
    if not params.overlapped_decode:
        checks.append(("overlapped-decodes",
                       measurement.tracer.overlapped_decodes,
                       "overlapped decode is absent from this point"))
    violations = [
        violation("capability-invariants", point, field, actual, 0,
                  note=note)
        for field, actual, note in checks if actual != 0]
    return {"assumption": "capability-invariants",
            "point": point.to_json(), "label": point.label(),
            "checks": len(checks), "ok": not violations,
            "margin": 0.0 if violations else 1.0,
            "violations": violations}


MEASUREMENT_PROBES = {
    "conservation-laws": probe_conservation,
    "capability-invariants": probe_capability,
}


def shrink_measurement(assumption: str, point: ProbePoint,
                       plant: str = None, limit: int = 20) -> dict:
    """Bisect the instruction budget to the smallest failing one.

    Accounting skew persists once introduced (the deterministic run at
    a smaller budget is a prefix of the larger one), so failure is
    monotone in the budget and a binary search finds the minimum; the
    returned reproducer carries the violations re-observed *at* the
    minimal budget, so the evidence matches the reproducer exactly.
    ``limit`` bounds the simulations spent (the search needs at most
    ``log2(budget)`` of them).
    """
    probe = MEASUREMENT_PROBES[assumption]

    def failing(n):
        small = replace(point, instructions=n)
        result = probe(small, simulate_point(small, plant=plant))
        return None if result["ok"] else result

    steps = 0
    lo, hi = 1, point.instructions
    best = None
    while lo < hi and steps < limit:
        mid = (lo + hi) // 2
        steps += 1
        result = failing(mid)
        if result is None:
            lo = mid + 1
        else:
            hi = mid
            best = result
    if best is None or best["point"]["instructions"] != hi:
        steps += 1
        best = failing(hi)
    if best is None:
        # Non-monotone failure (should not happen for accounting skew);
        # fall back to the original budget as its own reproducer.
        steps += 1
        best = failing(point.instructions)
        hi = point.instructions
    return {"kind": "budget-bisection", "assumption": assumption,
            "workload": point.workload, "machine": point.machine,
            "seed": point.seed, "instructions": hi,
            "overrides": {name: value
                          for name, value in point.overrides},
            "simulations": steps,
            "violations": best["violations"] if best else []}


# -- analytical probes ---------------------------------------------------


def mix_from_records(workload: str, machine: str, anchors: tuple,
                     records: dict) -> WorkloadMix:
    """Build a :class:`WorkloadMix` from explore-store sweep records.

    ``records`` maps instruction budget -> store record; the records
    carry the full Table-8 ``cells`` reduction, which is exactly what
    :func:`repro.machines.analytical.calibrate` derives from a fresh
    simulation — so a calibration rides the store instead of
    re-simulating.
    """
    anchors = tuple(sorted(anchors))
    keys = sorted({(row, col)
                   for n in anchors
                   for row, cols in records[n]["cells"].items()
                   for col in cols})
    cells = tuple(
        (row, col,
         tuple(float(records[n]["cells"].get(row, {}).get(col, 0))
               for n in anchors))
        for row, col in keys)
    return WorkloadMix(workload, machine, anchors, cells, group_mix=())


def record_cpi(record: dict) -> float:
    """The simulated reduction CPI a store record encodes.

    Sum of the Table-8 cells over measured instructions — the same
    quantity ``check_estimate`` computes from a fresh simulation.
    """
    total = sum(cycles for cols in record["cells"].values()
                for cycles in cols.values())
    return total / record["instructions_measured"]


def probe_analytical(mix: WorkloadMix, point: ProbePoint,
                     simulated_cpi: float) -> dict:
    """Confront one analytical estimate with the simulated ground truth.

    The margin is the headroom to the estimate's own bound (0.0 = at or
    over the bound, 1.0 = a perfect match); the planner refines the
    smallest margins with extra probes nearby.
    """
    estimate = mix.estimate(point.instructions)
    rel_err = abs(estimate.cpi - simulated_cpi) / simulated_cpi \
        if simulated_cpi else 0.0
    bound = estimate.error_bound
    ok = rel_err <= bound
    margin = max(0.0, 1.0 - (rel_err / bound if bound else 1.0))
    violations = []
    if not ok:
        violations.append(violation(
            "analytical-cpi-bound", point, "cpi",
            round(simulated_cpi, 6), round(estimate.cpi, 6),
            note=f"rel err {rel_err:.6f} > bound {bound} "
                 f"(extrapolated={estimate.extrapolated}, "
                 f"transient={estimate.transient})",
            reproducer={
                "kind": "analytical-estimate", "workload": mix.workload,
                "machine": mix.machine, "anchors": list(mix.anchors),
                "seed": point.seed,
                "instructions": point.instructions,
                "analytical_cpi": round(estimate.cpi, 6),
                "simulated_cpi": round(simulated_cpi, 6),
                "rel_err": round(rel_err, 6), "bound": bound,
                "extrapolated": estimate.extrapolated,
                "transient": estimate.transient}))
    return {"assumption": "analytical-cpi-bound",
            "point": point.to_json(), "label": point.label(),
            "checks": 1, "ok": ok, "margin": round(margin, 6),
            "rel_err": round(rel_err, 6), "bound": bound,
            "extrapolated": estimate.extrapolated,
            "transient": estimate.transient,
            "violations": violations}


# -- ubench probes -------------------------------------------------------


def probe_ubench(machine: str, seed: int, jobs: int = 1,
                 plant: str = None) -> dict:
    """Run the smoke kernel suite on one machine; exactness is the law.

    A kernel is its own minimal reproducer — each is a fixed
    straight-line program measured at a fixed copy count — so no
    shrinking pass is needed.
    """
    from repro.refute.perturb import perturbation
    from repro.ubench import runner, suite

    point = ProbePoint(machine=machine, instructions=0, seed=seed,
                       workload=None)
    with perturbation(plant):
        kernels = suite.select(smoke=True, machine=machine)
        # A planted run must stay in-process: pool workers would not
        # inherit the patch under a spawn start method.
        results = runner.run_suite(
            kernels, jobs=1 if plant is not None else jobs,
            machine=machine)
    violations = []
    for result in results:
        if result["exact"] and result["reconciled"]:
            continue
        violations.append(violation(
            "ubench-exactness", point, f"kernel:{result['kernel']}",
            {"exact": result["exact"],
             "reconciled": result["reconciled"],
             "busy_delta": result["busy_delta"]},
            {"exact": True, "reconciled": True, "busy_delta": {}},
            note="measured busy cycles differ from the model's "
                 "prediction",
            reproducer={"kind": "kernel", "kernel": result["kernel"],
                        "machine": machine,
                        "copies": result["measured_copies"],
                        "instructions": result["instructions"]}))
    return {"assumption": "ubench-exactness", "point": point.to_json(),
            "label": f"ubench-smoke {machine}", "checks": len(results),
            "ok": not violations,
            "margin": 0.0 if violations else 1.0,
            "violations": violations}


# -- differential probes -------------------------------------------------


def _profile_overrides(profile) -> dict:
    """The fuzz profile's deltas against its registered base profile."""
    from dataclasses import fields as dc_fields

    from repro.workloads.registry import WORKLOADS

    base = next((spec.profile for spec in WORKLOADS.values()
                 if spec.trace is None
                 and profile.name.endswith(spec.name)), None)
    if base is None:
        return {}
    return {spec.name: _json_value(getattr(profile, spec.name))
            for spec in dc_fields(profile)
            if spec.name != "name"
            and getattr(profile, spec.name) != getattr(base, spec.name)}


def probe_differential(assumption: str, kind: str, machine: str,
                       count: int, seed: int, instructions: int,
                       jobs: int = 1, plant: str = None,
                       progress=None) -> dict:
    """Fuzz one engine-identity assumption on ``machine`` and shrink
    any divergence.

    ``kind`` selects the fuzz axis (``reference`` or ``batch``); the
    shrinking happens inside :mod:`repro.validate.differential`'s
    workers, so the reproducers here are already minimal (the reference
    axis guarantees a window of at most
    :data:`~repro.validate.differential.WINDOW` instructions).
    """
    from repro.validate.differential import _fuzz_loop

    point = ProbePoint(machine=machine, instructions=instructions,
                       seed=seed, workload=None)
    results = _fuzz_loop(count, seed, instructions, progress, kind,
                         jobs=jobs, plant=plant, machine=machine)
    violations = []
    for result in results:
        if result["ok"]:
            continue
        reproducer = result["reproducer"]
        divergence = reproducer.divergence
        case = reproducer.case
        violations.append(violation(
            assumption, point, divergence.field, divergence.fast,
            divergence.reference,
            note=f"diverged at boundary {divergence.step} "
                 f"({divergence.instructions} measured)",
            reproducer={
                "kind": f"fuzz-{kind}", "profile": case.profile.name,
                "profile_overrides": _profile_overrides(case.profile),
                "seed": case.seed, "instructions": case.instructions,
                "field": divergence.field, "step": divergence.step,
                "window": [[step, f"{pc:#010x}", mnemonic]
                           for step, pc, mnemonic in divergence.window],
            }))
    return {"assumption": assumption, "point": point.to_json(),
            "label": f"fuzz-{kind} {machine} x{count} n={instructions}",
            "checks": len(results), "ok": not violations,
            "margin": 0.0 if violations else 1.0,
            "violations": violations}
