"""The refutation campaign planner: sweep, probe, refine, shrink.

A campaign walks the (MachineParams × workload × machine × budget ×
seed) space and tries to *refute* every registered assumption
(:mod:`repro.refute.assumptions`):

1. **Analytical phase** — one explore sweep per machine over the
   calibration anchors plus the probe budgets, through the
   content-addressed :class:`~repro.explore.store.ResultStore` (a warm
   store re-probes for free).  Mixes are built from the stored Table-8
   cells and every probe budget's estimate is confronted with the
   stored simulated CPI.  Probes closest to the error bound are then
   **refined**: the lowest-margin (workload, machine) budgets get extra
   probes at the midpoints toward their neighbouring anchors, so the
   campaign spends its extra simulations where the model is weakest.
2. **Measurement phase** — fresh simulations at every (workload,
   machine, variant, budget) point, fanned out over
   :func:`~repro.workloads.parallel.run_tasks` (order-preserving, so
   results are identical at any ``--jobs``), each probed against the
   conservation laws and the capability invariants.
3. **Suite phases** — the ubench smoke suite and the two differential
   fuzz axes (fast-vs-reference, batch-vs-scalar), each per machine.
4. **Shrink** — every measurement violation is bisected to its
   smallest failing budget; differential divergences arrive already
   shrunk by the fuzzer's own shrinkers.

A *planted* campaign (``plant=...``) runs with a deliberately
perturbed timing rule installed inside every worker: it skips the
analytical phase and never touches any store or memo cache, so the
perturbation cannot poison results a clean run would reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ApiError
from repro.machines.registry import DEFAULT_MACHINE
from repro.obs import metrics
from repro.refute.assumptions import (ASSUMPTIONS, ProbePoint,
                                      mix_from_records, probe_analytical,
                                      probe_capability,
                                      probe_conservation,
                                      probe_differential, probe_ubench,
                                      record_cpi, shrink_measurement)
from repro.refute.perturb import PERTURBATIONS

#: Bump when the REFUTATIONS.json layout changes.
REFUTATIONS_SCHEMA = 1

#: Measurement-violation shrinks per assumption per campaign; beyond
#: the cap, violations keep their witness point as the reproducer.
SHRINK_CAP = 4


class RefuteError(ApiError):
    """An invalid campaign or plant name."""


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative refutation campaign."""

    name: str
    workloads: tuple
    machines: tuple
    #: Instruction budgets probed (analytical targets and measurement
    #: points alike); deliberately off every anchor.
    budgets: tuple
    #: Calibration anchors for the analytical phase.
    anchors: tuple
    #: MachineParams override tuples probed on the default machine
    #: (subset machines are probed stock — their parameter space is
    #: the registry's business, not the campaign's).
    variants: tuple = ((),)
    #: Lowest-margin analytical probes refined with midpoint budgets.
    refine: int = 2
    fuzz_cases: int = 4
    batch_cases: int = 2
    #: Measured instructions per differential fuzz case.
    fuzz_budget: int = 300
    seed: int = 1984


STANDARD = CampaignSpec(
    name="standard",
    workloads=("timesharing-research", "timesharing-cpu-dev",
               "rte-educational", "rte-commercial", "rte-scientific"),
    machines=(DEFAULT_MACHINE, "uvax78032"),
    # 2k/4.5k/8k sit inside the anchor envelope, off every anchor;
    # 10.8k exercises the documented extrapolation window (1.2x the
    # last anchor, inside the 1.25x honor limit).
    budgets=(2_000, 4_500, 8_000, 10_800),
    anchors=(1_000, 3_000, 5_000, 7_000, 9_000),
    variants=((),
              (("overlapped_decode", True),),
              (("cache_bytes", 4_096),),
              (("tb_entries", 64),)),
    refine=2,
    fuzz_cases=6,
    batch_cases=3,
    fuzz_budget=300,
)

SMOKE = CampaignSpec(
    name="smoke",
    workloads=("timesharing-research", "rte-commercial"),
    machines=(DEFAULT_MACHINE, "uvax78032"),
    budgets=(900, 1_400),
    anchors=(400, 800, 1_200, 1_600),
    variants=((), (("overlapped_decode", True),)),
    refine=1,
    fuzz_cases=3,
    batch_cases=2,
    fuzz_budget=150,
)

CAMPAIGNS = {spec.name: spec for spec in (STANDARD, SMOKE)}


def _measurement_probe_task(payload) -> dict:
    """Worker entry point (top-level, so it pickles): one probe point.

    Simulates the point fresh (applying the plant, if any, inside this
    process) and evaluates every measurement-kind assumption against
    the one measurement, so the simulation cost is shared.
    """
    workload, machine, instructions, seed, overrides, plant = payload
    from repro.refute.assumptions import simulate_point

    point = ProbePoint(machine=machine, instructions=instructions,
                       seed=seed, workload=workload,
                       overrides=tuple(overrides))
    measurement = simulate_point(point, plant=plant)
    return {"label": point.label(),
            "probes": [probe_conservation(point, measurement),
                       probe_capability(point, measurement)]}


def _refinement_budgets(budget: int, margin_points: tuple,
                        existing: set) -> list:
    """Midpoints between a near-bound budget and its neighbours."""
    below = max((p for p in margin_points if p < budget), default=None)
    above = min((p for p in margin_points if p > budget), default=None)
    mids = []
    for neighbour in (below, above):
        if neighbour is None:
            continue
        mid = (budget + neighbour) // 2
        if mid > 0 and mid not in existing and mid != budget:
            mids.append(mid)
    return sorted(set(mids))


def _analytical_phase(spec, seed, jobs, store, progress,
                      probes, stats) -> None:
    """Sweep, calibrate from the store, probe, refine."""
    from repro.explore import ResultStore, run_sweep
    from repro.explore.space import Axis, SweepSpec

    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    all_budgets = tuple(sorted(set(spec.anchors) | set(spec.budgets)))
    mixes = {}           # (workload, machine) -> WorkloadMix
    records = {}         # (workload, machine) -> {budget: record}

    def sweep_into(machine, budgets):
        sweep_spec = SweepSpec(
            name=f"refute-{spec.name}-{machine}",
            axes=(Axis("instructions", tuple(budgets)),),
            mode="ofat", instructions=budgets[-1], seed=seed,
            workloads=spec.workloads, machine=machine)
        sweep = run_sweep(sweep_spec, store=store, jobs=jobs,
                          progress=progress)
        stats["simulations"] += sweep.stats["simulated"]
        stats["cached"] += sweep.stats["cached"]
        for entry in sweep.points:
            budget = entry["point"].instructions
            for workload in spec.workloads:
                records.setdefault((workload, machine), {})[budget] = \
                    entry["records"][workload]

    for machine in spec.machines:
        sweep_into(machine, all_budgets)
        for workload in spec.workloads:
            recs = records[(workload, machine)]
            mixes[(workload, machine)] = mix_from_records(
                workload, machine, spec.anchors, recs)

    def probe_at(workload, machine, budget):
        point = ProbePoint(machine=machine, workload=workload,
                           instructions=budget, seed=seed)
        record = records[(workload, machine)][budget]
        result = probe_analytical(mixes[(workload, machine)], point,
                                  record_cpi(record))
        probes.append(result)
        return result

    first_pass = [(probe_at(workload, machine, budget),
                   workload, machine, budget)
                  for machine in spec.machines
                  for workload in spec.workloads
                  for budget in spec.budgets]

    # Refinement: extra probes at the midpoints around the
    # nearest-to-bound results, worst margin first.
    ranked = sorted(first_pass,
                    key=lambda item: (item[0]["margin"], item[0]["label"]))
    margin_points = tuple(sorted(spec.anchors))
    refined = set()
    for result, workload, machine, budget in ranked[:spec.refine]:
        mids = _refinement_budgets(budget, margin_points,
                                   set(all_budgets) | refined)
        if not mids:
            continue
        refined.update(mids)
        if progress is not None:
            progress(f"refine: {workload} {machine} margin "
                     f"{result['margin']} -> budgets {mids}")
        for machine_name in {machine}:
            sweep_into(machine_name, tuple(mids))
        for mid in mids:
            probe_at(workload, machine, mid)
    stats["refined"] = sorted(refined)


class CampaignResult:
    """Everything one campaign produced, JSON-able end to end."""

    def __init__(self, spec: CampaignSpec, seed: int, plant,
                 probes: list, refutations: list, stats: dict) -> None:
        self.spec = spec
        self.seed = seed
        self.plant = plant
        self.probes = probes
        self.refutations = refutations
        self.stats = stats

    @property
    def ok(self) -> bool:
        """No assumption was refuted (a *clean* campaign's verdict)."""
        return not self.refutations

    def assumptions_summary(self) -> list:
        """Per-assumption rollup: probes, violations, worst margin."""
        rows = []
        for assumption in ASSUMPTIONS:
            mine = [p for p in self.probes
                    if p["assumption"] == assumption.name]
            margins = [p["margin"] for p in mine]
            rows.append({
                "name": assumption.name, "kind": assumption.kind,
                "description": assumption.description,
                "bound": assumption.bound, "probes": len(mine),
                "checks": sum(p["checks"] for p in mine),
                "violations": sum(len(p["violations"]) for p in mine),
                "worst_margin": min(margins) if margins else None,
            })
        return rows

    def margins(self, top: int = 10) -> list:
        """The probes nearest their bounds, nearest first."""
        ranked = sorted(self.probes,
                        key=lambda p: (p["margin"], p["label"]))
        return [{"assumption": p["assumption"], "label": p["label"],
                 "margin": p["margin"]} for p in ranked[:top]]

    def to_json(self) -> dict:
        """The campaign section of REFUTATIONS.json.

        Deliberately carries no wall-clock timing and nothing that
        depends on ``--jobs`` or store warmth, so the same campaign at
        any parallelism serialises byte-identically.
        """
        return {
            "campaign": self.spec.name, "seed": self.seed,
            "plant": self.plant,
            "spec": {
                "workloads": list(self.spec.workloads),
                "machines": list(self.spec.machines),
                "budgets": list(self.spec.budgets),
                "anchors": list(self.spec.anchors),
                "variants": [dict(variant)
                             for variant in self.spec.variants],
                "refine": self.spec.refine,
                "fuzz_cases": self.spec.fuzz_cases,
                "batch_cases": self.spec.batch_cases,
                "fuzz_budget": self.spec.fuzz_budget,
            },
            "assumptions": self.assumptions_summary(),
            "probes": len(self.probes),
            "refined_budgets": self.stats.get("refined", []),
            "margins": self.margins(),
            "refutations": self.refutations,
            "ok": self.ok,
        }


def run_campaign(spec: CampaignSpec, seed: int = None, jobs: int = 1,
                 store=".explore/store", plant: str = None,
                 progress=None) -> CampaignResult:
    """Run one refutation campaign and return every probe and verdict."""
    from repro.workloads.parallel import run_tasks
    from repro.workloads.registry import (WorkloadError, get_workload,
                                          workload_names)

    if plant is not None and plant not in PERTURBATIONS:
        raise RefuteError(
            f"unknown perturbation {plant!r}; registered plants: "
            f"{', '.join(PERTURBATIONS)}")
    # Every workload the campaign names must resolve up front — a typo
    # in a spec should fail here, not hours into the probe fan-out.
    for workload in spec.workloads:
        try:
            wspec = get_workload(workload)
        except WorkloadError:
            raise RefuteError(
                f"campaign {spec.name!r} names unknown workload "
                f"{workload!r}; registered: "
                f"{', '.join(workload_names())}") from None
        if wspec.trace is not None:
            raise RefuteError(
                f"campaign {spec.name!r} names trace-backed workload "
                f"{workload!r}; campaigns probe generator workloads "
                "(probe points vary budgets and params a recording "
                "cannot serve)")
    seed = spec.seed if seed is None else seed
    probes: list = []
    stats = {"simulations": 0, "cached": 0}
    metrics.counter("refute.campaigns").inc()
    obs.emit("refute_campaign_started", campaign=spec.name, seed=seed,
             plant=plant)

    # Phase 1: analytical (store-backed; a planted run skips it — the
    # calibration sweeps ride shared caches a perturbed simulation
    # must never write, and no plant targets the analytical tier).
    if plant is None:
        _analytical_phase(spec, seed, jobs, store, progress, probes,
                          stats)
    else:
        stats["skipped"] = ["analytical-cpi-bound"]

    # Phase 2: measurement probes, fanned out (order-preserving).
    points = []
    for machine in spec.machines:
        variants = spec.variants if machine == DEFAULT_MACHINE else ((),)
        for overrides in variants:
            for workload in spec.workloads:
                for budget in spec.budgets:
                    points.append(ProbePoint(
                        machine=machine, workload=workload,
                        instructions=budget, seed=seed,
                        overrides=tuple(overrides)))
    payloads = [(p.workload, p.machine, p.instructions, p.seed,
                 p.overrides, plant) for p in points]
    if progress is not None:
        progress(f"measurement probes: {len(points)} points")
    outs = run_tasks(_measurement_probe_task, payloads, jobs=jobs)
    stats["simulations"] += len(points)
    for out in outs:
        probes.extend(out["probes"])

    # Phase 3: the ubench suite per machine.
    for machine in spec.machines:
        probes.append(probe_ubench(machine, seed=seed, jobs=jobs,
                                   plant=plant))

    # Phase 4: the two differential axes per machine.
    for machine in spec.machines:
        probes.append(probe_differential(
            "fastpath-reference-identity", "reference", machine,
            spec.fuzz_cases, seed=seed, instructions=spec.fuzz_budget,
            jobs=jobs, plant=plant, progress=progress))
        probes.append(probe_differential(
            "batch-scalar-identity", "batch", machine, spec.batch_cases,
            seed=seed, instructions=spec.fuzz_budget, jobs=jobs,
            plant=plant, progress=progress))

    # Shrink: bisect measurement violations to minimal budgets (the
    # differential reproducers are already minimal).  One bisection
    # per violated (assumption, point), capped per assumption.
    refutations: list = []
    shrunk: dict = {}
    for probe in probes:
        for item in probe["violations"]:
            name = item["assumption"]
            if item["reproducer"] is None \
                    and name in ("conservation-laws",
                                 "capability-invariants") \
                    and shrunk.get(name, 0) < SHRINK_CAP:
                shrunk[name] = shrunk.get(name, 0) + 1
                point = ProbePoint(
                    machine=item["point"]["machine"],
                    workload=item["point"]["workload"],
                    instructions=item["point"]["instructions"],
                    seed=item["point"]["seed"],
                    overrides=tuple(sorted(
                        item["point"]["overrides"].items())))
                if progress is not None:
                    progress(f"shrink: {name} at {item['label']}")
                reproducer = shrink_measurement(name, point,
                                                plant=plant)
                stats["simulations"] += reproducer["simulations"]
                item["reproducer"] = reproducer
            refutations.append(item)
            metrics.counter("refute.refutations").inc()
            obs.emit("refutation", assumption=name,
                     label=item["label"], field=item["field"])

    obs.emit("refute_campaign_finished", campaign=spec.name,
             probes=len(probes), refutations=len(refutations),
             plant=plant)
    return CampaignResult(spec, seed, plant, probes, refutations, stats)


def run_self_check(seed: int = None, jobs: int = 1,
                   progress=None) -> list:
    """Run the smoke campaign once per planted bug; all must be caught.

    Returns one verdict dict per perturbation: which assumptions
    flagged it, whether the ``expect`` set was covered, and the
    smallest reproducer budget the campaign shrank a violation to.
    """
    checks = []
    for plant in PERTURBATIONS.values():
        if progress is not None:
            progress(f"self-check: planting {plant.name}")
        result = run_campaign(CAMPAIGNS["smoke"], seed=seed, jobs=jobs,
                              store=None, plant=plant.name,
                              progress=progress)
        detected_by = sorted({item["assumption"]
                              for item in result.refutations})
        budgets = [item["reproducer"]["instructions"]
                   for item in result.refutations
                   if item["reproducer"] is not None
                   and "instructions" in item["reproducer"]]
        checks.append({
            "perturbation": plant.name,
            "description": plant.description,
            "expect": list(plant.expect),
            "detected_by": detected_by,
            "detected": set(plant.expect) <= set(detected_by),
            "refutations": len(result.refutations),
            "min_reproducer_instructions": min(budgets) if budgets
            else None,
        })
    return checks
